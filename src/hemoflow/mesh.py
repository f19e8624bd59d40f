"""Tetrahedral vessel meshes.

Meshes are linear tetrahedra with a triangulated boundary. Boundary
triangles carry integer labels: 0 is the vessel wall, 1 the inlet, and
2 and above are outlets. Boundary triangles are stored oriented so the
right-hand-rule normal points into the fluid.

File format is VTK legacy BINARY unstructured grids: the POINTS, then the
CELLS and CELL_TYPES, tetrahedra first and boundary triangles after, then
a ``boundary_label`` integer cell-data array (-1 on tetrahedra). Each
section is its header lines as text, then its values as raw big-endian
doubles (points and point data) or int32 (cells, cell types, labels)
and a newline, so every double is stored bit for bit. ``load_mesh``
reads this layout alone and stops after the label array, so the point
data of an exported field file is skipped; the same layout in ASCII,
as earlier versions wrote it, loads too. Package metadata (for example
the generated pipe geometry) rides in the 256-character VTK title line
as JSON and survives a save/load round trip.

Memory follows the mesh, not its intermediates: edges, cross products and
volumes are formed ``_TET_CHUNK`` tets at a time into the (T,) and
(3, 3, T) results, nodal volumes and wall normals are summed to the
corners a chunk of rows at a time (``_corner_sums``), the boundary is
found from one int64 key per tet face (``_triple_order``), and the
generated pipe splits, orients and bounds one layer of prisms, then
tiles it along the axis, with no Python loop over triangles or layers.
So generating the resolution-2 pipe takes 2-3 ms of CPU and peaks at
about 1.25 times the mesh it returns (traced allocation; 10-16 ms and
1.1 times at resolution 3; one BLAS thread, 2-CPU Xeon), and validating
it at under 3 times.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LabelingError, MeshError, ValidationError

__all__ = [
    "TetMesh",
    "CutPlane",
    "load_mesh",
    "save_mesh",
    "validate_mesh",
    "tet_volumes",
    "nodal_volumes",
    "wall_vertices",
    "wall_normals",
    "segment_labels",
    "segment_names",
    "generate_pipe_mesh",
    "pipe_layers",
    "generate_box_mesh",
]

WALL_LABEL = 0
INLET_LABEL = 1
FIRST_OUTLET_LABEL = 2

# ring spacing of the generated pipe: radius of ring x in (0, 1] is
# (1 + g) x - g x^2, so rings crowd toward the wall
WALL_GRADING = 0.5

# the generated pipe's resolutions and its layers of prisms along z at each
PIPE_LAYER_COUNTS = {r: 5 * 2 ** r for r in range(7)}

# Local vertex triples of the four faces of a positively oriented
# tetrahedron, face j opposite corner j, wound so the right-hand-rule
# normal points into the tet: the boundary windings come from this table.
_TET_FACES = np.array([[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]])


@dataclass
class TetMesh:
    """Tetrahedral mesh with labeled, inward-oriented boundary triangles.

    Attributes
    ----------
    vertices : (N, 3) float array, meters.
    tets : (M, 4) int array.
    boundary_faces : (B, 3) int array
        Right-hand-rule normals point into the fluid.
    boundary_labels : (B,) int array
        0 wall, 1 inlet, >= 2 outlets.
    metadata : dict
        Free-form; generators record their geometry here.
    """

    vertices: np.ndarray
    tets: np.ndarray
    boundary_faces: np.ndarray
    boundary_labels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.tets = np.ascontiguousarray(self.tets, dtype=np.int64)
        self.boundary_faces = np.ascontiguousarray(self.boundary_faces,
                                                   dtype=np.int64)
        self.boundary_labels = np.ascontiguousarray(self.boundary_labels,
                                                    dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (N, 3), got {self.vertices.shape}")
        if self.tets.ndim != 2 or self.tets.shape[1] != 4:
            raise MeshError(f"tets must be (M, 4), got {self.tets.shape}")
        if self.boundary_faces.shape[0] != self.boundary_labels.shape[0]:
            raise MeshError("one label per boundary face required")
        for name, conn in (("tets", self.tets), ("faces", self.boundary_faces)):
            if conn.size and (conn.min() < 0 or conn.max() >= len(self.vertices)):
                raise MeshError(f"{name} reference nonexistent vertices")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]


@dataclass(frozen=True)
class CutPlane:
    """Oriented plane given by a point on it and its normal."""

    point: tuple[float, float, float]
    normal: tuple[float, float, float]

    def unit_normal(self) -> np.ndarray:
        n = np.asarray(self.normal, dtype=float)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValidationError("cut plane normal must be nonzero")
        return n / norm

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=float)
                - np.asarray(self.point, dtype=float)) @ self.unit_normal()


# =========================================================================
# Core queries
# =========================================================================

# Tets per chunk of the geometry loops; bounds their temporaries to about
# a megabyte whatever the mesh size.
_TET_CHUNK = 8192


def _tet_edges(vertices: np.ndarray, tets: np.ndarray):
    """Edges of the tets, one chunk of ``_TET_CHUNK`` tets at a time.

    Yields ``(chunk, edges)``: the slice of tets and their edges as
    (3, 3, n) columns, ``edges[k, c]`` coordinate c of
    e_{k+1} = x_{k+1} - x_0, one contiguous column, gathered per
    coordinate.
    """
    for start in range(0, len(tets), _TET_CHUNK):
        chunk = slice(start, start + _TET_CHUNK)
        corner_ids = np.ascontiguousarray(tets[chunk].T)
        edges = np.empty((3, 3, corner_ids.shape[1]))
        for c in range(3):
            x = vertices[:, c].take(corner_ids)        # (4, n) per corner
            np.subtract(x[1:], x[0], out=edges[:, c])
        yield chunk, edges


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a x b of (3, T) columns into ``out``, in ``np.cross``'s operation
    order, so it equals ``np.cross`` bit for bit."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    out[0] = a1 * b2 - a2 * b1
    out[1] = a2 * b0 - a0 * b2
    out[2] = a0 * b1 - a1 * b0
    return out


def _vol6(e1: np.ndarray, n: np.ndarray) -> np.ndarray:
    """e1 . n, summing x, y, z in turn, the same on every numpy build."""
    return e1[0] * n[0] + e1[1] * n[1] + e1[2] * n[2]


def _tet_vol6(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Six signed volumes e1 . (e2 x e3) of every tet, (T,).

    Forms only the edges and e2 x e3 of each chunk, with the expressions
    of ``_tet_geometry``, so the two agree bit for bit.
    """
    vol6 = np.empty(len(tets))
    for chunk, edges in _tet_edges(vertices, tets):
        normal = _cross(edges[1], edges[2], np.empty_like(edges[0]))
        vol6[chunk] = _vol6(edges[0], normal)
    return vol6


def _tet_geometry(vertices: np.ndarray, tets: np.ndarray):
    """The edges' cross products and six signed volumes of every tet.

    Returns ``crosses`` (3, 3, T) and ``vol6`` (T,). ``crosses[k, c]`` is
    coordinate c of e2 x e3, e3 x e1 and e1 x e2 for k = 0, 1, 2; ``vol6``
    is e1 . (e2 x e3), as ``_tet_vol6`` gives it. Each chunk's edges are
    formed, crossed into the result and dropped, so the only whole-mesh
    arrays are the two results.
    """
    crosses = np.empty((3, 3, len(tets)))
    vol6 = np.empty(len(tets))
    for chunk, edges in _tet_edges(vertices, tets):
        for k, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            _cross(edges[a], edges[b], crosses[k, :, chunk])
        vol6[chunk] = _vol6(edges[0], crosses[0, :, chunk])
    return crosses, vol6


def tet_volumes(mesh: TetMesh) -> np.ndarray:
    """Signed volumes of all tetrahedra."""
    return _tet_vol6(mesh.vertices, mesh.tets) / 6.0


def _corner_sums(corners: np.ndarray, values: np.ndarray,
                 n: int) -> np.ndarray:
    """Per vertex, the sum of ``values[r]`` over the rows r of ``corners``
    (M, k) that name it, (n,).

    Adds a chunk of ``_TET_CHUNK`` rows at a time with a 1-D
    ``np.add.at`` over the raveled corner ids, in the order
    ``np.bincount(corners.ravel(), np.repeat(values, k))`` adds them, so
    it equals that bit for bit without the whole-mesh repeated weights.
    """
    out = np.zeros(n)
    for start in range(0, len(corners), _TET_CHUNK):
        chunk = slice(start, start + _TET_CHUNK)
        np.add.at(out, corners[chunk].ravel(),
                  np.repeat(values[chunk], corners.shape[1]))
    return out


def _lumped_volumes(mesh: TetMesh, vol6: np.ndarray) -> np.ndarray:
    """Quarter of each tet per corner, from six times the tet volumes."""
    quarter = vol6 / 6.0
    if np.any(quarter <= 0):
        raise MeshError("nodal volumes require positively oriented tetrahedra")
    quarter /= 4.0
    return _corner_sums(mesh.tets, quarter, mesh.n_vertices)


def nodal_volumes(mesh: TetMesh) -> np.ndarray:
    """Lumped control volume per vertex: a quarter of each adjacent tet."""
    return _lumped_volumes(mesh, _tet_vol6(mesh.vertices, mesh.tets))


def _sort3(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Elementwise ascending order of three columns: a min/max network."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mid, hi = np.minimum(hi, c), np.maximum(hi, c)
    return np.minimum(lo, mid), np.maximum(lo, mid), hi


def _triple_key(lo, mid, hi, n: int, out: np.ndarray) -> None:
    """(hi n + mid) n + lo into ``out``, one int64 per triple of ids < n."""
    np.multiply(hi, n, out=out)
    out += mid
    out *= n
    out += lo


def _triple_order(ids: np.ndarray, table: np.ndarray):
    """Stable order of the id triples ``ids[r, table[j]]``, and the repeats
    along it.

    ``ids`` holds nonnegative (M, c) rows and ``table`` k column triples;
    triple j of row r is entry k r + j, taken as its ids in ascending
    order (lo, mid, hi). The order is ``np.lexsort((lo, mid, hi))``: one
    stable argsort of the int64 key (hi n + mid) n + lo with n the
    largest id plus one, built one table column at a time into one
    (M, k) array, about a third of the cost; where n**3 would overflow
    int64 the three-key lexsort is used instead. ``repeats[i]`` tells
    whether sorted triple i + 1 equals triple i.
    """
    n = int(ids.max()) + 1 if ids.size else 1
    if n ** 3 < 2 ** 63:
        key = np.empty((len(ids), len(table)), dtype=np.int64)
        for j, (a, b, c) in enumerate(table):
            _triple_key(*_sort3(ids[:, a], ids[:, b], ids[:, c]), n,
                        key[:, j])
        order = np.argsort(key.ravel(), kind="stable")
        key = key.ravel()[order]
        return order, key[1:] == key[:-1]
    lo, mid, hi = np.stack([_sort3(ids[:, a], ids[:, b], ids[:, c])
                            for a, b, c in table], axis=-1).reshape(3, -1)
    order = np.lexsort((lo, mid, hi))
    repeats = np.ones(max(len(order) - 1, 0), dtype=bool)
    for col in (lo, mid, hi):
        col = col[order]
        repeats &= col[1:] == col[:-1]
    return order, repeats


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The stable order of nonnegative (M, 3) rows by their sorted ids:
    ``np.lexsort(rows.T)`` of rows each in ascending order."""
    return _triple_order(rows, [(0, 1, 2)])[0]


def _boundary_of_tets(tets: np.ndarray) -> np.ndarray:
    """Faces of the mesh boundary, wound as ``_TET_FACES`` gives them.

    Face j of tet t is entry 4 t + j, with the local vertices
    ``_TET_FACES[j]``, so on positively oriented tets every boundary face
    comes out wound inward. A face is on the boundary when no other face
    has its vertex set; the boundary comes in the stable order of the
    sorted vertex triples, which is their ``_row_order``.
    """
    order, repeats = _triple_order(tets, _TET_FACES)
    if np.any(repeats[1:] & repeats[:-1]):
        raise MeshError("non-manifold interior face (shared by > 2 tets)")
    alone = np.ones(len(order), dtype=bool)
    alone[1:] &= ~repeats
    alone[:-1] &= ~repeats
    picked = order[alone]
    return tets[(picked // 4)[:, None], _TET_FACES[picked % 4]]


def _check_volumes(vol: np.ndarray) -> None:
    """Reject a mesh without usable tetrahedra or with degenerate ones."""
    scale = np.abs(vol).max() if len(vol) else 0.0
    if scale == 0.0:
        raise MeshError("mesh has no usable tetrahedra")
    degenerate = np.abs(vol) < 1e-12 * scale
    if np.any(degenerate):
        raise MeshError(f"{int(degenerate.sum())} degenerate tetrahedra")


def _check_surface(faces: np.ndarray, labels: np.ndarray,
                   n_vertices: int) -> None:
    """Require every boundary edge to border exactly 2 faces (a closed
    manifold) and nonnegative labels. An edge (a, b), a < b, is keyed
    a n_vertices + b, one to one; sorted, the keys must come in equal
    pairs, each unlike the next."""
    a, b = faces, faces[:, [1, 2, 0]]
    key = np.sort(np.minimum(a, b) * n_vertices + np.maximum(a, b), axis=None)
    if len(key) % 2 or np.any(key[::2] != key[1::2]) \
            or np.any(key[1:-1:2] == key[2::2]):
        raise MeshError("boundary is not a closed manifold surface")
    if np.any(labels < 0):
        raise MeshError("boundary labels must be nonnegative")


def _check_boundary(mesh: TetMesh, faces: np.ndarray) -> TetMesh:
    """Check the stored boundary against the derived one and label it.

    ``faces`` is the tetrahedral boundary from ``_boundary_of_tets`` of
    positively oriented tets, so wound inward by ``_TET_FACES`` and in
    the ``_row_order`` order of their sorted vertex triples. The stored
    triangles must match them one to one (as vertex sets) and form a
    closed surface (``_check_surface``); the derived faces replace the
    stored ones, and each keeps the label of its stored twin.
    """
    stored = np.sort(mesh.boundary_faces, axis=1)
    s_order = _row_order(stored)
    if not np.array_equal(stored[s_order], np.sort(faces, axis=1)):
        raise MeshError("stored boundary triangles do not match the "
                        "tetrahedral boundary")
    _check_surface(faces, mesh.boundary_labels, mesh.n_vertices)
    mesh.boundary_faces = faces
    mesh.boundary_labels = mesh.boundary_labels[s_order]
    return mesh


def validate_mesh(mesh: TetMesh) -> TetMesh:
    """Check structural soundness and repair inverted tetrahedra.

    Checks nonzero tet volumes (a negative one is repaired by swapping
    two vertices, with a warning), then derives the boundary of the
    tetrahedra once; the generators share this boundary check. The stored
    boundary triangles must match the derived ones one to one, and the
    boundary must be a closed manifold with nonnegative labels. The
    stored windings are replaced by the inward ones of the face table of
    the (now positive) tetrahedra.
    Returns the mesh, modified in place.
    """
    vol6 = _tet_vol6(mesh.vertices, mesh.tets)
    _check_volumes(vol6)
    inverted = vol6 < 0
    if np.any(inverted):
        warnings.warn(f"repaired {int(inverted.sum())} inverted tetrahedra "
                      "by vertex swap", stacklevel=2)
        _swap_last_corners(mesh.tets, inverted)

    return _check_boundary(mesh, _boundary_of_tets(mesh.tets))


def wall_vertices(mesh: TetMesh) -> np.ndarray:
    """Sorted indices of vertices lying on wall-labeled boundary faces."""
    on_wall = mesh.boundary_faces[mesh.boundary_labels == WALL_LABEL]
    return np.unique(on_wall)


def wall_normals(mesh: TetMesh) -> tuple[np.ndarray, np.ndarray]:
    """Unit inward normals at wall vertices.

    Area-weighted average of the inward normals of adjacent wall faces.

    Returns
    -------
    indices : (W,) int array of wall vertex indices, sorted.
    normals : (W, 3) float array of unit inward normals.
    """
    faces = mesh.boundary_faces[mesh.boundary_labels == WALL_LABEL]
    if len(faces) == 0:
        raise MeshError("mesh has no wall faces")
    tri = mesh.vertices[faces]
    # Inward-oriented winding: the cross product is inward with twice the
    # triangle area as magnitude, so plain accumulation is area weighting.
    area_normal = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    accum = np.column_stack([
        _corner_sums(faces, area_normal[:, c], mesh.n_vertices)
        for c in range(3)])
    indices = np.unique(faces)
    sums = accum[indices]
    norms = np.linalg.norm(sums, axis=1)
    degenerate = norms < 1e-12 * max(norms.mean(), 1e-300)
    if np.any(degenerate):
        bad = indices[degenerate]
        raise MeshError(f"degenerate wall normal at vertices {bad[:5].tolist()}")
    return indices, sums / norms[:, None]


def segment_names(n_segments: int) -> tuple[str, ...]:
    """Anatomical names for the standard four-segment split, else generic."""
    if n_segments == 4:
        return ("AAo", "AArch", "pDAo", "dDAo")
    return tuple(f"segment_{i}" for i in range(n_segments))


def segment_labels(mesh: TetMesh, planes: Sequence[CutPlane]) -> np.ndarray:
    """Partition vertices into segments by ordered cut planes.

    A vertex belongs to the first plane (in the given order) whose
    signed distance is negative; vertices past every plane fall into the
    final segment, so ``k`` planes produce ``k + 1`` segments.

    Raises
    ------
    LabelingError
        If any segment ends up empty.
    """
    labels = np.full(mesh.n_vertices, len(planes), dtype=np.int64)
    assigned = np.zeros(mesh.n_vertices, dtype=bool)
    for i, plane in enumerate(planes):
        below = plane.signed_distance(mesh.vertices) < 0
        pick = below & ~assigned
        labels[pick] = i
        assigned |= below
    for seg in range(len(planes) + 1):
        if not np.any(labels == seg):
            raise LabelingError(
                f"segment {seg} of {len(planes) + 1} is empty; check the "
                "cut plane order and orientation")
    return labels


# =========================================================================
# Generators
# =========================================================================

def _is_integer(n) -> bool:
    """A Python or numpy integer; a bool or a whole float is not one."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _split_prisms(prisms: np.ndarray) -> np.ndarray:
    """Split triangular prisms into 3 tets each, conforming across faces.

    Uses the smallest-global-index rule, so the diagonal chosen on every
    shared quadrilateral face is the same from both sides.
    """
    rotations = np.array([
        [0, 1, 2, 3, 4, 5],
        [1, 2, 0, 4, 5, 3],
        [2, 0, 1, 5, 3, 4],
        [3, 5, 4, 0, 2, 1],
        [4, 3, 5, 1, 0, 2],
        [5, 4, 3, 2, 1, 0],
    ])
    argmin = np.argmin(prisms, axis=1)
    rot = rotations[argmin]
    p = np.take_along_axis(prisms, rot, axis=1)
    use_15 = (np.minimum(p[:, 1], p[:, 5])
              < np.minimum(p[:, 2], p[:, 4]))
    tets = np.empty((len(prisms), 3, 4), dtype=prisms.dtype)
    a = p[use_15]
    tets[use_15] = np.stack([a[:, [0, 1, 2, 5]],
                             a[:, [0, 1, 5, 4]],
                             a[:, [0, 4, 5, 3]]], axis=1)
    b = p[~use_15]
    tets[~use_15] = np.stack([b[:, [0, 1, 2, 4]],
                              b[:, [0, 4, 2, 5]],
                              b[:, [0, 4, 5, 3]]], axis=1)
    return tets.reshape(-1, 4)


def _swap_last_corners(tets: np.ndarray, flip: np.ndarray) -> None:
    """Swap corners 2 and 3 of the flagged tets in place, inverting them."""
    third = tets[:, 2].copy()
    np.copyto(tets[:, 2], tets[:, 3], where=flip)
    np.copyto(tets[:, 3], third, where=flip)


def _fix_orientation(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Flip negatively oriented tets in place; return their volumes.

    The volumes are six times the signed volumes before the flip.
    """
    vol6 = _tet_vol6(vertices, tets)
    _swap_last_corners(tets, vol6 < 0)
    return vol6


def _disk_triangulation(arcs: int, rings: int, grading: float):
    """Vertices (2D) and triangles of a disk of unit radius: the centre,
    then point k of ring j at 1 + j arcs + k; the centre's fan, then the
    two triangles of each quad, ring by ring and arc by arc."""
    x = np.arange(1, rings + 1) / rings
    radii = (1.0 + grading) * x - grading * x ** 2
    theta = 2.0 * np.pi * np.arange(arcs) / arcs
    points = np.zeros((1 + rings * arcs, 2))
    points[1:, 0] = (radii[:, None] * np.cos(theta)).ravel()
    points[1:, 1] = (radii[:, None] * np.sin(theta)).ravel()

    k = np.arange(arcs, dtype=np.int64)
    first = 1 + arcs * np.arange(rings, dtype=np.int64)[:, None]
    here, ahead = first + k, first + (k + 1) % arcs     # (rings, arcs)
    fan = np.stack([np.zeros_like(k), here[0], ahead[0]], axis=1)
    a0, a1, b0, b1 = here[:-1], ahead[:-1], here[1:], ahead[1:]
    quads = np.stack([a0, a1, b1, a0, b1, b0], axis=-1).reshape(-1, 3)
    return points, np.concatenate([fan, quads])


def _finalize_generated(vertices, layer, layers, offset, classify,
                        metadata) -> TetMesh:
    """Orient and bound one layer of tets, tile it, then label the
    boundary and check that it is closed.

    Layer l of the mesh is ``layer + l offset``. A whole-layer id offset
    keeps each tet's corner order, so the orientation, the ``_TET_FACES``
    windings and the (hi, mid, lo) order within a layer carry over, and
    only ``layer`` is oriented and checked. Of its boundary, the faces
    with every id below ``offset`` are its bottom and those with none
    below it its top, which meets the next layer's bottom. So the mesh
    boundary is the first layer's bottom, every layer's side band and
    the last layer's top, put in the ``_row_order`` that
    ``_boundary_of_tets`` of all the tets gives, and only the surface
    checks of ``_check_boundary`` apply to them. A mesh that is not
    tiled is one layer whose offset is its vertex count.
    """
    _check_volumes(_fix_orientation(vertices, layer))
    shifts = np.arange(layers) * offset
    tets = np.empty((layers, len(layer), 4), dtype=np.int64)
    np.add(layer, shifts[:, None, None], out=tets)
    tets = tets.reshape(-1, 4)

    faces = _boundary_of_tets(layer)
    bottom = faces.max(axis=1) < offset
    top = faces.min(axis=1) >= offset
    side = faces[~(bottom | top)]
    faces = np.concatenate([faces[bottom],
                            (side + shifts[:, None, None]).reshape(-1, 3),
                            faces[top] + shifts[-1]])
    faces = faces[_row_order(faces)]
    labels = classify(vertices[faces.T].sum(axis=0) / 3)
    _check_surface(faces, labels, len(vertices))
    return TetMesh(vertices=vertices, tets=tets, boundary_faces=faces,
                   boundary_labels=labels, metadata=metadata)


def generate_pipe_mesh(radius: float, length: float,
                       resolution: int = 2) -> TetMesh:
    """Structured tetrahedral mesh of a straight circular pipe.

    The pipe axis is z, spanning ``[0, length]``, centered on x = y = 0.
    The cross-section is a spider-web triangulation with ring spacing
    biased toward the wall by ``WALL_GRADING`` (0 would be uniform).
    Each resolution step doubles the angular, radial, and axial counts.
    Boundary labels: z = 0 disc is the inlet (1), z = length disc the
    outlet (2), the lateral surface the wall (0).

    One layer of prisms is split into tets by the smallest-index rule,
    which compares ids within one prism only; every other layer's tets
    are that layer's shifted by whole layers of vertices, the same tets
    a split of the whole prism stack gives, without holding that stack.
    That one layer is oriented and its boundary derived; the mesh
    boundary is its inlet disc, its wall band in every layer and its
    top disc moved to the outlet (``_finalize_generated``).
    """
    if not (0 < radius < np.inf and 0 < length < np.inf):
        raise ValidationError("pipe radius and length must be finite and "
                              f"positive, got {radius!r} and {length!r}")
    if not _is_integer(resolution) or resolution not in PIPE_LAYER_COUNTS:
        raise ValidationError("pipe resolution must be an integer in [0, "
                              f"{max(PIPE_LAYER_COUNTS)}], got {resolution!r}")
    arcs = 16 * 2 ** resolution
    rings = 2 * 2 ** resolution
    layers = PIPE_LAYER_COUNTS[resolution]

    disk, tris = _disk_triangulation(arcs, rings, WALL_GRADING)
    per_layer = len(disk)
    z = np.linspace(0.0, length, layers + 1)
    vertices = np.empty((layers + 1, per_layer, 3))
    vertices[:, :, :2] = disk * radius
    vertices[:, :, 2] = z[:, None]
    vertices = vertices.reshape(-1, 3)

    # the split compares ids within one prism only, so a layer's tets are
    # the first layer's shifted by whole layers of vertices
    layer = _split_prisms(np.concatenate([tris, tris + per_layer], axis=1))

    ztol = 1e-9 * length

    def classify(centroids):
        labels = np.full(len(centroids), WALL_LABEL, dtype=np.int64)
        labels[centroids[:, 2] < ztol] = INLET_LABEL
        labels[centroids[:, 2] > length - ztol] = FIRST_OUTLET_LABEL
        return labels

    metadata = {"pipe": {"radius": float(radius), "length": float(length),
                         "resolution": int(resolution),
                         "wall_grading": WALL_GRADING}}
    return _finalize_generated(vertices, layer, layers, per_layer, classify,
                               metadata)


def pipe_layers(mesh: TetMesh, *per_vertex):
    """(layers, tets per layer, vertices per ring, z_l) of a pipe tiled
    along z, or None. The count comes from ``metadata["pipe"]``; the checks
    decide: layer l's tets are layer 0's plus l rings, ring l holds ring
    0's x, y and ``per_vertex`` rows bit for bit at one z, and the rings
    are evenly spaced within 4 ulps. z_l is ring l's z minus ring 0's.
    """
    pipe = mesh.metadata.get("pipe")
    res = pipe.get("resolution") if isinstance(pipe, dict) else None
    if not (_is_integer(res) and res in PIPE_LAYER_COUNTS):
        return None
    layers = PIPE_LAYER_COUNTS[res]
    per_ring, extra = divmod(mesh.n_vertices, layers + 1)
    if extra or not per_ring or mesh.n_tets % layers:
        return None
    tets = mesh.tets.reshape(layers, -1, 4)
    rings = mesh.vertices.reshape(layers + 1, per_ring, 3)
    z = rings[:, 0, 2]
    repeats = [rings[:, :, :2]] + [np.reshape(a, (layers + 1, per_ring, -1))
                                   for a in per_vertex]
    if not (all(np.array_equal(tets[l], tets[0] + l * per_ring)
                for l in range(layers))
            and all((r == r[0]).all() for r in repeats)
            and (rings[:, :, 2] == z[:, None]).all()
            and np.abs(np.diff(z) - z[1] + z[0]).max()
            <= 4 * np.spacing(np.abs(z).max())):
        return None
    return layers, tets.shape[1], per_ring, z[:-1] - z[0]


def generate_box_mesh(size: Sequence[float], divisions: Sequence[int],
                      center: Sequence[float] = (0.0, 0.0, 0.0)) -> TetMesh:
    """Structured tetrahedral box, six tets per hexahedral cell.

    All six sides are labeled wall (0). Intended for phantoms and tests.
    """
    if not all(_is_integer(d) for d in divisions):
        raise ValidationError(f"box divisions must be integers, got "
                              f"{list(divisions)}")
    size = np.asarray(size, dtype=float)
    divisions = np.asarray(divisions, dtype=int)
    center = np.asarray(center, dtype=float)
    if not size.shape == divisions.shape == center.shape == (3,):
        raise ValidationError("box size, divisions and center must have 3 "
                              "entries each")
    if not (np.all((size > 0) & (size < np.inf)) and np.all(divisions >= 1)
            and np.all(np.isfinite(center))):
        raise ValidationError("box size must be finite and positive, "
                              "divisions >= 1 and center finite")
    nx, ny, nz = divisions
    axes = [np.linspace(-s / 2, s / 2, d + 1) + c
            for s, d, c in zip(size, divisions, center)]
    grid = np.meshgrid(*axes, indexing="ij")
    vertices = np.column_stack([g.ravel() for g in grid])

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                          indexing="ij")
    i, j, k = i.ravel(), j.ravel(), k.ravel()
    c = {(di, dj, dk): vid(i + di, j + dj, k + dk)
         for di in (0, 1) for dj in (0, 1) for dk in (0, 1)}
    # Six tets around the main diagonal (0,0,0) - (1,1,1); the pattern is
    # translation invariant, so faces of neighboring cells conform.
    paths = [
        ((1, 0, 0), (1, 1, 0)), ((1, 0, 0), (1, 0, 1)),
        ((0, 1, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 1)),
        ((0, 0, 1), (1, 0, 1)), ((0, 0, 1), (0, 1, 1)),
    ]
    tet_list = [np.stack([c[(0, 0, 0)], c[p0], c[p1], c[(1, 1, 1)]], axis=1)
                for p0, p1 in paths]
    tets = np.concatenate(tet_list, axis=0)

    def classify(centroids):
        return np.full(len(centroids), WALL_LABEL, dtype=np.int64)

    metadata = {"box": {"size": size.tolist(), "center": center.tolist(),
                        "divisions": divisions.tolist()}}
    return _finalize_generated(vertices, tets, 1, len(vertices), classify,
                               metadata)


# =========================================================================
# VTK legacy I/O
# =========================================================================

def _vtk_ints(values: np.ndarray) -> np.ndarray:
    """``values`` as the big-endian int32 of a VTK integer block."""
    ints = values.astype(">i4")
    if not np.array_equal(ints, values):
        raise ValidationError("mesh integers must fit 32-bit VTK integers")
    return ints


def _write_vtk(path: str | Path, mesh: TetMesh,
               point_data: dict | None = None) -> None:
    """Write the mesh, then its point data, as legacy BINARY VTK.

    ``point_data`` maps names to per-vertex scalars (n_vertices,) or
    vectors (n_vertices, 3), written after a ``POINT_DATA`` line; None
    writes the mesh alone. Each block is written after its header lines
    as big-endian values, doubles or int32, and a newline. Everything is
    checked and converted before the file opens.
    """
    title = "hemoflow " + json.dumps(mesh.metadata, separators=(",", ":"),
                                     sort_keys=True)
    if len(title) > 255:
        raise ValidationError("mesh metadata too large for the VTK title line")
    n_tets, n_faces = mesh.n_tets, len(mesh.boundary_faces)
    n_cells = n_tets + n_faces
    cells = np.concatenate([
        np.column_stack([np.full(n_tets, 4), mesh.tets]).ravel(),
        np.column_stack([np.full(n_faces, 3), mesh.boundary_faces]).ravel()])
    blocks = [
        (f"# vtk DataFile Version 3.0\n{title}\nBINARY\n"
         f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_vertices} double\n",
         mesh.vertices.astype(">f8")),
        (f"CELLS {n_cells} {len(cells)}\n", _vtk_ints(cells)),
        (f"CELL_TYPES {n_cells}\n",
         _vtk_ints(np.repeat([10, 5], [n_tets, n_faces]))),
        (f"CELL_DATA {n_cells}\nSCALARS boundary_label int 1\n"
         "LOOKUP_TABLE default\n",
         _vtk_ints(np.concatenate([np.full(n_tets, -1),
                                   mesh.boundary_labels]))),
    ]
    if point_data is not None:
        blocks.append((f"POINT_DATA {mesh.n_vertices}\n", None))
    for name, data in (point_data or {}).items():
        data = np.ascontiguousarray(data, dtype=">f8")
        if data.shape == (mesh.n_vertices,):
            blocks.append((f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                           data))
        elif data.shape == (mesh.n_vertices, 3):
            blocks.append((f"VECTORS {name} double\n", data))
        else:
            raise ValidationError(
                f"field {name!r} has shape {data.shape}; expected "
                f"({mesh.n_vertices},) or ({mesh.n_vertices}, 3)")
    with open(path, "wb") as fh:
        for header, values in blocks:
            fh.write(header.encode())
            if values is not None:
                fh.write(values)
                fh.write(b"\n")


def save_mesh(mesh: TetMesh, path: str | Path) -> None:
    """Write a VTK legacy BINARY unstructured grid (see module docstring)."""
    _write_vtk(path, mesh)


def load_mesh(path: str | Path) -> TetMesh:
    """Read a mesh in the layout ``save_mesh`` writes (module docstring).

    The header lines are text; each data block is read as the file's
    format line says: n big-endian values and a newline in a BINARY file,
    n tokens in an ASCII one. Cells may come in any order. The mesh is
    validated on load (``validate_mesh``), which repairs inverted
    tetrahedra with a warning. Every failure is a ``MeshError`` naming the
    file.
    """
    path = Path(path)
    try:
        lines = path.read_bytes().split(b"\n", 3)
        head = [line.decode() for line in lines[:3]]
        if len(lines) < 4:
            raise MeshError(f"{path}: unexpected end of file")
        fmt = head[2].strip().upper()
        binary = fmt == "BINARY"
        # a BINARY body is decoded one character per byte, so its blocks
        # encode back to their bytes
        body = lines[3].decode("latin-1" if binary else "utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    title, pos = head[1], 0

    def section(word: str, n: int) -> list[str]:
        """The n words after ``word`` on the next line that is not blank."""
        nonlocal pos
        words = []
        while not words:
            if pos >= len(body):
                raise MeshError(f"{path}: unexpected end of file")
            end = body.find("\n", pos)
            end = len(body) if end < 0 else end
            words, pos = body[pos:end].split(), end + 1
        if words[0].upper() != word:
            raise MeshError(f"{path}: expected {word}, found {words[0]}")
        if len(words) <= n:
            raise MeshError(f"{path}: {word} needs {n} values, found "
                            f"{' '.join(words[1:])!r}")
        return words[1:n + 1]

    def count(word: str) -> int:
        try:
            return int(np.array([word], dtype=np.uint64)[0])
        except (ValueError, OverflowError) as exc:
            raise MeshError(f"{path}: {exc}") from None

    def block(word: str, n: int, dtype: str) -> np.ndarray:
        """The n values of the ``word`` block."""
        nonlocal pos
        if binary:
            end = pos + n * np.dtype(dtype).itemsize
            if end >= len(body):
                raise MeshError(f"{path}: unexpected end of file")
            if body[end] != "\n":
                raise MeshError(f"{path}: the {word} block is not followed "
                                "by a newline")
            values, pos = np.frombuffer(body[pos:end].encode("latin-1"),
                                        dtype), end + 1
            return values
        tokens = body[pos:].split(None, n)
        if len(tokens) < n:
            raise MeshError(f"{path}: unexpected end of file")
        pos = len(body) - len(tokens.pop()) if len(tokens) > n else len(body)
        try:
            return np.array(tokens, dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise MeshError(f"{path}: {exc}") from None

    try:
        metadata = json.loads(title[len("hemoflow "):]) \
            if title.startswith("hemoflow {") else {}
    except json.JSONDecodeError as exc:
        raise MeshError(f"{path}: bad title metadata: {exc}") from None
    if fmt not in ("ASCII", "BINARY"):
        raise MeshError(f"{path}: expected ASCII or BINARY, found {head[2]}")
    dataset = section("DATASET", 1)[0]
    if dataset.upper() != "UNSTRUCTURED_GRID":
        raise MeshError(f"{path}: expected UNSTRUCTURED_GRID, found {dataset}")
    n_points, kind = section("POINTS", 2)
    if binary and kind.lower() != "double":
        raise MeshError(f"{path}: BINARY POINTS of type {kind} are not read; "
                        "only double is")
    n_points = count(n_points)
    vertices = block("POINTS", 3 * n_points, ">f8").reshape(-1, 3)
    if not np.isfinite(vertices).all():
        raise MeshError(f"{path}: non-finite vertex coordinates")
    n_cells, total = map(count, section("CELLS", 2))
    cells = block("CELLS", total, ">i4")
    if count(section("CELL_TYPES", 1)[0]) != n_cells:
        raise MeshError(f"{path}: CELL_TYPES count mismatch")
    types = block("CELL_TYPES", n_cells, ">i4")

    # each cell is its node count, then as many nodes as its type has
    nodes = np.select([types == 10, types == 5], [4, 3])
    if not nodes.all():
        bad = np.unique(types[nodes == 0]).tolist()
        raise MeshError(f"{path}: unsupported cell types {bad}")
    if nodes.sum() + n_cells != total:
        raise MeshError(f"{path}: CELLS block size mismatch")
    start = np.cumsum(nodes + 1) - nodes
    wrong = np.flatnonzero(cells[start - 1] != nodes)
    if len(wrong):
        i = wrong[0]
        raise MeshError(f"{path}: cell {i} lists {cells[start[i] - 1]} "
                        f"nodes, but its type {types[i]} has {nodes[i]}")
    tets = cells[start[nodes == 4, None] + np.arange(4)]
    faces = cells[start[nodes == 3, None] + np.arange(3)]

    if not body[pos:].strip():
        raise MeshError(f"{path}: missing boundary_label cell data")
    if count(section("CELL_DATA", 1)[0]) != n_cells:
        raise MeshError(f"{path}: CELL_DATA count mismatch")
    name = section("SCALARS", 2)[0]             # then type and components
    if name != "boundary_label":
        raise MeshError(f"{path}: the first cell data is {name}, not "
                        "boundary_label")
    section("LOOKUP_TABLE", 1)                  # the table name
    labels = block("LOOKUP_TABLE", n_cells, ">i4")[nodes == 3]
    try:
        return validate_mesh(TetMesh(vertices, tets, faces, labels, metadata))
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
