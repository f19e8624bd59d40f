"""Tetrahedral vessel meshes.

Meshes are linear tetrahedra with a triangulated boundary. Boundary
triangles carry integer labels: 0 is the vessel wall, 1 the inlet, and
2 and above are outlets. Boundary triangles are stored oriented so the
right-hand-rule normal points into the fluid.

File format is VTK legacy ASCII unstructured grids: the POINTS, then the
CELLS and CELL_TYPES, tetrahedra first and boundary triangles after, then
a ``boundary_label`` integer cell-data array (-1 on tetrahedra).
``load_mesh`` reads this layout alone and stops after that array, so the
point data of an exported field file is skipped. Package metadata (for
example the generated pipe geometry) rides in the 256-character VTK
title line as JSON and survives a save/load round trip. Numbers are
written as ``%.17g`` and ``%d`` text, byte for byte what Python's ``%``
gives, but built by array operations on blocks of rows (``_format_rows``).

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
    "generate_box_mesh",
]

WALL_LABEL = 0
INLET_LABEL = 1
FIRST_OUTLET_LABEL = 2

# ring spacing of the generated pipe: radius of ring x in (0, 1] is
# (1 + g) x - g x^2, so rings crowd toward the wall
WALL_GRADING = 0.5

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
    if radius <= 0 or length <= 0:
        raise ValidationError("pipe radius and length must be positive")
    if not _is_integer(resolution) or not 0 <= resolution <= 6:
        raise ValidationError(
            f"pipe resolution must be an integer in [0, 6], got {resolution!r}")
    arcs = 16 * 2 ** resolution
    rings = 2 * 2 ** resolution
    layers = 5 * 2 ** resolution

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
    if np.any(size <= 0) or np.any(divisions < 1):
        raise ValidationError("box size must be positive, divisions >= 1")
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
# VTK legacy ASCII I/O
# =========================================================================

# Rows formatted per write call; bounds the text and the temporaries held
# in memory at once.
_ROW_CHUNK = 8192

# A finite float with _FAST_LOW < |x| < _FAST_HIGH has its decimal exponent
# d in [-11, 15], so its 17 digits are x 10**k rounded, k = 16 - d in
# [1, 27]: for x = M 2**E that is M 5**k shifted right by 1 to 62 bits, and
# 5**27 < 2**63. The double nearest 1e-11 lies below 10**-11, so the bound
# itself is left out. Zeros are written directly; other values go to `%`.
_FAST_LOW, _FAST_HIGH = 1e-11, 2.0 ** 50
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> 32, _POW5 & 0xFFFFFFFF
# ASCII of the 4 digits of each 4-digit group, as one little-endian word,
# and the rank of each digit after the lead one
_GROUP = np.arange(10000, dtype=np.uint16)
_GROUP_CHARS = (np.stack([_GROUP // 1000, _GROUP // 100 % 10,
                          _GROUP // 10 % 10, _GROUP % 10], axis=1)
                + 48).astype(np.uint8).view("<u4").ravel()
_DIGIT_RANK = np.arange(1, 17, dtype=np.int8)[:, None]
# Classes the values are sorted by: decimal exponent d + 11 (0-26), the
# values written by `%`, and zeros, last, so that every text column but the
# first leaves them out. Per class: the zeros written before the digits
# (fixed form, d < 0), the characters before the point, and the length of
# the exponent suffix (e-XX for d < -4).
_SLOW, _ZERO = 27, 28
_CLASS_D = np.arange(_ZERO + 1) - 11
_LEAD_ZEROS = np.where((_CLASS_D < 0) & (_CLASS_D >= -4), -_CLASS_D, 0) \
    .astype(np.int8)
_POINT = np.maximum(_CLASS_D + 1, 1).astype(np.int8)
_SUFFIX = np.where(_CLASS_D < -4, 4, 0).astype(np.int8)
_LEAD_ZEROS[_SLOW:] = _POINT[_SLOW:] = 0
_N_EXP = 7                              # classes of d = -11 to -5
# Room past both ends of a chunk for the padding of its text columns.
_MARGIN = 32


def _round_scaled(mant, k, s):
    """floor(mant 5**k / 2**s) and whether round-half-even raises it by one.

    ``mant`` < 2**53, 5**k < 2**63 and 1 <= s <= 62. The product of up to
    116 bits is formed from 32-bit halves as a high and a low uint64 word;
    the remainder is compared with one half at the top of a word.
    """
    p_hi, p_lo = _POW5_HI[k], _POW5_LO[k]
    m_hi = mant >> 32
    m_lo = mant & 0xFFFFFFFF
    lo = m_lo * p_lo
    m_lo *= p_hi
    p_lo *= m_hi
    m_lo += p_lo                        # middle word, < 2**64
    m_hi *= p_hi
    np.left_shift(m_lo, 32, out=p_lo)
    p_lo += lo                          # low word of the product
    carry = p_lo < lo
    m_lo >>= 32
    m_hi += m_lo
    m_hi += carry                       # high word of the product
    s = s.astype(np.uint64)
    np.subtract(64, s, out=p_hi)
    m_hi <<= p_hi
    np.right_shift(p_lo, s, out=lo)
    m_hi |= lo                          # the floor
    p_lo <<= p_hi                       # the remainder, at the top
    np.bitwise_and(m_hi, 1, out=lo)
    p_lo += lo
    return m_hi, p_lo > 2 ** 63


def _float_text(x):
    """``"%.17g" % v`` for every v of x as left-aligned text columns.

    Returns the length of each text without its sign, whether it takes a
    minus sign, the order of the values in the columns, and the columns.
    The columns hold the values sorted by class, so each class has one
    layout and is filled by slice copies; zeros come last and are left
    out of every column but the first. Past its length, a column holds
    padding.
    """
    n = len(x)
    mag = np.abs(x)
    sign = np.signbit(x)
    fast = mag > _FAST_LOW
    fast &= mag < _FAST_HIGH
    zero = mag == 0.0
    mag[~fast] = 1.0         # a stand-in, so log10 and the product stay finite
    frac, exp2 = np.frexp(mag)
    frac *= 2.0 ** 53
    mant = frac.astype(np.int64).view(np.uint64)
    dec = np.log10(mag)
    np.floor(dec, out=dec)
    np.maximum(dec, -11, out=dec)
    np.minimum(dec, 15, out=dec)
    dec = dec.astype(np.int64)
    # x 10**(16 - d) = mant 5**(16 - d) / 2**(37 - exp2 + d)
    digits, up = _round_scaled(mant, 16 - dec, 37 - exp2 + dec)
    # log10 may miss d by one; the floor has 17 digits only for the right
    # d. At 17 digits no double in the window rounds up to a power of ten:
    # the largest double below each one lies more than 2e-17 below it.
    bad = digits - 10 ** 16 >= 9 * 10 ** 16
    if bad.any():
        fix = np.flatnonzero(bad)
        dec[fix] += np.where(digits[fix] < 10 ** 16, -1, 1)
        digits[fix], up[fix] = _round_scaled(mant[fix], 16 - dec[fix],
                                             37 - exp2[fix] + dec[fix])
    digits += up

    code = (dec + 11).astype(np.int8)
    code[zero] = _ZERO
    slow = np.flatnonzero(~(fast | zero))
    code[slow] = _SLOW
    order = np.argsort(code, kind="stable")
    counts = np.bincount(code, minlength=_ZERO + 1)
    bounds = np.cumsum(counts)
    digits = digits[order]

    # the lead digit, then four groups of 4 digits
    groups = np.empty((5, n), dtype=np.uint32)
    groups[0] = digits // 10 ** 16
    digits -= groups[0] * np.uint64(10 ** 16)
    high = digits // 10 ** 8
    digits -= high * np.uint64(10 ** 8)
    groups[2] = high
    groups[1] = groups[2] // 10 ** 4
    groups[2] -= groups[1] * 10 ** 4
    groups[4] = digits
    groups[3] = groups[4] // 10 ** 4
    groups[4] -= groups[3] * 10 ** 4
    # four zeros, for the leading zeros of fixed forms, then the 17 digits
    chars = np.empty((21, n), dtype=np.uint8)
    chars[:4] = 48
    np.add(groups[0], 48, out=chars[4], casting="unsafe")
    chars[5:].reshape(4, 4, n)[...] = \
        _GROUP_CHARS[groups[1:].astype(np.intp)].view(np.uint8) \
        .reshape(4, n, 4).transpose(0, 2, 1)
    # digits up to the last nonzero one; the lead digit is never zero
    n_digits = 1 + ((chars[5:] != 48) * _DIGIT_RANK).max(axis=0)

    # %g: fixed form for -4 <= d < 17, else d.ddde-XX; trailing zeros go.
    # A fixed form with d < 0 is its digits after -d zeros, the point after
    # the first character; with d >= 0 the point follows d + 1 digits.
    shown = n_digits + np.repeat(_LEAD_ZEROS, counts)
    point = np.repeat(_POINT, counts)
    size = np.maximum(shown, point)
    size += shown > point
    size += np.repeat(_SUFFIX, counts)
    wide = int(bounds[_SLOW])
    size[wide:] = 1
    if slow.size:
        texts = ("%.17g " * slow.size % tuple(x[slow].tolist())).split()
        size[wide - slow.size:wide] = [len(t) for t in texts]
        sign[slow] = False

    width = int(size.max())
    cols = np.empty((max(width, 22), n), dtype=np.uint8)
    for c in counts.nonzero()[0]:
        hi = int(bounds[c])
        lo = hi - int(counts[c])
        if c == _ZERO:
            cols[0, lo:hi] = 48
        elif c == _SLOW:
            text = np.array(texts, dtype=bytes)
            cols[:text.itemsize, lo:hi] = \
                text.view(np.uint8).reshape(hi - lo, -1).T
        else:
            first, at = 4 - _LEAD_ZEROS[c], _POINT[c]
            cols[:at, lo:hi] = chars[first:first + at, lo:hi]
            cols[at, lo:hi] = 46
            cols[at + 1:22 - first, lo:hi] = chars[first + at:, lo:hi]
    n_exp = int(bounds[_N_EXP - 1])
    if n_exp:
        nd = n_digits[:n_exp].astype(np.intp)
        flat = cols.reshape(-1)
        at = (nd + (nd > 1)) * n + np.arange(n_exp)
        exponent = np.repeat(-_CLASS_D[:_N_EXP], counts[:_N_EXP])
        flat[at] = ord("e")
        flat[at + n] = ord("-")
        flat[at + 2 * n] = 48 + exponent // 10
        flat[at + 3 * n] = 48 + exponent % 10
    unsorted = np.empty_like(size)
    unsorted[order] = size
    return unsorted, sign, order, [cols[0]] + list(cols[1:width, :wide])


def _int_text(v):
    """``"%d" % v`` for every v of v as right-aligned digit columns.

    Returns the number of digits of each value, whether it takes a minus
    sign, None for the order (the columns keep the values' order) and the
    columns, most significant first, zero-padded.
    """
    sign = v < 0
    mag = np.abs(v).view(np.uint64)                 # -2**63 stays 2**63
    top = int(mag.max())
    if top < 2 ** 32:
        mag = mag.astype(np.uint32)
    width = len(str(top))
    cols = np.empty((width, len(v)), dtype=np.uint8)
    for j in range(width - 1):
        power = 10 ** (width - 1 - j)
        digit = mag // power
        cols[j] = digit
        mag -= digit * power
    cols[width - 1] = mag
    # digits from the first nonzero one; zero has one digit
    rank = np.arange(width, 0, -1, dtype=np.int8)[:, None]
    size = np.maximum(((cols != 0) * rank).max(axis=0), 1)
    cols += 48
    return size, sign, None, list(cols)


def _format_rows(rows: np.ndarray, prefix: str = "") -> str:
    """The text of ``row_format % tuple(row)`` for every row of (R, C) rows.

    ``row_format`` is ``prefix`` and then C conversions, ``%.17g`` for a
    float array and ``%d`` for an integer one, separated by spaces and
    ended by a newline. Each value's text is laid out as fixed-width
    character columns, each covering the values that reach it. Each column
    is scattered at every value's running offset in one array operation,
    in descending order for left-aligned text and ascending for
    right-aligned, so a column's padding is always overwritten by a later
    one. Signs go next, a space in front of an unsigned value, then
    separators and prefixes over those spaces.
    """
    n_cols = rows.shape[1]
    values = rows.ravel()
    left = rows.dtype.kind == "f"
    if left:
        layout = _float_text(values.astype(np.float64, copy=False))
    else:
        layout = _int_text(values.astype(np.int64, copy=False))
    size, sign, order, cols = layout
    slot = size + sign + 1
    if prefix:
        slot[::n_cols] += len(prefix)
    end = np.cumsum(slot) + _MARGIN
    start = end - 1 - size
    buf = np.empty(int(end[-1]) + _MARGIN, dtype=np.uint8)
    width = len(cols)
    base = start if left else start + size - width
    if order is not None:
        base = base[order]
    for j in range(width - 1, -1, -1) if left else range(width):
        buf[j:][base[:len(cols[j])]] = cols[j]
    if sign.any():
        buf[start - 1] = sign.view(np.uint8) * 13 + 32     # "-" or " "
    buf[end - 1] = ord(" ")
    buf[end[n_cols - 1::n_cols] - 1] = ord("\n")
    row_start = end[::n_cols] - slot[::n_cols]
    for j, char in enumerate(prefix.encode("ascii")):
        buf[row_start + j] = char
    return buf[_MARGIN:end[-1]].tobytes().decode("ascii")


def _write_rows(fh, rows: np.ndarray, prefix: str = "") -> None:
    """Write the rows as ``_format_rows`` lays them out, a chunk at a time."""
    rows = np.asarray(rows).reshape(len(rows), -1)
    for start in range(0, len(rows), _ROW_CHUNK):
        fh.write(_format_rows(rows[start:start + _ROW_CHUNK], prefix))


def _write_vtk(path: str | Path, mesh: TetMesh,
               point_data: dict | None = None) -> None:
    """Stream the mesh, then its point data, as legacy ASCII VTK.

    ``point_data`` maps names to per-vertex scalars (n_vertices,) or
    vectors (n_vertices, 3), written after a ``POINT_DATA`` line; None
    writes the mesh alone. Everything is checked before the file opens.
    """
    title = "hemoflow " + json.dumps(mesh.metadata, separators=(",", ":"),
                                     sort_keys=True)
    if len(title) > 255:
        raise ValidationError("mesh metadata too large for the VTK title line")
    blocks = []
    for name, data in (point_data or {}).items():
        data = np.asarray(data, dtype=float)
        if data.shape == (mesh.n_vertices,):
            blocks.append((f"SCALARS {name} double 1\nLOOKUP_TABLE default\n",
                           data))
        elif data.shape == (mesh.n_vertices, 3):
            blocks.append((f"VECTORS {name} double\n", data))
        else:
            raise ValidationError(
                f"field {name!r} has shape {data.shape}; expected "
                f"({mesh.n_vertices},) or ({mesh.n_vertices}, 3)")
    n_faces = len(mesh.boundary_faces)
    n_cells = mesh.n_tets + n_faces
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {mesh.n_vertices} double\n")
        _write_rows(fh, mesh.vertices)
        fh.write(f"CELLS {n_cells} {5 * mesh.n_tets + 4 * n_faces}\n")
        _write_rows(fh, mesh.tets, "4 ")
        _write_rows(fh, mesh.boundary_faces, "3 ")
        fh.write(f"CELL_TYPES {n_cells}\n")
        fh.write("10\n" * mesh.n_tets + "5\n" * n_faces)
        fh.write(f"CELL_DATA {n_cells}\nSCALARS boundary_label int 1\n"
                 "LOOKUP_TABLE default\n")
        fh.write("-1\n" * mesh.n_tets)
        _write_rows(fh, mesh.boundary_labels)
        if point_data is not None:
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            for header, rows in blocks:
                fh.write(header)
                _write_rows(fh, rows)


def save_mesh(mesh: TetMesh, path: str | Path) -> None:
    """Write a VTK legacy ASCII unstructured grid (see module docstring)."""
    _write_vtk(path, mesh)


def load_mesh(path: str | Path) -> TetMesh:
    """Read a mesh in the layout ``save_mesh`` writes (module docstring).

    Cells may come in any order. The mesh is validated on load
    (``validate_mesh``), which repairs inverted tetrahedra with a warning.
    Every failure is a ``MeshError`` naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    title, _, rest = text.partition("\n")[2].partition("\n")

    def take(n: int) -> list[str]:
        """The next n tokens; the text after them is left unsplit."""
        nonlocal rest
        tokens = rest.split(None, n)
        if len(tokens) < n:
            raise MeshError(f"{path}: unexpected end of file")
        rest = tokens.pop() if len(tokens) > n else ""
        return tokens

    def expect(*words: str) -> None:
        for word, token in zip(words, take(len(words))):
            if token.upper() != word:
                raise MeshError(f"{path}: expected {word}, found {token}")

    def numbers(n: int, dtype) -> np.ndarray:
        try:
            return np.array(take(n), dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise MeshError(f"{path}: {exc}") from None

    def count() -> int:
        return int(numbers(1, np.uint64)[0])

    try:
        metadata = json.loads(title[len("hemoflow "):]) \
            if title.startswith("hemoflow {") else {}
    except json.JSONDecodeError as exc:
        raise MeshError(f"{path}: bad title metadata: {exc}") from None
    expect("ASCII", "DATASET", "UNSTRUCTURED_GRID", "POINTS")
    n_points = count()
    take(1)                                     # coordinate type
    vertices = numbers(3 * n_points, np.float64).reshape(-1, 3)
    if not np.isfinite(vertices).all():
        raise MeshError(f"{path}: non-finite vertex coordinates")
    expect("CELLS")
    n_cells, total = count(), count()
    cells = numbers(total, np.int64)
    expect("CELL_TYPES")
    if count() != n_cells:
        raise MeshError(f"{path}: CELL_TYPES count mismatch")
    types = numbers(n_cells, np.int64)

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

    if not rest.strip():
        raise MeshError(f"{path}: missing boundary_label cell data")
    expect("CELL_DATA")
    if count() != n_cells:
        raise MeshError(f"{path}: CELL_DATA count mismatch")
    expect("SCALARS")
    name = take(3)[0]                           # then type and components
    if name != "boundary_label":
        raise MeshError(f"{path}: the first cell data is {name}, not "
                        "boundary_label")
    expect("LOOKUP_TABLE")
    take(1)                                     # table name
    labels = numbers(n_cells, np.int64)[nodes == 3]
    try:
        return validate_mesh(TetMesh(vertices, tets, faces, labels, metadata))
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc
