"""Tetrahedral vessel meshes.

Meshes are linear tetrahedra with a triangulated boundary. Boundary
triangles carry integer labels: 0 is the vessel wall, 1 the inlet, and
2 and above are outlets. Boundary triangles are stored oriented so the
right-hand-rule normal points into the fluid.

File format is VTK legacy ASCII unstructured grids: tetrahedra first,
then boundary triangles, with a ``boundary_label`` integer cell-data
array (-1 on tetrahedra). Package metadata (for example the generated
pipe geometry) rides in the 256-character VTK title line as JSON and
survives a save/load round trip.
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

def _tet_geometry(vertices: np.ndarray, tets: np.ndarray):
    """Edges, their cross products and six signed volumes of every tet.

    Returns ``edges`` and ``crosses``, each (3, 3, T), and ``vol6`` (T,).
    ``edges[k, c]`` is coordinate c of e_{k+1} = x_{k+1} - x_0;
    ``crosses[k, c]`` is coordinate c of e2 x e3, e3 x e1 and e1 x e2 for
    k = 0, 1, 2; ``vol6`` is e1 . (e2 x e3). Every [k, c] row is one
    contiguous column, gathered per coordinate. The crosses are formed in
    ``np.cross``'s operation order, so they equal it bit for bit, and the
    dot product sums x, y, z in turn, the same on every numpy build.
    """
    corner_ids = np.ascontiguousarray(tets.T)
    edges = np.empty((3, 3, len(tets)))
    for c in range(3):
        x = vertices[:, c].take(corner_ids)            # (4, T) per corner
        np.subtract(x[1:], x[0], out=edges[:, c])
    crosses = np.empty_like(edges)
    for k, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
        (a0, a1, a2), (b0, b1, b2) = edges[a], edges[b]
        crosses[k, 0] = a1 * b2 - a2 * b1
        crosses[k, 1] = a2 * b0 - a0 * b2
        crosses[k, 2] = a0 * b1 - a1 * b0
    e1, n = edges[0], crosses[0]
    vol6 = e1[0] * n[0] + e1[1] * n[1] + e1[2] * n[2]
    return edges, crosses, vol6


def tet_volumes(mesh: TetMesh) -> np.ndarray:
    """Signed volumes of all tetrahedra."""
    return _tet_geometry(mesh.vertices, mesh.tets)[2] / 6.0


def _lumped_volumes(mesh: TetMesh, vol6: np.ndarray) -> np.ndarray:
    """Quarter of each tet per corner, from six times the tet volumes."""
    vol = vol6 / 6.0
    if np.any(vol <= 0):
        raise MeshError("nodal volumes require positively oriented tetrahedra")
    return np.bincount(mesh.tets.ravel(), weights=np.repeat(vol / 4.0, 4),
                       minlength=mesh.n_vertices)


def nodal_volumes(mesh: TetMesh) -> np.ndarray:
    """Lumped control volume per vertex: a quarter of each adjacent tet."""
    return _lumped_volumes(mesh, _tet_geometry(mesh.vertices, mesh.tets)[2])


def _sort3(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Elementwise ascending order of three columns: a min/max network."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mid, hi = np.minimum(hi, c), np.maximum(hi, c)
    return np.minimum(lo, mid), np.maximum(lo, mid), hi


def _triple_order(lo: np.ndarray, mid: np.ndarray, hi: np.ndarray):
    """Stable order of nonnegative triples, and the repeats along it.

    The order is ``np.lexsort((lo, mid, hi))``: one stable argsort of the
    int64 key (hi n + mid) n + lo with n the largest entry plus one,
    about a third of the cost; where n**3 would overflow int64 the
    three-key lexsort is used instead. ``repeats[i]`` tells whether
    sorted triple i + 1 equals triple i.
    """
    n = int(hi.max()) + 1 if hi.size else 1
    if n ** 3 < 2 ** 63:
        key = (hi * n + mid) * n + lo
        order = np.argsort(key, kind="stable")
        key = key[order]
        return order, key[1:] == key[:-1]
    order = np.lexsort((lo, mid, hi))
    repeats = np.ones(max(len(order) - 1, 0), dtype=bool)
    for col in (lo, mid, hi):
        col = col[order]
        repeats &= col[1:] == col[:-1]
    return order, repeats


def _row_order(keys: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort(keys.T)`` of nonnegative (M, 3) rows."""
    return _triple_order(*keys.T)[0]


def _boundary_of_tets(tets: np.ndarray) -> np.ndarray:
    """Faces of the mesh boundary, wound as ``_TET_FACES`` gives them.

    Face j of tet t is entry 4 t + j, with the local vertices
    ``_TET_FACES[j]``, so on positively oriented tets every boundary face
    comes out wound inward. A face is on the boundary when no other face
    has its vertex set; the boundary comes in the stable order of the
    sorted vertex triples.
    """
    sorted_ids = np.empty((3, len(tets), 4), dtype=np.int64)
    for j, (a, b, c) in enumerate(_TET_FACES):
        sorted_ids[:, :, j] = _sort3(tets[:, a], tets[:, b], tets[:, c])
    order, repeats = _triple_order(*sorted_ids.reshape(3, -1))
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


def _check_boundary(mesh: TetMesh, faces: np.ndarray) -> TetMesh:
    """Check the stored boundary against the derived one and label it.

    ``faces`` is the tetrahedral boundary from ``_boundary_of_tets`` of
    positively oriented tets, so wound inward by ``_TET_FACES``. The
    stored triangles must match them one to one (as vertex sets); the
    derived faces replace the stored ones, and each keeps the label of
    its stored twin.
    """
    derived = np.sort(faces, axis=1)
    stored = np.sort(mesh.boundary_faces, axis=1)
    d_order = _row_order(derived)
    s_order = _row_order(stored)
    if not np.array_equal(stored[s_order], derived[d_order]):
        raise MeshError("stored boundary triangles do not match the "
                        "tetrahedral boundary")

    # Closed manifold boundary: every boundary edge borders exactly 2 faces.
    # An edge (a, b) with a < b is keyed a * n_vertices + b, one to one.
    edges = np.sort(faces[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
    _, counts = np.unique(edges[:, 0] * mesh.n_vertices + edges[:, 1],
                          return_counts=True)
    if np.any(counts != 2):
        raise MeshError("boundary is not a closed manifold surface")

    if np.any(mesh.boundary_labels < 0):
        raise MeshError("boundary labels must be nonnegative")

    labels = np.empty(len(faces), dtype=np.int64)
    labels[d_order] = mesh.boundary_labels[s_order]
    mesh.boundary_faces = faces
    mesh.boundary_labels = labels
    return mesh


def validate_mesh(mesh: TetMesh, repair: bool = True) -> TetMesh:
    """Check structural soundness; optionally repair inverted tetrahedra.

    Checks positive tet volumes (repaired by swapping two vertices when
    ``repair`` is true, with a warning), then derives the boundary of the
    tetrahedra once; the generators share this boundary check. The stored
    boundary triangles must match the derived ones one to one, and the
    boundary must be a closed manifold with nonnegative labels. The
    stored windings are replaced by the inward ones of the face table of
    the (now positive) tetrahedra.
    Returns the mesh, modified in place.
    """
    vol6 = _tet_geometry(mesh.vertices, mesh.tets)[2]
    _check_volumes(vol6)
    inverted = vol6 < 0
    if np.any(inverted):
        if not repair:
            raise MeshError(f"{int(inverted.sum())} inverted tetrahedra")
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
    corners = faces.ravel()
    accum = np.column_stack([
        np.bincount(corners, weights=np.repeat(area_normal[:, c], 3),
                    minlength=mesh.n_vertices) for c in range(3)])
    indices = np.unique(faces)
    sums = accum[indices]
    norms = np.linalg.norm(sums, axis=1)
    mean_scale = norms.mean()
    if np.any(norms < 1e-12 * max(mean_scale, 1e-300)):
        bad = indices[norms < 1e-12 * mean_scale]
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
    vol6 = _tet_geometry(vertices, tets)[2]
    _swap_last_corners(tets, vol6 < 0)
    return vol6


def _disk_triangulation(arcs: int, rings: int, grading: float):
    """Vertices (2D) and triangles of a disk of unit radius."""
    x = np.arange(1, rings + 1) / rings
    radii = (1.0 + grading) * x - grading * x ** 2
    theta = 2.0 * np.pi * np.arange(arcs) / arcs
    pts = [np.zeros((1, 2))]
    for r in radii:
        pts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    points = np.vstack(pts)

    def ring_index(j, k):
        return 1 + (j - 1) * arcs + (k % arcs)

    tris = []
    for k in range(arcs):
        tris.append([0, ring_index(1, k), ring_index(1, k + 1)])
    for j in range(1, rings):
        for k in range(arcs):
            a0, a1 = ring_index(j, k), ring_index(j, k + 1)
            b0, b1 = ring_index(j + 1, k), ring_index(j + 1, k + 1)
            tris.append([a0, a1, b1])
            tris.append([a0, b1, b0])
    return points, np.array(tris, dtype=np.int64)


def _finalize_generated(vertices, tets, classify, metadata) -> TetMesh:
    """Orient the tets, then derive, check and label the boundary."""
    _check_volumes(_fix_orientation(vertices, tets))
    faces = _boundary_of_tets(tets)
    labels = classify(vertices[faces].mean(axis=1))
    mesh = TetMesh(vertices=vertices, tets=tets, boundary_faces=faces,
                   boundary_labels=labels, metadata=metadata)
    return _check_boundary(mesh, faces)


def generate_pipe_mesh(radius: float, length: float,
                       resolution: int = 2) -> TetMesh:
    """Structured tetrahedral mesh of a straight circular pipe.

    The pipe axis is z, spanning ``[0, length]``, centered on x = y = 0.
    The cross-section is a spider-web triangulation with ring spacing
    biased toward the wall by ``WALL_GRADING`` (0 would be uniform).
    Each resolution step doubles the angular, radial, and axial counts.
    Boundary labels: z = 0 disc is the inlet (1), z = length disc the
    outlet (2), the lateral surface the wall (0).
    """
    if radius <= 0 or length <= 0:
        raise ValidationError("pipe radius and length must be positive")
    if resolution < 0 or resolution > 6:
        raise ValidationError("pipe resolution must be in [0, 6]")
    arcs = 16 * 2 ** resolution
    rings = 2 * 2 ** resolution
    layers = 5 * 2 ** resolution

    disk, tris = _disk_triangulation(arcs, rings, WALL_GRADING)
    per_layer = len(disk)
    z = np.linspace(0.0, length, layers + 1)
    vertices = np.empty((per_layer * (layers + 1), 3))
    for l, zl in enumerate(z):
        block = slice(l * per_layer, (l + 1) * per_layer)
        vertices[block, :2] = disk * radius
        vertices[block, 2] = zl

    bottom = np.repeat(np.arange(layers) * per_layer, len(tris))
    tri_tiled = np.tile(tris, (layers, 1))
    prisms = np.concatenate([tri_tiled + bottom[:, None],
                             tri_tiled + bottom[:, None] + per_layer], axis=1)
    tets = _split_prisms(prisms)

    ztol = 1e-9 * length

    def classify(centroids):
        labels = np.full(len(centroids), WALL_LABEL, dtype=np.int64)
        labels[centroids[:, 2] < ztol] = INLET_LABEL
        labels[centroids[:, 2] > length - ztol] = FIRST_OUTLET_LABEL
        return labels

    metadata = {"pipe": {"radius": float(radius), "length": float(length),
                         "resolution": int(resolution),
                         "wall_grading": WALL_GRADING}}
    return _finalize_generated(vertices, tets, classify, metadata)


def generate_box_mesh(size: Sequence[float], divisions: Sequence[int],
                      center: Sequence[float] = (0.0, 0.0, 0.0)) -> TetMesh:
    """Structured tetrahedral box, six tets per hexahedral cell.

    All six sides are labeled wall (0). Intended for phantoms and tests.
    """
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
    return _finalize_generated(vertices, tets, classify, metadata)


# =========================================================================
# VTK legacy ASCII I/O
# =========================================================================

# Rows formatted per write call; bounds the text held in memory at once.
_ROW_CHUNK = 8192
_FLOAT_ROW = "%.17g %.17g %.17g\n"


def _write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write ``row_format % row`` for every row, a chunk of rows at a time."""
    rows = np.asarray(rows).reshape(len(rows), -1)
    for start in range(0, len(rows), _ROW_CHUNK):
        block = rows[start:start + _ROW_CHUNK]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


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
                           "%.17g\n", data))
        elif data.shape == (mesh.n_vertices, 3):
            blocks.append((f"VECTORS {name} double\n", _FLOAT_ROW, data))
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
        _write_rows(fh, _FLOAT_ROW, mesh.vertices)
        fh.write(f"CELLS {n_cells} {5 * mesh.n_tets + 4 * n_faces}\n")
        _write_rows(fh, "4 %d %d %d %d\n", mesh.tets)
        _write_rows(fh, "3 %d %d %d\n", mesh.boundary_faces)
        fh.write(f"CELL_TYPES {n_cells}\n")
        fh.write("10\n" * mesh.n_tets + "5\n" * n_faces)
        fh.write(f"CELL_DATA {n_cells}\nSCALARS boundary_label int 1\n"
                 "LOOKUP_TABLE default\n")
        fh.write("-1\n" * mesh.n_tets)
        _write_rows(fh, "%d\n", mesh.boundary_labels)
        if point_data is not None:
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            for header, row_format, rows in blocks:
                fh.write(header)
                _write_rows(fh, row_format, rows)


def save_mesh(mesh: TetMesh, path: str | Path) -> None:
    """Write a VTK legacy ASCII unstructured grid (see module docstring)."""
    _write_vtk(path, mesh)


class _VtkTokens:
    """Whitespace-token stream over a VTK legacy ASCII file."""

    def __init__(self, text: str, path):
        body = text.split("\n", 2)
        if len(body) < 3:
            raise MeshError(f"{path}: truncated VTK file")
        self.title = body[1]
        self.tokens = body[2].split()
        self.pos = 0
        self.path = path

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise MeshError(f"{self.path}: unexpected end of file")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, word: str):
        tok = self.next()
        if tok.upper() != word:
            raise MeshError(f"{self.path}: expected {word}, found {tok}")

    def array(self, count: int, dtype) -> np.ndarray:
        end = self.pos + count
        if end > len(self.tokens):
            raise MeshError(f"{self.path}: unexpected end of file")
        out = np.array(self.tokens[self.pos:end], dtype=dtype)
        self.pos = end
        return out


def _read_vtk(path: Path):
    """Parse a VTK legacy ASCII unstructured grid written by this package.

    Returns the title metadata, the vertices, the cells with their VTK
    types, and the data arrays keyed by ('cell' | 'point', name). Integer
    scalars are read as int64, everything else as float64.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    tk = _VtkTokens(text, path)
    metadata = {}
    if tk.title.startswith("hemoflow "):
        try:
            metadata = json.loads(tk.title[len("hemoflow "):])
        except json.JSONDecodeError:
            metadata = {}
    tk.expect("ASCII")
    tk.expect("DATASET")
    tk.expect("UNSTRUCTURED_GRID")
    tk.expect("POINTS")
    n_points = int(tk.next())
    tk.next()  # point scalar type
    vertices = tk.array(3 * n_points, np.float64).reshape(-1, 3)
    tk.expect("CELLS")
    n_cells = int(tk.next())
    total = int(tk.next())
    raw = tk.array(total, np.int64)
    cells = []
    pos = 0
    for _ in range(n_cells):
        count = int(raw[pos])
        cells.append(raw[pos + 1:pos + 1 + count])
        pos += count + 1
    if pos != total:
        raise MeshError(f"{path}: CELLS block size mismatch")
    tk.expect("CELL_TYPES")
    if int(tk.next()) != n_cells:
        raise MeshError(f"{path}: CELL_TYPES count mismatch")
    types = tk.array(n_cells, np.int64)

    data = {}
    section = None
    count = 0
    while tk.pos < len(tk.tokens):
        tok = tk.next().upper()
        if tok == "CELL_DATA":
            section, count = "cell", int(tk.next())
            if count != n_cells:
                raise MeshError(f"{path}: CELL_DATA count mismatch")
        elif tok == "POINT_DATA":
            section, count = "point", int(tk.next())
            if count != n_points:
                raise MeshError(f"{path}: POINT_DATA count mismatch")
        elif tok == "SCALARS" and section is not None:
            name = tk.next()
            kind = tk.next()
            if tk.tokens[tk.pos].isdigit():
                tk.next()  # optional component count
            tk.expect("LOOKUP_TABLE")
            tk.next()
            data[section, name] = tk.array(
                count, np.int64 if kind == "int" else np.float64)
        elif tok == "VECTORS" and section is not None:
            name = tk.next()
            tk.next()  # data type
            data[section, name] = tk.array(3 * count,
                                           np.float64).reshape(-1, 3)
        else:
            raise MeshError(f"{path}: unsupported section {tok}")
    return metadata, vertices, cells, types, data


def load_mesh(path: str | Path) -> TetMesh:
    """Read a VTK legacy ASCII unstructured grid written by this package.

    Tetrahedra (cell type 10) become the volume mesh; triangles (type 5)
    must carry a ``boundary_label`` cell-data array. The mesh is
    validated on load: inverted tetrahedra are repaired with a warning,
    the boundary is re-derived from the tetrahedra, must be closed and
    must match the stored triangles one to one, and the triangles are
    re-oriented inward regardless of stored winding.
    """
    path = Path(path)
    metadata, vertices, cells, types, data = _read_vtk(path)
    tets = [c for c, t in zip(cells, types) if t == 10]
    tris = [c for c, t in zip(cells, types) if t == 5]
    if len(tets) + len(tris) != len(cells):
        bad = sorted(set(types) - {5, 10})
        raise MeshError(f"{path}: unsupported cell types {bad}")
    if not tets:
        raise MeshError(f"{path}: no tetrahedra found")
    labels = data.get(("cell", "boundary_label"))
    if labels is None:
        raise MeshError(f"{path}: missing boundary_label cell data")

    tri_labels = labels[types == 5]
    mesh = TetMesh(vertices=vertices,
                   tets=np.array(tets, dtype=np.int64).reshape(-1, 4),
                   boundary_faces=np.array(tris, dtype=np.int64).reshape(-1, 3),
                   boundary_labels=tri_labels,
                   metadata=metadata)
    return validate_mesh(mesh, repair=True)
