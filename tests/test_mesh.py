"""Mesh structure, I/O, volumes, wall normals, and segment labeling."""

import hashlib
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hemoflow.mesh as mesh_module
from hemoflow.errors import LabelingError, MeshError, ValidationError
from hemoflow.mesh import (
    _TET_CHUNK,
    _TET_FACES,
    WALL_GRADING,
    _boundary_of_tets,
    _check_surface,
    _disk_triangulation,
    _fix_orientation,
    _lumped_volumes,
    _row_order,
    _split_prisms,
    _tet_geometry,
    _tet_vol6,
    CutPlane,
    TetMesh,
    generate_box_mesh,
    generate_pipe_mesh,
    load_mesh,
    nodal_volumes,
    save_mesh,
    segment_labels,
    segment_names,
    tet_volumes,
    validate_mesh,
    wall_normals,
    wall_vertices,
)

RADIUS, LENGTH = 0.01, 0.1


def validate_unrepaired(mesh):
    """validate_mesh, failing on the warning of any repair it makes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return validate_mesh(mesh)


def make_ball(divisions=12, radius=0.01):
    """Tet ball with a spherical boundary via a cube-to-ball vertex map."""
    box = generate_box_mesh((2.0, 2.0, 2.0), (divisions,) * 3)
    v = box.vertices
    norm2 = np.linalg.norm(v, axis=1)
    safe = np.where(norm2 > 0, norm2, 1.0)
    scale = np.where(norm2 > 0, np.abs(v).max(axis=1) / safe, 1.0)
    ball = TetMesh(v * scale[:, None] * radius, box.tets.copy(),
                   box.boundary_faces.copy(), box.boundary_labels.copy())
    return validate_mesh(ball)


def make_u_bend(resolution=0):
    """Half-torus pipe: the straight pipe bent through 180 degrees."""
    pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution=resolution)
    bend_radius = LENGTH / np.pi
    theta = np.pi * pipe.vertices[:, 2] / LENGTH
    x, y = pipe.vertices[:, 0], pipe.vertices[:, 1]
    bent = np.column_stack([(bend_radius + x) * np.cos(theta), y,
                            (bend_radius + x) * np.sin(theta)])
    mesh = TetMesh(bent, pipe.tets.copy(), pipe.boundary_faces.copy(),
                   pipe.boundary_labels.copy())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_mesh(mesh), bend_radius


# =========================================================================
# Generators and volumes
# =========================================================================

def test_pipe_mesh_is_sound():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    vol = tet_volumes(mesh)
    assert np.all(vol > 0), "generated tets must be positively oriented"
    labels = set(mesh.boundary_labels.tolist())
    assert labels == {0, 1, 2}, f"expected wall/inlet/outlet, got {labels}"


def test_pipe_volume_within_one_percent_at_default_resolution():
    mesh = generate_pipe_mesh(RADIUS, LENGTH)
    total = nodal_volumes(mesh).sum()
    exact = np.pi * RADIUS ** 2 * LENGTH
    assert abs(total - exact) / exact < 0.01, \
        f"pipe volume {total} vs {exact}"


def test_pipe_volume_converges_at_second_order():
    exact = np.pi * RADIUS ** 2 * LENGTH
    errors = []
    for res in (0, 1, 2):
        total = nodal_volumes(generate_pipe_mesh(RADIUS, LENGTH, res)).sum()
        errors.append(abs(total - exact) / exact)
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9), f"volume convergence orders {orders}"


def test_nodal_volumes_conserve_tet_volumes():
    """Scattering quarter volumes must not create or destroy volume."""
    for mesh in (generate_pipe_mesh(RADIUS, LENGTH, 1),
                 generate_box_mesh((0.02, 0.01, 0.01), (6, 4, 4))):
        nodal = nodal_volumes(mesh).sum()
        total = tet_volumes(mesh).sum()
        assert abs(nodal - total) / total < 1e-12, \
            f"lumped volume {nodal} vs tet volume {total}"
        assert np.all(nodal_volumes(mesh) > 0)


def test_nodal_volumes_equal_add_at_reference():
    """The bincount scatter sums in add.at's order, so bits agree."""
    for mesh in (generate_pipe_mesh(RADIUS, LENGTH, 1), make_ball(6)):
        want = np.zeros(mesh.n_vertices)
        np.add.at(want, mesh.tets.ravel(), np.repeat(tet_volumes(mesh) / 4, 4))
        assert np.array_equal(nodal_volumes(mesh), want)


@pytest.mark.parametrize("resolution", [0, 1, 2, 3])
def test_chunked_corner_sums_equal_the_whole_mesh_bincount(resolution):
    """Nodal volumes and wall normals, summed a chunk of rows at a time,
    equal the whole-mesh bincount of the repeated weights bit for bit."""
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution)
    n = mesh.n_vertices
    want = np.bincount(mesh.tets.ravel(),
                       np.repeat(tet_volumes(mesh) / 4.0, 4), minlength=n)
    assert np.array_equal(nodal_volumes(mesh), want)
    faces = mesh.boundary_faces[mesh.boundary_labels == 0]
    tri = mesh.vertices[faces]
    area_normal = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    sums = np.column_stack([
        np.bincount(faces.ravel(), np.repeat(area_normal[:, c], 3),
                    minlength=n) for c in range(3)])[np.unique(faces)]
    _, normals = wall_normals(mesh)
    assert np.array_equal(normals,
                          sums / np.linalg.norm(sums, axis=1)[:, None])


def test_lumped_volumes_memory_is_one_per_tet_array():
    # on the 57,600-tet pipe the whole-mesh repeated weights np.repeat(vol
    # / 4, 4) beside vol and vol / 4 once took the lumped volumes to a
    # 2.6 MB traced peak, six floats per tet; now they hold the quarter
    # volumes, the result and one chunk's repeated weights
    pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution=2)
    vol6 = _tet_vol6(pipe.vertices, pipe.tets)
    tracemalloc.start()
    try:
        volumes = _lumped_volumes(pipe, vol6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = vol6.nbytes + volumes.nbytes + 2 * 4 * _TET_CHUNK * 8
    assert peak < bound, (f"lumped volumes peak {peak / 2**20:.2f} MB, "
                          f"bound {bound / 2**20:.2f} MB")


def test_box_volume_is_exact():
    mesh = generate_box_mesh((0.02, 0.016, 0.008), (10, 8, 4))
    total = nodal_volumes(mesh).sum()
    assert total == pytest.approx(0.02 * 0.016 * 0.008, rel=1e-12)


def test_boundary_is_closed_surface():
    """Boundary edges each border exactly two faces; Euler number is 2."""
    for mesh in (generate_pipe_mesh(RADIUS, LENGTH, 0),
                 generate_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))):
        faces = mesh.boundary_faces
        edges = np.sort(faces[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2), axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        assert np.all(counts == 2), "boundary edge not shared by 2 faces"
        n_v = len(np.unique(faces))
        n_e = len(np.unique(edges, axis=0))
        assert n_v - n_e + len(faces) == 2, "boundary is not a topological sphere"


# sha256 of the little-endian int64 bytes of tets, boundary_faces and
# boundary_labels. Integer arrays hash the same on every platform; they
# pin the face order that the VTK export and the wall-normal sums use.
CONNECTIVITY_SHA256 = {
    "pipe0": ("fea5ecc85b339beeba94d14a5c89c7f4adb47cc88f3813a47eca706b0c4fd0fe",
              "cf3c44983090cf5a28df75f467aed1d00c122f22f6abaf3aab87490b87f4dcf6",
              "3038b1d6c4287ccef2218f9d127c45931b0f2c19a4e8468868dea1572e4192fb"),
    "pipe1": ("fcfae144d9822928ffb67a7522a0dd96ce4ba908ffdfee64707ea47c6b4ad173",
              "f204e7478aa11983bd2c3c2c57f0f454dfc52d4f2a5c0d40008d7d8952d6ac3d",
              "0708b166aa57864378391600ae86020cab0b20be888b4f98c57ff5f094508694"),
    "pipe2": ("8f7c98e8e9bd36399dcc4897c6876b6f063316e694a546d3c7135f96ea39f5b1",
              "ec91f75f12f01ec077d70b35c8ddc36ad7ab3c8d4663039a740fd459c4f1c65f",
              "18888e95403f7e618daeca8654a315fb5d7c83485b1da73a312e15a427c7c1b2"),
    "pipe3": ("09f841069bf2a878d986337287d870a2f33c197523a495e8629de7aaa0eb94e8",
              "c4c32a56ad8e80016b9426c273e1410f3eb21f8b2a7704906d071e36b14ece7f",
              "ffcb654b187544ffb3c47e0070aedaa4c61bf41978f9eaa4cac07fbab6c97c61"),
    "box3": ("a853fafc90c9199fad70cc7b5711fdbc4dc6f03c62931fec9ded6c682e59cdad",
             "07a0efce5dfe2d5c24b33cd9dd6664affd0c3e7291ff82f51607b4210b326959",
             "0ed9e26c3f1435e498beb2369bdf5a04a7fe4f0e302068ef2c308e1ff872b5f7"),
}


def generated(name):
    if name == "box3":
        return generate_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    return generate_pipe_mesh(RADIUS, LENGTH, resolution=int(name[-1]))


@pytest.mark.parametrize("name", sorted(CONNECTIVITY_SHA256))
def test_generated_connectivity_is_pinned(name):
    mesh = generated(name)
    digests = tuple(hashlib.sha256(np.asarray(a, dtype="<i8").tobytes())
                    .hexdigest() for a in (mesh.tets, mesh.boundary_faces,
                                           mesh.boundary_labels))
    assert digests == CONNECTIVITY_SHA256[name]


@pytest.mark.parametrize("resolution", [0, 1, 2, 3])
def test_layer_tiled_pipe_equals_split_of_the_whole_prism_stack(resolution):
    """Tiling one split layer by whole-layer vertex offsets gives the tets
    of splitting every prism of the pipe, then orienting them, and the
    boundary built from that layer's discs and side band is the boundary
    of all those tets, face for face and winding for winding."""
    pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution)
    arcs, rings, layers = (k * 2 ** resolution for k in (16, 2, 5))
    disk, tris = _disk_triangulation(arcs, rings, WALL_GRADING)
    bottom = np.repeat(np.arange(layers) * len(disk), len(tris))[:, None]
    tri_tiled = np.tile(tris, (layers, 1))
    prisms = np.concatenate([tri_tiled + bottom,
                             tri_tiled + bottom + len(disk)], axis=1)
    want = _split_prisms(prisms)
    _fix_orientation(pipe.vertices, want)
    assert np.array_equal(pipe.tets, want)
    assert np.array_equal(pipe.boundary_faces, _boundary_of_tets(want))


def test_pipe_generation_memory_is_a_small_multiple_of_the_mesh():
    # the 57,600-tet pipe (2.1 MB): a stack of every prism, whole-mesh
    # edges and the (3, T, 4) sorted face ids once took its generation
    # to 6.6 times the mesh (14.1 MB traced), and orienting and bounding
    # all tiled tets to 3.5 times (3.6 at resolution 3); orienting and
    # bounding one layer before tiling it takes about 1.4 and 1.2 times
    for resolution in (2, 3):
        tracemalloc.start()
        try:
            pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (pipe.vertices, pipe.tets,
                                      pipe.boundary_faces,
                                      pipe.boundary_labels))
        assert peak < 2.0 * held, \
            (f"resolution {resolution}: traced peak {peak / 2**20:.1f} MB "
             f"for a {held / 2**20:.1f} MB mesh")


@pytest.mark.parametrize("n", [2, 1000, 2**21 - 1, 2**21, 2**40])
def test_face_key_order_equals_lexsort(n):
    """One int64 key per sorted face where n**3 fits, the three-key
    lexsort where it would overflow: the same permutation either way."""
    rng = np.random.default_rng(n)
    keys = np.sort(rng.integers(0, n, size=(500, 3)), axis=1)
    keys = np.concatenate([keys, keys[:50], [[n - 1] * 3, [0] * 3]])
    assert np.array_equal(_row_order(keys), np.lexsort(keys.T))


def test_boundary_of_tets_keeps_its_faces_under_wide_vertex_ids():
    mesh = generate_box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    faces = _boundary_of_tets(mesh.tets)
    spread = 2**40 // mesh.n_vertices          # ids beyond the int64 key
    wide_faces = _boundary_of_tets(mesh.tets * spread)
    assert np.array_equal(wide_faces, faces * spread)


def test_boundary_key_and_lexsort_fallback_give_the_same_faces():
    # ids relabeled in order to sparse values above 2**21, where the
    # int64 key (hi n + mid) n + lo would overflow: the lexsort fallback
    # must find the same faces in the same order as the key
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    gaps = np.random.default_rng(21).integers(1, 1000, mesh.n_vertices)
    relabel = 2**21 + np.cumsum(gaps)
    assert (int(relabel.max()) + 1) ** 3 >= 2**63
    faces = _boundary_of_tets(mesh.tets)
    assert np.array_equal(_boundary_of_tets(relabel[mesh.tets]),
                          relabel[faces])
    assert np.array_equal(faces, mesh.boundary_faces)


@pytest.mark.parametrize("name", ["pipe0", "pipe1", "pipe2", "pipe3",
                                  "box3"])
def test_derived_faces_come_in_row_order(name):
    """The boundary of the tets comes in the ``_row_order`` of its sorted
    vertex triples, which ``_check_boundary`` relies on to label it."""
    faces = _boundary_of_tets(generated(name).tets)
    order = _row_order(np.sort(faces, axis=1))
    assert np.array_equal(order, np.arange(len(faces)))


def cross_product_volumes(mesh):
    """Six signed volumes e1 . (e2 x e3) from (T, 3) rows and np.cross,
    the dot product summed x, y, z in turn."""
    v = mesh.vertices[mesh.tets]
    terms = (v[:, 1] - v[:, 0]) * np.cross(v[:, 2] - v[:, 0],
                                           v[:, 3] - v[:, 0])
    return terms[:, 0] + terms[:, 1] + terms[:, 2]


@pytest.mark.parametrize("name", ["pipe0", "pipe1", "pipe2", "box3", "ball"])
def test_volumes_equal_cross_product_reference(name):
    """The per-coordinate columns reproduce the row formulas bit for bit.

    The generated meshes have one nonzero term per dot product, so the
    einsum the volumes were once computed with agrees to the bit. The
    ball's oblique edges give three terms; einsum's summation order there
    depends on the numpy build (SIMD lanes, fused multiply-add), and the
    ball pins the x, y, z order."""
    mesh = make_ball(6) if name == "ball" else generated(name)
    vol = cross_product_volumes(mesh) / 6.0
    if name != "ball":
        v = mesh.vertices[mesh.tets]
        e1, e2, e3 = (v[:, k] - v[:, 0] for k in (1, 2, 3))
        assert np.array_equal(np.einsum("ij,ij->i", e1, np.cross(e2, e3))
                              / 6.0, vol)
    assert np.array_equal(tet_volumes(mesh), vol)
    want = np.zeros(mesh.n_vertices)
    np.add.at(want, mesh.tets.ravel(), np.repeat(vol / 4.0, 4))
    assert np.array_equal(nodal_volumes(mesh), want)


def test_chunked_geometry_equals_the_whole_mesh_reference():
    """Edges, crosses and volumes formed a chunk at a time equal those of
    whole-mesh (3, 3, T) edges, on a bent pipe of several full chunks and
    a partial one, whose oblique edges give every product three terms."""
    mesh, _ = make_u_bend(resolution=2)
    n_chunks, rest = divmod(mesh.n_tets, _TET_CHUNK)
    assert n_chunks >= 2 and rest > 0
    x = mesh.vertices[mesh.tets]                         # (T, 4, 3)
    edges = [x[:, k] - x[:, 0] for k in (1, 2, 3)]
    crosses = np.stack([np.cross(edges[a], edges[b]).T
                        for a, b in ((1, 2), (2, 0), (0, 1))])
    vol6 = (edges[0].T[0] * crosses[0, 0] + edges[0].T[1] * crosses[0, 1]
            + edges[0].T[2] * crosses[0, 2])
    got_crosses, got_vol6 = _tet_geometry(mesh.vertices, mesh.tets)
    assert np.array_equal(got_crosses, crosses)
    assert np.array_equal(got_vol6, vol6)
    assert np.array_equal(_tet_vol6(mesh.vertices, mesh.tets), vol6)


def test_fix_orientation_flips_back_inverted_tets():
    mesh = generated("pipe1")
    inverted = np.random.default_rng(3).choice(mesh.n_tets, 100,
                                               replace=False)
    tets = mesh.tets.copy()
    tets[inverted] = tets[inverted][:, [0, 1, 3, 2]]
    before = cross_product_volumes(TetMesh(mesh.vertices, tets,
                                           mesh.boundary_faces,
                                           mesh.boundary_labels))
    assert np.all((before < 0) == np.isin(np.arange(mesh.n_tets), inverted))
    assert np.array_equal(_fix_orientation(mesh.vertices, tets), before)
    digest = hashlib.sha256(tets.astype("<i8").tobytes()).hexdigest()
    assert digest == CONNECTIVITY_SHA256["pipe1"][0]


def check_boundary_against_counter(tets):
    """_boundary_of_tets against a count of sorted face triples."""
    counts = Counter(tuple(sorted(tet[local])) for tet in tets
                     for local in _TET_FACES)
    if max(counts.values()) > 2:
        with pytest.raises(MeshError, match="non-manifold"):
            _boundary_of_tets(tets)
        return
    faces = _boundary_of_tets(tets)
    triples = [tuple(sorted(face)) for face in faces.tolist()]
    assert sorted(triples) == sorted(k for k, c in counts.items() if c == 1)
    # in the order of the sorted triples, last vertex first
    assert triples == sorted(triples, key=lambda t: t[::-1])
    # wound as the face table winds it in some tet
    wound = {tuple(face)
             for face in tets[:, _TET_FACES].reshape(-1, 3).tolist()}
    assert all(tuple(face) in wound for face in faces.tolist())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(["pipe0", "box1", "box2", "box3"]))
def test_boundary_of_shuffled_meshes_matches_face_counts(seed, name):
    mesh = (generate_box_mesh((1.0, 1.0, 1.0), (int(name[-1]),) * 3)
            if name.startswith("box") else generated(name))
    order = np.random.default_rng(seed).permutation(mesh.n_tets)
    check_boundary_against_counter(mesh.tets[order])


@settings(max_examples=200, deadline=None)
@example(soup=[(0, 1, 2, 3), (0, 2, 1, 4), (0, 1, 2, 5)], spread=1)
@given(soup=st.lists(st.permutations(range(6)).map(lambda p: p[:4]),
                     min_size=1, max_size=10),
       spread=st.sampled_from([1, 2**21 + 1, 2**40]))
def test_boundary_of_tet_soups_matches_face_counts(soup, spread):
    """Random tets on six vertices share faces by twos and threes (the
    example: three on one face); ids spread past 2**21 take the three-key
    lexsort."""
    check_boundary_against_counter(np.array(soup, dtype=np.int64) * spread)


def test_generator_argument_validation():
    with pytest.raises(ValidationError):
        generate_pipe_mesh(-1.0, 1.0)
    with pytest.raises(ValidationError):
        generate_pipe_mesh(0.01, 0.1, resolution=9)
    with pytest.raises(ValidationError):
        generate_box_mesh((1, 1, 0), (2, 2, 2))


@pytest.mark.parametrize("radius, length", [(np.nan, 0.1), (0.01, np.inf)],
                         ids=["nan-radius", "inf-length"])
def test_pipe_refuses_non_finite_geometry(radius, length):
    # NaN compares false with every bound, and an infinite length spaces
    # its layers by inf
    with pytest.raises(ValidationError, match="finite and positive"):
        generate_pipe_mesh(radius, length, 0)


@pytest.mark.parametrize("size, center", [
    ((1.0, 1.0, np.nan), (0.0, 0.0, 0.0)),
    ((1.0, 1.0, 1.0), (0.0, np.inf, 0.0))], ids=["nan-size", "inf-center"])
def test_box_refuses_non_finite_geometry(size, center):
    with pytest.raises(ValidationError, match="finite"):
        generate_box_mesh(size, (2, 2, 2), center=center)


@pytest.mark.parametrize("size, divisions", [
    ((1.0, 1.0), (2, 2, 2)), ((1.0, 1.0, 1.0), (2, 2))],
    ids=["two-sizes", "two-divisions"])
def test_box_refuses_other_than_three_entries(size, divisions):
    with pytest.raises(ValidationError, match="3 entries"):
        generate_box_mesh(size, divisions)


def test_pipe_refuses_a_fractional_resolution():
    with pytest.raises(ValidationError, match="resolution must be an integer"):
        generate_pipe_mesh(RADIUS, LENGTH, resolution=1.5)


def test_pipe_refuses_a_bool_resolution():
    # True == 1, but a flag is not a count
    with pytest.raises(ValidationError, match="resolution must be an integer"):
        generate_pipe_mesh(RADIUS, LENGTH, resolution=True)


def test_box_refuses_fractional_divisions():
    with pytest.raises(ValidationError, match="divisions must be integers"):
        generate_box_mesh((0.02, 0.016, 0.008), (10.5, 8, 4))


def test_generators_take_numpy_integer_counts():
    pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution=np.int64(0))
    assert np.array_equal(pipe.tets, generate_pipe_mesh(RADIUS, LENGTH, 0).tets)
    box = generate_box_mesh((1.0, 1.0, 1.0), np.array([3, 3, 3]))
    assert np.array_equal(box.tets, generated("box3").tets)


def loop_disk_triangulation(arcs, rings, grading):
    """The disk as a loop over rings and triangles, the reference for
    ``_disk_triangulation``'s index arithmetic."""
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


@pytest.mark.parametrize("arcs, rings", [
    *((16 * 2 ** r, 2 * 2 ** r) for r in range(5)), (3, 1), (5, 2)])
def test_disk_triangulation_equals_the_loop_bit_for_bit(arcs, rings):
    # float coordinates are not hash-pinned across platforms, so this is
    # what pins the generated pipes' vertices
    points, tris = _disk_triangulation(arcs, rings, WALL_GRADING)
    want_points, want_tris = loop_disk_triangulation(arcs, rings,
                                                     WALL_GRADING)
    assert points.shape == want_points.shape
    assert np.array_equal(points.view(np.int64), want_points.view(np.int64))
    assert tris.dtype == want_tris.dtype
    assert np.array_equal(tris, want_tris)


TET_SURFACE = [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]]


@pytest.mark.parametrize("faces, closed", [
    (TET_SURFACE, True),
    (TET_SURFACE + [[4, 6, 5], [4, 5, 7], [4, 7, 6], [5, 6, 7]], True),
    ([], True),
    ([[0, 1, 2]], False),                         # every edge once
    ([[0, 1, 2], [3, 4, 5]], False),              # an even count of them
    ([[0, 1, 2], [0, 2, 3]], False),              # an open quad
    ([[0, 1, 2], [0, 2, 3], [0, 3, 4]], False),   # an odd count of edges
    # two tet surfaces sharing the edge (0, 1): four faces border it
    (TET_SURFACE + [[0, 1, 4], [0, 5, 1], [0, 4, 5], [1, 5, 4]], False),
])
def test_surface_check_counts_two_faces_per_edge(faces, closed):
    faces = np.array(faces, dtype=np.int64).reshape(-1, 3)
    labels = np.zeros(len(faces), dtype=np.int64)
    if closed:
        _check_surface(faces, labels, 8)
    else:
        with pytest.raises(MeshError, match="closed manifold"):
            _check_surface(faces, labels, 8)


def test_generated_boundary_must_be_a_closed_surface(monkeypatch):
    """The generator derives its boundary itself, but still requires it
    closed: a face lost on the way is refused, not written."""
    derive = mesh_module._boundary_of_tets
    monkeypatch.setattr(mesh_module, "_boundary_of_tets",
                        lambda tets: derive(tets)[1:])
    with pytest.raises(MeshError, match="closed manifold"):
        generate_pipe_mesh(RADIUS, LENGTH, resolution=0)


# =========================================================================
# Validation and repair
# =========================================================================

def test_inverted_tet_repair_warns_and_fixes():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    mesh.tets[7] = mesh.tets[7][[0, 1, 3, 2]]
    with pytest.warns(UserWarning, match="inverted"):
        validate_mesh(mesh)
    assert np.all(tet_volumes(mesh) > 0)


def test_boundary_mismatch_detected():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    mesh.boundary_faces = mesh.boundary_faces[:-1]
    mesh.boundary_labels = mesh.boundary_labels[:-1]
    with pytest.raises(MeshError, match="boundary"):
        validate_mesh(mesh)


@pytest.mark.parametrize("name", ["pipe1", "box3"])
def test_validate_restores_permuted_rewound_boundary(name):
    """Stored rows in any order and winding re-key onto the derived faces."""
    mesh = generated(name)
    rng = np.random.default_rng(7)
    order = rng.permutation(len(mesh.boundary_faces))
    windings = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1],
                         [0, 2, 1], [2, 1, 0], [1, 0, 2]])
    pick = windings[rng.integers(0, 6, len(order))]
    scrambled = TetMesh(mesh.vertices, mesh.tets.copy(),
                        np.take_along_axis(mesh.boundary_faces[order], pick,
                                           axis=1),
                        mesh.boundary_labels[order])
    assert not np.array_equal(scrambled.boundary_faces, mesh.boundary_faces)
    validate_unrepaired(scrambled)
    assert np.array_equal(scrambled.boundary_faces, mesh.boundary_faces)
    assert np.array_equal(scrambled.boundary_labels, mesh.boundary_labels)


def inward_by_opposite_vertex(mesh):
    """Oracle for the boundary windings: each boundary face as its owning
    tet winds it outward, flipped where the right-hand normal points away
    from the owner's opposite vertex."""
    outward = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    tet_faces = mesh.tets[:, outward].reshape(-1, 3)   # face j of tet t: 4t+j
    n = mesh.n_vertices

    def key(faces):
        lo, mid, hi = np.sort(faces, axis=1).T
        return (hi * n + mid) * n + lo

    keys = key(tet_faces)
    order = np.argsort(keys, kind="stable")
    at = np.searchsorted(keys[order], key(mesh.boundary_faces))
    picked = order[at]
    assert np.array_equal(keys[picked], key(mesh.boundary_faces))
    faces, owners = tet_faces[picked], picked // 4
    tri = mesh.vertices[faces]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    opposite = mesh.vertices[mesh.tets[owners]].sum(axis=1) - tri.sum(axis=1)
    flip = np.einsum("ij,ij->i", normal, opposite - tri.mean(axis=1)) < 0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return faces


def rotated_shifted_pipe():
    pipe = generate_pipe_mesh(RADIUS, LENGTH, 1)
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))
    q *= np.sign(np.linalg.det(q))               # a proper rotation
    moved = TetMesh(pipe.vertices @ q.T + [0.3, -0.1, 0.2], pipe.tets.copy(),
                    pipe.boundary_faces.copy(), pipe.boundary_labels.copy())
    return validate_unrepaired(moved)


def inverted_scrambled_pipe():
    """30% of tets inverted and every stored winding scrambled."""
    pipe = generate_pipe_mesh(RADIUS, LENGTH, 1)
    rng = np.random.default_rng(4)
    tets = pipe.tets.copy()
    flip = rng.random(len(tets)) < 0.3
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    windings = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1],
                         [0, 2, 1], [2, 1, 0], [1, 0, 2]])
    pick = windings[rng.integers(0, 6, len(pipe.boundary_faces))]
    mesh = TetMesh(pipe.vertices, tets,
                   np.take_along_axis(pipe.boundary_faces, pick, axis=1),
                   pipe.boundary_labels)
    with pytest.warns(UserWarning, match="repaired .* inverted"):
        return validate_mesh(mesh)


@pytest.mark.parametrize("name", [
    "pipe0", "pipe1", "pipe2", "pipe3", "box3", "box345", "ball",
    "rotated_shifted_pipe", "inverted_scrambled_pipe"])
def test_boundary_windings_point_at_the_opposite_vertex(name):
    """The face table's windings are the ones the normal test picks."""
    mesh = {"box345": lambda: generate_box_mesh((0.02, 0.03, 0.04),
                                                (3, 4, 5)),
            "ball": make_ball,
            "rotated_shifted_pipe": rotated_shifted_pipe,
            "inverted_scrambled_pipe": inverted_scrambled_pipe,
            }.get(name, lambda: generated(name))()
    assert np.array_equal(mesh.boundary_faces, inward_by_opposite_vertex(mesh))


def test_duplicated_boundary_triangle_detected():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    mesh.boundary_faces = np.vstack([mesh.boundary_faces,
                                     mesh.boundary_faces[5, [2, 0, 1]]])
    mesh.boundary_labels = np.append(mesh.boundary_labels,
                                     mesh.boundary_labels[5])
    with pytest.raises(MeshError, match="boundary"):
        validate_mesh(mesh)


def tets_mesh(vertices, tets):
    """Mesh whose stored boundary is every face of every tet."""
    tets = np.array(tets)
    local = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    faces = tets[:, local].reshape(-1, 3)
    return TetMesh(np.array(vertices, dtype=float), tets, faces,
                   np.zeros(len(faces), dtype=int))


UNIT = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def labelled_negative():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    mesh.boundary_labels[3] = -1
    return mesh


@pytest.mark.parametrize("build, message", [
    (lambda: tets_mesh([(0, 0, 0)] * 4, [[0, 1, 2, 3]]), "no usable"),
    (lambda: tets_mesh(UNIT + [(1, 1, 0)], [[0, 1, 2, 3], [0, 1, 2, 4]]),
     "1 degenerate"),
    # two tets that share only the edge 0-1: four boundary faces meet there
    (lambda: tets_mesh(UNIT + [(0, -1, 0), (0, 0, -1)],
                       [[0, 1, 2, 3], [0, 1, 4, 5]]), "closed manifold"),
    # three tets on the face 0-1-2
    (lambda: tets_mesh(UNIT + [(0, 0, -1), (1, 1, 1)],
                       [[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]]),
     "non-manifold interior face"),
    (labelled_negative, "nonnegative"),
], ids=["flat", "degenerate", "edge_bowtie", "non_manifold",
        "negative_label"])
def test_validate_rejects_unsound_meshes(build, message):
    with pytest.raises(MeshError, match=message):
        validate_unrepaired(build())


def test_mesh_index_bounds_checked():
    with pytest.raises(MeshError):
        TetMesh(np.zeros((3, 3)), np.array([[0, 1, 2, 5]]),
                np.empty((0, 3), int), np.empty(0, int))


# =========================================================================
# Wall normals
# =========================================================================

def test_pipe_wall_normals_point_inward_and_axially_flat():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 1)
    idx, normals = wall_normals(mesh)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    pos = mesh.vertices[idx]
    interior = (pos[:, 2] > 0.15 * LENGTH) & (pos[:, 2] < 0.85 * LENGTH)
    radial_in = -pos[interior, :2]
    radial_in /= np.linalg.norm(radial_in, axis=1, keepdims=True)
    dots = np.einsum("ij,ij->i", normals[interior, :2], radial_in)
    assert dots.min() > 0.998, "wall normals must point toward the axis"
    assert np.abs(normals[interior, 2]).max() < 0.05, \
        "lateral wall normals must have no axial component"


def test_sphere_normals_are_radial():
    """On a ball mesh, inward wall normals align with -r within 2 degrees."""
    ball = make_ball(divisions=12)
    idx, normals = wall_normals(ball)
    pos = ball.vertices[idx]
    radial_in = -pos / np.linalg.norm(pos, axis=1, keepdims=True)
    cosang = np.clip(np.einsum("ij,ij->i", normals, radial_in), -1.0, 1.0)
    worst = np.degrees(np.arccos(cosang)).max()
    assert worst < 2.0, f"worst normal deviation {worst} degrees"


def test_wall_normals_equal_add_at_reference():
    for mesh in (generate_pipe_mesh(RADIUS, LENGTH, 1), make_ball(6)):
        faces = mesh.boundary_faces[mesh.boundary_labels == 0]
        tri = mesh.vertices[faces]
        area_normal = 0.5 * np.cross(tri[:, 1] - tri[:, 0],
                                     tri[:, 2] - tri[:, 0])
        accum = np.zeros((mesh.n_vertices, 3))
        np.add.at(accum, faces.ravel(), np.repeat(area_normal, 3, axis=0))
        sums = accum[np.unique(faces)]
        idx, normals = wall_normals(mesh)
        assert np.array_equal(idx, np.unique(faces))
        assert np.array_equal(normals,
                              sums / np.linalg.norm(sums, axis=1)[:, None])


def test_degenerate_wall_normals_are_named():
    # two wall faces on one triangle, wound both ways: every normal sum is
    # zero, so the mean scale is zero too, and each vertex is named
    mesh = TetMesh(np.eye(4, 3), np.array([[0, 1, 2, 3]]),
                   np.array([[0, 1, 2], [0, 2, 1]]), np.array([0, 0]))
    with pytest.raises(MeshError, match=re.escape("vertices [0, 1, 2]")):
        wall_normals(mesh)


def test_wall_vertices_subset():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    idx = wall_vertices(mesh)
    r = np.linalg.norm(mesh.vertices[idx, :2], axis=1)
    assert np.allclose(r, RADIUS, rtol=1e-9), \
        "wall vertices must lie on the lateral surface"


# =========================================================================
# Segment labeling
# =========================================================================

def pipe_planes():
    return [CutPlane((0, 0, z), (0, 0, 1))
            for z in (0.25 * LENGTH, 0.5 * LENGTH, 0.75 * LENGTH)]


def test_segment_labels_partition_pipe():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    labels = segment_labels(mesh, pipe_planes())
    assert set(labels.tolist()) == {0, 1, 2, 3}
    # ordered along the axis
    for seg in range(3):
        z_here = mesh.vertices[labels == seg, 2].max()
        z_next = mesh.vertices[labels == seg + 1, 2].min()
        assert z_here <= z_next + 1e-12


def test_empty_segment_raises():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    bad = [CutPlane((0, 0, 0.5 * LENGTH), (0, 0, 1)),
           CutPlane((0, 0, 0.5 * LENGTH), (0, 0, 1))]  # middle band empty
    with pytest.raises(LabelingError, match="empty"):
        segment_labels(mesh, bad)
    # bad cuts are bad input, so the CLI exits 2 on a loaded mesh too
    assert issubclass(LabelingError, ValidationError)


def test_u_bend_segments_are_contiguous():
    """Cut planes along a bent vessel produce four ordered arc bands."""
    mesh, bend_radius = make_u_bend()
    angles = (np.pi / 4, np.pi / 2, 3 * np.pi / 4)
    planes = [CutPlane((bend_radius * np.cos(t), 0, bend_radius * np.sin(t)),
                       (-np.sin(t), 0, np.cos(t))) for t in angles]
    labels = segment_labels(mesh, planes)
    theta = np.arctan2(mesh.vertices[:, 2],
                       np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
                       * np.sign(mesh.vertices[:, 0]))
    theta = np.where(theta < 0, theta + np.pi, theta)
    assert len(segment_names(4)) == 4
    previous_max = -1.0
    for seg in range(4):
        members = theta[labels == seg]
        assert members.size > 0, f"segment {seg} empty"
        assert members.min() >= previous_max - 0.2, \
            f"segment {seg} overlaps its predecessor"
        previous_max = members.max()


# =========================================================================
# VTK I/O
# =========================================================================

def test_save_load_round_trip_bit_identical(tmp_path):
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    first, second = tmp_path / "a.vtk", tmp_path / "b.vtk"
    save_mesh(mesh, first)
    reloaded = load_mesh(first)
    save_mesh(reloaded, second)
    assert first.read_bytes() == second.read_bytes(), \
        "save/load/save must be bit-identical"
    assert reloaded.metadata == mesh.metadata


def test_load_repairs_inverted_tets(tmp_path):
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    mesh.tets[3] = mesh.tets[3][[0, 1, 3, 2]]
    path = tmp_path / "inv.vtk"
    save_mesh(mesh, path)
    with pytest.warns(UserWarning, match="inverted"):
        reloaded = load_mesh(path)
    assert np.all(tet_volumes(reloaded) > 0)


def test_load_requires_boundary_labels(tmp_path):
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    path = tmp_path / "m.vtk"
    save_mesh(mesh, path)
    text = path.read_text()
    head, _, _ = text.partition("CELL_DATA")
    path.write_text(head)
    with pytest.raises(MeshError, match="boundary_label"):
        load_mesh(path)


def test_load_rejects_unsupported_cells(tmp_path):
    path = tmp_path / "bad.vtk"
    path.write_text("\n".join([
        "# vtk DataFile Version 3.0", "junk", "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        "POINTS 8 double",
        *(" ".join(map(str, divmod(i, 4))) + " 0" for i in range(8)),
        "CELLS 1 9", "8 0 1 2 3 4 5 6 7",
        "CELL_TYPES 1", "12",
        "CELL_DATA 1", "SCALARS boundary_label int 1",
        "LOOKUP_TABLE default", "0",
    ]))
    with pytest.raises(MeshError, match="unsupported cell types"):
        load_mesh(path)


def test_load_truncated_file(tmp_path):
    path = tmp_path / "trunc.vtk"
    path.write_text("# vtk DataFile Version 3.0\ntitle\nASCII\n"
                    "DATASET UNSTRUCTURED_GRID\nPOINTS 10 double\n1 2 3\n")
    with pytest.raises(MeshError, match="end of file"):
        load_mesh(path)


def test_load_file_ending_after_scalars_type(tmp_path):
    """A saved mesh cut right after ``SCALARS <name> <type>`` leaves no
    token for the optional component count."""
    path = tmp_path / "cut.vtk"
    save_mesh(generate_pipe_mesh(RADIUS, LENGTH, 0), path)
    text = path.read_text()
    header = "SCALARS boundary_label int"
    path.write_text(text[:text.index(header) + len(header)])
    with pytest.raises(MeshError, match="end of file"):
        load_mesh(path)


def saved_pipe_lines(path):
    """Save the resolution-0 pipe to ``path``: the mesh, the file's lines,
    and the index of the line after each section keyword's line."""
    mesh = generate_pipe_mesh(RADIUS, LENGTH, 0)
    save_mesh(mesh, path)
    lines = path.read_text().split("\n")
    after = {line.split()[0]: i + 1 for i, line in enumerate(lines)
             if line[:1].isupper()}
    return mesh, lines, after


# each case breaks one rule of the layout save_mesh writes
MALFORMED = ("title metadata", "non-numeric coordinate",
             "non-finite coordinate", "negative count",
             "type-10 cell with 3 nodes", "cell sizes against cell types",
             "first cell data", "truncated cells", "not text")


def malformed_pipe(path, case):
    """Save the pipe to ``path`` broken as ``case`` says; returns the
    message ``load_mesh`` gives for it."""
    mesh, lines, at = saved_pipe_lines(path)
    n_tets, n_cells = mesh.n_tets, mesh.n_tets + len(mesh.boundary_faces)
    row = at["POINTS"] + 5                      # a vertex: "x y z"
    if case == "title metadata":
        lines[1] = lines[1][:-1]                # the JSON loses its "}"
        message = "bad title metadata"
    elif case == "non-numeric coordinate":
        lines[row] = "x " + lines[row].split(None, 1)[1]
        message = "could not convert string to float: 'x'"
    elif case == "non-finite coordinate":
        lines[row] = "nan " + lines[row].split(None, 1)[1]
        message = "non-finite vertex coordinates"
    elif case == "negative count":
        lines[at["POINTS"] - 1] = "POINTS -3 double"
        message = "-3 out of bounds"
    elif case == "type-10 cell with 3 nodes":
        # the last tet and the first triangle trade rows, not types
        tri = at["CELLS"] + n_tets
        lines[tri - 1], lines[tri] = lines[tri], lines[tri - 1]
        message = f"cell {n_tets - 1} lists 3 nodes, but its type 10 has 4"
    elif case == "cell sizes against cell types":
        lines[at["CELL_TYPES"] + n_cells - 1] = "10"
        message = "CELLS block size mismatch"
    elif case == "first cell data":
        lines[at["CELL_DATA"]] = "SCALARS region int 1"
        message = "the first cell data is region, not boundary_label"
    elif case == "truncated cells":
        del lines[at["CELLS"] + 10:]
        message = "unexpected end of file"
    else:
        path.write_bytes(b"\xff" * 64)
        return "cannot read mesh file"
    path.write_text("\n".join(lines))
    return message


@pytest.mark.parametrize("case", MALFORMED)
def test_load_names_the_file_and_the_broken_rule(tmp_path, case):
    path = tmp_path / "bad.vtk"
    message = malformed_pipe(path, case)
    with pytest.raises(MeshError, match=re.escape(message)) as info:
        load_mesh(path)
    assert str(path) in str(info.value)


def test_load_takes_cells_in_any_order(tmp_path):
    # the tets keep their order, the triangles are shuffled, the two are
    # interleaved, and each cell's type and label move with it: the mesh
    # loads as saved, so saving it again gives the original bytes
    path = tmp_path / "pipe.vtk"
    mesh, lines, at = saved_pipe_lines(path)
    n_tets, n_cells = mesh.n_tets, mesh.n_tets + len(mesh.boundary_faces)
    rng = np.random.default_rng(7)
    triangle_slot = rng.permutation(n_cells) >= n_tets
    assert triangle_slot[:n_tets].any(), "no triangle before the last tet"
    source = np.empty(n_cells, dtype=np.int64)
    source[~triangle_slot] = np.arange(n_tets)
    source[triangle_slot] = n_tets + rng.permutation(n_cells - n_tets)
    for word in ("CELLS", "CELL_TYPES", "LOOKUP_TABLE"):
        block = lines[at[word]:at[word] + n_cells]
        lines[at[word]:at[word] + n_cells] = [block[i] for i in source]
    shuffled, again = tmp_path / "shuffled.vtk", tmp_path / "again.vtk"
    shuffled.write_text("\n".join(lines))
    save_mesh(load_mesh(shuffled), again)
    assert again.read_bytes() == path.read_bytes()
