"""The binary VTK writer against the legacy format and Python's ``%`` text.

Meshes and fields are written as legacy BINARY VTK. These tests decode
the files with numpy alone, as the legacy format describes them, and
require every value to keep every bit it was written with, and so to
equal the value the ``%.17g`` text of earlier versions held.
``write_ascii_vtk`` writes the same layout in ASCII with ``%``, byte for
byte the files earlier versions saved: those files must keep loading,
and the malformed-file cases of ``test_mesh`` are built from them.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemoflow.errors import ValidationError
from hemoflow.hemodynamics import export_fields_vtk
from hemoflow.mesh import (
    TetMesh,
    generate_box_mesh,
    generate_pipe_mesh,
    load_mesh,
    save_mesh,
)


def percent_text(rows, prefix=""):
    """The text of ``row_format % row`` for every row of a 2-D array."""
    conv = "%.17g" if rows.dtype.kind == "f" else "%d"
    row_format = prefix + " ".join([conv] * rows.shape[1]) + "\n"
    return (row_format * len(rows)) % tuple(rows.ravel().tolist())


def percent_write_rows(fh, rows, prefix=""):
    rows = np.asarray(rows)
    fh.write(percent_text(rows.reshape(len(rows), -1), prefix))


def write_ascii_vtk(path, mesh, point_data=None):
    """The layout ``save_mesh`` and ``export_fields_vtk`` write, in ASCII,
    every float as ``%.17g`` and every integer as ``%d`` text."""
    title = "hemoflow " + json.dumps(mesh.metadata, separators=(",", ":"),
                                     sort_keys=True)
    n_faces = len(mesh.boundary_faces)
    n_cells = mesh.n_tets + n_faces
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {mesh.n_vertices} double\n")
        percent_write_rows(fh, mesh.vertices)
        fh.write(f"CELLS {n_cells} {5 * mesh.n_tets + 4 * n_faces}\n")
        percent_write_rows(fh, mesh.tets, "4 ")
        percent_write_rows(fh, mesh.boundary_faces, "3 ")
        fh.write(f"CELL_TYPES {n_cells}\n")
        fh.write("10\n" * mesh.n_tets + "5\n" * n_faces)
        fh.write(f"CELL_DATA {n_cells}\nSCALARS boundary_label int 1\n"
                 "LOOKUP_TABLE default\n")
        fh.write("-1\n" * mesh.n_tets)
        percent_write_rows(fh, mesh.boundary_labels)
        if point_data is not None:
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, data in point_data.items():
                data = np.asarray(data, dtype=float)
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                         if data.ndim == 1 else f"VECTORS {name} double\n")
                percent_write_rows(fh, data)


def decode_binary_vtk(data):
    """A BINARY legacy VTK unstructured grid read with numpy alone, as
    the format describes it: the version, title and format lines, then
    each section's header lines and a block of its stated count of
    big-endian values, ``>f8`` for doubles and ``>i4`` for integers,
    followed by a newline. Returns the title and each block, by its
    keyword or, for a data array, its name, with the point data in file
    order."""
    pos = 0

    def line():
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end].decode("ascii"), end + 1
        return text

    def block(n, dtype):
        nonlocal pos
        end = pos + n * np.dtype(dtype).itemsize
        assert len(data) > end and data[end:end + 1] == b"\n", \
            "a block must be its count of values and a newline"
        values, pos = np.frombuffer(data[pos:end], dtype), end + 1
        return values

    assert line() == "# vtk DataFile Version 3.0"
    sections = {"title": line()}
    assert line() == "BINARY"
    assert line() == "DATASET UNSTRUCTURED_GRID"
    word, n_points, kind = line().split()
    assert (word, kind) == ("POINTS", "double")
    n_points = int(n_points)
    sections["POINTS"] = block(3 * n_points, ">f8").reshape(-1, 3)
    word, n_cells, size = line().split()
    assert word == "CELLS"
    sections["CELLS"] = block(int(size), ">i4")
    assert line() == f"CELL_TYPES {n_cells}"
    sections["CELL_TYPES"] = block(int(n_cells), ">i4")
    assert line() == f"CELL_DATA {n_cells}"
    assert line() == "SCALARS boundary_label int 1"
    assert line() == "LOOKUP_TABLE default"
    sections["boundary_label"] = block(int(n_cells), ">i4")
    if pos < len(data):
        assert line() == f"POINT_DATA {n_points}"
    while pos < len(data):
        kind, name, *rest = line().split()
        if kind == "SCALARS":
            assert rest == ["double", "1"]
            assert line() == "LOOKUP_TABLE default"
            sections[name] = block(n_points, ">f8")
        else:
            assert (kind, rest) == ("VECTORS", ["double"])
            sections[name] = block(3 * n_points, ">f8").reshape(-1, 3)
    return sections


def assert_holds(decoded, values):
    """The decoded doubles keep every bit of ``values``, so they hold
    every value the ``%.17g`` text of ``values`` reads back to (NaN for
    every NaN, whose payload the text drops)."""
    values = np.asarray(values, dtype=np.float64)
    assert decoded.shape == values.shape
    assert np.array_equal(decoded.view(">u8"), values.view(np.uint64))
    text = percent_text(values.reshape(len(values), -1)).split()
    held = np.array(text, dtype=np.float64).reshape(values.shape)
    nan = np.isnan(held)
    assert np.array_equal(np.isnan(decoded), nan)
    assert np.array_equal(decoded[~nan].view(">u8"),
                          held[~nan].view(np.uint64))


def written_and_decoded(write):
    """The sections of the file ``write(path)`` writes, decoded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "written.vtk"
        write(path)
        return decode_binary_vtk(path.read_bytes())


def mesh_of(sections):
    """The mesh and point data (None if the file has none) of decoded
    file sections."""
    n_tets = int(np.count_nonzero(sections["CELL_TYPES"] == 10))
    cells = sections["CELLS"]
    mesh = TetMesh(sections["POINTS"],
                   cells[:5 * n_tets].reshape(-1, 5)[:, 1:],
                   cells[5 * n_tets:].reshape(-1, 4)[:, 1:],
                   sections["boundary_label"][n_tets:],
                   json.loads(sections["title"].removeprefix("hemoflow ")))
    names = list(sections)[5:]
    return mesh, ({name: sections[name] for name in names} if names
                  else None)


def assert_keeps_percent_bytes(tmp_path, data, mesh, point_data=None):
    """The binary file ``data``, decoded and written as ``%`` text, gives
    the bytes of ``mesh`` and ``point_data`` written as ``%`` text."""
    write_ascii_vtk(tmp_path / "want.txt", mesh, point_data)
    write_ascii_vtk(tmp_path / "got.txt", *mesh_of(decode_binary_vtk(data)))
    assert (tmp_path / "got.txt").read_bytes() == \
        (tmp_path / "want.txt").read_bytes()


def assert_exports_bit_for_bit(values):
    """``values`` exported as the coordinates of a mesh without cells
    and as a scalar field keep every bit of every value."""
    values = np.asarray(values, dtype=np.float64)
    vertices = np.column_stack([values, values[::-1], -values])
    mesh = TetMesh(vertices, np.empty((0, 4)), np.empty((0, 3)),
                   np.empty(0))
    decoded = written_and_decoded(
        lambda path: export_fields_vtk(mesh, {"values": values}, path))
    assert_holds(decoded["POINTS"], vertices)
    assert_holds(decoded["values"], values)


def floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def ulp_neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


EDGES = ulp_neighbours(1e-11) + ulp_neighbours(2.0 ** 50)


# =========================================================================
# Floats
# =========================================================================

@settings(max_examples=300, deadline=None)
@example(bits=[0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000000,
               0xFFF0000000000000, 0, 1 << 63, 1, 0x000FFFFFFFFFFFFF,
               0x8000000000000001, 0x7FEFFFFFFFFFFFFF])
@example(bits=np.array([1e308, -1e308, 1e-308, -1e-308, 5e-324,
                        2.2250738585072014e-308]).view(np.uint64).tolist())
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_float_bit_patterns_match_percent(bits):
    """Any 64-bit pattern: nan payloads, infinities, signed zeros,
    subnormals and the extremes."""
    assert_exports_bit_for_bit(floats_from_bits(bits))


@settings(max_examples=300, deadline=None)
@example(values=EDGES)
@example(values=[-v for v in EDGES])
@given(values=st.lists(st.builds(lambda e, s: s * 10.0 ** e,
                                 st.floats(-11.5, 15.5),
                                 st.sampled_from([-1.0, 1.0])),
                       min_size=1, max_size=40))
def test_log_uniform_floats_match_percent(values):
    """Magnitudes log-uniform over the scales of the exported fields."""
    assert_exports_bit_for_bit(values)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                       min_size=1, max_size=40))
def test_hypothesis_floats_match_percent(values):
    assert_exports_bit_for_bit(values)


def test_powers_of_ten_and_their_neighbours_match_percent():
    values = [v for n in range(-13, 18) for v in ulp_neighbours(10.0 ** n)]
    assert_exports_bit_for_bit(values)


def test_half_way_ties_and_carries_match_percent():
    """Values whose 17th digit is an exact tie, digits that end in 9s and
    short decimals."""
    rng = np.random.default_rng(5)
    odd = rng.integers(4 * 10 ** 15, 9 * 10 ** 15, 2000) | 1
    ties = np.concatenate([odd / 4.0, odd / 8.0, (odd // 10) / 2.0 ** 6])
    decimal = np.array([float(f"{m}99{tail}e{e}") for m, tail, e in zip(
        rng.integers(10 ** 14, 10 ** 15, 2000),
        rng.integers(5, 10, 2000), rng.integers(-26, 0, 2000))])
    short = np.round(rng.uniform(-1e4, 1e4, 2000), 3)
    for values in (ties, -ties, decimal, short):
        assert_exports_bit_for_bit(values)


def test_many_random_floats_match_percent():
    """A large sample of bit patterns and of log-uniform magnitudes."""
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64 - 1, 60000, dtype=np.uint64,
                        endpoint=True)
    assert_exports_bit_for_bit(bits.view(np.float64))
    scaled = 10.0 ** rng.uniform(-12, 16, 60000) * rng.choice([-1, 1], 60000)
    assert_exports_bit_for_bit(scaled)


# =========================================================================
# Files
# =========================================================================

MESHES = {
    "pipe0": lambda: generate_pipe_mesh(0.01, 0.1, 0),
    "pipe1": lambda: generate_pipe_mesh(0.0125, 0.2, 1),
    "pipe2": lambda: generate_pipe_mesh(0.01, 0.1, 2),
    "box": lambda: generate_box_mesh((0.02, 0.03, 0.05), (3, 4, 5),
                                     center=(0.001, -0.002, 0.0)),
}


def assert_mesh_sections(sections, mesh):
    """The decoded mesh sections of a file ``mesh`` was written to."""
    n_tets, n_faces = mesh.n_tets, len(mesh.boundary_faces)
    assert sections["title"] == "hemoflow " + json.dumps(
        mesh.metadata, separators=(",", ":"), sort_keys=True)
    assert_holds(sections["POINTS"], mesh.vertices)
    cells = np.concatenate([
        np.column_stack([np.full(n_tets, 4), mesh.tets]).ravel(),
        np.column_stack([np.full(n_faces, 3), mesh.boundary_faces]).ravel()])
    assert np.array_equal(sections["CELLS"], cells)
    assert np.array_equal(sections["CELL_TYPES"],
                          [10] * n_tets + [5] * n_faces)
    assert np.array_equal(sections["boundary_label"],
                          np.concatenate([np.full(n_tets, -1),
                                          mesh.boundary_labels]))


@pytest.mark.parametrize("name", sorted(MESHES))
def test_saved_mesh_keeps_percent_bytes(tmp_path, name):
    """The saved mesh decodes with numpy alone, and written as ``%`` text
    gives the bytes of the mesh written so."""
    mesh = MESHES[name]()
    save_mesh(mesh, tmp_path / "mesh.vtk")
    data = (tmp_path / "mesh.vtk").read_bytes()
    sections = decode_binary_vtk(data)
    assert list(sections) == ["title", "POINTS", "CELLS", "CELL_TYPES",
                              "boundary_label"]
    assert_mesh_sections(sections, mesh)
    assert_keeps_percent_bytes(tmp_path, data, mesh)


def special_fields(mesh):
    """Scalars and vectors over many scales, with signed zeros, extremes
    and fields that are zero off the wall."""
    n = mesh.n_vertices
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, -1.5, 1e-300, -1e-300, 1e300, 7e-12, 1.0])
    scalars = rng.normal(size=n) * 10.0 ** rng.integers(-14, 16, n)
    scalars[:len(special)] = special[:n]
    wall_only = np.where(rng.random(n) < 0.2, rng.random(n), 0.0)
    vectors = rng.normal(scale=0.3, size=(n, 3))
    vectors[rng.random(n) < 0.5] = -0.0
    return {"velocity": vectors, "wss_mag": wall_only, "mixed": scalars,
            "osi": np.zeros(n), "mu_apparent": 0.0035 + wall_only}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_exported_fields_keep_percent_bytes(tmp_path, name):
    """The field file is the mesh file, then the fields in order, each
    holding every value the ``%`` text of earlier versions held; written
    as ``%`` text it gives the bytes of the mesh and fields written so."""
    mesh = MESHES[name]()
    fields = special_fields(mesh)
    save_mesh(mesh, tmp_path / "mesh.vtk")
    export_fields_vtk(mesh, fields, tmp_path / "fields.vtk")
    data = (tmp_path / "fields.vtk").read_bytes()
    assert data.startswith((tmp_path / "mesh.vtk").read_bytes()
                           + f"POINT_DATA {mesh.n_vertices}\n".encode())
    sections = decode_binary_vtk(data)
    assert_mesh_sections(sections, mesh)
    assert list(sections)[5:] == list(fields)
    for field_name, values in fields.items():
        assert_holds(sections[field_name], values)
    assert_keeps_percent_bytes(tmp_path, data, mesh, fields)


@settings(max_examples=200, deadline=None)
@given(n_cols=st.sampled_from([1, 3, 4]), prefix=st.sampled_from(["", "4 "]),
       data=st.data())
def test_rows_match_percent(n_cols, prefix, data):
    """Rows of floats exported as one scalar field per column, and rows
    of int32 integers saved as boundary labels, decode to rows with the
    ``%`` text of the rows written."""
    n_rows = data.draw(st.integers(1, 12))
    n = n_rows * n_cols
    if data.draw(st.booleans()):
        rows = np.array(data.draw(st.lists(
            st.floats(allow_nan=True, allow_infinity=True),
            min_size=n, max_size=n))).reshape(n_rows, n_cols)
        mesh = TetMesh(np.zeros((n_rows, 3)), np.empty((0, 4)),
                       np.empty((0, 3)), np.empty(0))
        fields = {f"column{j}": rows[:, j] for j in range(n_cols)}
        sections = written_and_decoded(
            lambda path: export_fields_vtk(mesh, fields, path))
        got = np.column_stack([sections[name] for name in fields])
    else:
        rows = np.array(data.draw(st.lists(
            st.integers(-2 ** 31, 2 ** 31 - 1), min_size=n, max_size=n)),
            dtype=np.int64).reshape(n_rows, n_cols)
        mesh = TetMesh(np.zeros((3, 3)), np.empty((0, 4)),
                       np.tile([0, 1, 2], (n, 1)), rows.ravel())
        sections = written_and_decoded(lambda path: save_mesh(mesh, path))
        got = sections["boundary_label"].reshape(n_rows, n_cols)
    assert percent_text(got, prefix) == percent_text(rows, prefix)


@pytest.mark.parametrize("n_rows", [1, 8191, 8192, 8193])
def test_write_rows_chunks_match_percent(tmp_path, n_rows):
    """Blocks of one row and of about 8192 rows, where the text writer of
    earlier versions split its output, in all five row formats (points,
    scalars, tets, triangles, labels): the file decoded and written as
    ``%`` text gives the bytes of the rows written so."""
    rng = np.random.default_rng(n_rows)
    mesh = TetMesh(rng.normal(scale=0.01, size=(n_rows, 3)),
                   rng.integers(0, n_rows, (n_rows, 4)),
                   rng.integers(0, n_rows, (n_rows, 3)),
                   rng.integers(-1, 3, n_rows))
    fields = {"scalar": rng.normal(size=n_rows)}
    export_fields_vtk(mesh, fields, tmp_path / "rows.vtk")
    assert_keeps_percent_bytes(tmp_path, (tmp_path / "rows.vtk").read_bytes(),
                               mesh, fields)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_percent_files_load_and_save_as_binary(tmp_path, name):
    """A mesh and a field file in ASCII, as earlier versions saved them,
    load as the mesh, and saving that gives the binary file's bytes."""
    mesh = MESHES[name]()
    save_mesh(mesh, tmp_path / "binary.vtk")
    write_ascii_vtk(tmp_path / "mesh.vtk", mesh)
    write_ascii_vtk(tmp_path / "fields.vtk", mesh, special_fields(mesh))
    for ascii_file in ("mesh.vtk", "fields.vtk"):
        loaded = load_mesh(tmp_path / ascii_file)
        for attribute in ("vertices", "tets", "boundary_faces",
                          "boundary_labels"):
            assert np.array_equal(getattr(loaded, attribute),
                                  getattr(mesh, attribute)), attribute
        assert loaded.metadata == mesh.metadata
        save_mesh(loaded, tmp_path / "again.vtk")
        assert (tmp_path / "again.vtk").read_bytes() == \
            (tmp_path / "binary.vtk").read_bytes()


# =========================================================================
# Integers
# =========================================================================

BOX = generate_box_mesh((0.01, 0.01, 0.01), (1, 2, 1))


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(st.integers(0, 2 ** 31 - 1), min_size=len(
    BOX.boundary_faces), max_size=len(BOX.boundary_faces)))
def test_boundary_labels_round_trip_as_int32(labels):
    mesh = TetMesh(BOX.vertices, BOX.tets, BOX.boundary_faces, labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.vtk"
        save_mesh(mesh, path)
        sections = decode_binary_vtk(path.read_bytes())
        assert np.array_equal(load_mesh(path).boundary_labels, labels)
    assert np.array_equal(sections["boundary_label"][BOX.n_tets:], labels)


@settings(max_examples=300, deadline=None)
@example(values=[-2 ** 63, 2 ** 63 - 1, 0, -1, 2 ** 32 - 1, 2 ** 32, -2 ** 32])
@example(values=[-2 ** 31, 2 ** 31 - 1, 0, -1])
@given(values=st.one_of(
    st.lists(st.integers(-2 ** 31, 2 ** 31 - 1), min_size=1, max_size=40),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40)))
def test_ints_match_percent(values):
    """Boundary labels over the int64 range: labels that int32 holds are
    saved and decode to their ``%d`` text; any other is refused before
    the file opens."""
    labels = np.resize(np.array(values, dtype=np.int64),
                       len(BOX.boundary_faces))
    mesh = TetMesh(BOX.vertices, BOX.tets, BOX.boundary_faces, labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.vtk"
        if np.all((labels >= -2 ** 31) & (labels < 2 ** 31)):
            save_mesh(mesh, path)
            got = decode_binary_vtk(path.read_bytes())["boundary_label"]
            assert percent_text(got[BOX.n_tets:].reshape(-1, 1)) == \
                percent_text(labels.reshape(-1, 1))
        else:
            with pytest.raises(ValidationError, match="32-bit"):
                save_mesh(mesh, path)
            assert not path.exists()


@pytest.mark.parametrize("label", [2 ** 31, -2 ** 31 - 1])
def test_labels_beyond_int32_are_refused_before_writing(tmp_path, label):
    labels = np.zeros(len(BOX.boundary_faces), dtype=np.int64)
    labels[-1] = label
    mesh = TetMesh(BOX.vertices, BOX.tets, BOX.boundary_faces, labels)
    with pytest.raises(ValidationError, match="32-bit"):
        save_mesh(mesh, tmp_path / "labels.vtk")
    assert not (tmp_path / "labels.vtk").exists()
