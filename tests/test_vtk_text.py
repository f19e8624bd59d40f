"""The VTK writer's array formatter against Python's own ``%`` text.

Every number in a VTK file is written by ``mesh._format_rows``; these
tests require it to give exactly the text of ``row_format % row`` with
``%.17g`` for floats and ``%d`` for integers, and the files to keep
every byte of a writer that formats with ``%``.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hemoflow.mesh as mesh_module
from hemoflow.hemodynamics import export_fields_vtk
from hemoflow.mesh import (
    _FAST_HIGH,
    _FAST_LOW,
    _ROW_CHUNK,
    _format_rows,
    _write_rows,
    generate_box_mesh,
    generate_pipe_mesh,
    save_mesh,
)


def percent_text(rows, prefix=""):
    """The text of ``row_format % row`` for every row of a 2-D array."""
    conv = "%.17g" if rows.dtype.kind == "f" else "%d"
    row_format = prefix + " ".join([conv] * rows.shape[1]) + "\n"
    return (row_format * len(rows)) % tuple(rows.ravel().tolist())


def percent_write_rows(fh, rows, prefix=""):
    """The writer's rows as a ``%`` loop, a chunk at a time."""
    rows = np.asarray(rows)
    rows = rows.reshape(len(rows), -1)
    for start in range(0, len(rows), _ROW_CHUNK):
        fh.write(percent_text(rows[start:start + _ROW_CHUNK], prefix))


def assert_same_text(rows, prefix=""):
    got, want = _format_rows(rows, prefix), percent_text(rows, prefix)
    if got != want:
        lines = zip(got.splitlines(), want.splitlines(), rows.tolist())
        bad = next(((g, w, r) for g, w, r in lines if g != w), None)
        pytest.fail(f"text differs: got, want, row = {bad}")


def floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def ulp_neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# The window edges, each with its neighbours: inside the window 17 digits
# come from integer arithmetic, outside from `%`.
EDGES = ulp_neighbours(_FAST_LOW) + ulp_neighbours(_FAST_HIGH)


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
    assert_same_text(floats_from_bits(bits).reshape(-1, 1))


@settings(max_examples=300, deadline=None)
@example(values=EDGES)
@example(values=[-v for v in EDGES])
@given(values=st.lists(st.builds(lambda e, s: s * 10.0 ** e,
                                 st.floats(-11.5, 15.5),
                                 st.sampled_from([-1.0, 1.0])),
                       min_size=1, max_size=40))
def test_log_uniform_floats_match_percent(values):
    """Magnitudes log-uniform across the window and a little past it."""
    assert_same_text(np.array(values).reshape(-1, 1))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                       min_size=1, max_size=40))
def test_hypothesis_floats_match_percent(values):
    assert_same_text(np.array(values).reshape(-1, 1))


def test_powers_of_ten_and_their_neighbours_match_percent():
    """The largest double below a power of ten is where 17 digits could
    round up to the next power; none does, and the text must agree."""
    values = [v for n in range(-13, 18) for v in ulp_neighbours(10.0 ** n)]
    assert_same_text(np.array(values).reshape(-1, 1))


def test_half_way_ties_and_carries_match_percent():
    """Exact ties at the 17th digit round half to even; digits that end in
    9s carry into the ones before them."""
    rng = np.random.default_rng(5)
    odd = rng.integers(4 * 10 ** 15, 9 * 10 ** 15, 2000) | 1
    ties = np.concatenate([odd / 4.0, odd / 8.0, (odd // 10) / 2.0 ** 6])
    decimal = np.array([float(f"{m}99{tail}e{e}") for m, tail, e in zip(
        rng.integers(10 ** 14, 10 ** 15, 2000),
        rng.integers(5, 10, 2000), rng.integers(-26, 0, 2000))])
    short = np.round(rng.uniform(-1e4, 1e4, 2000), 3)
    for values in (ties, -ties, decimal, short):
        assert_same_text(values.reshape(-1, 1))


def test_many_random_floats_match_percent():
    """A large sample of bit patterns and of log-uniform magnitudes."""
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64 - 1, 60000, dtype=np.uint64,
                        endpoint=True)
    assert_same_text(bits.view(np.float64).reshape(-1, 3))
    scaled = 10.0 ** rng.uniform(-12, 16, 60000) * rng.choice([-1, 1], 60000)
    assert_same_text(scaled.reshape(-1, 3))
    assert_same_text(scaled.reshape(-1, 4))


# =========================================================================
# Integers and rows
# =========================================================================

@settings(max_examples=300, deadline=None)
@example(values=[-2 ** 63, 2 ** 63 - 1, 0, -1, 2 ** 32 - 1, 2 ** 32, -2 ** 32])
@given(values=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                       min_size=1, max_size=40))
def test_ints_match_percent(values):
    assert_same_text(np.array(values, dtype=np.int64).reshape(-1, 1))


@settings(max_examples=200, deadline=None)
@given(n_cols=st.sampled_from([1, 3, 4]), prefix=st.sampled_from(["", "4 "]),
       data=st.data())
def test_rows_match_percent(n_cols, prefix, data):
    n_rows = data.draw(st.integers(1, 12))
    n = n_rows * n_cols
    if data.draw(st.booleans()):
        values = np.array(data.draw(st.lists(
            st.floats(allow_nan=True, allow_infinity=True),
            min_size=n, max_size=n)))
    else:
        values = np.array(data.draw(st.lists(
            st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)),
            dtype=np.int64)
    assert_same_text(values.reshape(n_rows, n_cols), prefix)


@pytest.mark.parametrize("n_rows", [1, _ROW_CHUNK - 1, _ROW_CHUNK,
                                    _ROW_CHUNK + 1])
def test_write_rows_chunks_match_percent(n_rows):
    """Rows on both sides of a chunk boundary, for all five row formats."""
    rng = np.random.default_rng(n_rows)
    cases = [(rng.normal(scale=0.01, size=(n_rows, 3)), ""),
             (rng.normal(size=n_rows), ""),
             (rng.integers(0, 60000, (n_rows, 4)), "4 "),
             (rng.integers(0, 60000, (n_rows, 3)), "3 "),
             (rng.integers(-1, 3, n_rows), "")]
    for rows, prefix in cases:
        got, want = io.StringIO(), io.StringIO()
        _write_rows(got, rows, prefix)
        percent_write_rows(want, rows, prefix)
        assert got.getvalue() == want.getvalue()


# =========================================================================
# Files
# =========================================================================

def write_both(tmp_path, monkeypatch, write):
    """Bytes of ``write(path)`` with the array formatter and with a ``%``
    loop in its place."""
    write(tmp_path / "array.vtk")
    with monkeypatch.context() as patch:
        patch.setattr(mesh_module, "_write_rows", percent_write_rows)
        write(tmp_path / "percent.vtk")
    return ((tmp_path / "array.vtk").read_bytes(),
            (tmp_path / "percent.vtk").read_bytes())


MESHES = {
    "pipe0": lambda: generate_pipe_mesh(0.01, 0.1, 0),
    "pipe1": lambda: generate_pipe_mesh(0.0125, 0.2, 1),
    "pipe2": lambda: generate_pipe_mesh(0.01, 0.1, 2),
    "box": lambda: generate_box_mesh((0.02, 0.03, 0.05), (3, 4, 5),
                                     center=(0.001, -0.002, 0.0)),
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_saved_mesh_keeps_percent_bytes(tmp_path, monkeypatch, name):
    mesh = MESHES[name]()
    array, percent = write_both(tmp_path, monkeypatch,
                                lambda path: save_mesh(mesh, path))
    assert array == percent


@pytest.mark.parametrize("name", sorted(MESHES))
def test_exported_fields_keep_percent_bytes(tmp_path, monkeypatch, name):
    mesh = MESHES[name]()
    n = mesh.n_vertices
    rng = np.random.default_rng(n)
    special = np.array([0.0, -0.0, -1.5, 1e-300, -1e-300, 1e300, 7e-12, 1.0])
    scalars = rng.normal(size=n) * 10.0 ** rng.integers(-14, 16, n)
    scalars[:len(special)] = special[:n]
    wall_only = np.where(rng.random(n) < 0.2, rng.random(n), 0.0)
    vectors = rng.normal(scale=0.3, size=(n, 3))
    vectors[rng.random(n) < 0.5] = -0.0
    fields = {"velocity": vectors, "wss_mag": wall_only, "mixed": scalars,
              "osi": np.zeros(n), "mu_apparent": 0.0035 + wall_only}
    array, percent = write_both(
        tmp_path, monkeypatch,
        lambda path: export_fields_vtk(mesh, fields, path))
    assert array == percent
