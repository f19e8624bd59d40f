"""Tests for sequence timing, signal synthesis, reconstruction, decoding."""

import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hemoflow import mri
from hemoflow.errors import SequenceError, ValidationError
from hemoflow.flowfields import VelocityField
from hemoflow.mesh import (TetMesh, generate_box_mesh, generate_pipe_mesh,
                           load_mesh, pipe_layers, save_mesh, tet_volumes)
from hemoflow.mri import (_BLOCK, _TET_RULES, ENCODE_AXES,
                          ImageVolume, KSpaceData, SequenceParams,
                          _quadrature, _ramp, _sample_factors, _spacing,
                          add_noise, load_images, load_kspace,
                          phase_to_velocity, reconstruct, save_images,
                          save_kspace, sequence_timings, synthesize_frame,
                          synthesize_signal)
from hemoflow.pipeline import fit_models, load_config, stage_flow, stage_mesh

PROTOCOL_DEFAULTS = SequenceParams()

# small settings that keep synthesis fast: an 8 mm cube in a 16 mm FOV
SMALL = SequenceParams(matrix=(8, 8, 8), voxel=(0.002, 0.002, 0.002),
                       adc_bandwidth=32e3)


def small_box(divisions=(2, 2, 2)):
    return generate_box_mesh(size=(0.008, 0.008, 0.008), divisions=divisions)


def uniform_field(mesh, u):
    values = np.tile(np.asarray(u, dtype=float), (1, mesh.n_vertices, 1))
    return VelocityField(times=np.array([0.0]), values=values)


def decode(mesh, field, params, **kw):
    k = synthesize_frame(mesh, np.ones(mesh.n_vertices), field, params, **kw)
    return phase_to_velocity(reconstruct(k))


# =========================================================================
# Sequence timings
# =========================================================================

def test_default_parameters_echo_time():
    t = sequence_timings(PROTOCOL_DEFAULTS)
    assert abs(t.echo_time - 1.66e-3) < 0.05e-3, \
        f"TE {t.echo_time * 1e3:.3f} ms outside 1.66 +/- 0.05 ms"
    # the constituent durations all sit on the 10 us gradient raster
    # except the readout window, which follows the ADC clock
    assert t.durations["bipolar"] == pytest.approx(760e-6)
    assert t.durations["encode"] == pytest.approx(380e-6)
    assert t.durations["readout_ramp"] == pytest.approx(70e-6)
    assert t.durations["readout_window"] == pytest.approx(112 / 128e3)


def test_sample_times_are_echo_centered():
    t = sequence_timings(PROTOCOL_DEFAULTS)
    n = PROTOCOL_DEFAULTS.acquired_readout
    assert t.sample_times.shape == (n,)
    spacing = np.diff(t.sample_times)
    assert np.allclose(spacing, t.dwell, rtol=0, atol=1e-15), \
        "samples must be spaced by exactly one ADC dwell"
    assert t.sample_times[n // 2] == pytest.approx(t.echo_time), \
        "the k-space center sample defines the echo"
    assert t.sample_times.min() >= t.echo_time - 0.5 * n * t.dwell - 1e-12


def test_doubling_bandwidth_halves_dwell():
    base = sequence_timings(PROTOCOL_DEFAULTS)
    fast = sequence_timings(SequenceParams(adc_bandwidth=256e3))
    assert fast.dwell == pytest.approx(base.dwell / 2)
    assert fast.echo_time < base.echo_time, \
        "a shorter readout window must shorten the echo"


def test_smaller_venc_strictly_lengthens_echo():
    echo_times = [sequence_timings(SequenceParams(venc=v)).echo_time
                  for v in (2.5, 1.25, 0.625, 0.3125)]
    assert np.all(np.diff(echo_times) > 0), \
        f"TE must grow strictly as VENC shrinks, got {echo_times}"


def test_infeasible_readout_gradient():
    with pytest.raises(SequenceError):
        sequence_timings(SequenceParams(max_gradient=1e-3))
    # widening the voxel brings the gradient back under the limit
    sequence_timings(SequenceParams(max_gradient=1e-3,
                                    voxel=(0.03, 0.002, 0.002)))


def test_parameter_validation():
    with pytest.raises(ValidationError):
        SequenceParams(venc=0.0)
    with pytest.raises(ValidationError):
        SequenceParams(matrix=(56, 30))
    with pytest.raises(ValidationError):
        SequenceParams(voxel=(0.002, -0.002, 0.002))
    # counts are integers, numpy's included; a whole float or a bool is not
    # one, and a fractional oversampling would make a fractional readout
    for matrix in ((56.0, 30, 113), (56, True, 113)):
        with pytest.raises(ValidationError, match="matrix"):
            SequenceParams(matrix=matrix)
    for oversampling in (1.5, 2.0, True):
        with pytest.raises(ValidationError, match="oversampling"):
            SequenceParams(oversampling=oversampling)
    counts = SequenceParams(matrix=tuple(np.array([56, 30, 113])),
                            oversampling=np.int32(2))
    assert counts.acquired_readout == 112
    # geometry is finite: NaN is not a positive voxel size
    for voxel in ((np.nan, 0.002, 0.002), (0.002, np.inf, 0.002)):
        with pytest.raises(ValidationError, match="voxel"):
            SequenceParams(voxel=voxel)
    for center in ((0.0, 0.0, np.inf), (np.nan, 0.0, 0.0)):
        with pytest.raises(ValidationError, match="fov_center"):
            SequenceParams(fov_center=center)


# =========================================================================
# Quadrature
# =========================================================================

def simplex_like_integral(mesh, f):
    """Dense midpoint oracle over the box mesh for smooth integrands."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    axes = [np.linspace(a, b, 201)[:-1] + (b - a) / 400
            for a, b in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    cell = np.prod((hi - lo) / 200)
    return f(*grid).sum() * cell


def test_quadrature_integrates_polynomials():
    mesh = small_box()
    zero = np.zeros((mesh.n_vertices, 3))
    for rule, poly, degree_note in (
            (4, lambda x, y, z: 1.0 + 2 * x - y + 3 * x * y + z * z, "deg 2"),
            (11, lambda x, y, z: x * x * y * y + z ** 4 - x * y * z, "deg 4"),
    ):
        pos, wm, _ = _quadrature(mesh.vertices, mesh.tets,
                                 np.ones(mesh.n_vertices), zero,
                                 _TET_RULES[rule])
        total = (wm * poly(pos[:, 0], pos[:, 1], pos[:, 2])).sum()
        exact = simplex_like_integral(mesh, poly)
        assert total == pytest.approx(exact, rel=1e-4), \
            f"rule {rule} must integrate {degree_note} polynomials"
    assert wm.sum() == pytest.approx(tet_volumes(mesh).sum(), rel=1e-12)
    with pytest.raises(ValidationError, match=r"quadrature 7.*\[4, 11\]"):
        synthesize_frame(mesh, np.ones(mesh.n_vertices),
                         uniform_field(mesh, (0.0, 0.0, 0.0)), SMALL,
                         quadrature=7)


# =========================================================================
# Synthesis
# =========================================================================

def test_dc_sample_is_object_integral():
    mesh = small_box()
    field = uniform_field(mesh, (0.0, 0.0, 0.0))
    k = synthesize_signal(mesh, np.full(mesh.n_vertices, 2.0), field, SMALL,
                          encode="ref")
    t = sequence_timings(SMALL)
    n = SMALL.acquired_readout
    dc = k.signals["ref"][n // 2, SMALL.matrix[1] // 2, SMALL.matrix[2] // 2]
    expected = 2.0 * 0.008 ** 3 * np.exp(-t.echo_time / SMALL.t2_star)
    assert abs(dc - expected) / abs(expected) < 1e-3, \
        "k = 0 must integrate M0 over the object with echo-time decay"
    assert abs(dc.imag) < 1e-12 * abs(dc), "centered object gives a real DC"


def test_synthesize_validation():
    mesh = small_box()
    field = uniform_field(mesh, (0.0, 0.0, 0.0))
    ones = np.ones(mesh.n_vertices)
    with pytest.raises(ValidationError):
        synthesize_signal(mesh, ones, field, SMALL, encode="t")
    with pytest.raises(ValidationError):
        synthesize_signal(mesh, ones, field, SMALL, frame=1)
    with pytest.raises(ValidationError):
        synthesize_signal(mesh, -ones, field, SMALL)
    with pytest.raises(ValidationError):
        synthesize_signal(mesh, ones[:-1], field, SMALL)


def test_synthesize_rejects_non_finite_m0():
    mesh = small_box()
    field = uniform_field(mesh, (0.0, 0.0, 0.0))
    for bad in (np.nan, np.inf):
        m0 = np.ones(mesh.n_vertices)
        m0[3] = bad
        with pytest.raises(ValidationError, match="m0"):
            synthesize_frame(mesh, m0, field, SMALL)


# =========================================================================
# Synthesis against the direct sum
# =========================================================================

def direct_sum(mesh, m0, field, params, encode, quadrature=4):
    """One encode's grid from the imaging equation, one sample at a time,
    with one exponential per quadrature point and k-space coordinate."""
    timings = sequence_timings(params)
    pos, wm, uq = _quadrature(mesh.vertices, mesh.tets,
                              np.asarray(m0, dtype=float), field.values[0],
                              _TET_RULES[quadrature])
    k_ro, k_pe, k_pz = params.k_axes()
    amp = wm.astype(complex)
    if encode != "ref":
        amp = amp * np.exp(-1j * np.pi * uq[:, "xyz".index(encode)]
                           / params.venc)
    grid = np.empty((k_ro.size, k_pe.size, k_pz.size), dtype=complex)
    for i, t in enumerate(timings.sample_times):
        drifted = pos + uq * t
        a = amp * np.exp(-t / params.t2_star
                         - 2j * np.pi * k_ro[i] * drifted[:, 0])
        ey = np.exp(-2j * np.pi * np.outer(drifted[:, 1], k_pe))
        ez = np.exp(-2j * np.pi * np.outer(drifted[:, 2], k_pz))
        grid[i] = (ey * a[:, None]).T @ ez
    return grid


def relative_l2(grid, reference):
    return np.linalg.norm(grid - reference) / np.linalg.norm(reference)


def assert_matches_direct_sum(mesh, m0, field, params, quadrature=4):
    k = synthesize_frame(mesh, m0, field, params, quadrature=quadrature)
    for encode in ENCODE_AXES:
        err = relative_l2(k.signals[encode],
                          direct_sum(mesh, m0, field, params, encode,
                                     quadrature))
        assert err <= 1e-10, \
            f"encode {encode}: {err:.2e} relative L2 from the direct sum"


def test_frame_matches_direct_sum_on_box():
    mesh = small_box()
    assert_matches_direct_sum(mesh, np.linspace(0.5, 1.5, mesh.n_vertices),
                              uniform_field(mesh, (0.6, -0.4, 0.9)), SMALL)


@pytest.mark.parametrize("quadrature", [4, 11])
def test_frame_matches_direct_sum_over_several_blocks(quadrature):
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=1)
    assert pipe.n_tets == 6720
    per_block = _BLOCK // quadrature
    assert pipe.n_tets > per_block and pipe.n_tets % per_block, \
        "the pipe must span several tet blocks, the last one partial"
    x, y, _ = pipe.vertices.T
    r2 = (x * x + y * y) / 0.01 ** 2
    velocity = np.stack([0.3 * x / 0.01, -0.2 * y / 0.01,
                         0.7 * (1.0 - r2)], axis=1)
    field = VelocityField(times=np.array([0.0]), values=velocity[None])
    params = SequenceParams(venc=0.8, matrix=(4, 6, 10),
                            voxel=(0.004, 0.004, 0.011), adc_bandwidth=32e3,
                            fov_center=(0.0, 0.0, 0.05))
    assert_matches_direct_sum(pipe, 1.0 + 0.5 * r2, field, params,
                              quadrature)


@pytest.mark.parametrize("n_pz", [2, 3, 4, 5])
@pytest.mark.parametrize("step", ["table", "chebyshev"])
def test_fewest_partitions_match_direct_sum(n_pz, step):
    # the partition table folds +m onto -m about k = 0: with 2 partitions
    # m = -1 has no +1 partner, with 3 both sides hold one partition. The
    # Chebyshev step maps its moments onto as few partitions as it is given
    params = SequenceParams(matrix=(8, 8, n_pz), voxel=(0.002, 0.002, 0.004),
                            adc_bandwidth=32e3)
    mesh = small_box()
    m0, field = np.linspace(0.5, 1.5, mesh.n_vertices), box_swirl(mesh, 2.0)
    k = synthesize_through(step, mesh, m0, field, params)
    for encode in ENCODE_AXES:
        err = relative_l2(k.signals[encode],
                          direct_sum(mesh, m0, field, params, encode))
        assert err <= 1e-10, \
            f"{step}, encode {encode}: {err:.2e} from the direct sum"


@pytest.mark.parametrize("step", ["table", "chebyshev"])
def test_flat_tets_synthesize_to_zero(step):
    # tets flattened onto z = 0 and moving in plane weigh nothing and span
    # no z, so the Chebyshev step has no range to scale x by
    box = small_box()
    flat = TetMesh(box.vertices * (1.0, 1.0, 0.0), box.tets,
                   box.boundary_faces, box.boundary_labels)
    k = synthesize_through(step, flat, np.ones(flat.n_vertices),
                           uniform_field(flat, (0.3, -0.2, 0.0)), SMALL)
    for encode in ENCODE_AXES:
        assert not np.any(k.signals[encode]), f"{step}, encode {encode}"


def test_odd_partitions_over_several_blocks_match_direct_sum():
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=1)
    assert pipe.n_tets * 4 > 2 * _BLOCK
    x, y, _ = pipe.vertices.T
    r2 = (x * x + y * y) / 0.01 ** 2
    velocity = np.stack([0.2 * y / 0.01, 0.3 * x / 0.01, 0.9 * (1.0 - r2)],
                        axis=1)
    field = VelocityField(times=np.array([0.0]), values=velocity[None])
    params = SequenceParams(venc=1.0, matrix=(4, 5, 9),
                            voxel=(0.004, 0.004, 0.012), adc_bandwidth=32e3,
                            fov_center=(0.0, 0.0, 0.05))
    assert params.matrix[2] % 2
    assert_matches_direct_sum(pipe, 1.0 + 0.5 * r2, field, params)


@pytest.mark.parametrize("block, quadrature, divisions", [
    # 186 tets of the 11-point rule per block: 288 tets end on a partial one
    (_BLOCK, 11, (4, 4, 3)),
    # a block that holds fewer points than one tet has takes one whole tet
    (8, 11, (2, 2, 2)),
    (3, 4, (2, 2, 2)),
])
def test_block_edges_match_direct_sum(monkeypatch, block, quadrature,
                                      divisions):
    monkeypatch.setattr("hemoflow.mri._BLOCK", block)
    mesh = small_box(divisions)
    assert block < quadrature or mesh.n_tets % (block // quadrature)
    assert_matches_direct_sum(mesh, np.linspace(0.5, 1.5, mesh.n_vertices),
                              box_swirl(mesh, 2.0), SMALL, quadrature)


def test_synthesis_memory_does_not_grow_with_the_mesh():
    # the paper-scale slab's sequence (2 readout samples, 30 x 113 plane)
    # on the 6,720- and 57,600-tet pipes: points are made one block of
    # tets at a time, so the traced peak is the block tables' on both.
    # Whole-mesh point arrays would add about 14 MB here. A uniform M0
    # repeats from layer to layer, so synthesis takes the first layer; one
    # that grows along z takes the whole mesh
    params = SequenceParams(matrix=(2, 30, 113), voxel=(0.056, 0.002, 0.002),
                            oversampling=1, fov_center=(0.0, 0.0, 0.05))
    peaks = {"layer": [], "whole mesh": []}
    for resolution in (1, 2):
        pipe = generate_pipe_mesh(0.01, 0.1, resolution=resolution)
        field = uniform_field(pipe, (0.1, -0.2, 0.7))
        for path, m0 in zip(peaks, (np.ones(pipe.n_vertices),
                                    1.0 + pipe.vertices[:, 2])):
            tracemalloc.start()
            try:
                synthesize_frame(pipe, m0, field, params)
                peaks[path].append(tracemalloc.get_traced_memory()[1]
                                   / 2 ** 20)
            finally:
                tracemalloc.stop()
    for path, (low, high) in peaks.items():
        assert high - low < 1.0, \
            f"{path}: traced peak grew from {low:.1f} to {high:.1f} MB"


def test_single_encode_matches_its_frame_grid():
    mesh = small_box()
    m0 = np.linspace(0.5, 1.5, mesh.n_vertices)
    field = uniform_field(mesh, (0.6, -0.4, 0.9))
    frame = synthesize_frame(mesh, m0, field, SMALL)
    for encode in ENCODE_AXES:
        single = synthesize_signal(mesh, m0, field, SMALL, encode=encode)
        assert list(single.signals) == [encode]
        assert np.array_equal(single.signals[encode], frame.signals[encode])


def box_swirl(mesh, scale):
    """A field of speed about ``scale`` that varies over the box, so every
    quadrature point carries its own drift and recurrence steps."""
    x, y, z = (mesh.vertices / 0.008).T
    return VelocityField(times=np.array([0.0]), values=scale * np.stack(
        [1.0 - 0.3 * y + 0.2 * z, -0.9 + 0.4 * x * z, 1.1 - 0.25 * x],
        axis=1)[None])


def test_long_readout_matches_direct_sum():
    # 128 readout samples, spins near 2 m/s and a short T2*: the
    # quadratic readout phase and the decay are carried furthest by
    # their sample-to-sample recurrences
    params = SequenceParams(venc=2.5, matrix=(64, 4, 6), oversampling=2,
                            t2_star=5e-3)
    assert params.acquired_readout >= 128
    mesh = small_box((3, 3, 3))
    assert_matches_direct_sum(mesh, np.linspace(0.5, 1.5, mesh.n_vertices),
                              box_swirl(mesh, 2.0), params)


def test_two_sample_readout_matches_direct_sum():
    # the slab's readout: one step in time and no quadratic term
    params = SequenceParams(venc=2.5, matrix=(2, 6, 8),
                            voxel=(0.056, 0.002, 0.002), oversampling=1,
                            t2_star=5e-3)
    assert params.acquired_readout == 2
    mesh = small_box()
    assert_matches_direct_sum(mesh, np.linspace(0.5, 1.5, mesh.n_vertices),
                              box_swirl(mesh, 2.0), params)


def test_exponential_count_does_not_grow_with_readout(monkeypatch):
    mesh = small_box()
    field = box_swirl(mesh, 1.0)
    exp = np.exp
    calls = []

    def counting_exp(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)

    counts = []
    for n_ro in (4, 32):
        params = SequenceParams(matrix=(n_ro, 6, 8),
                                voxel=(0.008, 0.002, 0.002),
                                adc_bandwidth=32e3, oversampling=2)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "exp", counting_exp)
            synthesize_frame(mesh, np.ones(mesh.n_vertices), field, params)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1], \
        f"{counts[0]} exponentials for 8 samples, {counts[1]} for 64"


# =========================================================================
# Chebyshev partition step against the direct sum
# =========================================================================

@pytest.fixture
def paths_taken(monkeypatch):
    """Names of the partition steps the syntheses of a test construct."""
    taken = []

    def counting(cls):
        class Counting(cls):
            def __init__(self, *args):
                taken.append(cls.__name__)
                super().__init__(*args)
        return Counting

    for cls in (mri._FoldedTable, mri._ChebyshevExpansion):
        monkeypatch.setattr(mri, cls.__name__, counting(cls))
    return taken


@pytest.fixture
def chebyshev_products(monkeypatch):
    """The ``np.matmul`` calls of the Chebyshev step: per readout sample of
    each block, the sample's index, the block's point count n and the
    operand shapes of each product, in call order."""
    samples, current = [], []
    add, matmul = mri._ChebyshevExpansion.add, np.matmul

    def recording_add(self, i, left):
        products = []
        current[:] = [products]
        try:
            add(self, i, left)
        finally:
            current.clear()
        samples.append((i, left.shape[1], products))

    def recording_matmul(a, b, *args, **kwargs):
        if current:
            current[0].append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(mri._ChebyshevExpansion, "add", recording_add)
    monkeypatch.setattr(np, "matmul", recording_matmul)
    return samples


def assert_moments_mapped_once(samples, n_ro, n_blocks):
    """Every sample takes one product of the same R table rows with all n
    columns of the operand L (n_pe, n, 2 n_enc as floats), and each
    block's last sample one more, which maps the moments of all its
    samples, R rows of n_ro n_pe n_enc, to the partitions."""
    assert len(samples) == n_ro * n_blocks
    terms = {products[0][0][0] for _, _, products in samples}
    assert len(terms) == 1, f"tables of {sorted(terms)} rows"
    (rows,) = terms
    for i, n, products in samples:
        (table, left), *mapping = products
        assert table == (rows, n) and left[1] == n, \
            f"sample {i}: a table of {table} against an operand of {left}"
        if i + 1 < n_ro:
            assert not mapping, f"sample {i} of {n_ro} mapped moments"
        else:
            (coef, moments), = mapping
            assert coef[1] == rows and moments == (
                rows, n_ro * left[0] * left[2] // 2), \
                f"block end: {coef} against {moments}"


def pipe_swirl(pipe):
    x, y, _ = pipe.vertices.T
    r2 = (x * x + y * y) / 0.01 ** 2
    velocity = np.stack([0.3 * x / 0.01, -0.2 * y / 0.01,
                         0.7 * (1.0 - r2)], axis=1)
    return VelocityField(times=np.array([0.0]), values=velocity[None]), r2


# 72 partitions of 4 mm on the resolution-1 pipe: the widest block spans
# about 10 mm, 26 Chebyshev rows against the real table's 73
PARTITIONS_72 = SequenceParams(venc=0.8, matrix=(2, 4, 72),
                               voxel=(0.016, 0.004, 0.004), oversampling=1,
                               adc_bandwidth=32e3,
                               fov_center=(0.0, 0.0, 0.05))


@pytest.mark.parametrize("quadrature", [4, 11])
def test_spread_partitions_over_several_blocks_match_direct_sum(
        paths_taken, chebyshev_products, quadrature):
    # an M0 that grows along z does not repeat from layer to layer, so the
    # whole pipe is synthesized
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=1)
    per_block = _BLOCK // quadrature
    assert pipe.n_tets > per_block and pipe.n_tets % per_block, \
        "the pipe must span several tet blocks, the last one partial"
    field, r2 = pipe_swirl(pipe)
    m0 = 1.0 + 0.5 * r2 + 4.0 * pipe.vertices[:, 2]
    assert pipe_layers(pipe, m0, field.values[0]) is None
    assert_matches_direct_sum(pipe, m0, field, PARTITIONS_72, quadrature)
    assert paths_taken == ["_ChebyshevExpansion"]
    n_blocks = -(-pipe.n_tets // per_block)
    assert_moments_mapped_once(chebyshev_products,
                               PARTITIONS_72.acquired_readout, n_blocks)


@pytest.mark.parametrize("quadrature", [4, 11])
def test_spread_partitions_of_one_layer_match_direct_sum(
        paths_taken, chebyshev_products, quadrature):
    # the same pipe with an M0 that repeats from layer to layer: the
    # Chebyshev step takes the first of its 10 layers, still over several
    # blocks, and the layer sum makes the whole pipe's grids
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=1)
    field, r2 = pipe_swirl(pipe)
    layers, per_layer, _, _ = pipe_layers(pipe, 1.0 + 0.5 * r2,
                                          field.values[0])
    per_block = _BLOCK // quadrature
    assert layers == 10 and per_layer > per_block and per_layer % per_block
    assert_matches_direct_sum(pipe, 1.0 + 0.5 * r2, field, PARTITIONS_72,
                              quadrature)
    assert paths_taken == ["_ChebyshevExpansion"]
    n_blocks = -(-per_layer // per_block)
    assert_moments_mapped_once(chebyshev_products,
                               PARTITIONS_72.acquired_readout, n_blocks)


def test_spread_footprint_wrapping_the_grid_matches_direct_sum(paths_taken):
    # a box that straddles the top edge of the image volume set by
    # fov_center, z = 0.192 m, where the partition phase wraps: the
    # Chebyshev step expands e^{-2 pi i k z} about the block's own centre,
    # with no period of its own
    params = SequenceParams(venc=2.5, matrix=(2, 4, 96),
                            voxel=(0.016, 0.004, 0.002), oversampling=1,
                            adc_bandwidth=32e3,
                            fov_center=(0.0, 0.0, 0.096))
    top = params.fov[2]
    mesh = generate_box_mesh(size=(0.008, 0.008, 0.012), divisions=(2, 2, 6),
                             center=(0.0, 0.0, top - 0.002))
    z = mesh.vertices[:, 2]
    assert z.min() < top < z.max()
    assert_matches_direct_sum(mesh, np.linspace(0.5, 1.5, mesh.n_vertices),
                              box_swirl(mesh, 1.0), params)
    assert paths_taken == ["_ChebyshevExpansion"]


def test_spread_long_readout_with_fast_drift_matches_direct_sum(
        paths_taken, chebyshev_products):
    # 128 samples over 4 ms at 2 to 2.4 m/s: spins drift 8 to 9 mm during
    # the readout, as far as the box is long, so the drift sets half the
    # block's range, and x takes 127 steps of its own recurrence
    params = SequenceParams(venc=2.5, matrix=(64, 4, 96),
                            voxel=(0.002, 0.004, 0.002), oversampling=2,
                            adc_bandwidth=32e3, t2_star=5e-3)
    assert params.acquired_readout >= 128
    mesh = small_box((3, 3, 3))
    assert mesh.n_tets <= _BLOCK // 4, "the box must be one block"
    field = box_swirl(mesh, 2.0)
    times = sequence_timings(params).sample_times
    drift = np.abs(field.values[0][:, 2]).min() * (times[-1] - times[0])
    assert drift > 0.007, "spins must drift about as far as the box is long"
    half = mri._half_range(mesh.vertices, mesh.tets, field.values[0], times,
                           _BLOCK // 4)
    assert half >= (0.008 + drift) / 2
    assert_matches_direct_sum(mesh, np.linspace(0.5, 1.5, mesh.n_vertices),
                              field, params)
    assert paths_taken == ["_ChebyshevExpansion"]
    assert_moments_mapped_once(chebyshev_products, times.size, 1)


def test_spread_single_encodes_with_odd_phase_encodes_match_direct_sum(
        paths_taken):
    # each encode of one Chebyshev pass against its own direct sum; 5
    # phase encodes put k_pe = 0 in the middle of the phase-encode ramp
    params = SequenceParams(venc=2.5, matrix=(4, 5, 96),
                            voxel=(0.004, 0.004, 0.002), adc_bandwidth=32e3)
    mesh = small_box((3, 3, 3))
    m0 = np.linspace(0.5, 1.5, mesh.n_vertices)
    field = box_swirl(mesh, 1.0)
    k = synthesize_frame(mesh, m0, field, params)
    for encode in ENCODE_AXES:
        err = relative_l2(k.signals[encode],
                          direct_sum(mesh, m0, field, params, encode))
        assert err <= 1e-10, \
            f"encode {encode}: {err:.2e} relative L2 from the direct sum"
    assert paths_taken == ["_ChebyshevExpansion"]


def test_spread_path_makes_no_partition_ramp(monkeypatch, paths_taken):
    # the same mesh and readout through the real table (8 partitions) and
    # the Chebyshev step (96 partitions): the real table makes s_z and its
    # step, two complex exponentials per block; the Chebyshev step makes
    # one, its shift e^{-2 pi i k_pz c_b}, and one more per frame for its
    # coefficients
    monkeypatch.setattr("hemoflow.mri._BLOCK", 64)
    mesh = small_box()
    per_block = 64 // 4
    n_blocks = -(-mesh.n_tets // per_block)
    assert n_blocks > 1
    field = box_swirl(mesh, 1.0)
    exp = np.exp
    calls = []

    def counting_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            calls.append(1)
        return exp(x, *args, **kwargs)

    counts = []
    for n_pz in (8, 96):
        params = SequenceParams(matrix=(4, 6, n_pz),
                                voxel=(0.008, 0.002, 0.002),
                                adc_bandwidth=32e3, oversampling=2)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "exp", counting_exp)
            synthesize_frame(mesh, np.ones(mesh.n_vertices), field, params)
        counts.append(len(calls))
    assert paths_taken == ["_FoldedTable", "_ChebyshevExpansion"]
    assert counts[0] - counts[1] == n_blocks - 1, \
        f"{counts[0]} complex exponentials on the real table, " \
        f"{counts[1]} on the Chebyshev step, over {n_blocks} blocks"


def test_partition_step_follows_the_table_sizes(paths_taken):
    # the default config (37 real rows against 34 Chebyshev) and the
    # exponential-count inputs (8 partitions) keep the real table; on the
    # resolution-2 pipe the paper-scale slab sequence (113 against 22) and
    # the default sequence (37 against 19) take the Chebyshev step
    cfg = load_config()
    pipe = generate_pipe_mesh(cfg.pipe_radius, cfg.pipe_length,
                              resolution=cfg.pipe_resolution)
    synthesize_frame(pipe, np.ones(pipe.n_vertices),
                     uniform_field(pipe, (0.1, -0.2, 0.7)), cfg.sequence)
    assert paths_taken == ["_FoldedTable"]
    mesh = small_box()
    for n_ro in (4, 32):
        params = SequenceParams(matrix=(n_ro, 6, 8),
                                voxel=(0.008, 0.002, 0.002),
                                adc_bandwidth=32e3, oversampling=2)
        synthesize_frame(mesh, np.ones(mesh.n_vertices), box_swirl(mesh, 1.0),
                         params)
    assert paths_taken == ["_FoldedTable"] * 3
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=2)
    slab = SequenceParams(matrix=(2, 30, 113), voxel=(0.056, 0.002, 0.002),
                          oversampling=1, fov_center=(0.0, 0.0, 0.05))
    for params in (slab, cfg.sequence):
        synthesize_frame(pipe, np.ones(pipe.n_vertices),
                         uniform_field(pipe, (0.1, -0.2, 0.7)), params)
    assert paths_taken == ["_FoldedTable"] * 3 + ["_ChebyshevExpansion"] * 2


def test_spread_grids_are_freed_before_the_output_is_stacked(paths_taken):
    # a long readout over a small box: the Chebyshev step's partition sums
    # and each block's mapped moments are grids the size of the output.
    # The mapped grid is freed before the output is copied out of the
    # sums, so the traced peak holds two such grids and the moments twice
    # (a block's, and their rows-major copy) over the frame's block
    # buffers; holding the mapped grid to the end would add a third
    params = SequenceParams(venc=2.5, matrix=(128, 8, 96),
                            voxel=(0.002, 0.004, 0.002), adc_bandwidth=32e3)
    mesh = small_box()
    field = box_swirl(mesh, 0.5)
    times = sequence_timings(params).sample_times
    k_pz = params.k_axes()[2]
    terms = mri._chebyshev_rows(2 * np.pi * np.abs(k_pz).max() * (
        mri._half_range(mesh.vertices, mesh.tets, field.values[0], times,
                        _BLOCK // 4)))
    n_ro, n_pe, n_pz = params.acquired_readout, *params.matrix[1:]
    itemsize = np.dtype(complex).itemsize
    grid_bytes = len(ENCODE_AXES) * n_ro * n_pe * n_pz * itemsize
    moment_bytes = len(ENCODE_AXES) * n_ro * n_pe * terms * itemsize
    tracemalloc.start()
    try:
        synthesize_frame(mesh, np.ones(mesh.n_vertices), field, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths_taken == ["_ChebyshevExpansion"]
    bound = 2 * grid_bytes + 2 * moment_bytes + 4 * 2 ** 20
    assert peak <= bound, \
        f"traced peak {peak / 2 ** 20:.1f} MB over grids of " \
        f"{grid_bytes / 2 ** 20:.1f} MB and moments of " \
        f"{moment_bytes / 2 ** 20:.1f} MB"


@pytest.mark.parametrize("n_pe", [2, 3])
def test_fewest_phase_encodes_match_direct_sum(paths_taken, n_pe):
    # the shared operand ramps over the phase encodes; with 2 it takes a
    # single step. Both partition steps contract it: 8 partitions keep the
    # real table, 96 take the Chebyshev step
    mesh = small_box((3, 3, 3))
    m0 = np.linspace(0.5, 1.5, mesh.n_vertices)
    field = box_swirl(mesh, 1.0)
    for n_pz in (8, 96):
        params = SequenceParams(venc=2.5, matrix=(4, n_pe, n_pz),
                                voxel=(0.004, 0.004, 0.002),
                                adc_bandwidth=32e3)
        assert_matches_direct_sum(mesh, m0, field, params)
    assert paths_taken == ["_FoldedTable", "_ChebyshevExpansion"]


def test_partition_steps_agree(monkeypatch, paths_taken):
    # one input forced through each partition step; both contract the same
    # encode-minor operand, so a layout slip in either shows here (one
    # reversed phase-encode axis is 1.5 away). Both are exact, so they
    # differ by round-off, for every encode. The pipe spans several tet
    # blocks, the last one partial
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=1)
    assert pipe.n_tets > _BLOCK // 4 and pipe.n_tets % (_BLOCK // 4)
    field, r2 = pipe_swirl(pipe)
    frames = []
    for share in (0.0, 1e9):
        monkeypatch.setattr("hemoflow.mri._CHEBYSHEV_SHARE", share)
        frames.append(synthesize_frame(pipe, 1.0 + 0.5 * r2, field,
                                       PARTITIONS_72))
    assert paths_taken == ["_FoldedTable", "_ChebyshevExpansion"]
    for encode in ENCODE_AXES:
        err = relative_l2(frames[1].signals[encode], frames[0].signals[encode])
        assert err <= 1e-13, \
            f"encode {encode}: the steps differ by {err:.2e} relative L2"


def test_chebyshev_coefficients_match_bessel_functions():
    # (2 - delta_r0) (-i)^r J_r(a), from the DFT of e^{-i a cos theta},
    # against scipy's jv for |a| up to the largest that the rule accepts
    # at the paper's 113 partitions, a = 0 and a < 0 included. Their
    # round-off grows with |a|, to 1.2e-14 at 257 partitions' a = 123,
    # and stays far below the tail
    jv = pytest.importorskip("scipy.special").jv
    limit = max(a for a in np.arange(0.0, 60.0, 0.25)
                if mri._chebyshev_rows(a) <= mri._CHEBYSHEV_SHARE * 113)
    a = np.linspace(-limit, limit, 41)
    assert 0.0 in a
    coef = mri._jacobi_anger(a)
    r = np.arange(coef.shape[1])
    expected = (2 - (r == 0)) * (-1j) ** r * jv(r, a[:, None])
    assert np.abs(coef - expected).max() <= 1e-14
    # the rows kept for the largest |a| drop less than the tail at every
    # smaller |a| too
    terms = mri._chebyshev_rows(limit)
    assert terms < coef.shape[1]
    assert np.abs(coef[:, terms:]).max() < mri._CHEBYSHEV_TAIL
    assert np.abs(coef[:, terms - 1]).max() >= mri._CHEBYSHEV_TAIL


def synthesize_through(step, mesh, m0, field, params):
    """synthesize_frame with every block forced through one partition
    step: "table" (the real table) or "chebyshev" (the Chebyshev step)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mri, "_CHEBYSHEV_SHARE",
                      0.0 if step == "table" else 1e9)
        return synthesize_frame(mesh, m0, field, params)


def drawn_box(data, divisions):
    """A box of at most 48 tets with drawn M0 and vertex velocities."""
    mesh = small_box(divisions)
    m0 = data.draw(hnp.arrays(float, mesh.n_vertices,
                              elements=st.floats(0.1, 2.0)))
    velocity = data.draw(hnp.arrays(float, (mesh.n_vertices, 3),
                                    elements=st.floats(-1.0, 1.0)))
    field = VelocityField(times=np.array([0.0]), values=velocity[None])
    return mesh, m0, field


def property_params(n_pz):
    return SequenceParams(venc=0.8, matrix=(4, 4, n_pz),
                          voxel=(0.004, 0.004, 0.016 / n_pz),
                          adc_bandwidth=32e3)


@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       divisions=st.tuples(*[st.integers(1, 2)] * 3),
       n_pz=st.integers(2, 40))
def test_synthesis_is_additive_over_tets(data, divisions, n_pz):
    # split a box's tets into two meshes on the same vertices: the k-space
    # of the whole (real table) is the sum of the halves', one through
    # the real table and one through the Chebyshev step, on random M0,
    # velocities
    # and split, so the two steps are checked against each other
    mesh, m0, field = drawn_box(data, divisions)
    n_t = mesh.n_tets
    order = np.array(data.draw(st.permutations(range(n_t))))
    cut = data.draw(st.integers(1, n_t - 1))
    halves = [TetMesh(mesh.vertices, mesh.tets[np.sort(part)],
                      np.empty((0, 3), dtype=np.int64),
                      np.empty(0, dtype=np.int64))
              for part in (order[:cut], order[cut:])]
    params = property_params(n_pz)
    whole = synthesize_through("table", mesh, m0, field, params)
    table = synthesize_through("table", halves[0], m0, field, params)
    chebyshev = synthesize_through("chebyshev", halves[1], m0, field,
                                   params)
    for encode in ENCODE_AXES:
        err = relative_l2(table.signals[encode] + chebyshev.signals[encode],
                          whole.signals[encode])
        assert err <= 1e-10, \
            f"encode {encode}: the halves' sum is {err:.2e} from the whole"


@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       divisions=st.tuples(*[st.integers(1, 2)] * 3),
       n_pz=st.integers(2, 40),
       a=st.floats(0.1, 2.0), b=st.floats(0.0, 2.0))
def test_synthesis_is_linear_in_m0(data, divisions, n_pz, a, b):
    # M0 weights every spin's signal, so the k-space of a m1 + b m2 is
    # a s(m1) + b s(m2), through either partition step
    mesh, m1, field = drawn_box(data, divisions)
    m2 = data.draw(hnp.arrays(float, mesh.n_vertices,
                              elements=st.floats(0.1, 2.0)))
    params = property_params(n_pz)
    for step in ("table", "chebyshev"):
        mixed, one, two = (synthesize_through(step, mesh, m0, field, params)
                           for m0 in (a * m1 + b * m2, m1, m2))
        for encode in ENCODE_AXES:
            parts = a * one.signals[encode] + b * two.signals[encode]
            err = relative_l2(mixed.signals[encode], parts)
            assert err <= 1e-10, \
                f"{step}, encode {encode}: a m1 + b m2 is {err:.2e} from " \
                "the sum of the parts"


def k_phase(params, d):
    """e^{-2 pi i k . d} over the k-space grid, d one vector per sample
    (n_ro, 3) or one for all."""
    k_ro, k_pe, k_pz = params.k_axes()
    d = np.broadcast_to(d, (k_ro.size, 3))
    return np.exp(-2j * np.pi * ((k_ro * d[:, 0])[:, None, None]
                                 + np.outer(d[:, 1], k_pe)[:, :, None]
                                 + d[:, None, 2:] * k_pz))


@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       divisions=st.tuples(*[st.integers(1, 2)] * 3),
       n_pz=st.integers(2, 40),
       shift=st.tuples(*[st.floats(-0.004, 0.004)] * 3),
       step=st.sampled_from(["table", "chebyshev"]))
def test_translation_multiplies_samples_by_the_shift_phase(
        data, divisions, n_pz, shift, step):
    # the shift theorem: moving the object by d, the field of view kept,
    # multiplies every sample by e^{-2 pi i k . d}; synthesis of a tiled
    # pipe's first layer, times the sum over the layers, rests on it
    mesh, m0, field = drawn_box(data, divisions)
    moved = TetMesh(mesh.vertices + shift, mesh.tets, mesh.boundary_faces,
                    mesh.boundary_labels)
    params = property_params(n_pz)
    here = synthesize_through(step, mesh, m0, field, params)
    there = synthesize_through(step, moved, m0, field, params)
    phase = k_phase(params, shift)
    for encode in ENCODE_AXES:
        err = relative_l2(there.signals[encode], here.signals[encode] * phase)
        assert err <= 1e-10, \
            f"encode {encode}: the moved object is {err:.2e} from the shift"


@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       divisions=st.tuples(*[st.integers(1, 2)] * 3),
       n_pz=st.integers(2, 40),
       u=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       step=st.sampled_from(["table", "chebyshev"]))
def test_uniform_velocity_is_a_drift_and_an_encode_phase(
        data, divisions, n_pz, u, step):
    # spins that all move at u sit at r + u t_i at sample i: the object at
    # rest moved by u t_i, times e^{-i pi u_a / VENC} for encode a
    mesh, m0, _ = drawn_box(data, divisions)
    params = property_params(n_pz)
    frames = [synthesize_through(step, mesh, m0, uniform_field(mesh, v),
                                 params) for v in ((0.0, 0.0, 0.0), u)]
    times = sequence_timings(params).sample_times
    drift = k_phase(params, np.outer(times, u))
    for encode in ENCODE_AXES:
        phase = drift if encode == "ref" else drift * np.exp(
            -1j * np.pi * u["xyz".index(encode)] / params.venc)
        err = relative_l2(frames[1].signals[encode],
                          frames[0].signals[encode] * phase)
        assert err <= 1e-10, \
            f"encode {encode}: uniform drift is {err:.2e} from its phase"


@settings(max_examples=20, deadline=None)
@given(data=st.data(),
       divisions=st.tuples(*[st.integers(1, 2)] * 3),
       n_pz=st.integers(2, 40),
       still=st.sets(st.integers(0, 2)))
def test_encodes_along_still_axes_copy_the_reference(data, divisions, n_pz,
                                                     still):
    # an encode differs from the reference only by e^{-i pi u_a / VENC},
    # exactly 1 where no vertex moves along axis a: synthesis gives that
    # encode its own copy of the reference's grid, through either step
    mesh, m0, field = drawn_box(data, divisions)
    field.values[0][:, sorted(still)] = 0.0
    params = property_params(n_pz)
    for step in ("table", "chebyshev"):
        k = synthesize_through(step, mesh, m0, field, params)
        for encode in ENCODE_AXES:
            err = relative_l2(k.signals[encode],
                              direct_sum(mesh, m0, field, params, encode))
            assert err <= 1e-10, \
                f"{step}, encode {encode}: {err:.2e} from the direct sum"
        ref = k.signals["ref"]
        for axis in still:
            grid = k.signals["xyz"[axis]]
            assert np.array_equal(grid, ref), f"{step}, axis {axis}"
            assert not np.shares_memory(grid, ref), f"{step}, axis {axis}"


@pytest.mark.parametrize("u_x", [5e-324, 1e-6])
def test_one_vertex_moving_along_an_axis_synthesizes_its_encode(
        monkeypatch, u_x):
    # an axial pipe flow synthesizes ref and z; one vertex moving along x,
    # by the least subnormal or by 1 um/s, makes the x encode its own.
    # At 5e-324 its amplitude differs from the reference's below the sums'
    # round-off, so the grids may agree; at 1e-6 they differ
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=0)
    m0 = np.ones(pipe.n_vertices)
    field, _ = pipe_swirl(pipe)
    field.values[0][:, :2] = 0.0
    synthesized, partition_sums = [], mri._partition_sums

    def recording(*args):
        synthesized.append(list(args[-1]))
        return partition_sums(*args)

    monkeypatch.setattr(mri, "_partition_sums", recording)
    synthesize_frame(pipe, m0, field, LAYER_PARAMS)
    field.values[0][7, 0] = u_x
    k = synthesize_frame(pipe, m0, field, LAYER_PARAMS)
    assert synthesized == [[2], [0, 2]]
    for encode in ENCODE_AXES:
        err = relative_l2(k.signals[encode],
                          direct_sum(pipe, m0, field, LAYER_PARAMS, encode))
        assert err <= 1e-10, f"encode {encode}: {err:.2e} from the direct sum"
    if u_x > 5e-324:
        assert not np.array_equal(k.signals["x"], k.signals["ref"])
    assert np.array_equal(k.signals["y"], k.signals["ref"])


# =========================================================================
# Layers of a tiled pipe
# =========================================================================

@pytest.fixture
def tets_synthesized(monkeypatch):
    """The tet counts the syntheses of a test hand to the partition sums."""
    counts, partition_sums = [], mri._partition_sums

    def counting(vertices, tets, *args):
        counts.append(len(tets))
        return partition_sums(vertices, tets, *args)

    monkeypatch.setattr(mri, "_partition_sums", counting)
    return counts


def swirling_frames(pipe, scales):
    """A frame per scale of a field that varies over the cross-section,
    the same in every ring, as the pipeline's flow is."""
    field, _ = pipe_swirl(pipe)
    return VelocityField(times=np.arange(len(scales), dtype=float),
                         values=np.multiply.outer(scales, field.values[0]))


# covers the 0.1 m pipe: 6 partitions of 20 mm centred on it
LAYER_PARAMS = SequenceParams(venc=0.8, matrix=(4, 6, 6),
                              voxel=(0.01, 0.004, 0.02), adc_bandwidth=32e3,
                              fov_center=(0.0, 0.0, 0.05))


def assert_layers_match_whole_mesh(monkeypatch, tets_synthesized, pipe, m0,
                                   field, params):
    layers, per_layer, _, _ = pipe_layers(pipe, m0, *field.values)
    for frame in range(field.n_frames):
        tiled = synthesize_frame(pipe, m0, field, params, frame=frame)
        with monkeypatch.context() as m:
            m.setattr(mri, "pipe_layers", lambda *args: None)
            whole = synthesize_frame(pipe, m0, field, params, frame=frame)
        for encode in ENCODE_AXES:
            err = relative_l2(tiled.signals[encode], whole.signals[encode])
            assert err <= 1e-12, \
                f"frame {frame}, encode {encode}: {layers} layers are " \
                f"{err:.2e} from the whole mesh"
    assert tets_synthesized == [per_layer, pipe.n_tets] * field.n_frames


@pytest.mark.parametrize("resolution, n_pz", [(0, 36), (1, 6), (2, 6)])
def test_layer_path_matches_the_whole_mesh(monkeypatch, tets_synthesized,
                                           resolution, n_pz):
    # the default config's 36 partitions on its pipe, and 6 on the finer
    # ones to keep the whole-mesh sums short; all take the real table
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=resolution)
    params = SequenceParams(venc=0.8, matrix=(4, 6, n_pz),
                            voxel=(0.01, 0.004, 0.12 / n_pz),
                            adc_bandwidth=32e3, fov_center=(0.0, 0.0, 0.05))
    field = swirling_frames(pipe, [1.0, -0.4, 0.7])
    _, r2 = pipe_swirl(pipe)
    assert_layers_match_whole_mesh(monkeypatch, tets_synthesized, pipe,
                                   1.0 + 0.5 * r2, field, params)


def test_layer_path_matches_the_whole_mesh_on_a_reloaded_pipe(
        monkeypatch, tets_synthesized, tmp_path):
    # load_mesh keeps the pipe metadata and the tets in their order, and
    # the Chebyshev step takes the layer of this reloaded pipe
    save_mesh(generate_pipe_mesh(0.01, 0.1, resolution=1), tmp_path / "p.vtk")
    pipe = load_mesh(tmp_path / "p.vtk")
    field = swirling_frames(pipe, [0.3, 1.0])
    assert_layers_match_whole_mesh(monkeypatch, tets_synthesized, pipe,
                                   np.ones(pipe.n_vertices), field,
                                   PARTITIONS_72)


def nudged(pipe, vertex, axis):
    """The pipe with one coordinate of one vertex moved by one ulp."""
    vertices = pipe.vertices.copy()
    vertices[vertex, axis] = np.nextafter(vertices[vertex, axis], np.inf)
    return TetMesh(vertices, pipe.tets, pipe.boundary_faces,
                   pipe.boundary_labels, pipe.metadata)


def whole_mesh_cases():
    """(name, mesh, m0, field) of inputs that do not repeat per layer."""
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=0)
    per_ring = pipe.n_vertices // 6
    field = swirling_frames(pipe, [1.0])
    m0 = np.ones(pipe.n_vertices)
    changed = field.values.copy()
    changed[0, 2 * per_ring:3 * per_ring, 2] *= 1.0 + 1e-3
    box = generate_box_mesh((0.008, 0.008, 0.08), (2, 2, 5),
                            center=(0.0, 0.0, 0.05))
    return [
        ("x moved", nudged(pipe, 3 * per_ring + 7, 0), m0, field),
        ("z moved", nudged(pipe, 4 * per_ring + 2, 2), m0, field),
        ("one layer's velocity", pipe, m0,
         VelocityField(times=field.times, values=changed)),
        ("m0 along z", pipe, 1.0 + pipe.vertices[:, 2], field),
        ("box", box, np.ones(box.n_vertices),
         uniform_field(box, (0.1, 0.0, 0.5))),
    ]


def pipeline_input(out, overrides=None):
    """The mesh, M0, stage flow's field (its flow.csv written to ``out``)
    and the sequence of a run of the default config with ``overrides``."""
    cfg = load_config(overrides=overrides)
    mesh = stage_mesh(cfg)
    field, _ = stage_flow(cfg, mesh, fit_models(cfg)["power_law"], out)
    return mesh, np.ones(mesh.n_vertices), field, cfg.sequence


def swirl_with_m0_along_z(out):
    # an M0 that grows along z does not repeat per layer, and the swirl
    # moves along every axis
    pipe = generate_pipe_mesh(0.01, 0.1, resolution=0)
    field, _ = pipe_swirl(pipe)
    return pipe, 1.0 + 4.0 * pipe.vertices[:, 2], field, LAYER_PARAMS


def still_box(out):
    box = small_box()
    return box, np.ones(box.n_vertices), uniform_field(box, (0, 0, 0)), SMALL


@pytest.mark.parametrize("make, frame, expected", [
    pytest.param(pipeline_input, 1, [
        "layer path over 5 layers",
        "encodes ref, z; the reference's grid serves x, y",
        "real partition table, 37 rows against 34 Chebyshev"], id="default"),
    # the CI's spread.ini: 2 phases, the resolution-1 pipe, 96 partitions
    pytest.param(lambda out: pipeline_input(out, {
        ("flow", "cardiac_phases"): 2, ("pipe", "resolution"): 1,
        ("sequence", "matrix"): "11, 11, 96"}), 1, [
        "layer path over 10 layers",
        "encodes ref, z; the reference's grid serves x, y",
        "Chebyshev partition step, 97 rows against 24 Chebyshev"],
        id="96-partitions"),
    pytest.param(swirl_with_m0_along_z, 0, [
        "whole-mesh path", "encodes ref, x, y, z",
        "real partition table, 7 rows against 26 Chebyshev"], id="swirl"),
    pytest.param(still_box, 0, [
        "whole-mesh path", "encodes ref; the reference's grid serves x, y, z",
        "real partition table, 9 rows against 26 Chebyshev"], id="still-box"),
])
def test_synthesis_logs_the_choices_it_makes(caplog, tmp_path, make, frame,
                                             expected):
    # the layer path, the encodes synthesized and the partition step with
    # both inputs of its rule, once per frame, where each choice is made
    mesh, m0, field, params = make(tmp_path)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="hemoflow"):
        synthesize_frame(mesh, m0, field, params, frame=frame)
    assert [r.getMessage() for r in caplog.records] == [
        f"synthesis: {line}" for line in expected]


@pytest.mark.parametrize("case", range(5))
def test_inputs_that_do_not_repeat_per_layer_take_the_whole_mesh(
        tets_synthesized, case):
    name, mesh, m0, field = whole_mesh_cases()[case]
    assert pipe_layers(mesh, m0, *field.values) is None, name
    assert_matches_direct_sum(mesh, m0, field, LAYER_PARAMS)
    assert tets_synthesized == [mesh.n_tets], name


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 128),
       fov=st.floats(0.03, 0.25),
       coords=st.lists(st.floats(-0.15, 0.15), min_size=1, max_size=16))
def test_phase_ramp_recurrence_matches_exponentials(n, fov, coords):
    # k as params.k_axes() builds it, over the range of field of view
    # from the default config (33 mm) to the paper's readout (224 mm)
    k = (np.arange(n) - n // 2) / fov
    c = np.asarray(coords)
    direct = np.exp(-2j * np.pi * np.outer(k, c))
    ramp = _ramp(np.exp(-2j * np.pi * k[0] * c),
                 np.exp(-2j * np.pi * _spacing(k) * c),
                 np.empty((n, c.size), dtype=complex))
    assert np.abs(ramp - direct).max() <= 1e-11


@settings(max_examples=200, deadline=None)
@given(matrix=st.tuples(*[st.integers(2, 256)] * 3),
       fov=st.tuples(*[st.floats(0.03, 0.25)] * 3),
       oversampling=st.integers(1, 2))
def test_k_axes_hold_zero_at_the_centre_index(matrix, fov, oversampling):
    # synthesis folds the partition table about k = 0: it takes partition
    # j as s_z^(j - n//2) and partition n//2 - m as the conjugate of
    # partition n//2 + m
    params = SequenceParams(matrix=matrix,
                            voxel=tuple(f / n for f, n in zip(fov, matrix)),
                            oversampling=oversampling)
    sizes = (params.acquired_readout,) + matrix[1:]
    for axis, (k, n) in enumerate(zip(params.k_axes(), sizes)):
        assert k.shape == (n,)
        assert k[n // 2] == 0.0, f"axis {axis}: k[{n // 2}] = {k[n // 2]}"
        m = np.arange(1, n - n // 2)
        assert np.array_equal(k[n // 2 + m], -k[n // 2 - m]), f"axis {axis}"


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 256),
       fov=st.floats(0.03, 0.25),
       t0=st.floats(1e-3, 20e-3),
       dwell=st.floats(2e-6, 50e-6),
       t2_star=st.floats(2e-3, 1.0),
       points=st.lists(st.tuples(*[st.floats(-0.15, 0.15)] * 3,
                                 *[st.floats(-1.7, 1.7)] * 3),
                       min_size=1, max_size=8))
def test_time_recurrence_matches_exponentials(n, fov, t0, dwell, t2_star,
                                              points):
    # evenly spaced sample times and readout k, |u| <= 3 m/s, T2* >= 2 ms.
    # The shared recurrence makes A and s_y, with no partition phase since
    # the partition table is centred; the real table makes s_z itself and
    # holds Re(s_z), Im(s_z) in its rows 1 and c + 1 at each sample
    table = np.asarray(points)
    pos, vel = table[:, :3], table[:, 3:]
    times = t0 + np.arange(n) * dwell
    k_ro = (np.arange(n) - n // 2) / (2.0 * fov)
    k_pe = (np.arange(30) - 15) / fov
    k_pz = (np.arange(113) - 56) / (2.0 * fov)
    samples = _sample_factors(pos, vel, times, k_ro, k_pe, t2_star)
    folded = mri._FoldedTable(times, k_pz.size, _spacing(k_pz), 1, 1,
                              len(pos))
    folded.block(pos, vel)
    c = k_pz.size // 2
    left = np.zeros((1, len(pos), 1), dtype=complex)
    for i, factors in enumerate(samples):
        assert len(factors) == 2, "the recurrence makes no partition factor"
        folded.add(i, left)
        s_z = folded.table[1] + 1j * folded.table[c + 1]
        x, y, z = (pos + vel * times[i]).T
        direct = (np.exp(-times[i] / t2_star - 2j * np.pi * (
                      k_ro[i] * x + k_pe[0] * y)),
                  np.exp(-2j * np.pi * _spacing(k_pe) * y),
                  np.exp(-2j * np.pi * _spacing(k_pz) * z))
        for name, got, want in zip(("A", "s_y", "s_z"), (*factors, s_z),
                                   direct):
            assert np.abs(got - want).max() <= 1e-11, f"{name} at sample {i}"
    assert i == n - 1


# =========================================================================
# Reconstruction
# =========================================================================

def manual_kspace(grid, params):
    return KSpaceData(signals={"ref": grid}, params=params)


def test_dc_only_gives_constant_image():
    params = SequenceParams(matrix=(6, 5, 4), voxel=(0.002, 0.002, 0.002),
                            oversampling=1, adc_bandwidth=10e3)
    grid = np.zeros((6, 5, 4), dtype=complex)
    grid[3, 2, 2] = 1.0  # the centered zero-frequency sample
    img = reconstruct(manual_kspace(grid, params)).volumes["ref"]
    assert np.allclose(img, img.flat[0], rtol=0, atol=1e-12 * abs(img.flat[0]))


def test_parseval_without_oversampling():
    params = SequenceParams(matrix=(6, 5, 4), voxel=(0.002, 0.002, 0.002),
                            oversampling=1, adc_bandwidth=10e3)
    rng = np.random.default_rng(3)
    grid = rng.normal(size=(6, 5, 4)) + 1j * rng.normal(size=(6, 5, 4))
    img = reconstruct(manual_kspace(grid, params)).volumes["ref"]
    n = grid.size
    assert np.sum(np.abs(grid) ** 2) == pytest.approx(
        n * np.sum(np.abs(img) ** 2), rel=1e-9), \
        "the inverse transform must preserve energy up to the 1/N factor"


def test_reconstructed_volumes_own_their_data():
    # a view of the cropped readout would keep the whole oversampled
    # array alive, twice the volume's memory
    params = SequenceParams(matrix=(6, 5, 4), voxel=(0.002, 0.002, 0.002),
                            adc_bandwidth=10e3)
    shape = (params.acquired_readout, 5, 4)
    rng = np.random.default_rng(4)
    k = KSpaceData(
        signals={name: rng.normal(size=shape) + 1j * rng.normal(size=shape)
                 for name in ("ref", "x")},
        params=params)
    volumes = reconstruct(k).volumes
    assert sorted(volumes) == ["ref", "x"]
    for name, volume in volumes.items():
        assert volume.shape == (6, 5, 4)
        assert volume.base is None and volume.flags.owndata, \
            f"volume {name!r} is a view of the oversampled array"


def test_reconstruction_matches_rasterized_object():
    # a box offset from the voxel grid carrying a smooth M0 pattern; the
    # oracle rasterizes the object on a fine subgrid and evaluates the
    # Fourier sum directly, so it shares no code with the mesh quadrature
    center = np.array([0.0007, -0.0003, 0.0011])
    half = np.array([0.010, 0.008, 0.004])
    mesh = generate_box_mesh(size=2 * half, divisions=(10, 8, 4),
                             center=center)

    def m0_func(x, y, z):
        return (1.0 + 0.6 * np.sin(2 * np.pi * (x - center[0]) / 0.020)
                * np.cos(np.pi * (y - center[1]) / 0.016)
                + 0.3 * np.cos(np.pi * (z - center[2]) / 0.008))

    params = SequenceParams(matrix=(20, 16, 12), voxel=(0.002, 0.002, 0.002),
                            adc_bandwidth=48e3)
    field = uniform_field(mesh, (0.0, 0.0, 0.0))
    k = synthesize_signal(mesh, m0_func(*mesh.vertices.T), field, params)
    img = np.abs(reconstruct(k).volumes["ref"])

    sub = 4
    t = sequence_timings(params)
    axes = []
    for n, v, c in zip(params.matrix, params.voxel, params.fov_center):
        edges = (np.arange(n * sub + 1) / sub - n // 2 - 0.5) * v + c
        axes.append(0.5 * (edges[:-1] + edges[1:]))
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    inside = np.ones(X.shape, dtype=bool)
    for coords, c, h in zip((X, Y, Z), center, half):
        inside &= (coords > c - h) & (coords < c + h)
    rho = m0_func(X, Y, Z) * inside
    exps = [np.exp(-2j * np.pi * np.outer(ax, kv))
            for ax, kv in zip(axes, params.k_axes())]
    total = np.tensordot(np.tensordot(np.tensordot(
        rho, exps[0], axes=(0, 0)), exps[1], axes=(0, 0)), exps[2],
        axes=(0, 0))
    total *= np.prod([v / sub for v in params.voxel])
    total *= np.exp(-t.sample_times / params.t2_star)[:, None, None]
    oracle_k = KSpaceData(signals={"ref": total}, params=params)
    img_oracle = np.abs(reconstruct(oracle_k).volumes["ref"])

    corr = np.corrcoef(img.ravel(), img_oracle.ravel())[0, 1]
    assert corr > 0.99, f"image/rasterization correlation {corr:.4f}"


# =========================================================================
# Velocity decoding
# =========================================================================

def test_uniform_velocity_round_trip():
    mesh = small_box()
    u = (0.6, -0.4, 0.9)
    rec = decode(mesh, uniform_field(mesh, u), SMALL)
    interior = rec.magnitude > 0.5 * rec.magnitude.max()
    err = np.abs(rec.velocity[interior] - np.asarray(u)).max()
    assert err < 1e-9 * SMALL.venc, \
        f"noiseless uniform velocity must decode exactly, err {err:.2e}"


def test_decoding_is_negation_equivariant():
    mesh = small_box()
    u = (0.8, 0.3, -0.5)
    fwd = decode(mesh, uniform_field(mesh, u), SMALL)
    rev = decode(mesh, uniform_field(mesh, tuple(-c for c in u)), SMALL)
    interior = fwd.magnitude > 0.5 * fwd.magnitude.max()
    assert np.allclose(rev.velocity[interior], -fwd.velocity[interior],
                       atol=1e-9), "negating the field must negate the decode"


def test_velocity_beyond_venc_wraps():
    mesh = small_box()
    venc = SMALL.venc
    rec = decode(mesh, uniform_field(mesh, (1.1 * venc, 0.0, 0.0)), SMALL)
    interior = rec.magnitude > 0.5 * rec.magnitude.max()
    assert np.allclose(rec.velocity[interior][:, 0], -0.9 * venc,
                       atol=1e-9 * venc), \
        "u = 1.1 VENC must alias to -0.9 VENC"

    rec = decode(mesh, uniform_field(mesh, (venc, 0.0, 0.0)), SMALL)
    vals = rec.velocity[interior][:, 0]
    assert np.all(np.abs(vals) == pytest.approx(venc, rel=1e-9)), \
        "u = VENC lands on the aliasing boundary"


def test_decode_requires_all_encodes():
    mesh = small_box()
    field = uniform_field(mesh, (0.0, 0.0, 0.0))
    k = synthesize_signal(mesh, np.ones(mesh.n_vertices), field, SMALL)
    img = reconstruct(k)
    with pytest.raises(ValidationError):
        phase_to_velocity(img)


# =========================================================================
# Noise
# =========================================================================

def test_noise_determinism_and_identity():
    mesh = small_box()
    field = uniform_field(mesh, (0.2, 0.0, 0.0))
    k = synthesize_frame(mesh, np.ones(mesh.n_vertices), field, SMALL)
    a = add_noise(k, 0.052, seed=42)
    b = add_noise(k, 0.052, seed=42)
    for name in ENCODE_AXES:
        assert np.array_equal(a.signals[name], b.signals[name]), \
            "same seed must give bit-identical noise"
    c = add_noise(k, 0.052, seed=43)
    assert not np.array_equal(a.signals["ref"], c.signals["ref"])
    clean = add_noise(k, 0.0, seed=42)
    for name in ENCODE_AXES:
        assert np.array_equal(clean.signals[name], k.signals[name]), \
            "zero sigma must be the identity"
    assert a.seed == 42


def test_image_noise_scales_with_sigma():
    mesh = small_box()
    field = uniform_field(mesh, (0.0, 0.0, 0.0))
    k = synthesize_signal(mesh, np.ones(mesh.n_vertices), field, SMALL)
    clean = reconstruct(k).volumes["ref"]
    stds = []
    for sigma in (0.02, 0.04, 0.08):
        noisy = reconstruct(add_noise(k, sigma, seed=5)).volumes["ref"]
        stds.append(np.std((noisy - clean).real))
    ratios = np.array(stds[1:]) / np.array(stds[:-1])
    assert np.allclose(ratios, 2.0, rtol=0.05), \
        f"image noise must scale linearly with sigma, ratios {ratios}"


# =========================================================================
# Persistence
# =========================================================================

def test_kspace_round_trip(tmp_path):
    mesh = small_box()
    field = uniform_field(mesh, (0.3, -0.2, 0.1))
    k = synthesize_frame(mesh, np.ones(mesh.n_vertices), field, SMALL)
    k = add_noise(k, 0.01, seed=9)
    path = tmp_path / "phase00.json"
    save_kspace(k, path)
    loaded = load_kspace(path)
    assert sorted(loaded.signals) == sorted(k.signals)
    for name in k.signals:
        # payload is complex64, so expect single-precision agreement
        assert np.allclose(loaded.signals[name], k.signals[name],
                           rtol=1e-5, atol=1e-5 * k.max_amplitude())
    assert loaded.seed == 9
    assert loaded.params == k.params
    assert np.array_equal(sequence_timings(loaded.params).sample_times,
                          sequence_timings(k.params).sample_times)

    img = reconstruct(loaded)
    save_images(img, tmp_path / "img00.json")
    img2 = load_images(tmp_path / "img00.json")
    for name in img.volumes:
        assert np.allclose(img2.volumes[name], img.volumes[name],
                           rtol=1e-4, atol=1e-6)

    with pytest.raises(ValidationError):
        load_images(path)  # wrong container format


def _saved_kspace(tmp_path):
    mesh = small_box()
    k = synthesize_frame(mesh, np.ones(mesh.n_vertices),
                         uniform_field(mesh, (0.3, -0.2, 0.1)), SMALL)
    path = tmp_path / "phase00.json"
    save_kspace(k, path)
    return k, path


def _edit_params(path, **entries):
    sidecar = json.loads(path.read_text())
    sidecar["params"].update(entries)
    path.write_text(json.dumps(sidecar))


def test_sidecar_with_retired_sequence_keys_loads(tmp_path):
    k, path = _saved_kspace(tmp_path)
    _edit_params(path, cardiac_phases=8, time_spacing=0.032)
    loaded = load_kspace(path)
    assert loaded.params == k.params
    assert np.array_equal(loaded.signals["ref"],
                          k.signals["ref"].astype(np.complex64))


def test_written_sidecars_hold_exactly_their_entries(tmp_path):
    k, path = _saved_kspace(tmp_path)
    assert list(json.loads(path.read_text())) == [
        "format", "encodes", "frame_time", "params", "seed"]
    images = tmp_path / "img00.json"
    save_images(reconstruct(k), images)
    assert list(json.loads(images.read_text())) == [
        "format", "encodes", "frame_time", "params"]


def test_payload_is_the_bin_beside_the_sidecar(tmp_path):
    # an entry naming another file, even by absolute path, is not read
    k, path = _saved_kspace(tmp_path)
    other = tmp_path / "other.bin"
    other.write_bytes(bytes(path.with_suffix(".bin").stat().st_size))
    sidecar = json.loads(path.read_text())
    sidecar["data_file"] = str(other.resolve())
    path.write_text(json.dumps(sidecar))
    loaded = load_kspace(path)
    for name, grid in k.signals.items():
        assert np.array_equal(loaded.signals[name],
                              grid.astype(np.complex64))


def test_sidecar_of_an_earlier_version_loads(tmp_path):
    # earlier versions wrote a parameter hash and the payload's name too
    k, path = _saved_kspace(tmp_path)
    images = tmp_path / "img00.json"
    save_images(reconstruct(k), images)
    for sidecar_path, load, grids in (
            (path, load_kspace, lambda c: c.signals),
            (images, load_images, lambda c: c.volumes)):
        before = load(sidecar_path)
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["params_hash"] = "0" * 64
        sidecar["data_file"] = sidecar_path.with_suffix(".bin").name
        sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
        after = load(sidecar_path)
        assert after.params == before.params
        assert grids(after).keys() == grids(before).keys()
        for name, grid in grids(before).items():
            assert np.array_equal(grids(after)[name], grid)


def test_payload_of_another_length_is_refused(tmp_path):
    _, path = _saved_kspace(tmp_path)
    payload = path.with_suffix(".bin")
    data = payload.read_bytes()
    for wrong in (data + bytes(8), data[:-8]):
        payload.write_bytes(wrong)
        with pytest.raises(ValidationError,
                           match="phase00.json: data holds"):
            load_kspace(path)


@pytest.mark.parametrize("entry, value", [
    ("encodes", []), ("frame_time", float("nan")),
    ("encodes", ["ref", "ref", "y", "z"]), ("frame_time", True)])
def test_bad_sidecar_entries_are_refused_before_the_payload(
        tmp_path, entry, value):
    # with the payload gone, only the sidecar step can refuse. No encode
    # makes an empty container, and a repeated encode would take another
    # encode's samples
    _, path = _saved_kspace(tmp_path)
    path.with_suffix(".bin").unlink()
    sidecar = json.loads(path.read_text())
    sidecar[entry] = value
    path.write_text(json.dumps(sidecar))
    with pytest.raises(ValidationError, match=f"phase00.json: {entry} "):
        load_kspace(path)


def test_malformed_sidecar_names_the_file(tmp_path):
    _, path = _saved_kspace(tmp_path)
    _edit_params(path, bogus=1)
    with pytest.raises(ValidationError, match="phase00.json.*bogus"):
        load_kspace(path)

    _, path = _saved_kspace(tmp_path)
    sidecar = json.loads(path.read_text())
    del sidecar["params"]["venc"]
    path.write_text(json.dumps(sidecar))
    with pytest.raises(ValidationError, match="phase00.json.*venc"):
        load_kspace(path)

    _, path = _saved_kspace(tmp_path)
    _edit_params(path, matrix=[8, 8])
    with pytest.raises(ValidationError, match="phase00.json"):
        load_kspace(path)


def _write_nan_sample(sidecar_path, index):
    with open(sidecar_path.with_suffix(".bin"), "r+b") as fh:
        fh.seek(index * np.dtype(np.complex64).itemsize)
        fh.write(np.complex64(complex(np.nan, 0.0)).tobytes())


def test_non_finite_payload_names_the_sidecar(tmp_path):
    k, path = _saved_kspace(tmp_path)
    _write_nan_sample(path, 17)
    with pytest.raises(ValidationError, match="phase00.json.*non-finite"):
        load_kspace(path)

    images = tmp_path / "img00.json"
    save_images(reconstruct(k), images)
    _write_nan_sample(images, 5)
    with pytest.raises(ValidationError, match="img00.json.*non-finite"):
        load_images(images)


def test_kspace_validation():
    # each refusal names the encode and what is wrong with its grid, or
    # that no encode is named: add_noise found no largest sample in one
    grid = np.zeros((16, 8, 8), complex)
    cases = (
        (KSpaceData, "signals", {}, "no encode grid is named"),
        (ImageVolume, "volumes", {}, "no encode volume is named"),
        (KSpaceData, "signals", {"bogus": grid}, "unknown encode 'bogus'"),
        (KSpaceData, "signals", {"x": grid[:4]},
         "encode 'x' grid is (4, 8, 8), expected (16, 8, 8)"),
        (KSpaceData, "signals", {"y": np.full_like(grid, np.nan)},
         "encode 'y' holds non-finite k-space samples"),
        (ImageVolume, "volumes", {"bogus": grid[:8]},
         "unknown encode 'bogus'"),
        (ImageVolume, "volumes", {"x": grid},
         "encode 'x' volume is (16, 8, 8), expected (8, 8, 8)"),
        (ImageVolume, "volumes", {"z": np.full_like(grid[:8], np.inf)},
         "encode 'z' holds non-finite voxels"),
    )
    for container, key, grids, message in cases:
        with pytest.raises(ValidationError) as raised:
            container(**{key: grids, "params": SMALL})
        assert str(raised.value) == message
