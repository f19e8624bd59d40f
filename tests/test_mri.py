"""Tests for sequence timing, signal synthesis, reconstruction, decoding."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemoflow.errors import SequenceError, ValidationError
from hemoflow.flowfields import VelocityField
from hemoflow.mesh import generate_box_mesh, generate_pipe_mesh, tet_volumes
from hemoflow.mri import (_BLOCK, ENCODE_AXES, ImageVolume, KSpaceData,
                          SequenceParams, _quadrature, _ramp,
                          _sample_factors, _spacing, add_noise, load_images,
                          load_kspace, phase_to_velocity, reconstruct,
                          save_images, save_kspace, sequence_timings,
                          synthesize_frame, synthesize_signal)

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
        pos, wq, m0q, _ = _quadrature(
            mesh, np.ones(mesh.n_vertices), zero, rule)
        total = (wq * poly(pos[:, 0], pos[:, 1], pos[:, 2])).sum()
        exact = simplex_like_integral(mesh, poly)
        assert total == pytest.approx(exact, rel=1e-4), \
            f"rule {rule} must integrate {degree_note} polynomials"
    assert wq.sum() == pytest.approx(tet_volumes(mesh).sum(), rel=1e-12)
    with pytest.raises(ValidationError):
        _quadrature(mesh, np.ones(mesh.n_vertices), zero, 7)


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
    pos, wq, m0q, uq = _quadrature(mesh, np.asarray(m0, dtype=float),
                                   field.values[0], quadrature)
    k_ro, k_pe, k_pz = params.k_axes()
    amp = (wq * m0q).astype(complex)
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
    n_points = pipe.n_tets * quadrature
    assert n_points > _BLOCK and n_points % _BLOCK, \
        "the pipe must span several blocks, the last one partial"
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


@pytest.mark.parametrize("n_pz", [2, 3])
def test_fewest_partitions_match_direct_sum(n_pz):
    # the partition table folds +m onto -m about k = 0: with 2 partitions
    # m = -1 has no +1 partner, with 3 both sides hold one partition
    params = SequenceParams(matrix=(8, 8, n_pz), voxel=(0.002, 0.002, 0.004),
                            adc_bandwidth=32e3)
    mesh = small_box()
    assert_matches_direct_sum(mesh, np.linspace(0.5, 1.5, mesh.n_vertices),
                              box_swirl(mesh, 2.0), params)


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


def test_single_encode_matches_its_frame_grid():
    mesh = small_box()
    m0 = np.linspace(0.5, 1.5, mesh.n_vertices)
    field = uniform_field(mesh, (0.6, -0.4, 0.9))
    frame = synthesize_frame(mesh, m0, field, SMALL)
    for encode in ENCODE_AXES:
        single = synthesize_signal(mesh, m0, field, SMALL, encode=encode)
        assert list(single.signals) == [encode]
        err = relative_l2(single.signals[encode], frame.signals[encode])
        assert err <= 1e-10, f"encode {encode}: {err:.2e} relative L2"


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
    # evenly spaced sample times and readout k, |u| <= 3 m/s, T2* >= 2 ms;
    # A carries no partition phase, since the partition table is centred
    table = np.asarray(points)
    pos, vel = table[:, :3], table[:, 3:]
    times = t0 + np.arange(n) * dwell
    k_ro = (np.arange(n) - n // 2) / (2.0 * fov)
    k_pe = (np.arange(30) - 15) / fov
    k_pz = (np.arange(113) - 56) / (2.0 * fov)
    samples = _sample_factors(pos, vel, times, k_ro, k_pe, k_pz, t2_star)
    for i, (a, s_y, s_z) in enumerate(samples):
        x, y, z = (pos + vel * times[i]).T
        direct = (np.exp(-times[i] / t2_star - 2j * np.pi * (
                      k_ro[i] * x + k_pe[0] * y)),
                  np.exp(-2j * np.pi * _spacing(k_pe) * y),
                  np.exp(-2j * np.pi * _spacing(k_pz) * z))
        for name, got, want in zip(("A", "s_y", "s_z"), (a, s_y, s_z),
                                   direct):
            assert np.abs(got - want).max() <= 1e-11, f"{name} at sample {i}"
    assert i == n - 1


# =========================================================================
# Reconstruction
# =========================================================================

def manual_kspace(grid, params):
    times = sequence_timings(params).sample_times
    return KSpaceData(signals={"ref": grid}, sample_times=times,
                      params=params)


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
        sample_times=sequence_timings(params).sample_times, params=params)
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
    oracle_k = KSpaceData(signals={"ref": total},
                          sample_times=t.sample_times, params=params)
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
    assert np.allclose(loaded.sample_times, k.sample_times)

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
    with pytest.raises(ValidationError):
        KSpaceData(signals={"bogus": np.zeros((16, 8, 8), complex)},
                   sample_times=np.zeros(16), params=SMALL)
    with pytest.raises(ValidationError):
        KSpaceData(signals={"ref": np.zeros((4, 4, 4), complex)},
                   sample_times=np.zeros(4), params=SMALL)
    with pytest.raises(ValidationError):
        ImageVolume(volumes={"ref": np.zeros((4, 4, 4), complex)},
                    params=SMALL)
    grid = np.zeros((16, 8, 8), complex)
    grid[1, 2, 3] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        KSpaceData(signals={"ref": grid}, sample_times=np.zeros(16),
                   params=SMALL)
    with pytest.raises(ValidationError, match="non-finite"):
        ImageVolume(volumes={"ref": np.full((8, 8, 8), np.nan, complex)},
                    params=SMALL)
