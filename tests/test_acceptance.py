"""Acceptance checks, one per shipped guarantee.

Each test prints a single summary line on success, carries its numeric
evidence in the assertion message on failure, and enforces its runtime
budget. Tolerances are fixed contract values, not tuned to the
implementation.
"""

import time

import numpy as np
import pytest

from hemoflow.cli import load_config, run_pipeline
from hemoflow.flowfields import FlowWaveform, VelocityField, \
    poiseuille_power_law
from hemoflow.hemodynamics import compare_models, energy_loss_rate, osi, \
    recover_gradients, segment_stats, shear_rate, wss
from hemoflow.mesh import CutPlane, generate_pipe_mesh, nodal_volumes, \
    segment_labels, segment_names, wall_normals
from hemoflow.mri import SequenceParams, add_noise, phase_to_velocity, \
    reconstruct, sequence_timings, synthesize_frame
from hemoflow.phantoms import REFERENCE_OUTLET, demo_outlet_flow, snr_phantom
from hemoflow.rheology import PowerLawParams, ViscositySample, \
    apparent_viscosity, fit_for_hct, fit_power_law, newtonian_equivalent
from hemoflow.windkessel import WindkesselParams, simulate_windkessel

# published fits: hct -> (m, n, newtonian fit 1, newtonian fit 2)
PUBLISHED_FITS = {
    20.0: (0.69e-2, 0.71, 2.15e-3, 0.97e-3),
    32.5: (1.73e-2, 0.63, 4.00e-3, 1.49e-3),
    45.0: (2.42e-2, 0.72, 7.71e-3, 3.52e-3),
    57.5: (4.19e-2, 0.64, 9.75e-3, 3.64e-3),
    70.0: (5.40e-2, 0.63, 12.38e-3, 4.58e-3),
}
FIT1_RANGE = (12.0, 123.0)
FIT2_RANGE = (0.0, 2800.0)
FIT1_TOL, FIT2_TOL = 0.02, 0.05
# The published m is given to 1e-4 Pa.s^n and n to two decimals, so each
# stands for every value that rounds to it: m +- 5e-5, n +- 0.005.
M_HALF_WIDTH, N_HALF_WIDTH = 5e-5, 5e-3

RADIUS, LENGTH = 0.01, 0.1


def best_in_rounding_box(reduce, m, n, fit1, fit2, m_half=M_HALF_WIDTH,
                         n_half=N_HALF_WIDTH):
    """Lowest criterion-1 score of ``reduce`` over a box around (m, n).

    The score is ``max(err1 / 2%, err2 / 5%)``, where err1 and err2 are the
    relative errors of ``reduce(params, FIT1_RANGE)`` and
    ``reduce(params, FIT2_RANGE)`` against the published columns ``fit1``
    and ``fit2``. A score below 1 means one (m, n) meets both tolerances at
    once. The box ``m +- m_half``, ``n +- n_half`` is sampled on a 41 x 41
    grid; every grid point lies inside it, so a passing score is reached
    by an input that the published digits stand for.

    Returns ``(score, m, n)`` at the best grid point.
    """
    best = (np.inf, m, n)
    for m_i in np.linspace(m - m_half, m + m_half, 41):
        for n_i in np.linspace(n - n_half, n + n_half, 41):
            params = PowerLawParams(m=float(m_i), n=float(n_i))
            err1 = abs(reduce(params, FIT1_RANGE) - fit1) / fit1
            err2 = abs(reduce(params, FIT2_RANGE) - fit2) / fit2
            score = max(err1 / FIT1_TOL, err2 / FIT2_TOL)
            if score < best[0]:
                best = (score, float(m_i), float(n_i))
    return best


def test_criterion_1_published_newtonian_fits():
    # for every hematocrit, one (m, n) inside the rounding box of the
    # published values gives fit 1 within 2% and fit 2 within 5%; < 1 s
    start = time.perf_counter()
    rows = [(hct, *best_in_rounding_box(newtonian_equivalent, *published))
            for hct, published in PUBLISHED_FITS.items()]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"

    for hct, score, m, n in rows:
        assert score < 1.0, (
            f"hct {hct:g}: best score {score:.3f} at m = {m:.5g}, "
            f"n = {n:.4f}, where score = max(fit-1 error / 2%, fit-2 "
            "error / 5%). No (m, n) in the box m +- "
            f"{M_HALF_WIDTH:g} Pa s^n, n +- {N_HALF_WIDTH:g} around the "
            "published values reproduces both published columns.")
    worst = max(score for _, score, _, _ in rows)
    print(f"[criterion 1] PASS ({elapsed:.2f} s): both fit columns "
          "reproduced inside the rounding box of the published m and n "
          f"(worst score {worst:.3f})")


def test_criterion_1_rejects_wrong_reductions():
    # the rounding box lets no wrong reduction through, and at zero width
    # it is the exact-input check that the hct-45 curve misses by 2.053%
    def mean_stress(params, shear_range):
        # Newtonian viscosity whose mean stress over the range matches
        # the power-law curve's
        g0, g1 = shear_range
        n = params.n
        return (2.0 * params.m * (g1 ** (n + 1) - g0 ** (n + 1))
                / ((n + 1) * (g1 ** 2 - g0 ** 2)))

    wrong = {
        "viscosity at the upper shear rate":
            lambda p, r: apparent_viscosity(p, r[1]),
        "mean-stress reduction": mean_stress,
        "closed form without its 1/n":
            lambda p, r: p.n * newtonian_equivalent(p, r),
        "closed form x 1.03":
            lambda p, r: 1.03 * newtonian_equivalent(p, r),
    }
    for name, reduce in wrong.items():
        worst = max(best_in_rounding_box(reduce, *published)[0]
                    for published in PUBLISHED_FITS.values())
        assert worst >= 1.0, \
            f"{name} passes criterion 1 (worst score {worst:.3f})"

    score, _, _ = best_in_rounding_box(
        newtonian_equivalent, *PUBLISHED_FITS[45.0], m_half=0.0, n_half=0.0)
    assert score == pytest.approx(0.02053 / FIT1_TOL, abs=1e-3), \
        f"zero-width box at hct 45: score {score:.4f}, expected 1.027"


def test_criterion_2_fit_round_trip():
    # knot recovery within 5%; exact-model recovery within 1e-8
    start = time.perf_counter()
    for hct, (m, n, _, _) in PUBLISHED_FITS.items():
        fitted = fit_for_hct(hct)
        assert abs(fitted.m - m) / m < 0.05, \
            f"hct {hct:g}: m {fitted.m} vs published {m}"
        assert abs(fitted.n - n) / n < 0.05, \
            f"hct {hct:g}: n {fitted.n} vs published {n}"

    rng = np.random.default_rng(5)
    for _ in range(5):
        m = float(rng.uniform(5e-3, 6e-2))
        n = float(rng.uniform(0.5, 0.9))
        rates = np.linspace(1.0, 900.0, 40)
        samples = [ViscositySample(shear_rate=g, viscosity=m * g ** (n - 1))
                   for g in rates]
        fitted = fit_power_law(samples)
        assert abs(fitted.m - m) / m < 1e-8 and abs(fitted.n - n) / n < 1e-8, \
            f"exact model (m={m:.4g}, n={n:.4g}) not recovered: " \
            f"({fitted.m:.10g}, {fitted.n:.10g})"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"
    print(f"[criterion 2] PASS ({elapsed:.2f} s): knots within 5%, "
          "exact models within 1e-8")


def test_criterion_3_pipe_flow_oracle():
    # wall-mean WSS within 5% at the default resolution, order >= 1 under
    # refinement; Newtonian total energy loss = Q dP within 10%; < 1 min
    start = time.perf_counter()
    drop = 100.0
    tau = drop * RADIUS / (2.0 * LENGTH)
    params = PowerLawParams(m=2.42e-2, n=0.72)

    errors = {}
    for res in (2, 3):  # 2 is the generator default
        mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=res)
        field = poiseuille_power_law(mesh, params, drop)
        gradients = recover_gradients(mesh, field.values[0])
        idx, normals = wall_normals(mesh)
        _, mag = wss(gradients[idx], normals, params)
        errors[res] = abs(mag.mean() - tau) / tau
    assert errors[2] < 0.05, \
        f"default-resolution wall-mean WSS off by {errors[2]:.2%}"
    order = float(np.log2(errors[2] / errors[3]))
    assert order >= 1.0, f"refinement order {order:.2f} below 1"

    newt = PowerLawParams(m=3.5e-3, n=1.0)
    mesh = generate_pipe_mesh(RADIUS, LENGTH)
    gradients = recover_gradients(mesh,
                                  poiseuille_power_law(mesh, newt,
                                                       drop).values[0])
    total = energy_loss_rate(gradients, newt, nodal_volumes(mesh)).sum() / 1e6
    pump = np.pi * RADIUS**4 * drop / (8.0 * newt.m * LENGTH) * drop
    el_err = abs(total - pump) / pump
    assert el_err < 0.10, f"total energy loss off by {el_err:.2%}"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s exceeds 1 min"
    print(f"[criterion 3] PASS ({elapsed:.1f} s): WSS err {errors[2]:.2%}, "
          f"order {order:.2f}, energy err {el_err:.2%}")


def test_criterion_4_osi_properties():
    start = time.perf_counter()
    period = 0.9

    steady = np.tile(np.array([[0.7, -0.1, 0.2]]), (10, 50, 1))
    times = np.linspace(0.0, 0.8, 10)
    worst = osi(steady, times, period).max()
    assert worst < 1e-12, f"steady OSI {worst:.2e}"

    d = np.array([0.5, 0.3, -0.8])
    rev_times = np.arange(16) / 16 * period
    reversing = np.sin(2 * np.pi * rev_times / period)[:, None, None] \
        * d[None, None, :]
    rev_err = np.abs(osi(reversing, rev_times, period) - 0.5).max()
    assert rev_err < 1e-12, f"reversing OSI off by {rev_err:.2e}"

    rng = np.random.default_rng(17)
    random_series = rng.normal(size=(24, 1000, 3))
    rand_times = np.sort(rng.uniform(0.0, 0.88, size=24))
    values = osi(random_series, rand_times, period)
    assert values.shape == (1000,)
    assert np.all((values >= 0.0) & (values <= 0.5)), \
        f"OSI outside [0, 0.5]: [{values.min()}, {values.max()}]"

    def history(t):
        w = 2 * np.pi * t / period
        return np.stack([np.cos(w) + 0.4 * np.cos(2 * w),
                         np.sin(w) - 0.2,
                         0.3 * np.sin(2 * w) + 0.1], axis=-1)

    coarse_t = np.arange(16) / 16 * period
    fine_t = np.arange(256) / 256 * period
    coarse = osi(history(coarse_t)[:, None, :], coarse_t, period)[0]
    fine = osi(history(fine_t)[:, None, :], fine_t, period)[0]
    assert abs(coarse - fine) < 1e-3, \
        f"quadrature refinement moved OSI by {abs(coarse - fine):.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeds 10 s"
    print(f"[criterion 4] PASS ({elapsed:.1f} s): steady 0, reversing 0.5, "
          "1000 random in range, refinement stable")


def test_criterion_5_mri_round_trip():
    # uniform decode < 1e-3 VENC; 1.1 VENC wraps to -0.9 VENC;
    # TE = 1.66 +- 0.05 ms; sigma 0.052 -> magnitude SNR 13.5 +- 10%;
    # runtime < 5 min at the reduced 28 x 16 x 56 matrix
    start = time.perf_counter()

    te = sequence_timings(SequenceParams()).echo_time
    assert abs(te - 1.66e-3) < 0.05e-3, f"TE {te * 1e3:.3f} ms"

    # 1 mm offset aligns the 20 x 16 x 8 mm block with voxel boundaries
    params = SequenceParams(matrix=(28, 16, 56),
                            fov_center=(0.001, 0.001, 0.001))
    mesh = snr_phantom()
    m0 = np.ones(mesh.n_vertices)
    venc = params.venc

    def uniform_field(u):
        return VelocityField(
            times=np.array([0.0]),
            values=np.tile(np.asarray(u, dtype=float),
                           (1, mesh.n_vertices, 1)))

    truth = np.array([0.6, 0.3, -0.2]) * venc
    clean_k = synthesize_frame(mesh, m0, uniform_field(truth), params)
    clean_img = reconstruct(clean_k)
    decoded = phase_to_velocity(clean_img)
    block = decoded.magnitude > 0.5 * decoded.magnitude.max()
    assert block.sum() > 100, f"block mask holds only {block.sum()} voxels"
    errs = np.abs(decoded.velocity[block] - truth)
    assert errs.max() < 1e-3 * venc, \
        f"uniform decode error {errs.max():.3e} m/s vs {1e-3 * venc:.3e}"

    wrap_k = synthesize_frame(mesh, m0,
                              uniform_field([1.1 * venc, 0.0, 0.0]), params)
    wrap_vals = phase_to_velocity(reconstruct(wrap_k)).velocity[block][:, 0]
    assert np.abs(wrap_vals + 0.9 * venc).max() < 1e-2 * venc, \
        f"1.1 VENC decoded to {wrap_vals.mean():.3f}, expected -0.9 VENC"

    # signal plateau: voxel centers a full voxel inside every block face,
    # clear of the truncation ringing that rings the faces themselves
    centers = np.meshgrid(*params.axis_coordinates(), indexing="ij")
    deep = np.ones(params.matrix, dtype=bool)
    for dim, half in enumerate((0.010, 0.008, 0.004)):
        deep &= np.abs(centers[dim]) < half - params.voxel[dim]
    assert deep.sum() == 96, f"plateau mask holds {deep.sum()} voxels"

    sigma_fraction = 0.052
    noisy_img = reconstruct(add_noise(clean_k, sigma_fraction, seed=2024))
    signal = np.abs(clean_img.volumes["ref"][deep]).mean()
    noise = (noisy_img.volumes["ref"] - clean_img.volumes["ref"]).real.std()
    snr = signal / noise
    assert abs(snr - 13.5) / 13.5 < 0.10, \
        f"magnitude SNR {snr:.2f}, expected 13.5 +- 10%"

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f} s exceeds 5 min"
    print(f"[criterion 5] PASS ({elapsed:.1f} s): TE {te * 1e3:.3f} ms, "
          f"decode err {errs.max():.2e} m/s, SNR {snr:.2f}")


def test_criterion_6_windkessel():
    # RK4 decay error < 1e-8 at dt = tau/1000; order 4 +- 0.2;
    # reference outlet reaches periodic steady state within 5 cycles
    start = time.perf_counter()
    rd, c = 2000.0, 5e-4
    tau = rd * c
    p0 = 1.0e5
    decay = WindkesselParams(proximal_resistance=0.0, distal_resistance=rd,
                             compliance=c, initial_distal_pressure=p0)

    no_flow = FlowWaveform(times=[0.0, 0.5 * tau], values=[0.0, 0.0],
                           period=tau)
    trace = simulate_windkessel(decay, no_flow, n_cycles=1,
                                steps_per_cycle=1000)
    err = abs(trace.distal_pressure[-1] - p0 / np.e) / (p0 / np.e)
    assert err < 1e-8, f"decay error {err:.2e} at dt = tau/1000"

    errors = []
    for steps in (25, 50, 100):
        t = simulate_windkessel(decay, no_flow, n_cycles=1,
                                steps_per_cycle=steps)
        errors.append(abs(t.distal_pressure[-1] - p0 / np.e))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    for order in orders:
        assert abs(order - 4.0) < 0.2, f"convergence order {order:.2f}"

    wave = demo_outlet_flow()
    cycle_means = []
    for cycles in (4, 5):
        t = simulate_windkessel(REFERENCE_OUTLET, wave, n_cycles=cycles,
                                steps_per_cycle=1000)
        cycle_means.append(np.trapezoid(t.distal_pressure, t.times)
                           / (t.times[-1] - t.times[0]))
    drift = abs(cycle_means[1] - cycle_means[0]) / cycle_means[1]
    assert drift < 1e-3, f"cycle 4 -> 5 mean pressure drift {drift:.2e}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s"
    print(f"[criterion 6] PASS ({elapsed:.1f} s): decay err {err:.1e}, "
          f"orders {orders[0]:.2f}/{orders[1]:.2f}, cycle drift {drift:.1e}")


def test_criterion_7_model_difference_property():
    # low-shear pipe at the highest-viscosity fit: per-vertex WSS and
    # energy-loss ratios equal mu_PL(gamma)/mu_N to 1e-6; comparison signs
    # follow "alternative greater -> positive"
    start = time.perf_counter()
    params = PowerLawParams(m=5.40e-2, n=0.63)
    mu_newt = 3.5e-3
    newt = PowerLawParams(m=mu_newt, n=1.0)
    drop = 2.0 * params.m * LENGTH * 10.0 ** params.n / RADIUS
    mesh = generate_pipe_mesh(RADIUS, LENGTH)
    field = poiseuille_power_law(mesh, params, drop)
    gradients = recover_gradients(mesh, field.values[0])
    idx, normals = wall_normals(mesh)
    volumes = nodal_volumes(mesh)

    wall_rates = shear_rate(gradients[idx])
    assert 5.0 < np.median(wall_rates) < 20.0, \
        f"wall shear rate {np.median(wall_rates):.1f} not near 10 1/s"

    _, mag_pl = wss(gradients[idx], normals, params)
    _, mag_nf = wss(gradients[idx], normals, newt)
    el_pl = energy_loss_rate(gradients[idx], params, volumes[idx])
    el_nf = energy_loss_rate(gradients[idx], newt, volumes[idx])
    expected = apparent_viscosity(params, wall_rates) / mu_newt
    wss_dev = np.abs(mag_pl / mag_nf - expected) / expected
    el_dev = np.abs(el_pl / el_nf - expected) / expected
    assert wss_dev.max() < 1e-6, f"WSS ratio deviates {wss_dev.max():.2e}"
    assert el_dev.max() < 1e-6, f"energy ratio deviates {el_dev.max():.2e}"
    assert np.all(expected > 1.0), "low shear must favor the power law"

    cuts = [CutPlane(point=(0, 0, f * LENGTH), normal=(0, 0, 1))
            for f in (0.25, 0.5, 0.75)]
    labels = segment_labels(mesh, cuts)[idx]
    names = segment_names(4)
    ref = segment_stats(mag_pl, labels, names, parameter="wss")
    alt = segment_stats(mag_nf, labels, names, parameter="wss")
    rows = compare_models(ref, alt)
    assert all(r["relative_difference_pct"] < 0 for r in rows), \
        "Newtonian 3.5e-3 is smaller here, so signs must be negative"
    flipped = compare_models(alt, ref)
    assert all(r["relative_difference_pct"] > 0 for r in flipped), \
        "greater alternative must be positive"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f} s"
    print(f"[criterion 7] PASS ({elapsed:.1f} s): max ratio deviation "
          f"{max(wss_dev.max(), el_dev.max()):.2e}, signs consistent")


def test_criterion_8_pipeline_determinism(tmp_path):
    # two identical default-config runs produce bit-identical statistics
    start = time.perf_counter()
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        cfg = load_config(None, {("paths", "output_dir"): str(out)})
        run_pipeline(cfg)
        outputs.append(out)
    stats = [(p / "stats.csv").read_bytes() for p in outputs]
    assert stats[0] == stats[1], "stats CSVs differ between identical runs"
    cmp_tables = [(p / "comparison.csv").read_bytes() for p in outputs]
    assert cmp_tables[0] == cmp_tables[1], "comparison CSVs differ"

    elapsed = time.perf_counter() - start
    print(f"[criterion 8] PASS ({elapsed:.1f} s): stats and comparison "
          "CSVs bit-identical")
