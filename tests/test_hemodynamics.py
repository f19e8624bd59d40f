"""Tests for gradient recovery, WSS, OSI, energy loss, and aggregation."""

import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

import hemoflow
from hemoflow.cli import main
from hemoflow.errors import ValidationError
from hemoflow.hemodynamics import (
    GradientOperator,
    SegmentStats,
    TrilinearWeights,
    _deviator_contraction,
    _strain,
    compare_models,
    energy_loss_rate,
    export_fields_vtk,
    frame_biomarkers,
    interpolate_to_mesh,
    osi,
    recover_gradients,
    segment_stats,
    shear_rate,
    viscosity_at,
    write_comparison_csv,
    write_stats_csv,
    wss,
)
from hemoflow.flowfields import poiseuille_power_law
from hemoflow.mesh import (
    CutPlane,
    TetMesh,
    generate_box_mesh,
    generate_pipe_mesh,
    load_mesh,
    nodal_volumes,
    segment_labels,
    segment_names,
    tet_volumes,
    wall_normals,
)
from hemoflow.mri import ReconstructedVelocity, SequenceParams
from hemoflow.pipeline import Estimator, fit_models, load_config, \
    read_stats, stage_estimate, stage_flow, stage_mesh, systolic_frame, \
    _written_cross_mean
from hemoflow.rheology import PowerLawParams, apparent_viscosity

RADIUS, LENGTH, DROP = 0.01, 0.1, 100.0
NEWT = PowerLawParams(m=3.5e-3, n=1.0)
HCT45 = PowerLawParams(m=2.42e-2, n=0.72)


def wall_tau(drop=DROP):
    return drop * RADIUS / (2.0 * LENGTH)


def analytic_flow(params, drop=DROP):
    n, m = params.n, params.m
    return (n / (3.0 * n + 1.0)) * np.pi * RADIUS**3 * (
        drop * RADIUS / (2.0 * m * LENGTH)) ** (1.0 / n)


# =========================================================================
# Gradient recovery
# =========================================================================

def test_linear_fields_recover_their_gradient_exactly():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        u = mesh.vertices @ A.T + b
        G = recover_gradients(mesh, u)
        err = np.abs(G - A).max()
        assert err < 1e-10, f"linear field gradient off by {err:.2e}"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       divisions=st.tuples(*[st.integers(1, 4)] * 3))
def test_affine_fields_are_exact_on_affinely_mapped_boxes(seed, divisions):
    """u = A x + b on any well-conditioned affine image of a box mesh."""
    rng = np.random.default_rng(seed)
    box = generate_box_mesh((1.0, 1.0, 1.0), divisions)
    # a rotation times a stretch in [0.5, 2]: condition number at most 4,
    # and a positive determinant keeps every tet positively oriented
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    M = 0.01 * q @ np.diag(rng.uniform(0.5, 2.0, size=3))
    mesh = TetMesh(vertices=box.vertices @ M.T + rng.normal(size=3),
                   tets=box.tets, boundary_faces=box.boundary_faces,
                   boundary_labels=box.boundary_labels)
    A = rng.normal(size=(4, 3, 3)) * 100.0
    b = rng.normal(size=(4, 3))
    frames = np.einsum("fij,vj->fvi", A, mesh.vertices) + b[:, None]
    scale = np.abs(A).max()
    for frame, a in zip(frames, A):
        gradients = recover_gradients(mesh, frame)
        assert gradients.shape == (mesh.n_vertices, 3, 3)
        assert np.abs(gradients - a).max() <= 1e-10 * scale


def test_stacked_frames_are_refused():
    """Gradient recovery takes one frame (N, 3) per call."""
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=0)
    operator = GradientOperator(mesh)
    frames = np.random.default_rng(3).normal(size=(3, mesh.n_vertices, 3))
    for stack in (frames, frames[:1]):
        with pytest.raises(ValidationError):
            recover_gradients(mesh, stack)
        with pytest.raises(ValidationError):
            operator.apply(stack)


def test_uniform_field_has_exactly_zero_gradient():
    """The difference form sum_k (u_k - u_0) W_k cancels a constant exactly,
    where summing u_k W_k over all four corners left roundoff."""
    meshes = [generate_pipe_mesh(RADIUS, LENGTH, resolution=r)
              for r in (0, 1, 2)]
    meshes.append(generate_box_mesh((0.02, 0.03, 0.01), (3, 2, 4)))
    for mesh in meshes:
        u = np.broadcast_to([0.31, -1.7, 2.2], (mesh.n_vertices, 3))
        assert np.all(recover_gradients(mesh, u) == 0.0)


def test_gradients_equal_add_at_reference():
    """The per-mesh weights agree with per-tet 3x3 solves summed by add.at.

    The oracle solves each tet's edge system and sums corner by corner
    with four add.at passes; the operator's closed-form weights round
    differently, so the two agree to 1e-12 of the largest entry.
    """
    for resolution in (1, 2):
        mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=resolution)
        u = np.random.default_rng(4).normal(size=(mesh.n_vertices, 3))
        corners = mesh.vertices[mesh.tets]
        du = u[mesh.tets]
        grad = np.linalg.solve(corners[:, 1:] - corners[:, :1],
                               du[:, 1:] - du[:, :1]).transpose(0, 2, 1)
        vol = tet_volumes(mesh)
        share = vol[:, None, None] * grad / 4.0
        accum = np.zeros((mesh.n_vertices, 3, 3))
        for corner in range(4):
            np.add.at(accum, mesh.tets[:, corner], share)
        lumped = np.zeros(mesh.n_vertices)
        np.add.at(lumped, mesh.tets.ravel(), np.repeat(vol / 4.0, 4))
        want = accum / lumped[:, None, None]
        err = np.abs(recover_gradients(mesh, u) - want).max()
        assert err <= 1e-12 * np.abs(want).max(), \
            f"resolution {resolution}: off by {err:.2e}"


def test_operator_volumes_equal_nodal_volumes():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    operator = GradientOperator(mesh)
    assert np.array_equal(operator.nodal_volumes, nodal_volumes(mesh))
    for u in np.random.default_rng(5).normal(size=(2, mesh.n_vertices, 3)):
        assert np.array_equal(recover_gradients(mesh, u, operator),
                              recover_gradients(mesh, u))


@pytest.mark.parametrize("name", ["pipe0", "pipe1", "pipe2", "box3",
                                  "tilted_pipe1"])
def test_operator_equals_cross_product_reference(name):
    """Weights and lumped volumes bit for bit as the (T, 3) row formulas
    np.cross(...) / 24 and an add.at scatter of e1 . (e2 x e3) / 6, summed
    x, y, z. The tilted pipe has no zero edge coordinate, so it pins the
    order of the sum."""
    if name == "box3":
        mesh = generate_box_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    else:
        mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=int(name[-1]))
    if name.startswith("tilted"):
        q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))
        rotation = q * np.sign(np.linalg.det(q))
        mesh = TetMesh(mesh.vertices @ rotation.T, mesh.tets,
                       mesh.boundary_faces, mesh.boundary_labels)
    v = mesh.vertices[mesh.tets]
    e1, e2, e3 = (v[:, k] - v[:, 0] for k in (1, 2, 3))
    weights = np.stack([np.cross(e2, e3), np.cross(e3, e1),
                        np.cross(e1, e2)]).transpose(0, 2, 1) / 24.0
    terms = e1 * np.cross(e2, e3)
    vol = (terms[:, 0] + terms[:, 1] + terms[:, 2]) / 6.0
    lumped = np.zeros(mesh.n_vertices)
    np.add.at(lumped, mesh.tets.ravel(), np.repeat(vol / 4.0, 4))
    operator = GradientOperator(mesh)
    assert np.array_equal(operator.weights, weights)
    assert np.array_equal(operator.nodal_volumes, lumped)


def test_apply_equals_the_difference_form_expression():
    """The in-place gathers and sums keep the operation order of
    sum_k (u_k - u_0) W_k: bit for bit, frame by frame."""
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    operator = GradientOperator(mesh)
    frames = np.random.default_rng(8).normal(size=(2, mesh.n_vertices, 3))
    w1, w2, w3 = operator.weights
    t0, t1, t2, t3 = mesh.tets.T
    for frame in frames:
        want = np.empty((mesh.n_vertices, 3, 3))
        for i, u in enumerate(frame.T):
            d1, d2, d3 = u[t1] - u[t0], u[t2] - u[t0], u[t3] - u[t0]
            for j in range(3):
                share = d1 * w1[j] + d2 * w2[j] + d3 * w3[j]
                accum = np.bincount(t0, share, minlength=mesh.n_vertices)
                for t in (t1, t2, t3):
                    accum += np.bincount(t, share, minlength=mesh.n_vertices)
                want[:, i, j] = accum / operator.nodal_volumes
        assert np.array_equal(operator.apply(frame), want)


def traced_peak(call):
    """The result of ``call()`` and the traced peak it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gradient_operator_build_memory_follows_what_it_keeps():
    # the 57,600-tet pipe: whole-mesh (3, 3, T) edges beside the crosses
    # once took building to 1.6 times what the operator keeps (9.3 MB);
    # the edges now come a chunk at a time
    pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution=2)
    operator, peak = traced_peak(lambda: GradientOperator(pipe))
    kept = sum(a.nbytes for a in (operator.weights, operator.nodal_volumes,
                                  *operator._corners))
    assert peak < 1.4 * kept, \
        f"build peak {peak / 2**20:.2f} MB keeping {kept / 2**20:.2f} MB"


def test_gradient_apply_memory_is_its_result_and_buffers():
    # on the 57,600-tet pipe apply's temporaries once took 4.6 MB for a
    # 0.74 MB result; it now fills five per-tet buffers in place (the
    # product terms reuse u_0's), and the transposed frame and one
    # column's bincount sums add under 0.75 MB
    pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution=2)
    operator = GradientOperator(pipe)
    u = np.random.default_rng(9).normal(size=(pipe.n_vertices, 3))
    gradients, peak = traced_peak(lambda: operator.apply(u))
    buffers = 5 * pipe.n_tets * 8
    bound = gradients.nbytes + buffers + 0.75 * 2**20
    assert peak < bound, (
        f"apply peak {peak / 2**20:.2f} MB for a {gradients.nbytes / 2**20:.2f}"
        f" MB result and {buffers / 2**20:.2f} MB of buffers")


def test_operator_of_another_mesh_is_rejected():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    twin = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    with pytest.raises(ValidationError):
        recover_gradients(mesh, np.zeros((mesh.n_vertices, 3)),
                          GradientOperator(twin))


def test_rigid_rotation_has_no_shear():
    mesh = generate_box_mesh((0.02,) * 3, (3, 3, 3))
    omega = np.array([0.3, -1.1, 0.7])
    u = np.cross(omega, mesh.vertices)
    rate = shear_rate(recover_gradients(mesh, u))
    assert rate.max() < 1e-10, "rigid rotation produced spurious shear"


def test_gradient_shape_validation():
    mesh = generate_box_mesh((0.02,) * 3, (2, 2, 2))
    with pytest.raises(ValidationError):
        recover_gradients(mesh, np.zeros((mesh.n_vertices, 2)))
    with pytest.raises(ValidationError):
        recover_gradients(mesh, np.zeros((2, mesh.n_vertices + 1, 3)))


# =========================================================================
# Wall shear stress
# =========================================================================

def test_traction_of_simple_shear_is_closed_form():
    # u = (g*y, 0, 0), wall normal +y: t = 2 mu eps n = (mu*g, 0, 0)
    g, mu = 250.0, 4.0e-3
    G = np.array([[[0.0, g, 0.0], [0.0] * 3, [0.0] * 3]])
    normal = np.array([[0.0, 1.0, 0.0]])
    traction, mag = wss(G, normal, PowerLawParams(m=mu, n=1.0))
    assert np.allclose(traction, [[mu * g, 0.0, 0.0]], atol=1e-15)
    assert np.allclose(mag, mu * g)
    # same gradients with a power-law viscosity: mu(g) replaces mu
    traction_pl, _ = wss(G, normal, HCT45)
    mu_pl = apparent_viscosity(HCT45, g)
    assert np.allclose(traction_pl, [[mu_pl * g, 0.0, 0.0]], rtol=1e-12)


def test_pipe_wall_mean_wss_matches_force_balance():
    # wall momentum balance: |t| = dP R / (2 L) regardless of rheology
    errors = {}
    for res in (1, 2):
        mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=res)
        field = poiseuille_power_law(mesh, NEWT, DROP)
        G = recover_gradients(mesh, field.values[0])
        idx, normals = wall_normals(mesh)
        _, mag = wss(G[idx], normals, NEWT)
        errors[res] = abs(mag.mean() - wall_tau()) / wall_tau()
    assert errors[2] < 0.05, f"wall-mean WSS off by {errors[2]:.2%}"
    order = np.log2(errors[1] / errors[2])
    assert order >= 1.0, f"wall WSS error order {order:.2f} under refinement"


def test_pipe_wall_shear_rate_matches_analytic():
    # gamma_w = (dP R / (2 m L))**(1/n), equal to (3n+1)/(4n) * 8 ubar / D
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=2)
    field = poiseuille_power_law(mesh, HCT45, DROP)
    G = recover_gradients(mesh, field.values[0])
    idx, _ = wall_normals(mesh)
    gamma_w = (DROP * RADIUS / (2.0 * HCT45.m * LENGTH)) ** (1.0 / HCT45.n)
    mean_rate = shear_rate(G[idx]).mean()
    assert abs(mean_rate - gamma_w) / gamma_w < 0.05, (
        f"wall shear rate {mean_rate:.1f} vs analytic {gamma_w:.1f}")


def test_wss_scales_linearly_with_viscosity():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    field = poiseuille_power_law(mesh, NEWT, DROP)
    G = recover_gradients(mesh, field.values[0])
    idx, normals = wall_normals(mesh)
    _, mag1 = wss(G[idx], normals, PowerLawParams(m=3.5e-3, n=1.0))
    _, mag2 = wss(G[idx], normals, PowerLawParams(m=7.0e-3, n=1.0))
    assert np.allclose(mag2, 2.0 * mag1, rtol=1e-14)


def test_wss_input_validation():
    G = np.zeros((4, 3, 3))
    with pytest.raises(ValidationError):
        wss(G, np.zeros((3, 3)), NEWT)
    with pytest.raises(ValidationError):
        wss(G, np.full((4, 3), 2.0), NEWT)  # not unit length


# =========================================================================
# OSI
# =========================================================================

def test_osi_steady_traction_is_zero():
    frames = np.tile(np.array([[1.3, -0.2, 0.4]]), (8, 5, 1))
    times = np.linspace(0.0, 0.7, 8)
    values = osi(frames, times, period=0.8)
    assert np.all(values < 1e-12), "steady shear must have OSI 0"


def test_osi_reversing_traction_is_half():
    d = np.array([0.8, 0.1, -0.3])
    # sinusoidal reversal: the period integral of the direction vanishes
    times = np.linspace(0.0, 0.9, 16, endpoint=False)
    frames = np.sin(2 * np.pi * times / 0.9)[:, None, None] * d[None, None, :]
    values = osi(frames, times, period=0.9)
    assert np.all(np.abs(values - 0.5) < 1e-12)
    # two-frame square alternation is also exactly 0.5 under the trapezoid
    frames2 = np.stack([np.tile(d, (3, 1)), np.tile(-d, (3, 1))])
    values2 = osi(frames2, np.array([0.0, 0.45]), period=0.9)
    assert np.all(np.abs(values2 - 0.5) < 1e-12)


def test_osi_random_histories_stay_in_range():
    rng = np.random.default_rng(42)
    frames = rng.normal(size=(20, 1000, 3))
    times = np.sort(rng.uniform(0.0, 0.93, size=20))
    values = osi(frames, times, period=0.95)
    assert values.shape == (1000,)
    assert np.all(values >= 0.0) and np.all(values <= 0.5)


@st.composite
def traction_histories(draw):
    """(tractions, times, period): 2-8 frames over 1-5 wall vertices."""
    frames = draw(st.integers(2, 8))
    vertices = draw(st.integers(1, 5))
    # multiples of 1/64: no underflow when squared or scaled
    values = draw(st.lists(st.integers(-640, 640),
                           min_size=frames * vertices * 3,
                           max_size=frames * vertices * 3))
    gaps = draw(st.lists(st.floats(0.01, 0.5), min_size=frames,
                         max_size=frames))
    tractions = np.array(values, dtype=float).reshape(frames, vertices, 3)
    times = np.cumsum([0.0, *gaps[:-1]])
    return tractions / 64.0, times, times[-1] + gaps[-1]


@settings(max_examples=200, deadline=None)
@given(history=traction_histories(), factor=st.floats(1e-3, 1e3))
def test_osi_is_bounded_and_scale_free(history, factor):
    tractions, times, period = history
    value = osi(tractions, times, period)
    assert np.all((value >= 0.0) & (value <= 0.5))
    scaled = osi(factor * tractions, times, period)
    assert np.abs(scaled - value).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(history=traction_histories())
def test_osi_of_one_direction_is_zero(history):
    """Tractions along one fixed direction never oscillate: OSI = 0,
    up to roundoff, so the final clip to [0, 0.5] hides no error."""
    tractions, times, period = history
    direction = np.array([0.6, -0.8, 0.0])
    along = np.abs(tractions[..., :1]) * direction
    assert np.abs(osi(along, times, period)).max() <= 1e-12


def test_osi_zero_history_reports_zero():
    frames = np.zeros((6, 4, 3))
    times = np.linspace(0.0, 0.5, 6)
    assert np.all(osi(frames, times, period=0.6) == 0.0)


def test_osi_converges_under_time_refinement():
    period = 0.8

    def history(t):
        # smooth periodic loop with unequal lobes
        w = 2 * np.pi * t / period
        return np.stack([np.cos(w) + 0.4 * np.cos(2 * w),
                         np.sin(w) - 0.2,
                         0.3 * np.sin(2 * w) + 0.1], axis=-1)

    coarse_t = np.arange(16) / 16 * period
    fine_t = np.arange(128) / 128 * period
    coarse = osi(history(coarse_t)[:, None, :], coarse_t, period)
    fine = osi(history(fine_t)[:, None, :], fine_t, period)
    assert abs(coarse[0] - fine[0]) < 1e-3, (
        f"OSI drifted {abs(coarse[0] - fine[0]):.2e} under refinement")


def test_osi_invariant_under_traction_scaling():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(12, 40, 3))
    times = np.linspace(0.0, 0.8, 12)
    a = osi(frames, times, period=0.85)
    b = osi(5.0 * frames, times, period=0.85)
    assert np.allclose(a, b, atol=1e-14)


def test_osi_input_validation():
    frames = np.zeros((4, 2, 3))
    good_t = np.linspace(0.0, 0.6, 4)
    with pytest.raises(ValidationError):
        osi(frames[:, :, :2], good_t, 0.8)
    with pytest.raises(ValidationError):
        osi(frames, good_t[:3], 0.8)
    with pytest.raises(ValidationError):
        osi(frames, good_t[::-1], 0.8)
    with pytest.raises(ValidationError):
        osi(frames, good_t, 0.5)  # frames span a full period


@pytest.mark.parametrize("resolution", [0, 1])
def test_pipeline_flow_has_zero_osi(tmp_path, resolution):
    # stage flow's field is a positive waveform times one steady axial
    # profile, so no wall traction ever turns: fed to the estimator of
    # stage estimate as arrays, its OSI is exactly 0 at every wall vertex
    # for every model, and any OSI a run reports comes from the
    # acquisition. The systole it writes is the waveform's peak, frame 1
    cfg = load_config(overrides={("pipe", "resolution"): resolution})
    fitted = fit_models(cfg)
    mesh = stage_mesh(cfg)
    field, flows = stage_flow(cfg, mesh, fitted["power_law"], tmp_path)
    estimator = Estimator(cfg, fitted, mesh)
    for velocity in field.values:
        estimator.add(velocity)
    estimator.write(field.times, tmp_path)
    assert len(estimator.tractions) == 3
    for name, history in estimator.tractions.items():
        values = osi(np.stack(history), field.times, cfg.period)
        assert values.shape == estimator.wall_idx.shape
        assert np.all(values == 0.0), \
            f"{name}: OSI up to {values.max():.2e} on a flow that never turns"
    blocks, systolic = read_stats(tmp_path / "stats.csv", cfg.reference_model)
    assert systolic == np.argmax(flows) == 1
    for name in estimator.models:
        assert blocks[f"osi:{name}", None].means == [0.0] * 4, name


# =========================================================================
# Energy loss rate
# =========================================================================

def test_energy_loss_zero_for_zero_field():
    G = np.zeros((10, 3, 3))
    V = np.full(10, 1e-9)
    assert np.all(energy_loss_rate(G, NEWT, V) == 0.0)


def test_energy_loss_of_simple_shear_is_exact():
    # u = (g*y, 0, 0): density 2 mu eps:eps = mu g^2, no dilatation
    mesh = generate_box_mesh((0.02,) * 3, (3, 3, 3))
    g, mu = 180.0, 4.0e-3
    u = np.stack([g * mesh.vertices[:, 1],
                  np.zeros(mesh.n_vertices),
                  np.zeros(mesh.n_vertices)], axis=1)
    G = recover_gradients(mesh, u)
    V = nodal_volumes(mesh)
    el = energy_loss_rate(G, PowerLawParams(m=mu, n=1.0), V)
    expected = mu * g**2 * 0.02**3 * 1e6
    assert abs(el.sum() - expected) / expected < 1e-10


def test_energy_loss_dilatation_coefficient():
    # pure dilation u = a x: eps = a I, div = 3a
    a, mu = 50.0, 2.0e-3
    G = np.tile(a * np.eye(3), (6, 1, 1))
    V = np.full(6, 2e-8)
    el = energy_loss_rate(G, PowerLawParams(m=mu, n=1.0), V)
    expected = 6.0 * mu * a**2 * V * 1e6
    assert np.allclose(el, expected, rtol=1e-12)


def test_pipe_total_energy_loss_matches_pump_power():
    # steady Newtonian pipe: total dissipation = Q * dP
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=2)
    field = poiseuille_power_law(mesh, NEWT, DROP)
    G = recover_gradients(mesh, field.values[0])
    el = energy_loss_rate(G, NEWT, nodal_volumes(mesh))
    total_w = el.sum() / 1e6
    pump = analytic_flow(NEWT) * DROP
    assert abs(total_w - pump) / pump < 0.10, (
        f"dissipation {total_w:.4e} W vs pump power {pump:.4e} W")


def test_energy_loss_scales_linearly_with_viscosity():
    rng = np.random.default_rng(11)
    G = rng.normal(size=(20, 3, 3))
    V = rng.uniform(1e-10, 1e-8, size=20)
    double = PowerLawParams(m=7.0e-3, n=1.0)
    assert np.allclose(energy_loss_rate(G, double, V),
                       2.0 * energy_loss_rate(G, NEWT, V), rtol=1e-14)


# =========================================================================
# Model-difference property (shared gradients)
# =========================================================================

def test_power_law_to_newtonian_ratio_is_exact_per_vertex():
    # low-shear pipe: mu_PL(10 1/s) well above 3.5e-3, same gradients
    params = PowerLawParams(m=5.40e-2, n=0.63)
    mu_newt = 3.5e-3
    newt = PowerLawParams(m=mu_newt, n=1.0)
    drop = 2.0 * params.m * LENGTH * 10.0 ** params.n / RADIUS
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    field = poiseuille_power_law(mesh, params, drop)
    G = recover_gradients(mesh, field.values[0])
    idx, normals = wall_normals(mesh)

    _, mag_pl = wss(G[idx], normals, params)
    _, mag_nf = wss(G[idx], normals, newt)
    el_pl = energy_loss_rate(G[idx], params, nodal_volumes(mesh)[idx])
    el_nf = energy_loss_rate(G[idx], newt, nodal_volumes(mesh)[idx])

    expected = apparent_viscosity(params, shear_rate(G[idx])) / mu_newt
    assert np.all(np.abs(mag_pl / mag_nf - expected) / expected < 1e-6)
    assert np.all(np.abs(el_pl / el_nf - expected) / expected < 1e-6)
    assert np.all(expected > 1.0), "low shear must favor the power law"


def test_frame_biomarkers_equal_wss_and_energy_loss_calls():
    """The shared per-frame pass gives every model's tractions, magnitudes,
    energy loss and viscosity bit for bit as the single-model functions
    do."""
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    rng = np.random.default_rng(21)
    steady = poiseuille_power_law(mesh, HCT45, DROP).values[0]
    frames = np.stack([scale * steady + rng.normal(scale=0.01,
                                                   size=steady.shape)
                       for scale in (0.2, 1.0, 0.6)])
    idx, normals = wall_normals(mesh)
    volumes = nodal_volumes(mesh)
    models = {"power_law": HCT45, "newtonian": NEWT,
              "thinning": PowerLawParams(m=5.4e-2, n=0.63)}
    for frame in frames:
        G = recover_gradients(mesh, frame)
        shared = frame_biomarkers(G, idx, normals, volumes, models)
        assert list(shared) == list(models)
        for name, model in models.items():
            traction, mag, el, mu = shared[name]
            want_traction, want_mag = wss(G[idx], normals, model)
            assert np.array_equal(traction, want_traction)
            assert np.array_equal(mag, want_mag)
            assert np.array_equal(el, energy_loss_rate(G, model, volumes))
            assert np.array_equal(mu, viscosity_at(model, G))


def test_in_place_strain_terms_equal_the_expressions():
    """``_strain`` halves G + G^T in its buffer and
    ``_deviator_contraction`` takes 2/3 div u off a copy's diagonal: bit
    for bit the expressions they replace, on noisy frames."""
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    rng = np.random.default_rng(22)
    steady = poiseuille_power_law(mesh, HCT45, DROP).values[0]
    frames = np.stack([scale * steady + rng.normal(scale=0.01,
                                                   size=steady.shape)
                       for scale in (0.2, 1.0)])
    for frame in frames:
        G = recover_gradients(mesh, frame)
        want = 0.5 * (G + np.swapaxes(G, -1, -2))
        strain = _strain(G)
        assert np.array_equal(strain, want)
        div = np.einsum("...ii->...", G)
        deviator = want - (2.0 / 3.0) * div[..., None, None] * np.eye(3)
        assert np.array_equal(
            _deviator_contraction(G, strain),
            np.einsum("...ij,...ij->...", deviator, deviator))


def test_frame_biomarkers_input_validation():
    mesh = generate_box_mesh((0.02,) * 3, (2, 2, 2))
    idx, normals = wall_normals(mesh)
    G = np.zeros((mesh.n_vertices, 3, 3))
    volumes = nodal_volumes(mesh)
    with pytest.raises(ValidationError):
        frame_biomarkers(G, idx, normals, volumes[1:], {"n": NEWT})
    with pytest.raises(ValidationError):
        frame_biomarkers(G, idx, 2.0 * normals, volumes, {"n": NEWT})
    with pytest.raises(ValidationError):
        frame_biomarkers(G, idx[1:], normals, volumes, {"n": NEWT})


# =========================================================================
# Aggregation
# =========================================================================

def test_segment_stats_basic_identities():
    values = np.array([1.0, 3.0, 5.0, 7.0, 11.0, -2.0])
    labels = np.array([0, 0, 1, 1, 1, -1])
    stats = segment_stats(values, labels, ["proximal", "distal"],
                          parameter="wss", frame=4)
    assert stats.counts == [2, 3]
    assert stats.means[0] == pytest.approx(2.0)
    assert stats.means[1] == pytest.approx(23.0 / 3.0)
    assert stats.stds[0] == pytest.approx(1.0)
    assert stats.cross_mean == pytest.approx((2.0 + 23.0 / 3.0) / 2.0)
    assert stats.segments[0] == "proximal" and stats.frame == 4


def test_segment_stats_empty_segment_is_missing_not_zero():
    stats = segment_stats(np.array([1.0, 2.0]), np.array([0, 0]),
                          ["a", "b"])
    assert stats.counts == [2, 0]
    assert stats.means[1] is None and stats.stds[1] is None
    assert stats.cross_mean == pytest.approx(1.5)


def test_segment_stats_on_pipe_bands():
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=1)
    cuts = [CutPlane(point=(0, 0, f * LENGTH), normal=(0, 0, 1))
            for f in (0.25, 0.5, 0.75)]
    labels = segment_labels(mesh, cuts)
    names = segment_names(4)
    stats = segment_stats(mesh.vertices[:, 2], labels, names, parameter="z")
    means = stats.means
    assert all(m is not None for m in means)
    assert all(means[i] < means[i + 1] for i in range(3)), (
        "band means must increase along the axis")
    for i, m in enumerate(means):
        lo, hi = i * 0.25 * LENGTH, (i + 1) * 0.25 * LENGTH
        assert lo <= m <= hi, f"band {i} mean {m} outside [{lo}, {hi}]"


def test_segment_stats_validation():
    with pytest.raises(ValidationError):
        segment_stats(np.zeros(3), np.zeros(4, dtype=int), ["a"])
    with pytest.raises(ValidationError):
        segment_stats(np.zeros(3), np.array([0, 1, 2]), ["a", "b"])


def test_compare_models_identical_inputs_are_all_zero():
    values = np.array([2.0, 4.0, 6.0])
    labels = np.array([0, 1, 1])
    stats = segment_stats(values, labels, ["a", "b"], parameter="wss")
    rows = compare_models(stats, stats)
    assert [r["segment"] for r in rows] == ["a", "b", "all"]
    assert all(r["absolute_difference"] == 0.0 for r in rows)
    assert all(r["relative_difference_pct"] == 0.0 for r in rows)


def test_compare_models_sign_and_magnitude():
    labels = np.array([0, 1])
    ref = segment_stats(np.array([2.0, 5.0]), labels, ["a", "b"])
    alt = segment_stats(np.array([4.0, 2.5]), labels, ["a", "b"])
    rows = compare_models(ref, alt)
    # alternative greater -> positive; smaller -> negative
    assert rows[0]["relative_difference_pct"] == pytest.approx(100.0)
    assert rows[1]["relative_difference_pct"] == pytest.approx(-50.0)
    assert rows[0]["absolute_difference"] == pytest.approx(2.0)


def test_compare_models_zero_reference_is_undefined():
    labels = np.array([0])
    ref = segment_stats(np.array([0.0]), labels, ["a"])
    alt = segment_stats(np.array([1.0]), labels, ["a"])
    rows = compare_models(ref, alt)
    assert rows[0]["relative_difference_pct"] is None
    assert rows[0]["absolute_difference"] == pytest.approx(1.0)


def test_compare_models_requires_matching_segments():
    s1 = segment_stats(np.array([1.0]), np.array([0]), ["a"])
    s2 = segment_stats(np.array([1.0]), np.array([0]), ["b"])
    with pytest.raises(ValidationError):
        compare_models(s1, s2)


# =========================================================================
# Voxel-to-mesh interpolation
# =========================================================================

def fake_voxels(matrix=(8, 8, 8), center=(0.0, 0.0, 0.0)):
    params = SequenceParams(matrix=matrix, fov_center=center)
    axes = params.axis_coordinates()
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    return params, (X, Y, Z)


def vertex_mesh(points):
    """A TetMesh whose vertices are ``points`` (8 or more), for
    interpolation, which reads nothing but the vertices."""
    box = generate_box_mesh((0.001,) * 3, (1, 1, 1))
    return TetMesh(vertices=points, tets=box.tets,
                   boundary_faces=box.boundary_faces,
                   boundary_labels=box.boundary_labels)


def test_interpolation_reproduces_linear_fields():
    params, (X, Y, Z) = fake_voxels()
    velocity = np.stack([0.5 + 2.0 * X - Y,
                         3.0 * Z + 0.1,
                         X + Y + Z], axis=-1)
    vox = ReconstructedVelocity(velocity=velocity,
                                magnitude=np.ones(params.matrix),
                                params=params, frame_time=0.25)
    mesh = generate_box_mesh((0.008,) * 3, (2, 2, 2), center=(-0.001,) * 3)
    values = interpolate_to_mesh(vox, mesh)
    x, y, z = mesh.vertices.T
    expected = np.stack([0.5 + 2.0 * x - y, 3.0 * z + 0.1, x + y + z], axis=1)
    assert np.allclose(values, expected, atol=1e-12)


def test_interpolation_equals_regular_grid_interpolator():
    """Same corner order and weights as scipy's linear method, bit for bit,
    for each phase, including vertices on the upper grid faces and just
    past them."""
    params = SequenceParams(matrix=(9, 7, 11), voxel=(0.002, 0.003, 0.0025),
                            fov_center=(0.001, -0.002, 0.0))
    axes = params.axis_coordinates()
    rng = np.random.default_rng(11)
    velocities = rng.normal(size=(3,) + params.matrix + (3,))
    frames = [ReconstructedVelocity(velocity=velocity,
                                    magnitude=np.ones(params.matrix),
                                    params=params, frame_time=0.1 * f)
              for f, velocity in enumerate(velocities)]
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    points = rng.uniform(lo, hi, size=(5000, 3))
    points[:500] = np.where(rng.random((500, 3)) < 0.5, hi, points[:500])
    points[500:1000] = np.where(rng.random((500, 3)) < 0.5, lo,
                                points[500:1000])
    points[1000:1100] = hi + 5e-13
    points[1100:1200] = np.array([ax[3] for ax in axes])   # on grid nodes
    mesh = vertex_mesh(points)
    for frame, velocity in zip(frames, velocities):
        values = interpolate_to_mesh(frame, mesh)
        want = np.column_stack([
            RegularGridInterpolator(axes, velocity[..., c], method="linear",
                                    bounds_error=False,
                                    fill_value=None)(points)
            for c in range(3)])
        assert np.array_equal(values, want)


@settings(max_examples=40, deadline=None)
@given(matrix=st.tuples(*[st.integers(2, 9)] * 3),
       voxel=st.tuples(*[st.floats(0.001, 0.004)] * 3),
       center=st.tuples(*[st.floats(-0.02, 0.02)] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_prepared_weights_equal_fresh_ones_and_scipy(matrix, voxel, center,
                                                      seed):
    """Weights built once interpolate every phase as a call that builds
    its own and as scipy's linear method, bit for bit: vertices inside
    the grid, on voxel centres, on its faces and within the 1e-12 m
    slack past them."""
    params = SequenceParams(matrix=matrix, voxel=voxel, fov_center=center)
    axes = params.axis_coordinates()
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    rng = np.random.default_rng(seed)
    points = rng.uniform(lo, hi, size=(64, 3))
    nodes = rng.integers(0, matrix, size=(16, 3))
    points[:16] = [[ax[i] for ax, i in zip(axes, node)] for node in nodes]
    edge = rng.random((2, 16, 3)) < 0.5
    points[16:32] = np.where(edge[0], hi + rng.uniform(0, 9e-13, (16, 3)),
                             points[16:32])
    points[32:48] = np.where(edge[1], lo - rng.uniform(0, 9e-13, (16, 3)),
                             points[32:48])
    mesh = vertex_mesh(points)
    weights = TrilinearWeights(mesh, params)
    for velocity in rng.normal(size=(2,) + matrix + (3,)):
        frame = ReconstructedVelocity(velocity=velocity,
                                      magnitude=np.ones(matrix),
                                      params=params)
        values = interpolate_to_mesh(frame, mesh, weights)
        assert np.array_equal(values, interpolate_to_mesh(frame, mesh))
        assert np.array_equal(values, np.column_stack([
            RegularGridInterpolator(axes, velocity[..., c], method="linear",
                                    bounds_error=False,
                                    fill_value=None)(points)
            for c in range(3)]))


@pytest.mark.parametrize("grid", [
    pytest.param(dict(matrix=(8, 8, 9)), id="shape"),
    pytest.param(dict(fov_center=(0.0, 0.0, 0.001)), id="fov-centre")])
def test_weights_of_another_grid_are_refused(grid):
    params, _ = fake_voxels()
    other = SequenceParams(**{"matrix": params.matrix, **grid})
    mesh = generate_box_mesh((0.004,) * 3, (1, 1, 1))
    frame = ReconstructedVelocity(
        velocity=np.zeros(other.matrix + (3,)),
        magnitude=np.ones(other.matrix), params=other)
    with pytest.raises(ValidationError, match="another image grid"):
        interpolate_to_mesh(frame, mesh, TrilinearWeights(mesh, params))


def test_weights_of_another_mesh_are_refused():
    params, _ = fake_voxels()
    frame = ReconstructedVelocity(velocity=np.zeros(params.matrix + (3,)),
                                  magnitude=np.ones(params.matrix),
                                  params=params)
    mesh = generate_box_mesh((0.004,) * 3, (1, 1, 1))
    twin = generate_box_mesh((0.004,) * 3, (1, 1, 1))
    with pytest.raises(ValidationError, match="another mesh"):
        interpolate_to_mesh(frame, twin, TrilinearWeights(mesh, params))


def scipy_modules_loaded_after(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter; it prints the scipy modules
    it loaded. The package runs on numpy alone: scipy is for tests."""
    code += ("\nprint(sorted(m for m in ('scipy', 'scipy.interpolate', "
             "'scipy.sparse') if m in sys.modules))")
    src = str(Path(hemoflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env=env).stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_interpolate_unloaded():
    assert scipy_modules_loaded_after("import sys, hemoflow.cli") == "[]"


def test_estimate_stage_leaves_scipy_sparse_unloaded(tmp_path):
    """Importing scipy.sparse costs about 14 MB of RSS; the gradient
    operator is plain numpy."""
    code = """\
import sys
from pathlib import Path
from hemoflow.pipeline import fit_models, load_config, stage_estimate, \\
    stage_flow, stage_mesh, stage_mri, stage_reconstruct
cfg = load_config(overrides={("flow", "cardiac_phases"): 2})
out = Path(sys.argv[1])
fitted = fit_models(cfg)
mesh = stage_mesh(cfg)
field, _ = stage_flow(cfg, mesh, fitted["power_law"], out)
images = stage_reconstruct(stage_mri(cfg, mesh, field, out), out)
stage_estimate(cfg, fitted, mesh, images, out)"""
    assert scipy_modules_loaded_after(code, str(tmp_path)) == "[]"
    assert (tmp_path / "stats.csv").exists()


@pytest.fixture(scope="module")
def default_images(tmp_path_factory):
    """The 8 image files of ``synth-mri`` on the default config."""
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth-mri", "--out", str(out)]) == 0
    images = sorted(out.glob("images_*.json"))
    assert len(images) == 8
    return images


@pytest.fixture(scope="module")
def estimate_peaks(default_images, tmp_path_factory):
    """The resolution-2 pipe and the traced peaks of stage estimate on
    its first 2 and all 8 default phases."""
    out = tmp_path_factory.mktemp("estimate")
    cfg = load_config()
    fitted = fit_models(cfg)
    pipe = generate_pipe_mesh(RADIUS, LENGTH, resolution=2)
    # an untraced call first, so one-off allocations such as lazy
    # imports fall in neither traced call
    stage_estimate(cfg, fitted, pipe, default_images[:2], out / "warm")
    peaks = {}
    for count in (2, 8):
        tracemalloc.start()
        try:
            stage_estimate(cfg, fitted, pipe, default_images[:count],
                           out / f"phases{count}")
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return pipe, peaks


def test_estimate_memory_does_not_grow_with_the_phases(estimate_peaks):
    # stage estimate on the 57,600-tet pipe takes one phase at a time.
    # Per phase it keeps the vertex velocities, every model's wall
    # traction and the reference model's magnitude, energy loss and
    # viscosity: about 0.52 MB here, under the 0.74 MB of one (N, 3, 3)
    # gradient tensor that a stack of the phases' gradients would hold
    pipe, peaks = estimate_peaks
    tensor = pipe.n_vertices * 9 * 8
    assert peaks[8] - peaks[2] < 6 * tensor, (
        f"traced peak grew from {peaks[2] / 2 ** 20:.2f} to "
        f"{peaks[8] / 2 ** 20:.2f} MB over 6 phases; one gradient tensor "
        f"is {tensor / 2 ** 20:.2f} MB")


def test_estimate_keeps_per_phase_only_the_wall_tractions(estimate_peaks):
    # across the phases stage estimate keeps every model's wall traction
    # (for OSI); the vertex velocities and the reference model's systolic
    # fields are held for one phase, not for each, and each image is
    # read and decoded in its turn of the loop. Decoding every image
    # before the loop grew the peak 137 KB a phase on this pipe, against
    # 94.5 KB of tractions; one decoded phase at a time, about 101 KB
    pipe, peaks = estimate_peaks
    tractions = 3 * len(wall_normals(pipe)[0]) * 3 * 8
    per_phase = (peaks[8] - peaks[2]) / 6
    assert per_phase < 1.25 * tractions, (
        f"traced peak grew {per_phase / 2 ** 10:.0f} KB a phase; the wall "
        f"tractions are {tractions / 2 ** 10:.0f} KB")


def test_interpolation_rejects_velocities_off_their_grid():
    # the corner indices are taken with mode="clip": velocities of
    # another shape would be read at clipped indices without a check
    params, _ = fake_voxels()
    vox = ReconstructedVelocity(velocity=np.zeros((8, 8, 6, 3)),
                                magnitude=np.ones((8, 8, 6)), params=params)
    mesh = generate_box_mesh((0.004,) * 3, (1, 1, 1))
    with pytest.raises(ValidationError, match="image grid"):
        interpolate_to_mesh(vox, mesh)


def test_interpolation_rejects_vertices_outside_grid():
    params, _ = fake_voxels()
    velocity = np.zeros(params.matrix + (3,))
    vox = ReconstructedVelocity(velocity=velocity,
                                magnitude=np.ones(params.matrix),
                                params=params)
    mesh = generate_box_mesh((0.008,) * 3, (2, 2, 2), center=(0.004, 0.0, 0.0))
    with pytest.raises(ValidationError, match="exceeds the voxel grid"):
        interpolate_to_mesh(vox, mesh)


# =========================================================================
# Exports
# =========================================================================

def test_field_export_round_trips_as_mesh(tmp_path):
    mesh = generate_pipe_mesh(RADIUS, LENGTH, resolution=0)
    idx, normals = wall_normals(mesh)
    wss_vec = np.zeros((mesh.n_vertices, 3))
    wss_vec[idx] = normals
    path = tmp_path / "fields.vtk"
    export_fields_vtk(mesh, {"wss_vector": wss_vec,
                             "wss_mag": np.linalg.norm(wss_vec, axis=1),
                             "osi": np.zeros(mesh.n_vertices)}, path)
    again = load_mesh(path)
    assert np.allclose(again.vertices, mesh.vertices)
    assert np.array_equal(again.tets, mesh.tets)
    data = path.read_bytes()
    assert b"VECTORS wss_vector" in data and b"SCALARS wss_mag" in data


def test_field_export_rejects_bad_shapes(tmp_path):
    mesh = generate_box_mesh((0.01,) * 3, (1, 1, 1))
    with pytest.raises(ValidationError):
        export_fields_vtk(mesh, {"bad": np.zeros(3)}, tmp_path / "x.vtk")


@pytest.mark.parametrize("second, third, want", [
    # equal once written with 10 significant digits: the first wins,
    # though the unrounded mean of the second is higher
    (1.0 + 1e-12, 0.5, 0),
    # an exact tie: the first wins
    (1.0, 0.5, 0),
    # a later phase that is higher replaces the kept one
    (1.0 + 1e-12, 1.5, 2),
])
def test_running_systolic_choice_equals_read_stats(tmp_path, second,
                                                   third, want):
    """The systolic phase chosen as the phases pass, from the WSS means
    as written, is the one ``read_stats`` picks from the written CSV."""
    labels = np.array([0, 1])
    blocks = [segment_stats(np.array([mean, 2.0]), labels, ["a", "b"],
                            parameter="wss:power_law", frame=frame)
              for frame, mean in enumerate((1.0, second, third))]
    path = tmp_path / "stats.csv"
    write_stats_csv(blocks, path)
    assert read_stats(path, "power_law")[1] == want
    means, kept = {}, None
    for block in blocks:
        means[block.frame] = _written_cross_mean(block)
        if systolic_frame(means, "power_law") == block.frame:
            kept = block.frame
    assert kept == want
    assert systolic_frame(means, "power_law") == want


def test_stats_and_comparison_csv_files(tmp_path):
    labels = np.array([0, 0, 1])
    ref = segment_stats(np.array([1.0, 3.0, 8.0]), labels, ["a", "b"],
                        parameter="wss", frame=2)
    alt = segment_stats(np.array([2.0, 6.0, 8.0]), labels, ["a", "b"],
                        parameter="wss", frame=2)
    stats_path = tmp_path / "stats.csv"
    write_stats_csv([ref, alt], stats_path)
    with open(stats_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert rows[0]["segment"] == "a" and rows[0]["param"] == "wss"
    assert float(rows[0]["mean"]) == pytest.approx(2.0)

    cmp_path = tmp_path / "cmp.csv"
    write_comparison_csv(compare_models(ref, alt), cmp_path)
    with open(cmp_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["segment"] for r in rows] == ["a", "b", "all"]
    assert float(rows[0]["relative_difference_pct"]) == pytest.approx(100.0)
    assert float(rows[1]["relative_difference_pct"]) == pytest.approx(0.0)
    assert float(rows[1]["absolute_difference"]) == pytest.approx(0.0)
