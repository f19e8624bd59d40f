"""Tests for analytic velocity fields and cross-section flow rates."""

import itertools

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from hemoflow.errors import GeometryError, ValidationError
from hemoflow.flowfields import (FlowWaveform, VelocityField, flow_rate,
                                 poiseuille_power_law, pulsatile_scale)
from hemoflow.mesh import (CutPlane, TetMesh, generate_box_mesh,
                           generate_pipe_mesh, tet_volumes, wall_vertices)
from hemoflow.rheology import PowerLawParams

RADIUS = 0.01
LENGTH = 0.1
HCT45 = PowerLawParams(m=2.42e-2, n=0.72)


def pipe(resolution=2):
    return generate_pipe_mesh(radius=RADIUS, length=LENGTH,
                              resolution=resolution)


def quadrature_profile(params, pressure_drop, radii):
    """Independent oracle: integrate the radial force balance numerically.

    Momentum balance in a pipe fixes the shear stress profile to
    tau(r) = dP r / (2 L) regardless of rheology, so the axial velocity
    is u(r) = integral_r^R (tau(s)/m)**(1/n) ds, done here by dense
    cumulative trapezoid instead of the closed-form antiderivative.
    """
    s = np.linspace(0.0, RADIUS, 400001)
    shear = (pressure_drop * s / (2.0 * params.m * LENGTH)) ** (1.0 / params.n)
    accumulated = np.concatenate([[0.0], cumulative_trapezoid(shear, s)])
    return accumulated[-1] - np.interp(radii, s, accumulated)


# =========================================================================
# Waveforms
# =========================================================================

def test_waveform_interpolates_between_samples():
    w = FlowWaveform(times=np.array([0.0, 0.2, 0.6]),
                     values=np.array([1.0, 3.0, 2.0]), period=1.0)
    assert w.value_at(0.2) == pytest.approx(3.0), "knot value must be exact"
    assert w.value_at(0.1) == pytest.approx(2.0), "midpoint must interpolate"
    assert w.value_at(0.4) == pytest.approx(2.5)


def test_waveform_wraps_periodically():
    w = FlowWaveform(times=np.array([0.0, 0.2, 0.6]),
                     values=np.array([1.0, 3.0, 2.0]), period=1.0)
    for t in (0.05, 0.3, 0.55, 0.8):
        assert w.value_at(t + 3.0) == pytest.approx(w.value_at(t)), \
            "shifting by whole periods must not change the value"
    # between the last sample (0.6, 2.0) and the first one a period later
    # (1.0, 1.0) the waveform is linear
    assert w.value_at(0.8) == pytest.approx(1.5), \
        "wrap segment must interpolate toward the first sample"


def test_waveform_validation():
    t = np.array([0.0, 0.2, 0.6])
    v = np.array([1.0, 3.0, 2.0])
    with pytest.raises(ValidationError):
        FlowWaveform(times=t[::-1].copy(), values=v, period=1.0)
    with pytest.raises(ValidationError):
        FlowWaveform(times=t, values=v[:2], period=1.0)
    with pytest.raises(ValidationError):
        FlowWaveform(times=t, values=v, period=0.5)  # samples span the period
    with pytest.raises(ValidationError):
        FlowWaveform(times=np.array([0.0]), values=np.array([1.0]), period=1.0)


def test_velocity_field_validation():
    good = np.zeros((2, 5, 3))
    with pytest.raises(ValidationError):
        VelocityField(times=np.array([0.0, 1.0]), values=np.zeros((2, 5, 2)))
    with pytest.raises(ValidationError):
        VelocityField(times=np.array([0.0]), values=good)
    with pytest.raises(ValidationError):
        VelocityField(times=np.array([1.0, 0.0]), values=good)
    bad = good.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValidationError):
        VelocityField(times=np.array([0.0, 1.0]), values=bad)


# =========================================================================
# Analytic pipe profiles
# =========================================================================

def test_power_law_profile_matches_quadrature_oracle():
    mesh = pipe()
    field = poiseuille_power_law(mesh, HCT45, pressure_drop=100.0)
    radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    expected = quadrature_profile(HCT45, 100.0, np.minimum(radii, RADIUS))
    scale = expected.max()
    assert np.allclose(field.values[0, :, 2], expected, atol=1e-6 * scale), \
        "profile must match the force-balance quadrature everywhere"
    assert np.all(field.values[0, :, :2] == 0), "flow must be purely axial"
    # magnitude sanity for these parameters (SI units throughout)
    assert 6.8 < scale < 6.95, f"centerline speed {scale:.3f} m/s out of range"


def test_newtonian_profile_is_parabola():
    mesh = pipe(resolution=1)
    mu = 3.5e-3
    field = poiseuille_power_law(mesh, PowerLawParams(m=mu, n=1.0),
                                 pressure_drop=40.0)
    r = np.minimum(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]), RADIUS)
    parabola = 40.0 / (4.0 * mu * LENGTH) * (RADIUS ** 2 - r ** 2)
    assert np.allclose(field.values[0, :, 2], parabola,
                       rtol=0, atol=1e-12 * parabola.max())


def test_profile_vanishes_on_the_wall_only():
    mesh = pipe(resolution=1)
    field = poiseuille_power_law(mesh, HCT45, pressure_drop=100.0)
    axial = field.values[0, :, 2]
    on_wall = np.zeros(mesh.n_vertices, dtype=bool)
    on_wall[wall_vertices(mesh)] = True
    radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    lateral = on_wall & (radii > RADIUS * (1 - 1e-9))
    assert np.all(axial[lateral] == 0), "no slip on the lateral wall"
    assert np.all(axial[radii < RADIUS * (1 - 1e-9)] > 0), \
        "interior vertices must move"


def test_profile_requires_pipe_mesh():
    box = generate_box_mesh(size=(0.01, 0.01, 0.01), divisions=(2, 2, 2))
    with pytest.raises(GeometryError):
        poiseuille_power_law(box, HCT45, pressure_drop=100.0)
    with pytest.raises(ValidationError):
        poiseuille_power_law(pipe(resolution=1), HCT45, pressure_drop=-5.0)


# =========================================================================
# Flow rate through plane cuts
# =========================================================================

def test_uniform_flow_rate_matches_section_area():
    mesh = pipe(resolution=1)
    values = np.zeros((1, mesh.n_vertices, 3))
    values[0, :, 2] = 0.75
    field = VelocityField(times=np.array([0.0]), values=values)
    # the pipe is an extruded prism, so its cross-section area is exactly
    # total volume / length, whatever the polygonal approximation error
    area = tet_volumes(mesh).sum() / LENGTH
    q = flow_rate(field, mesh, CutPlane(point=(0, 0, LENGTH / 2),
                                        normal=(0, 0, 1.0)))
    assert q.shape == (1,)
    assert q[0] == pytest.approx(0.75 * area, rel=1e-9), \
        "uniform axial flow through a mid-plane must equal U times the " \
        "exact polygonal section area"


def test_flow_rate_survives_plane_through_vertices():
    # z = 0.02 is exactly a vertex layer of the generated pipe; the cut
    # must still tile the full cross section
    mesh = pipe(resolution=1)
    values = np.zeros((1, mesh.n_vertices, 3))
    values[0, :, 2] = 1.0
    field = VelocityField(times=np.array([0.0]), values=values)
    area = tet_volumes(mesh).sum() / LENGTH
    q = flow_rate(field, mesh, CutPlane(point=(0, 0, 0.02), normal=(0, 0, 1)))
    assert q[0] == pytest.approx(area, rel=1e-9)


def test_flow_rate_angle_invariant_for_uniform_flow():
    # axial flow has no component along the lateral wall normals, so by
    # the divergence theorem a tilted interior cut carries the same flux
    mesh = pipe(resolution=1)
    values = np.zeros((1, mesh.n_vertices, 3))
    values[0, :, 2] = 1.3
    field = VelocityField(times=np.array([0.0]), values=values)
    straight = flow_rate(field, mesh,
                         CutPlane(point=(0, 0, 0.043), normal=(0, 0, 1)))
    theta = 0.3
    tilted = flow_rate(field, mesh,
                       CutPlane(point=(0, 0, 0.043),
                                normal=(np.sin(theta), 0, np.cos(theta))))
    assert tilted[0] == pytest.approx(straight[0], rel=1e-9), \
        "flux must not depend on the cut angle for divergence-free flow"


def test_flow_rate_sign_follows_normal():
    mesh = pipe(resolution=1)
    values = np.zeros((1, mesh.n_vertices, 3))
    values[0, :, 2] = 1.0
    field = VelocityField(times=np.array([0.0]), values=values)
    fwd = flow_rate(field, mesh, CutPlane((0, 0, 0.05), (0, 0, 1)))
    back = flow_rate(field, mesh, CutPlane((0, 0, 0.05), (0, 0, -1)))
    assert fwd[0] == pytest.approx(-back[0], rel=1e-12)
    assert fwd[0] > 0


def test_power_law_flow_rate_matches_analytic():
    mesh = pipe()
    field = poiseuille_power_law(mesh, HCT45, pressure_drop=100.0)
    q = flow_rate(field, mesh, CutPlane((0, 0, LENGTH / 2), (0, 0, 1)))[0]
    n, m = HCT45.n, HCT45.m
    exact = (n / (3 * n + 1)) * np.pi * RADIUS ** 3 * \
        (100.0 * RADIUS / (2 * m * LENGTH)) ** (1 / n)
    assert q == pytest.approx(exact, rel=0.02), \
        f"mesh flow rate {q:.6e} vs analytic {exact:.6e}"


def test_flow_rate_outside_mesh_raises():
    mesh = pipe(resolution=1)
    field = VelocityField(times=np.array([0.0]),
                          values=np.zeros((1, mesh.n_vertices, 3)))
    with pytest.raises(GeometryError):
        flow_rate(field, mesh, CutPlane((0, 0, 2 * LENGTH), (0, 0, 1)))


_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def loop_flow_rate(field, mesh, plane):
    """Oracle: the cut integrated tet by tet, one triangle at a time."""
    dist = plane.signed_distance(mesh.vertices)
    scale = np.abs(dist).max()
    while np.any(np.abs(dist) < 1e-12 * scale):
        dist = dist - 1e-9 * scale
    signs = dist[mesh.tets]
    cut_tets = np.nonzero((signs.min(axis=1) < 0) & (signs.max(axis=1) > 0))[0]
    normal = plane.unit_normal()
    flows = np.zeros(field.n_frames)
    for t in cut_tets:
        conn = mesh.tets[t]
        pts, d = mesh.vertices[conn], dist[conn]
        crossings = [pts[i] + d[i] / (d[i] - d[j]) * (pts[j] - pts[i])
                     for i, j in _EDGES if d[i] * d[j] < 0]
        if len(crossings) < 3:
            continue
        poly = np.array(crossings)
        center = poly.mean(axis=0)
        basis_u = (poly[0] - center) / np.linalg.norm(poly[0] - center)
        poly_normal = np.cross(poly[1] - poly[0], poly[2] - poly[0])
        if np.linalg.norm(poly_normal) == 0:
            continue
        basis_v = np.cross(poly_normal / np.linalg.norm(poly_normal), basis_u)
        poly = poly[np.argsort(np.arctan2((poly - center) @ basis_v,
                                          (poly - center) @ basis_u))]
        for k in range(1, len(poly) - 1):
            a, b, c = poly[0], poly[k], poly[k + 1]
            area = abs(0.5 * np.cross(b - a, c - a) @ normal)
            mat = np.column_stack([pts[1] - pts[0], pts[2] - pts[0],
                                   pts[3] - pts[0]])
            lam = np.linalg.solve(mat, (a + b + c) / 3.0 - pts[0])
            weights = np.array([1.0 - lam.sum(), *lam])
            u = np.einsum("v,fvc->fc", weights, field.values[:, conn, :])
            flows += (u @ normal) * area
    return flows


def swirling_field(mesh, frames=3, seed=5):
    """Smooth non-uniform frames with axial, swirl and cross-flow parts."""
    rng = np.random.default_rng(seed)
    x, y, z = (mesh.vertices / np.abs(mesh.vertices).max()).T
    values = np.empty((frames, mesh.n_vertices, 3))
    for f in range(frames):
        a = rng.normal(size=6)
        values[f] = np.column_stack([a[0] * y + a[1] * np.sin(3 * z),
                                     -a[0] * x + a[2] * z * z,
                                     a[3] + a[4] * (1 - x * x - y * y)
                                     + a[5] * np.cos(2 * x)])
    return VelocityField(times=np.arange(frames, dtype=float), values=values)


@pytest.mark.parametrize("case", ["pipe0", "pipe1", "box", "oblique",
                                  "through_vertices"])
def test_flow_rate_matches_per_tet_loop(case):
    mesh = {"pipe0": lambda: pipe(0),
            "box": lambda: generate_box_mesh((0.02, 0.03, 0.04), (3, 4, 5)),
            }.get(case, lambda: pipe(1))()
    plane = {
        "box": CutPlane((0.001, -0.002, 0.003), (0.2, 0.1, 1.0)),
        "oblique": CutPlane((0.001, 0.002, 0.047), (0.3, -0.2, 1.0)),
        # z = 0.02 is a vertex layer: every vertex there sits on the plane
        "through_vertices": CutPlane((0, 0, 0.02), (0, 0, 1)),
    }.get(case, CutPlane((0, 0, LENGTH / 2), (0, 0, 1)))
    field = swirling_field(mesh)
    got = flow_rate(field, mesh, plane)
    want = loop_flow_rate(field, mesh, plane)
    assert got.shape == want.shape == (field.n_frames,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
        f"vectorised cut {got} vs per-tet loop {want}"


@pytest.mark.parametrize("below", [
    s for r in (1, 2, 3) for s in itertools.combinations(range(4), r)])
def test_flow_rate_covers_every_cut_pattern(below):
    """One random tet, cut by the plane a.x + b = 0 that puts the corners
    in ``below`` at -1 and the others at +1: every row of the cut table."""
    rng = np.random.default_rng(11)
    vertices = rng.normal(size=(4, 3)) * 0.01
    mesh = TetMesh(vertices, [[0, 1, 2, 3]], np.empty((0, 3), dtype=int),
                   np.empty(0, dtype=int))
    side = np.where(np.isin(np.arange(4), below), -1.0, 1.0)
    a_b = np.linalg.solve(np.column_stack([vertices, np.ones(4)]), side)
    a, b = a_b[:3], a_b[3]
    plane = CutPlane(tuple(-b * a / (a @ a)), tuple(a))
    assert np.array_equal(plane.signed_distance(vertices) < 0, side < 0)
    field = VelocityField(times=np.arange(3.0),
                          values=rng.normal(size=(3, 4, 3)))
    got = flow_rate(field, mesh, plane)
    want = loop_flow_rate(field, mesh, plane)
    tol = 1e-12 * np.abs(want).max()
    assert np.abs(got - want).max() <= tol, f"table cut {got} vs loop {want}"
    reversed_normal = CutPlane(plane.point, tuple(-a))
    assert np.abs(flow_rate(field, mesh, reversed_normal) + got).max() <= tol


# =========================================================================
# Pulsatile scaling
# =========================================================================

def test_pulsatile_scale_peaks_follow_waveform():
    mesh = pipe(resolution=1)
    profile = poiseuille_power_law(mesh, HCT45, pressure_drop=100.0)
    w = FlowWaveform(times=np.array([0.0, 0.1, 0.3, 0.6]),
                     values=np.array([0.1, 1.2, 0.6, 0.2]), period=0.937)
    field = pulsatile_scale(profile, w)
    assert field.n_frames == 4 and np.array_equal(field.times, w.times)
    peaks = np.linalg.norm(field.values, axis=2).max(axis=1)
    assert np.allclose(peaks, w.values, rtol=1e-12), \
        "per-frame peak speed must equal the waveform value"
    # every frame is the same spatial shape, just rescaled
    ratio = field.values[2] / np.where(field.values[0] == 0, 1,
                                       field.values[0])
    interior = field.values[0, :, 2] != 0
    assert np.allclose(ratio[interior, 2], w.values[2] / w.values[0],
                       rtol=1e-12)


def test_pulsatile_scale_rejects_bad_inputs():
    mesh = pipe(resolution=1)
    w = FlowWaveform(times=np.array([0.0, 0.4]), values=np.array([1.0, 2.0]),
                     period=1.0)
    two_frames = VelocityField(times=np.array([0.0, 1.0]),
                               values=np.ones((2, mesh.n_vertices, 3)))
    with pytest.raises(ValidationError):
        pulsatile_scale(two_frames, w)
    still = VelocityField(times=np.array([0.0]),
                          values=np.zeros((1, mesh.n_vertices, 3)))
    with pytest.raises(ValidationError):
        pulsatile_scale(still, w)
