"""Power-law fitting, hematocrit interpolation, Newtonian equivalents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemoflow.errors import (
    ExtrapolationError,
    InsufficientDataError,
    ValidationError,
)
from hemoflow.rheology import (
    BASE_CURVES,
    LITERATURE_NEWTONIAN,
    PowerLawParams,
    ViscositySample,
    apparent_viscosity,
    default_shear_grid,
    fit_for_hct,
    fit_power_law,
    interpolate_hct,
    newtonian_equivalent,
)


def make_samples(m, n, shear_rates):
    mu = m * np.asarray(shear_rates, dtype=float) ** (n - 1.0)
    return [ViscositySample(float(g), float(v))
            for g, v in zip(shear_rates, mu)]


# =========================================================================
# Fitting
# =========================================================================

def test_fit_recovers_exact_model():
    """Samples generated from a power law are recovered to 1e-8."""
    grid = np.geomspace(1.0, 500.0, 15)
    fit = fit_power_law(make_samples(2.42e-2, 0.72, grid))
    assert abs(fit.m - 2.42e-2) / 2.42e-2 < 1e-8, \
        f"consistency index off: {fit.m} vs 2.42e-2"
    assert abs(fit.n - 0.72) / 0.72 < 1e-8, \
        f"power-law index off: {fit.n} vs 0.72"
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.rmse < 1e-12


def test_fit_recovers_random_models():
    """Noise-free recovery holds across the physiological parameter range."""
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = 10 ** rng.uniform(-3.0, -1.0)
        n = rng.uniform(0.4, 1.2)
        grid = np.geomspace(10 ** rng.uniform(-0.5, 0.8),
                            10 ** rng.uniform(1.8, 3.2), 10)
        fit = fit_power_law(make_samples(m, n, grid))
        assert abs(fit.m - m) / m < 1e-6, f"m: {fit.m} vs {m} (n={n})"
        assert abs(fit.n - n) / n < 1e-6, f"n: {fit.n} vs {n} (m={m})"


@settings(max_examples=100, deadline=None)
@given(m=st.floats(1e-3, 0.5), n=st.floats(0.3, 1.3),
       low=st.floats(0.1, 50.0), decades=st.floats(0.6, 4.0),
       interior=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12,
                         unique=True))
def test_noiseless_fit_recovers_m_and_n(m, n, low, decades, interior):
    """Any exact power law, sampled unevenly over a shear range, fits back."""
    grid = low * 10.0 ** (decades * np.array([0.0, *interior, 1.0]))
    fit = fit_power_law(make_samples(m, n, grid))
    assert abs(fit.m - m) <= 1e-8 * m, f"m: {fit.m} vs {m}"
    assert abs(fit.n - n) <= 1e-8 * n, f"n: {fit.n} vs {n}"


def test_fit_with_deterministic_noise():
    """A mildly perturbed curve still fits with high r-squared."""
    rng = np.random.default_rng(11)
    grid = np.geomspace(5.0, 1000.0, 20)
    mu = 3.5e-2 * grid ** (0.65 - 1.0) * (1.0 + 0.02 * rng.standard_normal(20))
    fit = fit_power_law([ViscositySample(g, v) for g, v in zip(grid, mu)])
    assert 0.6 < fit.n < 0.7
    assert fit.r_squared > 0.99, f"r_squared {fit.r_squared}"
    assert fit.rmse < 5e-4


def test_fit_input_validation():
    grid = np.array([1.0, 10.0, 100.0])
    with pytest.raises(InsufficientDataError):
        fit_power_law(make_samples(1e-2, 0.7, grid[:2]))
    with pytest.raises(InsufficientDataError):
        fit_power_law(make_samples(1e-2, 0.7, [5.0, 5.0, 5.0]))
    with pytest.raises(ValidationError):
        fit_power_law([ViscositySample(-1.0, 1e-2),
                       ViscositySample(1.0, 1e-2),
                       ViscositySample(2.0, 9e-3)])


def test_params_positivity_enforced():
    with pytest.raises(ValidationError):
        PowerLawParams(m=-1e-2, n=0.7)
    with pytest.raises(ValidationError):
        PowerLawParams(m=1e-2, n=0.0)


# =========================================================================
# Apparent viscosity and the shear-rate floor
# =========================================================================

def test_apparent_viscosity_floor():
    """Below the floor the curve is clamped; above it is untouched."""
    p = PowerLawParams(m=1e-2, n=0.6)
    at_floor = apparent_viscosity(p, 0.1)
    assert apparent_viscosity(p, 0.0) == at_floor
    assert apparent_viscosity(p, 0.05) == at_floor
    assert apparent_viscosity(p, 0.2) < at_floor


def test_apparent_viscosity_shear_thinning_monotone():
    p = PowerLawParams(m=2e-2, n=0.7)
    g = np.geomspace(0.1, 1e4, 50)
    mu = apparent_viscosity(p, g)
    assert np.all(np.diff(mu) < 0), "n < 1 curve must decrease with shear rate"
    assert np.all(mu > 0)


def test_apparent_viscosity_newtonian_is_constant():
    p = PowerLawParams(m=3.5e-3, n=1.0)
    mu = apparent_viscosity(p, np.array([0.5, 5.0, 500.0]))
    assert np.allclose(mu, 3.5e-3, rtol=1e-15)


def test_apparent_viscosity_rejects_negative_shear():
    with pytest.raises(ValidationError):
        apparent_viscosity(PowerLawParams(m=1e-2, n=0.7), -1.0)


# =========================================================================
# Newtonian equivalent
# =========================================================================

def test_newtonian_equivalent_matches_quadrature():
    """Closed form equals a dense numerical average of the curve."""
    p = PowerLawParams(m=2.42e-2, n=0.72)
    for g0, g1 in [(12.0, 123.0), (0.5, 2800.0), (40.0, 50.0)]:
        grid = np.linspace(g0, g1, 200001)
        oracle = np.trapezoid(p.m * grid ** (p.n - 1.0), grid) / (g1 - g0)
        closed = newtonian_equivalent(p, (g0, g1))
        assert abs(closed - oracle) / oracle < 1e-6, \
            f"range [{g0},{g1}]: closed {closed} vs quadrature {oracle}"


def test_newtonian_equivalent_zero_lower_bound():
    """g0 = 0 is an allowed, finite limit for any positive index."""
    p = PowerLawParams(m=5.40e-2, n=0.63)
    value = newtonian_equivalent(p, (0.0, 2800.0))
    # m * g1**n / (n * g1), evaluated independently
    expected = 5.40e-2 * 2800.0 ** 0.63 / (0.63 * 2800.0)
    assert value == pytest.approx(expected, rel=1e-14)


def test_newtonian_equivalent_reduces_to_constant():
    p = PowerLawParams(m=4.0e-3, n=1.0)
    assert newtonian_equivalent(p, (12.0, 123.0)) == pytest.approx(4.0e-3)
    assert newtonian_equivalent(p, (0.0, 2800.0)) == pytest.approx(4.0e-3)


def test_newtonian_equivalent_range_validation():
    p = PowerLawParams(m=1e-2, n=0.7)
    for bad in [(123.0, 12.0), (-1.0, 10.0), (5.0, 5.0)]:
        with pytest.raises(ValidationError):
            newtonian_equivalent(p, bad)


# =========================================================================
# Hematocrit interpolation
# =========================================================================

def test_interpolate_at_knot_returns_curve_samples():
    samples = interpolate_hct(BASE_CURVES, 45.0)
    p = BASE_CURVES[45.0]
    for s in samples:
        assert s.viscosity == pytest.approx(
            apparent_viscosity(p, s.shear_rate), rel=1e-14)


def test_interpolate_midpoint_is_curve_average():
    curves = {30.0: PowerLawParams(m=1e-2, n=0.8),
              50.0: PowerLawParams(m=3e-2, n=0.6)}
    samples = interpolate_hct(curves, 40.0)
    for s in samples:
        lo = apparent_viscosity(curves[30.0], s.shear_rate)
        hi = apparent_viscosity(curves[50.0], s.shear_rate)
        assert s.viscosity == pytest.approx(0.5 * (lo + hi), rel=1e-14)


def test_interpolation_refuses_extrapolation():
    for target in (19.9, 70.1, 0.0, 100.0):
        with pytest.raises(ExtrapolationError):
            interpolate_hct(BASE_CURVES, target)


def test_nan_hematocrit_is_refused_as_extrapolation():
    # NaN fails every comparison, so it must not slip past the range check
    with pytest.raises(ExtrapolationError, match="nan"):
        interpolate_hct(BASE_CURVES, float("nan"))
    with pytest.raises(ExtrapolationError):
        fit_for_hct(float("nan"))


def test_fit_for_hct_reproduces_base_curves():
    """Refitting interpolated samples at a knot returns the knot curve."""
    for hct, expected in BASE_CURVES.items():
        fit = fit_for_hct(hct)
        assert abs(fit.m - expected.m) / expected.m < 1e-6, \
            f"hct {hct}: m {fit.m} vs {expected.m}"
        assert abs(fit.n - expected.n) / expected.n < 1e-6, \
            f"hct {hct}: n {fit.n} vs {expected.n}"


def test_fit_for_hct_between_knots_is_bracketed():
    """An interpolated curve lies between its bracketing base curves."""
    fit = fit_for_hct(50.0)
    grid = default_shear_grid()
    mu = apparent_viscosity(fit, grid)
    lo = apparent_viscosity(BASE_CURVES[45.0], grid)
    hi = apparent_viscosity(BASE_CURVES[57.5], grid)
    assert np.all(mu > np.minimum(lo, hi) * 0.98)
    assert np.all(mu < np.maximum(lo, hi) * 1.02)


def test_builtin_tables():
    assert sorted(BASE_CURVES) == [20.0, 32.5, 45.0, 57.5, 70.0]
    assert LITERATURE_NEWTONIAN == (3.0e-3, 3.5e-3, 4.0e-3, 4.5e-3)
