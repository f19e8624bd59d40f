"""Power-law blood rheology.

Fits shear-thinning power-law viscosity curves to viscometry samples,
interpolates fitted curves across hematocrit, and reduces a power-law
curve to an equivalent Newtonian viscosity: the shear-rate average of its
viscosity over a shear-rate range.

Conventions
-----------
Viscosity is in Pa.s, shear rate in 1/s. A power-law curve is
``mu(g) = m * g**(n - 1)`` with consistency index ``m`` (Pa.s^n) and
power-law index ``n`` (dimensionless, ``n < 1`` is shear thinning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ExtrapolationError,
    FitError,
    InsufficientDataError,
    ValidationError,
)

__all__ = [
    "SHEAR_RATE_FLOOR",
    "BASE_CURVES",
    "LITERATURE_NEWTONIAN",
    "ViscositySample",
    "PowerLawParams",
    "fit_power_law",
    "apparent_viscosity",
    "newtonian_equivalent",
    "interpolate_hct",
    "fit_for_hct",
    "default_shear_grid",
]

# Shear rates below this are clamped before evaluating mu = m * g**(n-1),
# which diverges at g = 0 for n < 1.
SHEAR_RATE_FLOOR = 0.1


@dataclass(frozen=True)
class ViscositySample:
    """One viscometry measurement."""

    shear_rate: float
    viscosity: float


@dataclass(frozen=True)
class PowerLawParams:
    """Power-law viscosity curve with optional fit diagnostics.

    Attributes
    ----------
    m : float
        Consistency index, Pa.s^n. Must be positive.
    n : float
        Power-law index. Must be positive; 1 recovers a Newtonian fluid.
    r_squared, rmse : float or None
        Goodness of fit in linear viscosity space, present on fitted
        curves and None on hand-built ones.
    """

    m: float
    n: float
    r_squared: float | None = None
    rmse: float | None = None

    def __post_init__(self):
        if not (self.m > 0 and np.isfinite(self.m)):
            raise ValidationError(f"consistency index must be positive, got {self.m}")
        if not (self.n > 0 and np.isfinite(self.n)):
            raise ValidationError(f"power-law index must be positive, got {self.n}")


# Fitted whole-blood power-law curves at five hematocrit levels (fraction of
# red cells by volume, in percent). These are the package's built-in base
# curves for hematocrit interpolation.
BASE_CURVES: dict[float, PowerLawParams] = {
    20.0: PowerLawParams(m=0.69e-2, n=0.71),
    32.5: PowerLawParams(m=1.73e-2, n=0.63),
    45.0: PowerLawParams(m=2.42e-2, n=0.72),
    57.5: PowerLawParams(m=4.19e-2, n=0.64),
    70.0: PowerLawParams(m=5.40e-2, n=0.63),
}

# Constant blood viscosities (Pa.s) commonly assumed in the literature when
# a Newtonian model is used outright.
LITERATURE_NEWTONIAN: tuple[float, ...] = (3.0e-3, 3.5e-3, 4.0e-3, 4.5e-3)


def default_shear_grid() -> np.ndarray:
    """Log-spaced shear-rate grid used when resampling viscosity curves."""
    return np.geomspace(12.0, 123.0, 12)


def _sample_arrays(samples: Sequence[ViscositySample]):
    g = np.array([s.shear_rate for s in samples], dtype=float)
    mu = np.array([s.viscosity for s in samples], dtype=float)
    order = np.argsort(g)
    g, mu = g[order], mu[order]
    # Trapezoid spacing of the sorted shear rates, so unevenly sampled
    # curves are not dominated by densely sampled regions.
    w = np.empty_like(g)
    w[1:-1] = 0.5 * (g[2:] - g[:-2])
    w[0] = 0.5 * (g[1] - g[0])
    w[-1] = 0.5 * (g[-1] - g[-2])
    return g, mu, w / w.sum()


def fit_power_law(samples: Sequence[ViscositySample]) -> PowerLawParams:
    """Fit ``mu = m * g**(n-1)`` to viscometry samples.

    Weighted least squares in linear viscosity space, each sample
    weighted by its local shear-rate spacing. The fit is initialized
    from a log-log linear regression and refined with a damped
    Gauss-Newton iteration.

    Parameters
    ----------
    samples : sequence of ViscositySample
        At least three samples at distinct positive shear rates, with
        positive viscosities.

    Returns
    -------
    PowerLawParams
        Fitted curve with ``r_squared`` and ``rmse`` diagnostics
        (unweighted, linear viscosity space).

    Raises
    ------
    InsufficientDataError
        Fewer than three distinct shear rates.
    FitError
        The Gauss-Newton iteration failed to converge.
    """
    if len(samples) < 3:
        raise InsufficientDataError(
            f"need at least 3 samples to fit, got {len(samples)}")
    if len({s.shear_rate for s in samples}) < 3:
        raise InsufficientDataError("need at least 3 distinct shear rates")
    g, mu, w = _sample_arrays(samples)
    if np.any(g <= 0) or np.any(mu <= 0):
        raise ValidationError("shear rates and viscosities must be positive")

    # Log-log regression: log mu = log m + (n - 1) log g.
    slope, intercept = np.polyfit(np.log(g), np.log(mu), 1)
    m, n = float(np.exp(intercept)), float(1.0 + slope)
    if m <= 0 or n <= 0:
        raise FitError("log-log initialization produced non-positive parameters")

    sw = np.sqrt(w)

    def ssr(m_, n_):
        r = sw * (mu - m_ * g ** (n_ - 1.0))
        return float(r @ r)

    current = ssr(m, n)
    converged = False
    for iteration in range(100):
        basis = g ** (n - 1.0)
        resid = sw * (mu - m * basis)
        jac = np.column_stack([sw * basis, sw * m * basis * np.log(g)])
        step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
        scale = 1.0
        for _ in range(40):
            m_new, n_new = m + scale * step[0], n + scale * step[1]
            if m_new > 0 and n_new > 0 and ssr(m_new, n_new) <= current + 1e-300:
                break
            scale *= 0.5
        else:
            converged = True  # no improving step exists: at a minimum
            break
        rel_step = scale * np.linalg.norm(step) / max(np.linalg.norm([m, n]), 1e-30)
        previous, current = current, ssr(m_new, n_new)
        m, n = float(m_new), float(n_new)
        if rel_step < 1e-13 or previous - current < 1e-16 * max(previous, 1e-30):
            converged = True
            break
    if not converged:
        raise FitError("power-law fit did not converge",
                       iterations=iteration + 1, residual=current)

    fitted = m * g ** (n - 1.0)
    ss_res = float(np.sum((mu - fitted) ** 2))
    ss_tot = float(np.sum((mu - mu.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    rmse = float(np.sqrt(ss_res / g.size))
    return PowerLawParams(m=m, n=n, r_squared=r_squared, rmse=rmse)


def apparent_viscosity(params: PowerLawParams, shear_rate):
    """Evaluate the power-law viscosity at one or many shear rates.

    Shear rates below ``SHEAR_RATE_FLOOR`` are clamped to it, which
    regularizes the singularity of shear-thinning curves at zero shear.
    """
    g = np.asarray(shear_rate, dtype=float)
    if np.any(g < 0):
        raise ValidationError("shear rate must be nonnegative")
    return params.m * np.maximum(g, SHEAR_RATE_FLOOR) ** (params.n - 1.0)


def newtonian_equivalent(params: PowerLawParams,
                         shear_range: tuple[float, float]) -> float:
    """Newtonian viscosity equal to the curve's mean viscosity over a range.

    Closed form of the shear-rate average of the power-law viscosity over
    ``shear_range = (g0, g1)``:

    ``mu_eq = m * (g1**n - g0**n) / (n * (g1 - g0))``

    ``g0 = 0`` is allowed for any positive power-law index.
    """
    g0, g1 = map(float, shear_range)
    if not (0 <= g0 < g1):
        raise ValidationError(f"invalid shear range [{g0}, {g1}]")
    return params.m * (g1 ** params.n - g0 ** params.n) / (params.n * (g1 - g0))


def interpolate_hct(curves: Mapping[float, PowerLawParams],
                    target_hct: float) -> list[ViscositySample]:
    """Synthesize viscosity samples at an intermediate hematocrit.

    Viscosity is interpolated linearly in hematocrit between the two
    bracketing fitted curves, evaluated on :func:`default_shear_grid`.
    Targets outside the covered hematocrit range are rejected; blood
    rheology data does not support extrapolation.

    Parameters
    ----------
    curves : mapping
        ``{hct: PowerLawParams}``.
    target_hct : float
        Hematocrit (percent) inside the covered range.
    """
    items = sorted(((float(h), p) for h, p in curves.items()),
                   key=lambda hp: hp[0])
    if len(items) < 2:
        raise ValidationError("hematocrit interpolation needs at least two curves")
    hcts = np.array([h for h, _ in items])
    target = float(target_hct)
    if not (hcts[0] <= target <= hcts[-1]):
        raise ExtrapolationError(
            f"hematocrit {target} outside fitted range [{hcts[0]}, {hcts[-1]}]")
    grid = default_shear_grid()

    hi = int(np.searchsorted(hcts, target, side="left"))
    if hcts[hi] == target:
        lo = hi
        t = 0.0
    else:
        lo = hi - 1
        t = (target - hcts[lo]) / (hcts[hi] - hcts[lo])
    mu_lo = apparent_viscosity(items[lo][1], grid)
    mu_hi = apparent_viscosity(items[hi][1], grid)
    mu = (1.0 - t) * mu_lo + t * mu_hi
    return [ViscositySample(float(g), float(v)) for g, v in zip(grid, mu)]


def fit_for_hct(target_hct: float) -> PowerLawParams:
    """Power-law curve at an arbitrary hematocrit.

    Interpolates the base curves at fixed shear rates and refits a
    power law to the synthetic samples. At a hematocrit where a base
    curve exists this reproduces that curve.
    """
    return fit_power_law(interpolate_hct(BASE_CURVES, target_hct))
