"""Three-element windkessel outlet model.

The model lumps the vasculature downstream of an outlet into a proximal
resistance in series with a parallel distal resistance / compliance pair.
With outlet flow Q(t) and distal pressure p_d, the state equation is

    C dp_d/dt = Q - p_d / R_d,        p = R_p Q + p_d

integrated with the classic fourth-order Runge-Kutta scheme. The solver
is unit-agnostic: any consistent unit system works, and the time
constant R_d C sets how many cardiac cycles the initial condition needs
to wash out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .flowfields import FlowWaveform

__all__ = ["WindkesselParams", "PressureTrace", "simulate_windkessel"]


@dataclass(frozen=True)
class WindkesselParams:
    """Lumped outlet parameters, in any consistent unit system."""

    proximal_resistance: float
    distal_resistance: float
    compliance: float
    initial_distal_pressure: float = 0.0

    def __post_init__(self):
        if self.proximal_resistance < 0:
            raise ValidationError("proximal resistance must be >= 0")
        if self.distal_resistance <= 0 or self.compliance <= 0:
            raise ValidationError("distal resistance and compliance must be "
                                  "positive")

    @property
    def time_constant(self) -> float:
        """Relaxation time of the distal pressure, R_d C."""
        return self.distal_resistance * self.compliance


@dataclass
class PressureTrace:
    """One cardiac cycle of outlet pressures, times relative to cycle start."""

    times: np.ndarray
    pressure: np.ndarray
    distal_pressure: np.ndarray
    flow: np.ndarray

    def mean_pressure(self) -> float:
        """Cycle-averaged outlet pressure (trapezoid over the stored cycle)."""
        return float(np.trapezoid(self.pressure, self.times)
                     / (self.times[-1] - self.times[0]))


def simulate_windkessel(params: WindkesselParams, flow: FlowWaveform,
                        n_cycles: int = 10,
                        steps_per_cycle: int = 1000) -> PressureTrace:
    """Integrate the windkessel over repeated cycles, returning the last.

    ``flow`` is one cycle of outlet flow; its period is the cycle length.
    The cycle is divided into ``steps_per_cycle`` equal RK4 steps; the
    returned trace covers one full cycle start to end inclusive, so its
    first and last samples are one period apart.
    """
    if n_cycles < 1:
        raise ValidationError("need at least one cycle")
    if steps_per_cycle < 4:
        raise ValidationError("need at least 4 steps per cycle")

    h = flow.period / steps_per_cycle
    # Q is periodic, so one cycle of samples at the step and half-step
    # times serves every cycle.
    t_steps = np.arange(steps_per_cycle + 1) * h
    q_full = flow.value_at(t_steps)
    q_half = flow.value_at(t_steps[:-1] + 0.5 * h)

    rd, c = params.distal_resistance, params.compliance

    def rate(q, p):
        return (q - p / rd) / c

    p = float(params.initial_distal_pressure)
    distal = np.empty(steps_per_cycle + 1)
    for cycle in range(n_cycles):
        distal[0] = p
        for i in range(steps_per_cycle):
            k1 = rate(q_full[i], p)
            k2 = rate(q_half[i], p + 0.5 * h * k1)
            k3 = rate(q_half[i], p + 0.5 * h * k2)
            k4 = rate(q_full[i + 1], p + h * k3)
            p += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            distal[i + 1] = p

    pressure = params.proximal_resistance * q_full + distal
    return PressureTrace(times=t_steps, pressure=pressure,
                         distal_pressure=distal, flow=q_full)
