"""Tests for the three-element windkessel integrator."""

import numpy as np
import pytest

from hemoflow.errors import ValidationError
from hemoflow.flowfields import FlowWaveform
from hemoflow.windkessel import (PressureTrace, WindkesselParams,
                                 simulate_windkessel)

# reference outlet in CGS units (pressure dyn/cm^2, flow cm^3/s)
OUTLET = WindkesselParams(proximal_resistance=274.0,
                          distal_resistance=5675.0,
                          compliance=5.08e-4,
                          initial_distal_pressure=107325.0)
PERIOD = 0.937


def constant(q, period):
    """Constant flow q over a cycle of the given period."""
    return FlowWaveform(times=[0.0, 0.5 * period], values=[q, q],
                        period=period)


def pulse(mean_flow):
    """Smooth raised-cosine flow pulse with the given cycle mean, sampled
    at the RK4 step and half-step times of the default 1000 steps."""
    t = np.arange(2000) * (0.5 * PERIOD / 1000)
    return FlowWaveform(
        times=t, values=mean_flow * (1.0 - np.cos(2.0 * np.pi * t / PERIOD)),
        period=PERIOD)


def test_zero_flow_decays_exponentially():
    tau = 2.0
    params = WindkesselParams(proximal_resistance=0.0, distal_resistance=4.0,
                              compliance=0.5, initial_distal_pressure=1000.0)
    assert params.time_constant == pytest.approx(tau)
    trace = simulate_windkessel(params, constant(0.0, tau), n_cycles=1,
                                steps_per_cycle=1000)
    exact = 1000.0 * np.exp(-trace.times / tau)
    rel = np.abs(trace.distal_pressure - exact) / exact
    assert rel.max() < 1e-8, f"decay error {rel.max():.2e} too large for RK4"


def test_integrator_is_fourth_order():
    tau = 2.0
    params = WindkesselParams(proximal_resistance=0.0, distal_resistance=4.0,
                              compliance=0.5, initial_distal_pressure=1.0)
    errors = []
    for steps in (25, 50, 100):
        trace = simulate_windkessel(params, constant(0.0, tau), n_cycles=1,
                                    steps_per_cycle=steps)
        errors.append(abs(trace.distal_pressure[-1] - np.exp(-1.0)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 4.0) < 0.2), \
        f"observed convergence orders {orders} are not fourth order"


def test_constant_flow_fixed_point_is_preserved_exactly():
    q0 = 12.0
    params = WindkesselParams(proximal_resistance=274.0,
                              distal_resistance=5675.0, compliance=5.08e-4,
                              initial_distal_pressure=q0 * 5675.0)
    trace = simulate_windkessel(params, constant(q0, PERIOD), n_cycles=3,
                                steps_per_cycle=200)
    assert np.allclose(trace.distal_pressure, q0 * 5675.0, rtol=1e-13), \
        "starting at the fixed point of constant flow must stay there"
    assert np.allclose(trace.pressure, q0 * (274.0 + 5675.0), rtol=1e-13)


def test_initial_pressure_washes_out():
    flow = pulse(mean_flow=107325.0 / 5675.0)
    shifted = WindkesselParams(
        proximal_resistance=OUTLET.proximal_resistance,
        distal_resistance=OUTLET.distal_resistance,
        compliance=OUTLET.compliance,
        initial_distal_pressure=OUTLET.initial_distal_pressure + 1000.0)
    a = simulate_windkessel(OUTLET, flow, n_cycles=40)
    b = simulate_windkessel(shifted, flow, n_cycles=40)
    # the offset decays like exp(-t / tau); after 40 cycles of 0.937 s
    # with tau = 2.883 s that is a factor ~2e-6
    assert np.abs(a.distal_pressure - b.distal_pressure).max() < 0.05, \
        "a 1000 dyn/cm^2 offset must wash out after 40 cycles"


def test_steady_cycle_mean_balances_distal_resistance():
    # averaging the state equation over a converged cycle gives
    # mean(p_d) = R_d * mean(Q) with no other terms surviving
    q_mean = 107325.0 / 5675.0
    trace = simulate_windkessel(OUTLET, pulse(q_mean), n_cycles=60)
    p_mean = np.trapezoid(trace.distal_pressure, trace.times) / PERIOD
    assert p_mean == pytest.approx(5675.0 * q_mean, rel=1e-8), \
        "converged cycle mean must satisfy the resistive balance"


def test_trace_is_consistent():
    waveform = FlowWaveform(times=np.array([0.0, 0.3, 0.6]),
                            values=np.array([5.0, 20.0, 8.0]), period=PERIOD)
    trace = simulate_windkessel(OUTLET, waveform, n_cycles=2,
                                steps_per_cycle=100)
    assert isinstance(trace, PressureTrace)
    assert trace.times.shape == (101,)
    assert trace.times[0] == 0.0
    assert trace.times[-1] == pytest.approx(PERIOD)
    assert np.allclose(trace.pressure - trace.distal_pressure,
                       274.0 * trace.flow, rtol=1e-12), \
        "outlet pressure must be distal pressure plus the proximal drop"
    assert np.allclose(trace.flow, waveform.value_at(trace.times))
    assert trace.mean_pressure() == pytest.approx(
        np.trapezoid(trace.pressure, trace.times) / PERIOD)


def test_parameter_and_argument_validation():
    with pytest.raises(ValidationError):
        WindkesselParams(proximal_resistance=-1.0, distal_resistance=1.0,
                         compliance=1.0)
    with pytest.raises(ValidationError):
        WindkesselParams(proximal_resistance=1.0, distal_resistance=0.0,
                         compliance=1.0)
    with pytest.raises(ValidationError):
        simulate_windkessel(OUTLET, constant(1.0, 1.0), n_cycles=0)
    with pytest.raises(ValidationError):
        simulate_windkessel(OUTLET, constant(1.0, 1.0), steps_per_cycle=2)
    with pytest.raises(ValidationError):
        constant(np.nan, 1.0)
