"""Tests for the frozen demo data."""

import numpy as np
import pytest

from hemoflow.mesh import tet_volumes
from hemoflow.phantoms import (CARDIAC_PERIOD, DEMO_PEAK_FLOW, MMHG,
                               REFERENCE_OUTLET, demo_outlet_flow,
                               inlet_waveform, snr_phantom)
from hemoflow.windkessel import simulate_windkessel


def test_inlet_waveform_is_normalized_and_physiological():
    w = inlet_waveform()
    assert w.period == pytest.approx(CARDIAC_PERIOD)
    assert w.values.size == 64
    assert w.values.max() == 1.0, "waveform must be normalized to unit peak"
    assert w.values.min() >= 0.02 - 1e-12, "diastolic baseline must persist"
    peak_at = w.times[np.argmax(w.values)] / CARDIAC_PERIOD
    assert 0.1 < peak_at < 0.25, "systolic peak must sit early in the cycle"
    # after systole the flow dips, then a dicrotic bump brings a second,
    # much smaller local maximum before the diastolic baseline
    peak_idx = int(np.argmax(w.values))
    trough_idx = peak_idx + int(np.argmin(w.values[peak_idx:36]))
    bump = w.values[trough_idx:48].max()
    assert w.values[trough_idx] < 0.05, "flow must dip after systole"
    assert 0.05 < bump < 0.3, "dicrotic bump must be present but modest"


def test_inlet_waveform_scales_linearly():
    assert np.allclose(inlet_waveform(peak=3.5).values,
                       3.5 * inlet_waveform().values)


def test_demo_outlet_flow_has_no_startup_transient():
    trace = simulate_windkessel(REFERENCE_OUTLET, demo_outlet_flow(),
                                n_cycles=30, steps_per_cycle=1000)
    start = trace.distal_pressure[0]
    nominal = REFERENCE_OUTLET.initial_distal_pressure
    assert abs(start - nominal) / nominal < 5e-7, \
        "calibrated peak flow must make the periodic cycle start at the " \
        "nominal distal pressure"
    # the very first simulated cycle therefore matches the converged one
    first = simulate_windkessel(REFERENCE_OUTLET, demo_outlet_flow(),
                                n_cycles=1, steps_per_cycle=1000)
    assert np.abs(first.distal_pressure - trace.distal_pressure).max() \
        / nominal < 5e-7


def test_demo_outlet_pressures_are_physiological():
    trace = simulate_windkessel(REFERENCE_OUTLET, demo_outlet_flow(),
                                n_cycles=10, steps_per_cycle=1000)
    mean_mmhg = trace.mean_pressure() / MMHG
    assert 85 < mean_mmhg < 100, f"mean pressure {mean_mmhg:.1f} mmHg"
    assert 100 < trace.pressure.max() / MMHG < 120
    assert 70 < trace.pressure.min() / MMHG < 90
    assert demo_outlet_flow().values.max() == pytest.approx(DEMO_PEAK_FLOW)


def test_snr_phantom_dimensions():
    mesh = snr_phantom()
    volume = tet_volumes(mesh).sum()
    assert volume == pytest.approx(0.020 * 0.016 * 0.008, rel=1e-12), \
        "phantom volume must be exact for a structured box"
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    assert np.allclose(hi - lo, [0.020, 0.016, 0.008])
    assert np.allclose(lo + hi, 0.0, atol=1e-15), "box must be centered"
    # every vertex on the 2 mm lattice
    offsets = mesh.vertices / 0.002
    assert np.allclose(offsets, np.round(offsets), atol=1e-9), \
        "vertices must land on voxel boundaries"
