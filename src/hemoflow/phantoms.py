"""Built-in demo data: an inlet waveform, a matched outlet model, and
simple phantom geometries.

All values are frozen so demo runs are reproducible. The flow waveform
is a normalized 64-sample cardiac cycle; the outlet parameters are in
CGS units (resistance dyn s/cm^5, compliance cm^5/dyn, pressure
dyn/cm^2), the usual convention for lumped vascular models, and the
demo peak flow is calibrated so the converged periodic solution of the
reference outlet starts each cycle exactly at its nominal pressure,
removing any startup transient.
"""

from __future__ import annotations

import numpy as np

from .flowfields import FlowWaveform
from .mesh import TetMesh, generate_box_mesh
from .windkessel import WindkesselParams

__all__ = [
    "CARDIAC_PERIOD",
    "REFERENCE_OUTLET",
    "DEMO_PEAK_FLOW",
    "MMHG",
    "inlet_waveform",
    "demo_outlet_flow",
    "snr_phantom",
]

# seconds per cardiac cycle
CARDIAC_PERIOD = 0.937

# dyn/cm^2 per mmHg
MMHG = 1333.22

# one normalized cardiac cycle: sharp systolic upstroke peaking at 17% of
# the cycle, a dicrotic bump near 50%, and a low diastolic baseline
_INLET_SAMPLES = np.array([
    0.0200, 0.1522, 0.2990, 0.4418, 0.5739, 0.6912, 0.7910, 0.8719,
    0.9330, 0.9742, 0.9959, 1.0000, 0.9846, 0.9542, 0.9096, 0.8527,
    0.7856, 0.7104, 0.6292, 0.5445, 0.4584, 0.3732, 0.2911, 0.2145,
    0.1462, 0.0896, 0.0498, 0.0384, 0.0538, 0.0743, 0.0962, 0.1134,
    0.1200, 0.1134, 0.0962, 0.0743, 0.0538, 0.0384, 0.0287, 0.0236,
    0.0213, 0.0204, 0.0201, 0.0200, 0.0200, 0.0200, 0.0200, 0.0200,
    0.0200, 0.0200, 0.0200, 0.0200, 0.0200, 0.0200, 0.0200, 0.0200,
    0.0200, 0.0200, 0.0200, 0.0200, 0.0200, 0.0200, 0.0200, 0.0200,
])

# descending-aorta outlet, CGS units
REFERENCE_OUTLET = WindkesselParams(proximal_resistance=274.0,
                                    distal_resistance=5675.0,
                                    compliance=5.08e-4,
                                    initial_distal_pressure=107325.0)

# peak outlet flow in cm^3/s; calibrated (RK4, 1000 steps/cycle) so the
# converged cycle of REFERENCE_OUTLET starts at its initial pressure
DEMO_PEAK_FLOW = 77.5406


def inlet_waveform(peak: float = 1.0) -> FlowWaveform:
    """The demo cardiac cycle scaled to the given peak value."""
    times = np.arange(_INLET_SAMPLES.size) / _INLET_SAMPLES.size \
        * CARDIAC_PERIOD
    return FlowWaveform(times=times, values=peak * _INLET_SAMPLES,
                        period=CARDIAC_PERIOD)


def demo_outlet_flow() -> FlowWaveform:
    """Outlet volumetric flow in cm^3/s matched to REFERENCE_OUTLET."""
    return inlet_waveform(peak=DEMO_PEAK_FLOW)


def snr_phantom() -> TetMesh:
    """Rectangular signal block for noise-level checks.

    A 20 x 16 x 8 mm box centered on the origin, meshed in 2 mm cubes,
    so the box edges land exactly on 2 mm voxel boundaries and every
    voxel is either fully inside or fully outside the block.
    """
    return generate_box_mesh(size=(0.020, 0.016, 0.008), divisions=(10, 8, 4))
