"""hemoflow: blood rheology fits, flow MR image synthesis, hemodynamic biomarkers.

The package mirrors a measurement chain: fit hematocrit-dependent
power-law viscosities, impose finite-element velocity fields on
tetrahedral vessel meshes, synthesize velocity-encoded MR images from
them, and estimate wall shear stress, oscillatory shear index, and the
rate of viscous energy loss under competing rheology models.
"""

__version__ = "0.1.0"

from .errors import (
    ExtrapolationError,
    FitError,
    GeometryError,
    HemoflowError,
    InsufficientDataError,
    LabelingError,
    MeshError,
    SequenceError,
    ValidationError,
)
from .rheology import (
    BASE_CURVES,
    LITERATURE_NEWTONIAN,
    SHEAR_RATE_FLOOR,
    PowerLawParams,
    ViscositySample,
    apparent_viscosity,
    fit_for_hct,
    fit_power_law,
    interpolate_hct,
    newtonian_equivalent,
)

__all__ = [
    "__version__",
    "HemoflowError", "ValidationError", "InsufficientDataError",
    "ExtrapolationError", "FitError", "MeshError", "GeometryError",
    "LabelingError", "SequenceError",
    "SHEAR_RATE_FLOOR", "BASE_CURVES", "LITERATURE_NEWTONIAN",
    "ViscositySample", "PowerLawParams", "fit_power_law",
    "apparent_viscosity", "newtonian_equivalent", "interpolate_hct",
    "fit_for_hct",
]
