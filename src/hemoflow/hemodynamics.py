"""Viscosity-dependent hemodynamic biomarkers on tetrahedral meshes.

From a per-vertex velocity field this module recovers velocity
gradients (lumped L2 projection of the element gradients), evaluates
wall shear stress as the viscous traction 2 mu eps n at wall vertices,
the oscillatory shear index over a cardiac cycle, and the nodal rate of
viscous energy loss. Every quantity takes a power-law model evaluated
at the local shear rate, so model comparisons share identical velocity
gradients; a Newtonian viscosity mu (Pa s) is the power law
``PowerLawParams(m=mu, n=1)``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GeometryError, ValidationError
from .flowfields import VelocityField
from .mesh import TetMesh, _write_vtk, nodal_volumes
from .rheology import PowerLawParams, apparent_viscosity

__all__ = [
    "GradientOperator",
    "recover_gradients",
    "shear_rate",
    "viscosity_at",
    "wss",
    "osi",
    "energy_loss_rate",
    "SegmentStats",
    "segment_stats",
    "compare_models",
    "interpolate_to_mesh",
    "export_fields_vtk",
    "write_stats_csv",
    "write_comparison_csv",
]


class GradientOperator:
    """The gradient recovery of one mesh, built once and applied per frame.

    Element gradients of the piecewise-linear field are constant per
    tetrahedron; they are projected onto the vertices with a lumped
    L2 (volume-weighted) average, which reproduces globally linear
    fields exactly. The projection is linear in the velocities and its
    coefficients depend only on the mesh: corner k of tet t contributes
    ``weights[t, k] = vol/4 * grad(lambda_k)``, in closed form the cross
    products of the edges e_k = x_k - x_0 over 24, and the corner sums
    are divided by ``nodal_volumes``.
    """

    def __init__(self, mesh: TetMesh):
        corners = mesh.vertices[mesh.tets]
        e1, e2, e3 = (corners[:, k] - corners[:, 0] for k in (1, 2, 3))
        weights = np.empty((mesh.n_tets, 4, 3))
        weights[:, 1] = np.cross(e2, e3)
        weights[:, 2] = np.cross(e3, e1)
        weights[:, 3] = np.cross(e1, e2)
        weights[:, 1:] /= 24.0
        weights[:, 0] = -(weights[:, 1] + weights[:, 2] + weights[:, 3])
        self.mesh = mesh
        self.weights = weights                        # (T, corner k, dx_j)
        self.nodal_volumes = nodal_volumes(mesh)
        # corner-major, as four add.at passes over the corners would sum
        self._index = mesh.tets.T.ravel()

    def apply(self, velocities: np.ndarray) -> np.ndarray:
        """Gradients of one frame (N, 3) or of stacked frames (F, N, 3)."""
        mesh = self.mesh
        velocities = np.asarray(velocities, dtype=float)
        frames = velocities if velocities.ndim == 3 else velocities[None]
        if frames.shape[1:] != (mesh.n_vertices, 3):
            raise ValidationError("one velocity vector per mesh vertex required")
        nodal = self.nodal_volumes[:, None, None]
        out = np.empty((len(frames), mesh.n_vertices, 3, 3))
        for f, frame in enumerate(frames):
            share = (frame[mesh.tets].transpose(0, 2, 1) @ self.weights) \
                .reshape(-1, 9)                      # (T, u_i * dx_j)
            accum = np.column_stack([
                np.bincount(self._index, weights=np.tile(share[:, c], 4),
                            minlength=mesh.n_vertices) for c in range(9)])
            out[f] = accum.reshape(-1, 3, 3) / nodal
        return out if velocities.ndim == 3 else out[0]


def recover_gradients(mesh: TetMesh, velocities: np.ndarray,
                      operator: GradientOperator | None = None) -> np.ndarray:
    """Per-vertex velocity-gradient tensors, 1/s.

    ``velocities`` is one frame (n_vertices, 3) or a stack of frames
    (n_frames, n_vertices, 3); the result has shape (n_vertices, 3, 3)
    or (n_frames, n_vertices, 3, 3) with entry [..., v, i, j] holding
    du_i/dx_j. ``operator`` is the mesh's :class:`GradientOperator`, for
    callers that also need its nodal volumes; it is built here if absent.
    """
    if operator is None:
        operator = GradientOperator(mesh)
    elif operator.mesh is not mesh:
        raise ValidationError("gradient operator was built for another mesh")
    return operator.apply(velocities)


def shear_rate(gradients: np.ndarray) -> np.ndarray:
    """Scalar shear rate sqrt(2 eps:eps) of gradient tensors (..., 3, 3)."""
    gradients = np.asarray(gradients, dtype=float)
    strain = 0.5 * (gradients + np.swapaxes(gradients, -1, -2))
    return np.sqrt(2.0 * np.einsum("...ij,...ij->...", strain, strain))


def viscosity_at(viscosity: PowerLawParams,
                 gradients: np.ndarray) -> np.ndarray:
    """Viscosity evaluated per gradient tensor.

    The power-law model is evaluated at the local shear rate, clamped
    below at ``SHEAR_RATE_FLOOR``. The Newtonian curve m = mu, n = 1
    gives exactly mu everywhere.
    """
    return apparent_viscosity(viscosity, shear_rate(gradients))


def wss(gradients: np.ndarray, normals: np.ndarray,
        viscosity: PowerLawParams) -> tuple[np.ndarray, np.ndarray]:
    """Wall shear stress vectors t = 2 mu eps n and their magnitudes, Pa.

    ``gradients`` are the recovered tensors at the wall vertices and
    ``normals`` the matching unit inward wall normals.
    """
    gradients = np.asarray(gradients, dtype=float)
    normals = np.asarray(normals, dtype=float)
    if gradients.shape[-2:] != (3, 3) or normals.shape != gradients.shape[:-2] + (3,):
        raise ValidationError("need one 3x3 gradient and one normal per "
                              "wall vertex")
    lengths = np.linalg.norm(normals, axis=-1)
    if not np.allclose(lengths, 1.0, atol=1e-8):
        raise ValidationError("wall normals must be unit length")
    strain = 0.5 * (gradients + np.swapaxes(gradients, -1, -2))
    mu = viscosity_at(viscosity, gradients)
    traction = 2.0 * mu[..., None] * np.einsum("...ij,...j->...i",
                                               strain, normals)
    return traction, np.linalg.norm(traction, axis=-1)


def osi(tractions: np.ndarray, times: np.ndarray, period: float) -> np.ndarray:
    """Oscillatory shear index per wall vertex over one cardiac cycle.

    OSI = (1 - ||int t dt|| / int ||t|| dt) / 2, integrated with the
    trapezoid rule after closing the cycle periodically (the first frame
    is appended again at t = period). Vertices whose shear magnitude
    integrates to zero get OSI = 0: a vanishing history carries no
    directional information.
    """
    tractions = np.asarray(tractions, dtype=float)
    times = np.asarray(times, dtype=float)
    if tractions.ndim != 3 or tractions.shape[2] != 3:
        raise ValidationError("tractions must be (frames, vertices, 3)")
    if times.shape != (tractions.shape[0],) or times.size < 2:
        raise ValidationError("need one time per frame and at least 2 frames")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("frame times must strictly increase")
    if not period > 0 or times[-1] - times[0] >= period:
        raise ValidationError("frames must span less than one period")

    closed_t = np.append(times, times[0] + period)
    closed_v = np.concatenate([tractions, tractions[:1]], axis=0)
    mean_vec = np.trapezoid(closed_v, closed_t, axis=0)
    numerator = np.linalg.norm(mean_vec, axis=-1)
    denominator = np.trapezoid(np.linalg.norm(closed_v, axis=-1),
                               closed_t, axis=0)
    out = np.zeros(tractions.shape[1])
    active = denominator > 0
    out[active] = 0.5 * (1.0 - numerator[active] / denominator[active])
    return np.clip(out, 0.0, 0.5)


def energy_loss_rate(gradients: np.ndarray, viscosity: PowerLawParams,
                     volumes: np.ndarray) -> np.ndarray:
    """Nodal rate of viscous energy loss, microwatts.

    E(x) = 2 mu (eps - 2/3 (div u) I) : (eps - 2/3 (div u) I) V(x); for
    the fields handled here div u is near zero.
    """
    gradients = np.asarray(gradients, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if gradients.shape[:-2] != volumes.shape:
        raise ValidationError("need one nodal volume per gradient tensor")
    strain = 0.5 * (gradients + np.swapaxes(gradients, -1, -2))
    div = np.einsum("...ii->...", gradients)
    eye = np.eye(3)
    deviator = strain - (2.0 / 3.0) * div[..., None, None] * eye
    mu = viscosity_at(viscosity, gradients)
    density = 2.0 * mu * np.einsum("...ij,...ij->...", deviator, deviator)
    return density * volumes * 1e6


# =========================================================================
# Aggregation and model comparison
# =========================================================================

@dataclass
class SegmentStats:
    """Per-segment mean and population standard deviation of one quantity.

    Segments with no vertices are reported as missing (None entries).
    ``cross_mean`` is the mean of the available segment means.
    """

    parameter: str
    segments: list
    counts: list
    means: list
    stds: list
    frame: int | None = None

    def as_rows(self):
        rows = []
        for name, count, mean, std in zip(self.segments, self.counts,
                                          self.means, self.stds):
            rows.append({"segment": name, "frame": self.frame,
                         "param": self.parameter, "count": count,
                         "mean": mean, "std": std})
        return rows

    @property
    def cross_mean(self):
        present = [m for m in self.means if m is not None]
        return float(np.mean(present)) if present else None


def segment_stats(values: np.ndarray, labels: np.ndarray,
                  names: Sequence[str], parameter: str = "value",
                  frame: int | None = None) -> SegmentStats:
    """Aggregate a per-vertex quantity over labeled segments.

    ``labels`` assigns each value a segment index (-1 excludes it);
    ``names[i]`` names segment i. Empty segments yield None statistics.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    if values.shape != labels.shape:
        raise ValidationError("values and labels must align")
    if labels.size and labels.max() >= len(names):
        raise ValidationError(f"label {labels.max()} has no segment name")
    counts, means, stds = [], [], []
    for seg in range(len(names)):
        picked = values[labels == seg]
        counts.append(int(picked.size))
        if picked.size == 0:
            means.append(None)
            stds.append(None)
        else:
            means.append(float(picked.mean()))
            stds.append(float(picked.std()))
    return SegmentStats(parameter=parameter, segments=list(names),
                        counts=counts, means=means, stds=stds, frame=frame)


def compare_models(reference: SegmentStats,
                   alternative: SegmentStats) -> list:
    """Relative and absolute differences of segment means.

    The relative difference is (alternative - reference)/reference x 100,
    so a positive sign means the alternative model overestimates. A zero
    or missing reference mean leaves the relative entry None (undefined).
    Includes a final cross-segment row labeled 'all'.
    """
    if reference.segments != alternative.segments:
        raise ValidationError("segment lists differ between models")
    rows = []
    pairs = list(zip(reference.segments, reference.means, alternative.means))
    pairs.append(("all", reference.cross_mean, alternative.cross_mean))
    for name, ref, alt in pairs:
        row = {"segment": name, "param": reference.parameter,
               "frame": reference.frame, "reference_mean": ref,
               "alternative_mean": alt, "absolute_difference": None,
               "relative_difference_pct": None}
        if ref is not None and alt is not None:
            row["absolute_difference"] = alt - ref
            if ref != 0:
                row["relative_difference_pct"] = (alt - ref) / ref * 100.0
        rows.append(row)
    return rows


# =========================================================================
# Voxel-to-mesh transfer
# =========================================================================

def interpolate_to_mesh(voxels, mesh: TetMesh) -> VelocityField:
    """Trilinear interpolation of decoded voxel velocities to vertices.

    ``voxels`` is a ReconstructedVelocity (or anything with ``velocity``,
    ``params`` and ``frame_time`` attributes). No smoothing is applied.

    Raises
    ------
    GeometryError
        Some mesh vertex lies outside the voxel grid.
    """
    axes = voxels.params.axis_coordinates()
    for dim, ax in enumerate(axes):
        lo, hi = mesh.vertices[:, dim].min(), mesh.vertices[:, dim].max()
        if lo < ax[0] - 1e-12 or hi > ax[-1] + 1e-12:
            raise GeometryError(
                f"mesh extent [{lo:.4g}, {hi:.4g}] exceeds the voxel grid "
                f"[{ax[0]:.4g}, {ax[-1]:.4g}] along axis {dim}")
    # Trilinear weights, summed corner by corner in the order
    # scipy.interpolate.RegularGridInterpolator(method="linear") uses, so
    # the result equals it bit for bit. Vertices just outside the grid
    # (within the tolerance above) extrapolate from the edge cell.
    lower, upper = [], []
    for dim, ax in enumerate(axes):
        x = mesh.vertices[:, dim]
        i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, len(ax) - 2)
        t = (x - ax[i]) / (ax[i + 1] - ax[i])
        lower.append((i, 1 - t))
        upper.append((i + 1, t))
    total = np.array([0.])
    for corner in itertools.product(*zip(lower, upper)):
        index, (w0, w1, w2) = zip(*corner)
        total = total + voxels.velocity[index] * (w0 * w1 * w2)[:, None]
    return VelocityField(times=np.array([voxels.frame_time]),
                         values=total[None])


# =========================================================================
# Exports
# =========================================================================

def export_fields_vtk(mesh: TetMesh, point_data: dict,
                      path: str | Path) -> None:
    """Write the mesh plus named per-vertex fields as legacy VTK.

    Scalars have shape (n_vertices,), vectors (n_vertices, 3). Wall-only
    quantities must be scattered to full length by the caller (zeros off
    the wall are conventional).
    """
    _write_vtk(path, mesh, point_data)


def _fmt(value):
    return "" if value is None else f"{value:.10g}"


def write_stats_csv(stats: Sequence[SegmentStats], path: str | Path) -> None:
    """Write segment statistics as CSV rows segment,frame,param,mean,std."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "frame", "param", "count", "mean", "std"])
        for block in stats:
            for row in block.as_rows():
                writer.writerow([row["segment"],
                                 "" if row["frame"] is None else row["frame"],
                                 row["param"], row["count"],
                                 _fmt(row["mean"]), _fmt(row["std"])])


def write_comparison_csv(rows: Sequence[dict], path: str | Path) -> None:
    """Write model-comparison rows produced by compare_models as CSV.

    The model-name columns are blank for rows that do not name their
    models (bare ``compare_models`` output).
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "frame", "param", "reference_model",
                         "alternative_model", "reference_mean",
                         "alternative_mean", "absolute_difference",
                         "relative_difference_pct"])
        for row in rows:
            writer.writerow([row["segment"],
                             "" if row["frame"] is None else row["frame"],
                             row["param"], row.get("reference_model", ""),
                             row.get("alternative_model", ""),
                             _fmt(row["reference_mean"]),
                             _fmt(row["alternative_mean"]),
                             _fmt(row["absolute_difference"]),
                             _fmt(row["relative_difference_pct"])])
