"""Viscosity-dependent hemodynamic biomarkers on tetrahedral meshes.

Decoded voxel velocities reach the mesh one cardiac phase per
``interpolate_to_mesh`` call, by trilinear interpolation through the
``TrilinearWeights`` of the mesh and the image grid, built once for all
phases and applied one velocity component at a time. From each
phase's vertex velocities this module recovers velocity gradients
(lumped L2 projection of the element gradients, in the difference form
sum_k (u_k - u_0) W_k, so a uniform field has exactly zero gradient),
evaluates wall shear stress as the viscous traction 2 mu eps n at wall
vertices, the oscillatory shear index over a cardiac cycle, and the
nodal rate of viscous energy loss. Every quantity takes a power-law
model evaluated at the local shear rate, so model comparisons share
identical velocity gradients; ``frame_biomarkers`` computes a frame's
strain terms once for all models and returns each model's WSS, energy
loss and viscosity, so a caller can take the cycle one frame at a time.
The strain and the deviator are each formed in one (N, 3, 3) buffer, in
place, in the operation order of their expressions. A Newtonian
viscosity mu (Pa s) is the power law ``PowerLawParams(m=mu, n=1)``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .mesh import TetMesh, _lumped_volumes, _tet_geometry, _write_vtk
from .mri import SequenceParams
from .rheology import PowerLawParams, apparent_viscosity

__all__ = [
    "GradientOperator",
    "recover_gradients",
    "shear_rate",
    "viscosity_at",
    "wss",
    "osi",
    "energy_loss_rate",
    "frame_biomarkers",
    "SegmentStats",
    "segment_stats",
    "compare_models",
    "check_coverage",
    "TrilinearWeights",
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
    coefficients depend only on the mesh: corner k of tet t carries
    ``vol/4 * grad(lambda_k)``, in closed form the cross products of the
    edges e_k = x_k - x_0 over 24 for k = 1-3 (``weights[k - 1, j, t]``,
    one contiguous row per k and dx_j). Corner 0 carries minus their
    sum, so a tet's share is the difference form
    sum_k (u_k - u_0) (x) W_k and a uniform field gives exactly zero.
    Every corner of the tet receives that share, and the sums are
    divided by ``nodal_volumes``.

    The operator keeps the weights and the four corner columns (13
    numbers per tet) and the nodal volumes; building it holds little
    more, since ``_tet_geometry`` forms the edges a chunk of tets at a
    time.
    Each ``apply`` call makes five per-tet buffers (u_0, the three
    differences and the share) and gathers, subtracts and sums into them
    in place, in the order of the expression above; once the differences
    are taken, the product terms are formed in u_0's buffer. So its peak
    is its result plus those buffers.
    """

    def __init__(self, mesh: TetMesh):
        crosses, vol6 = _tet_geometry(mesh.vertices, mesh.tets)
        self.mesh = mesh
        self.weights = np.divide(crosses, 24.0, out=crosses)  # (k, dx_j, T)
        self.nodal_volumes = _lumped_volumes(mesh, vol6)
        self._corners = tuple(np.ascontiguousarray(c) for c in mesh.tets.T)

    def apply(self, velocities: np.ndarray) -> np.ndarray:
        """Gradients (N, 3, 3) of one frame of velocities (N, 3)."""
        mesh = self.mesh
        velocities = np.asarray(velocities, dtype=float)
        if velocities.shape != (mesh.n_vertices, 3):
            raise ValidationError("one velocity vector per mesh vertex required")
        n, (w1, w2, w3) = mesh.n_vertices, self.weights
        corner0, corners = self._corners[0], self._corners[1:]
        out = np.empty((n, 3, 3))
        u0 = np.empty(mesh.n_tets)
        d = np.empty((3, mesh.n_tets))
        share = np.empty_like(u0)
        for i, u in enumerate(np.ascontiguousarray(velocities.T)):
            # TetMesh checks the corners index its vertices, so "clip"
            # clips nothing and spares take's buffered copy of out
            u.take(corner0, out=u0, mode="clip")
            for dk, c in zip(d, corners):
                u.take(c, out=dk, mode="clip")
                dk -= u0
            # u0 is spent once the differences are taken: the product
            # terms are formed in its buffer
            for j in range(3):
                np.multiply(d[0], w1[j], out=share)
                share += np.multiply(d[1], w2[j], out=u0)
                share += np.multiply(d[2], w3[j], out=u0)
                accum = np.bincount(corner0, share, minlength=n)
                for c in corners:
                    accum += np.bincount(c, share, minlength=n)
                np.divide(accum, self.nodal_volumes, out=out[:, i, j])
        return out


def recover_gradients(mesh: TetMesh, velocities: np.ndarray,
                      operator: GradientOperator | None = None) -> np.ndarray:
    """Per-vertex velocity-gradient tensors, 1/s.

    ``velocities`` is one frame (n_vertices, 3); the result has shape
    (n_vertices, 3, 3) with entry [v, i, j] holding du_i/dx_j. ``operator`` is the mesh's :class:`GradientOperator`, for
    callers that also need its nodal volumes; it is built here if absent.
    """
    if operator is None:
        operator = GradientOperator(mesh)
    elif operator.mesh is not mesh:
        raise ValidationError("gradient operator was built for another mesh")
    return operator.apply(velocities)


def _strain(gradients: np.ndarray) -> np.ndarray:
    """Strain-rate tensors eps = (G + G^T)/2 of gradients (..., 3, 3),
    halved in the sum's buffer."""
    strain = gradients + np.swapaxes(gradients, -1, -2)
    strain *= 0.5
    return strain


def _shear_rate(strain: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * np.einsum("...ij,...ij->...", strain, strain))


def _deviator_contraction(gradients: np.ndarray,
                          strain: np.ndarray) -> np.ndarray:
    """d:d of the deviator d = eps - 2/3 (div u) I.

    The deviator is a copy of eps with 2/3 div u taken off its diagonal
    in place; for finite gradients d:d equals that of
    ``strain - 2/3 div[..., None, None] * I`` bit for bit.
    """
    shift = (2.0 / 3.0) * np.einsum("...ii->...", gradients)
    deviator = strain.copy()
    for i in range(3):
        deviator[..., i, i] -= shift
    return np.einsum("...ij,...ij->...", deviator, deviator)


def _check_wall(tensors: np.ndarray, normals: np.ndarray) -> None:
    if tensors.shape[-2:] != (3, 3) or normals.shape != tensors.shape[:-2] + (3,):
        raise ValidationError("need one 3x3 gradient and one normal per "
                              "wall vertex")
    lengths = np.linalg.norm(normals, axis=-1)
    if not np.allclose(lengths, 1.0, atol=1e-8):
        raise ValidationError("wall normals must be unit length")


def _strain_normal(strain: np.ndarray, normals: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", strain, normals)


def _traction(mu: np.ndarray, strain_normal: np.ndarray):
    """Traction 2 mu eps n and its magnitude, from mu and eps n."""
    traction = 2.0 * mu[..., None] * strain_normal
    return traction, np.linalg.norm(traction, axis=-1)


def _energy_loss(mu: np.ndarray, contraction: np.ndarray,
                 volumes: np.ndarray) -> np.ndarray:
    return 2.0 * mu * contraction * volumes * 1e6


def shear_rate(gradients: np.ndarray) -> np.ndarray:
    """Scalar shear rate sqrt(2 eps:eps) of gradient tensors (..., 3, 3)."""
    return _shear_rate(_strain(np.asarray(gradients, dtype=float)))


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
    _check_wall(gradients, normals)
    strain = _strain(gradients)
    mu = apparent_viscosity(viscosity, _shear_rate(strain))
    return _traction(mu, _strain_normal(strain, normals))


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
    strain = _strain(gradients)
    mu = apparent_viscosity(viscosity, _shear_rate(strain))
    return _energy_loss(mu, _deviator_contraction(gradients, strain), volumes)


def frame_biomarkers(gradients: np.ndarray, wall: np.ndarray,
                     normals: np.ndarray, volumes: np.ndarray,
                     models: dict[str, PowerLawParams]) -> dict:
    """WSS, energy loss and viscosity of one frame under every model.

    ``gradients`` (n_vertices, 3, 3) are one frame's recovered tensors,
    ``wall`` and ``normals`` the wall vertices and their unit inward
    normals, ``volumes`` the nodal volumes. Returns, per model name,
    ``(traction, magnitude, energy_loss, viscosity)``, equal bit for bit
    to ``wss(gradients[wall], normals, model)``,
    ``energy_loss_rate(gradients, model, volumes)`` and
    ``viscosity_at(model, gradients)``. The strain, shear rate, deviator
    contraction and eps n are computed once for all models; only mu and
    the products are per model.
    """
    gradients = np.asarray(gradients, dtype=float)
    normals = np.asarray(normals, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    if gradients.shape != volumes.shape + (3, 3):
        raise ValidationError("need one 3x3 gradient and one nodal volume "
                              "per vertex")
    strain = _strain(gradients)
    wall_strain = strain[wall]
    _check_wall(wall_strain, normals)
    rate = _shear_rate(strain)
    contraction = _deviator_contraction(gradients, strain)
    strain_normal = _strain_normal(wall_strain, normals)
    out = {}
    for name, viscosity in models.items():
        mu = apparent_viscosity(viscosity, rate)
        out[name] = (*_traction(mu[wall], strain_normal),
                     _energy_loss(mu, contraction, volumes), mu)
    return out


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

def check_coverage(mesh: TetMesh, params: SequenceParams) -> None:
    """Require the image grid of ``params`` to contain every mesh vertex.

    The voxel centres of the acquisition bound the grid, with 1e-12 m of
    slack.

    Raises
    ------
    ValidationError
        Some mesh vertex lies outside the voxel grid.
    """
    for dim, ax in enumerate(params.axis_coordinates()):
        lo, hi = mesh.vertices[:, dim].min(), mesh.vertices[:, dim].max()
        if lo < ax[0] - 1e-12 or hi > ax[-1] + 1e-12:
            raise ValidationError(
                f"mesh extent [{lo:.4g}, {hi:.4g}] exceeds the voxel grid "
                f"[{ax[0]:.4g}, {ax[-1]:.4g}] along axis {dim}")


class TrilinearWeights:
    """The trilinear interpolation of one image grid to one mesh, built
    once and applied per phase.

    Building it runs ``check_coverage``. Each vertex lies in one grid cell
    (vertices just outside the grid, within its 1e-12 m slack,
    extrapolate from the edge cell); the weights keep that cell's lower
    corner as one flat voxel index per vertex and, for each of its 8
    corners in the order scipy.interpolate.RegularGridInterpolator
    (method="linear") sums them, the corner's flat offset from it and the
    weight product w0 * w1 * w2 per vertex. ``apply`` then equals that
    interpolator bit for bit.
    """

    def __init__(self, mesh: TetMesh, params: SequenceParams):
        check_coverage(mesh, params)
        self.mesh = mesh
        self.axes = params.axis_coordinates()
        self.shape = tuple(len(ax) for ax in self.axes)
        _, ny, nz = self.shape
        base, corners = 0, []
        for dim, stride in enumerate((ny * nz, nz, 1)):
            ax, x = self.axes[dim], mesh.vertices[:, dim]
            i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0,
                        len(ax) - 2)
            t = (x - ax[i]) / (ax[i + 1] - ax[i])
            base = base + i * stride
            corners.append(((0, 1 - t), (stride, t)))
        self.base = base
        self.corners = [(d0 + d1 + d2, w0 * w1 * w2) for (d0, w0), (d1, w1),
                        (d2, w2) in itertools.product(*corners)]

    def apply(self, velocity: np.ndarray) -> np.ndarray:
        """Vertex velocities (N, 3) of voxel velocities (nx, ny, nz, 3) on
        the grid the weights were built for, one component at a time."""
        velocity = np.asarray(velocity, dtype=float)
        # the corner indices are taken with mode="clip": velocities of
        # another shape would be read at clipped indices
        if velocity.shape != self.shape + (3,):
            raise ValidationError("decoded velocities must lie on their "
                                  "image grid")
        columns = np.ascontiguousarray(np.moveaxis(velocity, -1, 0))
        n = self.mesh.n_vertices
        out, acc, term = np.empty((n, 3)), np.empty(n), np.empty(n)
        for i, u in enumerate(columns.reshape(3, -1)):
            acc.fill(0.0)
            for offset, weight in self.corners:
                # u[offset:][base] is u[base + offset], which lies in the
                # grid, so "clip" clips nothing and spares take's
                # buffered copy of out
                u[offset:].take(self.base, out=term, mode="clip")
                term *= weight
                acc += term
            out[:, i] = acc
        return out


def interpolate_to_mesh(frame, mesh: TetMesh,
                        weights: TrilinearWeights | None = None) -> np.ndarray:
    """Trilinear interpolation of one phase's decoded voxel velocities to
    the mesh vertices, (n_vertices, 3).

    ``frame`` is a ReconstructedVelocity (or anything with ``velocity``
    (nx, ny, nz, 3) and ``params`` attributes). ``weights`` are the
    :class:`TrilinearWeights` of the mesh and the frame's image grid, for
    callers that interpolate many phases on one grid; they are built here
    if absent. No smoothing is applied.

    Raises
    ------
    ValidationError
        Velocities not on the grid of ``params``, a mesh vertex outside
        the voxel grid (see ``check_coverage``), or weights built for
        another mesh or image grid.
    """
    if weights is None:
        weights = TrilinearWeights(mesh, frame.params)
    elif weights.mesh is not mesh:
        raise ValidationError("trilinear weights were built for another mesh")
    elif not all(map(np.array_equal, weights.axes,
                     frame.params.axis_coordinates())):
        raise ValidationError("trilinear weights were built for another "
                              "image grid")
    return weights.apply(frame.velocity)


# =========================================================================
# Exports
# =========================================================================

def export_fields_vtk(mesh: TetMesh, point_data: dict,
                      path: str | Path) -> None:
    """Write the mesh plus named per-vertex fields as legacy BINARY VTK
    (``mesh`` module docstring).

    Scalars have shape (n_vertices,), vectors (n_vertices, 3). Wall-only
    quantities must be scattered to full length by the caller (zeros off
    the wall are conventional).
    """
    _write_vtk(path, mesh, point_data)


# The columns of the two biomarker tables, as written and as read back.
_STATS_COLUMNS = ("segment", "frame", "param", "count", "mean", "std")
_DIFFERENCE_COLUMNS = ("reference_mean", "alternative_mean",
                       "absolute_difference", "relative_difference_pct")
_COMPARISON_COLUMNS = ("segment", "frame", "param", "reference_model",
                       "alternative_model", *_DIFFERENCE_COLUMNS)


def _float_cell(value: float) -> str:
    """A float as the tables hold it: ``%.10g``."""
    return f"{value:.10g}"


def _write_table(path: str | Path, columns: Sequence[str], rows) -> None:
    """Write ``rows``, values in ``columns`` order, as CSV under a header:
    None blank, a float (numpy float64 too) as ``_float_cell``, else as
    it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(["" if value is None else _float_cell(value)
                          if isinstance(value, float) else value
                          for value in row] for row in rows)


def _read_table(path: str | Path, columns: Sequence[str]) -> list[dict]:
    """The rows of a CSV table as text dicts keyed by its header; a
    ValidationError if the file is unreadable or lacks one of ``columns``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for column in columns:
                if column not in (reader.fieldnames or ()):
                    raise ValidationError(f"{path}: no {column!r} column")
            return list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def write_stats_csv(stats: Sequence[SegmentStats], path: str | Path) -> None:
    """Write segment statistics as CSV, one row per block and segment."""
    _write_table(path, _STATS_COLUMNS, (
        (name, block.frame, block.parameter, count, mean, std)
        for block in stats for name, count, mean, std in
        zip(block.segments, block.counts, block.means, block.stds)))


def write_comparison_csv(rows: Sequence[dict], path: str | Path) -> None:
    """Write model-comparison rows produced by compare_models as CSV.

    The model-name columns are blank for rows that do not name their
    models (bare ``compare_models`` output).
    """
    _write_table(path, _COMPARISON_COLUMNS,
                 ([row.get(c) for c in _COMPARISON_COLUMNS] for row in rows))
