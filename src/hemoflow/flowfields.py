"""Finite-element velocity fields on vessel meshes.

A velocity field is a time series of per-vertex velocity vectors on a
tetrahedral mesh, interpreted as a piecewise-linear (P1) field. Fields
are built analytically (steady power-law pipe flow, pulsatile scaling
of a spatial profile); the flow rate through a cut plane is integrated
over the triangles where the plane cuts the tetrahedra, read from a
marching-tetrahedra table by each tet's corner sign pattern, which is
exact for P1 fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError
from .mesh import CutPlane, TetMesh
from .rheology import PowerLawParams

__all__ = [
    "FlowWaveform",
    "VelocityField",
    "poiseuille_power_law",
    "pulsatile_scale",
    "flow_rate",
]


@dataclass
class FlowWaveform:
    """Periodic scalar waveform sampled at increasing times within a period."""

    times: np.ndarray
    values: np.ndarray
    period: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValidationError("waveform times and values must be matching "
                                  "1-D arrays")
        if self.times.size < 2:
            raise ValidationError("waveform needs at least two samples")
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("waveform times must strictly increase")
        if not (self.period > 0) or self.times[-1] - self.times[0] >= self.period:
            raise ValidationError("waveform samples must span less than one period")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("waveform values must be finite")

    def value_at(self, t) -> np.ndarray:
        """Periodic linear interpolation."""
        tau = np.mod(np.asarray(t, dtype=float) - self.times[0], self.period)
        ext_t = np.append(self.times - self.times[0], self.period)
        ext_v = np.append(self.values, self.values[0])
        return np.interp(tau, ext_t, ext_v)


@dataclass
class VelocityField:
    """Per-vertex velocities over one or more frame times.

    ``values`` has shape (frames, vertices, 3) in m/s.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[2] != 3:
            raise ValidationError(
                f"velocity values must be (frames, vertices, 3), "
                f"got {self.values.shape}")
        if self.times.shape != (self.values.shape[0],):
            raise ValidationError("one frame time per velocity frame required")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValidationError("frame times must strictly increase")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("velocities must be finite")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.values.shape[1]


def poiseuille_power_law(mesh: TetMesh, params: PowerLawParams,
                         pressure_drop: float) -> VelocityField:
    """Steady axial power-law profile in a generated pipe.

    For a pipe of radius R and length L under a pressure drop dP, the
    fully developed axial velocity is

    ``u(r) = n/(n+1) * (dP / (2 m L))**(1/n) * (R**((n+1)/n) - r**((n+1)/n))``

    which satisfies the wall force balance ``m * |du/dr|**n = dP R / (2 L)``
    at r = R.

    Raises
    ------
    GeometryError
        The mesh was not produced by :func:`~hemoflow.mesh.generate_pipe_mesh`
        (no pipe geometry in its metadata).
    """
    info = mesh.metadata.get("pipe")
    if not info:
        raise GeometryError("mesh carries no pipe geometry; analytic pipe "
                            "profiles need a generated pipe mesh")
    if pressure_drop <= 0:
        raise ValidationError("pressure drop must be positive")
    radius, length = info["radius"], info["length"]
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    # vertices within roundoff of the wall are wall: exact no slip
    r = np.where(r >= radius * (1.0 - 1e-12), radius, r)
    n, m = params.n, params.m
    exponent = (n + 1.0) / n
    scale = (n / (n + 1.0)) * (pressure_drop / (2.0 * m * length)) ** (1.0 / n)
    axial = scale * (radius ** exponent - r ** exponent)
    values = np.zeros((1, mesh.n_vertices, 3))
    values[0, :, 2] = axial
    return VelocityField(times=np.array([0.0]), values=values)


def pulsatile_scale(profile: VelocityField,
                    waveform: FlowWaveform) -> VelocityField:
    """Scale a steady spatial profile by a periodic peak-velocity waveform.

    The profile is normalized to unit peak magnitude, so the waveform
    values are the instantaneous peak velocities in m/s: the field is
    ``u(x, t) = w(t) * S(x) * e(x)`` with shape factor S in [0, 1].
    """
    if profile.n_frames != 1:
        raise ValidationError("pulsatile scaling expects a single-frame profile")
    peak = np.linalg.norm(profile.values[0], axis=1).max()
    if peak <= 0:
        raise ValidationError("profile has zero peak velocity")
    shape = profile.values[0] / peak
    values = waveform.values[:, None, None] * shape[None, :, :]
    return VelocityField(times=waveform.times.copy(), values=values)


# =========================================================================
# Cross-section flow rate
# =========================================================================

def _cut_triangles() -> np.ndarray:
    """Marching-tetrahedra table: crossed-edge triangles per sign pattern.

    Row p is for the corner sign pattern with bit k set when corner k
    lies below the plane; it holds at most two triangles, each corner an
    edge given by its two local vertices (lower first), unused ones -1.
    A lone corner a on its side gives the triangle on edges (a, b),
    (a, c), (a, d); a 2-2 split {a, b} | {c, d} gives the quad ac, ad,
    bd, bc in cyclic order, fanned as two triangles.
    """
    table = np.full((16, 2, 3, 2), -1)
    for pattern in range(1, 15):
        below = [k for k in range(4) if pattern >> k & 1]
        above = [k for k in range(4) if not pattern >> k & 1]
        if len(below) == 2:
            (a, b), (c, d) = below, above
            table[pattern] = [[(a, c), (a, d), (b, d)],
                              [(a, c), (b, d), (b, c)]]
        else:
            (a,), others = sorted((below, above), key=len)
            table[pattern, 0] = [(a, k) for k in others]
    table.sort(axis=-1)
    return table


_CUT_TRIANGLES = _cut_triangles()


def flow_rate(field: VelocityField, mesh: TetMesh,
              plane: CutPlane) -> np.ndarray:
    """Volumetric flow through a plane cut, per frame.

    The plane is intersected with every tetrahedron it crosses. Each
    tet's corner sign pattern picks its cut triangles from a
    marching-tetrahedra table; every triangle corner, and the velocity
    there, is interpolated along its crossed edge, and each triangle is
    integrated with the mean of its corner velocities. That is exact for
    a P1 field. The sign follows the plane normal.

    Raises
    ------
    GeometryError
        The plane does not intersect the mesh.
    """
    if field.n_vertices != mesh.n_vertices:
        raise ValidationError("field and mesh vertex counts differ")
    dist = plane.signed_distance(mesh.vertices)
    scale = np.abs(dist).max()
    if scale == 0:
        raise GeometryError("cut plane does not intersect the mesh")
    # Nudge the plane off any vertices it passes through exactly, so every
    # crossing is a clean sign change on an edge.
    while np.any(np.abs(dist) < 1e-12 * scale):
        dist = dist - 1e-9 * scale
    d0, d1, d2, d3 = dist[mesh.tets.T]              # one column per corner
    lowest = np.minimum(np.minimum(d0, d1), np.minimum(d2, d3))
    highest = np.maximum(np.maximum(d0, d1), np.maximum(d2, d3))
    cut_tets = np.nonzero((lowest < 0) & (highest > 0))[0]
    if cut_tets.size == 0:
        raise GeometryError("cut plane does not intersect the mesh")

    pattern = ((d0 < 0) + 2 * (d1 < 0) + 4 * (d2 < 0)
               + 8 * (d3 < 0))[cut_tets]
    tris = _CUT_TRIANGLES[pattern]                   # (C, 2, 3, 2)
    tet, slot = np.nonzero(tris[:, :, 0, 0] >= 0)
    edges = tris[tet, slot]                          # (T, 3, 2) corners
    conn = mesh.tets[cut_tets[tet]]
    vi = np.take_along_axis(conn, edges[..., 0], axis=1)     # (T, 3)
    vj = np.take_along_axis(conn, edges[..., 1], axis=1)
    t = dist[vi] / (dist[vi] - dist[vj])
    pi = mesh.vertices[vi]
    tri = pi + t[..., None] * (mesh.vertices[vj] - pi)       # (T, 3, 3)
    normal = plane.unit_normal()
    area_vec = 0.5 * np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    area = np.abs(area_vec @ normal)
    un = field.values @ normal                       # (F, V) normal velocity
    ui = un[:, vi]
    u = ui + t * (un[:, vj] - ui)                    # (F, T, 3)
    return (u.sum(axis=2) / 3.0) @ area
