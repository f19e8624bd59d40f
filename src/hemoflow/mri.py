"""Synthetic phase-contrast MR acquisition of finite-element flow fields.

The acquisition model is a Cartesian gradient-echo sequence with
four-point velocity encoding: one velocity-compensated reference plus
one velocity-sensitized acquisition per axis. Signal samples are
evaluated directly from the mesh via the imaging equation

    s(k) = sum_q w_q M0(r_q) e^{-i pi u_a(r_q)/VENC} e^{-t/T2*}
           e^{-i 2 pi k . (r_q + u(r_q) t)}

with Gaussian quadrature over the tetrahedra; spins drift linearly
along their frame velocity during the readout. Echo time and sample
times come from shortest-duration trapezoidal gradients on a fixed
raster under slew and amplitude limits.

The sum is evaluated in one pass for the encodes that can differ:

1. Shared operand. For each readout sample, one phase-encode operand
   L is built once for the n_enc distinct encodes (step 8), in
   ``_partition_sums``, and handed to the partition step (4 or 6),
   which contracts it in batched matrix products. L is encode-minor,
   (n_pe, n, n_enc): row 0 is amp * A (the readout/T2* factor times
   each point's encode amplitudes) and each later row the one before
   times s_y, one contiguous product per row. L carries no partition
   phase; the partition step owns that axis.
2. Recurrence in k. The k axes are evenly spaced, so each ramp row is
   the previous one times e^{-2 pi i c dk}: one complex product per
   table entry instead of one exponential.
3. Recurrence in time. Sample times and readout k are evenly spaced
   too, so a point's first ramp row (readout phase, T2* decay, drift)
   has a phase quadratic in the sample index and its ramp steps phases
   linear in it. Each sample's factors are the previous sample's times
   a step factor, and the readout step is itself advanced by a
   constant. The readout and phase-encode factors take five
   exponentials per block of points whatever the readout length; the
   real table of step 4 makes its own partition factor, two more, and
   the Chebyshev step (6) one shift. The readout-sample loop only
   multiplies and adds.
4. Real partition table. The partition axis is centred, k = m dk for
   m = -c..c (c = n//2; an even count has no +c), so partition m takes
   s_z^m with s_z = e^{-2 pi i dk z} of modulus 1, and s_z^-m is the
   conjugate of s_z^m; the table makes s_z itself (step 3). Only
   s_z^0..s_z^c are built; their real and imaginary parts form one real
   table T of 2c+1 rows. One batched real product of T with the float
   view of the operand L of step 1 gives C_m = sum L Re(s_z^m) and
   J_m = sum L Im(s_z^m) together, at half the flops of the complex
   product; partition +-m is C_m +- i J_m, unfolded once per frame.
5. Blocks. The tets are taken in blocks of about ``_BLOCK`` quadrature
   points, and each block makes its own points: positions, velocities
   and weights w_q vol M0 come from its tets' corners, and its
   point-major encode amplitudes w_q vol M0 e^{-i pi u_a/VENC} from
   those. The block's products accumulate into per-sample sums, so
   neither the tables nor the points grow with the mesh.
6. Chebyshev partition step. Where the real table is large, the
   partition phase is expanded about each block's centre c_b instead.
   Every drifted z of a block lies within h of c_b, h half the widest
   block's range over the readout; with x = (z - c_b)/h and a = 2 pi k h,
   e^{-2 pi i k z} = e^{-2 pi i k c_b} sum_r (2 - delta_r0) (-i)^r J_r(a)
   T_r(x) (Jacobi-Anger; a low-rank nonuniform FFT after Ruiz-Antolin &
   Townsend, SIAM J. Sci. Comput. 40, A529, 2018). Its R terms drop only
   coefficients below 1e-13 at the largest |a|. Per sample, one batched
   real product of T_0..T_{R-1} (three-term recurrence) with the operand
   L of step 1 gives R moments; per block, the coefficients times
   e^{-2 pi i k c_b} map them to the partitions in one product. It is
   exact to round-off, and taken when R is at most two thirds of the
   real table's rows: the paper-scale slab (113 rows against 22 on one
   layer of step 7) and the resolution-2 pipe with the default sequence
   (37 against 19) take it, the default config (37 against 34) does not.
7. Layers. A generated pipe is one layer of prisms tiled along z
   (``mesh.pipe_layers``). When its M0 and the frame's velocities also
   repeat from ring to ring bit for bit, spin q of layer l is spin q of
   layer 0 moved by z_l at every sample time, so by the shift theorem
   the frame is the first layer's grids times D(k_z) = sum_l
   e^{-2 pi i k_z z_l}, z_l each ring's own z less ring 0's. Only that
   layer goes through steps 1-6, which pick their partition step on it;
   the rest costs one sum over the layers per partition. It agrees with
   the whole mesh to about 1e-14 relative L2. Any other input takes the
   whole mesh.
8. Still axes. An encode differs from the reference only by its
   amplitude e^{-i pi u_a/VENC}, exactly 1 at every point (each a convex
   combination of its tet's corners) when no vertex moves along a, as
   in the pipe's axial flow. Steps 1-7 take only the reference and the
   moving axes; each still axis gets its own copy of the reference.

All quantities are SI: meters, seconds, tesla. Note the slew rate unit
is T/m/s (195 T/m/s is a typical whole-body gradient system).
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from math import ceil, isfinite, prod, sqrt
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import SequenceError, ValidationError
from .flowfields import VelocityField
from .mesh import TetMesh, _is_integer, _tet_vol6, pipe_layers

log = logging.getLogger("hemoflow")

__all__ = [
    "GYROMAGNETIC_RATIO",
    "GRADIENT_RASTER",
    "ENCODE_AXES",
    "SequenceParams",
    "SequenceTimings",
    "KSpaceData",
    "ImageVolume",
    "ReconstructedVelocity",
    "sequence_timings",
    "synthesize_signal",
    "synthesize_frame",
    "add_noise",
    "reconstruct",
    "phase_to_velocity",
    "save_kspace",
    "load_kspace",
    "save_images",
    "load_images",
]

# proton gyromagnetic ratio over 2 pi, Hz/T
GYROMAGNETIC_RATIO = 42.5774806e6

# gradient waveforms start and stop on this time raster, s
GRADIENT_RASTER = 10e-6

# encode order: velocity-compensated reference, then one axis at a time
ENCODE_AXES = ("ref", "x", "y", "z")


@dataclass(frozen=True)
class SequenceParams:
    """Acquisition settings, SI units.

    ``matrix`` is (readout, phase, partition); the acquired readout
    length is ``matrix[0] * oversampling``. ``fov_center`` places the
    field of view in mesh coordinates.
    """

    venc: float = 2.5                              # m/s
    matrix: tuple[int, int, int] = (56, 30, 113)
    voxel: tuple[float, float, float] = (0.002, 0.002, 0.002)  # m
    oversampling: int = 2
    t2_star: float = 254.0e-3                      # s
    adc_bandwidth: float = 128.0e3                 # Hz
    slew_rate: float = 195.0                       # T/m/s
    max_gradient: float = 30.0e-3                  # T/m
    fov_center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.matrix) != 3 or not all(_is_integer(n) and n >= 2
                                            for n in self.matrix):
            raise ValidationError("matrix must be 3 integers >= 2")
        if len(self.voxel) != 3 or not all(v > 0 and isfinite(v)
                                           for v in self.voxel):
            raise ValidationError("voxel sizes must be positive and finite")
        if not _is_integer(self.oversampling):
            raise ValidationError("oversampling must be an integer")
        positive = {"venc": self.venc, "oversampling": self.oversampling,
                    "t2_star": self.t2_star,
                    "adc_bandwidth": self.adc_bandwidth,
                    "slew_rate": self.slew_rate,
                    "max_gradient": self.max_gradient}
        for name, value in positive.items():
            if not value > 0:
                raise ValidationError(f"{name} must be positive")
        if len(self.fov_center) != 3 or not all(map(isfinite,
                                                    self.fov_center)):
            raise ValidationError("fov_center must have 3 finite components")

    @property
    def fov(self) -> tuple[float, float, float]:
        return tuple(n * v for n, v in zip(self.matrix, self.voxel))

    @property
    def acquired_readout(self) -> int:
        return self.matrix[0] * self.oversampling

    def axis_coordinates(self):
        """Voxel center positions of the cropped image grid, per axis."""
        return tuple(
            (np.arange(n) - n // 2) * v + c
            for n, v, c in zip(self.matrix, self.voxel, self.fov_center))

    def k_axes(self):
        """Cartesian k-space sample coordinates (cycles/m), per axis."""
        n_ro = self.acquired_readout
        dk_ro = 1.0 / (self.oversampling * self.fov[0])
        k_ro = (np.arange(n_ro) - n_ro // 2) * dk_ro
        k_pe = (np.arange(self.matrix[1]) - self.matrix[1] // 2) / self.fov[1]
        k_pz = (np.arange(self.matrix[2]) - self.matrix[2] // 2) / self.fov[2]
        return k_ro, k_pe, k_pz


@dataclass(frozen=True)
class SequenceTimings:
    """Echo time and per-sample acquisition times for one k-space line."""

    echo_time: float
    sample_times: np.ndarray            # s since excitation, one per sample
    dwell: float                        # ADC sample spacing, s
    readout_gradient: float             # T/m
    durations: Mapping[str, float]      # contributions for introspection


def _ceil_raster(t: float) -> float:
    """Round a duration up to the gradient raster."""
    return ceil(t / GRADIENT_RASTER - 1e-9) * GRADIENT_RASTER


def _shortest_trapezoid(area, slew, gmax):
    """Shortest trapezoid lobe of the given area (T s/m) on the raster.

    Returns (ramp, flat, amplitude); the amplitude is rescaled after
    rounding the durations so the area is matched exactly.
    """
    ramp = _ceil_raster(gmax / slew)
    flat = area / gmax - ramp
    if flat > 0:
        flat = _ceil_raster(flat)
        return ramp, flat, area / (flat + ramp)
    # short lobe: triangle, amplitude below the hardware maximum
    ramp = _ceil_raster(sqrt(area / slew))
    return ramp, 0.0, area / ramp


def _shortest_bipolar(m1, slew, gmax):
    """Shortest pair of opposite trapezoid lobes with first moment m1.

    Two back-to-back lobes of amplitude G, ramp r and flat f have
    |first moment| = G (f + r)(f + 2r) about the pair's start.
    """
    ramp = _ceil_raster(gmax / slew)
    flat = 0.5 * (-3.0 * ramp + sqrt(ramp * ramp + 4.0 * m1 / gmax))
    if flat > 0:
        flat = _ceil_raster(flat)
        return ramp, flat, m1 / ((flat + ramp) * (flat + 2.0 * ramp))
    ramp = _ceil_raster((m1 / (2.0 * slew)) ** (1.0 / 3.0))
    return ramp, 0.0, m1 / (2.0 * ramp * ramp)


def sequence_timings(params: SequenceParams) -> SequenceTimings:
    """Shortest-TE timing of one readout line.

    The line is: velocity-encoding bipolar, then phase/partition encodes
    and the readout prewinder in parallel, then the readout. The echo
    (k-space center sample) sits mid-acquisition, so

        TE = bipolar + max(prewinder, encodes) + ramp + window / 2.

    Raises
    ------
    SequenceError
        The readout gradient demanded by the ADC bandwidth and field of
        view exceeds the hardware maximum.
    """
    gamma = GYROMAGNETIC_RATIO
    slew, gmax = params.slew_rate, params.max_gradient
    dwell = 1.0 / params.adc_bandwidth
    n_acq = params.acquired_readout
    window = n_acq * dwell

    # readout gradient advances k by one sample spacing per dwell
    g_ro = 1.0 / (gamma * params.oversampling * params.fov[0] * dwell)
    if g_ro > gmax:
        raise SequenceError(
            f"readout gradient {g_ro * 1e3:.2f} mT/m exceeds the "
            f"{gmax * 1e3:.2f} mT/m hardware limit; lower the ADC bandwidth "
            f"or enlarge the field of view")
    ramp_ro = _ceil_raster(g_ro / slew)

    # prewinder cancels the readout area accrued up to the echo
    pre_area = g_ro * (0.5 * ramp_ro + 0.5 * window)
    pre_r, pre_f, _ = _shortest_trapezoid(pre_area, slew, gmax)
    t_pre = 2.0 * pre_r + pre_f

    # largest phase/partition blip reaches half the inverse voxel size
    t_enc = t_pre
    for axis in (1, 2):
        area = 1.0 / (2.0 * params.voxel[axis]) / gamma
        r, f, _ = _shortest_trapezoid(area, slew, gmax)
        t_enc = max(t_enc, 2.0 * r + f)

    # balanced velocity encoding: the reference and encoded acquisitions
    # shift the first moment by -dM1/2 and +dM1/2, with the full dM1
    # mapping VENC to a phase difference of pi
    m1 = 1.0 / (4.0 * gamma * params.venc)
    bip_r, bip_f, _ = _shortest_bipolar(m1, slew, gmax)
    t_bip = 2.0 * (bip_f + 2.0 * bip_r)

    echo_time = t_bip + t_enc + ramp_ro + 0.5 * window
    times = echo_time + (np.arange(n_acq) - n_acq // 2) * dwell
    return SequenceTimings(
        echo_time=echo_time, sample_times=times, dwell=dwell,
        readout_gradient=g_ro,
        durations={"bipolar": t_bip, "prewinder": t_pre, "encode": t_enc,
                   "readout_ramp": ramp_ro, "readout_window": window})


# =========================================================================
# Data containers
# =========================================================================

def _params_dict(params: SequenceParams) -> dict:
    d = asdict(params)
    for key in ("matrix", "voxel", "fov_center"):
        d[key] = list(d[key])
    return d


def _check_encodes(grids: dict, shape: tuple, kind: str, values: str):
    """Refuse none, unknown encodes, misshapen grids and non-finite ones."""
    if not grids:
        raise ValidationError(f"no encode {kind} is named")
    for name, grid in grids.items():
        if name not in ENCODE_AXES:
            raise ValidationError(f"unknown encode {name!r}")
        if grid.shape != shape:
            raise ValidationError(
                f"encode {name!r} {kind} is {grid.shape}, expected {shape}")
        if not np.all(np.isfinite(grid)):
            raise ValidationError(f"encode {name!r} holds non-finite {values}")


@dataclass
class KSpaceData:
    """Cartesian k-space samples for one cardiac phase.

    ``signals`` maps encode name ('ref', 'x', 'y', 'z') to a complex
    grid of shape (readout * oversampling, phase, partition), read out
    at ``sequence_timings(params).sample_times`` on every line.
    """

    signals: dict
    params: SequenceParams
    frame_time: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        _check_encodes(self.signals, _grid_shape(_KSPACE_FORMAT, self.params),
                       "grid", "k-space samples")

    def max_amplitude(self) -> float:
        return max(np.abs(grid).max() for grid in self.signals.values())


@dataclass
class ImageVolume:
    """Reconstructed complex volumes per encode, cropped to the matrix."""

    volumes: dict
    params: SequenceParams
    frame_time: float = 0.0

    def __post_init__(self):
        _check_encodes(self.volumes, _grid_shape(_IMAGE_FORMAT, self.params),
                       "volume", "voxels")


@dataclass
class ReconstructedVelocity:
    """Decoded voxel velocities for one cardiac phase.

    ``velocity`` is (nx, ny, nz, 3) in m/s.
    """

    velocity: np.ndarray
    magnitude: np.ndarray
    params: SequenceParams
    frame_time: float = 0.0


# =========================================================================
# Signal synthesis
# =========================================================================

# barycentric quadrature rules on the tetrahedron, weights summing to 1
_A4, _B4 = 0.5854101966249685, 0.1381966011250105
_RULE4 = (
    np.array([[_A4, _B4, _B4, _B4], [_B4, _A4, _B4, _B4],
              [_B4, _B4, _A4, _B4], [_B4, _B4, _B4, _A4]]),
    np.full(4, 0.25),
)
_A11, _B11 = 0.7857142857142857, 0.0714285714285714
_C11, _D11 = 0.3994035761667992, 0.1005964238332008
_RULE11 = (
    np.array([[0.25, 0.25, 0.25, 0.25],
              [_A11, _B11, _B11, _B11], [_B11, _A11, _B11, _B11],
              [_B11, _B11, _A11, _B11], [_B11, _B11, _B11, _A11],
              [_C11, _C11, _D11, _D11], [_C11, _D11, _C11, _D11],
              [_C11, _D11, _D11, _C11], [_D11, _C11, _C11, _D11],
              [_D11, _C11, _D11, _C11], [_D11, _D11, _C11, _C11]]),
    np.concatenate([[-0.0789333333333333], np.full(4, 0.0457333333333333),
                    np.full(6, 0.1493333333333333)]),
)
_TET_RULES = {4: _RULE4, 11: _RULE11}


def _tet_rule(n_points: int):
    """Barycentric points and weights of the ``n_points`` rule."""
    try:
        return _TET_RULES[n_points]
    except KeyError:
        raise ValidationError(
            f"unsupported quadrature {n_points}; choose from "
            f"{sorted(_TET_RULES)}") from None


def _quadrature(vertices: np.ndarray, tets: np.ndarray, m0: np.ndarray,
                velocities: np.ndarray, rule):
    """Quadrature points of a block of tets, (n, 4) corner indices.

    Returns positions (q n, 3), weights w vol M0 (q n,) and velocities
    (q n, 3), point-major: rule point p of tet t is row p n + t. Each is
    one (q x 4) @ (4 x ...) product of the corner values, gathered once.
    """
    bary, weights = rule
    corners = tets.T                                        # (4, n)
    vol = _tet_vol6(vertices, tets) / 6.0
    pos = bary @ vertices[corners].reshape(4, -1)
    vel = bary @ velocities[corners].reshape(4, -1)
    wm = (weights[:, None] * bary) @ (m0[corners] * vol)
    return pos.reshape(-1, 3), wm.ravel(), vel.reshape(-1, 3)


# quadrature points per block of the synthesis kernel, rounded down to
# whole tets; bounds the points, the ramp tables and the matmul operand
# to a few MB whatever the mesh size
_BLOCK = 2048

# the Chebyshev step (step 6) drops only coefficients below this: far above
# their round-off, while 1e-15 costs the paper's slab 3 rows and up to 9%
_CHEBYSHEV_TAIL = 1e-13

# the Chebyshev step is taken when its rows are at most this share of the
# real table's 2c+1 rows, on the one layer that step 7 synthesizes; the
# README gives the four inputs' times that set it
_CHEBYSHEV_SHARE = 2 / 3


def _ramp(first, step: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the rows of ``out`` with first * step**j, j = 0, 1, ...

    One complex product per entry in place of one exponential. The k
    axes are evenly spaced, so a row of e^{-2 pi i c k_j} is this ramp
    with first = e^{-2 pi i c k_0} and step = e^{-2 pi i c dk}.
    """
    out[0] = first
    for j in range(1, len(out)):
        np.multiply(out[j - 1], step, out=out[j])
    return out


def _spacing(v: np.ndarray) -> float:
    """Step of an evenly spaced axis; 0 for a single sample."""
    return (v[-1] - v[0]) / (v.size - 1) if v.size > 1 else 0.0


def _sample_factors(pos, vel, times, k_ro, k_pe, t2_star):
    """Readout and phase-encode factors of a block's points, by recurrence.

    With r(t) = r + u t, sample i (time t_i, readout k_ro[i]) gets

        A_i = e^{-t_i/T2*} e^{-2 pi i (k_ro[i] x(t_i) + k_pe[0] y(t_i))}
        s_y = e^{-2 pi i dk_pe y(t_i)}

    Neither carries a partition phase: the partition step makes its own
    (steps 4 and 6). ``times`` and the k axes are evenly
    spaced, so the phase of A_i is quadratic in i and that of s_y
    linear: A_{i+1} = A_i G_i with G_{i+1} = G_i H, s_{i+1} = s_i D.
    Five exponentials per block (A_0, G_0, H, s_y, D_y) serve every
    sample. Yields (A_i, s_y) per sample; the arrays are advanced in
    place, so use them before taking the next sample.
    """
    x, y, _ = pos.T
    ux, uy, _ = vel.T
    t0, dt = times[0], _spacing(times)
    kx0, ky0 = k_ro[0], k_pe[0]
    dkx, dky = _spacing(k_ro), _spacing(k_pe)
    xt, yt = x + ux * t0, y + uy * t0
    a = np.exp(-t0 / t2_star - 2j * np.pi * (kx0 * xt + ky0 * yt))
    s_y = np.exp(-2j * np.pi * dky * yt)
    n = times.size
    if n > 1:
        g = np.exp(-dt / t2_star - 2j * np.pi * (
            dkx * xt + (kx0 + dkx) * dt * ux + ky0 * dt * uy))
        d_y = np.exp(-2j * np.pi * dky * dt * uy)
    if n > 2:
        h = np.exp(-4j * np.pi * dkx * dt * ux)
    for i in range(n):
        yield a, s_y
        if i + 1 < n:
            a *= g
            s_y *= d_y
        if i + 2 < n:
            g *= h


class _FoldedTable:
    """Partition step 4: per-sample sums against the real partition table.

    Each block makes s_z = e^{-2 pi i dk_pz z(t_0)} and its step D_z =
    e^{-2 pi i dk_pz dt u_z}. Each sample ramps s_z into the real table
    (Re(s_z^m), m = 0..c, then Im(s_z^m), m = 1..c, c = n_pz // 2), whose
    batched product with the encode-minor operand L (n_pe, n, n_enc) gives
    the folded sums (n_pe, 2c+1, n_enc), then advances s_z by D_z. The
    sums are unfolded into partition grids once per frame.
    """

    def __init__(self, times: np.ndarray, n_pz: int, dk_pz: float,
                 n_enc: int, n_pe: int, n_max: int):
        self.n_pz, self.dk_pz = n_pz, dk_pz
        self.t0, self.dt = times[0], _spacing(times)
        self.c = c = n_pz // 2
        rows = 2 * c + 1
        self.folded = np.zeros((times.size, n_pe, rows, n_enc), dtype=complex)
        self.prod = np.empty((n_pe, rows, n_enc), dtype=complex)
        # sized for a full block, allocated once per frame; a block uses
        # contiguous prefixes of them
        self.pz_buf = np.empty(c * n_max, dtype=complex)
        self.table_buf = np.empty(rows * n_max)

    def block(self, pos, vel):
        n = len(pos)
        z, uz = pos[:, 2], vel[:, 2]
        self.s_z = np.exp(-2j * np.pi * self.dk_pz * (z + uz * self.t0))
        self.d_z = np.exp(-2j * np.pi * self.dk_pz * self.dt * uz)
        self.pz = self.pz_buf[:self.c * n].reshape(self.c, n)
        self.table = self.table_buf[:(2 * self.c + 1) * n].reshape(-1, n)
        self.table[0] = 1.0

    def add(self, i, left):
        c, pz, table, s_z = self.c, self.pz, self.table, self.s_z
        _ramp(s_z, s_z, pz)
        s_z *= self.d_z
        np.copyto(table[1:c + 1], pz.real)
        np.copyto(table[c + 1:], pz.imag)
        np.matmul(table, left.view(float), out=self.prod.view(float))
        self.folded[i] += self.prod

    def grids(self) -> np.ndarray:
        return _unfold(self.folded.transpose(3, 0, 1, 2), self.n_pz)


def _unfold(folded, n_pz):
    """Partition grids from the folded sums, overwriting ``folded``.

    ``folded[..., m]`` holds C_m = sum L Re(s_z^m) for m = 0..c and
    ``folded[..., c + m]`` holds J_m = sum L Im(s_z^m) for m = 1..c,
    c = n_pz // 2. |s_z| = 1, so s_z^-m = conj(s_z^m) and partition
    c + m is C_m + i J_m, partition c - m is C_m - i J_m.
    """
    c = n_pz // 2
    cos, sin = folded[..., :c + 1], folded[..., c + 1:]
    sin *= 1j
    out = np.empty(folded.shape[:-1] + (n_pz,), dtype=complex)
    out[..., c:] = cos[..., :n_pz - c]
    out[..., c + 1:] += sin[..., :n_pz - c - 1]
    out[..., :c] = cos[..., :0:-1]
    out[..., :c] -= sin[..., ::-1]
    return out


def _jacobi_anger(a: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients (2 - delta_r0) (-i)^r J_r(a) of e^{-i a x},
    (len(a), m/2): by Jacobi-Anger, the DFT of e^{-i a cos theta} on m
    points, doubled for r > 0. With m a power of two above 3|a| + 80, the
    J_r(a) past m/2 that alias onto them are below round-off (2 (|a| + 40)
    left 3e-13 at |a| = 87.5)."""
    m = 1 << int(3 * np.abs(a).max() + 80).bit_length()
    theta = 2 * np.pi * np.arange(m) / m
    coef = np.fft.fft(np.exp(-1j * np.outer(a, np.cos(theta))))[:, :m // 2]
    coef[:, 1:] *= 2
    return coef / m


def _chebyshev_rows(a: float) -> int:
    """Rows the Chebyshev step keeps for the largest |a|: the fewest whose
    dropped coefficients are all below ``_CHEBYSHEV_TAIL`` (a smaller |a|
    drops less), and at least 2, as row 1 holds x."""
    kept = np.abs(_jacobi_anger(np.array([a]))[0]) >= _CHEBYSHEV_TAIL
    return max(2, int(np.flatnonzero(kept)[-1]) + 1)


def _half_range(vertices, tets, velocities, times, per_block: int) -> float:
    """Half the widest block's drifted-z range over the readout, in m: a
    quadrature point is a convex combination of its tet's corners, and
    every z drifts linearly, so the corners' z at the first and the last
    sample bound it."""
    z, uz = vertices[:, 2], velocities[:, 2]
    ends = [z + uz * t for t in (times[0], times[-1])]
    low, high = np.minimum(*ends), np.maximum(*ends)
    blocks = (tets[lo:lo + per_block] for lo in range(0, len(tets), per_block))
    return max((high[b].max() - low[b].min() for b in blocks), default=0) / 2


class _ChebyshevExpansion:
    """Partition step 6: Chebyshev moments per sample, mapped once per block.

    Each sample advances x = (z - c_b) / h, builds T_0..T_{R-1} in the rows
    of a real table (R, n), and the batched product of its point-major copy
    with the operand L (n_pe, n, n_enc) gives its moments (n_pe, R, n_enc).
    After the block's last sample, the coefficients (n_pz, R) times
    e^{-2 pi i k_pz c_b} map all its moments in one product."""

    def __init__(self, times: np.ndarray, k_pz: np.ndarray, half: float,
                 terms: int, n_enc: int, n_pe: int, n_max: int):
        self.times, self.k_pz, self.terms = times, k_pz, terms
        # flat tets span no z and weigh nothing: x = 0 keeps them finite
        self.scale = 1 / half if half else 0.0
        self.coef = _jacobi_anger(2 * np.pi * half * k_pz)[:, :terms]
        self.moments = np.empty((times.size, n_pe, terms, n_enc),
                                dtype=complex)
        # partition-major, so that one product maps a block's moments
        self.sums = np.zeros((k_pz.size, times.size, n_pe, n_enc),
                             dtype=complex)
        # sized for a full block, allocated once per frame; a block uses
        # contiguous prefixes. The product takes a third less time from a
        # point-major copy of the table than from the table
        self.table_buf, self.copy_buf = np.empty((2, terms * n_max))
        self.two_x_buf = np.empty(n_max)

    def block(self, pos, vel):
        n = len(pos)
        z, uz = pos[:, 2], vel[:, 2]
        ends = [z + uz * t for t in (self.times[0], self.times[-1])]
        centre = (min(e.min() for e in ends) + max(e.max() for e in ends)) / 2
        self.shift = np.exp(-2j * np.pi * self.k_pz * centre)
        self.table = self.table_buf[:self.terms * n].reshape(-1, n)
        self.copy = self.copy_buf[:n * self.terms].reshape(n, -1)
        self.two_x = self.two_x_buf[:n]
        self.table[0] = 1.0
        np.multiply(ends[0] - centre, self.scale, out=self.table[1])
        self.dx = uz * (_spacing(self.times) * self.scale)

    def add(self, i, left):
        table, two_x, terms = self.table, self.two_x, self.terms
        if i:
            table[1] += self.dx
        np.add(table[1], table[1], out=two_x)
        for r in range(2, terms):
            np.multiply(two_x, table[r - 1], out=table[r])
            table[r] -= table[r - 2]
        np.copyto(self.copy, table.T)
        np.matmul(self.copy.T, left.view(float),
                  out=self.moments[i].view(float))
        if i + 1 == self.times.size:
            moments = self.moments.transpose(2, 0, 1, 3).reshape(terms, -1)
            mapped = np.matmul(self.coef * self.shift[:, None], moments)
            self.sums += mapped.reshape(self.sums.shape)

    def grids(self) -> np.ndarray:
        return np.ascontiguousarray(self.sums.transpose(3, 1, 2, 0))


def _partition_sums(vertices, tets, m0, velocities, rule,
                    params: SequenceParams, times, axes) -> np.ndarray:
    """k-space grids (1 + len(axes), n_ro, n_pe, n_pz): ref, then ``axes``.

    The quadrature points are made one block of tets at a time; each
    sample's encode-minor operand (step 1) goes to the partition step, the
    real table (step 4) or, when it needs far fewer rows, the Chebyshev
    step (step 6); both own the partition axis, take any partition count
    and are called alike.
    """
    k_ro, k_pe, k_pz = params.k_axes()
    n_enc, n_pe, n_pz = 1 + len(axes), k_pe.size, k_pz.size
    # whole tets per block; a rule with more points than _BLOCK takes one
    per_block = max(1, _BLOCK // len(rule[1]))
    n_max = per_block * len(rule[1])
    half = _half_range(vertices, tets, velocities, times, per_block)
    terms = _chebyshev_rows(2 * np.pi * np.abs(k_pz).max() * half)
    rows = 2 * (n_pz // 2) + 1
    chebyshev = terms <= _CHEBYSHEV_SHARE * rows
    log.info("synthesis: %s, %d rows against %d Chebyshev",
             "Chebyshev partition step" if chebyshev
             else "real partition table", rows, terms)
    partitions = (_ChebyshevExpansion(times, k_pz, half, terms, n_enc, n_pe,
                                      n_max)
                  if chebyshev else _FoldedTable(times, n_pz, _spacing(k_pz),
                                                 n_enc, n_pe, n_max))
    amp_buf = np.empty(n_enc * n_max, dtype=complex)
    left_buf = np.empty(n_pe * n_max * n_enc, dtype=complex)
    step_buf = np.empty(n_max * n_enc, dtype=complex)
    for lo in range(0, len(tets), per_block):
        pos, wm, vel = _quadrature(vertices, tets[lo:lo + per_block], m0,
                                   velocities, rule)
        n = wm.size
        amp = amp_buf[:n * n_enc].reshape(n, n_enc)
        amp[:, 0] = wm
        np.multiply(wm[:, None],
                    np.exp(-1j * np.pi * vel[:, axes] / params.venc),
                    out=amp[:, 1:])
        left = left_buf[:n_pe * n * n_enc].reshape(n_pe, n, n_enc)
        step = step_buf[:n * n_enc].reshape(n, n_enc)
        partitions.block(pos, vel)
        samples = _sample_factors(pos, vel, times, k_ro, k_pe, params.t2_star)
        for i, (a, s_y) in enumerate(samples):
            # the encode-minor operand L of step 1
            np.multiply(amp, a[:, None], out=left[0])
            np.copyto(step, s_y[:, None])
            for p in range(1, n_pe):
                np.multiply(left[p - 1], step, out=left[p])
            partitions.add(i, left)
    return partitions.grids()


def synthesize_frame(mesh: TetMesh, m0: np.ndarray, field: VelocityField,
                     params: SequenceParams, frame: int = 0,
                     quadrature: int = 4) -> KSpaceData:
    """All four encodes (reference + x, y, z) for one cardiac phase, the
    distinct ones in one pass (step 8); logs its layer path, encodes and
    partition step at INFO. ``frame`` picks the velocity frame; spins move
    ballistically along its velocity during the acquisition of each line.
    """
    rule = _tet_rule(quadrature)
    if not 0 <= frame < field.n_frames:
        raise ValidationError(f"frame {frame} outside 0..{field.n_frames - 1}")
    if field.n_vertices != mesh.n_vertices:
        raise ValidationError("field and mesh vertex counts differ")
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (mesh.n_vertices,):
        raise ValidationError("one m0 value per mesh vertex required")
    if not np.all(np.isfinite(m0)) or np.any(m0 < 0):
        raise ValidationError("m0 must be finite and nonnegative")

    velocities = field.values[frame]
    moving = velocities.any(axis=0)
    layers = pipe_layers(mesh, m0, velocities)
    tets = mesh.tets if layers is None else mesh.tets[:layers[1]]
    log.info("synthesis: %s", "whole-mesh path" if layers is None
             else f"layer path over {layers[0]} layers")
    still = ", ".join(a for a, m in zip("xyz", moving) if not m)
    log.info("synthesis: encodes %s%s", ", ".join(
        a for a, m in zip(ENCODE_AXES, [True, *moving]) if m),
        still and f"; the reference's grid serves {still}")
    grids = _partition_sums(mesh.vertices, tets, m0, velocities, rule, params,
                            sequence_timings(params).sample_times,
                            np.flatnonzero(moving))
    if layers is not None:
        # step 7: the first layer's grids times sum_l e^{-2 pi i k_z z_l}
        k_pz = params.k_axes()[2]
        grids *= np.exp(-2j * np.pi * np.outer(k_pz, layers[3])).sum(axis=1)
    if not moving.all():
        # step 8: the grids in encode order, a still axis's a copy of row 0
        grids = grids[np.r_[0, np.where(moving, np.cumsum(moving), 0)]]
    return KSpaceData(signals=dict(zip(ENCODE_AXES, grids)), params=params,
                      frame_time=float(field.times[frame]))


def synthesize_signal(mesh: TetMesh, m0: np.ndarray, field: VelocityField,
                      params: SequenceParams, encode: str = "ref",
                      frame: int = 0, quadrature: int = 4) -> KSpaceData:
    """One encode's k-space grid: that encode of ``synthesize_frame``.

    ``encode`` is 'ref' for the velocity-compensated reference or one of
    'x', 'y', 'z' for a velocity-sensitized acquisition along that axis.
    """
    if encode not in ENCODE_AXES:
        raise ValidationError(f"encode must be one of {ENCODE_AXES}")
    k = synthesize_frame(mesh, m0, field, params, frame, quadrature)
    k.signals = {encode: k.signals[encode]}
    return k


def add_noise(k: KSpaceData, sigma_fraction: float,
              seed: int) -> KSpaceData:
    """Add white complex Gaussian noise to every encode.

    The per-component standard deviation is ``sigma_fraction`` times the
    largest sample magnitude over all encodes. Deterministic for a fixed
    seed; encodes are perturbed in a fixed name order.
    """
    if sigma_fraction < 0:
        raise ValidationError("sigma_fraction must be >= 0")
    if sigma_fraction == 0:
        return KSpaceData(signals={n: g.copy() for n, g in k.signals.items()},
                          params=k.params, frame_time=k.frame_time, seed=seed)
    sigma = sigma_fraction * k.max_amplitude()
    rng = np.random.default_rng(seed)
    noisy = {}
    for name in sorted(k.signals):
        grid = k.signals[name]
        noise = rng.normal(0.0, sigma, size=grid.shape + (2,))
        noisy[name] = grid + noise.view(complex)[..., 0]
    return KSpaceData(signals=noisy, params=k.params, frame_time=k.frame_time,
                      seed=seed)


# =========================================================================
# Reconstruction and decoding
# =========================================================================

def reconstruct(k: KSpaceData) -> ImageVolume:
    """Centered inverse FFT per encode, cropping readout oversampling.

    Samples are first demodulated to the field-of-view center so voxel
    (i, j, l) sits at ``params.axis_coordinates()`` position (i, j, l).
    """
    params = k.params
    k_ro, k_pe, k_pz = params.k_axes()
    cx, cy, cz = params.fov_center
    demod = np.exp(2j * np.pi * (k_ro[:, None, None] * cx
                                 + k_pe[None, :, None] * cy
                                 + k_pz[None, None, :] * cz))
    n_ro = params.matrix[0]
    start = (params.acquired_readout - n_ro) // 2
    volumes = {}
    for name, grid in k.signals.items():
        img = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(grid * demod)))
        # copied: a view would keep the oversampled array alive
        volumes[name] = img[start:start + n_ro].copy()
    return ImageVolume(volumes=volumes, params=params,
                       frame_time=k.frame_time)


def phase_to_velocity(img: ImageVolume) -> ReconstructedVelocity:
    """Decode voxel velocities from encoded-minus-reference phase.

    u_a = -VENC * arg(img_a conj(img_ref)) / pi, which lies in
    [-VENC, VENC); a phase difference of exactly pi decodes to -VENC.
    """
    if "ref" not in img.volumes:
        raise ValidationError("reference encode missing")
    missing = [a for a in "xyz" if a not in img.volumes]
    if missing:
        raise ValidationError(f"velocity encodes missing: {missing}")
    ref = img.volumes["ref"]
    velocity = np.empty(ref.shape + (3,))
    for axis, name in enumerate("xyz"):
        angle = np.angle(img.volumes[name] * np.conj(ref))
        velocity[..., axis] = -img.params.venc * angle / np.pi
    return ReconstructedVelocity(velocity=velocity, magnitude=np.abs(ref),
                                 params=img.params,
                                 frame_time=img.frame_time)


# =========================================================================
# Persistence: flat complex64 binary + JSON sidecar
# =========================================================================

_KSPACE_FORMAT = "hemoflow-kspace"
_IMAGE_FORMAT = "hemoflow-images"


def _grid_shape(fmt: str, params: SequenceParams) -> tuple:
    """The shape of each grid of a container of format ``fmt``: the
    acquired k-space, or the image matrix with the readout cropped."""
    if fmt == _KSPACE_FORMAT:
        return (params.acquired_readout, *params.matrix[1:])
    return tuple(params.matrix)


# sequence parameters that sidecars carried before they were removed
_RETIRED_PARAMS = ("cardiac_phases", "time_spacing")


def _save_container(fmt, grids, params, frame_time, path, extra):
    path = Path(path)
    encodes = sorted(grids)
    with open(path.with_suffix(".bin"), "wb") as fh:
        for name in encodes:
            grids[name].astype(np.complex64).tofile(fh)
    sidecar = {
        "format": fmt,
        "encodes": encodes,
        "frame_time": frame_time,
        "params": _params_dict(params),
    }
    sidecar.update(extra)
    path.write_text(json.dumps(sidecar, indent=2) + "\n")


@contextmanager
def _sidecar_entries(path):
    """Report a missing, unknown or bad sidecar entry or payload sample as
    a ValidationError naming the sidecar."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed sidecar: {exc!r}") from exc


def _read_sidecar(fmt, path):
    """The sidecar at ``path``, every entry it reads checked, and its
    sequence parameters; inside the caller's ``_sidecar_entries(path)``.
    Other entries, such as ``params_hash``, ``data_file``, ``dims`` and
    ``sample_times`` that earlier versions wrote, are ignored."""
    try:
        sidecar = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read sidecar: {exc}") from exc
    if not isinstance(sidecar, dict) or sidecar.get("format") != fmt:
        raise ValidationError(f"not a {fmt} sidecar")
    pdict = {key: value for key, value in sidecar["params"].items()
             if key not in _RETIRED_PARAMS}
    missing = {f.name for f in fields(SequenceParams)} - set(pdict)
    if missing:
        raise KeyError(", ".join(sorted(missing)))
    for key in ("matrix", "voxel", "fov_center"):
        pdict[key] = tuple(pdict[key])
    params = SequenceParams(**pdict)
    encodes = sidecar["encodes"]
    if len(encodes) == 0:
        raise ValidationError(f"encodes {encodes!r} name no encode")
    if len(set(encodes)) != len(encodes):
        raise ValidationError(f"encodes {encodes!r} repeat a name")
    frame_time = sidecar["frame_time"]
    if type(frame_time) not in (int, float) or not isfinite(frame_time):
        raise ValidationError(f"frame_time {frame_time!r} is not a finite "
                              "number")
    return sidecar, params


def _load_container(fmt, path):
    """The grids, sequence parameters and sidecar of a container, whose
    payload is the ``.bin`` beside the sidecar; inside the caller's
    ``_sidecar_entries(path)``."""
    sidecar, params = _read_sidecar(fmt, path)
    shape, encodes = _grid_shape(fmt, params), sidecar["encodes"]
    per_encode = prod(shape)
    data = Path(path).with_suffix(".bin")
    # sized before it is read, so a file of another length is not read
    if data.stat().st_size != 8 * per_encode * len(encodes):
        raise ValidationError(
            f"data holds {data.stat().st_size} bytes, sidecar implies "
            f"{per_encode * len(encodes)} complex64 samples")
    raw = np.fromfile(data, dtype=np.complex64)
    grids = {name: raw[i * per_encode:(i + 1) * per_encode]
             .reshape(shape).astype(complex)
             for i, name in enumerate(encodes)}
    return grids, params, sidecar


def _image_sidecar(path):
    """The frame time and sequence parameters of an image container, from
    its checked sidecar alone."""
    with _sidecar_entries(path):
        sidecar, params = _read_sidecar(_IMAGE_FORMAT, path)
    return sidecar["frame_time"], params


def save_kspace(k: KSpaceData, path: str | Path) -> None:
    """Write k-space to ``path`` (JSON sidecar) plus its payload, the
    ``.bin`` beside it."""
    _save_container(_KSPACE_FORMAT, k.signals, k.params, k.frame_time, path,
                    {"seed": k.seed})


def load_kspace(path: str | Path) -> KSpaceData:
    """K-space of the sidecar at ``path`` and the ``.bin`` beside it; a
    bad entry or payload is a ValidationError naming the sidecar."""
    with _sidecar_entries(path):
        grids, params, sidecar = _load_container(_KSPACE_FORMAT, path)
        return KSpaceData(signals=grids, params=params,
                          frame_time=sidecar["frame_time"],
                          seed=sidecar.get("seed"))


def save_images(img: ImageVolume, path: str | Path) -> None:
    """Write reconstructed volumes in the same container as k-space."""
    _save_container(_IMAGE_FORMAT, img.volumes, img.params, img.frame_time,
                    path, {})


def load_images(path: str | Path) -> ImageVolume:
    """Volumes of the sidecar at ``path``, read as ``load_kspace`` reads."""
    with _sidecar_entries(path):
        grids, params, sidecar = _load_container(_IMAGE_FORMAT, path)
        return ImageVolume(volumes=grids, params=params,
                           frame_time=sidecar["frame_time"])
