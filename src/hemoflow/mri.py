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

The sum is evaluated in one pass for all requested encodes:

1. Shared tables. For each readout sample, the phase-encode and
   partition ramps are built once and shared by every encode, which are
   then contracted in a single matrix product. The readout/T2* factor
   rides in the first phase-encode row.
2. Recurrence in k. The k axes are evenly spaced, so each ramp row is
   the previous one times e^{-2 pi i c dk}: one complex product per
   table entry instead of one exponential.
3. Recurrence in time. Sample times and readout k are evenly spaced
   too, so a point's first ramp row (readout phase, T2* decay, drift)
   has a phase quadratic in the sample index and its two ramp steps
   phases linear in it. Each sample's factors are the previous
   sample's times a step factor, and the readout step is itself
   advanced by a constant. A block of points needs seven exponentials
   per frame whatever the readout length; the readout-sample loop only
   multiplies.
4. Real partition table. The partition axis is centred, k = m dk for
   m = -c..c (c = n//2; an even count has no +c), so partition m takes
   s_z^m with s_z = e^{-2 pi i dk z} of modulus 1, and s_z^-m is the
   conjugate of s_z^m. Only s_z^0..s_z^c are built; their real and
   imaginary parts form one real table T of 2c+1 rows. One real product
   of T with the float view of the point-major phase-encode table L
   gives C_m = sum L Re(s_z^m) and J_m = sum L Im(s_z^m) together, at
   half the flops of the complex product; partition +-m is
   C_m +- i J_m, unfolded once per frame.
5. Blocks. Quadrature points are taken in fixed blocks whose products
   accumulate into per-sample sums, so table memory does not grow with
   the mesh. Each block builds its own point-major encode amplitudes
   w_q M0 e^{-i pi u_a/VENC}.

All quantities are SI: meters, seconds, tesla. Note the slew rate unit
is T/m/s (195 T/m/s is a typical whole-body gradient system).
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from math import ceil, sqrt
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import SequenceError, ValidationError
from .flowfields import VelocityField
from .mesh import TetMesh, tet_volumes

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
        if len(self.matrix) != 3 or any(int(n) != n or n < 2
                                        for n in self.matrix):
            raise ValidationError("matrix must be 3 integers >= 2")
        if len(self.voxel) != 3 or any(v <= 0 for v in self.voxel):
            raise ValidationError("voxel sizes must be positive")
        positive = {"venc": self.venc, "oversampling": self.oversampling,
                    "t2_star": self.t2_star,
                    "adc_bandwidth": self.adc_bandwidth,
                    "slew_rate": self.slew_rate,
                    "max_gradient": self.max_gradient}
        for name, value in positive.items():
            if not value > 0:
                raise ValidationError(f"{name} must be positive")
        if len(self.fov_center) != 3:
            raise ValidationError("fov_center must have 3 components")

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


def _params_hash(params: SequenceParams) -> str:
    canon = json.dumps(_params_dict(params), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class KSpaceData:
    """Cartesian k-space samples for one cardiac phase.

    ``signals`` maps encode name ('ref', 'x', 'y', 'z') to a complex
    grid of shape (readout * oversampling, phase, partition). Sample
    times vary along the readout only and are shared by every line.
    """

    signals: dict
    sample_times: np.ndarray
    params: SequenceParams
    frame_time: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        shape = (self.params.acquired_readout, self.params.matrix[1],
                 self.params.matrix[2])
        for name, grid in self.signals.items():
            if name not in ENCODE_AXES:
                raise ValidationError(f"unknown encode {name!r}")
            if grid.shape != shape:
                raise ValidationError(
                    f"encode {name!r} grid is {grid.shape}, expected {shape}")
            if not np.all(np.isfinite(grid)):
                raise ValidationError(f"encode {name!r} holds non-finite "
                                      "k-space samples")
        self.sample_times = np.asarray(self.sample_times, dtype=float)
        if self.sample_times.shape != (shape[0],):
            raise ValidationError("one acquisition time per readout sample "
                                  "required")
        if not np.all(np.isfinite(self.sample_times)) \
                or np.any(self.sample_times < 0):
            raise ValidationError("sample times must be finite and >= 0")

    def max_amplitude(self) -> float:
        return max(np.abs(grid).max() for grid in self.signals.values())


@dataclass
class ImageVolume:
    """Reconstructed complex volumes per encode, cropped to the matrix."""

    volumes: dict
    params: SequenceParams
    frame_time: float = 0.0

    def __post_init__(self):
        shape = tuple(self.params.matrix)
        for name, vol in self.volumes.items():
            if name not in ENCODE_AXES:
                raise ValidationError(f"unknown encode {name!r}")
            if vol.shape != shape:
                raise ValidationError(
                    f"encode {name!r} volume is {vol.shape}, expected {shape}")
            if not np.all(np.isfinite(vol)):
                raise ValidationError(f"encode {name!r} holds non-finite "
                                      "voxels")


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


def _quadrature(mesh: TetMesh, m0: np.ndarray, velocities: np.ndarray,
                n_points: int):
    """Quadrature positions, weights, and interpolated M0/velocity."""
    try:
        bary, weights = _TET_RULES[n_points]
    except KeyError:
        raise ValidationError(
            f"unsupported quadrature {n_points}; choose from "
            f"{sorted(_TET_RULES)}") from None
    corners = mesh.vertices[mesh.tets]                      # (T, 4, 3)
    pos = np.einsum("pb,tbc->ptc", bary, corners)
    wq = (tet_volumes(mesh)[None, :] * weights[:, None]).ravel()
    m0q = np.einsum("pb,tb->pt", bary, m0[mesh.tets]).ravel()
    uq = np.einsum("pb,tbc->ptc", bary, velocities[mesh.tets])
    return pos.reshape(-1, 3), wq, m0q, uq.reshape(-1, 3)


# quadrature points per block of the synthesis kernel; bounds the ramp
# tables and the matmul operand to a few MB whatever the mesh size
_BLOCK = 2048


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


def _sample_factors(pos, vel, times, k_ro, k_pe, k_pz, t2_star):
    """Per-readout-sample tables of one block of points, by recurrence.

    With r(t) = r + u t, sample i (time t_i, readout k_ro[i]) gets

        A_i = e^{-t_i/T2*} e^{-2 pi i (k_ro[i] x(t_i) + k_pe[0] y(t_i))}
        s_y = e^{-2 pi i dk_pe y(t_i)},   s_z = e^{-2 pi i dk_pz z(t_i)}

    A_i carries no partition phase: ``k_pz`` is centred, k_pz[j] =
    (j - n//2) dk_pz, so partition j takes s_z^(j - n//2) and the
    partition table is built from s_z alone. ``times`` and the k axes
    are evenly spaced, so the phase of A_i is quadratic in i and those
    of s_y, s_z linear: A_{i+1} = A_i G_i with G_{i+1} = G_i H,
    s_{i+1} = s_i D. Seven exponentials per block (A_0, G_0, H, s_y,
    D_y, s_z, D_z) serve every sample. Yields (A_i, s_y, s_z) per
    sample; the arrays are advanced in place, so use them before taking
    the next sample.
    """
    x, y, z = pos.T
    ux, uy, uz = vel.T
    t0, dt = times[0], _spacing(times)
    kx0, ky0 = k_ro[0], k_pe[0]
    dkx, dky, dkz = _spacing(k_ro), _spacing(k_pe), _spacing(k_pz)
    xt, yt, zt = x + ux * t0, y + uy * t0, z + uz * t0
    a = np.exp(-t0 / t2_star - 2j * np.pi * (kx0 * xt + ky0 * yt))
    s_y = np.exp(-2j * np.pi * dky * yt)
    s_z = np.exp(-2j * np.pi * dkz * zt)
    n = times.size
    if n > 1:
        g = np.exp(-dt / t2_star - 2j * np.pi * (
            dkx * xt + (kx0 + dkx) * dt * ux + ky0 * dt * uy))
        d_y = np.exp(-2j * np.pi * dky * dt * uy)
        d_z = np.exp(-2j * np.pi * dkz * dt * uz)
    if n > 2:
        h = np.exp(-4j * np.pi * dkx * dt * ux)
    for i in range(n):
        yield a, s_y, s_z
        if i + 1 < n:
            a *= g
            s_y *= d_y
            s_z *= d_z
        if i + 2 < n:
            g *= h


def _folded_sums(pos, wm, vel, times, k_ro, k_pe, k_pz, encodes, venc,
                 t2_star):
    """Per-sample block sums against the real partition table.

    Returns (n_ro, 2c+1, n_enc * n_pe), c = n_pz // 2: for each readout
    sample, the sums of L = amp * ey against Re(s_z^m), m = 0..c, then
    against Im(s_z^m), m = 1..c.
    """
    n_enc, n_pe = len(encodes), k_pe.size
    c = k_pz.size // 2
    rows, width = 2 * c + 1, n_enc * n_pe
    folded = np.zeros((k_ro.size, rows, width), dtype=complex)
    prod = np.empty((rows, width), dtype=complex)
    # table buffers sized for a full block, allocated once per frame; a
    # block uses contiguous prefixes of them
    amp_buf, ey_buf, pz_buf, left_buf = (
        np.empty(size * _BLOCK, dtype=complex)
        for size in (n_enc, n_pe, c, width))
    table_buf = np.empty(rows * _BLOCK)
    for lo in range(0, wm.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        n = min(_BLOCK, wm.size - lo)
        amp = amp_buf[:n * n_enc].reshape(n, n_enc)
        for col, encode in enumerate(encodes):
            amp[:, col] = wm[block]
            if encode != "ref":
                amp[:, col] *= np.exp(-1j * np.pi
                                      * vel[block, "xyz".index(encode)]
                                      / venc)
        ey = ey_buf[:n_pe * n].reshape(n_pe, n)
        pz = pz_buf[:c * n].reshape(c, n)
        left = left_buf[:n * width].reshape(n, width)
        table = table_buf[:rows * n].reshape(rows, n)
        table[0] = 1.0
        samples = _sample_factors(pos[block], vel[block], times, k_ro, k_pe,
                                  k_pz, t2_star)
        for i, (a, s_y, s_z) in enumerate(samples):
            _ramp(a, s_y, ey)
            _ramp(s_z, s_z, pz)
            np.copyto(table[1:c + 1], pz.real)
            np.copyto(table[c + 1:], pz.imag)
            np.multiply(amp[:, :, None], ey.T[:, None, :],
                        out=left.reshape(n, n_enc, n_pe))
            np.matmul(table, left.view(float), out=prod.view(float))
            folded[i] += prod
    return folded


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


def _synthesize(mesh: TetMesh, m0: np.ndarray, field: VelocityField,
                params: SequenceParams, encodes: tuple[str, ...],
                frame: int, quadrature: int) -> KSpaceData:
    """k-space grids of ``encodes`` for one frame, all in one pass."""
    if not 0 <= frame < field.n_frames:
        raise ValidationError(f"frame {frame} outside 0..{field.n_frames - 1}")
    if field.n_vertices != mesh.n_vertices:
        raise ValidationError("field and mesh vertex counts differ")
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (mesh.n_vertices,):
        raise ValidationError("one m0 value per mesh vertex required")
    if not np.all(np.isfinite(m0)) or np.any(m0 < 0):
        raise ValidationError("m0 must be finite and nonnegative")

    timings = sequence_timings(params)
    pos, wq, m0q, uq = _quadrature(mesh, m0, field.values[frame], quadrature)
    k_ro, k_pe, k_pz = params.k_axes()
    folded = _folded_sums(pos, wq * m0q, uq, timings.sample_times, k_ro, k_pe,
                          k_pz, encodes, params.venc, params.t2_star)
    grids = _unfold(folded.reshape(k_ro.size, -1, len(encodes), k_pe.size)
                    .transpose(2, 0, 3, 1), k_pz.size)
    return KSpaceData(signals=dict(zip(encodes, grids)),
                      sample_times=timings.sample_times, params=params,
                      frame_time=float(field.times[frame]))


def synthesize_signal(mesh: TetMesh, m0: np.ndarray, field: VelocityField,
                      params: SequenceParams, encode: str = "ref",
                      frame: int = 0, quadrature: int = 4) -> KSpaceData:
    """Evaluate one encode's k-space grid from the mesh field.

    ``encode`` is 'ref' for the velocity-compensated reference or one of
    'x', 'y', 'z' for a velocity-sensitized acquisition along that axis.
    ``frame`` picks the velocity frame; spins move ballistically along
    that frame's velocity during the acquisition of each line.
    """
    if encode not in ENCODE_AXES:
        raise ValidationError(f"encode must be one of {ENCODE_AXES}")
    return _synthesize(mesh, m0, field, params, (encode,), frame, quadrature)


def synthesize_frame(mesh: TetMesh, m0: np.ndarray, field: VelocityField,
                     params: SequenceParams, frame: int = 0,
                     quadrature: int = 4) -> KSpaceData:
    """All four encodes (reference + x, y, z) for one cardiac phase."""
    return _synthesize(mesh, m0, field, params, ENCODE_AXES, frame,
                       quadrature)


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
                          sample_times=k.sample_times.copy(), params=k.params,
                          frame_time=k.frame_time, seed=seed)
    sigma = sigma_fraction * k.max_amplitude()
    rng = np.random.default_rng(seed)
    noisy = {}
    for name in sorted(k.signals):
        grid = k.signals[name]
        noise = rng.normal(0.0, sigma, size=grid.shape + (2,))
        noisy[name] = grid + noise[..., 0] + 1j * noise[..., 1]
    return KSpaceData(signals=noisy, sample_times=k.sample_times.copy(),
                      params=k.params, frame_time=k.frame_time, seed=seed)


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

# sequence parameters that sidecars carried before they were removed
_RETIRED_PARAMS = ("cardiac_phases", "time_spacing")


def _save_container(fmt, grids, params, frame_time, path, extra):
    path = Path(path)
    encodes = sorted(grids)
    data_path = path.with_suffix(".bin")
    with open(data_path, "wb") as fh:
        for name in encodes:
            grids[name].astype(np.complex64).tofile(fh)
    sidecar = {
        "format": fmt,
        "encodes": encodes,
        "dims": list(grids[encodes[0]].shape),
        "frame_time": frame_time,
        "params": _params_dict(params),
        "params_hash": _params_hash(params),
        "data_file": data_path.name,
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


def _load_container(fmt, path):
    path = Path(path)
    try:
        sidecar = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read sidecar {path}: {exc}") from exc
    if sidecar.get("format") != fmt:
        raise ValidationError(f"{path}: not a {fmt} sidecar")
    with _sidecar_entries(path):
        pdict = {key: value for key, value in sidecar["params"].items()
                 if key not in _RETIRED_PARAMS}
        missing = {f.name for f in fields(SequenceParams)} - set(pdict)
        if missing:
            raise KeyError(", ".join(sorted(missing)))
        for key in ("matrix", "voxel", "fov_center"):
            pdict[key] = tuple(pdict[key])
        params = SequenceParams(**pdict)
        dims = tuple(sidecar["dims"])
        encodes = sidecar["encodes"]
        data_file = path.parent / sidecar["data_file"]
    raw = np.fromfile(data_file, dtype=np.complex64)
    per_encode = int(np.prod(dims))
    if raw.size != per_encode * len(encodes):
        raise ValidationError(
            f"{path}: data holds {raw.size} samples, sidecar implies "
            f"{per_encode * len(encodes)}")
    grids = {name: raw[i * per_encode:(i + 1) * per_encode]
             .reshape(dims).astype(complex)
             for i, name in enumerate(encodes)}
    return grids, params, sidecar


def save_kspace(k: KSpaceData, path: str | Path) -> None:
    """Write k-space to ``path`` (JSON sidecar) plus a ``.bin`` payload."""
    _save_container(_KSPACE_FORMAT, k.signals, k.params, k.frame_time, path,
                    {"sample_times": k.sample_times.tolist(), "seed": k.seed})


def load_kspace(path: str | Path) -> KSpaceData:
    grids, params, sidecar = _load_container(_KSPACE_FORMAT, path)
    with _sidecar_entries(path):
        return KSpaceData(signals=grids,
                          sample_times=np.asarray(sidecar["sample_times"]),
                          params=params, frame_time=sidecar["frame_time"],
                          seed=sidecar.get("seed"))


def save_images(img: ImageVolume, path: str | Path) -> None:
    """Write reconstructed volumes in the same container as k-space."""
    _save_container(_IMAGE_FORMAT, img.volumes, img.params, img.frame_time,
                    path, {})


def load_images(path: str | Path) -> ImageVolume:
    grids, params, sidecar = _load_container(_IMAGE_FORMAT, path)
    with _sidecar_entries(path):
        return ImageVolume(volumes=grids, params=params,
                           frame_time=sidecar["frame_time"])
