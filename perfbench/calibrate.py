"""The host's speed, sampled all through a run of the benchmark.

The benchmark's hosts are shared. Even in CPU time, the same operation
took from 3.6 to 6.2 s within ten minutes as other tenants loaded the
machine's cores and caches, and ten runs in a row spread by up to 12%. A :class:`SpeedProbe` thread runs a small fixed kernel
every ``PERIOD_S`` seconds while the benchmark works and times it in its
own CPU time. The kernel never changes with hemoflow, so its time only
moves with the host: the benchmark scales each operation's CPU time by
``NOMINAL_S`` over the kernel's median time during that operation,
which reads the operation's CPU time on a host as fast as the one that
defined the benchmark. The kernel does in small the two kinds of work
hemoflow's operations do: a complex exponential table and its matrix
product, like the direct-sum synthesis, and an interpreter loop over
small numpy arrays, like the per-tet loops on the mesh side.

Sampled only between operations, the kernel's time did not follow the
next operation's (correlation 0.3 to 0.7); sampled during it, it did
(0.89 on ``estimate_res2``). Under ``--trace 1`` tracemalloc slows the
kernel as well, so traced times are compared unscaled.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# Median kernel CPU time on the host that defined the benchmark (a
# two-CPU Intel Xeon VM), so scaled times read close to its CPU seconds.
NOMINAL_S = 0.00175
# About 3.5% of one CPU goes to the probe; its own CPU time is taken out
# of every measured operation.
PERIOD_S = 0.05

_rng = np.random.default_rng(20240214)
_Y = -2j * np.pi * _rng.standard_normal((256, 1))
_K = np.linspace(-25.0, 25.0, 30)
_TRIS = _rng.standard_normal((20, 3, 3))
# Preallocated, so the kernel maps no fresh pages whose cost would depend
# on the allocator's state rather than the host.
_E = np.empty((256, 30), dtype=complex)
_GRID = np.empty((30, 30), dtype=complex)


def _kernel() -> None:
    np.multiply(_Y, _K, out=_E)
    np.exp(_E, out=_E)
    np.matmul(_E.T, _E, out=_GRID)
    for tri in _TRIS:
        area = 0.5 * np.cross(tri[1] - tri[0], tri[2] - tri[0])
        float(area @ tri.mean(axis=0))


class SpeedProbe:
    """A thread that times the kernel every ``PERIOD_S`` seconds.

    Use it as a context manager; the thread is stopped and joined on
    exit. :meth:`mark` before a measured stretch and :meth:`since` after
    it give the host's speed over the stretch and the CPU time the probe
    itself used in it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.cpu = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-probe")

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self) -> float:
        before = time.thread_time()
        _kernel()
        after = time.thread_time()
        self.samples.append(after - before)
        return after

    def _run(self) -> None:
        start = time.thread_time()
        while not self._stop.wait(PERIOD_S):
            self.cpu = self._sample() - start

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.cpu

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """The factor that scales a CPU time measured since ``mark`` to
        the nominal host (above 1 on a faster host), and the probe's own
        CPU seconds since ``mark``."""
        first, cpu = mark
        # a stretch shorter than the period has no sample of its own
        window = self.samples[first:] or self.samples[-5:]
        return NOMINAL_S / statistics.median(window), self.cpu - cpu
