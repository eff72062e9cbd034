"""Host-speed reference: fixed kernels that call nothing of the library.

The benchmark shares its host with other work, and the host's speed drifts
by 15-25 % over tens of seconds (a fixed pure-Python loop timed back to
back on a 2-core host ran at 0.16-0.23 s per pass). That drift, not the
program, dominated run-to-run spread. So every timing is also reported
corrected to a nominal host speed: a kernel is timed between ops, and a
latency measured while the kernel took ``r`` seconds is scaled by
``nominal / r``, where ``r`` is the median of the kernel samples within
``window_s`` around the op. A change to the library moves the corrected
figure as it moves the raw one; a slow spell of the host moves both the
kernel and the op and cancels out. The window is seconds long, so one odd
kernel sample barely moves the factor, and still short next to the drift.
Raw figures stay in the run's record.

In-process workloads use ``PYTHON``: interpreter-bound float work, small
numpy calls and passes over a 480-point array, like the library's. ``cli`` and set-up use ``SPAWN``: a
fresh interpreter that imports numpy, like the start of every process.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_V = np.arange(3.0)
_GRID = 1.0 + np.geomspace(1e-12, 1e12, 480)


def _python_kernel() -> None:
    """Scalar float work and small numpy calls, with a 480-point array pass
    every tenth step: the mix of the library's verdicts and searches."""
    acc = 0.0
    for i in range(500):
        acc += math.hypot(i, acc % 7.0)
        acc += float(np.dot(_V, _V)) * 1e-9
        if i % 10 == 0:
            r = np.sqrt((_GRID - 1.0) * (_GRID + 1.0))
            acc += float(np.min(1.0 / (_GRID + r) - np.hypot(0.3, r + 0.1)))


def _spawn_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    nominal_s: float  # its duration on the nominal host
    every_s: float  # at most this long between samples, when ops are shorter
    window_s: float  # width of the window whose samples correct an op


PYTHON = Kernel(_python_kernel, 2.0e-3, 0.05, 2.0)
SPAWN = Kernel(_spawn_kernel, 0.15, 1.0, 8.0)


class Sampler:
    """Kernel timings (midpoint, duration), taken at most every ``every_s``."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent_s = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel.run()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.spent_s += t1 - t0
        self._last = t1

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.kernel.every_s:
            self.sample()

    def factors(self, at) -> np.ndarray:
        """Nominal / median kernel duration within ``window_s`` around each
        (sorted) time in ``at``."""
        times, dur = np.asarray(self.times), np.asarray(self.durations)
        at = np.asarray(at)
        half = 0.5 * self.kernel.window_s
        lo = np.minimum(np.searchsorted(times, at - half), len(times) - 1)
        hi = np.maximum(np.searchsorted(times, at + half), lo + 1)
        windows, which = np.unique(np.stack([lo, hi], axis=1), axis=0, return_inverse=True)
        medians = np.array([np.median(dur[a:b]) for a, b in windows])
        return self.kernel.nominal_s / medians[which.ravel()]

    def factor(self) -> float:
        """Nominal / median of every kernel duration sampled."""
        return self.kernel.nominal_s / statistics.median(self.durations)
