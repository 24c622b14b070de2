"""Host-speed index: a fixed reference kernel timed alongside the workload.

On a shared 2-core host the same trial on the same input takes anywhere
from ~170 to ~270 ms of CPU, as the host's speed moves from second to
second, so over ten 30-second runs the raw median spreads by 10-30 %
(interquartile range over median).  The reference kernel below slows down with the host but never
with the program (it calls no program code), so the ratio of a workload
timing to the kernel's time around it is steady to a few per cent.

The benchmark runs the kernel once before every trial or epoch, outside
that op's window, and scales each op's CPU time by
``NOMINAL_S / median(kernel CPU time)`` over the ops around it: the time
the op would have taken while the host ran the kernel in ``NOMINAL_S``.
Wall times are scaled by the kernel's wall time the same way.  A local
window follows the host's phases, which last seconds.  Unscaled timings
are printed next to the scaled ones.

The kernel mixes what the program spends its time on: an interpreted
loop, small-array numpy calls, large-array numpy calls and a dense
assignment solve.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

#: The kernel's typical duration between ops on the host the bounds were
#: set on (2-core Intel Xeon, Python 3.11, numpy 2.4, scipy 1.17).
NOMINAL_S = 0.004

#: Ops on each side of an op whose kernel samples set its scale.
HALF_WINDOW = 5


class HostSpeed:
    """The reference kernel and its fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._large = rng.random(40_000)
        self._matrix = rng.random((64, 64))
        self._small = rng.random(300)
        self._keys = np.arange(50) % 7
        self._weights = rng.random((96, 96))

    def sample(self) -> "tuple[float, float]":
        """Run the kernel once; return its wall and thread CPU seconds."""
        start = time.perf_counter()
        cpu_start = time.thread_time()
        total = 0
        for i in range(20_000):
            total += i * i
        np.sort(self._large)
        np.cumsum(self._large)
        self._matrix @ self._matrix
        np.nonzero(self._large > 0.5)
        for _ in range(300):
            np.minimum(self._small, 0.5).sum()
            np.bincount(self._keys)
            self._small[self._small > 0.9]
        linear_sum_assignment(self._weights, maximize=True)
        return time.perf_counter() - start, time.thread_time() - cpu_start


def scaled(times: "list[float]", samples: "list[float]") -> "list[float]":
    """Each op's time scaled by the kernel samples of the ops around it;
    ``samples[i]`` was taken just before op ``i``."""
    return [
        value
        * NOMINAL_S
        / statistics.median(samples[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1])
        for i, value in enumerate(times)
    ]
