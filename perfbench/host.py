"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a few cores of a shared host, whose speed for one
single-threaded process drifts by up to a third over seconds to minutes
(neighbours on the same physical cores; CPU time drifts with wall time,
so it does not help).  The drift scales every piece of code by about
the same factor, so the benchmark measures it: a fixed reference kernel,
which uses no ``dtoda`` code, runs before every timed command and after
the last one, and each command's wall time is scaled by
``REFERENCE_S`` over the mean of the two reference times around it.  A
normalised time reads as the command's time on a host on which the
kernel takes ``REFERENCE_S``.  A change to ``dtoda`` moves the command
times and not the kernel's, so it shows in the normalised times in full.

The kernel mixes what a ``dtoda`` operation does: interpreted integer
and dict work, and many small complex numpy calls (``np.convolve`` on
short coefficient arrays, elementwise products).
"""

from __future__ import annotations

import statistics
import time
from typing import List

# Median of ``reference_seconds()`` on the host the benchmark was defined
# on (2 vCPUs of an Intel Xeon, Python 3.11, numpy on one thread).
REFERENCE_S = 0.013

_PY_STEPS = 80_000
_NP_STEPS = 1_070
_REPEATS = 3
_arrays = None


def _kernel() -> complex:
    global _arrays
    if _arrays is None:
        # numpy loads here, after the caller has pinned its thread pools.
        import numpy as np
        k = np.arange(33)
        x = np.cos(0.3 * k) + 1j * np.sin(0.7 * k)
        _arrays = (np, x, x[::-1].copy())
    np, x, y = _arrays
    total = 0
    for i in range(_PY_STEPS):
        total += i * i % 7
    acc = complex(total % 5)
    seen = {}
    for i in range(_NP_STEPS):
        c = np.convolve(x, y)
        acc = 0.5 * acc + complex(c[i % c.size])
        seen[i % 97] = acc
        x * acc + y
    return acc


def reference_seconds() -> float:
    """Wall time of the reference kernel: the median of ``_REPEATS``
    runs, so that a stall of the host during one run does not count."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Reference kernel runs between timed intervals, and the scaling.

    Call ``pause`` before each timed interval and once after the last;
    interval ``k`` then ran between pauses ``k`` and ``k + 1``.
    """

    def __init__(self) -> None:
        self.refs: List[float] = []

    def pause(self) -> None:
        self.refs.append(reference_seconds())

    def normalise(self, seconds: List[float]) -> List[float]:
        """The intervals' wall times, in order, scaled to ``REFERENCE_S``."""
        if len(self.refs) != len(seconds) + 1:
            raise ValueError(f"{len(seconds)} intervals need "
                             f"{len(seconds) + 1} pauses, not {len(self.refs)}")
        return [s * 2 * REFERENCE_S / (self.refs[k] + self.refs[k + 1])
                for k, s in enumerate(seconds)]
