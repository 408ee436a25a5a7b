"""Timings at a reference CPU speed, gauged by a fixed unit of pure-Python
work that does not depend on the program.

On a shared virtual machine, other load slows the benchmark's CPU by up to
2x, in phases from a fraction of a second to minutes, so wall times of one
op spread widely within a run and between runs.  While a timed pass runs, a
:class:`Sampler` runs the calibration work from a ``SIGALRM`` handler every
``INTERVAL_S`` seconds and records how long it took.  :meth:`Sampler.scaled`
turns an op's wall time into reference seconds: the wall time, less the
calibration time that fell inside it, divided by the mean calibration time
over the op's interval (widened by ``INTERVAL_S`` on each side, so that a
short op has samples too) and multiplied by ``REFERENCE_S``.  A reference
second is thus a fixed amount of the calibration's work; an op that gets
faster reads fewer of them, and a run that falls into a slow phase does not.

The work is string suffix tests and dictionary updates on short words, the
kind of work the package's word and shift layers do, written with index
loops over pre-built data so that it allocates no object that the garbage
collector counts and does not move the collector's runs between ops.
"""

from __future__ import annotations

import bisect
import signal
import time
from itertools import product

# The calibration's mean time while the benchmark's ops run, on a shared
# 2-vCPU Intel Xeon (2.1 GHz) with Python 3.11; with it, reference seconds
# read close to that machine's typical wall times.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.025
_REPEATS = 3

_WORDS = ["".join(p) for p in product("ab", repeat=8)]
_FORBIDDEN = ("aaa", "bba", "abab", "bbbb", "ba", "aab")
_COUNTS = {w[-3:]: 0 for w in _WORDS}


def _work() -> int:
    words, forbidden, counts = _WORDS, _FORBIDDEN, _COUNTS
    nw, nf = len(words), len(forbidden)
    n = 0
    r = 0
    while r < _REPEATS:
        i = 0
        while i < nw:
            w = words[i]
            j = 0
            while j < nf:
                if w.endswith(forbidden[j]):
                    n += j
                j += 1
            k = w[-3:]
            counts[k] = (counts[k] + n) & 0xFFFF
            i += 1
        r += 1
    return n


class Sampler:
    """Calibration samples, taken every ``INTERVAL_S`` seconds inside a
    ``with`` block and on demand by :meth:`sample`."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def inside(self, t0: float, t1: float) -> float:
        """Calibration time spent between ``t0`` and ``t1``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval ``t0``..``t1``."""
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_left(self.starts, t1 + INTERVAL_S)
        if lo == hi:  # no sample near: the closest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        around = self.durations[lo:hi]
        return (t1 - t0 - self.inside(t0, t1)) * REFERENCE_S * len(around) / sum(around)
