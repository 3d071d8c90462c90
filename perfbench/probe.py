"""A fixed reference computation that gauges how fast the host runs now.

The shared host this benchmark was built on moves between speed states
about 1.5x apart, for seconds to minutes at a time.  It does so without
stolen time to show for it: a single-threaded job's CPU time slows exactly
as much as its wall time, so neither clock can tell a slow host from a slow
program.  A probe can: it is a fixed piece of work, written here with plain
Python and numpy so that no change to the program moves it, and timed right
before and right after every timed job or set-up (all on the one CPU a run
is pinned to).  ``run.py`` scales each timing by the probe's reference time
over the mean of the two probe times, which reports it in seconds on a host
where the probe takes its reference time.

Kinds of work slow down by different amounts in the slow state (measured:
a matrix product streaming a 125 MB operand by 1.25x, an interpreter loop
by 1.5x).  The probe has one part of each, and each workload names the
parts that match where its time goes (``Workload.probe_parts``).
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20260101)
#: A 31 MB operand: far beyond cache, like oneshot's 784-dim arrays.
_WIDE = _rng.standard_normal((5000, 784))
_THIN = _rng.standard_normal((784, 16))


def blas() -> float:
    """Large-array kernels: products streaming the 31 MB operand."""
    total = 0.0
    for _ in range(6):
        total += float((_WIDE @ _THIN).sum())
    return total


def interpreter() -> int:
    """Interpreted Python: a fixed loop of bytecode."""
    count = 0
    for i in range(600000):
        count += i % 7
    return count


#: Probe part -> (part, seconds it takes on the reference host: the
#: two-vCPU VM the benchmark was tuned on).
PARTS = {"blas": (blas, 0.04), "interpreter": (interpreter, 0.06)}


class HostSpeed:
    """Times the probe parts around each piece of timed work."""

    def __init__(self, parts) -> None:
        self.parts = tuple(parts)
        self.reference = sum(PARTS[name][1] for name in self.parts)
        self.samples = {name: [] for name in PARTS}
        self._last = self._time()

    def _time(self) -> float:
        total = 0.0
        for name, (part, _) in PARTS.items():
            start = time.perf_counter()
            part()
            seconds = time.perf_counter() - start
            self.samples[name].append(seconds)
            if name in self.parts:
                total += seconds
        return total

    def scale(self) -> float:
        """Call right after a timed piece of work: the factor that turns its
        time into reference-host seconds, from the probe run before it and
        a new one after it."""
        before, self._last = self._last, self._time()
        return 2.0 * self.reference / (before + self._last)
