"""Host-speed probe: wall times scaled to a nominal host speed.

A shared VM does not run at one speed.  On the 2-vCPU Xeon VM this
benchmark was tuned on, one solve repeated in one process switched
between two speeds about 70% apart every few seconds to tens of
seconds, with no steal time and nothing else running in the VM; the
medians of whole runs then spread 20-40% (IQR over median) across
seeds, more than any bound the benchmark may set.

The probe measures the host's speed inside the measuring process,
while the program runs.  A timer signal (``ITIMER_REAL``, every
:data:`PERIOD_S`) runs :func:`kernel` -- a fixed, benchmark-owned mix
of interpreter work (a dict loop) and small numpy calls, the two costs
the program's rounds are made of -- and records when it ran and how
long it took.  :meth:`HostSpeed.seconds` of a timed interval is its wall
time minus the probe time spent inside it, times the mean of
:data:`NOMINAL_S` over each probe's duration, from the last probe before
the interval to the first one after it.  The mean of those speeds, not
of the durations, weighs every probe by the share of the interval it
stands for, so a long interval that spans both host speeds is scaled by
the speed it ran at on average, and a probe that a page fault or a
collection slowed counts for little.  A change to the program moves
only the wall time: the probe runs none of the program's code.

The probe only rescales; it does not hide a slow program.  Measured
against raw wall times in one process over 30-40 s, normalized solve
times of five solver/graph pairs spread 3-8% between processes where
raw ones spread 12-26%, because the program and the probe slow down
together when the host does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

#: seconds between probes
PERIOD_S = 0.02
#: probe duration that counts as nominal speed (the fast state of the
#: host above); a normalized time is what the wall time would be there
NOMINAL_S = 2.0e-4
#: untimed probe runs before the timer starts
WARMUP = 20

_PERM = np.random.default_rng(20231017).integers(0, 256, 256)


def kernel():
    """The probe's fixed work (~0.2 ms): a dict loop and small numpy calls."""
    acc: "dict[int, int]" = {}
    for i in range(600):
        k = i % 61
        acc[k] = acc.get(k, 0) + (i ^ k)
    lab = np.arange(256)
    for _ in range(20):
        nb = lab[_PERM]
        idx = np.nonzero(nb < lab)[0]
        lab[idx] = nb[idx]
    return acc, lab


class HostSpeed:
    """Runs the probe while entered; normalizes intervals afterwards."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.starts: "list[float]" = []
        self.durations: "list[float]" = []
        self._previous = None
        self._busy = False

    def _probe(self, signum, frame) -> None:
        if self._busy:  # a late signal must not nest inside a probe
            return
        self._busy = True
        t0 = clock()
        kernel()
        self.durations.append(clock() - t0)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        for _ in range(WARMUP):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, t0: float, t1: float) -> float:
        """Normalized seconds of the interval ``[t0, t1]`` of ``clock()``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        around = self.durations[max(0, lo - 1):hi + 1]
        if not around:
            raise RuntimeError("no host-speed probe ran near the interval")
        inside = sum(self.durations[lo:hi])
        speed = statistics.fmean(NOMINAL_S / d for d in around)
        return (t1 - t0 - inside) * speed

    def median_s(self) -> float:
        """Median probe duration over the whole run."""
        return statistics.median(self.durations)
