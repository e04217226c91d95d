"""Op timing that corrects for the host's changing speed.

A shared host can run the same code at very different speeds from one
second to the next (on the 2-vCPU machine this benchmark was built on,
slow spells of 1.4-1.8x lasted from one second to a minute).  So the
clock runs a fixed probe computation, which uses nothing of the
benchmarked package, at most every PROBE_EVERY_S between ops, and scales
each op's time by NOMINAL_PROBE_S over the median of the last
RECENT_PROBES probe times.  A reported time is then the time the op would
take on a host where the probe takes NOMINAL_PROBE_S.  Raw times are kept
too.

The clock keeps the times of the first KEEP ops (for percentiles) and
running totals over all ops, so its memory does not grow with the
number of ops a faster program fits into a run.
"""

import math
import statistics
import time
from array import array
from collections import deque

NOMINAL_PROBE_S = 1e-3
PROBE_EVERY_S = 0.05
RECENT_PROBES = 5
KEEP = 20000


class _Ratio:
    """A bare rational number: like Fraction's arithmetic, but a class the
    benchmarked package cannot reach, so that no tracer or patch of
    `fractions.Fraction` changes the probe."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = math.gcd(n, d)
        self.n, self.d = n // g, d // g

    def __add__(self, other):
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)


def probe():
    """Seconds taken by a fixed computation in the style of the library's
    exact arithmetic."""
    start = time.perf_counter()
    total = _Ratio(0, 1)
    for i in range(1, 600):
        total = total + _Ratio(1, i % 97 + 1)
    return time.perf_counter() - start


class HostClock:
    def __init__(self, probe_fn=probe):
        self.probe_fn = probe_fn
        self.recent = deque(maxlen=RECENT_PROBES)
        self.probes = array("d")  # every probe time, for the report
        self.last_probe = -math.inf
        self.raw = array("d")  # first KEEP ops: raw seconds
        self.normalized = array("d")  # first KEEP ops: normalized seconds
        self.count = 0
        self.raw_total = 0.0
        self.normalized_total = 0.0
        self.last = None  # normalized seconds of the latest op

    def probe_now(self):
        self.last_probe = time.perf_counter()
        took = self.probe_fn()
        self.recent.append(took)
        self.probes.append(took)

    def probe_if_due(self):
        if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probe_now()

    def run(self, fn, *args):
        """fn(*args), timed; the time is recorded even if it raises."""
        if not self.recent:
            self.probe_now()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.record(time.perf_counter() - start)

    def record(self, raw):
        norm = raw * NOMINAL_PROBE_S / statistics.median(self.recent)
        if self.count < KEEP:
            self.raw.append(raw)
            self.normalized.append(norm)
        self.count += 1
        self.raw_total += raw
        self.normalized_total += norm
        self.last = norm

    def probe_median(self):
        return statistics.median(self.probes)


def timed_once(fn, *args):
    """(normalized seconds, raw seconds) of one call of fn(*args), scaled
    by the median of RECENT_PROBES probes before it and as many after."""
    around = [probe() for _ in range(RECENT_PROBES)]
    start = time.perf_counter()
    fn(*args)
    raw = time.perf_counter() - start
    around += [probe() for _ in range(RECENT_PROBES)]
    return raw * NOMINAL_PROBE_S / statistics.median(around), raw
