"""Host-speed reference for the benchmark's timings.

The 2-vCPU VM this benchmark was written on runs each vCPU in one of
two speeds, about 1.6x apart, and switches between them every 0.1 s to
tens of seconds with no sign inside the guest (no steal time, CPU time
grows as wall time does).  Between two runs the share of slow time
moved every wall-clock metric by 30-40 % (README "Steadiness").

So every timed section is measured next to a fixed piece of reference
work, the *probe*: string formatting and splitting, a dict, and small
NumPy sorts — the kinds of work the program does.  Probes run between
timed operations (between two deliveries, queries, page slices, ETL
passes, loads) and only while no other thread of the benchmark works.
A stretch of wall time between two probes is scaled by
``REF_PROBE_S / t`` with ``t`` the mean time of the probes at its
ends; the probes' own time is left out of every timed interval.  The
end-to-end times are these *reference seconds*: the wall time the
same work takes at the speed where one probe takes ``REF_PROBE_S``.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import statistics
import time
from typing import Iterator, List, Optional, Set

import numpy as np

#: the probe's wall time at reference speed: about its time on the
#: fast state of the VM the benchmark was written on (a 2-vCPU Intel
#: Xeon guest), so that reference seconds read close to wall seconds
REF_PROBE_S = 0.0005
#: reference work repeated per probe; the probe's time is the fastest
#: repeat, so an interrupt or a garbage collection in one does not count
PROBE_REPEATS = 2

_SORT_INPUT = np.random.default_rng(0).random(8000)
#: the CPUs this process may run on, as it started
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def _reference_work() -> None:
    rows = ["%d %f %s" % (i, i * 0.5, "abc") for i in range(500)]
    parts = [r.split() for r in rows]
    table = {p[0]: float(p[1]) for p in parts}
    values = np.array(list(table.values()))
    np.cumsum(values)
    values.sort()
    _SORT_INPUT.copy().sort()


def _time_reference_work() -> float:
    reps = []
    for _ in range(PROBE_REPEATS):
        r0 = time.perf_counter()
        _reference_work()
        reps.append(time.perf_counter() - r0)
    return min(reps)


def _set_affinity(cpus: Set[int]) -> None:
    """Set the CPU affinity of every thread of this process."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # the thread has exited meanwhile
            pass


@contextlib.contextmanager
def one_cpu() -> Iterator[None]:
    """Run every thread of this process on one CPU meanwhile.

    For the portal reads: clients and render threads hand the
    interpreter to each other, and on two vCPUs each hand-off waits
    until the host runs the other vCPU — a delay the probe cannot see.
    On one CPU the probes time the CPU the reads run on.  Threads
    started inside the block inherit the pin; on leaving it every
    thread gets all of ``ALL_CPUS`` back.
    """
    _set_affinity({min(ALL_CPUS)})
    try:
        yield
    finally:
        _set_affinity(set(ALL_CPUS))


class Speed:
    """A timeline of probes; :meth:`scaled` turns an interval of wall
    time into reference seconds.

    Probes are taken on one thread, one after the other, so their start
    and end times are both sorted.  With ``enabled`` false nothing is
    probed and :meth:`scaled` returns wall time (the traced run, whose
    spans must not contain probes).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.times: List[float] = []

    def probe(self, all_cpus: bool = False) -> None:
        """Time the reference work on the CPU this thread runs on, or
        with ``all_cpus`` on each CPU the process may use in turn (the
        mean of their times): the probe for work spread over several
        processes or threads."""
        if not self.enabled:
            return
        t0 = time.perf_counter()
        if all_cpus:
            cpus = os.sched_getaffinity(0)
            try:
                times = []
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    times.append(_time_reference_work())
            finally:
                os.sched_setaffinity(0, cpus)
            probe_s = statistics.fmean(times)
        else:
            probe_s = _time_reference_work()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.times.append(probe_s)

    def _factor(self, left: Optional[int], right: Optional[int]) -> float:
        ends = [self.times[k] for k in (left, right) if k is not None]
        return REF_PROBE_S * len(ends) / sum(ends)

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of the wall-time interval ``[a, b]``.

        ``[a, b]`` must not cut a probe.  Probes inside it are left out;
        each stretch between two probes is scaled by the probes at its
        ends (by the one nearest probe at the edge of the timeline).
        """
        n = len(self.times)
        if not n:
            return b - a
        lo = bisect.bisect_right(self.ends, a)   # probes [0, lo) end by a
        hi = bisect.bisect_left(self.starts, b)  # probes [hi, n) start at b
        left = lo - 1 if lo > 0 else None
        total, t = 0.0, a
        for k in range(lo, hi):
            total += (self.starts[k] - t) * self._factor(left, k)
            left, t = k, self.ends[k]
        right = hi if hi < n else None
        if left is None and right is None:  # pragma: no cover - n > 0
            return b - a
        return total + (b - t) * self._factor(left, right)

    def median_probe_s(self) -> float:
        return statistics.median(self.times) if self.times else 0.0

    def wall_s(self, a: float = -math.inf, b: float = math.inf) -> float:
        """Wall time spent probing within ``[a, b]``."""
        return sum(e - s for s, e in zip(self.starts, self.ends)
                   if a <= s and e <= b)
