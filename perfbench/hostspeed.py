"""Host timings scaled to a reference host speed.

On a shared host, other tenants' load slows the simulator by up to 2x
in phases that last from seconds to minutes, and a whole run can fall
inside one; no statistic over a single run removes that.  A run
therefore interleaves a fixed probe with its passes and scales its
median host seconds by the probe's median slowdown:

    scaled = median(raw) * PROBE_REF_S / median(probe times)

Per-pass scaling was tried and rejected: within one contention phase a
single probe tracks a pass poorly, so it adds noise; the run's median
probe only has to tell a quiet run from a contended one.

The probe must have the shape of the timed work.  A replay runs in one
process, so one probe in the benchmark's process stands for it.  The
grid's pooled pass runs its cells in two worker processes at once: a
tenant that takes one of two CPUs slows it 1.5x but leaves a lone probe
untouched.  ``HostSpeed(2)`` therefore runs the probe in two spawned
processes at once, each for a window of ``WINDOW`` back-to-back probes,
and a sample books the mean over the processes.  With a busy loop beside
the benchmark on a 2-CPU VM, the pooled wall read 1.54x, a lone probe
1.0x and the two windows 1.53x.  Windows of three probes read 1.95x:
the scheduler wakes both workers on one CPU, and a short window ends
before load balancing moves one.

The probe does what the simulator spends its time on (a binary heap of
events, dicts of small objects, attribute updates, a sort) and imports
nothing from the simulator, so a change to the program moves the scaled
time as much as the raw one.  ``PROBE_REF_S`` is the probe's
uncontended time on a 2-CPU 2.0 GHz Xeon VM, so scaled seconds read as
that host's uncontended seconds.  Probes run with the cyclic garbage
collector off, so they time the host, not a collection over whatever the
benchmark keeps alive.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
from multiprocessing.pool import Pool
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Uncontended probe time on the reference host (seconds).
PROBE_REF_S = 0.008


class _Record:
    __slots__ = ("index", "total", "tags")

    def __init__(self, index: int) -> None:
        self.index = index
        self.total = 0.0
        self.tags: Dict[int, int] = {}


def probe_s() -> float:
    """Host seconds of one run of the fixed probe workload."""
    t0 = perf_counter()
    heap: List[Tuple[int, int]] = []
    records = {}
    for index in range(4000):
        records[index] = _Record(index)
        heapq.heappush(heap, ((index * 7919) % 1009, index))
    while heap:
        when, index = heapq.heappop(heap)
        record = records[index]
        record.total += when
        record.tags[when % 7] = index
        if when % 5 == 0 and when < 900:
            heapq.heappush(heap, (when + 100, index))
    sorted(records.values(), key=lambda r: (r.total, r.index))
    return perf_counter() - t0


#: Back-to-back probes per process in a sample of ``HostSpeed(workers > 1)``.
WINDOW = 10


def _probe_window(_: int) -> float:
    """Mean time of ``WINDOW`` back-to-back probes, in a pool worker."""
    return sum(probe_s() for _ in range(WINDOW)) / WINDOW


class HostSpeed:
    """Probe times taken through a run, and the scale they imply.

    With ``workers > 1`` a sample is one probe window in each of that
    many spawned processes at once; call :meth:`close` to stop them.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self.probes: List[float] = []
        self._pool: Optional[Pool] = None
        if workers > 1:
            context = multiprocessing.get_context("spawn")
            self._pool = context.Pool(workers, initializer=gc.disable)

    def sample(self, count: int = 3) -> None:
        """Book ``count`` lone probes, or one window per worker; call
        between timed regions."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            if self._pool is None:
                self.probes.extend(probe_s() for _ in range(count))
            else:
                times = self._pool.map(_probe_window, range(self.workers), chunksize=1)
                self.probes.append(sum(times) / len(times))
        finally:
            if enabled:
                gc.enable()

    def scale(self, raw_s: float) -> float:
        """``raw_s`` host seconds as reference-host seconds."""
        return raw_s * PROBE_REF_S / median(self.probes)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
