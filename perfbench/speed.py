"""Host-speed probe: host times rescaled to one reference speed.

The benchmark runs on a shared host whose speed drifts by tens of
percent over seconds to minutes: one 100-station ``fleet-outage``
repetition ran its simulation in 4.4 s and, a minute later, the same
seed in 7.5 s, on a 2-vCPU Xeon KVM guest with nothing else running in
it.  A median over a run cannot remove a drift that lasts longer than
the run.

:class:`SpeedClock` measures the drift where it happens.  While a
repetition runs, an interval timer interrupts it every ``PERIOD_S`` and
times a fixed pure-Python probe (heap, dict, generator and small-object
work, like the simulator's).  The stretch of time between one probe and
the next is rescaled by ``REFERENCE_S / probe time``: the seconds it
would have taken had the host run the probe in ``REFERENCE_S``.  Probe
time itself is left out.  A program change that makes a phase cheaper
or dearer moves the rescaled seconds as much as the raw ones; a slow
spell of the host moves the probe with it and cancels out.

On that guest, ten 36-second runs of ``overload`` (seeds 101-110) gave
median run phases whose interquartile range was 4.3% and 5.1% of their
median in two sets rescaled, and 20.6% raw.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time

PERIOD_S = 0.02
PROBE_ITEMS = 150
# What the probe takes on an undisturbed host (the fast mode of the
# 2-vCPU Xeon KVM guest above): rescaled seconds are seconds at that
# speed.
REFERENCE_S = 0.00015


def probe(items: int = PROBE_ITEMS) -> int:
    """A fixed piece of interpreter work; returns a checksum."""
    heap = []
    counts = {}

    def counter():
        total = 0
        while True:
            total += yield total

    running = counter()
    next(running)
    for index in range(items):
        heapq.heappush(heap, (index * 7919 % 1013, index, [index]))
        counts[index % 97] = counts.get(index % 97, 0) + running.send(1)
    while heap:
        heapq.heappop(heap)
    return len(counts)


class SpeedClock:
    """Probes the host's speed from :meth:`start` to :meth:`stop`.

    Only the process's main thread may use it (it installs a SIGALRM
    handler).  The handler runs between two bytecodes of whatever is
    running and touches nothing of it; the collector is held off while
    the probe runs, and the probe frees all it allocates, so the
    program's collections fall where they would without it.
    """

    def __init__(self):
        self.probes = []  # (started, seconds) per probe
        self.started_at = self.stopped_at = None
        self._previous = None
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        self.started_at = self.probes[0][0]
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.stopped_at = time.monotonic()
        # Stretch k runs from the end of probe k to the start of the
        # next probe (or the stop) and is rescaled by probe k's time.
        self._ends = [began + took for began, took in self.probes]
        self._untils = ([began for began, _ in self.probes[1:]]
                        + [self.stopped_at])

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        began = time.monotonic()
        probe()
        self.probes.append((began, time.monotonic() - began))
        if collecting:
            gc.enable()
        self._busy = False

    def seconds(self, start: float, end: float) -> float:
        """Rescaled seconds between two ``time.monotonic()`` instants
        inside the probed span, probe time left out."""
        total = 0.0
        index = max(0, bisect.bisect_right(self._ends, start) - 1)
        while index < len(self.probes):
            low = max(start, self._ends[index])
            high = min(end, self._untils[index])
            if self._ends[index] >= end:
                break
            if high > low:
                total += (high - low) * REFERENCE_S / self.probes[index][1]
            index += 1
        return total

    def raw_seconds(self, start: float, end: float) -> float:
        """Seconds between the two instants, probe time left out."""
        inside = sum(max(0.0, min(end, began + took) - max(start, began))
                     for began, took in self.probes)
        return end - start - inside
