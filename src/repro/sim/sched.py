"""The simulation kernel's event queue: one binary heap.

The kernel's total order over scheduled events is the tuple
``(time, priority, seq)``: virtual time first, then priority (0 for
interrupts, 1 for everything else), then a global monotonic sequence
number that makes every key unique and same-time dispatch FIFO.
:class:`HeapScheduler` stores ``(time, priority, seq, event)`` entries
in a flat ``heapq`` heap and hands them back in exactly that order.

Cancelled timeouts are tombstoned: :meth:`repro.sim.kernel.Timeout.cancel`
marks the event and bumps ``scheduler.tombstones`` instead of hunting
the entry down.  Dead entries are dropped — uncounted, without running
callbacks — the moment any pop or peek reaches them, so ``live_count``
and :meth:`Simulator.peek` describe only events that will actually fire.
"""

from __future__ import annotations

# The one sanctioned heapq import site for event scheduling — see the
# direct-heapq lint rule in repro.analysis.rules.perf.
import heapq
from typing import Any, Optional

__all__ = ["HeapScheduler"]

_INF = float("inf")


class HeapScheduler:
    """One flat binary heap of ``(time, priority, seq, event)`` entries.

    The scheduler never inspects an event beyond its ``_cancelled``
    flag.  ``urgent_pending`` is the batched-dispatch handshake: it is
    set whenever a priority != 1 entry is pushed, so the kernel can
    notice mid-batch that an interrupt arrived and must preempt the
    remaining same-time batch entries (see ``Simulator.run``); the next
    ``pop_batch`` clears it.
    """

    name = "heap"

    def __init__(self):
        self._heap: list = []
        #: Cancelled-but-not-yet-dropped entries (see Timeout.cancel).
        self.tombstones = 0
        self.urgent_pending = False

    def push(self, time: float, priority: int, seq: int, event: Any) -> None:
        """Insert a general entry (any priority, any future time)."""
        heapq.heappush(self._heap, (time, priority, seq, event))
        if priority != 1:
            self.urgent_pending = True

    def push_now(self, time: float, seq: int, event: Any) -> None:
        """Fast path: priority-1 entry at the current instant."""
        heapq.heappush(self._heap, (time, 1, seq, event))

    def pop_batch(self, until: Optional[float]) -> list:
        """All live entries sharing the earliest time, in order.

        Returns ``[]`` when nothing is pending or the earliest live
        entry lies beyond ``until``.  Cancelled entries encountered on
        the way are dropped silently (tombstone bookkeeping included).

        The batch is also the unit of the commutativity contract: the
        entries share a timestamp with no intra-batch causal edge
        through the kernel, so their dispatch order is the kernel's
        tie-break and a correct model must not depend on it.  The race
        sanitizer
        (``repro.analysis.races``) hooks :meth:`Simulator.run` right
        after this call to record per-entry read/write sets and — on
        replay — hand back the batch in flipped order to prove or
        refute a flagged hazard.
        """
        self.urgent_pending = False
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            if heap[0][3]._cancelled:
                heappop(heap)
                self.tombstones -= 1
                continue
            time = heap[0][0]
            if until is not None and time > until:
                return []
            batch = [heappop(heap)]
            while heap and heap[0][0] == time:
                entry = heappop(heap)
                if entry[3]._cancelled:
                    self.tombstones -= 1
                else:
                    batch.append(entry)
            return batch
        return []

    def pop_one(self) -> Optional[tuple]:
        """The single earliest live entry, or None when empty."""
        self.urgent_pending = False
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3]._cancelled:
                self.tombstones -= 1
                continue
            return entry
        return None

    def requeue(self, entries: list) -> None:
        """Put back the unconsumed tail of a batch (urgent preemption)."""
        for entry in entries:
            heapq.heappush(self._heap, entry)

    def peek_time(self) -> float:
        """Earliest live entry's time, or +inf; drops leading tombstones."""
        heap = self._heap
        while heap:
            if heap[0][3]._cancelled:
                heapq.heappop(heap)
                self.tombstones -= 1
                continue
            return heap[0][0]
        return _INF

    def __len__(self) -> int:
        """Raw entry count, tombstones included."""
        return len(self._heap)

    def live_count(self) -> int:
        """Entries that will actually dispatch (raw minus tombstones)."""
        return len(self._heap) - self.tombstones
