"""Tests for repro.sim.sched: the kernel's binary-heap event queue,
checked case by case and against a sorted-list model."""

from hypothesis import given, settings, strategies as st

from repro.sim import HeapScheduler, Simulator


class FakeEvent:
    __slots__ = ("_cancelled",)

    def __init__(self):
        self._cancelled = False


# ----------------------------------------------- same-timestamp ordering
def test_same_timestamp_batch_is_seq_ordered():
    sched = HeapScheduler()
    # One timestamp, pushed out of seq order.
    sched.push(5.0, 1, 30, FakeEvent())
    sched.push(5.0, 1, 10, FakeEvent())
    sched.push(5.0, 1, 20, FakeEvent())
    batch = sched.pop_batch(None)
    assert [entry[2] for entry in batch] == [10, 20, 30]


# -------------------------------------------------- tombstones / cancels
def test_mass_timeout_cancellation():
    """Cancel hundreds of pending timeouts; none may fire and the live
    count must reflect only survivors."""
    sim = Simulator()
    fired = []
    timers = []
    for index in range(400):
        timer = sim.timeout(1.0 + index * 0.01)
        timer.callbacks.append(lambda ev, i=index: fired.append(i))
        timers.append(timer)
    keep = [timer for index, timer in enumerate(timers) if index % 50 == 0]
    for index, timer in enumerate(timers):
        if index % 50:
            timer.cancel()
    assert sim.queue_depth() == len(keep)
    sim.run()
    assert fired == [0, 50, 100, 150, 200, 250, 300, 350]
    assert sim.queue_depth() == 0


def test_peek_skips_cancelled_head():
    sched = HeapScheduler()
    dead = FakeEvent()
    sched.push(1.0, 1, 1, dead)
    sched.push(2.0, 1, 2, FakeEvent())
    dead._cancelled = True
    sched.tombstones += 1
    assert sched.peek_time() == 2.0
    assert sched.live_count() == 1


def test_until_excludes_later_entries():
    sched = HeapScheduler()
    sched.push(5.0, 1, 1, FakeEvent())
    assert sched.pop_batch(4.0) == []
    assert sched.pop_batch(5.0)[0][2] == 1


# ------------------------------------------------------- model property
_DELAYS = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 1.0, 4.0]),
                    st.floats(min_value=0.0, max_value=50.0))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), _DELAYS, st.sampled_from([0, 1, 1, 1])),
    st.tuples(st.just("cancel"), st.integers(min_value=0)),
    st.tuples(st.just("pop"),
              st.one_of(st.none(), st.sampled_from([0.0, 0.3, 2.0]))),
    st.tuples(st.just("requeue"), st.integers(min_value=0), st.booleans()),
    st.tuples(st.just("pop_one")),
    st.tuples(st.just("peek")),
), max_size=150)


@given(_OPS)
@settings(max_examples=400, deadline=None)
def test_heap_matches_sorted_model_property(ops):
    """Random interleavings of push, push_now, priority-0 pushes,
    tombstone cancels, ``pop_batch(until)``, urgent requeue and
    ``pop_one``: every pop hands back exactly what a sorted list of the
    live ``(time, priority, seq)`` keys predicts, every batch is one
    timestamp, and ``live_count`` is exact throughout."""
    sched = HeapScheduler()
    model = []  # live entries, unordered
    now = 0.0
    seq = 0

    def push(time, priority):
        nonlocal seq
        seq += 1
        entry = (time, priority, seq, FakeEvent())
        if time == now and priority == 1:
            sched.push_now(time, seq, entry[3])
        else:
            sched.push(time, priority, seq, entry[3])
            if priority != 1:
                assert sched.urgent_pending
        model.append(entry)

    def expected_batch(until):
        if not model:
            return []
        head = min(entry[0] for entry in model)
        if until is not None and head > until:
            return []
        return sorted((e for e in model if e[0] == head),
                      key=lambda e: e[:3])

    def take(batch):
        nonlocal now
        assert sched.urgent_pending is False
        if batch:
            assert len({entry[0] for entry in batch}) == 1
            now = batch[0][0]
        for entry in batch:
            model.remove(entry)

    for op in ops:
        kind = op[0]
        if kind == "push":
            push(now + op[1], op[2])
        elif kind == "cancel" and model:
            entry = model.pop(op[1] % len(model))
            entry[3]._cancelled = True
            sched.tombstones += 1
        elif kind == "pop":
            until = None if op[1] is None else now + op[1]
            expected = expected_batch(until)
            batch = sched.pop_batch(until)
            assert [e[:3] for e in batch] == [e[:3] for e in expected]
            take(batch)
        elif kind == "requeue":
            # The kernel's urgent preemption: consume a prefix of the
            # batch, an interrupt may arrive, the tail goes back.
            expected = expected_batch(None)
            batch = sched.pop_batch(None)
            assert [e[:3] for e in batch] == [e[:3] for e in expected]
            take(batch)
            if batch:
                cut = op[1] % len(batch)
                tail = batch[cut:]
                if op[2]:
                    push(now, 0)
                sched.requeue(tail)
                model.extend(tail)
        elif kind == "pop_one":
            expected = expected_batch(None)[:1]
            entry = sched.pop_one()
            assert ([entry[:3]] if entry else []) == \
                [e[:3] for e in expected]
            take([entry] if entry else [])
        elif kind == "peek":
            head = min((e[0] for e in model), default=float("inf"))
            assert sched.peek_time() == head
        assert sched.live_count() == len(model)

    # Draining what is left follows the total order, one instant a time.
    drained = []
    while True:
        batch = sched.pop_batch(None)
        if not batch:
            break
        assert len({entry[0] for entry in batch}) == 1
        drained.extend(entry[:3] for entry in batch)
    assert drained == sorted(entry[:3] for entry in model)
    assert sched.live_count() == 0 and sched.tombstones == 0
