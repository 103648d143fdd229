"""Tests for the engine's versioned event queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventKind, EventQueue


@pytest.fixture(params=["heap"], name="queue")
def _queue(request):
    return EventQueue()


def _schedule(queue, t, payload=0):
    return queue.schedule(t, EventKind.TASK_FINISH, payload)


def test_pop_orders_by_time(queue):
    _schedule(queue, 3.0, "c")
    _schedule(queue, 1.0, "a")
    _schedule(queue, 2.0, "b")
    assert [queue.pop_live().payload for _ in range(3)] == ["a", "b", "c"]


def test_ties_broken_by_insertion_order(queue):
    _schedule(queue, 1.0, "first")
    _schedule(queue, 1.0, "second")
    assert queue.pop_live().payload == "first"
    assert queue.pop_live().payload == "second"


def test_pop_empty_returns_none(queue):
    assert queue.pop_live() is None
    assert queue.pop_live_cohort() is None


def test_len_and_bool(queue):
    assert not queue
    _schedule(queue, 1.0)
    assert queue and len(queue) == 1


def test_rejects_negative_time(queue):
    with pytest.raises(SimulationError):
        _schedule(queue, -1.0)


def test_rejects_nan_time(queue):
    with pytest.raises(SimulationError):
        _schedule(queue, float("nan"))


def test_rejects_infinite_time(queue):
    with pytest.raises(SimulationError):
        _schedule(queue, float("inf"))


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_pop_sequence_is_sorted(times):
    q = EventQueue()
    for payload, t in enumerate(times):
        _schedule(q, t, payload)
    popped = []
    while q:
        popped.append(q.pop_live().time)
    assert popped == sorted(times)


def test_pop_live_cohort_drains_one_timestamp_in_fifo_order(queue):
    _schedule(queue, 2.0, "late")
    _schedule(queue, 1.0, "a")
    _schedule(queue, 1.0, "stale")
    _schedule(queue, 1.0, "b")
    _schedule(queue, 3.0, "stale")  # supersedes the t=1.0 copy
    buffer = ["leftover"]
    cohort = queue.pop_live_cohort(buffer)
    assert cohort is buffer
    assert [(e.time, e.payload) for e in cohort] == [(1.0, "a"), (1.0, "b")]
    assert queue.stale_dropped == 1
    assert [e.payload for e in queue.pop_live_cohort()] == ["late"]
    assert [e.payload for e in queue.pop_live_cohort()] == ["stale"]
    assert queue.pop_live_cohort() is None
    queue.check_invariants()


# ----------------------------------------------------------------------
# versioned scheduling / lazy invalidation
# ----------------------------------------------------------------------


def test_reschedule_tombstones_previous_copy(queue):
    queue.schedule(2.0, EventKind.TASK_FINISH, 7)
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)  # supersedes the first
    event = queue.pop_live()
    assert (event.time, event.payload) == (1.0, 7)
    assert queue.pop_live() is None  # the 2.0 copy was a tombstone
    assert queue.stale_dropped == 1


def test_cancel_tombstones_outstanding_event(queue):
    queue.schedule(1.0, EventKind.COLLECTIVE_FINISH, "x")
    queue.schedule(2.0, EventKind.TASK_FINISH, 1)
    queue.cancel(EventKind.COLLECTIVE_FINISH, "x")
    event = queue.pop_live()
    assert event.kind is EventKind.TASK_FINISH
    assert queue.pop_live() is None


def test_cancel_without_outstanding_event_is_noop(queue):
    queue.cancel(EventKind.TASK_FINISH, 99)
    queue.schedule(1.0, EventKind.TASK_FINISH, 99)
    assert queue.pop_live().payload == 99


def test_live_count_tracks_tombstones(queue):
    for i in range(5):
        queue.schedule(float(i + 1), EventKind.TASK_FINISH, 0)
    assert len(queue) == 5
    assert queue.live_count == 1  # four superseded copies


def test_different_payloads_do_not_invalidate_each_other(queue):
    queue.schedule(1.0, EventKind.TASK_FINISH, 1)
    queue.schedule(2.0, EventKind.TASK_FINISH, 2)
    queue.schedule(3.0, EventKind.TASK_FINISH, 1)  # only payload 1 moves
    assert [queue.pop_live().payload for _ in range(2)] == [2, 1]
    assert queue.pop_live() is None


def test_compaction_preserves_order_and_results(queue):
    # Heavy rescheduling churn: many payloads, many supersessions, plus
    # same-time ties whose insertion order must survive compaction.
    for round_index in range(20):
        for payload in range(10):
            queue.schedule(
                100.0 - round_index + payload, EventKind.TASK_FINISH, payload
            )
    queue.compact()
    assert queue.live_count == 10
    assert len(queue) == 10  # tombstones physically gone
    popped = []
    while True:
        event = queue.pop_live()
        if event is None:
            break
        popped.append((event.time, event.payload))
    assert popped == sorted(popped)
    assert len(popped) == 10


@given(st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 100.0)), max_size=60))
def test_pop_live_returns_only_latest_per_payload(schedules):
    q = EventQueue()
    latest = {}
    for payload, time in schedules:
        q.schedule(time, EventKind.TASK_FINISH, payload)
        latest[payload] = time
    got = {}
    while True:
        event = q.pop_live()
        if event is None:
            break
        assert event.payload not in got
        got[event.payload] = event.time
    assert got == latest


# ----------------------------------------------------------------------
# regression: retired keys must not leak version-table entries
# ----------------------------------------------------------------------


def test_versions_pruned_after_pop(queue):
    for i in range(100):
        queue.schedule(float(i) + 0.5, EventKind.TASK_FINISH, i)
    while queue.pop_live() is not None:
        pass
    # Regression: the version table used to retain one entry per key
    # forever.
    assert not queue._cells
    queue.check_invariants()


def test_versions_survive_while_stale_copies_remain(queue):
    queue.schedule(5.0, EventKind.TASK_FINISH, 1)
    queue.schedule(1.0, EventKind.TASK_FINISH, 1)
    event = queue.pop_live()  # pops t=1.0; the t=5.0 tombstone remains
    assert event.time == 1.0
    # The version entry must survive: the stale copy still in storage
    # would otherwise read as live.
    assert (EventKind.TASK_FINISH, 1) in queue._cells
    assert queue.pop_live() is None
    assert not queue._cells  # last copy gone -> pruned
    queue.check_invariants()


def test_schedule_cancel_storm_keeps_state_bounded(queue):
    """A sim-lifetime worth of unique keys must not accumulate state."""
    for wave in range(30):
        for key in range(40):
            payload = (wave, key)
            queue.schedule(1.0 + wave, EventKind.TASK_FINISH, payload)
            if key % 3 == 0:
                queue.schedule(2.0 + wave, EventKind.TASK_FINISH, payload)
            if key % 5 == 0:
                queue.cancel(EventKind.TASK_FINISH, payload)
        while queue.pop_live() is not None:
            pass
        queue.check_invariants()
    assert not queue._cells
    assert queue.live_count == 0


# ----------------------------------------------------------------------
# regression: explicit compact on a small queue must be exact
# ----------------------------------------------------------------------


def test_cancel_then_compact_small_queue_is_exact(queue):
    """Sub-threshold queues compact too when asked explicitly."""
    queue.schedule(1.0, EventKind.TASK_FINISH, "a")
    queue.schedule(2.0, EventKind.TASK_FINISH, "b")
    queue.cancel(EventKind.TASK_FINISH, "a")
    assert queue.live_count == 1
    queue.compact()
    # Regression: compact used to no-op under _COMPACT_MIN_SIZE,
    # leaving the tombstone physically queued (len != live_count).
    assert len(queue) == 1
    assert queue.live_count == 1
    queue.check_invariants()
    assert queue.pop_live().payload == "b"
    assert queue.pop_live() is None


def test_rejected_schedule_leaves_bookkeeping_untouched(queue):
    """An invalid time must not corrupt the exact version accounting."""
    queue.schedule(1.0, EventKind.TASK_FINISH, 7)
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(SimulationError):
            queue.schedule(bad, EventKind.TASK_FINISH, 7)
        with pytest.raises(SimulationError):
            queue.schedule(bad, EventKind.TASK_FINISH, "fresh-key")
        queue.check_invariants()
    # The original live event is unaffected by the failed attempts.
    assert queue.live_count == 1
    event = queue.pop_live()
    assert (event.time, event.payload, event.epoch) == (1.0, 7, 1)
    assert queue.pop_live() is None
    queue.check_invariants()


# ----------------------------------------------------------------------
# property: random interleavings keep the queue exact
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("schedule"),
            st.integers(0, 6),
            st.sampled_from([0.0, 1.5, 2.0, 7.25, 50.0]) | st.floats(0.0, 50.0),
        ),
        st.tuples(st.just("cancel"), st.integers(0, 6), st.just(0.0)),
        st.tuples(st.just("pop_live"), st.just(0), st.just(0.0)),
        st.tuples(st.just("pop_live_cohort"), st.just(0), st.just(0.0)),
        st.tuples(st.just("compact"), st.just(0), st.just(0.0)),
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_random_interleavings_keep_invariants_and_match_a_model(ops):
    """Every step agrees with a plain dict model of the live events."""
    q = EventQueue()
    live = {}  # payload -> (time, schedule order)
    for order, (op, key, time) in enumerate(ops):
        if op == "schedule":
            q.schedule(time, EventKind.TASK_FINISH, key)
            live[key] = (time, order)
        elif op == "cancel":
            q.cancel(EventKind.TASK_FINISH, key)
            live.pop(key, None)
        elif op == "pop_live":
            event = q.pop_live()
            if not live:
                assert event is None
            else:
                head = min(live, key=live.__getitem__)
                assert (event.time, event.payload) == (live.pop(head)[0], head)
        elif op == "pop_live_cohort":
            cohort = q.pop_live_cohort()
            if not live:
                assert cohort is None
            else:
                head_time = min(live.values())[0]
                due = sorted(
                    (k for k, v in live.items() if v[0] == head_time),
                    key=live.__getitem__,
                )
                assert [(e.time, e.payload) for e in cohort] == [
                    (head_time, k) for k in due
                ]
                for k in due:
                    del live[k]
        else:
            q.compact()
        q.check_invariants()
        assert q.live_count == len(live)
    while q.pop_live() is not None:
        pass
    assert not q._cells
