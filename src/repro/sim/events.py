"""The engine's event queue.

:class:`EventQueue` is a binary heap with versioned *lazy
invalidation*. Rescheduling a finish event does not remove the
superseded copy; every ``(kind, payload)`` pair carries a version
counter, :meth:`~EventQueue.schedule` bumps it and tags the new event,
and :meth:`~EventQueue.pop_live` silently drops tombstoned copies
(events whose version has since been superseded) on the way out. This
turns the engine's rescheduling churn from O(heap) removals into O(1)
bumps, at the cost of dead entries in storage — which
:meth:`~EventQueue.compact` reclaims once they outnumber the live ones.

Per-key bookkeeping lives in one *cell* ``[version, copies, live]``
per ``(kind, payload)`` key — one dict lookup per schedule and per
pop. The cells stay exact: the tombstone count (``live_count`` is
always ``len(queue) - tombstones``) and the cell table, which is
pruned as soon as the last copy of a key leaves storage (versions only
need to stay monotonic while a stale copy could still be popped).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError

#: Auto-compaction threshold: the pops rebuild storage once it
#: holds at least this many events and more than half are tombstones.
#: An *explicit* :meth:`EventQueue.compact` call always rebuilds.
_COMPACT_MIN_SIZE = 64

#: Hot-path alias; ``0.0 <= t < _INF`` is the fast-path validity test
#: (NaN fails both comparisons and falls through to the slow path).
_INF = float("inf")


class EventKind(enum.Enum):
    """Engine event types."""

    TASK_FINISH = "task_finish"
    COLLECTIVE_FINISH = "collective_finish"
    GOVERNOR_TICK = "governor_tick"
    PERTURB_BEGIN = "perturb_begin"
    PERTURB_END = "perturb_end"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # Members are singletons; identity hashing matches the default
    # name hash semantically but stays in C. Every queue operation
    # hashes a (kind, payload) key, so this is hot.
    __hash__ = object.__hash__


class Event(NamedTuple):
    """One scheduled occurrence.

    ``epoch`` supports lazy invalidation: every event carries the
    version of its ``(kind, payload)`` key at scheduling time and is
    dropped on pop if the version has since advanced (i.e. the event
    was rescheduled or cancelled).

    A named tuple rather than a (frozen) dataclass: the engine creates
    one per schedule call, and ``tuple.__new__`` construction is about
    half the cost of a frozen dataclass's ``object.__setattr__`` loop
    on that hot path.
    """

    time: float
    kind: EventKind
    payload: Any
    epoch: int = 0


#: Cell slot indices (cells are plain lists for mutation speed).
_VERSION = 0
_COPIES = 1
_LIVE = 2


class EventQueue:
    """A stable min-queue of versioned events keyed by (time, insertion
    order).

    :meth:`schedule` / :meth:`cancel` / :meth:`pop_live` /
    :meth:`pop_live_cohort` — the engine uses this for finish events,
    governor ticks and perturbation boundaries alike; superseded
    copies are tombstones that the pops drop and ``compact`` reclaims.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._heap: List[Tuple[float, int, Event]] = []
        #: Per-key bookkeeping cell ``[version, copies, live]``:
        #: ``version`` is the key's current version; ``copies`` counts
        #: events (live or stale) currently in storage; ``live`` is
        #: True while the current version still has a copy in storage.
        #: A cell is pruned when its last copy leaves storage.
        self._cells: Dict[Tuple[EventKind, Any], list] = {}
        #: Exact number of tombstoned events currently in storage.
        self._tombstones = 0
        #: Total tombstones dropped over the queue's lifetime.
        self.stale_dropped = 0

    @staticmethod
    def _validate_time(time: float, kind: EventKind) -> None:
        if not (time >= 0.0) or time != time:
            raise SimulationError(
                f"event {kind} has invalid time {time!r}"
            )
        if time == float("inf"):
            raise SimulationError(f"event {kind} scheduled at infinity")

    def _note_removed(self, event: Event) -> bool:
        """Book-keep one copy leaving storage; True if it was stale.

        Decrements the key's copy count and, once no copy remains and
        the key is not live, prunes its cell — versions only need to
        stay monotonic while a stale copy could still surface.
        """
        key = (event[1], event[2])
        cells = self._cells
        cell = cells[key]
        if event[3] != cell[_VERSION]:
            self._tombstones -= 1
            stale = True
        else:
            cell[_LIVE] = False
            stale = False
        cell[_COPIES] -= 1
        if cell[_COPIES] <= 0 and not cell[_LIVE]:
            del cells[key]
        return stale

    def schedule(self, time: float, kind: EventKind, payload: Any) -> Event:
        """(Re)schedule the event for ``(kind, payload)``.

        Any previously scheduled copy becomes a tombstone; there is at
        most one live event per key at any moment.
        """
        # Validate before touching any bookkeeping: a rejected time
        # must leave the cell table and tombstone count untouched.
        if not (0.0 <= time < _INF):
            self._validate_time(time, kind)
        key = (kind, payload)
        cells = self._cells
        cell = cells.get(key)
        if cell is None:
            version = 1
            cells[key] = [1, 1, True]
        else:
            version = cell[_VERSION] + 1
            cell[_VERSION] = version
            if cell[_LIVE]:
                self._tombstones += 1
            else:
                cell[_LIVE] = True
            cell[_COPIES] += 1
        # tuple.__new__ directly: NamedTuple's generated __new__ is an
        # extra python frame per event on the engine's hottest call.
        event = tuple.__new__(Event, (time, kind, payload, version))
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def cancel(self, kind: EventKind, payload: Any) -> None:
        """Tombstone the outstanding event for ``(kind, payload)``.

        The engine itself never needs this — it invalidates by
        supersession (:meth:`schedule`) and state is only torn down by
        the key's own live event, at which point nothing is
        outstanding. It completes the lazy-invalidation contract for
        callers that retire a key *without* popping it (e.g. aborting
        a task from outside the event loop).
        """
        cell = self._cells.get((kind, payload))
        if cell is not None and cell[_LIVE]:
            cell[_VERSION] += 1
            cell[_LIVE] = False
            self._tombstones += 1

    def _is_stale(self, event: Event) -> bool:
        cell = self._cells.get((event.kind, event.payload))
        return cell is not None and event.epoch != cell[_VERSION]

    def _maybe_compact(self) -> None:
        size = len(self._heap)
        if size >= _COMPACT_MIN_SIZE and self._tombstones > size // 2:
            self.compact()

    def pop_live(self) -> Optional[Event]:
        """Earliest non-tombstoned event, or None when none remain."""
        # _note_removed and _maybe_compact are inlined below: the exact
        # engine calls this once per event. The bookkeeping must stay
        # line-for-line equivalent to them (and to pop_live_cohort).
        cells = self._cells
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            event = heappop(heap)[2]
            key = (event[1], event[2])
            cell = cells[key]
            if event[3] != cell[0]:
                self._tombstones -= 1
                stale = True
            else:
                cell[2] = False
                stale = False
            cell[1] -= 1
            if cell[1] <= 0 and not cell[2]:
                del cells[key]
            if stale:
                self.stale_dropped += 1
                continue
            size = len(heap)
            if size >= _COMPACT_MIN_SIZE and self._tombstones > size // 2:
                self.compact()
            return event
        return None

    def pop_live_cohort(
        self, out: Optional[List[Event]] = None
    ) -> Optional[List[Event]]:
        """Every live event sharing the earliest timestamp, or None.

        The fast engine processes all state deltas landing on one
        timestamp together and re-evaluates rates/power once. Only
        *exactly equal* float times share a cohort — no epsilon — so
        the pop order (time, then FIFO within a time) is precisely the
        order repeated :meth:`pop_live` calls would produce. Stale
        copies encountered while draining the head time are discarded
        and counted exactly as :meth:`pop_live` would.

        ``out`` is an optional reusable buffer: when given it is
        cleared and filled instead of allocating a fresh list per
        cohort (the caller must consume it before the next pop).
        """
        # _note_removed is inlined below (twice): this runs once per
        # engine cohort and the call/tuple overhead is measurable. The
        # bookkeeping must stay line-for-line equivalent to it.
        cells = self._cells
        heap = self._heap
        heappop = heapq.heappop
        first: Optional[Event] = None
        while heap:
            event = heappop(heap)[2]
            key = (event[1], event[2])
            cell = cells[key]
            if event[3] != cell[0]:
                self._tombstones -= 1
                stale = True
            else:
                cell[2] = False
                stale = False
            cell[1] -= 1
            if cell[1] <= 0 and not cell[2]:
                del cells[key]
            if stale:
                self.stale_dropped += 1
                continue
            first = event
            break
        if first is None:
            return None
        if out is None:
            cohort = [first]
        else:
            out.clear()
            out.append(first)
            cohort = out
        time = first[0]
        while heap and heap[0][0] == time:
            event = heappop(heap)[2]
            key = (event[1], event[2])
            cell = cells[key]
            if event[3] != cell[0]:
                self._tombstones -= 1
                stale = True
            else:
                cell[2] = False
                stale = False
            cell[1] -= 1
            if cell[1] <= 0 and not cell[2]:
                del cells[key]
            if stale:
                self.stale_dropped += 1
                continue
            cohort.append(event)
        self._maybe_compact()
        return cohort

    def compact(self) -> None:
        """Drop every tombstone from storage in one rebuild.

        The (time, counter) tuples are retained, so the relative order
        of the surviving events — including same-time ties — is exactly
        what it was before compaction. Unlike the automatic compaction
        the pops trigger (which is threshold-gated), an explicit call
        always rebuilds, so ``len(queue)`` equals ``live_count``
        afterwards no matter how small the queue is.
        """
        kept: List[Tuple[float, int, Event]] = []
        for item in self._heap:
            event = item[2]
            if self._is_stale(event):
                self._note_removed(event)
                self.stale_dropped += 1
            else:
                kept.append(item)
        heapq.heapify(kept)
        self._heap = kept

    @property
    def live_count(self) -> int:
        """Number of non-tombstoned events currently queued."""
        return len(self._heap) - self._tombstones

    def check_invariants(self) -> None:
        """Assert the bookkeeping matches storage exactly (test hook).

        O(n); verifies the tombstone count, the per-key cells against
        the events actually in storage, and that no cell survives with
        no copies left in storage.
        """
        events = [item[2] for item in self._heap]
        stale = sum(1 for event in events if self._is_stale(event))
        if self._tombstones != stale:
            raise AssertionError(
                f"tombstone count {self._tombstones} != {stale} stale "
                f"events in storage"
            )
        copies: Dict[Tuple[EventKind, Any], int] = {}
        live = set()
        for event in events:
            key = (event.kind, event.payload)
            copies[key] = copies.get(key, 0) + 1
            if not self._is_stale(event):
                live.add(key)
        cells = self._cells
        if set(cells) != set(copies):
            raise AssertionError(
                f"cell keys {sorted(map(repr, cells))} != storage keys "
                f"{sorted(map(repr, copies))}"
            )
        for key, cell in cells.items():
            if cell[_COPIES] != copies[key]:
                raise AssertionError(
                    f"{key!r}: {cell[_COPIES]} copies booked, "
                    f"{copies[key]} in storage"
                )
            if cell[_LIVE] != (key in live):
                raise AssertionError(f"{key!r}: live flag disagrees")

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
