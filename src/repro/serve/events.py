"""The serving engine's event model and deterministic priority queue.

The engine runs the online stage as discrete events: task arrivals,
task deadlines and requester cancellations, worker check-in/check-out
(availability windows), and batch ticks.  Events at the same timestamp
are ordered by *phase*, which fixes how one instant resolves at a
batch boundary:

* ``OPEN`` events (arrivals, check-ins) land **before** a batch firing
  at the same time — a task released exactly at a tick is assignable in
  that tick, a worker whose shift starts at the tick is available;
* ``BATCH`` runs the assignment;
* ``CLOSE`` events (deadlines, cancellations, check-outs) land
  **after** — a task whose deadline equals the batch time still gets
  one assignment attempt, a worker checking out at the tick still
  participates.

Ties inside a phase break by insertion sequence, so a run is fully
deterministic given the order events were scheduled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum

from repro.sc.entities import SpatialTask, Worker


class EventPhase(IntEnum):
    """Same-timestamp ordering (see module docstring)."""

    OPEN = 0
    BATCH = 1
    CLOSE = 2


@dataclass(frozen=True, slots=True)
class Event:
    """Base event: a timestamp plus the phase it resolves in."""

    time: float

    phase = EventPhase.OPEN


@dataclass(frozen=True, slots=True)
class TaskArrival(Event):
    """A task reaches the platform (at its release time)."""

    task: SpatialTask


@dataclass(frozen=True, slots=True)
class WorkerCheckIn(Event):
    """A worker comes online (start of their availability window)."""

    worker: Worker


@dataclass(frozen=True, slots=True)
class BatchTick(Event):
    """Run one assignment batch.

    ``generation`` invalidates stale ticks: when a demand-adaptive
    trigger fires a batch early, the previously scheduled tick is
    superseded — its generation no longer matches the engine's and it
    is discarded on pop instead of being searched for in the heap.
    """

    generation: int = 0

    phase = EventPhase.BATCH


@dataclass(frozen=True, slots=True)
class TaskDeadline(Event):
    """A task's service deadline passes; expire it if still pending."""

    task_id: int

    phase = EventPhase.CLOSE


@dataclass(frozen=True, slots=True)
class TaskCancel(Event):
    """The requester cancels an unmatched task (assignment window)."""

    task_id: int

    phase = EventPhase.CLOSE


@dataclass(frozen=True, slots=True)
class WorkerCheckOut(Event):
    """A worker goes offline (end of their availability window)."""

    worker_id: int

    phase = EventPhase.CLOSE


@dataclass
class EventQueue:
    """A deterministic min-heap of events keyed ``(time, phase, seq)``."""

    _heap: list[tuple[float, int, int, Event]] = field(default_factory=list)
    _seq: int = 0

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, int(event.phase), self._seq, event))
        self._seq += 1

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> float:
        if not self._heap:
            raise IndexError("peek on an empty event queue")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
