"""Assignment plans (Definition 4).

A plan ``M`` is a set of ``(task, worker)`` pairs in which every task
and every worker appears at most once.  ``M'`` (the accepted subset)
and the realised detour costs live with the simulator; the plan records
what the platform proposed and at which PPI stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, slots=True)
class AssignmentPair:
    """One proposed assignment.

    ``stage`` records which phase produced the pair (PPI stages 1-3;
    baselines use stage 0), and ``score`` the matching weight used.
    """

    task_id: int
    worker_id: int
    score: float
    stage: int = 0


@dataclass
class AssignmentPlan:
    """A valid batch assignment: injective in both tasks and workers."""

    pairs: list[AssignmentPair] = field(default_factory=list)
    _task_ids: set[int] = field(init=False, repr=False, compare=False)
    _worker_ids: set[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._task_ids = {p.task_id for p in self.pairs}
        self._worker_ids = {p.worker_id for p in self.pairs}
        if len(self._task_ids) != len(self.pairs):
            raise ValueError("a task may be assigned to at most one worker")
        if len(self._worker_ids) != len(self.pairs):
            raise ValueError("a worker may receive at most one task")

    def add(self, pair: AssignmentPair) -> None:
        """Append a pair, preserving matching validity."""
        if pair.task_id in self._task_ids or pair.worker_id in self._worker_ids:
            raise ValueError(f"pair {pair} conflicts with the existing plan")
        self.pairs.append(pair)
        self._task_ids.add(pair.task_id)
        self._worker_ids.add(pair.worker_id)

    def extend(self, pairs: list[AssignmentPair]) -> None:
        for p in pairs:
            self.add(p)

    def task_ids(self) -> set[int]:
        return set(self._task_ids)

    def worker_ids(self) -> set[int]:
        return set(self._worker_ids)

    def worker_for_task(self, task_id: int) -> int | None:
        for p in self.pairs:
            if p.task_id == task_id:
                return p.worker_id
        return None

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[AssignmentPair]:
        return iter(self.pairs)

    def __repr__(self) -> str:
        by_stage: dict[int, int] = {}
        for p in self.pairs:
            by_stage[p.stage] = by_stage.get(p.stage, 0) + 1
        return f"AssignmentPlan(n={len(self.pairs)}, stages={by_stage})"
