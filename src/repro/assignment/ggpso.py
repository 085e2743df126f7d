"""GGPSO: the evolutionary baseline of Zhang & Zhang (TMC 2023) [11].

The paper describes GGPSO as a global heuristic search that "optimises
the current solution through iterative crossover, mutation, and
selection" over assignments built on predicted mobility.  We reproduce
that search: a chromosome maps each task to a worker (or to nobody),
fitness is the total reciprocal predicted detour of feasible genes, and
the population evolves with tournament selection, uniform crossover
with duplicate repair, and point mutation, seeded with a greedy
individual.  Its running time is dominated by ``generations x
population`` fitness sweeps, which is why it is consistently the
slowest algorithm in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Sequence

import numpy as np

from repro.assignment.matching_rate import pair_scan
from repro.assignment.plan import AssignmentPair, AssignmentPlan
from repro.sc.entities import SpatialTask, WorkerSnapshot

_EPS = 1e-6
_UNASSIGNED = -1


@dataclass(frozen=True, slots=True)
class GGPSOConfig:
    """Evolutionary search parameters."""

    population_size: int = 24
    generations: int = 40
    mutation_rate: float = 0.08
    tournament_size: int = 3
    elite: int = 2
    seed: int = 7

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population must hold at least two individuals")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must lie in [0, 1]")
        if not 1 <= self.elite < self.population_size:
            raise ValueError("elite must be in [1, population_size)")


def _utility_matrix(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
) -> np.ndarray:
    """Per-pair utility: reciprocal predicted distance, 0 if infeasible."""
    util = np.zeros((len(tasks), len(workers)))
    row = {t.task_id: i for i, t in enumerate(tasks)}
    col = {w.worker_id: j for j, w in enumerate(workers)}
    # Only the nearest distance is read, so the threshold ``a`` of |B| is moot.
    for t_id, w_id, _mr, _b_size, _min_b, nearest in pair_scan(tasks, workers, current_time, 0.0):
        if nearest != inf:
            util[row[t_id], col[w_id]] = 1.0 / (nearest + _EPS)
    return util


def _repair(chromosome: np.ndarray) -> None:
    """Drop duplicate worker genes in place (first occurrence wins)."""
    seen: set[int] = set()
    for i, gene in enumerate(chromosome):
        if gene == _UNASSIGNED:
            continue
        if gene in seen:
            chromosome[i] = _UNASSIGNED
        else:
            seen.add(int(gene))


def _fitness(chromosome: np.ndarray, util: np.ndarray) -> float:
    total = 0.0
    for i, gene in enumerate(chromosome):
        if gene != _UNASSIGNED:
            total += util[i, gene]
    return total


def _greedy_seed(util: np.ndarray) -> np.ndarray:
    """Greedy individual: repeatedly take the best remaining pair."""
    n_tasks, n_workers = util.shape
    chrom = np.full(n_tasks, _UNASSIGNED, dtype=int)
    remaining = util.copy()
    for _ in range(min(n_tasks, n_workers)):
        i, j = np.unravel_index(int(remaining.argmax()), remaining.shape)
        if remaining[i, j] <= 0:
            break
        chrom[i] = j
        remaining[i, :] = 0.0
        remaining[:, j] = 0.0
    return chrom


def ggpso_assign(
    tasks: Sequence[SpatialTask],
    workers: Sequence[WorkerSnapshot],
    current_time: float,
    config: GGPSOConfig | None = None,
) -> AssignmentPlan:
    """Evolve an assignment on predicted mobility and return the best plan."""
    cfg = config if config is not None else GGPSOConfig()
    plan = AssignmentPlan()
    if not tasks or not workers:
        return plan
    util = _utility_matrix(tasks, workers, current_time)
    n_tasks, n_workers = util.shape
    rng = np.random.default_rng(cfg.seed)

    def random_individual() -> np.ndarray:
        chrom = rng.integers(-1, n_workers, size=n_tasks)
        _repair(chrom)
        return chrom

    population = [_greedy_seed(util)] + [random_individual() for _ in range(cfg.population_size - 1)]
    fitnesses = np.array([_fitness(c, util) for c in population])

    for _ in range(cfg.generations):
        next_population: list[np.ndarray] = []
        elite_idx = np.argsort(fitnesses)[::-1][: cfg.elite]
        next_population.extend(population[i].copy() for i in elite_idx)
        while len(next_population) < cfg.population_size:
            parents = []
            for _ in range(2):
                contenders = rng.integers(0, cfg.population_size, size=cfg.tournament_size)
                parents.append(population[int(contenders[np.argmax(fitnesses[contenders])])])
            mask = rng.random(n_tasks) < 0.5
            child = np.where(mask, parents[0], parents[1]).astype(int)
            mutate = rng.random(n_tasks) < cfg.mutation_rate
            if mutate.any():
                child[mutate] = rng.integers(-1, n_workers, size=int(mutate.sum()))
            _repair(child)
            next_population.append(child)
        population = next_population
        fitnesses = np.array([_fitness(c, util) for c in population])

    best = population[int(np.argmax(fitnesses))]
    for i, gene in enumerate(best):
        if gene == _UNASSIGNED or util[i, gene] <= 0:
            continue
        plan.add(
            AssignmentPair(
                task_id=tasks[i].task_id,
                worker_id=workers[int(gene)].worker_id,
                score=float(util[i, gene]),
                stage=0,
            )
        )
    return plan
