"""``solve_matching``: the closed form for star forests, and its callers.

An edge list in which every right id (or every left id) is distinct is
a forest of stars; its maximum-weight matching is each centre's
heaviest edge, so :func:`solve_matching` answers it without calling the
matcher.  Every answer must equal :func:`maximum_weight_matching`'s with
``==`` (ids, weights and left-id order), and the plans of PPI and KM
must equal those of the direct-matcher path, kept below as the
reference: the same entry points with ``solve_matching`` replaced by a
plain matcher call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.assignment import baselines, ppi
from repro.assignment.baselines import km_assign
from repro.assignment.hungarian import maximum_weight_matching, solve_matching
from repro.assignment.ppi import ppi_assign
from repro.dist.shard import ComponentMatcher
from repro.obs import MemorySink
from tests.test_ppi_parity import batches, sweep_batch

# ----------------------------------------------------------------------
# Helpers.


def star_forest(rng: np.random.Generator, weights, flip: bool) -> list[tuple[int, int, float]]:
    """Stars centred on left ids (right ids all distinct); ``flip`` centres
    them on right ids instead.  Ids are shuffled so that neither side's
    order follows the other's, and the edge order is shuffled too."""
    n_centres = int(rng.integers(1, 6))
    leaves = rng.permutation(100)
    centres = rng.permutation(100)[:n_centres] + 100
    edges = []
    k = 0
    for centre in centres.tolist():
        for _ in range(int(rng.integers(1, 5))):
            edges.append((centre, int(leaves[k]), weights(rng)))
            k += 1
    if flip:
        edges = [(leaf, centre, w) for centre, leaf, w in edges]
    return [edges[i] for i in rng.permutation(len(edges))]


def uniform(rng):
    return float(rng.uniform(0.01, 5.0))


def with_zeros(rng):
    return 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 2.0))


def is_star_forest(edges) -> bool:
    return len({e[1] for e in edges}) == len(edges) or len({e[0] for e in edges}) == len(edges)


def has_tied_centre(edges) -> bool:
    """Whether some star centre's heaviest weight occurs twice."""
    for side in (0, 1):
        other = 1 - side
        if len({e[other] for e in edges}) != len(edges):
            continue
        by_centre: dict = {}
        for edge in edges:
            by_centre.setdefault(edge[side], []).append(edge[2])
        if any(ws.count(max(ws)) > 1 for ws in by_centre.values()):
            return True
    return False


class Spy:
    """A matcher that records what it receives and passes it on."""

    def __init__(self, matcher=maximum_weight_matching):
        self.matcher = matcher
        self.calls: list[list[tuple[int, int, float]]] = []

    def __call__(self, edges):
        self.calls.append(list(edges))
        return self.matcher(edges)


def direct(edges, matcher=maximum_weight_matching):
    return matcher(edges)


@contextmanager
def direct_matcher_path():
    """The reference: every matching goes straight to the matcher."""
    with mock.patch.object(ppi, "solve_matching", direct), mock.patch.object(
        baselines, "solve_matching", direct
    ):
        yield


def rows(plan):
    return [(p.task_id, p.worker_id, p.score, p.stage) for p in plan]


def plans(batch, matcher=None):
    tasks, workers, now, candidates, cfg = batch
    return (
        rows(ppi_assign(tasks, workers, now, candidates, config=cfg, matcher=matcher)),
        rows(km_assign(tasks, workers, now, candidates, matcher=matcher)),
    )


# ----------------------------------------------------------------------
# The rule against the solver.


class TestClosedForm:
    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("weights", [uniform, with_zeros])
    def test_random_star_forests_equal_the_solver(self, flip, weights):
        rng = np.random.default_rng(7 + flip)
        spy = Spy()
        for _ in range(400):
            edges = star_forest(rng, weights, flip)
            got = solve_matching(edges, spy)
            assert got == maximum_weight_matching(edges)
            assert [e[0] for e in got] == sorted(e[0] for e in got)
        # Only the stars with a tied maximum (here two zero weights) reach
        # the matcher.
        assert all(has_tied_centre(edges) for edges in spy.calls)
        assert len(spy.calls) == 0 if weights is uniform else 0 < len(spy.calls) < 100

    @pytest.mark.parametrize("flip", [False, True])
    def test_near_ties_take_the_heavier_edge(self, flip):
        rng = np.random.default_rng(11)
        spy = Spy()
        for _ in range(300):
            edges = star_forest(rng, uniform, flip)
            # Give one centre a second edge one ulp below its heaviest.
            side = 1 if flip else 0
            left, right, w = max(edges, key=lambda e: e[2])
            centre = (left, right)[side]
            near = math.nextafter(w, 0.0)
            other = 1000 + len(edges)
            extra = (centre, other, near) if side == 0 else (other, centre, near)
            for edges_in in (edges + [extra], [extra] + edges):
                got = solve_matching(edges_in, spy)
                assert got == maximum_weight_matching(edges_in)
                assert (left, right, w) in got
        assert spy.calls == []

    def test_single_edges(self):
        spy = Spy()
        assert solve_matching([(3, 9, 0.5)], spy) == [(3, 9, 0.5)]
        assert solve_matching([(3, 9, 0.0)], spy) == [] == maximum_weight_matching([(3, 9, 0.0)])
        assert spy.calls == []

    def test_zero_heaviest_weight_matches_nothing(self):
        edges = [(0, 1, 0.0), (2, 3, 1.5), (2, 4, 0.0)]
        assert solve_matching(edges, Spy()) == [(2, 3, 1.5)] == maximum_weight_matching(edges)

    def test_empty_list_never_reaches_the_matcher(self):
        spy = Spy()
        assert solve_matching([], spy) == []
        assert spy.calls == []

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 5, 1.0), (0, 3, 1.0)],  # one left, tied over two rights
            [(5, 0, 1.0), (3, 0, 1.0)],  # one right, tied over two lefts
            [(0, 5, 1.0), (0, 3, 1.0), (1, 4, 2.0)],
        ],
    )
    def test_a_tied_maximum_goes_to_the_matcher(self, edges):
        # The solver takes the lower id on a tie; taking the first-listed
        # edge instead would give (0, 5) or (5, 0).
        spy = Spy()
        got = solve_matching(edges, spy)
        assert spy.calls == [edges]
        assert got == maximum_weight_matching(edges)
        assert got[0][:2] in {(0, 3), (3, 0)}

    def test_a_tie_below_the_maximum_stays_closed_form(self):
        edges = [(0, 5, 1.0), (0, 3, 1.0), (0, 4, 2.0)]
        spy = Spy()
        assert solve_matching(edges, spy) == [(0, 4, 2.0)] == maximum_weight_matching(edges)
        assert spy.calls == []

    def test_other_graphs_go_to_the_matcher_unchanged(self):
        edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 1, 3.0)]
        spy = Spy()
        assert solve_matching(edges, spy) == maximum_weight_matching(edges)
        assert spy.calls == [edges]

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_weights_are_the_solvers_to_handle(self, bad):
        # The solver rejects a negative, infinite or NaN weight; the list
        # reaches it, so the closed form never hides a bad weight.
        spy = Spy()
        with pytest.raises(ValueError, match=r"edge \(0, 2\)"):
            solve_matching([(0, 1, 1.0), (0, 2, bad)], spy)
        assert len(spy.calls) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    @pytest.mark.parametrize("allow_zero_weight", [False, True])
    def test_solver_names_a_non_finite_or_negative_edge(self, bad, allow_zero_weight):
        # A NaN used to fold into a zero weight and match as (0, 1, 0.0).
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has weight"):
            maximum_weight_matching([(0, 1, bad)], allow_zero_weight=allow_zero_weight)
        with pytest.raises(ValueError, match=r"edge \(3, 4\) has weight"):
            maximum_weight_matching([(0, 1, 1.0), (3, 4, bad)], allow_zero_weight=allow_zero_weight)

    def test_negative_zero_is_a_zero_weight(self):
        assert maximum_weight_matching([(0, 1, -0.0)]) == []
        assert maximum_weight_matching([(0, 1, -0.0)], allow_zero_weight=True) == [(0, 1, 0.0)]
        assert solve_matching([(0, 1, -0.0), (0, 2, 1.0)]) == [(0, 2, 1.0)]

    def test_closed_form_counts_as_a_solve(self):
        sink = MemorySink()
        with obs.recording(sink):
            solve_matching([(0, 1, 1.0), (0, 2, 2.0)])
            solve_matching([])
        metrics = sink.metrics
        assert metrics["counters"]["km.solves"] == 1.0
        assert "km.edges" not in metrics["histograms"]
        assert "km.solve_seconds" not in metrics["histograms"]


# ----------------------------------------------------------------------
# PPI and KM against the direct-matcher path.


class TestCallers:
    @settings(max_examples=300, deadline=None)
    @given(batch=batches())
    def test_plans_equal_the_direct_matcher_path(self, batch):
        with direct_matcher_path():
            want = plans(batch)
        spy = Spy()
        assert plans(batch, spy) == want
        for edges in spy.calls:
            assert edges and (not is_star_forest(edges) or has_tied_centre(edges))

    def test_plans_equal_the_direct_matcher_path_in_bulk(self):
        """Seeded batches of :func:`sweep_batch`'s three kinds, with the
        dense solver and with the component matcher."""
        rng = np.random.default_rng(5)
        n_solved = 0
        for i in range(600):
            batch = sweep_batch(rng, i % 3)
            for matcher in (maximum_weight_matching, ComponentMatcher()):
                with direct_matcher_path():
                    want = plans(batch, matcher)
                spy = Spy(matcher)
                assert plans(batch, spy) == want
                n_solved += len(spy.calls)
                for edges in spy.calls:
                    assert edges and (not is_star_forest(edges) or has_tied_centre(edges))
        assert n_solved > 1000

    def test_most_stage2_chunks_skip_the_matcher(self):
        rng = np.random.default_rng(9)
        n_lists = n_solved = 0
        for _ in range(60):
            tasks, workers, now, candidates, cfg = sweep_batch(rng, 2)
            spy = Spy()
            counted = []

            def counting(edges, matcher=maximum_weight_matching):
                counted.append(len(edges))
                return solve_matching(edges, matcher)

            with mock.patch.object(ppi, "solve_matching", counting):
                ppi_assign(tasks, workers, now, candidates, config=cfg, matcher=spy)
            n_lists += sum(1 for n in counted if n)
            n_solved += len(spy.calls)
        assert n_lists > 200
        assert n_solved < n_lists / 2, (n_solved, n_lists)

