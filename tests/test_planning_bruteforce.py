"""Brute-force verification of the patrol-planning MILP.

On instances small enough to enumerate every feasible patrol path, the MILP
must (a) never do worse than the best *pure* strategy — mixed strategies
dominate — and (b) for utilities linear in coverage, match the best pure
path exactly (a linear objective over the flow polytope attains its optimum
at a vertex, i.e. a single path).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Grid
from repro.planning import PatrolMILP, PiecewiseLinear, TimeUnrolledGraph


def enumerate_paths(graph: TimeUnrolledGraph) -> list[list[int]]:
    """All source-to-sink node paths of the time-unrolled DAG."""
    out_edges, __ = graph.incidence_lists()
    edges = graph.edges
    paths: list[list[int]] = []

    def walk(node: int, acc: list[int]) -> None:
        if node == graph.sink_node:
            paths.append(acc.copy())
            return
        for e in out_edges[node]:
            nxt = int(edges[e, 1])
            acc.append(nxt)
            walk(nxt, acc)
            acc.pop()

    walk(graph.source_node, [graph.source_node])
    return paths


def path_coverage(graph: TimeUnrolledGraph, path: list[int], k: int) -> np.ndarray:
    coverage = np.zeros(graph.grid.n_cells)
    for node in path:
        cell, __ = graph.nodes[node]
        coverage[cell] += float(k)
    return coverage


def pure_strategy_value(graph, utilities, path, k) -> float:
    coverage = path_coverage(graph, path, k)
    return float(
        sum(utilities[int(v)](coverage[int(v)]) for v in graph.reachable_cells)
    )


@pytest.fixture(scope="module")
def tiny():
    grid = Grid.rectangular(2, 3)
    graph = TimeUnrolledGraph(grid, source_cell=0, horizon=5)
    return grid, graph


class TestAgainstEnumeration:
    def test_enumeration_is_nontrivial(self, tiny):
        __, graph = tiny
        paths = enumerate_paths(graph)
        assert len(paths) > 3
        for path in paths:
            assert len(path) == graph.horizon

    def test_linear_utilities_match_best_pure_path(self, tiny, rng):
        """Linear objective -> LP vertex optimum -> a single path."""
        __, graph = tiny
        k = 2
        milp = PatrolMILP(graph, n_patrols=k)
        xs = np.array([0.0, milp.max_coverage])
        slopes = rng.random(graph.grid.n_cells)
        utilities = {
            int(v): PiecewiseLinear(xs, slopes[int(v)] * xs)
            for v in graph.reachable_cells
        }
        solution = milp.solve(utilities)
        best_pure = max(
            pure_strategy_value(graph, utilities, p, k)
            for p in enumerate_paths(graph)
        )
        assert solution.objective_value == pytest.approx(best_pure, abs=1e-5)

    def test_mixed_dominates_every_pure_strategy(self, tiny, rng):
        """The MILP may strictly beat all paths but can never lose to one:
        concave utilities on the default path, and sigmoid (non-concave)
        ones through the full SOS2 model, which this oracle does not
        share."""
        __, graph = tiny
        k = 2
        milp = PatrolMILP(graph, n_patrols=k)
        xs = np.linspace(0.0, milp.max_coverage, 6)
        concave = {
            int(v): PiecewiseLinear(xs, rng.random() * (1 - np.exp(-0.6 * xs)))
            for v in graph.reachable_cells
        }
        sigmoid = {}
        for v in graph.reachable_cells:
            mid = xs[-1] * (0.3 + 0.4 * rng.random())
            raw = 1.0 / (1.0 + np.exp(-1.5 * (xs - mid)))
            sigmoid[int(v)] = PiecewiseLinear(xs, rng.random() * (raw - raw[0]))
        assert not all(u.is_concave() for u in sigmoid.values())
        for utilities, mode in ((concave, "auto"), (sigmoid, "milp")):
            solution = milp.solve(utilities, mode=mode)
            for path in enumerate_paths(graph):
                assert solution.objective_value >= (
                    pure_strategy_value(graph, utilities, path, k) - 1e-5
                )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 999))
def test_linear_case_matches_enumeration_randomised(seed):
    grid = Grid.rectangular(2, 2)
    graph = TimeUnrolledGraph(grid, source_cell=0, horizon=4)
    k = 1
    milp = PatrolMILP(graph, n_patrols=k)
    rng = np.random.default_rng(seed)
    xs = np.array([0.0, milp.max_coverage])
    utilities = {
        int(v): PiecewiseLinear(xs, float(rng.random()) * xs)
        for v in graph.reachable_cells
    }
    solution = milp.solve(utilities)
    best_pure = max(
        pure_strategy_value(graph, utilities, p, k)
        for p in enumerate_paths(graph)
    )
    assert solution.objective_value == pytest.approx(best_pure, abs=1e-5)
