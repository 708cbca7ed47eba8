"""Planner properties on seeded random parks, per solve path.

Small rectangular parks with a random post, horizon, patrol count and
breakpoint count; most cells get concave detection curves and about one in
five a sigmoid, so ``mode="auto"`` lands on the pure LP, the certified
envelope LP and, where the certificate fails, ``milp-partial``. Every
instance is also solved with forced ``mode="milp"``. Every answer must be one
certified unit of patrol flow worth its objective, decompose into routes
whose weights sum to 1, report a gap within ``max(mip_gap, envelope_gap)``,
and the auto answer may trail the forced MILP by at most that gap.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.geo import Grid
from repro.planning import (
    PatrolMILP,
    PiecewiseLinear,
    TimeUnrolledGraph,
    decompose_flow_into_routes,
)
from tests.helpers_milp import TOL, assert_certified

#: Parks solved per run; enough for >= 50 on each of the lp and lp-envelope
#: paths (forced milp runs on all of them).
N_PARKS = 150
MIN_PER_PATH = 50


def random_park(seed: int) -> tuple[PatrolMILP, dict[int, PiecewiseLinear]]:
    rng = np.random.default_rng(seed)
    height, width = (int(n) for n in rng.integers(3, 5, size=2))
    grid = Grid.rectangular(height, width)
    graph = TimeUnrolledGraph(
        grid,
        source_cell=int(rng.integers(grid.n_cells)),
        horizon=int(rng.integers(4, 6)),
    )
    milp = PatrolMILP(graph, n_patrols=int(rng.integers(1, 3)))
    xs = np.linspace(0.0, milp.max_coverage, int(rng.integers(4, 6)))
    utilities = {}
    for v in graph.reachable_cells:
        if rng.random() < 0.2:
            mid = xs[-1] * rng.uniform(0.1, 0.7)
            raw = 1.0 / (1.0 + np.exp(-rng.uniform(0.3, 1.5) * (xs - mid)))
            ys = rng.random() * (raw - raw[0])
        else:
            ys = rng.random() * (1.0 - np.exp(-rng.uniform(0.1, 1.0) * xs))
        utilities[int(v)] = PiecewiseLinear(xs, ys)
    return milp, utilities


def test_planner_properties_per_path():
    paths: Counter = Counter()
    for seed in range(N_PARKS):
        milp, utilities = random_park(seed)
        gap = max(milp.mip_gap, milp.envelope_gap)
        auto = milp.solve(utilities)
        forced = milp.solve(utilities, mode="milp")
        assert forced.method == "milp", seed
        for solution in (auto, forced):
            label = f"seed {seed}, {solution.method}"
            try:
                assert_certified(milp, utilities, solution)
            except AssertionError as err:
                raise AssertionError(label) from err
            routes = decompose_flow_into_routes(milp.graph, solution.edge_flows)
            assert sum(r.weight for r in routes) == pytest.approx(
                1.0, abs=TOL
            ), label
            assert 0.0 <= solution.bound_gap <= gap, label
        floor = forced.objective_value - gap * max(1.0, abs(forced.objective_value))
        assert auto.objective_value >= floor - TOL, seed
        paths[auto.method] += 1
        paths["forced milp"] += 1
    assert paths["lp"] >= MIN_PER_PATH, paths
    assert paths["lp-envelope"] >= MIN_PER_PATH, paths
    assert paths["forced milp"] >= MIN_PER_PATH, paths
    assert paths["milp-partial"] > 0, paths
