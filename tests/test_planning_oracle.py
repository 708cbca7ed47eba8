"""Plans against the per-cell request path, bit for bit.

The planner resamples only a post's reachable rows, the patrol graph keeps
its lookups, and the MILP answers its per-cell questions on stacked
``(cells x breakpoints)`` arrays. ``tests/oracles/planning_reference.py``
keeps the old path: every cell's PWL built, the reachable ones resampled,
and each question answered one ``PiecewiseLinear`` at a time. HiGHS must
receive the same model, so every plan must match in objective value,
coverage, edge flows, routes, method, bound gap and status.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.data import generate_dataset, get_profile
from repro.exceptions import ConfigurationError
from repro.geo import Grid
from repro.planning import (
    PatrolMILP,
    PiecewiseLinear,
    TimeUnrolledGraph,
    decompose_flow_into_routes,
    sample_breakpoints,
)
from repro.planning.service import PlanService
from repro.runtime.service import RiskMapService
from tests.oracles.planning_reference import (
    ReferenceMILP,
    reference_decompose,
    reference_plan,
)

#: Park -> (model, the solve paths its plans must take). The GP model's
#: smooth responses give concave and mildly bent utilities; the trees'
#: step-like ones drive the certified envelope into milp-partial.
PARKS = {
    "MFNP": ("gpb", {"lp"}),
    "QENP": ("dtb", {"lp-envelope", "milp-partial"}),
    "SWS": ("gpb", {"lp", "lp-envelope"}),
}
BETAS = tuple(float(b) for b in np.linspace(0.0, 1.0, 9))


@pytest.fixture(scope="module")
def parks():
    out = {}
    for name, (model, __) in PARKS.items():
        profile = get_profile(name).scaled(0.4)
        data = generate_dataset(profile, seed=0)
        split = data.dataset.split_by_test_year(profile.years - 1)
        predictor = PawsPredictor(
            model=model, iware=True, n_classifiers=3, seed=1
        ).fit(split.train)
        features = predictor.cell_feature_matrix(
            data.park, data.recorded_effort[-1]
        )
        out[name] = (RiskMapService(predictor), data.park, features)
    return out


def assert_same_solution(solution, expected) -> None:
    assert solution.objective_value == expected.objective_value
    assert solution.coverage.tobytes() == expected.coverage.tobytes()
    assert solution.edge_flows.tobytes() == expected.edge_flows.tobytes()
    assert solution.method == expected.method
    assert solution.bound_gap == expected.bound_gap
    assert solution.status == expected.status


def assert_same_plan(plan, expected) -> None:
    assert_same_solution(plan.solution, expected.solution)
    assert plan.objective_value == expected.objective_value
    assert plan.coverage.tobytes() == expected.coverage.tobytes()
    assert plan.beta == expected.beta
    assert [(r.cells, r.weight) for r in plan.routes] == [
        (r.cells, r.weight) for r in expected.routes
    ]


@pytest.mark.parametrize("park", sorted(PARKS))
def test_plans_match_the_per_cell_path(parks, park):
    service, park_data, features = parks[park]
    plans = PlanService(service, park_data.grid, park_data.patrol_posts)
    methods: Counter = Counter()
    for beta in BETAS:
        objective = plans.objective_for(features, beta)
        every_post = plans.plan_all(features, beta=beta)
        for post in plans.posts:
            expected = reference_plan(plans.planner_for(post), objective)
            assert_same_plan(plans.plan_post(post, features, beta=beta), expected)
            assert_same_plan(every_post[post], expected)
            methods[expected.solution.method] += 1
    assert set(methods) >= PARKS[park][1], methods


def test_forced_milp_plans_match(parks):
    service, park_data, features = parks["SWS"]
    plans = PlanService(
        service, park_data.grid, park_data.patrol_posts, solver_mode="milp"
    )
    for beta in (0.0, 0.5, 1.0):
        objective = plans.objective_for(features, beta)
        for post in plans.posts:
            expected = reference_plan(plans.planner_for(post), objective)
            assert expected.solution.method == "milp"
            assert_same_plan(plans.plan_post(post, features, beta=beta), expected)


def two_grid_problem(seed: int) -> tuple[PatrolMILP, dict[int, PiecewiseLinear]]:
    """Non-concave utilities, alternating uniform and sqrt-spaced breakpoints."""
    rng = np.random.default_rng(seed)
    grid = Grid.rectangular(4, 4)
    graph = TimeUnrolledGraph(grid, source_cell=5, horizon=5)
    milp = PatrolMILP(graph, n_patrols=2)
    grids = [
        sample_breakpoints(milp.max_coverage, 5, spacing=spacing)
        for spacing in ("uniform", "sqrt")
    ]
    utilities = {}
    for i, v in enumerate(graph.reachable_cells):
        xs = grids[i % 2]
        mid = xs[-1] * (0.2 + 0.5 * rng.random())
        raw = 1.0 / (1.0 + np.exp(-1.5 * (xs - mid)))
        utilities[int(v)] = PiecewiseLinear(xs, rng.random() * (raw - raw[0]))
    return milp, utilities


@pytest.mark.parametrize("mode", ["auto", "milp"])
@pytest.mark.parametrize("seed", [1, 3, 5])  # auto: milp, milp-partial twice
def test_two_breakpoint_grids_match(seed, mode):
    milp, utilities = two_grid_problem(seed)
    solution = milp.solve(utilities, mode=mode)
    assert_same_solution(solution, ReferenceMILP(milp).solve(utilities, mode=mode))
    routes = decompose_flow_into_routes(milp.graph, solution.edge_flows)
    expected = reference_decompose(milp.graph, solution.edge_flows)
    assert [(r.cells, r.weight) for r in routes] == [
        (r.cells, r.weight) for r in expected
    ]


@pytest.mark.parametrize(
    "lp_mode, binary", [(True, None), (False, None), (False, "half")]
)
def test_structures_match(lp_mode, binary):
    """HiGHS receives the same constraint system and objective."""
    milp, utilities = two_grid_problem(3)
    binary_cells = sorted(utilities)[::2] if binary else None
    structure = milp.build_structure(
        utilities, lp_mode=lp_mode, binary_cells=binary_cells
    )
    reference = ReferenceMILP(milp)
    expected = reference.build_structure(
        utilities, lp_mode=lp_mode, binary_cells=binary_cells
    )
    for name in ("indptr", "indices", "data"):
        actual = getattr(structure.matrix, name)
        wanted = getattr(expected["matrix"], name)
        assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes()
    assert structure.matrix.shape == expected["matrix"].shape
    for name in ("row_lb", "row_ub", "integrality"):
        assert getattr(structure, name).tobytes() == expected[name].tobytes()
    assert (
        milp.objective_vector(structure, utilities).tobytes()
        == reference.objective_vector(expected, utilities).tobytes()
    )


def test_mixed_breakpoint_counts_are_rejected():
    """Stacked rows need one breakpoint count; the old path took any."""
    milp, utilities = two_grid_problem(1)
    cell = sorted(utilities)[0]
    xs = np.linspace(0.0, milp.max_coverage, 3)
    utilities[cell] = PiecewiseLinear(xs, np.zeros(3))
    with pytest.raises(ConfigurationError, match="breakpoint count"):
        milp.solve(utilities)
