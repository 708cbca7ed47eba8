"""Cross-module integration tests and failure injection.

These tests exercise whole-pipeline invariants that no single module can
check: flow conservation against utility accounting, determinism across the
full stack, honest behaviour under degenerate data, and the statistical
coupling between the simulator's ground truth and the learned models.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PawsPredictor
from repro.data import MFNP, PoachingDataset, generate_dataset
from repro.exceptions import DataError
from repro.geo import Grid
from repro.ml.metrics import roc_auc_score
from repro.planning import (
    PatrolMILP,
    PatrolPlanner,
    PiecewiseLinear,
    RobustObjective,
    TimeUnrolledGraph,
    decompose_flow_into_routes,
)

SMALL = MFNP.scaled(0.5)


@pytest.fixture(scope="module")
def park_data():
    return generate_dataset(SMALL, seed=0)


class TestEndToEndDeterminism:
    def test_pipeline_reproducible(self):
        from repro import DataToDeploymentPipeline

        kwargs = dict(model="dtb", beta=0.8, horizon=8, n_patrols=2,
                      n_segments=5, n_classifiers=4, n_estimators=2, seed=3)
        r1 = DataToDeploymentPipeline(SMALL, **kwargs).run()
        r2 = DataToDeploymentPipeline(SMALL, **kwargs).run()
        assert r1.test_auc == pytest.approx(r2.test_auc)
        for post in r1.plans:
            np.testing.assert_allclose(
                r1.plans[post].coverage, r2.plans[post].coverage, atol=1e-9
            )


class TestModelLearnsTheSimulator:
    def test_predictions_track_ground_truth_risk(self, park_data):
        """The fitted model's ranking must correlate with the simulator's
        true attack probabilities on patrolled cells — the property that
        makes field tests work."""
        split = park_data.dataset.split_by_test_year(4)
        predictor = PawsPredictor(model="dtb", iware=True, n_classifiers=5,
                                  n_estimators=3, seed=1).fit(split.train)
        features = predictor.cell_feature_matrix(
            park_data.park, park_data.recorded_effort[-1]
        )
        predicted = predictor.predict_proba(features, effort=2.0)
        truth = park_data.poachers.attack_probability(SMALL.n_periods - 1)
        corr = np.corrcoef(predicted, truth)[0, 1]
        assert corr > 0.3

    def test_auc_against_true_attacks(self, park_data):
        """Scoring against *true attacks* (not just detections) stays
        informative — detections are a noisy subset of attacks."""
        split = park_data.dataset.split_by_test_year(4)
        predictor = PawsPredictor(model="gpb", iware=True, n_classifiers=5,
                                  n_estimators=3, seed=1).fit(split.train)
        test = split.test
        true_attacks = np.array(
            [int(park_data.attacks[int(t), int(c)])
             for t, c in zip(test.period, test.cell)]
        )
        if 0 < true_attacks.sum() < true_attacks.size:
            scores = predictor.predict_proba(test.feature_matrix)
            assert roc_auc_score(true_attacks, scores) > 0.55


class TestPlanAccountingInvariants:
    def test_route_weights_reproduce_milp_objective(self, park_data):
        """Utility computed from decomposed routes must equal the MILP's
        reported objective — flows, coverage, and PWL agree end to end."""
        split = park_data.dataset.split_by_test_year(4)
        predictor = PawsPredictor(model="dtb", iware=True, n_classifiers=4,
                                  n_estimators=2, seed=1).fit(split.train)
        park = park_data.park
        features = predictor.cell_feature_matrix(park, park_data.recorded_effort[-1])
        planner = PatrolPlanner(park.grid, int(park.patrol_posts[0]),
                                horizon=8, n_patrols=2, n_segments=5)
        xs = planner.breakpoints()
        risk, nu = predictor.effort_response(features, xs)
        objective = RobustObjective(xs, risk, nu, beta=0.5)
        plan = planner.plan(objective)
        # Coverage implied by routes == MILP coverage.
        implied = np.zeros(park.grid.n_cells)
        for route in plan.routes:
            for cell in route.cells:
                implied[cell] += route.weight * planner.n_patrols
        np.testing.assert_allclose(implied, plan.coverage, atol=1e-4)
        # Objective recomputed from coverage == MILP objective.
        recomputed = objective.evaluate_coverage(plan.coverage, beta=0.5)
        assert recomputed == pytest.approx(plan.objective_value, abs=1e-4)


class TestFailureInjection:
    def test_all_negative_training_data(self, park_data):
        """A season with zero detections must not crash the predictor."""
        split = park_data.dataset.split_by_test_year(4)
        crippled = split.train.subset(split.train.labels == 0)
        predictor = PawsPredictor(model="dtb", iware=True, n_classifiers=4,
                                  n_estimators=2, seed=1).fit(crippled)
        p = predictor.predict_proba(split.test.feature_matrix)
        assert np.isfinite(p).all()
        assert (p >= 0).all() and (p <= 1).all()

    def test_single_point_dataset(self):
        ds = PoachingDataset(
            static_features=np.ones((1, 3)),
            prev_effort=np.zeros(1),
            current_effort=np.ones(1),
            labels=np.ones(1, dtype=int),
            period=np.full(1, 4),
            cell=np.zeros(1, dtype=int),
            periods_per_year=4,
        )
        predictor = PawsPredictor(model="dtb", iware=True, n_classifiers=3,
                                  n_estimators=2, seed=0).fit(ds)
        assert np.isfinite(predictor.predict_proba(np.ones((2, 4)))).all()

    def test_corrupted_dataset_rejected(self):
        with pytest.raises(DataError):
            PoachingDataset(
                static_features=np.full((2, 2), np.nan) * 0 + np.inf,
                prev_effort=np.zeros(2),
                current_effort=np.zeros(2),
                labels=np.array([0, 7]),
                period=np.zeros(2, dtype=int),
                cell=np.zeros(2, dtype=int),
                periods_per_year=4,
            )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 999),
    height=st.integers(3, 6),
    width=st.integers(3, 6),
    horizon=st.integers(4, 7),
    n_patrols=st.integers(1, 3),
)
def test_milp_flow_conservation_property(seed, height, width, horizon, n_patrols):
    """On arbitrary random instances, the optimal plan always satisfies the
    flow polytope: unit source/sink flow, conservation at every node, and
    total coverage exactly T*K."""
    grid = Grid.rectangular(height, width)
    graph = TimeUnrolledGraph(grid, source_cell=0, horizon=horizon)
    milp = PatrolMILP(graph, n_patrols=n_patrols)
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, milp.max_coverage, 4)
    utilities = {
        int(v): PiecewiseLinear(xs, np.sort(rng.random(4)))
        for v in graph.reachable_cells
    }
    solution = milp.solve(utilities)
    flows = solution.edge_flows
    out_edges, in_edges = graph.incidence_lists()
    src, snk = graph.source_node, graph.sink_node
    assert flows[out_edges[src]].sum() == pytest.approx(1.0, abs=1e-6)
    assert flows[in_edges[snk]].sum() == pytest.approx(1.0, abs=1e-6)
    for node in range(graph.n_nodes):
        if node in (src, snk):
            continue
        inflow = flows[in_edges[node]].sum()
        outflow = flows[out_edges[node]].sum()
        assert inflow == pytest.approx(outflow, abs=1e-6)
    assert solution.coverage.sum() == pytest.approx(
        horizon * n_patrols, rel=1e-6
    )
    routes = decompose_flow_into_routes(graph, flows)
    assert sum(r.weight for r in routes) == pytest.approx(1.0, abs=1e-3)
