"""Edge-case tests across modules: scaling, limits, and defensive paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IWareEnsemble, UncertaintyScaler, make_weak_learner
from repro.core.ensemble import _prior_correct
from repro.data import MFNP, generate_dataset
from repro.exceptions import DataError
from repro.geo import Grid, geodesic_distance
from repro.planning import PatrolMILP, PiecewiseLinear, TimeUnrolledGraph


class TestGeoScaling:
    def test_geodesic_respects_cell_size(self):
        grid = Grid.rectangular(4, 4, cell_km=2.5)
        dist = geodesic_distance(grid, [0])
        assert dist[grid.cell_id(0, 3)] == pytest.approx(7.5)

    def test_grid_cell_km_in_area(self):
        grid = Grid.elliptical(10, 10, cell_km=3.0)
        assert grid.area_sq_km == grid.n_cells * 9.0


class TestUncertaintyScalerEdge:
    def test_invalid_quantile_pair(self):
        with pytest.raises(DataError):
            UncertaintyScaler(steepness_quantiles=(0.75, 0.25))
        with pytest.raises(DataError):
            UncertaintyScaler(steepness_quantiles=(-0.1, 0.5))

    def test_nonfinite_reference_rejected(self):
        with pytest.raises(DataError):
            UncertaintyScaler().fit(np.array([1.0, np.inf]))


class TestIWareEdge:
    @pytest.fixture(scope="class")
    def split(self):
        return generate_dataset(MFNP.scaled(0.4), seed=0).dataset.split_by_test_year(4)

    def test_corrected_probabilities_shape_and_range(self, split):
        factory = make_weak_learner("dtb", rng=np.random.default_rng(0),
                                    n_estimators=2)
        ens = IWareEnsemble(factory, n_classifiers=4,
                            rng=np.random.default_rng(0)).fit(split.train)
        X = split.test.feature_matrix[:15]
        corrected = _prior_correct(
            ens.member_probabilities(X),
            ens.subset_positive_rates_, ens.full_positive_rate_,
        )
        assert corrected.shape == (ens.n_thresholds, 15)
        assert (corrected > 0).all() and (corrected < 1).all()

    def test_single_threshold_degenerates_gracefully(self, split):
        factory = make_weak_learner("dtb", rng=np.random.default_rng(0),
                                    n_estimators=2)
        ens = IWareEnsemble(factory, n_classifiers=1,
                            rng=np.random.default_rng(0)).fit(split.train)
        assert ens.n_thresholds == 1
        np.testing.assert_allclose(ens.weights_, [1.0])
        p = ens.predict_proba(split.test.feature_matrix[:5])
        assert np.isfinite(p).all()

    def test_subset_positive_rates_monotone(self, split):
        """Filtering only drops negatives, so positive rates rise with theta."""
        factory = make_weak_learner("dtb", rng=np.random.default_rng(0),
                                    n_estimators=2)
        ens = IWareEnsemble(factory, n_classifiers=6,
                            rng=np.random.default_rng(0)).fit(split.train)
        rates = ens.subset_positive_rates_
        assert (np.diff(rates) >= -1e-12).all()


class TestPlanningEdge:
    def test_horizon_two_is_stay_home(self):
        """T=2 leaves no time to leave the post: coverage all at source."""
        grid = Grid.rectangular(3, 3)
        graph = TimeUnrolledGraph(grid, source_cell=4, horizon=2)
        milp = PatrolMILP(graph, n_patrols=1)
        xs = np.array([0.0, milp.max_coverage])
        utilities = {int(v): PiecewiseLinear(xs, xs * 0.1)
                     for v in graph.reachable_cells}
        sol = milp.solve(utilities)
        assert sol.coverage[4] == pytest.approx(2.0)
        assert sol.coverage.sum() == pytest.approx(2.0)

    def test_masked_source_pruning(self):
        """A post in a pocket can only cover its pocket."""
        mask = np.ones((3, 5), dtype=bool)
        mask[:, 2] = False  # wall splits the park
        grid = Grid(3, 5, mask=mask)
        post = grid.cell_id(1, 0)
        graph = TimeUnrolledGraph(grid, post, horizon=6)
        right_side = {grid.cell_id(r, c) for r in range(3) for c in (3, 4)}
        assert not right_side & set(int(v) for v in graph.reachable_cells)


class TestDatasetEdge:
    def test_subset_preserves_metadata(self):
        data = generate_dataset(MFNP.scaled(0.4), seed=0)
        ds = data.dataset
        sub = ds.subset(ds.labels == 1)
        assert sub.feature_names == ds.feature_names
        assert sub.name == ds.name
        assert sub.periods_per_year == ds.periods_per_year

    def test_empty_subset_statistics(self):
        data = generate_dataset(MFNP.scaled(0.4), seed=0)
        empty = data.dataset.subset(np.zeros(data.dataset.n_points, dtype=bool))
        stats = empty.statistics()
        assert stats["n_points"] == 0
        assert stats["percent_positive"] == 0.0
        assert stats["avg_effort_km"] == 0.0
