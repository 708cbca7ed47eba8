"""Tests for repro.data.dataset and repro.data.generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    MFNP,
    SWS,
    PoachingDataset,
    dataset_statistics,
    generate_dataset,
)
from repro.exceptions import ConfigurationError, DataError

SMALL = MFNP.scaled(0.5)


@pytest.fixture(scope="module")
def park_data():
    return generate_dataset(SMALL, seed=0)


def make_dataset(n=20, k=3, periods_per_year=4, seed=0):
    rng = np.random.default_rng(seed)
    return PoachingDataset(
        static_features=rng.random((n, k)),
        prev_effort=rng.random(n) * 2,
        current_effort=rng.random(n) * 3 + 0.1,
        labels=rng.integers(0, 2, size=n),
        period=rng.integers(0, 24, size=n),
        cell=rng.integers(0, 50, size=n),
        periods_per_year=periods_per_year,
    )


class TestPoachingDataset:
    def test_feature_matrix_appends_prev_effort(self):
        ds = make_dataset(n=10, k=3)
        assert ds.feature_matrix.shape == (10, 4)
        np.testing.assert_allclose(ds.feature_matrix[:, -1], ds.prev_effort)
        assert ds.input_feature_names[-1] == "prev_patrol_effort"

    def test_n_features_counts_effort_covariate(self):
        assert make_dataset(k=5).n_features == 6

    def test_validation_shapes(self):
        with pytest.raises(DataError):
            PoachingDataset(
                static_features=np.zeros((5, 2)),
                prev_effort=np.zeros(4),
                current_effort=np.zeros(5),
                labels=np.zeros(5, dtype=int),
                period=np.zeros(5, dtype=int),
                cell=np.zeros(5, dtype=int),
                periods_per_year=4,
            )

    def test_validation_negative_effort(self):
        with pytest.raises(DataError):
            PoachingDataset(
                static_features=np.zeros((2, 1)),
                prev_effort=np.array([-1.0, 0.0]),
                current_effort=np.zeros(2),
                labels=np.zeros(2, dtype=int),
                period=np.zeros(2, dtype=int),
                cell=np.zeros(2, dtype=int),
                periods_per_year=4,
            )

    def test_subset(self):
        ds = make_dataset(n=30)
        mask = ds.labels == 1
        sub = ds.subset(mask)
        assert sub.n_points == int(mask.sum())
        assert sub.positive_rate == 1.0

    def test_subset_bad_mask(self):
        ds = make_dataset()
        with pytest.raises(DataError):
            ds.subset(np.ones(3, dtype=bool))

    def test_year_derivation(self):
        ds = make_dataset(periods_per_year=4)
        np.testing.assert_array_equal(ds.year, ds.period // 4)

    def test_statistics_keys(self):
        stats = make_dataset().statistics()
        for key in ("n_features", "n_points", "n_positive",
                    "percent_positive", "avg_effort_km"):
            assert key in stats


class TestYearSplit:
    def test_split_by_test_year(self, park_data):
        ds = park_data.dataset
        split = ds.split_by_test_year(test_year=4)
        assert (split.test.year == 4).all()
        assert set(np.unique(split.train.year)) == {1, 2, 3}

    def test_split_unknown_year(self, park_data):
        with pytest.raises(DataError):
            park_data.dataset.split_by_test_year(test_year=99)

    def test_split_insufficient_history(self, park_data):
        with pytest.raises(DataError):
            park_data.dataset.split_by_test_year(test_year=1)

    def test_three_test_years_available(self, park_data):
        """The paper evaluates test years 3, 4, 5 (its 2014/15/16)."""
        for test_year in (3, 4, 5):
            split = park_data.dataset.split_by_test_year(test_year)
            assert split.train.n_points > 0
            assert split.test.n_points > 0


class TestGenerator:
    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            generate_dataset(SMALL, seed=-5)

    def test_deterministic(self):
        a = generate_dataset(SMALL, seed=5)
        b = generate_dataset(SMALL, seed=5)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)
        np.testing.assert_array_equal(a.recorded_effort, b.recorded_effort)

    def test_shapes(self, park_data):
        T = SMALL.n_periods
        N = park_data.park.n_cells
        assert park_data.true_effort.shape == (T, N)
        assert park_data.recorded_effort.shape == (T, N)
        assert park_data.attacks.shape == (T, N)
        assert park_data.detections.shape == (T, N)

    def test_detections_subset_of_attacks(self, park_data):
        """One-sided noise: every detection is a true attack."""
        assert not (park_data.detections & ~park_data.attacks).any()

    def test_detections_only_in_patrolled_cells(self, park_data):
        detected = park_data.detections
        effort = park_data.true_effort
        assert (effort[detected] > 0).all()

    def test_dataset_points_have_positive_effort(self, park_data):
        assert (park_data.dataset.current_effort > 0).all()

    def test_dataset_skips_first_period(self, park_data):
        assert park_data.dataset.period.min() >= 1

    def test_labels_match_detection_grid(self, park_data):
        ds = park_data.dataset
        for i in range(0, ds.n_points, 97):
            t, cid = int(ds.period[i]), int(ds.cell[i])
            assert ds.labels[i] == int(park_data.detections[t, cid])

    def test_calibration_hits_target(self, park_data):
        target = SMALL.target_positive_rate
        rate = park_data.dataset.positive_rate
        assert 0.5 * target < rate < 2.0 * target

    def test_smart_database_populated(self, park_data):
        assert park_data.smart.n_patrols == SMALL.n_periods * SMALL.patrols_per_period
        assert park_data.smart.n_records > 0

    def test_smart_poaching_cells_match_detections(self, park_data):
        t = 3
        recorded = park_data.smart.poaching_cells(t)
        detected = set(np.nonzero(park_data.detections[t])[0].tolist())
        # Every SMART poaching record corresponds to a true detection...
        assert recorded <= detected
        # ...and patrolled detections mostly get recorded.
        if detected:
            assert len(recorded) >= len(detected) // 2

    def test_statistics(self, park_data):
        stats = dataset_statistics(park_data)
        assert stats["n_cells"] == park_data.park.n_cells
        assert stats["n_points"] == park_data.dataset.n_points

    def test_fig4_positive_rate_grows_with_effort(self):
        """The Fig. 4 signature: positives concentrate at high effort."""
        data = generate_dataset(MFNP, seed=1)
        rates = data.dataset.positive_rate_by_effort_percentile([0, 40, 80])
        assert rates[2] > rates[0]

    def test_positive_rate_percentile_validation(self, park_data):
        with pytest.raises(ConfigurationError):
            park_data.dataset.positive_rate_by_effort_percentile([120])

    def test_sws_extreme_imbalance(self):
        data = generate_dataset(SWS, seed=0)
        assert data.dataset.positive_rate < 0.02
        assert data.dataset.labels.sum() >= 3
