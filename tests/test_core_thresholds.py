"""Tests for repro.core.thresholds, filtering, and weights."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    equal_spaced_thresholds,
    filter_by_effort_threshold,
    optimize_ensemble_weights,
    percentile_thresholds,
)
from repro.core.filtering import filtered_sizes
from repro.core.weights import ensemble_log_loss
from repro.data.dataset import PoachingDataset
from repro.exceptions import ConfigurationError, DataError


def make_dataset(effort, labels):
    n = len(effort)
    return PoachingDataset(
        static_features=np.arange(n, dtype=float).reshape(-1, 1),
        prev_effort=np.zeros(n),
        current_effort=np.asarray(effort, dtype=float),
        labels=np.asarray(labels, dtype=int),
        period=np.full(n, 4),
        cell=np.arange(n),
        periods_per_year=4,
    )


class TestPercentileThresholds:
    def test_first_threshold_is_zero(self, rng):
        thresholds = percentile_thresholds(rng.random(100) * 5, 10)
        assert thresholds[0] == 0.0

    def test_strictly_increasing(self, rng):
        thresholds = percentile_thresholds(rng.random(500) * 5, 15)
        assert (np.diff(thresholds) > 0).all()

    def test_collapses_ties(self):
        effort = np.array([1.0] * 50 + [2.0] * 50)
        thresholds = percentile_thresholds(effort, 10)
        # Ten requested classifiers collapse to the few distinct percentile
        # values of a two-level effort distribution (plus interpolants).
        assert len(thresholds) < 10
        assert len(np.unique(thresholds)) == len(thresholds)

    def test_single_classifier(self, rng):
        thresholds = percentile_thresholds(rng.random(20), 1)
        np.testing.assert_array_equal(thresholds, [0.0])

    def test_consistent_subset_sizes(self, rng):
        """The enhancement's purpose: near-equal training-data decrements."""
        effort = rng.exponential(2.0, size=2000)
        thresholds = percentile_thresholds(effort, 5)
        counts = [(effort >= t).sum() for t in thresholds]
        decrements = -np.diff(counts)
        assert decrements.max() < 2 * 2000 / 5

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            percentile_thresholds(rng.random(10), 0)
        with pytest.raises(DataError):
            percentile_thresholds(np.array([]), 5)
        with pytest.raises(DataError):
            percentile_thresholds(np.array([-1.0, 2.0]), 5)


class TestEqualThresholds:
    def test_spacing(self):
        thresholds = equal_spaced_thresholds(0.0, 7.5, 16)
        assert len(thresholds) == 16
        np.testing.assert_allclose(np.diff(thresholds), 0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            equal_spaced_thresholds(2.0, 1.0, 5)
        with pytest.raises(ConfigurationError):
            equal_spaced_thresholds(0.0, 5.0, 0)


class TestFiltering:
    def test_keeps_all_positives(self):
        ds = make_dataset([0.1, 0.2, 5.0, 0.3], [1, 0, 0, 1])
        filtered = filter_by_effort_threshold(ds, 1.0)
        assert filtered.labels.sum() == 2
        assert filtered.n_points == 3  # 2 positives + 1 reliable negative

    def test_threshold_zero_keeps_everything(self):
        ds = make_dataset([0.1, 0.2, 5.0], [0, 0, 1])
        assert filter_by_effort_threshold(ds, 0.0).n_points == 3

    def test_monotone_in_threshold(self, rng):
        ds = make_dataset(rng.random(200) * 5, rng.integers(0, 2, 200))
        sizes = [
            filter_by_effort_threshold(ds, t).n_points for t in (0.0, 1.0, 2.0, 4.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_negative_threshold_rejected(self):
        ds = make_dataset([1.0], [1])
        with pytest.raises(ConfigurationError):
            filter_by_effort_threshold(ds, -0.5)

    def test_filtered_sizes_diagnostic(self, rng):
        ds = make_dataset(rng.random(50) * 3, rng.integers(0, 2, 50))
        rows = filtered_sizes(ds, np.array([0.0, 1.0]))
        assert len(rows) == 2
        n_pos = int(ds.labels.sum())
        assert all(r[2] == n_pos for r in rows)


class TestWeightOptimisation:
    def test_prefers_the_informative_classifier(self, rng):
        y = rng.integers(0, 2, size=400)
        good = np.clip(0.8 * y + 0.1 + rng.normal(0, 0.05, 400), 0.01, 0.99)
        noise = np.clip(rng.random(400), 0.01, 0.99)
        weights = optimize_ensemble_weights(np.stack([good, noise]), y)
        assert weights[0] > 0.9

    def test_weights_on_simplex(self, rng):
        y = rng.integers(0, 2, size=100)
        probs = rng.random((5, 100))
        weights = optimize_ensemble_weights(probs, y)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights >= 0).all()

    def test_single_classifier_shortcut(self, rng):
        weights = optimize_ensemble_weights(rng.random((1, 30)), rng.integers(0, 2, 30))
        np.testing.assert_array_equal(weights, [1.0])

    def test_beats_uniform(self, rng):
        y = rng.integers(0, 2, size=300)
        good = np.clip(0.9 * y + 0.05 + rng.normal(0, 0.03, 300), 0.01, 0.99)
        bad = np.clip(1 - y * 0.8 + rng.normal(0, 0.1, 300), 0.01, 0.99)
        probs = np.stack([good, bad])
        weights = optimize_ensemble_weights(probs, y)
        uniform = np.array([0.5, 0.5])
        assert ensemble_log_loss(weights, probs, y) <= ensemble_log_loss(
            uniform, probs, y
        )

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_weights_at_the_bound_are_exactly_zero(self, seed):
        """SLSQP returns a weight at its lower bound as 0 or as ~1e-16
        round-off; both must come back as exactly 0, or the qualification
        mix renormalises the round-off into a real vote."""
        rng = np.random.default_rng(seed)
        y = (rng.random(200) < 0.3).astype(int)
        good = np.clip(0.3 + 0.4 * (y - 0.3) + 0.1 * rng.normal(size=200), 0.01, 0.99)
        bad = np.clip(0.3 - 0.2 * (y - 0.3) + 0.1 * rng.normal(size=(2, 200)), 0.01, 0.99)
        near = np.clip(good + 0.1 * rng.normal(size=200), 0.01, 0.99)
        weights = optimize_ensemble_weights(np.vstack([bad, good, near]), y)
        assert weights[:2].tolist() == [0.0, 0.0]
        assert ((weights == 0.0) | (weights > 1e-12)).all()
        assert weights.sum() == pytest.approx(1.0)

    def test_shape_validation(self, rng):
        with pytest.raises(DataError):
            optimize_ensemble_weights(rng.random(10), rng.integers(0, 2, 10))
        with pytest.raises(DataError):
            optimize_ensemble_weights(rng.random((2, 10)), rng.integers(0, 2, 9))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 9999), n_classifiers=st.integers(2, 12))
def test_percentile_thresholds_cover_effort_range(seed, n_classifiers):
    rng = np.random.default_rng(seed)
    effort = rng.exponential(2.0, size=300)
    thresholds = percentile_thresholds(effort, n_classifiers)
    assert thresholds[0] == 0.0
    assert thresholds[-1] <= effort.max()
    assert len(thresholds) <= n_classifiers
