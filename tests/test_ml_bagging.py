"""Tests for repro.ml.bagging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.ml import (
    BaggingClassifier,
    BalancedBaggingClassifier,
    DecisionTreeClassifier,
    GaussianProcessClassifier,
    roc_auc_score,
)
from tests.conftest import make_blobs


def tree_factory():
    return DecisionTreeClassifier(max_depth=4, max_features="sqrt",
                                  rng=np.random.default_rng(0))


class TestBagging:
    def test_fit_predict(self, rng):
        X, y = make_blobs(rng)
        model = BaggingClassifier(tree_factory, n_estimators=8, rng=rng).fit(X, y)
        assert roc_auc_score(y, model.predict_proba(X)) > 0.95

    def test_member_probabilities_shape(self, rng):
        X, y = make_blobs(rng, n_per_class=25)
        model = BaggingClassifier(tree_factory, n_estimators=5, rng=rng).fit(X, y)
        assert model.member_probabilities(X).shape == (5, 50)

    def test_mean_of_members(self, rng):
        X, y = make_blobs(rng, n_per_class=25)
        model = BaggingClassifier(tree_factory, n_estimators=5, rng=rng).fit(X, y)
        np.testing.assert_allclose(
            model.predict_proba(X), model.member_probabilities(X).mean(axis=0)
        )

    def test_variance_nonnegative(self, rng):
        X, y = make_blobs(rng)
        model = BaggingClassifier(tree_factory, n_estimators=6, rng=rng).fit(X, y)
        assert (model.predict_variance(X) >= 0).all()

    def test_inbag_counts_recorded(self, rng):
        X, y = make_blobs(rng, n_per_class=30)
        model = BaggingClassifier(tree_factory, n_estimators=4, rng=rng).fit(X, y)
        assert model.inbag_counts_ is not None
        assert model.inbag_counts_.shape == (4, 60)
        # Each bootstrap draws n samples with replacement.
        np.testing.assert_array_equal(model.inbag_counts_.sum(axis=1), 60)

    def test_max_samples_shrinks_bootstraps(self, rng):
        X, y = make_blobs(rng, n_per_class=30)
        model = BaggingClassifier(
            tree_factory, n_estimators=3, max_samples=0.5, rng=rng
        ).fit(X, y)
        np.testing.assert_array_equal(model.inbag_counts_.sum(axis=1), 30)

    def test_single_class_bootstrap_survives(self, rng):
        """With 1 positive in 60 points many bootstraps are all-negative."""
        X = rng.random((60, 2))
        y = np.zeros(60, dtype=int)
        y[0] = 1
        model = BaggingClassifier(tree_factory, n_estimators=10, rng=rng).fit(X, y)
        p = model.predict_proba(X)
        assert np.isfinite(p).all()

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            BaggingClassifier(tree_factory, n_estimators=0)
        with pytest.raises(ConfigurationError):
            BaggingClassifier(tree_factory, max_samples=0.0)
        with pytest.raises(ConfigurationError):
            BaggingClassifier(tree_factory, max_samples=1.5)

    def test_unfitted_raises(self, rng):
        model = BaggingClassifier(tree_factory, rng=rng)
        with pytest.raises(NotFittedError):
            model.predict_proba(np.zeros((1, 2)))

    def test_intrinsic_variance_flag(self, rng):
        X, y = make_blobs(rng, n_per_class=25)
        trees = BaggingClassifier(tree_factory, n_estimators=3, rng=rng).fit(X, y)
        assert not any(m.supports_variance for m in trees.estimators_)
        gps = BaggingClassifier(
            lambda: GaussianProcessClassifier(max_points=60,
                                              rng=np.random.default_rng(1)),
            n_estimators=2,
            rng=rng,
        ).fit(X, y)
        assert any(m.supports_variance for m in gps.estimators_)
        assert (gps.prediction_stats(X)[1] >= 0).all()


class TestBalancedBagging:
    def test_bootstraps_are_balanced(self, rng):
        X = rng.random((200, 2))
        y = np.zeros(200, dtype=int)
        y[:10] = 1
        model = BalancedBaggingClassifier(tree_factory, n_estimators=5, rng=rng)
        model.fit(X, y)
        for b in range(5):
            counts = model.inbag_counts_[b]
            n_pos_drawn = counts[:10].sum()
            n_neg_drawn = counts[10:].sum()
            assert n_pos_drawn == 10
            assert n_neg_drawn == 10

    def test_ratio_parameter(self, rng):
        X = rng.random((200, 2))
        y = np.zeros(200, dtype=int)
        y[:10] = 1
        model = BalancedBaggingClassifier(
            tree_factory, n_estimators=3, ratio=2.0, rng=rng
        ).fit(X, y)
        for b in range(3):
            counts = model.inbag_counts_[b]
            assert counts[10:].sum() == 20

    def test_improves_auc_under_extreme_imbalance(self, rng):
        """The paper's Section V-A claim, in miniature."""
        n = 600
        X = rng.random((n, 2))
        logits = 6.0 * (X[:, 0] - 0.8)
        y = (rng.random(n) < 1 / (1 + np.exp(-logits)) * 0.15).astype(int)
        if y.sum() < 3:
            y[:3] = 1
        X_test = rng.random((300, 2))
        logits_t = 6.0 * (X_test[:, 0] - 0.8)
        y_test = (np.random.default_rng(9).random(300)
                  < 1 / (1 + np.exp(-logits_t)) * 0.15).astype(int)
        y_test[:2] = [0, 1]
        plain = BaggingClassifier(tree_factory, n_estimators=10,
                                  rng=np.random.default_rng(3)).fit(X, y)
        balanced = BalancedBaggingClassifier(tree_factory, n_estimators=10,
                                             rng=np.random.default_rng(3)).fit(X, y)
        auc_plain = roc_auc_score(y_test, plain.predict_proba(X_test))
        auc_balanced = roc_auc_score(y_test, balanced.predict_proba(X_test))
        # Balanced bagging must stay informative and not collapse relative
        # to plain bagging (the full Section V-A comparison lives in the
        # benchmark suite, on data shaped like SWS).
        assert auc_balanced > 0.55
        assert auc_balanced > auc_plain - 0.15

    def test_requires_positive_labels(self, rng):
        X = rng.random((20, 2))
        y = np.zeros(20, dtype=int)
        with pytest.raises(DataError):
            BalancedBaggingClassifier(tree_factory, rng=rng).fit(X, y)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigurationError):
            BalancedBaggingClassifier(tree_factory, ratio=0.0)
