"""Tests for repro.core.ensemble, uncertainty, and predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IWareEnsemble, PawsPredictor, UncertaintyScaler, make_weak_learner
from repro.core.ensemble import _prior_correct
from repro.data import MFNP, generate_dataset
from repro.exceptions import ConfigurationError, DataError, NotFittedError

SMALL = MFNP.scaled(0.5)


@pytest.fixture(scope="module")
def split():
    return generate_dataset(SMALL, seed=0).dataset.split_by_test_year(4)


@pytest.fixture(scope="module")
def fitted_gpb(split):
    predictor = PawsPredictor(
        model="gpb", iware=True, n_classifiers=6, n_estimators=3, seed=2
    )
    return predictor.fit(split.train)


def dtb_factory(seed=0):
    return make_weak_learner("dtb", rng=np.random.default_rng(seed), n_estimators=3)


class TestIWareEnsemble:
    def test_fit_and_thresholds(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=6,
                            rng=np.random.default_rng(0)).fit(split.train)
        assert ens.thresholds_ is not None
        assert ens.thresholds_[0] == 0.0
        assert len(ens.classifiers_) == len(ens.thresholds_)
        assert ens.weights_.sum() == pytest.approx(1.0)

    def test_member_probabilities_shape(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=5,
                            rng=np.random.default_rng(0)).fit(split.train)
        X = split.test.feature_matrix
        assert ens.member_probabilities(X).shape == (ens.n_thresholds, X.shape[0])

    def test_predict_proba_in_unit_interval(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=5,
                            rng=np.random.default_rng(0)).fit(split.train)
        p = ens.predict_proba(split.test.feature_matrix)
        assert (p >= 0).all() and (p <= 1).all()

    def test_effort_qualification_monotone_vote_pool(self, split):
        """Higher hypothetical effort qualifies at least as many classifiers."""
        ens = IWareEnsemble(dtb_factory(), n_classifiers=6,
                            rng=np.random.default_rng(0)).fit(split.train)
        n = 5
        low = ens._qualification(0.0, n)
        high = ens._qualification(100.0, n)
        assert (low <= high).all()
        assert high.all()

    def test_effort_response_varies(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=6,
                            rng=np.random.default_rng(0)).fit(split.train)
        X = split.test.feature_matrix[:20]
        g_low = ens.predict_proba(X, effort=0.5)
        g_high = ens.predict_proba(X, effort=8.0)
        assert not np.allclose(g_low, g_high)

    def test_negative_effort_rejected(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=4,
                            rng=np.random.default_rng(0)).fit(split.train)
        with pytest.raises(ConfigurationError):
            ens.predict_proba(split.test.feature_matrix[:2], effort=-1.0)
        with pytest.raises(ConfigurationError):
            ens.predict_variance(split.test.feature_matrix[:2], effort=-1.0)

    def test_qualified_weighting_mode(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=5, weighting="qualified",
                            rng=np.random.default_rng(0)).fit(split.train)
        np.testing.assert_allclose(ens.weights_, 1.0 / ens.n_thresholds)

    def test_equal_threshold_scheme(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=5, threshold_scheme="equal",
                            theta_range=(0.0, 6.0),
                            rng=np.random.default_rng(0)).fit(split.train)
        np.testing.assert_allclose(np.diff(ens.thresholds_), 1.5)

    def test_unfitted_raises(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=3)
        with pytest.raises(NotFittedError):
            ens.predict_proba(split.test.feature_matrix)

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            IWareEnsemble(dtb_factory(), threshold_scheme="banana")
        with pytest.raises(ConfigurationError):
            IWareEnsemble(dtb_factory(), weighting="banana")
        with pytest.raises(ConfigurationError):
            IWareEnsemble(dtb_factory(), n_classifiers=0)
        with pytest.raises(ConfigurationError):
            IWareEnsemble(dtb_factory(), cv_folds=1)

    def test_variance_nonnegative(self, split):
        ens = IWareEnsemble(dtb_factory(), n_classifiers=4,
                            rng=np.random.default_rng(0)).fit(split.train)
        v = ens.predict_variance(split.test.feature_matrix[:10])
        assert (v >= 0).all()


def _hand_weighted_ensemble(weights) -> IWareEnsemble:
    """A four-threshold ensemble with hand-set mixing weights (no fit)."""
    ens = IWareEnsemble(dtb_factory(), n_classifiers=4)
    ens.thresholds_ = np.array([0.0, 1.0, 2.0, 3.0])
    ens.weights_ = np.asarray(weights, dtype=float)
    return ens


class TestZeroWeightMix:
    """Columns whose qualified classifiers all weigh 0 mix to their average."""

    PROBS = np.random.default_rng(4).random((4, 6))
    EFFORT = np.array([0.5, 1.5, 2.5, 3.5, 1.0, 0.0])

    def test_mix_falls_back_to_qualified_average(self):
        ens = _hand_weighted_ensemble([0.0, 0.0, 0.3, 0.7])
        p = self.PROBS
        got = ens.mix(p, self.EFFORT)
        np.testing.assert_array_equal(got[0], p[0, 0])  # only theta=0
        np.testing.assert_array_equal(got[1], (p[0, 1] + p[1, 1]) / 2)
        np.testing.assert_allclose(got[2], p[2, 2], rtol=1e-15)  # 0, 0, .3
        np.testing.assert_allclose(got[3], 0.3 * p[2, 3] + 0.7 * p[3, 3])
        np.testing.assert_array_equal(got[4], (p[0, 4] + p[1, 4]) / 2)
        np.testing.assert_array_equal(got[5], p[0, 5])
        assert (got > 0).all()

    def test_mix_grid_falls_back_to_qualified_average(self):
        ens = _hand_weighted_ensemble([0.0, 0.0, 0.3, 0.7])
        p, v = self.PROBS, self.PROBS[::-1]
        grid = np.array([0.0, 0.5, 1.5, 2.5, 3.5])
        risk, raw_var = ens.mix_grid(p, v, grid)
        np.testing.assert_allclose(risk[:, 0], p[0])
        np.testing.assert_allclose(risk[:, 1], p[0])
        np.testing.assert_allclose(risk[:, 2], (p[0] + p[1]) / 2)
        np.testing.assert_allclose(raw_var[:, 2], (v[0] + v[1]) / 2)
        np.testing.assert_allclose(risk[:, 3], p[2])
        np.testing.assert_allclose(risk[:, 4], 0.3 * p[2] + 0.7 * p[3])
        for level, c in enumerate(grid):
            np.testing.assert_allclose(risk[:, level], ens._mix(p, float(c)))
            np.testing.assert_allclose(raw_var[:, level], ens._mix(v, float(c)))

    def test_round_off_and_zero_weights_mix_alike(self):
        zero = _hand_weighted_ensemble([0.0, 0.0, 0.3, 0.7])
        tiny = _hand_weighted_ensemble([1e-17, 1e-17, 0.3, 0.7])
        grid = np.array([0.5, 1.5, 2.5, 3.5])
        np.testing.assert_allclose(
            zero.mix(self.PROBS, self.EFFORT), tiny.mix(self.PROBS, self.EFFORT),
            rtol=1e-14,
        )
        for got, expected in zip(
            zero.mix_grid(self.PROBS, self.PROBS, grid),
            tiny.mix_grid(self.PROBS, self.PROBS, grid),
        ):
            np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_positive_weights_mix_unchanged(self):
        ens = _hand_weighted_ensemble([0.1, 0.2, 0.3, 0.4])
        p = self.PROBS
        mask = ens._qualification(self.EFFORT, p.shape[1])
        weighted = ens.weights_[:, None] * mask
        np.testing.assert_array_equal(
            ens.mix(p, self.EFFORT),
            (weighted * p).sum(axis=0) / weighted.sum(axis=0),
        )


class TestPriorCorrection:
    def test_identity_when_rates_match(self):
        probs = np.array([[0.2, 0.7]])
        out = _prior_correct(probs, np.array([0.3]), 0.3)
        np.testing.assert_allclose(out, probs)

    def test_downscales_when_subset_richer(self):
        probs = np.array([[0.5]])
        out = _prior_correct(probs, np.array([0.5]), 0.1)
        assert out[0, 0] < 0.5

    def test_degenerate_rate_passthrough(self):
        probs = np.array([[0.4]])
        out = _prior_correct(probs, np.array([0.0]), 0.1)
        np.testing.assert_allclose(out, probs)

    def test_monotone_in_input(self):
        probs = np.linspace(0.01, 0.99, 20)[None, :]
        out = _prior_correct(probs, np.array([0.6]), 0.2)
        assert (np.diff(out[0]) > 0).all()


class TestUncertaintyScaler:
    def test_output_in_unit_interval(self, rng):
        raw = rng.exponential(1.0, size=500)
        scaled = UncertaintyScaler().fit_transform(raw)
        assert (scaled > 0).all() and (scaled < 1).all()

    def test_median_maps_to_half(self, rng):
        raw = rng.exponential(1.0, size=501)
        scaler = UncertaintyScaler().fit(raw)
        mid = scaler.transform(np.array([np.median(raw)]))
        assert mid[0] == pytest.approx(0.5, abs=1e-6)

    def test_monotone(self, rng):
        raw = rng.random(200)
        scaler = UncertaintyScaler().fit(raw)
        grid = np.linspace(raw.min(), raw.max(), 50)
        out = scaler.transform(grid)
        assert (np.diff(out) >= 0).all()

    def test_constant_input(self):
        scaled = UncertaintyScaler().fit_transform(np.full(10, 2.0))
        np.testing.assert_allclose(scaled, 0.5)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            UncertaintyScaler().transform(np.zeros(3))

    def test_empty_raises(self):
        with pytest.raises(DataError):
            UncertaintyScaler().fit(np.array([]))


class TestPawsPredictor:
    def test_auc_better_than_random(self, split, fitted_gpb):
        assert fitted_gpb.evaluate_auc(split.test) > 0.6

    def test_name(self):
        assert PawsPredictor(model="gpb", iware=True).name == "GPB-iW"
        assert PawsPredictor(model="svb", iware=False).name == "SVB"

    def test_flat_baseline(self, split):
        predictor = PawsPredictor(model="dtb", iware=False, n_estimators=3, seed=0)
        predictor.fit(split.train)
        assert predictor.evaluate_auc(split.test) > 0.55

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            PawsPredictor(model="xgboost")

    def test_unfitted_raises(self, split):
        with pytest.raises(NotFittedError):
            PawsPredictor().predict_proba(split.test.feature_matrix)

    def test_effort_response_shapes(self, split, fitted_gpb):
        data = generate_dataset(SMALL, seed=0)
        features = fitted_gpb.cell_feature_matrix(
            data.park, data.recorded_effort[-1]
        )
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        risk, nu = fitted_gpb.effort_response(features, grid)
        assert risk.shape == (data.park.n_cells, 4)
        assert nu.shape == (data.park.n_cells, 4)
        assert (risk >= 0).all() and (risk <= 1).all()
        assert (nu >= 0).all() and (nu <= 1).all()
        assert fitted_gpb.uncertainty_scaler is not None

    def test_effort_response_validation(self, split, fitted_gpb):
        X = split.test.feature_matrix[:3]
        with pytest.raises(ConfigurationError):
            fitted_gpb.effort_response(X, np.array([]))
        with pytest.raises(ConfigurationError):
            fitted_gpb.effort_response(X, np.array([2.0, 1.0]))

    def test_cell_feature_matrix_validation(self, split, fitted_gpb):
        data = generate_dataset(SMALL, seed=0)
        with pytest.raises(DataError):
            fitted_gpb.cell_feature_matrix(data.park, np.zeros(3))

    def test_gpb_variance_positive(self, split, fitted_gpb):
        v = fitted_gpb.predict_variance(split.test.feature_matrix[:10])
        assert (v >= 0).all()
        assert v.max() > 0
