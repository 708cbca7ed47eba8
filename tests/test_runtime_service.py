"""Tests for the serving layer: batched inference, parallel fitting, caching.

Three contracts:

* ``effort_response`` (every level mixed at once) matches the per-level
  reference mixing (``tests/oracles/mixing_reference.py``) to
  floating-point reduction order;
* any ``n_jobs`` produces a bit-identical model (seeds are pre-drawn
  serially before the thread fan-out);
* :class:`RiskMapService` caches repeated queries and protects its cache
  from caller mutation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.data import MFNP, generate_dataset
from repro.exceptions import ConfigurationError, NotFittedError
from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    GaussianProcessClassifier,
)
from repro.runtime import RiskMapService, parallel_map, resolve_n_jobs

from tests.conftest import make_blobs
from tests.oracles.mixing_reference import per_level_effort_response


@pytest.fixture(scope="module")
def park_split():
    data = generate_dataset(MFNP.scaled(0.4), seed=0)
    return data.dataset.split_by_test_year(4)


@pytest.fixture(scope="module")
def fitted_gpb(park_split):
    return PawsPredictor(
        model="gpb", iware=True, n_classifiers=4, n_estimators=2, seed=3
    ).fit(park_split.train)


# ---------------------------------------------------------------------------
# parallel_map plumbing
# ---------------------------------------------------------------------------
class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(20), n_jobs=4) == [
            x * x for x in range(20)
        ]

    def test_serial_fallbacks(self):
        assert parallel_map(lambda x: x + 1, [1, 2, 3], n_jobs=1) == [2, 3, 4]
        assert parallel_map(lambda x: x + 1, [], n_jobs=8) == []
        assert parallel_map(lambda x: x + 1, [5], n_jobs=8) == [6]

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2, 3], n_jobs=2)


# ---------------------------------------------------------------------------
# Single-pass prediction statistics
# ---------------------------------------------------------------------------
class TestPredictionStats:
    def test_gp_matches_separate_calls(self, rng):
        X, y = make_blobs(rng, n_per_class=40)
        gp = GaussianProcessClassifier(rng=np.random.default_rng(0)).fit(X, y)
        proba, var = gp.prediction_stats(X)
        np.testing.assert_array_equal(proba, gp.predict_proba(X))
        np.testing.assert_array_equal(var, gp.predict_variance(X))

    def test_bagging_matches_separate_calls(self, rng):
        X, y = make_blobs(rng, n_per_class=40)
        seed_rng = np.random.default_rng(2)
        factory = lambda: DecisionTreeClassifier(  # noqa: E731
            max_depth=4, rng=np.random.default_rng(int(seed_rng.integers(2**31)))
        )
        bag = BaggingClassifier(factory, n_estimators=4).fit(X, y)
        proba, var = bag.prediction_stats(X)
        np.testing.assert_array_equal(proba, bag.predict_proba(X))
        # Trees report no intrinsic variance: the between-member variance.
        np.testing.assert_array_equal(var, bag.predict_variance(X))

    def test_gp_bagging_uses_intrinsic_variance(self, rng):
        X, y = make_blobs(rng, n_per_class=30)
        seed_rng = np.random.default_rng(2)
        factory = lambda: GaussianProcessClassifier(  # noqa: E731
            max_points=40, rng=np.random.default_rng(int(seed_rng.integers(2**31)))
        )
        bag = BaggingClassifier(factory, n_estimators=2).fit(X, y)
        proba, var = bag.prediction_stats(X)
        np.testing.assert_array_equal(proba, bag.predict_proba(X))
        np.testing.assert_array_equal(
            var,
            np.stack([m.predict_variance(X) for m in bag.estimators_]).mean(axis=0),
        )
        assert any(m.supports_variance for m in bag.estimators_)


# ---------------------------------------------------------------------------
# Batched effort response == per-level reference loop
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("model", ["svb", "dtb", "gpb"])
@pytest.mark.parametrize("iware", [True, False])
class TestBatchedEffortResponse:
    def test_matches_per_level_loop(self, park_split, model, iware):
        predictor = PawsPredictor(
            model=model, iware=iware, n_classifiers=4, n_estimators=2, seed=3
        ).fit(park_split.train)
        X = park_split.test.feature_matrix
        grid = np.linspace(0.0, 5.0, 7)
        risk_loop, nu_loop, __ = per_level_effort_response(
            predictor, predictor.member_pass(X), grid
        )
        risk_batch, nu_batch = predictor.effort_response(X, grid)
        np.testing.assert_allclose(risk_batch, risk_loop, atol=1e-12, rtol=0)
        np.testing.assert_allclose(nu_batch, nu_loop, atol=1e-12, rtol=0)
        # The zero-effort anchor survives the batched path.
        assert (risk_batch[:, 0] == 0.0).all()


# ---------------------------------------------------------------------------
# Parallel fitting is bit-identical to serial
# ---------------------------------------------------------------------------
class TestParallelFitIdentity:
    @pytest.mark.parametrize("model", ["dtb", "gpb"])
    def test_iware_predictor(self, park_split, model):
        serial = PawsPredictor(
            model=model, iware=True, n_classifiers=4, n_estimators=2, seed=3
        ).fit(park_split.train)
        parallel = PawsPredictor(
            model=model, iware=True, n_classifiers=4, n_estimators=2, seed=3,
            n_jobs=4,
        ).fit(park_split.train)
        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            parallel.predict_proba(X), serial.predict_proba(X)
        )
        np.testing.assert_array_equal(
            parallel.predict_variance(X), serial.predict_variance(X)
        )

    def test_flat_predictor(self, park_split):
        serial = PawsPredictor(
            model="dtb", iware=False, n_estimators=3, seed=5
        ).fit(park_split.train)
        parallel = PawsPredictor(
            model="dtb", iware=False, n_estimators=3, seed=5, n_jobs=4
        ).fit(park_split.train)
        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            parallel.predict_proba(X), serial.predict_proba(X)
        )

    def test_bagging_inbag_counts_identical(self, rng):
        X, y = make_blobs(rng, n_per_class=40)

        def build(n_jobs):
            seed_rng = np.random.default_rng(2)
            factory = lambda: DecisionTreeClassifier(  # noqa: E731
                max_depth=4,
                rng=np.random.default_rng(int(seed_rng.integers(2**31))),
            )
            return BaggingClassifier(
                factory, n_estimators=4, rng=np.random.default_rng(9),
                n_jobs=n_jobs,
            ).fit(X, y)

        serial, parallel = build(1), build(4)
        np.testing.assert_array_equal(parallel.inbag_counts_, serial.inbag_counts_)
        np.testing.assert_array_equal(
            parallel.predict_proba(X), serial.predict_proba(X)
        )


# ---------------------------------------------------------------------------
# RiskMapService caching
# ---------------------------------------------------------------------------
class TestRiskMapService:
    def test_requires_fitted_predictor(self):
        with pytest.raises(NotFittedError):
            RiskMapService(PawsPredictor())

    def test_rejects_non_predictor(self):
        with pytest.raises(ConfigurationError):
            RiskMapService(object())  # type: ignore[arg-type]

    def test_effort_response_cache_hit(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        grid = np.linspace(0.0, 4.0, 5)
        first = service.effort_response(X, grid)
        second = service.effort_response(X, grid)
        info = service.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
        direct_risk, direct_nu = fitted_gpb.effort_response(X, grid)
        np.testing.assert_array_equal(first[0], direct_risk)
        np.testing.assert_array_equal(first[1], direct_nu)

    def test_cache_immune_to_caller_mutation(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        grid = np.linspace(0.0, 4.0, 5)
        risk, __ = service.effort_response(X, grid)
        risk[:] = -1.0
        fresh, __ = service.effort_response(X, grid)
        assert (fresh >= 0.0).all()

    def test_cache_hit_restores_uncertainty_scaler(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        grid_a = np.linspace(0.0, 4.0, 5)
        grid_b = np.linspace(0.0, 6.0, 8)
        service.effort_response(X, grid_a)
        scaler_a = fitted_gpb.uncertainty_scaler
        service.effort_response(X, grid_b)
        assert fitted_gpb.uncertainty_scaler is not scaler_a
        service.effort_response(X, grid_a)  # cache hit
        assert fitted_gpb.uncertainty_scaler is scaler_a

    def test_distinct_queries_miss(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        service.effort_response(X, np.linspace(0.0, 4.0, 5))
        service.effort_response(X, np.linspace(0.0, 4.0, 6))
        assert service.cache_info()["misses"] == 2

    def test_risk_map_effort_levels_cached_separately(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        at_two = service.risk_map(X, effort=2.0)
        at_four = service.risk_map(X, effort=4.0)
        unconditional = service.risk_map(X)
        assert service.cache_info()["misses"] == 3
        assert at_two.shape == at_four.shape == unconditional.shape
        np.testing.assert_array_equal(
            service.risk_map(X, effort=2.0), at_two
        )
        assert service.cache_info()["hits"] == 1

    def test_lru_eviction(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb, max_entries=1)
        X = park_split.test.feature_matrix
        service.risk_map(X, effort=1.0)
        service.risk_map(X, effort=2.0)
        assert service.cache_info()["entries"] == 1
        service.risk_map(X, effort=1.0)  # evicted -> miss again
        assert service.cache_info()["misses"] == 3

    def test_save_and_from_saved(self, fitted_gpb, park_split, tmp_path):
        service = RiskMapService(fitted_gpb)
        service.save(tmp_path / "svc")
        restored = RiskMapService.from_saved(tmp_path / "svc")
        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            restored.risk_map(X, effort=2.0), service.risk_map(X, effort=2.0)
        )

    def test_clear_cache(self, fitted_gpb, park_split):
        service = RiskMapService(fitted_gpb)
        X = park_split.test.feature_matrix
        service.risk_map(X, effort=1.0)
        service.clear_cache()
        assert service.cache_info()["entries"] == 0
