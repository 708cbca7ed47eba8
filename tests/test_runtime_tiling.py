"""Tests for the tiled, parallel prediction engine.

The serving contract: streaming test rows through fixed-size tiles and
fanning ``(member x tile)`` tasks over any pool backend changes **nothing**
— every served surface is bit-identical to the serial, untiled path, for
every tile size (1, odd, larger than the query) and every backend. Tiling
exists purely to bound transient memory at ``O(n_train x tile)`` and to use
the cores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.data import MFNP, generate_dataset
from repro.exceptions import ConfigurationError
from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    GaussianProcessClassifier,
    LinearSVMClassifier,
)
from repro.runtime import RiskMapService
from repro.runtime.parallel import PredictTask, predict_map, tile_slices
from tests.conftest import make_blobs
from tests.oracles.mixing_reference import per_level_effort_response

TILE_SIZES = (1, 7, 10**6)
POOLS = ((1, "auto"), (3, "thread"), (3, "process"), (3, "auto"))


@pytest.fixture(scope="module")
def park_data():
    return generate_dataset(MFNP.scaled(0.4), seed=0)


@pytest.fixture(scope="module")
def park_split(park_data):
    return park_data.dataset.split_by_test_year(4)


def _fit(park_split, model: str, iware: bool = True) -> PawsPredictor:
    return PawsPredictor(
        model=model, iware=iware, n_classifiers=4, n_estimators=2,
        gp_max_points=80, seed=3,
    ).fit(park_split.train)


@pytest.fixture(scope="module")
def gpb_iw(park_split):
    return _fit(park_split, "gpb")


@pytest.fixture(scope="module")
def features(park_data, gpb_iw):
    return gpb_iw.cell_feature_matrix(
        park_data.park, park_data.recorded_effort[-1]
    )


# ---------------------------------------------------------------------------
# tile_slices
# ---------------------------------------------------------------------------
class TestTileSlices:
    def test_none_is_one_tile(self):
        assert tile_slices(10, None) == [slice(0, 10)]

    def test_covers_range_with_partial_remainder(self):
        slices = tile_slices(10, 4)
        assert slices == [slice(0, 4), slice(4, 8), slice(8, 10)]

    def test_tile_one_and_oversized(self):
        assert len(tile_slices(5, 1)) == 5
        assert tile_slices(5, 100) == [slice(0, 5)]

    def test_empty_input_yields_one_empty_slice(self):
        assert tile_slices(0, 4) == [slice(0, 0)]

    def test_rejects_bad_tile_size(self):
        with pytest.raises(ConfigurationError):
            tile_slices(10, 0)
        with pytest.raises(ConfigurationError):
            tile_slices(10, -3)


# ---------------------------------------------------------------------------
# predict_map
# ---------------------------------------------------------------------------
class TestPredictMap:
    @pytest.fixture(scope="class")
    def members(self):
        rng = np.random.default_rng(0)
        X, y = make_blobs(rng, n_per_class=50)
        models = [
            GaussianProcessClassifier(rng=np.random.default_rng(1)).fit(X, y),
            DecisionTreeClassifier(max_depth=4, rng=np.random.default_rng(2)).fit(X, y),
            LinearSVMClassifier(rng=np.random.default_rng(3)).fit(X, y),
        ]
        return models, X

    def test_matches_serial_sweep_at_any_tile_and_pool(self, members):
        models, X = members
        reference = [m.prediction_stats(X) for m in models]
        for tile in (None,) + TILE_SIZES:
            for n_jobs, backend in POOLS:
                got = predict_map(
                    models, X, tile_size=tile, n_jobs=n_jobs, backend=backend
                )
                for (p0, v0), (p1, v1) in zip(reference, got):
                    np.testing.assert_array_equal(p0, p1)
                    np.testing.assert_array_equal(v0, v1)

    def test_empty_query(self, members):
        models, X = members
        out = predict_map(models, X[:0], tile_size=4)
        for p, v in out:
            assert p.shape == (0,) and v.shape == (0,)

    def test_forced_pools_still_bit_identical(self, members, monkeypatch):
        """Real pools (not the serial clamp) preserve bit-identity."""
        import repro.runtime.parallel as par

        monkeypatch.setattr(par, "effective_cpu_count", lambda: 4)
        models, X = members
        reference = [m.prediction_stats(X) for m in models]
        for backend in ("thread", "process"):
            got = predict_map(
                models, X, tile_size=9, n_jobs=4, backend=backend
            )
            for (p0, v0), (p1, v1) in zip(reference, got):
                np.testing.assert_array_equal(p0, p1)
                np.testing.assert_array_equal(v0, v1)

    def test_predict_hints_route_the_auto_vote(self, members):
        models, X = members
        gp, tree, svm = models
        assert PredictTask(gp, X).backend_hint == "thread"
        assert PredictTask(tree, X).backend_hint == "process"
        bag = BaggingClassifier(
            lambda: DecisionTreeClassifier(rng=np.random.default_rng(0)),
            n_estimators=2, rng=np.random.default_rng(1),
        ).fit(*make_blobs(np.random.default_rng(5), n_per_class=30))
        assert bag.predict_backend_hint == "process"


# ---------------------------------------------------------------------------
# Tiled serving through the predictor stack
# ---------------------------------------------------------------------------
class TestTiledServingBitIdentity:
    EFFORT_GRID = np.linspace(0.0, 4.0, 6)

    @pytest.mark.parametrize("model,iware", [
        ("gpb", True), ("dtb", True), ("svb", True),
        ("gpb", False), ("dtb", False),
    ])
    def test_effort_response_identical(self, park_data, park_split, model, iware):
        predictor = _fit(park_split, model, iware)
        X = predictor.cell_feature_matrix(
            park_data.park, park_data.recorded_effort[-1]
        )
        risk0, nu0 = predictor.effort_response(X, self.EFFORT_GRID)
        for tile in TILE_SIZES:
            for n_jobs, backend in POOLS:
                risk, nu = predictor.effort_response(
                    X, self.EFFORT_GRID,
                    tile_size=tile, n_jobs=n_jobs, backend=backend,
                )
                np.testing.assert_array_equal(risk, risk0)
                np.testing.assert_array_equal(nu, nu0)

    def test_risk_map_identical(self, gpb_iw, features):
        for effort in (None, 2.0):
            reference = gpb_iw.predict_proba(features, effort=effort)
            for tile in TILE_SIZES:
                got = gpb_iw.predict_proba(
                    features, effort=effort, tile_size=tile, n_jobs=2
                )
                np.testing.assert_array_equal(got, reference)

    def test_variance_identical(self, gpb_iw, features):
        reference = gpb_iw.predict_variance(features, effort=1.5)
        got = gpb_iw.predict_variance(
            features, effort=1.5, tile_size=11, n_jobs=2
        )
        np.testing.assert_array_equal(got, reference)

    def test_gp_internal_tiling_identical(self, rng):
        """Tiles narrower than the GP's BLAS padding width stay exact."""
        X, y = make_blobs(rng, n_per_class=60)
        gp = GaussianProcessClassifier(rng=np.random.default_rng(0)).fit(X, y)
        proba0, var0 = gp.prediction_stats(X)
        for tile in (1, 3, 5, 64, 10**4):
            [(proba, var)] = predict_map([gp], X, tile_size=tile)
            np.testing.assert_array_equal(proba, proba0)
            np.testing.assert_array_equal(var, var0)
        np.testing.assert_array_equal(proba0, gp.predict_proba(X))
        np.testing.assert_array_equal(var0, gp.predict_variance(X))

    def test_per_level_fallback_routes_through_shared_stats(
        self, gpb_iw, features
    ):
        """The per-level reference mixing over one member pass equals the
        historical per-level ``predict_proba`` loop bit for bit."""
        grid = self.EFFORT_GRID
        legacy_risk = np.stack(
            [gpb_iw.predict_proba(features, effort=float(c)) for c in grid],
            axis=1,
        )
        legacy_risk[:, grid == 0.0] = 0.0
        risk, __, __ = per_level_effort_response(
            gpb_iw, gpb_iw.member_pass(features), grid
        )
        np.testing.assert_array_equal(risk, legacy_risk)
        # ... and with tiling on top, still identical.
        risk_tiled, __, __ = per_level_effort_response(
            gpb_iw, gpb_iw.member_pass(features, tile_size=9, n_jobs=2), grid
        )
        np.testing.assert_array_equal(risk_tiled, legacy_risk)


# ---------------------------------------------------------------------------
# RiskMapService: serve-time tiling + feature registration
# ---------------------------------------------------------------------------
class TestServiceTiling:
    def test_tiled_service_serves_identical_surfaces(self, gpb_iw, features):
        grid = np.linspace(0.0, 3.0, 5)
        plain = RiskMapService(gpb_iw, max_entries=0)
        tiled = RiskMapService(
            gpb_iw, max_entries=0, tile_size=16, n_jobs=3, backend="auto"
        )
        r0, n0 = plain.effort_response(features, grid)
        r1, n1 = tiled.effort_response(features, grid)
        np.testing.assert_array_equal(r0, r1)
        np.testing.assert_array_equal(n0, n1)

    def test_rejects_bad_serve_config(self, gpb_iw):
        with pytest.raises(ConfigurationError):
            RiskMapService(gpb_iw, tile_size=0)
        with pytest.raises(ConfigurationError):
            RiskMapService(gpb_iw, n_jobs=0)
        with pytest.raises(ConfigurationError):
            RiskMapService(gpb_iw, backend="fibers")


class TestFeatureRegistration:
    GRID = np.linspace(0.0, 3.0, 5)

    def test_token_queries_hit_the_cache(self, gpb_iw, features):
        service = RiskMapService(gpb_iw)
        token = service.register_features("park", features)
        r1, n1 = service.effort_response(token, self.GRID)
        r2, n2 = service.effort_response(token, self.GRID)
        assert service.hits == 1 and service.misses == 1
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(n1, n2)

    def test_token_and_array_queries_share_entries(self, gpb_iw, features):
        """Passing the registered array object keys by token, not content."""
        service = RiskMapService(gpb_iw)
        token = service.register_features("park", features)
        service.effort_response(token, self.GRID)
        service.effort_response(features, self.GRID)
        assert service.hits == 1 and service.misses == 1

    def test_token_matches_ad_hoc_result(self, gpb_iw, features):
        service = RiskMapService(gpb_iw)
        token = service.register_features("park", features)
        r_tok, n_tok = service.effort_response(token, self.GRID)
        r_adhoc, n_adhoc = service.effort_response(
            features.copy(), self.GRID
        )
        np.testing.assert_array_equal(r_tok, r_adhoc)
        np.testing.assert_array_equal(n_tok, n_adhoc)

    def test_unknown_token_rejected(self, gpb_iw):
        service = RiskMapService(gpb_iw)
        with pytest.raises(ConfigurationError):
            service.effort_response("nowhere", self.GRID)

    def test_mutating_registered_array_serves_stale_results(
        self, gpb_iw, features
    ):
        """The documented copy-or-reregister contract: the service keys the
        LRU by the registration-time hash, so in-place mutation is *not*
        detected — the stale cached surface comes back on a hit."""
        service = RiskMapService(gpb_iw)
        mutable = features.copy()
        token = service.register_features("park", mutable)
        before, __ = service.effort_response(token, self.GRID)
        mutable[:, -1] += 1.0
        stale, __ = service.effort_response(token, self.GRID)
        assert service.hits == 1
        np.testing.assert_array_equal(stale, before)

    def test_reregistering_after_mutation_refreshes(self, gpb_iw, features):
        service = RiskMapService(gpb_iw)
        mutable = features.copy()
        token = service.register_features("park", mutable)
        service.effort_response(token, self.GRID)
        mutable[:, -1] += 1.0
        token = service.register_features("park", mutable)
        fresh, __ = service.effort_response(token, self.GRID)
        assert service.misses == 2
        expected, __ = RiskMapService(gpb_iw, max_entries=0).effort_response(
            mutable, self.GRID
        )
        np.testing.assert_array_equal(fresh, expected)

    def test_ad_hoc_arrays_still_content_hash(self, gpb_iw, features):
        """Unregistered queries keep the old behaviour: equal content hits."""
        service = RiskMapService(gpb_iw)
        service.effort_response(features.copy(), self.GRID)
        service.effort_response(features.copy(), self.GRID)
        assert service.hits == 1 and service.misses == 1

    def test_risk_map_accepts_tokens(self, gpb_iw, features):
        service = RiskMapService(gpb_iw)
        token = service.register_features("park", features)
        got = service.risk_map(token, effort=2.0)
        np.testing.assert_array_equal(
            got, gpb_iw.predict_proba(features, effort=2.0)
        )
        service.risk_map(token, effort=2.0)
        assert service.hits == 1


# ---------------------------------------------------------------------------
# Serving a masked park: NaN off-park cells stay NaN, tiling changes nothing
# ---------------------------------------------------------------------------
class TestMaskedParkServe:
    def test_masked_cells_stay_nan_through_tiled_serve(
        self, park_split, masked_grid
    ):
        from repro.geo import box_filter

        predictor = _fit(park_split, "gpb")
        rng = np.random.default_rng(0)
        k = park_split.train.feature_matrix.shape[1]
        features = rng.random((masked_grid.n_cells, k))
        tiled = predictor.predict_proba(
            features, effort=2.0, tile_size=7, n_jobs=2
        )
        np.testing.assert_array_equal(
            tiled, predictor.predict_proba(features, effort=2.0)
        )
        raster = masked_grid.vector_to_raster(tiled)
        off_park = ~masked_grid.mask
        assert off_park.any()
        assert np.isnan(raster[off_park]).all()
        assert np.isfinite(raster[masked_grid.mask]).all()
        # Downstream smoothing keeps the mask: off-park cells neither
        # receive nor contribute values.
        smoothed = box_filter(raster, radius=1)
        assert np.isnan(smoothed[off_park]).all()
        assert np.isfinite(smoothed[masked_grid.mask]).all()
