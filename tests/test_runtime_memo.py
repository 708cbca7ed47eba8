"""The member-pass memo of ``RiskMapService``: one pass, every effort.

Effort only decides which iWare-E members vote, so the service keeps one
member pass per registered feature set and answers every later cache miss
with a mix over it. These tests pin the contract:

* served maps and surfaces equal the uncached ``PawsPredictor`` calls bit
  for bit — every weak learner, iWare-E on and off, plain and balanced, at
  every tile size and on thread and process pools;
* one registration runs exactly one pass, whatever efforts and grids follow,
  and a negative effort is refused before any lookup or pass;
* a deadline overrun memoizes nothing, and re-registering, unregistering
  and ``clear_cache`` each drop the pass;
* each cached ``effort_response`` restores the scaler its own compute
  fitted, even when computes over different feature sets race.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.core import predictor as predictor_module
from repro.core.uncertainty import UncertaintyScaler
from repro.data import MFNP, generate_dataset
from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.runtime import RiskMapService

SMALL = MFNP.scaled(0.4)
EFFORTS = (None, 0.0, 0.5, 1.5, 4.0)
GRIDS = (np.array([0.0, 0.5, 1.0, 2.0, 4.0]), np.array([0.0, 1.5, 3.0]))
#: (tile_size, n_jobs, backend) of each service under test.
SERVING = ((None, 1, "auto"), (1, 1, "auto"), (7, 2, "thread"), (7, 2, "process"))
MODELS = [
    (model, iware, balanced)
    for model in ("gpb", "dtb", "svb")
    for iware in (True, False)
    for balanced in (False, True)
]


@pytest.fixture(scope="module")
def park():
    data = generate_dataset(SMALL, seed=0)
    split = data.dataset.split_by_test_year(SMALL.years - 1)
    features = PawsPredictor.cell_feature_matrix(
        data.park, data.recorded_effort[-1]
    )
    return split.train, features


def fit(train, model="gpb", iware=True, balanced=False):
    return PawsPredictor(
        model=model, iware=iware, balanced=balanced, n_classifiers=3,
        n_estimators=2, gp_max_points=60, seed=4,
    ).fit(train)


@pytest.fixture(scope="module")
def gpb(park):
    return fit(park[0])


@pytest.mark.parametrize("model,iware,balanced", MODELS)
def test_served_bits_equal_uncached_predictor(park, model, iware, balanced):
    train, features = park
    predictor = fit(train, model, iware, balanced)
    X = features[:40]
    maps = {e: predictor.predict_proba(X, effort=e) for e in EFFORTS}
    surfaces = [predictor.effort_response(X, grid) for grid in GRIDS]
    for tile_size, n_jobs, backend in SERVING:
        service = RiskMapService(
            predictor, tile_size=tile_size, n_jobs=n_jobs, backend=backend
        )
        token = service.register_features("park", X)
        for effort, direct in maps.items():
            served = service.risk_map(token, effort=effort)
            assert served.tobytes() == direct.tobytes(), (tile_size, effort)
        for grid, (risk, nu) in zip(GRIDS, surfaces):
            served_risk, served_nu = service.effort_response(token, grid)
            assert served_risk.tobytes() == risk.tobytes(), (tile_size, grid)
            assert served_nu.tobytes() == nu.tobytes(), (tile_size, grid)
        assert service.cache_info()["member_passes"] == 1


def test_one_registration_runs_one_pass(gpb, park):
    service = RiskMapService(gpb)
    token = service.register_features("park", park[1])
    for effort in np.linspace(0.0, 5.0, 20):
        service.risk_map(token, effort=float(effort))
    for grid in GRIDS:
        service.effort_response(token, grid)
    info = service.cache_info()
    assert info["misses"] == 22 and info["member_passes"] == 1


def test_negative_effort_refused_before_cache_and_pass(gpb, park):
    """A negative hypothesised effort is a ConfigurationError wherever an
    effort or grid enters; the service refuses it before any cache lookup
    or member pass."""
    features = park[1]
    service = RiskMapService(gpb)
    token = service.register_features("park", features)
    with pytest.raises(ConfigurationError, match="effort"):
        service.risk_map(token, effort=-3.0)
    with pytest.raises(ConfigurationError, match="effort"):
        service.effort_response(token, np.array([-0.5, 0.0, 1.0]))
    info = service.cache_info()
    assert info["hits"] == info["misses"] == info["member_passes"] == 0
    per_cell = np.full(features.shape[0], 1.0)
    per_cell[3] = -1e-9
    for effort in (-0.5, per_cell):
        for call in (gpb.predict_proba, gpb.predict_variance):
            with pytest.raises(ConfigurationError, match="effort"):
                call(features, effort=effort)
    with pytest.raises(ConfigurationError, match="effort"):
        gpb.effort_response(features, np.array([-1.0, 1.0]))


def test_unregistered_arrays_and_disabled_cache_keep_no_pass(gpb, park):
    features = park[1]
    ad_hoc = RiskMapService(gpb)
    ad_hoc.risk_map(features, effort=1.0)
    ad_hoc.risk_map(features, effort=2.0)
    uncached = RiskMapService(gpb, max_entries=0)
    token = uncached.register_features("park", features)
    uncached.risk_map(token, effort=1.0)
    uncached.risk_map(token, effort=1.0)
    assert ad_hoc.cache_info()["member_passes"] == 2
    assert uncached.cache_info()["member_passes"] == 2


def test_deadline_overrun_memoizes_nothing(gpb, park):
    service = RiskMapService(gpb)
    token = service.register_features("park", park[1])
    with pytest.raises(DeadlineExceededError):
        service.risk_map(token, effort=1.5, deadline=1e-6)
    info = service.cache_info()
    assert info["member_passes"] == 0 and info["entries"] == 0
    np.testing.assert_array_equal(
        service.risk_map(token, effort=1.5), gpb.predict_proba(park[1], effort=1.5)
    )
    assert service.cache_info()["member_passes"] == 1


def test_registration_changes_and_clear_cache_drop_the_pass(gpb, park):
    features = park[1]
    service = RiskMapService(gpb)
    token = service.register_features("park", features)
    service.risk_map(token, effort=1.0)
    shifted = features.copy()
    shifted[:, -1] += 1.0  # a different previous-period effort
    service.register_features("park", shifted)
    np.testing.assert_array_equal(
        service.risk_map(token, effort=1.0), gpb.predict_proba(shifted, effort=1.0)
    )
    assert service.cache_info()["member_passes"] == 2
    service.unregister_features("park")
    with pytest.raises(ConfigurationError, match="no features registered"):
        service.risk_map(token, effort=2.0)
    service.register_features("park", features)
    service.risk_map(token, effort=2.0)
    assert service.cache_info()["member_passes"] == 3
    service.clear_cache()
    service.risk_map(token, effort=3.0)
    assert service.cache_info()["member_passes"] == 4


class _SlowScaler(UncertaintyScaler):
    """Sleeps between fitting and squashing, widening any scaler race."""

    def transform(self, raw_variances):
        time.sleep(0.005)
        return super().transform(raw_variances)


def test_cached_scalers_survive_racing_feature_sets(gpb, park, monkeypatch):
    """Each hit restores the scaler of its own compute, not a racer's."""
    features = park[1]
    feature_sets = (features, np.ascontiguousarray(features[::-1] * 1.5))
    grid = GRIDS[0]
    expected = []
    for X in feature_sets:
        gpb.effort_response(X, grid)
        expected.append(vars(gpb.uncertainty_scaler).copy())
    assert expected[0] != expected[1]
    monkeypatch.setattr(predictor_module, "UncertaintyScaler", _SlowScaler)
    service = RiskMapService(gpb)
    n_threads = 8
    for __ in range(3):
        service.clear_cache()
        barrier = threading.Barrier(n_threads)
        errors = []

        def query(i):
            try:
                barrier.wait()
                service.effort_response(feature_sets[i % 2], grid)
            except BaseException as exc:  # surfaced below, never swallowed
                errors.append(exc)

        threads = [
            threading.Thread(target=query, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for X, scaler in zip(feature_sets, expected):
            service.effort_response(X, grid)  # a hit
            assert vars(gpb.uncertainty_scaler) == scaler
