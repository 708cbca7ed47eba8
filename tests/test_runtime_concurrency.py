"""Concurrency regressions for the ``@thread_shared`` services.

The contract under test (``repro.runtime.concurrency``, enforced
statically by analyzer rule RP004): every class decorated
``@thread_shared`` mutates its private state only under ``self._lock``,
so a daemon may share one :class:`RiskMapService` / :class:`PlanService`
/ :class:`PatrolMILP` across request threads. These tests hammer the
caches from barrier-synchronised threads and pin three properties:

* results are bit-identical to the serial path (caching must never
  change numbers, raced or not);
* counters and cache sizes stay consistent (no lost updates);
* racing cold lookups converge on one incumbent entry (planner registry
  and MILP structure cache hand every caller the same object).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.data import MFNP, generate_dataset
from repro.exceptions import ConfigurationError
from repro.planning.service import PlanService
from repro.runtime import RiskMapService, thread_shared, thread_shared_classes

SMALL = MFNP.scaled(0.4)
PLANNER_KW = dict(horizon=6, n_patrols=2, n_segments=4)
N_THREADS = 8


@pytest.fixture(scope="module")
def setup():
    data = generate_dataset(SMALL, seed=0)
    split = data.dataset.split_by_test_year(SMALL.years - 1)
    predictor = PawsPredictor(
        model="dtb", iware=True, n_classifiers=3, seed=1
    ).fit(split.train)
    features = predictor.cell_feature_matrix(data.park, data.recorded_effort[-1])
    return data, predictor, features


def run_threads(n, fn):
    """Run ``fn(i)`` on n threads released together; return results in order."""
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = []

    def worker(i):
        try:
            barrier.wait()
            results[i] = fn(i)
        except BaseException as exc:  # surfaced below, never swallowed
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


# ---------------------------------------------------------------------------
# The decorator itself
# ---------------------------------------------------------------------------
class TestThreadSharedDecorator:
    def test_missing_lock_is_rejected_at_construction(self):
        @thread_shared
        class Careless:
            def __init__(self):
                self.value = 0

        with pytest.raises(ConfigurationError, match="_lock"):
            Careless()

    def test_lock_carrying_class_constructs(self):
        @thread_shared
        class Careful:
            def __init__(self):
                self._lock = threading.Lock()

        assert isinstance(Careful(), Careful)

    def test_services_are_registered(self):
        registered = thread_shared_classes()
        for name in (
            "repro.runtime.service.RiskMapService",
            "repro.planning.service.PlanService",
            "repro.planning.milp.PatrolMILP",
        ):
            assert name in registered


# ---------------------------------------------------------------------------
# RiskMapService: LRU cache + feature registry under contention
# ---------------------------------------------------------------------------
class TestRiskMapServiceHammer:
    EFFORTS = [None, 0.0, 0.5, 1.0, 1.5, 2.0]

    def test_concurrent_risk_maps_bit_identical_to_serial(self, setup):
        __, predictor, features = setup
        serial = {
            e: RiskMapService(predictor).risk_map(features, effort=e)
            for e in self.EFFORTS
        }
        service = RiskMapService(predictor)

        def query(i):
            # each thread walks every effort level, phase-shifted so both
            # cold misses and warm hits race on every key
            return [
                service.risk_map(features, effort=e)
                for e in self.EFFORTS[i % len(self.EFFORTS):]
                + self.EFFORTS[: i % len(self.EFFORTS)]
            ]

        results = run_threads(N_THREADS, query)
        for i, maps in enumerate(results):
            order = (
                self.EFFORTS[i % len(self.EFFORTS):]
                + self.EFFORTS[: i % len(self.EFFORTS)]
            )
            for e, got in zip(order, maps):
                np.testing.assert_array_equal(got, serial[e])

    def test_counters_and_size_consistent_after_hammer(self, setup):
        __, predictor, features = setup
        service = RiskMapService(predictor, max_entries=4)
        calls_per_thread = len(self.EFFORTS)

        def query(i):
            for e in self.EFFORTS:
                service.risk_map(features, effort=e)

        run_threads(N_THREADS, query)
        info = service.cache_info()
        # no lost counter updates, and eviction respected the bound
        assert info["hits"] + info["misses"] == N_THREADS * calls_per_thread
        assert info["entries"] <= 4
        # distinct keys exceed capacity, so at least one eviction-driven miss
        assert info["misses"] >= len(self.EFFORTS)

    def test_concurrent_registration_is_consistent(self, setup):
        __, predictor, features = setup
        service = RiskMapService(predictor)

        def register(i):
            token = service.register_features(f"park-{i}", features.copy())
            return token, service.risk_map(token, effort=1.0)

        results = run_threads(N_THREADS, register)
        tokens = [token for token, __ in results]
        assert sorted(tokens) == sorted(f"park-{i}" for i in range(N_THREADS))
        reference = results[0][1]
        for __, risk in results[1:]:
            np.testing.assert_array_equal(risk, reference)


# ---------------------------------------------------------------------------
# PlanService: planner registry races converge on one instance
# ---------------------------------------------------------------------------
class TestPlanServiceHammer:
    @pytest.fixture()
    def service(self, setup):
        data, predictor, __ = setup
        return PlanService(
            RiskMapService(predictor),
            data.park.grid,
            data.park.patrol_posts,
            **PLANNER_KW,
        )

    def test_cold_planner_race_yields_one_instance(self, setup, service):
        data, __, ___ = setup
        post = int(data.park.patrol_posts[0])

        planners = run_threads(N_THREADS, lambda i: service.planner_for(post))
        assert all(p is planners[0] for p in planners)
        assert len(service._planners) == 1

    def test_concurrent_plans_match_serial(self, setup, service):
        data, predictor, features = setup
        posts = [int(p) for p in data.park.patrol_posts[:2]]
        serial_service = PlanService(
            RiskMapService(predictor),
            data.park.grid,
            data.park.patrol_posts,
            **PLANNER_KW,
        )
        serial = {
            post: serial_service.plan_post(post, features, beta=0.5)
            for post in posts
        }

        plans = run_threads(
            len(posts) * 2,
            lambda i: (posts[i % 2], service.plan_post(posts[i % 2], features, beta=0.5)),
        )
        for post, plan in plans:
            expected = serial[post]
            assert plan.objective_value == expected.objective_value
            np.testing.assert_array_equal(plan.coverage, expected.coverage)
            np.testing.assert_array_equal(
                plan.solution.edge_flows, expected.solution.edge_flows
            )


# ---------------------------------------------------------------------------
# PatrolMILP: structure cache races converge on the incumbent
# ---------------------------------------------------------------------------
class TestMilpStructureHammer:
    def test_racing_builds_share_incumbent_structure(self, setup):
        data, predictor, features = setup
        service = PlanService(
            RiskMapService(predictor),
            data.park.grid,
            data.park.patrol_posts,
            **PLANNER_KW,
        )
        post = int(data.park.patrol_posts[0])
        planner = service.planner_for(post)
        objective = service.objective_for(features, beta=0.5)
        utilities = planner._utilities_from_objective(objective, 0.5)
        milp = planner._milp

        structures = run_threads(
            N_THREADS, lambda i: milp.build_structure(utilities)
        )
        # every caller — including the one that built it — holds the incumbent
        assert all(s is structures[0] for s in structures)
        info = milp.structure_cache_info()
        assert info["entries"] == 1
        assert info["hits"] + info["misses"] == N_THREADS
        assert info["misses"] >= 1
