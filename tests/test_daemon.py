"""Tests for the park-service daemon stack: admission, breakers, registry, HTTP.

The chaos-under-fault behavior (worker kills, corrupt hot-swaps, floods,
drain) lives in ``tests/test_chaos.py``; this module covers the sunny-day
contracts and the unit semantics of each new runtime piece.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.data import generate_dataset, get_profile
from repro.exceptions import (
    AdmissionError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    PersistenceError,
    ReproError,
)
from repro.runtime import faults
from repro.runtime.admission import AdmissionGate
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.daemon import ParkServiceDaemon
from repro.runtime.registry import ModelRegistry
from repro.runtime.resilience import Deadline

SEED = 0
SCALE = 0.4


@pytest.fixture(scope="module")
def park():
    return generate_dataset(get_profile("MFNP").scaled(SCALE), seed=SEED)


@pytest.fixture(scope="module")
def models_dir(park, tmp_path_factory):
    """A models root holding one tiny fitted MFNP model."""
    root = tmp_path_factory.mktemp("models")
    split = park.dataset.split_by_test_year(4)
    predictor = PawsPredictor(
        model="dtb", iware=True, n_classifiers=2, n_estimators=2, seed=5
    ).fit(split.train)
    predictor.save(root / "MFNP")
    return root


@pytest.fixture
def daemon(models_dir):
    d = ParkServiceDaemon(
        models_dir, port=0, default_deadline=30.0,
        registry_options={"n_jobs": 1},
    ).start()
    yield d
    d.close()


def strict_json(raw: bytes):
    """Parse a body as RFC 8259 JSON, which has no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} in body: {raw[:200]!r}")

    return json.loads(raw, parse_constant=reject)


def http_get(daemon, path, timeout=30.0):
    """(status, strictly parsed json body) for one GET against the daemon."""
    url = f"http://127.0.0.1:{daemon.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, strict_json(response.read())
    except urllib.error.HTTPError as error:
        return error.code, strict_json(error.read())


def http_post(daemon, path, timeout=60.0):
    url = f"http://127.0.0.1:{daemon.port}{path}"
    request = urllib.request.Request(url, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, strict_json(response.read())
    except urllib.error.HTTPError as error:
        return error.code, strict_json(error.read())


# ---------------------------------------------------------------------------
# AdmissionGate
# ---------------------------------------------------------------------------
class TestAdmissionGate:
    def test_validates_configuration(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(max_inflight=0)
        with pytest.raises(ConfigurationError):
            AdmissionGate(max_queue=-1)
        with pytest.raises(ConfigurationError):
            AdmissionGate(queue_wait=-0.1)

    def test_admits_up_to_limit_then_sheds(self):
        gate = AdmissionGate(max_inflight=2, max_queue=0, queue_wait=0.0)
        gate.acquire()
        gate.acquire()
        with pytest.raises(AdmissionError, match="queue is full"):
            gate.acquire()
        gate.release()
        gate.acquire()  # a freed slot admits again
        info = gate.info()
        assert info["admitted"] == 3
        assert info["shed_saturated"] == 1
        assert info["peak_inflight"] == 2

    def test_queued_request_admitted_on_release(self):
        gate = AdmissionGate(max_inflight=1, max_queue=1, queue_wait=5.0)
        gate.acquire()
        admitted = threading.Event()

        def waiter():
            gate.acquire(label="queued")
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert not admitted.wait(0.05)  # genuinely queued
        gate.release()
        assert admitted.wait(5.0)
        thread.join()
        assert gate.info()["peak_queued"] == 1

    def test_queue_timeout_sheds(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4, queue_wait=0.05)
        gate.acquire()
        with pytest.raises(AdmissionError, match="no admission slot freed"):
            gate.acquire()

    def test_deadline_expiry_while_queued_is_504_not_503(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4, queue_wait=10.0)
        gate.acquire()
        with pytest.raises(DeadlineExceededError, match="queued for admission"):
            gate.acquire(deadline=Deadline(0.05))

    def test_drain_sheds_new_and_queued_but_not_inflight(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4, queue_wait=10.0)
        gate.acquire()
        shed = threading.Event()

        def waiter():
            try:
                gate.acquire(label="queued")
            except AdmissionError:
                shed.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        gate.begin_drain()
        assert shed.wait(5.0)  # the queued waiter was shed by the drain
        thread.join()
        with pytest.raises(AdmissionError, match="draining"):
            gate.acquire()
        assert gate.inflight == 1  # in-flight work is untouched
        assert not gate.wait_idle(timeout=0.05)
        gate.release()
        assert gate.wait_idle(timeout=5.0)
        assert gate.info()["shed_draining"] == 2

    def test_context_manager_releases_on_error(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0, queue_wait=0.0)
        with pytest.raises(ValueError):
            with gate.admitted():
                raise ValueError("handler blew up")
        assert gate.inflight == 0
        gate.acquire()  # the slot came back


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_validates_configuration(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker("x", recovery_after=-1.0)

    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker("load:MFNP", failure_threshold=3,
                                 recovery_after=5.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state() == "closed"
        breaker.record_success()  # success resets the consecutive count
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state() == "open"
        assert not breaker.allow()
        with pytest.raises(CircuitOpenError, match="load:MFNP"):
            breaker.check()
        assert breaker.retry_after() == pytest.approx(5.0)

    def test_half_open_single_probe_then_recovery(self):
        clock = FakeClock()
        breaker = CircuitBreaker("b", failure_threshold=1,
                                 recovery_after=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 5.0
        assert breaker.state() == "half_open"
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # a second caller is still refused
        breaker.record_success()
        assert breaker.state() == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_full_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker("b", failure_threshold=3,
                                 recovery_after=5.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_failure()  # one probe failure re-opens immediately
        assert breaker.state() == "open"
        assert breaker.retry_after() == pytest.approx(5.0)

    def test_cancelled_probe_can_be_retaken(self):
        clock = FakeClock()
        breaker = CircuitBreaker("b", failure_threshold=1,
                                 recovery_after=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.0
        assert breaker.allow()
        breaker.cancel_probe()  # no evidence either way (e.g. cache hit)
        assert breaker.allow()  # the probe slot is free again

    def test_call_records_only_matching_exceptions(self):
        clock = FakeClock()
        breaker = CircuitBreaker("b", failure_threshold=1, clock=clock)
        with pytest.raises(ValueError):
            breaker.call(self._raise_value_error, trip_on=PersistenceError)
        assert breaker.state() == "closed"  # non-matching error: no trip
        with pytest.raises(PersistenceError):
            breaker.call(self._raise_persistence_error,
                         trip_on=PersistenceError)
        assert breaker.state() == "open"
        with pytest.raises(CircuitOpenError):
            breaker.call(self._raise_persistence_error,
                         trip_on=PersistenceError)

    @staticmethod
    def _raise_value_error():
        raise ValueError("unrelated")

    @staticmethod
    def _raise_persistence_error():
        raise PersistenceError("corrupt")


# ---------------------------------------------------------------------------
# ModelRegistry
# ---------------------------------------------------------------------------
class TestModelRegistry:
    def test_rejects_missing_models_dir(self, tmp_path):
        with pytest.raises(ConfigurationError, match="models_dir"):
            ModelRegistry(tmp_path / "nope")

    def test_discovers_and_lazily_loads(self, models_dir):
        registry = ModelRegistry(models_dir, n_jobs=1)
        assert registry.available() == ["MFNP"]
        assert registry.loaded() == []  # nothing loaded yet
        entry = registry.entry("MFNP")
        assert registry.loaded() == ["MFNP"]
        assert entry.version == 1
        assert registry.entry("MFNP") is entry  # cached, not reloaded
        assert registry.info()["loads"] == 1

    def test_unknown_park_is_configuration_error(self, models_dir):
        registry = ModelRegistry(models_dir, n_jobs=1)
        with pytest.raises(ConfigurationError, match="no saved model"):
            registry.entry("QENP")

    def test_reload_swaps_version_and_serves_identically(self, models_dir):
        registry = ModelRegistry(models_dir, n_jobs=1)
        before = registry.entry("MFNP")
        risk_before = before.risk_map(effort=1.5, seed=SEED, scale=SCALE)
        after = registry.reload("MFNP")
        assert after is not before
        assert after.version == 2
        assert registry.entry("MFNP") is after
        risk_after = after.risk_map(effort=1.5, seed=SEED, scale=SCALE)
        np.testing.assert_array_equal(risk_before, risk_after)

    def test_corrupt_reload_rejected_old_entry_keeps_serving(
        self, models_dir
    ):
        registry = ModelRegistry(models_dir, n_jobs=1)
        entry = registry.entry("MFNP")
        manifest_path = models_dir / "MFNP" / "manifest.json"
        original = manifest_path.read_text()
        arrays_name = json.loads(original)["arrays_file"]
        try:
            faults.flip_byte(models_dir / "MFNP" / arrays_name, seed=3)
            with pytest.raises(PersistenceError):
                registry.reload("MFNP")
        finally:
            # restore the artifact for other tests sharing the fixture
            faults.flip_byte(models_dir / "MFNP" / arrays_name, seed=3)
            manifest_path.write_text(original)
        assert registry.entry("MFNP") is entry  # the old model still serves
        assert registry.info()["rejected_reloads"] == 1
        entry.risk_map(effort=1.5, seed=SEED, scale=SCALE)

    def test_lru_eviction_respects_budget(self, models_dir, tmp_path):
        # A second park: reuse the same fitted artifacts under a new name
        # (in a private root, so the shared fixture stays single-park).
        import shutil

        root = tmp_path / "models"
        shutil.copytree(models_dir / "MFNP", root / "MFNP")
        shutil.copytree(models_dir / "MFNP", root / "QENP")
        registry = ModelRegistry(root, max_parks=1, n_jobs=1)
        registry.entry("MFNP")
        registry.entry("QENP")  # evicts MFNP
        assert registry.loaded() == ["QENP"]
        assert registry.info()["evictions"] == 1

    def test_evicted_contexts_are_unregistered(self, models_dir, park):
        entry = ModelRegistry(models_dir, n_jobs=1).entry("MFNP")
        n_seeds = entry.MAX_CONTEXTS + 3
        for seed in range(n_seeds):
            entry.install_context(seed, SCALE, park)
            entry.risk_map(effort=1.5, seed=seed, scale=SCALE)
        service = entry.service
        assert entry.stats()["contexts"] == entry.MAX_CONTEXTS
        assert len(service._registered) == entry.MAX_CONTEXTS
        assert len(service._passes) == entry.MAX_CONTEXTS
        assert service.cache_info()["member_passes"] == n_seeds

    def test_reload_serves_the_new_models_bits(self, park, tmp_path):
        root = tmp_path / "models"
        split = park.dataset.split_by_test_year(4)
        models = [
            PawsPredictor(
                model="dtb", iware=True, n_classifiers=2, n_estimators=2,
                seed=seed,
            ).fit(split.train)
            for seed in (5, 6)
        ]
        features = models[0].cell_feature_matrix(
            park.park, park.recorded_effort[-1]
        )
        models[0].save(root / "MFNP")
        registry = ModelRegistry(root, n_jobs=1)
        before = registry.entry("MFNP")
        before.install_context(SEED, SCALE, park)
        for effort in (0.5, 1.5):  # the second is served from the memo
            np.testing.assert_array_equal(
                before.risk_map(effort=effort, seed=SEED, scale=SCALE),
                models[0].predict_proba(features, effort=effort),
            )
        models[1].save(root / "MFNP")
        after = registry.reload("MFNP")
        new_bits = models[1].predict_proba(features, effort=1.5)
        old_bits = models[0].predict_proba(features, effort=1.5)
        assert not np.array_equal(new_bits, old_bits)
        np.testing.assert_array_equal(
            after.risk_map(effort=1.5, seed=SEED, scale=SCALE), new_bits
        )

    def test_repeated_load_failures_trip_the_load_breaker(self, tmp_path):
        root = tmp_path / "models"
        bad = root / "MFNP"
        bad.mkdir(parents=True)
        (bad / "manifest.json").write_text("{not json")
        registry = ModelRegistry(
            root, load_failure_threshold=2, load_recovery_after=60.0,
            n_jobs=1,
        )
        for _ in range(2):
            with pytest.raises(PersistenceError):
                registry.entry("MFNP")
        # breaker open: the corrupt artifact is no longer re-read at all
        with pytest.raises(CircuitOpenError, match="load:MFNP"):
            registry.entry("MFNP")
        assert registry.park_health()["MFNP"]["load_breaker"] == "open"
        assert registry.park_health()["MFNP"]["ok"] is False


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------
class TestDaemonHTTP:
    def test_ready_health_stats(self, daemon):
        status, body = http_get(daemon, "/ready")
        assert status == 200 and body["ready"] is True
        status, body = http_get(daemon, "/health")
        assert status == 200 and body["status"] == "ok"
        assert body["degraded_parks"] == []
        status, body = http_get(daemon, "/stats")
        assert status == 200
        assert set(body) == {"admission", "registry", "parks"}

    def test_riskmap_bit_identical_to_direct_call(self, daemon):
        status, body = http_get(
            daemon,
            f"/riskmap?park=MFNP&seed={SEED}&scale={SCALE}&effort=1.5",
        )
        assert status == 200
        entry = daemon.registry.entry("MFNP")
        direct = entry.service.risk_map(
            entry.context(SEED, SCALE).token, effort=1.5
        )
        # json round-trips float64 via repr: served == computed, bit for bit
        np.testing.assert_array_equal(np.array(body["risk"]), direct)

    def test_every_effort_is_served_from_one_member_pass(self, daemon, park):
        entry = daemon.registry.entry("MFNP")
        features = entry.context(SEED, SCALE).features
        for effort in (0.5, 1.0, 2.5):
            status, body = http_get(
                daemon,
                f"/riskmap?park=MFNP&seed={SEED}&scale={SCALE}&effort={effort}",
            )
            assert status == 200
            direct = entry.service.predictor.predict_proba(features, effort=effort)
            assert np.array(body["risk"]).tobytes() == direct.tobytes()
        status, body = http_get(daemon, "/stats")
        assert body["parks"]["MFNP"]["cache"]["member_passes"] == 1

    def test_plan_serves_routes_and_objective(self, daemon, park):
        post = int(park.park.patrol_posts[0])
        status, body = http_get(
            daemon,
            f"/plan?park=MFNP&seed={SEED}&scale={SCALE}"
            f"&post={post}&beta=0.5",
        )
        assert status == 200
        plan = body["plans"][str(post)]
        assert plan["beta"] == 0.5
        assert len(plan["coverage"]) == park.park.n_cells
        weights = [route["weight"] for route in plan["routes"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_park_404_lists_available(self, daemon):
        for route in ("/riskmap", "/plan"):
            status, body = http_get(daemon, f"{route}?park=YELLOWSTONE")
            assert status == 404
            assert body["kind"] == "ConfigurationError"
            assert body["available"] == ["MFNP"]

    def test_missing_park_param_400(self, daemon):
        for route in ("/riskmap", "/plan"):
            status, body = http_get(daemon, route)
            assert status == 400
            assert "park" in body["error"]
            assert body["kind"] == "ConfigurationError"
            assert body["available"] == ["MFNP"]

    def test_bad_deadline_values_400(self, daemon):
        for value in ("0", "-3", "banana"):
            status, body = http_get(daemon, f"/riskmap?park=MFNP&deadline={value}")
            assert status == 400, value
            assert "deadline" in body["error"]

    @pytest.mark.parametrize(
        "route,knob", [("/riskmap", "effort"), ("/plan", "beta")]
    )
    @pytest.mark.parametrize(
        "query",
        ["scale=nan", "scale=inf", "scale=1e308", "seed=-5", "{}=nan",
         "{}=inf"],
        ids=["scale-nan", "scale-inf", "scale-huge", "seed-negative",
             "knob-nan", "knob-inf"],
    )
    def test_hostile_query_values_are_typed_400s(
        self, daemon, route, knob, query
    ):
        """Non-finite floats, parks past the cell limit and negative seeds:
        a typed 400, never a 500 or a body holding NaN (``http_get`` parses
        strictly)."""
        status, body = http_get(
            daemon, f"{route}?park=MFNP&" + query.format(knob)
        )
        assert status == 400, body
        assert body["kind"] == "ConfigurationError"

    def test_unknown_route_404_lists_routes(self, daemon):
        for status, body in (
            http_get(daemon, "/nope"), http_post(daemon, "/riskmap")
        ):
            assert status == 404
            assert body["kind"] == "ConfigurationError"
            assert "/riskmap" in body["routes"]

    def test_unsupported_method_405_is_typed(self, daemon):
        # The HTTP skin only dispatches GET and POST; the router's 405
        # branch is reached directly.
        with pytest.raises(ReproError) as info:
            daemon._route("DELETE", "/riskmap", {})
        assert info.value.status == 405
        assert info.value.payload["kind"] == "ConfigurationError"
        assert "/riskmap" in info.value.payload["routes"]

    def test_reload_bumps_version(self, daemon):
        status, before = http_get(daemon, f"/riskmap?park=MFNP&scale={SCALE}")
        assert status == 200
        status, body = http_post(daemon, "/models/MFNP/reload")
        assert status == 200
        assert body["version"] == before["version"] + 1
        status, after = http_get(daemon, f"/riskmap?park=MFNP&scale={SCALE}")
        assert status == 200
        assert after["version"] == body["version"]
        assert after["risk"] == before["risk"]  # same model bytes, same map

    def test_reload_unknown_park_404(self, daemon):
        status, body = http_post(daemon, "/models/YELLOWSTONE/reload")
        assert status == 404
        assert body["kind"] == "ConfigurationError"
        assert body["available"] == ["MFNP"]

    def test_drain_flips_ready_and_health(self, daemon):
        stats = daemon.drain()
        assert stats["admission"]["draining"] is True
        assert daemon.drain() is stats  # idempotent: same final snapshot

    def test_rejects_nonpositive_default_deadline(self, models_dir):
        with pytest.raises(ConfigurationError, match="default_deadline"):
            ParkServiceDaemon(models_dir, default_deadline=0.0)
