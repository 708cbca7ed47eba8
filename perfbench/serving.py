"""The serving workloads: riskmap-hot, riskmap-cold and plan.

Each run spawns `repro serve` :data:`SETUP_SAMPLES` times, timing every
set-up from the spawn to the end of warm-up, and keeps the last daemon for
the timed phases. All load comes from this process over at most ``nproc``
persistent connections. Outputs are checked after the timed phases: a
seeded sample of served bodies against direct library calls on the same
commit, and ``/stats`` against the counters a healthy run must show.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from client import (
    Connection,
    closed_loop,
    latencies_ms,
    open_loop,
    percentile,
)
from daemon import Daemon, DaemonError, vmhwm_mb

PARKS = ("MFNP", "QENP", "SWS")
COLD_PARKS = ("MFNP", "QENP")
HOT_EFFORTS = (0.5, 1.0, 2.0, 4.0)
HOT_KEYS = tuple(
    f"/riskmap?park={park}&effort={effort!r}"
    for park in PARKS for effort in HOT_EFFORTS
)
#: Load never uses more connections than usable cores (2 on the reference host).
CONNECTIONS = max(1, min(2, len(os.sched_getaffinity(0))))
#: Daemon set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 2
#: riskmap-hot phase 1: Poisson arrivals at this rate for this share of the run.
HOT_RATE = 20.0
HOT_OPEN_SHARE = 0.8
#: The open loop is invalid when its generator ran this late (ms).
LATENESS_P90_LIMIT_MS = 5.0
LATENESS_MAX_LIMIT_MS = 50.0
#: Beta of the plan warm-up (one all-posts plan per park).
PLAN_WARM_BETA = 0.5
#: Bodies kept per timed phase for the output check.
CHECKED_BODIES = 4
#: Seed of the fixed plan-quality keys (independent of the workload seed).
QUALITY_SEED = 2020
#: Status given to a served answer that failed its output check.
MISMATCH = -1


@dataclass
class Phase:
    """One timed phase: its samples and window."""

    name: str
    samples: list
    start: float
    stop: float
    from_due: bool
    lateness_ms: list = field(default_factory=list)

    @property
    def ok(self) -> list:
        return [s for s in self.samples if s.ok]

    def latencies(self) -> list[float]:
        return latencies_ms(self.samples, self.from_due)

    def rps(self) -> float:
        done = [s for s in self.ok if s.done <= self.stop]
        return len(done) / (self.stop - self.start)

    @property
    def end(self) -> float:
        return max((s.done for s in self.samples), default=self.stop)


@dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    metrics: dict
    attempted: int
    failed: int
    notes: list
    record: dict
    #: Traced runs: what the per-layer breakdown reads, and what it gave.
    layers_input: dict | None = None
    layers: dict | None = None
    layer_detail: dict | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and "invalid" not in self.record


class Requests:
    """Request paths drawn on demand from one seeded stream, in index order."""

    def __init__(self, draw):
        self._draw = draw
        self._paths: list[str] = []
        self._lock = threading.Lock()

    def __call__(self, index: int) -> str:
        with self._lock:
            while len(self._paths) <= index:
                self._paths.append(self._draw())
            return self._paths[index]


class Reference:
    """Direct library calls on the same commit: the output checks' oracle."""

    def __init__(self, models_dir: Path):
        self.models_dir = models_dir
        self._parks: dict = {}

    def park(self, name: str):
        if name not in self._parks:
            from repro.planning.service import PlanService
            from repro.runtime.service import RiskMapService

            # generate_dataset(profile, seed=0) of this source tree, stored
            # by the build next to the models (this process wrote it).
            with open(self.models_dir / f"{name}.data.pickle", "rb") as handle:
                data = pickle.load(handle)
            service = RiskMapService.from_saved(self.models_dir / name)
            features = service.predictor.cell_feature_matrix(
                data.park, data.recorded_effort[-1]
            )
            planner = PlanService(service, data.park.grid, data.park.patrol_posts)
            self._parks[name] = (data, service, features, planner)
        return self._parks[name]

    def risk_map(self, park: str, effort: float) -> np.ndarray:
        __, service, features, __ = self.park(park)
        return service.risk_map(features, effort=effort)

    def plan(self, park: str, post: int, beta: float):
        __, __, features, planner = self.park(park)
        return planner.plan_post(post, features, beta=beta)

    def auc(self, park: str) -> float:
        data, service, __, __ = self.park(park)
        profile = data.park.profile
        split = data.dataset.split_by_test_year(profile.years - 1)
        return service.predictor.evaluate_auc(split.test)


def _query(path: str) -> dict:
    route, __, query = path.partition("?")
    return dict(part.split("=", 1) for part in query.split("&"))


def _same_bits(served, direct) -> bool:
    served = np.asarray(served, dtype=float)
    direct = np.asarray(direct, dtype=float)
    return served.shape == direct.shape and served.tobytes() == direct.tobytes()


def check_riskmap(reference: Reference, path: str, body: bytes) -> str | None:
    """``None`` when the served map equals the direct call bit for bit."""
    query = _query(path)
    payload = json.loads(body)
    direct = reference.risk_map(query["park"], float(query["effort"]))
    if payload.get("park") != query["park"]:
        return f"{path}: served park {payload.get('park')!r}"
    if payload.get("n_cells") != direct.shape[0]:
        return f"{path}: n_cells {payload.get('n_cells')} != {direct.shape[0]}"
    if not _same_bits(payload["risk"], direct):
        return f"{path}: risk map differs from RiskMapService.risk_map"
    return None


def check_plan(reference: Reference, path: str, body: bytes) -> str | None:
    """``None`` when the served plan equals a direct ``plan_post``."""
    query = _query(path)
    post = int(query["post"])
    payload = json.loads(body)["plans"][str(post)]
    direct = reference.plan(query["park"], post, float(query["beta"]))
    if payload["objective_value"] != float(direct.objective_value):
        return f"{path}: objective {payload['objective_value']} != {direct.objective_value}"
    if not _same_bits(payload["coverage"], direct.coverage):
        return f"{path}: coverage differs from PlanService.plan_post"
    routes = [(r["cells"], r["weight"]) for r in payload["routes"]]
    expected = [([int(c) for c in r.cells], float(r.weight)) for r in direct.routes]
    if routes != expected:
        return f"{path}: routes differ from PlanService.plan_post"
    if payload["method"] != direct.solution.method:
        return f"{path}: method {payload['method']} != {direct.solution.method}"
    return None


def check_stats(stats: dict) -> list[str]:
    """What a healthy serving run's ``/stats`` must show."""
    problems = []
    admission = stats["admission"]
    shed = admission["shed_saturated"] + admission["shed_draining"]
    if shed:
        problems.append(f"{shed} requests shed")
    registry = stats["registry"]
    if registry["loads"] != len(PARKS):
        problems.append(f"{registry['loads']} model loads, expected {len(PARKS)}")
    if registry["evictions"]:
        problems.append(f"{registry['evictions']} registry evictions")
    for park, entry in stats["parks"].items():
        for source in ("resilience", "plan_resilience"):
            counters = entry.get(source) or {}
            for key in ("retries", "worker_deaths", "degradations",
                        "pickle_fallbacks", "deadline_exceeded"):
                if counters.get(key):
                    problems.append(f"{park} {source} {key}={counters[key]}")
    return problems


def _get_json(conn: Connection, path: str) -> dict:
    status, body = conn.get(path)
    if status != 200:
        raise DaemonError(f"GET {path} answered {status}")
    return json.loads(body)


class ServingRun:
    """Set-up, timed phases and checks of one serving workload run."""

    def __init__(self, workload: str, root: Path, models_dir: Path,
                 workdir: Path, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.root = root
        self.models_dir = models_dir
        self.workdir = workdir
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.posts: dict[str, list[int]] = {}

    # -- set-up ---------------------------------------------------------
    def _warm_up(self, conn: Connection) -> None:
        if self.workload == "plan":
            paths = [f"/plan?park={p}&beta={PLAN_WARM_BETA!r}" for p in PARKS]
        else:
            paths = list(HOT_KEYS)
        for path in paths:
            status, body = conn.get(path)
            self._count(status == 200, f"warm-up {path} answered {status}")
            if status == 200 and self.workload == "plan":
                park = _query(path)["park"]
                self.posts[park] = sorted(int(p) for p in json.loads(body)["plans"])

    def _count(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {problem}")

    def set_up(self) -> tuple[Daemon, list[float], tuple[float, float]]:
        """Time every set-up; the last daemon stays up for the timed phases."""
        setups = []
        daemon = None
        for sample in range(SETUP_SAMPLES):
            if daemon is not None:
                code = daemon.stop()
                self._count(code == 0, f"set-up daemon exited {code}")
            spans_out = (self.workdir / f"spans-{sample}.json") if self.trace else None
            daemon = Daemon(self.root, self.models_dir, self.workdir, spans_out)
            conn = Connection(daemon.port)
            try:
                self._warm_up(conn)
            except BaseException:
                daemon.kill()
                raise
            finally:
                conn.close()
            warm_end = time.monotonic()
            setups.append(warm_end - daemon.spawned)
        return daemon, setups, (daemon.spawned, warm_end)

    # -- request sequences (derived only from the seed) -----------------
    def _stream(self, purpose: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, purpose])

    def _hot_draw(self, rng):
        return lambda: HOT_KEYS[int(rng.integers(len(HOT_KEYS)))]

    def _cold_draw(self, rng):
        # The parks alternate so every run serves the same mix; the efforts
        # come from the seed and never repeat.
        seen = set(HOT_EFFORTS)
        parks = itertools.cycle(COLD_PARKS)

        def draw():
            effort = float(5.0 - rng.uniform(0.0, 5.0))  # (0, 5]
            while effort in seen:
                effort = float(5.0 - rng.uniform(0.0, 5.0))
            seen.add(effort)
            return f"/riskmap?park={next(parks)}&effort={effort!r}"

        return draw

    def _plan_draw(self, rng):
        keys = [(park, post) for park in PARKS for post in self.posts[park]]

        def draw():
            park, post = keys[int(rng.integers(len(keys)))]
            beta = float(rng.uniform(0.0, 1.0))
            return f"/plan?park={park}&post={post}&beta={beta!r}"

        return draw

    def _keep(self, purpose: int, limit: int):
        rng = self._stream(purpose)
        chosen = set(rng.choice(limit, size=CHECKED_BODIES, replace=False).tolist())
        return chosen.__contains__

    # -- timed phases ---------------------------------------------------
    def timed(self, port: int, before_last) -> list[Phase]:
        """The timed phases; ``before_last()`` runs just before the last one."""
        conns = [Connection(port) for __ in range(CONNECTIONS)]
        for conn in conns:  # open the connections outside the timed window
            status, __ = conn.get("/ready")
            self._count(status == 200, f"/ready answered {status}")
        try:
            return self._phases(conns, before_last)
        finally:
            for conn in conns:
                conn.close()

    def _phases(self, conns, before_last) -> list[Phase]:
        if self.workload == "riskmap-hot":
            open_seconds = self.seconds * HOT_OPEN_SHARE
            rng = self._stream(1)
            gaps = rng.exponential(1.0 / HOT_RATE, size=int(HOT_RATE * open_seconds * 3))
            offsets = np.cumsum(gaps)
            draw = self._hot_draw(rng)
            schedule = [(float(t), draw()) for t in offsets[offsets < open_seconds]]
            samples, lateness, start = open_loop(
                conns, schedule, self._keep(2, len(schedule))
            )
            phase1 = Phase("open", samples, start, start + open_seconds, True,
                           [x * 1000.0 for x in lateness])
            before_last()
            samples, start, stop = closed_loop(
                conns, Requests(self._hot_draw(self._stream(3))),
                self.seconds - open_seconds, self._keep(4, 100),
            )
            return [phase1, Phase("closed", samples, start, stop, False)]
        if self.workload == "riskmap-cold":
            requests, keep = Requests(self._cold_draw(self._stream(1))), self._keep(2, 40)
        else:
            requests, keep = Requests(self._plan_draw(self._stream(1))), self._keep(2, 100)
        before_last()
        samples, start, stop = closed_loop(conns, requests, self.seconds, keep)
        return [Phase("closed", samples, start, stop, False)]

    # -- the whole run --------------------------------------------------
    def run(self) -> Result:
        daemon, setups, setup_window = self.set_up()
        try:
            admin = Connection(daemon.port)
            stats = []
            phases = self.timed(
                daemon.port, lambda: stats.append(_get_json(admin, "/stats"))
            )
            stats.append(_get_json(admin, "/stats"))
            admin.close()
            rss_mb = vmhwm_mb(daemon.proc.pid)
        except BaseException:
            daemon.kill()
            raise
        code = daemon.stop()
        self._count(code == 0, f"daemon exited {code} after SIGTERM")
        problems = check_stats(stats[-1])
        self._count(not problems, f"/stats: {'; '.join(problems)}")
        return self._result(daemon, setups, setup_window, phases, stats, rss_mb)

    def _result(self, daemon, setups, setup_window, phases, stats, rss_mb) -> Result:
        reference = Reference(self.models_dir)
        check = check_plan if self.workload == "plan" else check_riskmap
        checked = 0
        for phase in phases:
            for s in phase.samples:
                if s.body is None or not s.ok:
                    continue
                problem = check(reference, s.path, s.body)
                checked += 1
                if problem is not None:
                    s.status = MISMATCH  # a wrong answer misses every limit
                    self.notes.append(f"FAILED: mismatch: {problem}")
        if checked == 0:
            self._count(False, "no served body was checked")
        self.notes.append(f"checked {checked} served bodies against direct calls")
        for phase in phases:
            self.attempted += len(phase.samples)
            bad = [s for s in phase.samples if not s.ok]
            self.failed += len(bad)
            for s in bad[:3]:
                if s.status != MISMATCH:
                    self.notes.append(f"FAILED: {s.path} answered {s.status}")

        if self.workload == "plan":
            quality = self._plan_utility(reference)
        else:
            parks = PARKS if self.workload == "riskmap-hot" else COLD_PARKS
            quality = float(np.mean([reference.auc(p) for p in parks]))

        latency_phase = phases[0]
        rate_phase = phases[-1]
        lat = latency_phase.latencies()
        metrics = {
            "setup_s": float(np.median(setups)),
            "p50_ms": percentile(lat, 50),
            "p90_ms": percentile(lat, 90),
            "rps": rate_phase.rps(),
            "peak_rss_mb": rss_mb,
            "quality": quality,
        }
        record = {
            "setups_s": setups,
            "phases": [
                {"name": p.name, "requests": len(p.samples),
                 "ok": len(p.ok), "seconds": p.stop - p.start,
                 "p50_ms": percentile(p.latencies(), 50),
                 "p90_ms": percentile(p.latencies(), 90),
                 "rps": p.rps(), "from_due_time": p.from_due}
                for p in phases
            ],
        }
        self.notes.append(
            f"latency from {len(lat)} requests"
            f" ({sum(1 for x in lat if x > metrics['p90_ms'])} beyond p90)"
        )
        if latency_phase.lateness_ms:
            late = latency_phase.lateness_ms
            record["generator_lateness_ms"] = {
                "p90": percentile(late, 90), "max": max(late)
            }
            self.notes.append(
                f"open-loop generator lateness p90 {percentile(late, 90):.3f} ms,"
                f" max {max(late):.3f} ms"
            )
            if percentile(late, 90) > LATENESS_P90_LIMIT_MS or max(late) > LATENESS_MAX_LIMIT_MS:
                record["invalid"] = "the open-loop generator fell behind its schedule"
                del metrics["p50_ms"], metrics["p90_ms"]
        layers_input = None
        if self.trace:
            window = rate_phase
            layers_input = {
                "spans": daemon.spans_out,
                "setup_window": setup_window,
                "timed_window": (window.start, window.end),
                "client_ms": [
                    (s.done - s.sent) * 1000.0 for s in window.ok
                ],
                "stats_before": stats[-2],
                "stats_after": stats[-1],
            }
        return Result(self.workload, metrics, self.attempted, self.failed,
                      self.notes, record, layers_input)

    def _plan_utility(self, reference: Reference) -> float:
        rng = np.random.default_rng(QUALITY_SEED)
        values = []
        for park in PARKS:
            for post in self.posts[park]:
                beta = float(rng.uniform(0.0, 1.0))
                values.append(float(reference.plan(park, post, beta).objective_value))
        return float(np.mean(values))
