"""Per-layer metrics from a traced run's spans (see ``spec.PER_LAYER``)."""

from __future__ import annotations

import json
from collections import defaultdict

from spec import PER_LAYER, SELF_TIME_METRICS

DATA_ROUTES = ("/riskmap", "/plan")
METHODS = ("lp", "lp-envelope", "milp-partial", "milp")


class Spans:
    """Spans loaded from a :meth:`spans.Tracer.dump` file."""

    def __init__(self, path):
        with open(path) as handle:
            doc = json.load(handle)
        self.rows = doc["spans"]
        self.counts = doc["counts"]
        self.statuses = doc["statuses"]
        self.main_thread = doc.get("main_thread")

    def started_in(self, window) -> list:
        t0, t1 = window
        return [row for row in self.rows if t0 <= row[4] <= t1]


#: Set-up metrics: the spans whose self time they add up over the set-up.
SETUP_SPANS = {
    "registry.setup_ms": ("registry.entry", "registry.context"),
    "persistence.load_ms": ("persistence.load",),
    "data.generate_ms": ("data.generate",),
    "geo.park_ms": ("geo.park",),
    "core.features_ms": ("core.features",),
    "service.register_ms": ("service.register",),
    "service.setup_ms": ("service.riskmap", "service.effort_response"),
    "core.setup_ms": ("core.predict", "core.member_pass", "parallel.predict_map",
                      "parallel.run_deferred", "ml.gp_predict"),
}


def _totals(rows) -> tuple[dict, dict]:
    """Self and inclusive seconds per span name."""
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    for __, __, __, name, start, end, own, __, __ in rows:
        self_s[name] += own
        incl_s[name] += end - start
    return self_s, incl_s


def _zeroes() -> dict:
    return {name: 0.0 for name, *__ in PER_LAYER}


def _common(metrics, rows, ops: int, setup_rows) -> None:
    """Span-derived metrics shared by every workload."""
    self_s, incl_s = _totals(rows)
    setup_self, __ = _totals(setup_rows)

    def per_op(name):
        return self_s.get(name, 0.0) / ops * 1000.0 if ops else 0.0

    def setup_ms(*names):
        return sum(setup_self.get(name, 0.0) for name in names) * 1000.0

    for metric, span in (
        ("daemon.self_ms", "daemon.dispatch"),
        ("admission.wait_ms", "admission.wait"),
        ("registry.entry_ms", "registry.entry"),
        ("registry.context_ms", "registry.context"),
        ("persistence.save_ms", "persistence.save"),
        ("service.riskmap_ms", "service.riskmap"),
        ("service.effort_response_ms", "service.effort_response"),
        ("core.member_pass_ms", "core.member_pass"),
        ("core.mix_ms", "core.predict"),
        ("core.ensemble_fit_ms", "core.ensemble_fit"),
        ("parallel.predict_map_ms", "parallel.predict_map"),
        ("parallel.run_deferred_ms", "parallel.run_deferred"),
        ("ml.gp_predict_ms", "ml.gp_predict"),
        ("ml.gp_fit_ms", "ml.gp_fit"),
        ("ml.bagging_fit_ms", "ml.bagging_fit"),
        ("planning.objective_ms", "planning.plan"),
        ("planning.utilities_ms", "planning.utilities"),
        ("planning.resample_ms", "planning.resample"),
        ("planning.structure_ms", "planning.structure"),
        ("planning.solve_ms", "planning.solve"),
        ("planning.decompose_ms", "planning.decompose"),
    ):
        metrics[metric] = per_op(span)
    if ops:
        metrics["daemon.dispatch_ms"] = incl_s.get("daemon.dispatch", 0.0) / ops * 1000.0
        metrics["core.predict_ms"] = incl_s.get("core.predict", 0.0) / ops * 1000.0
        metrics["planning.plan_ms"] = incl_s.get("planning.plan", 0.0) / ops * 1000.0
        tasks = sum(r[8]["tasks"] for r in rows if r[3] == "parallel.run_deferred")
        metrics["parallel.tasks"] = tasks / ops
    for metric, names in SETUP_SPANS.items():
        metrics[metric] = setup_ms(*names)
    structures = [r for r in rows if r[3] == "planning.structure"]
    if structures:
        metrics["planning.structure_hit_ratio"] = (
            sum(1 for r in structures if r[8]["hit"]) / len(structures)
        )
    for method in METHODS:
        metrics[f"planning.path.{method}"] = sum(
            1 for r in rows
            if r[3] == "planning.solve" and r[8] and r[8]["method"] == method
        )


def _resilience_delta(metrics, before: dict, after: dict) -> None:
    """Fan-out counters from two ``resilience_info()``-shaped dicts."""
    for key in ("retries", "worker_deaths", "degradations"):
        metrics[f"resilience.{key}"] = after.get(key, 0) - before.get(key, 0)
    for rung in ("serial", "thread", "process"):
        metrics[f"parallel.backend.{rung}"] = (
            after.get("backends", {}).get(rung, 0)
            - before.get("backends", {}).get(rung, 0)
        )


def _sum_parks(stats: dict) -> tuple[dict, dict]:
    """Cache counters and resilience counters summed over every park."""
    cache: dict = defaultdict(int)
    resilience: dict = defaultdict(int)
    backends: dict = defaultdict(int)
    for entry in stats["parks"].values():
        for key in ("hits", "misses"):
            cache[key] += entry["cache"][key]
        for source in ("resilience", "plan_resilience"):
            counters = entry.get(source) or {}
            for key in ("retries", "worker_deaths", "degradations"):
                resilience[key] += counters.get(key, 0)
            for rung, count in counters.get("backends", {}).items():
                backends[rung] += count
    resilience["backends"] = dict(backends)
    return dict(cache), dict(resilience)


def serving_layers(inputs: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a serving run, plus the accounting details."""
    spans = Spans(inputs["spans"])
    t0, t1 = inputs["timed_window"]
    roots = {
        row[0] for row in spans.rows
        if row[3] == "daemon.dispatch" and row[1] == -1
        and row[8]["route"] in DATA_ROUTES and t0 <= row[4] <= t1
    }
    rows = [row for row in spans.rows if row[2] in roots]
    setup_rows = spans.started_in(inputs["setup_window"])
    ops = len(roots)
    metrics = _zeroes()
    _common(metrics, rows, ops, setup_rows)
    client = inputs["client_ms"]
    metrics["daemon.requests"] = ops
    metrics["trace.spans_per_op"] = len(rows) / ops if ops else 0.0
    spawned, warm_end = inputs["setup_window"]
    first = min((row[4] for row in setup_rows), default=spawned)
    metrics["daemon.startup_ms"] = (first - spawned) * 1000.0
    metrics["daemon.non200"] = sum(
        1 for when, route, status in spans.statuses
        if route in DATA_ROUTES and t0 <= when <= t1 and status != 200
    )
    if client and ops:
        metrics["daemon.transport_ms"] = (
            sum(client) / len(client) - metrics["daemon.dispatch_ms"]
        )
    before, after = inputs["stats_before"], inputs["stats_after"]
    admission = after["admission"]
    metrics["admission.shed"] = (
        admission["shed_saturated"] + admission["shed_draining"]
        - before["admission"]["shed_saturated"]
        - before["admission"]["shed_draining"]
    )
    metrics["admission.peak_inflight"] = admission["peak_inflight"]
    metrics["registry.loads"] = after["registry"]["loads"]
    metrics["registry.context_builds"] = spans.counts.get("registry.context_builds", 0)
    cache0, res0 = _sum_parks(before)
    cache1, res1 = _sum_parks(after)
    hits = cache1["hits"] - cache0["hits"]
    lookups = hits + cache1["misses"] - cache0["misses"]
    metrics["service.hit_ratio"] = hits / lookups if lookups else 0.0
    _resilience_delta(metrics, res0, res1)
    accounted = sum(metrics[name] for name in SELF_TIME_METRICS)
    dispatch = metrics["daemon.dispatch_ms"]
    metrics["trace.accounted_share"] = accounted / dispatch if dispatch else 0.0
    detail = {
        "requests": ops,
        "client_mean_ms": sum(client) / len(client) if client else 0.0,
        "dispatch_ms": dispatch,
        "self_time_sum_ms": accounted,
        "setup_ms": (warm_end - spawned) * 1000.0,
        "setup_startup_plus_spans_ms": metrics["daemon.startup_ms"]
        + sum(row[6] for row in setup_rows) * 1000.0,
    }
    return metrics, detail


def fit_layers(inputs: dict) -> tuple[dict, dict]:
    """Per-layer metrics of a traced fit run (spans from every thread)."""
    spans = Spans(inputs["spans"])
    rows = spans.started_in(inputs["timed_window"])
    setup_rows = spans.started_in(inputs["setup_window"])
    ops = inputs["jobs"]
    metrics = _zeroes()
    _common(metrics, rows, ops, setup_rows)
    # Set-up metrics per set-up (the window holds all of them).
    for name in SETUP_SPANS:
        metrics[name] /= inputs["setup_samples"]
    stats = inputs["resilience"]
    _resilience_delta(metrics, {}, stats)
    metrics["trace.spans_per_op"] = len(rows) / ops if ops else 0.0
    main_roots = sum(
        row[5] - row[4] for row in rows
        if row[1] == -1 and row[7] == spans.main_thread
    )
    wall = inputs["job_seconds"]
    metrics["trace.accounted_share"] = main_roots / wall if wall else 0.0
    detail = {
        "jobs": ops,
        "job_wall_s": wall,
        "main_thread_span_s": main_roots,
    }
    return metrics, detail
