"""What the park-service benchmark measures, and why.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/spec.py``); its schema is fixed, so the per-layer
"should move" map, the metric interactions and the list of paths the
benchmark does not exercise live here and are printed by ``run.py --all``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Seconds one run measures; ``run.py`` takes ``--seconds``.
RUN_SECONDS = 20

#: Workload seeds the bounds were calibrated on (five runs per workload),
#: and the seeds of the ten-run steadiness check that confirmed them.
CALIBRATION_SEEDS = (21, 22, 23, 24, 25)
CONFIRMATION_SEEDS = tuple(range(31, 41))

WORKLOADS = (
    ("riskmap-hot",
     "Dashboards re-rendering 12 cached maps: Poisson 20 req/s, then a "
     "2-connection closed loop. About 43 of 44 ms per response is transport, "
     "so encoding moves p50_ms, not rps."),
    ("riskmap-cold",
     "Analysts sweeping effort on MFNP and QENP: each request runs the GP "
     "member pass and iWare-E mix. Two passes share both cores with OpenBLAS "
     "threads, so rps can gain beyond their share."),
    ("plan",
     "Ranger posts fetching plans (12 posts, beta in [0, 1]): PWL utilities, "
     "MILP structures, HiGHS, routes. Work moved off a request path into "
     "set-up must show in setup_s."),
    ("fit",
     "The analyst's retrain: GPB-iW and DTB-iW for the three parks at "
     "n_jobs=2, fitted and saved with no daemon. GP members fan out on "
     "threads, trees on processes."),
)

#: name, unit, better, bound, meaning per workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, {
        "serving": "spawning `repro serve` to the end of warm-up (imports, "
                   "verified model loads, context builds, first model "
                   "passes); median of the run's set-ups",
        "fit": "generating the three parks' data plus the warm-up fits; "
               "median of the run's set-ups",
    }),
    ("p50_ms", "ms", "lower", 0.25, {
        "riskmap-hot": "phase 1 (open loop, 20 req/s): median latency from "
                       "each request's due time",
        "serving": "median client latency per request",
        "fit": "median over the six (park, family) models of the wall time "
               "to fit and save one, each the mean over the run's rounds",
    }),
    ("p90_ms", "ms", "lower", 0.25, {
        "riskmap-hot": "phase 1: 90th percentile latency from the due time",
        "serving": "90th percentile client latency per request",
        "fit": "90th percentile (nearest rank) of the same six: the "
               "slowest model",
    }),
    ("rps", "1/s", "higher", 0.25, {
        "riskmap-hot": "phase 2: successful responses per second, both "
                       "connections busy",
        "serving": "successful responses per second, both connections busy",
        "fit": "models fitted and saved per second",
    }),
    ("peak_rss_mb", "MB", "lower", 0.15, {
        "serving": "the daemon's VmHWM at the end of the run",
        "fit": "the fitting process's VmHWM at the end of the run",
    }),
    ("quality", "score", "higher", 0.01, {
        "riskmap-hot": "mean held-out AUC (last year) of the served models",
        "riskmap-cold": "mean held-out AUC (last year) of the served models",
        "plan": "plan_utility: mean robust objective of direct plans over "
                "12 fixed (post, beta) keys",
        "fit": "auc: mean held-out AUC of the six fitted models",
    }),
)

#: The name ``quality`` goes by on each workload, printed next to it.
ALIASES = {
    "plan": {"quality": "plan_utility"},
    "fit": {"quality": "auc"},
    "riskmap-hot": {"quality": "auc"},
    "riskmap-cold": {"quality": "auc"},
}

SERVING = ("riskmap-hot", "riskmap-cold", "plan")

# Per-layer metrics come only from the traced run (``--trace 1``). ``*_ms``
# are self times (span minus child spans) per operation in the timed window
# unless marked "incl." (inclusive) or "setup" (total over one set-up of the
# kept daemon, or one in-process set-up on fit). An operation is one data
# request (riskmap-hot: phase 2) or one model fit-and-save (fit).
# name, unit, better, source, moves, on
PER_LAYER = (
    ("daemon.dispatch_ms", "ms", "lower",
     "ParkServiceDaemon.dispatch, incl.", "p50_ms rps", "all serving"),
    ("daemon.self_ms", "ms", "lower",
     "dispatch self: query parsing, tolist, JSON, socket write",
     "p50_ms p90_ms rps", "riskmap-hot; small share of riskmap-cold, plan"),
    ("daemon.transport_ms", "ms", "lower",
     "client latency minus the dispatch span", "p50_ms p90_ms rps",
     "riskmap-hot"),
    ("daemon.requests", "count", "higher",
     "data requests dispatched in the window", "rps", "all serving"),
    ("daemon.non200", "count", "lower",
     "non-200 data responses in the window", "rps", "all serving"),
    ("daemon.startup_ms", "ms", "lower",
     "spawn to the first dispatch: interpreter, imports, bind, setup",
     "setup_s", "all serving"),
    ("admission.wait_ms", "ms", "lower", "AdmissionGate.acquire", "p90_ms",
     "riskmap-cold, plan (predicted 0: 2 connections, 8 slots)"),
    ("admission.shed", "count", "lower", "/stats shed counters", "p90_ms",
     "all serving"),
    ("admission.peak_inflight", "count", "lower", "/stats peak_inflight",
     "p90_ms", "all serving"),
    ("registry.entry_ms", "ms", "lower", "ModelRegistry.entry",
     "p50_ms", "riskmap-hot"),
    ("registry.context_ms", "ms", "lower", "ParkEntry.context",
     "p50_ms", "riskmap-hot"),
    ("registry.setup_ms", "ms", "lower",
     "ModelRegistry.entry + ParkEntry.context self, setup", "setup_s",
     "all serving"),
    ("registry.loads", "count", "lower", "/stats registry loads",
     "setup_s", "all serving"),
    ("registry.context_builds", "count", "lower",
     "ParkEntry.install_context calls, setup", "setup_s", "all serving"),
    ("persistence.load_ms", "ms", "lower",
     "load_model incl. sha256 verify, setup", "setup_s", "all serving"),
    ("persistence.save_ms", "ms", "lower", "save_model", "p50_ms p90_ms rps",
     "fit"),
    ("data.generate_ms", "ms", "lower", "generate_dataset, setup",
     "setup_s", "every workload"),
    ("geo.park_ms", "ms", "lower",
     "SyntheticPark.generate (rasters, distance features), setup",
     "setup_s", "every workload"),
    ("core.features_ms", "ms", "lower",
     "PawsPredictor.cell_feature_matrix, setup", "setup_s", "all serving"),
    ("service.riskmap_ms", "ms", "lower", "RiskMapService.risk_map",
     "p50_ms rps", "riskmap-hot (hit path), riskmap-cold (miss path)"),
    ("service.effort_response_ms", "ms", "lower",
     "RiskMapService.effort_response", "p50_ms rps", "plan (hits)"),
    ("service.register_ms", "ms", "lower",
     "RiskMapService.register_features, setup", "setup_s", "all serving"),
    ("service.hit_ratio", "ratio", "higher",
     "cache_info() hits over lookups in the window", "p50_ms rps",
     "riskmap-hot (about 1), riskmap-cold (about 0), plan (about 1)"),
    ("service.setup_ms", "ms", "lower",
     "risk_map + effort_response self during warm-up, setup", "setup_s",
     "all serving"),
    ("core.predict_ms", "ms", "lower", "PawsPredictor.predict_proba, incl.",
     "p50_ms rps", "riskmap-cold"),
    ("core.member_pass_ms", "ms", "lower",
     "IWareEnsemble.member_probabilities", "p50_ms rps", "riskmap-cold"),
    ("core.mix_ms", "ms", "lower",
     "PawsPredictor.predict_proba self (predict minus member pass)",
     "p50_ms rps", "riskmap-cold"),
    ("core.ensemble_fit_ms", "ms", "lower",
     "IWareEnsemble.fit self: thresholds and weight learning",
     "p50_ms p90_ms rps", "fit"),
    ("core.setup_ms", "ms", "lower",
     "first model passes during warm-up: predict, member pass, fan-out and "
     "GP predict self, setup", "setup_s", "all serving"),
    ("parallel.predict_map_ms", "ms", "lower", "predict_map",
     "p50_ms", "riskmap-cold"),
    ("parallel.run_deferred_ms", "ms", "lower",
     "run_deferred (on fit: waiting for pool workers)", "p50_ms p90_ms rps",
     "riskmap-cold (serial path), fit"),
    ("parallel.tasks", "count", "lower",
     "tasks handed to run_deferred per operation", "p50_ms rps",
     "riskmap-cold, fit"),
    ("parallel.backend.serial", "count", "lower",
     "fan-outs completed on the serial rung", "p50_ms", "riskmap-cold"),
    ("parallel.backend.thread", "count", "lower",
     "fan-outs completed on the thread rung", "p90_ms", "fit (GP)"),
    ("parallel.backend.process", "count", "lower",
     "fan-outs completed on the process rung", "p50_ms", "fit (trees)"),
    ("resilience.retries", "count", "lower", "resilience_info() retries",
     "p90_ms", "all"),
    ("resilience.worker_deaths", "count", "lower",
     "resilience_info() worker_deaths", "p90_ms", "all"),
    ("resilience.degradations", "count", "lower",
     "resilience_info() degradations", "p90_ms", "all"),
    ("ml.gp_predict_ms", "ms", "lower",
     "GP prediction_stats/predict_proba/predict_variance, busy time summed "
     "over threads", "p50_ms rps", "riskmap-cold; fit (weight learning)"),
    ("ml.gp_fit_ms", "ms", "lower",
     "GaussianProcessClassifier.fit, busy time summed over threads",
     "p90_ms rps", "fit"),
    ("ml.bagging_fit_ms", "ms", "lower",
     "BaggingClassifier.fit_deferred + member-fit task, self, in-process "
     "threads only", "p90_ms rps", "fit"),
    ("planning.plan_ms", "ms", "lower", "PlanService.plan_post, incl.",
     "p50_ms rps", "plan"),
    ("planning.objective_ms", "ms", "lower",
     "PlanService.plan_post self: planner lookup, RobustObjective",
     "p50_ms rps", "plan"),
    ("planning.utilities_ms", "ms", "lower",
     "RobustObjective.utility_functions", "p50_ms rps", "plan"),
    ("planning.resample_ms", "ms", "lower",
     "PatrolPlanner.plan self (minus solve and decomposition)",
     "p50_ms rps", "plan"),
    ("planning.structure_ms", "ms", "lower", "PatrolMILP.build_structure",
     "p50_ms rps", "plan"),
    ("planning.structure_hit_ratio", "ratio", "higher",
     "structure cache hits over build_structure calls", "p50_ms rps",
     "plan"),
    ("planning.solve_ms", "ms", "lower",
     "PatrolMILP.solve self (HiGHS)", "p50_ms p90_ms rps quality", "plan"),
    ("planning.path.lp", "count", "higher",
     "solutions with MILPSolution.method lp", "p50_ms quality", "plan"),
    ("planning.path.lp-envelope", "count", "higher",
     "solutions with method lp-envelope", "p50_ms quality", "plan"),
    ("planning.path.milp-partial", "count", "lower",
     "solutions with method milp-partial", "p90_ms", "plan"),
    ("planning.path.milp", "count", "lower",
     "solutions with method milp", "p90_ms", "plan"),
    ("planning.decompose_ms", "ms", "lower", "decompose_flow_into_routes",
     "p50_ms rps", "plan"),
    ("trace.spans_per_op", "count", "lower",
     "spans the tracer recorded per operation (its own work)",
     "none: sizes the tracing overhead", "every workload"),
    ("trace.accounted_share", "ratio", "higher",
     "sum of the reported self times over daemon.dispatch_ms (fit: over "
     "the timed wall time per job)", "none: checks the breakdown",
     "every workload"),
)

#: Self-time metrics whose sum must account for ``daemon.dispatch_ms``.
SELF_TIME_METRICS = (
    "daemon.self_ms", "admission.wait_ms", "registry.entry_ms",
    "registry.context_ms", "service.riskmap_ms", "service.effort_response_ms",
    "core.member_pass_ms", "core.mix_ms", "parallel.predict_map_ms",
    "parallel.run_deferred_ms", "ml.gp_predict_ms", "planning.utilities_ms",
    "planning.objective_ms", "planning.resample_ms", "planning.structure_ms",
    "planning.solve_ms", "planning.decompose_ms",
)

#: The breakdown must account for the dispatch time (fit: the jobs' wall
#: time) within this share, or the traced run fails one operation.
ACCOUNTING_TOLERANCE = 0.02

INTERACTIONS = (
    "riskmap-hot: about 43 of the 44 ms per response sit in "
    "daemon.transport_ms (headers and body leave in two writes, and Nagle "
    "waits for the client's delayed ACK). Until that changes, a faster "
    "encoder or cache can move phase 1's p50_ms but not phase 2's rps.",
    "riskmap-cold: two GP passes share both cores with OpenBLAS threads, so "
    "less member-pass busy time also shortens the other request's wait; rps "
    "can gain more than the per-request share suggests.",
    "Set-up work moved off the request path must show up in setup_s "
    "(daemon.startup_ms, registry.setup_ms, persistence.load_ms, "
    "data.generate_ms, geo.park_ms, core.features_ms, service.setup_ms, "
    "core.setup_ms).",
)

NOT_EXERCISED = (
    "hot-swap (POST /models/<park>/reload)",
    "admission shedding",
    "SOS2 solve paths with binaries: milp never, milp-partial in about one "
    "plan in 600; GPB-iW plans here take lp or lp-envelope",
    "the opt-in B&B solver",
    "the daemon at --n-jobs 2",
    "analysis, evaluation, fieldtest and baselines (not on a serving or "
    "fitting path)",
)

#: Spans the benchmark cannot see from outside; never reported as zero.
UNMEASURED = (
    "ml.tree_fit_ms: DecisionTreeClassifier.fit runs in process-pool "
    "workers on fit (and nowhere else), so no span reaches the parent",
    "ml.bagging_fit_ms for DTB-iW: its member-fit tasks run in the same "
    "workers; ml.bagging_fit_ms covers the GP bagging fits only",
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document (its schema is fixed)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, __ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, *__ in PER_LAYER
        ],
    }


def meaning(metric: str, workload: str) -> str:
    """What an end-to-end metric measures on one workload."""
    for name, __, __, __, meanings in END_TO_END:
        if name == metric:
            kind = "serving" if workload in SERVING else "fit"
            return meanings.get(workload) or meanings[kind]
    raise KeyError(metric)


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path


if __name__ == "__main__":
    print(write_benchmark_json(Path(__file__).resolve().parent.parent))
    sys.exit(0)
