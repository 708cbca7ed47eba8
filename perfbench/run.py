"""Park-service benchmark: one command for every workload.

    python3 perfbench/run.py --workload riskmap-hot --seed 21 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 21

Run from the repository root. The first run builds the serving models with
the documented recipe (``repro predict --park P --model gpb --save-model``)
into ``.bench_build/``, keyed by a hash of ``src/``. A run prints every
end-to-end metric by name with its unit (``--trace 0``) or every per-layer
metric (``--trace 1``), the operations attempted and failed, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--all`` runs every workload untraced and traced, prints the tracing
overhead, and rewrites ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import pickle
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import spec
from serving import PARKS

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
#: The serving models' recipe, run once per park by the commit under test.
RECIPE = ("predict", "--model", "gpb")


class BenchmarkError(RuntimeError):
    """The benchmark could not run (no program, failed build, ...)."""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def build_models() -> Path:
    """The serving models for this source tree, built on first use.

    Next to each model goes the park data the output checks' direct calls
    need (``<park>.data.pickle``: ``generate_dataset(profile, seed=0)``,
    the arrays the daemon derives its serving context from), generated by
    the same source tree.
    """
    target = BUILD / f"models-{source_digest()}"
    if (target / "BUILT").is_file():
        return target
    staging = BUILD / f"{target.name}.staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    for park in PARKS:
        command = [sys.executable, "-m", "repro", *RECIPE, "--park", park,
                   "--save-model", str(staging / park)]
        with open(staging / f"{park}.log", "wb") as log:
            code = subprocess.call(command, cwd=ROOT, env=program_env(),
                                   stdout=log, stderr=subprocess.STDOUT,
                                   stdin=subprocess.DEVNULL, timeout=600)
        if code != 0:
            raise BenchmarkError(f"building the {park} model failed ({code}); "
                                 f"see {staging / park}.log")
    from repro.data import generate_dataset, get_profile

    for park in PARKS:
        data = generate_dataset(get_profile(park), seed=0)
        with open(staging / f"{park}.data.pickle", "wb") as handle:
            pickle.dump(data, handle, protocol=pickle.HIGHEST_PROTOCOL)
    (staging / "BUILT").write_text(" ".join(RECIPE) + "\n")
    try:
        staging.rename(target)
    except OSError:  # a concurrent build won; use its models
        shutil.rmtree(staging, ignore_errors=True)
    return target


def _openblas_threads():
    """OpenBLAS's thread count as numpy's library reports it."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def host_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_env": {key: os.environ[key] for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if key in os.environ},
    }


def config_record(workload: str, seed: int, seconds: float, trace: bool,
                  models_dir: Path) -> dict:
    from daemon import SERVE_ARGS
    import fitting
    import serving

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "source": models_dir.name.split("-", 1)[1],
        "model_recipe": "repro " + " ".join(RECIPE) + " --park P --save-model "
                        "DIR (GPB-iW, 6 threshold classifiers, 5 members, "
                        "balanced bagging for SWS; data seed 0)",
    }
    if workload in spec.SERVING:
        record["daemon"] = ("repro " + " ".join(SERVE_ARGS) + " --models-dir "
                            "DIR (defaults: --n-jobs 1, --max-inflight 8, "
                            "--max-queue 16, --default-deadline 30; contexts "
                            "seed 0, scale 1.0)")
        record["connections"] = serving.CONNECTIONS
        record["setup_samples"] = serving.SETUP_SAMPLES
    else:
        record["fit"] = (f"GPB-iW and DTB-iW, n_jobs={fitting.N_JOBS}, "
                         f"{fitting.N_CLASSIFIERS} threshold classifiers, "
                         "test year = last year, backend auto")
        record["setup_samples"] = fitting.SETUP_SAMPLES
    return record


def run_fit(models_dir, workdir, seed, seconds, trace):
    from client import percentile
    from serving import Result

    out = workdir / "fit.json"
    command = [sys.executable, str(ROOT / "perfbench" / "fitting.py"),
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--workdir", str(workdir),
               "--out", str(out)]
    code = subprocess.call(command, cwd=ROOT, env=program_env(),
                           stdin=subprocess.DEVNULL, timeout=170)
    if code != 0:
        raise BenchmarkError(f"the fit workload exited {code}")
    fit = json.loads(out.read_text())
    jobs = fit["jobs"]
    start, end = fit["timed_window"]
    # One latency per model (park, family): its mean over the run's rounds.
    per_model: dict = {}
    rounds: dict = {}
    for index, job in enumerate(jobs):
        per_model.setdefault((job["park"], job["family"]), []).append(job["seconds"])
        key = (index // (len(PARKS) * 2), job["family"])
        rounds[key] = rounds.get(key, 0.0) + job["seconds"]
    model_ms = [sum(v) / len(v) * 1000.0 for v in per_model.values()]
    family_rounds = {
        family: sorted(v for (__, f), v in rounds.items() if f == family)
        for family in ("gpb", "dtb")
    }
    setups = sorted(fit["setups_s"])
    metrics = {
        "setup_s": setups[len(setups) // 2],
        "p50_ms": percentile(model_ms, 50),
        "p90_ms": percentile(model_ms, 90),
        "rps": len(jobs) / (end - start),
        "peak_rss_mb": fit["peak_rss_mb"],
        "quality": sum(fit["aucs"].values()) / len(fit["aucs"]),
    }
    gp, tree = family_rounds["gpb"], family_rounds["dtb"]
    notes = [f"FAILED: {m}" for m in fit["mismatches"]]
    notes.append(f"{len(jobs)} fit-and-save jobs in {len(gp)} rounds; "
                 f"checked {fit['checks']} reloaded models bit for bit")
    notes.append(f"fit_gp_s (median round) {gp[len(gp) // 2]:.3f} s, "
                 f"fit_tree_s (median round) {tree[len(tree) // 2]:.3f} s")
    record = {
        "setups_s": fit["setups_s"],
        "jobs": jobs,
        "fit_gp_s_rounds": gp,
        "fit_tree_s_rounds": tree,
        "aucs": fit["aucs"],
        "resilience": fit["resilience"],
    }
    layers_input = None
    if trace:
        layers_input = {
            "spans": fit["spans"],
            "timed_window": fit["timed_window"],
            "setup_window": fit["setup_window"],
            "setup_samples": len(fit["setups_s"]),
            "jobs": len(jobs),
            "job_seconds": sum(job["seconds"] for job in jobs),
            "resilience": fit["resilience"],
        }
    attempted = len(jobs) + fit["checks"]
    return Result("fit", metrics, attempted, len(fit["mismatches"]), notes,
                  record, layers_input)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    import breakdown
    import serving

    models_dir = build_models()
    workdir = BUILD / f"work-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        if workload == "fit":
            result = run_fit(models_dir, workdir, seed, seconds, trace)
            layers_of = breakdown.fit_layers
        else:
            result = serving.ServingRun(workload, ROOT, models_dir, workdir,
                                        seed, seconds, trace).run()
            layers_of = breakdown.serving_layers
        if result.layers_input is not None:
            result.layers, result.layer_detail = layers_of(result.layers_input)
            share = result.layers["trace.accounted_share"]
            result.attempted += 1
            if abs(share - 1.0) > spec.ACCOUNTING_TOLERANCE:
                result.failed += 1
                result.notes.append(f"FAILED: the per-layer breakdown accounts "
                                    f"for {share:.3f} of the measured time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.record["host"] = host_record()
    result.record["config"] = config_record(workload, seed, seconds, trace, models_dir)
    return result


def _unit(name: str, table) -> str:
    for entry in table:
        if entry[0] == name:
            return entry[1]
    raise KeyError(name)


def print_result(result, trace: bool) -> None:
    aliases = spec.ALIASES.get(result.workload, {})
    print(f"perfbench {result.workload}: seed {result.record['config']['seed']}, "
          f"{result.record['config']['seconds']} s, trace {int(trace)}")
    print("host: " + json.dumps(result.record["host"], sort_keys=True))
    print("config: " + json.dumps(result.record["config"], sort_keys=True))
    for name, value in result.metrics.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"  {label:<24} {value:>12.4f} {_unit(name, spec.END_TO_END):<6} "
              f"{spec.meaning(name, result.workload)}")
    if result.layers is not None:
        print("per-layer (traced run):")
        for name, value in result.layers.items():
            print(f"  {name:<30} {value:>12.4f} {_unit(name, spec.PER_LAYER)}")
        print("accounting: " + json.dumps(result.layer_detail, sort_keys=True))
        for line in spec.UNMEASURED:
            print(f"  unmeasured: {line}")
    for note in result.notes:
        print(f"  {note}")
    print(f"operations: {result.attempted} attempted, {result.failed} failed")
    if "invalid" in result.record:
        print(f"INVALID: {result.record['invalid']}; latencies not reported")


def save_record(result, trace: bool) -> None:
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    config = result.record["config"]
    path = results / f"{result.workload}-seed{config['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": result.metrics,
        "layers": result.layers, "layer_detail": result.layer_detail,
        **result.record,
    }, indent=1, sort_keys=True))


def final_line(result, trace: bool) -> str:
    if trace:
        values, table = result.layers, spec.PER_LAYER
    else:
        values, table = result.metrics, spec.END_TO_END
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, *__ in table
        },
    })


def span_cost_us(calls: int = 200_000) -> float:
    """Microseconds one recorded span adds to a call, on this host."""
    from spans import Tracer

    def noop():
        return None

    def loop(function) -> float:
        started = time.perf_counter()
        for __ in range(calls):
            function()
        return time.perf_counter() - started

    bare = min(loop(noop) for __ in range(3))
    traced = min(loop(Tracer().wrap("noop", noop)) for __ in range(3))
    return (traced - bare) / calls * 1e6


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced; the overhead table; BENCHMARK.json."""
    summary = {}
    for workload, __ in spec.WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        print_result(plain, trace=False)
        save_record(plain, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        print_result(traced, trace=True)
        save_record(traced, trace=True)
        summary[workload] = (plain, traced)
    span_us = span_cost_us()
    print("\ntracing overhead: traced minus untraced (one pair, same seed; "
          "compare with the run-to-run spread), and spans per operation "
          f"times the {span_us:.2f} us one span costs here:")
    for workload, (plain, traced) in summary.items():
        cells = ", ".join(
            f"{name} {traced.metrics[name] - plain.metrics[name]:+.4f}"
            for name in plain.metrics
        )
        spans = traced.layers["trace.spans_per_op"]
        print(f"  {workload}: {cells}; {spans:.1f} spans/op = "
              f"{spans * span_us / 1000.0:.4f} ms/op")
    print("\nwhat each per-layer metric should move:")
    for name, __, __, source, moves, on in spec.PER_LAYER:
        print(f"  {name}: {source}; moves {moves} on {on}")
    print("\ninteractions:")
    for line in spec.INTERACTIONS:
        print(f"  - {line}")
    print("not exercised:")
    for line in spec.NOT_EXERCISED:
        print(f"  - {line}")
    path = spec.write_benchmark_json(ROOT)
    print(f"wrote {path.relative_to(ROOT)}")
    ok = all(p.correct and t.correct for p, t in summary.values())
    print(json.dumps({
        workload: {"correct": plain.correct and traced.correct,
                   "attempted": plain.attempted + traced.attempted,
                   "failed": plain.failed + traced.failed}
        for workload, (plain, traced) in summary.items()
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Park-service benchmark (see BENCHMARK.json).")
    parser.add_argument("--workload", choices=[w for w, __ in spec.WORKLOADS])
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=spec.CALIBRATION_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops the daemons and workers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(result, bool(args.trace))
    save_record(result, bool(args.trace))
    if "invalid" in result.record:
        return 3
    print(final_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
