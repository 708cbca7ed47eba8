"""Command-line interface.

Exposes the main workflows without writing any Python::

    python -m repro stats --park MFNP
    python -m repro maps --park SWS
    python -m repro evaluate --park QENP --model gpb --test-year 5
    python -m repro fieldtest --park "SWS dry" --blocks 5
    python -m repro plan --park MFNP --beta 0.8 --n-jobs 4
    python -m repro plan --park MFNP --beta 0.8 --post 0
    python -m repro predict --park MFNP --save-model models/mfnp
    python -m repro predict --park MFNP --load-model models/mfnp --effort 2.5
    python -m repro predict --park MFNP --load-model models/mfnp \
        --tile-size 4096 --n-jobs 4
    python -m repro lint src/repro
    python -m repro lint --select RP006 benchmarks examples

All commands are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core import PawsPredictor
from repro.data import generate_dataset, get_profile, list_profiles
from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.data.generator import dataset_statistics
from repro.evaluation import ascii_heatmap, format_table
from repro.fieldtest import chi_squared_test, design_field_test, field_test_table, run_field_trial
from repro.planning import SOLVER_MODES
from repro.planning.service import PlanService
from repro.runtime.service import RiskMapService


def _positive_seconds(text: str) -> float:
    """argparse type for strictly positive second counts (deadlines).

    Raising :class:`argparse.ArgumentTypeError` makes argparse exit 2 with
    a usage error naming the offending flag — instead of starting work with
    an impossible budget or surfacing a stack trace mid-run.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got '{text}'"
        ) from None
    if value <= 0.0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PAWS reproduction: poaching prediction and patrol "
        "planning under uncertainty (ICDE 2020).",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_park(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--park", default="MFNP",
            help=f"park profile; one of {list_profiles()}",
        )
        p.add_argument(
            "--scale", type=float, default=1.0,
            help="lattice scale factor (e.g. 0.5 for a quick run)",
        )

    stats = sub.add_parser("stats", help="Table I-style dataset statistics")
    add_park(stats)

    maps = sub.add_parser("maps", help="historical effort / activity maps")
    add_park(maps)

    evaluate = sub.add_parser("evaluate", help="fit a model and report AUC")
    add_park(evaluate)
    evaluate.add_argument("--model", default="gpb", choices=("svb", "dtb", "gpb"))
    evaluate.add_argument("--no-iware", action="store_true",
                          help="fit the flat baseline instead of iWare-E")
    evaluate.add_argument("--balanced", action="store_true",
                          help="balanced (undersampling) bagging")
    evaluate.add_argument("--test-year", type=int, default=None)
    evaluate.add_argument("--n-classifiers", type=int, default=8)

    fieldtest = sub.add_parser("fieldtest", help="simulate a field test")
    add_park(fieldtest)
    fieldtest.add_argument("--model", default="gpb", choices=("svb", "dtb", "gpb"))
    fieldtest.add_argument("--blocks", type=int, default=5,
                           help="blocks per risk group")
    fieldtest.add_argument("--periods", type=int, default=2,
                           help="trial length in time periods")

    plan = sub.add_parser(
        "plan",
        help="compute robust patrol plans (all posts, or one with --post)",
        description="Fit the predictor once and plan every patrol post "
        "through one PlanService: shared effort-response surfaces, cached "
        "MILP structure, LP fast path on concave utilities, and a "
        "thread-parallel per-post fan-out.",
    )
    add_park(plan)
    plan.add_argument("--post", type=int, default=None,
                      help="plan a single post (index into the park's "
                      "patrol posts); default plans every post")
    plan.add_argument("--beta", type=float, default=0.8)
    plan.add_argument("--horizon", type=int, default=10)
    plan.add_argument("--patrols", type=int, default=2)
    plan.add_argument("--segments", type=int, default=8)
    plan.add_argument("--solver", choices=SOLVER_MODES, default="auto",
                      help="'auto' takes the LP fast path when every "
                      "utility is concave; 'milp' always keeps the SOS2 "
                      "binaries; 'lp' forces the fast path")
    plan.add_argument("--n-jobs", type=int, default=1,
                      help="planning threads (plans identical to serial)")
    plan.add_argument("--deadline", type=_positive_seconds, default=None,
                      metavar="SECONDS",
                      help="abort the whole planning request (prediction + "
                      "every solve, one shared budget) after this many "
                      "seconds; exit code 1 on overrun")

    predict = sub.add_parser(
        "predict",
        help="serve a risk map from a fitted (or saved) model",
        description="Fit the predictor once — or load one saved earlier — "
        "and serve a per-cell risk map without refitting. Serving streams "
        "cells through fixed-size tiles (--tile-size bounds transient "
        "memory) and fans (member x tile) tasks over --n-jobs workers; "
        "the map is bit-identical at every setting.",
    )
    add_park(predict)
    predict.add_argument("--model", default="gpb", choices=("svb", "dtb", "gpb"))
    predict.add_argument("--no-iware", action="store_true",
                         help="fit the flat baseline instead of iWare-E")
    predict.add_argument("--n-classifiers", type=int, default=6)
    predict.add_argument("--n-jobs", type=int, default=1,
                         help="workers for fitting AND serving "
                         "(results identical to serial)")
    predict.add_argument("--tile-size", type=int, default=None,
                         help="cells per serving tile; bounds the predict "
                         "path's transient memory at O(n_train x tile) "
                         "(default: one untiled pass)")
    predict.add_argument("--backend", default="auto",
                         choices=("auto", "thread", "process"),
                         help="fitting/serving pool: auto fits GIL-bound "
                         "weak learners (dtb/svb) on processes and gpb "
                         "serially (its BLAS threads itself), and serves "
                         "gpb on threads")
    predict.add_argument("--effort", type=float, default=None,
                         help="hypothetical patrol effort in km "
                         "(default: the park's median recorded effort)")
    predict.add_argument("--save-model", metavar="DIR", default=None,
                         help="persist the fitted model to DIR "
                         "(npz + json manifest)")
    predict.add_argument("--load-model", metavar="DIR", default=None,
                         help="serve from a model saved with --save-model "
                         "instead of fitting")
    predict.add_argument("--no-verify", action="store_true",
                         help="skip sha256 checksum verification when "
                         "loading with --load-model (trusted storage only)")
    predict.add_argument("--deadline", type=_positive_seconds, default=None,
                         metavar="SECONDS",
                         help="abort the serve after this many seconds; "
                         "exit code 1 on overrun")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived multi-park HTTP serving daemon",
        description="Serve risk maps and patrol plans for every saved model "
        "under --models-dir over HTTP (GET /riskmap, /plan, /health, "
        "/ready, /stats; POST /models/<park>/reload hot-swaps a re-saved "
        "model). Admission control sheds overload with 503, every admitted "
        "request runs under a deadline (504 on overrun), and SIGTERM "
        "drains gracefully.",
    )
    serve.add_argument("--models-dir", required=True, metavar="DIR",
                       help="directory of saved models, one "
                       "save_model directory per park (the directory name "
                       "must match a park profile)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port "
                       "(printed on startup)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="concurrent admitted requests; the rest queue "
                       "briefly, then shed with 503")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="requests allowed to wait for an admission slot")
    serve.add_argument("--default-deadline", type=_positive_seconds,
                       default=30.0, metavar="SECONDS",
                       help="per-request budget when the client sends no "
                       "?deadline= (504 on overrun)")
    serve.add_argument("--no-default-deadline", action="store_true",
                       help="disable the server-side default deadline "
                       "(client-supplied deadlines still apply)")
    serve.add_argument("--max-parks", type=int, default=8,
                       help="models kept hot before LRU eviction")
    serve.add_argument("--tile-size", type=int, default=None,
                       help="cells per serving tile (bounds transient "
                       "memory; see 'predict')")
    serve.add_argument("--n-jobs", type=int, default=1,
                       help="prediction workers per request")
    serve.add_argument("--backend", default="auto",
                       choices=("auto", "thread", "process"),
                       help="prediction pool flavour")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request to stderr")

    from repro.analysis.cli import DESCRIPTION as lint_description
    from repro.analysis.cli import add_arguments as add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant analyzer (rules RP001-RP006)",
        description=lint_description,
    )
    add_lint_arguments(lint)
    return parser


def _load(args) -> tuple:
    profile = get_profile(args.park)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    data = generate_dataset(profile, seed=args.seed)
    return profile, data


def _use_balanced_bagging(profile) -> bool:
    """The paper's rule of thumb: undersample below ~3% positives (SWS)."""
    return (
        profile.target_positive_rate is not None
        and profile.target_positive_rate < 0.03
    )


def _cmd_stats(args, out) -> int:
    profile, data = _load(args)
    stats = dataset_statistics(data)
    rows = [[key, float(value)] for key, value in stats.items()]
    out.write(f"{profile.name} dataset statistics (seed {args.seed})\n")
    out.write(format_table(["statistic", "value"], rows, "{:.3f}") + "\n")
    return 0


def _cmd_maps(args, out) -> int:
    __, data = _load(args)
    effort = data.recorded_effort.sum(axis=0)
    activity = data.detections.sum(axis=0).astype(float)
    out.write(ascii_heatmap(data.park.grid, effort,
                            title="historical patrol effort:") + "\n\n")
    out.write(ascii_heatmap(data.park.grid, activity,
                            title="historical detected activity:") + "\n")
    return 0


def _cmd_evaluate(args, out) -> int:
    profile, data = _load(args)
    test_year = args.test_year if args.test_year is not None else profile.years - 1
    split = data.dataset.split_by_test_year(test_year)
    if split.test.labels.sum() in (0, split.test.n_points):
        out.write(
            f"test year {test_year} has a single class; AUC undefined. "
            "Try another --test-year or --seed.\n"
        )
        return 1
    predictor = PawsPredictor(
        model=args.model,
        iware=not args.no_iware,
        n_classifiers=args.n_classifiers,
        balanced=args.balanced,
        seed=args.seed + 1,
    ).fit(split.train)
    auc = predictor.evaluate_auc(split.test)
    out.write(
        f"{predictor.name} on {profile.name}, test year {test_year}: "
        f"AUC = {auc:.3f}\n"
        f"(train: {split.train.n_points} points / "
        f"{int(split.train.labels.sum())} positives; "
        f"test: {split.test.n_points} / {int(split.test.labels.sum())})\n"
    )
    return 0


def _cmd_fieldtest(args, out) -> int:
    profile, data = _load(args)
    split = data.dataset.split_by_test_year(profile.years - 1)
    predictor = PawsPredictor(
        model=args.model, iware=True, n_classifiers=6,
        balanced=_use_balanced_bagging(profile),
        seed=args.seed + 1,
    ).fit(split.train)
    features = predictor.cell_feature_matrix(data.park, data.recorded_effort[-1])
    nominal = float(np.median(data.dataset.current_effort))
    risk = predictor.predict_proba(features, effort=nominal)
    rng = np.random.default_rng(args.seed + 2)
    block_radius = 1 if data.park.n_cells >= 9 * 3 * args.blocks * 2 else 0
    design = design_field_test(
        data.park.grid, risk, data.recorded_effort.sum(axis=0),
        blocks_per_group=args.blocks, block_radius=block_radius, rng=rng,
    )
    trial = run_field_trial(
        design, data.poachers, rng, n_periods=args.periods,
        start_period=profile.n_periods,
    )
    out.write(field_test_table({f"{profile.name} simulated trial": trial}) + "\n")
    __, p = chi_squared_test(trial)
    verdict = "significant" if p < 0.05 else "not significant"
    out.write(f"chi-squared p = {p:.4f} ({verdict} at 0.05)\n")
    return 0


def _cmd_plan(args, out) -> int:
    profile, data = _load(args)
    if args.post is not None and not 0 <= args.post < data.park.patrol_posts.size:
        out.write(
            f"--post must index one of {data.park.patrol_posts.size} posts\n"
        )
        return 1
    split = data.dataset.split_by_test_year(profile.years - 1)
    predictor = PawsPredictor(
        model="gpb", iware=True, n_classifiers=6, seed=args.seed + 1
    ).fit(split.train)
    features = predictor.cell_feature_matrix(data.park, data.recorded_effort[-1])
    service = PlanService(
        RiskMapService(predictor),
        data.park.grid,
        data.park.patrol_posts,
        horizon=args.horizon,
        n_patrols=args.patrols,
        n_segments=args.segments,
        solver_mode=args.solver,
        n_jobs=args.n_jobs,
    )

    try:
        if args.post is not None:
            post = int(data.park.patrol_posts[args.post])
            plan = service.plan_post(
                post, features, beta=args.beta, deadline=args.deadline
            )
            out.write(
                f"robust plan (beta={args.beta}) for post {post} on "
                f"{profile.name}: utility {plan.objective_value:.3f} "
                f"(solved as {plan.solution.method.upper()})\n"
            )
            out.write(ascii_heatmap(data.park.grid, plan.coverage,
                                    title="prescribed coverage:") + "\n")
            out.write("mixed-strategy routes (weight: cells):\n")
            for route in plan.routes[:5]:
                out.write(f"  {route.weight:.3f}: {route.cells}\n")
            return 0

        plans, elapsed = service.timed_plan_all(
            features, beta=args.beta, deadline=args.deadline
        )
    except DeadlineExceededError as exc:
        out.write(f"planning aborted: {exc}\n")
        return 1
    rows = [
        [str(post), plan.objective_value, plan.solution.method,
         len(plan.routes)]
        for post, plan in plans.items()
    ]
    out.write(
        f"robust plans (beta={args.beta}) for {len(plans)} posts on "
        f"{profile.name}: {elapsed:.2f}s "
        f"({len(plans) / elapsed:.1f} posts/s, n_jobs={args.n_jobs})\n"
    )
    out.write(format_table(["post", "utility", "solver", "routes"], rows,
                           "{:.3f}") + "\n")
    combined = np.zeros(data.park.n_cells)
    for plan in plans.values():
        combined += plan.coverage
    out.write(ascii_heatmap(data.park.grid, combined,
                            title="combined prescribed coverage:") + "\n")
    return 0


def _cmd_predict(args, out) -> int:
    profile, data = _load(args)
    if args.load_model:
        start = time.perf_counter()
        predictor = PawsPredictor.load(
            args.load_model, verify=not args.no_verify
        )
        setup = time.perf_counter() - start
        source = f"loaded from {args.load_model}"
        out.write(
            "serving from a saved model; fitting flags (--model, --no-iware, "
            "--n-classifiers) are ignored\n"
        )
    else:
        split = data.dataset.split_by_test_year(profile.years - 1)
        start = time.perf_counter()
        predictor = PawsPredictor(
            model=args.model,
            iware=not args.no_iware,
            n_classifiers=args.n_classifiers,
            balanced=_use_balanced_bagging(profile),
            seed=args.seed + 1,
            n_jobs=args.n_jobs,
            backend=args.backend,
        ).fit(split.train)
        setup = time.perf_counter() - start
        source = f"fitted on {split.train.n_points} points"

    service = RiskMapService(
        predictor,
        tile_size=args.tile_size,
        n_jobs=args.n_jobs,
        backend=args.backend,
    )
    features = predictor.cell_feature_matrix(data.park, data.recorded_effort[-1])
    # Register the park's features so repeated queries key the cache by
    # token instead of re-hashing the full matrix.
    park_token = service.register_features(profile.name, features)
    effort = (
        args.effort
        if args.effort is not None
        else float(np.median(data.dataset.current_effort))
    )
    start = time.perf_counter()
    try:
        risk = service.risk_map(park_token, effort=effort, deadline=args.deadline)
    except DeadlineExceededError as exc:
        out.write(f"prediction aborted: {exc}\n")
        return 1
    serve = time.perf_counter() - start
    out.write(
        f"{predictor.name} risk map for {profile.name} at effort "
        f"{effort:.2f} km ({source}; setup {setup:.2f}s, serve {serve:.3f}s)\n"
    )
    out.write(
        ascii_heatmap(data.park.grid, risk, title="predicted attack risk:") + "\n"
    )
    if args.save_model:
        predictor.save(args.save_model)
        out.write(f"model saved to {args.save_model}\n")
    return 0


def _cmd_serve(args, out) -> int:
    from repro.runtime.daemon import ParkServiceDaemon

    try:
        daemon = ParkServiceDaemon(
            args.models_dir,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline=(
                None if args.no_default_deadline else args.default_deadline
            ),
            registry_options={
                "max_parks": args.max_parks,
                "tile_size": args.tile_size,
                "n_jobs": args.n_jobs,
                "backend": args.backend,
            },
            verbose=args.verbose,
        )
        daemon.start()
    except ConfigurationError as exc:
        out.write(f"serve: {exc}\n")
        return 2
    out.write(
        f"park-service listening on http://{daemon.host}:{daemon.port} "
        f"(parks: {', '.join(daemon.registry.available()) or 'none'})\n"
    )
    out.flush()
    return daemon.run_forever()


def _cmd_lint(args, out) -> int:
    from repro.analysis.cli import run_from_args

    return run_from_args(args, out)


_COMMANDS = {
    "stats": _cmd_stats,
    "maps": _cmd_maps,
    "evaluate": _cmd_evaluate,
    "fieldtest": _cmd_fieldtest,
    "plan": _cmd_plan,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":
    raise SystemExit(main())
