"""The fit workload: retrain and save every park's models in one process.

    PYTHONPATH=src python3 perfbench/fitting.py --seed N --seconds S \
        --trace 0|1 --workdir DIR --out RESULT.json

Set-up (timed :data:`SETUP_SAMPLES` times) generates the three parks' data
and runs the warm-up fits. The timed phase then runs whole rounds — GPB-iW
for the three parks, then DTB-iW, in a seeded park order; each model is
fitted at ``n_jobs=2`` and saved. The run does one round per
:data:`ROUND_SECONDS` of ``--seconds`` (at least one), a fixed amount of
work for a given ``--seconds``, so both commits of a comparison fit the
same models the same number of times. After
the timed phase every model of the last round is reloaded and must predict
bit-identically, and its held-out AUC is taken.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from daemon import vmhwm_mb
from serving import PARKS

FAMILIES = ("gpb", "dtb")
SETUP_SAMPLES = 2
N_JOBS = 2
#: The serving recipe's model settings (``repro predict`` defaults).
N_CLASSIFIERS = 6
MODEL_SEED = 1
#: Nominal length of one round on the reference host (2 cores).
ROUND_SECONDS = 10.0
#: Cells compared per reloaded model.
CHECKED_CELLS = 64


def _predictor(profile, family: str):
    from repro.core import PawsPredictor

    # The CLI recipe's rule: balanced bagging below ~3% positives (SWS).
    balanced = (
        profile.target_positive_rate is not None
        and profile.target_positive_rate < 0.03
    )
    return PawsPredictor(
        model=family, iware=True, n_classifiers=N_CLASSIFIERS,
        balanced=balanced, seed=MODEL_SEED, n_jobs=N_JOBS,
    )


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer().install()
    from repro.data import generate_dataset, get_profile
    from repro.runtime.resilience import collect_stats

    setups = []
    setup_start = time.monotonic()
    for __ in range(SETUP_SAMPLES):
        started = time.monotonic()
        parks = {}
        for name in PARKS:
            data = generate_dataset(get_profile(name), seed=0)
            profile = data.park.profile
            split = data.dataset.split_by_test_year(profile.years - 1)
            parks[name] = (profile, data, split)
        profile, __, split = parks["SWS"]
        for family in FAMILIES:  # warm-up: the cheap SWS models
            _predictor(profile, family).fit(split.train)
        setups.append(time.monotonic() - started)
    setup_end = time.monotonic()

    rng = np.random.default_rng([seed, 1])
    jobs = []
    latest = {}
    start = time.monotonic()
    with collect_stats() as fanouts:
        for __ in range(max(1, round(seconds / ROUND_SECONDS))):
            order = [PARKS[i] for i in rng.permutation(len(PARKS))]
            for family in FAMILIES:
                for name in order:
                    profile, __, split = parks[name]
                    began = time.monotonic()
                    predictor = _predictor(profile, family).fit(split.train)
                    path = workdir / "models" / f"{name}-{family}"
                    predictor.save(path)
                    jobs.append({"park": name, "family": family,
                                 "seconds": time.monotonic() - began})
                    latest[(name, family)] = (predictor, path)
    end = time.monotonic()

    checks, mismatches = _check_reloads(
        latest, parks, np.random.default_rng([seed, 2])
    )
    aucs = {
        f"{name}/{family}": float(predictor.evaluate_auc(parks[name][2].test))
        for (name, family), (predictor, __) in sorted(latest.items())
    }
    result = {
        "setups_s": setups,
        "jobs": jobs,
        "timed_window": [start, end],
        "setup_window": [setup_start, setup_end],
        "checks": checks,
        "mismatches": mismatches,
        "aucs": aucs,
        "peak_rss_mb": vmhwm_mb(),
        "resilience": fanouts.as_dict(),
    }
    if tracer is not None:
        spans_path = workdir / "spans-fit.json"
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
    return result


def _check_reloads(latest, parks, rng) -> tuple[int, list[str]]:
    """Reload each model of the last round; predictions must match bit for bit."""
    from repro.core import PawsPredictor

    mismatches = []
    for (name, family), (predictor, path) in sorted(latest.items()):
        __, data, __ = parks[name]
        features = predictor.cell_feature_matrix(data.park, data.recorded_effort[-1])
        rows = rng.choice(features.shape[0], size=CHECKED_CELLS, replace=False)
        effort = float(5.0 - rng.uniform(0.0, 5.0))
        loaded = PawsPredictor.load(path)
        for level in (None, effort):
            fitted = predictor.predict_proba(features[rows], effort=level)
            reloaded = loaded.predict_proba(features[rows], effort=level)
            if fitted.tobytes() != reloaded.tobytes():
                mismatches.append(f"{name}/{family} effort={level}: reloaded "
                                  "model predicts differently")
    return len(latest), mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.seed, args.seconds, bool(args.trace), args.workdir)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
