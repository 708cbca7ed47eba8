"""Table II: AUC of the six-model zoo across datasets and test years.

The paper's headline predictive result: iWare-E "consistently improves AUC
across all models, raising the AUC by 0.100 on average", with GPB-iW
strongest under extreme class imbalance. This benchmark runs the full grid
(SVB / DTB / GPB, with and without iWare-E) on every dataset variant and
every evaluable test year, and asserts the averaged iWare-E lift.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation import format_table
from repro.evaluation.experiments import TABLE2_MODELS, average_by_model, run_model_zoo

from conftest import BALANCED, BENCH_PROFILES, N_CLASSIFIERS, evaluable_test_years, write_report

#: GPB-iW average AUCs as recorded in ``results/table2_auc.txt``. Changes
#: that move the GP fits at round-off level (solve order, BLAS kernels) must
#: keep each within +-0.01.
GPB_IW_PINS = {"MFNP": 0.620, "QENP": 0.882, "SWS": 0.634, "SWS dry": 0.635}


def test_table2_model_zoo_auc(park_data_cache, benchmark):
    def run_grid():
        all_rows = []
        averages = {}
        for name in BENCH_PROFILES:
            dataset = park_data_cache[name].dataset
            years = evaluable_test_years(dataset)
            if not years:
                all_rows.append([name, "-"] + ["n/a"] * len(TABLE2_MODELS))
                continue
            results = run_model_zoo(
                dataset,
                test_years=years,
                balanced=BALANCED[name],
                n_classifiers=N_CLASSIFIERS[name],
                n_estimators=3,
                seed=0,
            )
            for year in years:
                all_rows.append(
                    [name, str(year)]
                    + [float(results[year][m.name]) for m in TABLE2_MODELS]
                )
            avg = average_by_model(results)
            averages[name] = avg
            all_rows.append(
                [name, "Avg"] + [float(avg[m.name]) for m in TABLE2_MODELS]
            )
        return all_rows, averages

    rows, averages = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    table = format_table(
        ["dataset", "year"] + [m.name for m in TABLE2_MODELS], rows
    )

    # Aggregate the iWare-E lift across datasets and weak learners.
    lifts_all = []
    lifts_rich = []
    for name, avg in averages.items():
        for family in ("SVB", "DTB", "GPB"):
            lift = avg[f"{family}-iW"] - avg[family]
            lifts_all.append(lift)
            if name in ("MFNP", "QENP"):
                lifts_rich.append(lift)
    mean_lift_all = float(np.mean(lifts_all))
    mean_lift_rich = float(np.mean(lifts_rich))
    summary = (
        f"\nMean iWare-E AUC lift, all datasets: {mean_lift_all:+.3f}"
        f"\nMean iWare-E AUC lift, MFNP+QENP: {mean_lift_rich:+.3f} "
        f"(paper: +0.100)"
        "\nNote: at ~1/20th of the paper's data volume the SWS effort-"
        "filtered subsets hold <15 positives, starving iWare-E there; see "
        "EXPERIMENTS.md."
    )
    write_report("table2_auc", table + summary)

    for park, pinned in GPB_IW_PINS.items():
        assert abs(averages[park]["GPB-iW"] - pinned) <= 0.01, (
            f"{park}: GPB-iW average AUC {averages[park]['GPB-iW']:.3f} "
            f"moved off its pin {pinned:.3f}"
        )

    # Shape assertions (not absolute numbers): iWare-E helps on average
    # where the datasets carry enough positives for the comparison to be
    # meaningful, and models are far better than chance on those parks.
    # The Bayes-optimal AUC on these simulated parks (ranking by the true
    # attack probability, current effort unknown) is ~0.72 for MFNP, so
    # "well above chance" means comfortably over 0.60 here.
    assert mean_lift_rich > 0.0, "iWare-E must improve AUC on MFNP/QENP"
    for park in ("MFNP", "QENP"):
        best = max(averages[park].values())
        assert best > 0.60, f"{park}: best model should be well above chance"
        assert averages[park]["GPB-iW"] > best - 0.15
    # The paper's emphasis: GPs shine under extreme class imbalance — the
    # GP family (flat or iWare-E) must be the best family on SWS.
    if "SWS" in averages:
        avg = averages["SWS"]
        gp_best = max(avg["GPB"], avg["GPB-iW"])
        other_best = max(avg["SVB"], avg["SVB-iW"], avg["DTB"], avg["DTB-iW"])
        assert gp_best > other_best - 0.05
