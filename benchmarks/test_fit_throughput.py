"""Training engine: presorted tree growth, process-parallel fitting, O(n) geo.

PR 1 made serving fast and PR 2 made planning fit-once/plan-many; this
benchmark guards the train-side rewrites that make *fitting* fast:

* presorted packed-array CART growth — ≥5x faster single-core tree fitting
  on the MFNP-XL training set, with packed arrays and predictions identical
  to the original recursive builder (kept in ``tests/oracles/tree_reference.py``);
* the process fitting backend — ``n_jobs=4`` DTB ensemble fits are
  bit-identical to serial, strictly faster when the machine has more than
  one usable core, and never meaningfully slower on a single core (worker
  counts are clamped to the cores actually available);
* exact-equivalent O(n) geo transforms — ≥10x faster ``chamfer_distance``
  and ``geodesic_distance`` on a 100x100 grid, elementwise identical to the
  per-cell reference implementations.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke step does) to run a reduced
configuration with slightly relaxed speedup floors that still fail loudly on
a real throughput regression.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from repro.core import PawsPredictor
from repro.data import MFNP, generate_dataset
from repro.evaluation import format_table
from repro.geo import Grid
from repro.geo.distance import chamfer_distance, geodesic_distance
from repro.ml.tree import DecisionTreeClassifier
from repro.runtime.parallel import effective_cpu_count
from tests.oracles.distance_reference import (
    chamfer_distance_reference,
    geodesic_distance_reference,
)
from tests.oracles.tree_reference import reference_fit_arrays

from conftest import write_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: MFNP terrain statistics on a full 40x40 lattice: exactly 1,600 cells
#: (the same XL park the serving benchmark uses).
PROFILE = replace(MFNP.scaled(5.0 / 3.0), name="MFNP-XL", geometry="rectangle")

#: Speedup floors; the smoke configuration keeps regressions loud while
#: tolerating shared-runner noise.
TREE_SPEEDUP_FLOOR = 3.0 if SMOKE else 5.0
GEO_SPEEDUP_FLOOR = 5.0 if SMOKE else 10.0
GEO_SIZE = 60 if SMOKE else 100
TIMING_REPS = 3 if SMOKE else 7


def best_of(fn, reps: int = TIMING_REPS) -> tuple[float, object]:
    """Minimum wall-clock over ``reps`` runs (robust on noisy containers)."""
    best = np.inf
    result = None
    for __ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_fit_throughput(benchmark):
    data = generate_dataset(PROFILE, seed=0)
    split = data.dataset.split_by_test_year(PROFILE.years - 1)
    X, y = split.train.feature_matrix, split.train.labels
    if SMOKE:
        X, y = X[:400], y[:400]

    # --- 1. Presorted packed tree growth vs the original builder ---------
    def fit_reference():
        tree = DecisionTreeClassifier()
        Xc, yc = tree._check_fit_input(X, y)
        return reference_fit_arrays(tree, Xc, yc)

    def fit_packed():
        return DecisionTreeClassifier().fit(X, y)

    # Interleaved minima: container noise bursts hit both sides equally.
    t_ref = t_packed = np.inf
    ref_arrays = packed_tree = None
    for __ in range(TIMING_REPS):
        start = time.perf_counter()
        ref_arrays = fit_reference()
        t_ref = min(t_ref, time.perf_counter() - start)
        start = time.perf_counter()
        packed_tree = fit_packed()
        t_packed = min(t_packed, time.perf_counter() - start)
    benchmark.pedantic(fit_packed, rounds=3, iterations=1)
    tree_speedup = t_ref / t_packed
    for key, array in ref_arrays.items():
        np.testing.assert_array_equal(
            array, packed_tree.tree_arrays[key], err_msg=f"tree array '{key}'"
        )

    # --- 2. Serial vs process-parallel DTB ensemble fit ------------------
    def predictor(n_jobs: int) -> PawsPredictor:
        return PawsPredictor(
            model="dtb", iware=True, n_classifiers=6, n_estimators=3,
            weighting="qualified", seed=1, n_jobs=n_jobs, backend="auto",
        )

    # Interleave the serial/parallel reps so container noise hits both sides
    # of the comparison equally.
    t_serial = t_process = np.inf
    fitted_serial = fitted_process = None
    for __ in range(3):
        start = time.perf_counter()
        fitted_serial = predictor(1).fit(split.train)
        t_serial = min(t_serial, time.perf_counter() - start)
        start = time.perf_counter()
        fitted_process = predictor(4).fit(split.train)
        t_process = min(t_process, time.perf_counter() - start)
    features = fitted_serial.cell_feature_matrix(
        data.park, data.recorded_effort[-1]
    )
    # Bit-identity is the contract regardless of backend or worker count.
    np.testing.assert_array_equal(
        fitted_serial.predict_proba(features),
        fitted_process.predict_proba(features),
    )

    # --- 3. Geo transforms vs the per-cell references --------------------
    rng = np.random.default_rng(0)
    mask = rng.random((GEO_SIZE, GEO_SIZE)) < 0.01
    mask[GEO_SIZE // 2, GEO_SIZE // 2] = True
    t_cham_ref, cham_ref = best_of(lambda: chamfer_distance_reference(mask))
    t_cham, cham = best_of(lambda: chamfer_distance(mask))
    np.testing.assert_array_equal(cham, cham_ref)
    cham_speedup = t_cham_ref / t_cham

    holes = rng.random((GEO_SIZE, GEO_SIZE)) < 0.85
    holes[0, 0] = True
    grid = Grid(GEO_SIZE, GEO_SIZE, mask=holes)
    sources = [0, grid.n_cells - 1]
    t_geo_ref, geo_ref = best_of(
        lambda: geodesic_distance_reference(grid, sources)
    )
    t_geo, geo = best_of(lambda: geodesic_distance(grid, sources))
    np.testing.assert_array_equal(geo, geo_ref)
    geo_speedup = t_geo_ref / t_geo

    cores = effective_cpu_count()
    rows = [
        ["tree fit, original builder (s)", t_ref],
        ["tree fit, presorted packed (s)", t_packed],
        ["tree growth speedup (x)", tree_speedup],
        ["DTB ensemble fit, serial (s)", t_serial],
        ["DTB ensemble fit, n_jobs=4 process (s)", t_process],
        ["ensemble parallel speedup (x)", t_serial / t_process],
        ["usable cores", float(cores)],
        [f"chamfer {GEO_SIZE}x{GEO_SIZE}, reference (s)", t_cham_ref],
        [f"chamfer {GEO_SIZE}x{GEO_SIZE}, vectorized (s)", t_cham],
        ["chamfer speedup (x)", cham_speedup],
        [f"geodesic {GEO_SIZE}x{GEO_SIZE}, Dijkstra (s)", t_geo_ref],
        [f"geodesic {GEO_SIZE}x{GEO_SIZE}, BFS (s)", t_geo],
        ["geodesic speedup (x)", geo_speedup],
    ]
    table = format_table(
        [f"{PROFILE.name}: fit throughput ({X.shape[0]} train rows)", "value"],
        rows, "{:.6f}",
    )
    note = (
        "\nnote: every rewrite is exactness-tested against its original "
        "implementation (identical packed tree arrays, identical distance "
        "rasters, bit-identical parallel fits). Worker counts clamp to "
        "usable cores, so on a single-core container the process backend "
        "degrades to the serial path instead of oversubscribing."
    )
    if SMOKE:
        print(table + note)  # smoke runs must not overwrite the full report
    else:
        write_report("fit_throughput", table + note)

    # Acceptance: fast, and exactly equivalent (asserted above).
    assert tree_speedup >= TREE_SPEEDUP_FLOOR
    assert cham_speedup >= GEO_SPEEDUP_FLOOR
    assert geo_speedup >= GEO_SPEEDUP_FLOOR
    if cores > 1 and not SMOKE:
        # With real parallel hardware the process pool must win outright.
        # (The smoke configuration trims the fit to a size where pool
        # overhead can mask the win on noisy shared runners, so it only
        # checks the not-meaningfully-slower bound below.)
        assert t_process < t_serial
    else:
        # One usable core (or smoke mode): the backend clamps to the
        # serial path, so "parallel" may not win but must never
        # meaningfully lose; the slack absorbs container timing noise.
        assert t_process <= t_serial * 1.25
