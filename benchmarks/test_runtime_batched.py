"""Serving engine: batched effort-response speedup and persistence round trip.

The seed implementation of ``PawsPredictor.effort_response`` re-ran every
ensemble member once per effort level, although member predictions do not
depend on the hypothesised effort (only the qualification mix does). The
batched path computes member statistics once and mixes all levels with two
matrix products. This benchmark measures that speedup on a 1,600-cell park
with a 10-point effort grid — the acceptance bar is >= 3x with max absolute
deviation < 1e-8 from the per-level reference loop — and checks the other
two serving-engine contracts: parallel fitting is bit-identical to serial,
and a save/load round trip serves the identical risk surface without
refitting.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.core import PawsPredictor
from repro.data import MFNP, generate_dataset
from repro.evaluation import format_table
from repro.runtime import RiskMapService
from repro.runtime.resilience import collect_stats
from tests.oracles.mixing_reference import per_level_effort_response

from conftest import write_report

#: MFNP terrain statistics on a full 40x40 lattice: exactly 1,600 cells.
PROFILE = replace(MFNP.scaled(5.0 / 3.0), name="MFNP-XL", geometry="rectangle")
N_GRID = 10
N_CLASSIFIERS = 6
N_ESTIMATORS = 3


def test_batched_serving_engine(benchmark, tmp_path):
    data = generate_dataset(PROFILE, seed=0)
    assert data.park.n_cells == 1600
    split = data.dataset.split_by_test_year(PROFILE.years - 1)

    def predictor(n_jobs: int = 1) -> PawsPredictor:
        return PawsPredictor(
            model="gpb", iware=True, n_classifiers=N_CLASSIFIERS,
            n_estimators=N_ESTIMATORS, seed=1, n_jobs=n_jobs,
        )

    start = time.perf_counter()
    fitted = predictor().fit(split.train)
    t_fit_serial = time.perf_counter() - start
    start = time.perf_counter()
    with collect_stats() as fanouts:
        fitted_parallel = predictor(n_jobs=4).fit(split.train)
    t_fit_parallel = time.perf_counter() - start
    # GP fits keep every core busy through the threaded BLAS, so the auto
    # backend runs them serially: n_jobs=4 must not put them on a pool.
    assert set(fanouts.backends) == {"serial"}, fanouts.backends
    # Worker counts clamp to the cores actually available, so requesting
    # n_jobs=4 never oversubscribes: on a single-core container the pool
    # degrades to the *same* serial code path, making this single-shot
    # timing comparison meaningful there (slack absorbs container noise).
    # On multi-core machines pool overhead vs speedup is covered by the
    # interleaved measurements in test_fit_throughput instead.
    from repro.runtime.parallel import effective_cpu_count

    if effective_cpu_count() == 1:
        assert t_fit_parallel <= t_fit_serial * 1.25

    features = fitted.cell_feature_matrix(data.park, data.recorded_effort[-1])
    grid = np.linspace(0.0, 6.0, N_GRID)

    # Parallel fitting must be bit-identical (seeds are pre-drawn serially).
    np.testing.assert_array_equal(
        fitted_parallel.predict_proba(features), fitted.predict_proba(features)
    )

    # The seed implementation's per-level loop, reconstructed from the
    # public per-level API: every ensemble member re-runs at every effort
    # level.
    start = time.perf_counter()
    risk_loop = np.stack(
        [fitted.predict_proba(features, effort=float(c)) for c in grid], axis=1
    )
    var_loop = np.stack(
        [fitted.predict_variance(features, effort=float(c)) for c in grid],
        axis=1,
    )
    t_loop = time.perf_counter() - start
    risk_loop[:, grid == 0.0] = 0.0
    from repro.core.uncertainty import UncertaintyScaler

    nu_loop = UncertaintyScaler().fit(var_loop.ravel()).transform(var_loop)

    # The per-level reference mixing over one member pass must reproduce
    # that loop exactly.
    risk_pl, nu_pl, __ = per_level_effort_response(
        fitted, fitted.member_pass(features), grid
    )
    np.testing.assert_array_equal(risk_pl, risk_loop)
    np.testing.assert_array_equal(nu_pl, nu_loop)

    def batched():
        return fitted.effort_response(features, grid)

    start = time.perf_counter()
    risk_batch, nu_batch = batched()
    t_batch = time.perf_counter() - start
    benchmark.pedantic(batched, rounds=3, iterations=1)

    max_dev = max(
        float(np.abs(risk_batch - risk_loop).max()),
        float(np.abs(nu_batch - nu_loop).max()),
    )
    speedup = t_loop / t_batch

    # Save/load round trip: a persisted model serves the identical surface.
    model_dir = tmp_path / "paws-gpb"
    fitted.save(model_dir)
    start = time.perf_counter()
    service = RiskMapService.from_saved(model_dir)
    t_load = time.perf_counter() - start
    loaded_risk, loaded_nu = service.effort_response(features, grid)
    np.testing.assert_array_equal(loaded_risk, risk_batch)
    np.testing.assert_array_equal(loaded_nu, nu_batch)

    # Warm-cache serving cost (the repeated-query path).
    start = time.perf_counter()
    service.effort_response(features, grid)
    t_cached = time.perf_counter() - start
    assert service.cache_info()["hits"] == 1

    rows = [
        ["fit, serial (s)", t_fit_serial],
        ["fit, n_jobs=4 auto backend (s, bit-identical)", t_fit_parallel],
        ["fit, n_jobs=4 / serial (x)", t_fit_parallel / t_fit_serial],
        ["effort_response, seed per-level loop (s)", t_loop],
        ["effort_response, batched (s)", t_batch],
        ["batched speedup (x)", speedup],
        ["max |batched - loop| deviation", max_dev],
        ["load saved model (s)", t_load],
        ["cached re-serve (s)", t_cached],
    ]
    table = format_table(
        [f"{PROFILE.name}: {data.park.n_cells} cells, {N_GRID}-pt grid", "value"],
        rows, "{:.6f}",
    )
    note = (
        "\nnote: the fitting fan-out picks its pool per workload: GP fits "
        "run serially (OpenBLAS already threads their Cholesky "
        "factorisations; a thread pool on top only contends with it), "
        "pure-Python trees/SVMs go to processes, and workers are clamped to "
        "usable cores. The n_jobs=4 GPB fit above therefore runs the serial "
        f"code path (fan-out rungs: {dict(fanouts.backends)}), and its "
        "ratio to serial is timing noise around 1.0; results are "
        "bit-identical on every backend."
    )
    write_report("runtime_batched", table + note)

    # Acceptance: numerically faithful and >= 3x faster than the seed loop.
    assert max_dev < 1e-8
    assert speedup >= 3.0
    # The cached path must be dramatically cheaper than recomputing.
    assert t_cached < t_batch / 10
