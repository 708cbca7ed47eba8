"""``generate_dataset`` against its executable spec, bit for bit.

The generator walks each park's patrols once per call and takes each walk
step as scalars; ``tests/oracles/generator_reference.py`` re-walks them in
every calibration pass with ``rng.choice``. The two must agree on every
array (dtype and shape included), the poacher intercept, the SMART records
and the patrols. Digests are not pinned instead: ``np.exp`` bits can differ
between CPUs and numpy builds, while both sides here run on the same ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import MFNP, QENP, SWS, SWS_DRY, generate_dataset
from repro.data.park import SyntheticPark
from repro.data.poachers import PoacherModel
from repro.data.rangers import PatrolSimulator
from tests.oracles.generator_reference import (
    ReferencePatrolSimulator,
    reference_generate_dataset,
)

PROFILES = {"MFNP": MFNP, "QENP": QENP, "SWS": SWS, "SWS dry": SWS_DRY}
EFFORTS = ("true_effort", "recorded_effort", "attacks", "detections")
DATASET_ARRAYS = (
    "static_features", "prev_effort", "current_effort", "labels", "period", "cell",
)


def _assert_identical(actual: np.ndarray, expected: np.ndarray, label: str) -> None:
    assert actual.dtype == expected.dtype, label
    assert actual.shape == expected.shape, label
    np.testing.assert_array_equal(actual, expected, err_msg=label)


def _patrols(patrols) -> list[tuple]:
    return [(p.period_index, p.post, p.path, p.waypoints) for p in patrols]


@pytest.mark.parametrize("scale", [0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("park", sorted(PROFILES))
def test_generate_dataset_matches_oracle(park, seed, scale):
    profile = PROFILES[park].scaled(scale)
    data = generate_dataset(profile, seed=seed)
    expected = reference_generate_dataset(profile, seed=seed)

    for name in EFFORTS:
        _assert_identical(getattr(data, name), getattr(expected, name), name)
    for name in DATASET_ARRAYS:
        _assert_identical(
            getattr(data.dataset, name), getattr(expected.dataset, name), name
        )
    assert data.dataset.feature_names == expected.dataset.feature_names
    assert data.dataset.periods_per_year == expected.dataset.periods_per_year
    assert data.dataset.name == expected.dataset.name
    assert data.poachers._intercept == expected.poachers._intercept
    assert data.smart.records() == expected.smart.records()
    assert all(type(r.category) is str for r in data.smart.records())
    assert _patrols(data.smart._patrols) == _patrols(expected.smart._patrols)


@pytest.mark.parametrize("park", sorted(PROFILES))
def test_walk_consumes_the_oracles_draws(park):
    """Same patrols, same effort and the same generator state after every
    period: each step takes exactly one ``rng.random()`` double."""
    grid_park = SyntheticPark.generate(PROFILES[park].scaled(0.5), seed=3)
    simulator = PatrolSimulator(grid_park, seed=5)
    oracle = ReferencePatrolSimulator(grid_park, seed=5)
    for t in range(6):
        effort, patrols = simulator.simulate_period(t)
        expected_effort, expected_patrols = oracle.simulate_period(t)
        _assert_identical(effort, expected_effort, f"period {t}")
        assert _patrols(patrols) == _patrols(expected_patrols)
        assert simulator.rng.bit_generator.state == oracle.rng.bit_generator.state


def test_step_matches_choice_on_hostile_weights():
    """The scalar step against ``rng.choice`` on weights spanning 600
    orders of magnitude, subnormals and exact ties included."""
    park = SyntheticPark.generate(MFNP.scaled(0.3), seed=0)
    simulator = PatrolSimulator(park, seed=11)
    draws = np.random.default_rng(12)
    for trial in range(3000):
        n = 1 + trial % 4
        weights = np.exp(draws.uniform(-700.0, 700.0, size=n))
        if trial % 5 == 0:
            weights[:] = weights[0]
        if trial % 7 == 0:
            weights[0] = 5e-324
        expected_rng = np.random.Generator(np.random.PCG64())
        expected_rng.bit_generator.state = simulator.rng.bit_generator.state
        p = weights / weights.sum()
        assert simulator._step(weights.tolist()) == expected_rng.choice(n, p=p)
        assert simulator.rng.bit_generator.state == expected_rng.bit_generator.state


def test_step_matches_choice_on_cdf_boundaries():
    """``u`` on, or a few ulps beside, a boundary of the normalised running
    sum. Random weights almost never land there, so only these probes tell
    ``choice``'s exact arithmetic (sum order, division, renormalisation,
    ``<=``) from an equivalent-looking variant."""
    park = SyntheticPark.generate(MFNP.scaled(0.3), seed=0)
    simulator = PatrolSimulator(park, seed=21)
    draws = np.random.default_rng(22)
    expected_rng = np.random.Generator(np.random.PCG64())
    for trial in range(400):
        state = simulator.rng.bit_generator.state
        expected_rng.bit_generator.state = state
        u = expected_rng.random()
        n = 2 + trial % 3
        weights = draws.uniform(0.05, 20.0, size=n)
        k = int(draws.integers(n - 1))
        before, after = weights[:k].sum(), weights[k + 1:].sum()
        if u * (before + after) <= before:
            k, before, after = 0, 0.0, weights[1:].sum()
        # (before + w) / (before + w + after) == u, up to rounding.
        weights[k] = (u * (before + after) - before) / (1.0 - u)
        for __ in range(4):
            weights[k] = np.nextafter(weights[k], 0.0)
        for __ in range(9):
            simulator.rng.bit_generator.state = state
            expected_rng.bit_generator.state = state
            p = weights / weights.sum()
            assert simulator._step(weights.tolist()) == expected_rng.choice(n, p=p)
            weights[k] = np.nextafter(weights[k], np.inf)


def test_patrols_are_walked_once_per_call(monkeypatch):
    """Calibration re-runs only the poacher side: one walk per period,
    where re-walking made one per period per pass."""
    calls = []
    walk = PatrolSimulator.simulate_period

    def counted(self, *args, **kwargs):
        calls.append(args)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(PatrolSimulator, "simulate_period", counted)
    data = generate_dataset(MFNP, seed=0)
    assert len(calls) == MFNP.n_periods
    # The intercept moved, so calibration really re-ran the poacher side.
    uncalibrated = PoacherModel(data.park, seed=1)
    assert data.poachers._intercept != uncalibrated._intercept
