"""End-to-end synthetic data generation.

:func:`generate_dataset` runs the full simulation loop for one park —
patrols, attacks, detections, SMART records — and assembles the supervised
:class:`~repro.data.dataset.PoachingDataset` plus the ground-truth artifacts
that evaluation needs (true attack probabilities, effort histories).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import PoachingDataset
from repro.data.park import SyntheticPark
from repro.data.poachers import PoacherModel
from repro.data.profiles import ParkProfile
from repro.data.rangers import PatrolRecord, PatrolSimulator
from repro.data.smart import (
    NON_POACHING_CATEGORIES,
    POACHING_CATEGORIES,
    ObservationRecord,
    SmartDatabase,
)
from repro.exceptions import ConfigurationError, DataError


@dataclass
class ParkData:
    """Everything produced by one park simulation.

    Attributes
    ----------
    park:
        The synthetic park (grid + features).
    poachers:
        Ground-truth poacher model (the oracle for field-test simulation).
    dataset:
        Supervised dataset of patrolled (period, cell) points.
    smart:
        SMART-style database of raw records and patrols.
    true_effort:
        ``(T, N)`` km actually patrolled (the simulator's hidden truth).
    recorded_effort:
        ``(T, N)`` km reconstructed from waypoints (what analysts see).
    attacks:
        ``(T, N)`` boolean ground-truth attack realisations.
    detections:
        ``(T, N)`` boolean detected attacks (the observable labels).
    """

    park: SyntheticPark
    poachers: PoacherModel
    dataset: PoachingDataset
    smart: SmartDatabase
    true_effort: np.ndarray
    recorded_effort: np.ndarray
    attacks: np.ndarray
    detections: np.ndarray

    @property
    def profile(self) -> ParkProfile:
        return self.park.profile


def generate_dataset(
    profile: ParkProfile, seed: int = 0, calibration_iters: int = 4
) -> ParkData:
    """Simulate a park's full patrol history and build its dataset.

    The simulation loop per period: poachers place snares (Bernoulli per
    cell, deterred by last period's *true* effort); rangers patrol (biased
    walks); an attack is detected with probability ``1 - e^{-k c}`` in the
    cell's true effort ``c``; detections become SMART records; and recorded
    effort is rebuilt from (possibly sparse) waypoints.

    When the profile sets ``target_positive_rate``, the poacher side of the
    simulation is re-run up to ``calibration_iters`` times, shifting the
    poacher intercept on the log-odds scale, so the positive-label rate
    lands near the Table I value for every seed (park layouts vary a lot
    otherwise). Patrols never read the poacher model, so every pass reuses
    one walk of the patrol history.

    Parameters
    ----------
    profile:
        Park profile (geometry, rates, patrol resources).
    seed:
        Master seed (non-negative); park layout, poacher tastes, and patrol
        randomness all derive from it deterministically.
    calibration_iters:
        Maximum intercept-calibration re-simulations.

    Returns
    -------
    ParkData
        The park, ground truth, SMART database, and supervised dataset.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    park = SyntheticPark.generate(profile, seed=seed)
    poachers = PoacherModel(park, seed=seed + 1)
    history = _walk_patrols(park, profile, seed)

    data = _simulate(park, poachers, history, seed)
    target = profile.target_positive_rate
    if target is not None:
        for __ in range(calibration_iters):
            observed = data.dataset.positive_rate
            n = max(1, data.dataset.n_points)
            observed = min(max(observed, 0.5 / n), 1.0 - 0.5 / n)
            if abs(np.log(observed / (1 - observed))
                   - np.log(target / (1 - target))) < 0.15:
                break
            poachers.shift_intercept(
                np.log(target / (1 - target)) - np.log(observed / (1 - observed))
            )
            data = _simulate(park, poachers, history, seed)
    return data


#: ``(true_effort, recorded_effort, patrols)`` of one simulated history.
_PatrolHistory = tuple[np.ndarray, np.ndarray, list[list[PatrolRecord]]]


def _walk_patrols(
    park: SyntheticPark, profile: ParkProfile, seed: int
) -> _PatrolHistory:
    """The patrol history: ``(true_effort, recorded_effort, patrols)``.

    Both efforts are ``(T, N)`` km; ``patrols[t]`` lists period ``t``'s
    patrol records. The walks draw only from their own generator
    (``seed + 2``) and never read the poacher model, so one history serves
    every calibration pass exactly.
    """
    simulator = PatrolSimulator(park, seed=seed + 2)
    n_periods = profile.n_periods
    true_effort = np.zeros((n_periods, park.n_cells))
    recorded_effort = np.zeros((n_periods, park.n_cells))
    patrols: list[list[PatrolRecord]] = []
    for t in range(n_periods):
        true_effort[t], period_patrols = simulator.simulate_period(t)
        for patrol in period_patrols:
            recorded_effort[t] += _patrol_recorded_effort(park, patrol, profile)
        patrols.append(period_patrols)
    return true_effort, recorded_effort, patrols


def _simulate(
    park: SyntheticPark,
    poachers: PoacherModel,
    history: _PatrolHistory,
    seed: int,
) -> ParkData:
    """One calibration pass: attacks, detections, SMART records, dataset."""
    true_effort, recorded_effort, patrols = history
    event_rng = np.random.default_rng(seed + 3)
    smart = SmartDatabase(park.grid)

    n_periods, n_cells = true_effort.shape
    attacks = np.zeros((n_periods, n_cells), dtype=bool)
    detections = np.zeros((n_periods, n_cells), dtype=bool)

    prev_true = np.zeros(n_cells)
    for t in range(n_periods):
        attacks[t] = poachers.sample_attacks(t, event_rng, prev_effort=prev_true)
        p_detect = poachers.detection_probability(true_effort[t])
        detections[t] = attacks[t] & (event_rng.random(n_cells) < p_detect)

        for patrol_id, patrol in enumerate(patrols[t]):
            smart.add_patrol(patrol)
            _emit_records(smart, patrol, patrol_id, detections[t], event_rng)
        prev_true = true_effort[t]

    dataset = _assemble_dataset(park, recorded_effort, detections)
    return ParkData(
        park=park,
        poachers=poachers,
        dataset=dataset,
        smart=smart,
        true_effort=true_effort,
        recorded_effort=recorded_effort,
        attacks=attacks,
        detections=detections,
    )


def _patrol_recorded_effort(park: SyntheticPark, patrol, profile: ParkProfile) -> np.ndarray:
    """Recorded effort of one patrol.

    Foot patrols (waypoint every km) record their path exactly; sparse
    waypoints go through the SMART trajectory reconstruction.
    """
    from repro.data.smart import rebuild_effort_from_waypoints

    if profile.waypoint_interval == 1:
        effort = np.zeros(park.n_cells)
        for cid in patrol.path:
            effort[cid] += 1.0
        return effort
    return rebuild_effort_from_waypoints(park.grid, patrol.waypoints)


def _emit_records(
    smart: SmartDatabase,
    patrol: PatrolRecord,
    patrol_id: int,
    detections_t: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Turn a patrol's detections (and incidental sightings) into records.

    A category is drawn as ``rng.integers(len(categories))``, the draw
    ``rng.choice(categories)`` makes.
    """
    for cid in dict.fromkeys(patrol.path):
        if detections_t[cid]:
            categories = POACHING_CATEGORIES
        elif rng.random() < 0.05:
            categories = NON_POACHING_CATEGORIES
        else:
            continue
        smart.add_record(
            ObservationRecord(
                period_index=patrol.period_index,
                cell=cid,
                category=categories[rng.integers(len(categories))],
                patrol_id=patrol_id,
            )
        )


def _assemble_dataset(
    park: SyntheticPark,
    recorded_effort: np.ndarray,
    detections: np.ndarray,
) -> PoachingDataset:
    """Build the supervised dataset from the simulated history.

    A data point exists for every (period, cell) with recorded effort > 0,
    in period-then-cell order; the first period is skipped because it lacks
    a previous-effort covariate.
    """
    periods, cells = np.nonzero(recorded_effort[1:] > 0)
    if not periods.size:
        raise DataError("no cell was patrolled after the first period")
    periods += 1
    return PoachingDataset(
        static_features=park.features.matrix[cells],
        prev_effort=recorded_effort[periods - 1, cells],
        current_effort=recorded_effort[periods, cells],
        labels=detections[periods, cells],
        period=periods,
        cell=cells,
        periods_per_year=park.profile.periods_per_year,
        feature_names=park.features.names,
        name=park.profile.name,
    )


def dataset_statistics(data: ParkData) -> dict[str, float]:
    """Table I row for one generated park dataset."""
    stats = data.dataset.statistics()
    stats["n_cells"] = data.park.n_cells
    return stats
