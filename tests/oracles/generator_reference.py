"""Executable spec of the synthetic-data generator before its rewrite.

:func:`reference_generate_dataset` re-walks every patrol in each
calibration pass, takes each walk step with ``rng.choice(candidates,
p=weights)``, draws record categories with ``rng.choice``, assembles the
dataset row by row, and rebuilds sparse waypoints with ``np.sign`` steps.
``repro.data.generate_dataset`` must reproduce it bit for bit
(``tests/test_data_generator_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import PoachingDataset
from repro.data.generator import ParkData
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
from repro.exceptions import ConfigurationError
from repro.geo.grid import Grid


class ReferencePatrolSimulator(PatrolSimulator):
    """:class:`PatrolSimulator` with the per-km ``rng.choice`` walk."""

    def simulate_patrol(self, period_index: int) -> PatrolRecord:
        profile = self.park.profile
        post = int(self.rng.choice(self.park.patrol_posts))
        length = profile.patrol_length_km
        path = [post]
        current = post
        for __ in range(length - 1):
            options = self._neighbors[current]
            if not options:
                break
            # Avoid doubling straight back over the last few cells when any
            # fresh neighbour exists — real patrols sweep, they don't pace.
            recent = set(path[-3:])
            fresh = [o for o in options if o not in recent]
            candidates = fresh if fresh else options
            weights = np.exp(
                self.focus * np.array([self._preference[o] for o in candidates])
            )
            weights /= weights.sum()
            current = int(self.rng.choice(candidates, p=weights))
            path.append(current)
        waypoints = path[:: profile.waypoint_interval]
        if waypoints[-1] != path[-1]:
            waypoints.append(path[-1])
        return PatrolRecord(
            period_index=period_index, post=post, path=path, waypoints=waypoints
        )


def reference_generate_dataset(
    profile: ParkProfile, seed: int = 0, calibration_iters: int = 4
) -> ParkData:
    """The generator's calibration loop, one full simulation per pass."""
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    park = SyntheticPark.generate(profile, seed=seed)
    poachers = PoacherModel(park, seed=seed + 1)

    data = _simulate(park, poachers, profile, seed)
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
            data = _simulate(park, poachers, profile, seed)
    return data


def _simulate(
    park: SyntheticPark,
    poachers: PoacherModel,
    profile: ParkProfile,
    seed: int,
) -> ParkData:
    """One deterministic pass of the full simulation loop."""
    simulator = ReferencePatrolSimulator(park, seed=seed + 2)
    event_rng = np.random.default_rng(seed + 3)
    smart = SmartDatabase(park.grid)

    n_periods = profile.n_periods
    n_cells = park.n_cells
    true_effort = np.zeros((n_periods, n_cells))
    recorded_effort = np.zeros((n_periods, n_cells))
    attacks = np.zeros((n_periods, n_cells), dtype=bool)
    detections = np.zeros((n_periods, n_cells), dtype=bool)

    prev_true = np.zeros(n_cells)
    for t in range(n_periods):
        attacks[t] = poachers.sample_attacks(t, event_rng, prev_effort=prev_true)
        effort_t, patrols = simulator.simulate_period(t)
        true_effort[t] = effort_t

        p_detect = poachers.detection_probability(effort_t)
        detections[t] = attacks[t] & (event_rng.random(n_cells) < p_detect)

        for patrol_id, patrol in enumerate(patrols):
            smart.add_patrol(patrol)
            recorded_effort[t] += _patrol_recorded_effort(park, patrol, profile)
            _emit_records(smart, patrol, patrol_id, detections[t], event_rng)
        prev_true = effort_t

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
    if profile.waypoint_interval == 1:
        effort = np.zeros(park.n_cells)
        for cid in patrol.path:
            effort[cid] += 1.0
        return effort
    return _rebuild_effort_from_waypoints(park.grid, patrol.waypoints)


def _emit_records(
    smart: SmartDatabase,
    patrol,
    patrol_id: int,
    detections_t: np.ndarray,
    rng: np.random.Generator,
) -> None:
    seen: set[int] = set()
    for cid in patrol.path:
        if cid in seen:
            continue
        seen.add(cid)
        if detections_t[cid]:
            category = str(rng.choice(POACHING_CATEGORIES))
            smart.add_record(
                ObservationRecord(
                    period_index=patrol.period_index,
                    cell=cid,
                    category=category,
                    patrol_id=patrol_id,
                )
            )
        elif rng.random() < 0.05:
            category = str(rng.choice(NON_POACHING_CATEGORIES))
            smart.add_record(
                ObservationRecord(
                    period_index=patrol.period_index,
                    cell=cid,
                    category=category,
                    patrol_id=patrol_id,
                )
            )


def _assemble_dataset(
    park: SyntheticPark,
    recorded_effort: np.ndarray,
    detections: np.ndarray,
) -> PoachingDataset:
    static = park.features.matrix
    n_periods = recorded_effort.shape[0]
    rows_static: list[np.ndarray] = []
    prev_eff: list[float] = []
    cur_eff: list[float] = []
    labels: list[int] = []
    periods: list[int] = []
    cells: list[int] = []
    for t in range(1, n_periods):
        patrolled = np.nonzero(recorded_effort[t] > 0)[0]
        for cid in patrolled:
            rows_static.append(static[cid])
            prev_eff.append(float(recorded_effort[t - 1, cid]))
            cur_eff.append(float(recorded_effort[t, cid]))
            labels.append(int(detections[t, cid]))
            periods.append(t)
            cells.append(int(cid))
    return PoachingDataset(
        static_features=np.asarray(rows_static),
        prev_effort=np.asarray(prev_eff),
        current_effort=np.asarray(cur_eff),
        labels=np.asarray(labels),
        period=np.asarray(periods),
        cell=np.asarray(cells),
        periods_per_year=park.profile.periods_per_year,
        feature_names=park.features.names,
        name=park.profile.name,
    )


def _rebuild_effort_from_waypoints(grid: Grid, waypoints: list[int]) -> np.ndarray:
    effort = np.zeros(grid.n_cells)
    if not waypoints:
        return effort
    if len(waypoints) == 1:
        effort[waypoints[0]] += 1.0
        return effort
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        for cid in _lattice_line(grid, a, b):
            effort[cid] += 1.0
    effort[waypoints[-1]] += 1.0
    return effort


def _lattice_line(grid: Grid, start: int, end: int) -> list[int]:
    r0, c0 = grid.cell_rc(start)
    r1, c1 = grid.cell_rc(end)
    cells: list[int] = []
    r, c = r0, c0
    while (r, c) != (r1, c1):
        if grid.contains_rc(r, c):
            cells.append(grid.cell_id(r, c))
        dr = np.sign(r1 - r)
        dc = np.sign(c1 - c)
        # Move along the axis with the larger remaining gap (ties: rows).
        if abs(r1 - r) >= abs(c1 - c):
            r += int(dr)
        else:
            c += int(dc)
    return cells
