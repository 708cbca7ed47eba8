"""SMART-style observation records and effort reconstruction.

SMART (Spatial Monitoring and Reporting Tool) stores ranger observations as
GPS-stamped categorised records, and patrol effort must be *rebuilt* from
sequential waypoints (Section III-B: "we rebuild historical patrol effort
from these observations by using sequential waypoints to calculate patrol
trajectories"). This module provides the same record model and the waypoint
-> trajectory -> per-cell-effort reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.rangers import PatrolRecord
from repro.exceptions import ConfigurationError, DataError
from repro.geo.grid import Grid

#: Observation categories that count as poaching signs (Section III-B).
POACHING_CATEGORIES = (
    "snare",
    "firearm",
    "bullet_cartridge",
    "slain_animal",
    "poacher_sighting",
)

#: Non-poaching observations rangers also record.
NON_POACHING_CATEGORIES = (
    "animal_sighting",
    "human_sighting",
    "campsite",
    "cut_tree",
)

OBSERVATION_CATEGORIES = POACHING_CATEGORIES + NON_POACHING_CATEGORIES


@dataclass(frozen=True)
class ObservationRecord:
    """One ranger observation synced from a GPS tracker.

    Attributes
    ----------
    period_index:
        Discretised time period of the observation.
    cell:
        Cell id where the observation was made.
    category:
        One of :data:`OBSERVATION_CATEGORIES`.
    patrol_id:
        Index of the patrol (within its period) that made the observation.
    """

    period_index: int
    cell: int
    category: str
    patrol_id: int

    def __post_init__(self) -> None:
        if self.category not in OBSERVATION_CATEGORIES:
            raise ConfigurationError(f"unknown observation category '{self.category}'")

    @property
    def is_poaching(self) -> bool:
        """Whether this record is a sign of illegal poaching activity."""
        return self.category in POACHING_CATEGORIES


class SmartDatabase:
    """In-memory stand-in for a park's SMART database.

    Collects observation records and patrol waypoints, and answers the two
    queries the pipeline needs: which (period, cell) pairs had detected
    poaching, and what the *recorded* patrol effort was.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._records: list[ObservationRecord] = []
        self._patrols: list[PatrolRecord] = []

    # ------------------------------------------------------------------
    def add_record(self, record: ObservationRecord) -> None:
        """Store one observation."""
        if not 0 <= record.cell < self.grid.n_cells:
            raise DataError(f"record cell {record.cell} outside the park")
        self._records.append(record)

    def add_patrol(self, patrol: PatrolRecord) -> None:
        """Store one patrol's waypoints."""
        self._patrols.append(patrol)

    @property
    def n_records(self) -> int:
        return len(self._records)

    @property
    def n_patrols(self) -> int:
        return len(self._patrols)

    def records(self, period_index: int | None = None) -> list[ObservationRecord]:
        """All records, optionally filtered to one period."""
        if period_index is None:
            return list(self._records)
        return [r for r in self._records if r.period_index == period_index]

    def poaching_cells(self, period_index: int) -> set[int]:
        """Cells with at least one poaching-category record in a period."""
        return {
            r.cell
            for r in self._records
            if r.period_index == period_index and r.is_poaching
        }

    # ------------------------------------------------------------------
    def recorded_effort(self, period_index: int) -> np.ndarray:
        """Patrol effort (km per cell) reconstructed from waypoints."""
        effort = np.zeros(self.grid.n_cells)
        for patrol in self._patrols:
            if patrol.period_index != period_index:
                continue
            effort += rebuild_effort_from_waypoints(self.grid, patrol.waypoints)
        return effort


def rebuild_effort_from_waypoints(grid: Grid, waypoints: list[int]) -> np.ndarray:
    """Per-cell km of effort implied by a sequence of GPS waypoints.

    Consecutive waypoints are joined by a straight lattice line (the best an
    analyst can do without the true path); each traversed cell gets 1 km.
    With sparse waypoints (motorbike patrols) this *underestimates* true
    effort and can attribute effort to cells never visited — exactly the
    data-quality problem the paper describes for SWS.
    """
    effort = np.zeros(grid.n_cells)
    if not waypoints:
        return effort
    if len(waypoints) == 1:
        effort[waypoints[0]] += 1.0
        return effort
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        for cid in _lattice_line(grid, a, b):
            effort[cid] += 1.0
    # The first waypoint of each segment is counted once per segment; add
    # the final endpoint which the loop's half-open convention skipped.
    effort[waypoints[-1]] += 1.0
    return effort


def _lattice_line(grid: Grid, start: int, end: int) -> list[int]:
    """Cells on a straight line between two cells (endpoint excluded).

    Uses a supercover Bresenham-style walk: steps one cell at a time in the
    dominant direction, which keeps consecutive cells rook-adjacent.
    """
    r0, c0 = grid.cell_rc(start)
    r1, c1 = grid.cell_rc(end)
    cells: list[int] = []
    r, c = r0, c0
    while (r, c) != (r1, c1):
        if grid.contains_rc(r, c):
            cells.append(grid.cell_id(r, c))
        # Move along the axis with the larger remaining gap (ties: rows).
        if abs(r1 - r) >= abs(c1 - c):
            r += 1 if r1 > r else -1
        else:
            c += 1 if c1 > c else -1
    return cells
