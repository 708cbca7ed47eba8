"""Tests for repro.data.rangers and repro.data.smart."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    MFNP,
    SWS,
    ObservationRecord,
    PatrolSimulator,
    SmartDatabase,
    SyntheticPark,
    rebuild_effort_from_waypoints,
)
from repro.data.smart import NON_POACHING_CATEGORIES, POACHING_CATEGORIES
from repro.exceptions import ConfigurationError, DataError

SMALL = MFNP.scaled(0.5)


@pytest.fixture(scope="module")
def park() -> SyntheticPark:
    return SyntheticPark.generate(SMALL, seed=3)


class TestPatrolSimulator:
    def test_patrol_starts_at_post(self, park):
        sim = PatrolSimulator(park, seed=0)
        patrol = sim.simulate_patrol(0)
        assert patrol.path[0] in set(park.patrol_posts.tolist())

    def test_path_steps_are_adjacent(self, park):
        sim = PatrolSimulator(park, seed=1)
        patrol = sim.simulate_patrol(0)
        for a, b in zip(patrol.path[:-1], patrol.path[1:]):
            assert b in park.grid.neighbors(a, connectivity=4)

    def test_patrol_length(self, park):
        sim = PatrolSimulator(park, seed=2)
        patrol = sim.simulate_patrol(0)
        assert patrol.length_km == SMALL.patrol_length_km

    def test_waypoints_subsample_path(self, park):
        sim = PatrolSimulator(park, seed=3)
        patrol = sim.simulate_patrol(0)
        assert set(patrol.waypoints) <= set(patrol.path)
        assert patrol.waypoints[0] == patrol.path[0]
        assert patrol.waypoints[-1] == patrol.path[-1]

    def test_sparse_waypoints_for_motorbike_park(self):
        spark = SyntheticPark.generate(SWS.scaled(0.6), seed=0)
        sim = PatrolSimulator(spark, seed=0)
        patrol = sim.simulate_patrol(0)
        assert len(patrol.waypoints) < len(patrol.path)

    def test_period_effort_totals(self, park):
        sim = PatrolSimulator(park, seed=4)
        effort, patrols = sim.simulate_period(0)
        assert len(patrols) == SMALL.patrols_per_period
        assert effort.sum() == pytest.approx(
            sum(p.length_km for p in patrols)
        )

    def test_effort_is_spatially_biased(self, park):
        """Some cells get heavy effort, many get none (Fig. 3)."""
        sim = PatrolSimulator(park, seed=5)
        effort = np.zeros(park.n_cells)
        for t in range(4):
            e, __ = sim.simulate_period(t)
            effort += e
        assert (effort == 0).mean() > 0.2
        assert effort.max() > 5 * effort[effort > 0].mean() / 2

    def test_zero_patrols(self, park):
        sim = PatrolSimulator(park, seed=6)
        effort, patrols = sim.simulate_period(0, n_patrols=0)
        assert effort.sum() == 0 and patrols == []

    def test_negative_patrols_rejected(self, park):
        sim = PatrolSimulator(park, seed=6)
        with pytest.raises(ConfigurationError):
            sim.simulate_period(0, n_patrols=-1)

    def test_bad_focus(self, park):
        with pytest.raises(ConfigurationError):
            PatrolSimulator(park, focus=0.0)
        # exp(focus * preference) overflows: refused up front, not mid-walk.
        with pytest.raises(ConfigurationError, match="overflows"):
            PatrolSimulator(park, focus=1e6)

    def test_deterministic(self, park):
        a = PatrolSimulator(park, seed=9).simulate_period(0)[0]
        b = PatrolSimulator(park, seed=9).simulate_period(0)[0]
        np.testing.assert_array_equal(a, b)


class TestObservationRecord:
    def test_poaching_flag(self):
        snare = ObservationRecord(0, 0, "snare", 0)
        animal = ObservationRecord(0, 0, "animal_sighting", 0)
        assert snare.is_poaching
        assert not animal.is_poaching

    def test_unknown_category(self):
        with pytest.raises(ConfigurationError):
            ObservationRecord(0, 0, "ufo", 0)

    def test_category_lists_disjoint(self):
        assert not set(POACHING_CATEGORIES) & set(NON_POACHING_CATEGORIES)


class TestSmartDatabase:
    def test_add_and_query(self, park):
        db = SmartDatabase(park.grid)
        db.add_record(ObservationRecord(0, 1, "snare", 0))
        db.add_record(ObservationRecord(0, 2, "campsite", 0))
        db.add_record(ObservationRecord(1, 3, "firearm", 0))
        assert db.n_records == 3
        assert db.poaching_cells(0) == {1}
        assert db.poaching_cells(1) == {3}
        assert len(db.records(period_index=0)) == 2

    def test_out_of_park_record_rejected(self, park):
        db = SmartDatabase(park.grid)
        with pytest.raises(DataError):
            db.add_record(ObservationRecord(0, park.n_cells + 5, "snare", 0))

    def test_recorded_effort_from_patrols(self, park):
        sim = PatrolSimulator(park, seed=7)
        db = SmartDatabase(park.grid)
        __, patrols = sim.simulate_period(0)
        for p in patrols:
            db.add_patrol(p)
        effort = db.recorded_effort(0)
        assert effort.sum() > 0
        assert db.recorded_effort(5).sum() == 0


class TestEffortReconstruction:
    def test_dense_waypoints_recover_path(self, park):
        sim = PatrolSimulator(park, seed=8)
        patrol = sim.simulate_patrol(0)
        if park.profile.waypoint_interval == 1:
            rebuilt = rebuild_effort_from_waypoints(park.grid, patrol.waypoints)
            true_effort = np.zeros(park.n_cells)
            for cid in patrol.path:
                true_effort[cid] += 1.0
            # Dense waypoints differ only by revisit multiplicity on the
            # straight-line reconstruction; totals must match.
            assert rebuilt.sum() == pytest.approx(true_effort.sum(), rel=0.2)

    def test_sparse_waypoints_lose_information(self):
        spark = SyntheticPark.generate(SWS.scaled(0.6), seed=1)
        sim = PatrolSimulator(spark, seed=2)
        patrol = sim.simulate_patrol(0)
        rebuilt = rebuild_effort_from_waypoints(spark.grid, patrol.waypoints)
        true_cells = set(patrol.path)
        rebuilt_cells = set(np.nonzero(rebuilt)[0].tolist())
        # Reconstruction is not exact: either misses cells or totals differ.
        assert rebuilt_cells != true_cells or rebuilt.sum() != len(patrol.path)

    def test_empty_waypoints(self, park):
        assert rebuild_effort_from_waypoints(park.grid, []).sum() == 0

    def test_single_waypoint(self, park):
        effort = rebuild_effort_from_waypoints(park.grid, [5])
        assert effort[5] == 1.0
        assert effort.sum() == 1.0

    def test_reconstruction_connects_waypoints(self, park):
        # Straight-line between two cells in the same row.
        a = park.grid.cell_id(*park.grid.cell_rc(0))
        row, col = park.grid.cell_rc(a)
        b_rc = (row, col + 4)
        if park.grid.contains_rc(*b_rc):
            b = park.grid.cell_id(*b_rc)
            effort = rebuild_effort_from_waypoints(park.grid, [a, b])
            assert effort[a] > 0 and effort[b] > 0
            assert effort.sum() == pytest.approx(5.0)
