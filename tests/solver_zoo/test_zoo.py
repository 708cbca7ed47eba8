"""The solver zoo: pinned patrol formulations and optima.

The frozen instances pin the formulation: a fresh
:meth:`~repro.planning.milp.PatrolMILP.build_structure` must reproduce
the committed ``instances/*.npz`` array for array. The table below pins
the optimum of five seeded patrol instances: HiGHS must reach it in
``mode="milp"``, and ``mode="auto"`` must land within its certified gap.
An independent branch-and-bound solve reached the same optima, bit for
bit, when they were recorded. Every answer is also checked against the
patrol graph itself (:func:`tests.helpers_milp.assert_certified`).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.helpers_milp import assert_certified

from .serialize import (
    FROZEN_SEEDS,
    freeze,
    instance_name,
    load_all,
    load_instance,
    patrol_problem,
    save_instance,
)

# (seed, height, width, horizon) -> (optimum, path mode="auto" takes).
# Repin only with a reason: say in the commit message why the optimum moved.
PINNED = {
    (7, 4, 4, 4): (0.6669988027977525, "milp-partial"),
    (23, 4, 4, 4): (0.6896865275335958, "milp-partial"),
    (3, 3, 4, 3): (0.18394951132755516, "milp-partial"),
    (11, 3, 4, 3): (0.39961114424467675, "lp-envelope"),
    (29, 3, 4, 3): (0.20465392552839237, "milp-partial"),
}
_KEYS = sorted(PINNED)
_IDS = [instance_name(*key) for key in _KEYS]


class TestSerializedInstances:
    def test_round_trip_preserves_model(self, tmp_path):
        inst = freeze(*patrol_problem(3, height=3, width=4, horizon=3))
        path = tmp_path / "patrol.npz"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(back.c, inst.c)
        np.testing.assert_array_equal(
            back.matrix.toarray(), inst.matrix.toarray()
        )
        np.testing.assert_array_equal(back.row_lb, inst.row_lb)
        np.testing.assert_array_equal(back.row_ub, inst.row_ub)
        np.testing.assert_array_equal(back.binary_mask, inst.binary_mask)

    def test_serialized_patrol_instances_are_reproducible(self):
        """The committed .npz files match a fresh deterministic build."""
        stored = load_all()
        assert sorted(stored) == sorted(map(instance_name, FROZEN_SEEDS))
        for seed in FROZEN_SEEDS:
            fresh = freeze(*patrol_problem(seed))
            frozen = stored[instance_name(seed)]
            np.testing.assert_array_equal(frozen.c, fresh.c)
            np.testing.assert_array_equal(
                frozen.matrix.toarray(), fresh.matrix.toarray()
            )
            np.testing.assert_array_equal(frozen.row_lb, fresh.row_lb)
            np.testing.assert_array_equal(frozen.row_ub, fresh.row_ub)
            np.testing.assert_array_equal(frozen.binary_mask, fresh.binary_mask)
            assert frozen.binary_mask.any()


class TestZooPins:
    def test_expected_table_covers_every_optimal_instance(self):
        """Freezing an instance without pinning its optimum is a failure."""
        pinned = {instance_name(*key) for key in PINNED}
        assert set(load_all()) <= pinned


class TestHighsCrossValidation:
    """HiGHS reaches the pinned optima, and every answer is certified."""

    @pytest.mark.parametrize("key", _KEYS, ids=_IDS)
    def test_agrees_with_highs_on_random_patrol_instances(self, key):
        milp, utilities = patrol_problem(*key)
        solution = milp.solve(utilities, mode="milp")
        optimum, __ = PINNED[key]
        assert solution.method == "milp"
        assert solution.objective_value == pytest.approx(
            optimum, rel=milp.mip_gap
        )
        assert 0.0 <= solution.bound_gap <= milp.mip_gap
        assert_certified(milp, utilities, solution)

    @pytest.mark.parametrize("key", _KEYS, ids=_IDS)
    def test_auto_mode_lands_within_its_bound_gap(self, key):
        milp, utilities = patrol_problem(*key)
        solution = milp.solve(utilities)
        optimum, method = PINNED[key]
        assert solution.method == method
        # Objectives here are below 1, so the relative gap is absolute.
        assert solution.objective_value == pytest.approx(
            optimum, abs=solution.bound_gap + milp.mip_gap
        )
        assert_certified(milp, utilities, solution)


class TestBranchingDeterminism:
    def test_repeated_solves_are_bitwise_identical(self):
        """No hidden state: structure-cache hits return the same bits."""
        milp, utilities = patrol_problem(7)
        first = milp.solve(utilities, mode="milp")
        for __ in range(2):
            again = milp.solve(utilities, mode="milp")
            assert again.objective_value == first.objective_value
            assert again.edge_flows.tobytes() == first.edge_flows.tobytes()
        assert milp.structure_hits == 2
