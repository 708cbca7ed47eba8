"""Tests for repro.planning.graph and repro.planning.pwl."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, PlanningError
from repro.geo import Grid
from repro.planning import (
    PatrolPlanner,
    PiecewiseLinear,
    RobustObjective,
    TimeUnrolledGraph,
    sample_breakpoints,
)
from repro.planning.pwl import pwl_from_samples


class TestTimeUnrolledGraph:
    def test_source_and_sink_exist(self):
        g = TimeUnrolledGraph(Grid.rectangular(5, 5), source_cell=0, horizon=6)
        assert g.nodes[g.source_node] == (0, 0)
        assert g.nodes[g.sink_node] == (0, 5)

    def test_pruning_respects_return_distance(self):
        grid = Grid.rectangular(5, 5)
        g = TimeUnrolledGraph(grid, source_cell=0, horizon=6)
        far = grid.cell_id(4, 4)  # 8 steps away; cannot go and return in 6
        assert far not in set(g.reachable_cells.tolist())
        near = grid.cell_id(0, 2)
        assert near in set(g.reachable_cells.tolist())

    def test_node_exists_only_within_time_window(self):
        grid = Grid.rectangular(5, 5)
        g = TimeUnrolledGraph(grid, source_cell=0, horizon=8)
        cell = grid.cell_id(0, 2)  # distance 2
        assert g.node_index(cell, 1) is None
        assert g.node_index(cell, 2) is not None
        assert g.node_index(cell, 5) is not None
        assert g.node_index(cell, 6) is None  # cannot return by t=7

    def test_edges_step_forward_in_time(self):
        g = TimeUnrolledGraph(Grid.rectangular(4, 4), source_cell=0, horizon=6)
        for i, j in g.edges:
            __, ti = g.nodes[i]
            __, tj = g.nodes[j]
            assert tj == ti + 1

    def test_waiting_in_place_allowed(self):
        g = TimeUnrolledGraph(Grid.rectangular(4, 4), source_cell=0, horizon=4)
        cells = [(g.nodes[i][0], g.nodes[j][0]) for i, j in g.edges]
        assert any(a == b for a, b in cells)

    def test_horizon_too_small_raises(self):
        with pytest.raises(ConfigurationError):
            TimeUnrolledGraph(Grid.rectangular(3, 3), source_cell=0, horizon=1)

    def test_bad_source_raises(self):
        with pytest.raises(ConfigurationError):
            TimeUnrolledGraph(Grid.rectangular(3, 3), source_cell=99, horizon=4)

    def test_incidence_lists_consistent(self):
        g = TimeUnrolledGraph(Grid.rectangular(4, 4), source_cell=5, horizon=6)
        out_edges, in_edges = g.incidence_lists()
        assert sum(len(x) for x in out_edges) == g.n_edges
        assert sum(len(x) for x in in_edges) == g.n_edges

    def test_cell_visit_edges_cover_all_edges(self):
        g = TimeUnrolledGraph(Grid.rectangular(4, 4), source_cell=5, horizon=6)
        visit = g.cell_visit_edges()
        assert sum(len(v) for v in visit.values()) == g.n_edges

    def test_shared_lookups_are_read_only(self):
        """Concurrent plans of a post read one set of graph lookups, so no
        caller may write through one into a later plan."""
        grid = Grid.rectangular(4, 4)
        planner = PatrolPlanner(grid, 5, horizon=5, n_patrols=2, n_segments=4)
        rng = np.random.default_rng(0)
        shape = (grid.n_cells, planner.breakpoints().size)
        objective = RobustObjective(
            planner.breakpoints(), np.sort(rng.random(shape), axis=1),
            rng.random(shape), beta=0.5,
        )
        before = planner.plan(objective)
        g = planner.graph
        out_edges, in_edges = g.incidence_lists()
        visit = g.cell_visit_edges()
        cell = int(g.reachable_cells[0])
        groups = (out_edges[g.source_node], in_edges[g.sink_node], visit[cell])
        for lookup in (g.reachable_cells, g.edges, *groups):
            with pytest.raises(ValueError, match="read-only"):
                lookup[0] = 0
        for group in groups:  # views of one shared, read-only edge order
            with pytest.raises(ValueError, match="read-only"):
                group.base[0] = 0
        with pytest.raises(TypeError):
            out_edges[g.source_node] = np.arange(3)
        with pytest.raises(TypeError):
            visit[cell] = np.arange(3)
        after = planner.plan(objective)
        assert after.objective_value == before.objective_value
        np.testing.assert_array_equal(after.coverage, before.coverage)
        assert [(r.cells, r.weight) for r in after.routes] == [
            (r.cells, r.weight) for r in before.routes
        ]

    def test_odd_even_parity(self):
        """A cell at odd distance from the post only has odd-time copies."""
        grid = Grid.rectangular(5, 5)
        g = TimeUnrolledGraph(grid, source_cell=0, horizon=8)
        cell = grid.cell_id(0, 1)  # distance 1
        assert g.node_index(cell, 1) is not None
        # Distance 1 <= t and t <= 6 are the constraints; t=0 excluded.
        assert g.node_index(cell, 0) is None


class TestPiecewiseLinear:
    def test_interpolation(self):
        f = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 3.0]))
        assert f(0.5) == pytest.approx(1.0)
        assert f(1.5) == pytest.approx(2.5)

    def test_flat_extrapolation(self):
        f = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert f(-5.0) == pytest.approx(1.0)
        assert f(10.0) == pytest.approx(3.0)

    def test_vectorised_call(self):
        f = PiecewiseLinear(np.array([0.0, 2.0]), np.array([0.0, 4.0]))
        np.testing.assert_allclose(f(np.array([0.0, 1.0, 2.0])), [0.0, 2.0, 4.0])

    def test_concavity_detection(self):
        concave = PiecewiseLinear(np.array([0, 1, 2.0]), np.array([0, 1.0, 1.5]))
        convex = PiecewiseLinear(np.array([0, 1, 2.0]), np.array([0, 0.5, 2.0]))
        assert concave.is_concave()
        assert not convex.is_concave()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinear(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            PiecewiseLinear(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            PiecewiseLinear(np.array([0.0, np.inf]), np.array([1.0, 2.0]))

    def test_n_segments(self):
        f = PiecewiseLinear(np.linspace(0, 1, 6), np.zeros(6))
        assert f.n_segments == 5


class TestSampleBreakpoints:
    def test_uniform(self):
        xs = sample_breakpoints(10.0, 5)
        assert xs.size == 6
        assert xs[0] == 0.0 and xs[-1] == 10.0
        np.testing.assert_allclose(np.diff(xs), 2.0)

    def test_sqrt_denser_near_zero(self):
        xs = sample_breakpoints(10.0, 5, spacing="sqrt")
        gaps = np.diff(xs)
        assert gaps[0] < gaps[-1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sample_breakpoints(0.0, 5)
        with pytest.raises(ConfigurationError):
            sample_breakpoints(5.0, 0)
        with pytest.raises(ConfigurationError):
            sample_breakpoints(5.0, 3, spacing="banana")


class TestPWLFromSamples:
    def test_builds_per_row(self, rng):
        xs = np.linspace(0, 5, 4)
        values = rng.random((7, 4))
        fns = pwl_from_samples(xs, values)
        assert len(fns) == 7
        for i, f in enumerate(fns):
            assert f(xs[2]) == pytest.approx(values[i, 2])

    def test_shape_validation(self, rng):
        with pytest.raises(ConfigurationError):
            pwl_from_samples(np.linspace(0, 1, 3), rng.random((2, 4)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 9999))
def test_pwl_matches_linear_interp_everywhere(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.random(5)) * 10
    xs[0] = 0.0
    xs = np.unique(xs)
    if xs.size < 2:
        return
    ys = rng.random(xs.size)
    f = PiecewiseLinear(xs, ys)
    probe = rng.uniform(xs[0], xs[-1], size=20)
    np.testing.assert_allclose(f(probe), np.interp(probe, xs, ys), atol=1e-12)
