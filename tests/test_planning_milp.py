"""Tests for repro.planning.milp, robust, and paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.geo import Grid
from repro.planning import (
    PatrolMILP,
    PiecewiseLinear,
    RobustObjective,
    TimeUnrolledGraph,
    decompose_flow_into_routes,
    robust_utility,
)
from repro.planning.paths import PatrolRoute, coverage_of_routes, sample_routes


def make_instance(height=6, width=6, source=0, horizon=6, n_patrols=2,
                  n_breakpoints=6, seed=0, concave=True):
    grid = Grid.rectangular(height, width)
    graph = TimeUnrolledGraph(grid, source_cell=source, horizon=horizon)
    milp = PatrolMILP(graph, n_patrols=n_patrols)
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, milp.max_coverage, n_breakpoints)
    utilities = {}
    for v in graph.reachable_cells:
        scale = rng.random()
        if concave:
            ys = scale * (1 - np.exp(-0.4 * xs))
        else:
            # Sigmoid detection curves (anchored at 0) are genuinely
            # non-concave: convex below the inflection, concave above.
            mid = xs[-1] * (0.3 + 0.4 * rng.random())
            raw = 1.0 / (1.0 + np.exp(-1.5 * (xs - mid)))
            ys = scale * (raw - raw[0])
        utilities[int(v)] = PiecewiseLinear(xs, ys)
    return grid, graph, milp, utilities


class TestPatrolMILP:
    def test_coverage_sums_to_tk(self):
        __, graph, milp, utilities = make_instance()
        sol = milp.solve(utilities)
        assert sol.coverage.sum() == pytest.approx(milp.max_coverage, rel=1e-6)

    def test_unit_flow(self):
        __, graph, milp, utilities = make_instance()
        sol = milp.solve(utilities)
        out_edges, __in = graph.incidence_lists()
        src_flow = sol.edge_flows[out_edges[graph.source_node]].sum()
        assert src_flow == pytest.approx(1.0)

    def test_objective_matches_coverage_utility(self):
        __, graph, milp, utilities = make_instance()
        sol = milp.solve(utilities)
        recomputed = sum(
            utilities[int(v)](sol.coverage[int(v)]) for v in graph.reachable_cells
        )
        assert sol.objective_value == pytest.approx(recomputed, abs=1e-5)

    def test_prefers_high_utility_cells(self):
        grid = Grid.rectangular(3, 5)
        graph = TimeUnrolledGraph(grid, source_cell=grid.cell_id(1, 2), horizon=6)
        milp = PatrolMILP(graph, n_patrols=1)
        xs = np.linspace(0, milp.max_coverage, 5)
        utilities = {}
        hot = grid.cell_id(1, 3)
        for v in graph.reachable_cells:
            gain = 10.0 if v == hot else 0.01
            utilities[int(v)] = PiecewiseLinear(xs, gain * (1 - np.exp(-xs)))
        sol = milp.solve(utilities)
        assert sol.coverage[hot] > 1.0

    def test_nonconcave_utilities_handled(self):
        """Segment binaries make non-concave PWL objectives exact."""
        __, graph, milp, utilities = make_instance(concave=False, seed=3)
        sol = milp.solve(utilities)
        recomputed = sum(
            utilities[int(v)](sol.coverage[int(v)]) for v in graph.reachable_cells
        )
        assert sol.objective_value == pytest.approx(recomputed, abs=1e-5)

    def test_rejects_bad_domain(self):
        __, graph, milp, __u = make_instance()
        xs_bad = np.linspace(0, 1.0, 4)  # does not reach T*K
        bad = {int(v): PiecewiseLinear(xs_bad, np.zeros(4))
               for v in graph.reachable_cells}
        with pytest.raises(ConfigurationError):
            milp.solve(bad)

    def test_rejects_missing_cells(self):
        __, graph, milp, utilities = make_instance()
        utilities.pop(sorted(utilities)[-1])
        with pytest.raises(ConfigurationError):
            milp.solve(utilities)

    def test_rejects_unreachable_cells(self):
        grid, graph, milp, utilities = make_instance()
        xs = np.linspace(0, milp.max_coverage, 4)
        unreachable = grid.cell_id(5, 5)
        if unreachable not in set(int(v) for v in graph.reachable_cells):
            utilities[unreachable] = PiecewiseLinear(xs, np.zeros(4))
            with pytest.raises(ConfigurationError):
                milp.solve(utilities)

    def test_bad_n_patrols(self):
        __, graph, __m, __u = make_instance()
        with pytest.raises(ConfigurationError):
            PatrolMILP(graph, n_patrols=0)

    def test_loose_mip_gap_stop_reports_highs_gap(self):
        """A MILP HiGHS stops early reports HiGHS's gap; a pure LP 0."""
        __, graph, __m, utilities = make_instance(
            height=6, width=6, horizon=8, n_breakpoints=8, seed=5,
            concave=False,
        )
        milp = PatrolMILP(graph, n_patrols=2, mip_gap=0.5)
        sol = milp.solve(utilities, mode="milp")
        assert 0.0 < sol.bound_gap <= 0.5
        __, __g, lp_milp, concave = make_instance()
        sol = lp_milp.solve(concave)
        assert sol.method == "lp" and sol.bound_gap == 0.0


class TestLPFastPath:
    def test_lp_matches_milp_on_concave(self):
        """Acceptance bar: LP and SOS2 MILP agree to 1e-6 when concave."""
        __, graph, milp, utilities = make_instance(seed=11)
        assert all(u.is_concave() for u in utilities.values())
        sol_lp = milp.solve(utilities, mode="lp")
        sol_milp = milp.solve(utilities, mode="milp")
        assert sol_lp.method == "lp"
        assert sol_milp.method == "milp"
        assert sol_lp.objective_value == pytest.approx(
            sol_milp.objective_value, abs=1e-6
        )

    def test_auto_takes_lp_on_concave(self):
        __, __g, milp, utilities = make_instance(seed=12)
        assert milp.solve(utilities).method == "lp"

    def test_auto_certified_on_nonconcave(self):
        """Auto mode handles non-concave utilities through the certified
        envelope path (or the full MILP when the certificate fails): the
        accepted solution is within the certified gap of the full SOS2
        MILP's optimum, and the certificate honours ``envelope_gap``."""
        __, __g, milp, utilities = make_instance(concave=False, seed=12)
        assert any(not u.is_concave() for u in utilities.values())
        sol_auto = milp.solve(utilities)
        sol_milp = milp.solve(utilities, mode="milp")
        assert sol_auto.method in ("lp-envelope", "milp-partial", "milp")
        scale = max(1.0, abs(sol_milp.objective_value))
        tol = max(milp.envelope_gap, milp.mip_gap)
        assert (
            sol_auto.objective_value
            >= sol_milp.objective_value - tol * scale - 1e-9
        )
        assert sol_auto.bound_gap <= tol + 1e-12

    def test_envelope_gap_zero_matches_milp_quality(self):
        """envelope_gap=0 tightens the certificate to mip_gap — auto-mode
        solutions then carry the same guarantee as the full SOS2 MILP."""
        __, graph, __m, utilities = make_instance(concave=False, seed=12)
        exact = PatrolMILP(graph, n_patrols=2, envelope_gap=0.0)
        sol_auto = exact.solve(utilities)
        sol_milp = exact.solve(utilities, mode="milp")
        assert sol_auto.objective_value == pytest.approx(
            sol_milp.objective_value, abs=1e-4
        )

    def test_forced_lp_rejects_nonconcave(self):
        __, __g, milp, utilities = make_instance(concave=False, seed=13)
        with pytest.raises(ConfigurationError):
            milp.solve(utilities, mode="lp")

    def test_unknown_mode_rejected(self):
        __, __g, milp, utilities = make_instance()
        for mode in ("simplex", "bnb"):
            with pytest.raises(ConfigurationError):
                milp.solve(utilities, mode=mode)

    def test_is_concave_tolerance_is_relative(self):
        """Regression for the Fig. 9 cliff: slope noise scales with slope
        magnitude, so a steep concave function with float jitter above the
        old 1e-9 absolute tolerance must still register as concave."""
        xs = np.array([0.0, 1.0, 2.0])
        steep = PiecewiseLinear(xs, np.array([0.0, 1e7, 2e7 + 1e-3]))
        slopes = np.diff(steep.ys) / np.diff(steep.xs)
        assert np.diff(slopes).max() > 1e-9  # absolute test would misfire
        assert steep.is_concave()
        # A genuinely convex function is still rejected at any scale.
        convex = PiecewiseLinear(xs, np.array([0.0, 1e7, 3e7]))
        assert not convex.is_concave()

    def test_concave_envelope_is_least_concave_majorant(self):
        xs = np.linspace(0.0, 5.0, 11)
        rng = np.random.default_rng(3)
        ys = np.cumsum(rng.random(11))  # increasing, generically non-concave
        pwl = PiecewiseLinear(xs, ys)
        env = pwl.concave_envelope()
        assert env.is_concave()
        assert (env.ys >= pwl.ys - 1e-12).all()
        # Envelope of a concave function is the function itself.
        conc = PiecewiseLinear(xs, 1 - np.exp(-xs))
        np.testing.assert_allclose(conc.concave_envelope().ys, conc.ys)

    def test_envelope_path_reports_true_objective(self):
        """Certified envelope solutions report utility(coverage), not the
        relaxation's optimistic bound."""
        __, graph, milp, utilities = make_instance(concave=False, seed=21)
        sol = milp.solve(utilities, mode="auto")
        recomputed = sum(
            utilities[int(v)](sol.coverage[int(v)])
            for v in graph.reachable_cells
        )
        assert sol.objective_value == pytest.approx(recomputed, abs=1e-6)

    def test_partial_binary_structure_smaller_than_full(self):
        """Restoring binaries on a subset of cells yields strictly fewer
        integer variables than the classic all-binary MILP."""
        __, __g, milp, utilities = make_instance(concave=False, seed=22)
        cells = sorted(utilities)
        full = milp.build_structure(utilities, lp_mode=False)
        partial = milp.build_structure(
            utilities, lp_mode=False, binary_cells=cells[:3]
        )
        assert partial.integrality.sum() < full.integrality.sum()
        assert partial.binary_cells == tuple(cells[:3])

    def test_lp_coverage_objective_consistent(self):
        """LP-path solutions still report utility(coverage) exactly."""
        __, graph, milp, utilities = make_instance(seed=14)
        sol = milp.solve(utilities, mode="lp")
        recomputed = sum(
            utilities[int(v)](sol.coverage[int(v)]) for v in graph.reachable_cells
        )
        assert sol.objective_value == pytest.approx(recomputed, abs=1e-5)


class TestStructureCache:
    def test_objective_swap_hits_cache(self):
        """Same breakpoints, different utility values -> one structure."""
        __, graph, milp, utilities = make_instance(seed=21)
        milp.solve(utilities, mode="milp")
        assert milp.structure_cache_info() == {
            "hits": 0, "misses": 1, "entries": 1
        }
        # A beta-sweep-style change: same xs, scaled ys.
        swept = {
            v: PiecewiseLinear(u.xs, 0.5 * u.ys) for v, u in utilities.items()
        }
        milp.solve(swept, mode="milp")
        assert milp.structure_cache_info() == {
            "hits": 1, "misses": 1, "entries": 1
        }

    def test_lp_and_milp_structures_are_distinct(self):
        __, __g, milp, utilities = make_instance(seed=22)
        milp.solve(utilities, mode="lp")
        milp.solve(utilities, mode="milp")
        assert milp.structure_cache_info()["entries"] == 2

    def test_cached_solve_identical_to_fresh(self):
        """Re-solving through the cache is bit-identical to a cold solver."""
        __, __g, milp, utilities = make_instance(seed=23)
        swept = {
            v: PiecewiseLinear(u.xs, 0.7 * u.ys + 0.01 * u.xs / u.xs[-1])
            for v, u in utilities.items()
        }
        milp.solve(utilities, mode="milp")  # warm the structure cache
        warm = milp.solve(swept, mode="milp")
        assert milp.structure_cache_info()["hits"] >= 1

        __, __g2, cold_milp, __u = make_instance(seed=23)
        cold = cold_milp.solve(swept, mode="milp")
        assert warm.objective_value == cold.objective_value
        np.testing.assert_array_equal(warm.coverage, cold.coverage)
        np.testing.assert_array_equal(warm.edge_flows, cold.edge_flows)

    def test_new_breakpoints_miss_cache(self):
        __, graph, milp, utilities = make_instance(seed=24, n_breakpoints=6)
        milp.solve(utilities, mode="milp")
        xs2 = np.linspace(0.0, milp.max_coverage, 4)
        coarse = {
            v: PiecewiseLinear(xs2, u(xs2)) for v, u in utilities.items()
        }
        milp.solve(coarse, mode="milp")
        assert milp.structure_cache_info() == {
            "hits": 0, "misses": 2, "entries": 2
        }


class TestRobustUtility:
    def test_beta_zero_is_risk(self, rng):
        g = rng.random(10)
        nu = rng.random(10)
        np.testing.assert_allclose(robust_utility(g, nu, 0.0), g)

    def test_beta_one_full_penalty(self):
        g = np.array([0.5])
        nu = np.array([1.0])
        assert robust_utility(g, nu, 1.0)[0] == pytest.approx(0.0)

    def test_nonnegative_for_valid_inputs(self, rng):
        g = rng.random(50)
        nu = rng.random(50)
        assert (robust_utility(g, nu, 1.0) >= 0).all()

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            robust_utility(rng.random(3), rng.random(3), 1.5)
        with pytest.raises(ConfigurationError):
            robust_utility(rng.random(3), rng.random(4), 0.5)
        with pytest.raises(ConfigurationError):
            robust_utility(np.array([0.5]), np.array([2.0]), 0.5)


class TestRobustObjective:
    def make(self, rng, n_cells=6, beta=0.5):
        xs = np.linspace(0, 8, 5)
        risk = np.sort(rng.random((n_cells, 5)), axis=1)
        nu = rng.random((n_cells, 5))
        return RobustObjective(xs, risk, nu, beta)

    def test_utility_samples_shape(self, rng):
        obj = self.make(rng)
        assert obj.utility_samples().shape == (6, 5)

    def test_with_beta_shares_samples(self, rng):
        obj = self.make(rng, beta=0.0)
        robust = obj.with_beta(1.0)
        assert robust.beta == 1.0
        assert (robust.utility_samples() <= obj.utility_samples() + 1e-12).all()

    def test_evaluate_coverage(self, rng):
        obj = self.make(rng, beta=0.0)
        zero = obj.evaluate_coverage(np.zeros(6))
        some = obj.evaluate_coverage(np.full(6, 4.0))
        assert some >= zero  # risk rows are sorted increasing

    def test_evaluate_coverage_shape_check(self, rng):
        obj = self.make(rng)
        with pytest.raises(ConfigurationError):
            obj.evaluate_coverage(np.zeros(3))

    def test_beta_validation(self, rng):
        with pytest.raises(ConfigurationError):
            self.make(rng, beta=2.0)


class TestFlowDecomposition:
    def test_routes_start_and_end_at_post(self):
        __, graph, milp, utilities = make_instance()
        sol = milp.solve(utilities)
        routes = decompose_flow_into_routes(graph, sol.edge_flows)
        assert routes
        for route in routes:
            assert route.cells[0] == graph.source_cell
            assert route.cells[-1] == graph.source_cell
            assert len(route.cells) == graph.horizon

    def test_weights_sum_to_one(self):
        __, graph, milp, utilities = make_instance(seed=2)
        sol = milp.solve(utilities)
        routes = decompose_flow_into_routes(graph, sol.edge_flows)
        assert sum(r.weight for r in routes) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("seed", [0, 3, 8, 13])
    @pytest.mark.parametrize("concave", [True, False])
    def test_unit_flow_mass_is_conserved(self, seed, concave):
        """Acceptance bar: weights sum to 1 +- 1e-6 on unit flows."""
        __, graph, milp, utilities = make_instance(seed=seed, concave=concave)
        sol = milp.solve(utilities)
        routes = decompose_flow_into_routes(graph, sol.edge_flows)
        assert sum(r.weight for r in routes) == pytest.approx(1.0, abs=1e-6)

    def test_mass_not_lost_on_sub_min_weight_split(self):
        """Regression: a greedy path that dead-ends on a sub-``min_weight``
        edge used to abort the whole decomposition, silently dropping the
        residual strategy mass."""
        grid = Grid.rectangular(1, 3)
        graph = TimeUnrolledGraph(grid, source_cell=0, horizon=4)
        out_edges, __ = graph.incidence_lists()
        edges = graph.edges
        nodes = graph.nodes

        def follow(choices):
            """Edge indices of the path visiting the given cell sequence."""
            node = graph.source_node
            path = []
            for cell in choices:
                for e in out_edges[node]:
                    head = int(edges[e, 1])
                    if nodes[head][0] == cell:
                        path.append(e)
                        node = head
                        break
                else:
                    raise AssertionError("path not in graph")
            return path

        flows = np.zeros(graph.n_edges)
        # 0.5 on (0,0,0,0); after extracting it, the greedy walk re-enters
        # the shared first edge of (0,1,...) and then splits 0.25 / 0.25 —
        # both below min_weight=0.3, which aborted the old implementation
        # (its routes then summed to 0.5, not 1).
        for cells, w in [((0, 0, 0), 0.5), ((1, 1, 0), 0.25), ((1, 0, 0), 0.25)]:
            flows[follow(cells)] += w

        # Below the threshold the split routes fold into the kept one...
        routes = decompose_flow_into_routes(graph, flows, min_weight=0.3)
        assert sum(r.weight for r in routes) == pytest.approx(1.0, abs=1e-9)
        # ...and above it every route survives with its exact weight.
        routes = decompose_flow_into_routes(graph, flows, min_weight=0.1)
        assert sum(r.weight for r in routes) == pytest.approx(1.0, abs=1e-9)
        assert len(routes) == 3
        assert sorted(r.weight for r in routes) == pytest.approx([0.25, 0.25, 0.5])

    def test_numerical_dead_end_is_skipped(self):
        """Drift-level inflow to a node with no residual outflow is retired
        instead of raising or aborting."""
        grid = Grid.rectangular(1, 3)
        graph = TimeUnrolledGraph(grid, source_cell=0, horizon=4)
        out_edges, __ = graph.incidence_lists()
        edges = graph.edges
        nodes = graph.nodes
        flows = np.zeros(graph.n_edges)
        # Whole unit mass stays at the post...
        node = graph.source_node
        while node != graph.sink_node:
            for e in out_edges[node]:
                head = int(edges[e, 1])
                if nodes[head][0] == 0:
                    flows[e] += 1.0
                    node = head
                    break
        # ...plus non-conserving drift into cell 1 at t=1 that dead-ends.
        for e in out_edges[graph.source_node]:
            if nodes[int(edges[e, 1])][0] == 1:
                flows[e] += 1e-12
        routes = decompose_flow_into_routes(graph, flows)
        assert sum(r.weight for r in routes) == pytest.approx(1.0, abs=1e-9)

    def test_routes_follow_adjacency(self):
        grid, graph, milp, utilities = make_instance(seed=4)
        sol = milp.solve(utilities)
        for route in decompose_flow_into_routes(graph, sol.edge_flows):
            for a, b in zip(route.cells[:-1], route.cells[1:]):
                assert a == b or b in grid.neighbors(a, connectivity=4)

    def test_expected_coverage_matches_flow(self):
        __, graph, milp, utilities = make_instance(seed=5)
        sol = milp.solve(utilities)
        routes = decompose_flow_into_routes(graph, sol.edge_flows)
        expected = np.zeros(graph.grid.n_cells)
        for r in routes:
            for cell in r.cells:
                expected[cell] += r.weight * milp.n_patrols
        np.testing.assert_allclose(expected, sol.coverage, atol=1e-4)

    def test_sample_routes(self, rng):
        __, graph, milp, utilities = make_instance(seed=6)
        sol = milp.solve(utilities)
        routes = decompose_flow_into_routes(graph, sol.edge_flows)
        picked = sample_routes(routes, n_patrols=4, rng=rng)
        assert len(picked) == 4
        coverage = coverage_of_routes(graph, picked, weighted=False)
        assert coverage.sum() == pytest.approx(4 * graph.horizon)

    @pytest.mark.parametrize("seed", [1, 6, 9])
    def test_weighted_coverage_reconciles_with_milp(self, seed):
        """Property: MILP coverage == K x weighted decomposed coverage."""
        __, graph, milp, utilities = make_instance(seed=seed)
        sol = milp.solve(utilities)
        routes = decompose_flow_into_routes(graph, sol.edge_flows)
        coverage = coverage_of_routes(
            graph, routes, weighted=True, n_patrols=milp.n_patrols
        )
        np.testing.assert_allclose(coverage, sol.coverage, atol=1e-4)
        # Per-weight scaling: K times the unit-strategy expected coverage.
        unit = coverage_of_routes(graph, routes, weighted=True, n_patrols=1)
        np.testing.assert_allclose(milp.n_patrols * unit, coverage, atol=1e-12)

    def test_weighted_coverage_uses_route_weights(self):
        """Regression: a half-weight route must contribute half its cells."""
        grid = Grid.rectangular(1, 3)
        graph = TimeUnrolledGraph(grid, source_cell=0, horizon=4)
        routes = [
            # weights deliberately not uniform
            PatrolRoute(cells=(0, 0, 0, 0), weight=0.75),
            PatrolRoute(cells=(0, 1, 1, 0), weight=0.25),
        ]
        coverage = coverage_of_routes(graph, routes, weighted=True)
        assert coverage[0] == pytest.approx(0.75 * 4 + 0.25 * 2)
        assert coverage[1] == pytest.approx(0.25 * 2)
        flat = coverage_of_routes(graph, routes, weighted=False)
        assert flat[0] == pytest.approx(4 + 2)

    def test_coverage_of_routes_validation(self):
        grid = Grid.rectangular(1, 3)
        graph = TimeUnrolledGraph(grid, source_cell=0, horizon=4)
        with pytest.raises(ConfigurationError):
            coverage_of_routes(graph, [], n_patrols=0)

    def test_bad_flow_shape(self):
        __, graph, __m, __u = make_instance()
        with pytest.raises(ConfigurationError):
            decompose_flow_into_routes(graph, np.zeros(3))

    def test_sample_routes_validation(self, rng):
        with pytest.raises(ConfigurationError):
            sample_routes([], 3, rng)
