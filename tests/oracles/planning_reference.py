"""The per-cell planning request path, kept as executable specification.

A plan request used to build and validate a :class:`PiecewiseLinear` for
every cell of the park (``RobustObjective.utility_functions``), resample the
reachable ones onto the planner breakpoints, walk the patrol graph for its
incidence lists on every call, and answer each per-cell question of the
solve (domain, concavity, concave envelope, the envelope certificate's true
value and offenders, the objective vector, the coverage) in a Python loop
over a ``{cell: PiecewiseLinear}`` dict. The planner now resamples only the
reachable rows, the graph keeps its lookups, and the MILP works on stacked
``(cells x breakpoints)`` arrays. HiGHS must receive the same model and every
plan must come out bit for bit the same; this is the old path, for
``tests/test_planning_oracle.py``.

Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import ConfigurationError, InfeasibleError, PlanningError
from repro.planning.milp import MILPSolution, PatrolMILP
from repro.planning.paths import PatrolRoute, _fold_noise_routes
from repro.planning.planner import PatrolPlan, PatrolPlanner
from repro.planning.pwl import PiecewiseLinear
from repro.planning.robust import RobustObjective


# ---------------------------------------------------------------------------
# Graph lookups, re-derived from the edge list on every call
# ---------------------------------------------------------------------------
def reference_incidence_lists(graph) -> tuple[list[list[int]], list[list[int]]]:
    out_edges: list[list[int]] = [[] for __ in range(graph.n_nodes)]
    in_edges: list[list[int]] = [[] for __ in range(graph.n_nodes)]
    for e, (i, j) in enumerate(graph.edges):
        out_edges[i].append(e)
        in_edges[j].append(e)
    return out_edges, in_edges


def reference_cell_visit_edges(graph) -> dict[int, list[int]]:
    nodes = graph.nodes
    by_cell: dict[int, list[int]] = {
        int(v): [] for v in np.unique([v for v, __ in nodes])
    }
    for e, (__, j) in enumerate(graph.edges):
        cell, __t = nodes[j]
        by_cell[int(cell)].append(e)
    return by_cell


# ---------------------------------------------------------------------------
# Per-function concavity and envelope
# ---------------------------------------------------------------------------
def reference_is_concave(pwl: PiecewiseLinear, tol: float = 1e-9) -> bool:
    slopes = np.diff(pwl.ys) / np.diff(pwl.xs)
    scale = max(1.0, float(np.abs(slopes).max()))
    return bool((np.diff(slopes) <= tol * scale).all())


def reference_concave_envelope(pwl: PiecewiseLinear) -> PiecewiseLinear:
    xs, ys = pwl.xs, pwl.ys
    hull: list[int] = []
    for i in range(xs.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (xs[i1] - xs[i0]) * (ys[i] - ys[i0]) - (
                ys[i1] - ys[i0]
            ) * (xs[i] - xs[i0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    env = np.interp(xs, xs[hull], ys[hull])
    return PiecewiseLinear(xs, np.maximum(env, ys))


# ---------------------------------------------------------------------------
# The all-park resample
# ---------------------------------------------------------------------------
def reference_utilities(
    planner: PatrolPlanner, objective: RobustObjective, beta: float | None
) -> dict[int, PiecewiseLinear]:
    """Every cell's PWL built and validated, then the reachable ones resampled."""
    xs = planner.breakpoints()
    source_functions = objective.utility_functions(beta)
    utilities: dict[int, PiecewiseLinear] = {}
    for v in planner.graph.reachable_cells:
        f = source_functions[int(v)]
        utilities[int(v)] = PiecewiseLinear(xs, np.asarray(f(xs)))
    return utilities


# ---------------------------------------------------------------------------
# Problem (P) over a {cell: PiecewiseLinear} dict, one cell at a time
# ---------------------------------------------------------------------------
class ReferenceMILP:
    """The dict-driven solve path of :class:`PatrolMILP` (no structure cache)."""

    def __init__(self, milp_: PatrolMILP):
        self.graph = milp_.graph
        self.n_patrols = milp_.n_patrols
        self.time_limit = milp_.time_limit
        self.mip_gap = milp_.mip_gap
        self.envelope_gap = milp_.envelope_gap
        self.max_coverage = milp_.max_coverage

    def check_utilities(self, utilities: dict[int, PiecewiseLinear]) -> list[int]:
        cells = sorted(utilities)
        reachable = set(int(v) for v in self.graph.reachable_cells)
        for v in cells:
            if v not in reachable:
                raise ConfigurationError(f"utility given for unreachable cell {v}")
            pwl = utilities[v]
            if pwl.xs[0] > 1e-9:
                raise ConfigurationError(f"cell {v}: PWL domain must start at 0")
            if pwl.xs[-1] < self.max_coverage - 1e-9:
                raise ConfigurationError(f"cell {v}: PWL domain must reach T*K")
        if reachable - set(cells):
            raise ConfigurationError("utilities missing for reachable cells")
        return cells

    def build_structure(self, utilities, lp_mode=False, binary_cells=None) -> dict:
        """The constraint system as a dict of arrays (what HiGHS receives)."""
        cells = self.check_utilities(utilities)
        if lp_mode:
            binary_set: set[int] = set()
        elif binary_cells is None:
            binary_set = set(cells)
        else:
            binary_set = set(int(v) for v in binary_cells)
        graph = self.graph
        lam_offset: dict[int, int] = {}
        z_offset: dict[int, int] = {}
        cursor = graph.n_edges
        for v in cells:
            lam_offset[v] = cursor
            cursor += utilities[v].xs.size
        for v in cells:
            if v in binary_set:
                z_offset[v] = cursor
                cursor += utilities[v].n_segments
        n_vars = cursor

        rows, cols, vals, lbs, ubs = [], [], [], [], []

        def add_row(col_idx, coeffs, lo, hi):
            rows.append(np.full(len(col_idx), len(lbs)))
            cols.append(np.asarray(col_idx))
            vals.append(np.asarray(coeffs, dtype=float))
            lbs.append(lo)
            ubs.append(hi)

        out_edges, in_edges = reference_incidence_lists(graph)
        src, snk = graph.source_node, graph.sink_node
        add_row(out_edges[src], [1.0] * len(out_edges[src]), 1.0, 1.0)
        add_row(in_edges[snk], [1.0] * len(in_edges[snk]), 1.0, 1.0)
        for node in range(graph.n_nodes):
            if node in (src, snk):
                continue
            idx = in_edges[node] + out_edges[node]
            coef = [1.0] * len(in_edges[node]) + [-1.0] * len(out_edges[node])
            if idx:
                add_row(idx, coef, 0.0, 0.0)

        visit_edges = reference_cell_visit_edges(graph)
        K = float(self.n_patrols)
        for v in cells:
            xs = utilities[v].xs
            lam_idx = list(range(lam_offset[v], lam_offset[v] + xs.size))
            edge_idx = visit_edges.get(v, [])
            rhs = K if v == graph.source_cell else 0.0
            add_row(lam_idx + edge_idx, list(xs) + [-K] * len(edge_idx), rhs, rhs)

        for v in cells:
            m = utilities[v].n_segments
            lam_idx = list(range(lam_offset[v], lam_offset[v] + m + 1))
            add_row(lam_idx, [1.0] * (m + 1), 1.0, 1.0)
            if v not in binary_set:
                continue
            z_idx = list(range(z_offset[v], z_offset[v] + m))
            add_row(z_idx, [1.0] * m, 1.0, 1.0)
            for j in range(m + 1):
                adjacent = []
                if j > 0:
                    adjacent.append(z_idx[j - 1])
                if j < m:
                    adjacent.append(z_idx[j])
                add_row(
                    [lam_idx[j]] + adjacent,
                    [1.0] + [-1.0] * len(adjacent),
                    -np.inf,
                    0.0,
                )

        matrix = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(lbs), n_vars),
        ).tocsc()
        integrality = np.zeros(n_vars)
        for v, z0 in z_offset.items():
            integrality[z0 : z0 + utilities[v].n_segments] = 1
        return {
            "matrix": matrix,
            "row_lb": np.asarray(lbs),
            "row_ub": np.asarray(ubs),
            "integrality": integrality,
            "cells": cells,
            "visit_edges": visit_edges,
            "lam_offset": lam_offset,
            "n_vars": n_vars,
        }

    @staticmethod
    def objective_vector(structure: dict, utilities) -> np.ndarray:
        objective = np.zeros(structure["n_vars"])
        for v in structure["cells"]:
            ys = utilities[v].ys
            off = structure["lam_offset"][v]
            objective[off : off + ys.size] = -ys
        return objective

    def solve(self, utilities, mode: str = "auto") -> MILPSolution:
        if mode == "milp":
            return self._solve_model(utilities, utilities, lp_mode=False)
        all_concave = all(reference_is_concave(pwl) for pwl in utilities.values())
        if mode == "lp" and not all_concave:
            raise ConfigurationError("mode='lp' requires every utility to be concave")
        if all_concave:
            return self._solve_model(utilities, utilities, lp_mode=True)
        return self._solve_enveloped(utilities)

    def _solve_enveloped(self, utilities) -> MILPSolution:
        envelopes = {
            v: pwl if reference_is_concave(pwl) else reference_concave_envelope(pwl)
            for v, pwl in utilities.items()
        }
        accept_tol = max(self.mip_gap, self.envelope_gap)
        binary: set[int] = set()
        for _ in range(PatrolMILP.MAX_ENVELOPE_ROUNDS):
            if binary:
                relaxed = {
                    v: utilities[v] if v in binary else envelopes[v]
                    for v in utilities
                }
                solution = self._solve_model(
                    relaxed, utilities, lp_mode=False,
                    binary_cells=tuple(sorted(binary)), method="milp-partial",
                )
            else:
                solution = self._solve_model(
                    envelopes, utilities, lp_mode=True, method="lp-envelope"
                )
            upper = solution.objective_value
            true_value = sum(
                float(utilities[v](solution.coverage[v])) for v in utilities
            )
            if upper - true_value <= accept_tol * max(1.0, abs(upper)):
                solution.objective_value = true_value
                solution.bound_gap = max(0.0, upper - true_value) / max(
                    1.0, abs(upper)
                )
                return solution
            offenders = [
                v
                for v in utilities
                if v not in binary
                and float(envelopes[v](solution.coverage[v]))
                - float(utilities[v](solution.coverage[v]))
                > PatrolMILP._OFFENDER_TOL
            ]
            if not offenders:
                break
            binary.update(offenders)
        return self._solve_model(utilities, utilities, lp_mode=False)

    def _solve_model(
        self, objective_utilities, domain_utilities, lp_mode,
        binary_cells=None, method=None,
    ) -> MILPSolution:
        structure = self.build_structure(
            domain_utilities, lp_mode=lp_mode, binary_cells=binary_cells
        )
        integrality = structure["integrality"]
        options: dict = {"time_limit": self.time_limit}
        if integrality.any():
            options["mip_rel_gap"] = self.mip_gap
        n_vars = structure["n_vars"]
        result = milp(
            c=self.objective_vector(structure, objective_utilities),
            constraints=LinearConstraint(
                structure["matrix"], structure["row_lb"], structure["row_ub"]
            ),
            bounds=Bounds(np.zeros(n_vars), np.ones(n_vars)),
            integrality=integrality,
            options=options,
        )
        if result.status == 2:
            raise InfeasibleError("patrol-planning MILP is infeasible")
        if result.x is None:
            raise PlanningError(f"MILP solve failed: {result.message}")
        flows = np.asarray(result.x[: self.graph.n_edges], dtype=float)
        coverage = np.zeros(self.graph.grid.n_cells)
        K = float(self.n_patrols)
        for v in structure["cells"]:
            edge_idx = structure["visit_edges"].get(v, [])
            inflow = float(flows[edge_idx].sum()) if edge_idx else 0.0
            if v == self.graph.source_cell:
                inflow += 1.0
            coverage[v] = K * inflow
        solution = MILPSolution(
            objective_value=float(-result.fun),
            coverage=coverage,
            edge_flows=flows,
            status=str(result.message),
            method=method or ("lp" if lp_mode else "milp"),
        )
        if integrality.any():
            solution.bound_gap = float(result.mip_gap)
        return solution


# ---------------------------------------------------------------------------
# Routes, with the incidence lists walked again
# ---------------------------------------------------------------------------
def reference_decompose(graph, edge_flows, min_weight: float = 1e-6):
    residual = np.clip(np.asarray(edge_flows, dtype=float), 0.0, None)
    out_edges, __ = reference_incidence_lists(graph)
    edges = graph.edges
    nodes = graph.nodes
    source_out = out_edges[graph.source_node]
    routes: list[PatrolRoute] = []
    for __ in range(2 * graph.n_edges + 1):
        if float(residual[source_out].sum()) <= 1e-12:
            break
        node = graph.source_node
        path_nodes = [node]
        path_edges: list[int] = []
        dead_end = False
        while node != graph.sink_node:
            candidates = out_edges[node]
            flows_here = residual[candidates] if candidates else np.empty(0)
            if flows_here.size == 0 or float(flows_here.max()) <= 0.0:
                dead_end = True
                break
            e = candidates[int(np.argmax(flows_here))]
            path_edges.append(e)
            node = int(edges[e, 1])
            path_nodes.append(node)
        if dead_end:
            if not path_edges:
                break
            residual[path_edges[-1]] = 0.0
            continue
        bottleneck = float(residual[path_edges].min())
        if bottleneck <= 0.0:
            break
        residual[path_edges] -= bottleneck
        cells = tuple(int(nodes[i][0]) for i in path_nodes)
        routes.append(PatrolRoute(cells=cells, weight=bottleneck))
    routes.sort(key=lambda r: -r.weight)
    return _fold_noise_routes(routes, min_weight)


def reference_plan(
    planner: PatrolPlanner, objective: RobustObjective, beta: float | None = None
) -> PatrolPlan:
    """``PatrolPlanner.plan`` as the old request path computed it."""
    effective_beta = objective.beta if beta is None else beta
    utilities = reference_utilities(planner, objective, effective_beta)
    solution = ReferenceMILP(planner.milp).solve(utilities, mode=planner.solver_mode)
    return PatrolPlan(
        coverage=solution.coverage,
        objective_value=solution.objective_value,
        beta=effective_beta,
        routes=reference_decompose(planner.graph, solution.edge_flows),
        solution=solution,
    )
