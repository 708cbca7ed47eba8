"""Test helper: certify a patrol-plan solution against problem (P).

Checking an answer is cheaper than deriving it again. Instead of
re-solving (P) with a second solver, which would share the formulation
and so any bug in it, :func:`assert_certified` checks the returned flows
against the time-unrolled graph itself and the objective against the
utilities. It never reads the MILP matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.planning.milp import MILPSolution, PatrolMILP
from repro.planning.pwl import PiecewiseLinear

#: Slack for HiGHS's primal feasibility tolerance (1e-7) and summation order.
TOL = 1e-6


def assert_certified(
    milp: PatrolMILP,
    utilities: dict[int, PiecewiseLinear],
    solution: MILPSolution,
) -> None:
    """Assert ``solution`` is one unit of patrol flow worth its objective."""
    graph = milp.graph
    flows = solution.edge_flows
    assert flows.shape == (graph.n_edges,)
    assert flows.min() >= -TOL and flows.max() <= 1.0 + TOL

    out_edges, in_edges = graph.incidence_lists()
    inflow = np.array([flows[edges].sum() for edges in in_edges])
    outflow = np.array([flows[edges].sum() for edges in out_edges])
    source, sink = graph.source_node, graph.sink_node
    assert outflow[source] == pytest.approx(1.0, abs=TOL)
    assert inflow[sink] == pytest.approx(1.0, abs=TOL)
    interior = np.ones(graph.n_nodes, dtype=bool)
    interior[[source, sink]] = False
    np.testing.assert_allclose(inflow[interior], outflow[interior], atol=TOL)

    visits = np.zeros(graph.grid.n_cells)
    for node, (cell, __) in enumerate(graph.nodes):
        visits[cell] += inflow[node]
    visits[graph.source_cell] += 1.0
    np.testing.assert_allclose(
        solution.coverage, milp.n_patrols * visits, rtol=0.0, atol=1e-9
    )

    value = sum(float(u(solution.coverage[v])) for v, u in utilities.items())
    assert solution.objective_value == pytest.approx(value, abs=TOL)
