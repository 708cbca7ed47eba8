"""Decomposing an optimal flow into deployable patrol routes.

The MILP returns a *mixed strategy*: one unit of (possibly fractional) flow
through the time-unrolled graph. Rangers need concrete routes, so the flow
is decomposed into weighted source-to-sink paths (flow decomposition
theorem: an acyclic unit flow splits into at most ``n_edges`` paths), from
which K routes per period can be sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError, PlanningError
from repro.planning.graph import TimeUnrolledGraph


@dataclass(frozen=True)
class PatrolRoute:
    """A single deployable route with its strategy weight.

    Attributes
    ----------
    cells:
        Sequence of cell ids, one per time step (starts and ends at the
        post).
    weight:
        Probability mass of this route in the mixed strategy.
    """

    cells: tuple[int, ...]
    weight: float


#: Residual source outflow at or below this counts as fully decomposed.
_MASS_EPS = 1e-12


def decompose_flow_into_routes(
    graph: TimeUnrolledGraph,
    edge_flows: np.ndarray,
    min_weight: float = 1e-6,
) -> list[PatrolRoute]:
    """Greedy bottleneck path extraction from an acyclic unit flow.

    Repeatedly walks from the source along the largest-flow outgoing edge,
    subtracts the bottleneck along the path, and records the route, until
    the residual source outflow is exhausted (below numerical noise). The
    full strategy mass is always decomposed: for a unit inflow the
    returned weights sum to 1 up to floating-point drift.

    ``min_weight`` is a reporting threshold, never a feasibility one:
    routes lighter than it are folded back into the kept routes — their
    mass redistributed proportionally — so no strategy mass is ever
    dropped. (An earlier implementation aborted the whole decomposition
    when the greedy path hit a sub-``min_weight`` edge, silently losing
    the remaining mass.) A genuine dead end — a node with no positive
    residual at all, which only numerical drift can produce — retires the
    edge that led there and extraction continues.

    Each extraction zeroes at least one edge and each dead end retires
    one, so the loop terminates after at most ``2 * n_edges`` iterations
    regardless of flow values.

    Returns routes sorted by descending weight.
    """
    edge_flows = np.asarray(edge_flows, dtype=float)
    if edge_flows.shape != (graph.n_edges,):
        raise ConfigurationError(
            f"edge_flows must have shape ({graph.n_edges},), got {edge_flows.shape}"
        )
    if (edge_flows < -1e-6).any():
        raise ConfigurationError("edge flows must be nonnegative")
    residual = np.clip(edge_flows, 0.0, None)
    out_edges, __ = graph.incidence_lists()
    edges = graph.edges
    nodes = graph.nodes
    source, sink = graph.source_node, graph.sink_node
    source_out = out_edges[source]
    if not source_out.size:
        raise PlanningError("source node has no outgoing edges")
    routes: list[PatrolRoute] = []
    for __ in range(2 * graph.n_edges + 1):
        if float(residual[source_out].sum()) <= _MASS_EPS:
            break
        node = source
        path_nodes = [node]
        path_edges: list[int] = []
        dead_end = False
        while node != sink:
            candidates = out_edges[node]
            flows_here = residual[candidates]
            if flows_here.size == 0 or float(flows_here.max()) <= 0.0:
                dead_end = True
                break
            e = int(candidates[int(np.argmax(flows_here))])
            path_edges.append(e)
            node = int(edges[e, 1])
            path_nodes.append(node)
        if dead_end:
            if not path_edges:
                break  # source itself exhausted; nothing left to extract
            # Retire the drift-level edge that led here and route around it.
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


def _fold_noise_routes(
    routes: list[PatrolRoute], min_weight: float
) -> list[PatrolRoute]:
    """Redistribute sub-``min_weight`` routes' mass over the kept ones.

    Conserves the total weight exactly; if *every* route is below the
    threshold the list is returned unchanged (filtering would destroy the
    decomposition entirely).
    """
    kept = [r for r in routes if r.weight >= min_weight]
    if not kept or len(kept) == len(routes):
        return routes
    total = sum(r.weight for r in routes)
    kept_total = sum(r.weight for r in kept)
    scale = total / kept_total
    return [
        PatrolRoute(cells=r.cells, weight=r.weight * scale) for r in kept
    ]


def sample_routes(
    routes: list[PatrolRoute],
    n_patrols: int,
    rng: np.random.Generator,
) -> list[PatrolRoute]:
    """Draw K concrete patrols from the mixed strategy.

    Parameters
    ----------
    routes:
        Weighted routes from :func:`decompose_flow_into_routes`.
    n_patrols:
        Number of patrols K to deploy this period.
    rng:
        Randomness for the categorical draw.
    """
    if not routes:
        raise ConfigurationError("no routes to sample from")
    if n_patrols < 1:
        raise ConfigurationError(f"n_patrols must be >= 1, got {n_patrols}")
    weights = np.array([r.weight for r in routes], dtype=float)
    weights = weights / weights.sum()
    picks = rng.choice(len(routes), size=n_patrols, p=weights)
    return [routes[i] for i in picks]


def coverage_of_routes(
    graph: TimeUnrolledGraph,
    routes: list[PatrolRoute],
    weighted: bool = True,
    n_patrols: int = 1,
) -> np.ndarray:
    """Km of effort per cell implied by a set of routes.

    Parameters
    ----------
    graph:
        The time-unrolled graph the routes live on.
    routes:
        A weighted mixed-strategy decomposition, or concrete sampled
        patrols.
    weighted:
        With ``True`` (default) each route contributes its strategy
        ``weight`` times ``n_patrols``, giving the *expected* coverage of
        the mixed strategy; on a full decomposition this reconciles with
        :attr:`~repro.planning.milp.MILPSolution.coverage`. Use ``False``
        for concrete routes drawn by :func:`sample_routes`, where every
        deployed patrol counts in full regardless of its sampling weight.
    n_patrols:
        K — patrols per period; scales weighted coverage only.
    """
    if n_patrols < 1:
        raise ConfigurationError(f"n_patrols must be >= 1, got {n_patrols}")
    coverage = np.zeros(graph.grid.n_cells)
    for route in routes:
        contribution = route.weight * n_patrols if weighted else 1.0
        for cell in route.cells:
            coverage[cell] += contribution
    return coverage
