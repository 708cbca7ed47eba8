"""Time-unrolled patrol graph and the flow polytope F.

A patrol is a path on ``G' = (V', E')`` whose nodes are (cell, time) pairs:
it starts at the patrol post at t=0, moves to a rook-adjacent cell (or stays
put) each step, and is back at the post at t=T-1. One unit of flow from
``(post, 0)`` to ``(post, T-1)`` is exactly one feasible patrol (Eq. 2).

Nodes that cannot be reached from the source *and* still return in time are
pruned, which keeps the MILP small: a cell at geodesic distance d from the
post only has copies for ``d <= t <= T-1-d``.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from repro.exceptions import ConfigurationError, PlanningError
from repro.geo.distance import geodesic_distance
from repro.geo.grid import Grid


class TimeUnrolledGraph:
    """The directed acyclic patrol graph over (cell, time) nodes.

    Parameters
    ----------
    grid:
        Park lattice (patrols move on rook adjacency and may wait in place).
    source_cell:
        Cell id of the patrol post (source at t=0 and sink at t=T-1).
    horizon:
        Number of time steps T; a patrol covers T cells of effort.
    """

    def __init__(self, grid: Grid, source_cell: int, horizon: int):
        if horizon < 2:
            raise ConfigurationError(f"horizon must be >= 2, got {horizon}")
        if not 0 <= source_cell < grid.n_cells:
            raise ConfigurationError(f"source cell {source_cell} outside the park")
        self.grid = grid
        self.source_cell = int(source_cell)
        self.horizon = int(horizon)

        dist = geodesic_distance(grid, [source_cell]) / grid.cell_km
        self._distance_steps = dist

        # A (cell, t) node exists iff the cell is reachable by t steps and
        # can return to the post in the remaining T-1-t steps.
        self._node_index: dict[tuple[int, int], int] = {}
        nodes: list[tuple[int, int]] = []
        for t in range(horizon):
            for v in range(grid.n_cells):
                d = dist[v]
                if np.isfinite(d) and d <= t and d <= horizon - 1 - t:
                    self._node_index[(v, t)] = len(nodes)
                    nodes.append((v, t))
        if (self.source_cell, 0) not in self._node_index:
            raise PlanningError("source node was pruned; horizon too small")
        self._nodes = nodes

        edges: list[tuple[int, int]] = []
        for idx, (v, t) in enumerate(nodes):
            if t + 1 >= horizon:
                continue
            for u in [v] + grid.neighbors(v, connectivity=4):
                j = self._node_index.get((u, t + 1))
                if j is not None:
                    edges.append((idx, j))
        self._edges = _frozen(np.asarray(edges, dtype=np.int64))
        if self._edges.size == 0:
            raise PlanningError("time-unrolled graph has no edges")
        # Lookups every solve and route decomposition of this post reads,
        # built once and read-only: concurrent plans share them.
        node_cells = np.array([v for v, __ in nodes], dtype=np.int64)
        self._reachable = _frozen(np.unique(node_cells))
        every_node = np.arange(len(nodes))
        self._out_edges = _edge_groups(self._edges[:, 0], every_node)
        self._in_edges = _edge_groups(self._edges[:, 1], every_node)
        self._visit_edges = MappingProxyType(dict(zip(
            self._reachable.tolist(),
            _edge_groups(node_cells[self._edges[:, 1]], self._reachable),
        )))

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return self._edges.shape[0]

    @property
    def nodes(self) -> list[tuple[int, int]]:
        """(cell, time) of every kept node, in index order."""
        return list(self._nodes)

    @property
    def edges(self) -> np.ndarray:
        """``(n_edges, 2)`` read-only (tail_node_idx, head_node_idx) pairs."""
        return self._edges

    @property
    def source_node(self) -> int:
        return self._node_index[(self.source_cell, 0)]

    @property
    def sink_node(self) -> int:
        return self._node_index[(self.source_cell, self.horizon - 1)]

    def node_index(self, cell: int, t: int) -> int | None:
        """Index of node (cell, t), or None if pruned."""
        return self._node_index.get((cell, t))

    @property
    def reachable_cells(self) -> np.ndarray:
        """Sorted, read-only ids of the cells with a (cell, t) copy left."""
        return self._reachable

    # ------------------------------------------------------------------
    def incidence_lists(
        self,
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(out_edges, in_edges): read-only ascending edge ids per node."""
        return self._out_edges, self._in_edges

    def cell_visit_edges(self) -> MappingProxyType:
        """Reachable cell -> read-only ascending ids of the edges *entering*
        any of its copies, in :attr:`reachable_cells` order.

        Patrol effort at a cell is the expected number of time steps spent
        there: the flow into all (cell, t) copies plus the initial presence
        at the source. The source's t=0 presence has no incoming edge, so
        callers must add the unit source flow to the source cell's count.
        """
        return self._visit_edges


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _edge_groups(keys: np.ndarray, values: np.ndarray) -> tuple:
    """For each of the ascending ``values`` (every key is one of them), the
    ascending ids of the edges with that key, as read-only views."""
    order = _frozen(np.argsort(keys, kind="stable"))
    return tuple(np.split(order, np.searchsorted(keys[order], values[1:])))
