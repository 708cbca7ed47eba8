"""Distance transforms used to turn vector layers into per-cell features.

The paper encodes landscape features "either as direct values (such as slope
or animal density) or as distance values (such as distance to nearest
river)". :func:`chamfer_distance` provides the raster distance-to-nearest
transform; :func:`geodesic_distance` provides in-park travel distances on the
4-connected cell graph, used by the patrol simulator.

Both transforms are O(n) row-sweep/frontier algorithms. They started life as
per-cell Python loops (kept in ``tests/oracles/distance_reference.py`` as
the executable specification); the production versions below are
exact-equivalent rewrites — bit-identical output, regression-tested in
``tests/test_geo_distance.py`` — that vectorise everything except the
inherently sequential in-row chamfer propagation:

* **chamfer** — the vertical/diagonal relaxations against the previous row
  are elementwise and run as whole-row numpy operations; the left-to-right
  (and right-to-left) in-row scans keep the reference's exact recurrence
  ``d[c] = min(cand[c], d[c-1] + ortho)`` on Python floats. The float
  accumulation is deliberately identical: chamfer values are rounded sums of
  step costs, and any reassociation (e.g. the ``min(cand[j] + (c-j))``
  prefix-scan trick) drifts by ~1 ulp.
* **geodesic** — edge weights are uniform (``cell_km``), so Dijkstra
  collapses to multi-source breadth-first search. Each BFS level dilates the
  frontier with four shifted boolean masks; the level distance accumulates by
  repeated addition (``d += step``), which is exactly the sum Dijkstra
  computes along any shortest path.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geo.grid import Grid

#: Chamfer weights approximating Euclidean distance on a lattice (3-4 mask
#: normalised so that a rook step costs 1 cell).
_ORTHO_COST = 1.0
_DIAG_COST = 1.35


def chamfer_distance(mask: np.ndarray, cell_km: float = 1.0) -> np.ndarray:
    """Approximate Euclidean distance (km) from every cell to a feature mask.

    Two-pass chamfer transform with the 3-4 mask, accurate to a few percent,
    which is ample for synthetic features on a 1 km grid. Bit-identical to
    the per-cell reference in ``tests/oracles/distance_reference.py``,
    roughly an order of magnitude faster on benchmark-sized grids.

    Parameters
    ----------
    mask:
        Boolean raster; ``True`` marks feature cells (distance 0).
    cell_km:
        Physical size of one cell, multiplies the result.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ConfigurationError(f"mask must be 2-D, got shape {mask.shape}")
    height, width = mask.shape
    inf = float(height + width) * 2.0 * _DIAG_COST
    dist = np.where(mask, 0.0, inf)
    ortho, diag = _ORTHO_COST, _DIAG_COST

    # Forward pass: each row takes its vertical/diagonal candidates from the
    # (already final) row above in three whole-row operations, then the
    # horizontal scan propagates left-to-right.
    for r in range(height):
        row = dist[r]
        if r > 0:
            prev = dist[r - 1]
            np.minimum(row, prev + ortho, out=row)
            np.minimum(row[1:], prev[:-1] + diag, out=row[1:])
            np.minimum(row[:-1], prev[1:] + diag, out=row[:-1])
        vals = row.tolist()
        d = vals[0]
        for c in range(1, width):
            d += ortho
            if d < vals[c]:
                vals[c] = d
            else:
                d = vals[c]
        dist[r] = vals
    # Backward pass: bottom-up, scanning right-to-left.
    for r in range(height - 1, -1, -1):
        row = dist[r]
        if r < height - 1:
            nxt = dist[r + 1]
            np.minimum(row, nxt + ortho, out=row)
            np.minimum(row[1:], nxt[:-1] + diag, out=row[1:])
            np.minimum(row[:-1], nxt[1:] + diag, out=row[:-1])
        vals = row.tolist()
        d = vals[width - 1]
        for c in range(width - 2, -1, -1):
            d += ortho
            if d < vals[c]:
                vals[c] = d
            else:
                d = vals[c]
        dist[r] = vals
    return dist * cell_km


def _check_sources(grid: Grid, sources: np.ndarray | list[int]) -> np.ndarray:
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        raise ConfigurationError("geodesic_distance needs at least one source cell")
    for s in sources:
        if not (0 <= s < grid.n_cells):
            raise ConfigurationError(f"source cell id {s} out of range")
    return sources


def geodesic_distance(grid: Grid, sources: np.ndarray | list[int]) -> np.ndarray:
    """Shortest in-park travel distance (km) from a set of source cells.

    Distances are computed on the rook-adjacency cell graph restricted to the
    park mask, so they route *around* off-park holes — matching how rangers
    actually travel. Cells unreachable from every source get ``inf``.

    Every edge costs ``grid.cell_km``, so Dijkstra degenerates to multi-source
    breadth-first search: each level is one boolean frontier dilation over the
    full lattice (four shifted masks), and the level distance accumulates by
    repeated addition exactly as the heap-based reference accumulates it along
    a shortest path. Bit-identical to the heap-based reference in
    ``tests/oracles/distance_reference.py``.

    Parameters
    ----------
    grid:
        The park grid.
    sources:
        Cell ids acting as distance-zero sources (e.g. patrol posts).

    Returns
    -------
    numpy.ndarray
        ``(n_cells,)`` distances in kilometres.
    """
    sources = _check_sources(grid, sources)
    height, width = grid.shape
    cells = grid.all_cell_rc()
    dist_raster = np.full((height, width), np.inf)
    frontier = np.zeros((height, width), dtype=bool)
    src_rc = cells[sources]
    frontier[src_rc[:, 0], src_rc[:, 1]] = True
    unvisited = grid.mask.copy()
    grow = np.zeros((height, width), dtype=bool)
    d = 0.0
    step = grid.cell_km
    while frontier.any():
        dist_raster[frontier] = d
        unvisited &= ~frontier
        grow[:] = False
        grow[1:, :] |= frontier[:-1, :]
        grow[:-1, :] |= frontier[1:, :]
        grow[:, 1:] |= frontier[:, :-1]
        grow[:, :-1] |= frontier[:, 1:]
        grow &= unvisited
        frontier, grow = grow, frontier
        d = d + step
    return dist_raster[cells[:, 0], cells[:, 1]]
