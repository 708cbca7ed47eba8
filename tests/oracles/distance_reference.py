"""The per-cell distance transforms, kept as executable specification.

:func:`repro.geo.distance.chamfer_distance` and
:func:`repro.geo.distance.geodesic_distance` started life as these per-cell
Python loops and are contract-bound to reproduce them bit for bit. The
equivalence tests in ``tests/test_geo_distance.py`` and the fit-throughput
benchmark compare against them.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geo.distance import _DIAG_COST, _ORTHO_COST, _check_sources
from repro.geo.grid import ROOK_OFFSETS, Grid


def chamfer_distance_reference(mask: np.ndarray, cell_km: float = 1.0) -> np.ndarray:
    """Per-cell double-loop chamfer transform (the executable specification).

    Kept verbatim from the original implementation so equivalence tests and
    benchmarks can compare :func:`chamfer_distance` against it.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ConfigurationError(f"mask must be 2-D, got shape {mask.shape}")
    height, width = mask.shape
    inf = float(height + width) * 2.0 * _DIAG_COST
    dist = np.where(mask, 0.0, inf)

    # Forward pass: scan top-left to bottom-right.
    for r in range(height):
        for c in range(width):
            d = dist[r, c]
            if r > 0:
                d = min(d, dist[r - 1, c] + _ORTHO_COST)
                if c > 0:
                    d = min(d, dist[r - 1, c - 1] + _DIAG_COST)
                if c < width - 1:
                    d = min(d, dist[r - 1, c + 1] + _DIAG_COST)
            if c > 0:
                d = min(d, dist[r, c - 1] + _ORTHO_COST)
            dist[r, c] = d
    # Backward pass: scan bottom-right to top-left.
    for r in range(height - 1, -1, -1):
        for c in range(width - 1, -1, -1):
            d = dist[r, c]
            if r < height - 1:
                d = min(d, dist[r + 1, c] + _ORTHO_COST)
                if c > 0:
                    d = min(d, dist[r + 1, c - 1] + _DIAG_COST)
                if c < width - 1:
                    d = min(d, dist[r + 1, c + 1] + _DIAG_COST)
            if c < width - 1:
                d = min(d, dist[r, c + 1] + _ORTHO_COST)
            dist[r, c] = d
    return dist * cell_km


def geodesic_distance_reference(
    grid: Grid, sources: np.ndarray | list[int]
) -> np.ndarray:
    """Heap-based Dijkstra geodesic distance (the executable specification).

    Kept verbatim from the original implementation so equivalence tests and
    benchmarks can compare :func:`geodesic_distance` against it.
    """
    sources = _check_sources(grid, sources)
    dist = np.full(grid.n_cells, np.inf)
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, int(s)))
    step = grid.cell_km
    while heap:
        d, cid = heapq.heappop(heap)
        if d > dist[cid]:
            continue
        row, col = grid.cell_rc(cid)
        for dr, dc in ROOK_OFFSETS:
            r, c = row + dr, col + dc
            if not grid.contains_rc(r, c):
                continue
            nid = grid.cell_id(r, c)
            nd = d + step
            if nd < dist[nid]:
                dist[nid] = nd
                heapq.heappush(heap, (nd, nid))
    return dist
