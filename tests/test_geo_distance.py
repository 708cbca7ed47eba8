"""Tests for repro.geo.distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.geo import Grid, chamfer_distance, geodesic_distance
from tests.oracles.distance_reference import (
    chamfer_distance_reference,
    geodesic_distance_reference,
)


class TestChamfer:
    def test_feature_cells_are_zero(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[3, 4] = True
        dist = chamfer_distance(mask)
        assert dist[3, 4] == 0.0

    def test_orthogonal_steps_cost_one(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        dist = chamfer_distance(mask)
        assert dist[4, 6] == pytest.approx(2.0)
        assert dist[1, 4] == pytest.approx(3.0)

    def test_diagonal_approximates_euclidean(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        dist = chamfer_distance(mask)
        # Exact Euclidean would be sqrt(2) ~ 1.414; chamfer 3-4 gives 1.35.
        assert dist[5, 5] == pytest.approx(1.35, abs=0.01)

    def test_cell_km_scales(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        d1 = chamfer_distance(mask, cell_km=1.0)
        d2 = chamfer_distance(mask, cell_km=2.5)
        np.testing.assert_allclose(d2, 2.5 * d1)

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            chamfer_distance(np.zeros(4, dtype=bool))

    def test_multiple_sources_take_nearest(self):
        mask = np.zeros((5, 11), dtype=bool)
        mask[2, 0] = True
        mask[2, 10] = True
        dist = chamfer_distance(mask)
        assert dist[2, 2] == pytest.approx(2.0)
        assert dist[2, 8] == pytest.approx(2.0)

    def test_monotone_from_source(self):
        """Distance never decreases moving straight away from a lone source."""
        mask = np.zeros((12, 12), dtype=bool)
        mask[0, 0] = True
        dist = chamfer_distance(mask)
        row = dist[0, :]
        assert (np.diff(row) >= 0).all()


class TestGeodesic:
    def test_open_grid_matches_manhattan(self):
        grid = Grid.rectangular(5, 5)
        src = grid.cell_id(0, 0)
        dist = geodesic_distance(grid, [src])
        assert dist[grid.cell_id(4, 4)] == pytest.approx(8.0)
        assert dist[grid.cell_id(0, 3)] == pytest.approx(3.0)

    def test_routes_around_holes(self):
        # A wall of off-park cells splits the park except for one gap.
        mask = np.ones((5, 5), dtype=bool)
        mask[0:4, 2] = False
        grid = Grid(5, 5, mask=mask)
        src = grid.cell_id(0, 0)
        dist = geodesic_distance(grid, [src])
        # (0, 4) is reachable only through the bottom-row gap at (4, 2).
        straight_line = 4.0
        assert dist[grid.cell_id(0, 4)] > straight_line

    def test_multiple_sources(self):
        grid = Grid.rectangular(3, 9)
        sources = [grid.cell_id(1, 0), grid.cell_id(1, 8)]
        dist = geodesic_distance(grid, sources)
        assert dist[grid.cell_id(1, 4)] == pytest.approx(4.0)

    def test_rejects_empty_sources(self):
        grid = Grid.rectangular(3, 3)
        with pytest.raises(ConfigurationError):
            geodesic_distance(grid, [])

    def test_rejects_bad_source(self):
        grid = Grid.rectangular(3, 3)
        with pytest.raises(ConfigurationError):
            geodesic_distance(grid, [99])

    def test_triangle_inequality_to_neighbors(self):
        grid = Grid.elliptical(9, 9)
        dist = geodesic_distance(grid, [0])
        for cid in range(grid.n_cells):
            for nid in grid.neighbors(cid):
                assert abs(dist[cid] - dist[nid]) <= grid.cell_km + 1e-9


class TestReferenceEquivalence:
    """The vectorised transforms are bit-identical to the original per-cell
    implementations — the golden contract of the O(n) rewrite."""

    def test_chamfer_matches_reference_on_random_masks(self):
        rng = np.random.default_rng(0)
        for trial in range(15):
            h, w = rng.integers(2, 50, size=2)
            mask = rng.random((h, w)) < rng.uniform(0.01, 0.3)
            if not mask.any():
                mask[rng.integers(h), rng.integers(w)] = True
            cell_km = float(rng.choice([1.0, 0.5, 2.5]))
            np.testing.assert_array_equal(
                chamfer_distance(mask, cell_km),
                chamfer_distance_reference(mask, cell_km),
            )

    def test_chamfer_matches_reference_on_empty_and_full_masks(self):
        empty = np.zeros((7, 9), dtype=bool)
        np.testing.assert_array_equal(
            chamfer_distance(empty), chamfer_distance_reference(empty)
        )
        full = np.ones((7, 9), dtype=bool)
        np.testing.assert_array_equal(
            chamfer_distance(full), chamfer_distance_reference(full)
        )

    def test_chamfer_matches_reference_on_degenerate_shapes(self):
        for shape in [(1, 12), (12, 1), (1, 1), (2, 2)]:
            rng = np.random.default_rng(sum(shape))
            mask = rng.random(shape) < 0.2
            mask.flat[0] = True
            np.testing.assert_array_equal(
                chamfer_distance(mask), chamfer_distance_reference(mask)
            )

    def test_geodesic_matches_reference_on_masked_grids_with_holes(self):
        rng = np.random.default_rng(1)
        for trial in range(12):
            h, w = map(int, rng.integers(3, 30, size=2))
            mask = rng.random((h, w)) < 0.75  # plenty of holes/pockets
            if not mask.any():
                mask[0, 0] = True
            grid = Grid(h, w, cell_km=float(rng.choice([1.0, 0.7])), mask=mask)
            n_src = int(rng.integers(1, min(4, grid.n_cells) + 1))
            sources = rng.choice(grid.n_cells, size=n_src, replace=False)
            np.testing.assert_array_equal(
                geodesic_distance(grid, sources),
                geodesic_distance_reference(grid, sources),
            )

    def test_geodesic_unreachable_pockets_stay_inf(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, :] = False  # wall splits the park in two
        grid = Grid(5, 5, mask=mask)
        dist = geodesic_distance(grid, [grid.cell_id(0, 0)])
        ref = geodesic_distance_reference(grid, [grid.cell_id(0, 0)])
        np.testing.assert_array_equal(dist, ref)
        assert np.isinf(dist[grid.cell_id(4, 4)])

    def test_geodesic_fractional_cell_km_accumulates_identically(self):
        # Repeated addition of a non-representable step (0.3) is where a
        # level*step formulation would drift; the BFS must accumulate.
        grid = Grid.rectangular(3, 40, cell_km=0.3)
        np.testing.assert_array_equal(
            geodesic_distance(grid, [0]), geodesic_distance_reference(grid, [0])
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 9999))
def test_chamfer_close_to_euclidean(seed):
    """Chamfer 3-4 distance stays within ~10% of exact Euclidean distance."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((15, 15), dtype=bool)
    r0, c0 = rng.integers(0, 15, size=2)
    mask[r0, c0] = True
    dist = chamfer_distance(mask)
    rows, cols = np.mgrid[0:15, 0:15]
    exact = np.sqrt((rows - r0) ** 2 + (cols - c0) ** 2)
    nonzero = exact > 0
    rel_err = np.abs(dist[nonzero] - exact[nonzero]) / exact[nonzero]
    assert rel_err.max() < 0.10
