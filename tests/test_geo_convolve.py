"""Tests for repro.geo.convolve."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.geo import block_mean, box_filter


class TestBoxFilter:
    def test_radius_zero_is_identity(self, rng):
        raster = rng.random((6, 6))
        np.testing.assert_array_equal(box_filter(raster, radius=0), raster)

    def test_constant_raster_unchanged(self):
        raster = np.full((7, 7), 4.2)
        np.testing.assert_allclose(box_filter(raster, radius=1), 4.2)

    def test_interior_cell_averages_window(self):
        raster = np.arange(25, dtype=float).reshape(5, 5)
        out = box_filter(raster, radius=1)
        expected = raster[1:4, 1:4].mean()
        assert out[2, 2] == pytest.approx(expected)

    def test_edge_cells_average_partial_window(self):
        raster = np.arange(9, dtype=float).reshape(3, 3)
        out = box_filter(raster, radius=1)
        assert out[0, 0] == pytest.approx(raster[0:2, 0:2].mean())

    def test_nan_cells_stay_nan_and_are_skipped(self):
        raster = np.ones((4, 4))
        raster[1, 1] = np.nan
        out = box_filter(raster, radius=1)
        assert np.isnan(out[1, 1])
        assert out[0, 0] == pytest.approx(1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            box_filter(np.zeros(4))
        with pytest.raises(ConfigurationError):
            box_filter(np.zeros((3, 3)), radius=-1)

    def test_preserves_mean_roughly(self, rng):
        raster = rng.random((12, 12))
        out = box_filter(raster, radius=2)
        assert abs(out.mean() - raster.mean()) < 0.05


class TestBlockMean:
    def test_exact_tiling(self):
        raster = np.arange(16, dtype=float).reshape(4, 4)
        out = block_mean(raster, block=2)
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(raster[:2, :2].mean())
        assert out[1, 1] == pytest.approx(raster[2:, 2:].mean())

    def test_ragged_edges_use_partial_tiles(self):
        raster = np.ones((5, 5))
        out = block_mean(raster, block=3)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, 1.0)

    def test_all_nan_tile_is_nan(self):
        raster = np.full((4, 4), np.nan)
        raster[0, 0] = 2.0
        out = block_mean(raster, block=2)
        assert out[0, 0] == pytest.approx(2.0)
        assert np.isnan(out[1, 1])

    def test_block_one_is_identity(self, rng):
        raster = rng.random((3, 5))
        np.testing.assert_allclose(block_mean(raster, 1), raster)

    def test_rejects_bad_block(self):
        with pytest.raises(ConfigurationError):
            block_mean(np.zeros((3, 3)), block=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 9999), radius=st.integers(1, 3))
def test_box_filter_bounded_by_extremes(seed, radius):
    """A moving average can never exceed the raster's own range."""
    raster = np.random.default_rng(seed).random((10, 10))
    out = box_filter(raster, radius=radius)
    assert out.min() >= raster.min() - 1e-12
    assert out.max() <= raster.max() + 1e-12


def _ragged_holey_raster(seed: int, height: int, width: int) -> np.ndarray:
    """A non-square raster with ~30% NaN holes punched into it."""
    rng = np.random.default_rng(seed)
    raster = rng.random((height, width))
    raster[rng.random((height, width)) < 0.3] = np.nan
    return raster


class TestVectorizedEquivalence:
    """The numpy rewrites against the original per-cell double loops."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        height=st.integers(1, 13),
        width=st.integers(1, 13),
        radius=st.integers(1, 3),
    )
    def test_box_sum_bit_identical(self, seed, height, width, radius):
        from repro.geo.convolve import _box_sum
        from tests.oracles.convolve_reference import _box_sum_reference

        raster = np.nan_to_num(_ragged_holey_raster(seed, height, width))
        k = 2 * radius + 1
        np.testing.assert_array_equal(
            _box_sum(raster, k), _box_sum_reference(raster, k)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        height=st.integers(1, 13),
        width=st.integers(1, 13),
        block=st.integers(1, 5),
    )
    def test_block_mean_equivalent_on_ragged_holey_rasters(
        self, seed, height, width, block
    ):
        """Exact NaN placement, values equal up to summation order."""
        from tests.oracles.convolve_reference import block_mean_reference

        raster = _ragged_holey_raster(seed, height, width)
        got = block_mean(raster, block)
        expected = block_mean_reference(raster, block)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_box_filter_on_holey_raster_matches_reference_sums(self):
        from tests.oracles.convolve_reference import _box_sum_reference

        raster = _ragged_holey_raster(7, 9, 12)
        finite = np.isfinite(raster)
        filled = np.where(finite, raster, 0.0)
        summed = _box_sum_reference(filled, 3)
        counts = _box_sum_reference(finite.astype(float), 3)
        expected = np.full_like(raster, np.nan)
        has_data = counts > 0
        expected[has_data] = summed[has_data] / counts[has_data]
        expected[~finite] = np.nan
        got = box_filter(raster, radius=1)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        np.testing.assert_array_equal(
            got[np.isfinite(got)], expected[np.isfinite(expected)]
        )
