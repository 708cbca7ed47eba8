"""Spatial smoothing helpers.

Section VII-B of the paper averages 1x1 km risk predictions over adjacent
cells "by convolving the risk map to produce 3x3 km blocks" when designing
field tests. :func:`box_filter` implements exactly that NaN-aware moving
average; :func:`block_mean` aggregates a raster into non-overlapping blocks.

Both hot loops are pure numpy: the k x k window sum is four shifted slices
of one summed-area table, and the block aggregation is a pad-to-multiple +
reshape reduction. The original per-cell double loops live on in
``tests/oracles/convolve_reference.py``, equivalence-tested against the
vectorized paths on ragged, hole-punched rasters.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


def box_filter(raster: np.ndarray, radius: int = 1) -> np.ndarray:
    """NaN-aware moving average over a ``(2*radius+1)`` square window.

    Off-park cells marked with NaN neither contribute to nor receive values;
    a cell's output is the mean of the finite values in its window.
    """
    raster = np.asarray(raster, dtype=float)
    if raster.ndim != 2:
        raise ConfigurationError(f"raster must be 2-D, got shape {raster.shape}")
    if radius < 0:
        raise ConfigurationError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return raster.copy()
    finite = np.isfinite(raster)
    filled = np.where(finite, raster, 0.0)
    k = 2 * radius + 1
    summed = _box_sum(filled, k)
    counts = _box_sum(finite.astype(float), k)
    out = np.full_like(raster, np.nan)
    has_data = counts > 0
    out[has_data] = summed[has_data] / counts[has_data]
    out[~finite] = np.nan
    return out


def _integral_image(raster: np.ndarray, k: int) -> np.ndarray:
    """Zero-padded summed-area table with a leading zero row/column."""
    height, width = raster.shape
    pad = k // 2
    padded = np.zeros((height + 2 * pad, width + 2 * pad))
    padded[pad : pad + height, pad : pad + width] = raster
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1))
    integral[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    return integral


def _box_sum(raster: np.ndarray, k: int) -> np.ndarray:
    """Sum over a k x k window via a 2-D summed-area table (zero padding).

    The window sum at ``(r, c)`` is the four-corner difference of the
    integral image; evaluated for all cells at once as four shifted array
    slices, in the same ``a - b - c + d`` order as the per-cell reference —
    so the result is bit-identical to the per-cell reference loop
    (``tests/oracles/convolve_reference.py``).
    """
    height, width = raster.shape
    integral = _integral_image(raster, k)
    return (
        integral[k : k + height, k : k + width]
        - integral[:height, k : k + width]
        - integral[k : k + height, :width]
        + integral[:height, :width]
    )


def block_mean(raster: np.ndarray, block: int) -> np.ndarray:
    """NaN-aware mean over non-overlapping ``block x block`` tiles.

    Ragged edges (when the raster size is not a multiple of ``block``) are
    averaged over the partial tile. A tile with no finite cells yields NaN.

    Implemented by NaN-padding the raster up to a multiple of ``block`` and
    reducing a ``(out_h, block, out_w, block)`` reshape: the pad cells are
    non-finite, so they drop out of both the sums and the counts exactly
    like the holes do — NaN semantics identical to the per-tile reference
    loop (``tests/oracles/convolve_reference.py``), values equal up to
    summation order.
    """
    raster = np.asarray(raster, dtype=float)
    if raster.ndim != 2:
        raise ConfigurationError(f"raster must be 2-D, got shape {raster.shape}")
    if block < 1:
        raise ConfigurationError(f"block must be >= 1, got {block}")
    height, width = raster.shape
    out_h = (height + block - 1) // block
    out_w = (width + block - 1) // block
    padded = np.full((out_h * block, out_w * block), np.nan)
    padded[:height, :width] = raster
    tiles = padded.reshape(out_h, block, out_w, block)
    finite = np.isfinite(tiles)
    sums = np.where(finite, tiles, 0.0).sum(axis=(1, 3))
    counts = finite.sum(axis=(1, 3))
    out = np.full((out_h, out_w), np.nan)
    has_data = counts > 0
    out[has_data] = sums[has_data] / counts[has_data]
    return out
