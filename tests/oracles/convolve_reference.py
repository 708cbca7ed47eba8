"""The per-cell smoothing loops, kept as executable specification.

:func:`repro.geo.convolve.box_filter`'s window sums and
:func:`repro.geo.convolve.block_mean` replaced these double loops; the
equivalence tests in ``tests/test_geo_convolve.py`` compare against them on
ragged, hole-punched rasters.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geo.convolve import _integral_image


def _box_sum_reference(raster: np.ndarray, k: int) -> np.ndarray:
    """Per-cell reference for :func:`_box_sum` (the original double loop)."""
    height, width = raster.shape
    integral = _integral_image(raster, k)
    out = np.empty((height, width))
    for r in range(height):
        for c in range(width):
            r0, c0 = r, c
            r1, c1 = r + k, c + k
            out[r, c] = (
                integral[r1, c1]
                - integral[r0, c1]
                - integral[r1, c0]
                + integral[r0, c0]
            )
    return out


def block_mean_reference(raster: np.ndarray, block: int) -> np.ndarray:
    """Per-tile reference for :func:`block_mean` (the original double loop)."""
    raster = np.asarray(raster, dtype=float)
    if raster.ndim != 2:
        raise ConfigurationError(f"raster must be 2-D, got shape {raster.shape}")
    if block < 1:
        raise ConfigurationError(f"block must be >= 1, got {block}")
    height, width = raster.shape
    out_h = (height + block - 1) // block
    out_w = (width + block - 1) // block
    out = np.full((out_h, out_w), np.nan)
    for br in range(out_h):
        for bc in range(out_w):
            tile = raster[br * block : (br + 1) * block, bc * block : (bc + 1) * block]
            finite = np.isfinite(tile)
            if finite.any():
                out[br, bc] = tile[finite].mean()
    return out
