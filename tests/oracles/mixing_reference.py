"""The per-level effort-response mixing, kept as executable specification.

:meth:`repro.core.predictor.PawsPredictor.mix_effort_response` mixes every
level of an effort grid at once, with two matrix products
(:meth:`repro.core.ensemble.IWareEnsemble.mix_grid`). This is the mixing it
replaced: one ``IWareEnsemble._mix`` call per level over the same member
pass. The batched mix must match it to floating-point reduction order, and
equal the per-level ``predict_proba`` / ``predict_variance`` calls bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.uncertainty import UncertaintyScaler


def per_level_effort_response(predictor, member_pass, effort_grid):
    """``(g_v(c), nu_v(c), scaler)`` over ``effort_grid``, level by level."""
    effort_grid = np.asarray(effort_grid, dtype=float)
    probs, raw_vars = member_pass
    ensemble = predictor._ensemble
    if ensemble is None:
        risk = np.repeat(probs[:, None], effort_grid.size, axis=1)
        raw_var = np.repeat(raw_vars[:, None], effort_grid.size, axis=1)
    else:
        risk = np.stack(
            [ensemble._mix(probs, float(c)) for c in effort_grid], axis=1
        )
        raw_var = np.stack(
            [ensemble._mix(raw_vars, float(c)) for c in effort_grid], axis=1
        )
    risk[:, effort_grid == 0.0] = 0.0
    scaler = UncertaintyScaler().fit(raw_var.ravel())
    return risk, scaler.transform(raw_var), scaler
