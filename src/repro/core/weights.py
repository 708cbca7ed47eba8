"""Optimal iWare-E classifier weights.

The paper's first enhancement: instead of weighing qualified classifiers
equally, "perform 5-fold cross validation to minimize the log loss of the
predictions when varying the classifier weights" (Section IV). The weighted
ensemble probability is linear in the weights, so the log-loss is convex
over the probability simplex; we solve it with projected SLSQP.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.exceptions import ConvergenceError, DataError

_EPS = 1e-12


def ensemble_log_loss(
    weights: np.ndarray, probabilities: np.ndarray, labels: np.ndarray
) -> float:
    """Log-loss of the weight-mixed ensemble prediction.

    Parameters
    ----------
    weights:
        ``(I,)`` ensemble weights (assumed on the simplex).
    probabilities:
        ``(I, n)`` per-classifier positive-class probabilities.
    labels:
        ``(n,)`` binary labels.
    """
    mixed = np.clip(weights @ probabilities, _EPS, 1.0 - _EPS)
    return float(-np.mean(labels * np.log(mixed) + (1 - labels) * np.log(1 - mixed)))


def optimize_ensemble_weights(
    probabilities: np.ndarray,
    labels: np.ndarray,
    ridge: float = 1e-4,
) -> np.ndarray:
    """Minimise ensemble log-loss over the probability simplex.

    Parameters
    ----------
    probabilities:
        ``(I, n)`` held-out (cross-validated) predictions of each classifier.
    labels:
        ``(n,)`` binary labels of the held-out points.
    ridge:
        Tiny L2 pull toward uniform weights; regularises the (otherwise
        flat) optimum when classifiers are nearly collinear.

    Returns
    -------
    numpy.ndarray
        ``(I,)`` nonnegative weights summing to 1.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    labels = np.asarray(labels)
    if probabilities.ndim != 2:
        raise DataError("probabilities must be (n_classifiers, n_points)")
    n_classifiers, n_points = probabilities.shape
    if labels.shape != (n_points,):
        raise DataError(
            f"labels shape {labels.shape} does not match {n_points} points"
        )
    if n_classifiers == 1:
        return np.ones(1)
    if not np.isfinite(probabilities).all():
        raise DataError("probabilities contain non-finite values")

    uniform = np.full(n_classifiers, 1.0 / n_classifiers)

    def objective(w: np.ndarray) -> float:
        return ensemble_log_loss(w, probabilities, labels) + ridge * float(
            np.sum((w - uniform) ** 2)
        )

    def gradient(w: np.ndarray) -> np.ndarray:
        mixed = np.clip(w @ probabilities, _EPS, 1.0 - _EPS)
        dl_dmix = -(labels / mixed) + (1 - labels) / (1 - mixed)
        grad = probabilities @ dl_dmix / n_points
        return grad + 2 * ridge * (w - uniform)

    result = minimize(
        objective,
        uniform,
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n_classifiers,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
        options={"maxiter": 300, "ftol": 1e-10},
    )
    if not result.success and not np.isfinite(result.fun):
        raise ConvergenceError(f"weight optimisation failed: {result.message}")
    # SLSQP leaves a weight at its bound as exactly 0 or as round-off
    # (~1e-17) depending on ulp-level noise in the inputs; snap both to 0 so
    # the ensemble's qualification mix sees the same weights either way.
    weights = np.where(result.x > _EPS, result.x, 0.0)
    total = weights.sum()
    if total <= 0:
        return uniform
    return weights / total
