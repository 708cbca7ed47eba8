"""The LU-solve Laplace Newton step, kept as executable specification.

:meth:`repro.ml.gp.GaussianProcessClassifier._find_mode` used to solve with
the Cholesky factor ``L`` of ``B = I + W^1/2 K W^1/2`` through two general
``np.linalg.solve`` calls, an O(n^3) LU factorisation each, and built ``B``
from an explicit identity. The classifier now solves with ``L`` by two
O(n^2) triangular sweeps (``scipy.linalg.cho_solve``), as Rasmussen &
Williams (2006) Alg. 3.1 prescribes, and builds ``B`` in place. The two
agree to floating-point round-off; this is the old step, for the tests in
``tests/test_ml_gp.py``.

Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError
from repro.ml.calibration import _stable_sigmoid


def reference_b_matrix(K: np.ndarray, sqrt_w: np.ndarray) -> np.ndarray:
    """``B = I + W^1/2 K W^1/2`` as the classifier first spelled it."""
    identity = np.eye(K.shape[0])
    return identity + sqrt_w[:, None] * K * sqrt_w[None, :]


def reference_find_mode(
    K: np.ndarray, signs: np.ndarray, max_newton_iter: int, tol: float
) -> np.ndarray:
    """Laplace posterior mode by Newton iteration with two LU solves per step."""
    n = K.shape[0]
    f = np.zeros(n)
    last_objective = -np.inf
    for _ in range(max_newton_iter):
        pi = _stable_sigmoid(f)
        w = np.maximum(pi * (1.0 - pi), 1e-12)
        sqrt_w = np.sqrt(w)
        L = np.linalg.cholesky(reference_b_matrix(K, sqrt_w))
        grad = (signs + 1.0) / 2.0 - pi
        b = w * f + grad
        rhs = sqrt_w * (K @ b)
        solved = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        a = b - sqrt_w * solved
        f = K @ a
        log_lik = -np.sum(np.logaddexp(0.0, -signs * f))
        objective = float(log_lik - 0.5 * a @ f)
        if abs(objective - last_objective) < tol:
            return f
        last_objective = objective
    raise ConvergenceError(
        f"GP Laplace mode finding did not converge in {max_newton_iter} iterations"
    )


def reference_laplace_state(gp, K: np.ndarray, signs: np.ndarray) -> dict:
    """What a fit stores at the mode: ``f``, gradient, ``W^1/2`` and ``chol(B)``.

    ``gp`` supplies the Newton settings; ``K`` is its training kernel matrix
    with the jitter already on the diagonal, ``signs`` the labels as +-1.
    """
    f = reference_find_mode(K, signs, gp.max_newton_iter, gp.tol)
    pi = _stable_sigmoid(f)
    sqrt_w = np.sqrt(np.maximum(pi * (1.0 - pi), 1e-12))
    return {
        "mode": f,
        "grad_at_mode": (signs + 1.0) / 2.0 - pi,
        "sqrt_w": sqrt_w,
        "chol_b": np.linalg.cholesky(reference_b_matrix(K, sqrt_w)),
    }
