"""Binary Gaussian-process classifier with the Laplace approximation.

The paper's key enhancement (Section IV): GP weak learners "compute a
variance value associated with each prediction based on confidence from the
training data", which downstream becomes the uncertainty score exploited by
the robust patrol planner.

This implementation follows Rasmussen & Williams (2006) Algorithms 3.1
(Newton mode finding for the latent posterior) and 3.2 (prediction), with a
logistic likelihood. :meth:`predict_variance` exposes the *latent predictive
variance* — the model-intrinsic uncertainty the paper contrasts with the
surrogate variance of bagged trees (Fig. 7).

Exact GPs are cubic in the training size; weak learners inside bagging
ensembles see small bootstraps, and a ``max_points`` cap (uniform subsample)
keeps stand-alone fits tractable, mirroring the sparse-data regime of the
real deployments.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.ml.base import Classifier
from repro.ml.calibration import _stable_sigmoid
from repro.ml.kernels import RBFKernel
from repro.ml.scaling import StandardScaler


class GaussianProcessClassifier(Classifier):
    """Laplace-approximated binary GP classifier.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to an RBF whose lengthscale is set by
        the median-distance heuristic at fit time.
    max_points:
        Cap on training points (uniform subsample beyond it). Exact GP cost
        is O(n^3); the default keeps a fit under ~50 ms.
    max_newton_iter:
        Newton iterations for the posterior mode.
    tol:
        Convergence tolerance on the mode objective.
    jitter:
        Diagonal regularisation added to the kernel matrix.
    rng:
        Randomness for the ``max_points`` subsample.
    """

    supports_variance = True

    #: A fit is a few hundred-row Cholesky factorisations that OpenBLAS
    #: already spreads over the cores; a pool of fits on top only makes the
    #: threads contend, so ``backend="auto"`` runs GP fits serially.
    fit_backend_hint = "serial"

    def __init__(
        self,
        kernel: RBFKernel | None = None,
        max_points: int = 400,
        max_newton_iter: int = 50,
        tol: float = 1e-6,
        jitter: float = 1e-6,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if max_points < 2:
            raise ConfigurationError(f"max_points must be >= 2, got {max_points}")
        self.kernel = kernel
        self.max_points = max_points
        self.max_newton_iter = max_newton_iter
        self.tol = tol
        self.jitter = jitter
        self.rng = rng or np.random.default_rng()
        self._scaler = StandardScaler()
        self._X_train: np.ndarray | None = None
        self._grad_at_mode: np.ndarray | None = None
        self._sqrt_w: np.ndarray | None = None
        self._chol_b: np.ndarray | None = None
        self._fitted_kernel: RBFKernel | None = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessClassifier":
        X, y01 = self._check_fit_input(X, y)
        if X.shape[0] > self.max_points:
            keep = self.rng.choice(X.shape[0], size=self.max_points, replace=False)
            X, y01 = X[keep], y01[keep]
        Xs = self._scaler.fit_transform(X)
        signs = np.where(y01 == 1, 1.0, -1.0)

        kernel = self.kernel or RBFKernel(
            lengthscale=self._median_heuristic(Xs), variance=1.0
        )
        K = kernel(Xs)
        K[np.diag_indices_from(K)] += self.jitter

        f = self._find_mode(K, signs)

        pi = _stable_sigmoid(f)
        w = pi * (1.0 - pi)
        sqrt_w = np.sqrt(np.maximum(w, 1e-12))
        self._chol_b = np.linalg.cholesky(_b_matrix(K, sqrt_w))
        self._grad_at_mode = (signs + 1.0) / 2.0 - pi
        self._sqrt_w = sqrt_w
        self._X_train = Xs
        self._fitted_kernel = kernel
        self._mark_fitted()
        return self

    @staticmethod
    def _median_heuristic(Xs: np.ndarray) -> float:
        """Median pairwise distance on (a subsample of) the training set."""
        n = Xs.shape[0]
        sample = Xs if n <= 200 else Xs[:: max(1, n // 200)]
        sq = np.einsum("ij,ij->i", sample, sample)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2 * sample @ sample.T, 0.0)
        upper = d2[np.triu_indices_from(d2, k=1)]
        if upper.size == 0:
            return 1.0
        median = float(np.sqrt(np.median(upper)))
        return median if median > 1e-6 else 1.0

    def _find_mode(self, K: np.ndarray, signs: np.ndarray) -> np.ndarray:
        """Newton iteration for the Laplace posterior mode (R&W Alg. 3.1).

        Each step factors ``B = I + W^1/2 K W^1/2`` once and solves with the
        factor by two O(n^2) triangular sweeps (``cho_solve``), as the
        algorithm prescribes. ``scipy.linalg`` is imported here, on the fit
        path only, so serving processes never load it.
        """
        from scipy.linalg import cho_solve

        f = np.zeros(K.shape[0])
        last_objective = -np.inf
        for _ in range(self.max_newton_iter):
            pi = _stable_sigmoid(f)
            w = np.maximum(pi * (1.0 - pi), 1e-12)
            sqrt_w = np.sqrt(w)
            L = np.linalg.cholesky(_b_matrix(K, sqrt_w))
            grad = (signs + 1.0) / 2.0 - pi
            b = w * f + grad
            rhs = sqrt_w * (K @ b)
            solved = cho_solve((L, True), rhs, check_finite=False)
            a = b - sqrt_w * solved
            f = K @ a
            # Laplace objective: log p(y|f) - 0.5 a^T f
            log_lik = -np.sum(np.logaddexp(0.0, -signs * f))
            objective = float(log_lik - 0.5 * a @ f)
            if abs(objective - last_objective) < self.tol:
                return f
            last_objective = objective
        raise ConvergenceError(
            f"GP Laplace mode finding did not converge in {self.max_newton_iter} iterations"
        )

    # ------------------------------------------------------------------
    #: Narrow inputs are zero-padded to this many rows before the BLAS calls:
    #: kernels selected for very small operand widths accumulate in a
    #: different order than the wide ones, and the tiled-serving contract
    #: (:func:`repro.runtime.parallel.predict_map`) is that the tile size
    #: never changes a bit of the output. Padding rows are computed and
    #: discarded; every real row's result depends only on its own column of
    #: the cross-kernel, so the pad cannot perturb it.
    _MIN_TILE_ROWS = 8

    def _latent_moments(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Latent predictive mean and variance (R&W Alg. 3.2), per test row.

        Transient memory is the ``(n_train, n_test)`` cross-kernel slab and
        its triangular-solve workspace; callers bound it by tiling the rows
        through :func:`repro.runtime.parallel.predict_map`.
        """
        X = self._check_predict_input(X)
        assert self._X_train is not None and self._fitted_kernel is not None
        assert self._grad_at_mode is not None and self._sqrt_w is not None
        assert self._chol_b is not None
        n = X.shape[0]
        if n < self._MIN_TILE_ROWS:
            X = np.vstack(
                [X, np.zeros((self._MIN_TILE_ROWS - n, X.shape[1]))]
            )
        Xs = self._scaler.transform(X)
        k_star = self._fitted_kernel(self._X_train, Xs)  # (n_train, n_test)
        # einsum keeps the reduction over the training rows in a fixed
        # order for every tile width, unlike the width-specialised GEMV.
        mean = np.einsum("ij,i->j", k_star, self._grad_at_mode)
        v = np.linalg.solve(self._chol_b, self._sqrt_w[:, None] * k_star)
        var = self._fitted_kernel.diag(Xs) + self.jitter - np.einsum("ij,ij->j", v, v)
        return mean[:n], np.maximum(var[:n], 0.0)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Averaged predictive probability via the probit approximation.

        ``E[sigma(f*)] ~= sigma(mean / sqrt(1 + pi * var / 8))`` (MacKay 1992)
        integrates the logistic over the latent Gaussian.
        """
        mean, var = self._latent_moments(X)
        kappa = 1.0 / np.sqrt(1.0 + np.pi * var / 8.0)
        return _stable_sigmoid(kappa * mean)

    def predict_variance(self, X: np.ndarray) -> np.ndarray:
        """Latent predictive variance — the paper's uncertainty metric."""
        __, var = self._latent_moments(X)
        return var

    def prediction_stats(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probability and variance from a single latent-moments pass.

        Separate ``predict_proba`` / ``predict_variance`` calls each solve
        the (n_train × n_test) triangular system; serving paths that need
        both should use this instead.
        """
        mean, var = self._latent_moments(X)
        kappa = 1.0 / np.sqrt(1.0 + np.pi * var / 8.0)
        return _stable_sigmoid(kappa * mean), var

    # ------------------------------------------------------------------
    def to_manifest(self, store, prefix: str) -> dict:
        from repro.exceptions import NotFittedError
        from repro.runtime.persistence import encode_kernel, encode_standard_scaler

        if self._X_train is None or self._fitted_kernel is None:
            raise NotFittedError(
                "cannot persist an unfitted GaussianProcessClassifier"
            )
        assert self._grad_at_mode is not None and self._sqrt_w is not None
        assert self._chol_b is not None
        return {
            "type": "GaussianProcessClassifier",
            "config": {
                "max_points": self.max_points,
                "max_newton_iter": self.max_newton_iter,
                "tol": self.tol,
                "jitter": self.jitter,
            },
            "n_features": self._n_features,
            "kernel": encode_kernel(self._fitted_kernel),
            "kernel_was_explicit": self.kernel is not None,
            "scaler": encode_standard_scaler(self._scaler, store, prefix),
            "arrays": {
                "X_train": store.put(f"{prefix}/X_train", self._X_train),
                "grad_at_mode": store.put(
                    f"{prefix}/grad_at_mode", self._grad_at_mode
                ),
                "sqrt_w": store.put(f"{prefix}/sqrt_w", self._sqrt_w),
                "chol_b": store.put(f"{prefix}/chol_b", self._chol_b),
            },
        }

    @classmethod
    def from_manifest(cls, node: dict, arrays: dict) -> "GaussianProcessClassifier":
        from repro.runtime.persistence import (
            decode_kernel,
            decode_standard_scaler,
            get_array,
        )

        kernel = decode_kernel(node["kernel"])
        model = cls(
            kernel=kernel if node["kernel_was_explicit"] else None,
            **node["config"],
        )
        refs = node["arrays"]
        model._X_train = get_array(arrays, refs["X_train"]).astype(float)
        model._grad_at_mode = get_array(arrays, refs["grad_at_mode"]).astype(float)
        model._sqrt_w = get_array(arrays, refs["sqrt_w"]).astype(float)
        model._chol_b = get_array(arrays, refs["chol_b"]).astype(float)
        model._fitted_kernel = kernel
        model._scaler = decode_standard_scaler(node["scaler"], arrays)
        model._n_features = node["n_features"]
        model._mark_fitted()
        return model


def _b_matrix(K: np.ndarray, sqrt_w: np.ndarray) -> np.ndarray:
    """``B = I + W^1/2 K W^1/2`` (R&W Alg. 3.1), built in one fresh array.

    Bit for bit ``np.eye(n) + sqrt_w[:, None] * K * sqrt_w[None, :]``
    without the identity and its temporary: the products run in the same
    order, ``x + 1.0`` equals ``1.0 + x`` on the diagonal, and off it
    ``0.0 + x`` is ``x`` for every ``x`` but ``-0.0``, which the package's
    non-negative kernels (RBF, Matern) never yield.
    """
    B = sqrt_w[:, None] * K
    B *= sqrt_w[None, :]
    B[np.diag_indices_from(B)] += 1.0
    return B
