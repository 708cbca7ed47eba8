"""Tests for repro.ml.gp and repro.ml.kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError
from repro.ml import GaussianProcessClassifier, RBFKernel, roc_auc_score
from repro.ml.gp import _b_matrix
from repro.ml.kernels import MaternKernel
from tests.conftest import make_blobs
from tests.oracles.gp_reference import reference_b_matrix, reference_laplace_state


class TestRBFKernel:
    def test_self_covariance_is_variance(self, rng):
        kernel = RBFKernel(lengthscale=1.0, variance=2.0)
        X = rng.normal(size=(5, 3))
        K = kernel(X)
        np.testing.assert_allclose(np.diag(K), 2.0)

    def test_symmetry(self, rng):
        kernel = RBFKernel()
        X = rng.normal(size=(6, 2))
        K = kernel(X)
        np.testing.assert_allclose(K, K.T)

    def test_decay_with_distance(self):
        kernel = RBFKernel(lengthscale=1.0)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[3.0]]))[0, 0]
        assert near > far

    def test_positive_semidefinite(self, rng):
        kernel = RBFKernel(lengthscale=0.7, variance=1.3)
        X = rng.normal(size=(20, 4))
        eigvals = np.linalg.eigvalsh(kernel(X))
        assert eigvals.min() > -1e-8

    def test_diag(self, rng):
        kernel = RBFKernel(variance=3.0)
        X = rng.normal(size=(7, 2))
        np.testing.assert_allclose(kernel.diag(X), 3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            RBFKernel()(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            RBFKernel(lengthscale=0.0)
        with pytest.raises(ConfigurationError):
            RBFKernel(variance=-1.0)


class TestMaternKernel:
    def test_psd_and_decay(self, rng):
        kernel = MaternKernel(lengthscale=1.0)
        X = rng.normal(size=(15, 3))
        eigvals = np.linalg.eigvalsh(kernel(X))
        assert eigvals.min() > -1e-8
        near = kernel(np.zeros((1, 1)), np.array([[0.1]]))[0, 0]
        far = kernel(np.zeros((1, 1)), np.array([[5.0]]))[0, 0]
        assert near > far


class TestGPClassifier:
    def test_separable_data(self, rng):
        X, y = make_blobs(rng, separation=3.0, spread=0.6)
        gp = GaussianProcessClassifier(rng=rng).fit(X, y)
        assert roc_auc_score(y, gp.predict_proba(X)) > 0.97

    def test_probabilities_in_unit_interval(self, rng):
        X, y = make_blobs(rng)
        gp = GaussianProcessClassifier(rng=rng).fit(X, y)
        p = gp.predict_proba(X)
        assert (p > 0).all() and (p < 1).all()

    def test_supports_variance_flag(self):
        assert GaussianProcessClassifier.supports_variance

    def test_variance_nonnegative(self, rng):
        X, y = make_blobs(rng)
        gp = GaussianProcessClassifier(rng=rng).fit(X, y)
        assert (gp.predict_variance(X) >= 0).all()

    def test_variance_higher_far_from_data(self, rng):
        """The core paper property: uncertainty grows away from observations."""
        X, y = make_blobs(rng, separation=2.0, spread=0.5)
        gp = GaussianProcessClassifier(rng=rng).fit(X, y)
        var_near = gp.predict_variance(X[:5]).mean()
        X_far = X[:5] + 100.0
        var_far = gp.predict_variance(X_far).mean()
        assert var_far > var_near

    def test_far_points_revert_to_uncertain_prob(self, rng):
        X, y = make_blobs(rng, separation=3.0)
        gp = GaussianProcessClassifier(rng=rng).fit(X, y)
        p_far = gp.predict_proba(np.full((1, X.shape[1]), 500.0))
        assert abs(p_far[0] - 0.5) < 0.15

    def test_max_points_subsampling(self, rng):
        X, y = make_blobs(rng, n_per_class=300)
        gp = GaussianProcessClassifier(max_points=100, rng=rng).fit(X, y)
        assert gp._X_train.shape[0] == 100
        assert roc_auc_score(y, gp.predict_proba(X)) > 0.9

    def test_custom_kernel(self, rng):
        X, y = make_blobs(rng)
        gp = GaussianProcessClassifier(
            kernel=RBFKernel(lengthscale=2.0), rng=rng
        ).fit(X, y)
        assert roc_auc_score(y, gp.predict_proba(X)) > 0.9

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            GaussianProcessClassifier().predict_proba(np.zeros((1, 2)))

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            GaussianProcessClassifier(max_points=1)

    def test_deterministic_given_seed(self, rng):
        X, y = make_blobs(rng)
        p1 = GaussianProcessClassifier(rng=np.random.default_rng(5)).fit(X, y).predict_proba(X)
        p2 = GaussianProcessClassifier(rng=np.random.default_rng(5)).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(p1, p2)

    def test_prediction_variance_weak_anticorrelation(self, rng):
        """Fig. 7: GP variance is NOT a deterministic function of the mean.

        With bagged trees the correlation between prediction and variance is
        ~0.98; for GPs it should be far from a perfect correlation.
        """
        X, y = make_blobs(rng, n_per_class=80, spread=1.5)
        gp = GaussianProcessClassifier(rng=rng).fit(X, y)
        X_test = rng.normal(0.5, 2.0, size=(150, X.shape[1]))
        p = gp.predict_proba(X_test)
        v = gp.predict_variance(X_test)
        if p.std() > 1e-9 and v.std() > 1e-9:
            corr = np.corrcoef(p, v)[0, 1]
            assert abs(corr) < 0.9


def _newton_problem(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded fit inputs for the Newton-step oracle comparison."""
    rng = np.random.default_rng(seed)
    if kind.startswith("n="):
        n = int(kind[2:])
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] + rng.normal(size=n) > 0).astype(int)
        y[0], y[-1] = 0, 1
    elif kind == "one-class-but-one":
        X = rng.normal(size=(60, 3))
        y = np.zeros(60, dtype=int)
        y[rng.integers(60)] = 1
    else:  # near-duplicate rows: the kernel is singular but for the jitter
        X = np.repeat(rng.normal(size=(12, 3)), 5, axis=0)
        X += 1e-9 * rng.normal(size=X.shape)
        y = (rng.random(60) < 0.4).astype(int)
        y[0], y[1] = 0, 1
    return X, y


class TestNewtonStepOracle:
    """The Cholesky-solve Newton step against the LU-solve one it replaced."""

    @pytest.mark.parametrize(
        "kind", ["n=2", "n=8", "n=250", "one-class-but-one", "near-duplicate"]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_laplace_state_matches_lu_reference(self, kind, seed):
        X, y = _newton_problem(kind, seed)
        gp = GaussianProcessClassifier(rng=np.random.default_rng(0)).fit(X, y)
        assert gp._X_train.shape[0] == X.shape[0]  # no subsample: same K
        K = gp._fitted_kernel(gp._X_train)
        K[np.diag_indices_from(K)] += gp.jitter
        signs = np.where(y == 1, 1.0, -1.0)
        ref = reference_laplace_state(gp, K, signs)
        got = {
            "mode": gp._find_mode(K, signs),
            "grad_at_mode": gp._grad_at_mode,
            "sqrt_w": gp._sqrt_w,
            "chol_b": gp._chol_b,
        }
        for name, expected in ref.items():
            scale = np.abs(expected).max()
            error = np.abs(got[name] - expected).max()
            assert error <= 1e-12 * scale, (kind, seed, name, error / scale)

    @pytest.mark.parametrize("n", [1, 2, 8, 250])
    def test_b_matrix_bit_identical_to_explicit_identity(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        K = RBFKernel(lengthscale=0.5)(X)
        K[np.diag_indices_from(K)] += 1e-6
        sqrt_w = np.sqrt(np.maximum(rng.random(n) * 0.25, 1e-12))
        np.testing.assert_array_equal(
            _b_matrix(K, sqrt_w).view(np.uint64),
            reference_b_matrix(K, sqrt_w).view(np.uint64),
        )
