"""Shared classifier interface.

Every model in :mod:`repro.ml` is a binary probabilistic classifier with the
same contract: ``fit(X, y)`` with ``y`` in {0, 1}, ``predict_proba(X)``
returning the probability of the positive class, and (for models that can)
``predict_variance(X)`` returning a per-point uncertainty score. The iWare-E
ensemble in :mod:`repro.core` composes models only through this interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import DataError, NotFittedError


def check_binary_labels(y: np.ndarray) -> np.ndarray:
    """Validate and coerce a {0, 1} label vector.

    Raises
    ------
    DataError
        If labels are not a 1-D array with values in {0, 1}, or contain only
        one class (a classifier cannot be fit without both classes).
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise DataError(f"labels must be 1-D, got shape {y.shape}")
    values = np.unique(y)
    if not np.isin(values, (0, 1)).all():
        raise DataError(f"labels must be in {{0, 1}}, got values {values}")
    return y.astype(np.int64)


def check_features(X: np.ndarray) -> np.ndarray:
    """Validate a 2-D finite feature matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"features must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("feature matrix contains non-finite values")
    return X


class DeferredFit:
    """Phase 2 of a two-phase fit: a picklable "fit this model now" task.

    Instances are zero-argument callables returned by
    :meth:`Classifier.fit_deferred`. Because they are plain objects (not
    closures) they can cross a process boundary whenever the model itself
    pickles, which is what lets :func:`repro.runtime.parallel.run_deferred`
    fan pure-Python fits out to a process pool. The ``backend_hint``
    attribute advertises which pool the fit profits from.
    """

    def __init__(self, model: "Classifier", X: np.ndarray, y: np.ndarray):
        self.model = model
        self.X = X
        self.y = y

    @property
    def backend_hint(self) -> str:
        return self.model.fit_backend_hint

    def __call__(self) -> "Classifier":
        return self.model.fit(self.X, self.y)


class PrefittedTask:
    """A phase-2 task whose model is already fitted (degenerate fallback).

    A no-op task has no GIL-bound work, so it abstains from the backend
    vote (``"any"``) rather than dragging a tree/SVM fan-out back to
    threads.
    """

    backend_hint = "any"

    def __init__(self, model: "Classifier"):
        self.model = model

    def __call__(self) -> "Classifier":
        return self.model


class Classifier(ABC):
    """Abstract binary probabilistic classifier."""

    #: Whether :meth:`predict_variance` returns a model-intrinsic uncertainty
    #: (Gaussian processes) rather than a surrogate or nothing.
    supports_variance: bool = False

    #: Which pool backend a fit of this model profits from: ``"thread"`` for
    #: models whose heavy lifting releases the GIL in native code that does
    #: not thread itself, ``"process"`` for pure-Python/numpy-dispatch work
    #: (tree growth, SGD epochs) that threads would serialise, ``"serial"``
    #: for fits that keep every core busy on their own (GP Cholesky
    #: factorisations on the threaded BLAS), where a pool only contends.
    fit_backend_hint: str = "thread"

    #: Same vote for the *prediction* fan-out (:func:`repro.runtime.parallel.
    #: predict_map`). Most predictors reduce to BLAS/ufunc sweeps that
    #: release the GIL, so the default is ``"thread"``; per-level tree
    #: traversal overrides with ``"process"``.
    predict_backend_hint: str = "thread"

    def __init__(self) -> None:
        self._fitted = False
        self._n_features: int | None = None

    # ------------------------------------------------------------------
    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Fit on features ``X`` (n, k) and labels ``y`` in {0, 1}."""

    def fit_deferred(self, X: np.ndarray, y: np.ndarray):
        """Split a fit into draw-shared-randomness-now / heavy-work-later.

        Returns a zero-argument callable task that completes the fit and
        returns the fitted model. Ensembles that fan member fits out to a
        pool call this serially first, so every draw from a generator shared
        between models (e.g. a factory's master seed stream) happens in the
        same order as a fully serial fit — which is what makes parallel
        fitting bit-identical to serial. The default defers everything:
        models whose randomness is entirely their own need no split. The
        returned :class:`DeferredFit` is picklable whenever the model is, so
        it can run in a process pool.
        """
        return DeferredFit(self, X, y)

    @abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row of ``X``."""

    def predict_variance(self, X: np.ndarray) -> np.ndarray:
        """Per-point uncertainty score; zero unless a subclass overrides."""
        X = self._check_predict_input(X)
        return np.zeros(X.shape[0])

    def prediction_stats(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(probability, variance)`` for each row, in one model pass.

        By default ``(predict_proba(X), predict_variance(X))``; models whose
        probability and variance share expensive intermediates (GP latent
        moments, bagging member sweeps) override this to compute both from
        a single pass. Every prediction the package serves is built on it
        (:func:`repro.runtime.parallel.predict_map`).
        """
        return self.predict_proba(X), self.predict_variance(X)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard {0, 1} predictions at a probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(np.int64)

    # ------------------------------------------------------------------
    # Persistence (npz + json manifest; see repro.runtime.persistence)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist this fitted model to a directory."""
        from repro.runtime.persistence import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path, verify: bool = True) -> "Classifier":
        """Load a model of this type saved by :meth:`save`.

        ``verify`` controls checksum verification of the saved arrays (see
        :func:`repro.runtime.persistence.load_model`); on by default.
        """
        from repro.runtime.persistence import load_model

        return load_model(path, expected_type=cls, verify=verify)

    def to_manifest(self, store, prefix: str) -> dict:
        """Manifest node for this model; subclasses must override to persist."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence"
        )

    @classmethod
    def from_manifest(cls, node: dict, arrays: dict) -> "Classifier":
        """Rebuild a model from its manifest node; overridden with save support."""
        raise NotImplementedError(f"{cls.__name__} does not support persistence")

    # ------------------------------------------------------------------
    # Fit-state plumbing shared by subclasses
    # ------------------------------------------------------------------
    def _check_fit_input(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = check_features(X)
        y = check_binary_labels(y)
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        if X.shape[0] == 0:
            raise DataError("cannot fit on an empty dataset")
        self._n_features = X.shape[1]
        return X, y

    def _mark_fitted(self) -> None:
        self._fitted = True

    def _check_predict_input(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        X = check_features(X)
        if self._n_features is not None and X.shape[1] != self._n_features:
            raise DataError(
                f"model was fit with {self._n_features} features, "
                f"got {X.shape[1]}"
            )
        return X


class ConstantClassifier(Classifier):
    """Predicts a constant probability; the degenerate one-class fallback.

    When an effort-threshold filter leaves a training subset with a single
    class (common at extreme imbalance), ensembles fall back to this model so
    the pipeline never crashes on real-world-shaped data.
    """

    #: Fitting (or serving) a constant is trivial — abstain from the backend
    #: votes so a single-class fallback does not drag a tree ensemble's
    #: fan-out back to threads.
    fit_backend_hint = "any"
    predict_backend_hint = "any"

    def __init__(self, probability: float = 0.5):
        super().__init__()
        self.probability = float(probability)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ConstantClassifier":
        X = check_features(X)
        y = np.asarray(y)
        if y.size:
            self.probability = float(np.mean(y))
        self._n_features = X.shape[1]
        self._mark_fitted()
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_input(X)
        return np.full(X.shape[0], self.probability)

    def to_manifest(self, store, prefix: str) -> dict:
        if not self._fitted:
            raise NotFittedError("cannot persist an unfitted ConstantClassifier")
        return {
            "type": "ConstantClassifier",
            "probability": self.probability,
            "n_features": self._n_features,
        }

    @classmethod
    def from_manifest(cls, node: dict, arrays: dict) -> "ConstantClassifier":
        model = cls(probability=node["probability"])
        model._n_features = node["n_features"]
        model._mark_fitted()
        return model
