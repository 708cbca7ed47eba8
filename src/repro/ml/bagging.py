"""Bagging and balanced bagging ensembles.

Bagging ensembles of SVMs / decision trees / GPs are the paper's weak
learners (Section IV). For SWS's 0.36% positive rate, the paper switches to
*balanced* bagging — undersampling the negative class per bootstrap
(imbalanced-learn's BalancedBaggingClassifier) — which "improved our AUC by
15% on average" (Section V-A). Both variants are implemented here.

The ensemble also records per-estimator in-bag counts so the infinitesimal
jackknife (:mod:`repro.ml.jackknife`) can compute random-forest confidence
intervals for the Fig. 7 comparison.

Fitting is optionally parallel (``n_jobs`` workers on a ``backend`` pool):
bootstrap indices and member construction still run serially, so every draw
from the shared generator happens in the same order as a serial fit, and only
the independent member ``fit`` calls fan out — results are bit-identical
either way (see :mod:`repro.runtime.parallel`). The phase-2 task object
(:class:`_MemberFits`) carries no factory closure, so whole deferred fits can
cross a process boundary: pure-Python weak learners (trees, SVMs) scale with
cores instead of serialising behind the GIL.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.ml.base import Classifier, ConstantClassifier


def _unavailable_factory() -> Classifier:
    """Placeholder base factory installed on models loaded from disk."""
    raise ConfigurationError(
        "this bagging ensemble was loaded from disk and cannot be refit: "
        "weak-learner factories are not persisted (construct a fresh model "
        "to retrain)"
    )


def _fit_member(
    task: tuple[Classifier, np.ndarray | None, np.ndarray | None]
) -> Classifier:
    """Fit one bootstrap member (module-level so process pools can map it)."""
    member, Xb, yb = task
    return member if Xb is None else member.fit(Xb, yb)


class _MemberFits:
    """Picklable phase-2 task of a bagging fit.

    Holds the pre-drawn bootstrap tasks and the in-bag matrix; calling it
    fits every member (optionally through a nested pool) and returns the
    fitted ensemble. The ensemble reference survives pickling because
    :class:`BaggingClassifier` drops its factory closure from the pickle
    state — by phase 2 all members are already constructed, so the factory
    is no longer needed.
    """

    def __init__(
        self,
        ensemble: "BaggingClassifier",
        tasks: list[tuple[Classifier, np.ndarray | None, np.ndarray | None]],
        inbag: np.ndarray,
    ):
        self.ensemble = ensemble
        self.tasks = tasks
        self.inbag = inbag

    @property
    def backend_hint(self) -> str:
        from repro.runtime.parallel import vote_backend

        return vote_backend(
            [member.fit_backend_hint for member, __, __ in self.tasks]
        )

    def __call__(self) -> "BaggingClassifier":
        import pickle

        from repro.runtime.parallel import parallel_map

        ensemble = self.ensemble
        auto = ensemble.backend == "auto"
        n_jobs, backend = ensemble.n_jobs, ensemble.backend
        if auto:
            hint = self.backend_hint
            backend = "process" if hint == "process" else "thread"
            if hint == "serial":
                n_jobs = 1  # one worker: the members' BLAS has the cores
        try:
            members = parallel_map(
                _fit_member, self.tasks, n_jobs=n_jobs, backend=backend,
            )
        except (pickle.PicklingError, AttributeError, TypeError):
            if not (auto and backend == "process"):
                raise
            # Auto mode's contract: members that turn out not to pickle
            # (e.g. locally defined classes) fall back to the thread pool
            # instead of erroring. Member fits are pure, so re-running is
            # safe.
            members = parallel_map(
                _fit_member, self.tasks, n_jobs=ensemble.n_jobs,
                backend="thread",
            )
        ensemble.estimators_ = members
        ensemble.inbag_counts_ = self.inbag
        ensemble._mark_fitted()
        return ensemble


class BaggingClassifier(Classifier):
    """Bootstrap-aggregated ensemble of probabilistic classifiers.

    Parameters
    ----------
    base_factory:
        Zero-argument callable producing a fresh unfit base classifier. A
        factory (not a prototype) sidesteps any cloning machinery.
    n_estimators:
        Number of bootstrap members.
    max_samples:
        Bootstrap size as a fraction of the training set (0, 1].
    rng:
        Randomness for bootstrap sampling.
    n_jobs:
        Pool workers for member fitting (1 = serial, -1 = all cores).
        Parallel fits are bit-identical to serial ones.
    backend:
        Pool flavour for the member fits: ``"thread"``, ``"process"``, or
        ``"auto"`` (process iff every member's ``fit_backend_hint`` asks
        for it, one worker iff every member asks for ``"serial"`` as GPs
        do, threads otherwise). See :mod:`repro.runtime.parallel`.
    """

    def __init__(
        self,
        base_factory: Callable[[], Classifier],
        n_estimators: int = 10,
        max_samples: float = 1.0,
        rng: np.random.Generator | None = None,
        n_jobs: int = 1,
        backend: str = "auto",
    ):
        super().__init__()
        from repro.runtime.parallel import check_backend

        if n_estimators < 1:
            raise ConfigurationError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < max_samples <= 1.0:
            raise ConfigurationError(f"max_samples must be in (0, 1], got {max_samples}")
        self.base_factory = base_factory
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.rng = rng or np.random.default_rng()
        self.n_jobs = n_jobs
        self.backend = check_backend(backend)
        self.estimators_: list[Classifier] = []
        #: (n_estimators, n_train) in-bag multiplicity matrix for jackknife.
        self.inbag_counts_: np.ndarray | None = None

    def __getstate__(self) -> dict:
        # Factory closures cannot cross a process boundary; by the time a
        # bagging ensemble travels (phase-2 fit tasks, fitted results coming
        # back) its members are already constructed, so an unpicklable
        # factory is replaced by the explanatory placeholder. Picklable
        # factories (module-level functions) are preserved, so ordinary
        # pickling/deepcopy of a refittable ensemble keeps working.
        import pickle

        state = self.__dict__.copy()
        try:
            pickle.dumps(state["base_factory"])
        except Exception:
            state["base_factory"] = _unavailable_factory
        return state

    # ------------------------------------------------------------------
    def _bootstrap_indices(self, y: np.ndarray) -> np.ndarray:
        n = y.size
        size = max(1, int(round(self.max_samples * n)))
        return self.rng.integers(0, n, size=size)

    def fit_deferred(self, X: np.ndarray, y: np.ndarray):
        """Phase 1 now (all shared-generator draws), phase 2 in the task.

        Bootstrap indices come from this ensemble's generator and member
        construction typically draws child seeds from a factory's *master*
        generator, so both happen here, serially, in the exact order of a
        serial fit. The returned :class:`_MemberFits` task only runs the
        independent member fits (optionally pooled) — parallel results are
        bit-identical — and is picklable, so an outer ensemble may run it in
        a worker process.
        """
        X, y = self._check_fit_input(X, y)
        n = y.size
        inbag = np.zeros((self.n_estimators, n), dtype=np.int64)
        tasks: list[tuple[Classifier, np.ndarray | None, np.ndarray | None]] = []
        for b in range(self.n_estimators):
            idx = self._bootstrap_indices(y)
            np.add.at(inbag[b], idx, 1)
            Xb, yb = X[idx], y[idx]
            if yb.min() == yb.max():
                # Single-class bootstrap: fall back to a constant model so
                # the ensemble survives extreme imbalance.
                tasks.append((ConstantClassifier().fit(Xb, yb), None, None))
            else:
                tasks.append((self.base_factory(), Xb, yb))
        return _MemberFits(self, tasks, inbag)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaggingClassifier":
        return self.fit_deferred(X, y)()

    # ------------------------------------------------------------------
    @property
    def predict_backend_hint(self) -> str:
        """Serving-pool vote: what this ensemble's members predict like.

        A DTB ensemble is GIL-bound per-level tree traversal all the way
        down (``"process"``); a GPB ensemble is BLAS solves (``"thread"``).
        The same vote as the phase-2 fit's, over the members' predict
        hints, so ``backend="auto"`` serving fan-outs route whole ensembles
        by what their members serve like.
        """
        from repro.runtime.parallel import vote_backend

        if not self.estimators_:
            return "thread"
        return vote_backend(
            [getattr(m, "predict_backend_hint", "thread") for m in self.estimators_]
        )

    def member_probabilities(self, X: np.ndarray) -> np.ndarray:
        """``(n_estimators, n_samples)`` probabilities of each member."""
        X = self._check_predict_input(X)
        if not self.estimators_:
            raise NotFittedError("bagging ensemble has no members")
        return np.stack([m.predict_proba(X) for m in self.estimators_])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.member_probabilities(X).mean(axis=0)

    def predict_variance(self, X: np.ndarray) -> np.ndarray:
        """Between-member variance of the predicted probabilities.

        The paper's Fig. 7 uses this heuristic ("the variance between
        predictions made by the bagged learners") and shows it is nearly a
        deterministic function of the prediction itself — i.e. a poor
        uncertainty signal. The serving path reads :meth:`prediction_stats`
        instead, which averages the members' intrinsic (GP) variances when
        they have them.
        """
        return self.member_probabilities(X).var(axis=0)

    def prediction_stats(
        self,
        X: np.ndarray,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean probability and member variance, visiting each member once.

        The variance is the mean of the members' intrinsic variances when at
        least one member reports one (``supports_variance``: GP weak
        learners), and the between-member variance of the probabilities
        otherwise. ``tile_size`` / ``n_jobs`` / ``backend`` fan the
        ``(member x tile)`` sweep out through
        :func:`repro.runtime.parallel.predict_map` — tiled and parallel
        results are bit-identical to the serial defaults, and per-member
        transient memory stays ``O(n_train x tile_size)``.
        """
        from repro.runtime.parallel import predict_map

        X = self._check_predict_input(X)
        if not self.estimators_:
            raise NotFittedError("bagging ensemble has no members")
        stats = predict_map(
            self.estimators_, X,
            tile_size=tile_size, n_jobs=n_jobs, backend=backend,
        )
        member_probs = np.stack([p for p, __ in stats])
        mean = member_probs.mean(axis=0)
        intrinsic = [
            v for (__, v), m in zip(stats, self.estimators_) if m.supports_variance
        ]
        if intrinsic:
            return mean, np.stack(intrinsic).mean(axis=0)
        return mean, member_probs.var(axis=0)

    # ------------------------------------------------------------------
    def _config_manifest(self) -> dict:
        return {
            "n_estimators": self.n_estimators,
            "max_samples": self.max_samples,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
        }

    def to_manifest(self, store, prefix: str) -> dict:
        if not self.estimators_:
            raise NotFittedError(f"cannot persist an unfitted {type(self).__name__}")
        assert self.inbag_counts_ is not None
        return {
            "type": type(self).__name__,
            "config": self._config_manifest(),
            "n_features": self._n_features,
            "estimators": [
                member.to_manifest(store, f"{prefix}/estimators/{i}")
                for i, member in enumerate(self.estimators_)
            ],
            "arrays": {
                "inbag_counts": store.put(
                    f"{prefix}/inbag_counts", self.inbag_counts_
                )
            },
        }

    @classmethod
    def from_manifest(cls, node: dict, arrays: dict) -> "BaggingClassifier":
        from repro.runtime.persistence import decode_node, get_array

        model = cls(_unavailable_factory, **node["config"])
        model.estimators_ = [
            decode_node(child, arrays) for child in node["estimators"]
        ]
        model.inbag_counts_ = get_array(
            arrays, node["arrays"]["inbag_counts"]
        ).astype(np.int64)
        model._n_features = node["n_features"]
        model._mark_fitted()
        return model


class BalancedBaggingClassifier(BaggingClassifier):
    """Bagging with random undersampling of the negative class.

    Each bootstrap draws *all-but-balanced* samples: positives are resampled
    with replacement, negatives are undersampled to ``ratio`` times the
    positive count. The paper prefers undersampling to oversampling "because
    the positive labels are inherently noisy" (Section V-A).

    Parameters
    ----------
    ratio:
        Negative-to-positive ratio per bootstrap; 1.0 is fully balanced.
    """

    def __init__(
        self,
        base_factory: Callable[[], Classifier],
        n_estimators: int = 10,
        ratio: float = 1.0,
        rng: np.random.Generator | None = None,
        n_jobs: int = 1,
        backend: str = "auto",
    ):
        super().__init__(base_factory, n_estimators=n_estimators, rng=rng,
                         n_jobs=n_jobs, backend=backend)
        if ratio <= 0:
            raise ConfigurationError(f"ratio must be positive, got {ratio}")
        self.ratio = ratio

    def fit_deferred(self, X: np.ndarray, y: np.ndarray):
        y_checked = np.asarray(y)
        if y_checked.size and y_checked.sum() == 0:
            raise DataError("balanced bagging requires at least one positive label")
        return super().fit_deferred(X, y)

    def _bootstrap_indices(self, y: np.ndarray) -> np.ndarray:
        pos = np.nonzero(y == 1)[0]
        neg = np.nonzero(y == 0)[0]
        n_pos = pos.size
        n_neg_draw = max(1, int(round(self.ratio * n_pos)))
        pos_draw = self.rng.choice(pos, size=n_pos, replace=True)
        if neg.size == 0:
            return pos_draw
        neg_draw = self.rng.choice(neg, size=n_neg_draw, replace=neg.size < n_neg_draw)
        return np.concatenate([pos_draw, neg_draw])

    def _config_manifest(self) -> dict:
        config = super()._config_manifest()
        # The balanced variant has no max_samples knob (bootstrap size is
        # set by the positive count and ratio instead).
        del config["max_samples"]
        config["ratio"] = self.ratio
        return config
