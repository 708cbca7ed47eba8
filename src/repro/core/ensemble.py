"""The iWare-E ensemble with the paper's enhancements.

An :class:`IWareEnsemble` holds one weak learner per patrol-effort threshold,
each trained on the filtered subset ``D_{theta_i^-}`` (all positives +
reliable negatives). Prediction mixes the weak learners either with

* ``weighting="optimal"`` — the paper's enhancement: weights learned by
  5-fold CV log-loss minimisation, every classifier predicting everywhere; or
* ``weighting="qualified"`` — the original iWare-E rule: uniform weights over
  the classifiers *qualified* for a point's patrol effort
  (``theta_i <= effort``).

Effort-conditional prediction (needed by the planner, and by Fig. 6's
risk-vs-effort maps) restricts the mixture to the classifiers qualified at a
hypothetical effort level ``c`` and renormalises, so ``g_v(c)`` grows as
higher-threshold classifiers join the vote.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.filtering import filter_by_effort_threshold
from repro.core.thresholds import equal_spaced_thresholds, percentile_thresholds
from repro.core.weights import optimize_ensemble_weights
from repro.data.dataset import PoachingDataset
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.ml.base import Classifier, ConstantClassifier


class IWareEnsemble:
    """Imperfect-observation-aware ensemble over effort thresholds.

    Parameters
    ----------
    weak_learner_factory:
        Zero-argument callable returning a fresh unfit weak learner
        (typically a bagging ensemble, per the paper).
    n_classifiers:
        Requested number of thresholds I (20 for MFNP/QENP, 10 for SWS in
        the paper). Duplicated percentile thresholds are collapsed.
    threshold_scheme:
        ``"percentile"`` (the enhancement) or ``"equal"`` (original iWare-E,
        kept for ablations; uses ``theta_range``).
    theta_range:
        (theta_min, theta_max) for the equal-spacing scheme.
    weighting:
        ``"optimal"`` or ``"qualified"`` (see module docstring).
    cv_folds:
        Folds for the weight-learning cross-validation.
    rng:
        Randomness for CV shuffling.
    n_jobs:
        Pool workers for fitting the per-threshold classifiers (1 =
        serial, -1 = all cores). Child seeds are drawn serially before the
        fan-out, so parallel fits are bit-identical to serial ones.
    backend:
        Pool flavour for the fan-out: ``"thread"``, ``"process"``, or
        ``"auto"`` (process pool iff every deferred fit advertises
        GIL-bound work — e.g. DTB trees; GP weak learners fit serially,
        their BLAS already using every core).
    """

    def __init__(
        self,
        weak_learner_factory: Callable[[], Classifier],
        n_classifiers: int = 10,
        threshold_scheme: str = "percentile",
        theta_range: tuple[float, float] = (0.0, 7.5),
        weighting: str = "optimal",
        cv_folds: int = 5,
        rng: np.random.Generator | None = None,
        n_jobs: int = 1,
        backend: str = "auto",
    ):
        from repro.runtime.parallel import check_backend

        if threshold_scheme not in ("percentile", "equal"):
            raise ConfigurationError(f"unknown threshold scheme '{threshold_scheme}'")
        if weighting not in ("optimal", "qualified"):
            raise ConfigurationError(f"unknown weighting '{weighting}'")
        if n_classifiers < 1:
            raise ConfigurationError(f"n_classifiers must be >= 1, got {n_classifiers}")
        if cv_folds < 2:
            raise ConfigurationError(f"cv_folds must be >= 2, got {cv_folds}")
        self.weak_learner_factory = weak_learner_factory
        self.n_classifiers = n_classifiers
        self.threshold_scheme = threshold_scheme
        self.theta_range = theta_range
        self.weighting = weighting
        self.cv_folds = cv_folds
        self.rng = rng or np.random.default_rng()
        self.n_jobs = n_jobs
        self.backend = check_backend(backend)
        self.thresholds_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None
        self.classifiers_: list[Classifier] = []
        #: Positive rate of each classifier's filtered training subset and of
        #: the full training data — used for prior correction at mix time.
        self.subset_positive_rates_: np.ndarray | None = None
        self.full_positive_rate_: float | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, dataset: PoachingDataset) -> "IWareEnsemble":
        """Fit the threshold ensemble (and, if configured, its weights)."""
        if dataset.n_points == 0:
            raise DataError("cannot fit on an empty dataset")
        self.thresholds_ = self._compute_thresholds(dataset)
        self.full_positive_rate_ = dataset.positive_rate
        self.subset_positive_rates_ = np.array(
            [
                filter_by_effort_threshold(dataset, float(t)).positive_rate
                for t in self.thresholds_
            ]
        )
        if self.weighting == "optimal" and len(self.thresholds_) > 1:
            self.weights_ = self._learn_weights(dataset)
        else:
            self.weights_ = np.full(
                len(self.thresholds_), 1.0 / len(self.thresholds_)
            )
        self.classifiers_ = self._fit_classifiers(dataset)
        return self

    def _compute_thresholds(self, dataset: PoachingDataset) -> np.ndarray:
        if self.threshold_scheme == "percentile":
            return percentile_thresholds(dataset.current_effort, self.n_classifiers)
        return equal_spaced_thresholds(
            self.theta_range[0], self.theta_range[1], self.n_classifiers
        )

    def _fit_classifiers(self, dataset: PoachingDataset) -> list[Classifier]:
        from repro.ml.base import PrefittedTask
        from repro.runtime.parallel import run_deferred

        assert self.thresholds_ is not None
        # Phase 1 (serial): filter each subset, construct each weak learner,
        # and let it consume every shared-generator draw it needs (child
        # seeds for its own members, bootstrap indices) via fit_deferred —
        # in exactly the order a serial fit would.
        tasks: list[Callable[[], Classifier]] = []
        for theta in self.thresholds_:
            subset = filter_by_effort_threshold(dataset, float(theta))
            X = subset.feature_matrix
            y = subset.labels
            if subset.n_points == 0 or y.min() == y.max():
                fallback = ConstantClassifier().fit(
                    X if subset.n_points else dataset.feature_matrix[:1], y
                )
                tasks.append(PrefittedTask(fallback))
            else:
                tasks.append(self.weak_learner_factory().fit_deferred(X, y))
        # Phase 2 (parallel): the deferred fits only touch per-task state, so
        # they can fan out to threads or worker processes interchangeably.
        return run_deferred(tasks, n_jobs=self.n_jobs, backend=self.backend)

    #: Minimum positive labels for CV weight learning to be trustworthy;
    #: below this the optimiser chases fold noise (it can put all weight on
    #: a classifier whose good fold log-loss is an artefact of having ~2
    #: positives per fold), so the ensemble falls back to uniform weights.
    MIN_POSITIVES_FOR_WEIGHTS = 25

    def _learn_weights(self, dataset: PoachingDataset) -> np.ndarray:
        """CV log-loss weight learning (the paper's first enhancement)."""
        from repro.ml.model_selection import StratifiedKFold

        assert self.thresholds_ is not None
        n_thresholds = len(self.thresholds_)
        if int(dataset.labels.sum()) < self.MIN_POSITIVES_FOR_WEIGHTS:
            return np.full(n_thresholds, 1.0 / n_thresholds)
        folds = StratifiedKFold(
            n_splits=min(self.cv_folds, max(2, int(dataset.labels.sum()) or 2)),
            rng=self.rng,
        )
        all_probs: list[np.ndarray] = []
        all_labels: list[np.ndarray] = []
        try:
            splits = list(folds.split(dataset.labels))
        except DataError:
            return np.full(n_thresholds, 1.0 / n_thresholds)
        for train_idx, val_idx in splits:
            train_mask = np.zeros(dataset.n_points, dtype=bool)
            train_mask[train_idx] = True
            fold_train = dataset.subset(train_mask)
            fold_val_X = dataset.feature_matrix[val_idx]
            fold_val_y = dataset.labels[val_idx]
            if fold_train.labels.sum() == 0 or fold_val_y.size == 0:
                continue
            classifiers = self._fit_classifiers(fold_train)
            probs = np.stack([c.predict_proba(fold_val_X) for c in classifiers])
            # Correct each classifier's calibration to the fold's base rate so
            # the log-loss objective weighs discrimination, not the different
            # priors the effort filters induce.
            fold_rates = np.array(
                [
                    filter_by_effort_threshold(fold_train, float(t)).positive_rate
                    for t in self.thresholds_
                ]
            )
            probs = _prior_correct(probs, fold_rates, fold_train.positive_rate)
            all_probs.append(probs)
            all_labels.append(fold_val_y)
        if not all_probs:
            return np.full(n_thresholds, 1.0 / n_thresholds)
        stacked_probs = np.concatenate(all_probs, axis=1)
        stacked_labels = np.concatenate(all_labels)
        if stacked_labels.min() == stacked_labels.max():
            return np.full(n_thresholds, 1.0 / n_thresholds)
        return optimize_ensemble_weights(stacked_probs, stacked_labels)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.thresholds_ is None or not self.classifiers_:
            raise NotFittedError("IWareEnsemble is not fitted")

    def member_probabilities(
        self,
        X: np.ndarray,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> np.ndarray:
        """``(I, n)`` raw probabilities: the first half of :meth:`member_statistics`."""
        return self.member_statistics(
            X, tile_size=tile_size, n_jobs=n_jobs, backend=backend
        )[0]

    def member_statistics(
        self,
        X: np.ndarray,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(I, n)`` member probabilities and variances from one model pass.

        Each threshold classifier is visited once, through its
        ``prediction_stats``: bagged GP members solve their latent moments a
        single time, and bagging weak learners report their members'
        intrinsic (GP) variance when available, the between-member variance
        otherwise. This is the workhorse of every prediction: test rows
        stream through in ``tile_size``-row tiles (bounding transient memory
        at ``O(n_train x tile)`` per task) and the ``(member x tile)`` tasks
        fan out over ``n_jobs`` workers, with the same hint-based
        ``backend`` auto selection — and the same bit-identity guarantee —
        as the fitting fan-out.
        """
        from repro.runtime.parallel import predict_map

        self._check_fitted()
        stats = predict_map(
            self.classifiers_, X,
            tile_size=tile_size, n_jobs=n_jobs, backend=backend,
        )
        probs = np.stack([p for p, __ in stats])
        variances = np.stack([v for __, v in stats])
        return probs, variances

    def mix_grid(
        self, probs: np.ndarray, variances: np.ndarray, effort_grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Risk and raw variance surfaces over a whole effort grid at once.

        Member predictions do not depend on the hypothesised effort — effort
        only selects which members are *qualified* to vote — so one
        :meth:`member_statistics` pass serves the whole grid, and the
        per-level mixtures collapse to two ``(n, I) @ (I, L)`` products.

        Returns
        -------
        (risk, raw_variance):
            Two ``(n, len(effort_grid))`` arrays matching per-level
            :meth:`mix` calls to within floating-point reduction order.
        """
        assert self.weights_ is not None and self.thresholds_ is not None
        effort_grid = np.asarray(effort_grid, dtype=float)
        # (I, L) qualification per effort level — the same rule the
        # per-level path applies per point, evaluated once per grid level.
        weighted, denom = self._mix_weights(
            self._qualification(effort_grid, effort_grid.size)
        )
        risk = probs.T @ weighted / denom
        raw_var = variances.T @ weighted / denom
        return risk, raw_var

    def _qualification(self, effort: np.ndarray | float | None, n: int) -> np.ndarray:
        """``(I, n)`` boolean mask of classifiers qualified per point.

        A classifier with threshold theta_i is qualified for points whose
        (actual or hypothesised) patrol effort is at least theta_i. The
        zero-threshold classifier is always qualified, so the mask never has
        an empty column. Where every qualified classifier has weight 0 (the
        learned weights can zero out the low thresholds), the mix falls back
        to uniform weights over the qualified ones — the original iWare-E
        rule — rather than mixing to 0 (see :meth:`_mix_weights`).
        """
        assert self.thresholds_ is not None
        if effort is None:
            return np.ones((len(self.thresholds_), n), dtype=bool)
        effort_arr = np.broadcast_to(np.asarray(effort, dtype=float), (n,))
        mask = self.thresholds_[:, None] <= effort_arr[None, :]
        mask[0, :] = True
        return mask

    def _mix_weights(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unnormalised ``(I, n)`` mixing weights and their column sums.

        Each column holds the learned weights of the classifiers qualified
        there; a column whose qualified weights are all 0 takes weight 1 on
        each qualified classifier instead, so it mixes to their plain
        average.
        """
        assert self.weights_ is not None
        weighted = self.weights_[:, None] * mask
        denom = weighted.sum(axis=0)
        unweighted = denom <= 0
        if unweighted.any():
            weighted[:, unweighted] = mask[:, unweighted]
            denom[unweighted] = mask[:, unweighted].sum(axis=0)
        return weighted, denom

    def _mix(
        self, probs: np.ndarray, effort: np.ndarray | float | None
    ) -> np.ndarray:
        weighted, denom = self._mix_weights(
            self._qualification(effort, probs.shape[1])
        )
        return (weighted * probs).sum(axis=0) / denom

    def mix(
        self, probs: np.ndarray, effort: np.ndarray | float | None = None
    ) -> np.ndarray:
        """Mix the ``(I, n)`` probabilities of one member pass at one effort.

        ``effort=None`` (test time, future effort unknown) mixes the
        *prior-corrected* probabilities of every classifier; a value/array
        mixes the raw probabilities of the classifiers qualified at that
        effort, which is the effort-response ``g_v(c)`` the planner consumes.
        """
        if effort is None:
            assert self.subset_positive_rates_ is not None
            assert self.full_positive_rate_ is not None
            probs = _prior_correct(
                probs, self.subset_positive_rates_, self.full_positive_rate_
            )
        return self._mix(probs, effort)

    def predict_proba(
        self,
        X: np.ndarray,
        effort: np.ndarray | float | None = None,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> np.ndarray:
        """Ensemble probability of detected poaching for each row of ``X``.

        One :meth:`member_statistics` pass over ``X`` (model inputs: static
        features + previous-period effort), then :meth:`mix` at ``effort``
        (``g_v(c)`` at a hypothesised effort ``c >= 0``). ``tile_size`` /
        ``n_jobs`` / ``backend`` are the serving fan-out controls; the mixed
        map is bit-identical for every combination.
        """
        check_effort(effort)
        probs, __ = self.member_statistics(
            X, tile_size=tile_size, n_jobs=n_jobs, backend=backend
        )
        return self.mix(probs, effort)

    def predict_variance(
        self,
        X: np.ndarray,
        effort: np.ndarray | float | None = None,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> np.ndarray:
        """Ensemble uncertainty score (raw ``nu_v(c)``), mixed like the
        probabilities but without the prior correction."""
        check_effort(effort)
        __, variances = self.member_statistics(
            X, tile_size=tile_size, n_jobs=n_jobs, backend=backend
        )
        return self._mix(variances, effort)

    @property
    def n_thresholds(self) -> int:
        self._check_fitted()
        assert self.thresholds_ is not None
        return len(self.thresholds_)

    # ------------------------------------------------------------------
    # Persistence (npz + json manifest; see repro.runtime.persistence)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist this fitted ensemble to a directory."""
        from repro.runtime.persistence import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path, verify: bool = True) -> "IWareEnsemble":
        """Load an ensemble saved by :meth:`save` (serving only, no refit).

        ``verify`` controls checksum verification of the saved arrays (see
        :func:`repro.runtime.persistence.load_model`); on by default.
        """
        from repro.runtime.persistence import load_model

        return load_model(path, expected_type=cls, verify=verify)

    def to_manifest(self, store, prefix: str) -> dict:
        self._check_fitted()
        assert self.thresholds_ is not None and self.weights_ is not None
        assert self.subset_positive_rates_ is not None
        return {
            "type": "IWareEnsemble",
            "config": {
                "n_classifiers": self.n_classifiers,
                "threshold_scheme": self.threshold_scheme,
                "theta_range": list(self.theta_range),
                "weighting": self.weighting,
                "cv_folds": self.cv_folds,
                "n_jobs": self.n_jobs,
                "backend": self.backend,
            },
            "full_positive_rate": self.full_positive_rate_,
            "classifiers": [
                c.to_manifest(store, f"{prefix}/classifiers/{i}")
                for i, c in enumerate(self.classifiers_)
            ],
            "arrays": {
                "thresholds": store.put(f"{prefix}/thresholds", self.thresholds_),
                "weights": store.put(f"{prefix}/weights", self.weights_),
                "subset_positive_rates": store.put(
                    f"{prefix}/subset_positive_rates", self.subset_positive_rates_
                ),
            },
        }

    @classmethod
    def from_manifest(cls, node: dict, arrays: dict) -> "IWareEnsemble":
        from repro.runtime.persistence import decode_node, get_array

        config = dict(node["config"])
        config["theta_range"] = tuple(config["theta_range"])
        ensemble = cls(_unavailable_weak_learner_factory, **config)
        refs = node["arrays"]
        ensemble.thresholds_ = get_array(arrays, refs["thresholds"]).astype(float)
        ensemble.weights_ = get_array(arrays, refs["weights"]).astype(float)
        ensemble.subset_positive_rates_ = get_array(
            arrays, refs["subset_positive_rates"]
        ).astype(float)
        ensemble.full_positive_rate_ = node["full_positive_rate"]
        ensemble.classifiers_ = [
            decode_node(child, arrays) for child in node["classifiers"]
        ]
        return ensemble


def check_effort(effort: np.ndarray | float | None) -> None:
    """Refuse a negative hypothesised patrol effort (``None`` is allowed)."""
    if effort is not None and (np.asarray(effort) < 0).any():
        raise ConfigurationError(
            f"effort must be >= 0, got {float(np.min(effort))}"
        )


def _unavailable_weak_learner_factory() -> Classifier:
    """Placeholder factory installed on ensembles loaded from disk."""
    raise ConfigurationError(
        "this iWare-E ensemble was loaded from disk and cannot be refit: "
        "weak-learner factories are not persisted (construct a fresh "
        "ensemble to retrain)"
    )


def _prior_correct(
    probs: np.ndarray, subset_rates: np.ndarray, full_rate: float
) -> np.ndarray:
    """Odds-ratio prior correction of per-classifier probabilities.

    Maps probabilities calibrated against ``subset_rates[i]`` onto the
    ``full_rate`` prior. Degenerate rates (0 or 1, possible at extreme
    thresholds) skip the correction for that classifier.
    """
    eps = 1e-9
    out = np.empty_like(probs)
    full_rate = float(np.clip(full_rate, eps, 1 - eps))
    full_odds = full_rate / (1 - full_rate)
    for i, rate in enumerate(np.asarray(subset_rates, dtype=float)):
        if not 0.0 < rate < 1.0:
            out[i] = probs[i]
            continue
        ratio = full_odds / (rate / (1 - rate))
        p = np.clip(probs[i], eps, 1 - eps)
        odds = p / (1 - p) * ratio
        out[i] = odds / (1 + odds)
    return out
