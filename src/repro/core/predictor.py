"""The PAWS predictive-model facade.

:class:`PawsPredictor` wraps the full model zoo of Table II — SVB / DTB /
GPB weak learners, each with or without iWare-E — behind one interface, and
exposes the two functions the prescriptive stage consumes for every cell:

* ``g_v(c)`` — probability of detecting an attack at patrol effort ``c``;
* ``nu_v(c)`` — uncertainty of that prediction, squashed to [0, 1].
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.ensemble import IWareEnsemble, check_effort
from repro.core.uncertainty import UncertaintyScaler
from repro.data.dataset import PoachingDataset
from repro.data.park import SyntheticPark
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.ml.bagging import BaggingClassifier, BalancedBaggingClassifier
from repro.ml.base import Classifier
from repro.ml.gp import GaussianProcessClassifier
from repro.ml.metrics import roc_auc_score
from repro.ml.svm import LinearSVMClassifier
from repro.ml.tree import DecisionTreeClassifier

#: The three weak-learner families of the paper: bagging ensembles of SVMs,
#: decision trees, and Gaussian-process classifiers.
WEAK_LEARNERS = ("svb", "dtb", "gpb")


def check_effort_grid(effort_grid) -> np.ndarray:
    """``effort_grid`` as floats; it must be non-empty, 1-D, nondecreasing, >= 0."""
    effort_grid = np.asarray(effort_grid, dtype=float)
    if effort_grid.ndim != 1 or effort_grid.size == 0:
        raise ConfigurationError("effort_grid must be a non-empty 1-D array")
    if (np.diff(effort_grid) < 0).any():
        raise ConfigurationError("effort_grid must be nondecreasing")
    check_effort(effort_grid)
    return effort_grid


def make_weak_learner(
    kind: str,
    rng: np.random.Generator,
    balanced: bool = False,
    n_estimators: int = 5,
    gp_max_points: int = 250,
    n_jobs: int = 1,
    backend: str = "auto",
) -> Callable[[], Classifier]:
    """Factory-of-factories for the Table II weak learners.

    Parameters
    ----------
    kind:
        ``"svb"``, ``"dtb"``, or ``"gpb"``.
    rng:
        Master generator; each produced learner draws a child seed, so two
        factories from the same master are independent but reproducible.
    balanced:
        Use undersampling (balanced bagging) — the paper's choice for the
        extremely imbalanced SWS datasets.
    n_estimators:
        Members per bagging ensemble.
    gp_max_points:
        Training-point cap per GP member (exact GPs are cubic).
    n_jobs:
        Pool workers for each bagging ensemble's member fits (results are
        bit-identical to serial).
    backend:
        Pool flavour for those member fits (see
        :mod:`repro.runtime.parallel`).
    """
    if kind not in WEAK_LEARNERS:
        raise ConfigurationError(
            f"unknown weak learner '{kind}'; expected one of {WEAK_LEARNERS}"
        )

    def base_factory() -> Classifier:
        seed = int(rng.integers(2**31 - 1))
        child = np.random.default_rng(seed)
        if kind == "svb":
            # Paper-faithful configuration: heavily regularised hinge loss
            # with no class reweighting. Under label imbalance this collapses
            # toward the majority class, reproducing Table II's finding that
            # "SVMs are suboptimal weak learners in this domain" — iWare-E's
            # filtered (more balanced) subsets are what rescue it.
            return LinearSVMClassifier(
                c=0.05, max_epochs=40, class_weight_balanced=False, rng=child
            )
        if kind == "dtb":
            return DecisionTreeClassifier(
                max_depth=8, min_samples_leaf=3, max_features="sqrt", rng=child
            )
        return GaussianProcessClassifier(max_points=gp_max_points, rng=child)

    bagging_cls = BalancedBaggingClassifier if balanced else BaggingClassifier

    def factory() -> Classifier:
        seed = int(rng.integers(2**31 - 1))
        return bagging_cls(
            base_factory,
            n_estimators=n_estimators,
            rng=np.random.default_rng(seed),
            n_jobs=n_jobs,
            backend=backend,
        )

    return factory


class PawsPredictor:
    """Configurable PAWS stage-1 model (Table II's rows and columns).

    Parameters
    ----------
    model:
        Weak-learner family: ``"svb"``, ``"dtb"``, or ``"gpb"``.
    iware:
        Wrap the weak learner in the enhanced iWare-E ensemble (True) or fit
        it once on the unfiltered data (the Table II baselines).
    n_classifiers:
        iWare-E threshold count (20 for MFNP/QENP, 10 for SWS in the paper).
    balanced:
        Balanced (undersampling) bagging, for extreme imbalance.
    n_estimators:
        Bagging members per weak learner.
    weighting:
        iWare-E mixing rule, ``"optimal"`` or ``"qualified"``.
    threshold_scheme:
        ``"percentile"`` (enhanced) or ``"equal"`` (original iWare-E).
    seed:
        Master seed for every stochastic component.
    n_jobs:
        Pool workers for fitting (1 = serial, -1 = all cores). With
        iWare-E the parallelism fans out over threshold classifiers;
        without, over bagging members. Seeds are pre-drawn serially, so any
        ``n_jobs`` produces bit-identical models.
    backend:
        Pool flavour for the fitting fan-out: ``"thread"``, ``"process"``,
        or ``"auto"`` (the default picks the process pool exactly when the
        weak learners are GIL-bound Python work — DTB trees, SVB epochs —
        and fits GPB members serially, since OpenBLAS already threads each
        GP's Cholesky factorisation).
    """

    def __init__(
        self,
        model: str = "gpb",
        iware: bool = True,
        n_classifiers: int = 10,
        balanced: bool = False,
        n_estimators: int = 5,
        weighting: str = "optimal",
        threshold_scheme: str = "percentile",
        gp_max_points: int = 250,
        seed: int = 0,
        n_jobs: int = 1,
        backend: str = "auto",
    ):
        from repro.runtime.parallel import check_backend

        if model not in WEAK_LEARNERS:
            raise ConfigurationError(
                f"unknown model '{model}'; expected one of {WEAK_LEARNERS}"
            )
        self.backend = check_backend(backend)
        self.model = model
        self.iware = iware
        self.n_classifiers = n_classifiers
        self.balanced = balanced
        self.n_estimators = n_estimators
        self.weighting = weighting
        self.threshold_scheme = threshold_scheme
        self.gp_max_points = gp_max_points
        self.seed = seed
        self.n_jobs = n_jobs
        self._rng = np.random.default_rng(seed)
        self._ensemble: IWareEnsemble | None = None
        self._flat_model: Classifier | None = None
        self._uncertainty_scaler: UncertaintyScaler | None = None
        self._fitted = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Table II-style model label, e.g. ``"GPB-iW"`` or ``"DTB"``."""
        label = self.model.upper()
        return f"{label}-iW" if self.iware else label

    def _factory(self, n_jobs: int = 1) -> Callable[[], Classifier]:
        return make_weak_learner(
            self.model,
            rng=self._rng,
            balanced=self.balanced,
            n_estimators=self.n_estimators,
            gp_max_points=self.gp_max_points,
            n_jobs=n_jobs,
            backend=self.backend,
        )

    def fit(self, dataset: PoachingDataset) -> "PawsPredictor":
        """Fit on a training dataset (typically three years of history)."""
        if dataset.n_points == 0:
            raise DataError("cannot fit on an empty dataset")
        if self.iware:
            # Parallelise across threshold classifiers (the outer level has
            # the most independent work); bagging members stay serial so the
            # thread pool is not oversubscribed.
            self._ensemble = IWareEnsemble(
                self._factory(),
                n_classifiers=self.n_classifiers,
                threshold_scheme=self.threshold_scheme,
                weighting=self.weighting,
                rng=self._rng,
                n_jobs=self.n_jobs,
                backend=self.backend,
            ).fit(dataset)
        else:
            X, y = dataset.feature_matrix, dataset.labels
            if y.min() == y.max():
                from repro.ml.base import ConstantClassifier

                self._flat_model = ConstantClassifier().fit(X, y)
            else:
                self._flat_model = self._factory(self.n_jobs)().fit(X, y)
        self._fitted = True
        return self

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("PawsPredictor is not fitted")

    # ------------------------------------------------------------------
    # Point predictions
    # ------------------------------------------------------------------
    def predict_proba(
        self,
        X: np.ndarray,
        effort: np.ndarray | float | None = None,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> np.ndarray:
        """Probability of detected poaching for each input row.

        One :meth:`member_pass`, then :meth:`mix_proba` at ``effort``.
        ``tile_size`` / ``n_jobs`` / ``backend`` stream the rows through the
        ``(member x tile)`` serving fan-out; results are bit-identical to
        the serial, untiled defaults.
        """
        check_effort(effort)
        return self.mix_proba(
            self.member_pass(X, tile_size=tile_size, n_jobs=n_jobs, backend=backend),
            effort,
        )

    def predict_variance(
        self,
        X: np.ndarray,
        effort: np.ndarray | float | None = None,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> np.ndarray:
        """Raw (unsquashed) uncertainty of each prediction.

        One :meth:`member_pass`, then its variances mixed at ``effort`` the
        way :meth:`mix_proba` mixes its probabilities, without the prior
        correction. Flat models ignore the effort.
        """
        check_effort(effort)
        __, variances = self.member_pass(
            X, tile_size=tile_size, n_jobs=n_jobs, backend=backend
        )
        if self._ensemble is None:
            return variances
        return self._ensemble._mix(variances, effort)

    def evaluate_auc(self, test: PoachingDataset) -> float:
        """AUC on a held-out dataset (the Table II metric)."""
        self._check_fitted()
        return roc_auc_score(test.labels, self.predict_proba(test.feature_matrix))

    # ------------------------------------------------------------------
    # Per-cell effort-response surfaces (inputs to the planner)
    # ------------------------------------------------------------------
    @staticmethod
    def cell_feature_matrix(
        park: SyntheticPark, prev_effort: np.ndarray
    ) -> np.ndarray:
        """Model inputs for every park cell given last period's effort."""
        prev_effort = np.asarray(prev_effort, dtype=float)
        if prev_effort.shape != (park.n_cells,):
            raise DataError(
                f"prev_effort must have shape ({park.n_cells},), "
                f"got {prev_effort.shape}"
            )
        return np.hstack([park.features.matrix, prev_effort[:, None]])

    def effort_response(
        self,
        features: np.ndarray,
        effort_grid: np.ndarray,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Risk and squashed uncertainty across hypothetical effort levels.

        One :meth:`member_pass`, then :meth:`mix_effort_response`; the
        scaler that mix fitted becomes :attr:`uncertainty_scaler`.

        Parameters
        ----------
        features:
            ``(n_cells, k+1)`` model inputs (static + previous effort).
        effort_grid:
            Nondecreasing effort levels (km, >= 0) at which to evaluate the
            model.
        tile_size, n_jobs, backend:
            Serving fan-out controls: test rows stream through
            ``tile_size``-row tiles (bounding transient memory at
            ``O(n_train x tile)``) and the ``(member x tile)`` tasks spread
            over ``n_jobs`` workers on the hint-selected pool. Every
            combination returns bit-identical surfaces.

        Returns
        -------
        (risk, uncertainty):
            Two ``(n_cells, len(effort_grid))`` arrays: ``g_v(c)`` and
            ``nu_v(c) in [0, 1]``.
        """
        self._check_fitted()
        effort_grid = check_effort_grid(effort_grid)
        risk, nu, self._uncertainty_scaler = self.mix_effort_response(
            self.member_pass(
                features, tile_size=tile_size, n_jobs=n_jobs, backend=backend
            ),
            effort_grid,
        )
        return risk, nu

    # ------------------------------------------------------------------
    # The two halves of every prediction: one member pass, then a mix
    # ------------------------------------------------------------------
    def member_pass(
        self,
        features: np.ndarray,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(probabilities, raw variances)`` of every member, in one pass.

        ``(I, n)`` arrays from the iWare-E threshold classifiers, or
        ``(n,)`` arrays from a flat model. The hypothesised effort only
        decides how :meth:`mix_proba` and :meth:`mix_effort_response`
        combine them, so one pass serves every effort level and grid.
        """
        self._check_fitted()
        if self._ensemble is not None:
            return self._ensemble.member_statistics(
                features, tile_size=tile_size, n_jobs=n_jobs, backend=backend
            )
        assert self._flat_model is not None
        if isinstance(self._flat_model, BaggingClassifier):
            return self._flat_model.prediction_stats(
                features, tile_size=tile_size, n_jobs=n_jobs, backend=backend
            )
        from repro.runtime.parallel import predict_map

        return predict_map(
            [self._flat_model], features,
            tile_size=tile_size, n_jobs=n_jobs, backend=backend,
        )[0]

    def mix_proba(
        self,
        member_pass: tuple[np.ndarray, np.ndarray],
        effort: np.ndarray | float | None = None,
    ) -> np.ndarray:
        """The risk map at one ``effort`` (see :meth:`IWareEnsemble.mix`).

        Flat models ignore the hypothesised effort: their map is the pass's
        probabilities.
        """
        self._check_fitted()
        if self._ensemble is None:
            return member_pass[0]
        return self._ensemble.mix(member_pass[0], effort)

    def mix_effort_response(
        self,
        member_pass: tuple[np.ndarray, np.ndarray],
        effort_grid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, UncertaintyScaler]:
        """``(g_v(c), nu_v(c), scaler)`` over ``effort_grid`` from one pass.

        All effort levels mix at once (:meth:`IWareEnsemble.mix_grid`, two
        matrix products). Leaves the predictor untouched: the
        ``UncertaintyScaler`` fitted to squash the raw variances is
        returned, not stored.
        """
        self._check_fitted()
        effort_grid = check_effort_grid(effort_grid)
        probs, raw_vars = member_pass
        if self._ensemble is None:
            # Flat models ignore the hypothesised effort entirely: one
            # prediction pass, broadcast across the grid.
            risk = np.repeat(probs[:, None], effort_grid.size, axis=1)
            raw_var = np.repeat(raw_vars[:, None], effort_grid.size, axis=1)
        else:
            risk, raw_var = self._ensemble.mix_grid(probs, raw_vars, effort_grid)
        # With zero patrol effort nothing can be detected: the training data
        # only contains patrolled points, so the model has no c=0 regime and
        # g_v(0) must be anchored at 0 (Pr[o=1 | c=0] = 0 by construction).
        risk[:, effort_grid == 0.0] = 0.0
        scaler = UncertaintyScaler().fit(raw_var.ravel())
        return risk, scaler.transform(raw_var), scaler

    @property
    def uncertainty_scaler(self) -> UncertaintyScaler | None:
        """The scaler fitted by the last :meth:`effort_response` call."""
        return self._uncertainty_scaler

    # ------------------------------------------------------------------
    # Persistence (npz + json manifest; see repro.runtime.persistence)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist this fitted predictor to a directory.

        The saved artifact serves predictions (``predict_proba``,
        ``predict_variance``, ``effort_response``) identical to this
        instance's without refitting; refitting a loaded predictor restarts
        from the persisted master seed.
        """
        from repro.runtime.persistence import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path, verify: bool = True) -> "PawsPredictor":
        """Load a predictor saved by :meth:`save`.

        ``verify`` controls checksum verification of the saved arrays (see
        :func:`repro.runtime.persistence.load_model`); on by default.
        """
        from repro.runtime.persistence import load_model

        return load_model(path, expected_type=cls, verify=verify)

    def to_manifest(self, store, prefix: str) -> dict:
        self._check_fitted()
        node: dict = {
            "type": "PawsPredictor",
            "config": {
                "model": self.model,
                "iware": self.iware,
                "n_classifiers": self.n_classifiers,
                "balanced": self.balanced,
                "n_estimators": self.n_estimators,
                "weighting": self.weighting,
                "threshold_scheme": self.threshold_scheme,
                "gp_max_points": self.gp_max_points,
                "seed": self.seed,
                "n_jobs": self.n_jobs,
                "backend": self.backend,
            },
        }
        if self._ensemble is not None:
            node["ensemble"] = self._ensemble.to_manifest(store, f"{prefix}/ensemble")
        else:
            assert self._flat_model is not None
            node["flat_model"] = self._flat_model.to_manifest(
                store, f"{prefix}/flat_model"
            )
        return node

    @classmethod
    def from_manifest(cls, node: dict, arrays: dict) -> "PawsPredictor":
        from repro.exceptions import PersistenceError
        from repro.runtime.persistence import decode_node

        predictor = cls(**node["config"])
        if "ensemble" in node:
            predictor._ensemble = decode_node(node["ensemble"], arrays)
        elif "flat_model" in node:
            predictor._flat_model = decode_node(node["flat_model"], arrays)
        else:
            raise PersistenceError(
                "PawsPredictor manifest has neither an ensemble nor a flat model"
            )
        predictor._fitted = True
        return predictor
