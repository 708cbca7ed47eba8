"""The patrol-planning service: fit once, plan many posts and betas.

Prediction became fit-once/serve-many in the runtime layer; this module does
the same for Section VI. A deployed park re-plans constantly — every patrol
post each period, several robustness weights per post when comparing plans —
and almost all of that work shares structure:

* every post queries the **same effort-response surfaces** (one
  :class:`~repro.runtime.service.RiskMapService` request, cached);
* a beta sweep changes **only the MILP objective row**, so the sparse
  constraint matrix is cached per post and reused
  (:meth:`~repro.planning.milp.PatrolMILP.build_structure`);
* concave utilities take the **LP fast path**, dropping the SOS2 binaries;
* per-post solves are independent, so they fan out over the deterministic
  thread machinery of :mod:`repro.runtime.parallel`.

:class:`PlanService` packages all four behind one facade::

    service = PlanService.from_saved("models/mfnp", park.grid,
                                     park.patrol_posts, n_jobs=4)
    plans = service.plan_all(features, beta=0.8)        # all posts, parallel
    sweep = service.beta_sweep(post, features, betas=[0.0, 0.4, 0.8])

Parallel results are bit-identical to serial ones: the shared
effort-response surfaces are computed once *before* the fan-out (the same
two-phase discipline as parallel model fitting), and each post's solve then
touches only its own planner.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.geo.grid import Grid
from repro.planning.milp import SOLVER_MODES
from repro.planning.planner import PatrolPlan, PatrolPlanner
from repro.planning.robust import RobustObjective
from repro.runtime.concurrency import thread_shared
from repro.runtime.parallel import parallel_map
from repro.runtime.resilience import (
    ResilienceStats,
    collect_stats,
    deadline_scope,
)
from repro.runtime.service import RiskMapService


@thread_shared
class PlanService:
    """Plan-many facade over one predictor and a park's patrol posts.

    The service is ``@thread_shared``: the lazily built per-post planner
    registry mutates under ``self._lock``, so concurrent requests (the
    park-service daemon's deployment shape) agree on one planner — and
    therefore one MILP structure cache — per post. The planners themselves
    guard their structure caches the same way (see
    :class:`~repro.planning.milp.PatrolMILP`).

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.predictor.PawsPredictor` (wrapped in a
        caching :class:`~repro.runtime.service.RiskMapService`
        automatically) or an existing service / any object exposing
        ``effort_response(features, xs) -> (risk, nu)``.
    grid:
        Park lattice shared by every post.
    posts:
        Patrol-post cell ids this service plans for.
    horizon, n_patrols, n_segments, time_limit:
        Planner parameters, shared across posts (see
        :class:`~repro.planning.planner.PatrolPlanner`).
    solver_mode:
        ``"auto"`` / ``"lp"`` / ``"milp"`` — forwarded to every planner.
    n_jobs:
        Default thread count for :meth:`plan_all` fan-outs (results are
        bit-identical at any worker count).
    """

    def __init__(
        self,
        model,
        grid: Grid,
        posts: Iterable[int],
        *,
        horizon: int = 10,
        n_patrols: int = 2,
        n_segments: int = 8,
        time_limit: float = 60.0,
        solver_mode: str = "auto",
        n_jobs: int | None = 1,
    ):
        if not hasattr(model, "effort_response"):
            raise ConfigurationError(
                "model must expose effort_response(features, xs); got "
                f"{type(model).__name__}"
            )
        if solver_mode not in SOLVER_MODES:
            raise ConfigurationError(
                f"solver_mode must be one of {SOLVER_MODES}, got '{solver_mode}'"
            )
        self.service = self._as_service(model)
        self.grid = grid
        self.posts = [int(p) for p in posts]
        if not self.posts:
            raise ConfigurationError("posts must name at least one patrol post")
        seen = set()
        for post in self.posts:
            if post in seen:
                raise ConfigurationError(f"duplicate patrol post {post}")
            seen.add(post)
        self.horizon = int(horizon)
        self.n_patrols = int(n_patrols)
        self.n_segments = int(n_segments)
        self.time_limit = time_limit
        self.solver_mode = solver_mode
        self.n_jobs = n_jobs
        # Mutated only under self._lock (the @thread_shared contract, RP004).
        self._lock = threading.RLock()
        self._planners: dict[int, PatrolPlanner] = {}
        #: Accumulated fan-out survival counters (the daemon's /stats feed).
        self._resilience = ResilienceStats()

    def _absorb(self, stats: ResilienceStats) -> None:
        """Fold one request's fan-out stats into the service counters."""
        with self._lock:
            self._resilience.merge(stats)

    @staticmethod
    def _as_service(model):
        """Wrap a bare predictor so repeated queries hit the LRU cache."""
        if isinstance(model, RiskMapService):
            return model
        from repro.core.predictor import PawsPredictor

        if isinstance(model, PawsPredictor):
            return RiskMapService(model)
        return model

    # ------------------------------------------------------------------
    # Construction from a saved model
    # ------------------------------------------------------------------
    @classmethod
    def from_saved(
        cls, path, grid: Grid, posts: Iterable[int],
        verify: bool = True, **kwargs,
    ) -> "PlanService":
        """Plan from a model persisted with ``PawsPredictor.save``.

        ``verify`` controls checksum verification of the saved model (see
        :func:`repro.runtime.persistence.load_model`); on by default.
        """
        return cls(
            RiskMapService.from_saved(path, verify=verify), grid, posts,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Per-post planners (built lazily, cached for structure reuse)
    # ------------------------------------------------------------------
    def planner_for(self, post: int) -> PatrolPlanner:
        """The cached planner of one post (its MILP structure cache lives
        for the life of the service, so repeated solves reuse the matrix).

        Thread-safe: concurrent callers racing on a cold post receive the
        same planner instance (the registry insertion is double-checked
        under the service lock).
        """
        post = int(post)
        planner = self._planners.get(post)
        if planner is None:
            if post not in self.posts:
                raise ConfigurationError(
                    f"post {post} is not served (posts: {self.posts})"
                )
            with self._lock:
                planner = self._planners.get(post)
                if planner is None:
                    planner = PatrolPlanner(
                        self.grid,
                        post,
                        horizon=self.horizon,
                        n_patrols=self.n_patrols,
                        n_segments=self.n_segments,
                        time_limit=self.time_limit,
                        solver_mode=self.solver_mode,
                    )
                    self._planners[post] = planner
        return planner

    def breakpoints(self) -> np.ndarray:
        """Shared PWL abscissae on [0, T*K] (identical for every post)."""
        return PatrolPlanner.breakpoints_for(
            self.horizon, self.n_patrols, self.n_segments
        )

    def objective_for(self, features: np.ndarray, beta: float) -> RobustObjective:
        """The robust objective at ``beta``, served through the risk cache.

        Every post consumes this same objective, so the expensive
        effort-response surfaces are computed once per distinct
        ``features`` and then hit the service's LRU cache.
        """
        xs = self.breakpoints()
        risk, nu = self.service.effort_response(features, xs)
        return RobustObjective(xs, risk, nu, beta=beta)

    # ------------------------------------------------------------------
    # Planning entry points
    # ------------------------------------------------------------------
    def plan_post(
        self, post: int, features: np.ndarray, beta: float = 0.8,
        deadline: float | None = None,
    ) -> PatrolPlan:
        """Plan one post (equivalent to ``PatrolPlanner.plan_from_model``).

        ``deadline`` bounds the whole request — the effort-response
        prediction *and* the solve share one budget (seconds, or a shared
        :class:`~repro.runtime.resilience.Deadline`).
        """
        planner = self.planner_for(post)  # validate before predicting
        with deadline_scope(deadline) as budget:
            objective = self.objective_for(features, beta)
            if budget is not None:
                budget.check(f"plan_post({post})")
            return planner.plan(objective)

    def plan_all(
        self,
        features: np.ndarray,
        beta: float = 0.8,
        posts: Sequence[int] | None = None,
        n_jobs: int | None = None,
        deadline: float | None = None,
    ) -> dict[int, PatrolPlan]:
        """Plan every post (or a subset) against one shared objective.

        Phase 1 computes the effort-response surfaces once, serially;
        phase 2 fans the independent per-post solves out over threads.
        Results are bit-identical at any ``n_jobs``. ``deadline`` bounds
        the whole request — prediction and every solve draw down one shared
        budget; an overrun raises
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        chosen = self.posts if posts is None else [int(p) for p in posts]
        if not chosen:
            raise ConfigurationError("posts must name at least one patrol post")
        if len(set(chosen)) != len(chosen):
            raise ConfigurationError(f"duplicate posts in {chosen}")
        planners = [self.planner_for(post) for post in chosen]
        with deadline_scope(deadline), collect_stats() as stats:
            try:
                objective = self.objective_for(features, beta)
                workers = self.n_jobs if n_jobs is None else n_jobs
                plans = parallel_map(
                    lambda planner: planner.plan(objective, beta=beta),
                    planners,
                    n_jobs=workers,
                )
            finally:
                self._absorb(stats)
        return dict(zip(chosen, plans))

    def beta_sweep(
        self,
        post: int,
        features: np.ndarray,
        betas: Sequence[float],
    ) -> list[PatrolPlan]:
        """Re-plan one post across robustness weights.

        Only the objective row differs between solves, so every beta after
        the first reuses the cached MILP structure; results are identical
        to fresh ``PatrolPlanner.plan`` calls at each beta.
        """
        if len(betas) == 0:
            raise ConfigurationError("betas must contain at least one weight")
        objective = self.objective_for(features, betas[0])
        planner = self.planner_for(post)
        return [planner.plan(objective, beta=float(b)) for b in betas]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, dict[str, int]]:
        """Prediction-cache and per-post MILP-structure-cache counters."""
        structures = {
            "hits": 0,
            "misses": 0,
            "entries": 0,
        }
        # snapshot: the registry may gain planners concurrently
        for planner in list(self._planners.values()):
            info = planner.milp.structure_cache_info()
            for key in structures:
                structures[key] += info[key]
        prediction = (
            self.service.cache_info()
            if hasattr(self.service, "cache_info")
            else {}
        )
        return {"prediction": prediction, "structure": structures}

    def resilience_info(self) -> dict:
        """Accumulated fan-out survival counters (the daemon's ``/stats``).

        Covers every :meth:`plan_all` request end to end: the prediction
        fan-outs it triggered on cache misses *and* the per-post solve
        fan-out. All zeros on a healthy host.
        """
        with self._lock:
            return self._resilience.as_dict()

    def timed_plan_all(
        self,
        features: np.ndarray,
        beta: float = 0.8,
        n_jobs: int | None = None,
        deadline: float | None = None,
    ) -> tuple[dict[int, PatrolPlan], float]:
        """:meth:`plan_all` plus wall-clock seconds (for benchmarks/CLI)."""
        start = time.perf_counter()
        plans = self.plan_all(
            features, beta=beta, n_jobs=n_jobs, deadline=deadline
        )
        return plans, time.perf_counter() - start
