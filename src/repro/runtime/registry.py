"""The multi-park model registry: lazy, verified loads and atomic hot-swap.

One daemon process fronts many parks. Each park's fitted model lives on
disk as a ``save_model`` directory under one *models root*::

    models/
      MFNP/manifest.json  arrays-<sha>.npz
      QENP/manifest.json  arrays-<sha>.npz

:class:`ModelRegistry` maps park names to live :class:`ParkEntry` objects:

* **lazy, checksum-verified loads** — a park's model is read (and its
  sha256 manifest verified) on first request, through a per-park *load
  breaker* so a corrupt artifact cannot grind the CPU re-hashing itself on
  every request (:class:`~repro.runtime.breaker.CircuitBreaker`);
* **LRU memory budget** — at most ``max_parks`` entries stay hot; loading
  one more evicts the least recently used (its result caches and feature
  registrations go with it; the on-disk model is untouched);
* **atomic hot-swap** — :meth:`reload` loads and verifies the *new* model
  off to the side and only then swaps the registry entry under the lock.
  A corrupt replacement raises
  :class:`~repro.exceptions.PersistenceError`, counts against the load
  breaker, and leaves the old entry serving — in-flight requests keep the
  entry they already resolved either way;
* **degraded dispatch** — each entry carries a *dispatch breaker* fed by
  the per-request :class:`~repro.runtime.resilience.ResilienceStats`:
  repeated worker deaths / pool degradations open it, after which the
  entry serves on the thread (then serial) rung instead of paying the
  process-pool crash-recovery ladder per request, until a half-open probe
  at full backend comes back clean.

Everything here is shared by every request thread; all registry and entry
state mutates under ``self._lock`` (the ``@thread_shared`` contract).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    PersistenceError,
    ResilienceError,
)
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.concurrency import thread_shared
from repro.runtime.persistence import MANIFEST_NAME
from repro.runtime.resilience import Deadline, ResilienceStats, collect_stats
from repro.runtime.service import RiskMapService


class _ParkContext:
    """Everything needed to serve one ``(seed, scale)`` view of a park.

    The daemon's clients name parks, not feature matrices; the feature
    matrix (and the grid/posts the planner needs) is derived
    deterministically from the park profile, seed, and scale — exactly the
    arrays a direct library call would build — then registered with the
    entry's :class:`~repro.runtime.service.RiskMapService` so repeated
    queries key its LRU by token instead of re-hashing.
    """

    __slots__ = ("seed", "scale", "data", "features", "token", "plan_service")

    def __init__(self, seed: int, scale: float, data, features, token):
        self.seed = seed
        self.scale = scale
        self.data = data
        self.features = features
        self.token = token
        self.plan_service = None


@thread_shared
class ParkEntry:
    """One hot park: a loaded model plus its serving state.

    Built by :class:`ModelRegistry`; requests never construct one directly.
    """

    #: Contexts (seed, scale) kept per entry before LRU eviction.
    MAX_CONTEXTS = 4

    def __init__(
        self,
        name: str,
        path: Path,
        service: RiskMapService,
        version: int,
        n_jobs: int | None = 1,
        dispatch_breaker: CircuitBreaker | None = None,
    ):
        self.name = name
        self.path = Path(path)
        self.service = service
        self.version = int(version)
        self.n_jobs = n_jobs
        self.dispatch_breaker = dispatch_breaker or CircuitBreaker(
            f"dispatch:{name}"
        )
        # Mutated only under self._lock (the @thread_shared contract, RP004).
        self._lock = threading.RLock()
        self._contexts: OrderedDict[tuple[int, float], _ParkContext] = (
            OrderedDict()
        )
        self._installs = itertools.count(1)

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def install_context(self, seed: int, scale: float, data) -> _ParkContext:
        """Register pre-generated park data for ``(seed, scale)``.

        The daemon calls this indirectly through :meth:`context`; tests and
        benchmarks call it directly to reuse an already-generated park
        instead of paying ``generate_dataset`` again (the arrays are
        deterministic in ``(profile, seed)``, so the served results are
        identical either way). A context evicted beyond
        :attr:`MAX_CONTEXTS`, or built by an install that lost a race, is
        unregistered from the service, member pass and all; each install
        registers under its own token, so this never touches a live one.
        """
        key = (int(seed), float(scale))
        features = np.asarray(  # the very array registered, so queries key by it
            self.service.predictor.cell_feature_matrix(
                data.park, data.recorded_effort[-1]
            ),
            dtype=float,
        )
        token = self.service.register_features(
            f"{self.name}/seed={key[0]}/scale={key[1]}/{next(self._installs)}",
            features,
        )
        context = _ParkContext(key[0], key[1], data, features, token)
        stale = []
        with self._lock:
            incumbent = self._contexts.get(key)
            if incumbent is not None:
                stale.append(context)
            else:
                self._contexts[key] = context
                while len(self._contexts) > self.MAX_CONTEXTS:
                    stale.append(self._contexts.popitem(last=False)[1])
        for old in stale:
            self.service.unregister_features(old.token)
        return context if incumbent is None else incumbent

    def context(self, seed: int = 0, scale: float = 1.0) -> _ParkContext:
        """The (cached) serving context for one ``(seed, scale)`` view."""
        key = (int(seed), float(scale))
        context = self._contexts.get(key)
        if context is not None:
            with self._lock:
                if key in self._contexts:
                    self._contexts.move_to_end(key)
            return context
        from repro.data import generate_dataset, get_profile

        profile = get_profile(self.name)
        if key[1] != 1.0:
            profile = profile.scaled(key[1])
        data = generate_dataset(profile, seed=key[0])
        return self.install_context(key[0], key[1], data)

    def _plan_service(self, context: _ParkContext):
        """The lazily built per-context :class:`~repro.planning.service.PlanService`."""
        if context.plan_service is None:
            from repro.planning.service import PlanService

            service = PlanService(
                self.service,
                context.data.park.grid,
                context.data.park.patrol_posts,
                n_jobs=self.n_jobs,
            )
            with self._lock:
                if context.plan_service is None:
                    context.plan_service = service
        return context.plan_service

    # ------------------------------------------------------------------
    # Dispatch through the breaker
    # ------------------------------------------------------------------
    def _dispatch(self, operation):
        """Run one request's compute, feeding the dispatch breaker.

        ``operation(backend)`` receives ``None`` (serve on the entry's
        configured backend) while the breaker is closed or probing, and
        ``"thread"`` (the degraded rung — threads cannot be OOM-killed
        separately) while it is open. Evidence comes from the fan-out
        stats: worker deaths or degradations recorded at full backend are
        a failure, a clean full-backend fan-out is a success, and a
        cache-hit request (no fan-outs) returns an unused probe.
        """
        full_backend = self.dispatch_breaker.allow()
        backend = None if full_backend else "thread"
        stats = ResilienceStats()
        try:
            with collect_stats() as stats:
                result = operation(backend)
        except ResilienceError:
            if full_backend:
                self.dispatch_breaker.record_failure()
            raise
        if full_backend:
            if stats.worker_deaths or stats.degradations:
                self.dispatch_breaker.record_failure()
            elif stats.fanouts:
                self.dispatch_breaker.record_success()
            else:
                self.dispatch_breaker.cancel_probe()
        return result

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def risk_map(
        self,
        effort: float | None = None,
        seed: int = 0,
        scale: float = 1.0,
        deadline=None,
    ) -> np.ndarray:
        """The park's per-cell risk map (the ``/riskmap`` payload)."""
        context = self.context(seed, scale)
        return self._dispatch(
            lambda backend: self.service.risk_map(
                context.features, effort=effort, deadline=deadline,
                backend=backend,
            )
        )

    def plan(
        self,
        beta: float = 0.8,
        post: int | None = None,
        seed: int = 0,
        scale: float = 1.0,
        deadline=None,
    ) -> dict:
        """Patrol plans for one post (or all posts) — the ``/plan`` payload."""
        context = self.context(seed, scale)
        plan_service = self._plan_service(context)

        def compute(backend):
            # Plan solves fan out over threads regardless; the breaker only
            # sees the prediction fan-outs a cache miss triggers.
            if post is not None:
                plan = plan_service.plan_post(
                    int(post), context.features, beta=beta, deadline=deadline
                )
                return {int(post): plan}
            return plan_service.plan_all(
                context.features, beta=beta, deadline=deadline
            )

        return self._dispatch(compute)

    def degraded(self) -> bool:
        """True when the dispatch breaker is steering serving off-process."""
        return not self.dispatch_breaker.healthy()

    def stats(self) -> dict:
        """Per-entry counters for ``/stats``."""
        plan_info = None
        for context in list(self._contexts.values()):
            if context.plan_service is not None:
                merged = plan_info or ResilienceStats()
                merged.merge(
                    ResilienceStats(
                        **{
                            key: value
                            for key, value in
                            context.plan_service.resilience_info().items()
                        }
                    )
                )
                plan_info = merged
        return {
            "version": self.version,
            "path": str(self.path),
            "contexts": len(self._contexts),
            "degraded": self.degraded(),
            "dispatch_breaker": self.dispatch_breaker.info(),
            "cache": self.service.cache_info(),
            "resilience": self.service.resilience_info(),
            "plan_resilience": (
                plan_info.as_dict() if plan_info is not None else None
            ),
        }


@thread_shared
class ModelRegistry:
    """Park name -> :class:`ParkEntry`, with LRU budget and hot-swap.

    Parameters
    ----------
    models_dir:
        Root directory; each immediate subdirectory containing a
        ``manifest.json`` is a servable park (its name must match a park
        profile so features can be derived deterministically).
    max_parks:
        Hot entries kept before LRU eviction (>= 1).
    tile_size, n_jobs, backend, cache_entries:
        Forwarded to each entry's :class:`~repro.runtime.service.RiskMapService`.
    verify:
        Checksum-verify models on load. Hot-swap *always* verifies,
        regardless — a reload that skipped verification could swap a
        corrupt model over a good one.
    load_failure_threshold, load_recovery_after:
        Per-park load-breaker tuning (see
        :class:`~repro.runtime.breaker.CircuitBreaker`).
    """

    def __init__(
        self,
        models_dir,
        max_parks: int = 8,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
        cache_entries: int = 32,
        verify: bool = True,
        load_failure_threshold: int = 3,
        load_recovery_after: float = 5.0,
    ):
        self.models_dir = Path(models_dir)
        if not self.models_dir.is_dir():
            raise ConfigurationError(
                f"models_dir '{models_dir}' is not a directory"
            )
        if int(max_parks) < 1:
            raise ConfigurationError(f"max_parks must be >= 1, got {max_parks}")
        self.max_parks = int(max_parks)
        self.tile_size = tile_size
        self.n_jobs = n_jobs
        self.backend = backend
        self.cache_entries = int(cache_entries)
        self.verify = bool(verify)
        self.load_failure_threshold = int(load_failure_threshold)
        self.load_recovery_after = float(load_recovery_after)
        # Mutated only under self._lock (the @thread_shared contract, RP004).
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, ParkEntry] = OrderedDict()
        self._load_breakers: dict[str, CircuitBreaker] = {}
        self._versions: dict[str, int] = {}
        self._loads = 0
        self._reloads = 0
        self._rejected_reloads = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def available(self) -> list[str]:
        """Parks present on disk (sorted), loaded or not."""
        return sorted(
            child.name
            for child in self.models_dir.iterdir()
            if child.is_dir() and (child / MANIFEST_NAME).is_file()
        )

    def has_model(self, park: str) -> bool:
        return (self.models_dir / park / MANIFEST_NAME).is_file()

    def loaded(self) -> list[str]:
        """Currently hot parks, least recently used first."""
        return list(self._entries)

    def _path(self, park: str) -> Path:
        path = self.models_dir / park
        if not (path / MANIFEST_NAME).is_file():
            raise ConfigurationError(
                f"no saved model for park '{park}' under "
                f"'{self.models_dir}' (available: {self.available()})"
            )
        return path

    def _breaker(self, park: str) -> CircuitBreaker:
        breaker = self._load_breakers.get(park)
        if breaker is None:
            with self._lock:
                breaker = self._load_breakers.get(park)
                if breaker is None:
                    breaker = CircuitBreaker(
                        f"load:{park}",
                        failure_threshold=self.load_failure_threshold,
                        recovery_after=self.load_recovery_after,
                    )
                    self._load_breakers[park] = breaker
        return breaker

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load_service(self, path: Path, verify: bool) -> RiskMapService:
        return RiskMapService.from_saved(
            path,
            max_entries=self.cache_entries,
            tile_size=self.tile_size,
            n_jobs=self.n_jobs,
            backend=self.backend,
            verify=verify,
        )

    def _build_entry(
        self, park: str, verify: bool, deadline: Deadline | None = None
    ) -> ParkEntry:
        """Load + verify one park through its load breaker (off-lock)."""
        path = self._path(park)
        if deadline is not None:
            # Fail before the expensive disk load, not after: a request
            # that has already blown its budget must not pay for a model
            # load whose result it can never use.
            deadline.check(f"load model for park '{park}'")
        service = self._breaker(park).call(
            lambda: self._load_service(path, verify),
            trip_on=PersistenceError,
        )
        with self._lock:
            version = self._versions.get(park, 0) + 1
            self._versions[park] = version
            self._loads += 1
        return ParkEntry(
            park, path, service, version=version, n_jobs=self.n_jobs
        )

    def entry(self, park: str, deadline: Deadline | None = None) -> ParkEntry:
        """The hot entry for ``park``, loading (and maybe evicting) lazily.

        Raises :class:`~repro.exceptions.CircuitOpenError` while the park's
        load breaker is open, :class:`~repro.exceptions.PersistenceError`
        when the artifact fails verification, and
        :class:`~repro.exceptions.ConfigurationError` when no model exists.
        """
        incumbent = self._entries.get(park)
        if incumbent is not None:
            with self._lock:
                if park in self._entries:
                    self._entries.move_to_end(park)
            return incumbent
        entry = self._build_entry(park, verify=self.verify, deadline=deadline)
        with self._lock:
            incumbent = self._entries.get(park)
            if incumbent is not None:
                return incumbent  # a racing load won; serve its entry
            self._entries[park] = entry
            while len(self._entries) > self.max_parks:
                self._entries.popitem(last=False)
                self._evictions += 1
        return entry

    def reload(self, park: str, deadline: Deadline | None = None) -> ParkEntry:
        """Atomic hot-swap: load-and-verify aside, swap only on success.

        The replacement is loaded with ``verify=True`` unconditionally and
        its feature contexts are rebuilt from scratch; the old entry —
        which in-flight requests may still hold — keeps serving until the
        single swap below, and forever if the new artifact is rejected.
        """
        current = self._entries.get(park)
        try:
            entry = self._build_entry(park, verify=True, deadline=deadline)
        except PersistenceError:
            with self._lock:
                self._rejected_reloads += 1
            raise
        # Carry warm contexts over so a hot-swap does not force the next
        # request to regenerate park data (features re-register against the
        # new service; cached *results* start cold, as they must).
        if current is not None:
            for context in list(current._contexts.values()):
                entry.install_context(context.seed, context.scale, context.data)
        with self._lock:
            self._entries[park] = entry
            self._entries.move_to_end(park)
            self._reloads += 1
            while len(self._entries) > self.max_parks:
                self._entries.popitem(last=False)
                self._evictions += 1
        return entry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def park_health(self) -> dict:
        """Per-park health flags (the ``/health`` parks section)."""
        with self._lock:
            entries = dict(self._entries)
            load_breakers = dict(self._load_breakers)
        report = {}
        for park in self.available():
            entry = entries.get(park)
            load_breaker = load_breakers.get(park)
            flags = {
                "loaded": entry is not None,
                "version": entry.version if entry is not None else None,
                "degraded": entry.degraded() if entry is not None else False,
                "load_breaker": (
                    load_breaker.state() if load_breaker is not None
                    else "closed"
                ),
                "dispatch_breaker": (
                    entry.dispatch_breaker.state() if entry is not None
                    else "closed"
                ),
            }
            flags["ok"] = (
                flags["load_breaker"] == "closed" and not flags["degraded"]
            )
            report[park] = flags
        return report

    def info(self) -> dict:
        """Registry counters for ``/stats``."""
        # Snapshot the mutable counters under the lock, then walk the
        # models directory *outside* it: available() is disk I/O, and a
        # slow filesystem must not stall every thread that touches the
        # registry (RP008: no blocking calls under a shared lock).
        with self._lock:
            counters = {
                "loaded": list(self._entries),
                "loads": self._loads,
                "reloads": self._reloads,
                "rejected_reloads": self._rejected_reloads,
                "evictions": self._evictions,
            }
        return {
            "models_dir": str(self.models_dir),
            "max_parks": self.max_parks,
            "available": self.available(),
            **counters,
        }

    def stats(self) -> dict:
        """Per-loaded-park stats (the ``/stats`` parks section)."""
        with self._lock:
            entries = dict(self._entries)
        return {park: entry.stats() for park, entry in sorted(entries.items())}
