"""The risk-map serving facade: fit (or load) once, predict many.

Deployed PAWS installations (Section VII: MFNP, QENP, SWS) serve risk maps
repeatedly from one fitted model — every patrol post queries the same
effort-response surfaces, dashboards re-render the same maps, and planners
re-solve under different robustness weights. :class:`RiskMapService` wraps a
fitted :class:`~repro.core.predictor.PawsPredictor` with

* the **batched** effort-response path (one ensemble pass per request
  instead of one per effort level),
* the **tiled, parallel** prediction engine (``tile_size`` bounds transient
  memory at ``O(n_train x tile)``; ``n_jobs`` spreads ``(member x tile)``
  tasks over the hint-selected pool — surfaces are bit-identical to the
  serial, untiled path at any setting),
* an **LRU result cache** keyed on the request arrays, so repeated queries
  (the common case: same park features, same planner breakpoints) cost a
  dictionary lookup,
* **feature registration**: parks whose feature matrix is served over and
  over register it once (:meth:`register_features`), paying the SHA-256
  content hash at registration instead of on every query, and
* a **member-pass memo** per registration: the effort-independent model
  pass (:meth:`~repro.core.predictor.PawsPredictor.member_pass`) runs on
  the registration's first cache miss, and every later miss — any effort,
  any grid — is only a mix over it, through the same functions as the
  direct ``predict_proba`` / ``effort_response`` calls.

Combined with model persistence, this is the "serve without refit" workload::

    predictor.save("models/mfnp-gpb")           # once, after training
    service = RiskMapService.from_saved("models/mfnp-gpb",
                                        tile_size=4096, n_jobs=4)
    park = service.register_features("mfnp", features)
    risk, nu = service.effort_response(park, planner.breakpoints())
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.core.predictor import PawsPredictor, check_effort_grid
from repro.exceptions import ConfigurationError, NotFittedError
from repro.runtime.concurrency import thread_shared
from repro.runtime.parallel import check_backend, resolve_n_jobs
from repro.runtime.resilience import (
    ResilienceStats,
    collect_stats,
    deadline_scope,
)


@thread_shared
class RiskMapService:
    """Cached serving facade over a fitted predictor.

    The service is ``@thread_shared``: one instance may serve many request
    threads concurrently (the park-service daemon's deployment shape).
    Cache and registry mutations happen under ``self._lock``; reads are
    lock-free; concurrent misses on one key each compute the bit-identical
    result and the first insertion wins.

    Parameters
    ----------
    predictor:
        A fitted :class:`~repro.core.predictor.PawsPredictor`.
    max_entries:
        LRU capacity; each entry holds one query's result arrays. Zero
        disables caching, member-pass memo included.
    tile_size:
        Rows per prediction tile (``None`` = untiled). Bounds the serving
        path's transient memory at ``O(n_train x tile_size)`` per in-flight
        task instead of ``O(n_train x n_cells)``.
    n_jobs:
        Workers for the ``(member x tile)`` prediction fan-out (1 = serial,
        -1 = all cores). Served surfaces are bit-identical to serial.
    backend:
        Pool flavour for that fan-out: ``"thread"``, ``"process"``, or
        ``"auto"`` (hint-based, like fitting: tree members to processes,
        BLAS-heavy GP members to threads).
    """

    def __init__(
        self,
        predictor: PawsPredictor,
        max_entries: int = 32,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
    ):
        if not isinstance(predictor, PawsPredictor):
            raise ConfigurationError(
                f"expected a PawsPredictor, got {type(predictor).__name__}"
            )
        try:
            predictor._check_fitted()
        except NotFittedError:
            raise NotFittedError(
                "RiskMapService needs a fitted predictor (fit it, or load "
                "one with RiskMapService.from_saved)"
            ) from None
        if max_entries < 0:
            raise ConfigurationError(f"max_entries must be >= 0, got {max_entries}")
        if tile_size is not None and int(tile_size) < 1:
            raise ConfigurationError(f"tile_size must be >= 1, got {tile_size}")
        resolve_n_jobs(n_jobs)
        self.predictor = predictor
        self.max_entries = max_entries
        self.tile_size = None if tile_size is None else int(tile_size)
        self.n_jobs = n_jobs
        self.backend = check_backend(backend)
        # Mutated only under self._lock (the @thread_shared contract, RP004):
        # one service instance is shared by every request thread of the
        # park-service daemon. Reads stay lock-free — single dict operations
        # are atomic under the GIL and cached values are never mutated after
        # insertion (results are copied out to callers).
        self._lock = threading.RLock()
        self._cache: OrderedDict[str, tuple] = OrderedDict()
        #: name -> (array, registration-time digest); see register_features.
        self._registered: dict[str, tuple[np.ndarray, str]] = {}
        #: id(array) -> name, so passing the registered object skips hashing.
        self._registered_ids: dict[int, str] = {}
        #: name -> (array, member pass): 2 x I x n_cells floats per entry.
        self._passes: dict[str, tuple[np.ndarray, tuple]] = {}
        self._hits = 0
        self._misses = 0
        self._member_passes = 0
        #: Accumulated fan-out survival counters (the daemon's /stats feed).
        self._resilience = ResilienceStats()

    @property
    def hits(self) -> int:
        """Cache hits served so far (read-only)."""
        return self._hits

    @property
    def misses(self) -> int:
        """Cache misses (i.e. computed queries) so far (read-only)."""
        return self._misses

    # ------------------------------------------------------------------
    # Construction from a saved model
    # ------------------------------------------------------------------
    @classmethod
    def from_saved(
        cls,
        path,
        max_entries: int = 32,
        tile_size: int | None = None,
        n_jobs: int | None = 1,
        backend: str = "auto",
        verify: bool = True,
    ) -> "RiskMapService":
        """Serve a predictor persisted with ``PawsPredictor.save``.

        ``verify`` controls checksum verification of the saved arrays (see
        :func:`repro.runtime.persistence.load_model`); on by default.
        """
        return cls(
            PawsPredictor.load(path, verify=verify), max_entries=max_entries,
            tile_size=tile_size, n_jobs=n_jobs, backend=backend,
        )

    def save(self, path) -> None:
        """Persist the underlying predictor (the cache is not saved)."""
        self.predictor.save(path)

    # ------------------------------------------------------------------
    # Feature registration (hash once, serve many)
    # ------------------------------------------------------------------
    def register_features(self, name: str, features: np.ndarray) -> str:
        """Register a park's feature matrix; returns a token for queries.

        The SHA-256 content hash — linear in the matrix, tens of
        milliseconds per million cells — is computed **once**, here.
        Queries made with the returned token (or with the registered array
        object itself) key the LRU by token + cheap metadata instead of
        re-hashing the full matrix every call; unregistered arrays fall
        back to per-query content hashing.

        **Mutation contract**: the service keys the cache by the
        registration-time hash and does not re-inspect the array, so
        mutating a registered array in place serves stale results. Treat
        registered arrays as frozen — copy before editing, or call
        :meth:`register_features` again (same name) to re-hash.

        Registering a new array under an existing name replaces the
        registration and drops its member pass; cached results of the old
        array are keyed by its old digest and simply age out of the LRU.
        """
        features = np.asarray(features, dtype=float)
        digest = self._array_digest(features)  # hash outside the lock
        with self._lock:
            self.unregister_features(name)
            self._registered[name] = (features, digest)
            self._registered_ids[id(features)] = name
        return name

    def unregister_features(self, name: str) -> None:
        """Drop a registration: its array, id mapping and member pass.

        Its cached results age out of the LRU; the token stops resolving,
        while the array itself still serves, content-hashed like any
        unregistered one. Unknown names are ignored.
        """
        with self._lock:
            previous = self._registered.pop(name, None)
            if previous is not None and (
                self._registered_ids.get(id(previous[0])) == name
            ):
                del self._registered_ids[id(previous[0])]
            self._passes.pop(name, None)

    def _resolve_features(self, features) -> tuple[np.ndarray, str, str | None]:
        """``(array, cache-key part, registered name)`` of one query's features."""
        if isinstance(features, str):
            registered = self._registered.get(features)
            if registered is None:
                raise ConfigurationError(
                    f"no features registered under '{features}' "
                    "(call register_features first)"
                )
            return registered[0], f"token/{features}/{registered[1]}", features
        array = np.asarray(features, dtype=float)
        name = self._registered_ids.get(id(array))
        registered = self._registered.get(name)
        if registered is not None and registered[0] is array:
            return array, f"token/{name}/{registered[1]}", name
        return array, self._array_digest(array), None

    # ------------------------------------------------------------------
    # Cached queries
    # ------------------------------------------------------------------
    @staticmethod
    def _array_digest(array: np.ndarray) -> str:
        """Content hash of one array (shape + dtype + bytes)."""
        array = np.ascontiguousarray(array)
        digest = hashlib.sha256()
        digest.update(str(array.shape).encode())
        digest.update(array.dtype.str.encode())
        digest.update(array.tobytes())
        return digest.hexdigest()

    @classmethod
    def _key(cls, tag: str, *parts) -> str:
        """Cache key from a tag and string/array parts (arrays are hashed)."""
        digest = hashlib.sha256()
        digest.update(tag.encode())
        for part in parts:
            if isinstance(part, str):
                digest.update(part.encode())
            else:
                digest.update(cls._array_digest(np.asarray(part)).encode())
        return digest.hexdigest()

    def _cached(self, key: str, compute) -> tuple:
        if self.max_entries == 0:
            return compute()
        with self._lock:
            if key in self._cache:
                self._hits += 1
                self._cache.move_to_end(key)
                return self._cache[key]
            self._misses += 1
        # Compute outside the lock: concurrent misses on the same key both
        # compute (bit-identical results by the determinism contract) and
        # the incumbent insertion wins, so a slow model pass never blocks
        # unrelated requests.
        result = compute()
        with self._lock:
            incumbent = self._cache.get(key)
            if incumbent is not None:
                self._cache.move_to_end(key)
                return incumbent
            self._cache[key] = result
            if len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
        return result

    def _absorb(self, stats: ResilienceStats) -> None:
        """Fold one request's fan-out stats into the service counters."""
        with self._lock:
            self._resilience.merge(stats)

    def _member_pass(self, name, array: np.ndarray, backend: str, deadline):
        """The registration's memoized member pass, or one run now.

        A pass runs outside the lock, under the request's deadline and
        stats sink; the first one stored for a registration wins, and an
        overrun stores nothing. Unregistered arrays, and every array while
        caching is off, get a fresh pass per cache miss.
        """
        memo = self._passes.get(name)
        if memo is not None and memo[0] is array:
            return memo[1]
        with deadline_scope(deadline), collect_stats() as stats:
            try:
                member_pass = self.predictor.member_pass(
                    array, tile_size=self.tile_size, n_jobs=self.n_jobs,
                    backend=backend,
                )
            finally:
                self._absorb(stats)
        with self._lock:
            self._member_passes += 1
            registered = self._registered.get(name)
            if self.max_entries and registered and registered[0] is array:
                memo = self._passes.get(name)  # the incumbent wins
                if memo is None:
                    memo = self._passes[name] = (array, member_pass)
                member_pass = memo[1]
        return member_pass

    def effort_response(
        self,
        features,
        effort_grid: np.ndarray,
        deadline: float | None = None,
        backend: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached batched ``(g_v(c), nu_v(c))`` surfaces for planner input.

        ``features`` is a matrix, a registered array, or a token from
        :meth:`register_features`. Returns copies, so callers may mutate the
        results freely without poisoning the cache. The scaler that
        squashed the surfaces is cached with them and set as the
        predictor's ``uncertainty_scaler`` on every return, hit or miss —
        exactly as if the query had been recomputed.

        ``deadline`` bounds the member pass a cache miss may run (seconds,
        or a shared :class:`~repro.runtime.resilience.Deadline`); an overrun
        raises :class:`~repro.exceptions.DeadlineExceededError` and caches
        nothing. Hits, and misses mixed from the memoized pass, return
        regardless.

        ``backend`` overrides the service's pool flavour for this one query
        (the daemon's degraded-dispatch path). Results are bit-identical
        across backends, so the cache key is unchanged.
        """
        array, feature_key, name = self._resolve_features(features)
        effort_grid = check_effort_grid(effort_grid)
        key = self._key("effort_response", feature_key, effort_grid)
        chosen_backend = self.backend if backend is None else check_backend(backend)

        def compute():
            return self.predictor.mix_effort_response(
                self._member_pass(name, array, chosen_backend, deadline),
                effort_grid,
            )

        risk, nu, scaler = self._cached(key, compute)
        self.predictor._uncertainty_scaler = scaler
        return risk.copy(), nu.copy()

    def risk_map(
        self,
        features,
        effort: float | None = None,
        deadline: float | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Cached per-cell attack-detection probability at one effort level.

        ``effort=None`` gives the unconditional (prior-corrected) map; a
        value conditions on that hypothetical patrol effort, as in the
        Fig. 6 risk maps. ``features`` may be a token, as in
        :meth:`effort_response`; ``deadline`` bounds a cache miss's member
        pass and ``backend`` overrides the pool flavour the same way.
        """
        array, feature_key, name = self._resolve_features(features)
        effort_tag = "none" if effort is None else repr(float(effort))
        key = self._key(f"risk_map/{effort_tag}", feature_key)
        chosen_backend = self.backend if backend is None else check_backend(backend)

        def compute():
            return (
                self.predictor.mix_proba(
                    self._member_pass(name, array, chosen_backend, deadline),
                    effort,
                ),
            )

        (risk,) = self._cached(key, compute)
        return risk.copy()

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters and member passes run (logs, ``/stats``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "max_entries": self.max_entries,
            "member_passes": self._member_passes,
        }

    def resilience_info(self) -> dict:
        """Accumulated fan-out survival counters (the daemon's ``/stats``).

        Counts what every cache-miss compute survived: retries, worker
        deaths, degradations, pickle fallbacks, deadline overruns, and the
        completion backend of each fan-out. All zeros on a healthy host.
        """
        with self._lock:
            return self._resilience.as_dict()

    def clear_cache(self) -> None:
        """Drop every cached result and member pass (counters are kept)."""
        with self._lock:
            self._cache.clear()
            self._passes.clear()
