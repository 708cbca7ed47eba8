"""Thread/process fan-out for model fitting, prediction, and planning.

Fitting an iWare-E ensemble is embarrassingly parallel at two levels — one
weak learner per effort threshold, one base classifier per bootstrap — but
every stochastic choice (bootstrap indices, child seeds) must come from the
single master generator in a fixed order, or results stop being
reproducible. The contract used throughout the package is therefore
*two-phase execution*: perform all shared/stateful work serially (draw
randomness, construct members, compute shared surfaces), then fan the pure
per-item calls out through :func:`parallel_map` / :func:`run_deferred`. The
fanned work only touches per-item state, so parallel results are
bit-identical to serial ones — with any backend.

Prediction is even easier: a fitted model is read-only state and every test
row is independent, so *serving* fans out over ``(member x tile)`` tasks
with no phase split at all (:func:`predict_map`). Each task runs its
model's ``prediction_stats``, so every probability and variance the
package serves is one such sweep followed by a mix at the hypothesised
effort. :func:`predict_map` is also the package's only tiler: each task's
transient allocations (a GP member's ``(n_train x tile)`` kernel slab, a
tree's per-level index lanes) are bounded by the tile size instead of the
full query, which is what keeps million-cell risk maps memory-bounded.

Two pool backends are available, because the fanned workloads split into two
classes:

* ``"thread"`` — right when the heavy lifting happens in GIL-releasing
  native code that does not thread itself (kernel products of prediction
  tiles, HiGHS solves). Zero serialisation cost; tasks may share state by
  reference.
* ``"process"`` — right for pure-Python/numpy-dispatch work (decision-tree
  growth, SVM epochs) that the GIL would serialise in a thread pool. Tasks
  cross the process boundary by pickling, so they must be picklable
  (two-phase fit tasks are: phase 1 strips the unpicklable factory
  closures, and fitted models travel back as plain arrays — the same
  representation the npz persistence layer uses).
* ``"auto"`` — inspects the tasks' ``backend_hint`` attributes (see
  :meth:`repro.ml.base.Classifier.fit_backend_hint`) and picks the process
  pool only when every task asks for it, and no pool at all when every
  task asks for ``"serial"``: GP fits are Cholesky factorisations that
  OpenBLAS already runs on every core, so threads on top only contend with
  it (on a 2-core host, QENP GPB-iW took 7.0 s on 2 threads against 4.0 s
  serially). Tasks that fail an explicit picklability probe fall back to
  threads rather than erroring — while exceptions raised by the tasks
  *themselves* always propagate.

Dispatch goes through :func:`repro.runtime.resilience.supervised_map`
rather than bare ``pool.map``: each task is an individually supervised
future, so an OOM-killed process worker fails only the tasks it was
holding — the supervisor re-runs exactly the missing ones (bounded retries,
deterministic backoff, degradation ``process -> thread -> serial``) and the
two-phase purity contract makes every recovered result bit-identical to the
fault-free serial run. Every fan-out here also accepts an optional
``deadline`` (seconds or a shared :class:`~repro.runtime.resilience.Deadline`)
enforced between tasks and while awaiting futures.

The picklability requirement is machine-checked: analyzer rule RP003
(``repro.analysis``, run by ``make lint``) resolves the classes constructed
at :func:`parallel_map` / :func:`run_deferred` / :func:`predict_map` call
sites and rejects any that capture lambdas, locally-defined functions, or
``threading`` primitives in ``__init__`` — unless a ``__getstate__`` strips
them before the task crosses the process boundary.

Worker counts are clamped to the CPUs actually available to this process
(cgroup/affinity aware): oversubscribing a small container with more workers
than cores only adds pool overhead, so ``n_jobs=8`` on a 2-core box runs 2
workers — and on a single core every backend degrades to the plain serial
loop, keeping "parallel" never slower than serial. Process workers are not
started per fan-out either: every process fan-out borrows the one warm pool
kept by :mod:`repro.runtime.resilience`.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

import numpy as np

from repro.exceptions import ConfigurationError
from repro.runtime import faults
from repro.runtime.resilience import (
    Deadline,
    ResilienceStats,
    RetryPolicy,
    record_stats,
    supervised_map,
)

T = TypeVar("T")
R = TypeVar("R")

#: Valid ``backend`` arguments accepted throughout the package.
BACKENDS = ("auto", "thread", "process")


def effective_cpu_count() -> int:
    """CPUs usable by this process (respects scheduler affinity masks)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request to a positive worker count.

    ``None`` and ``1`` mean serial; positive values are taken literally;
    negative values count back from the count of *usable* CPUs — the
    affinity/cgroup-aware :func:`effective_cpu_count`, not the raw host
    core count — so ``-1`` on a 2-core cgroup of a 64-core box means 2
    workers, not 64 (``-1`` = all usable cores, ``-2`` = all but one, ...).
    Zero is rejected.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ConfigurationError("n_jobs must not be 0 (use 1 for serial)")
    if n_jobs < 0:
        return max(1, effective_cpu_count() + 1 + n_jobs)
    return n_jobs


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}, got '{backend}'"
        )
    return backend


def _call(task: Callable[[], R]) -> R:
    """Invoke a zero-argument task (module-level so process pools can map it)."""
    return task()


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    n_jobs: int | None = 1,
    backend: str = "thread",
    deadline: "Deadline | float | None" = None,
    policy: RetryPolicy | None = None,
) -> list[R]:
    """``[fn(x) for x in items]``, optionally through a supervised pool.

    Results come back in input order and bit-identical to serial, even
    across worker-crash recovery. With ``n_jobs`` of ``None``/``1``, fewer
    than two items, or a single usable CPU, this is a plain serial loop.
    ``backend="process"`` requires ``fn`` and every item to be picklable
    (``fn`` should be a module-level function). ``deadline`` bounds the
    whole fan-out (seconds, or a :class:`~repro.runtime.resilience.Deadline`
    shared with other fan-outs of the same request); ``policy`` overrides
    the default :class:`~repro.runtime.resilience.RetryPolicy`.
    """
    if backend == "auto":
        raise ConfigurationError(
            "parallel_map needs an explicit backend; use run_deferred for "
            "hint-based auto selection"
        )
    check_backend(backend)
    materialised: Sequence[T] = list(items)
    workers = min(
        resolve_n_jobs(n_jobs), len(materialised), effective_cpu_count()
    )
    return supervised_map(
        fn,
        materialised,
        workers=workers,
        backend=backend,
        deadline=deadline,
        policy=policy,
        label="parallel_map",
    )


def vote_backend(hints: Sequence[str]) -> str:
    """Resolve a pool flavour from per-task backend hints.

    A unanimous vote wins: ``"process"`` when every *substantive* task is
    GIL-bound Python work, ``"serial"`` when every one is a fit that keeps
    the cores busy by itself (GP Cholesky factorisations on the threaded
    BLAS). Any other mix gets ``"thread"``. Trivial no-op tasks advertise
    ``"any"`` and do not get a vote; a group of nothing but abstainers
    stays ``"any"`` so it cannot poison an outer vote either.
    """
    votes = {hint for hint in hints if hint != "any"}
    if not votes:
        return "any"
    if len(votes) == 1 and votes <= {"process", "serial"}:
        return votes.pop()
    return "thread"


def preferred_backend(tasks: Sequence[object]) -> str:
    """Resolve ``"auto"`` from the tasks' ``backend_hint`` attributes.

    Returns a :func:`~repro.runtime.resilience.supervised_map` starting
    rung: ``"process"``, ``"serial"`` or ``"thread"``.
    """
    result = vote_backend(
        [getattr(task, "backend_hint", "thread") for task in tasks]
    )
    return "thread" if result == "any" else result


def _tasks_picklable(tasks: Sequence[object]) -> bool:
    """Probe whether every *task object* survives the process boundary.

    The probe pickles the tasks themselves — never runs them — so a
    ``TypeError`` (or anything else) raised by task *logic* can no longer
    be mistaken for a serialisation failure and silently rerouted.
    """
    try:
        faults.on_pickle_probe()
        for task in tasks:
            pickle.dumps(task)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def run_deferred(
    tasks: Sequence[Callable[[], R]],
    n_jobs: int | None = 1,
    backend: str = "auto",
    deadline: "Deadline | float | None" = None,
    policy: RetryPolicy | None = None,
) -> list[R]:
    """Run phase-2 fit tasks (zero-argument callables), optionally pooled.

    This is the fan-out entry point of the two-phase fit protocol
    (:meth:`repro.ml.base.Classifier.fit_deferred`): phase 1 has already
    drawn all shared randomness serially, so the tasks here are pure and
    order-independent — any backend, and any crash-recovery path, yields
    bit-identical results.

    With ``backend="auto"`` the pool is chosen from the tasks'
    ``backend_hint`` attributes (a unanimous ``"serial"`` vote runs them in
    this thread, in order); a process vote is then confirmed by
    explicitly pickling the task objects (:func:`_tasks_picklable`), and
    tasks that do not pickle (e.g. closures over live model state) fall
    back to the thread pool — recorded as a ``pickle_fallbacks`` stat, not
    silent. Exceptions raised *by* the tasks always propagate, whatever
    the backend. An explicit ``backend="process"`` skips the probe and
    propagates pickling errors too.
    """
    check_backend(backend)
    tasks = list(tasks)
    workers = min(resolve_n_jobs(n_jobs), len(tasks), effective_cpu_count())
    chosen = preferred_backend(tasks) if backend == "auto" else backend
    if (
        backend == "auto"
        and chosen == "process"
        and workers > 1
        and len(tasks) > 1
        and not _tasks_picklable(tasks)
    ):
        chosen = "thread"
        record_stats(ResilienceStats(pickle_fallbacks=1))
    return supervised_map(
        _call,
        tasks,
        workers=workers,
        backend=chosen,
        deadline=deadline,
        policy=policy,
        label="run_deferred",
    )


# ---------------------------------------------------------------------------
# Prediction fan-out: (member x tile) tasks over fitted, read-only models
# ---------------------------------------------------------------------------

def tile_slices(n: int, tile_size: int | None) -> list[slice]:
    """Row slices covering ``[0, n)`` in fixed-size tiles.

    ``None`` means one whole-array tile (the untiled path). A final partial
    tile covers any remainder; ``n == 0`` still yields one empty slice so
    downstream assembly produces correctly-shaped empty outputs.
    """
    if tile_size is None:
        return [slice(0, n)]
    tile_size = int(tile_size)
    if tile_size < 1:
        raise ConfigurationError(f"tile_size must be >= 1, got {tile_size}")
    if n <= 0:
        return [slice(0, 0)]
    return [slice(s, min(s + tile_size, n)) for s in range(0, n, tile_size)]


class PredictTask:
    """One ``(member, tile)`` unit of a prediction fan-out.

    A zero-argument callable returning ``model.prediction_stats(X_tile)``.
    Models are fitted and read-only, rows are independent, so tasks need no
    phase split; they pickle whenever the model does (``X_tile`` is a view
    that serialises as just the tile). ``backend_hint`` advertises the
    model's :attr:`~repro.ml.base.Classifier.predict_backend_hint`, so the
    ``"auto"`` vote routes GIL-bound members (trees) to the process pool and
    BLAS-heavy members (GPs) to threads. (GP *fits* vote ``"serial"``
    instead; see :func:`vote_backend`.)
    """

    def __init__(self, model, X):
        self.model = model
        self.X = X

    @property
    def backend_hint(self) -> str:
        return getattr(self.model, "predict_backend_hint", "thread")

    def __call__(self):
        return self.model.prediction_stats(self.X)


def predict_map(
    models: Sequence[object],
    X,
    tile_size: int | None = None,
    n_jobs: int | None = 1,
    backend: str = "auto",
    deadline: "Deadline | float | None" = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tiled, parallel prediction over fitted models — bit-identical to serial.

    Schedules one :class:`PredictTask` per ``(model, tile)`` pair through
    :func:`run_deferred` and reassembles each model's tiles in order, so the
    result equals ``[m.prediction_stats(X) for m in models]`` exactly: every
    per-row statistic the package serves (GP latent moments, tree paths,
    bagging member mixtures) is computed row-independently, and tiles are
    concatenated in input order, so neither the tile size, the pool flavour,
    nor a worker-crash recovery can change a single bit of the output. This
    is the package's only tiler.

    Parameters
    ----------
    models:
        Fitted predictors exposing ``prediction_stats``.
    X:
        ``(n, k)`` test rows, tiled along axis 0.
    tile_size:
        Rows per tile (``None`` = one tile). Besides enabling parallelism,
        this bounds per-task transient memory: a GP member touching a tile
        allocates ``O(n_train x tile_size)`` instead of ``O(n_train x n)``.
    n_jobs, backend:
        Pool request, resolved exactly like the fitting fan-out (hint-based
        ``"auto"`` vote, worker clamping, pickling fallback to threads).
        The process pool serialises each task's model per tile — fine for
        the compact packed-array models that vote for it (trees), while
        the BLAS-heavy models that would be expensive to ship vote for
        threads and are shared by reference.
    deadline:
        Optional budget (seconds or a shared
        :class:`~repro.runtime.resilience.Deadline`) for the whole serve;
        raises :class:`~repro.exceptions.DeadlineExceededError` on overrun.

    Returns
    -------
    One ``(probabilities, variances)`` pair per model.
    """
    check_backend(backend)
    models = list(models)
    X = np.asarray(X)
    slices = tile_slices(X.shape[0], tile_size)
    tasks = [PredictTask(model, X[sl]) for model in models for sl in slices]
    results = run_deferred(
        tasks, n_jobs=n_jobs, backend=backend, deadline=deadline
    )
    n_tiles = len(slices)
    if n_tiles == 1:
        return results
    per_model = [
        results[start : start + n_tiles]
        for start in range(0, len(results), n_tiles)
    ]
    return [
        (np.concatenate([p for p, __ in tiles]),
         np.concatenate([v for __, v in tiles]))
        for tiles in per_model
    ]
