"""Supervised fan-out: worker crashes, deadlines, and degradation ladders.

The pool fan-outs of :mod:`repro.runtime.parallel` historically dispatched
through bare ``pool.map``: one OOM-killed process worker aborted the entire
fan-out, nothing could say "this request has a deadline", and a failure left
no trace of what degraded. :func:`supervised_map` replaces that dispatch with
per-task futures under a supervisor whose contract is "never wrong, only
slow":

* **Crash recovery.** A dead worker (``BrokenProcessPool``) fails only the
  tasks that had not completed; the supervisor re-runs exactly the missing
  ones in a fresh pool, with bounded retries and a deterministic exponential
  backoff. Tasks are pure and idempotent by the package-wide two-phase
  contract, so a retry cannot change a bit — recovered results are
  bit-identical to a fault-free serial run.
* **Degradation ladder.** When retries on a rung are exhausted the fan-out
  degrades ``process -> thread -> serial`` and keeps going; the serial rung
  cannot crash, so a supervised fan-out only fails with the *task's own*
  exception (task bugs always propagate, never retried — a deterministic
  task that raised once would raise again), with
  :class:`~repro.exceptions.DeadlineExceededError`, or — when degradation is
  disabled — with :class:`~repro.exceptions.WorkerCrashError`.
* **Deadlines.** A :class:`Deadline` is a monotonic-clock budget checked
  between serial tasks and while awaiting futures. It can be passed
  per-call or installed ambiently for the current thread with
  :func:`deadline_scope`, so a request handler can bound *every* fan-out a
  model pass performs without threading a parameter through the predictor
  stack. Expiry cancels unstarted tasks and abandons the pool (running
  native code cannot be interrupted; it finishes in the background).
* **Accounting.** Failures and degradations are recorded, not silent: every
  fan-out folds a :class:`ResilienceStats` into the sinks installed with
  :func:`collect_stats`, which is how ``RiskMapService`` / ``PlanService``
  accumulate per-service counters for the future daemon's ``/stats``.
* **One warm process pool.** Starting a process pool costs a fork per
  worker and a join at shutdown, 15-25 ms on a 2-core host: as much as a
  small DTB ensemble fit gains by fanning out. Process fan-outs therefore
  borrow one shared pool (:class:`_ProcessPools`) instead of each starting
  their own; a pool that a fan-out leaves unhealthy (a dead worker, or
  stragglers abandoned at a deadline) is retired, and a retry borrows a
  fresh one. Thread pools stay per-attempt: they start in microseconds.

Faults are injected — deterministically, for the chaos suite — through the
hooks of :mod:`repro.runtime.faults`; every hook is a no-op in production.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TypeVar

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    WorkerCrashError,
)
from repro.runtime import faults
from repro.runtime.concurrency import thread_shared

T = TypeVar("T")
R = TypeVar("R")

#: Degradation order; a fan-out starts at its backend's rung and falls right.
LADDER = ("process", "thread", "serial")

_MISSING = object()


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
class Deadline:
    """A monotonic-clock budget for one request (shared by its fan-outs)."""

    __slots__ = ("seconds", "_expires_at")

    def __init__(self, seconds: float):
        seconds = float(seconds)
        if not seconds > 0.0:
            raise ConfigurationError(
                f"deadline must be > 0 seconds, got {seconds}"
            )
        self.seconds = seconds
        self._expires_at = time.monotonic() + seconds

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, context: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        rest = self.remaining()
        if rest <= 0.0:
            raise DeadlineExceededError(
                f"deadline of {self.seconds:.3f}s exceeded by {-rest:.3f}s "
                f"at {context}"
            )

    @classmethod
    def resolve(cls, value) -> "Deadline | None":
        """Normalise a deadline argument.

        ``None`` falls back to the thread's ambient :func:`deadline_scope`
        (itself usually ``None``); a number becomes a fresh budget starting
        now; an existing :class:`Deadline` is shared as-is.
        """
        if value is None:
            return ambient_deadline()
        if isinstance(value, Deadline):
            return value
        return cls(value)


_LOCAL = threading.local()


def _deadline_stack() -> list:
    try:
        return _LOCAL.deadlines
    except AttributeError:
        _LOCAL.deadlines = []
        return _LOCAL.deadlines


def _sink_stack() -> list:
    try:
        return _LOCAL.sinks
    except AttributeError:
        _LOCAL.sinks = []
        return _LOCAL.sinks


@contextmanager
def deadline_scope(deadline: "Deadline | float | None"):
    """Ambient deadline for every fan-out this thread starts in the block.

    ``None`` is a no-op scope, so call sites can pass an optional user
    deadline straight through. Scopes nest; the innermost wins (fan-outs
    resolve the top of the stack).
    """
    if deadline is None:
        yield None
        return
    deadline = deadline if isinstance(deadline, Deadline) else Deadline(deadline)
    stack = _deadline_stack()
    stack.append(deadline)
    try:
        yield deadline
    finally:
        stack.pop()


def ambient_deadline() -> "Deadline | None":
    """The innermost active :func:`deadline_scope` of this thread, if any."""
    stack = _deadline_stack()
    return stack[-1] if stack else None


# ---------------------------------------------------------------------------
# Retry policy and accounting
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised fan-out responds to pool-infrastructure failures.

    Only infrastructure failures (dead workers) consume this budget;
    task-raised exceptions always propagate immediately. The backoff is
    deterministic — ``backoff_base * 2**(attempt-1)`` capped at
    ``backoff_cap`` — so recovery timing is reproducible too.
    """

    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    #: Fall down the process -> thread -> serial ladder when retries on a
    #: rung run out; with False the fan-out raises WorkerCrashError instead.
    degrade: bool = True

    def backoff(self, attempt: int) -> float:
        if self.backoff_base <= 0.0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2.0 ** (attempt - 1))


@dataclass
class ResilienceStats:
    """What one (or many, merged) supervised fan-outs survived."""

    fanouts: int = 0
    tasks: int = 0
    retries: int = 0
    worker_deaths: int = 0
    degradations: int = 0
    pickle_fallbacks: int = 0
    deadline_exceeded: int = 0
    #: Remaining budget when the most recent deadlined fan-out finished.
    deadline_remaining: float | None = None
    #: Completion rung -> fan-out count (e.g. {"process": 3, "serial": 1}).
    backends: dict = field(default_factory=dict)

    def merge(self, other: "ResilienceStats") -> "ResilienceStats":
        self.fanouts += other.fanouts
        self.tasks += other.tasks
        self.retries += other.retries
        self.worker_deaths += other.worker_deaths
        self.degradations += other.degradations
        self.pickle_fallbacks += other.pickle_fallbacks
        self.deadline_exceeded += other.deadline_exceeded
        if other.deadline_remaining is not None:
            self.deadline_remaining = other.deadline_remaining
        for rung, count in other.backends.items():
            self.backends[rung] = self.backends.get(rung, 0) + count
        return self

    def as_dict(self) -> dict:
        """A json-able snapshot (the daemon's ``/stats`` payload shape)."""
        return {
            "fanouts": self.fanouts,
            "tasks": self.tasks,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "degradations": self.degradations,
            "pickle_fallbacks": self.pickle_fallbacks,
            "deadline_exceeded": self.deadline_exceeded,
            "deadline_remaining": self.deadline_remaining,
            "backends": dict(self.backends),
        }


@contextmanager
def collect_stats():
    """Collect the stats of every fan-out this thread runs in the block.

    Sinks nest (an outer request scope and an inner service scope both see
    the same fan-outs); each fan-out merges itself into every active sink.
    """
    sink = ResilienceStats()
    stack = _sink_stack()
    stack.append(sink)
    try:
        yield sink
    finally:
        # pop by position, not value: ResilienceStats is a dataclass, so
        # list.remove would match the first sink with *equal counters*.
        stack.pop()


def record_stats(stats: ResilienceStats) -> None:
    """Fold ``stats`` into every active :func:`collect_stats` sink."""
    for sink in _sink_stack():
        sink.merge(stats)


# ---------------------------------------------------------------------------
# The warm process pool
# ---------------------------------------------------------------------------
def _exit_with_owner(owner: int) -> None:
    """Pool-worker initializer: exit once the process that owns the pool dies.

    A warm worker outlives the fan-outs it serves, so an owner killed
    before it shuts the pool down (SIGKILL, ``os._exit``) would leave the
    worker blocked on its call queue for good. A daemon thread watches for
    the re-parenting that follows the owner's death.
    """

    def watch() -> None:
        while os.getppid() == owner:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=watch, name="owner-watch", daemon=True).start()


@thread_shared
class _ProcessPools:
    """The process pool that successive fan-outs borrow and give back.

    The current pool is keyed by worker count and the fault-plan variable
    (workers read the plan from the environment they were forked with).
    Borrowing under another key, or giving a pool back unhealthy, retires
    the current pool; a retired pool shuts down once its last borrower
    gives it back, so no fan-out loses a pool under its feet.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._key: tuple | None = None
        self._pool: ProcessPoolExecutor | None = None
        #: Pool -> fan-outs holding it; a pool nobody holds has no entry.
        self._borrowers: dict[ProcessPoolExecutor, int] = {}

    def borrow(self, workers: int) -> ProcessPoolExecutor:
        key = (workers, os.environ.get(faults.ENV_VAR))
        stale = None
        with self._lock:
            if self._pool is None or self._key != key:
                if self._pool not in self._borrowers:
                    stale = self._pool  # idle: shut it down now
                self._pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_exit_with_owner,
                    initargs=(os.getpid(),),
                )
                self._key = key
            pool = self._pool
            self._borrowers[pool] = self._borrowers.get(pool, 0) + 1
        if stale is not None:
            stale.shutdown(wait=False)
        return pool

    def give_back(
        self, pool: ProcessPoolExecutor, healthy: bool, wait: bool
    ) -> None:
        with self._lock:
            if not healthy and pool is self._pool:
                self._pool = None
                self._key = None
            left = self._borrowers.pop(pool) - 1
            if left:
                self._borrowers[pool] = left
            if left or pool is self._pool:
                return
        pool.shutdown(wait=wait)


_process_pools = _ProcessPools()


def _forget_parent_pools() -> None:
    # A forked child inherits the parent's pool objects (and possibly a
    # held lock) but not its workers: start from an empty registry.
    global _process_pools
    _process_pools = _ProcessPools()


os.register_at_fork(after_in_child=_forget_parent_pools)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------
def _guarded(fn, item, index: int):
    """One supervised task (module-level so process pools can pickle it)."""
    faults.on_task(index)
    return fn(item)


@dataclass
class _Pass:
    """What one pool pass saw, for the code that releases its pool."""

    crashed: bool = False
    abandoned: bool = False
    settled: bool = False


def _pooled_attempt(
    rung: str,
    fn,
    items: Sequence,
    indices: Sequence[int],
    workers: int,
    deadline: Deadline | None,
    results: list,
    label: str,
) -> bool:
    """One pass of a pool over the missing tasks; fills ``results``.

    A thread rung starts and shuts down its own pool. A process rung
    borrows the warm pool and gives it back, retiring it unless every task
    of the pass settled on live workers. Returns ``True`` when the pool
    infrastructure broke (a worker died) and some tasks are still missing —
    the supervisor's cue to retry them. Task-raised exceptions and deadline
    expiry propagate unchanged.
    """
    seen = _Pass()
    if rung == "thread":
        pool = ThreadPoolExecutor(max_workers=min(workers, len(indices)))
        try:
            return _run_pass(
                pool, seen, fn, items, indices, deadline, results, label
            )
        finally:
            pool.shutdown(wait=not seen.abandoned, cancel_futures=True)
    shared = _process_pools.borrow(workers)
    try:
        return _run_pass(
            shared, seen, fn, items, indices, deadline, results, label
        )
    finally:
        _process_pools.give_back(
            shared, healthy=seen.settled and not seen.crashed,
            wait=not seen.abandoned,
        )


def _run_pass(
    pool,
    seen: _Pass,
    fn,
    items: Sequence,
    indices: Sequence[int],
    deadline: Deadline | None,
    results: list,
    label: str,
) -> bool:
    """Submit ``indices`` to ``pool`` and collect them (see above)."""
    task_error: BaseException | None = None
    futures: dict = {}
    try:
        try:
            for i in indices:
                futures[pool.submit(_guarded, fn, items[i], i)] = i
        except BrokenExecutor:
            seen.crashed = True  # broke mid-submission; drain what was queued
        pending = set(futures)
        while pending:
            if deadline is not None and deadline.expired():
                seen.abandoned = True
                deadline.check(label)
            timeout = None if deadline is None else max(0.0, deadline.remaining())
            done, pending = futures_wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done and deadline is not None and deadline.expired():
                seen.abandoned = True
                deadline.check(label)
            for future in done:
                if future.cancelled():
                    continue
                error = future.exception()
                if error is None:
                    results[futures[future]] = future.result()
                elif isinstance(error, BrokenExecutor):
                    seen.crashed = True
                elif task_error is None:
                    # First task-raised error: stop the fan-out, but DRAIN
                    # the remaining futures before raising — shutting an
                    # executor down while its feeder thread is still
                    # pickling work items can deadlock the final join
                    # (observed on CPython 3.11). Unstarted tasks are
                    # cancelled; once everything has resolved, shutdown is
                    # an ordinary quiet join.
                    task_error = error
                    for undone in pending:
                        undone.cancel()
        seen.settled = True
        if task_error is not None:
            raise task_error
        return seen.crashed
    except BaseException:
        # An abandoned pass (deadline) cancels its unstarted tasks and
        # leaves running ones to finish in the background — native code
        # cannot be interrupted mid-flight.
        for future in futures:
            future.cancel()
        raise


def supervised_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int = 1,
    backend: str = "thread",
    deadline: "Deadline | float | None" = None,
    policy: RetryPolicy | None = None,
    label: str = "fan-out",
) -> list[R]:
    """``[fn(x) for x in items]`` under supervision — see module docs.

    Results come back in input order and bit-identical to a serial run in
    every recovery path (tasks are pure and idempotent by the two-phase
    contract). ``backend`` is the starting rung: ``"process"``,
    ``"thread"``, or ``"serial"`` (forced when ``workers <= 1`` or there are
    fewer than two items). ``deadline`` accepts seconds, a shared
    :class:`Deadline`, or ``None`` (which falls back to the thread's
    ambient :func:`deadline_scope`).
    """
    items = list(items)
    if policy is None:
        policy = RetryPolicy()
    deadline = Deadline.resolve(deadline)
    n = len(items)
    if workers <= 1 or n <= 1:
        backend = "serial"
    if backend not in LADDER:
        raise ConfigurationError(
            f"supervised_map backend must be one of {LADDER}, got '{backend}'"
        )
    stats = ResilienceStats(fanouts=1, tasks=n)
    results: list = [_MISSING] * n
    completed_on = backend
    try:
        rungs = LADDER[LADDER.index(backend):]
        for rung_number, rung in enumerate(rungs):
            missing = [i for i in range(n) if results[i] is _MISSING]
            if not missing:
                break
            completed_on = rung
            if rung == "serial":
                for i in missing:
                    if deadline is not None:
                        deadline.check(f"{label} (task {i})")
                    results[i] = _guarded(fn, items[i], i)
                break
            attempt = 0
            while missing:
                if deadline is not None:
                    deadline.check(label)
                crashed = _pooled_attempt(
                    rung, fn, items, missing, workers, deadline, results,
                    label,
                )
                missing = [i for i in missing if results[i] is _MISSING]
                if not missing:
                    break
                if not crashed:
                    crashed = True  # defensive: missing results ARE a failure
                stats.worker_deaths += 1
                if attempt >= policy.max_retries:
                    if policy.degrade and rung_number + 1 < len(rungs):
                        stats.degradations += 1
                        break  # fall to the next rung with only the missing
                    raise WorkerCrashError(
                        f"{label}: {len(missing)} task(s) lost to worker "
                        f"crashes on the {rung} pool after "
                        f"{attempt + 1} attempt(s), and degradation is "
                        "disabled"
                    )
                attempt += 1
                stats.retries += 1
                pause = policy.backoff(attempt)
                if pause > 0.0:
                    time.sleep(pause)
        stats.backends[completed_on] = stats.backends.get(completed_on, 0) + 1
        return list(results)
    except DeadlineExceededError:
        stats.deadline_exceeded += 1
        raise
    finally:
        if deadline is not None:
            stats.deadline_remaining = deadline.remaining()
        record_stats(stats)
