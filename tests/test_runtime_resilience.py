"""Unit tests for the supervision layer: deadlines, retries, stats, fan-outs.

These cover the healthy-host behaviour of :mod:`repro.runtime.resilience`
(correctness, ordering, deadline accounting, stat plumbing). The faulty-host
behaviour — real worker crashes, degradation, kill-mid-save — lives in the
chaos suite (``tests/test_chaos.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    DataError,
    DeadlineExceededError,
)
from repro.runtime import faults, resilience
from repro.runtime.faults import FaultPlan
from repro.runtime.resilience import (
    Deadline,
    ResilienceStats,
    RetryPolicy,
    ambient_deadline,
    collect_stats,
    deadline_scope,
    record_stats,
    supervised_map,
)


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------
class TestDeadline:
    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive(self, seconds):
        with pytest.raises(ConfigurationError):
            Deadline(seconds)

    def test_remaining_counts_down(self):
        budget = Deadline(60.0)
        first = budget.remaining()
        assert 0.0 < first <= 60.0
        assert budget.remaining() <= first
        assert not budget.expired()

    def test_check_names_the_context(self):
        budget = Deadline(1e-9)
        time.sleep(0.002)
        assert budget.expired()
        with pytest.raises(DeadlineExceededError, match="at solve post 3"):
            budget.check("solve post 3")

    def test_resolve(self):
        assert Deadline.resolve(None) is None
        budget = Deadline(5.0)
        assert Deadline.resolve(budget) is budget
        fresh = Deadline.resolve(2.5)
        assert isinstance(fresh, Deadline) and fresh.seconds == 2.5

    def test_resolve_falls_back_to_ambient(self):
        with deadline_scope(5.0) as budget:
            assert Deadline.resolve(None) is budget


class TestDeadlineScope:
    def test_none_is_a_no_op(self):
        with deadline_scope(None) as budget:
            assert budget is None
            assert ambient_deadline() is None

    def test_innermost_wins_and_unwinds(self):
        assert ambient_deadline() is None
        with deadline_scope(10.0) as outer:
            assert ambient_deadline() is outer
            with deadline_scope(Deadline(1.0)) as inner:
                assert ambient_deadline() is inner
            assert ambient_deadline() is outer
        assert ambient_deadline() is None

    def test_scopes_are_thread_local(self):
        seen = []
        with deadline_scope(10.0):

            def probe():
                seen.append(ambient_deadline())

            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == [None]


# ---------------------------------------------------------------------------
# RetryPolicy and ResilienceStats
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_exponential_backoff(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.25)
        assert policy.backoff(1) == pytest.approx(0.01)
        assert policy.backoff(2) == pytest.approx(0.02)
        assert policy.backoff(3) == pytest.approx(0.04)
        assert policy.backoff(100) == pytest.approx(0.25)  # capped

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_base=0.0).backoff(5) == 0.0


class TestResilienceStats:
    def test_merge_sums_counters(self):
        a = ResilienceStats(fanouts=1, tasks=4, retries=1,
                            backends={"process": 1})
        b = ResilienceStats(fanouts=2, tasks=6, worker_deaths=3,
                            degradations=1, deadline_remaining=0.5,
                            backends={"process": 1, "serial": 1})
        a.merge(b)
        assert a.fanouts == 3 and a.tasks == 10
        assert a.retries == 1 and a.worker_deaths == 3 and a.degradations == 1
        assert a.deadline_remaining == 0.5
        assert a.backends == {"process": 2, "serial": 1}

    def test_merge_keeps_last_known_deadline_remaining(self):
        a = ResilienceStats(deadline_remaining=1.0)
        a.merge(ResilienceStats())  # other has none: keep ours
        assert a.deadline_remaining == 1.0

    def test_as_dict_round_trips_counters(self):
        stats = ResilienceStats(fanouts=2, tasks=8, pickle_fallbacks=1)
        snap = stats.as_dict()
        assert snap["fanouts"] == 2 and snap["tasks"] == 8
        assert snap["pickle_fallbacks"] == 1
        assert snap["backends"] == {}
        snap["backends"]["x"] = 1  # a copy, not the live dict
        assert stats.backends == {}

    def test_sinks_nest(self):
        with collect_stats() as outer:
            with collect_stats() as inner:
                record_stats(ResilienceStats(fanouts=1, tasks=3))
            record_stats(ResilienceStats(fanouts=1, tasks=2))
        assert inner.fanouts == 1 and inner.tasks == 3
        assert outer.fanouts == 2 and outer.tasks == 5


# ---------------------------------------------------------------------------
# supervised_map on a healthy host
# ---------------------------------------------------------------------------
def _square(x):
    return x * x


class TestSupervisedMap:
    def test_serial_matches_list_comprehension(self):
        items = list(range(10))
        assert supervised_map(_square, items) == [x * x for x in items]

    def test_thread_backend_preserves_order(self):
        items = list(range(25))
        out = supervised_map(_square, items, workers=4, backend="thread")
        assert out == [x * x for x in items]

    def test_empty_items(self):
        assert supervised_map(_square, [], workers=4, backend="thread") == []

    def test_single_item_or_worker_forces_serial(self):
        for kwargs in ({"workers": 1, "backend": "thread"},
                       {"workers": 4, "backend": "thread"}):
            with collect_stats() as stats:
                supervised_map(_square, [3], **kwargs)
            assert stats.backends == {"serial": 1}

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            supervised_map(_square, [1, 2], workers=2, backend="fork")

    def test_task_exceptions_propagate(self):
        def boom(x):
            if x == 3:
                raise DataError("task 3 is bad")
            return x

        with pytest.raises(DataError, match="task 3 is bad"):
            supervised_map(boom, list(range(8)), workers=4, backend="thread")

    def test_expired_deadline_raises_and_is_counted(self):
        budget = Deadline(0.001)
        time.sleep(0.005)
        with collect_stats() as stats:
            with pytest.raises(DeadlineExceededError):
                supervised_map(
                    _square, list(range(4)), workers=2, backend="thread",
                    deadline=budget,
                )
        assert stats.deadline_exceeded == 1
        assert stats.deadline_remaining is not None
        assert stats.deadline_remaining <= 0.0

    def test_ambient_deadline_is_picked_up(self):
        with deadline_scope(0.001):
            time.sleep(0.005)
            with pytest.raises(DeadlineExceededError):
                supervised_map(_square, list(range(4)))

    def test_generous_deadline_is_harmless(self):
        out = supervised_map(
            _square, list(range(6)), workers=3, backend="thread",
            deadline=60.0,
        )
        assert out == [x * x for x in range(6)]

    def test_stats_record_fanout_shape(self):
        with collect_stats() as stats:
            supervised_map(_square, list(range(7)), workers=3,
                           backend="thread")
        assert stats.fanouts == 1 and stats.tasks == 7
        assert stats.backends == {"thread": 1}
        assert stats.worker_deaths == 0 and stats.retries == 0


# ---------------------------------------------------------------------------
# The warm process pool
# ---------------------------------------------------------------------------
def _pid(_item):
    return os.getpid()


def _nap_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _live_workers() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class TestWarmProcessPool:
    def test_successive_fanouts_share_the_workers(self):
        first = supervised_map(_pid, range(6), workers=2, backend="process")
        pool = _live_workers()
        second = supervised_map(_pid, range(6), workers=2, backend="process")
        assert os.getpid() not in first
        assert set(first) | set(second) <= pool
        assert not _live_workers() - pool  # no worker was started for it

    def test_a_crash_retires_the_pool(self, tmp_path):
        plan = FaultPlan(scratch=str(tmp_path), crash_once=(1,))
        with faults.active(plan):
            with collect_stats() as crashed:
                got = supervised_map(
                    _square, range(4), workers=2, backend="process"
                )
            with collect_stats() as after:
                again = supervised_map(
                    _square, range(4), workers=2, backend="process"
                )
        assert got == again == [x * x for x in range(4)]
        assert crashed.worker_deaths >= 1
        # a broken pool kept warm would fail the next submit
        assert after.worker_deaths == 0 and after.retries == 0

    def test_an_abandoned_pass_retires_the_pool(self):
        supervised_map(_pid, range(2), workers=2, backend="process")
        busy = _live_workers()
        with pytest.raises(DeadlineExceededError):
            supervised_map(
                _nap_pid, [1.0, 1.0], workers=2, backend="process",
                deadline=0.2,
            )
        # the stragglers keep their workers; the next fan-out gets new ones
        fresh = supervised_map(_pid, range(2), workers=2, backend="process")
        assert not set(fresh) & busy

    def test_concurrent_fanouts_across_pool_changes(self):
        errors: list[BaseException] = []

        def hammer(workers: int) -> None:
            try:
                for __ in range(3):
                    got = supervised_map(
                        _square, range(6), workers=workers,
                        backend="process",
                    )
                    assert got == [x * x for x in range(6)]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        # alternating worker counts retire the pool under other borrowers
        threads = [
            threading.Thread(target=hammer, args=(2 + i % 2,))
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # a lost borrow/give-back update would leave a count behind
        assert resilience._process_pools._borrowers == {}

    def test_forked_child_starts_its_own_pool(self):
        supervised_map(_pid, range(2), workers=2, backend="process")
        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                os.close(read_end)
                got = supervised_map(
                    _pid, range(4), workers=2, backend="process"
                )
                os.write(write_end, json.dumps(sorted(set(got))).encode())
                code = 0
            finally:
                # no interpreter exit, so nothing shuts the pool down
                os._exit(code)
        os.close(write_end)
        __, status = os.waitpid(child, 0)
        # one read, not read-to-EOF: the child's workers inherited the pipe
        orphans = json.loads(os.read(read_end, 4096) or b"[]")
        os.close(read_end)
        assert os.waitstatus_to_exitcode(status) == 0
        assert orphans and child not in orphans
        # the child's workers notice their owner is gone and exit
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in orphans):
            assert time.monotonic() < deadline, (
                f"workers {orphans} outlived their owner"
            )
            time.sleep(0.1)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(") ", 1)[1][0] != "Z"
    except (OSError, IndexError):
        return False
