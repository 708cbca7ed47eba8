"""Tests for the thread/process fitting backends in repro.runtime.parallel.

The contract under test: any backend (serial, thread pool, process pool)
produces bit-identical models, because all shared randomness is drawn
serially in phase 1 of the two-phase fit protocol; and backend selection
("auto") routes GIL-bound work to processes while falling back safely on
anything unpicklable.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import PawsPredictor
from repro.core.ensemble import IWareEnsemble
from repro.data import MFNP, generate_dataset
from repro.exceptions import ConfigurationError
from repro.ml import DecisionTreeClassifier
from repro.ml.bagging import BaggingClassifier
from repro.ml.base import DeferredFit, PrefittedTask
from repro.runtime.parallel import (
    BACKENDS,
    check_backend,
    effective_cpu_count,
    parallel_map,
    preferred_backend,
    resolve_n_jobs,
    run_deferred,
    vote_backend,
)
from repro.runtime.resilience import collect_stats
from tests.conftest import make_blobs


def _square(x: int) -> int:
    return x * x


def _module_level_tree_factory() -> DecisionTreeClassifier:
    return DecisionTreeClassifier(max_depth=3, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def tiny_dataset():
    """A small but realistic training dataset (half-scale MFNP park)."""
    data = generate_dataset(MFNP.scaled(0.5), seed=0)
    return data.dataset.split_by_test_year(4).train


class TestBackendsPlumbing:
    def test_check_backend_accepts_known(self):
        for backend in BACKENDS:
            assert check_backend(backend) == backend

    def test_check_backend_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            check_backend("greenlet")

    def test_effective_cpu_count_positive(self):
        assert effective_cpu_count() >= 1

    def test_parallel_map_rejects_auto(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, [1, 2], n_jobs=2, backend="auto")

    def test_parallel_map_process_backend(self):
        assert parallel_map(_square, range(8), n_jobs=4, backend="process") == [
            x * x for x in range(8)
        ]

    def test_parallel_map_thread_backend(self):
        assert parallel_map(_square, range(8), n_jobs=4, backend="thread") == [
            x * x for x in range(8)
        ]

    def test_resolve_n_jobs_unchanged(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        with pytest.raises(ConfigurationError):
            resolve_n_jobs(0)


class TestBackendHints:
    def test_tree_deferred_fit_hints_process(self, rng):
        X, y = make_blobs(rng)
        task = DecisionTreeClassifier(rng=rng).fit_deferred(X, y)
        assert isinstance(task, DeferredFit)
        assert task.backend_hint == "process"

    def test_prefitted_task_abstains_from_vote(self, rng):
        X, y = make_blobs(rng)
        model = DecisionTreeClassifier(rng=rng).fit(X, y)
        assert PrefittedTask(model).backend_hint == "any"

    def test_preferred_backend_requires_unanimity(self):
        class P:
            backend_hint = "process"

        class T:
            backend_hint = "thread"

        class A:
            backend_hint = "any"

        assert preferred_backend([P(), P()]) == "process"
        assert preferred_backend([P(), T()]) == "thread"
        # Trivial no-op tasks (prefitted fallbacks) do not get a vote, so
        # one degenerate threshold subset cannot drag a tree fan-out back
        # to threads.
        assert preferred_backend([P(), A()]) == "process"
        assert preferred_backend([A(), A()]) == "thread"
        assert preferred_backend([]) == "thread"

        class S:
            backend_hint = "serial"

        # GP fits keep the cores busy through BLAS: a unanimous serial vote
        # runs them in the caller's thread; any dissent gets threads.
        assert preferred_backend([S(), S()]) == "serial"
        assert preferred_backend([S(), A()]) == "serial"
        assert preferred_backend([S(), T()]) == "thread"
        assert preferred_backend([S(), P()]) == "thread"
        assert vote_backend(["serial", "any"]) == "serial"
        assert vote_backend(["any"]) == "any"

    def test_tree_bagging_phase2_hints_process(self, rng):
        X, y = make_blobs(rng)
        ensemble = BaggingClassifier(
            lambda: DecisionTreeClassifier(rng=np.random.default_rng(0)),
            n_estimators=3,
            rng=rng,
        )
        task = ensemble.fit_deferred(X, y)
        assert task.backend_hint == "process"

    def test_constant_fallback_member_does_not_poison_vote(self):
        """A single-class bootstrap's ConstantClassifier fallback abstains,
        so a tree bagging fit still routes to the process pool."""
        rng = np.random.default_rng(0)
        X = rng.random((30, 3))
        y = np.zeros(30, dtype=np.int64)
        y[:2] = 1  # tiny positive class: some bootstraps go single-class
        ensemble = BaggingClassifier(
            lambda: DecisionTreeClassifier(rng=np.random.default_rng(1)),
            n_estimators=30,
            rng=np.random.default_rng(5),
        )
        task = ensemble.fit_deferred(X, y)
        from repro.ml.base import ConstantClassifier

        members = [member for member, __, __ in task.tasks]
        assert any(isinstance(m, ConstantClassifier) for m in members)
        assert task.backend_hint == "process"

    def test_member_fits_auto_falls_back_on_unpicklable(self, rng, monkeypatch):
        """A bagging auto fit whose members cannot pickle (locally defined
        class) degrades to the thread pool instead of erroring, even on a
        multi-core machine (simulated via the cpu-count clamp)."""
        import repro.runtime.parallel as par

        monkeypatch.setattr(par, "effective_cpu_count", lambda: 4)

        class LocalTree(DecisionTreeClassifier):
            pass

        X, y = make_blobs(rng)
        ensemble = BaggingClassifier(
            lambda: LocalTree(max_depth=3, rng=np.random.default_rng(0)),
            n_estimators=3,
            rng=np.random.default_rng(1),
            n_jobs=4,
        )
        ensemble.fit(X, y)  # must not raise despite the process hint
        assert len(ensemble.estimators_) == 3

    def test_picklable_factory_survives_pickling(self, rng):
        """Ensembles with module-level factories stay refittable after
        pickling/deepcopy; only unpicklable closures are stripped."""
        import copy

        X, y = make_blobs(rng)
        ensemble = BaggingClassifier(
            _module_level_tree_factory, n_estimators=2,
            rng=np.random.default_rng(0),
        )
        clone = pickle.loads(pickle.dumps(ensemble))
        clone.fit(X, y)  # must not raise "cannot be refit"
        assert len(clone.estimators_) == 2
        copied = copy.deepcopy(ensemble)
        copied.fit(X, y)
        assert len(copied.estimators_) == 2

    def test_run_deferred_falls_back_on_unpicklable(self, rng):
        X, y = make_blobs(rng)
        fitted = DecisionTreeClassifier(rng=rng).fit(X, y)

        class Unpicklable:
            backend_hint = "process"

            def __init__(self):
                self.closure = lambda: fitted  # lambdas never pickle

            def __call__(self):
                return self.closure()

        tasks = [Unpicklable() for _ in range(4)]
        with pytest.raises(Exception):
            pickle.dumps(tasks)
        results = run_deferred(tasks, n_jobs=2, backend="auto")
        assert all(r is fitted for r in results)


class TestBitIdenticalAcrossBackends:
    def test_bagging_process_backend_bit_identical(self, rng):
        X, y = make_blobs(rng, n_per_class=60)

        def factory(seed):
            master = np.random.default_rng(seed)

            def base():
                child = np.random.default_rng(int(master.integers(2**31 - 1)))
                return DecisionTreeClassifier(
                    max_depth=6, max_features="sqrt", rng=child
                )

            return base

        serial = BaggingClassifier(
            factory(7), n_estimators=4, rng=np.random.default_rng(1), n_jobs=1
        ).fit(X, y)
        pooled = BaggingClassifier(
            factory(7),
            n_estimators=4,
            rng=np.random.default_rng(1),
            n_jobs=4,
            backend="process",
        ).fit(X, y)
        np.testing.assert_array_equal(
            serial.predict_proba(X), pooled.predict_proba(X)
        )
        np.testing.assert_array_equal(serial.inbag_counts_, pooled.inbag_counts_)

    def test_dtb_predictor_process_backend_bit_identical(self, tiny_dataset):
        serial = PawsPredictor(
            model="dtb", iware=True, n_classifiers=3, n_estimators=2, seed=5,
            n_jobs=1,
        ).fit(tiny_dataset)
        pooled = PawsPredictor(
            model="dtb", iware=True, n_classifiers=3, n_estimators=2, seed=5,
            n_jobs=2, backend="process",
        ).fit(tiny_dataset)
        X = tiny_dataset.feature_matrix
        np.testing.assert_array_equal(
            serial.predict_proba(X), pooled.predict_proba(X)
        )

    def test_iware_auto_backend_bit_identical(self, tiny_dataset):
        def factory_for(seed):
            master = np.random.default_rng(seed)

            def weak():
                child = np.random.default_rng(int(master.integers(2**31 - 1)))
                return DecisionTreeClassifier(max_depth=5, rng=child)

            return weak

        serial = IWareEnsemble(
            factory_for(3), n_classifiers=3, rng=np.random.default_rng(0),
            n_jobs=1,
        ).fit(tiny_dataset)
        auto = IWareEnsemble(
            factory_for(3), n_classifiers=3, rng=np.random.default_rng(0),
            n_jobs=2, backend="auto",
        ).fit(tiny_dataset)
        X = tiny_dataset.feature_matrix
        np.testing.assert_array_equal(
            serial.predict_proba(X), auto.predict_proba(X)
        )


class TestFitFanOutRungs:
    """Which rung each auto fit fan-out finishes on (counts, no timing)."""

    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        # Pin the clamp so the pooled cases pool on any host.
        import repro.runtime.parallel as par

        monkeypatch.setattr(par, "effective_cpu_count", lambda: 4)

    @staticmethod
    def _fit(tiny_dataset, model="gpb", n_jobs=1, backend="auto", iware=True):
        with collect_stats() as stats:
            predictor = PawsPredictor(
                model=model, iware=iware, n_classifiers=3, n_estimators=2,
                seed=5, n_jobs=n_jobs, backend=backend,
            ).fit(tiny_dataset)
        return predictor, stats

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_auto_gp_fits_run_serially(self, tiny_dataset, n_jobs):
        __, stats = self._fit(tiny_dataset, n_jobs=n_jobs)
        assert set(stats.backends) == {"serial"}
        __, flat = self._fit(tiny_dataset, n_jobs=n_jobs, iware=False)
        assert set(flat.backends) == {"serial"}

    def test_gp_models_bit_identical_across_n_jobs(self, tiny_dataset):
        X = tiny_dataset.feature_matrix
        fitted = [self._fit(tiny_dataset, n_jobs=n)[0] for n in (1, 2, 4)]
        fitted.append(self._fit(tiny_dataset, n_jobs=2, backend="thread")[0])
        reference = fitted[0].member_pass(X)
        for predictor in fitted[1:]:
            np.testing.assert_array_equal(
                predictor._ensemble.weights_, fitted[0]._ensemble.weights_
            )
            for got, expected in zip(predictor.member_pass(X), reference):
                np.testing.assert_array_equal(got, expected)

    def test_auto_tree_fits_still_use_processes(self, tiny_dataset):
        __, stats = self._fit(tiny_dataset, model="dtb", n_jobs=2)
        assert stats.backends.get("process", 0) >= 1
        assert "thread" not in stats.backends

    def test_explicit_thread_backend_is_honoured(self, tiny_dataset):
        __, stats = self._fit(tiny_dataset, n_jobs=2, backend="thread")
        assert stats.backends.get("thread", 0) >= 1


class TestPredictorBackendConfig:
    def test_backend_validated(self):
        with pytest.raises(ConfigurationError):
            PawsPredictor(backend="gevent")

    def test_backend_persisted_in_manifest(self, tiny_dataset, tmp_path):
        fitted = PawsPredictor(
            model="dtb", iware=False, n_estimators=2, seed=0,
            backend="process",
        ).fit(tiny_dataset)
        fitted.save(tmp_path / "model")
        loaded = PawsPredictor.load(tmp_path / "model")
        assert loaded.backend == "process"
        X = tiny_dataset.feature_matrix
        np.testing.assert_array_equal(
            fitted.predict_proba(X), loaded.predict_proba(X)
        )
