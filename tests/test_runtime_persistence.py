"""Model persistence round-trips: save() -> load() -> identical predictions.

The serving contract is that a persisted model answers every prediction
query exactly like the instance it was saved from — for all three
weak-learner families, with and without iWare-E, down to the raw classifier
layer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import IWareEnsemble, PawsPredictor, make_weak_learner
from repro.data import MFNP, generate_dataset
from repro.exceptions import (
    ConfigurationError,
    NotFittedError,
    PersistenceError,
)
from repro.ml import (
    BaggingClassifier,
    BalancedBaggingClassifier,
    DecisionTreeClassifier,
    GaussianProcessClassifier,
    LinearSVMClassifier,
    LogisticRegression,
    PUWeightedLogisticRegression,
)
from repro.ml.base import ConstantClassifier

from tests.conftest import make_blobs


@pytest.fixture(scope="module")
def park_split():
    data = generate_dataset(MFNP.scaled(0.4), seed=0)
    return data.dataset.split_by_test_year(4)


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(7)
    return make_blobs(rng, n_per_class=40, n_features=3)


# ---------------------------------------------------------------------------
# Raw classifiers
# ---------------------------------------------------------------------------
class TestClassifierRoundTrips:
    def assert_round_trip(self, model, X, tmp_path, check_variance=False):
        path = tmp_path / "model"
        model.save(path)
        loaded = type(model).load(path)
        np.testing.assert_array_equal(
            loaded.predict_proba(X), model.predict_proba(X)
        )
        if check_variance:
            np.testing.assert_array_equal(
                loaded.predict_variance(X), model.predict_variance(X)
            )
        return loaded

    def test_constant(self, blobs, tmp_path):
        X, y = blobs
        model = ConstantClassifier().fit(X, y)
        self.assert_round_trip(model, X, tmp_path)

    def test_tree(self, blobs, tmp_path):
        X, y = blobs
        model = DecisionTreeClassifier(
            max_depth=5, max_features="sqrt", rng=np.random.default_rng(0)
        ).fit(X, y)
        loaded = self.assert_round_trip(model, X, tmp_path)
        assert loaded.n_leaves == model.n_leaves
        assert loaded.depth == model.depth

    def test_svm(self, blobs, tmp_path):
        X, y = blobs
        model = LinearSVMClassifier(rng=np.random.default_rng(0)).fit(X, y)
        loaded = self.assert_round_trip(model, X, tmp_path)
        np.testing.assert_array_equal(
            loaded.decision_function(X), model.decision_function(X)
        )

    def test_gp(self, blobs, tmp_path):
        X, y = blobs
        model = GaussianProcessClassifier(
            max_points=60, rng=np.random.default_rng(0)
        ).fit(X, y)
        self.assert_round_trip(model, X, tmp_path, check_variance=True)

    def test_logistic(self, blobs, tmp_path):
        X, y = blobs
        model = LogisticRegression(l2=0.5).fit(X, y)
        self.assert_round_trip(model, X, tmp_path)

    def test_pu_logistic(self, blobs, tmp_path):
        X, y = blobs
        effort = np.abs(X[:, -1]) + 0.1
        model = PUWeightedLogisticRegression().fit(X, y, effort=effort)
        self.assert_round_trip(model, X, tmp_path)

    @pytest.mark.parametrize("balanced", [False, True])
    def test_bagging(self, blobs, tmp_path, balanced):
        X, y = blobs
        rng = np.random.default_rng(3)
        factory = lambda: DecisionTreeClassifier(  # noqa: E731
            max_depth=4, rng=np.random.default_rng(int(rng.integers(2**31)))
        )
        cls = BalancedBaggingClassifier if balanced else BaggingClassifier
        model = cls(factory, n_estimators=3, rng=np.random.default_rng(5)).fit(X, y)
        loaded = self.assert_round_trip(model, X, tmp_path, check_variance=True)
        np.testing.assert_array_equal(loaded.inbag_counts_, model.inbag_counts_)
        np.testing.assert_array_equal(
            loaded.prediction_stats(X)[1], model.prediction_stats(X)[1]
        )

    def test_loaded_bagging_refuses_refit(self, blobs, tmp_path):
        X, y = blobs
        rng = np.random.default_rng(3)
        factory = lambda: DecisionTreeClassifier(  # noqa: E731
            max_depth=4, rng=np.random.default_rng(int(rng.integers(2**31)))
        )
        model = BaggingClassifier(factory, n_estimators=2).fit(X, y)
        model.save(tmp_path / "m")
        loaded = BaggingClassifier.load(tmp_path / "m")
        with pytest.raises(ConfigurationError):
            loaded.fit(X, y)


# ---------------------------------------------------------------------------
# iWare-E ensembles and the predictor facade
# ---------------------------------------------------------------------------
class TestEnsembleRoundTrip:
    def test_iware_ensemble(self, park_split, tmp_path):
        factory = make_weak_learner(
            "dtb", rng=np.random.default_rng(11), n_estimators=2
        )
        ensemble = IWareEnsemble(
            factory, n_classifiers=4, rng=np.random.default_rng(12)
        ).fit(park_split.train)
        ensemble.save(tmp_path / "ens")
        loaded = IWareEnsemble.load(tmp_path / "ens")
        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            loaded.predict_proba(X), ensemble.predict_proba(X)
        )
        np.testing.assert_array_equal(
            loaded.predict_proba(X, effort=2.0),
            ensemble.predict_proba(X, effort=2.0),
        )
        np.testing.assert_array_equal(
            loaded.predict_variance(X, effort=2.0),
            ensemble.predict_variance(X, effort=2.0),
        )
        np.testing.assert_array_equal(loaded.thresholds_, ensemble.thresholds_)
        np.testing.assert_array_equal(loaded.weights_, ensemble.weights_)

    def test_loaded_ensemble_refuses_refit(self, park_split, tmp_path):
        factory = make_weak_learner(
            "dtb", rng=np.random.default_rng(11), n_estimators=2
        )
        ensemble = IWareEnsemble(
            factory, n_classifiers=3, rng=np.random.default_rng(12)
        ).fit(park_split.train)
        ensemble.save(tmp_path / "ens")
        loaded = IWareEnsemble.load(tmp_path / "ens")
        with pytest.raises(ConfigurationError):
            loaded.fit(park_split.train)


@pytest.mark.parametrize("model", ["svb", "dtb", "gpb"])
@pytest.mark.parametrize("iware", [True, False])
class TestPredictorRoundTrip:
    def test_identical_serving(self, park_split, tmp_path, model, iware):
        predictor = PawsPredictor(
            model=model, iware=iware, n_classifiers=3, n_estimators=2, seed=9
        ).fit(park_split.train)
        predictor.save(tmp_path / "paws")
        loaded = PawsPredictor.load(tmp_path / "paws")

        X = park_split.test.feature_matrix
        np.testing.assert_array_equal(
            loaded.predict_proba(X), predictor.predict_proba(X)
        )
        np.testing.assert_array_equal(
            loaded.predict_variance(X), predictor.predict_variance(X)
        )
        grid = np.linspace(0.0, 4.0, 5)
        risk, nu = predictor.effort_response(X, grid)
        loaded_risk, loaded_nu = loaded.effort_response(X, grid)
        np.testing.assert_array_equal(loaded_risk, risk)
        np.testing.assert_array_equal(loaded_nu, nu)
        assert loaded.name == predictor.name
        assert loaded.evaluate_auc(park_split.test) == predictor.evaluate_auc(
            park_split.test
        )


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------
class TestFailureModes:
    def test_unfitted_models_refuse_to_save(self, tmp_path):
        with pytest.raises(NotFittedError):
            PawsPredictor().save(tmp_path / "nope")
        with pytest.raises(NotFittedError):
            LogisticRegression().save(tmp_path / "nope")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError):
            PawsPredictor.load(tmp_path / "does-not-exist")

    def test_wrong_type_rejected(self, blobs, tmp_path):
        X, y = blobs
        LogisticRegression().fit(X, y).save(tmp_path / "lr")
        with pytest.raises(PersistenceError):
            PawsPredictor.load(tmp_path / "lr")

    def test_corrupt_manifest(self, blobs, tmp_path):
        X, y = blobs
        path = tmp_path / "lr"
        LogisticRegression().fit(X, y).save(path)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(PersistenceError):
            LogisticRegression.load(path)

    def test_future_format_rejected(self, blobs, tmp_path):
        X, y = blobs
        path = tmp_path / "lr"
        LogisticRegression().fit(X, y).save(path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError):
            LogisticRegression.load(path)


# ---------------------------------------------------------------------------
# Integrity: checksums, verification, and the crash-safe layout
# ---------------------------------------------------------------------------
class TestIntegrity:
    def save_lr(self, blobs, path):
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        model.save(path)
        return model, X

    def test_manifest_carries_checksums(self, blobs, tmp_path):
        path = tmp_path / "lr"
        self.save_lr(blobs, path)
        manifest = json.loads((path / "manifest.json").read_text())
        checksums = manifest["checksums"]
        arrays_name = manifest["arrays_file"]
        assert arrays_name.startswith("arrays-") and arrays_name.endswith(".npz")
        assert checksums["file_sha256"].startswith(arrays_name[7:23])
        assert checksums["arrays"]  # one sha256 per array
        assert all(len(h) == 64 for h in checksums["arrays"].values())
        # staging leftovers are swept after the commit
        assert not list(path.glob("*.tmp"))

    def test_resave_sweeps_stale_arrays(self, blobs, tmp_path):
        X, y = blobs
        path = tmp_path / "lr"
        LogisticRegression(l2=0.5).fit(X, y).save(path)
        first = json.loads((path / "manifest.json").read_text())["arrays_file"]
        LogisticRegression(l2=2.0).fit(X, y).save(path)
        second = json.loads((path / "manifest.json").read_text())["arrays_file"]
        assert first != second
        assert not (path / first).exists()  # unreferenced file swept
        LogisticRegression.load(path)

    def test_tampered_array_named_exactly(self, blobs, tmp_path):
        path = tmp_path / "lr"
        self.save_lr(blobs, path)
        manifest = json.loads((path / "manifest.json").read_text())
        key = sorted(manifest["checksums"]["arrays"])[0]
        manifest["checksums"]["arrays"][key] = "0" * 64
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match=f"array '{key}'"):
            LogisticRegression.load(path)

    def test_flipped_bit_detected_and_named(self, blobs, tmp_path):
        path = tmp_path / "lr"
        self.save_lr(blobs, path)
        arrays_name = json.loads(
            (path / "manifest.json").read_text()
        )["arrays_file"]
        from repro.runtime import faults

        faults.flip_byte(path / arrays_name, seed=1)
        with pytest.raises(PersistenceError, match="arrays"):
            LogisticRegression.load(path)

    def test_verify_false_skips_checksums(self, blobs, tmp_path):
        path = tmp_path / "lr"
        model, X = self.save_lr(blobs, path)
        manifest = json.loads((path / "manifest.json").read_text())
        key = sorted(manifest["checksums"]["arrays"])[0]
        manifest["checksums"]["arrays"][key] = "0" * 64
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = LogisticRegression.load(path, verify=False)
        np.testing.assert_array_equal(
            loaded.predict_proba(X), model.predict_proba(X)
        )

    def test_garbage_npz_wrapped_as_persistence_error(self, blobs, tmp_path):
        path = tmp_path / "lr"
        self.save_lr(blobs, path)
        arrays_name = json.loads(
            (path / "manifest.json").read_text()
        )["arrays_file"]
        (path / arrays_name).write_bytes(b"this is not a zip archive")
        # verify=False routes straight into np.load: the raw BadZipFile /
        # ValueError must still surface as PersistenceError naming the file.
        with pytest.raises(PersistenceError, match="corrupt arrays file"):
            LogisticRegression.load(path, verify=False)

    def test_legacy_format1_still_loads(self, blobs, tmp_path):
        path = tmp_path / "lr"
        model, X = self.save_lr(blobs, path)
        manifest = json.loads((path / "manifest.json").read_text())
        arrays_name = manifest.pop("arrays_file")
        manifest.pop("checksums")
        manifest["format_version"] = 1
        (path / arrays_name).rename(path / "arrays.npz")
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = LogisticRegression.load(path)  # nothing to verify: no sums
        np.testing.assert_array_equal(
            loaded.predict_proba(X), model.predict_proba(X)
        )


# ---------------------------------------------------------------------------
# Missing artifacts (referenced but absent on disk)
# ---------------------------------------------------------------------------
class TestMissingArtifacts:
    def save_lr(self, blobs, path):
        X, y = blobs
        model = LogisticRegression().fit(X, y)
        model.save(path)
        return model, X

    def test_missing_arrays_file_is_persistence_error_naming_path(
        self, blobs, tmp_path
    ):
        path = tmp_path / "lr"
        self.save_lr(blobs, path)
        arrays_name = json.loads(
            (path / "manifest.json").read_text()
        )["arrays_file"]
        (path / arrays_name).unlink()
        with pytest.raises(PersistenceError, match=arrays_name):
            LogisticRegression.load(path, verify=True)

    def test_missing_arrays_file_named_without_verify_too(
        self, blobs, tmp_path
    ):
        path = tmp_path / "lr"
        self.save_lr(blobs, path)
        arrays_name = json.loads(
            (path / "manifest.json").read_text()
        )["arrays_file"]
        (path / arrays_name).unlink()
        with pytest.raises(PersistenceError, match=arrays_name):
            LogisticRegression.load(path, verify=False)

    def test_toctou_vanish_during_read_still_named(self, blobs, tmp_path):
        # The is_file() pre-check can race a concurrent sweep; the read
        # itself must wrap FileNotFoundError into the same artifact-naming
        # PersistenceError instead of leaking the raw OSError.
        from repro.runtime.persistence import _load_arrays

        ghost = tmp_path / "arrays-deadbeef.npz"
        with pytest.raises(PersistenceError, match="arrays-deadbeef.npz"):
            _load_arrays(ghost)


# ---------------------------------------------------------------------------
# Concurrent writers into one model directory
# ---------------------------------------------------------------------------
class TestConcurrentSaves:
    def test_racing_saves_end_with_one_verifiable_model(
        self, blobs, tmp_path
    ):
        """Two racing saves: old-or-new, never a hybrid, always loadable."""
        import threading

        X, y = blobs
        models = [
            LogisticRegression(l2=0.5).fit(X, y),
            LogisticRegression(l2=2.0).fit(X, y),
        ]
        path = tmp_path / "model"
        start = threading.Barrier(len(models))
        errors = []

        def save(model):
            start.wait()
            try:
                model.save(path)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        for _ in range(3):  # a few rounds to exercise both orderings
            threads = [
                threading.Thread(target=save, args=(m,)) for m in models
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        # one committed winner, complete and checksum-verified
        manifest = json.loads((path / "manifest.json").read_text())
        assert (path / manifest["arrays_file"]).is_file()
        loaded = LogisticRegression.load(path, verify=True)
        reference = {
            repr(m.predict_proba(X).tobytes()): m for m in models
        }
        assert repr(loaded.predict_proba(X).tobytes()) in reference
        # the sweep never deleted the winner's arrays, and left no debris
        assert len(list(path.glob("arrays-*.npz"))) == 1
        assert not list(path.glob("*.tmp"))
        assert not (path / ".save.lock").exists()

    def test_stale_sweep_spares_the_committed_winner(self, blobs, tmp_path):
        """A loser's delayed sweep must keep what the manifest references."""
        from repro.runtime.persistence import _sweep_stale

        X, y = blobs
        path = tmp_path / "model"
        LogisticRegression(l2=0.5).fit(X, y).save(path)
        first = json.loads((path / "manifest.json").read_text())["arrays_file"]
        LogisticRegression(l2=2.0).fit(X, y).save(path)
        second = json.loads((path / "manifest.json").read_text())["arrays_file"]
        assert first != second
        # replay the first saver's sweep as if it ran after the second
        # save committed: its stale keep-set must not delete the winner
        _sweep_stale(path, keep_arrays=first)
        assert (path / second).is_file()
        LogisticRegression.load(path, verify=True)

    def test_stale_lock_from_dead_saver_is_broken(self, blobs, tmp_path):
        X, y = blobs
        path = tmp_path / "model"
        path.mkdir()
        # a pid that can never be alive (pid_max is < 2**22 on Linux)
        (path / ".save.lock").write_text("99999999")
        LogisticRegression().fit(X, y).save(path)  # does not deadlock
        assert not (path / ".save.lock").exists()
        LogisticRegression.load(path, verify=True)
