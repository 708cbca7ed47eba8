"""Golden equivalence tests: packed tree builders vs the original builder.

The presorted packed-array builders in :mod:`repro.ml.tree` are contract-bound
to reproduce the original recursive implementation (kept in
``tests/oracles/tree_reference.py``) *exactly*: identical packed arrays, identical
predictions, identical RNG consumption. These tests enforce that contract on
fixed seeds across both builders (level-wise for ``max_features=None``,
depth-first for feature subsampling), plus the picklability the process
fitting backend relies on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeClassifier
from tests.oracles.tree_reference import (
    _build,
    reference_fit_arrays,
    reference_predict,
)

PACKED_KEYS = ("feature", "threshold", "probability", "n_samples", "left", "right")


def make_data(seed: int, n: int = 300, k: int = 8, ties: bool = False):
    rng = np.random.default_rng(seed)
    X = rng.random((n, k))
    if ties:
        X = np.round(X, 1)
    y = (rng.random(n) < 0.3).astype(np.int64)
    y[0], y[1] = 0, 1  # both classes always present
    return X, y


def fit_both(X, y, seed: int = 0, **params):
    """Fit the reference and packed builders with identical RNG streams."""
    ref_tree = DecisionTreeClassifier(rng=np.random.default_rng(seed), **params)
    Xc, yc = ref_tree._check_fit_input(X, y)
    ref = reference_fit_arrays(ref_tree, Xc, yc)
    new_tree = DecisionTreeClassifier(rng=np.random.default_rng(seed), **params)
    new_tree.fit(X, y)
    return ref, new_tree, ref_tree, (Xc, yc)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "params",
    [
        {},  # level-wise builder (defaults: all features, unbounded depth)
        {"max_depth": 4, "min_samples_leaf": 3},
        {"min_samples_split": 10, "laplace": 0.5},
        {"max_features": "sqrt", "max_depth": 8, "min_samples_leaf": 3},
        {"max_features": 2, "min_samples_leaf": 2},
    ],
)
def test_packed_arrays_identical(seed, params):
    """Both builders produce the seed builder's exact preorder arrays."""
    X, y = make_data(seed, ties=seed % 2 == 1)
    ref, new_tree, __, __ = fit_both(X, y, seed=seed, **params)
    for key in PACKED_KEYS:
        np.testing.assert_array_equal(
            ref[key], new_tree.tree_arrays[key], err_msg=f"array '{key}'"
        )


@pytest.mark.parametrize("params", [{}, {"max_features": "sqrt", "max_depth": 6}])
def test_predictions_identical(params):
    """Iterative packed descent equals the recursive reference, bit for bit."""
    X, y = make_data(3)
    new_tree = DecisionTreeClassifier(rng=np.random.default_rng(3), **params)
    new_tree.fit(X, y)
    ref_tree = DecisionTreeClassifier(rng=np.random.default_rng(3), **params)
    Xc, yc = ref_tree._check_fit_input(X, y)
    root = _build(ref_tree, Xc, yc, 0)
    queries = np.random.default_rng(9).random((500, X.shape[1]))
    np.testing.assert_array_equal(
        reference_predict(root, queries), new_tree.predict_proba(queries)
    )


def test_rng_consumption_matches_reference():
    """Feature-subsampled growth draws candidates in the seed's exact order,
    so the generator ends in the same state."""
    X, y = make_data(5)
    ref_tree = DecisionTreeClassifier(
        max_features=3, rng=np.random.default_rng(42)
    )
    Xc, yc = ref_tree._check_fit_input(X, y)
    reference_fit_arrays(ref_tree, Xc, yc)
    new_tree = DecisionTreeClassifier(
        max_features=3, rng=np.random.default_rng(42)
    ).fit(X, y)
    assert (
        ref_tree.rng.bit_generator.state == new_tree.rng.bit_generator.state
    )


def test_depth_and_leaves_consistent():
    X, y = make_data(6)
    __, new_tree, ref_tree, (Xc, yc) = fit_both(X, y, seed=6, max_depth=5)
    root = _build(ref_tree, Xc, yc, 0)

    def count(node):
        if node.feature < 0:
            return 1
        return count(node.left) + count(node.right)

    def depth_of(node):
        if node.feature < 0:
            return 0
        return 1 + max(depth_of(node.left), depth_of(node.right))

    assert new_tree.n_leaves == count(root)
    assert new_tree.depth == depth_of(root)


def test_fitted_tree_pickles():
    """Fitted trees are plain arrays + config — they must cross process
    boundaries for the process fitting backend."""
    X, y = make_data(8)
    tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
    clone = pickle.loads(pickle.dumps(tree))
    queries = np.random.default_rng(1).random((50, X.shape[1]))
    np.testing.assert_array_equal(
        tree.predict_proba(queries), clone.predict_proba(queries)
    )
    assert tree.fit_backend_hint == "process"


def test_unfitted_tree_pickles():
    """Unfitted trees (phase-2 fit tasks ship them) must pickle too."""
    tree = DecisionTreeClassifier(max_features="sqrt")
    clone = pickle.loads(pickle.dumps(tree))
    X, y = make_data(2)
    clone.fit(X, y)
    assert clone.n_leaves >= 1
