"""The original recursive CART builder, kept as executable specification.

:class:`~repro.ml.tree.DecisionTreeClassifier` grew trees with this
implementation until the presorted packed-array builder replaced it: per node
it re-argsorted each candidate feature of the node's sub-matrix and recursed
on boolean-masked copies of ``X``. The rewrite is contract-bound to produce
*identical* trees (same packed arrays, same predictions, same RNG
consumption), so the old builder lives on here for the golden equivalence
tests in ``tests/test_tree_golden.py`` and the fit-throughput benchmark.

Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _Node, _flatten_tree


def reference_fit_arrays(tree, X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Grow a tree with the original recursive builder; return packed arrays.

    Parameters
    ----------
    tree:
        An unfitted :class:`~repro.ml.tree.DecisionTreeClassifier` supplying
        the hyper-parameters and the RNG (consumed exactly as the original
        implementation consumed it: one ``_candidate_features`` draw per
        non-stopped node, in depth-first preorder).
    X, y:
        Validated training data (``tree._check_fit_input`` output).
    """
    root = _build(tree, X, y, depth=0)
    return _flatten_tree(root)


def reference_predict(root: _Node, X: np.ndarray) -> np.ndarray:
    """Recursive per-node prediction of the original implementation."""
    out = np.empty(X.shape[0])
    _fill(root, X, np.arange(X.shape[0]), out)
    return out


def _build(tree, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
    node = _Node(probability=_leaf_probability(tree, y), n_samples=y.size)
    if _should_stop(tree, y, depth):
        return node
    feature, threshold = _best_split(tree, X, y)
    if feature < 0:
        return node
    left_mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _build(tree, X[left_mask], y[left_mask], depth + 1)
    node.right = _build(tree, X[~left_mask], y[~left_mask], depth + 1)
    return node


def _should_stop(tree, y: np.ndarray, depth: int) -> bool:
    if y.size < tree.min_samples_split:
        return True
    if tree.max_depth is not None and depth >= tree.max_depth:
        return True
    return bool(y.min() == y.max())  # pure node


def _leaf_probability(tree, y: np.ndarray) -> float:
    a = tree.laplace
    return float((y.sum() + a) / (y.size + 2 * a))


def _best_split(tree, X: np.ndarray, y: np.ndarray) -> tuple[int, float]:
    """Return (feature, threshold) of the best Gini split, or (-1, 0)."""
    best_feature = -1
    best_threshold = 0.0
    best_score = np.inf
    n = y.size
    min_leaf = tree.min_samples_leaf
    for feature in tree._candidate_features(X.shape[1]):
        values = X[:, feature]
        order = np.argsort(values, kind="mergesort")
        sorted_vals = values[order]
        sorted_y = y[order]
        # After sorting, a split between positions i-1 and i puts i
        # samples on the left.
        pos_prefix = np.cumsum(sorted_y)
        total_pos = pos_prefix[-1]
        counts_left = np.arange(1, n)
        # Splits are only valid between distinct feature values.
        distinct = sorted_vals[1:] != sorted_vals[:-1]
        valid = distinct & (counts_left >= min_leaf) & (n - counts_left >= min_leaf)
        if not valid.any():
            continue
        pos_left = pos_prefix[:-1]
        pos_right = total_pos - pos_left
        counts_right = n - counts_left
        with np.errstate(invalid="ignore", divide="ignore"):
            p_left = pos_left / counts_left
            p_right = pos_right / counts_right
            gini_left = 2 * p_left * (1 - p_left)
            gini_right = 2 * p_right * (1 - p_right)
            weighted = (counts_left * gini_left + counts_right * gini_right) / n
        weighted = np.where(valid, weighted, np.inf)
        idx = int(np.argmin(weighted))
        if weighted[idx] < best_score - 1e-12:
            best_score = float(weighted[idx])
            best_feature = int(feature)
            best_threshold = float(
                (sorted_vals[idx] + sorted_vals[idx + 1]) / 2.0
            )
    # Like classic CART, accept the best valid split even when the
    # immediate impurity gain is ~zero (XOR-style concepts only pay off
    # one level deeper); a node with no valid split stays a leaf.
    if best_feature >= 0 and np.isfinite(best_score):
        return best_feature, best_threshold
    return -1, 0.0


def _fill(node: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if node.feature < 0 or node.left is None or node.right is None:
        out[idx] = node.probability
        return
    go_left = X[idx, node.feature] <= node.threshold
    if go_left.any():
        _fill(node.left, X, idx[go_left], out)
    if (~go_left).any():
        _fill(node.right, X, idx[~go_left], out)
