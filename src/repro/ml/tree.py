"""CART decision-tree classifier (Gini impurity).

The building block of the DTB weak learner: bagged trees with per-tree
feature subsampling (which makes the bagging ensemble "equivalent to a random
forest", Section V-C). Splits minimise weighted Gini impurity; leaves store
the positive-class fraction, optionally Laplace-smoothed so probabilities are
never exactly 0 or 1.

Trees are grown and stored directly in the packed parallel-array
representation (preorder ``feature`` / ``threshold`` / ``probability`` /
``n_samples`` / ``left`` / ``right`` arrays) that the persistence layer
already used — there is no per-node Python object on any hot path. Two
builders share that format, both *contract-bound to reproduce the original
recursive implementation exactly* (identical packed arrays, identical
predictions, identical RNG consumption — golden-tested against the
original builder kept in ``tests/oracles/tree_reference.py``):

* **level-wise** (``max_features=None``): every feature is argsorted once at
  the root and the sorted index arrays are threaded through a breadth-first
  builder that evaluates the Gini scan of *all* nodes of a level in a
  handful of whole-level ``reduceat`` operations. No RNG is consumed, so
  batching across nodes cannot disturb draw order.
* **presorted depth-first** (feature subsampling): the original builder
  draws one candidate-feature subset per node in depth-first preorder, so
  node processing order is pinned. This builder keeps that order (explicit
  stack, no recursion) but replaces the per-node re-sorting and sub-matrix
  copying of the original with index-partitioned views of the root presort.

Prediction is an iterative vectorised descent over the packed arrays (one
numpy step per tree level, no Python recursion per node).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ml.base import Classifier

#: Strict-improvement margin of the original split selection, kept verbatim.
_IMPROVEMENT_TOL = 1e-12


@dataclass
class _Node:
    """One tree node; ``feature < 0`` marks a leaf.

    Kept as a compatibility view of the packed representation (see
    :func:`_unflatten_tree`); the classifier itself never builds these.
    """

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    probability: float = 0.5
    n_samples: int = 0


def _flatten_tree(root: _Node) -> dict[str, np.ndarray]:
    """Pack a node tree into parallel arrays (preorder; -1 = no child)."""
    features: list[int] = []
    thresholds: list[float] = []
    probabilities: list[float] = []
    n_samples: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []

    def visit(node: _Node) -> int:
        idx = len(features)
        features.append(node.feature)
        thresholds.append(node.threshold)
        probabilities.append(node.probability)
        n_samples.append(node.n_samples)
        lefts.append(-1)
        rights.append(-1)
        if node.feature >= 0 and node.left is not None and node.right is not None:
            lefts[idx] = visit(node.left)
            rights[idx] = visit(node.right)
        return idx

    visit(root)
    return {
        "feature": np.asarray(features, dtype=np.int64),
        "threshold": np.asarray(thresholds, dtype=float),
        "probability": np.asarray(probabilities, dtype=float),
        "n_samples": np.asarray(n_samples, dtype=np.int64),
        "left": np.asarray(lefts, dtype=np.int64),
        "right": np.asarray(rights, dtype=np.int64),
    }


def _unflatten_tree(packed: dict[str, np.ndarray]) -> _Node:
    """Rebuild a node tree from :func:`_flatten_tree` arrays."""

    def build(idx: int) -> _Node:
        node = _Node(
            feature=int(packed["feature"][idx]),
            threshold=float(packed["threshold"][idx]),
            probability=float(packed["probability"][idx]),
            n_samples=int(packed["n_samples"][idx]),
        )
        left = int(packed["left"][idx])
        right = int(packed["right"][idx])
        if left >= 0 and right >= 0:
            node.left = build(left)
            node.right = build(right)
        return node

    return build(0)


def _pack(
    features: list[int] | np.ndarray,
    thresholds: list[float] | np.ndarray,
    probabilities: list[float] | np.ndarray,
    n_samples: list[int] | np.ndarray,
    lefts: list[int] | np.ndarray,
    rights: list[int] | np.ndarray,
) -> dict[str, np.ndarray]:
    return {
        "feature": np.asarray(features, dtype=np.int64),
        "threshold": np.asarray(thresholds, dtype=float),
        "probability": np.asarray(probabilities, dtype=float),
        "n_samples": np.asarray(n_samples, dtype=np.int64),
        "left": np.asarray(lefts, dtype=np.int64),
        "right": np.asarray(rights, dtype=np.int64),
    }


class DecisionTreeClassifier(Classifier):
    """Binary CART tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity or minimum leaf size.
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples that each child of a split must retain.
    max_features:
        Number of features examined per split; ``None`` = all, ``"sqrt"`` =
        square root of the feature count (random-forest style).
    laplace:
        Additive smoothing for leaf probabilities: ``(pos + a) / (n + 2a)``.
    rng:
        Randomness for feature subsampling.
    """

    #: Tree growth is pure-Python/numpy bound, so the process backend is the
    #: profitable way to parallelise fits of tree-based ensembles. The
    #: per-level prediction walk is the same flavour of work, so serving
    #: fan-outs route tree members to processes too.
    fit_backend_hint = "process"
    predict_backend_hint = "process"

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        laplace: float = 1.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if max_depth is not None and max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ConfigurationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_samples_leaf < 1:
            raise ConfigurationError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        if laplace < 0:
            raise ConfigurationError(f"laplace must be >= 0, got {laplace}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.laplace = laplace
        self.rng = rng or np.random.default_rng()
        self._tree: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = self._check_fit_input(X, y)
        if self.max_features is None:
            self._tree = _grow_levelwise(self, X, y)
        else:
            self._tree = _grow_depth_first(self, X, y)
        self._mark_fitted()
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_input(X)
        assert self._tree is not None
        tree = self._tree
        feature = tree["feature"]
        if feature[0] < 0:  # lone-root tree
            return np.full(X.shape[0], tree["probability"][0])
        threshold = tree["threshold"]
        left = tree["left"]
        right = tree["right"]
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            f = feature[node]
            internal = f >= 0
            if not internal.any():
                break
            idx = np.nonzero(internal)[0]
            cur = node[idx]
            go_left = X[idx, f[idx]] <= threshold[cur]
            node[idx] = np.where(go_left, left[cur], right[cur])
        return tree["probability"][node]

    @property
    def tree_arrays(self) -> dict[str, np.ndarray]:
        """The packed preorder tree arrays (the native fitted representation)."""
        from repro.exceptions import NotFittedError

        if self._tree is None:
            raise NotFittedError("DecisionTreeClassifier is not fitted")
        return self._tree

    def to_manifest(self, store, prefix: str) -> dict:
        from repro.exceptions import NotFittedError

        if self._tree is None:
            raise NotFittedError("cannot persist an unfitted DecisionTreeClassifier")
        return {
            "type": "DecisionTreeClassifier",
            "config": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_samples_leaf": self.min_samples_leaf,
                "max_features": self.max_features,
                "laplace": self.laplace,
            },
            "n_features": self._n_features,
            "arrays": {
                name: store.put(f"{prefix}/{name}", array)
                for name, array in self._tree.items()
            },
        }

    @classmethod
    def from_manifest(cls, node: dict, arrays: dict) -> "DecisionTreeClassifier":
        from repro.runtime.persistence import get_array

        model = cls(**node["config"])
        packed = {
            name: get_array(arrays, key) for name, key in node["arrays"].items()
        }
        model._tree = _pack(
            packed["feature"], packed["threshold"], packed["probability"],
            packed["n_samples"], packed["left"], packed["right"],
        )
        model._n_features = node["n_features"]
        model._mark_fitted()
        return model

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes in the fitted tree."""
        if self._tree is None:
            return 0
        return int((self._tree["feature"] < 0).sum())

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (a lone root has depth 0)."""
        if self._tree is None:
            return 0
        left = self._tree["left"]
        right = self._tree["right"]
        # Preorder guarantees children come after parents, so one forward
        # sweep propagates depths.
        depths = np.zeros(left.size, dtype=np.int64)
        for i in range(left.size):
            if left[i] >= 0:
                depths[left[i]] = depths[i] + 1
                depths[right[i]] = depths[i] + 1
        return int(depths.max())

    # ------------------------------------------------------------------
    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(n_features)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(n_features)))
        else:
            k = int(self.max_features)
            if k < 1:
                raise ConfigurationError(f"max_features must be >= 1, got {k}")
            k = min(k, n_features)
        return self.rng.choice(n_features, size=k, replace=False)


# ----------------------------------------------------------------------
# Presorted depth-first builder (feature subsampling)
# ----------------------------------------------------------------------
def _grow_depth_first(
    tree: DecisionTreeClassifier, X: np.ndarray, y: np.ndarray
) -> dict[str, np.ndarray]:
    """Grow a packed tree node by node in depth-first preorder.

    Each feature is argsorted once at the root; a node holds the ``(k, m)``
    matrix of its sample indices sorted per feature, and a split partitions
    those index rows with one boolean mask instead of re-sorting. Preorder
    processing keeps the per-node ``_candidate_features`` draws in exactly
    the order the recursive builder made them, and writes nodes into the
    packed arrays in their final (preorder) layout.
    """
    n, n_features = X.shape
    min_leaf = tree.min_samples_leaf
    min_split = tree.min_samples_split
    max_depth = tree.max_depth
    a = tree.laplace
    all_features = tree.max_features is None

    sort_idx = np.ascontiguousarray(np.argsort(X, axis=0, kind="mergesort").T)
    y = np.ascontiguousarray(y, dtype=np.int64)

    counts = np.arange(1, n + 1)
    feat_arange = np.arange(n_features)
    scratch = [np.empty((n_features, max(n - 1, 1))) for _ in range(4)]
    buf = np.zeros(n, dtype=bool)

    features: list[int] = []
    thresholds: list[float] = []
    probabilities: list[float] = []
    n_samples: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []

    # Stack of (sorted-index matrix, positive count, depth, parent, is_left);
    # pushing right before left yields preorder.
    stack: list[tuple[np.ndarray, int, int, int, bool]] = [
        (sort_idx, int(y.sum()), 0, -1, False)
    ]
    old_err = np.seterr(invalid="ignore", divide="ignore")
    try:
        while stack:
            idx_node, n_pos, depth, parent, is_left = stack.pop()
            m = idx_node.shape[1]
            node_id = len(features)
            if parent >= 0:
                (lefts if is_left else rights)[parent] = node_id
            features.append(-1)
            thresholds.append(0.0)
            probabilities.append(float((n_pos + a) / (m + 2 * a)))
            n_samples.append(m)
            lefts.append(-1)
            rights.append(-1)
            if (
                m < min_split
                or (max_depth is not None and depth >= max_depth)
                or n_pos == 0
                or n_pos == m
            ):
                continue
            cand = tree._candidate_features(n_features)
            # Valid split positions j satisfy min_leaf <= j+1 <= m - min_leaf.
            lo, hi = min_leaf - 1, m - min_leaf
            if hi <= lo:
                continue
            kc = len(cand)
            rows = idx_node if all_features else idx_node[cand]
            svals = X[rows, cand[:, None]]
            sy = y[rows]
            pos_prefix = np.cumsum(sy, axis=1)
            width = hi - lo
            counts_left = counts[lo:hi]
            counts_right = m - counts_left
            pos_left = pos_prefix[:, lo:hi]
            b0, b1, b2, b3 = (s[:kc, :width] for s in scratch)
            np.subtract(n_pos, pos_left, out=b0)       # pos_right
            np.divide(pos_left, counts_left, out=b1)   # p_left
            np.divide(b0, counts_right, out=b2)        # p_right
            np.subtract(1.0, b1, out=b0)
            np.multiply(2.0, b1, out=b3)
            np.multiply(b3, b0, out=b1)                # gini_left
            np.subtract(1.0, b2, out=b0)
            np.multiply(2.0, b2, out=b3)
            np.multiply(b3, b0, out=b2)                # gini_right
            np.multiply(counts_left, b1, out=b0)
            np.multiply(counts_right, b2, out=b3)
            np.add(b0, b3, out=b0)
            weighted = np.divide(b0, m, out=b0)
            weighted[svals[:, lo + 1 : hi + 1] == svals[:, lo:hi]] = np.inf
            split_pos = np.argmin(weighted, axis=1)
            scores = weighted[feat_arange[:kc], split_pos].tolist()
            best_r = -1
            best_score = np.inf
            for r in range(kc):
                if scores[r] < best_score - _IMPROVEMENT_TOL:
                    best_score = scores[r]
                    best_r = r
            if best_r < 0:
                continue
            j = int(split_pos[best_r]) + lo
            thr = float((svals[best_r, j] + svals[best_r, j + 1]) / 2.0)
            n_left = int(np.searchsorted(svals[best_r], thr, side="right"))
            if n_left == 0 or n_left == m:
                # Midpoint rounded onto a boundary value: no sample separation
                # is possible, so the node stays a leaf.
                continue
            left_ids = rows[best_r, :n_left]
            buf[left_ids] = True
            go_left = buf[idx_node]
            left_idx = idx_node[go_left].reshape(n_features, n_left)
            right_idx = idx_node[~go_left].reshape(n_features, m - n_left)
            buf[left_ids] = False
            features[node_id] = int(cand[best_r])
            thresholds[node_id] = thr
            pos_l = int(pos_prefix[best_r, n_left - 1])
            stack.append((right_idx, n_pos - pos_l, depth + 1, node_id, False))
            stack.append((left_idx, pos_l, depth + 1, node_id, True))
    finally:
        np.seterr(**old_err)
    return _pack(features, thresholds, probabilities, n_samples, lefts, rights)


# ----------------------------------------------------------------------
# Level-wise builder (all features; no RNG consumption)
# ----------------------------------------------------------------------
def _grow_levelwise(
    tree: DecisionTreeClassifier, X: np.ndarray, y: np.ndarray
) -> dict[str, np.ndarray]:
    """Grow a packed tree one whole level at a time.

    All nodes of a level live as contiguous segments of per-feature sorted
    index arrays, and *all features scan at once*: the Gini sweep, the
    per-segment argmin, and the stable partition each run as a handful of
    ``(n_features, n_active)`` array operations (``reduceat`` over segment
    starts along axis 1). Because ``max_features=None`` consumes no
    randomness, batching across nodes is free — the resulting tree is
    identical to depth-first recursive growth, float for float. Nodes are
    laid out breadth-first during growth and renumbered to the canonical
    preorder packing at the end.

    Indices and counts travel in 32-bit lanes (every value is < n, integer
    arithmetic stays exact, and converting either width to float64 yields
    the same double), which halves the memory traffic of the non-float
    passes.
    """
    n, n_features = X.shape
    min_leaf = tree.min_samples_leaf
    min_split = tree.min_samples_split
    max_depth = tree.max_depth
    a = tree.laplace

    order = np.ascontiguousarray(
        np.argsort(X, axis=0, kind="mergesort").T, dtype=np.int32
    )
    XT = np.ascontiguousarray(X.T)  # contiguous per-feature columns to gather
    y32 = np.ascontiguousarray(y, dtype=np.int32)
    arange_n = np.arange(n, dtype=np.int32)
    row_idx = np.arange(n_features)[:, None]
    buf = np.zeros(n, dtype=bool)
    # Preallocated (n_features, n) scratch, sliced to the active width:
    # float lanes for the Gini sweep, int lanes for prefix counts, bool
    # lanes for the masks.
    fb = [np.empty((n_features, n)) for _ in range(3)]
    ib = [np.empty((n_features, n), dtype=np.int32) for _ in range(2)]
    bb = [np.empty((n_features, n), dtype=bool)]

    level_feat: list[np.ndarray] = []
    level_thr: list[np.ndarray] = []
    level_prob: list[np.ndarray] = []
    level_nsamp: list[np.ndarray] = []
    level_left: list[np.ndarray] = []
    level_right: list[np.ndarray] = []

    starts = np.array([0, n], dtype=np.int32)
    n_pos_seg = np.array([int(y.sum())], dtype=np.int32)
    node_base = 0
    depth = 0

    old_err = np.seterr(invalid="ignore", divide="ignore")
    try:
        while starts.size > 1:
            m_seg = np.diff(starts)
            n_level = m_seg.size

            feat_lvl = np.full(n_level, -1, dtype=np.int64)
            thr_lvl = np.zeros(n_level)
            prob_lvl = (n_pos_seg + a) / (m_seg + 2 * a)
            left_lvl = np.full(n_level, -1, dtype=np.int64)
            right_lvl = np.full(n_level, -1, dtype=np.int64)

            stop = (m_seg < min_split) | (n_pos_seg == 0) | (n_pos_seg == m_seg)
            if max_depth is not None and depth >= max_depth:
                stop[:] = True
            # Nodes narrower than two leaves have no valid split position.
            splittable = ~stop & (m_seg >= 2 * min_leaf)

            if not splittable.any():
                level_feat.append(feat_lvl)
                level_thr.append(thr_lvl)
                level_prob.append(prob_lvl)
                level_nsamp.append(m_seg)
                level_left.append(left_lvl)
                level_right.append(right_lvl)
                break

            # Compact the sorted index arrays down to splittable segments.
            keep_pos = np.repeat(splittable, m_seg)
            if not splittable.all():
                order = np.ascontiguousarray(order[:, keep_pos])
            sp_idx = np.nonzero(splittable)[0]
            m2 = m_seg[sp_idx]
            npos2 = n_pos_seg[sp_idx]
            starts2 = np.concatenate([[0], np.cumsum(m2)]).astype(np.int32)
            seg0 = starts2[:-1]
            n_active = int(starts2[-1])
            n_seg = m2.size

            # Per-position helpers, shared by every feature row.
            seg_id_pos = np.repeat(np.arange(n_seg, dtype=np.int32), m2)
            pos_in_seg = arange_n[:n_active] - np.repeat(seg0, m2)
            counts_left = pos_in_seg + 1
            m_pos = np.repeat(m2, m2)
            counts_right = m_pos - counts_left
            npos_pos = np.repeat(npos2, m2)
            not_window = (counts_left < min_leaf) | (counts_right < min_leaf)

            f0, f1, f2 = (b[:, :n_active] for b in fb)
            i0, i1 = (b[:, :n_active] for b in ib)
            b0 = bb[0][:, :n_active]

            # --- Gini sweep, all features at once -------------------------
            vals = XT[row_idx, order]
            sy = np.take(y32, order, out=i0)
            csum = np.cumsum(sy, axis=1, out=i1)
            seg_base = csum[:, seg0] - sy[:, seg0]
            pos_left = np.subtract(
                csum, np.take(seg_base, seg_id_pos, axis=1, out=i0), out=i1
            )
            p_left = np.divide(pos_left, counts_left, out=f0)
            np.subtract(npos_pos, pos_left, out=i0)
            p_right = np.divide(i0, counts_right, out=f1)
            # gini = (2 * p) * (1 - p), association kept verbatim.
            np.multiply(2.0, p_left, out=f2)
            np.subtract(1.0, p_left, out=f0)
            gini_left = np.multiply(f2, f0, out=f0)
            np.multiply(2.0, p_right, out=f2)
            np.subtract(1.0, p_right, out=f1)
            gini_right = np.multiply(f2, f1, out=f1)
            np.multiply(counts_left, gini_left, out=f0)
            np.multiply(counts_right, gini_right, out=f1)
            np.add(f0, f1, out=f0)
            weighted = np.divide(f0, m_pos, out=f0)
            # invalid = tie-with-next OR outside the leaf-size window.
            np.equal(vals[:, 1:], vals[:, :-1], out=b0[:, : n_active - 1])
            b0[:, n_active - 1] = True
            weighted[np.logical_or(b0, not_window, out=b0)] = np.inf
            seg_min = np.minimum.reduceat(weighted, seg0, axis=1)
            at_min = np.equal(
                weighted, np.take(seg_min, seg_id_pos, axis=1, out=f1), out=b0
            )
            first = np.minimum.reduceat(
                np.where(at_min, arange_n[:n_active], np.int32(n_active)),
                seg0,
                axis=1,
            )

            # --- Split selection: features in index order, strict
            # improvement, exactly like the sequential builder -------------
            best_score = np.full(n_seg, np.inf)
            best_feat = np.full(n_seg, -1, dtype=np.int64)
            best_first = np.zeros(n_seg, dtype=np.int32)
            for f in range(n_features):
                improve = seg_min[f] < best_score - _IMPROVEMENT_TOL
                if improve.any():
                    best_score[improve] = seg_min[f][improve]
                    best_feat[improve] = f
                    best_first[improve] = first[f][improve]

            # Thresholds, left sizes, and left-positive counts only need
            # computing for the features that actually won a segment.
            best_thr = np.zeros(n_seg)
            best_nl = np.zeros(n_seg, dtype=np.int32)
            best_posl = np.zeros(n_seg, dtype=np.int32)
            won = np.isfinite(best_score)
            for f in np.unique(best_feat[won]).tolist():
                segs = won & (best_feat == f)
                vrow = vals[f]
                sel_first = best_first[segs]
                thr_f = (vrow[sel_first] + vrow[sel_first + 1]) / 2.0
                best_thr[segs] = thr_f
                thr_pos = np.zeros(n_seg)
                thr_pos[segs] = thr_f
                below = np.less_equal(
                    vrow, np.take(thr_pos, seg_id_pos), out=bb[0][0, :n_active]
                )
                nl_f = np.add.reduceat(below, seg0, dtype=np.int32)
                best_nl[segs] = nl_f[segs]
                gather = np.maximum(seg0 + nl_f - 1, seg0)
                # pos_left is the within-segment positive prefix, so indexing
                # it at the last left-going position yields the left child's
                # positive count directly.
                posl_f = pos_left[f, gather]
                best_posl[segs] = posl_f[segs]

            split = won & (best_nl > 0) & (best_nl < m2)

            sp_nodes = sp_idx[split]
            n_split = sp_nodes.size
            feat_lvl[sp_nodes] = best_feat[split]
            thr_lvl[sp_nodes] = best_thr[split]
            pair = np.arange(n_split, dtype=np.int64)
            left_lvl[sp_nodes] = node_base + n_level + 2 * pair
            right_lvl[sp_nodes] = node_base + n_level + 2 * pair + 1

            level_feat.append(feat_lvl)
            level_thr.append(thr_lvl)
            level_prob.append(prob_lvl)
            level_nsamp.append(m_seg)
            level_left.append(left_lvl)
            level_right.append(right_lvl)

            if n_split == 0:
                break

            # Mark the left-going samples: the first n_left entries of each
            # winning feature's sorted segment (values <= threshold form a
            # prefix of the sort).
            split_segs = np.nonzero(split)[0]
            for s in split_segs.tolist():
                f_win = int(best_feat[s])
                start = int(seg0[s])
                buf[order[f_win, start : start + int(best_nl[s])]] = True

            nl_split = best_nl[split]
            nr_split = m2[split] - nl_split
            child_sizes = np.stack([nl_split, nr_split], axis=1).ravel()
            new_starts = np.concatenate([[0], np.cumsum(child_sizes)]).astype(
                np.int32
            )
            n_new = int(new_starts[-1])

            lstart_seg = np.zeros(n_seg, dtype=np.int32)
            rstart_seg = np.zeros(n_seg, dtype=np.int32)
            lstart_seg[split_segs] = new_starts[:-1][0::2]
            rstart_seg[split_segs] = new_starts[:-1][1::2]
            lstart_pos = np.take(lstart_seg, seg_id_pos)
            rstart_pos = np.take(rstart_seg, seg_id_pos)
            keep = np.repeat(split, m2)

            # --- Stable partition of every feature row, one 2-D pass ------
            go_left = np.take(buf, order, out=b0)
            cleft = np.cumsum(go_left, axis=1, out=i1)
            seg_cbase = cleft[:, seg0] - go_left[:, seg0]
            # Count of left-going samples up to (and including) each
            # position within its segment.
            lrank = np.subtract(
                cleft, np.take(seg_cbase, seg_id_pos, axis=1, out=i0), out=i1
            )
            left_dest = np.add(lstart_pos, lrank, out=i0)
            np.subtract(left_dest, 1, out=left_dest)
            right_dest = np.subtract(pos_in_seg, lrank, out=lrank)
            np.add(rstart_pos, right_dest, out=right_dest)
            new_pos = np.where(go_left, left_dest, right_dest)
            new_order = np.empty((n_features, n_new), dtype=np.int32)
            new_order[row_idx, new_pos[:, keep]] = order[:, keep]
            for s in split_segs.tolist():
                f_win = int(best_feat[s])
                start = int(seg0[s])
                buf[order[f_win, start : start + int(best_nl[s])]] = False

            order = new_order
            starts = new_starts
            posl_split = best_posl[split]
            n_pos_seg = np.stack(
                [posl_split, npos2[split] - posl_split], axis=1
            ).ravel()
            node_base += n_level
            depth += 1
    finally:
        np.seterr(**old_err)

    bfs = _pack(
        np.concatenate(level_feat),
        np.concatenate(level_thr),
        np.concatenate(level_prob),
        np.concatenate(level_nsamp),
        np.concatenate(level_left),
        np.concatenate(level_right),
    )
    return _bfs_to_preorder(bfs)


def _bfs_to_preorder(packed: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Renumber a breadth-first packed tree into the canonical preorder."""
    left = packed["left"]
    right = packed["right"]
    n_nodes = left.size
    visit = np.empty(n_nodes, dtype=np.int64)   # preorder sequence of BFS ids
    new_id = np.empty(n_nodes, dtype=np.int64)  # BFS id -> preorder id
    stack = [0]
    cursor = 0
    left_list = left.tolist()
    right_list = right.tolist()
    while stack:
        node = stack.pop()
        visit[cursor] = node
        new_id[node] = cursor
        cursor += 1
        if right_list[node] >= 0:
            stack.append(right_list[node])
        if left_list[node] >= 0:
            stack.append(left_list[node])
    old_left = left[visit]
    old_right = right[visit]
    return {
        "feature": packed["feature"][visit],
        "threshold": packed["threshold"][visit],
        "probability": packed["probability"][visit],
        "n_samples": packed["n_samples"][visit],
        "left": np.where(old_left >= 0, new_id[np.maximum(old_left, 0)], -1),
        "right": np.where(old_right >= 0, new_id[np.maximum(old_right, 0)], -1),
    }
