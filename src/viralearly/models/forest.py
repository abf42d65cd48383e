"""Random forest classifier: bagged Gini trees with sqrt-feature sampling.

Trees grow to purity (no depth cap by default) with at least two samples per
split. Feature importance is the Gini impurity decrease accumulated over
splits, normalized per tree and averaged, so the vector sums to one.

Rows are put into a canonical (lexicographic) order before the seeded
bootstrap draws, which makes a fit invariant to permutations of the input
rows: the generator samples positions in the canonical order, not in
whatever order the caller supplied.
"""

from __future__ import annotations

import numpy as np

from ..ingest import read_int, read_list, read_number
from ._common import _Tree, check_training_data


class RandomForestModel:
    kind = "random_forest"

    def __init__(self, trees: list[_Tree], n_features: int, importance: np.ndarray):
        self.trees = trees
        self.n_features = int(n_features)
        self._importance = importance

    @property
    def importances(self) -> np.ndarray:
        return self._importance.copy()

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros(len(X))
        for tree in self.trees:
            out += tree.predict(X)
        return out / len(self.trees)

    def to_payload(self) -> dict:
        return {
            "n_features": self.n_features,
            "importance": self._importance.tolist(),
            "trees": [t.to_payload() for t in self.trees],
        }

    @classmethod
    def from_payload(cls, payload) -> "RandomForestModel":
        n_features = payload.read("n_features", read_int)
        trees = [_Tree.from_payload(t, n_features) for t in payload.objects("trees")]
        return cls(trees, n_features, np.array(payload.read("importance", read_list, item=read_number, length=n_features)))


def _gini(n_pos: float, n: float) -> float:
    if n <= 0:
        return 0.0
    p = n_pos / n
    return 2.0 * p * (1.0 - p)


def fit_random_forest(
    X,
    y,
    n_trees: int = 100,
    max_features: str | int = "sqrt",
    min_samples_split: int = 2,
    max_depth: int | None = None,
    seed: int = 42,
) -> RandomForestModel:
    X, y = check_training_data(X, y)
    n, d = X.shape

    # Canonical row order: primary key column 0, then the rest, labels last.
    keys = (y.astype(np.float64),) + tuple(X[:, j] for j in range(d - 1, -1, -1))
    order = np.lexsort(keys)
    Xc, yc = X[order], y[order].astype(np.float64)

    mtry = max(1, int(np.sqrt(d))) if max_features == "sqrt" else max(1, int(max_features))
    depth_cap = np.inf if max_depth is None else max_depth

    importance = np.zeros(d)
    trees: list[_Tree] = []
    for child_seq in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child_seq)
        boot = rng.integers(0, n, size=n)
        tree_imp = np.zeros(d)
        nodes: list[list] = []
        _build_node(nodes, Xc[boot], yc[boot], rng, mtry, min_samples_split, depth_cap, 0, tree_imp, n)
        total = tree_imp.sum()
        if total > 0:
            importance += tree_imp / total
        trees.append(_Tree(*zip(*nodes)))

    total = importance.sum()
    if total > 0:
        importance /= total
    return RandomForestModel(trees, d, importance)


def _build_node(nodes, Xn, yn, rng, mtry, min_samples_split, depth_cap, depth, tree_imp, n_total) -> int:
    """Grow the subtree for these rows, appending its
    ``[feature, threshold, left, right, prob]`` rows to ``nodes`` in preorder;
    returns its root's index."""
    n = len(yn)
    n_pos = float(yn.sum())
    nid = len(nodes)
    nodes.append([-1, 0.0, -1, -1, n_pos / n])
    parent_gini = _gini(n_pos, n)
    if n < min_samples_split or parent_gini == 0.0 or depth >= depth_cap:
        return nid

    d = Xn.shape[1]
    candidates = np.sort(rng.choice(d, size=min(mtry, d), replace=False))
    best_imp, best_j, best_thr = 0.0, -1, 0.0
    for j in candidates:
        col = Xn[:, j]
        sort_idx = np.argsort(col, kind="mergesort")
        vals = col[sort_idx]
        cut = np.nonzero(vals[:-1] < vals[1:])[0]  # boundaries between distinct values
        if len(cut) == 0:
            continue
        pos_cum = np.cumsum(yn[sort_idx])[cut]
        n_left = cut + 1.0
        n_right = n - n_left
        pos_right = n_pos - pos_cum
        child = (n_left * _gini_vec(pos_cum, n_left) + n_right * _gini_vec(pos_right, n_right)) / n
        improvement = parent_gini - child
        b = int(np.argmax(improvement))
        # Strict > keeps ties resolved toward the lowest feature index.
        if best_j < 0 or improvement[b] > best_imp + 1e-15:
            lo, hi = float(vals[cut[b]]), float(vals[cut[b] + 1])
            mid = (lo + hi) / 2.0
            best_imp = float(improvement[b])
            best_j = int(j)
            # midpoint can round down onto lo for adjacent floats; fall back
            # to hi so both children stay non-empty
            best_thr = mid if lo < mid else hi

    if best_j < 0:
        return nid

    go_left = Xn[:, best_j] < best_thr
    tree_imp[best_j] += (n / n_total) * best_imp
    left = _build_node(
        nodes, Xn[go_left], yn[go_left], rng, mtry, min_samples_split, depth_cap, depth + 1, tree_imp, n_total
    )
    right = _build_node(
        nodes, Xn[~go_left], yn[~go_left], rng, mtry, min_samples_split, depth_cap, depth + 1, tree_imp, n_total
    )
    nodes[nid][:4] = [best_j, best_thr, left, right]
    return nid


def _gini_vec(n_pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    p = n_pos / n
    return 2.0 * p * (1.0 - p)
