"""Gradient-boosted trees on the binary logistic loss.

Second-order (Newton) boosting: per round the tree is grown greedily on
histogram statistics of the loss gradients g = w*(p - y) and hessians
h = w*p*(1 - p), and each leaf outputs -G/(H + lambda) scaled by the learning
rate. Features are quantile-binned once per fit; split gain is the standard

    gain = 1/2 * [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)]

and a node splits on the best candidate when that gain is >= 0, each child
keeping at least one row and ``min_child_weight`` of hessian mass. Class
imbalance is handled through ``scale_pos_weight`` (positive-example weight,
``"auto"`` = #neg/#pos). The zero-round model is the constant weighted
base-rate logit. Everything is deterministic: no row or column sampling.
"""

from __future__ import annotations

import numpy as np

from ._common import _Tree, check_training_data, sigmoid

IMPORTANCE_TYPES = ("gain", "cover", "frequency")

# A mathematically-zero gain can round to a tiny negative; still split there
# so symmetric targets (XOR-like) are not stuck at the constant predictor.
_GAIN_EPS = 1e-12


class GBTModel:
    kind = "gbt"

    def __init__(self, base_logit, trees, n_features, gain, cover, frequency):
        self.base_logit = float(base_logit)
        self.trees: list[_Tree] = trees
        self.n_features = int(n_features)
        self._importance = {"gain": gain, "cover": cover, "frequency": frequency}

    @property
    def importances(self) -> np.ndarray:
        return self.importance("gain")

    def importance(self, importance_type: str = "gain") -> np.ndarray:
        if importance_type not in IMPORTANCE_TYPES:
            raise ValueError(f"unknown importance type {importance_type!r}")
        return self._importance[importance_type].copy()

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        z = np.full(len(X), self.base_logit)
        for tree in self.trees:
            z += tree.predict(X)
        return z

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def to_payload(self) -> dict:
        return {
            "base_logit": self.base_logit,
            "n_features": self.n_features,
            "trees": [t.to_payload() for t in self.trees],
            "importance": {k: v.tolist() for k, v in self._importance.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GBTModel":
        imp = payload["importance"]
        return cls(
            payload["base_logit"],
            [_Tree.from_payload(t) for t in payload["trees"]],
            payload["n_features"],
            np.asarray(imp["gain"]),
            np.asarray(imp["cover"]),
            np.asarray(imp["frequency"]),
        )


def _bin_columns(X: np.ndarray, max_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quantile-bin every column; returns integer codes and per-column thresholds.

    Rows with value < thresholds[b] have code <= b, so a histogram split
    "code <= b goes left" corresponds to the real-valued rule x < thresholds[b].
    """
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.int32)
    thresholds: list[np.ndarray] = []
    grid = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    for j in range(d):
        col = X[:, j]
        uniq = np.unique(col)
        if len(uniq) <= 1:
            thr = np.empty(0)
        elif len(uniq) <= max_bins:
            thr = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            thr = np.unique(np.quantile(col, grid))
        codes[:, j] = np.searchsorted(thr, col, side="right")
        thresholds.append(thr)
    return codes, thresholds


def fit_gbt(
    X,
    y,
    n_rounds: int = 100,
    learning_rate: float = 0.3,
    max_depth: int = 6,
    min_child_weight: float = 1.0,
    reg_lambda: float = 1.0,
    max_bins: int = 64,
    scale_pos_weight: float | str = "auto",
) -> GBTModel:
    X, y = check_training_data(X, y)
    n, d = X.shape
    if scale_pos_weight == "auto":
        n_pos = int(np.sum(y == 1))
        spw = (n - n_pos) / n_pos
    else:
        spw = float(scale_pos_weight)
    w = np.where(y == 1, spw, 1.0).astype(np.float64)

    base_rate = float(np.sum(w * y) / np.sum(w))
    base_rate = min(max(base_rate, 1e-12), 1.0 - 1e-12)
    base_logit = float(np.log(base_rate / (1.0 - base_rate)))

    codes, thresholds = _bin_columns(X, max_bins)
    n_bins = max(int(codes.max()) + 1, 2) if d else 2
    feat_offsets = (np.arange(d, dtype=np.int64) * n_bins)[None, :]  # (1, d)
    codes64 = codes.astype(np.int64) + feat_offsets  # flat (feature, bin) ids

    gain_imp = np.zeros(d)
    cover_imp = np.zeros(d)
    freq_imp = np.zeros(d)
    trees: list[_Tree] = []
    margin = np.full(n, base_logit)

    for _ in range(n_rounds):
        p = sigmoid(margin)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        tree = _grow_tree(
            codes64, thresholds, g, h,
            n_bins=n_bins, max_depth=max_depth,
            min_child_weight=min_child_weight, reg_lambda=reg_lambda,
            learning_rate=learning_rate,
            gain_imp=gain_imp, cover_imp=cover_imp, freq_imp=freq_imp,
            margin=margin,
        )
        trees.append(tree)

    return GBTModel(base_logit, trees, d, gain_imp, cover_imp, freq_imp)


def _grow_tree(
    codes64, thresholds, g, h, *, n_bins, max_depth, min_child_weight,
    reg_lambda, learning_rate, gain_imp, cover_imp, freq_imp, margin,
):
    n, d = codes64.shape
    lam = reg_lambda

    nodes = [[-1, 0.0, -1, -1, 0.0]]  # [feature, value, left, right, leaf_value] rows

    row_node = np.zeros(n, dtype=np.int32)
    frontier = [0]
    # Histogram subtraction: per split only the smaller child is re-binned,
    # the sibling's histogram is parent minus child.
    hists: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    derive_from: dict[int, tuple[int, int]] = {}  # node -> (parent, sibling)

    for depth in range(max_depth + 1):
        if not frontier:
            break
        to_compute = [nid for nid in frontier if nid not in derive_from]
        if to_compute and d:
            slot = np.full(len(nodes), -1, dtype=np.int64)
            for k, nid in enumerate(to_compute):
                slot[nid] = k
            row_slot = slot[row_node]
            rows = np.nonzero(row_slot >= 0)[0]
            flat = (row_slot[rows, None] * (d * n_bins) + codes64[rows]).ravel()
            size = len(to_compute) * d * n_bins
            hist_g = np.bincount(flat, weights=np.repeat(g[rows], d), minlength=size)
            hist_h = np.bincount(flat, weights=np.repeat(h[rows], d), minlength=size)
            hist_n = np.bincount(flat, minlength=size).astype(np.float64)
            hist_g = hist_g.reshape(len(to_compute), d, n_bins)
            hist_h = hist_h.reshape(len(to_compute), d, n_bins)
            hist_n = hist_n.reshape(len(to_compute), d, n_bins)
            for k, nid in enumerate(to_compute):
                hists[nid] = (hist_g[k], hist_h[k], hist_n[k])
        for nid in frontier:
            if nid in derive_from:
                pid, sib = derive_from.pop(nid)
                pg, ph, pn = hists.pop(pid)
                sg, sh, sn = hists[sib]
                hists[nid] = (pg - sg, ph - sh, pn - sn)

        next_frontier: list[int] = []
        for nid in frontier:
            hg, hh, hn = hists[nid] if d else (None, None, None)
            G = float(hg[0].sum()) if d else 0.0
            H = float(hh[0].sum()) if d else 0.0
            N = float(hn[0].sum()) if d else float(n)
            make_leaf = True
            if d and N >= 2 and depth < max_depth:
                GLc = np.cumsum(hg, axis=1)
                HLc = np.cumsum(hh, axis=1)
                NLc = np.cumsum(hn, axis=1)
                GR = G - GLc
                HR = H - HLc
                NR = N - NLc
                parent_score = G * G / (H + lam)
                gains = 0.5 * (GLc**2 / (HLc + lam) + GR**2 / (HR + lam) - parent_score)
                valid = (
                    (HLc >= min_child_weight)
                    & (HR >= min_child_weight)
                    & (NLc >= 1)
                    & (NR >= 1)
                )
                gains = np.where(valid, gains, -np.inf)
                best_flat = int(np.argmax(gains))
                best_gain = float(gains.ravel()[best_flat])
                if np.isfinite(best_gain) and best_gain >= -_GAIN_EPS:
                    bj, bb = divmod(best_flat, n_bins)
                    gain_imp[bj] += max(best_gain, 0.0)
                    cover_imp[bj] += H
                    freq_imp[bj] += 1.0
                    lid, rid = len(nodes), len(nodes) + 1
                    nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
                    thr = float(thresholds[bj][bb]) if bb < len(thresholds[bj]) else np.inf
                    nodes[nid][:4] = [bj, thr, lid, rid]
                    node_rows = np.nonzero(row_node == nid)[0]
                    goes_left = codes64[node_rows, bj] - bj * n_bins <= bb
                    row_node[node_rows] = np.where(goes_left, lid, rid)
                    n_left = float(NLc[bj, bb])
                    small, big = (lid, rid) if n_left <= N - n_left else (rid, lid)
                    derive_from[big] = (nid, small)
                    next_frontier.extend([lid, rid])
                    make_leaf = False
            if make_leaf:
                nodes[nid][4] = learning_rate * (-G / (H + lam))
                hists.pop(nid, None)  # split nodes keep theirs for the sibling derivation
        frontier = next_frontier

    tree = _Tree(*zip(*nodes))
    margin += tree.leaf_value[row_node]
    return tree
