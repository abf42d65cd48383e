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

from ..ingest import read_int, read_list, read_number
from ._common import _Tree, check_training_data, sigmoid

# A mathematically-zero gain can round to a tiny negative; still split there
# so symmetric targets (XOR-like) are not stuck at the constant predictor.
_GAIN_EPS = 1e-12


class GBTModel:
    kind = "gbt"

    def __init__(self, base_logit, trees, n_features, gain):
        self.base_logit = float(base_logit)
        self.trees: list[_Tree] = trees
        self.n_features = int(n_features)
        self._gain = gain

    @property
    def importances(self) -> np.ndarray:
        """Total split gain per feature."""
        return self._gain.copy()

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
            "importance": self._gain.tolist(),
        }

    @classmethod
    def from_payload(cls, payload) -> "GBTModel":
        n_features = payload.read("n_features", read_int)
        return cls(
            payload.read("base_logit", read_number),
            [_Tree.from_payload(t, n_features) for t in payload.objects("trees")],
            n_features,
            np.array(payload.read("importance", read_list, item=read_number, length=n_features)),
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

    if d == 0:  # nothing to split on: every tree is one leaf on zero gradient mass
        leaf = _Tree([-1], [0.0], [-1], [-1], [learning_rate * (-0.0 / (0.0 + reg_lambda))])
        return GBTModel(base_logit, [leaf] * n_rounds, 0, np.zeros(0))

    grower = _HistogramGrower(*_bin_columns(X, max_bins))
    gain = np.zeros(d)
    trees: list[_Tree] = []
    margin = np.full(n, base_logit)
    for _ in range(n_rounds):
        p = sigmoid(margin)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        tree, row_leaf = grower.grow(
            g, h, max_depth=max_depth, min_child_weight=min_child_weight,
            reg_lambda=reg_lambda, learning_rate=learning_rate, gain_imp=gain,
        )
        margin += tree.leaf_value[row_leaf]
        trees.append(tree)

    return GBTModel(base_logit, trees, d, gain)


class _HistogramGrower:
    """Grows one fit's trees level by level on per-node histograms.

    A level's histograms are one (3, nodes, plane) array: gradient, hessian
    and row-count sums over the cells

        [column 0: n_bins] [wide: (n_bins - 1) x n_wide, bin-major] [narrow: n_narrow] [trash]

    Wide columns have two or more thresholds and narrow ones exactly one;
    constant columns have no cells. Column 0 keeps every bin in a block of
    its own, because the node totals G/H/N are the sum of its bins. Other
    columns store only the bins left of a threshold: the last bin never lies
    left of a split, so its rows go to the trash cell, which nothing reads.
    Split candidates are the (column j, bin b < len(thresholds[j])) pairs in
    feature-major order, so the first maximum is the one a scan of the full
    (column, bin) grid finds; every other grid cell is invalid.

    Per fit: each row's cell ids, the root's count histogram and the
    candidate list. Per round: the root's g and h histograms, one bincount
    each. Per level: one bincount per stat for the smaller child of every
    split (its sibling is the parent minus it) and one split search over
    all frontier nodes. The last level builds column 0's bins only.

    Every cell sums its rows in row order and every cumulative sum runs
    along the bins, so the trees are bit-identical to the grid scan's.
    """

    def __init__(self, codes: np.ndarray, thresholds: list[np.ndarray]):
        d = codes.shape[1]
        sizes = np.array([len(t) for t in thresholds])
        wide = np.nonzero(sizes >= 2)[0]
        narrow = np.nonzero(sizes == 1)[0]
        nb = max(int(codes.max()) + 1, 2)
        nw, nn = len(wide), len(narrow)
        self.codes, self.thresholds = codes, thresholds
        self.n_bins, self.n_wide = nb, nw
        self.narrow_at = nb + (nb - 1) * nw
        self.trash = self.narrow_at + nn
        self.plane = self.trash + 1
        wide_codes = codes[:, wide]
        self.ids = np.concatenate(
            [
                codes[:, :1],
                np.where(wide_codes < sizes[wide], nb + wide_codes * nw + np.arange(nw), self.trash),
                np.where(codes[:, narrow] == 0, self.narrow_at + np.arange(nn), self.trash),
            ],
            axis=1,
        ).astype(np.int64, order="C")  # row-major: a level gathers whole rows
        stored = self.ids != self.trash
        self.root_ids = self.ids[stored]  # still row-major, so each cell sums its rows in order
        self.root_repeats = stored.sum(axis=1)
        self.root_counts = np.bincount(self.root_ids, minlength=self.plane).astype(np.float64)

        # Candidate positions in the left sums [wide cumsum | narrow], i.e. plane[n_bins:trash].
        first = np.zeros(d, dtype=np.int64)
        first[wide] = np.arange(nw)
        first[narrow] = (nb - 1) * nw + np.arange(nn)
        self.cand_feature = np.repeat(np.arange(d), sizes)
        self.cand_bin = np.arange(len(self.cand_feature)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.cand_pos = first[self.cand_feature] + self.cand_bin * nw

    def grow(self, g, h, *, max_depth, min_child_weight, reg_lambda, learning_rate, gain_imp):
        """One tree on gradients ``g`` and hessians ``h``; returns it and each row's leaf.

        ``gain_imp`` is the fit's gain per feature, added to in place.
        """
        lam = reg_lambda
        nb = self.n_bins
        splittable = len(self.cand_feature) > 0
        nodes = [[-1, 0.0, -1, -1, 0.0]]  # [feature, value, left, right, leaf_value] rows
        row_node = np.zeros(len(g), dtype=np.int32)
        frontier = [0]

        search = splittable and max_depth > 0  # a level that searches needs the full plane
        if search:
            hist = np.empty((3, 1, self.plane))
            for stat, v in enumerate((g, h)):
                hist[stat, 0] = np.bincount(
                    self.root_ids, weights=np.repeat(v, self.root_repeats), minlength=self.plane
                )
            hist[2, 0] = self.root_counts
        else:
            hist = self._histograms(g, h, np.zeros(len(g), dtype=np.int64), 1, search)

        depth = 0
        while True:
            totals = hist[:, :, :nb].sum(axis=2)  # (3, nodes): G, H, N
            if search:
                best, best_gain, best_left = self._best_splits(hist, totals, min_child_weight, lam)
            splits = []  # (frontier position, node, feature, bin, left id, right id, left is smaller)
            for k, nid in enumerate(frontier):
                G, H, N = (float(v) for v in totals[:, k])
                gain = float(best_gain[k]) if search else -np.inf
                if np.isfinite(gain) and gain >= -_GAIN_EPS:
                    c = int(best[k])
                    bj, bb = int(self.cand_feature[c]), int(self.cand_bin[c])
                    gain_imp[bj] += max(gain, 0.0)
                    lid, rid = len(nodes), len(nodes) + 1
                    nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
                    nodes[nid][:4] = [bj, float(self.thresholds[bj][bb]), lid, rid]
                    n_left = float(best_left[k])
                    splits.append((k, nid, bj, bb, lid, rid, n_left <= N - n_left))
                else:
                    nodes[nid][4] = learning_rate * (-G / (H + lam))
            if not splits:
                break

            depth += 1
            search = splittable and depth < max_depth
            parent_pos, nid_, bj_, bb_, lid_, rid_, small_left = (np.array(c) for c in zip(*splits))
            by_node = np.full(len(nodes), -1, dtype=np.int64)
            by_node[nid_] = np.arange(len(splits))
            s = by_node[row_node]
            moving = np.nonzero(s >= 0)[0]
            s = s[moving]
            goes_left = self.codes[moving, bj_[s]] <= bb_[s]
            row_node[moving] = np.where(goes_left, lid_[s], rid_[s])

            # The children of split s sit at frontier positions 2s and 2s + 1.
            frontier = [c for pair in zip(lid_.tolist(), rid_.tolist()) for c in pair]
            small_pos = 2 * np.arange(len(splits)) + ~small_left
            slot = np.full(len(nodes), -1, dtype=np.int64)
            slot[np.where(small_left, lid_, rid_)] = small_pos
            nxt = self._histograms(g, h, slot[row_node], len(frontier), search)
            width = nxt.shape[2]
            for k, pos in zip(parent_pos.tolist(), small_pos.tolist()):
                np.subtract(hist[:, k, :width], nxt[:, pos], out=nxt[:, pos ^ 1])
            hist = nxt

        return _Tree(*zip(*nodes)), row_node

    def _histograms(self, g, h, row_slot, n_slots, search):
        """(3, n_slots, width) histograms of the rows whose slot is >= 0: the
        full plane when the level searches, else column 0's bins only."""
        ids = self.ids if search else self.ids[:, :1]
        width = self.plane if search else self.n_bins
        rows = np.nonzero(row_slot >= 0)[0]
        flat = (row_slot[rows, None] * width + ids.take(rows, axis=0)).ravel()
        m, size = ids.shape[1], n_slots * width
        hist = np.empty((3, n_slots, width))
        for stat, v in enumerate((g, h)):
            hist[stat] = np.bincount(flat, weights=np.repeat(v.take(rows), m), minlength=size).reshape(n_slots, width)
        hist[2] = np.bincount(flat, minlength=size).reshape(n_slots, width)
        return hist

    def _best_splits(self, hist, totals, min_child_weight, lam):
        """Per node: its best candidate, that candidate's gain (-inf when none
        is valid, as for any one-row node) and its left row count."""
        nb, nw = self.n_bins, self.n_wide
        n_nodes = hist.shape[1]
        wide_end = (nb - 1) * nw
        left = np.empty((3, n_nodes, self.trash - nb))
        np.cumsum(
            hist[:, :, nb : self.narrow_at].reshape(3, n_nodes, nb - 1, nw),
            axis=2,
            out=left[:, :, :wide_end].reshape(3, n_nodes, nb - 1, nw),  # a view: the last axis is split
        )
        left[:, :, wide_end:] = hist[:, :, self.narrow_at : self.trash]
        GL, HL, NL = left.take(self.cand_pos, axis=2)
        G, H, N = (t[:, None] for t in totals)
        GR = G - GL
        HR = H - HL
        NR = N - NL
        parent_score = G * G / (H + lam)
        gains = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent_score)
        valid = (HL >= min_child_weight) & (HR >= min_child_weight) & (NL >= 1) & (NR >= 1)
        gains = np.where(valid, gains, -np.inf)
        best = np.argmax(gains, axis=1)
        at = np.arange(n_nodes)
        return best, gains[at, best], NL[at, best]
