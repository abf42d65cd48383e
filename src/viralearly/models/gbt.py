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
base-rate logit. Everything is deterministic: no row or column sampling. A
hyperparameter the fit cannot honour (a negative or non-finite
``min_child_weight``, a ``reg_lambda`` or ``scale_pos_weight`` that is not a
finite positive number, a non-finite ``learning_rate``, ``max_bins`` < 2 or
``max_depth`` < 0) is a :class:`ConfigError` naming it. A zero
``reg_lambda`` would divide by zero at a leaf or side whose rows all have p
exactly 0 or 1.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
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
    A column with at most ``max_bins`` distinct values has their midpoints as
    thresholds, any other the distinct values of its quantile grid.
    """
    n, d = X.shape
    grid = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    ordered = np.sort(X, axis=0)
    starts = np.ones((n, d), dtype=bool)  # where a column's sorted run of equal values starts
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    n_distinct = starts.sum(axis=0)
    thresholds: list[np.ndarray] = []
    for j in range(d):
        if n_distinct[j] <= 1:
            thr = np.empty(0)
        elif n_distinct[j] <= max_bins:
            uniq = ordered[starts[:, j], j]
            thr = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            thr = np.unique(np.quantile(X[:, j], grid))
        thresholds.append(thr)
    sizes = np.array([len(t) for t in thresholds])
    codes = np.zeros((n, d), dtype=np.int32)
    one = np.nonzero(sizes == 1)[0]
    codes[:, one] = X[:, one] >= np.array([thresholds[j][0] for j in one])
    for j in np.nonzero(sizes >= 2)[0]:
        codes[:, j] = np.searchsorted(thresholds[j], X[:, j], side="right")
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
    _check("learning_rate", learning_rate, "a finite number", math.isfinite)
    _check("max_depth", max_depth, ">= 0", lambda v: v >= 0)
    _check("min_child_weight", min_child_weight, "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)
    _check("reg_lambda", reg_lambda, "a finite number > 0", lambda v: math.isfinite(v) and v > 0)
    _check("max_bins", max_bins, ">= 2", lambda v: v >= 2)
    if scale_pos_weight != "auto":
        _check("scale_pos_weight", scale_pos_weight, '"auto" or a finite number > 0', lambda v: math.isfinite(v) and v > 0)
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


def _check(name: str, value, rule: str, holds) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a number for which ``holds`` is true."""
    try:
        ok = holds(float(value))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"gbt {name} must be {rule}, got {value!r}")


class _HistogramGrower:
    """Grows one fit's trees level by level on per-node histograms.

    A node's full histogram is one plane of cells per stat (gradient and
    hessian sums, and row counts when they are needed, see below):

        [column 0: n_bins] [wide blocks, each (k x columns) bin-major] [narrow: n_narrow] [trash]

    Wide columns have two or more thresholds and narrow ones exactly one;
    constant columns have no cells. Column 0 keeps every bin in a block of
    its own, because the node totals G and H are the sum of its bins. Other
    columns store only the bins left of a threshold: the last bin never lies
    left of a split, so its rows go to the trash cell, which nothing reads.
    Wide columns are grouped by the power of two at or above their
    threshold count, each block padded to its own largest count, so that
    one cumulative sum per block covers fewer than twice the cells its
    candidates read. Split candidates are the (column j, bin
    b < len(thresholds[j])) pairs in feature-major order, so the first
    maximum is the one a scan of the full (column, bin) grid finds.

    Per fit: each row's cell ids, the root's count histogram, the blocks and
    the candidate list. Per round: column 0's bins of the root, and its full
    g and h histograms when it is live. Per level, after the rows move to
    the children, whose row counts come from the partition: column 0's bins
    of the smaller child of every split (its sibling's are the parent's
    minus them), which give every child's G and H; then full histograms of
    the smaller child of every split with a live child, the live larger
    children by subtraction, and one split search over the live children.

    A node is live when a split of it can be valid: it has two rows or
    more, and it is not too light for both sides to carry
    ``min_child_weight``. A valid split has HL >= mcw and fl(H - HL) >= mcw,
    so H >= mcw + (mcw less half a unit in its last place); a node with
    H < 2 * nextafter(mcw, 0) has none. Every other node is searched, as
    the grid scan searches it, and a dead node becomes the same leaf.

    The row-count plane only rules out an empty side, and is dropped when
    ``min_child_weight`` already does. Hessians are >= 0, so every cell's
    true sum lies between 0 and that cell's sum at the root, and the cells
    of one column add up to the root's total M. A bincounted cell of m rows
    is off by at most m*u of its true sum (u = 2**-53); a subtracted one by
    the errors of its parent and of its sibling plus one rounding, so a cell
    at depth k < max_depth is off by at most about max_depth * (n + 1) * u
    of the root's cell. An empty side's true sum is 0, so its HL, or its
    HR = H - HL with H and HL two sums of up to n_bins such cells of one
    true total, is at most 2 * (max_depth * (n + 1) + n_bins) * u * M in
    size. When ``min_child_weight`` exceeds twice that bound (the factor 2
    covers M's own rounding and the second-order terms), HL >= mcw and
    HR >= mcw imply that both sides have rows; otherwise, and for mcw = 0,
    the count plane is built. An empty cell of a subtracted sibling is not
    exactly 0: its parent may itself be a difference.

    Every cell sums its rows in row order and every cumulative sum runs
    along the bins, so the trees are bit-identical to the grid scan's.
    """

    def __init__(self, codes: np.ndarray, thresholds: list[np.ndarray]):
        d = codes.shape[1]
        sizes = np.array([len(t) for t in thresholds])
        narrow = np.nonzero(sizes == 1)[0]
        nb = max(int(codes.max()) + 1, 2)
        nn = len(narrow)
        self.codes, self.thresholds = codes, thresholds
        self.n_bins = nb
        self.splittable = bool(sizes.any())

        # Each candidate's position in the left sums [wide blocks | narrow],
        # i.e. plane[n_bins:trash], and each row's cell per stored column.
        first = np.zeros(d, dtype=np.int64)  # position of a column's bin 0
        stride = np.zeros(d, dtype=np.int64)  # distance between its bins
        self.blocks = []  # (start in the left sums, bins, columns) per wide block
        start = 0
        for columns in _wide_blocks(sizes):
            k, c = int(sizes[columns].max()), len(columns)
            first[columns] = start + np.arange(c)
            stride[columns] = c
            self.blocks.append((start, k, c))
            start += k * c
        first[narrow] = start + np.arange(nn)
        self.narrow_at = nb + start
        self.trash = self.narrow_at + nn
        self.plane = self.trash + 1
        stored = np.nonzero(sizes >= 1)[0]
        stored_codes = codes[:, stored]
        self.ids = np.concatenate(
            [
                codes[:, :1],
                np.where(stored_codes < sizes[stored], nb + first[stored] + stored_codes * stride[stored], self.trash),
            ],
            axis=1,
        ).astype(np.int64, order="C")  # row-major: a level gathers whole rows
        self.codes0 = self.ids[:, 0].copy()
        kept = self.ids != self.trash
        self.root_ids = self.ids[kept]  # still row-major, so each cell sums its rows in order
        self.root_repeats = kept.sum(axis=1)
        self.root_counts = np.bincount(self.root_ids, minlength=self.plane).astype(np.float64)

        self.cand_feature = np.repeat(np.arange(d), sizes)
        self.cand_bin = np.arange(len(self.cand_feature)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.cand_pos = first[self.cand_feature] + self.cand_bin * stride[self.cand_feature]

    def grow(self, g, h, *, max_depth, min_child_weight, reg_lambda, learning_rate, gain_imp):
        """One tree on gradients ``g`` and hessians ``h``; returns it and each row's leaf.

        ``gain_imp`` is the fit's gain per feature, added to in place.
        """
        lam, mcw = reg_lambda, min_child_weight
        nb, n = self.n_bins, len(g)
        light = 2.0 * np.nextafter(mcw, 0.0) if mcw > 0 else -np.inf  # H below this cannot split
        empty_side = 4.0 * (max_depth * (n + 1) + nb) * 2.0**-53 * float(np.sum(h))
        counted = not mcw > empty_side  # also when the bound is NaN
        stats = (g, h, None) if counted else (g, h)  # None: the row counts
        nodes = [[-1, 0.0, -1, -1, 0.0]]  # [feature, value, left, right, leaf_value] rows
        row_node = np.zeros(n, dtype=np.int32)
        row_pos = np.ones(n, dtype=np.int64)

        # Per level: the frontier's node ids and totals, the full planes
        # (planes[:, :first_searched] are dead nodes a live sibling is
        # derived from) and the frontier positions of the searched nodes,
        # in plane order from first_searched on.
        frontier = np.zeros(1, dtype=np.int64)
        N = np.array([float(n)])
        G, H = (np.bincount(self.codes0, weights=v, minlength=nb).sum(keepdims=True) for v in (g, h))
        live = self.splittable and max_depth > 0 and n >= 2 and not H[0] < light
        searched = np.arange(int(live))
        planes = np.empty((len(stats), int(live), self.plane))
        for k, v in enumerate(stats if live else ()):
            planes[k, 0] = (
                self.root_counts if v is None
                else np.bincount(self.root_ids, weights=np.repeat(v, self.root_repeats), minlength=self.plane)
            )
        plane_of, first_searched = searched, 0

        depth = 0
        while True:
            gain = np.full(len(frontier), -np.inf)
            best = np.zeros(len(frontier), dtype=np.int64)
            if len(searched):
                best[searched], gain[searched] = self._best_splits(
                    planes[:, first_searched:], G[searched], H[searched], N[searched], mcw, lam, counted
                )
            splits = np.isfinite(gain) & (gain >= -_GAIN_EPS)
            for nid, G_, H_ in zip(frontier[~splits].tolist(), G[~splits].tolist(), H[~splits].tolist()):
                nodes[nid][4] = learning_rate * (-G_ / (H_ + lam))
            parent_pos = np.nonzero(splits)[0]
            if not len(parent_pos):
                break

            n_splits = len(parent_pos)
            nid_ = frontier[parent_pos]
            bj_ = self.cand_feature[best[parent_pos]]
            bb_ = self.cand_bin[best[parent_pos]]
            first_child = len(nodes)
            lid_ = first_child + 2 * np.arange(n_splits)
            for nid, bj, bb, lid, split_gain in zip(
                nid_.tolist(), bj_.tolist(), bb_.tolist(), lid_.tolist(), gain[parent_pos].tolist()
            ):
                gain_imp[bj] += max(split_gain, 0.0)
                nodes[nid][:4] = [bj, float(self.thresholds[bj][bb]), lid, lid + 1]
            nodes += [[-1, 0.0, -1, -1, 0.0] for _ in range(2 * n_splits)]

            # Each row's frontier position + 1 on the next level, 0 in a leaf;
            # the children of split s sit at positions 2s (left) and 2s + 1.
            split_of = np.full(len(frontier) + 1, -1, dtype=np.int64)
            split_of[parent_pos + 1] = np.arange(n_splits)
            s = split_of[row_pos]
            moving = np.nonzero(s >= 0)[0]
            s = s[moving]
            child = 2 * s + (self.codes[moving, bj_[s]] > bb_[s])
            row_node[moving] = first_child + child
            row_pos = np.zeros(n, dtype=np.int64)
            row_pos[moving] = child + 1

            depth += 1
            frontier = first_child + np.arange(2 * n_splits)
            N = np.bincount(row_pos, minlength=len(frontier) + 1)[1:].astype(np.float64)
            small = 2 * np.arange(n_splits) + (N[0::2] > N[1::2])  # ties: the left child
            big = small ^ 1
            parent = plane_of[parent_pos]
            # Column 0's bins of every child summed directly; the larger ones
            # are then replaced by their parent's minus the smaller child's.
            flat = row_pos * nb + self.codes0
            col0 = np.stack([np.bincount(flat, weights=v, minlength=(len(frontier) + 1) * nb) for v in (g, h)])
            col0 = col0.reshape(2, len(frontier) + 1, nb)[:, 1:]
            col0[:, big] = planes[:2, parent, :nb] - col0[:, small]
            G, H = col0.sum(axis=2)
            if depth == max_depth:
                searched = np.zeros(0, dtype=np.int64)
                continue

            live = (N >= 2) & ~(H < light)
            # Planes are built for the dead small children a live sibling is
            # derived from, then for the live small children, and derived
            # for the live larger ones.
            needed = np.nonzero(live[big] & ~live[small])[0]
            built = np.concatenate([needed, np.nonzero(live[small])[0]])
            derived = np.nonzero(live[big])[0]
            first_searched = len(needed)
            searched = np.concatenate([small[built[first_searched:]], big[derived]])
            slot = np.full(len(frontier) + 1, -1, dtype=np.int64)  # each plane's frontier position + 1
            slot[small[built] + 1] = np.arange(len(built))
            nxt = self._histograms(stats, slot[row_pos], len(built) + len(derived))
            slot[big[derived] + 1] = np.arange(len(built), len(built) + len(derived))
            for split in derived.tolist():
                np.subtract(planes[:, parent[split]], nxt[:, slot[small[split] + 1]], out=nxt[:, slot[big[split] + 1]])
            planes, plane_of = nxt, slot[1:]

        return _Tree(*zip(*nodes)), row_node

    def _histograms(self, stats, row_slot, n_slots):
        """(len(stats), n_slots, plane) full histograms of the rows whose slot
        is >= 0; a stat of None counts the rows."""
        rows = np.nonzero(row_slot >= 0)[0]
        flat = (row_slot[rows, None] * self.plane + self.ids.take(rows, axis=0)).ravel()
        m, size = self.ids.shape[1], n_slots * self.plane
        hist = np.empty((len(stats), n_slots, self.plane))
        for k, v in enumerate(stats):
            weights = None if v is None else np.repeat(v.take(rows), m)
            hist[k] = np.bincount(flat, weights=weights, minlength=size).reshape(n_slots, self.plane)
        return hist

    def _best_splits(self, hist, G, H, N, min_child_weight, lam, counted):
        """Per node of ``hist`` (totals G, H, N): its best candidate and that
        candidate's gain, -inf when none is valid."""
        nb = self.n_bins
        n_stats, n_nodes = hist.shape[:2]
        left = np.empty((n_stats, n_nodes, self.trash - nb))
        for start, k, c in self.blocks:
            shape = (n_stats, n_nodes, k, c)
            cells = slice(start, start + k * c)
            # out= is a view: only the last axis is split
            np.cumsum(hist[:, :, nb:][:, :, cells].reshape(shape), axis=2, out=left[:, :, cells].reshape(shape))
        left[:, :, self.narrow_at - nb :] = hist[:, :, self.narrow_at : self.trash]
        sides = left.take(self.cand_pos, axis=2)
        GL, HL = sides[0], sides[1]
        G, H = G[:, None], H[:, None]
        GR = G - GL
        HR = H - HL
        valid = HL >= min_child_weight
        valid &= HR >= min_child_weight
        if counted:
            NL = sides[2]
            valid &= NL >= 1
            valid &= N[:, None] - NL >= 1
        # gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - G**2 / (H + lam)), in place
        HL += lam
        HR += lam
        gains = np.square(GL)
        gains /= HL
        np.square(GR, out=GR)
        GR /= HR
        gains += GR
        gains -= G * G / (H + lam)
        gains *= 0.5
        gains[~valid] = -np.inf
        best = np.argmax(gains, axis=1)
        return best, gains[np.arange(n_nodes), best]


def _wide_blocks(sizes: np.ndarray) -> list[np.ndarray]:
    """The wide columns (two thresholds or more) grouped by the power of two
    at or above their threshold count, each block in ascending column order."""
    wide = np.nonzero(sizes >= 2)[0]
    exponent = np.frexp(sizes[wide] - 1)[1]  # 2**exponent is that power of two
    return [wide[exponent == e] for e in np.unique(exponent)]
