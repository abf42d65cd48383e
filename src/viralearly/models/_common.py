"""Shared helpers for the model implementations."""

from __future__ import annotations

import numpy as np

from ..errors import FitError, SchemaError
from ..ingest import read_int, read_list, read_number


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Coerce to float64 matrix / int8 labels; reject non-finite features and
    single-class targets."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise FitError(f"X must be 2-D, got shape {X.shape}")
    n_bad = int(np.sum(~np.isfinite(X)))
    if n_bad:
        raise FitError(f"X has {n_bad} non-finite values")
    y = np.asarray(y).astype(np.int8).ravel()
    if len(y) != X.shape[0]:
        raise FitError(f"X has {X.shape[0]} rows but y has {len(y)}")
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0, 1))):
        raise FitError("y must be binary 0/1")
    if len(classes) < 2:
        raise FitError("training labels contain a single class")
    return X, y


def balanced_sample_weights(y: np.ndarray) -> np.ndarray:
    """Per-sample weights n / (2 * n_class); both classes carry equal mass."""
    n = len(y)
    n_pos = int(np.sum(y == 1))
    n_neg = n - n_pos
    w = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return w.astype(np.float64)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logloss_terms(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample binary cross-entropy from logits, overflow-safe."""
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


class _Tree:
    """Flat-array binary tree shared by the forest and the GBT.

    Node i splits on ``X[:, feature[i]] < value[i]`` (true goes to
    ``left[i]``, false to ``right[i]``); ``feature[i] < 0`` marks a leaf,
    whose output is ``leaf_value[i]``.
    """

    __slots__ = ("feature", "value", "left", "right", "leaf_value")

    def __init__(self, feature, value, left, right, leaf_value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.leaf_value = np.asarray(leaf_value, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int32)
        while True:
            feat = self.feature[node]
            live = feat >= 0
            if not live.any():
                return self.leaf_value[node]
            rows = np.nonzero(live)[0]
            go_left = X[rows, feat[rows]] < self.value[node[rows]]
            node[rows] = np.where(go_left, self.left[node[rows]], self.right[node[rows]])

    def to_payload(self) -> dict:
        return {name: getattr(self, name).tolist() for name in self.__slots__}

    @classmethod
    def from_payload(cls, payload, n_features: int) -> "_Tree":
        """The tree saved as ``payload`` (a saved file's object): one item per node in each list,
        splits on one of ``n_features`` columns and children after their node, so prediction ends."""
        lists = [payload.read(k, read_list, item=r) for k, r in zip(cls.__slots__, (read_int, read_number, read_int, read_int, read_number))]
        feature, _, left, right, _ = lists
        n = len(feature)
        if not n or any(len(v) != n for v in lists):
            raise SchemaError(f"{payload.source}: a tree's lists are empty or of unequal length")
        for i, (f, l, r) in enumerate(zip(feature, left, right)):
            if not (-1 <= f < n_features and -1 <= l < n and -1 <= r < n) or (f >= 0 and min(l, r) <= i):
                raise SchemaError(f"{payload.source}: tree node {i} splits on {f} with children {l} and {r}")
        return cls(*lists)
