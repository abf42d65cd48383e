"""Two-hidden-layer ReLU perceptron trained with Adam on weighted BCE loss.

The loss is the weight-normalized cross entropy sum(s_i * bce_i) / sum(s_i)
with balanced class weights. ``loss_and_gradients`` exposes the
exact analytic gradient of that loss for a parameter vector, which the test
suite checks against central finite differences.

Early stopping mirrors the usual recipe: hold out a stratified validation
fraction, stop after ``patience`` epochs without an improvement larger than
``tol``, and restore the best parameters seen. With a fixed seed the whole
procedure (init, shuffles, validation split) is bit-reproducible.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import FitError, SchemaError
from ..ingest import read_int, read_list, read_number
from ._common import balanced_sample_weights, check_training_data, logloss_terms, sigmoid


class MLPParams:
    """Weights and biases for the stack of dense layers."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases

    def copy(self) -> "MLPParams":
        return MLPParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(n_features: int, hidden: tuple[int, ...], rng: np.random.Generator) -> MLPParams:
    """Scaled uniform init: limit sqrt(6 / (fan_in + fan_out)), zero biases."""
    sizes = [n_features, *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPParams(weights, biases)


def _forward(params: MLPParams, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    acts = [X]
    a = X
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        acts.append(a)
    return acts[-1][:, 0], acts


def loss_and_gradients(
    params: MLPParams, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray
) -> tuple[float, MLPParams]:
    """Weighted-mean BCE loss and its exact gradients for every parameter."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    s = np.asarray(sample_weight, dtype=np.float64).ravel()
    total = s.sum()
    z, acts = _forward(params, X)
    loss = float(np.sum(s * logloss_terms(z, y)) / total)

    delta = (s * (sigmoid(z) - y) / total)[:, None]
    grads_w: list[np.ndarray] = [None] * len(params.weights)  # type: ignore[list-item]
    grads_b: list[np.ndarray] = [None] * len(params.biases)  # type: ignore[list-item]
    for i in range(len(params.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * (acts[i] > 0.0)
    return loss, MLPParams(grads_w, grads_b)


class MLPModel:
    kind = "mlp"

    def __init__(self, params: MLPParams, n_features: int, n_epochs: int):
        self.params = params
        self.n_features = int(n_features)
        self.n_epochs = n_epochs

    @property
    def importances(self) -> None:
        return None

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        z, _ = _forward(self.params, np.asarray(X, dtype=np.float64))
        return z

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def to_payload(self) -> dict:
        return {
            "n_features": self.n_features,
            "n_epochs": self.n_epochs,
            "weights": [w.tolist() for w in self.params.weights],
            "biases": [b.tolist() for b in self.params.biases],
        }

    @classmethod
    def from_payload(cls, payload) -> "MLPModel":
        """The network saved as ``payload``: rectangular layers, each with a bias
        per column, chaining ``n_features`` inputs to one output; else a
        SchemaError naming the file and the key."""
        vector = partial(read_list, item=read_number)
        weights = payload.read("weights", read_list, item=partial(read_list, item=vector))
        biases = payload.read("biases", read_list, item=vector, length=len(weights))
        width = n_features = payload.read("n_features", read_int)
        for i, (w, b) in enumerate(zip(weights, biases)):
            if len(w) != width or {len(row) for row in w} != {len(b)}:
                raise SchemaError(f"{payload.source}: 'weights'[{i}] is not {width} rows of {len(b)} numbers, one per 'biases'[{i}] item")
            width = len(b)
        if not weights or width != 1:
            raise SchemaError(f"{payload.source}: the last layer of 'weights' has {width} columns, not 1")
        params = MLPParams([np.array(w, dtype=np.float64) for w in weights], [np.array(b, dtype=np.float64) for b in biases])
        return cls(params, n_features, payload.read("n_epochs", read_int))


def _stratified_holdout(y: np.ndarray, fraction: float, rng: np.random.Generator):
    """Seeded stratified split; every class keeps at least one held-out row."""
    val_idx = []
    for cls in (0, 1):
        idx = np.nonzero(y == cls)[0]
        idx = idx[rng.permutation(len(idx))]
        n_val = max(1, int(round(fraction * len(idx))))
        if n_val >= len(idx):
            raise FitError("not enough rows per class for a validation split")
        val_idx.append(idx[:n_val])
    val = np.sort(np.concatenate(val_idx))
    train = np.setdiff1d(np.arange(len(y)), val)
    return train, val


def fit_mlp(
    X,
    y,
    hidden: tuple[int, ...] = (100, 50),
    learning_rate: float = 1e-3,
    batch_size: int = 256,
    max_epochs: int = 500,
    validation_fraction: float = 0.1,
    tol: float = 1e-4,
    patience: int = 10,
    seed: int = 42,
) -> MLPModel:
    X, y = check_training_data(X, y)
    s = balanced_sample_weights(y)

    rng = np.random.default_rng(seed)
    params = init_params(X.shape[1], tuple(hidden), rng)

    tr_idx, val_idx = _stratified_holdout(y, validation_fraction, rng)
    X_tr, y_tr, s_tr = X[tr_idx], y[tr_idx], s[tr_idx]
    X_val, y_val, s_val = X[val_idx], y[val_idx], s[val_idx]

    n_tr = len(y_tr)
    bs = min(batch_size, n_tr)

    m = [np.zeros_like(w) for w in params.weights] + [np.zeros_like(b) for b in params.biases]
    v = [np.zeros_like(w) for w in params.weights] + [np.zeros_like(b) for b in params.biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_loss = np.inf
    best_params = params.copy()
    bad_epochs = 0
    epochs_run = 0

    for epoch in range(max_epochs):
        perm = rng.permutation(n_tr)
        for start in range(0, n_tr, bs):
            batch = perm[start : start + bs]
            _, grads = loss_and_gradients(params, X_tr[batch], y_tr[batch], s_tr[batch])
            flat_grads = grads.weights + grads.biases
            flat_params = params.weights + params.biases
            step += 1
            correction = np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            for i, grad in enumerate(flat_grads):
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad
                flat_params[i] -= learning_rate * correction * m[i] / (np.sqrt(v[i]) + eps)
        epochs_run = epoch + 1

        z_val, _ = _forward(params, X_val)
        monitored = float(np.sum(s_val * logloss_terms(z_val, y_val)) / s_val.sum())
        if monitored < best_loss - tol:
            best_loss = monitored
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break

    return MLPModel(best_params, X.shape[1], epochs_run)
