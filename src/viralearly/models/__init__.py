"""Classifier families behind one train / predict / importance interface.

Four kinds are available: ``logreg``, ``gbt``, ``mlp`` (the benchmark trio)
and ``random_forest`` (used for the hybrid-weight learning step). All fits
are deterministic under a fixed seed, reject single-class targets, and carry
class-imbalance weighting as configured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ConfigError, FitError, SchemaError
from ..ingest import load_document
from .forest import RandomForestModel, fit_random_forest
from .gbt import GBTModel, fit_gbt
from .logreg import LogisticModel, fit_logreg
from .mlp import MLPModel, MLPParams, fit_mlp, init_params, loss_and_gradients

MODEL_KINDS = ("logreg", "gbt", "mlp", "random_forest")

_FORMAT_VERSION = 2

_DEFAULT_PARAMS: dict[str, dict[str, Any]] = {
    "logreg": {
        "C": 1.0,
        "class_weight": "balanced",
        "tol": 1e-6,
        "max_iter": 10_000,
    },
    "gbt": {
        "n_rounds": 100,
        "learning_rate": 0.3,
        "max_depth": 6,
        "min_child_weight": 1.0,
        "reg_lambda": 1.0,
        "max_bins": 64,
        "scale_pos_weight": "auto",
    },
    "mlp": {
        "hidden": (100, 50),
        "learning_rate": 1e-3,
        "batch_size": 256,
        "max_epochs": 500,
        "early_stopping": True,
        "validation_fraction": 0.1,
        "tol": 1e-4,
        "patience": 10,
        "class_weight": "balanced",
    },
    "random_forest": {
        "n_trees": 100,
        "max_features": "sqrt",
        "min_samples_split": 2,
        "max_depth": None,
    },
}


@dataclass
class ModelConfig:
    """Model kind plus hyperparameters; a fixed seed makes training deterministic."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 42

    def resolved_params(self) -> dict[str, Any]:
        if self.kind not in _DEFAULT_PARAMS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ConfigError(f"unknown {self.kind} parameters: {sorted(unknown)}")
        merged.update(self.params)
        return merged


def default_config(kind: str, seed: int = 42) -> ModelConfig:
    """The benchmark defaults for each family (weighting and loss included)."""
    if kind not in _DEFAULT_PARAMS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return ModelConfig(kind=kind, params={}, seed=seed)


@dataclass
class TrainedModel:
    """A fitted estimator with its config and feature-name manifest."""

    config: ModelConfig
    feature_names: list[str]
    inner: Any

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def importances(self) -> np.ndarray | None:
        """Non-negative vector aligned to feature names; None for the MLP."""
        return self.inner.importances

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.inner.n_features:
            raise SchemaError(
                f"expected {self.inner.n_features} feature columns, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-2D input'}"
            )
        return self.inner.predict_proba(X)


def train(config: ModelConfig, X, y, feature_names: list[str] | None = None) -> TrainedModel:
    """Fit the configured model; raises FitError on single-class targets."""
    params = config.resolved_params()
    X = np.asarray(X, dtype=np.float64)
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(X.shape[1])]
    elif len(feature_names) != X.shape[1]:
        raise SchemaError("feature_names length does not match X columns")

    if config.kind == "logreg":
        inner = fit_logreg(X, y, **params)
    elif config.kind == "gbt":
        inner = fit_gbt(X, y, **params)
    elif config.kind == "mlp":
        inner = fit_mlp(X, y, seed=config.seed, **{**params, "hidden": tuple(params["hidden"])})
    elif config.kind == "random_forest":
        inner = fit_random_forest(X, y, seed=config.seed, **params)
    else:
        raise ConfigError(f"unknown model kind {config.kind!r}")
    return TrainedModel(config=config, feature_names=list(feature_names), inner=inner)


_INNER_CLASSES = {
    "logreg": LogisticModel,
    "gbt": GBTModel,
    "mlp": MLPModel,
    "random_forest": RandomForestModel,
}


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Serialize to a versioned JSON file with config, seed and feature names."""
    doc = {
        "format_version": _FORMAT_VERSION,
        "kind": model.kind,
        "seed": model.config.seed,
        "params": _jsonable(model.config.params),
        "feature_names": model.feature_names,
        "payload": model.inner.to_payload(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    doc = load_document(path, "model file", _FORMAT_VERSION)
    kind = doc["kind"]
    if kind not in _INNER_CLASSES:
        raise SchemaError(f"unknown model kind {kind!r} in file")
    inner = _INNER_CLASSES[kind].from_payload(doc["payload"])
    config = ModelConfig(kind=kind, params=doc["params"], seed=doc["seed"])
    return TrainedModel(config=config, feature_names=doc["feature_names"], inner=inner)


def _jsonable(params: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for k, val in params.items():
        out[k] = list(val) if isinstance(val, tuple) else val
    return out


__all__ = [
    "MODEL_KINDS",
    "ModelConfig",
    "TrainedModel",
    "default_config",
    "train",
    "save_model",
    "load_model",
    "fit_logreg",
    "fit_gbt",
    "fit_mlp",
    "fit_random_forest",
    "LogisticModel",
    "GBTModel",
    "MLPModel",
    "MLPParams",
    "RandomForestModel",
    "init_params",
    "loss_and_gradients",
    "FitError",
]
