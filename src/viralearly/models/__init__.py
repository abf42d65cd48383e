"""Classifier families behind one train / predict / importance interface.

Four kinds are available: ``logreg``, ``gbt``, ``mlp`` (the benchmark trio)
and ``random_forest`` (used for the hybrid-weight learning step). All fits
are deterministic under a fixed seed, reject single-class targets, and carry
class-imbalance weighting as configured.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ConfigError, FitError, SchemaError
from ..ingest import load_document, read_int, read_list, read_text
from .forest import RandomForestModel, fit_random_forest
from .gbt import GBTModel, fit_gbt
from .logreg import LogisticModel, fit_logreg
from .mlp import MLPModel, MLPParams, fit_mlp, init_params, loss_and_gradients

# Each kind's fit function and model class; the fit function's keyword
# defaults are the kind's default hyperparameters.
_FAMILIES = {
    "logreg": (fit_logreg, LogisticModel),
    "gbt": (fit_gbt, GBTModel),
    "mlp": (fit_mlp, MLPModel),
    "random_forest": (fit_random_forest, RandomForestModel),
}

MODEL_KINDS = tuple(_FAMILIES)

_FORMAT_VERSION = 3


def _fit_function(kind: str):
    if kind not in _FAMILIES:
        raise ConfigError(f"unknown model kind {kind!r}")
    return _FAMILIES[kind][0]


@dataclass
class ModelConfig:
    """Model kind plus hyperparameters; a fixed seed makes training deterministic."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 42

    def resolved_params(self) -> dict[str, Any]:
        """The keyword defaults of the kind's fit function but ``seed``,
        updated by ``params``."""
        signature = inspect.signature(_fit_function(self.kind)).parameters
        merged = {name: p.default for name, p in signature.items() if p.default is not p.empty and name != "seed"}
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ConfigError(f"unknown {self.kind} parameters: {sorted(unknown)}")
        merged.update(self.params)
        return merged


def default_config(kind: str, seed: int = 42) -> ModelConfig:
    """The benchmark defaults for each family (weighting and loss included)."""
    _fit_function(kind)
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

    fit = _fit_function(config.kind)
    if "seed" in inspect.signature(fit).parameters:
        params["seed"] = config.seed
    return TrainedModel(config=config, feature_names=list(feature_names), inner=fit(X, y, **params))


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Serialize to a versioned JSON file with config, seed and feature names."""
    doc = {
        "format_version": _FORMAT_VERSION,
        "kind": model.kind,
        "seed": model.config.seed,
        "params": model.config.params,
        "feature_names": model.feature_names,
        "payload": model.inner.to_payload(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    doc = load_document(path, "model file", _FORMAT_VERSION)
    kind = doc.read("kind", read_text)
    if kind not in _FAMILIES:
        raise SchemaError(f"unknown model kind {kind!r} in file")
    feature_names = doc.read("feature_names", read_list, item=read_text)
    inner = _FAMILIES[kind][1].from_payload(doc.object("payload"))
    if inner.n_features != len(feature_names):
        raise SchemaError(f"{doc.source}: the payload has {inner.n_features} features, 'feature_names' {len(feature_names)}")
    config = ModelConfig(kind=kind, params=dict(doc.object("params")), seed=doc.read("seed", read_int))
    return TrainedModel(config=config, feature_names=feature_names, inner=inner)


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
