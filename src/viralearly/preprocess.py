"""Fit-on-train / apply-everywhere tabular preprocessing.

Numeric columns: median imputation then standardization ((x - mean) / std,
population std, stored as 1 for constant columns). Categorical columns: a
'missing' token plus one-hot encoding over the training vocabulary; unseen
test categories fold into the 'missing' indicator so every one-hot group
always sums to exactly one. Statistics come from training rows only, with
missing values excluded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import FitError, SchemaError
from .features import ColumnSpec, FeatureMatrix
from .ingest import load_document, read_list, read_number, read_text

MISSING_TOKEN = "missing"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NumericStats:
    median: float
    mean: float
    std: float


@dataclass(frozen=True)
class PreprocessModel:
    """Frozen imputation/scaling/encoding state learned from a training matrix."""

    numeric: dict[str, NumericStats]
    vocab: dict[str, list[str]]
    fitted_columns: list[ColumnSpec]
    fingerprint: str

    def to_json(self) -> str:
        doc = {
            "format_version": _FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "columns": [asdict(c) for c in self.fitted_columns],
            "numeric": {name: asdict(s) for name, s in self.numeric.items()},
            "vocab": self.vocab,
        }
        return json.dumps(doc, sort_keys=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PreprocessModel":
        """The model saved at ``path``: every fitted numeric column with its
        stats, std > 0, and every categorical one with a vocabulary holding
        the missing token; else a SchemaError naming the file and the key."""
        doc = load_document(path, "preprocess file", _FORMAT_VERSION)
        numeric, vocab = doc.object("numeric"), doc.object("vocab")
        columns = [ColumnSpec.read(c) for c in doc.objects("columns")]
        stats, vocabs = {}, {}
        for c in columns:
            if c.kind == "numeric":
                s = stats[c.name] = NumericStats(*(numeric.object(c.name).read(k, read_number) for k in ("median", "mean", "std")))
                if s.std <= 0.0:
                    raise SchemaError(f"{doc.source}: the 'std' of {c.name!r} is not positive ({s.std})")
            else:
                tokens = vocabs[c.name] = vocab.read(c.name, read_list, item=read_text)
                if MISSING_TOKEN not in tokens:
                    raise SchemaError(f"{doc.source}: the vocab of {c.name!r} lacks {MISSING_TOKEN!r}")
        return cls(numeric=stats, vocab=vocabs, fitted_columns=columns, fingerprint=doc.read("fingerprint", read_text))


def fit(train_matrix: FeatureMatrix) -> PreprocessModel:
    """Learn medians/means/stds and categorical vocabularies from train rows only."""
    if train_matrix.n_rows < 1:
        raise FitError("cannot fit preprocessing on an empty matrix")
    numeric: dict[str, NumericStats] = {}
    vocab: dict[str, list[str]] = {}
    for col in train_matrix.columns:
        values = train_matrix.column(col.name)
        if col.kind == "numeric":
            observed = values[~np.isnan(values)]
            if len(observed) == 0:
                # wholly missing on train: impute zero, pass through unscaled
                numeric[col.name] = NumericStats(0.0, 0.0, 1.0)
                continue
            std = float(np.std(observed))
            numeric[col.name] = NumericStats(
                median=float(np.median(observed)),
                mean=float(np.mean(observed)),
                std=std if std > 0.0 else 1.0,
            )
        else:
            observed_cats = sorted({v for v in values if v is not None})
            if MISSING_TOKEN not in observed_cats:
                observed_cats.append(MISSING_TOKEN)
            vocab[col.name] = observed_cats
    digest = hashlib.sha256(
        json.dumps(
            {
                "numeric": {k: vars(v) for k, v in sorted(numeric.items())},
                "vocab": {k: v for k, v in sorted(vocab.items())},
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    return PreprocessModel(
        numeric=numeric,
        vocab=vocab,
        fitted_columns=list(train_matrix.columns),
        fingerprint=f"{train_matrix.n_rows}:{digest}",
    )


@dataclass(frozen=True)
class TransformedMatrix:
    """Fully numeric design matrix with output names and their source columns."""

    X: np.ndarray
    names: list[str]
    parents: list[str]  # fitted column each output column came from


def transform(model: PreprocessModel, matrix: FeatureMatrix) -> TransformedMatrix:
    """Apply the fitted model; output is fully numeric with no missing values.

    The matrix must hold exactly the fitted columns, in any order;
    transforming never mutates the model.
    """
    fitted, given = {c.name for c in model.fitted_columns}, set(matrix.column_names)
    if given - fitted:
        raise SchemaError(f"columns not present at fit time: {sorted(given - fitted)}")
    if fitted - given:
        raise SchemaError(f"fitted columns absent from the matrix: {sorted(fitted - given)}")

    blocks: list[np.ndarray] = []
    names: list[str] = []
    parents: list[str] = []
    for col in model.fitted_columns:
        values = matrix.column(col.name)
        if col.kind == "numeric":
            stats = model.numeric[col.name]
            filled = np.where(np.isnan(values), stats.median, values)
            blocks.append(((filled - stats.mean) / stats.std)[:, None])
            names.append(col.name)
            parents.append(col.name)
        else:
            vocab = model.vocab[col.name]
            index = {tok: i for i, tok in enumerate(vocab)}
            # None and unseen values take the missing token's column; the
            # lookups run inside fromiter, with no Python step per row
            idx = np.fromiter(map(index.get, values, repeat(index[MISSING_TOKEN])), np.intp, len(values))
            onehot = np.zeros((len(values), len(vocab)))
            onehot[np.arange(len(values)), idx] = 1.0
            blocks.append(onehot)
            names.extend(f"{col.name}={tok}" for tok in vocab)
            parents.extend(col.name for _ in vocab)

    if blocks:
        X = np.hstack(blocks)
    else:
        X = np.zeros((matrix.n_rows, 0))
    return TransformedMatrix(X=X, names=names, parents=parents)
