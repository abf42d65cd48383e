"""Command-line entry point.

Subcommands: validate, synth, collect, label, features, train, evaluate,
sweep, ablate, importance. Every subcommand reads an optional INI config
file (one section per module, flat key=value) with flags taking precedence,
and writes its outputs plus a manifest into the run directory.

Exit codes: 0 success, 1 usage error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, collector, evaluation, experiments, ingest, models, preprocess, synth
from .errors import ConfigError
from .features import DEFAULT_WINDOW_SWEEP, MODALITIES, FeatureMatrix, WindowSpec, assemble_matrix
from .labeling import LabelingArtifacts

USAGE_ERROR = 1
DATA_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return USAGE_ERROR
        cfg = _load_config(args.config)
        return args.handler(args, cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def _build_parser() -> _Parser:
    parser = _Parser(prog="viralearly", description=__doc__)
    parser.add_argument("--version", action="version", version=f"viralearly {__version__}")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="INI config file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None, help="run directory")

    p = sub.add_parser("validate", help="check a dataset file against the schema and filters")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--viral-frac", type=float, default=None)
    p.add_argument("--signal", choices=synth.SIGNAL_PLACEMENTS, default=None)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("collect", help="track posts through a replay or HTTP source")
    common(p)
    p.add_argument("--replay", type=Path, default=None, help="dataset file to replay as the source")
    p.add_argument("--base-url", default=None, help="HTTP post-state endpoint base URL")
    p.add_argument("--auth-header", default=None)
    p.add_argument("--post-ids", default=None, help="comma-separated ids (default: all replay posts)")
    p.add_argument("--until", type=float, default=None, help="track until this post age in minutes")
    p.set_defaults(handler=cmd_collect)

    p = sub.add_parser("label", help="fit labeling artifacts on the chronological train split")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--train-frac", type=float, default=None)
    p.add_argument("--top-frac", type=float, default=None)
    p.add_argument("--weight-windows", default=None, help="comma-separated minutes")
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("features", help="extract a windowed feature matrix")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--artifacts", type=Path, required=True, help="labeling.json from `label`")
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--modalities", default=None, help="comma-separated subset")
    p.set_defaults(handler=cmd_features)

    p = sub.add_parser("train", help="fit preprocessing and one model on a feature matrix")
    common(p)
    p.add_argument("--matrix", type=Path, required=True, help="features CSV (manifest sidecar expected)")
    p.add_argument("--labels", type=Path, required=True, help="labels.csv from `label`")
    p.add_argument("--model", choices=models.MODEL_KINDS, default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a feature matrix")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--preprocess", type=Path, required=True)
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("sweep", help="window sweep: per (window, model) test and CV metrics")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--windows", default=None, help="comma-separated minutes")
    p.add_argument("--models", default=None, help="comma-separated model kinds")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--no-cv", action="store_true")
    p.add_argument("--artifacts", type=Path, default=None, help="reuse labeling.json instead of refitting")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("ablate", help="modality ablation at one window (gbt)")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--artifacts", type=Path, default=None)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("importance", help="modality membership in the top-k features per window")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--windows", default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--artifacts", type=Path, default=None)
    p.set_defaults(handler=cmd_importance)

    return parser


def _load_config(path: Path | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        cfg.read(path)
    return cfg


def _get(args_value, cfg, section, key, default, cast=str):
    """Flag > config file > default. Environment variables are never read."""
    if args_value is not None:
        return args_value
    if cfg.has_option(section, key):
        raw = cfg.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad config value [{section}] {key} = {raw!r}") from exc
    return default


def _floats(text) -> tuple[float, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(float(v) for v in text)
    return tuple(float(v.strip()) for v in str(text).split(",") if v.strip())


def _strings(text) -> tuple[str, ...]:
    if isinstance(text, (tuple, list)):
        return tuple(text)
    return tuple(v.strip() for v in str(text).split(",") if v.strip())


def _out_dir(args, cfg, command: str) -> Path:
    out = _get(args.out, cfg, command, "out", Path(f"runs/{command}"), Path)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(args, cfg, command: str) -> int:
    return _get(args.seed, cfg, command, "seed", 42, int)


def _write_run_manifest(
    out: Path, command: str, params: dict, study: str | None = None, outcome: dict | None = None
) -> None:
    """``run_manifest.json``, or for a study the command and params added to
    its own manifest; ``outcome`` holds what the run counted, if anything."""
    path = out / (f"{study}_manifest.json" if study else "run_manifest.json")
    doc = ingest.load_document(path, "study manifest", None) if study else {"package_version": __version__}
    doc.update(command=command, params=params)
    if outcome is not None:
        doc["outcome"] = outcome
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str), encoding="utf-8")


def _labels_for(path: Path, row_ids: list[str]) -> np.ndarray:
    """The 0/1 label of each matrix row from a labels CSV; DatasetError when
    a row has no label there or a label is not 0 or 1."""
    labels = {}
    for row in experiments.read_csv(path):
        label = row.get("label")
        if row.get("post_id") is None or label not in ("0", "1"):
            raise ingest.DatasetError(f"{path}: row without a 0/1 label: {row}")
        labels[row["post_id"]] = int(label)
    missing = [rid for rid in row_ids if rid not in labels]
    if missing:
        raise ingest.DatasetError(f"labels missing for {len(missing)} posts (e.g. {missing[:3]})")
    return np.array([labels[rid] for rid in row_ids], dtype=np.int8)


def _prepare_from_args(args, cfg, command: str, records, seed: int) -> experiments.PreparedData:
    artifacts = None
    artifacts_path = getattr(args, "artifacts", None)
    if artifacts_path is not None:
        artifacts = LabelingArtifacts.load(artifacts_path)
    train_frac = _get(getattr(args, "train_frac", None), cfg, command, "train_frac", 0.8, float)
    forest = models.default_config("random_forest", seed=seed)
    return experiments.prepare(records, train_frac=train_frac, forest_config=forest, artifacts=artifacts)


# -- subcommand handlers -------------------------------------------------


def cmd_validate(args, cfg) -> int:
    diagnostics: list[ingest.ParseDiagnostic] = []
    records = list(ingest.parse_dataset(args.data, on_error=diagnostics.append))
    reports = [ingest.validate_record(r) for r in records]
    violations = [r for r in reports if not r.ok]
    summary = ingest.FilterSummary()
    list(ingest.apply_quality_filters(records, summary=summary))

    for diag in diagnostics:
        print(f"parse {diag}")
    for report in violations:
        for v in report.violations:
            print(f"{report.post_id}: {v}")
    print(
        f"records={len(records)} malformed_lines={len(diagnostics)} "
        f"invalid_records={len(violations)} filter_kept={summary.kept} "
        f"(removed={summary.dropped_removed} no_media={summary.dropped_no_media} "
        f"short={summary.dropped_short_tracking} gap={summary.dropped_gap})"
    )
    return DATA_ERROR if diagnostics or violations else 0


def cmd_synth(args, cfg) -> int:
    out = _out_dir(args, cfg, "synth")
    config = synth.SynthConfig(
        n_posts=_get(args.n, cfg, "synth", "n", 1000, int),
        viral_frac=_get(args.viral_frac, cfg, "synth", "viral_frac", 0.05, float),
        signal=_get(args.signal, cfg, "synth", "signal", "temporal"),
        seed=_seed(args, cfg, "synth"),
    )
    records, planted = synth.generate(config)
    ingest.write_dataset(records, out / "posts.jsonl")
    experiments.write_csv(
        out / "planted_labels.csv",
        [{"post_id": r.post_id, "label": int(v)} for r, v in zip(records, planted)],
    )
    _write_run_manifest(out, "synth", asdict(config))
    print(f"wrote {len(records)} posts ({int(planted.sum())} viral) to {out / 'posts.jsonl'}")
    return 0


def cmd_collect(args, cfg) -> int:
    out = _out_dir(args, cfg, "collect")
    until = _get(args.until, cfg, "collect", "until", 1440.0, float)
    replay = _get(args.replay, cfg, "collect", "replay", None, Path)
    base_url = _get(args.base_url, cfg, "collect", "base_url", None)
    if (replay is None) == (base_url is None):
        raise _UsageError("collect needs exactly one of --replay or --base-url")

    clock = collector.SimulatedClock() if replay is not None else collector.SystemClock()
    if replay is not None:
        source = collector.FileReplaySource.from_dataset(replay, clock)
        default_ids = ",".join(sorted(source._records))
    else:
        source = collector.HttpPollingSource(base_url, auth_header=args.auth_header)
        default_ids = ""
    ids = _strings(_get(args.post_ids, cfg, "collect", "post_ids", default_ids))
    if not ids:
        raise _UsageError("no post ids to track")

    outcome = {"polls": 0, "retries": 0, "skipped_polls": 0, "rate_limit_wait_minutes": 0.0, "reasons": {}}
    # one line per post as soon as it finishes, so a failure later in the run keeps it
    with open(out / "tracked.jsonl", "w", encoding="utf-8") as fh:
        for pid in ids:
            res = collector.track_post(source, pid, until_minutes=until, clock=clock)
            fh.write(json.dumps({"post_id": res.post_id, "reason": res.reason, "snapshots": res.snapshots.to_json_list()}) + "\n")
            fh.flush()
            for key in ("polls", "retries", "skipped_polls", "rate_limit_wait_minutes"):
                outcome[key] += getattr(res, key)
            outcome["reasons"][res.reason] = outcome["reasons"].get(res.reason, 0) + 1
    _write_run_manifest(
        out, "collect", {"until": until, "n_posts": len(ids), "source": str(replay or base_url)}, outcome=outcome
    )
    print(f"tracked {len(ids)} posts to {out / 'tracked.jsonl'}")
    return 0


def cmd_label(args, cfg) -> int:
    out = _out_dir(args, cfg, "label")
    seed = _seed(args, cfg, "label")
    records = list(ingest.parse_dataset(args.data))
    windows = _floats(_get(args.weight_windows, cfg, "label", "weight_windows", "30,60,120"))
    data = experiments.prepare(
        records,
        train_frac=_get(args.train_frac, cfg, "label", "train_frac", 0.8, float),
        weight_windows=windows,
        top_frac=_get(args.top_frac, cfg, "label", "top_frac", 0.05, float),
        forest_config=models.default_config("random_forest", seed=seed),
    )
    data.artifacts.save(out / "labeling.json")

    rows = []
    splits = (("train", data.train_records, data.scores_train, data.y_train), ("test", data.test_records, data.scores_test, data.y_test))
    for split_name, recs, scores, labels in splits:
        rows.extend(
            {"post_id": r.post_id, "hybrid_score": float(s), "label": int(l), "split": split_name}
            for r, s, l in zip(recs, scores, labels)
        )
    experiments.write_csv(out / "labels.csv", rows)
    _write_run_manifest(
        out,
        "label",
        {
            "data": str(args.data),
            "seed": seed,
            "tau": data.artifacts.threshold.tau,
            "weights": data.artifacts.weights.weights,
            "n_train": data.n_train,
            "n_test": data.n_test,
        },
    )
    pos = sum(r["label"] for r in rows)
    print(
        f"tau={data.artifacts.threshold.tau:.3f} labeled {len(rows)} posts "
        f"({pos} viral, {pos / len(rows):.2%}) -> {out / 'labels.csv'}"
    )
    return 0


def cmd_features(args, cfg) -> int:
    out = _out_dir(args, cfg, "features")
    records = list(ingest.parse_dataset(args.data))
    artifacts = LabelingArtifacts.load(args.artifacts)
    window = _get(args.window, cfg, "features", "window", 120.0, float)
    modalities = _strings(_get(args.modalities, cfg, "features", "modalities", ",".join(MODALITIES)))
    matrix = assemble_matrix(records, WindowSpec(window), artifacts.caps, modalities)
    path = out / f"features_{int(window)}.csv"
    matrix.to_csv(path)
    _write_run_manifest(
        out,
        "features",
        {"data": str(args.data), "window": window, "modalities": list(modalities), "n_rows": matrix.n_rows},
    )
    print(f"wrote {matrix.n_rows}x{len(matrix.columns)} matrix to {path}")
    return 0


def cmd_train(args, cfg) -> int:
    out = _out_dir(args, cfg, "train")
    seed = _seed(args, cfg, "train")
    kind = _get(args.model, cfg, "train", "model", "gbt")
    matrix = FeatureMatrix.from_csv(args.matrix)
    y = _labels_for(args.labels, matrix.row_ids)

    prep = preprocess.fit(matrix)
    transformed = preprocess.transform(prep, matrix)
    start = time.perf_counter()
    model = models.train(models.default_config(kind, seed=seed), transformed.X, y, feature_names=transformed.names)
    duration = time.perf_counter() - start
    prep.save(out / "preprocess.json")
    models.save_model(model, out / "model.json")
    _write_run_manifest(
        out,
        "train",
        {"matrix": str(args.matrix), "model": kind, "seed": seed, "duration_seconds": duration},
    )
    print(f"trained {kind} on {matrix.n_rows} rows in {duration:.2f}s -> {out / 'model.json'}")
    return 0


def cmd_evaluate(args, cfg) -> int:
    out = _out_dir(args, cfg, "evaluate")
    model = models.load_model(args.model)
    prep = preprocess.PreprocessModel.load(args.preprocess)
    matrix = FeatureMatrix.from_csv(args.matrix)
    y = _labels_for(args.labels, matrix.row_ids)
    probs = model.predict_proba(preprocess.transform(prep, matrix).X)
    report = evaluation.evaluate_predictions(y, probs)
    doc = {**report.as_row(), "n_pos": report.n_pos, "n_neg": report.n_neg}
    (out / "metrics.json").write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    _write_run_manifest(out, "evaluate", {"model": str(args.model), "matrix": str(args.matrix)})
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_sweep(args, cfg) -> int:
    out = _out_dir(args, cfg, "sweep")
    seed = _seed(args, cfg, "sweep")
    records = list(ingest.parse_dataset(args.data))
    windows = _floats(_get(args.windows, cfg, "sweep", "windows", DEFAULT_WINDOW_SWEEP, _floats))
    kinds = _strings(_get(args.models, cfg, "sweep", "models", ",".join(experiments.SWEEP_MODELS)))
    data = _prepare_from_args(args, cfg, "sweep", records, seed)
    rows = experiments.run_window_sweep(
        records,
        windows=windows,
        model_kinds=kinds,
        seed=seed,
        k_folds=_get(args.folds, cfg, "sweep", "folds", 5, int),
        with_cv=not args.no_cv and _get(None, cfg, "sweep", "cv", "true") != "false",
        out_dir=out,
        data=data,
    )
    params = {"data": args.data, "artifacts": args.artifacts, "seed": seed, "windows": list(windows), "models": list(kinds)}
    _write_run_manifest(out, "sweep", params, "window_sweep")
    print(f"wrote {len(rows)} rows to {out / 'window_sweep.csv'}")
    return 0


def cmd_ablate(args, cfg) -> int:
    out = _out_dir(args, cfg, "ablate")
    seed = _seed(args, cfg, "ablate")
    records = list(ingest.parse_dataset(args.data))
    window = _get(args.window, cfg, "ablate", "window", experiments.ABLATION_WINDOW_MINUTES, float)
    data = _prepare_from_args(args, cfg, "ablate", records, seed)
    rows = experiments.run_ablation(records, window=window, seed=seed, out_dir=out, data=data)
    _write_run_manifest(out, "ablate", {"data": args.data, "artifacts": args.artifacts, "seed": seed, "window": window}, "ablation")
    print(f"wrote {len(rows)} rows to {out / f'ablation_{int(window)}.csv'}")
    return 0


def cmd_importance(args, cfg) -> int:
    out = _out_dir(args, cfg, "importance")
    seed = _seed(args, cfg, "importance")
    records = list(ingest.parse_dataset(args.data))
    windows = _floats(_get(args.windows, cfg, "importance", "windows", DEFAULT_WINDOW_SWEEP, _floats))
    top_k = _get(args.top_k, cfg, "importance", "top_k", experiments.DEFAULT_TOP_K, int)
    data = _prepare_from_args(args, cfg, "importance", records, seed)
    counts, _ = experiments.importance_over_time(
        records, windows=windows, top_k=top_k, seed=seed, out_dir=out, data=data
    )
    params = {"data": args.data, "artifacts": args.artifacts, "seed": seed, "windows": list(windows), "top_k": top_k}
    _write_run_manifest(out, "importance", params, "importance_over_time")
    print(f"wrote {len(counts)} rows to {out / 'modality_importance.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
