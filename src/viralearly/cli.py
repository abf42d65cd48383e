"""Command-line entry point.

Subcommands: validate, synth, collect, label, features, train, evaluate,
sweep, ablate, importance. Every subcommand reads an optional INI config
file whose ``[<subcommand>]`` section sets its flags by destination
(``top_frac = 0.1`` for ``--top-frac 0.1``); a flag on the command line
wins. Each writes its outputs plus a manifest into the run directory.

Exit codes: 0 success, 1 usage error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, collector, evaluation, experiments, ingest, models, preprocess, synth
from .errors import ConfigError
from .features import DEFAULT_WINDOW_SWEEP, MODALITIES, FeatureMatrix, WindowSpec, assemble_matrix
from .labeling import DEFAULT_WEIGHT_WINDOWS, LabelingArtifacts

USAGE_ERROR = 1
DATA_ERROR = 2

# Destinations the config file never sets: the parser's own, the config file
# itself, labeling artifacts to reuse and the collector's credentials.
_FLAG_ONLY = frozenset({"command", "handler", "config", "artifacts", "auth_header"})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser, subcommands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return USAGE_ERROR
        if args.config is not None:
            subcommands[args.command].set_defaults(**_config_defaults(args.config, args.command, vars(args)))
            args = parser.parse_args(argv)
        return args.handler(args)
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


def _config_defaults(path: Path, section: str, parsed: dict) -> dict:
    """The keys of the file's ``[section]`` that name one of the subcommand's
    destinations in ``parsed``, as new defaults for its parser: parsing again
    then applies flag > config > default and converts each text through the
    flag's type. A destination holding a bool takes configparser's booleans."""
    cfg = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
        if not cfg.has_section(section):
            return {}
        return {
            key: cfg.getboolean(section, key) if isinstance(parsed[key], bool) else cfg.get(section, key)
            for key in cfg.options(section)
            if key in parsed and key not in _FLAG_ONLY
        }
    except (OSError, configparser.Error, ValueError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc


def _default(fn, name: str):
    """The default that ``fn``'s signature gives its parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _strings(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="viralearly", description=__doc__)
    parser.add_argument("--version", action="version", version=f"viralearly {__version__}")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=Path, default=None, help="INI config file; flags override it")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", type=Path, default=Path("runs", name), help="run directory")
        p.set_defaults(handler=handler)
        return p

    train_frac = _default(experiments.prepare, "train_frac")

    def study(name, handler, help):
        p = command(name, handler, help)
        p.add_argument("--data", type=Path, required=True)
        p.add_argument("--train-frac", type=float, default=train_frac)
        p.add_argument("--artifacts", type=Path, default=None, help="reuse labeling.json instead of refitting")
        return p

    p = command("validate", cmd_validate, "check a dataset file against the schema and filters")
    p.add_argument("--data", type=Path, required=True)

    p = command("synth", cmd_synth, "generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--viral-frac", type=float, default=_default(synth.SynthConfig, "viral_frac"))
    p.add_argument("--signal", choices=synth.SIGNAL_PLACEMENTS, default=_default(synth.SynthConfig, "signal"))

    p = command("collect", cmd_collect, "track posts through a replay or HTTP source")
    p.add_argument("--replay", type=Path, default=None, help="dataset file to replay as the source")
    p.add_argument("--base-url", default=None, help="HTTP post-state endpoint base URL")
    p.add_argument("--auth-header", default=None)
    p.add_argument("--post-ids", type=_strings, default=None, help="comma-separated ids (default: all replay posts)")
    p.add_argument("--until", type=float, default=1440.0, help="track until this post age in minutes")

    p = command("label", cmd_label, "fit labeling artifacts on the chronological train split")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--train-frac", type=float, default=train_frac)
    p.add_argument("--top-frac", type=float, default=_default(experiments.prepare, "top_frac"))
    p.add_argument("--weight-windows", type=_floats, default=DEFAULT_WEIGHT_WINDOWS, help="comma-separated minutes")

    p = command("features", cmd_features, "extract a windowed feature matrix")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--artifacts", type=Path, required=True, help="labeling.json from `label`")
    p.add_argument("--window", type=float, default=120.0)
    p.add_argument("--modalities", type=_strings, default=MODALITIES, help="comma-separated subset")

    p = command("train", cmd_train, "fit preprocessing and one model on a feature matrix")
    p.add_argument("--matrix", type=Path, required=True, help="features CSV (manifest sidecar expected)")
    p.add_argument("--labels", type=Path, required=True, help="labels.csv from `label`")
    p.add_argument("--model", choices=models.MODEL_KINDS, default="gbt")

    p = command("evaluate", cmd_evaluate, "score a trained model on a feature matrix")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--preprocess", type=Path, required=True)
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)

    p = study("sweep", cmd_sweep, "window sweep: per (window, model) test and CV metrics")
    p.add_argument("--windows", type=_floats, default=DEFAULT_WINDOW_SWEEP, help="comma-separated minutes")
    p.add_argument("--models", type=_strings, default=experiments.SWEEP_MODELS, help="comma-separated model kinds")
    p.add_argument("--folds", type=int, default=_default(experiments.run_window_sweep, "k_folds"))
    p.add_argument("--no-cv", dest="cv", action="store_false")

    p = study("ablate", cmd_ablate, "modality ablation at one window (gbt)")
    p.add_argument("--window", type=float, default=experiments.ABLATION_WINDOW_MINUTES)

    p = study("importance", cmd_importance, "modality membership in the top-k features per window")
    p.add_argument("--windows", type=_floats, default=DEFAULT_WINDOW_SWEEP)
    p.add_argument("--top-k", type=int, default=experiments.DEFAULT_TOP_K)

    return parser, sub.choices


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


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


def _prepare_study(args, records) -> experiments.PreparedData:
    artifacts = None if args.artifacts is None else LabelingArtifacts.load(args.artifacts)
    forest = models.default_config("random_forest", seed=args.seed)
    return experiments.prepare(records, train_frac=args.train_frac, forest_config=forest, artifacts=artifacts)


# -- subcommand handlers -------------------------------------------------


def cmd_validate(args) -> int:
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


def cmd_synth(args) -> int:
    out = _out_dir(args)
    config = synth.SynthConfig(n_posts=args.n, viral_frac=args.viral_frac, signal=args.signal, seed=args.seed)
    records, planted = synth.generate(config)
    ingest.write_dataset(records, out / "posts.jsonl")
    experiments.write_csv(
        out / "planted_labels.csv",
        [{"post_id": r.post_id, "label": int(v)} for r, v in zip(records, planted)],
    )
    _write_run_manifest(out, "synth", asdict(config))
    print(f"wrote {len(records)} posts ({int(planted.sum())} viral) to {out / 'posts.jsonl'}")
    return 0


def cmd_collect(args) -> int:
    out = _out_dir(args)
    if (args.replay is None) == (args.base_url is None):
        raise _UsageError("collect needs exactly one of --replay or --base-url")

    if args.replay is not None:
        clock = collector.SimulatedClock()
        source = collector.FileReplaySource.from_dataset(args.replay, clock)
        ids = tuple(sorted(source._records)) if args.post_ids is None else args.post_ids
    else:
        clock = collector.SystemClock()
        source = collector.HttpPollingSource(args.base_url, auth_header=args.auth_header)
        ids = args.post_ids
    if not ids:
        raise _UsageError("no post ids to track")

    outcome = {"polls": 0, "retries": 0, "skipped_polls": 0, "rate_limit_wait_minutes": 0.0, "reasons": {}}
    # one line per post as soon as it finishes, so a failure later in the run keeps it
    with open(out / "tracked.jsonl", "w", encoding="utf-8") as fh:
        for pid in ids:
            res = collector.track_post(source, pid, until_minutes=args.until, clock=clock)
            fh.write(json.dumps({"post_id": res.post_id, "reason": res.reason, "snapshots": res.snapshots.to_json_list()}) + "\n")
            fh.flush()
            for key in ("polls", "retries", "skipped_polls", "rate_limit_wait_minutes"):
                outcome[key] += getattr(res, key)
            outcome["reasons"][res.reason] = outcome["reasons"].get(res.reason, 0) + 1
    _write_run_manifest(
        out, "collect", {"until": args.until, "n_posts": len(ids), "source": str(args.replay or args.base_url)}, outcome=outcome
    )
    print(f"tracked {len(ids)} posts to {out / 'tracked.jsonl'}")
    return 0


def cmd_label(args) -> int:
    out = _out_dir(args)
    records = list(ingest.parse_dataset(args.data))
    data = experiments.prepare(
        records,
        train_frac=args.train_frac,
        weight_windows=args.weight_windows,
        top_frac=args.top_frac,
        forest_config=models.default_config("random_forest", seed=args.seed),
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
            "seed": args.seed,
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


def cmd_features(args) -> int:
    out = _out_dir(args)
    records = list(ingest.parse_dataset(args.data))
    artifacts = LabelingArtifacts.load(args.artifacts)
    matrix = assemble_matrix(records, WindowSpec(args.window), artifacts.caps, args.modalities)
    path = out / f"features_{int(args.window)}.csv"
    matrix.to_csv(path)
    _write_run_manifest(
        out,
        "features",
        {"data": str(args.data), "window": args.window, "modalities": list(args.modalities), "n_rows": matrix.n_rows},
    )
    print(f"wrote {matrix.n_rows}x{len(matrix.columns)} matrix to {path}")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    matrix = FeatureMatrix.from_csv(args.matrix)
    y = _labels_for(args.labels, matrix.row_ids)

    prep = preprocess.fit(matrix)
    transformed = preprocess.transform(prep, matrix)
    start = time.perf_counter()
    model = models.train(models.default_config(args.model, seed=args.seed), transformed.X, y, feature_names=transformed.names)
    duration = time.perf_counter() - start
    prep.save(out / "preprocess.json")
    models.save_model(model, out / "model.json")
    _write_run_manifest(
        out,
        "train",
        {"matrix": str(args.matrix), "model": args.model, "seed": args.seed, "duration_seconds": duration},
    )
    print(f"trained {args.model} on {matrix.n_rows} rows in {duration:.2f}s -> {out / 'model.json'}")
    return 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
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


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    records = list(ingest.parse_dataset(args.data))
    rows = experiments.run_window_sweep(
        records,
        windows=args.windows,
        model_kinds=args.models,
        seed=args.seed,
        k_folds=args.folds,
        with_cv=args.cv,
        out_dir=out,
        data=_prepare_study(args, records),
    )
    params = {"data": args.data, "artifacts": args.artifacts, "seed": args.seed, "windows": list(args.windows), "models": list(args.models)}
    _write_run_manifest(out, "sweep", params, "window_sweep")
    print(f"wrote {len(rows)} rows to {out / 'window_sweep.csv'}")
    return 0


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    records = list(ingest.parse_dataset(args.data))
    data = _prepare_study(args, records)
    rows = experiments.run_ablation(records, window=args.window, seed=args.seed, out_dir=out, data=data)
    params = {"data": args.data, "artifacts": args.artifacts, "seed": args.seed, "window": args.window}
    _write_run_manifest(out, "ablate", params, "ablation")
    print(f"wrote {len(rows)} rows to {out / f'ablation_{int(args.window)}.csv'}")
    return 0


def cmd_importance(args) -> int:
    out = _out_dir(args)
    records = list(ingest.parse_dataset(args.data))
    data = _prepare_study(args, records)
    counts, _ = experiments.importance_over_time(
        records, windows=args.windows, top_k=args.top_k, seed=args.seed, out_dir=out, data=data
    )
    params = {"data": args.data, "artifacts": args.artifacts, "seed": args.seed, "windows": list(args.windows), "top_k": args.top_k}
    _write_run_manifest(out, "importance", params, "importance_over_time")
    print(f"wrote {len(counts)} rows to {out / 'modality_importance.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
