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
from pathlib import Path

import numpy as np

from . import __version__, collector, evaluation, experiments, ingest, models, preprocess, synth, trajectory
from .errors import ConfigError
from .features import DEFAULT_WINDOW_SWEEP, MODALITIES, FeatureMatrix, WindowSpec, assemble_matrix, window_name
from .labeling import LabelingArtifacts

USAGE_ERROR = 1
DATA_ERROR = 2

# Destinations no manifest records: the parser's own and the collector's credentials.
_UNRECORDED = frozenset({"command", "handler", "auth_header"})
# Destinations the config file never sets: those, the config file itself and
# labeling artifacts to reuse.
_FLAG_ONLY = _UNRECORDED | {"config", "artifacts"}


class _UsageError(Exception):
    """A usage error; ``parser`` is the (sub)parser that rejected the arguments, if any."""

    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(message, self)


def main(argv: list[str] | None = None) -> int:
    parser, subcommands = _build_parser()
    usage = parser  # whose usage a usage error shows: the subcommand's, once it is known
    try:
        args, extra = parser.parse_known_args(argv)
        if args.command is not None:
            usage = subcommands[args.command]
        if extra:
            usage.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command is None:
            parser.print_help()
            return USAGE_ERROR
        if args.config is not None:
            subcommands[args.command].set_defaults(**_config_defaults(args.config, args.command, vars(args)))
            args = parser.parse_args(argv)
        return _run(args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        (getattr(exc, "parser", None) or usage).print_usage(sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def _run(args) -> int:
    """The subcommand's exit code. A run that fails removes the directories
    it made for ``--out`` while they are empty; none that existed before."""
    made = [p for p in (args.out, *args.out.parents) if not p.exists()] if "out" in args else []
    status = DATA_ERROR
    try:
        status = args.handler(args)
        return status
    finally:
        if status != 0:
            for path in made:  # the deepest first
                try:
                    path.rmdir()
                except OSError:  # not empty, or never made
                    break


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


def _checked(convert, ok, what: str):
    """An argparse type: ``convert(text)``, a usage error saying the value
    is not ``what`` when it cannot be converted or ``ok`` rejects it."""

    def read(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return read


def _one_of(choices: tuple[str, ...]):
    return _checked(str, lambda v: v in choices, f"one of {', '.join(choices)}")


def _list(item=str):
    """An argparse type: a non-empty comma-separated list of ``item`` values, none repeated once converted."""
    return _checked(
        lambda text: tuple(trajectory.distinct((item(v.strip()) for v in text.split(",") if v.strip()), "item")),
        bool,
        "a non-empty list without repeats",
    )


_minutes = _checked(lambda text: WindowSpec(float(text)).minutes, lambda v: True, "a positive, finite number of minutes")
_age = _checked(float, lambda v: 0 <= v < float("inf"), "a finite number of minutes >= 0")
_fraction = _checked(float, lambda v: 0 < v < 1, "a fraction in (0, 1)")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="viralearly", description=__doc__)
    parser.add_argument("--version", action="version", version=f"viralearly {__version__}")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def command(name, handler, help, seed=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=Path, default=None, help="INI config file; flags override it")
        if seed is not None:
            p.add_argument("--seed", type=_seed, default=seed)
        if name != "validate":  # validate only reports
            p.add_argument("--out", type=Path, default=Path("runs", name), help="run directory")
        p.set_defaults(handler=handler)
        return p

    def prepared(name, handler, help, artifacts=True):  # a subcommand that splits and labels --data with experiments.prepare
        p = command(name, handler, help, seed=_default(experiments.prepare, "seed"))
        p.add_argument("--data", type=Path, required=True)
        p.add_argument("--train-frac", type=_fraction, default=_default(experiments.prepare, "train_frac"))
        if artifacts:
            p.add_argument("--artifacts", type=Path, default=None, help="reuse labeling.json instead of refitting")
        return p

    p = command("validate", cmd_validate, "check a dataset file against the schema and filters")
    p.add_argument("--data", type=Path, required=True)

    p = command("synth", cmd_synth, "generate a synthetic labeled corpus", seed=_default(synth.SynthConfig, "seed"))
    p.add_argument("--n", type=int, default=_default(synth.SynthConfig, "n_posts"))
    p.add_argument("--viral-frac", type=float, default=_default(synth.SynthConfig, "viral_frac"))
    p.add_argument("--signal", choices=synth.SIGNAL_PLACEMENTS, default=_default(synth.SynthConfig, "signal"))

    p = command("collect", cmd_collect, "track posts through a replay or HTTP source")
    p.add_argument("--replay", type=Path, default=None, help="dataset file to replay as the source")
    p.add_argument("--base-url", default=None, help="HTTP post-state endpoint base URL")
    p.add_argument("--auth-header", default=None)
    p.add_argument("--post-ids", type=_list(), default=None, help="comma-separated ids (default: all replay posts)")
    p.add_argument("--until", type=_age, default=ingest.MIN_TRACKING_MINUTES, help="track until this post age in minutes")

    p = prepared("label", cmd_label, "fit labeling artifacts on the chronological train split", artifacts=False)
    p.add_argument("--top-frac", type=_fraction, default=_default(experiments.prepare, "top_frac"))
    p.add_argument("--weight-windows", type=_list(_minutes), default=_default(experiments.prepare, "weight_windows"), help="comma-separated minutes")

    p = command("features", cmd_features, "extract a windowed feature matrix")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--artifacts", type=Path, required=True, help="labeling.json from `label`")
    p.add_argument("--window", type=_minutes, default=experiments.ABLATION_WINDOW_MINUTES)
    p.add_argument("--modalities", type=_list(_one_of(MODALITIES)), default=MODALITIES, help="comma-separated subset")

    p = command("train", cmd_train, "fit preprocessing and one model on a feature matrix", seed=_default(models.default_config, "seed"))
    p.add_argument("--matrix", type=Path, required=True, help="features CSV (manifest sidecar expected)")
    p.add_argument("--labels", type=Path, required=True, help="labels.csv from `label`")
    p.add_argument("--model", choices=models.MODEL_KINDS, default=experiments.SINGLE_MODEL)

    p = command("evaluate", cmd_evaluate, "score a trained model on a feature matrix")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--preprocess", type=Path, required=True)
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)

    p = prepared("sweep", cmd_sweep, "window sweep: per (window, model) test and CV metrics")
    p.add_argument("--windows", type=_list(_minutes), default=DEFAULT_WINDOW_SWEEP, help="comma-separated minutes")
    p.add_argument("--models", type=_list(_one_of(models.MODEL_KINDS)), default=experiments.SWEEP_MODELS, help="comma-separated model kinds")
    p.add_argument("--folds", type=_checked(int, lambda v: v > 1, "an integer above 1"), default=_default(experiments.run_window_sweep, "k_folds"))
    p.add_argument("--no-cv", dest="cv", action="store_false")

    p = prepared("ablate", cmd_ablate, "modality ablation at one window (gbt)")
    p.add_argument("--window", type=_minutes, default=experiments.ABLATION_WINDOW_MINUTES)

    p = prepared("importance", cmd_importance, "modality membership in the top-k features per window")
    p.add_argument("--windows", type=_list(_minutes), default=DEFAULT_WINDOW_SWEEP)
    p.add_argument("--top-k", type=_checked(int, lambda v: v > 0, "a positive integer"), default=experiments.DEFAULT_TOP_K)

    return parser, sub.choices


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _params(args) -> dict:
    """Every setting of the run: each destination the subcommand parsed, from
    a flag, the config file or a default, but those in ``_UNRECORDED``."""
    return {key: value for key, value in vars(args).items() if key not in _UNRECORDED}


def _write_run_manifest(args, outcome: dict | None = None) -> None:
    """``run_manifest.json``: the command, its ``params`` and, if the run
    computed anything, that as ``outcome``."""
    doc = {"package_version": __version__, "command": args.command, "params": _params(args)}
    if outcome is not None:
        doc["outcome"] = outcome
    (args.out / "run_manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True, default=str), encoding="utf-8")


def _write_study_manifest(args, study: str, data: experiments.PreparedData, **derived) -> None:
    """The study's one manifest: what :func:`experiments.write_manifest`
    records, the values ``derived`` from the settings, the command and its ``params``."""
    extra = {**derived, "command": args.command, "params": _params(args)}
    experiments.write_manifest(args.out, study, data, seed=args.seed, extra=extra)


def _labels_for(path: Path, row_ids: list[str]) -> np.ndarray:
    """The 0/1 label of each matrix row from a labels CSV; DatasetError when
    a row has no label there, a label is not 0 or 1 or a post is labeled twice."""
    labels = {}
    for row in experiments.read_csv(path):
        label = row.get("label")
        if row.get("post_id") is None or label not in ("0", "1"):
            raise ingest.DatasetError(f"{path}: row without a 0/1 label: {row}")
        if row["post_id"] in labels:
            raise ingest.DatasetError(f"{path}: post id {row['post_id']!r} is labeled twice")
        labels[row["post_id"]] = int(label)
    missing = [rid for rid in row_ids if rid not in labels]
    if missing:
        raise ingest.DatasetError(f"labels missing for {len(missing)} posts (e.g. {missing[:3]})")
    return np.array([labels[rid] for rid in row_ids], dtype=np.int8)


def _prepare_study(args) -> experiments.PreparedData:
    """The study's dataset split and labeled, with the given labeling artifacts or ones fitted with ``--seed``."""
    records = list(ingest.parse_dataset(args.data))
    artifacts = None if args.artifacts is None else LabelingArtifacts.load(args.artifacts)
    return experiments.prepare(records, train_frac=args.train_frac, seed=args.seed, artifacts=artifacts)


# -- subcommand handlers -------------------------------------------------


def cmd_validate(args) -> int:
    diagnostics: list[ingest.ParseDiagnostic] = []
    violations: list[ingest.ValidationReport] = []
    summary = ingest.FilterSummary()

    def validated(records):  # each record checked as it is parsed; none is kept
        for record in records:
            report = ingest.validate_record(record)
            if not report.ok:
                violations.append(report)
            yield record

    for _ in ingest.apply_quality_filters(validated(ingest.parse_dataset(args.data, on_error=diagnostics.append)), summary):
        pass

    for diag in diagnostics:
        print(f"parse {diag}")
    for report in violations:
        for v in report.violations:
            print(f"{report.post_id}: {v}")
    print(
        f"records={summary.total} malformed_lines={len(diagnostics)} "
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
    _write_run_manifest(args)
    print(f"wrote {len(records)} posts ({int(planted.sum())} viral) to {out / 'posts.jsonl'}")
    return 0


def cmd_collect(args) -> int:
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
    out = _out_dir(args)

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
    _write_run_manifest(args, outcome)
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
        seed=args.seed,
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
        args,
        {"tau": data.artifacts.threshold.tau, "weights": data.artifacts.weights.weights, "n_train": data.n_train, "n_test": data.n_test},
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
    path = out / f"features_{window_name(args.window)}.csv"
    matrix.to_csv(path)
    _write_run_manifest(args, {"n_rows": matrix.n_rows})
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
    _write_run_manifest(args, {"duration_seconds": duration})
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
    _write_run_manifest(args)
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    data = _prepare_study(args)
    k_folds = args.folds if args.cv else None
    rows = experiments.run_window_sweep(data, windows=args.windows, model_kinds=args.models, seed=args.seed, k_folds=k_folds)
    experiments.write_csv(out / "window_sweep.csv", rows)
    configs = {k: experiments.config_hash(models.default_config(k, seed=args.seed)) for k in args.models}
    _write_study_manifest(args, "window_sweep", data, model_configs=configs)
    print(f"wrote {len(rows)} rows to {out / 'window_sweep.csv'}")
    return 0


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    data = _prepare_study(args)
    rows = experiments.run_ablation(data, window=args.window, modalities=MODALITIES, seed=args.seed)
    path = out / f"ablation_{window_name(args.window)}.csv"
    experiments.write_csv(path, rows)
    _write_study_manifest(args, "ablation", data, modalities=list(MODALITIES))
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_importance(args) -> int:
    out = _out_dir(args)
    data = _prepare_study(args)
    counts, details = experiments.importance_over_time(data, windows=args.windows, top_k=args.top_k, seed=args.seed)
    experiments.write_csv(out / "modality_importance.csv", counts)
    experiments.write_csv(out / "importance_features.csv", details)
    _write_study_manifest(args, "importance_over_time", data)
    print(f"wrote {len(counts)} rows to {out / 'modality_importance.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
