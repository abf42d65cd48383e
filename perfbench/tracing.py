"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each viralearly module from
outside the package: it replaces the attribute that callers look up (module
globals, class attributes), records a span per call, and puts every original
back on :meth:`Patches.restore`. Nothing under ``src/`` is edited.

Each wrapped call pushes a frame on a per-thread stack, so a layer's self
time is its wall time minus the wall time of wrapped calls nested inside it
on the same thread. Busy time is the thread's CPU time over the same
interval; the rest of the self time is waiting (for the GIL or for I/O).
Coarse calls are kept as spans (id, parent, name, start, end, thread) in
memory and written out when the run ends; hot leaf calls (trajectory math,
per-record extractors) are only tallied.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

HOOKS = "trace.hooks"


class Tracer:
    """In-memory span store plus per-name totals and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        # name -> [calls, self wall seconds, self wait seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.step_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, keep: bool = True) -> list:
        stack = self._stack()
        # A pool thread's outermost span belongs to the step that started the pool.
        parent = stack[-1][5] if stack else self.step_id
        frame = [name, time.perf_counter(), time.thread_time(), 0.0, 0.0, next(self._ids) if keep else None, parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end, cpu_end = time.perf_counter(), time.thread_time()
        stack = self._stack()
        stack.pop()
        wall, cpu = end - frame[1], cpu_end - frame[2]
        if stack:
            stack[-1][3] += wall
            stack[-1][4] += cpu
        self_wall, self_cpu = wall - frame[3], cpu - frame[4]
        with self._lock:
            total = self.totals[frame[0]]
            total[0] += 1
            total[1] += self_wall
            total[2] += max(0.0, self_wall - self_cpu)
        if frame[5] is not None:
            self.spans.append(
                (frame[5], frame[6], frame[0], frame[1] - self.origin, end - self.origin, threading.get_ident())
            )

    def step(self, name: str):
        """Top-level span for one benchmark operation; pool threads attach to it."""
        return _Step(self, name)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def note(self, name: str, key) -> None:
        with self._lock:
            self.distinct[name].add(key)

    def self_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def wait_s(self, prefix: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if n == prefix or n.startswith(prefix + "."))

    def top_level_s(self) -> float:
        main = threading.main_thread().ident
        return sum(end - start for _, parent, _, start, end, tid in self.spans if parent is None and tid == main)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, tid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": round(start, 6),
                            "end": round(end, 6),
                            "thread": tid,
                        }
                    )
                    + "\n"
                )


class _Step:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = self.tracer.enter(f"step.{self.name}")
        self.tracer.step_id = self.frame[5]
        return self

    def __exit__(self, *exc):
        self.tracer.step_id = None
        self.tracer.exit(self.frame)
        return False


class NullTracer:
    """Stand-in for untraced runs: steps are plain blocks."""

    def step(self, name: str):
        return _NullStep()

    def count(self, name: str, n: float = 1) -> None:
        pass


class _NullStep:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# -- wrappers -------------------------------------------------------------


def _run_hook(tracer: Tracer, hook, *args, **kwargs) -> None:
    frame = tracer.enter(HOOKS, keep=False)
    try:
        hook(*args, **kwargs)
    finally:
        tracer.exit(frame)


def wrap_call(tracer: Tracer, fn, name, keep: bool = True, hook=None):
    """Span around each call; ``name`` may be a function of the call's arguments."""
    name_of = name if callable(name) else (lambda *a, **k: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name_of(*args, **kwargs), keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if hook is not None:
            _run_hook(tracer, hook, result, *args, **kwargs)
        return result

    return wrapper


def wrap_generator(tracer: Tracer, fn, name: str, hook=None):
    """Time each ``next()`` of a generator function; the consumer's work is not counted."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        produced = 0
        while True:
            frame = tracer.enter(name, keep=False)
            try:
                item = next(gen)
            except StopIteration:
                break
            finally:
                tracer.exit(frame)
            produced += 1
            yield item
        if hook is not None:
            _run_hook(tracer, hook, produced, *args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def replace_everywhere(self, package_modules, fn, wrapper) -> None:
        """Swap ``fn`` for ``wrapper`` in every module that holds it by name."""
        for module in package_modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _matrix_key(matrix) -> str:
    """Content digest of a FeatureMatrix: rows, columns and values."""
    h = hashlib.sha1()
    h.update("\x1f".join(matrix.row_ids).encode())
    for column in matrix.columns:
        h.update(column.name.encode())
        values = matrix.data[column.name]
        if values.dtype == object:
            h.update("\x1f".join(map(str, values)).encode())
        else:
            h.update(values.tobytes())
    return h.hexdigest()


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of every pipeline layer; returns the undo list."""
    from viralearly import cli, collector, evaluation, experiments, features, ingest, labeling, models, preprocess, trajectory

    package = [m for n, m in sorted(sys.modules.items()) if n == "viralearly" or n.startswith("viralearly.")]
    patches = Patches()

    def everywhere(fn, wrapper):
        patches.replace_everywhere(package, fn, wrapper)

    def wrap(fn, name, keep=True, hook=None):
        everywhere(fn, wrap_call(tracer, fn, name, keep, hook))

    def on_class(cls, attr, name, keep=True, hook=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            patches.set(cls, attr, classmethod(wrap_call(tracer, original.__func__, name, keep, hook)))
        else:
            patches.set(cls, attr, wrap_call(tracer, original, name, keep, hook))

    wrap(cli.main, "cli")

    # ingest
    def parsed(n_records, *args, **kwargs):
        tracer.count("ingest.records_parsed", n_records)

    everywhere(ingest.parse_dataset, wrap_generator(tracer, ingest.parse_dataset, "ingest.parse", hook=parsed))

    def written(n_lines, records, path):
        tracer.count("ingest.bytes_written", os.path.getsize(path))

    wrap(ingest.write_dataset, "ingest.write", hook=written)
    wrap(ingest.validate_record, "ingest.validate", keep=False)

    def filtered(kept, records, *args, summary=None, **kwargs):
        if summary is not None:
            tracer.count("ingest.dropped", summary.dropped)
        elif hasattr(records, "__len__"):
            tracer.count("ingest.dropped", len(records) - kept)

    everywhere(ingest.apply_quality_filters, wrap_generator(tracer, ingest.apply_quality_filters, "ingest.validate", hook=filtered))

    # collector
    wrap(collector.track_post, "collector.track")
    on_class(collector.FileReplaySource, "fetch", "collector.fetch", keep=False)

    # labeling
    on_class(labeling.LabelingArtifacts, "fit", "labeling.fit")
    wrap(labeling.learn_hybrid_weights, "labeling.weights")

    def scored(result, records, *args, **kwargs):
        tracer.count("labeling.rows_scored", len(records))
        for r in records:
            tracer.note("labeling.scored_ids", r.post_id)

    wrap(labeling.score_records, "labeling.score", hook=scored)

    # trajectory: every public function, tallied only (hot leaf calls)
    for attr, fn in list(vars(trajectory).items()):
        if inspect.isfunction(fn) and fn.__module__ == trajectory.__name__ and not attr.startswith("_"):
            wrap(fn, "trajectory", keep=False)

    # features
    def assembled(matrix, *args, **kwargs):
        tracer.count("features.cells", matrix.n_rows * len(matrix.columns))

    wrap(features.assemble_matrix, "features.assemble", hook=assembled)
    wrap(features.extract_temporal, "features.temporal", keep=False)
    wrap(features.extract_network, "features.network", keep=False)

    def static_seen(result, record, *args, **kwargs):
        tracer.note("features.static_ids", record.post_id)

    wrap(features.extract_static, "features.static", keep=False, hook=static_seen)

    # preprocess
    def prep_fitted(result, matrix, *args, **kwargs):
        tracer.note("preprocess.fit_keys", _matrix_key(matrix))

    wrap(preprocess.fit, "preprocess.fit", hook=prep_fitted)
    wrap(preprocess.transform, "preprocess.transform")

    # models: one train entry point split by kind, and the predict method
    def trained(model, config, *args, **kwargs):
        inner = model.inner
        if config.kind == "gbt":
            tracer.count("models.gbt.trees", len(getattr(inner, "trees", ())))
        elif config.kind == "logreg":
            tracer.count("models.logreg.iters", getattr(inner, "n_iter", 0))
        elif config.kind == "mlp":
            tracer.count("models.mlp.epochs", getattr(inner, "n_epochs", 0))

    wrap(models.train, lambda config, *a, **k: f"models.{config.kind}.fit", hook=trained)
    on_class(models.TrainedModel, "predict_proba", lambda self, *a, **k: f"models.{self.kind}.predict")

    # evaluation
    def validated(report, *args, **kwargs):
        tracer.count("evaluation.folds", len(report.per_fold.get("pr_auc", ())))

    wrap(evaluation.cross_validate, "evaluation.cv", hook=validated)
    wrap(evaluation.evaluate_predictions, "evaluation.metrics", keep=False)

    # experiments
    wrap(experiments.prepare, "experiments.prepare")
    wrap(experiments.build_window_matrices, "experiments.matrices")
    for fn in (experiments.write_csv, experiments.write_manifest):
        wrap(fn, "experiments.report")
    wrap(experiments.run_window_sweep, "experiments.study")

    return patches


MODEL_KINDS = ("logreg", "gbt", "mlp", "random_forest")
WAIT_LAYERS = ("ingest", "collector", "labeling", "trajectory", "features", "preprocess", "models", "evaluation", "experiments", "cli")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, counts and ratios from one traced iteration."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["ingest.parse_s"] = tracer.self_s("ingest.parse")
    m["ingest.records_parsed"] = tracer.counts["ingest.records_parsed"]
    m["ingest.write_s"] = tracer.self_s("ingest.write")
    m["ingest.bytes_written"] = tracer.counts["ingest.bytes_written"]
    m["ingest.validate_s"] = tracer.self_s("ingest.validate")
    m["ingest.dropped"] = tracer.counts["ingest.dropped"]

    m["collector.track_s"] = tracer.self_s("collector.track")
    m["collector.fetch_s"] = tracer.self_s("collector.fetch")
    for key in ("fetches", "retries", "skipped_polls"):
        m[f"collector.{key}"] = tracer.counts[f"collector.{key}"]
    m["collector.useful_fetch_ratio"] = ratio(tracer.counts["collector.snapshots"], tracer.counts["collector.fetches"])

    m["labeling.fit_s"] = tracer.self_s("labeling.fit")
    m["labeling.weights_s"] = tracer.self_s("labeling.weights")
    m["labeling.score_s"] = tracer.self_s("labeling.score")
    m["labeling.rows_scored"] = tracer.counts["labeling.rows_scored"]
    m["labeling.score_reuse_ratio"] = ratio(len(tracer.distinct["labeling.scored_ids"]), tracer.counts["labeling.rows_scored"])

    m["trajectory.calls"] = tracer.calls("trajectory")
    m["trajectory.s"] = tracer.self_s("trajectory")

    m["features.assemble_s"] = tracer.self_s("features.assemble")
    m["features.assemble_calls"] = tracer.calls("features.assemble")
    m["features.cells"] = tracer.counts["features.cells"]
    for part in ("temporal", "network", "static"):
        m[f"features.{part}_s"] = tracer.self_s(f"features.{part}")
    m["features.static_reuse_ratio"] = ratio(len(tracer.distinct["features.static_ids"]), tracer.calls("features.static"))

    m["preprocess.fit_s"] = tracer.self_s("preprocess.fit")
    m["preprocess.fit_calls"] = tracer.calls("preprocess.fit")
    m["preprocess.transform_s"] = tracer.self_s("preprocess.transform")
    m["preprocess.transform_calls"] = tracer.calls("preprocess.transform")
    m["preprocess.distinct_fit_ratio"] = ratio(len(tracer.distinct["preprocess.fit_keys"]), tracer.calls("preprocess.fit"))

    for kind in MODEL_KINDS:
        m[f"models.{kind}.fit_s"] = tracer.self_s(f"models.{kind}.fit")
        m[f"models.{kind}.fits"] = tracer.calls(f"models.{kind}.fit")
        m[f"models.{kind}.predict_s"] = tracer.self_s(f"models.{kind}.predict")
    m["models.gbt.trees"] = tracer.counts["models.gbt.trees"]
    m["models.logreg.iters"] = tracer.counts["models.logreg.iters"]
    m["models.mlp.epochs"] = tracer.counts["models.mlp.epochs"]

    m["evaluation.cv_s"] = tracer.self_s("evaluation.cv")
    m["evaluation.folds"] = tracer.counts["evaluation.folds"]
    m["evaluation.metrics_s"] = tracer.self_s("evaluation.metrics")

    m["experiments.prepare_s"] = tracer.self_s("experiments.prepare")
    m["experiments.matrices_s"] = tracer.self_s("experiments.matrices")
    m["experiments.report_s"] = tracer.self_s("experiments.report")
    m["experiments.study_s"] = tracer.self_s("experiments.study")

    m["cli.s"] = tracer.self_s("cli")
    for layer in WAIT_LAYERS:
        m[f"{layer}.wait_s"] = tracer.wait_s(layer)
    m["trace.hooks_s"] = tracer.self_s(HOOKS)
    m["trace.spans"] = len(tracer.spans)
    return m
