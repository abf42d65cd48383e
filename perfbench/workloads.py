"""The benchmark workloads: what each one runs and how its outputs are checked.

Every workload reads only the generated ``posts.jsonl`` (plus, on the
benchmark side, the planted flags) and drives the package through its public
entry points: ``viralearly.cli.main`` and, for collection, the collector and
ingest functions. One iteration is one closed-loop pass: each operation
starts after the previous one returned.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

# The shortest and longest of the default eight windows and two between them,
# so that one run fits the time budget. Every other study setting is the default.
WINDOWS = (30.0, 120.0, 240.0, 420.0)
WINDOWS_FLAG = ",".join(f"{w:g}" for w in WINDOWS)
SWEEP_MODELS = ("logreg", "gbt", "mlp")
SWEEP_FOLDS = 5
TRACK_UNTIL_MINUTES = 1440.0


@dataclass(frozen=True)
class Workload:
    name: str
    n_posts: int
    signal: str
    items: int  # units of work in one iteration, for items_per_cpu_s


WORKLOADS = {
    w.name: w
    for w in (
        # cells: (window, model) pairs
        Workload("sweep", n_posts=1000, signal="temporal", items=len(WINDOWS) * len(SWEEP_MODELS)),
        # posts tracked
        Workload("collect_label", n_posts=2000, signal="temporal", items=2000),
    )
}


@dataclass
class Outcome:
    """Operations attempted and failed in one iteration, plus its results."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, bytes] = field(default_factory=dict)

    def op(self, name: str, fn) -> bool:
        """Run one operation; ``fn`` returns None when its output checks pass."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {problem}")
        return not problem

    def skip(self, name: str, n: int, why: str) -> None:
        """Count ``n`` operations that could not run because an earlier step failed."""
        self.attempted += n
        self.failed += n
        self.errors.append(f"{name}: {n} not run ({why})")


def cli_call(argv: list[str], log: io.StringIO) -> int:
    from viralearly import cli

    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        return cli.main(argv)


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def normalized_csv(path: Path, drop=("duration_seconds",)) -> bytes:
    """CSV bytes with run-time columns removed, for output comparisons."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return b""
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return buf.getvalue().encode()


def unit_interval(rows: list[dict], columns) -> str | None:
    for i, row in enumerate(rows):
        for c in columns:
            value = float(row[c])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                return f"row {i} {c}={row[c]} is not a finite value in [0, 1]"
    return None


def mean(rows: list[dict], column: str) -> float:
    return sum(float(r[column]) for r in rows) / len(rows)


def check_manifest(path: Path, fingerprint: str) -> str | None:
    seen = json.loads(path.read_text(encoding="utf-8")).get("dataset_fingerprint")
    if seen != fingerprint:
        return f"{path.name} saw dataset {seen}, expected {fingerprint}"
    return None


# -- sweep -------------------------------------------------------------------


def run_sweep(ctx, out: Outcome, tracer) -> None:
    target = ctx.work / "sweep"

    def sweep():
        argv = ["sweep", "--data", str(ctx.posts), "--out", str(target), "--windows", WINDOWS_FLAG, "--folds", str(SWEEP_FOLDS)]
        rc = cli_call(argv, ctx.log)
        if rc != 0:
            return f"exit code {rc}"
        rows = read_rows(target / "window_sweep.csv")
        cells = sorted((float(r["window"]), r["model"]) for r in rows)
        expected = sorted((w, m) for w in WINDOWS for m in SWEEP_MODELS)
        if cells != expected:
            return f"expected {len(expected)} (window, model) rows, got {len(rows)}"
        metrics = ("pr_auc", "roc_auc", "f1", "cv_pr_auc", "cv_pr_auc_std", "cv_roc_auc", "cv_roc_auc_std", "cv_f1", "cv_f1_std")
        problem = unit_interval(rows, metrics) or check_manifest(target / "window_sweep_manifest.json", ctx.fingerprint)
        if problem:
            return problem
        out.quality["test_pr_auc_mean"] = mean(rows, "pr_auc")
        out.quality["cv_pr_auc_mean"] = mean(rows, "cv_pr_auc")
        out.quality["test_roc_auc_mean"] = mean(rows, "roc_auc")
        # each cell is scored on the test split and on each of its CV folds, all held out
        out.quality["result_quality"] = (mean(rows, "roc_auc") + SWEEP_FOLDS * mean(rows, "cv_roc_auc")) / (1 + SWEEP_FOLDS)
        out.outputs["window_sweep.csv"] = normalized_csv(target / "window_sweep.csv")
        return None

    with tracer.step("sweep"):
        out.op("sweep", sweep)


# -- collect_label -----------------------------------------------------------


# Fault rates per fetch of the seeded fault injector.
TRANSIENT_RATE = 0.01
RATE_LIMITED_RATE = 0.005
OUTAGE_RATE = 0.001


class FlakySource:
    """PostSource wrapper that fails a small, seeded share of fetches.

    Each fetch draws from a per-post generator seeded by (seed, post id), so
    the faults do not depend on the order posts are tracked in. A fetch fails
    transiently with probability TRANSIENT_RATE, is rate limited (with a
    Retry-After of 1 to 3 minutes) with probability RATE_LIMITED_RATE, and
    with probability OUTAGE_RATE starts an outage of MAX_POLL_RETRIES + 1
    consecutive failures, enough to exhaust the collector's retries and skip
    that poll. Permanent errors are never raised, so every post completes.

    ``failures`` counts failed fetches. ``exhausted`` counts polls that the
    collector gave up on: runs of MAX_POLL_RETRIES + 1 consecutive failures of
    one post, since ``track_post`` makes that many attempts per poll.
    """

    def __init__(self, inner, seed: int):
        from viralearly.collector import MAX_POLL_RETRIES, RateLimitedError, TransientSourceError

        self._rate_limited_error, self._transient_error = RateLimitedError, TransientSourceError
        self.attempts_per_poll = MAX_POLL_RETRIES + 1
        self.inner = inner
        self.seed = seed
        self.fetches = 0
        self.failures = 0
        self.exhausted = 0
        self._rngs: dict[str, random.Random] = {}
        self._outage_left: dict[str, int] = {}
        self._failing: dict[str, int] = {}  # consecutive failures of each post's current poll

    @property
    def retries(self) -> int:
        """Attempts after the first of a poll: every failure except a poll's last one."""
        return self.failures - self.exhausted

    def fetch(self, post_id: str):
        self.fetches += 1
        try:
            result = self._fetch(post_id)
        except self._transient_error:
            self.failures += 1
            run = self._failing.get(post_id, 0) + 1
            if run == self.attempts_per_poll:
                self.exhausted += 1
                run = 0
            self._failing[post_id] = run
            raise
        self._failing[post_id] = 0
        return result

    def _fetch(self, post_id: str):
        rng = self._rngs.get(post_id)
        if rng is None:
            rng = self._rngs[post_id] = random.Random(f"{self.seed}:{post_id}")
        left = self._outage_left.get(post_id, 0)
        if left > 0:
            self._outage_left[post_id] = left - 1
            raise self._transient_error("injected outage")
        u = rng.random()
        if u < OUTAGE_RATE:
            self._outage_left[post_id] = self.attempts_per_poll - 1
            raise self._transient_error("injected outage")
        if u < OUTAGE_RATE + RATE_LIMITED_RATE:
            raise self._rate_limited_error("injected rate limit", retry_after_minutes=float(rng.randint(1, 3)))
        if u < OUTAGE_RATE + RATE_LIMITED_RATE + TRANSIENT_RATE:
            raise self._transient_error("injected transient failure")
        return self.inner.fetch(post_id)


def run_collect_label(ctx, out: Outcome, tracer) -> None:
    from viralearly import collector, evaluation, ingest

    collected_path = ctx.work / "collected.jsonl"
    label_dir = ctx.work / "label"
    try:
        with tracer.step("load"):
            records = list(ingest.parse_dataset(ctx.posts))
    except Exception as exc:  # without the corpus no post can be tracked
        out.skip("track+validate+label", len(ctx.planted) + 2, f"{type(exc).__name__}: {exc}")
        return
    clock = collector.SimulatedClock()
    source = FlakySource(collector.FileReplaySource(records, clock), seed=ctx.seed)
    results = {}

    def track(record):
        def op():
            res = collector.track_post(source, record.post_id, until_minutes=TRACK_UNTIL_MINUTES, clock=clock)
            results[record.post_id] = res
            if res.reason != "completed" or not res.snapshots:
                return f"ended {res.reason} with {len(res.snapshots)} snapshots"
            return None

        return op

    with tracer.step("collect"):
        for record in records:
            out.op(f"track {record.post_id}", track(record))
    tracer.count("collector.fetches", source.fetches)
    tracer.count("collector.snapshots", sum(len(r.snapshots) for r in results.values()))
    tracer.count("collector.skipped_polls", source.exhausted)
    tracer.count("collector.retries", source.retries)
    if len(results) != len(records):
        out.skip("validate+label", 2, "collection incomplete")
        return

    try:
        with tracer.step("write"):
            collected = [replace(r, snapshots=results[r.post_id].snapshots) for r in records]
            ingest.write_dataset(collected, collected_path)
    except Exception as exc:  # validate and label read the written corpus
        out.skip("validate+label", 2, f"{type(exc).__name__}: {exc}")
        return

    def validate():
        rc = cli_call(["validate", "--data", str(collected_path)], ctx.log)
        return f"exit code {rc}" if rc != 0 else None

    def label():
        rc = cli_call(["label", "--data", str(collected_path), "--out", str(label_dir)], ctx.log)
        if rc != 0:
            return f"exit code {rc}"
        rows = read_rows(label_dir / "labels.csv")
        if sorted(r["post_id"] for r in rows) != sorted(ctx.planted):
            return f"labels.csv has {len(rows)} rows for {len(ctx.planted)} posts"
        if any(r["label"] not in ("0", "1") or not math.isfinite(float(r["hybrid_score"])) for r in rows):
            return "labels.csv has a label outside {0, 1} or a non-finite score"
        agree = sum(int(r["label"]) == ctx.planted[r["post_id"]] for r in rows)
        test = [r for r in rows if r["split"] == "test"]
        out.quality["label_agreement"] = out.quality["result_quality"] = agree / len(rows)
        out.quality["labeling_test_pr_auc"] = evaluation.pr_auc(
            [ctx.planted[r["post_id"]] for r in test], [float(r["hybrid_score"]) for r in test]
        )
        out.outputs["labels.csv"] = normalized_csv(label_dir / "labels.csv")
        return None

    with tracer.step("validate"):
        out.op("validate", validate)
    with tracer.step("label"):
        out.op("label", label)


RUNNERS = {"sweep": run_sweep, "collect_label": run_collect_label}
