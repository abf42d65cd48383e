"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. Set-up (import, corpus generation, writing
``posts.jsonl``) runs several times in fresh processes and the median of their
CPU times is ``setup_s``. The timed part then runs in this process, one
iteration after another, until ``--seconds`` of wall time have been measured
(at least one iteration); ``cpu_s`` is the median CPU time of an iteration.
With ``--trace 1`` one more iteration runs with every layer wrapped by the
tracer; it reports per-layer metrics and the tracing overhead instead of the
end-to-end metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the run writes goes under ``.perfbench/`` in the checkout; the
per-run result (environment, iterations, errors) and, for traced runs, the
spans are kept in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# Stop starting iterations once this much of the run has gone, so a run ends well within 180 s.
RUN_BUDGET_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The inputs of seeds 0..INPUT_SEEDS-1 are pinned in inputs.json; any other
# command-line seed uses the inputs of its residue, so every run is checked.
INPUT_SEEDS = 256

sys.path.insert(0, str(HERE))
from workloads import RUNNERS, WORKLOADS, Outcome  # noqa: E402

END_TO_END = {
    "cpu_s": "s",
    "items_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "fraction",
    "result_quality": "fraction",
}
# Quality figures (fractions) only some workloads produce; printed and kept in the result file.
EXTRA_QUALITY = ("test_pr_auc_mean", "cv_pr_auc_mean", "test_roc_auc_mean", "label_agreement", "labeling_test_pr_auc")


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (no source tree, set-up failed)."""


@dataclass
class Context:
    """What one iteration of a workload reads and where it writes."""

    work: Path
    posts: Path
    planted: dict[str, int]
    fingerprint: str
    seed: int
    log: io.StringIO = field(default_factory=io.StringIO)


def run_setups(workload: str, seed: int, work: Path) -> list[dict]:
    """Set up SETUP_REPEATS times in fresh processes; every repeat must match."""
    results = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["dir"] = out
        results.append(doc)
    identities = {(r["dataset_fingerprint"], r["posts_sha256"]) for r in results}
    if len(identities) != 1:
        raise BenchmarkError(f"set-up is not deterministic: {sorted(identities)}")
    return results


def check_identity(pinned_path: Path, workload: str, seed: int, seen: list[str]) -> str | None:
    """Compare the inputs' [dataset fingerprint, posts.jsonl sha256] with the seed's pin.

    The pins are committed, so every checkout and both sides of a comparison
    are held to the same inputs. A seed without a pin is refused; add it with
    ``pin_inputs.py``.
    """
    pinned = json.loads(pinned_path.read_text(encoding="utf-8")).get(workload, {})
    if str(seed) not in pinned:
        return f"seed {seed} is not pinned in {pinned_path.name}; pin it with pin_inputs.py"
    if pinned[str(seed)] != seen:
        return f"inputs differ from {pinned_path.name}: {pinned[str(seed)]} != {seen}"
    return None


def input_seed(seed: int) -> int:
    """The pinned seed whose inputs a command-line seed runs on."""
    return seed % INPUT_SEEDS


def import_package():
    if not (SRC / "viralearly" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import viralearly

    if Path(viralearly.__file__).resolve().parent != (SRC / "viralearly").resolve():
        raise BenchmarkError(f"viralearly imported from {viralearly.__file__}, not from {SRC}")
    return viralearly


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_iteration(workload: str, ctx: Context, tracer) -> tuple[float, float, Outcome]:
    """Run one iteration; return its wall time, its CPU time and its outcome."""
    outcome = Outcome()
    ctx.work.mkdir(parents=True, exist_ok=True)
    cpu = cpu_seconds()
    start = time.perf_counter()
    RUNNERS[workload](ctx, outcome, tracer)
    return time.perf_counter() - start, cpu_seconds() - cpu, outcome


def environment(blas_found: dict) -> dict:
    import numpy

    import viralearly

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_found": blas_found,
        "viralearly": viralearly.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    # On SIGTERM, unwind normally: a running set-up child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One BLAS thread, set before numpy is imported here or in set-up. With
    # OpenBLAS's default of one thread per CPU on top of the sweep's pool, each
    # MLP epoch costs several times more, and early stopping makes the epoch
    # count vary 3x between seeds, so sweep wall time follows the input: one
    # seed took 30-32 s per iteration against 22 s with one thread, and the
    # spread over ten seeds (quartile distance / median) reached 0.25 on a
    # 2-core x86_64 VM. The result records the values found and the values set.
    blas_found = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_package()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    name = args.workload
    args.input_seed = input_seed(args.seed)
    run_id = f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = STATE / "work" / run_id
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            setups = run_setups(name, args.input_seed, work)
        except (BenchmarkError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return measure(args, run_id, run_start, setups, results_dir, blas_found)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, run_id: str, run_start: float, setups: list[dict], results_dir: Path, blas_found: dict) -> int:
    from tracing import NullTracer, Tracer, install, layer_metrics

    name = args.workload
    first = setups[0]
    identity_problem = check_identity(
        HERE / "inputs.json", name, args.input_seed, [first["dataset_fingerprint"], first["posts_sha256"]]
    )
    inputs = setups[-1]["dir"]
    planted = json.loads((inputs / "planted.json").read_text(encoding="utf-8"))
    work = inputs.parent

    def context(tag: str) -> Context:
        return Context(work / tag, inputs / "posts.jsonl", planted, first["dataset_fingerprint"], args.input_seed)

    walls: list[float] = []
    cpus: list[float] = []
    outcomes: list[Outcome] = []
    logs: list[str] = []
    while True:
        ctx = context(f"iter{len(walls)}")
        wall, cpu, outcome = run_iteration(name, ctx, NullTracer())
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(outcome)
        logs.append(ctx.log.getvalue())
        used = time.perf_counter() - run_start
        next_cost = wall * (2.5 if args.trace else 1.0)
        if sum(walls) >= args.seconds or used + next_cost > RUN_BUDGET_S:
            break

    layer = {}
    if args.trace:
        tracer = Tracer(run_id)
        patches = install(tracer)
        ctx = context("traced")
        try:
            traced_wall, _, outcome = run_iteration(name, ctx, tracer)
        finally:
            patches.restore()
        outcomes.append(outcome)
        logs.append(ctx.log.getvalue())
        tracer.write_spans(results_dir / f"{run_id}-spans.jsonl")
        layer = layer_metrics(tracer)
        untraced = statistics.median(walls)
        layer["synth.generate_s"] = statistics.median(s["generate_s"] for s in setups)
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = untraced
        layer["trace.overhead_s"] = traced_wall - untraced
        layer["trace.top_level_coverage"] = tracer.top_level_s() / traced_wall

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [e for o in outcomes for e in o.errors]
    if identity_problem:
        problems.append(identity_problem)
    reference = outcomes[0].outputs
    for i, o in enumerate(outcomes[1:], start=1):
        if o.outputs != reference:
            differing = sorted(k for k in set(o.outputs) | set(reference) if o.outputs.get(k) != reference.get(k))
            problems.append(f"iteration {i} outputs differ from iteration 0: {differing}")
    quality = outcomes[0].quality
    cpu = statistics.median(cpus)
    end_to_end = {
        "cpu_s": cpu,
        "items_per_cpu_s": WORKLOADS[name].items / cpu,
        "setup_s": statistics.median(s["setup_cpu_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - failed / attempted if attempted else 0.0,
        "result_quality": quality.get("result_quality", float("nan")),
    }
    extra = {k: quality[k] for k in EXTRA_QUALITY if k in quality}
    for key, value in end_to_end.items():
        if not math.isfinite(value):  # e.g. no quality figure because its operation failed
            problems.append(f"{key} is not finite; reported as 0")
            end_to_end[key] = 0.0
    correct = not problems and failed == 0

    env = environment(blas_found)
    result = {
        "run": run_id,
        "workload": name,
        "seed": args.seed,
        "input_seed": args.input_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "iterations_s": walls,
        "iterations_cpu_s": cpus,
        "wall_s": statistics.median(walls),
        "setup_wall_s": statistics.median(s["setup_s"] for s in setups),
        "end_to_end": end_to_end,
        "quality": extra,
        "per_layer": layer,
        "setups": [{k: v for k, v in s.items() if k != "dir"} for s in setups],
        "environment": env,
        "problems": problems,
        "program_output_tail": [log[-4000:] for log in logs] if problems else [],
    }
    (results_dir / f"{run_id}.json").write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")

    for problem in problems:
        print(f"problem: {problem}")
    print(f"workload {name} seed {args.seed} (inputs of seed {args.input_seed}): {len(walls)} iteration(s), {attempted} operations, {failed} failed")
    print(f"wall_s {statistics.median(walls):.6g} s (not gated: it includes time the host took from this machine)")
    for key, value in end_to_end.items():
        print(f"{key} {value:.6g} {END_TO_END[key]}")
    for key, value in extra.items():
        print(f"{key} {value:.6g} fraction")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "trajectory.s" or name == "cli.s":
        return "s"
    if name.endswith("ratio") or name.endswith("coverage"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
