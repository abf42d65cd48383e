"""Checks of the benchmark harness itself, on small corpora.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import INPUT_SEEDS, Context, check_identity, input_seed, run_iteration  # noqa: E402
from tracing import NullTracer, Tracer, install, layer_metrics  # noqa: E402
from workloads import TRACK_UNTIL_MINUTES, WORKLOADS, FlakySource  # noqa: E402

SMALL = {"sweep": 240, "collect_label": 300}


def small_inputs(tmp_path: Path, workload: str, seed: int = 5) -> tuple[Path, dict, str]:
    from viralearly import experiments, ingest, synth

    config = synth.SynthConfig(n_posts=SMALL[workload], signal=WORKLOADS[workload].signal, seed=seed)
    records, planted = synth.generate(config)
    posts = tmp_path / "posts.jsonl"
    ingest.write_dataset(records, posts)
    return posts, {r.post_id: int(v) for r, v in zip(records, planted)}, experiments.dataset_fingerprint(records)


def package_state() -> dict:
    """Every module global and class attribute of the package, by identity."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "viralearly" or name.startswith("viralearly."):
            state[name] = dict(vars(module))
            for attr, value in vars(module).items():
                if inspect.isclass(value) and value.__module__ == name:
                    state[f"{name}.{attr}"] = dict(vars(value))
    return state


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_writes_identical_outputs_and_restores_the_package(tmp_path, workload):
    posts, planted, fingerprint = small_inputs(tmp_path, workload)
    _, _, plain = run_iteration(workload, Context(tmp_path / "plain", posts, planted, fingerprint, 5), NullTracer())
    before = package_state()  # after the plain run, which imports every module it needs
    tracer = Tracer("test")
    patches = install(tracer)
    try:
        _, _, traced = run_iteration(workload, Context(tmp_path / "traced", posts, planted, fingerprint, 5), tracer)
    finally:
        patches.restore()

    assert package_state() == before
    assert plain.failed == 0, plain.errors
    assert traced.failed == 0, traced.errors
    assert plain.outputs and traced.outputs == plain.outputs
    metrics = layer_metrics(tracer)
    assert metrics["cli.s"] > 0 and tracer.spans


def scheduled_polls(until_minutes: float) -> int:
    """Number of polls the collector's default schedule makes for one post."""
    from viralearly import collector

    schedule = collector.PollSchedule()
    t, n = 0.0, 0
    while t <= until_minutes:
        n += 1
        t += collector.schedule_next_poll(t, schedule)
    return n


def test_fault_injection_is_seeded_and_never_loses_a_post(tmp_path):
    from viralearly import collector, ingest

    posts, _, _ = small_inputs(tmp_path, "collect_label")
    records = list(ingest.parse_dataset(posts))

    def collect(seed):
        clock = collector.SimulatedClock()
        source = FlakySource(collector.FileReplaySource(records, clock), seed=seed)
        results = [collector.track_post(source, r.post_id, TRACK_UNTIL_MINUTES, clock=clock) for r in records]
        return source, results

    source, results = collect(seed=1)
    again, repeat = collect(seed=1)
    other, _ = collect(seed=2)
    assert all(r.reason == "completed" for r in results)
    assert source.exhausted > 0 and source.retries > source.exhausted
    # every scheduled poll ended in one successful fetch or in exhausted retries
    assert source.fetches - source.failures + source.exhausted == scheduled_polls(TRACK_UNTIL_MINUTES) * len(records)
    assert (source.fetches, source.failures, source.exhausted) == (again.fetches, again.failures, again.exhausted)
    assert [r.snapshots for r in results] == [r.snapshots for r in repeat]
    assert (source.fetches, source.failures) != (other.fetches, other.failures)


def test_input_identity_is_pinned(tmp_path):
    pinned = tmp_path / "pinned.json"
    pinned.write_text('{"sweep": {"7": ["2000:abc", "f00"]}}', encoding="utf-8")

    assert check_identity(pinned, "sweep", 7, ["2000:abc", "f00"]) is None
    assert check_identity(pinned, "sweep", 7, ["2000:abc", "bad"]) is not None
    assert check_identity(pinned, "sweep", 8, ["2000:def", "123"]) is not None  # not pinned
    assert check_identity(pinned, "collect_label", 7, ["2000:abc", "f00"]) is not None


def test_the_benchmark_seeds_are_pinned():
    pins = json.loads((HERE / "inputs.json").read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        assert set(map(str, range(INPUT_SEEDS))) <= set(pins[workload])


def test_every_seed_maps_to_a_pinned_seed():
    assert input_seed(7) == 7
    assert input_seed(1185824766) == 1185824766 % INPUT_SEEDS
    assert 0 <= input_seed(-3) < INPUT_SEEDS
