"""Generate one workload's input corpus and time it (the benchmark's set-up).

Run as a fresh process so the timing includes importing the package:

    python3 perfbench/make_inputs.py --workload sweep --seed 7 --out DIR

Writes ``DIR/posts.jsonl`` (the only file the program reads) and
``DIR/planted.json`` (planted flags, read by the benchmark's checks), then
prints one JSON line with the set-up timings and the input's identity.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def make_inputs(workload_name: str, seed: int, out: Path) -> dict:
    """Generate the corpus into ``out``; return set-up timings and the input's identity."""
    from workloads import WORKLOADS

    import viralearly
    from viralearly import experiments, ingest, synth

    if Path(viralearly.__file__).resolve().parent != (SRC / "viralearly").resolve():
        raise RuntimeError(f"viralearly imported from {viralearly.__file__}, not from {SRC}")
    imported = time.perf_counter()

    workload = WORKLOADS[workload_name]
    config = synth.SynthConfig(n_posts=workload.n_posts, signal=workload.signal, seed=seed)
    records, planted = synth.generate(config)
    generated = time.perf_counter()

    out.mkdir(parents=True, exist_ok=True)
    posts = out / "posts.jsonl"
    ingest.write_dataset(records, posts)
    written = time.perf_counter()

    (out / "planted.json").write_text(json.dumps({r.post_id: int(v) for r, v in zip(records, planted)}), encoding="utf-8")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "setup_cpu_s": usage.ru_utime + usage.ru_stime,
        "setup_s": written - _START,
        "import_s": imported - _START,
        "generate_s": generated - imported,
        "write_s": written - generated,
        "dataset_fingerprint": experiments.dataset_fingerprint(records),
        "posts_sha256": sha256_file(posts),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(make_inputs(args.workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
