"""Pin the input identity of a range of seeds in ``inputs.json``.

    python3 perfbench/pin_inputs.py --workload sweep --first 0 --last 255

For each seed, generates the workload's corpus as set-up does and records
[dataset fingerprint, sha256 of posts.jsonl]. Existing pins are kept; a seed
whose inputs differ from its pin is reported and makes the exit code 1. The
benchmark refuses a seed that is not pinned.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from make_inputs import HERE, make_inputs

PINS = HERE / "inputs.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args()

    found = {}
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in range(args.first, args.last + 1):
            out = Path(tmp) / str(seed)
            doc = make_inputs(args.workload, seed, out)
            found[str(seed)] = [doc["dataset_fingerprint"], doc["posts_sha256"]]
            shutil.rmtree(out)

    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pinned = pins.setdefault(args.workload, {})
    status = 0
    for seed, identity in found.items():
        if pinned.setdefault(seed, identity) != identity:
            print(f"{args.workload} seed {seed}: inputs {identity} differ from the pin {pinned[seed]}", file=sys.stderr)
            status = 1
    pins[args.workload] = dict(sorted(pinned.items(), key=lambda kv: int(kv[0])))
    lines = []
    for workload in sorted(pins):
        seeds = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in pins[workload].items())
        lines.append(f" {json.dumps(workload)}: {{\n{seeds}\n }}")
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
