"""Fingerprint every benchmark pass's outputs, for bit-for-bit comparison.

    python3 tools/output_parity.py --seeds 1 2 3 > outputs.jsonl

Run it from the root of a source checkout.  For each seed it runs every
pass of the three `perfbench` workloads, as many as a benchmark run of
`BENCHMARK.json`'s `run_seconds` makes, untimed and untraced.  It prints
one JSON line per workload, seed and pass: the sha256 of the pass's
encoded outputs (`Pass.outputs`, the exact text of every call's outcome)
and its failure counts.  Run in two checkouts, a `diff` of the two
prints shows every pass where a change moved a value or a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, Pass  # noqa: E402


def fingerprints(seed: int, seconds: float):
    """One record per pass of every workload at `seed`."""
    for name, cls in WORKLOADS.items():
        workload = cls(seed, seconds)
        workload.load(workload.prepare())
        for p in range(workload.passes):
            rec = Pass()
            workload.run_pass(p, rec)
            digest = hashlib.sha256("\n".join(rec.outputs).encode())
            yield {"workload": name, "seed": seed, "pass": p,
                   "sha256": digest.hexdigest(),
                   "fails": dict(sorted(rec.fails.items()))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seed in args.seeds:
        for record in fingerprints(seed, seconds):
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
