"""Fingerprint every benchmark pass's outputs, for bit-for-bit comparison.

    python3 tools/output_parity.py --seeds 1 2 3 > outputs.jsonl

Run it from the root of a source checkout.  For each seed it runs every
pass of the three `perfbench` workloads, as many as a benchmark run of
`BENCHMARK.json`'s `run_seconds` makes, untimed and untraced.  It prints
one JSON line per workload, seed and pass: the sha256 of the pass's
encoded outputs (`Pass.outputs`, the exact text of every call's outcome),
the sha256 of its calls' flags (`flags_sha256`: the `raw` sum and the
`warning` of every `survival` and `fet_density` result, which the
clamped output hides) and its failure counts.  Run in two checkouts, a
`diff` of the two prints shows every pass where a change moved a value,
a flag or a failure;

    python3 tools/output_parity.py --compare base.jsonl head.jsonl

prints that diff as a Markdown table, one row per pass whose hashes or
failure counts differ, under a one-line count.  The flags hash is
compared only where both records hold it, so records of an older copy of
this tool, which has none, compare by their outputs and failures alone.
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


class FlagPass(Pass):
    """A `Pass` that also keeps each call's flags: the exact text of a
    `SpectralValue`'s `raw` and `warning`, and an empty line for any
    other outcome."""

    def __init__(self):
        super().__init__()
        self.flags: list[str] = []

    def call(self, geometry: str, fn, *args, **kwargs):
        value, ns = super().call(geometry, fn, *args, **kwargs)
        raw = getattr(value, "raw", None)
        self.flags.append("" if raw is None
                          else f"{float(raw).hex()} {value.warning}")
        return value, ns


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fingerprints(seed: int, seconds: float):
    """One record per pass of every workload at `seed`."""
    for name, cls in WORKLOADS.items():
        workload = cls(seed, seconds)
        workload.load(workload.prepare())
        for p in range(workload.passes):
            rec = FlagPass()
            workload.run_pass(p, rec)
            yield {"workload": name, "seed": seed, "pass": p,
                   "sha256": _sha256(rec.outputs),
                   "flags_sha256": _sha256(rec.flags),
                   "fails": dict(sorted(rec.fails.items()))}


def _flags_moved(a: dict, b: dict) -> bool:
    """Whether two records' flags differ, where both hold them."""
    return ("flags_sha256" in a and "flags_sha256" in b
            and a["flags_sha256"] != b["flags_sha256"])


def compare(base: list[dict], head: list[dict]) -> list[str]:
    """Markdown lines: how many passes moved, then a table of each pass
    whose hashes or failure counts differ between the two record lists
    (a pass missing from one side counts as moved).  A pass whose outputs
    agree but whose flags do not reads "flags moved"."""
    def keyed(records):
        return {(r["workload"], r["seed"], r["pass"]): r for r in records}

    old, new = keyed(base), keyed(head)
    rows = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if (a and b and a["sha256"] == b["sha256"] and not _flags_moved(a, b)
                and a["fails"] == b["fails"]):
            continue
        outputs = ("absent on one side" if not (a and b)
                   else "moved" if a["sha256"] != b["sha256"]
                   else "flags moved" if _flags_moved(a, b) else "same")
        fails = " → ".join(json.dumps(r["fails"]) if r else "-"
                           for r in (a, b))
        rows.append(f"| {key[0]} | {key[1]} | {key[2]} | {outputs} "
                    f"| {fails} |")
    lines = [f"{len(rows)} of {len(old.keys() | new.keys())} passes "
             "differ in outputs or failure counts."]
    if rows:
        lines += ["", "| workload | seed | pass | outputs "
                  "| failures (base → head) |", "|---|---|---|---|---|"]
        lines += rows
    return lines


def _read(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", type=int, nargs="+")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args()
    if args.compare:
        print("\n".join(compare(*map(_read, args.compare))))
        return 0
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for seed in args.seeds:
        for record in fingerprints(seed, seconds):
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
