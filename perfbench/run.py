"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; `ouexit` is imported from `src`.
With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of one traced pass.
Progress and sample counts go to standard error.  See perfbench/README.md
for what each metric means and which change should move it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("basis-build", "curve-eval", "closed-form")
SETUP_REPEATS = 3
TRACED_PASS = 0
FAIL_TYPES = ("OverflowError", "ZeroDivisionError", "ValueError",
              "QuadratureError", "RootSearchError", "NonConvergenceError",
              "check")


def quantile(sorted_values, q):
    """Nearest-rank quantile of an already sorted list."""
    i = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[i]


def child(args, role: str, stdin: str = "") -> dict:
    """Run this script as a fresh process in `role`; returns its JSON."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", role,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        input=stdin, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def set_up(args) -> dict:
    """Import ouexit and prepare the workload's inputs, timed from before
    the import; for curve-eval the payload holds the bases as JSON.  The
    time is scaled by the machine's slowness sampled just before and after,
    as a probe inside the import would see the import's cold caches."""
    speed = Speed()
    before = speed.sample()
    t0 = time.perf_counter_ns()
    workloads = importlib.import_module("workloads")
    payload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds).prepare()
    ns = time.perf_counter_ns() - t0
    slowness = 0.5 * (before + speed.sample())
    return {"setup_ns": round(ns / slowness), "payload": payload}


def end_to_end(passes, setup_s):
    ops = sorted(ns for p in passes for ns in p.op_ns)
    # highest percentile with at least ten samples beyond it, capped at p99
    q99 = min(0.99, 1.0 - 10.0 / len(ops))
    print(f"op samples: {len(ops)} over {len(passes)} passes; "
          f"op_ms.p99 taken at quantile {q99:.4f}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.api_ns for p in passes) / 1e9, "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ops_per_s": (len(ops) / (sum(ops) / 1e9), "1/s"),
        "op_ms.p50": (quantile(ops, 0.5) / 1e6, "ms"),
        "op_ms.p99": (quantile(ops, q99) / 1e6, "ms"),
    }
    for g in passes[0].geom_ns:
        metrics[f"geom_s.{g}"] = (
            statistics.median(p.geom_ns[g] for p in passes) / 1e9, "s")
    return attempted, failed, metrics


def traced_run(args, workload, payload):
    """One traced pass, checked bit for bit against an untraced replay of
    the same inputs in a fresh process, whose caches are as cold."""
    from spans import Tracer
    from workloads import Pass

    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass(tracer=tracer)
        workload.run_pass(TRACED_PASS, traced)
    finally:
        tracer.uninstall()
    replay = child(args, "replay", payload)
    metrics = tracer.layer_metrics(traced.api_ns)
    for name in FAIL_TYPES:
        metrics[f"fail.{name}"] = (traced.fails[name], "count")
    metrics["fail.other"] = (
        sum(n for k, n in traced.fails.items() if k not in FAIL_TYPES),
        "count")
    metrics["trace.overhead_frac"] = (
        traced.api_ns / replay["api_ns"] - 1.0, "ratio")
    identical = traced.outputs == replay["outputs"]
    return identical, traced.attempted, traced.failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--child", choices=("setup", "replay"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "ouexit" / "__init__.py").is_file():
        print(f"ouexit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.child == "setup":
        print(json.dumps(set_up(args)))
        return 0
    from workloads import WORKLOADS as CLASSES, Pass

    workload = CLASSES[args.workload](args.seed, args.seconds)
    if args.child == "replay":
        workload.load(sys.stdin.read())
        rec = Pass()
        workload.run_pass(TRACED_PASS, rec)
        print(json.dumps({"api_ns": rec.api_ns, "outputs": rec.outputs}))
        return 0

    setups = [child(args, "setup") for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s["setup_ns"] for s in setups) / 1e9
    payload = setups[0]["payload"]
    correct = workload.load(payload)

    if args.trace:
        identical, attempted, failed, metrics = traced_run(
            args, workload, payload)
        correct = correct and identical
    else:
        passes = []
        with Speed() as speed:
            for p in range(workload.passes):
                rec = Pass(speed)
                workload.run_pass(p, rec)
                passes.append(rec)
                print(f"pass {p}: {rec.api_ns / 1e9:.3f} s in the API, "
                      f"{rec.failed} of {rec.attempted} failed "
                      f"{dict(rec.fails)}", file=sys.stderr)
        attempted, failed, metrics = end_to_end(passes, setup_s)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
