"""The benchmark's outputs must not depend on what earlier calls cached.

`tools/output_parity.py` fingerprints every pass of the three benchmark
workloads.  Run twice in one process, the second run meets the caches the
first one filled: U's gamma factors per (a, b) (`specfun._u_gamma_factors`),
the Laplace pass's nodes per level (`specfun._es_nodes`) and the latest
start's mode rows (`spectral._rows`).  Equal records show that a warm
cache gives the same bits as a cold one.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_parity.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_outputs_repeat_on_warm_caches():
    tool = _load_tool()
    first = list(tool.fingerprints(1, 1.0))
    # one pass per workload
    assert [r["workload"] for r in first] == list(tool.WORKLOADS)
    assert list(tool.fingerprints(1, 1.0)) == first


def test_compare_lists_only_the_passes_that_differ():
    tool = _load_tool()
    base = [{"workload": "w", "seed": 1, "pass": p, "sha256": str(p),
             "fails": {"check": p}} for p in range(3)]
    head = [dict(base[0]), dict(base[1], sha256="x"),
            dict(base[2], fails={"check": 5})]
    lines = tool.compare(base, head + [dict(base[0], seed=2)])
    assert lines[0] == ("3 of 4 passes differ in outputs or failure "
                        "counts.")
    assert lines[-3:] == [
        '| w | 1 | 1 | moved | {"check": 1} → {"check": 1} |',
        '| w | 1 | 2 | same | {"check": 2} → {"check": 5} |',
        '| w | 2 | 0 | absent on one side | - → {"check": 0} |']
    assert tool.compare(base, base) == [
        "0 of 3 passes differ in outputs or failure counts."]
