"""The benchmark's outputs must not depend on what earlier calls cached.

`tools/output_parity.py` fingerprints every pass of the three benchmark
workloads: its outputs and, apart, the `raw` and `warning` flags of its
spectral values.  Run twice in one process, the second run meets the
caches the first one filled: U's gamma factors per (a, b)
(`specfun._u_gamma_factors`), the Laplace pass's nodes per level
(`specfun._es_nodes`), the latest start's mode rows (`spectral._rows`)
and each basis's factor table (`SpectralBasis._factor_rows`).  Equal
records show that a warm cache gives the same bits as a cold one.
"""

import importlib.util
from pathlib import Path

from ouexit import mean_exit, spectral

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
    assert all(set(r) == {"workload", "seed", "pass", "sha256",
                          "flags_sha256", "fails"} for r in first)
    assert list(tool.fingerprints(1, 1.0)) == first


def test_flags_hash_the_raw_sums_and_warnings_apart_from_the_outputs():
    tool = _load_tool()
    rec = tool.FlagPass()
    basis = spectral.build_basis("interval", 2.0, 0.0, 1, 6)
    below = rec.call("interval", spectral.survival, basis, 0.3,
                     0.5 * basis.t_min)[0]
    above = rec.call("interval", spectral.survival, basis, 0.3,
                     2.0 * basis.t_min)[0]
    rec.call("interval", mean_exit.met_interval, 2.0, 0.0, 0.3)
    assert rec.flags == [f"{below.raw.hex()} True",
                         f"{above.raw.hex()} False", ""]
    assert len(rec.outputs) == 3


def test_compare_reads_the_flags_only_where_both_records_hold_them():
    tool = _load_tool()
    old = {"workload": "w", "seed": 1, "pass": 0, "sha256": "s",
           "fails": {}}
    new = dict(old, flags_sha256="f")
    # a record of the tool before it hashed flags compares by the rest
    assert tool.compare([old], [new]) == [
        "0 of 1 passes differ in outputs or failure counts."]
    assert tool.compare([new], [dict(new, flags_sha256="g")])[-1] == (
        "| w | 1 | 0 | flags moved | {} → {} |")
    assert tool.compare([new], [dict(new, sha256="t",
                                     flags_sha256="g")])[-1] == (
        "| w | 1 | 0 | moved | {} → {} |")


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
