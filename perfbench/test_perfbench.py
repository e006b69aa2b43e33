"""Checks of the benchmark itself, on small inputs.

    python3 -m pytest perfbench

Traced counts must repeat exactly for a seed, and tracing must not change a
single output bit.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from ouexit import mean_exit, spectral, specfun  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BasisBuild, ClosedForm, CurveEval, Pass  # noqa: E402

# cheap scenarios that still refine roots on the build's thread pool
SMALL_SCENARIOS = (("interval", 1.0, 0.0, 1, 3),
                   ("radial-interior", 2.0, 0.0, 3, 3),
                   ("radial-exterior", 1.0, 0.0, 1, 2))


@pytest.fixture(scope="module")
def eval_payload():
    return CurveEval(seed=3, seconds=1).prepare()


def _workloads(eval_payload):
    return (
        (BasisBuild(seed=3, seconds=1, scenarios=SMALL_SCENARIOS), ""),
        (CurveEval(seed=3, seconds=1, calls=100), eval_payload),
        (ClosedForm(seed=3, seconds=1, draws=64), ""),
    )


def _run(workload, payload, traced):
    assert workload.load(payload)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        rec = Pass(tracer=tracer)
        workload.run_pass(0, rec)
    finally:
        if tracer:
            tracer.uninstall()
    if not tracer:
        return rec, None
    counts = {name: value for name, (value, unit)
              in tracer.layer_metrics(rec.api_ns).items() if unit == "count"}
    return rec, counts


def test_traced_counts_repeat_for_a_seed(eval_payload):
    for workload, payload in _workloads(eval_payload):
        first, counts1 = _run(workload, payload, traced=True)
        second, counts2 = _run(workload, payload, traced=True)
        assert counts1 == counts2, workload.name
        assert first.fails == second.fails, workload.name
        assert first.attempted == second.attempted > 0, workload.name
        assert any(counts1.values()), workload.name


def test_tracing_leaves_outputs_bit_identical(eval_payload):
    for workload, payload in _workloads(eval_payload):
        traced, _ = _run(workload, payload, traced=True)
        plain, _ = _run(workload, payload, traced=False)
        assert traced.outputs == plain.outputs, workload.name


def test_uninstall_restores_every_patched_name():
    before = {(m.__name__, name): getattr(m, name)
              for m in (specfun, mean_exit, spectral)
              for name in ("kummer_m", "tricomi_u", "erfcx", "tanh_sinh",
                           "build_basis", "met_interval")
              if hasattr(m, name)}
    tracer = Tracer()
    tracer.install()
    assert spectral.kummer_m is not before[("ouexit.spectral", "kummer_m")]
    assert mean_exit.tanh_sinh is not before[("ouexit.mean_exit", "tanh_sinh")]
    tracer.uninstall()
    for (modname, name), fn in before.items():
        assert getattr(sys.modules[modname], name) is fn
