"""Tests for the tanh-sinh kernel and its table of per-level nodes.

`_reference_tanh_sinh` is the kernel as it was before the table: it builds
every level's nodes afresh on each call and tests finiteness with
math.isinf / math.isnan.  The tabled kernel sums the same values in the same
order, so it must agree bit for bit.
"""

import math
import sys
import threading

import pytest

from ouexit import _quad
from ouexit._quad import _MAX_LEVEL, _nodes, tanh_sinh


def _reference_nodes(level):
    h = 2.0 ** (-level)
    out = []
    k = 1
    step = 2 if level > 0 else 1
    while True:
        t = k * h
        u = _quad._PI_2 * math.sinh(t)
        if u > 372.0:
            break
        if u > 300.0:
            e2 = math.exp(-2.0 * u)
            d = 2.0 * e2
            w = h * _quad._PI_2 * math.cosh(t) * 4.0 * e2
        else:
            ch = math.cosh(u)
            d = 1.0 / (math.exp(u) * ch)
            w = h * _quad._PI_2 * math.cosh(t) / (ch * ch)
        out.append((t, d, w))
        k += step
    return out


def _reference_tanh_sinh(f, a, b, tol=1e-12, max_level=12):
    if a == b:
        return 0.0, 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = _quad._PI_2 * f(mid)
    prev = math.inf
    err = math.inf
    for level in range(max_level + 1):
        acc = 0.0
        for _, d, w in _reference_nodes(level):
            x_lo = a + d * half
            x_hi = b - d * half
            fs = 0.0
            if x_lo != a:
                v = f(x_lo)
                if not math.isinf(v) and not math.isnan(v):
                    fs += v
            if x_hi != b:
                v = f(x_hi)
                if not math.isinf(v) and not math.isnan(v):
                    fs += v
            acc += w * fs
        if level == 0:
            total += acc
            value = half * total
        else:
            total = 0.5 * total + acc
            value = half * total
            err = abs(value - prev)
            if level >= 2 and err <= tol * max(1.0, abs(value)):
                return value, err
        prev = value
    return value, err


def _singular(x):
    return (x - 1.0) ** -0.99


def _nonfinite(x):
    # inf and NaN at a band of nodes on each side of the midpoint
    if 0.2 < x < 0.3:
        return math.inf
    if 0.7 < x < 0.8:
        return math.nan
    return math.cos(3.0 * x)


def _divergent(x):
    return 1.0 / x


CASES = [
    ("endpoint singularity", _singular, 1.0, 2.0, 1e-12),
    ("reversed interval", math.exp, 2.0, -1.0, 1e-12),
    ("inf and NaN nodes", _nonfinite, 0.0, 1.0, 1e-12),
    ("never converges", _divergent, 0.0, 1.0, 1e-12),
]


@pytest.mark.parametrize("name,f,a,b,tol", CASES, ids=[c[0] for c in CASES])
def test_tabled_kernel_is_bit_identical_to_per_call_nodes(name, f, a, b,
                                                          tol):
    assert tanh_sinh(f, a, b, tol) == _reference_tanh_sinh(f, a, b, tol)


def test_filled_slots_equal_their_level_nodes():
    # a divergent integral refines through every level, filling each slot
    tanh_sinh(_divergent, 0.0, 1.0)
    assert len(_quad._LEVELS) == _MAX_LEVEL + 1
    for k, slot in enumerate(_quad._LEVELS):
        assert slot == _nodes(k)
        assert slot == tuple((d, w) for _, d, w in _reference_nodes(k))


def test_table_keeps_its_slots_over_many_calls():
    for i in range(1000):
        tanh_sinh(math.exp, 0.0, 1.0 + 1e-3 * i)
    assert len(_quad._LEVELS) == _MAX_LEVEL + 1
    for k, slot in enumerate(_quad._LEVELS):
        assert slot is None or slot == _nodes(k)


def test_concurrent_first_fill_gives_every_thread_the_same_integrals(
        monkeypatch):
    monkeypatch.setattr(_quad, "_LEVELS", [None] * (_MAX_LEVEL + 1))
    jobs = [(_divergent, 0.0, 1.0), (_singular, 1.0, 2.0),
            (math.exp, 2.0, -1.0), (_nonfinite, 0.0, 1.0)] * 2
    want = [_reference_tanh_sinh(*job) for job in jobs]
    results = [None] * len(jobs)

    def run(i):
        results[i] = tanh_sinh(*jobs[i])

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == want
    assert len(_quad._LEVELS) == _MAX_LEVEL + 1
    for k, slot in enumerate(_quad._LEVELS):
        assert slot == _nodes(k)
