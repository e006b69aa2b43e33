"""Tanh-sinh (double exponential) quadrature on finite intervals.

The change of variable x = c + r*tanh(pi/2 * sinh(t)) pushes the endpoints
out double-exponentially, so integrable singularities at an endpoint of
0.0, such as t**(a-1), are handled without special treatment.  The
trapezoid rule in t then converges roughly quadratically in the number of
refinement levels for analytic integrands.

The nodes of a level depend on nothing but the level, so `_LEVELS` holds
each level's (offset, weight) pairs, computed the first time an integral
reaches that level.  Refinement stops at level `_MAX_LEVEL` = 12, so the
table has thirteen preallocated slots.  A thread that finds a slot empty
fills it with the same tuple any other thread would, so no lock is needed.
A function value counts only where it is finite, tested as v - v == 0.0
(false for +-inf and NaN alone); the other node of its pair still counts.

No library code calls this module.  Tricomi U's Laplace integral, its
last caller, is now an exp-sinh pass inside `specfun`; the module stays
only because the benchmark's tracer and its test resolve `tanh_sinh`
and `integrate_to_cutoff` by name, and goes with them.
"""

from __future__ import annotations

import math

__all__ = ["tanh_sinh", "integrate_to_cutoff"]

_PI_2 = math.pi / 2.0
_MAX_LEVEL = 12
_LEVELS: list = [None] * (_MAX_LEVEL + 1)
# integrate_to_cutoff stops at the first panel below this share of the total
_CUTOFF_REL = 1e-18


def _nodes(level: int):
    """Abscissa offsets and weights for the given refinement level.

    Returns a tuple of pairs (d, w) where d in (0, 1) is the distance of
    the node from the *nearer* endpoint in units of the interval
    half-width, and w is the trapezoid weight (already including the step
    h).  Level 0 holds the coarse grid h = 1, level k > 0 only the new
    midpoints at h = 2^-k.
    """
    h = 2.0 ** (-level)
    out = []
    k = 1  # t = 0 is the caller's midpoint seed on every level-0 pass
    step = 2 if level > 0 else 1
    while True:
        t = k * h
        u = _PI_2 * math.sinh(t)
        if u > 372.0:
            # node distance underflows; even d**-0.99 singularities
            # contribute nothing past this point
            break
        if u > 300.0:
            e2 = math.exp(-2.0 * u)
            d = 2.0 * e2
            w = h * _PI_2 * math.cosh(t) * 4.0 * e2
        else:
            ch = math.cosh(u)
            # 1 - tanh(u) = 1/(e^u * cosh(u)) without cancellation
            d = 1.0 / (math.exp(u) * ch)
            w = h * _PI_2 * math.cosh(t) / (ch * ch)
        out.append((d, w))
        k += step
    return tuple(out)


def tanh_sinh(f, a: float, b: float, tol: float = 1e-12):
    """Integrate f over [a, b].  Returns (value, error_estimate).

    The error estimate is the difference between the last two refinement
    levels, a conservative proxy for the true error once convergence has
    set in.  Nodes are placed at a + d*(b-a) with d computed free of
    cancellation, so f sees arguments strictly inside (a, b).  f may be
    unbounded at an endpoint equal to 0.0, as long as the integral
    exists: floats resolve nodes down to the subnormal range there.  At
    any other endpoint nodes closer than one ulp collapse onto it and are
    skipped, so an integrable singularity there loses the mass of that
    last ulp (the integral of (x-1)^-0.99 over [1, 2] comes out 30.66,
    not 100).
    """
    if a == b:
        return 0.0, 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    total = _PI_2 * f(mid)  # t = 0 node, weight h * pi/2 with h = 1
    prev = math.inf
    err = math.inf
    for level in range(_MAX_LEVEL + 1):
        nodes = _LEVELS[level]
        if nodes is None:
            nodes = _LEVELS[level] = _nodes(level)
        acc = 0.0
        for d, w in nodes:
            x_lo = a + d * half
            x_hi = b - d * half
            fs = 0.0
            # a node that collapses onto its endpoint (d*half below one
            # ulp) is skipped on that side only.  At an endpoint of 0.0
            # that takes d*half underflowing, where the weight vanishes
            # faster than any integrable singularity grows; elsewhere it
            # drops the singular mass within one ulp of the endpoint
            if x_lo != a:
                v = f(x_lo)
                if v - v == 0.0:
                    fs += v
            if x_hi != b:
                v = f(x_hi)
                if v - v == 0.0:
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


def integrate_to_cutoff(f, a: float, tol: float, start: float):
    """Integral of f over [a, inf) for integrands with fast decay.

    The upper limit is pushed out in doubling panels, the first `start`
    wide, until a panel contributes less than _CUTOFF_REL of the running
    total.  Each panel is done by tanh_sinh at `tol`, so a singularity
    at `a` = 0.0 is fine.
    """
    lo = a
    width = start
    total = 0.0
    err = 0.0
    for _ in range(60):
        v, e = tanh_sinh(f, lo, lo + width, tol)
        total += v
        err += e
        if abs(v) < _CUTOFF_REL * max(abs(total), 1e-300) and lo > a:
            break
        lo += width
        width *= 2.0
    return total, err
