"""Retired numerical quadrature: two names that raise.

No library code integrates numerically: the mean exit times are series
and Tricomi U's Laplace integral is an exp-sinh pass inside `specfun`.
The names stay only because the benchmark's tracer and its test resolve
them here and in `mean_exit`; they go with those.
"""

from __future__ import annotations

__all__ = ["tanh_sinh", "integrate_to_cutoff"]


def tanh_sinh(f, a, b, tol=1e-12):
    """Retired tanh-sinh rule on [a, b]; always raises NotImplementedError."""
    raise NotImplementedError("ouexit no longer integrates numerically")


def integrate_to_cutoff(f, a, tol, start):
    """Retired panel rule on [a, inf); always raises NotImplementedError."""
    raise NotImplementedError("ouexit no longer integrates numerically")
