"""Chebyshev collocation of the exit problems: an oracle for the
spectral layer that shares no code with `specfun`.

The interval generator L = d^2/dz^2 - 2 kappa (z - varphi) d/dz acts on
[-1, 1] with absorbing ends.  Its eigenvalues -alpha^2 come from the
symmetric form -v'' + (kappa^2 (z - varphi)^2 - kappa) v = alpha^2 v,
v(+-1) = 0, which v = exp(-kappa (z - varphi)^2 / 2) u turns L into; the
drift form's eigenvalues are ill-conditioned.  Survival S(z0, t) solves
dS/dt = L S with S = 1 inside and S = 0 at both ends, so on the interior
nodes it is expm(t L) applied to ones, read at z0 by barycentric
interpolation.  N = 80 to 160 nodes agree to about 1e-12 on the bases the
tests use.

The radial generator L = d^2/dr^2 + ((d - 1)/r - 2 kappa r) d/dr is
collocated the same way.  Inside the ball S is even in r, so L acts on
the even extension over [-1, 1] with an odd node count, which puts no
node at the centre, where (d - 1)/r is singular.  Outside it, [1, R]
maps onto [-1, 1] and the far end R absorbs too: against the trap's
pull, a start within a few trap lengths of the ball reaches R = 8
(kappa = 1) with a probability of order exp(-kappa (R^2 - 9)), far
below the tests' tolerance.
"""

import numpy as np
from scipy.linalg import expm

NODES = 120


def chebyshev(n: int = NODES):
    """Chebyshev points x_j = cos(pi j / n), j = 0..n, and the first
    derivative matrix on them (Trefethen, Spectral Methods in MATLAB)."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    d -= np.diag(d.sum(axis=1))
    return x, d


def interval_alphas(kappa: float, varphi: float, count: int,
                    n: int = NODES) -> list[float]:
    """The lowest `count` alpha of the interval problem."""
    x, d = chebyshev(n)
    inner = x[1:-1]
    op = -(d @ d)[1:-1, 1:-1] + np.diag(
        kappa * kappa * (inner - varphi) ** 2 - kappa)
    lam = np.sort(np.linalg.eigvals(op).real)[:count]
    return [float(a) for a in np.sqrt(lam)]


def interval_survival(kappa: float, varphi: float, t: float, starts,
                      n: int = NODES) -> list[float]:
    """S(z0, t) at each z0 of `starts`."""
    x, d = chebyshev(n)
    gen = d @ d - 2.0 * kappa * (x - varphi)[:, None] * d
    return _survival(x, gen, t, starts)


def radial_survival(dim: int, kappa: float, t: float, starts,
                    reach: float | None = None,
                    n: int | None = None) -> list[float]:
    """S(r0, t) at each r0 of `starts`, inside the ball (reach None, n
    odd, 121 by default) or on [1, reach] outside it (200 by default)."""
    if reach is None:
        n = n or NODES + 1
        assert n % 2 == 1
        x, d = chebyshev(n)
        gen = d @ d + ((dim - 1) / x - 2.0 * kappa * x)[:, None] * d
        return _survival(x, gen, t, starts)
    n = n or 200
    x, d = chebyshev(n)
    d = d * (2.0 / (reach - 1.0))
    r = 1.0 + 0.5 * (reach - 1.0) * (x + 1.0)
    gen = d @ d + ((dim - 1) / r - 2.0 * kappa * r)[:, None] * d
    # S as a function of x, read at the x of each start
    return _survival(x, gen, t, [2.0 * (r0 - 1.0) / (reach - 1.0) - 1.0
                                 for r0 in starts])


def _survival(x, gen, t: float, starts) -> list[float]:
    """expm(t gen) applied to ones on the interior nodes, with S = 0 at
    both ends, read at each point of `starts` in [-1, 1]."""
    n = len(x) - 1
    s = np.zeros(n + 1)
    s[1:-1] = expm(t * gen[1:-1, 1:-1]) @ np.ones(n - 1)
    # barycentric weights of the Chebyshev points, halved at the ends
    w = (-1.0) ** np.arange(n + 1)
    w[0] *= 0.5
    w[-1] *= 0.5
    out = []
    for z0 in starts:
        hit = np.flatnonzero(x == z0)
        if hit.size:
            out.append(float(s[hit[0]]))
        else:
            q = w / (z0 - x)
            out.append(float(q @ s / q.sum()))
    return out
