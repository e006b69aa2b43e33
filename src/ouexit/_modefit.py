"""Mode factors fitted in the start: the read path of a basis that
serves many starts.

A mode factor u_n(z0) of a basis is a fixed entire function of the
start.  Once `spectral._spectral_sum` has computed `_FIT_AFTER` series
factors of a mode, it fits the mode here (`fit_mode`): a Chebyshev
interpolant over the layout's start range, from samples whose confluent
values carry their claims, kept only where the fit's claim is at most
_FIT_TOL of the factor's size.  Its later fresh factors are read from
the fit (`ModeFit.at`).  `spectral` imports this module at a process's
first fit.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import NamedTuple

from .ou_model import Geometry
from .specfun import _EPS, _kummer_fixed, _u_two_kummer, tricomi_u
from .spectral import SpectralBasis

# A fit interpolates at this many Chebyshev points (its degree is at most
# one less); the `curve-eval` bases keep degrees 18 to 43.  It is kept
# only where its claimed error is at most _FIT_TOL of sup |factor|.  An
# exterior fit reaches _FIT_REACH trap lengths 1/sqrt(kappa) past the
# wall.
_FIT_NODES = 48
_FIT_TOL = 1e-12
_FIT_REACH = 2.0


class ModeFit(NamedTuple):
    """A mode factor fitted in the start (`fit_mode`): the sum of
    c_k T_k(x) with x = (z0 - mid) inv_half, for starts up to `hi`.  It
    holds c_0 and the tail c_deg, ..., c_1 in the order Clenshaw's
    recurrence reads it, and the fit's claimed absolute error."""

    hi: float
    mid: float
    inv_half: float
    c0: float
    tail: tuple[float, ...]
    claim: float

    def at(self, z0: float) -> float:
        """The fitted factor at z0, by Clenshaw's recurrence."""
        x = (z0 - self.mid) * self.inv_half
        x2 = x + x
        b1 = b2 = 0.0
        for c in self.tail:
            b1, b2 = c + x2 * b1 - b2, b1
        return self.c0 + x * b1 - b2


def _m_claimed(a: float, b: float, z: float) -> tuple[float, float]:
    """(M(a, b, z), claim) for a fit's sample, by the fixed-point series.
    The float series claims eps times the sum of its terms' sizes, which
    grows with their cancellation at a < 0 (6.3e-11 for M = 21.5 in mode
    n = 5 of the kappa = 4, varphi = 1/2 interval, whose float value is
    5e-13 off there) and is about 8 eps of M at a > 0.  The fixed-point
    series' claim does not grow with the cancellation, and its bound,
    which takes max(-a, 1) for |a|, holds at every a <= 1, so at each a a
    mode factor meets (a and a + 1/2, with a < 0); it costs about three
    float series, which is why `kummer_m` takes it only below a = -10."""
    if z == 0.0:
        return 1.0, 0.0
    return _kummer_fixed(a, b, z, False)


def _u_claimed(a: float, b: float, z: float) -> tuple[float, float]:
    """(U(a, b, z), claim) for a fit's sample.  At non-integer b this is
    `tricomi_u`'s two-Kummer combination (`_u_two_kummer`), with both M
    from the fixed-point series (`_m_claimed`; a < 0 and a - b + 1 < 1/2
    keep its bound): at the eighth mode of the kappa = 1, d = 3 exterior
    the float series claim 4e-11 of U, and the combination's claim then
    falls to that of its gamma factors, 4e-14.  Integer b takes
    `tricomi_u`."""
    if b == math.floor(b):
        value, claim, _ = tricomi_u(a, b, z)
        return value, claim
    value, claim, _ = _u_two_kummer(a, b, z, *_m_claimed(a, b, z),
                                    *_m_claimed(a - b + 1.0, 2.0 - b, z))
    return value, claim


def factor_sample(basis: SpectralBasis, n: int,
                  z0: float) -> tuple[float, float]:
    """(factor, claim): mode n's factor at z0, formed as `mode_term` forms
    it, but with M from `_m_claimed` and U from `_u_claimed`.  The claim
    carries each confluent value's claim, and on the interval two
    roundings of its terms, for the products and the difference.  It
    leaves out the rounding of the start into kappa z^2, which
    `fit_mode` adds from the fit's slope."""
    layout, a, b, c1, c2 = basis._factor_rows[n]
    kappa = basis.kappa
    if layout == "interval":
        z = z0 - basis.varphi
        zz = kappa * z * z
        m1, e1 = _m_claimed(a, 0.5, zz)
        m2, e2 = _m_claimed(a + 0.5, 1.5, zz)
        p = c1 * m1
        q = c2 * (z * m2)
        return p - q, (abs(c1) * e1 + abs(c2 * z) * e2
                       + 2.0 * _EPS * (abs(p) + abs(q)))
    return (_m_claimed if layout == "radial-interior"
            else _u_claimed)(a, b, kappa * z0 * z0)


# The fit's tables, which depend on _FIT_NODES alone: the Chebyshev
# points of the first kind x_j = cos(t_j), t_j = pi (j + 1/2) / m, as
# angles; _COS[k][j] = T_k(x_j); and the points between them where the
# fit is checked, both ends included.  The tables of floats are arrays,
# a quarter of the memory of tuples
_ANGLES = tuple(math.pi * (j + 0.5) / _FIT_NODES for j in range(_FIT_NODES))
_COS = tuple(array("d", (math.cos(k * t) for t in _ANGLES))
             for k in range(_FIT_NODES))
_BETWEEN = tuple(math.cos(math.pi * j / _FIT_NODES)
                 for j in range(0, _FIT_NODES + 1, 6))


def _lebesgue_rows() -> tuple[array, ...]:
    """|l_j(x)| for the Lagrange polynomials l_j of the Chebyshev points,
    one row per x on a grid four times finer than the points' angles,
    the points left out (there l_j(x_j) = 1 and the rest vanish).  For
    the m points of the first kind |l_j(cos t)| = |cos(m t)| sin(t_j) /
    (m |cos t - cos t_j|)."""
    m = _FIT_NODES
    rows = []
    for k in range(4 * m + 1):
        if k % 4 == 2:
            continue
        t = math.pi * k / (4 * m)
        x, scale = math.cos(t), abs(math.cos(m * t)) / m
        rows.append(array("d", (scale * math.sin(tj) / abs(x - math.cos(tj))
                                for tj in _ANGLES)))
    return tuple(rows)


_LEBESGUE = _lebesgue_rows()


def _sample_noise(claims: list[float]) -> float:
    """The bound taken on |sum_j l_j(x) e_j| over x in [-1, 1], for
    errors e_j at most claims[j] at the Chebyshev points: the largest
    sum_j |l_j(x)| claims[j] on `_LEBESGUE`'s grid and at the points,
    where the sum is that point's claim.  Between grid points the sum is
    not bounded, only sampled four times per node spacing.  Unweighted, this is the Lebesgue constant, at
    most 2/pi ln(m + 1) + 1 (3.5 at 48 points); weighted, it stays near
    the largest claim where the claims are largest at one end, as the
    interval's are, at its far wall from the trap centre."""
    return max(max(claims),
               max(sum(map(operator.mul, row, claims)) for row in _LEBESGUE))


def fit_mode(basis: SpectralBasis, n: int) -> ModeFit | None:
    """Mode n's factor as a Chebyshev interpolant in the start, or None
    where the fit cannot claim _FIT_TOL of sup |factor|.

    The fit covers the layout's start range, [-1, 1] on the interval and
    [0, 1] in the ball, and outside the ball [1, R] with R = 1 +
    _FIT_REACH / sqrt(kappa), fixed by the basis alone; starts past R
    keep the series.  It interpolates `factor_sample` at the _FIT_NODES
    Chebyshev points of the first kind; its coefficient sums are exact
    to their last rounding (`math.fsum`).  The claim is the samples'
    claims, each with the start's rounding into kappa z^2 read from the
    fit's slope, carried through the interpolation (`_sample_noise`), plus
    nodes times eps times the coefficients' sizes, for the rounding of
    the coefficients and of Clenshaw's recurrence, plus the sizes of the
    trailing coefficients dropped: they may sum to at most the samples'
    part, and only while the claim stays within _FIT_TOL of the largest
    sample.  The fit is kept where that claim is, and where it matches
    fresh samples at nine points between the nodes, both ends included,
    within the fit's claim plus each sample's own.  A sample that raises
    or is not finite refuses, and so does a noisy or cancelling mode:
    each mode of the kappa = 10, varphi = 2 interval, whose left starts
    cancel (ROADMAP item 2); samples whose own claims already pass
    _FIT_TOL of the largest refuse before the fit is formed.  A
    free-diffusion basis, whose factors are closed forms, has nothing to
    fit.
    """
    if basis.brownian:
        return None
    if basis.geometry is Geometry.INTERVAL:
        lo, hi = -1.0, 1.0
    elif basis.geometry is Geometry.RADIAL_INTERIOR:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = 1.0, 1.0 + _FIT_REACH / math.sqrt(basis.kappa)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = _FIT_NODES
    try:
        samples = [factor_sample(basis, n, mid + half * math.cos(t))
                   for t in _ANGLES]
        checks = [(mid + half * x, *factor_sample(basis, n, mid + half * x))
                  for x in _BETWEEN]
    except (ArithmeticError, ValueError):
        return None
    values = [v for v, _ in samples]
    sup = max(abs(v) for v in values + [v for _, v, _ in checks])
    if not (0.0 < sup < math.inf
            and max(e for _, e in samples) <= _FIT_TOL * sup):
        return None
    scale = 2.0 / nodes
    coeffs = [scale * math.fsum(map(operator.mul, values, row))
              for row in _COS]
    coeffs[0] *= 0.5
    # kappa z^2, z the start from the trap centre, is rounded by at most
    # 2 eps of itself, which moves a sample by at most eps |z u'(z0)|;
    # u' is read from the interpolant
    shift = basis.varphi if basis.geometry is Geometry.INTERVAL else 0.0
    # the derivative's coefficients: d_(k-1) = d_(k+1) + 2 k c_k
    slopes = [0.0] * (nodes + 1)
    for k in range(nodes - 1, 0, -1):
        slopes[k - 1] = slopes[k + 1] + 2.0 * k * coeffs[k]
    slopes[0] *= 0.5
    slope_at = [sum(map(operator.mul, slopes, column))
                for column in zip(*_COS)]
    noise = _sample_noise([
        e + _EPS * abs((mid + half * math.cos(t) - shift) / half * u)
        for (_, e), t, u in zip(samples, _ANGLES, slope_at)])
    rounding = nodes * _EPS * sum(abs(c) for c in coeffs)
    room = min(noise, _FIT_TOL * sup - noise - rounding)
    if not room >= 0.0:
        return None
    dropped = 0.0
    while len(coeffs) > 1 and dropped + abs(coeffs[-1]) <= room:
        dropped += abs(coeffs.pop())
    claim = noise + dropped + rounding
    fit = ModeFit(hi, mid, 1.0 / half, coeffs[0], tuple(coeffs[:0:-1]),
                  claim)
    for z0, value, err in checks:
        if not abs(fit.at(z0) - value) <= claim + err:
            return None
    return fit
