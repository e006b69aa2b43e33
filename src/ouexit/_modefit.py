"""Mode factors fitted in the start: the read path of a basis that
serves many starts.

A mode factor u_n(z0) of a basis is a fixed entire function of the
start.  Once `spectral._spectral_sum` has computed `_FIT_AFTER` series
factors of a mode, it fits the mode here (`fit_mode`): a Chebyshev
interpolant over the layout's start range, from samples whose confluent
values carry their claims, kept only where the fit's claim is at most
_FIT_TOL of the factor's size.  Its later fresh factors are read from
the fit (`ModeFit.at`), or skipped where the fit's own bound
(`ModeFit.bound`) shows their terms cannot move the sum.  Where the
trap centre lies outside the interval the samples come from the
confluent pair recessive toward the far wall (`_far_centre`), not from
the series' c1 m1 - c2 m2, which cancels there.  `spectral` imports this
module at a process's first fit.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from typing import NamedTuple

from .ou_model import Geometry
from .specfun import (_EPS, _SQRT_PI, _gamma_rel_err, _kummer_fixed,
                      _u_integral, _u_two_kummer, inv_gamma, tricomi_u)
from .spectral import SpectralBasis

# A fit interpolates at this many Chebyshev points (its degree is at most
# one less), or at twice as many where those leave a tail (`fit_mode`);
# the `curve-eval` bases keep degrees 18 to 43 at 48 points, and 57 to
# 59 at 96 on the kappa = 10, varphi = 2 interval.  It is kept
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
    recurrence reads it, the fit's claimed absolute error, and `bound`,
    2 (sum_k |c_k| + claim) over the coefficients before the tail was
    trimmed: |T_k(x)| <= 1 on [-1, 1], and the claim covers the rounding
    of Clenshaw's recurrence, so bound >= 2 |at(z0)| at every start the
    fit covers; the factor two absorbs the roundings of the test by
    which `spectral._spectral_sum` skips a term on it."""

    hi: float
    mid: float
    inv_half: float
    c0: float
    tail: tuple[float, ...]
    claim: float
    bound: float

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


def _u_recessive(a: float, z: float) -> tuple[float, float]:
    """(U(a, 1/2, z), claim) for a far-centre sample: `tricomi_u`'s, or
    where it took another route U's Laplace integral (`_u_integral`),
    whichever claims less.  On the kappa = 10, varphi = 2 interval the
    two-Kummer combination claims up to 1.8e-10 of U there (its float M
    series cancel), the integral 1.7e-14 to 9.3e-13 and the asymptotic
    series about 1.5e-14."""
    value, claim, method = tricomi_u(a, 0.5, z)
    if method in ("DirectSeries", "AsymptoticZ"):
        try:
            other, other_claim, _ = _u_integral(a, 0.5, z)
        except ValueError:
            return value, claim
        if other_claim < claim:
            return other, other_claim
    return value, claim


def _far_centre(kappa: float, varphi: float, a: float):
    """z0 -> (factor, claim) of the interval mode at a where the trap
    centre lies outside the interval, |varphi| > 1, from the confluent
    pair recessive and dominant toward the far wall (DLMF 12.2, 13.2).

    With x = z0 - varphi and s the sign of varphi, every start has x of
    sign -s, and the wall farther from the centre is z0 = -s, at x_f =
    -s - varphi.  W_rec(x) = U(a, 1/2, kappa x^2) decays toward it
    (`_u_recessive`).  W_dom(x) = g1 m1 - g2 m2, with g1 = sqrt(pi) /
    Gamma(a + 1/2), g2 = 2 s sqrt(pi kappa) / Gamma(a) and m1, m2 the
    even and odd pair, is U's continuation through the centre, which
    grows toward the far wall; its two terms share a sign there.  The
    factor is K h, with h(x) = W_dom(x_f) W_rec(x) - W_rec(x_f) W_dom(x),
    which vanishes at the far wall for every a.  c1 m1 - c2 m2 vanishes
    at z0 = 1 instead and cancels toward the far wall, and at a float
    root it is not the eigenfunction there: on the kappa = 10, varphi =
    2 interval, even summed exactly, it is 1e7 to 1e9 times too large at
    z0 <= -0.6, where K h stays within 4.2e-13 of sup |factor| of the
    eigenfunction at the exact root.

    K gives K h the slope of `mode_term`'s factor at z0 = 1, x_1 = 1 -
    varphi, which by the pair's Wronskian m1 m2' - m2 m1' = exp(kappa
    x^2) is -exp(kappa x_1^2) at every a.  Where z0 = 1 is the far wall
    (varphi < -1), h'(x_f) is W(W_dom, W_rec) = 2 g1 g2 exp(kappa x^2)
    there, so K = -1 / (2 g1 g2).  Else h'(x_1) is formed from the
    pair's slopes at x_1, where W_rec(x_f) W_dom'(x_1) is the smaller
    term by about W_rec(x_f) / W_dom(x_f).  (K from the Wronskian of h
    and W_rec alone would divide by W_rec(x_1), which nears a zero at
    each root: on that interval its claims reach 1.3 times its value.)
    Every root has a < -1/2, the ground level of the half-line with a
    wall at the centre, which holds the interval, so a + 3/2 < 1 keeps
    the bound of `_m_claimed`.

    Each sample's claim carries the confluent values' claims, the gamma
    factors' rounding (`_gamma_rel_err`), K's claim relative to the
    factor, and the roundings of the products and differences.  Where
    the pair degenerates, a near a nonpositive integer (W_dom -> W_rec,
    h -> 0) or near a negative half-integer, the claims grow and the fit
    refuses.
    """
    s = 1.0 if varphi > 0.0 else -1.0
    g1 = _SQRT_PI * inv_gamma(a + 0.5)
    g2 = s * 2.0 * math.sqrt(math.pi * kappa) * inv_gamma(a)
    r1 = _gamma_rel_err(a + 0.5) + _EPS
    r2 = _gamma_rel_err(a) + 3.0 * _EPS

    def dominant(x: float) -> tuple[float, float]:
        zz = kappa * x * x
        m1, e1 = _m_claimed(a, 0.5, zz)
        m2, e2 = _m_claimed(a + 0.5, 1.5, zz)
        p = g1 * m1
        q = g2 * (x * m2)
        return p - q, (abs(g1) * e1 + abs(g2 * x) * e2 + r1 * abs(p)
                       + r2 * abs(q) + 3.0 * _EPS * (abs(p) + abs(q)))

    def recessive(x: float) -> tuple[float, float]:
        return _u_recessive(a, kappa * x * x)

    x_f = -s - varphi
    d_f, ed_f = dominant(x_f)
    r_f, er_f = recessive(x_f)
    if s < 0.0:
        k = -1.0 / (2.0 * g1 * g2)
        rel_k = r1 + r2 + 3.0 * _EPS
    else:
        # h'(x_1) = W_dom(x_f) W_rec'(x_1) - W_rec(x_f) W_dom'(x_1), with
        # X = kappa x_1^2: W_rec' = -2 a kappa x_1 U(a + 1, 3/2, X), m1' =
        # 4 a kappa x_1 M(a + 1, 3/2, X) and m2' = M(a + 1/2, 3/2, X) +
        # 4/3 (a + 1/2) X M(a + 3/2, 5/2, X)
        x_1 = 1.0 - varphi
        zz = kappa * x_1 * x_1
        u, eu = _u_claimed(a + 1.0, 1.5, zz)
        scale = -2.0 * a * kappa * x_1
        dr_1 = scale * u
        edr_1 = abs(scale) * eu + 3.0 * _EPS * abs(dr_1)
        m1, e1 = _m_claimed(a + 1.0, 1.5, zz)
        m2, e2 = _m_claimed(a + 0.5, 1.5, zz)
        m3, e3 = _m_claimed(a + 1.5, 2.5, zz)
        f1 = 4.0 * a * kappa * x_1
        f3 = 4.0 / 3.0 * (a + 0.5) * zz
        p = g1 * (f1 * m1)
        q = g2 * (m2 + f3 * m3)
        dd_1 = p - q
        edd_1 = (abs(g1 * f1) * e1 + abs(g2) * (e2 + abs(f3) * e3)
                 + r1 * abs(p) + r2 * abs(q)
                 + 4.0 * _EPS * (abs(p) + abs(q) + abs(g2 * f3 * m3)))
        slope = d_f * dr_1 - r_f * dd_1
        e_slope = (abs(d_f) * edr_1 + ed_f * abs(dr_1) + abs(r_f) * edd_1
                   + er_f * abs(dd_1)
                   + 2.0 * _EPS * (abs(d_f * dr_1) + abs(r_f * dd_1)))
        k = -math.exp(zz) / slope
        rel_k = e_slope / abs(slope) + _EPS * (2.0 + 2.0 * zz)
    # the factor is p - q, p = K W_dom(x_f) W_rec(x) and q = K W_rec(x_f)
    # W_dom(x); K's claim is relative to the factor
    big, small = k * d_f, k * r_f
    e_big = abs(k) * ed_f + _EPS * abs(big)
    e_small = abs(k) * er_f + _EPS * abs(small)

    def sample(z0: float) -> tuple[float, float]:
        x = z0 - varphi
        r, er = recessive(x)
        d, ed = dominant(x)
        p = big * r
        q = small * d
        value = p - q
        return value, (abs(big) * er + e_big * abs(r) + abs(small) * ed
                       + e_small * abs(d) + 2.0 * _EPS * (abs(p) + abs(q))
                       + rel_k * abs(value))

    return sample


def factor_sample(basis: SpectralBasis, n: int):
    """z0 -> (factor, claim): mode n's factor at z0 with a claim that
    carries each confluent value's claim.  It is formed as `mode_term`
    forms it, but with M from `_m_claimed` and U from `_u_claimed`, and
    on the interval with two roundings of its terms, for the products
    and the difference; except where the trap centre lies outside the
    interval, |varphi| > 1, where c1 m1 - c2 m2 cancels toward the far
    wall and the sample comes from the pair recessive toward that wall
    (`_far_centre`), whose constants are formed here, once per mode.
    The claim leaves out the rounding of the start into kappa z^2, which
    `fit_mode` adds from the fit's slope."""
    layout, a, b, c1, c2 = basis._factor_rows[n]
    kappa = basis.kappa
    if layout == "interval":
        varphi = basis.varphi
        if abs(varphi) > 1.0:
            return _far_centre(kappa, varphi, a)

        def sample(z0: float) -> tuple[float, float]:
            z = z0 - varphi
            zz = kappa * z * z
            m1, e1 = _m_claimed(a, 0.5, zz)
            m2, e2 = _m_claimed(a + 0.5, 1.5, zz)
            p = c1 * m1
            q = c2 * (z * m2)
            return p - q, (abs(c1) * e1 + abs(c2 * z) * e2
                           + 2.0 * _EPS * (abs(p) + abs(q)))

        return sample
    confluent = _m_claimed if layout == "radial-interior" else _u_claimed
    return lambda z0: confluent(a, b, kappa * z0 * z0)


class _Tables(NamedTuple):
    """A fit's tables at m points (`_tables`)."""

    angles: tuple[float, ...]
    cos: tuple[array, ...]
    between: tuple[float, ...]
    lebesgue: tuple[array, ...]


@functools.cache
def _tables(m: int) -> _Tables:
    """The tables of a fit at m Chebyshev points of the first kind,
    built at the first fit that needs them: the points x_j = cos(t_j),
    t_j = pi (j + 1/2) / m, as angles; cos[k][j] = T_k(x_j); the nine
    points cos(pi j / m), j a multiple of m/8, between them where the fit
    is checked, both ends included; and the rows of |l_j(x)| for the
    Lagrange polynomials l_j of the points, one row per x on a grid four
    times finer than the points' angles, the points left out (there
    l_j(x_j) = 1 and the rest vanish).  For the m points of the first
    kind |l_j(cos t)| = |cos(m t)| sin(t_j) / (m |cos t - cos t_j|).
    The tables of floats are arrays, a quarter of the memory of tuples;
    at 48 and 96 points they take about 0.1 and 0.3 MB."""
    angles = tuple(math.pi * (j + 0.5) / m for j in range(m))
    cos = tuple(array("d", (math.cos(k * t) for t in angles))
                for k in range(m))
    between = tuple(math.cos(math.pi * j / m)
                    for j in range(0, m + 1, m // 8))
    rows = []
    for k in range(4 * m + 1):
        if k % 4 == 2:
            continue
        t = math.pi * k / (4 * m)
        x, scale = math.cos(t), abs(math.cos(m * t)) / m
        rows.append(array("d", (scale * math.sin(tj) / abs(x - math.cos(tj))
                                for tj in angles)))
    return _Tables(angles, cos, between, tuple(rows))


def _sample_noise(lebesgue: tuple[array, ...], claims: list[float]) -> float:
    """The bound taken on |sum_j l_j(x) e_j| over x in [-1, 1], for
    errors e_j at most claims[j] at the Chebyshev points: the largest
    sum_j |l_j(x)| claims[j] on the tables' `lebesgue` grid and at the
    points, where the sum is that point's claim.  Between grid points
    the sum is not bounded, only sampled four times per node spacing;
    on the 36 kept fits of the four `curve-eval` bases, the 96-point
    ones included, each largest sum lies at an end of [-1, 1], which the
    grid holds, and a grid 64 times finer reads none larger.
    Unweighted, this is the Lebesgue constant, at most 2/pi ln(m + 1) +
    1 (3.5 at 48 points); weighted, it stays near the largest claim where
    the claims are largest at one end, as the interval's are, at its far
    wall from the trap centre."""
    return max(max(claims),
               max(sum(map(operator.mul, row, claims)) for row in lebesgue))


def _interpolate(sample, nodes: int, lo: float, hi: float, shift: float):
    """(fit, unresolved): the interpolant of `sample` at `nodes` points,
    formed and checked as `fit_mode` says, or None where it is refused;
    unresolved is True where it was refused at the checks between the
    points."""
    tables = _tables(nodes)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    try:
        samples = [sample(mid + half * math.cos(t)) for t in tables.angles]
        checks = [(mid + half * x, *sample(mid + half * x))
                  for x in tables.between]
    except (ArithmeticError, ValueError):
        return None, False
    values = [v for v, _ in samples]
    sup = max(abs(v) for v in values + [v for _, v, _ in checks])
    if not (0.0 < sup < math.inf
            and max(e for _, e in samples) <= _FIT_TOL * sup):
        return None, False
    scale = 2.0 / nodes
    coeffs = [scale * math.fsum(map(operator.mul, values, row))
              for row in tables.cos]
    coeffs[0] *= 0.5
    # kappa z^2, z the start from the trap centre, is rounded by at most
    # 2 eps of itself, which moves a sample by at most eps |z u'(z0)|;
    # u' is read from the interpolant
    # the derivative's coefficients: d_(k-1) = d_(k+1) + 2 k c_k
    slopes = [0.0] * (nodes + 1)
    for k in range(nodes - 1, 0, -1):
        slopes[k - 1] = slopes[k + 1] + 2.0 * k * coeffs[k]
    slopes[0] *= 0.5
    slope_at = [sum(map(operator.mul, slopes, column))
                for column in zip(*tables.cos)]
    noise = _sample_noise(tables.lebesgue, [
        e + _EPS * abs((mid + half * math.cos(t) - shift) / half * u)
        for (_, e), t, u in zip(samples, tables.angles, slope_at)])
    size = sum(abs(c) for c in coeffs)
    rounding = nodes * _EPS * size
    room = min(noise, _FIT_TOL * sup - noise - rounding)
    if not room >= 0.0:
        return None, False
    dropped = 0.0
    while len(coeffs) > 1 and dropped + abs(coeffs[-1]) <= room:
        dropped += abs(coeffs.pop())
    claim = noise + dropped + rounding
    fit = ModeFit(hi, mid, 1.0 / half, coeffs[0], tuple(coeffs[:0:-1]),
                  claim, 2.0 * (size + claim))
    for z0, value, err in checks:
        if not abs(fit.at(z0) - value) <= claim + err:
            return None, True
    return fit, False


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
    fit's slope, carried through the interpolation (`_sample_noise`),
    plus nodes times eps times the coefficients' sizes, for the rounding
    of the coefficients and of Clenshaw's recurrence, plus the sizes of
    the trailing coefficients dropped: they may sum to at most the
    samples' part, and only while the claim stays within _FIT_TOL of the
    largest sample.  The fit is kept where that claim is, and where it
    matches fresh samples at nine points between the nodes, both ends
    included, within the fit's claim plus each sample's own.

    A fit that fails those checks has a tail its points do not resolve,
    and is made once more at 2 _FIT_NODES points (tables built at the
    first such fit): each mode of the kappa = 10, varphi = 2 interval,
    whose factor has a boundary layer at the far wall, where the last
    coefficients of its 48-point interpolant are 1e-9 to 6e-8 of sup,
    keeps degree 57 to 59 at 96 points.  A sample that raises or is not
    finite refuses, and so does a noisy mode: samples whose own claims
    pass _FIT_TOL of the largest refuse before the fit is formed, and
    more points do not help them.  A free-diffusion basis, whose
    factors are closed forms, has nothing to fit.
    """
    if basis.brownian:
        return None
    if basis.geometry is Geometry.INTERVAL:
        lo, hi = -1.0, 1.0
    elif basis.geometry is Geometry.RADIAL_INTERIOR:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = 1.0, 1.0 + _FIT_REACH / math.sqrt(basis.kappa)
    shift = basis.varphi if basis.geometry is Geometry.INTERVAL else 0.0
    try:
        sample = factor_sample(basis, n)
    except (ArithmeticError, ValueError):
        return None
    fit, unresolved = _interpolate(sample, _FIT_NODES, lo, hi, shift)
    if unresolved:
        fit, _ = _interpolate(sample, 2 * _FIT_NODES, lo, hi, shift)
    return fit
