"""Mean first-exit times and the splitting probability of the trapped,
pulled particle.

`met_interval`, `met_radial_interior`, `met_radial_exterior` and
`met_exterior_1d_forced` return the mean exit time of their layout, and
`met_interval_asymptotic` the interval's deep-trap formulas, each as a
dimensionless time in units of L**2/D (`OUProblem.timescale` gives that
unit in seconds).  `splitting_probability` is the chance of leaving the
interval through +1.  Every mean is a closed summation; nothing here
integrates numerically.

The interval mean reduces to integrals of exp(z^2) erf(z) or
exp(z^2) erfc(z), two rewritings of the same expression with opposite
numerical failure modes: the erf form is exact but its integrand reaches
exp(kappa (1+varphi)^2), while the erfc/Dawson form keeps every factor
bounded at the price of more bookkeeping.  We evaluate the erf form while
kappa (1+varphi)^2 <= 25 (the integrand then stays below ~1e11) and
switch to the erfc form beyond; both are kept callable so the crossover
can be cross-checked rather than trusted.  The erf form does not keep
relative accuracy below the switch either: from a start near -1 with the
trap centre near or beyond +1, its start and left-exit terms both come
near exp(kappa (1+varphi)^2) and cancel, and at kappa (1+varphi)^2 near
24 the result keeps only five or six digits.  The erf integral is a
positive power series; the erfc integral is a sum of Taylor panels below
x = 6 and an asymptotic expansion beyond.

Weak traps (kappa below `BROWNIAN_KAPPA`) route the interval to the
drift-diffusion closed form in eta = 2 kappa varphi.  The radial interior
mean is the paper's series in kappa, whose terms are all positive.  The
radial exterior problem uses the finite-sum forms (logarithmic in even
dimension, erfc-weighted in odd), summed at every dimension with their
Gamma ratios and kappa powers as scaled running products, so no factor
leaves float range before the mean does.  A vanishing trap makes the
exterior mean infinite; that, and a mean beyond float range, is reported
as math.inf, not an exception, so callers can print it.  Where exp(x^2) of
an erfc-form term passes float range, that largest exponent is factored
out of the difference, and the mean is formed from its logarithm.
"""

from __future__ import annotations

import math

# unused here; perfbench/test_perfbench.py checks that its tracer patches it
from ._quad import tanh_sinh  # noqa: F401
from .ou_model import (BROWNIAN_KAPPA, Geometry, _check_dimension,
                       _check_kappa, _check_start, _check_varphi,
                       canonical_orientation)
from .specfun import _EXP_MAX, _MIN_NORMAL, _SQRT_PI, dawson, erfcx

__all__ = [
    "met_interval",
    "met_interval_asymptotic",
    "met_radial_interior",
    "met_radial_exterior",
    "met_exterior_1d_forced",
    "splitting_probability",
]

# The erf-form integrand exp(z^2) erf(z) is taken only while its peak
# exp(kappa (1+varphi)^2) stays below ~1e11.
_ERF_FORM_LIMIT = 25.0

# The layouts, bound once in definition order: reading an enum member off
# its class costs more than the start check itself.
_INTERVAL, _INTERIOR, _EXTERIOR = Geometry

# Euler's constant; it fixes the large-x offset of the erfcx integral
# and the marginal-pull escape time.
_EULER_GAMMA = 0.5772156649015329
_LN2 = math.log(2.0)
# the largest x whose 2x fits a float
_HALF_MAX = 0.5 * 1.7976931348623157e308

# Below this x the erfcx integral is summed over Taylor panels of width at
# most _PANEL_WIDTH; from it on, the large-x expansion's smallest term,
# about exp(-x^2), is below 3e-16.
_ERFCX_ASYMPTOTIC_X = 6.0
_PANEL_WIDTH = 0.5


def _f_exp_erf(x: float) -> float:
    """F(x) = integral of exp(z^2) erf(z) from 0 to |x| (F is even).

    Summed from (2/sqrt(pi)) sum_n 2^n x^(2n+2) / ((2n+1)!! (2n+2)),
    whose terms are all positive.  The erf form keeps |x| <= 5, where
    about 80 terms reach full precision.  F enters a cancelling difference
    there, so the sum is kept to about one ulp: fsum adds the pieces, and
    as piece n carries x2^(n+1), the rounding x2_lo of x2 = x*x is put
    back to first order as (x2_lo / x2) * sum (n+1) piece_n.
    """
    x2 = x * x
    if x2 == 0.0:
        return 0.0
    split = 134217729.0 * x  # Dekker: x = hi + lo, halves of 26 bits
    hi = split - (split - x)
    lo = x - hi
    x2_lo = ((hi * hi - x2) + 2.0 * hi * lo) + lo * lo
    term = x2  # 2^n x^(2n+2) / (2n+1)!!
    ratio = 2.0 * x2  # term n / term n-1 is ratio / (2n+1)
    pieces = []
    append = pieces.append
    total = slope = 0.0
    m = 1.0  # n + 1, counted in floats
    while True:
        piece = term / (m + m)
        append(piece)
        total += piece
        slope += m * piece
        if piece <= 1e-17 * total:
            return 2.0 / _SQRT_PI * (math.fsum(pieces) + x2_lo / x2 * slope)
        term *= ratio / (m + m + 1.0)
        m += 1.0


def _int_erfcx0(x: float, ln_x: float | None = None) -> float:
    """Integral of erfcx over [0, x] for x >= 0.

    Below x = 6, [0, x] is cut into equal panels of width at most 1/2.
    Each is integrated by the Taylor series of erfcx about its midpoint c,
    which needs one erfcx call: from y' = 2zy - 2/sqrt(pi) the coefficients
    are y_0 = erfcx(c), y_1 = 2c y_0 - 2/sqrt(pi) and
    y_(k+1) = (2c y_k + 2 y_(k-1))/(k+1), and the odd ones integrate to
    zero.  Here they are carried as b_k = y_k h^k with h the half-width.

    From x = 6 on, the integral is
    (ln 2x + gamma/2)/sqrt(pi)
    + (1/sqrt(pi)) sum_(k>=1) (-1)^(k+1) (2k-1)!! / (2^k 2k x^(2k)).
    The sum diverges: it is stopped at its smallest term, about exp(-x^2).
    Where 2x passes float range ln 2x is taken as ln 2 + ln x, and where x
    itself did, as a product, the caller gives ln x as ln_x
    (`_scaled_gap`): the sum is then 0, and the integral still fits a
    float.
    """
    if x <= 0.0:
        return 0.0
    if x >= _ERFCX_ASYMPTOTIC_X:
        inv = 0.5 / (x * x)
        coef = 1.0  # (2k-1)!! / (2 x^2)^k
        last = math.inf
        total = 0.0
        k = 1
        while True:
            coef *= (2 * k - 1) * inv
            term = coef / (2 * k)
            if term >= last or term < 1e-17:
                break
            total += term if k % 2 else -term
            last = term
            k += 1
        if x <= _HALF_MAX:
            ln_2x = math.log(2.0 * x)
        else:
            ln_2x = _LN2 + (math.log(x) if ln_x is None else ln_x)
        return (ln_2x + 0.5 * _EULER_GAMMA + total) / _SQRT_PI
    panels = math.ceil(x / _PANEL_WIDTH)
    h = 0.5 * x / panels
    two_hh = 2.0 * h * h
    total = 0.0
    for i in range(panels):
        c = (2 * i + 1) * h
        two_ch = 2.0 * c * h
        b_prev = erfcx(c)
        b = (2.0 * c * b_prev - 2.0 / _SQRT_PI) * h
        piece = b_prev
        k = 1
        while abs(b) + abs(b_prev) > 1e-17 * piece or k < 3:
            b_prev, b = b, (two_ch * b + two_hh * b_prev) / (k + 1)
            k += 1
            if k % 2 == 0:
                piece += b / (k + 1)
        total += piece
    return 2.0 * h * total


def _scaled_gap(sk: float, hi: float, lo: float = 0.0):
    """(x, ln_x) for x = sk (hi - lo), sk > 0: ln_x is ln x where x passes
    float range (x = inf), from ln sk and ln((hi - lo)/2), which fit a
    float where hi - lo does not; else None.  The pair is what
    `_int_erfcx0` and `_ic0` take."""
    x = sk * (hi - lo)
    if x != math.inf:
        return x, None
    return x, math.log(sk) + math.log(0.5 * hi - 0.5 * lo) + _LN2


def _ic0(x: float, shift: float = 0.0, ln_x: float | None = None) -> float:
    """Integral of exp(z^2) erfc(z) from 0 to x, any sign of x, times
    exp(-shift).  ln_x is ln x where x passed float range
    (`_scaled_gap`).

    For x < 0 the identity erfc(z) = 2 - erfc(-z) splits the integral
    into 2 exp(x^2) Daw(|x|) minus the bounded erfcx piece; the
    exponential factor is the genuinely large part of the answer, and
    math.exp raises OverflowError for x^2 - shift > ~709.
    """
    if x >= 0.0:
        return _int_erfcx0(x, ln_x) * math.exp(-shift)
    ax = -x
    return (-2.0 * math.exp(x * x - shift) * dawson(ax)
            + _int_erfcx0(ax) * math.exp(-shift))


def _times_exp(m: float, e: float) -> float:
    """m exp(e) where exp(e) alone passes float range: the value where it
    fits a float, math.inf beyond.  A scaled difference m <= 0 has
    cancelled to rounding (a start within ulps of an exit) and gives 0.0.
    """
    if m <= 0.0:
        return 0.0
    ln_value = e + math.log(m)
    return math.exp(ln_value) if ln_value < _EXP_MAX else math.inf


def _splitting_pair(kappa: float, varphi: float,
                    z0: float) -> tuple[float, float]:
    """(P(exit at +1), P(exit at -1)) for canonical varphi >= 0.

    The complement is computed from its own Dawson arrangement rather
    than as 1 - h: near varphi = 1 the left-exit probability is
    exponentially small, and the erf-form mean time multiplies it by an
    exponentially large integral, so it needs full relative accuracy.
    All exponents below are <= 0 because |z0 - varphi| and |1 - varphi|
    are bounded by 1 + varphi.  Callers return at |z0| = 1 first, so
    -1 < z0 < 1 here.
    """
    if kappa == 0.0:
        return 0.5 * (1.0 + z0), 0.5 * (1.0 - z0)
    sk = math.sqrt(kappa)
    d_start = dawson(sk * (z0 - varphi))
    d_plus = dawson(sk * (1.0 + varphi))
    d_minus = dawson(sk * (1.0 - varphi))
    e_start = math.exp(kappa * ((z0 - varphi) ** 2 - (1.0 + varphi) ** 2))
    e_far = math.exp(-4.0 * kappa * varphi)
    den = e_far * d_minus + d_plus
    return ((e_start * d_start + d_plus) / den,
            (e_far * d_minus - e_start * d_start) / den)


def splitting_probability(kappa: float, varphi: float, z0: float) -> float:
    """Probability that the first exit from [-1, 1] happens at +1.

    Exact at the boundaries (1.0 at z0 = 1, 0.0 at z0 = -1) and equal to
    (1 + z0)/2 for a vanishing trap.  A negative pull is handled through
    the mirror: H(varphi, z0) is the left-exit probability of (-varphi,
    -z0), taken from its own Dawson arrangement rather than as
    1 - H(-varphi, -z0), which rounds probabilities below about 1e-16
    to 0.
    """
    kappa, varphi = _check_kappa(kappa), _check_varphi(varphi)
    z0 = _check_start(_INTERVAL, z0)
    if z0 == 1.0:
        return 1.0
    if z0 == -1.0:
        return 0.0
    if varphi < 0.0:
        return _splitting_pair(kappa, -varphi, -z0)[1]
    return _splitting_pair(kappa, varphi, z0)[0]


def _met_brownian(eta: float, z0: float) -> float:
    """Vanishing-trap limit: drift-diffusion exit from [-1, 1] with
    Peclet number eta = 2 kappa varphi >= 0."""
    if eta < 1e-5:
        # second order in eta; the eta^2 coefficient is below 1/12
        return 0.5 * (1.0 - z0 * z0) * (1.0 - eta * z0 / 3.0)
    # exponent-negative rewrite: every exp argument is <= 0
    a = math.exp(-eta * (1.0 + z0))
    b = math.exp(-2.0 * eta)
    return ((1.0 - z0) - 2.0 * (a - b) / (-math.expm1(-2.0 * eta))) / eta


def _met_interval_erf_form(kappa: float, varphi: float, z0: float) -> float:
    h, h_left = _splitting_pair(kappa, varphi, z0)
    sk = math.sqrt(kappa)
    f_in = _f_exp_erf(sk * (1.0 - varphi))
    f_out = _f_exp_erf(sk * (1.0 + varphi))
    f_start = _f_exp_erf(sk * (z0 - varphi))
    return 0.5 * _SQRT_PI / kappa * (h * f_in - f_start + f_out * h_left)


def _met_interval_erfc_form(kappa: float, varphi: float, z0: float,
                            shift: float = 0.0) -> float:
    """The erfc-form mean times exp(-shift)."""
    h = _splitting_pair(kappa, varphi, z0)[0]
    sk = math.sqrt(kappa)
    top = _ic0(sk * (1.0 + varphi), shift)
    j_full = top - _ic0(sk * (varphi - 1.0), shift)
    j_start = top - _ic0(sk * (varphi - z0), shift)
    return 0.5 * _SQRT_PI / kappa * (h * j_full - j_start)


def met_interval(kappa: float, varphi: float, z0: float) -> float:
    """Mean first-exit time from the interval [-1, 1], units L**2/D.

    Starting point z0 in [-1, 1]; exact zero on the boundary.  The pull
    may have either sign (mirror symmetry folds it to varphi >= 0).  A
    mean beyond float range is returned as math.inf.
    """
    kappa, varphi = _check_kappa(kappa), _check_varphi(varphi)
    varphi, z0 = canonical_orientation(varphi, _check_start(_INTERVAL, z0))
    if abs(z0) == 1.0:
        return 0.0
    if kappa < BROWNIAN_KAPPA:
        return _met_brownian(2.0 * kappa * varphi, z0)
    if kappa * (1.0 + varphi) ** 2 <= _ERF_FORM_LIMIT:
        return _met_interval_erf_form(kappa, varphi, z0)
    try:
        return _met_interval_erfc_form(kappa, varphi, z0)
    except OverflowError:
        # exp(kappa (1 - varphi)^2) passed float range.  It is the largest
        # exponent, as 0 < z0 - varphi <= 1 - varphi wherever the start's
        # own exponent arises, so it is factored out of every term.
        x = math.sqrt(kappa) * (varphi - 1.0)
        return _times_exp(_met_interval_erfc_form(kappa, varphi, z0, x * x),
                          x * x)


# c = lim z exp(-sqrt(pi) * integral_0^z erfcx) = exp(-gamma/2)/2 fixes
# the additive offset of the marginal-pull escape time.
_MARGINAL_CONSTANT = 0.5 * math.exp(-0.5 * _EULER_GAMMA)


def met_interval_asymptotic(kappa: float, varphi: float,
                            z0: float = 0.0) -> float:
    """Deep-trap (large kappa) leading behaviour of `met_interval`.

    varphi picks one of four branches: symmetric (varphi = 0), subcritical
    (0 < varphi < 1, Arrhenius escape over the residual barrier), marginal
    (varphi = 1, logarithmic; needs z0 < 1) and supercritical (varphi > 1,
    deterministic drift time).  The first two grow like
    e^(kappa (1 - varphi)^2); they return the mean wherever it fits a
    float, also where that exponential alone does not, and math.inf
    beyond (at varphi = 0 from kappa about 720).
    """
    kappa, varphi = _check_kappa(kappa), _check_varphi(varphi)
    if kappa == 0.0:
        raise ValueError("the deep-trap formulas need kappa > 0, got 0.0")
    varphi, z0 = canonical_orientation(varphi, _check_start(_INTERVAL, z0))
    if varphi < 1.0:
        # c e^x / (kappa^1.5 w): at varphi = 0 both ends are exits
        w = 1.0 - varphi
        c = (0.25 if varphi == 0.0 else 0.5) * _SQRT_PI
        x = kappa * w**2
        try:
            return c * math.exp(x) / (kappa**1.5 * w)
        except (OverflowError, ZeroDivisionError):
            # e^x or kappa^1.5 leaves float range, though the mean may not
            ln_mean = x + math.log(c / w) - 1.5 * math.log(kappa)
            return math.exp(ln_mean) if ln_mean < _EXP_MAX else math.inf
    if varphi == 1.0:
        if z0 >= 1.0:
            raise ValueError("the marginal pull varphi = 1 needs z0 < 1")
        return math.log(math.sqrt(kappa) * (1.0 - z0)
                        / _MARGINAL_CONSTANT) / (2.0 * kappa)
    return math.log((varphi - z0) / (varphi - 1.0)) / (2.0 * kappa)


def _interior_series(b: float, kappa: float, z0: float) -> float:
    """sum_n kappa^n (1 - z0^(2n+2)) / (4 (n+1) (b)_(n+1)) for z0 in [0, 1).

    1 - z0^(2n+2) is taken as -expm1((2n+2) ln z0), so it keeps its
    relative accuracy as z0 -> 1.  The coefficient and the total carry a
    common power-of-two scale 2^scale, renewed whenever the coefficient
    passes `big`, so no product overflows for any finite kappa.  The
    partial sums only grow, so once one passes float range the sum is
    math.inf; that ends the work for large kappa.  Term n+1 is at most
    rho = kappa/(b+n+1) times term n, so once rho < 1 the tail is at most
    term_n rho/(1 - rho), and the sum stops when that is below an ulp.

    expm1(x) is exactly -1.0 for every x below about -37.43, so from
    n_flat = -40/ln(z0^2) - 1 on (n = 0 at z0 = 0, never at z0 = 1) the
    term is coef itself and expm1 is not called; the margin of 2.5 covers the rounding
    of n_flat.  rho < 1 holds exactly where kappa < b+n+1 (a correctly
    rounded quotient below 1 stays below 1), so rho is formed only there.
    n counts in floats; every n below 2^53 converts exactly, so each
    operation is the one the integer count gave.
    """
    log_z2 = 2.0 * math.log(z0) if z0 > 0.0 else -math.inf
    n_flat = -40.0 / log_z2 - 1.0 if log_z2 < 0.0 else math.inf
    big = math.ldexp(1.0, 900) / max(kappa, 1.0)
    coef = 0.25 / b  # kappa^n / (4 (n+1) (b)_(n+1)), times 2^-scale
    total = 0.0
    scale = 0
    n = 0.0
    while True:
        if n >= n_flat:
            term = coef
        else:
            term = -coef * math.expm1((n + 1.0) * log_z2)
        total += term
        d = b + n + 1.0
        if kappa < d:
            rho = kappa / d
            if term * rho <= 5.5e-17 * (1.0 - rho) * total:
                break
        coef *= kappa * ((n + 1.0) / ((n + 2.0) * d))
        n += 1.0
        if coef > big:
            coef, shift = math.frexp(coef)
            total = math.ldexp(total, -shift)
            scale += shift
            if scale + math.frexp(total)[1] > 1024:
                return math.inf
    if scale + math.frexp(total)[1] > 1024:
        return math.inf
    return math.ldexp(total, scale)


def met_radial_interior(d: int, kappa: float, z0: float) -> float:
    """Mean first-exit time from the d-ball of radius 1 with the trap at
    its centre, starting from radius z0 in [0, 1].  Units L**2/D.

    Summed from the paper's series: T'(z) = -(z/2) sum_n (kappa z^2)^n /
    (d/2)_(n+1) integrates to
    T(z0) = sum_n kappa^n (1 - z0^(2n+2)) / (4 (n+1) (d/2)_(n+1)),
    whose terms are all positive, so nothing cancels.  A mean beyond float
    range (from kappa near 700 on) is returned as math.inf.
    """
    d, kappa = _check_dimension(d), _check_kappa(kappa)
    z0 = _check_start(_INTERIOR, z0)
    if z0 == 1.0:
        return 0.0
    return _interior_series(0.5 * d, kappa, z0)


def _exterior_sum(d: int, kappa: float, z0: float) -> float:
    """The finite-sum exterior mean for kappa > 0 and z0 > 1, with every
    Gamma ratio and kappa power formed as a running product, carried as a
    mantissa m and a power of two e, so no factor leaves float range
    before the mean does; math.inf where the mean passes float range.

    Even d sums 2 ln z0 and Gamma(h)/(j Gamma(h-j)) kappa^-j (1 - z0^-2j),
    h = d/2, with the ratio built up from j = 1.  Odd d starts from
    2 sqrt(pi) times the integral of erfcx over [sqrt(kappa),
    sqrt(kappa) z0].  From d = 5 it pairs the same ratio with
    Gamma(j+1/2)/(sqrt(pi) kappa^j), the smaller of the two, on one
    exponent, and from d = 3 it folds the near and far erfcx terms of
    each j into Gamma(h-j) kappa^(j-h) (erfcx(sqrt(kappa))
    - erfcx(sqrt(kappa) z0) z0^(2(j-h))), built down from Gamma(1/2)
    kappa^(-1/2) at the top j.
    """
    frexp = math.frexp
    h = 0.5 * d
    terms = []  # (m, e) for m * 2**e
    if d % 2 == 0:
        terms.append((2.0 * math.log(z0), 0))
        c, e = 1.0, 0
        for j in range(1, d // 2):
            c, de = frexp(c * (h - j) / kappa)
            e += de
            terms.append((c * (1.0 - z0 ** (-2 * j)) / j, e))
    else:
        sk = math.sqrt(kappa)
        terms.append((2.0 * _SQRT_PI * (_int_erfcx0(*_scaled_gap(sk, z0))
                                        - _int_erfcx0(sk)), 0))
        a, b, e = 1.0, 1.0, 0
        for j in range(1, (d - 1) // 2):
            a, de = frexp(a * (h - j) / kappa)
            b = math.ldexp(b * (j - 0.5) / kappa, -de)
            e += de
            terms.append(((a - b) * (1.0 - z0 ** (-2 * j)) / j, e))
        if d > 1:
            near, far = erfcx(sk), erfcx(sk * z0)
            g, e = frexp(_SQRT_PI / sk)
            for j in range((d - 1) // 2, 0, -1):
                terms.append((g * (near - far * z0 ** (2.0 * (j - h))), e))
                g, de = frexp(g * (h - j) / kappa)
                e += de
    top = max((e for m, e in terms if m != 0.0), default=0)
    # left to right, as builtin sum adds floats before CPython 3.12; from
    # 3.12 it compensates, which moves last bits from d = 5 on
    total = 0.0
    for m, e in terms:
        total += math.ldexp(m, e - top)
    try:
        return math.ldexp(total / (4.0 * kappa), top)
    except OverflowError:
        return math.inf


def met_radial_exterior(d: int, kappa: float, z0: float) -> float:
    """Mean time to reach the d-ball of radius 1 from outside (z0 >= 1)
    with the trap at the centre.  Units L**2/D.

    For kappa = 0 the mean is infinite (free diffusion never guarantees
    capture in finite mean time); that, and a mean beyond float range, is
    returned as math.inf.  At every d the Gamma ratios and kappa powers
    are scaled running products (`_exterior_sum`), as Gamma(d/2) leaves
    float range from d = 344 and kappa^j sooner.
    """
    d, kappa = _check_dimension(d), _check_kappa(kappa)
    z0 = _check_start(_EXTERIOR, z0)
    if z0 == 1.0:
        return 0.0
    if kappa == 0.0:
        return math.inf
    return _exterior_sum(d, kappa, z0)


def met_exterior_1d_forced(kappa: float, varphi: float, z0: float) -> float:
    """Mean time to reach x = 1 from z0 >= 1 on the line, with the trap
    at the origin and a pull of either sign.  Units L**2/D.  kappa = 0
    gives an infinite mean; that, and a mean beyond float range, is
    returned as math.inf."""
    kappa, varphi = _check_kappa(kappa), _check_varphi(varphi)
    z0 = _check_start(_EXTERIOR, z0)
    if z0 == 1.0:
        return 0.0
    if kappa == 0.0:
        return math.inf
    sk = math.sqrt(kappa)
    c = 0.5 * _SQRT_PI / kappa
    # sqrt(kappa) (z0 - varphi) and sqrt(kappa) (1 - varphi) may pass
    # float range where the mean does not; then their logarithms stand in
    x, ln_x = _scaled_gap(sk, z0, varphi)
    x_exit, ln_exit = _scaled_gap(sk, 1.0, varphi)
    try:
        return c * (_ic0(x, 0.0, ln_x) - _ic0(x_exit, 0.0, ln_exit))
    except OverflowError:
        # exp(x_exit^2) passed float range; as z0 >= 1, x < 0 only where
        # |x| <= |x_exit|, so x_exit^2 is factored out of both terms
        e = x_exit * x_exit
        m = _ic0(x, e, ln_x) - _ic0(x_exit, e)
        if 0.0 < m and c * m < _MIN_NORMAL:
            # c m alone leaves the normal floats (kappa near float range),
            # so c joins the exponent instead
            return _times_exp(m, e + math.log(c))
        return _times_exp(c * m, e)

