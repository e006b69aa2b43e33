"""Confluent hypergeometric and related special functions.

Self-contained evaluation of the functions the exit-time solvers need,
on the real arguments they pass: Kummer M(a,b,z) for z >= 0 and Tricomi
U(a,b,z) for z > 0, each with its a-derivative; Dawson's integral, the
scaled complementary error function, integer-order Bessel J, gamma,
1/gamma and digamma.

The pain point is M(a,b,z) with large negative a, where the power
series' terms alternate and grow far beyond M, so a float sum loses every
digit.  a, b and z are binary rationals, so there the series is summed in
Python integers scaled by 2^P, with P sized to the terms' growth
(`_kummer_fixed`); the same kernel serves terminating a.  At large z
both of M's asymptotic branches and U's expansion are the one series
2F0 (DLMF 13.7), summed by one loop, `_two_f0`.  U(a,b,z) takes its
Laplace integral representation at integer b, where the two-Kummer
combination is singular, and wherever that combination cancels badly.
The module needs the standard library alone.

M and dM/da share one route decision, the branch table in `_kummer`.
dU/da has one route at every b: U's Laplace integral (`_u_laplace`),
one exp-sinh pass about the integrand's peak in ln t, whose nodes give U
and dU/da at a and a+1 together; `_u_integral` takes it directly for
a >= 1/2 and raises a < 1/2 to a+n in [1/2, 3/2) by the stable
recurrence, so one pass serves both of its values.  U takes the same
pass at integer b; elsewhere the two-Kummer combination is faster, and
at z >= 40 the asymptotic series where its terms fall from the first.

Every hypergeometric entry point returns a HypergeomResult carrying the
value, a conservative absolute error estimate and the method tag, so
callers can audit which branch produced a number.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

__all__ = [
    "HypergeomResult",
    "NonConvergenceError",
    "kummer_m",
    "kummer_m_da",
    "tricomi_u",
    "tricomi_u_da",
    "dawson",
    "erfcx",
    "bessel_j",
    "digamma",
    "gamma_fn",
    "inv_gamma",
]

_EPS = 2.220446049250313e-16
# the spacing of floats below the smallest normal one, where a rounding's
# error is absolute
_TINY = math.ulp(0.0)
_MIN_NORMAL = 2.2250738585072014e-308
_LN2 = math.log(2.0)
_MAX_TERMS = 10000
# relative term size; three consecutive hits on falling terms stop a series
_SERIES_STOP = 1e-15


def _subnormal(x: float) -> float:
    """The most a rounding to x is off by in absolute terms beyond its
    relative error: one subnormal spacing where |x| is below the smallest
    normal float, else 0."""
    return _TINY if -_MIN_NORMAL < x < _MIN_NORMAL else 0.0


class NonConvergenceError(ArithmeticError):
    """A Kummer series needs more than its term budget at these
    arguments."""


class HypergeomResult(NamedTuple):
    """Value of a hypergeometric evaluation plus error bookkeeping.

    A named tuple (value, abs_err_estimate, method): immutable, read by
    field name, equal and hashed by value, and cheap to build, as every
    confluent call returns one.  Being a tuple, it also unpacks into its
    three fields and equals a plain tuple holding them.

    abs_err_estimate is deliberately pessimistic; tests assert it bounds
    the true error against independent oracles.  On the integral routes
    (IntegralRep, RecurrenceShift) it rests on an estimate of the Laplace
    pass's error extrapolated from its last two levels, checked against
    40-digit grids rather than proven a bound.  method is one of
    DirectSeries, FixedPoint, IntegralRep, RecurrenceShift, AsymptoticZ.
    For M and dM/da, DirectSeries is the float power series, FixedPoint
    the integer-scaled one and AsymptoticZ the large-z expansion.  For U,
    DirectSeries is the two-Kummer combination, IntegralRep and
    RecurrenceShift the Laplace integral at a and raised from a+n, and
    AsymptoticZ the large-z expansion.  dU/da is IntegralRep or
    RecurrenceShift.
    """

    value: float
    abs_err_estimate: float
    method: str


# ----------------------------------------------------------------------
# gamma family (Lanczos g = 7, 9 coefficients; ~1e-13 relative accuracy)
# ----------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction, exact at integers.

    Reducing to the nearest integer keeps r = x - n exact and within
    [-1/2, 1/2], so a tiny x keeps every digit; reducing by floor turned
    x = -tiny into r = 1 - tiny, which holds only a few bits of tiny.
    """
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if (n & 1) else s


def _cospi(x: float) -> float:
    """cos(pi*x), reduced to the nearest integer like _sinpi."""
    n = round(x)
    c = math.cos(math.pi * (x - n))
    return -c if (n & 1) else c


def _lanczos_sum(x: float) -> float:
    a = _LANCZOS[0]
    for i in range(1, 9):
        a += _LANCZOS[i] / (x + i)
    return a


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x; raises on nonpositive integers."""
    if x == math.floor(x) and x <= 0.0:
        raise ValueError(f"gamma pole at x = {x}")
    if x < 0.5:
        # upward recursion: each linear factor is exact near a pole, so
        # Gamma(-m + eps) ~ 1/eps keeps full relative accuracy
        n = int(math.ceil(1.5 - x))
        if n <= 64:
            prod = 1.0
            for k in range(n):
                prod *= x + k
            return gamma_fn(x + n) / prod
        return math.pi / (_sinpi(x) * gamma_fn(1.0 - x))
    x -= 1.0
    t = x + _LANCZOS_G + 0.5
    # t^(x+1/2) alone overflows once Gamma's argument passes about 142.6,
    # though Gamma fits a float up to 171, so the power is formed in
    # halves and e^-t joins before the second
    p = t ** (0.5 * (x + 0.5))
    return _SQRT_2PI * p * (p * math.exp(-t)) * _lanczos_sum(x)


def _lgamma(x: float) -> float:
    """ln Gamma(x) for x >= 1/2, where Gamma is positive."""
    y = x - 1.0
    t = y + _LANCZOS_G + 0.5
    return (math.log(_SQRT_2PI) + (y + 0.5) * math.log(t) - t
            + math.log(_lanczos_sum(y)))


def inv_gamma(x: float) -> float:
    """1/Gamma(x); entire, zero at nonpositive integers."""
    if x > 0.5:
        if x > 171.0:
            return math.exp(-_lgamma(x))
        return 1.0 / gamma_fn(x)
    # reflection: 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi
    s = _sinpi(x)
    if s == 0.0:
        return 0.0
    lg = _lgamma(1.0 - x)
    if lg > 700.0:
        # Gamma(1-x) alone may pass float range where 1/Gamma(x) does not
        ln_mag = lg + math.log(abs(s) / math.pi)
        return math.copysign(
            math.exp(ln_mag) if ln_mag < _EXP_MAX else math.inf, s)
    return s * math.exp(lg) / math.pi


def _gamma_rel_err(x: float) -> float:
    """Relative error bound of gamma_fn(x) and inv_gamma(x).

    Both evaluate the Lanczos form at w = max(x, 1-x) (1-x under
    reflection), whose power t^(w-1/2) e^-t, t = w + 6.5, is rounded in
    its exponent: eps w (ln t + 1) once as a power, up to three times
    that through _lgamma's sum and exp.  Against 40-digit mpmath for x
    from -170 to 171, inv_gamma's error reaches 1.7 of these units and
    gamma_fn's 0.95, each above 8 eps.
    """
    w = max(x, 1.0 - x)
    return _EPS * (8.0 + 3.0 * w * (math.log(w + 6.5) + 1.0))


# Bernoulli numbers B_2 .. B_14, the terms of digamma's asymptotic tail.
_BERNOULLI = {
    2: 1.0 / 6.0,
    4: -1.0 / 30.0,
    6: 1.0 / 42.0,
    8: -1.0 / 30.0,
    10: 5.0 / 66.0,
    12: -691.0 / 2730.0,
    14: 7.0 / 6.0,
}


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) to ~1e-13."""
    if x == math.floor(x) and x <= 0.0:
        raise ValueError(f"digamma pole at x = {x}")
    if x < 0.5:
        return digamma(1.0 - x) - math.pi * _cospi(x) / _sinpi(x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # asymptotic tail: ln x - 1/(2x) - sum B_2n / (2n x^2n)
    tail = 0.0
    p = inv2
    for n in range(1, 8):
        tail -= _BERNOULLI[2 * n] / (2 * n) * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + tail


# ----------------------------------------------------------------------
# Dawson integral and scaled complementary error function
# ----------------------------------------------------------------------

_RYBICKI_H = 0.2
# the largest argument of exp whose value is finite
_EXP_MAX = math.log(1.7976931348623157e308)


# Odd denominators of Dawson's Maclaurin series, innermost first.
_DAWSON_SERIES_K = tuple(float(k) for k in range(21, 1, -2))


def dawson(x: float) -> float:
    """Dawson's integral F(x) = exp(-x^2) * int_0^x exp(t^2) dt.

    The Maclaurin series sum (-1)^n 2^n x^(2n+1) / (2n+1)!! for
    |x| <= 0.2, within 1 ulp; the sampling theorem approximation of
    Rybicki for 0.2 < |x| <= 10, within a few ulps (absolute error
    ~exp(-(pi/2h)^2) at h = 0.2); the asymptotic series in 1/x beyond.
    NaN gives NaN.  The samples nearly cancel near 0, so below 0.2 they
    would lose relative accuracy (2.4e-5 at x = 1e-12).

    The sampling sum runs over the 45 odd n = n0-44, ..., n0+44 nearest
    |x|/h, skipping any sample with |x - n h| > 9.  n counts in floats,
    which every n here is exactly, so each sample is the one the integer
    count gave.
    """
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax != ax:  # NaN
        return ax
    if ax <= 0.2:
        # x (1 - y/3 (1 - y/5 (1 - ...))), y = 2 x^2; the tenth term is
        # below 1e-20 of the first
        y = 2.0 * ax * ax
        p = 1.0
        for k in _DAWSON_SERIES_K:
            p = 1.0 - y / k * p
        return math.copysign(ax * p, x)
    if ax > 10.0:
        # F(x) ~ 1/(2x) + 1/(4x^3) + 3/(8x^5) + ...
        inv2 = 1.0 / (2.0 * ax * ax)
        term = 1.0 / (2.0 * ax)
        s = term
        odd = 1.0  # 2k - 1
        for _ in range(39):
            term *= odd * inv2
            s += term
            if term < 1e-17 * s:
                break
            odd += 2.0
        return math.copysign(s, x)
    h = _RYBICKI_H
    exp = math.exp
    n0 = round(ax / h)
    if n0 % 2 == 0:
        n0 += 1
    s = 0.0
    n = n0 - 46.0
    for _ in range(45):
        n += 2.0
        d = ax - n * h
        if -9.0 <= d <= 9.0:
            s += exp(-d * d) / n
    return math.copysign(s / _SQRT_PI, x)


def erfcx(x: float) -> float:
    """exp(x^2) * erfc(x) for real x: NaN for NaN, and math.inf from
    x = -26.64 down, where the value passes float range."""
    if x >= 25.0:
        inv2 = 1.0 / (2.0 * x * x)
        term = 1.0 / (x * _SQRT_PI)
        s = term
        for k in range(1, 40):
            term *= -(2 * k - 1) * inv2
            s += term
            if abs(term) < 1e-17 * s:
                break
        return s
    if x >= 0.0:
        return math.exp(x * x) * math.erfc(x)
    if x != x:  # NaN
        return x
    if x * x > _EXP_MAX:
        return math.inf
    return 2.0 * math.exp(x * x) - erfcx(-x)


# ----------------------------------------------------------------------
# Bessel J
# ----------------------------------------------------------------------


# the recurrence takes about max(n, x) steps; this bound keeps a call
# under about 15 ms
_BESSEL_MAX = 1e5


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer 0 <= n <= 1e5
    and 0 < x <= 1e5, within a few 1e-16 absolute.

    Miller's algorithm: J is the solution of J_(k-1) = (2k/x) J_k - J_(k+1)
    that decays with k, so the recurrence run downward from any start
    well above max(n, x) settles onto J up to a common scale; the identity
    J_0 + 2 (J_2 + J_4 + ...) = 1 fixes that scale.  Below x = 1e-8 the
    leading term (x/2)^n / n! is J_n to rounding.
    """
    if not isinstance(n, int) or not 0 <= n <= _BESSEL_MAX:
        raise ValueError(f"bessel_j needs an integer order 0 <= n <= 1e5, "
                         f"got {n!r}")
    if not 0.0 < x <= _BESSEL_MAX:
        raise ValueError(f"bessel_j needs 0 < x <= 1e5, got {x!r}")
    if x < 1e-8:
        value = 1.0
        for k in range(1, n + 1):
            value *= 0.5 * x / k
        return value
    m = max(n, x)
    top = 2 * int(0.5 * (m + 20.0 + math.sqrt(40.0 * m))) + 2
    j_up, j = 0.0, 1.0  # J_(k+1), J_k up to a common scale, k = top
    norm = 2.0  # twice the even-index J so far; J_0 comes off at the end
    value = 0.0
    for k in range(top, 0, -1):
        j_up, j = j, (2.0 * k / x) * j - j_up
        if abs(j) > 1e250:
            j_up *= 1e-250
            j *= 1e-250
            norm *= 1e-250
            value *= 1e-250
        if k == n + 1:
            value = j
        if k % 2 == 1:
            norm += 2.0 * j
    return value / (norm - j)


# ----------------------------------------------------------------------
# Kummer M
# ----------------------------------------------------------------------

# Guard bits of the fixed-point series: its claimed absolute error is a
# small multiple of terms * 2^-_GUARD_BITS
_GUARD_BITS = 96


def _kummer_fixed(a: float, b: float, z: float, want_da: bool):
    """Power series of M(a, b, z), or of dM/da, in integers scaled by 2^P.

    Serves a <= 1 and z > 0, where max(-a, 1) = max(|a|, 1) = A below;
    at a <= 0 the terms alternate and grow far beyond M before they
    decay.  a, b and z are binary rationals, so each term
    t <- t (a+n) z / ((b+n)(n+1)) costs one integer product and one
    floor division, and the derivative term dt <- (dt (a+n) + t) z /
    ((b+n)(n+1)) one more.  One loop carries t and s, and dt and ds with
    want_da.  Returns (value, abs_err).

    With A = max(|a|, 1), rho_j = (A+j) z / (|b+j| (j+1)) bounds
    |t_(j+1) / t_j|.  The sum ends at the first term N within
    2^-_GUARD_BITS (dt too) with N + b > 0 and rho_N <= 1/2; rho_j then
    decreases, so the tail is at most 2^-_GUARD_BITS (dt's three times).

    Each floor errs by less than two units 2^-P (one when b + n > 0).
    An error made at term k reaches the sum through the products of rho
    over the windows j = k+1 .. n-1, at most twice their sum over n < N
    as windows past N halve per term.  Split rho_j = phi_j beta_j with
    phi_j = (A+j) z / (j+1)^2, which does not increase with j, and
    beta_j = (j+1)/|b+j|.  A window's phi product is at most
    (A)_L z^L / L!^2, and sum_L (A)_L z^L / L!^2 <= e^z I_0(2 sqrt(A z))
    <= e^(z + 2 sqrt(A z)), since (A)_L / L! <= sum_k A^k C(L-1, k-1) / k!
    (-ln(1-x) <= x/(1-x) coefficientwise).  A window's beta product is
    at most B = prod_(j<N) max(1, beta_j), which is Gamma(b) N! /
    Gamma(N+b) <= (N+1)/min(b, 1) for b > 0.  P spends
    (z + 2 sqrt(A z))/ln 2 bits on this growth on top of _GUARD_BITS, so
    the value's N + 1 errors cost at most 4 (N+1) B 2^-_GUARD_BITS.  An
    error of t enters dt through one factor z/((b+i)(i+1)) without its
    (a+i); summed over i that costs sum_i 1/(A+i) + 1 <= 2 + ln(1+N)
    times as much again.  The final int-to-float division rounds once.
    """
    aa = max(-a, 1.0)
    # the stop test holds at some n <= _MAX_TERMS only if it holds there
    m = _MAX_TERMS
    if not (b + m > 0.0 and (aa + m) * z <= 0.5 * (m + b) * (m + 1)):
        raise NonConvergenceError(
            f"fixed-point Kummer series needs over {m} terms for a={a}, "
            f"b={b}, z={z}")
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    # the denominators are powers of two: (a+n) z / ((b+n)(n+1)) =
    # (an + n ad) zn 2^-e / ((bn + n bd)(n+1)) with e = log2(ad zd / bd);
    # shifting by e first keeps the divisor small, and for a divisor
    # k > 0, floor(floor(x / 2^e) / k) = floor(x / (2^e k))
    la = ad.bit_length() - 1
    e = la + zd.bit_length() - bd.bit_length()
    if e < 0:
        zn <<= -e
        e = 0
    p = _GUARD_BITS + int((z + 2.0 * math.sqrt(aa * z)) / _LN2) + 1
    t = s = 1 << p
    tiny = 1 << (p - _GUARD_BITS)
    neg_tiny = -tiny
    # c = an + n ad and q = bn + n bd scale a+n and b+n to integers
    c, q, n = an, bn, 0
    dt = ds = 0
    while not (neg_tiny <= t <= tiny and neg_tiny <= dt <= tiny
               and n + b > 0.0
               and (aa + n) * z <= 0.5 * (n + b) * (n + 1)):
        k = q * (n + 1)
        if want_da:
            dt = (((dt * c + (t << la)) * zn) >> e) // k
            ds += dt
        t = ((t * (c * zn)) >> e) // k
        s += t
        c += ad
        q += bd
        n += 1
    value = (ds if want_da else s) / (1 << p)
    if b > 0.0:
        growth = (n + 1) / min(b, 1.0)
    else:
        growth = math.prod(max(1.0, (j + 1) / abs(b + j)) for j in range(n))
    units = 4.0 * (n + 1) * growth * (3.0 + math.log1p(n) if want_da else 1.0)
    err = math.ldexp(units + 3.0, -_GUARD_BITS) + _EPS * abs(value)
    return value, err


# M's float series reads (n, (b+n)(n+1.0)) for n = 1, 2, ... per b, in
# slots of _ROW_CHUNK rows.  _ROW_CACHE slots are kept over all b, about
# 1 MB; the series of a basis build read about twenty.  Forming the rows
# per term cost 8.7% of `curve-eval` `wall_s` (`BENCH_fork_audit.json`).
_ROW_CHUNK = 32
_ROW_SLOTS = -(-_MAX_TERMS // _ROW_CHUNK)
_ROW_CACHE = 256


@functools.lru_cache(maxsize=_ROW_CACHE)
def _series_rows(b: float, k: int) -> tuple:
    """Slot k of b's rows: (n, (b + n)(n + 1.0)) for n from
    k _ROW_CHUNK + 1 to (k+1) _ROW_CHUNK or _MAX_TERMS, formed by a
    series loop's own step n += 1.0 and product (b + n)(n + 1.0), so each
    row holds the bits a loop forming them per term gets."""
    rows = []
    n = float(k * _ROW_CHUNK)
    for _ in range(min(_ROW_CHUNK, _MAX_TERMS - k * _ROW_CHUNK)):
        n += 1.0
        rows.append((n, (b + n) * (n + 1.0)))
    return tuple(rows)


def _kummer_series(a: float, b: float, z: float):
    """Power series of M(a,b,z) in floats; returns (value, claim).
    `_kummer_series_da` sums dM/da, differentiated term by term.

    Term n+1 is t (a+n) (z / ((b+n)(n+1))).  The sum stops after three
    consecutive terms below 1e-15 of the running sum (near a = 0 the
    leading terms are tiny while later ones still grow toward n ~ z, so a
    small term counts only once terms fall), and claims
    8 eps sum|terms| + 4 |last term|.  It raises NonConvergenceError
    after _MAX_TERMS terms.

    The value and the derivative each have their own loop, and neither
    calls a builtin per term: `abs` and `max` are written out as
    conditionals that keep NaN where the builtins do (max(nan, x) is
    nan).  Both read n and (b+n)(n+1) from b's cached rows
    (`_series_rows`) rather than forming them per term.  Both do the
    floating-point operations of one loop carrying value and derivative
    together, in its order, and so return its values and claims bit for
    bit; tests/test_specfun.py keeps that loop as their oracle.  One loop
    for both, branching on the derivative per term, cost 3.5% to 6.5% of
    `curve-eval` `wall_s` (`BENCH_fork_audit.json`,
    `BENCH_twin_loops.json`).
    """
    stop = _SERIES_STOP
    t = s = abs_sum = 1.0
    hits = 0
    n = 0.0
    c = a + n
    q = (b + n) * (n + 1.0)
    for k in range(_ROW_SLOTS):
        for n, q_next in _series_rows(b, k):
            t = t * c * (z / q)
            s += t
            at = t if t >= 0.0 else -t
            abs_sum += at
            c = a + n
            ref = s if s >= 0.0 else -s
            if (at < stop * (1e-300 if ref < 1e-300 else ref)
                    and (c if c >= 0.0 else -c) * z < q_next):
                hits += 1
                if hits >= 3:
                    return s, _EPS * 8.0 * abs_sum + 4.0 * abs(t)
            else:
                hits = 0
            q = q_next
    raise NonConvergenceError(
        f"Kummer series did not converge for a={a}, b={b}, z={z}")


def _kummer_series_da(a: float, b: float, z: float):
    """`_kummer_series`'s derivative loop: dM/da and its claim, with the
    value's terms carried alongside for the stop test."""
    stop = _SERIES_STOP
    t = s = abs_sum = 1.0
    dt = ds = 0.0
    hits = 0
    n = 0.0
    c = a + n
    q = (b + n) * (n + 1.0)
    for k in range(_ROW_SLOTS):
        for n, q_next in _series_rows(b, k):
            r = z / q
            dt = dt * c * r + t * r
            t = t * c * r
            s += t
            ds += dt
            adt = dt if dt >= 0.0 else -dt
            abs_sum += adt
            c = a + n
            at = t if t >= 0.0 else -t
            m = adt if adt > at else at
            ref = s if s >= 0.0 else -s
            ads = ds if ds >= 0.0 else -ds
            if ads > ref:
                ref = ads
            if (m < stop * (1e-300 if ref < 1e-300 else ref)
                    and (c if c >= 0.0 else -c) * z < q_next):
                hits += 1
                if hits >= 3:
                    return ds, _EPS * 8.0 * abs_sum + 4.0 * abs(dt)
            else:
                hits = 0
            q = q_next
    raise NonConvergenceError(
        f"Kummer series did not converge for a={a}, b={b}, z={z}")


def _two_f0(p: float, q: float, x: float):
    """The asymptotic series 2F0(p, q; ; 1/x) = sum_n (p)_n (q)_n / (n! x^n)
    of M and U at large z (DLMF 13.7), with x = z or -z.

    Stops before a term that rises, once a term is below 1e-18 of the
    sum, or after 60 terms.  Returns the sum and its smallest term.  n
    counts in floats, which every n here is exactly, so each term is the
    one an integer count gave.  |term| and |sum| are conditionals, not
    calls of `abs`: 0.0 - term is |term| for every term but NaN, -0.0
    included, so every value but a NaN's sign is the one `abs` gave.
    """
    s = term = 1.0
    least = math.inf
    n = 0.0
    for _ in range(60):
        term *= (p + n) * (q + n) / ((n + 1.0) * x)
        mag = term if term > 0.0 else 0.0 - term
        if mag > least:
            break
        s += term
        least = mag
        if least < 1e-18 * (s if s >= 0.0 else -s):
            break
        n += 1.0
    return s, least


def _kummer_asympt(a: float, b: float, z: float):
    """Large-z asymptotics of M on the positive real axis."""
    # e^z z^(a-b) / Gamma(a) branch
    s1, min1 = _two_f0(b - a, 1.0 - a, z)
    lz = math.log(z)
    ig1 = inv_gamma(a)
    t1 = math.exp(z + (a - b) * lz) * ig1 * s1
    # cos(pi a) z^(-a) / Gamma(b-a) branch
    s2, min2 = _two_f0(a, 1.0 + a - b, -z)
    ig2 = inv_gamma(b - a)
    t2 = _cospi(a) * z ** (-a) * ig2 * s2
    g = gamma_fn(b)
    value = g * (t1 + t2)
    # exp's argument z + (a-b) ln z is rounded, as is ln z: t1 carries a
    # relative error of about eps (z + 2|a-b| ln z), and z^(-a) one of
    # about eps 2|a| ln z
    err = abs(g) * (min1 * math.exp(z) * z ** (a - b) * abs(ig1)
                    + min2 * z ** (-a) * abs(ig2)
                    + _EPS * (z + 2.0 * abs(a - b) * lz) * abs(t1)
                    + _EPS * 2.0 * abs(a) * lz * abs(t2)) \
        + _EPS * 8 * abs(value)
    return value, abs(err)


def _kummer(a: float, b: float, z: float, want_da: bool) -> HypergeomResult:
    """Branch table of M(a, b, z) (want_da False) and dM/da (want_da True).

    Value and derivative take the same route everywhere except on the
    large-z asymptotic branch, which has no a-derivative: dM/da keeps the
    power series there.  Every solver passes z = kappa z0^2 >= 0, so
    z < 0, NaN and inf are refused, in a message that names the function.
    """
    if b <= 0.0 and b == math.floor(b):
        raise ValueError(f"Kummer M pole at b = {b}")
    if not 0.0 <= z < math.inf:
        name = "kummer_m_da" if want_da else "kummer_m"
        raise ValueError(f"{name} requires finite z >= 0, got {z!r}")
    if z == 0.0:
        return HypergeomResult(0.0 if want_da else 1.0, 0.0, "DirectSeries")
    if a < -10.0 or (a <= 0.0 and a == math.floor(a)):
        v, e = _kummer_fixed(a, b, z, want_da)
        return HypergeomResult(v, e, "FixedPoint")
    if not want_da and z > 80.0 and abs(a) <= 10.0:
        v, e = _kummer_asympt(a, b, z)
        return HypergeomResult(v, e, "AsymptoticZ")
    v, e = (_kummer_series_da if want_da else _kummer_series)(a, b, z)
    return HypergeomResult(v, e, "DirectSeries")


def kummer_m(a: float, b: float, z: float) -> HypergeomResult:
    """Confluent hypergeometric M(a, b, z) for real a, real b other than
    a nonpositive integer, and z >= 0.

    Branch selection: a < -10 and every nonpositive integer a go to the
    fixed-point series (`_kummer_fixed`), which sums the alternating terms
    exactly enough that their cancellation costs nothing; otherwise the
    large-z asymptotic expansion serves z > 80 with |a| <= 10, and the
    float power series the rest (cancellation-free once a >= -10, the
    e^z part of M dominating the alternating prefix).  z < 0, NaN and
    inf raise ValueError.  The float series' commonest case, 0 < z <= 80,
    b > 0 and a >= -10 other than a nonpositive integer, is tested first
    and summed here; every other point takes `_kummer`'s table.  Taking
    the table there too, with `mode_term` forming its row per call, cost
    8.3% of `curve-eval` `wall_s`, slower in 10 of 10 pairs
    (`BENCH_fork_audit.json`).
    """
    if (0.0 < z <= 80.0 and b > 0.0 and a >= -10.0
            and (a > 0.0 or a % 1.0 != 0.0)):
        v, e = _kummer_series(a, b, z)
        return HypergeomResult(v, e, "DirectSeries")
    return _kummer(a, b, z, False)


def kummer_m_da(a: float, b: float, z: float) -> HypergeomResult:
    """dM/da at (a, b, z), by the route `kummer_m` takes at the same
    point: each series differentiates its own sum term by term, except
    that z > 80 with |a| <= 10 keeps the differentiated float series
    instead of the asymptotic expansion."""
    return _kummer(a, b, z, True)


# ----------------------------------------------------------------------
# Tricomi U
# ----------------------------------------------------------------------

# U's Laplace integral by one exp-sinh pass.  Level 0 steps s by 1/2 and
# level k > 0 holds only the new midpoints at step 2^-(k+1); the rules
# that accept a level are `_u_laplace`'s.
_ES_TOL = 1e-13
_ES_EST_TOL = 1e-11
_ES_FALL = 100.0
_ES_ONE_PEAK = 0.2
_ES_MIN_LEVEL = 2
_ES_MAX_LEVEL = 7
# a level-0 node below this share of the running sum ends its side
_ES_CUT = 1e-20
# an extrapolated error claims at least this share of its sum
_ES_FLOOR = 16.0 * _EPS


@functools.cache
def _es_nodes(level: int):
    """A level's nodes as a pair of tuples, for s >= 0 and s < 0, of
    (|s|, u, expm1(u), w) with u = pi/2 sinh s and w = h pi/2 cosh s,
    out to |u| = 700, where exp(u) still fits a float.  s = 0 opens the
    level-0 tuple for s >= 0."""
    h = 0.5 ** (level + 1)
    step = 1 if level == 0 else 2
    pos = [(0.0, 0.0, 0.0, h * 0.5 * math.pi)] if level == 0 else []
    neg = []
    k = 1
    while True:
        s = k * h
        u = 0.5 * math.pi * math.sinh(s)
        if u > 700.0:
            return tuple(pos), tuple(neg)
        w = h * 0.5 * math.pi * math.cosh(s)
        pos.append((s, u, math.expm1(u), w))
        neg.append((s, -u, math.expm1(-u), w))
        k += step


def _u_laplace(a: float, b: float, z: float, want_da: bool = False):
    """U(a) and U(a+1) at (b, z) from one exp-sinh pass over the Laplace
    integral, a >= 1/2:
        Gamma(a) U(a) = int_0^inf e^(-zt) t^(a-1) (1+t)^(b-a-1) dt,
    and Gamma(a+1) U(a+1) integrates the same times x = t/(1+t).  With
    want_da the same nodes weighted by ln x give dU/da at a and a+1:
        dU/da = -psi(a) U + (1/Gamma(a)) int (...) ln x dt.
    Returns (values, errors): U(a), U(a+1) and, with want_da, dU/da at
    a and a+1.

    Each level halves the step, so a level's difference d from the last
    estimates the last one's error.  A level from 3 on whose every
    difference fell at least 100-fold from the one before, d_old, is
    accepted once the extrapolated error d^2/d_old is within 1e-11 of its
    sum; its errors claim that estimate, which assumes the fall does not
    slow.  That holds only where the integrand is one peak in ln t: with
    z c < 0.2 (c the peak) e^(-zt) cuts it off ln(1/(z c)) beyond the
    peak, and the error of that second feature falls on its own schedule
    (the tests' MISLEADING_LEVELS), so there the rule is not used.  Near
    the rounding floor the fall slows too, so the claim is never below
    16 eps of the sum (their FLOOR_POINTS).  Any level from 2 on is
    accepted once two levels agree to 1e-13, for sums that stall at
    rounding level, and then claims d.

    One node loop serves every level and adds the ln x sums only with
    want_da.  Level 0 ends each side where a node falls below 1e-20 of
    the running sum and its sums become the running sums; a later level
    stops at that cutoff, halves the running sums and adds its own.  The
    sums and tests are scalars and |w ln x| a conditional:
    `_u_laplace_calling_abs` in the tests, with per-level tuples and
    `abs`, gives the same bits but a NaN's sign.
    """
    # t = c exp(u), u = pi/2 sinh s, about the peak of the integrand in
    # ln t, the positive root c of z t^2 + (z+1-b) t - a = 0.  Each node
    # takes its exponent relative to the peak's, in u and expm1(u), so
    # none overflows and none loses digits to cancellation
    bb = z + 1.0 - b
    root = math.sqrt(bb * bb + 4.0 * a * z)
    c = 2.0 * a / (bb + root) if bb >= 0.0 else (root - bb) / (2.0 * z)
    zc = z * c
    r = c / (1.0 + c)
    ln_c = math.log(c)
    e = b - a - 1.0
    exp, log1p = math.exp, math.log1p
    # running sums of w, w x, w ln x, w x ln x and |w ln x| over the
    # levels so far; without want_da the last three stay 0
    s0 = s1 = l0 = l1 = m = d2 = d3 = 0.0
    cuts = [math.inf, math.inf]
    for level in range(_ES_MAX_LEVEL + 1):
        n0 = n1 = k0 = k1 = km = 0.0
        for side, nodes in enumerate(_es_nodes(level)):
            cut = cuts[side]
            for s, u, em1, w in nodes:
                if s > cut:
                    break
                f = w * exp(a * u - zc * em1 + e * log1p(r * em1))
                if not level and f < _ES_CUT * n0:
                    cuts[side] = s
                    break
                t = c + c * em1
                x = t / (1.0 + t)
                n0 += f
                n1 += f * x
                if want_da:
                    fl = f * (ln_c + u - log1p(t) if t <= 1.0
                              else -log1p(1.0 / t))
                    k0 += fl
                    k1 += fl * x
                    km += fl if fl >= 0.0 else -fl
        if not level:
            s0, s1, l0, l1, m = n0, n1, k0, k1, km
            continue
        n0, n1 = 0.5 * s0 + n0, 0.5 * s1 + n1
        d0, d1, s0, s1 = abs(n0 - s0), abs(n1 - s1), n0, n1
        if want_da:
            k0, k1, m = 0.5 * l0 + k0, 0.5 * l1 + k1, 0.5 * m + km
            d2, d3, l0, l1 = abs(k0 - l0), abs(k1 - l1), k0, k1
        if (level > _ES_MIN_LEVEL and zc >= _ES_ONE_PEAK
                and _ES_FALL * d0 <= o0 and _ES_FALL * d1 <= o1
                and _ES_FALL * d2 <= o2 and _ES_FALL * d3 <= o3):
            # every difference fell _ES_FALL-fold; if the next falls as
            # fast, this level is off by about d^2/d_old
            x0, x1 = d0 * d0 / o0 if d0 else 0.0, d1 * d1 / o1 if d1 else 0.0
            x2, x3 = d2 * d2 / o2 if d2 else 0.0, d3 * d3 / o3 if d3 else 0.0
            if (x0 <= _ES_EST_TOL * s0 and x1 <= _ES_EST_TOL * s1
                    and x2 <= _ES_EST_TOL * m and x3 <= _ES_EST_TOL * m):
                d0, d1 = max(x0, _ES_FLOOR * s0), max(x1, _ES_FLOOR * s1)
                d2, d3 = max(x2, _ES_FLOOR * m), max(x3, _ES_FLOOR * m)
                break
        if (level >= _ES_MIN_LEVEL and d0 <= _ES_TOL * s0
                and d1 <= _ES_TOL * s1 and d2 <= _ES_TOL * m
                and d3 <= _ES_TOL * m):
            break
        o0, o1, o2, o3 = d0, d1, d2, d3
    ln1p_c = log1p(c)
    peak = exp(a * ln_c - zc + e * ln1p_c)
    inv_g = inv_gamma(a)
    scale = peak * inv_g
    # rounding of the peak exponent, and of 1/Gamma(a)
    rel = _EPS * (abs(a * ln_c) + zc + abs(e * ln1p_c)) + _gamma_rel_err(a)
    u0 = scale * s0
    su1 = scale * s1
    u1 = su1 / a
    # where a factor or a product lands below the smallest normal float,
    # its rounding is absolute and no relative term covers it
    tiny = (_subnormal(peak) * inv_g + _subnormal(inv_g) * peak
            + _subnormal(scale))
    eu0 = (scale * (d0 + _EPS * 8.0 * s0) + rel * u0
           + tiny * s0 + _subnormal(u0))
    eu1 = (scale * (d1 + _EPS * 8.0 * s1) / a + rel * u1
           + (tiny * s1 + _subnormal(su1)) / a + _subnormal(u1))
    if not want_da:
        return (u0, u1), (eu0, eu1)
    psi = digamma(a)
    psi1 = psi + 1.0 / a
    ed = scale * (max(d2, d3) + _EPS * 8.0 * m) + tiny * m
    sl0 = scale * l0
    sl1 = scale * l1
    # each derivative's own roundings: 3 and 4, all subnormal where its
    # terms sum below the smallest normal float
    ed0 = 3.0 * _subnormal(abs(psi * u0) + abs(sl0))
    ed1 = 4.0 * _subnormal(abs(psi1 * u1) + abs(sl1))
    return ((u0, u1, -psi * u0 + sl0, -psi1 * u1 + sl1 / a),
            (eu0, eu1, abs(psi) * eu0 + ed + rel * scale * abs(l0) + ed0,
             abs(psi1) * eu1 + (ed + rel * scale * abs(l1)) / a + ed1))


def _u_integral(a: float, b: float, z: float, want_da: bool = False):
    """U (or dU/da) via the Laplace integral.  a < 1/2 is raised by the
    recurrence U(a) = p_n U(a+n) + q_n U(a+n+1), n = ceil(1/2 - a), run
    toward smaller a, where it is stable; its coefficients are
    differentiated in a alongside when want_da.  One pass at a+n gives
    both U values (and both derivatives)."""
    n = max(0, int(math.ceil(0.5 - a)))
    p, q, dp, dq = 1.0, 0.0, 0.0, 0.0
    coeffs = []  # each step's (c, s, t)
    rounding = []  # each step's rounding of p, q, dp, dq
    log_scale = 0.0
    for k in range(1, n + 1):
        # b - 2k and k + 1 - b are exact for the integer and half-integer b
        # callers use, so a coefficient that nearly cancels keeps its digits
        bk = (b - 2.0 * k) - 2.0 * a
        c = bk - z
        ec = _EPS * (abs(bk) + abs(c))
        ak = a + k
        r = a + (k + 1.0 - b)
        s = ak * r
        t = ak + r
        edp = edq = 0.0
        if want_da:
            edp = ec * abs(dp) + _EPS * 2.0 * (abs(dq) + 2.0 * abs(p)
                                               + abs(c * dp))
            edq = _EPS * 4.0 * (abs(t * p) + abs(s * dp))
            dp, dq = dq + 2.0 * p - c * dp, -t * p - s * dp
        coeffs.append((c, s, t))
        rounding.append((ec * abs(p) + _EPS * 2.0 * (abs(q) + abs(c * p)),
                         _EPS * 4.0 * abs(s * p), edp, edq))
        p, q = q - c * p, -s * p
        big = max(abs(p), abs(q), abs(dp), abs(dq))
        if big > 1e250:
            p, q, dp, dq = p / big, q / big, dp / big, dq / big
            rounding = [tuple(e / big for e in row) for row in rounding]
            log_scale += math.log(big)
    scale = math.exp(log_scale) if log_scale < 700.0 else math.inf
    method = "RecurrenceShift" if n else "IntegralRep"
    try:
        vals, errs = _u_laplace(a + n, b, z, want_da)
    except (ValueError, OverflowError):
        # at tiny z the pass's log1p(r (e^u - 1)) meets r = c/(1+c)
        # rounded to 1, or its peak's exp passes float range; past z ~
        # 1e154 the peak's root squares z past float range and c is 0
        name = "tricomi_u_da" if want_da else "tricomi_u"
        raise ValueError(
            f"{name} cannot be evaluated at z = {z!r} (a = {a!r}, "
            f"b = {b!r}): its Laplace integral cannot be formed in floats "
            "there") from None
    if want_da:
        u1, u2, d1, d2 = vals
        e1, e2, de1, de2 = errs
        # the pass's dU/da at x = a+n and x+1 read psi(x) and psi(x) + 1/x,
        # which err by at most eps (2 + 4/x + 1.5 ln(x + 10)): against
        # 40-digit mpmath, 0.75 of that on 24,000 x from 1/2 to 1,000
        epsi = _EPS * (2.0 + 4.0 / (a + n) + 1.5 * math.log(a + n + 10.0))
        de1, de2 = de1 + epsi * abs(u1), de2 + epsi * abs(u2)
        value = dp * u1 + p * d1 + dq * u2 + q * d2
        terms = abs(dp * u1) + abs(p * d1) + abs(dq * u2) + abs(q * d2)
        # 7 roundings, all subnormal where the terms sum below the
        # smallest normal float; above it the relative term covers them
        err = (abs(dp) * e1 + abs(p) * de1 + abs(dq) * e2 + abs(q) * de2
               + _EPS * 4.0 * terms + 7.0 * _subnormal(terms))
    else:
        u1, u2 = vals
        e1, e2 = errs
        d1 = d2 = 0.0
        value = p * u1 + q * u2
        terms = abs(p * u1) + abs(q * u2)
        err = (abs(p) * e1 + abs(q) * e2
               + _EPS * 2.0 * terms + 3.0 * _subnormal(terms))
    # U(a) = p_k U(a+k) + q_k U(a+k+1) at every k (and its a-derivative),
    # so step k's rounding reaches the result weighted by U and dU/da at
    # a+k and a+k+1, which the recurrence gives run down from the pass
    for (c, s, t), (ep, eq, edp, edq) in zip(coeffs[::-1], rounding[::-1]):
        if want_da:
            err += (edp * abs(u1) + ep * abs(d1)
                    + edq * abs(u2) + eq * abs(d2))
            d1, d2 = -c * d1 - s * d2 + 2.0 * u1 - t * u2, d1
        else:
            err += ep * abs(u1) + eq * abs(u2)
        u1, u2 = -c * u1 - s * u2, u1
    value *= scale
    return value, scale * err + _subnormal(value), method


def _u_asympt(a: float, b: float, z: float):
    """Large-z expansion U ~ z^-a 2F0(a, a-b+1; ; -1/z), by `_two_f0`.

    `tricomi_u` calls it only where |a (a-b+1)| <= 0.7 z, so the terms
    fall from the first one on until k nears z.  Returns None unless the
    smallest term summed is below 1e-15 of the sum; +/-inf past float range.
    """
    s, least = _two_f0(a, a - b + 1.0, -z)
    if not least < 1e-15 * abs(s):
        return None
    lz = math.log(z)
    try:
        pref = math.exp(-a * lz)
    except OverflowError:
        return math.copysign(math.inf, s), math.inf
    # no term exceeds the first; z^-a's exponent a ln z is rounded
    err = pref * (least + _EPS * (8.0 * (abs(s) + 1.0)
                                  + 2.0 * abs(a * lz) * abs(s)))
    return pref * s, err


# Gamma-factor pairs of U's two-Kummer combination, one per (a, b); 128
# holds every mode of several bases.  Forming them on every call cost 20%
# of `curve-eval` `wall_s` (`BENCH_fork_audit.json`)
_U_FACTOR_CACHE = 128


@functools.lru_cache(maxsize=_U_FACTOR_CACHE)
def _u_gamma_factors(a: float, b: float):
    """The (a, b)-only part of U's two-Kummer combination:
    Gamma(1-b)/Gamma(a-b+1), Gamma(b-1)/Gamma(a), the first term's
    relative rounding and the gamma part of the second's."""
    g1 = gamma_fn(1.0 - b) * inv_gamma(a - b + 1.0)
    g2 = gamma_fn(b - 1.0) * inv_gamma(a)
    rel1 = _gamma_rel_err(1.0 - b) + _gamma_rel_err(a - b + 1.0)
    rel2 = _gamma_rel_err(b - 1.0) + _gamma_rel_err(a)
    return g1, g2, rel1, rel2


def _u_two_kummer(a: float, b: float, z: float, m1: float, e1: float,
                  m2: float, e2: float):
    """U's two-Kummer combination at non-integer b from m1 = M(a, b, z)
    and m2 = M(a-b+1, 2-b, z) with claims e1 and e2: (value, claim, the
    larger term's size).  The claim adds the gamma factors' rounding
    and that of z^(1-b).  A factor beyond float range raises
    OverflowError."""
    c1, g2, rel1, rel2 = _u_gamma_factors(a, b)
    c2 = g2 * z ** (1.0 - b)
    t1 = c1 * m1
    t2 = c2 * m2
    big = max(abs(t1), abs(t2))
    rel2 += _EPS * abs((1.0 - b) * math.log(z))
    return t1 + t2, (abs(c1) * e1 + abs(c2) * e2 + rel1 * abs(t1)
                     + rel2 * abs(t2) + _EPS * 8.0 * big), big


def _u_result(value: float, err: float, method: str) -> HypergeomResult:
    """U's or dU/da's result, claiming inf where the value is +/-inf: a
    claim's own arithmetic can meet inf - inf there, as the Laplace
    route's backward loop does, which runs U and dU/da down from the pass
    unscaled."""
    if abs(value) == math.inf:
        err = math.inf
    return HypergeomResult(value, err, method)


def tricomi_u(a: float, b: float, z: float) -> HypergeomResult:
    """Tricomi confluent hypergeometric U(a, b, z), z > 0.

    z >= 40 with |a (a-b+1)| <= 0.7 z, where the terms of the z^-a
    expansion fall from the first, takes that expansion when it
    converges (AsymptoticZ).  Otherwise non-integer b uses the two-Kummer
    combination
        U = Gamma(1-b)/Gamma(a-b+1) M(a, b, z)
            + Gamma(b-1)/Gamma(a) z^(1-b) M(a-b+1, 2-b, z)
    (DirectSeries), whose claim adds the rounding of its gamma factors.
    The gamma factors and their rounding depend on (a, b) alone and are
    cached per (a, b) (`_u_gamma_factors`), since a basis evaluates each
    mode's (a, b) at many z; each call still forms z^(1-b) and its
    rounding.  Integer b, where that combination is singular, and a
    combination that loses too many digits, overflows, gives NaN or
    needs an M series beyond its term budget take the Laplace integral
    (IntegralRep for a >= 1/2, RecurrenceShift from a+n below), which
    has no restriction on b.  A U beyond float range returns +/-inf,
    with claim inf: U(-97.211, 1/2, 6000) is inf, U(-204, 1/2, 2.76)
    -inf.  z <= 0, NaN and inf raise ValueError, and so does a z at
    which the Laplace integral, where it is taken, cannot be formed in
    floats: so near 0 as (0.5, 2, 1e-20) and (-56.73, 3, 6.7e-297), or
    past about 1e154.
    """
    if not 0.0 < z < math.inf:
        raise ValueError(f"tricomi_u requires finite z > 0, got {z!r}")
    if a == 0.0:
        # the integral representation degenerates: U(0, b, z) = 1
        return HypergeomResult(1.0, 0.0, "DirectSeries")
    if z >= 40.0 and abs(a * (a - b + 1.0)) <= 0.7 * z:
        asympt = _u_asympt(a, b, z)
        if asympt is not None:
            return _u_result(asympt[0], asympt[1], "AsymptoticZ")
    if b != math.floor(b):
        try:
            m1 = kummer_m(a, b, z)
            m2 = kummer_m(a - b + 1.0, 2.0 - b, z)
            value, err, big = _u_two_kummer(
                a, b, z, m1.value, m1.abs_err_estimate,
                m2.value, m2.abs_err_estimate)
        except (OverflowError, NonConvergenceError):
            # an M or a factor beyond float range, or an M series beyond
            # its term budget, though U may fit a float
            pass
        else:
            # a sum that lost 8 digits or more, or a NaN value or claim,
            # falls back on the integral
            if abs(value) >= 1e-8 * big and err <= 1e-8 * abs(value):
                return _u_result(value, err, "DirectSeries")
    return _u_result(*_u_integral(a, b, z))


def tricomi_u_da(a: float, b: float, z: float) -> HypergeomResult:
    """dU/da at (a, b, z), z > 0, by the Laplace integral for every b:
    the one pass that gives U weights its integrand by ln(t/(1+t)) at
    the same nodes (IntegralRep for a >= 1/2, RecurrenceShift from a+n
    below).  A dU/da beyond float range returns +/-inf, with claim inf:
    -inf at (-97.211, 1/2, 6000), inf at (-204, 1/2, 2.76).  z <= 0, NaN
    and inf raise ValueError, and so does a z at which the Laplace
    integral cannot be formed in floats: so near 0 as (0.5, 2, 1e-20),
    or past about 1e154, as (0.7, 2, 1e200)."""
    if not 0.0 < z < math.inf:
        raise ValueError(f"tricomi_u_da requires finite z > 0, got {z!r}")
    return _u_result(*_u_integral(a, b, z, want_da=True))
