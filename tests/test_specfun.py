"""Tests for the confluent-hypergeometric / special-function layer.

Reference values were frozen from independent oracles: exact rational
summation for terminating series, the logarithmic integer-b series for
the Tricomi function, adaptive quadrature of the Laplace integral,
long Taylor summations, and mpmath (40 significant digits) for
scattered spot values.  Derivatives are checked against central finite
differences of the value routines themselves.
"""

import math
import random
from fractions import Fraction

import pytest

from ouexit.specfun import (
    HypergeomResult,
    NonConvergenceError,
    bessel_j,
    dawson,
    digamma,
    erfcx,
    gamma_fn,
    inv_gamma,
    kummer_m,
    kummer_m_da,
    tricomi_u,
    tricomi_u_da,
)
from ouexit import specfun
from ouexit.specfun import _kummer_fixed

EULER_GAMMA = 0.5772156649015328606
SQRT_PI = 1.7724538509055160273

METHOD_TAGS = {"DirectSeries", "FixedPoint", "IntegralRep",
               "RecurrenceShift", "AsymptoticZ"}

# mpmath spot references (40 digits), 17 significant digits.  The pairs
# at z = 1.445, 0.08, 2, 4.5 and U at z = 18 are the Kummer and Tricomi
# arguments of the parabolic cylinder function D_nu(z) at (nu, z) =
# (3, 1.7), (-1.3, 0.4), (-0.5, -2), (5.5, 3) and (2.3, 6).  The rest
# reach every route of M: the asymptotic branch at z > 80, where exp's
# argument is rounded; the fixed-point series at a < -10 below and above
# z = 20, next to a root in a (A_ROOT) and next to a negative integer,
# at non-integer b <= 0, and at terminating a beyond z = 80.  The two
# points at a ~ -1e-20 keep the float series going past tiny leading
# terms while later ones still grow toward n ~ z.
A_ROOT = -31.2494813213869  # M(A_ROOT, 3/2, 5) = -1.04e-16
KUMMER_REFERENCE = {
    (-7.3, 1.5, 11.0): -13.199596423034377,
    (-212.5, 0.5, 26.0): -421458.13939913285,
    (-37.0, 1.0, 19.0): 569.87636118578255,
    (2.4, 3.7, 33.0): 7234287459944.4719,
    (-0.5, 0.5, 50.0): -5.3486233597115376e+19,
    (12.0, 0.5, 3.0): 359373.27063325589,
    (-1.5, 0.5, 1.445): -2.1718972608212496,
    (-1.0, 1.5, 1.445): 0.036666666666666625,
    (0.65, 0.5, 0.08): 1.1087080913243121,
    (1.15, 1.5, 0.08): 1.0634947849386409,
    (0.25, 0.5, 2.0): 3.6910910434507266,
    (0.75, 1.5, 2.0): 3.2929272628498579,
    (-2.75, 0.5, 4.5): 8.7815403754366029,
    (-2.25, 1.5, 4.5): 0.81358531398124707,
    (-2.5e-15, 0.5, 100.0): -1.1971882502484716e+28,
    (3.3, 1.5, 200.0): 3.3769517824159616e+90,
    (0.25, 1.5, 300.0): 3.8147922375916558e+126,
    (-25.5, 1.5, 7.25): 1.1678761710472724,
    (-120.25, 0.5, 3.1): 2.8801225517766325,
    (A_ROOT, 1.5, 5.0): -1.0364297506063588e-16,
    (-11.1, 1.5, 90.0): 9.7631863516331802e+21,
    (-25.7, 0.5, 60.0): 2.8801113653004698e+12,
    (-60.2, 1.5, 45.0): 4.6303781102004301e+7,
    (-100.9, 0.5, 33.0): 9.7380270273560839e+6,
    (-150.3, 1.5, 25.0): 1.0042578858402344e+3,
    (-20.0 + 1e-9, 1.5, 4.0): -2.8738845341993381e-1,
    (-15.5, -0.5, 3.0): 4.907331456667765e+1,
    (-12.25, -1.75, 8.0): -1.3967795841207397e+4,
    (-3.0, 1.5, 100.0): -6.838947619047619e+4,
    (-12.0, 0.5, 90.0): 6.1790630393562585e+14,
    (-4.4e-20, 0.5, 50.0): -56.772878147732309,
    (-2e-21, 1.5, 40.0): 0.99999828474308083,
}
# dM/da, 60-digit mpmath.diff of hyp1f1 (agreeing with an 80-digit
# difference to 30 digits), 17 significant digits; the last three keep
# the float series at z > 80, where M itself goes asymptotic
KUMMER_DA_REFERENCE = {
    (-25.5, 1.5, 7.25): 4.1851176042945758e-1,
    (-120.25, 0.5, 3.1): 6.002743864737388e-1,
    (A_ROOT, 1.5, 5.0): -1.9352166440903313e-1,
    (-60.2, 1.5, 45.0): -3.2595924688743582e+7,
    (-150.3, 1.5, 25.0): 8.0832112071547601e+2,
    (-20.0 + 1e-9, 1.5, 4.0): -1.3686616519555736e-1,
    (-15.5, -0.5, 3.0): -1.8095601278102008e+1,
    (-3.0, 1.5, 100.0): -1.7273308834653178e+35,
    (-33.0, 0.5, 3.0): 1.1794418055806147,
    (2.5, 1.5, 85.0): 1.7869741665767726e+39,
    (-3.7, 0.5, 90.0): 3.5206356744657089e+32,
    (0.25, 1.5, 300.0): 3.7860001232094779e+127,
}
TRICOMI_REFERENCE = {
    (1.3, 1.0, 5.0): 0.09504730210817571,
    (3.7, 2.0, 12.0): 5.2549398964091001e-05,
    (-2.5, 0.5, 3.0): -3.8971143170299739,
    (0.4, -0.5, 1.0): 0.69011494257715994,
    (6.0, 4.5, 25.0): 2.4540373144387557e-09,
    (-1.15, 0.5, 18.0): 26.614359636660007,
    # integer b with a and z both near 0
    (-4.2156512561545806e-05, 2.0, 0.0018184282015016565):
        0.97655161518084264,
    # an exterior deep trap's root: the z^-a expansion's terms would rise
    # before they fall, so the two-Kummer combination serves
    (-20.93, 0.5, 50.0): 2.332498593717463e+28,
}
# D_nu(z) at (nu, z), mpmath
PARABOLIC_REFERENCE = {
    (3.0, 1.7): -0.090795399393812855,
    (-1.3, 0.4): 0.8181108067569605,
    (2.3, 6.0): 0.0072887017425497074,
    (-0.5, -2.0): 3.0600977719909658,
    (5.5, 3.0): -2.0138190213612993,
}
# J_n(x) at (n, x), mpmath
BESSEL_REFERENCE = {
    (0, 1.0): 0.76519768655796655,
    (2, 3.0): 0.48609126058589108,
    (22, 150.0): -0.065465117239980391,
    (30, 200.0): -0.052122279029882832,
    (1, 12.5): -0.16548380461475972,
}
DAWSON_REFERENCE = {
    0.5: 0.4244363835020223,
    1.0: 0.53807950691276842,
    3.7: 0.14075117411541541,
    10.0: 0.050253847187598528,
    25.0: 0.020016038554466408,
}
ERFCX_REFERENCE = {
    -3.0: 16205.988853999587,
    0.5: 0.61569034419292587,
    5.0: 0.11070463773306863,
    30.0: 0.018795888861416751,
    100.0: 0.0056416137829894329,
}

# oracle outputs, frozen to guard the oracles themselves
TRICOMI_LOG_SERIES_AT_13_2_1 = 0.80944120878392236
TRICOMI_QUADRATURE_AT_2_05_40 = 0.00055581273573945467


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def exact_terminating_kummer(n: int, b, z) -> Fraction:
    """M(-n, b, z) summed exactly in rational arithmetic."""
    fb = Fraction(b)
    fz = Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(n):
        term *= Fraction(-n + k) * fz / ((fb + k) * (k + 1))
        total += term
    return total


def log_series_tricomi_b2(a: float, z: float, terms: int = 120) -> float:
    """U(a, 2, z) by the explicit logarithmic series for integer b.

    The b = n+1 continuation combines M(a, n+1, z) ln z with a
    digamma-weighted companion series and a finite z^-n part; for n = 1
    the finite part is 1/(Gamma(a) z).
    """
    poch_a = 1.0
    poch_b = 1.0
    fact = 1.0
    zk = 1.0
    m_sum = 0.0
    psi_sum = 0.0
    for k in range(terms):
        coeff = poch_a / (poch_b * fact) * zk
        m_sum += coeff
        psi_sum += coeff * (digamma(a + k) - digamma(1.0 + k)
                            - digamma(2.0 + k))
        poch_a *= a + k
        poch_b *= 2.0 + k
        fact *= k + 1.0
        zk *= z
    first = (m_sum * math.log(z) + psi_sum) / gamma_fn(a - 1.0)
    return first + 1.0 / (gamma_fn(a) * z)


def laplace_integral_tricomi(a: float, b: float, z: float) -> float:
    """U(a, b, z) for a > 0 by adaptive quadrature of
    e^(-z t) t^(a-1) (1+t)^(b-a-1) / Gamma(a) over [0, inf)."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: math.exp(-z * t) * t ** (a - 1.0)
                  * (1.0 + t) ** (b - a - 1.0), 0.0, math.inf)
    return val / gamma_fn(a)


def ascending_bessel_series(nu: float, x: float, terms: int = 40) -> float:
    half = 0.5 * x
    total = 0.0
    for k in range(terms):
        total += ((-1.0) ** k * half ** (2 * k + nu)
                  / (math.factorial(k) * gamma_fn(k + nu + 1.0)))
    return total


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ----------------------------------------------------------------------
# result bookkeeping
# ----------------------------------------------------------------------


def test_result_error_estimate_nonnegative_and_finite():
    for args in KUMMER_REFERENCE:
        r = kummer_m(*args)
        assert math.isfinite(r.value)
        assert r.abs_err_estimate >= 0.0 and math.isfinite(r.abs_err_estimate)
    for args in TRICOMI_REFERENCE:
        r = tricomi_u(*args)
        assert r.abs_err_estimate >= 0.0 and math.isfinite(r.abs_err_estimate)


def test_result_method_tag_is_valid_enum_member():
    for args in KUMMER_REFERENCE:
        assert kummer_m(*args).method in METHOD_TAGS
    for args in TRICOMI_REFERENCE:
        assert tricomi_u(*args).method in METHOD_TAGS


def test_method_tag_tracks_routing():
    assert kummer_m(-37.0, 1.0, 19.0).method == "FixedPoint"
    assert kummer_m(-3.0, 1.5, 2.0).method == "FixedPoint"
    assert kummer_m(-10.5, 1.5, 30.0).method == "FixedPoint"
    assert kummer_m(-3.5, 1.5, 2.0).method == "DirectSeries"
    assert kummer_m(0.25, 1.5, 300.0).method == "AsymptoticZ"
    assert kummer_m_da(0.25, 1.5, 300.0).method == "DirectSeries"
    assert tricomi_u(1.3, 2.0, 1.0).method == "IntegralRep"
    assert tricomi_u(-0.25, 0.5, 30.0).method == "RecurrenceShift"
    assert tricomi_u(-0.25, 0.5, 50.0).method == "AsymptoticZ"


def test_error_estimates_bound_true_error_on_reference_grid():
    checks = []
    for args, ref in KUMMER_REFERENCE.items():
        checks.append((kummer_m(*args), ref))
    for args, ref in KUMMER_DA_REFERENCE.items():
        checks.append((kummer_m_da(*args), ref))
    for args, ref in TRICOMI_REFERENCE.items():
        checks.append((tricomi_u(*args), ref))
    for r, ref in checks:
        # slack covers representation rounding of the frozen reference
        # and of intermediate arguments (e.g. z*z/2), neither of which
        # a routine can account for in its own estimate
        slack = 8.0 * 2.3e-16 * abs(ref)
        assert abs(r.value - ref) <= r.abs_err_estimate + slack


@pytest.mark.parametrize("fn, args, error, named", [
    # the fixed-point series' stop test cannot hold within its term budget
    pytest.param(kummer_m, (-1e6, 0.5, 1e3), NonConvergenceError,
                 "fixed-point", id="kummer_m-fixed-point-budget"),
    # the float series needs more terms than its budget at z = 2e4
    pytest.param(kummer_m_da, (1.0, 1.5, 2e4), NonConvergenceError,
                 "converge", id="kummer_m_da-float-series-budget"),
    pytest.param(kummer_m, (1.0, 1.5, -1.0), ValueError, "z >= 0",
                 id="kummer_m-z-negative"),
    pytest.param(kummer_m, (-20.5, 1.5, -1e-300), ValueError, "z >= 0",
                 id="kummer_m-z-tiny-negative"),
    pytest.param(kummer_m, (1.0, 1.5, math.nan), ValueError, "z >= 0",
                 id="kummer_m-z-nan"),
    pytest.param(kummer_m_da, (1.0, 1.5, -1.0), ValueError, "z >= 0",
                 id="kummer_m_da-z-negative"),
    pytest.param(tricomi_u_da, (1.0, 1.5, 0.0), ValueError, "z > 0",
                 id="tricomi_u_da-z-zero"),
    pytest.param(tricomi_u_da, (-0.5, 2.0, -1.0), ValueError, "z > 0",
                 id="tricomi_u_da-z-negative"),
    pytest.param(gamma_fn, (0.0,), ValueError, "pole", id="gamma_fn-0"),
    pytest.param(gamma_fn, (-3.0,), ValueError, "pole", id="gamma_fn-minus-3"),
])
def test_special_functions_raise_typed_errors(fn, args, error, named):
    with pytest.raises(error, match=named):
        fn(*args)


# mpmath (40 digits); below x = -62.5 gamma_fn reflects instead of taking
# more than 64 upward steps
def test_gamma_fn_reflection_below_minus_62_keeps_its_claim():
    ref = -3.118029783727029643017991483806049636429e-101
    x = -70.5
    assert abs(gamma_fn(x) - ref) <= specfun._gamma_rel_err(x) * abs(ref)


# ----------------------------------------------------------------------
# kummer_m
# ----------------------------------------------------------------------


def test_kummer_m_is_one_when_a_is_zero():
    assert kummer_m(0.0, 0.5, 3.7).value == 1.0


@pytest.mark.parametrize("z", [0.5, 2.0])
def test_kummer_m_collapses_to_exponential_when_a_equals_b(z):
    r = kummer_m(1.0, 1.0, z)
    assert r.value == pytest.approx(math.exp(z), rel=1e-13)


@pytest.mark.parametrize("z", [0.0, 0.3, 1.7, 12.0])
def test_kummer_m_terminating_linear_polynomial(z):
    r = kummer_m(-1.0, 0.5, z)
    assert r.value == pytest.approx(1.0 - 2.0 * z, rel=1e-13, abs=1e-13)


def test_kummer_m_buchholz_path_matches_exact_summation():
    # degree-20 terminating polynomial: the fixed-point series against
    # exact rational summation
    exact = float(exact_terminating_kummer(20, Fraction(3, 2), 2))
    fixed, _ = _kummer_fixed(-20.0, 1.5, 2.0, False)
    assert fixed == pytest.approx(exact, rel=1e-10)
    assert kummer_m(-20.0, 1.5, 2.0).value == pytest.approx(exact, rel=1e-10)


def test_kummer_m_reference_values():
    for args, ref in KUMMER_REFERENCE.items():
        r = kummer_m(*args)
        assert r.value == pytest.approx(ref, rel=1e-10), args


@pytest.mark.parametrize("b", [0.0, -1.0, -4.0])
def test_kummer_m_rejects_nonpositive_integer_b(b):
    with pytest.raises(ValueError):
        kummer_m(1.0, b, 2.0)


def test_dual_path_agreement_on_negative_a_grid():
    # fixed-point series against exact rational summation of the
    # terminating series, over a in [-50, -5], b in {1/2, 1, 3/2},
    # z in (0, 5]
    for ai in range(10):
        a = -50.0 + 5.0 * ai
        n = int(-a)
        for b in (0.5, 1.0, 1.5):
            for z in (1.0, 2.0, 3.0, 4.0, 5.0):
                exact = float(exact_terminating_kummer(
                    n, Fraction(b), Fraction(z)))
                approx, _ = _kummer_fixed(a, b, z, False)
                assert approx == pytest.approx(exact, rel=1e-10), (a, b, z)


def test_terminating_series_exact_through_degree_thirty():
    for n in range(1, 31):
        for b in (0.5, 1.5, 3.0):
            for z in (0.7, 2.5, 19.0, 50.0):
                exact = float(exact_terminating_kummer(
                    n, Fraction(b), Fraction(z)))
                r = kummer_m(float(-n), b, z)
                assert r.value == pytest.approx(
                    exact, rel=1e-12, abs=1e-290), (n, b, z)


def test_kummer_z_derivative_identity_on_grid():
    # d/dz M(a,b,z) = (a/b) M(a+1, b+1, z), checked against central
    # finite differences on a 100-point grid.  A fourth-order stencil
    # keeps the oracle's own error well under the 1e-8 target: with a
    # second-order stencil the series' cancellation noise (absolute,
    # ~1e-12 at a=-8.5) cannot be resolved past ~1e-7 at any step.
    a_values = [-8.5, -3.0, -0.7, 1.2, 4.0]
    b_values = [0.5, 1.5]
    z_values = [0.2, 0.9, 1.6, 2.3, 3.0, 3.7, 4.4, 5.1, 5.8, 6.5]
    for a in a_values:
        for b in b_values:
            for z in z_values:
                analytic = (a / b) * kummer_m(a + 1.0, b + 1.0, z).value
                h = 1e-3 * max(1.0, z)
                f = lambda t: kummer_m(a, b, t).value
                fd = (-f(z + 2 * h) + 8 * f(z + h)
                      - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)
                scale = max(abs(analytic), abs(fd), 1e-12)
                assert abs(analytic - fd) / scale < 1e-8, (a, b, z)


# ----------------------------------------------------------------------
# kummer_m_da
# ----------------------------------------------------------------------


@pytest.mark.parametrize("a,b", [(0.5, 1.5), (-3.0, 0.5), (-30.0, 2.0)])
def test_kummer_m_da_vanishes_at_z_zero(a, b):
    assert kummer_m_da(a, b, 0.0).value == 0.0


@pytest.mark.parametrize("a,b,z", [(-5.0, 1.5, 1.0), (-30.0, 0.5, 3.0)])
def test_kummer_m_da_matches_finite_difference(a, b, z):
    r = kummer_m_da(a, b, z)
    fd = central_difference(lambda t: kummer_m(t, b, z).value, a, 1e-5)
    assert r.value == pytest.approx(fd, rel=1e-6)


def test_kummer_m_da_buchholz_route_is_exercised():
    r = kummer_m_da(-33.0, 0.5, 3.0)
    assert r.method == "FixedPoint"
    fd = central_difference(lambda t: kummer_m(t, 0.5, 3.0).value,
                            -33.0, 1e-5)
    assert r.value == pytest.approx(fd, rel=1e-6)


def _one_loop_kummer_series(a, b, z, want_da=False):
    """The float series as one loop that carries the derivative on both
    paths and calls `abs` and `max` per term: the operation order that
    `_kummer_series`'s value and derivative loops must keep."""
    t = 1.0
    dt = 0.0
    s = 1.0
    ds = 0.0
    abs_sum = 1.0
    hits = 0
    n = 0
    while n < specfun._MAX_TERMS:
        r = z / ((b + n) * (n + 1.0))
        dt = dt * (a + n) * r + t * r
        t = t * (a + n) * r
        s += t
        ds += dt
        abs_sum += abs(dt) if want_da else abs(t)
        n += 1
        m = abs(t) if not want_da else max(abs(t), abs(dt))
        ref = abs(s) if not want_da else max(abs(s), abs(ds))
        if (m < specfun._SERIES_STOP * max(ref, 1e-300)
                and abs(a + n) * z < (b + n) * (n + 1)):
            hits += 1
            if hits >= 3:
                break
        else:
            hits = 0
    else:
        raise NonConvergenceError("no convergence")
    err = specfun._EPS * 8.0 * abs_sum + 4.0 * (abs(dt) if want_da else abs(t))
    return (ds, err) if want_da else (s, err)


def _series_outcome(series, a, b, z, want_da):
    """(value, claim) as exact hex text, NaN equal to NaN, or the type of
    the error raised."""
    try:
        value, claim = series(a, b, z, want_da)
    except Exception as exc:
        return type(exc)
    return value.hex(), claim.hex()


def _series_grid(count=5000):
    rng = random.Random(20261019)
    for _ in range(count):
        a = math.copysign(10.0 ** rng.uniform(-6.0, 1.0), rng.random() - 0.5)
        b = rng.choice([0.5, 1.5, 1.0, 2.0, -0.5, -2.5,
                        rng.uniform(-3.0, 4.0)])
        z = 10.0 ** rng.uniform(-4.0, math.log10(160.0))
        yield a, b, z, rng.random() < 0.5


# every term overflows (or, at z = inf, is inf or NaN from the first), so
# each ends in NonConvergenceError
SERIES_OVERFLOW = [(20.0, 0.5, 750.0), (3.0, -2.5, 1e3), (1.0, 1.5, 712.0),
                   (5.0, 2.0, 700.0), (1e-6, 0.5, 740.0),
                   (1.0, 1.5, math.inf), (-1e-6, 0.5, math.inf)]


def test_kummer_series_loops_keep_the_one_loop_bits_on_a_grid():
    for a, b, z, want_da in _series_grid():
        assert (_series_outcome(specfun._kummer_series, a, b, z, want_da)
                == _series_outcome(_one_loop_kummer_series, a, b, z,
                                   want_da)), (a, b, z, want_da)


@pytest.mark.parametrize("want_da", [False, True])
@pytest.mark.parametrize("a,b,z", SERIES_OVERFLOW)
def test_kummer_series_loops_raise_as_the_one_loop_on_overflow(a, b, z,
                                                               want_da):
    got = _series_outcome(specfun._kummer_series, a, b, z, want_da)
    assert got == _series_outcome(_one_loop_kummer_series, a, b, z, want_da)
    assert got is NonConvergenceError


# ----------------------------------------------------------------------
# tricomi_u
# ----------------------------------------------------------------------


def test_tricomi_u_is_one_when_a_is_zero():
    assert tricomi_u(0.0, 1.5, 2.0).value == 1.0


def test_tricomi_u_large_z_matches_quadrature_oracle():
    live = laplace_integral_tricomi(2.0, 0.5, 40.0)
    assert live == pytest.approx(TRICOMI_QUADRATURE_AT_2_05_40, rel=1e-8)
    r = tricomi_u(2.0, 0.5, 40.0)
    assert r.value == pytest.approx(TRICOMI_QUADRATURE_AT_2_05_40, rel=1e-6)


def test_tricomi_u_large_z_matches_truncated_asymptotic_series():
    # z^-a sum_k (a)_k (a-b+1)_k (-z)^-k / k!, truncated at its
    # smallest term, reproduces U(2, 0.5, 40) to 1e-6 relative
    a, b, z = 2.0, 0.5, 40.0
    term = 1.0
    total = 0.0
    best = math.inf
    for k in range(60):
        if abs(term) > best:
            break
        best = abs(term)
        total += term
        term *= -(a + k) * (a - b + 1.0 + k) / ((k + 1.0) * z)
    asymptotic = z ** (-a) * total
    assert tricomi_u(a, b, z).value == pytest.approx(asymptotic, rel=1e-6)


def test_tricomi_u_integer_b_matches_logarithmic_series_oracle():
    live = log_series_tricomi_b2(1.3, 1.0)
    assert live == pytest.approx(TRICOMI_LOG_SERIES_AT_13_2_1, rel=1e-10)
    r = tricomi_u(1.3, 2.0, 1.0)
    assert r.value == pytest.approx(TRICOMI_LOG_SERIES_AT_13_2_1, rel=1e-14,
                                    abs=0.0)


def test_tricomi_u_reference_values():
    for args, ref in TRICOMI_REFERENCE.items():
        r = tricomi_u(*args)
        assert r.value == pytest.approx(ref, rel=1e-6), args


@pytest.mark.parametrize("z", [0.0, -1.0])
def test_tricomi_u_rejects_nonpositive_z(z):
    with pytest.raises(ValueError):
        tricomi_u(1.0, 1.5, z)


def test_kummer_tricomi_consistency_within_reported_error():
    # reconstruct U from the two-Kummer combination and require
    # agreement within the reported error estimates of both sides
    points = [(1.3, 0.7, 2.0), (-0.5, 1.7, 1.0), (2.2, 0.3, 6.0),
              (0.4, -0.5, 1.0), (3.0, 2.5, 9.0)]
    for a, b, z in points:
        m1 = kummer_m(a, b, z)
        m2 = kummer_m(a - b + 1.0, 2.0 - b, z)
        t1 = gamma_fn(1.0 - b) * inv_gamma(a - b + 1.0) * m1.value
        t2 = gamma_fn(b - 1.0) * inv_gamma(a) * z ** (1.0 - b) * m2.value
        combination = t1 + t2
        noise = 2.3e-16 * 64.0 * (abs(t1) + abs(t2))
        r = tricomi_u(a, b, z)
        assert abs(combination - r.value) <= (
            r.abs_err_estimate + noise + 1e-300), (a, b, z)


TRICOMI_DA_POINTS = [
    (1.3, 0.7, 2.0),    # non-integer b, the pass at a itself
    (3.7, 1.0, 12.0),   # integer b
    (-2.5, 0.5, 3.0),   # shifted a
    (2.0, 2.0, 8.0),    # integer b, positive integer a
    (-0.5, 0.5, 18.0),  # 1/Gamma(a-b+1) = 0: U's combination loses a term
]


@pytest.mark.parametrize("a,b,z", TRICOMI_DA_POINTS)
def test_tricomi_u_da_matches_finite_difference(a, b, z):
    r = tricomi_u_da(a, b, z)
    fd = central_difference(lambda t: tricomi_u(t, b, z).value, a, 1e-5)
    assert r.value == pytest.approx(fd, rel=1e-6)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(specfun, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(specfun, name, counted)
    return calls


@pytest.mark.parametrize("a,b,z", TRICOMI_DA_POINTS)
def test_tricomi_u_da_decides_its_route_without_evaluating_u(monkeypatch,
                                                             a, b, z):
    calls = _counting(monkeypatch, "tricomi_u")
    tricomi_u_da(a, b, z)
    assert calls == []


def test_shifted_tricomi_u_da_makes_one_laplace_pass(monkeypatch):
    # a = -2.5 is raised to a + 3: one pass there gives U and dU/da at
    # a + 3 and a + 4, at integer and non-integer b alike, with no Kummer M
    passes = _counting(monkeypatch, "_u_laplace")
    kummer = _counting(monkeypatch, "kummer_m")
    for b in (1.0, 0.5):
        passes.clear()
        r = tricomi_u_da(-2.5, b, 3.0)
        assert r.method == "RecurrenceShift"
        assert passes == [(0.5, b, 3.0, True)]
    assert kummer == []


def test_integer_b_tricomi_u_and_da_make_one_laplace_pass(monkeypatch):
    # integer b, value or derivative: one pass at a + 3, no Kummer M
    passes = _counting(monkeypatch, "_u_laplace")
    kummer = _counting(monkeypatch, "kummer_m")
    for fn, want_da in ((tricomi_u, False), (tricomi_u_da, True)):
        passes.clear()
        assert fn(-2.5, 2.0, 3.0).method == "RecurrenceShift"
        assert passes == [(0.5, 2.0, 3.0, want_da)]
    assert kummer == []


# 40-digit mpmath at small positive a, where the Laplace integrand once
# overflowed at nodes near t = 0: U by hyperu, dU/da by mpmath.diff
# (within 4e-22 of a central difference at h = 1e-12)
SMALL_A_REFERENCE = [
    (tricomi_u_da, (0.01, 1.0, 1.0), -0.014790618319581146),
    (tricomi_u_da, (0.01, 2.0, 0.5), 2.6631850139338904),
    (tricomi_u_da, (0.005, 2.0, 0.002), 509.01889651136833),
    (tricomi_u, (0.00928, 2.0, 34.0), 0.96806669869819376),
]


@pytest.mark.parametrize("fn,args,ref", SMALL_A_REFERENCE, ids=[
    fn.__name__ + str(args).replace(" ", "")
    for fn, args, _ in SMALL_A_REFERENCE])
def test_tricomi_u_at_small_positive_a_is_within_its_claim(fn, args, ref):
    r = fn(*args)
    # slack for the rounding of the frozen reference
    assert abs(r.value - ref) <= r.abs_err_estimate + 2.3e-16 * abs(ref)


# 40-digit mpmath at a = 154, where Gamma(a)'s Lanczos power once
# overflowed: U by hyperu, dU/da by mpmath.diff (agreeing with a central
# difference at h = 1e-12 to 20 digits)
LARGE_A_REFERENCE = [
    (tricomi_u, (154.0, 2.0, 0.53), 1.0003690802995819637e-276),
    (tricomi_u_da, (154.0, 2.0, 0.53), -5.092858114558077025e-276),
]


@pytest.mark.parametrize("fn,args,ref", LARGE_A_REFERENCE, ids=[
    fn.__name__ for fn, _, _ in LARGE_A_REFERENCE])
def test_tricomi_u_at_large_a_is_within_its_claim(fn, args, ref):
    r = fn(*args)
    assert abs(r.value - ref) <= r.abs_err_estimate + 2.3e-16 * abs(ref)
    assert r.value == pytest.approx(ref, rel=1e-13)


def test_tricomi_u_and_da_claim_their_error_on_a_grid():
    # U and dU/da at every integer b from -2 to 3 and at non-integer b of
    # either sign, with |a| from 1e-4 to 50 of either sign and z from 1e-3
    # to 40.  dU/da, and U at integer b, take the Laplace integral; U at
    # non-integer b the two-Kummer combination, whose gamma factors are
    # 1e-14 to 7e-14 off from a <= -30, or the integral where it cancels.
    # dU/da is a central difference at h = 1e-12, good to about 1e-20
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20141114)
    h = mpmath.mpf(10) ** -12
    with mpmath.workdps(40):
        for _ in range(40):
            a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
                -4.0, math.log10(50.0))
            z = 10.0 ** rng.uniform(-3.0, math.log10(40.0))
            for b in (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0,
                      -1.5, -0.5, 0.3, 0.5, 1.5, 1.7, 2.5):
                u = float(mpmath.hyperu(a, b, z))
                du = float((mpmath.hyperu(a + h, b, z)
                            - mpmath.hyperu(a - h, b, z)) / (2 * h))
                for fn, want in ((tricomi_u, u), (tricomi_u_da, du)):
                    r = fn(a, b, z)
                    if fn is tricomi_u_da or b == math.floor(b):
                        assert r.method in ("IntegralRep", "RecurrenceShift")
                    error = abs(r.value - want)
                    assert error <= r.abs_err_estimate <= 1e-8 * abs(want), (
                        fn.__name__, a, b, z)


def test_asymptotic_route_claims_its_error_on_a_grid():
    # z from 40 to 200 and a of either sign with |a (a-b+1)| <= 0.7 z,
    # where tricomi_u takes the z^-a expansion if it converges; there
    # z^-a's rounded exponent a ln z costs up to about 65 eps
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20141115)
    routes = []
    with mpmath.workdps(40):
        while len(routes) < 100:
            z = 10.0 ** rng.uniform(math.log10(40.0), math.log10(200.0))
            b = rng.choice((-0.5, 0.5, 1.0, 1.5, 2.0, 2.5))
            a = rng.uniform(-15.0, 15.0)
            if abs(a * (a - b + 1.0)) > 0.7 * z:
                continue
            want = float(mpmath.hyperu(a, b, z))
            r = tricomi_u(a, b, z)
            routes.append(r.method)
            assert abs(r.value - want) <= r.abs_err_estimate, (a, b, z)
    assert routes.count("AsymptoticZ") >= 80


def _integral_route_checks(mpmath, a, z):
    """(error, claim, value) of U and dU/da on the Laplace-integral routes
    at every b the geometries use, against 40-digit mpmath; dU/da is a
    central difference at h = 1e-12, good to about 1e-20."""
    h = mpmath.mpf(10) ** -12
    out = []
    for b in (0.5, 1.0, 1.5, 2.0, 2.5):
        u = float(mpmath.hyperu(a, b, z))
        du = float((mpmath.hyperu(a + h, b, z)
                    - mpmath.hyperu(a - h, b, z)) / (2 * h))
        for want_da, want in ((False, u), (True, du)):
            v, err, method = specfun._u_integral(a, b, z, want_da)
            assert method == ("IntegralRep" if a >= 0.5
                              else "RecurrenceShift")
            out.append((abs(v - want), err, want, (a, b, z, want_da)))
    return out


def test_integral_routes_claim_their_error_on_a_grid():
    # a of either sign with |a| from 1e-4 to 2.5 and z from 1e-2 to 50;
    # each claim bounds the error and stays within 1e-10 of the value
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20141112)
    with mpmath.workdps(40):
        for _ in range(40):
            a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
                -4.0, math.log10(2.5))
            z = 10.0 ** rng.uniform(-2.0, math.log10(50.0))
            for error, claim, want, case in _integral_route_checks(
                    mpmath, a, z):
                assert error <= claim <= 1e-10 * abs(want), case


def test_recurrence_claims_its_error_down_to_a_minus_sixty():
    # up to 60 recurrence steps, where U oscillates in a and the
    # coefficients cancel; the claim counts each step's rounding
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20141113)
    with mpmath.workdps(40):
        for _ in range(8):
            a = -rng.uniform(2.5, 60.0)
            z = 10.0 ** rng.uniform(-2.0, math.log10(50.0))
            for error, claim, _, case in _integral_route_checks(mpmath, a, z):
                assert error <= claim, case


# ----------------------------------------------------------------------
# parabolic cylinder identities
# ----------------------------------------------------------------------
# D_nu(z) has closed forms at integer order and a simple zero in nu, so
# it checks M, U and their a-derivatives along the line b = 1/2, 3/2:
#   D_nu(z) = sqrt(pi) 2^(nu/2) e^(-z^2/4) [ M(-nu/2, 1/2, z^2/2) / Gamma((1-nu)/2)
#             - sqrt(2) z M((1-nu)/2, 3/2, z^2/2) / Gamma(-nu/2) ]
#           = 2^(nu/2) e^(-z^2/4) U(-nu/2, 1/2, z^2/2)          (z > 0).
# The Kummer form cancels through about exp(z^2/2), so z >= 4 takes U.


def _parabolic_d(nu, z):
    f = 2.0 ** (0.5 * nu) * math.exp(-0.25 * z * z)
    w = 0.5 * z * z
    if z >= 4.0 and not (nu >= 0.0 and nu == math.floor(nu)):
        return f * tricomi_u(-0.5 * nu, 0.5, w).value
    return SQRT_PI * f * (
        inv_gamma(0.5 * (1.0 - nu)) * kummer_m(-0.5 * nu, 0.5, w).value
        - math.sqrt(2.0) * z * inv_gamma(-0.5 * nu)
        * kummer_m(0.5 * (1.0 - nu), 1.5, w).value)


def _inv_gamma_prime(x):
    """d/dx [1/Gamma(x)], for the Kummer form's gamma factors; equals
    (-1)^m m! at x = -m."""
    if x > 0.5:
        return -digamma(x) * inv_gamma(x)
    return gamma_fn(1.0 - x) * (math.cos(math.pi * x) - math.sin(math.pi * x)
                                * digamma(1.0 - x) / math.pi)


def _parabolic_d_dnu(nu, z):
    f = 2.0 ** (0.5 * nu) * math.exp(-0.25 * z * z)
    w = 0.5 * z * z
    a1, a2 = -0.5 * nu, 0.5 * (1.0 - nu)
    if z >= 4.0:
        return f * (0.5 * math.log(2.0) * tricomi_u(a1, 0.5, w).value
                    - 0.5 * tricomi_u_da(a1, 0.5, w).value)
    m1, m1a = kummer_m(a1, 0.5, w).value, kummer_m_da(a1, 0.5, w).value
    m2, m2a = kummer_m(a2, 1.5, w).value, kummer_m_da(a2, 1.5, w).value
    s = math.sqrt(2.0) * z
    base = inv_gamma(a2) * m1 - s * inv_gamma(a1) * m2
    inner = (_inv_gamma_prime(a2) * m1 + inv_gamma(a2) * m1a
             - s * (_inv_gamma_prime(a1) * m2 + inv_gamma(a1) * m2a))
    return SQRT_PI * f * (0.5 * math.log(2.0) * base - 0.5 * inner)


@pytest.mark.parametrize("z", [-2.0, 0.0, 3.0])
def test_parabolic_d_order_zero_is_gaussian(z):
    assert _parabolic_d(0.0, z) == pytest.approx(
        math.exp(-0.25 * z * z), rel=1e-12)


@pytest.mark.parametrize("z", [-2.0, 0.5, 3.0])
def test_parabolic_d_order_one(z):
    assert _parabolic_d(1.0, z) == pytest.approx(
        z * math.exp(-0.25 * z * z), rel=1e-12, abs=1e-15)


def test_parabolic_d_order_three_matches_hermite_polynomial():
    x = 1.7 / math.sqrt(2.0)
    hermite3 = 8.0 * x ** 3 - 12.0 * x
    expected = 2.0 ** -1.5 * math.exp(-1.7 ** 2 / 4.0) * hermite3
    assert _parabolic_d(3.0, 1.7) == pytest.approx(expected, rel=1e-10)


def test_parabolic_d_reference_values():
    for args, ref in PARABOLIC_REFERENCE.items():
        assert _parabolic_d(*args) == pytest.approx(ref, rel=1e-8), args


def test_parabolic_d_dnu_matches_finite_difference():
    for nu, z in ((0.5, 1.0), (0.0, 0.0), (2.3, 0.0), (-1.3, 2.0),
                  (1.0, 6.0)):
        fd = central_difference(lambda t: _parabolic_d(t, z), nu, 1e-5)
        assert _parabolic_d_dnu(nu, z) == pytest.approx(
            fd, rel=1e-6, abs=1e-10), (nu, z)


def test_parabolic_d_dnu_nonzero_at_simple_zero_of_d():
    # bracket the lowest nu > 0 with D_nu(1.0) = 0, then verify the
    # order-derivative does not vanish there (the zero is simple)
    z0 = 1.0
    lo, hi = 1.0, 3.0
    flo = _parabolic_d(lo, z0)
    assert flo * _parabolic_d(hi, z0) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = _parabolic_d(mid, z0)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    nu_root = 0.5 * (lo + hi)
    assert abs(_parabolic_d(nu_root, z0)) < 1e-12
    assert abs(_parabolic_d_dnu(nu_root, z0)) > 1e-3


# ----------------------------------------------------------------------
# dawson and erfcx
# ----------------------------------------------------------------------


def test_dawson_at_zero():
    assert dawson(0.0) == 0.0


def test_dawson_large_argument_asymptotic_series():
    # sum_k (2k-1)!! / (2^(k+1) x^(2k+1)), truncated at the smallest
    # term; leading terms 1/(2x) + 1/(4x^3) + ...
    x = 10.0
    term = 1.0 / (2.0 * x)
    total = 0.0
    best = math.inf
    for k in range(40):
        if abs(term) > best:
            break
        best = abs(term)
        total += term
        term *= (2.0 * k + 1.0) / (2.0 * x * x)
    assert dawson(x) == pytest.approx(total, abs=1e-6)


def test_dawson_matches_imaginary_error_function_series():
    # 2/sqrt(pi) e^(x^2) dawson(x) equals the Taylor series of
    # erf(ix)/i = 2/sqrt(pi) sum x^(2n+1)/(n! (2n+1))
    x = 1.5
    series = 0.0
    fact = 1.0
    for n in range(60):
        series += x ** (2 * n + 1) / (fact * (2 * n + 1))
        fact *= n + 1.0
    series *= 2.0 / SQRT_PI
    mine = 2.0 / SQRT_PI * math.exp(x * x) * dawson(x)
    assert mine == pytest.approx(series, rel=1e-10)


def test_dawson_is_odd():
    for x in (0.3, 1.0, 4.2, 9.7, 15.0):
        assert dawson(-x) == -dawson(x)


def test_dawson_reference_values():
    for x, ref in DAWSON_REFERENCE.items():
        assert dawson(x) == pytest.approx(ref, abs=1e-12)


def test_erfcx_matches_stdlib_erfc():
    for i in range(-8, 21):
        x = 0.25 * i
        expected = math.exp(x * x) * math.erfc(x)
        assert erfcx(x) == pytest.approx(expected, rel=1e-12), x


def test_erfcx_reference_values():
    for x, ref in ERFCX_REFERENCE.items():
        assert erfcx(x) == pytest.approx(ref, rel=1e-12)


# ----------------------------------------------------------------------
# bessel_j
# ----------------------------------------------------------------------


def test_bessel_j_matches_ascending_series_oracle():
    assert bessel_j(2, 3.0) == pytest.approx(
        ascending_bessel_series(2.0, 3.0), rel=1e-12)


def test_bessel_j_reference_values():
    for (n, x), ref in BESSEL_REFERENCE.items():
        assert bessel_j(n, x) == pytest.approx(ref, rel=1e-14), (n, x)


def test_bessel_j_matches_mpmath_on_a_grid():
    # the orders the free-diffusion ball asks for, through the roots of
    # its first dozens of modes
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in (0, 1, 2):
            for k in range(1, 801):
                x = 0.1 * k
                want = float(mpmath.besselj(n, x))
                assert abs(bessel_j(n, x) - want) <= 1e-15, (n, x)


def test_bessel_j_at_tiny_x_is_the_leading_term():
    # below x = 1e-8, (x/2)^n / n! is J_n to rounding; mpmath on either
    # side of that switch
    assert bessel_j(0, 1e-300) == 1.0
    assert bessel_j(1, 1e-300) == 5e-301
    assert bessel_j(2, 0.99e-8) == pytest.approx(1.2251249999999999e-17,
                                                 rel=1e-15)
    assert bessel_j(2, 1.01e-8) == pytest.approx(1.2751249999999999e-17,
                                                 rel=1e-15)


def test_bessel_j_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        bessel_j(1, 0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 2e5])
def test_bessel_j_rejects_x_outside_its_domain(x):
    with pytest.raises(ValueError, match="0 < x"):
        bessel_j(1, x)


@pytest.mark.parametrize("n", [0.5, 1.5, -1])
def test_bessel_j_rejects_an_order_that_is_not_a_nonnegative_integer(n):
    with pytest.raises(ValueError, match="integer order"):
        bessel_j(n, 1.0)


# ----------------------------------------------------------------------
# digamma
# ----------------------------------------------------------------------


def test_digamma_at_one_is_minus_euler_gamma():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)


def test_digamma_at_half():
    assert digamma(0.5) == pytest.approx(
        -EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("x", [0.3, 2.7])
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -3.0])
def test_digamma_rejects_poles(x):
    with pytest.raises(ValueError):
        digamma(x)


# mpmath (40 digits) where t^(x+1/2) of the Lanczos form alone would
# overflow; the form is good to about 1e-13, which the rounding of that
# power reaches near x = 170
@pytest.mark.parametrize("x,ref", [
    (143.0, 2.6953641378881627766e+245),
    (160.0, 2.9467022724950383265e+282),
    (170.5, 5.5620924145599996107e+305),
])
def test_gamma_fn_fits_the_float_range_up_to_171(x, ref):
    assert gamma_fn(x) == pytest.approx(ref, rel=2e-13)


# mpmath (40 digits) at a tiny negative argument, where reducing the
# argument of sin(pi x) by floor kept only the digits of 1 - 2.5e-15
def test_inv_gamma_keeps_its_digits_at_a_tiny_negative_argument():
    assert inv_gamma(-2.5e-15) == pytest.approx(
        -2.499999999999996389e-15, rel=1e-13)


def test_kummer_m_large_z_branch_near_a_zero():
    r = kummer_m(-2.5e-15, 0.5, 100.0)
    assert r.value == pytest.approx(-1.1971882502484716080e28, rel=1e-13)
