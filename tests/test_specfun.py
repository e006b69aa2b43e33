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
import struct
import sys
import threading
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


# one point of every route of each confluent entry point: (function,
# arguments, method tag)
ROUTES = (
    (kummer_m, (-3.5, 1.5, 2.0), "DirectSeries"),  # the float series first
    (kummer_m, (0.5, -1.5, 2.0), "DirectSeries"),  # b < 0, by the table
    (kummer_m, (12.5, 1.5, 90.0), "DirectSeries"),  # a > 10 beyond z = 80
    (kummer_m, (-3.5, 1.5, 0.0), "DirectSeries"),  # z = 0
    (kummer_m, (-3.0, 1.5, 2.0), "FixedPoint"),
    (kummer_m, (-10.5, 1.5, 30.0), "FixedPoint"),
    (kummer_m, (0.25, 1.5, 300.0), "AsymptoticZ"),
    (kummer_m_da, (-3.5, 1.5, 2.0), "DirectSeries"),
    (kummer_m_da, (-10.5, 1.5, 30.0), "FixedPoint"),
    (tricomi_u, (0.3, 0.5, 1.0), "DirectSeries"),
    (tricomi_u, (0.0, 2.0, 1.0), "DirectSeries"),  # U(0, b, z) = 1
    (tricomi_u, (1.3, 2.0, 1.0), "IntegralRep"),
    (tricomi_u, (-0.25, 0.5, 30.0), "RecurrenceShift"),
    (tricomi_u, (-0.25, 0.5, 50.0), "AsymptoticZ"),
    (tricomi_u_da, (1.3, 2.0, 1.0), "IntegralRep"),
    (tricomi_u_da, (-0.25, 0.5, 30.0), "RecurrenceShift"),
)


@pytest.mark.parametrize("fn,args,method", ROUTES,
                         ids=[f"{fn.__name__}-{m}-{i}"
                              for i, (fn, _, m) in enumerate(ROUTES)])
def test_hypergeom_result_is_an_immutable_value_by_its_field_names(
        fn, args, method):
    r = fn(*args)
    assert type(r) is HypergeomResult
    assert r.method == method
    assert isinstance(r.value, float) and isinstance(r.abs_err_estimate,
                                                     float)
    for field in ("value", "abs_err_estimate", "method"):
        with pytest.raises(AttributeError):
            setattr(r, field, 0.0)
    again = HypergeomResult(value=r.value,
                            abs_err_estimate=r.abs_err_estimate,
                            method=r.method)
    assert again == r and hash(again) == hash(r)
    assert len({r, again}) == 1
    assert r != HypergeomResult(r.value, r.abs_err_estimate, "other")
    assert r != HypergeomResult(math.nextafter(r.value, math.inf),
                                r.abs_err_estimate, r.method)


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
    # NaN and +/-inf fail the one comparison; the message names the
    # function and z
    pytest.param(kummer_m, (1.0, 1.5, math.inf), ValueError,
                 r"^kummer_m requires finite z >= 0, got inf$",
                 id="kummer_m-z-inf"),
    pytest.param(kummer_m, (1.0, 1.5, -math.inf), ValueError,
                 r"^kummer_m requires finite z >= 0, got -inf$",
                 id="kummer_m-z-minus-inf"),
    pytest.param(kummer_m_da, (0.5, 0.5, math.nan), ValueError,
                 r"^kummer_m_da requires finite z >= 0, got nan$",
                 id="kummer_m_da-z-nan"),
    pytest.param(kummer_m_da, (0.5, 0.5, math.inf), ValueError,
                 r"^kummer_m_da requires finite z >= 0, got inf$",
                 id="kummer_m_da-z-inf"),
    pytest.param(kummer_m_da, (0.5, 0.5, -math.inf), ValueError,
                 r"^kummer_m_da requires finite z >= 0, got -inf$",
                 id="kummer_m_da-z-minus-inf"),
    pytest.param(tricomi_u, (0.5, 0.5, math.nan), ValueError,
                 r"^tricomi_u requires finite z > 0, got nan$",
                 id="tricomi_u-z-nan"),
    pytest.param(tricomi_u, (1.0, 2.0, math.inf), ValueError,
                 r"^tricomi_u requires finite z > 0, got inf$",
                 id="tricomi_u-z-inf"),
    pytest.param(tricomi_u, (0.5, 0.5, -math.inf), ValueError,
                 r"^tricomi_u requires finite z > 0, got -inf$",
                 id="tricomi_u-z-minus-inf"),
    pytest.param(tricomi_u_da, (0.5, 0.5, math.nan), ValueError,
                 r"^tricomi_u_da requires finite z > 0, got nan$",
                 id="tricomi_u_da-z-nan"),
    pytest.param(tricomi_u_da, (0.5, 0.5, math.inf), ValueError,
                 r"^tricomi_u_da requires finite z > 0, got inf$",
                 id="tricomi_u_da-z-inf"),
    pytest.param(tricomi_u_da, (0.5, 0.5, -math.inf), ValueError,
                 r"^tricomi_u_da requires finite z > 0, got -inf$",
                 id="tricomi_u_da-z-minus-inf"),
    # so near z = 0 U's Laplace pass cannot be formed in floats: r =
    # c/(1+c) rounds to 1 under log1p, or the peak's exp overflows; past
    # z ~ 1e154 the peak's root overflows and c is 0; the message names
    # the function and z
    pytest.param(tricomi_u, (0.5, 2.0, 1e-20), ValueError,
                 r"^tricomi_u cannot be evaluated at z = 1e-20 ",
                 id="tricomi_u-tiny-z-b-2"),
    pytest.param(tricomi_u_da, (0.5, 2.0, 1e-20), ValueError,
                 r"^tricomi_u_da cannot be evaluated at z = 1e-20 ",
                 id="tricomi_u_da-tiny-z-b-2"),
    pytest.param(tricomi_u, (0.5, 1.0, 1e-33), ValueError,
                 r"^tricomi_u cannot be evaluated at z = 1e-33 ",
                 id="tricomi_u-tiny-z-b-1"),
    pytest.param(tricomi_u_da, (0.5, 1.0, 1e-33), ValueError,
                 r"^tricomi_u_da cannot be evaluated at z = 1e-33 ",
                 id="tricomi_u_da-tiny-z-b-1"),
    pytest.param(tricomi_u, (-56.73116885615272, 3.0, 6.693981383310427e-297),
                 ValueError, r"^tricomi_u cannot be evaluated at "
                 r"z = 6\.693981383310427e-297 ", id="tricomi_u-tiny-z-peak"),
    pytest.param(tricomi_u_da,
                 (-56.73116885615272, 3.0, 6.693981383310427e-297),
                 ValueError, r"^tricomi_u_da cannot be evaluated at "
                 r"z = 6\.693981383310427e-297 ",
                 id="tricomi_u_da-tiny-z-peak"),
    pytest.param(tricomi_u_da, (0.7, 2.0, 1e200), ValueError,
                 r"^tricomi_u_da cannot be evaluated at z = 1e\+200 ",
                 id="tricomi_u_da-huge-z"),
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


def _outcome(fn, *args):
    """fn(*args) as exact hex text (a HypergeomResult also by its method),
    NaN equal to NaN, or the type of the error raised."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(got, HypergeomResult):
        return got.value.hex(), got.abs_err_estimate.hex(), got.method
    return tuple(x.hex() for x in got)


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


def _series_loop(want_da):
    return specfun._kummer_series_da if want_da else specfun._kummer_series


def test_kummer_series_loops_keep_the_one_loop_bits_on_a_grid():
    for a, b, z, want_da in _series_grid():
        assert (_outcome(_series_loop(want_da), a, b, z)
                == _outcome(_one_loop_kummer_series, a, b, z, want_da)), (
                    a, b, z, want_da)


@pytest.mark.parametrize("want_da", [False, True])
@pytest.mark.parametrize("a,b,z", SERIES_OVERFLOW)
def test_kummer_series_loops_raise_as_the_one_loop_on_overflow(a, b, z,
                                                               want_da):
    got = _outcome(_series_loop(want_da), a, b, z)
    assert got == _outcome(_one_loop_kummer_series, a, b, z, want_da)
    assert got is NonConvergenceError


# The kernels as they were before M's series read a table of rows per b,
# `_kummer_fixed` carried its products by increments and `_two_f0` counted
# in floats: the operation order each must keep.

def _series_before_table(a, b, z):
    stop = specfun._SERIES_STOP
    max_terms = float(specfun._MAX_TERMS)
    t = s = abs_sum = 1.0
    hits = 0
    n = 0.0
    c = a + n
    q = (b + n) * (n + 1.0)
    while n < max_terms:
        t = t * c * (z / q)
        s += t
        at = t if t >= 0.0 else -t
        abs_sum += at
        n += 1.0
        c = a + n
        q = (b + n) * (n + 1.0)
        ref = s if s >= 0.0 else -s
        if (at < stop * (1e-300 if ref < 1e-300 else ref)
                and (c if c >= 0.0 else -c) * z < q):
            hits += 1
            if hits >= 3:
                break
        else:
            hits = 0
    else:
        raise NonConvergenceError(
            f"Kummer series did not converge for a={a}, b={b}, z={z}")
    return s, specfun._EPS * 8.0 * abs_sum + 4.0 * abs(t)


def _series_da_before_table(a, b, z):
    stop = specfun._SERIES_STOP
    max_terms = float(specfun._MAX_TERMS)
    t = s = abs_sum = 1.0
    dt = ds = 0.0
    hits = 0
    n = 0.0
    c = a + n
    q = (b + n) * (n + 1.0)
    while n < max_terms:
        r = z / q
        dt = dt * c * r + t * r
        t = t * c * r
        s += t
        ds += dt
        adt = dt if dt >= 0.0 else -dt
        abs_sum += adt
        n += 1.0
        c = a + n
        q = (b + n) * (n + 1.0)
        at = t if t >= 0.0 else -t
        m = adt if adt > at else at
        ref = s if s >= 0.0 else -s
        ads = ds if ds >= 0.0 else -ds
        if ads > ref:
            ref = ads
        if (m < stop * (1e-300 if ref < 1e-300 else ref)
                and (c if c >= 0.0 else -c) * z < q):
            hits += 1
            if hits >= 3:
                break
        else:
            hits = 0
    else:
        raise NonConvergenceError(
            f"Kummer series did not converge for a={a}, b={b}, z={z}")
    return ds, specfun._EPS * 8.0 * abs_sum + 4.0 * abs(dt)


def _fixed_before_increments(a, b, z, want_da):
    aa = max(-a, 1.0)
    m = specfun._MAX_TERMS
    if not (b + m > 0.0 and (aa + m) * z <= 0.5 * (m + b) * (m + 1)):
        raise NonConvergenceError(
            f"fixed-point Kummer series needs over {m} terms for a={a}, "
            f"b={b}, z={z}")
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    la = ad.bit_length() - 1
    e = la + zd.bit_length() - bd.bit_length()
    if e < 0:
        zn <<= -e
        e = 0
    guard = specfun._GUARD_BITS
    p = guard + int((z + 2.0 * math.sqrt(aa * z)) / specfun._LN2) + 1
    t = s = 1 << p
    dt = ds = 0
    tiny = 1 << (p - guard)
    c, q, n = an, bn, 0
    while not (-tiny <= t <= tiny and (not want_da or -tiny <= dt <= tiny)
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
    err = math.ldexp(units + 3.0, -guard) + specfun._EPS * abs(value)
    return value, err


def _two_f0_int_count(p, q, x):
    s = term = 1.0
    least = math.inf
    for n in range(60):
        term *= (p + n) * (q + n) / ((n + 1.0) * x)
        mag = abs(term)
        if mag > least:
            break
        s += term
        least = mag
        if least < 1e-18 * abs(s):
            break
    return s, least


def _bits(fn, *args):
    """fn(*args) as the exact bits of each float returned (NaN by its
    sign and payload too), or the error raised, by type and text."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(struct.pack("<d", x) for x in got)


# (a, b, z) where the float series' terms land on +0.0 or -0.0: a
# nonpositive integer a ends the terms, and a negative b or a negative
# term gives the zero its sign
SERIES_SIGNED_ZEROS = [(0.0, 0.5, 3.0), (-0.0, 1.5, 3.0), (-1.0, 0.5, 2.0),
                       (-2.0, -0.5, 7.0), (-3.0, -2.5, 1.5), (-1.0, 2.0, 0.25),
                       (-4.0, 1.5, 40.0), (-7.0, -0.5, 12.0)]
# NaN z and z = inf run to the 10,000-term budget; so do terms that
# overflow, and NaN b
SERIES_BUDGET = [(1.0, 1.5, math.nan), (-0.5, 0.5, math.nan),
                 (1.0, 1.5, math.inf), (20.0, 0.5, 750.0),
                 (1.0, math.nan, 2.0), (3.0, -2.5, 1e3)]


def test_series_kernels_keep_their_loops_bits_on_a_grid():
    cases = [(a, b, z) for a, b, z, _ in _series_grid(3000)]
    cases += SERIES_SIGNED_ZEROS + SERIES_BUDGET
    zeros = set()
    for a, b, z in cases:
        for new, old in ((specfun._kummer_series, _series_before_table),
                         (specfun._kummer_series_da,
                          _series_da_before_table)):
            want = _bits(old, a, b, z)
            assert _bits(new, a, b, z) == want, (a, b, z, new.__name__)
            if (a, b, z) in SERIES_BUDGET:
                assert want[0] is NonConvergenceError
    for a, b, z in SERIES_SIGNED_ZEROS:
        t, n = 1.0, 0.0
        while t != 0.0:
            t *= (a + n) * (z / ((b + n) * (n + 1.0)))
            n += 1.0
        zeros.add(math.copysign(1.0, t))
    # both signs of zero are reached
    assert zeros == {1.0, -1.0}


def _fixed_grid(count=1500):
    rng = random.Random(20261028)
    for _ in range(count):
        a = (-float(rng.randint(0, 60)) if rng.random() < 0.3
             else -10.0 ** rng.uniform(1.0, 2.3))
        b = rng.choice([0.5, 1.5, 1.0, 2.0, 2.5, -0.5, -2.5, -7.25,
                        rng.uniform(-6.0, 4.0)])
        z = 10.0 ** rng.uniform(-3.0, 2.0)
        yield a, b, z, rng.random() < 0.5


# b <= 0 takes the growth product; z past the budget raises before
# summing; NaN z raises there too
FIXED_EDGES = [(-20.0, -2.5, 3.0), (-15.5, -0.5, 30.0), (-40.0, -7.25, 5.0),
               (-12.0, -11.5, 2.0), (-20.0, 0.5, 2e4), (-1e4, 1.5, 1.0),
               (-20.0, 0.5, math.nan), (-3.0, 1.5, 0.0)]


@pytest.mark.parametrize("want_da", [False, True])
def test_fixed_point_series_keeps_its_loops_bits_on_a_grid(want_da):
    outcomes = set()
    for a, b, z, _ in list(_fixed_grid()) + [e + (0,) for e in FIXED_EDGES]:
        want = _bits(_fixed_before_increments, a, b, z, want_da)
        assert _bits(_kummer_fixed, a, b, z, want_da) == want, (a, b, z)
        outcomes.add(want[0] if isinstance(want[0], type) else b <= 0.0)
    # the grid reaches b <= 0, b > 0 and the budget
    assert {True, False, NonConvergenceError} <= outcomes


def test_two_f0_keeps_the_int_count_bits_on_a_grid():
    cases = [(p, q, x) for a, b, z in _two_f0_grid()
             for p, q, x in ((b - a, 1.0 - a, z), (a, 1.0 + a - b, -z))]
    # NaN x, and a nonpositive integer p or q, whose terms end on +0.0
    # or -0.0
    cases += [(0.5, 1.5, math.nan), (math.nan, 1.0, 90.0),
              (-2.0, 0.5, 90.0), (0.5, -3.0, -85.0), (-1.0, -1.0, -100.0)]
    for p, q, x in cases:
        assert (_bits(specfun._two_f0, p, q, x)
                == _bits(_two_f0_int_count, p, q, x)), (p, q, x)


def _bits_but_nan_sign(fn, *args):
    """`_bits`, with every NaN as one marker: a conditional negation
    keeps each value an `abs` call gave except the sign of a NaN."""
    got = _bits(fn, *args)
    if isinstance(got[0], type):
        return got
    nan = struct.pack("<d", math.nan)
    return tuple(nan if math.isnan(struct.unpack("<d", x)[0]) else x
                 for x in got)


def _two_f0_calling_abs(p, q, x):
    s = term = 1.0
    least = math.inf
    n = 0.0
    for _ in range(60):
        term *= (p + n) * (q + n) / ((n + 1.0) * x)
        mag = abs(term)
        if mag > least:
            break
        s += term
        least = mag
        if least < 1e-18 * abs(s):
            break
        n += 1.0
    return s, least


# (p, q, x) whose terms end on +0.0 or -0.0
TWO_F0_SIGNED_ZEROS = [(-2.0, 0.5, 90.0), (0.5, -3.0, -85.0),
                       (-1.0, -1.0, -100.0), (-0.0, 1.5, 90.0)]


def test_two_f0_keeps_the_bits_of_its_abs_loop_on_a_grid():
    cases = [(p, q, x) for a, b, z in _two_f0_grid()
             for p, q, x in ((b - a, 1.0 - a, z), (a, 1.0 + a - b, -z))]
    # x = 0, infinite terms, and NaN of either sign
    cases += TWO_F0_SIGNED_ZEROS + [
        (0.5, 1.5, 0.0), (1e300, 1e300, -1e-300), (1e300, 1e300, 1e-300),
        (0.5, 1.5, math.nan), (0.5, 1.5, -math.nan), (math.nan, 1.0, -90.0)]
    for p, q, x in cases:
        want = _bits_but_nan_sign(_two_f0_calling_abs, p, q, x)
        assert _bits_but_nan_sign(specfun._two_f0, p, q, x) == want, (p, q, x)
    zeros = set()
    for p, q, x in TWO_F0_SIGNED_ZEROS:
        assert specfun._two_f0(p, q, x)[1].hex() == "0x0.0p+0"
        term, n = 1.0, 0.0
        while term != 0.0:
            term *= (p + n) * (q + n) / ((n + 1.0) * x)
            n += 1.0
        zeros.add(math.copysign(1.0, term))
    # the smallest term is +0.0 from a last term of either sign
    assert zeros == {1.0, -1.0}


def test_series_tables_keep_their_rows_and_stay_bounded():
    rows = specfun._series_rows
    rows.cache_clear()
    specfun._kummer_series(1.5, 0.5, 100.0)
    read = rows.cache_info().currsize
    # only as many slots as the longest series read past
    assert 0 < read < specfun._ROW_SLOTS
    filled = [rows(0.5, k) for k in range(read)]
    assert rows.cache_info().currsize == read  # all of them kept
    n = 0.0
    for slot in filled:
        for row in slot:
            n += 1.0
            assert row == (n, (0.5 + n) * (n + 1.0))
    assert n == read * specfun._ROW_CHUNK
    # the last slot ends at the term budget
    last = rows(0.5, specfun._ROW_SLOTS - 1)
    assert last[-1][0] == float(specfun._MAX_TERMS)
    # the cache holds at most _ROW_CACHE slots, however many b are read
    assert rows.cache_info().maxsize == specfun._ROW_CACHE
    for i in range(3 * specfun._ROW_CACHE):
        specfun._kummer_series(0.25, 0.5 + i / 7.0, 1.0)
    assert rows.cache_info().currsize == specfun._ROW_CACHE
    with pytest.raises(NonConvergenceError):
        specfun._kummer_series(1.0, math.nan, 1.0)
    assert rows.cache_info().currsize <= specfun._ROW_CACHE


def test_concurrent_first_fill_gives_every_thread_the_same_table():
    rows = specfun._series_rows
    rows.cache_clear()
    b = 1.5
    jobs = [(specfun._kummer_series, 0.3, 120.0),
            (specfun._kummer_series_da, -2.5, 80.0),
            (specfun._kummer_series, 7.0, 40.0),
            (specfun._kummer_series_da, 0.01, 150.0)] * 2
    oracle = {specfun._kummer_series: _series_before_table,
              specfun._kummer_series_da: _series_da_before_table}
    want = [_bits(oracle[fn], a, b, z) for fn, a, z in jobs]
    results = [None] * len(jobs)

    def run(i):
        fn, a, z = jobs[i]
        results[i] = _bits(fn, a, b, z)

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
    # the slots the threads filled are b's first ones, as formed serially
    read = rows.cache_info().currsize
    assert read > 0
    filled = [rows(b, k) for k in range(read)]
    assert rows.cache_info().currsize == read
    assert filled == [rows.__wrapped__(b, k) for k in range(read)]


# The three large-z loops as they were written before `_two_f0` served
# them all: M's e^z and z^-a branches, each returning its sum, its
# smallest term and how it stopped, and U's expansion, which accepted on
# a term below 1e-15 of the sum and gave up on the first term that rose.

def _m_exp_branch_loop(a, b, z):
    s1 = 1.0
    term = 1.0
    min1 = math.inf
    for n in range(60):
        term *= (b - a + n) * (1.0 - a + n) / ((n + 1.0) * z)
        if abs(term) > min1:
            return s1, min1, "rise"
        s1 += term
        min1 = abs(term)
        if min1 < 1e-18 * abs(s1):
            return s1, min1, "small"
    return s1, min1, "all"


def _m_power_branch_loop(a, b, z):
    s2 = 1.0
    term = 1.0
    min2 = math.inf
    for n in range(60):
        term *= -(a + n) * (1.0 + a - b + n) / ((n + 1.0) * z)
        if abs(term) > min2:
            return s2, min2, "rise"
        s2 += term
        min2 = abs(term)
        if min2 < 1e-18 * abs(s2):
            return s2, min2, "small"
    return s2, min2, "all"


def _u_asympt_own_loop(a, b, z):
    term = 1.0
    s = 1.0
    prev = 1.0
    for k in range(60):
        term *= (a + k) * (a - b + 1.0 + k) / ((k + 1.0) * (-z))
        mag = abs(term)
        if mag > prev:
            return None  # divergent tail reached before convergence
        s += term
        prev = mag
        if mag < 1e-15 * abs(s):
            lz = math.log(z)
            pref = math.exp(-a * lz)
            err = pref * (mag + specfun._EPS * (8.0 * (abs(s) + 1.0)
                                                + 2.0 * abs(a * lz) * abs(s)))
            return pref * s, err
    return None


def _kummer_asympt_before_reuse(a, b, z):
    """`_kummer_asympt` as it evaluated 1/Gamma(a) and 1/Gamma(b-a) twice,
    once for the value and once for the claim, each branch in its own
    loop: the operation order the one-evaluation form must keep."""
    s1, min1, _ = _m_exp_branch_loop(a, b, z)
    lz = math.log(z)
    t1 = math.exp(z + (a - b) * lz) * inv_gamma(a) * s1
    s2, min2, _ = _m_power_branch_loop(a, b, z)
    t2 = specfun._cospi(a) * z ** (-a) * inv_gamma(b - a) * s2
    g = gamma_fn(b)
    value = g * (t1 + t2)
    err = abs(g) * (min1 * math.exp(z) * z ** (a - b) * abs(inv_gamma(a))
                    + min2 * z ** (-a) * abs(inv_gamma(b - a))
                    + specfun._EPS * (z + 2.0 * abs(a - b) * lz) * abs(t1)
                    + specfun._EPS * 2.0 * abs(a) * lz * abs(t2)) \
        + specfun._EPS * 8 * abs(value)
    return value, abs(err)


def _signed_a(rng):
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0,
                                                         math.log10(50.0))


def _noninteger_b(rng):
    b = rng.choice((-2.5, -1.5, -0.5, 0.5, 1.5, 2.5,
                    rng.uniform(-4.0, 4.0)))
    return b + 0.25 if b == math.floor(b) else b


def test_kummer_asympt_keeps_its_bits_with_each_gamma_factor_once():
    # a = ±[1e-4, 50], non-integer b of either sign, z in (80, 200]:
    # the large-z branch's own domain (|a| <= 10) and beyond it
    rng = random.Random(20261020)
    for _ in range(3000):
        a = _signed_a(rng)
        b = _noninteger_b(rng)
        z = 80.0 + 120.0 * (1.0 - rng.random())
        assert (_outcome(specfun._kummer_asympt, a, b, z)
                == _outcome(_kummer_asympt_before_reuse, a, b, z)), (a, b, z)
        if abs(a) <= 10.0:
            assert (_outcome(kummer_m, a, b, z)[:2]
                    == _outcome(_kummer_asympt_before_reuse, a, b, z))


def _two_f0_grid(count=3000):
    """M's large-z domain, |a| <= 10 and z in (80, 1e5], at the b the
    geometries use.  Half the z lie below 700, where e^z fits a float and
    `_kummer_asympt` returns a value, not OverflowError.  The loops stop
    on a rising term or after all 60 terms only near |a| = 10 and z = 80,
    so the grid ends with those corners."""
    rng = random.Random(20261024)
    bs = (0.5, 1.0, 1.5, 2.0, 2.5)
    for i in range(count):
        a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 1.0)
        z = (80.0 + 620.0 * (1.0 - rng.random()) if i % 2
             else 10.0 ** rng.uniform(math.log10(80.0), 5.0))
        yield a, rng.choice(bs), z
    for a in (-10.0, -9.5, 9.5, 10.0):
        for z in (80.25, 90.0, 100.0, 120.0):
            for b in bs:
                yield a, b, z


def test_two_f0_keeps_the_bits_of_both_m_loops_on_a_grid():
    stops = set()
    for a, b, z in _two_f0_grid():
        for got, loop in ((specfun._two_f0(b - a, 1.0 - a, z),
                           _m_exp_branch_loop),
                          (specfun._two_f0(a, 1.0 + a - b, -z),
                           _m_power_branch_loop)):
            *want, stop = loop(a, b, z)
            stops.add(stop)
            assert [x.hex() for x in got] == [x.hex() for x in want], (
                a, b, z, loop.__name__)
        assert (_outcome(specfun._kummer_asympt, a, b, z)
                == _outcome(_kummer_asympt_before_reuse, a, b, z)), (a, b, z)
    # the grid reaches a rising term and the 60-term budget
    assert stops == {"rise", "small", "all"}


def test_u_asymptotic_route_matches_mpmath_across_its_gate():
    # z from 40 to 9,000, |a| from 1e-3 to 60 of either sign and b from
    # 1/2 to 3, inside tricomi_u's gate |a (a-b+1)| <= 0.7 z.  `_two_f0`
    # sums past the parent loop's 1e-15 stop, so a value may move in its
    # last bits; it accepts where that loop did, and both values lie
    # within their claims and 1e-13 of 40-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261025)
    accepted = 0
    with mpmath.workdps(40):
        while accepted < 300:
            z = 10.0 ** rng.uniform(math.log10(40.0), math.log10(9000.0))
            a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(
                -3.0, math.log10(60.0))
            b = rng.choice((0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
            if abs(a * (a - b + 1.0)) > 0.7 * z:
                continue
            got = specfun._u_asympt(a, b, z)
            before = _u_asympt_own_loop(a, b, z)
            assert (got is None) == (before is None), (a, b, z)
            if got is None:
                continue
            accepted += 1
            assert tricomi_u(a, b, z) == HypergeomResult(*got, "AsymptoticZ")
            ref = mpmath.hyperu(a, b, z)
            for value, claim in (got, before):
                error = abs(mpmath.mpf(value) - ref)
                assert error <= claim, (a, b, z)
                assert error <= 1e-13 * abs(ref), (a, b, z)


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


def _tricomi_u_before_cache(a, b, z):
    """`tricomi_u` as it formed every gamma factor of the two-Kummer
    combination on each call, and let a NaN sum through: the values,
    claims and routes the cached factors must keep."""
    if z <= 0.0:
        raise ValueError("tricomi_u requires z > 0")
    if a == 0.0:
        return HypergeomResult(1.0, 0.0, "DirectSeries")
    if z >= 40.0 and abs(a * (a - b + 1.0)) <= 0.7 * z:
        asympt = specfun._u_asympt(a, b, z)
        if asympt is not None:
            return HypergeomResult(asympt[0], asympt[1], "AsymptoticZ")
    if b != math.floor(b):
        rel_err = specfun._gamma_rel_err
        m1 = kummer_m(a, b, z)
        m2 = kummer_m(a - b + 1.0, 2.0 - b, z)
        c1 = gamma_fn(1.0 - b) * inv_gamma(a - b + 1.0)
        c2 = gamma_fn(b - 1.0) * inv_gamma(a) * z ** (1.0 - b)
        t1 = c1 * m1.value
        t2 = c2 * m2.value
        value = t1 + t2
        big = max(abs(t1), abs(t2))
        rel1 = rel_err(1.0 - b) + rel_err(a - b + 1.0)
        rel2 = (rel_err(b - 1.0) + rel_err(a)
                + specfun._EPS * abs((1.0 - b) * math.log(z)))
        err = (abs(c1) * m1.abs_err_estimate + abs(c2) * m2.abs_err_estimate
               + rel1 * abs(t1) + rel2 * abs(t2) + specfun._EPS * 8.0 * big)
        if not (abs(value) < 1e-8 * big or err > 1e-8 * abs(value)):
            return HypergeomResult(value, err, "DirectSeries")
    v, e, method = specfun._u_integral(a, b, z)
    return HypergeomResult(v, e, method)


def _combination_pairs(rng, count):
    return [(_signed_a(rng), _noninteger_b(rng)) for _ in range(count)]


def _assert_u_matches_oracle(a, b, z):
    got = _outcome(tricomi_u, a, b, z)
    assert got == _outcome(_tricomi_u_before_cache, a, b, z), (a, b, z)
    return got


def _factor_cache_within_bound():
    info = specfun._u_gamma_factors.cache_info()
    return info.maxsize is not None and info.currsize <= info.maxsize


def test_cached_u_factors_keep_the_bits_on_a_cold_and_a_warm_cache():
    # 60 pairs, fewer than the cache holds, each at four z in [1e-3, 40]:
    # the first call of a pair on the cold pass misses, and every call of
    # the warm pass hits
    rng = random.Random(20261021)
    pairs = _combination_pairs(rng, 60)
    zs = [[10.0 ** rng.uniform(-3.0, math.log10(40.0)) for _ in range(4)]
          for _ in pairs]
    specfun._u_gamma_factors.cache_clear()
    cold = [[_assert_u_matches_oracle(a, b, z) for z in row]
            for (a, b), row in zip(pairs, zs)]
    misses = specfun._u_gamma_factors.cache_info().misses
    assert 0 < misses <= len(pairs)
    warm = [[_assert_u_matches_oracle(a, b, z) for z in row]
            for (a, b), row in zip(pairs, zs)]
    assert warm == cold
    assert specfun._u_gamma_factors.cache_info().misses == misses
    assert _factor_cache_within_bound()


def test_cached_u_factors_keep_the_bits_while_the_cache_evicts():
    # 3x as many pairs as the cache holds, the walk over them interleaved
    # with a second walk at half speed: the early revisits hit, and the
    # later ones find their entry evicted
    rng = random.Random(20261022)
    maxsize = specfun._u_gamma_factors.cache_info().maxsize
    pairs = _combination_pairs(rng, 3 * maxsize)
    specfun._u_gamma_factors.cache_clear()
    for i in range(len(pairs)):
        for a, b in (pairs[i], pairs[i // 2]):
            z = 10.0 ** rng.uniform(-3.0, math.log10(40.0))
            _assert_u_matches_oracle(a, b, z)
        assert _factor_cache_within_bound()
    info = specfun._u_gamma_factors.cache_info()
    assert info.hits > 0 and info.misses > maxsize
    assert info.currsize == maxsize


@pytest.mark.parametrize("a,b", [(2, 0.5), (-3, 1.5), (7, -0.5), (1, 2.5)])
def test_int_and_float_a_share_cached_u_factors_bit_for_bit(a, b):
    for first, second in ((a, float(a)), (float(a), a)):
        specfun._u_gamma_factors.cache_clear()
        for z in (0.01, 1.3, 25.0):
            got = _assert_u_matches_oracle(first, b, z)
            assert _assert_u_matches_oracle(second, b, z) == got
        assert specfun._u_gamma_factors.cache_info().currsize == 1


# 40-digit mpmath hyperu where the two-Kummer combination cannot hold U
# though U fits a float: it returned NaN as DirectSeries at the first
# point, and let the fixed-point series' OverflowError out at the second
U_BEYOND_COMBINATION = [
    ((-61.49, 0.5, 852.4), 1.3783034591278498945e178, float),
    ((-27.52, 1.5, 850.8), 1.6668721386627917583e80, OverflowError),
]


@pytest.mark.parametrize("args,ref,before", U_BEYOND_COMBINATION,
                         ids=["nan", "overflow"])
def test_u_beyond_the_combination_takes_the_laplace_pass(args, ref, before):
    old = _outcome(_tricomi_u_before_cache, *args)
    if before is float:
        assert math.isnan(float.fromhex(old[0])) and old[2] == "DirectSeries"
    else:
        assert old is before
    r = tricomi_u(*args)
    assert r.method in ("IntegralRep", "RecurrenceShift")
    assert abs(r.value - ref) <= r.abs_err_estimate + 2.3e-16 * abs(ref)
    assert r.value == pytest.approx(ref, rel=1e-13)


# 40-digit mpmath hyperu just outside AsymptoticZ's gate, where one M of
# the combination runs past its series' term budget: the float series at
# the first point, the fixed-point one at the second
U_PAST_SERIES_BUDGET = [
    ((48.12, 0.5, 3000.0), 2.22641489348279785e-168),
    ((-70.99, 0.5, 5000.0), 1.40921890837334286e262),
]


@pytest.mark.parametrize("args,ref", U_PAST_SERIES_BUDGET,
                         ids=["float-series", "fixed-point"])
def test_u_past_a_series_budget_takes_the_laplace_pass(args, ref):
    assert _outcome(_tricomi_u_before_cache, *args) is NonConvergenceError
    r = tricomi_u(*args)
    assert r.method in ("IntegralRep", "RecurrenceShift")
    assert abs(r.value - ref) <= r.abs_err_estimate + 2.3e-16 * abs(ref)


def test_u_just_outside_the_asymptotic_gate_matches_mpmath():
    # a = ±f sqrt(0.7 z), f from 1.01 to 1.5, so |a (a-b+1)| passes the
    # gate's 0.7 z; most of these raised NonConvergenceError from an M
    # series.  U is within its claim wherever 40-digit mpmath fits a
    # float (an underflow to 0 included), and inf beyond
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z in (3000.0, 6000.0, 12000.0, 20000.0):
            for f in (1.01, 1.2, 1.5):
                for sign in (1.0, -1.0):
                    for b in (0.5, 1.5, 2.5):
                        a = sign * f * math.sqrt(0.7 * z)
                        ref = mpmath.hyperu(a, b, z)
                        r = tricomi_u(a, b, z)
                        if abs(ref) > sys.float_info.max:
                            assert r.value == math.inf, (a, b, z)
                        else:
                            error = abs(mpmath.mpf(r.value) - ref)
                            assert error <= r.abs_err_estimate, (a, b, z)


# (a, b, z) where U and dU/da pass float range, with their signs from
# 40-digit mpmath: U = 3.86e366 and dU/da = -3.34e367 at the first, U =
# -1.97e383 and dU/da = 1.25e384 at the second.  At the last two U takes
# the large-z expansion, whose z^-a passes float range: U = 2.19e955 and
# dU/da = -2.41e956, U = 1.16e690 and dU/da = -1.23e691
U_BEYOND_FLOAT_RANGE = [((-97.211, 0.5, 6000.0), "RecurrenceShift"),
                        ((-204.0, 0.5, 2.76), "DirectSeries"),
                        ((-200.0, 0.5, 60000.0), "AsymptoticZ"),
                        ((-150.0, 0.5, 40000.0), "AsymptoticZ")]


@pytest.mark.parametrize("args,u_method", U_BEYOND_FLOAT_RANGE)
def test_u_beyond_float_range_is_a_signed_inf_claiming_inf(args, u_method):
    mpmath = pytest.importorskip("mpmath")
    a, b, z = args
    h = mpmath.mpf(10) ** -12
    with mpmath.workdps(40):
        u = mpmath.hyperu(a, b, z)
        du = (mpmath.hyperu(a + h, b, z) - mpmath.hyperu(a - h, b, z)) / (
            2 * h)
    for fn, want, method in ((tricomi_u, u, u_method),
                             (tricomi_u_da, du, "RecurrenceShift")):
        assert abs(want) > sys.float_info.max
        r = fn(a, b, z)
        assert r.value == math.copysign(math.inf, want), fn.__name__
        assert r.abs_err_estimate == math.inf, fn.__name__
        assert r.method == method


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


def test_laplace_claims_hold_where_u_is_subnormal():
    # 1/Gamma(a) leaves the normal floats near a = 171, so the pass's U
    # and dU/da land among the subnormals, where each rounding is off by
    # up to a subnormal spacing that no relative claim covers.  dU/da is
    # a central difference at h = 1e-12, good to about 1e-24 relative
    mpmath = pytest.importorskip("mpmath")
    h = mpmath.mpf(10) ** -12
    tested = 0
    with mpmath.workdps(40):
        value, claim, _ = specfun._u_integral(172.0, 2.0, 0.5)
        exact = mpmath.hyperu(172, 2, 0.5)  # 1.0553565451133054e-316
        assert claim > 0.0
        assert abs(mpmath.mpf(value) - exact) <= claim
        for a in (170.5, 172.0, 174.0):
            for b in (0.5, 1.0, 2.0):
                for z in (0.3, 0.5, 1.0):
                    exact = (mpmath.hyperu(a, b, z),
                             (mpmath.hyperu(a + h, b, z)
                              - mpmath.hyperu(a - h, b, z)) / (2 * h))
                    for want_da in (False, True):
                        want = exact[want_da]
                        if abs(want) >= 2.2250738585072014e-308:
                            continue
                        value, claim, _ = specfun._u_integral(a, b, z,
                                                              want_da)
                        assert abs(mpmath.mpf(value) - want) <= claim, (
                            a, b, z, want_da)
                        tested += 1
    assert tested >= 30


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


def _integral_route_checks(mpmath, a, z, bs=(0.5, 1.0, 1.5, 2.0, 2.5)):
    """(error, claim, value) of U and dU/da on the Laplace-integral routes
    at each b of `bs` (by default every b the geometries use), against
    40-digit mpmath; dU/da is a central difference at h = 1e-12, good to
    about 1e-20."""
    h = mpmath.mpf(10) ** -12
    out = []
    for b in bs:
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


# Gamma(a) U(a, b, z) <= 1/a + 1/z <= 1001 at a >= 1, b <= 2 and z >= 1e-3,
# so beyond this log-gamma U is below the normal float range
_LGAMMA_U_BELOW_FLOATS = math.log(1001.0) - math.log(sys.float_info.min)


def test_integral_routes_claim_their_error_over_the_exterior_mgf_range():
    # mgf outside the ball takes U at a = s/4kappa from 1e-5 to 1e3 and
    # z = kappa z0^2 from 1e-3 to 1e3, at b = d/2 for d = 1 to 4: two
    # draws in every cell of two decades of a by two of z.  Below the
    # normal float range a value is only held within that range of the
    # truth, since no claim counts the rounding of a subnormal result
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20141116)
    bs = (0.5, 1.0, 1.5, 2.0)
    below = 0
    with mpmath.workdps(40):
        for lo_a in (-5.0, -3.0, -1.0, 1.0):
            for lo_z in (-3.0, -1.0, 1.0):
                for _ in range(2):
                    a = 10.0 ** rng.uniform(lo_a, lo_a + 2.0)
                    z = 10.0 ** rng.uniform(lo_z, lo_z + 2.0)
                    if math.lgamma(a) > _LGAMMA_U_BELOW_FLOATS:
                        for b in bs:
                            v, _, _ = specfun._u_integral(a, b, z)
                            assert 0.0 <= v < sys.float_info.min, (a, b, z)
                        below += 1
                        continue
                    for error, claim, want, case in _integral_route_checks(
                            mpmath, a, z, bs):
                        if abs(want) < sys.float_info.min:
                            assert error < sys.float_info.min, case
                            continue
                        assert error <= claim <= 1e-10 * abs(want), case
    # most draws must check a value in float range
    assert below < 8


# Laplace passes whose level differences mislead an extrapolation.
MISLEADING_LEVELS = {
    # the pass for U(0.171, -2, 0.00886) runs at a = 1.171, where its
    # level differences fall as 2.5e-4, 1.2e-9, 2.2e-12, 1.4e-16: an
    # estimate that squared the level-2 difference would claim 1.4e-18
    # for an error of 2.2e-12
    "not_squaring": (0.17112226283406873, -2.0, 0.008860158379290873),
    # recorded closed-form inputs with z c < 0.2, where e^(-zt) cuts the
    # integrand off far beyond its peak: the difference falls 14,000-fold
    # to level 3 and then 6,000-fold, so d^2/d_old took level 3 with a
    # claim 2.4 to 19 times below its error
    "late_cutoff_b1": (0.999161, 1.0, 0.00188298),
    "late_cutoff_b1_faster": (0.9919826506056413, 1.0, 0.007933328912581245),
    # the same at d = 1, found on a random grid: 10 times below
    "late_cutoff_b_half": (0.5668488204237768, 0.5, 0.025960832146949966),
}


@pytest.mark.parametrize("a,b,z", MISLEADING_LEVELS.values(),
                         ids=MISLEADING_LEVELS.keys())
def test_laplace_pass_claims_its_error_where_its_levels_mislead(a, b, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for error, claim, want, case in _integral_route_checks(
                mpmath, a, z, (b,)):
            assert error <= claim <= 1e-10 * abs(want), case


# recorded closed-form and basis-build inputs of the Laplace pass, where
# two levels first agreed to 1e-13 at level 4, though level 3 was already
# within about 1e-15 of it
LEVEL_THREE_POINTS = [(1.032, 2.0, 3.024), (1.057, 1.0, 22.566),
                      (1.233, 1.5, 0.996)]
# level-3 stops of the extrapolation rule whose U(a+1) is off 40-digit
# hyperu by 1.045 and 1.015 times d^2/d_old plus the rounding terms: its
# differences fell 2.4e7-fold, and the next fall is 1,200-fold.  The
# 16-eps floor of the claim covers them
FLOOR_POINTS = [(0.5544086763539317, 0.5, 137.3821361344025),
                (0.5563397085593437, -0.5, 262.9231932547984)]


@pytest.mark.parametrize("a,b,z", LEVEL_THREE_POINTS + FLOOR_POINTS)
def test_laplace_pass_stops_at_level_three_within_its_claim(monkeypatch,
                                                            a, b, z):
    # U and dU/da at a and a+1, against 40-digit hyperu and a central
    # difference of it at h = 1e-12
    levels = _counting(monkeypatch, "_es_nodes")
    passes = {want_da: specfun._u_laplace(a, b, z, want_da)
              for want_da in (False, True)}
    assert max(level for level, in levels) <= 3
    mpmath = pytest.importorskip("mpmath")
    h = mpmath.mpf(10) ** -12
    with mpmath.workdps(40):
        want = [float(mpmath.hyperu(a + k, b, z)) for k in (0, 1)]
        want += [float((mpmath.hyperu(a + k + h, b, z)
                        - mpmath.hyperu(a + k - h, b, z)) / (2 * h))
                 for k in (0, 1)]
    for vals, errs in passes.values():
        for v, err, w in zip(vals, errs, want):
            assert abs(v - w) <= err, (a, b, z, w)


# `_u_laplace` as it summed |w ln x| by calling `abs` at every node
def _u_laplace_calling_abs(a, b, z, want_da):
    sf = specfun
    bb = z + 1.0 - b
    root = math.sqrt(bb * bb + 4.0 * a * z)
    c = 2.0 * a / (bb + root) if bb >= 0.0 else (root - bb) / (2.0 * z)
    zc = z * c
    r = c / (1.0 + c)
    ln_c = math.log(c)
    e = b - a - 1.0
    cuts = [math.inf, math.inf]
    prev = None
    for level in range(sf._ES_MAX_LEVEL + 1):
        n0 = n1 = k0 = k1 = km = 0.0
        for side, nodes in enumerate(sf._es_nodes(level)):
            cut = cuts[side]
            for s, u, em1, w in nodes:
                if s > cut:
                    break
                f = w * math.exp(a * u - zc * em1 + e * math.log1p(r * em1))
                if level == 0 and f < sf._ES_CUT * n0:
                    cuts[side] = s
                    break
                t = c + c * em1
                x = t / (1.0 + t)
                n0 += f
                n1 += f * x
                if want_da:
                    lx = (ln_c + u - math.log1p(t) if t <= 1.0
                          else -math.log1p(1.0 / t))
                    fl = f * lx
                    k0 += fl
                    k1 += fl * x
                    km += abs(fl)
        sums = (n0, n1, k0, k1, km)
        if prev is not None:
            sums = tuple(0.5 * old + new for old, new in zip(prev, sums))
            diffs = [abs(new - old) for old, new in zip(prev, sums[:4])]
            refs = (sums[0], sums[1], sums[4], sums[4])
            errs = diffs
            if level > sf._ES_MIN_LEVEL and zc >= sf._ES_ONE_PEAK and all(
                    sf._ES_FALL * d <= d_old
                    for d, d_old in zip(diffs, last)):
                est = [d * d / d_old if d else 0.0
                       for d, d_old in zip(diffs, last)]
                if all(x <= sf._ES_EST_TOL * ref
                       for x, ref in zip(est, refs)):
                    errs = [max(x, sf._ES_FLOOR * ref)
                            for x, ref in zip(est, refs)]
                    break
            if level >= sf._ES_MIN_LEVEL and all(
                    d <= sf._ES_TOL * ref for d, ref in zip(diffs, refs)):
                break
            last = diffs
        prev = sums
    s0, s1, l0, l1, m = sums
    peak = math.exp(a * ln_c - zc + e * math.log1p(c))
    inv_g = sf.inv_gamma(a)
    scale = peak * inv_g
    rel = (sf._EPS * (abs(a * ln_c) + zc + abs(e * math.log1p(c)))
           + sf._gamma_rel_err(a))
    u0 = scale * s0
    su1 = scale * s1
    u1 = su1 / a
    tiny = (sf._subnormal(peak) * inv_g + sf._subnormal(inv_g) * peak
            + sf._subnormal(scale))
    eu0 = (scale * (errs[0] + sf._EPS * 8.0 * s0) + rel * u0
           + tiny * s0 + sf._subnormal(u0))
    eu1 = (scale * (errs[1] + sf._EPS * 8.0 * s1) / a + rel * u1
           + (tiny * s1 + sf._subnormal(su1)) / a
           + sf._subnormal(u1))
    if not want_da:
        return (u0, u1), (eu0, eu1)
    psi = sf.digamma(a)
    psi1 = psi + 1.0 / a
    ed = scale * (max(errs[2], errs[3]) + sf._EPS * 8.0 * m) + tiny * m
    sl0 = scale * l0
    sl1 = scale * l1
    ed0 = 3.0 * sf._subnormal(abs(psi * u0) + abs(sl0))
    ed1 = 4.0 * sf._subnormal(abs(psi1 * u1) + abs(sl1))
    return ((u0, u1, -psi * u0 + sl0, -psi1 * u1 + sl1 / a),
            (eu0, eu1, abs(psi) * eu0 + ed + rel * scale * abs(l0) + ed0,
             abs(psi1) * eu1 + (ed + rel * scale * abs(l1)) / a + ed1))


def test_laplace_pass_keeps_the_bits_of_its_abs_loop_on_a_grid():
    rng = random.Random(20261019)
    cases = [(0.5 + 10.0 ** rng.uniform(-4.0, 1.7),
              rng.choice((-0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
              10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(300)]
    # NaN z sums NaN; NaN a and z = 0 raise, the same error either way
    cases += [(1.5, 1.5, math.nan), (math.nan, 1.5, 2.0), (0.75, 1.0, 0.0)]

    def flat(fn, *args):
        values, errors = fn(*args)
        return values + errors

    for a, b, z in cases:
        for want_da in (False, True):
            args = (a, b, z, want_da)
            assert (_bits_but_nan_sign(flat, specfun._u_laplace, *args)
                    == _bits_but_nan_sign(flat, _u_laplace_calling_abs,
                                          *args)), args


def test_laplace_pass_grid_holds_its_claims_against_mpmath():
    # the accuracy companion of the bit test above, at every third of its
    # 300 inputs (the same seeded draws): dU/da, from the pass at a, and U
    # at integer b, from the pass or the large-z expansion, within their
    # claims of 40-digit mpmath; dU/da is a central difference at h =
    # 1e-12, good to about 1e-20
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261019)
    cases = [(0.5 + 10.0 ** rng.uniform(-4.0, 1.7),
              rng.choice((-0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
              10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(300)]
    h = mpmath.mpf(10) ** -12
    checked = 0
    with mpmath.workdps(40):
        for a, b, z in cases[::3]:
            du = (mpmath.hyperu(a + h, b, z)
                  - mpmath.hyperu(a - h, b, z)) / (2 * h)
            want = [(tricomi_u_da, du)]
            if b == math.floor(b):
                want.append((tricomi_u, mpmath.hyperu(a, b, z)))
            for fn, exact in want:
                r = fn(a, b, z)
                assert abs(r.value - exact) <= r.abs_err_estimate, (
                    fn.__name__, a, b, z)
                checked += 1
    assert checked >= 100


# (a, b, z) with a next to psi's zero at 1.4616, where dU/da = -psi U +
# (...) is small beside U, so psi's own rounding sets its error; a claim
# without it falls 4.9, 6.5 and 4.2 times short (at the first, dU/da =
# -1156.8471782856682, U = 2.34e5 and psi is 3.6e-16 off)
U_DA_NEAR_PSI_ZERO = [(1.4644754958180979, 3.0, 0.0021979974025179046),
                      (1.4617127330842055, 3.0, 0.005767095494240745),
                      (1.456966617827997, 2.5, 0.0021231127059711135)]


@pytest.mark.parametrize("a, b, z", U_DA_NEAR_PSI_ZERO)
def test_u_da_claim_covers_digammas_error_near_its_zero(a, b, z):
    mpmath = pytest.importorskip("mpmath")
    h = mpmath.mpf(10) ** -12
    with mpmath.workdps(40):
        exact = (mpmath.hyperu(a + h, b, z)
                 - mpmath.hyperu(a - h, b, z)) / (2 * h)
        r = tricomi_u_da(a, b, z)
        error = abs(r.value - exact)
    assert r.method == "IntegralRep"
    assert error <= r.abs_err_estimate, (float(error), r.abs_err_estimate)


def _peak_share(a, b, z):
    """z c, c the peak of the Laplace integrand, as `_u_laplace` forms it."""
    bb = z + 1.0 - b
    root = math.sqrt(bb * bb + 4.0 * a * z)
    return z * (2.0 * a / (bb + root) if bb >= 0.0
                else (root - bb) / (2.0 * z))


def _peak_share_crossing(b, z):
    """The two adjacent floats a about the a with z c = _ES_ONE_PEAK at
    (b, z): z c is below it at the first and not below at the second."""
    c = specfun._ES_ONE_PEAK / z
    a = z * c * c + (z + 1.0 - b) * c
    step = -math.inf if _peak_share(a, b, z) >= specfun._ES_ONE_PEAK \
        else math.inf
    for _ in range(10000):
        nxt = math.nextafter(a, step)
        if ((_peak_share(nxt, b, z) >= specfun._ES_ONE_PEAK)
                != (_peak_share(a, b, z) >= specfun._ES_ONE_PEAK)):
            return tuple(sorted((a, nxt)))
        a = nxt
    raise AssertionError((b, z))


# (a, b, z) where the pass ends where its loops change hands: a level-0
# cutoff on the s < 0 side only, as e^(-zt) never cuts the s > 0 side
# off before its last node (the first stopping at level 5, the second at
# level 7 without accepting a level), and passes that run to level 7
# with both sides cut off and no level accepted
ONE_SIDE_CUT = [(0.5, 0.95, 1e-250), (0.5, 0.99, 1e-250),
                (3.0, 0.95, 1e-250)]
UNACCEPTED = [
    (0.5, 0.95, 1e-100),
    (0.7231783216155471, 0.9915974835231759, 1.5041998390087443e-119),
    (0.5142346961568101, 0.9848436208631476, 1.515696647450132e-84)]


def test_laplace_pass_keeps_the_bits_at_its_loops_edges(monkeypatch):
    # the cases the level-0 loop, the refining loops and the scalar
    # level bookkeeping must hand on unchanged, each with both want_da
    cases = []
    for b, z in ((0.5, 0.01), (0.5, 0.1), (0.5, 0.4), (1.0, 0.001),
                 (1.0, 0.05), (1.0, 0.13), (-0.5, 1.0)):
        below, above = _peak_share_crossing(b, z)
        assert _peak_share(below, b, z) < specfun._ES_ONE_PEAK
        assert _peak_share(above, b, z) >= specfun._ES_ONE_PEAK
        cases += [(below, b, z), (above, b, z)]
    cases += ONE_SIDE_CUT + UNACCEPTED
    # the subnormal U of `test_laplace_claims_hold_where_u_is_subnormal`
    cases += [(a, b, z) for a in (170.5, 172.0, 174.0)
              for b in (0.5, 1.0, 2.0) for z in (0.3, 0.5, 1.0)]
    # mgf outside the ball: U at a = s/4kappa, raised to a + n >= 1/2 as
    # `_u_integral` does, b = d/2 and z = kappa z0^2 or kappa
    rng = random.Random(20261020)
    for _ in range(200):
        kappa = 10.0 ** rng.uniform(-3.0, 3.0)
        a = math.exp(rng.uniform(math.log(1e-2), math.log(30.0))) / (
            4.0 * kappa)
        a += max(0, math.ceil(0.5 - a))
        z0 = rng.uniform(1.0, 3.0)
        for b in (0.5, 1.0, 1.5, 2.0):
            cases += [(a, b, kappa * z0 * z0), (a, b, kappa)]

    def flat(fn, *args):
        values, errors = fn(*args)
        return values + errors

    for a, b, z in cases:
        for want_da in (False, True):
            args = (a, b, z, want_da)
            assert (_bits_but_nan_sign(flat, specfun._u_laplace, *args)
                    == _bits_but_nan_sign(flat, _u_laplace_calling_abs,
                                          *args)), args
    # the named cases still stop at the levels they stopped at
    levels = _counting(monkeypatch, "_es_nodes")
    for args, last in zip(ONE_SIDE_CUT + UNACCEPTED, (5, 7, 5, 7, 7, 7)):
        levels.clear()
        specfun._u_laplace(*args)
        assert max(level for level, in levels) == last, args


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


def _dawson_int_count(x):
    """Dawson's integral with int counters and an `abs` test per sample:
    the operations `dawson` must keep."""
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax > 10.0:
        inv2 = 1.0 / (2.0 * ax * ax)
        term = 1.0 / (2.0 * ax)
        s = term
        for k in range(1, 40):
            term *= (2 * k - 1) * inv2
            s += term
            if term < 1e-17 * s:
                break
        return math.copysign(s, x)
    h = 0.2
    n0 = int(round(ax / h))
    if n0 % 2 == 0:
        n0 += 1
    s = 0.0
    for k in range(-44, 45, 2):
        n = n0 + k
        d = ax - n * h
        if abs(d) > 9.0:
            continue
        s += math.exp(-d * d) / n
    return math.copysign(s / math.sqrt(math.pi), x)


def test_dawson_keeps_the_int_count_bits():
    rng = random.Random(12)
    xs = [5e-324, 1e-300, 1e-8, 0.1, 0.3, 9.9, 10.0, 10.1, 1e8, 1e300,
          math.inf]
    xs += [math.nextafter(10.0, 0.0), math.nextafter(10.0, 11.0)]
    xs += [10.0 + rng.uniform(-0.5, 0.5) for _ in range(2000)]
    xs += [rng.uniform(0.0, 12.0) for _ in range(10000)]
    xs += [10.0 ** rng.uniform(-12.0, 6.0) for _ in range(2000)]
    # up to |x| = 0.2 the Maclaurin series has replaced the samples
    # (test_dawson_series_is_within_2_ulps_of_mpmath)
    for x in xs:
        for v in (x, -x):
            if abs(v) > 0.2:
                assert dawson(v).hex() == _dawson_int_count(v).hex(), v


def _ulps_from(mpmath, got, x):
    """|got - F(x)| in ulps of F(x), F from 40-digit mpmath."""
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        want = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-xm * xm) \
            * mpmath.erfi(xm)
        return float(abs(mpmath.mpf(got) - want)
                     / math.ulp(float(want)))


def test_dawson_series_is_within_2_ulps_of_mpmath():
    # the 45 samples cancel near 0: they were 2.4e-5 relative off at
    # x = 1e-12 and 9.2e-15 at 0.01
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(27)
    xs = [5e-324, 1e-300, 1e-160, 1e-12, 1e-8, 1e-5, 1e-3, 0.01, 0.1,
          0.2, math.nextafter(0.2, 0.0)]
    xs += [math.exp(rng.uniform(math.log(1e-300), math.log(0.2)))
           for _ in range(1500)]
    xs += [rng.uniform(0.0, 0.2) for _ in range(500)]
    for x in xs:
        for v in (x, -x):
            assert _ulps_from(mpmath, dawson(v), v) <= 2.0, v


def test_dawson_is_accurate_on_both_sides_of_the_series_switch():
    # the samples take over above 0.2, within a few ulps (5.7 at most on
    # 300 seeded points in (0.2, 0.3))
    mpmath = pytest.importorskip("mpmath")
    below = [0.2, math.nextafter(0.2, 0.0), 0.2 - 1e-9, 0.19999]
    above = [math.nextafter(0.2, 1.0), 0.2 + 1e-9, 0.20001, 0.21, 0.25]
    for x in below:
        assert _ulps_from(mpmath, dawson(x), x) <= 2.0, x
    for x in above:
        assert _ulps_from(mpmath, dawson(x), x) <= 8.0, x


def test_dawson_and_erfcx_give_nan_for_nan():
    assert math.isnan(dawson(math.nan))
    assert math.isnan(dawson(-math.nan))
    assert math.isnan(erfcx(math.nan))


def test_erfcx_beyond_float_range_is_inf():
    # exp(x^2) passes float range from x = -26.64 on; -26.6 still fits
    assert erfcx(-26.6) == pytest.approx(3.8943377196055206e307, rel=1e-12)
    for x in (-26.65, -30.0, -1e3, -1e200, -math.inf):
        assert erfcx(x) == math.inf, x


def test_erfcx_keeps_its_bits_within_float_range():
    # below zero erfcx is 2 exp(x^2) - erfcx(-x), down to where exp raises
    rng = random.Random(13)
    for _ in range(2000):
        x = rng.uniform(-26.6, 0.0)
        assert erfcx(x).hex() == (
            2.0 * math.exp(x * x) - erfcx(-x)).hex(), x


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


# mpmath (40 digits, at the float arguments) on (-171, -168), where
# Gamma(1 - x) alone passes float range but 1/Gamma(x) fits a float
@pytest.mark.parametrize("x,ref", [
    (-169.5, 1.7704690034223189163e+305),
    (-168.99, -4.05480578385579522e+302),
    (-169.9999, 7.2536870596790690079e+302),
    (-170.5, -3.0186496508350537522e+307),
    (-170.99, -1.1785937765444560975e+307),
])
def test_inv_gamma_fits_the_float_range_below_minus_168(x, ref):
    assert abs(inv_gamma(x) - ref) <= specfun._gamma_rel_err(x) * abs(ref)


def test_inv_gamma_is_signed_inf_only_past_float_range():
    # 1/Gamma(-171.5) is about 5.2e309
    assert inv_gamma(-171.5) == math.inf
    assert inv_gamma(-172.5) == -math.inf
    assert inv_gamma(-171.0) == 0.0


def test_kummer_m_large_z_branch_near_a_zero():
    r = kummer_m(-2.5e-15, 0.5, 100.0)
    assert r.value == pytest.approx(-1.1971882502484716080e28, rel=1e-13)
