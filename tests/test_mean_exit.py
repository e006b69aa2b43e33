"""Tests for mean first-exit times and the splitting probability.

Expected values were frozen from an 80-digit arbitrary-precision oracle
that evaluates the defining backward-equation integral representations
by nested quadrature; every frozen number was confirmed by a second,
structurally different oracle route (brute-force double integral of the
integrating-factor form, and a ground-rate spectral bound for the
radial case), with at least 40 matching digits.

The deep-trap escape formulas are leading-order only.  At the moderate
trap strengths probed here, four of their tabulated agreement targets
are tighter than the formulas' true deviation, which a correct solver
cannot meet (only a broken one could).  Those assertions are kept at
the tabulated tolerance but marked xfail(strict=True); companion tests
pin the measured deviation from the oracle so regressions in either
direction stay visible.
"""

import math
import random

import pytest

from ouexit import _quad, mean_exit
from ouexit._quad import tanh_sinh
from ouexit.ou_model import canonical_orientation
from ouexit.specfun import (_EPS, erfcx, gamma_fn, kummer_m, kummer_m_da,
                            tricomi_u_da)
from ouexit.mean_exit import (
    _MARGINAL_CONSTANT,
    _f_exp_erf,
    _int_erfcx0,
    _met_interval_erf_form,
    _met_interval_erfc_form,
    met_exterior_1d_forced,
    met_interval,
    met_interval_asymptotic,
    met_radial_exterior,
    met_radial_interior,
    splitting_probability,
)

# ---------------------------------------------------------------------------
# Frozen oracle values (dimensionless times, units L**2/D).

INTERVAL_ORACLE = {
    (1.0, 0.0, 0.0): 0.72262280669417361,
    (2.0, 0.5, 0.3): 0.58903282915405114,
    (30.0, 0.5, 0.2): 21.235033082426636,
    (4.0, 0.0, 0.0): 3.4290923940624713,
    (12.0, 0.0, 0.0): 1819.0136303576826,
    (10.0, 2.0, 0.0): 0.033795423021370187,
}

RADIAL_INTERIOR_ORACLE = {
    (3, 2.0, 0.4): 0.2419875229610314,
    (2, 1.5, 0.5): 0.3175499518000942,
    (5, 3.0, 0.0): 0.1739298759966628,
    (3, 12.0, 0.0): 84.147333931218748,
}

RADIAL_EXTERIOR_ORACLE = {
    (3, 1.0, 2.0): 0.42365699869269221,
    (4, 1.0, 2.0): 0.53407359027997265,
    (5, 0.8, 1.5): 0.69169221521580997,
    (1, 1.0, 3.0): 0.47946534692633391,
    (3, 0.01, 2.0): 225.53498354439988,
}

EXTERIOR_1D_ORACLE = {
    (2.0, 0.5, 1.8): 0.18779514533557609,
    (3.0, 2.2, 1.5): 11.32620178733285,
    (15.0, 0.5, 2.0): 0.034961607535577648,
    (15.0, 1.5, 2.0): 1.5818216655760346,
}

SPLITTING_ORACLE = {
    (1.0, 0.5, 0.0): 0.76346565106589342,
    (3.0, 0.2, 0.4): 0.88715404523896523,
    (2.0, 1.3, -0.5): 0.97782954450581116,
    # A pull toward -1 puts these far below 1e-16, where 1 - H(-varphi,
    # -z0) rounded to 0.0.  H = (erfi(sk (z0 - varphi)) - erfi(sk (-1 -
    # varphi))) / (erfi(sk (1 - varphi)) - erfi(sk (-1 - varphi))), sk =
    # sqrt(kappa), in 120-digit mpmath at the float inputs; a 400-panel
    # quadrature of exp(kappa (z - varphi)^2) agrees to 1e-28.
    (50.0, -0.9, 0.0): 3.36984850613451768847838882821307719468235597e-61,
    (20.0, -0.5, -0.5): 1.45789720327279040464714331378322693666995265e-17,
    (100.0, -0.95, 0.3): 8.1656119624713713566000197719312829399152663e-98,
    (8.0, -2.0, 0.0): 6.43155288184339660206851072373806294823383622e-18,
    (300.0, -0.5, 0.9): 1.76356343865548573041233496925928931707159258e-38,
}

# Limit constant of the marginal-pull escape time, exp(-gamma/2)/2; 40-digit
# mpmath of that form and of the defining limit agree to 22 digits.  Its
# published rounded value is 0.375.
MARGINAL_CONSTANT = 0.3746530006442245

# F(x) = integral of exp(z^2) erf(z) over [0, x], from 40-digit mpmath of
# x^2/sqrt(pi) 2F2(1, 1; 3/2, 2; x^2) at the float x.  A plain running sum
# of the series is 2.4e-15 off at 4.12, 4.688 and 4.727.
EXP_ERF_INTEGRAL_ORACLE = {
    1e-8: 5.6418958354775632936e-17,
    0.1: 0.0056607524127703803757,
    1.0: 0.81539252074179321103,
    2.5: 114.46898866432298649,
    4.12: 2950352.148653848714934,
    4.66: 296622350.67319957686,
    4.688: 382948547.6659216486775,
    4.727: 548055058.5555006503473,
    5.0: 7354153746.3697235575,
}

# integral of erfcx over [0, x], 45-digit mpmath of
# (sqrt(pi)/2) erfi(x) - x^2/sqrt(pi) 2F2(1, 1; 3/2, 2; x^2) (up to x = 40,
# that value at 40 plus quadrature beyond), matched by direct 45-digit
# quadrature of exp(z^2) erfc(z) to 45 digits.  5.999, 6 and 6.001 sit
# either side of the switch from Taylor panels to the large-x expansion.
ERFCX_INTEGRAL_ORACLE = {
    0.001: 0.0009994361435618223532,
    0.01: 0.0099439125042966995913,
    0.1: 0.094673583306152555601,
    0.25: 0.21929858030385916288,
    0.5: 0.3913582448274258996,
    0.77: 0.54100175338020784488,
    1.0: 0.64725922516538839777,
    1.5: 0.83229179781595035478,
    2.2: 1.0244109129577948709,
    3.0: 1.1882779339812860348,
    4.4: 1.3968265706956804652,
    5.5: 1.5202500612742151726,
    5.75: 1.5449501283363651559,
    5.999: 1.5685350830479986916,
    6.0: 1.5686278671467809167,
    6.001: 1.5687206361852094616,
    7.5: 1.6931582709196631611,
    10.0: 1.8543905438806982026,
    15.0: 2.0823744701474141097,
    24.0: 2.3471653749961058652,
    40.0: 2.6352114282537756429,
    70.0: 2.9508814940313239431,
    100.0: 3.1520991050175096331,
}

# Erf-form points where the start and left-exit terms cancel; true values
# from 60- and 80-digit evaluations of the closed formula, confirmed by a
# 30-digit double integral of the backward equation.
ERF_FORM_CANCELLATION = {
    (6.058184902195491, 0.9833044699371891, -0.9752365110266668):
        0.09508984036646272,
    (2.279448513947737, 2.2810720955357313, -0.7670535789477781):
        0.17276421865900773,
}


def rel(got, want):
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# Frozen-value agreement.

@pytest.mark.parametrize("args,want", sorted(INTERVAL_ORACLE.items()))
def test_interval_matches_oracle(args, want):
    assert rel(met_interval(*args), want) < 1e-12


@pytest.mark.parametrize("args,want", sorted(RADIAL_INTERIOR_ORACLE.items()))
def test_radial_interior_matches_oracle(args, want):
    assert rel(met_radial_interior(*args), want) < 1e-12


@pytest.mark.parametrize("args,want", sorted(RADIAL_EXTERIOR_ORACLE.items()))
def test_radial_exterior_matches_oracle(args, want):
    assert rel(met_radial_exterior(*args), want) < 1e-12


@pytest.mark.parametrize("args,want", sorted(EXTERIOR_1D_ORACLE.items()))
def test_exterior_1d_matches_oracle(args, want):
    assert rel(met_exterior_1d_forced(*args), want) < 1e-12


@pytest.mark.parametrize("args,want", sorted(SPLITTING_ORACLE.items()))
def test_splitting_matches_oracle(args, want):
    assert rel(splitting_probability(*args), want) < 1e-13


def test_two_dimensional_exterior_is_a_pure_logarithm():
    # d = 2 collapses to ln(z0)/(2 kappa); at z0 = e, kappa = 1 -> 1/2.
    assert abs(met_radial_exterior(2, 1.0, math.e) - 0.5) < 1e-14
    assert rel(met_radial_exterior(2, 3.0, 1.7), math.log(1.7) / 6.0) < 1e-14


# ---------------------------------------------------------------------------
# Exact boundary and limit behaviour.

def test_boundary_start_exits_immediately():
    assert met_interval(3.0, 0.5, 1.0) == 0.0
    assert met_interval(3.0, 0.5, -1.0) == 0.0
    assert met_radial_interior(3, 2.0, 1.0) == 0.0
    assert met_radial_exterior(3, 2.0, 1.0) == 0.0
    assert met_exterior_1d_forced(3.0, 0.5, 1.0) == 0.0


def test_vanishing_trap_interval_is_classical_parabola():
    for z0 in (0.0, 0.3, -0.8):
        assert rel(met_interval(0.0, 0.0, z0), 0.5 * (1.0 - z0 * z0)) < 1e-14


def test_vanishing_trap_radial_interior_is_classical():
    for d in (1, 2, 3, 5):
        for z0 in (0.0, 0.2, 0.7):
            want = (1.0 - z0 * z0) / (2.0 * d)
            assert rel(met_radial_interior(d, 0.0, z0), want) < 1e-14


def test_vanishing_trap_exterior_mean_is_infinite():
    assert met_radial_exterior(3, 0.0, 2.0) == math.inf
    assert met_exterior_1d_forced(0.0, 0.0, 2.0) == math.inf


def test_drift_diffusion_limit_matches_closed_form():
    # kappa -> 0 at fixed eta = 2 kappa varphi: pure drift-diffusion.
    kappa, eta, z0 = 1e-9, 0.5, 0.3
    got = met_interval(kappa, eta / (2.0 * kappa), z0)
    want = (1.0 - z0 - 2.0 * (math.exp(-eta * z0) - math.exp(-eta))
            / (math.exp(eta) - math.exp(-eta))) / eta
    assert rel(got, want) < 1e-9


def test_drift_diffusion_series_is_continuous_in_eta():
    # The tiny-eta series and the exponential form must agree across
    # their switch (eta = 1e-5).
    z0 = 0.4
    lo = met_interval(1e-9, 0.99e-5 / 2e-9, z0)
    hi = met_interval(1e-9, 1.01e-5 / 2e-9, z0)
    assert rel(lo, hi) < 1e-6


def test_brownian_route_is_continuous_at_its_threshold():
    below = met_interval(0.99e-8, 0.0, 0.3)
    above = met_interval(1.01e-8, 0.0, 0.3)
    assert rel(below, above) < 1e-7
    below_r = met_radial_interior(3, 0.99e-8, 0.3)
    above_r = met_radial_interior(3, 1.01e-8, 0.3)
    assert rel(below_r, above_r) < 1e-7


def test_small_kappa_expansion_with_second_order_term():
    kappa, varphi, z0 = 0.05, 0.2, 0.3
    expansion = (0.5 * (1.0 - z0 * z0)
                 * (1.0 + kappa * (1.0 - 2.0 * varphi * z0 + z0 * z0) / 3.0)
                 + 2.0 * kappa**2 / 45.0)
    assert rel(met_interval(kappa, varphi, z0), expansion) < 1e-3


# ---------------------------------------------------------------------------
# Deep-trap asymptotics.

def test_symmetric_escape_formula_at_kappa_12():
    met = met_interval(12.0, 0.0, 0.0)
    asym = met_interval_asymptotic(12.0, 0.0, 0.0)
    assert rel(asym, met) < 0.05


@pytest.mark.xfail(
    strict=True,
    reason="the drift-dominated escape formula ln((varphi - z0)/(varphi - 1))"
           "/(2 kappa) is 2.5% off at kappa=10, varphi=2 (oracle-verified); "
           "a 2% match is not attainable there")
def test_supercritical_escape_formula_at_kappa_10_within_2pct():
    met = met_interval(10.0, 2.0, 0.0)
    asym = met_interval_asymptotic(10.0, 2.0, 0.0)
    assert rel(asym, met) < 0.02


def test_supercritical_escape_formula_measured_deviation():
    met = met_interval(10.0, 2.0, 0.0)
    asym = met_interval_asymptotic(10.0, 2.0, 0.0)
    assert abs(asym - math.log(2.0) / 20.0) < 1e-15
    assert 0.02 < rel(asym, met) < 0.03   # 2.55% measured


def test_supercritical_escape_formula_converges():
    devs = [rel(met_interval_asymptotic(k, 2.0, 0.0),
                met_interval(k, 2.0, 0.0)) for k in (10.0, 20.0, 40.0)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.01


def test_subcritical_escape_formula_converges():
    devs = [rel(met_interval_asymptotic(k, 0.5, 0.0),
                met_interval(k, 0.5, 0.0)) for k in (18.0, 30.0, 60.0)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.04


def test_marginal_constant_value():
    c = _MARGINAL_CONSTANT
    assert rel(c, MARGINAL_CONSTANT) < 1e-15
    assert abs(c - 0.375) < 1e-3


def test_marginal_escape_formula_at_large_kappa():
    met = met_interval(50.0, 1.0, 0.0)
    asym = met_interval_asymptotic(50.0, 1.0, 0.0)
    assert rel(asym, met) < 0.01   # 0.17% measured


def test_auto_regime_picks_the_matching_branch():
    # varphi alone picks the branch: symmetric, subcritical, marginal and
    # supercritical leading terms at kappa = 12
    k = 12.0
    root_pi = math.sqrt(math.pi)
    assert rel(met_interval_asymptotic(k, 0.0, 0.0),
               0.25 * root_pi * math.exp(k) / k**1.5) < 1e-15
    assert rel(met_interval_asymptotic(k, 0.5, 0.0),
               0.5 * root_pi * math.exp(0.25 * k) / (0.5 * k**1.5)) < 1e-15
    assert rel(met_interval_asymptotic(k, 1.0, 0.2),
               math.log(math.sqrt(k) * 0.8 / MARGINAL_CONSTANT)
               / (2.0 * k)) < 1e-15
    assert rel(met_interval_asymptotic(k, 2.0, 0.0),
               math.log(2.0) / (2.0 * k)) < 1e-15


def _arrhenius_before_range_guard(kappa, varphi):
    """The symmetric and subcritical formulas as written before they
    took e^x beyond float range: the bits they must keep below it."""
    if varphi == 0.0:
        return 0.25 * math.sqrt(math.pi) * math.exp(kappa) / kappa**1.5
    return (0.5 * math.sqrt(math.pi) * math.exp(kappa * (1.0 - varphi) ** 2)
            / (kappa**1.5 * (1.0 - varphi)))


def test_arrhenius_formulas_keep_their_bits_inside_float_range():
    rng = random.Random(20261023)
    for _ in range(2000):
        kappa = 10.0 ** rng.uniform(-3.0, math.log10(709.0))
        varphi = rng.choice((0.0, rng.uniform(0.0, 1.0)))
        assert (met_interval_asymptotic(kappa, varphi, 0.0).hex()
                == _arrhenius_before_range_guard(kappa, varphi).hex()), (
                    kappa, varphi)


def test_arrhenius_formula_returns_the_mean_where_only_it_fits():
    # e^712 passes float range, but the mean, about 3.85e304, does not;
    # it let a bare OverflowError out, as at kappa = 800
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.sqrt(mpmath.pi) / 4 * mpmath.exp(712)
                    / mpmath.mpf(712) ** 1.5)
    assert met_interval_asymptotic(712.0, 0.0, 0.0) == pytest.approx(
        ref, rel=1e-13)


@pytest.mark.parametrize("kappa, varphi", [(800.0, 0.0), (3000.0, 0.5),
                                           (1e-300, 0.5)])
def test_arrhenius_formula_is_inf_beyond_float_range(kappa, varphi):
    assert met_interval_asymptotic(kappa, varphi, 0.0) == math.inf


@pytest.mark.xfail(
    strict=True,
    reason="Gamma(d/2) e^kappa / (4 kappa^(1+d/2)) is 14% off the oracle at "
           "d=3, kappa=12 (it needs kappa ~ 40 for 5%); a 5% match is not "
           "attainable there")
def test_radial_interior_escape_formula_at_kappa_12_within_5pct():
    met = met_radial_interior(3, 12.0, 0.0)
    lead = math.gamma(1.5) * math.exp(12.0) / (4.0 * 12.0**2.5)
    assert rel(lead, met) < 0.05


def test_radial_interior_escape_formula_measured_deviation():
    met = met_radial_interior(3, 12.0, 0.0)
    lead = math.gamma(1.5) * math.exp(12.0) / (4.0 * 12.0**2.5)
    assert 0.13 < rel(lead, met) < 0.15   # 14.1% measured


def test_radial_interior_escape_formula_converges():
    devs = []
    for kappa in (12.0, 16.0, 20.0):
        met = met_radial_interior(3, kappa, 0.0)
        lead = math.gamma(1.5) * math.exp(kappa) / (4.0 * kappa**2.5)
        devs.append(rel(lead, met))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.10


def test_radial_exterior_small_trap_law():
    got = met_radial_exterior(3, 0.01, 2.0)
    law = 0.5 * math.gamma(1.5) * (1.0 - 1.0 / 2.0) * 0.01**-1.5
    assert rel(law, got) < 0.05   # 1.8% measured


@pytest.mark.xfail(
    strict=True,
    reason="the logarithmic capture-time formula ln((z0-varphi)/(1-varphi))"
           "/(2 kappa) is 4.7% off at kappa=15, varphi=0.5, z0=2 "
           "(oracle-verified); a 3% match is not attainable there")
def test_forced_capture_log_formula_at_kappa_15_within_3pct():
    met = met_exterior_1d_forced(15.0, 0.5, 2.0)
    law = math.log(1.5 / 0.5) / 30.0
    assert rel(law, met) < 0.03


def test_forced_capture_log_formula_measured_deviation():
    met = met_exterior_1d_forced(15.0, 0.5, 2.0)
    law = math.log(1.5 / 0.5) / 30.0
    assert 0.04 < rel(law, met) < 0.055   # 4.7% measured


@pytest.mark.xfail(
    strict=True,
    reason="the uphill-capture formula sqrt(pi) e^(kappa (varphi-1)^2)"
           "/(2 kappa^1.5 (varphi-1)) is 18% off at kappa=15, varphi=1.5 "
           "(oracle-verified); a 10% match is not attainable there")
def test_forced_capture_exponential_formula_at_kappa_15_within_10pct():
    met = met_exterior_1d_forced(15.0, 1.5, 2.0)
    law = (math.sqrt(math.pi) * math.exp(15.0 * 0.25)
           / (2.0 * 15.0**1.5 * 0.5))
    assert rel(law, met) < 0.10


def test_forced_capture_exponential_formula_measured_deviation():
    met = met_exterior_1d_forced(15.0, 1.5, 2.0)
    law = (math.sqrt(math.pi) * math.exp(15.0 * 0.25)
           / (2.0 * 15.0**1.5 * 0.5))
    assert 0.15 < rel(law, met) < 0.25    # 18% measured
    met30 = met_exterior_1d_forced(30.0, 1.5, 2.0)
    law30 = (math.sqrt(math.pi) * math.exp(30.0 * 0.25)
             / (2.0 * 30.0**1.5 * 0.5))
    assert rel(law30, met30) < 0.10       # 8.3% measured: converging


# ---------------------------------------------------------------------------
# Structural properties.

def test_interval_positive_inside_and_even_without_pull():
    for z0 in (-0.9, -0.4, 0.0, 0.4, 0.9):
        t = met_interval(2.0, 0.0, z0)
        assert t > 0.0
        assert rel(t, met_interval(2.0, 0.0, -z0)) < 1e-12


def test_interval_mirror_symmetry_in_pull():
    for kappa, varphi, z0 in ((2.0, 0.7, 0.3), (9.0, 1.4, -0.5)):
        assert (met_interval(kappa, -varphi, -z0)
                == met_interval(kappa, varphi, z0))


def test_interval_increases_with_trap_strength():
    times = [met_interval(k, 0.0, 0.0)
             for k in (0.0, 0.5, 1.0, 2.0, 4.0, 7.0, 10.0)]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_interval_decreases_with_pull():
    times = [met_interval(2.0, phi, 0.0)
             for phi in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(a > b for a, b in zip(times, times[1:]))


def test_both_interval_forms_agree_near_the_switch():
    # The exp(z^2)erf form and the erfcx/Dawson rewrite are evaluated on
    # either side of kappa (1+varphi)^2 = 25; they must agree everywhere
    # both are finite-friendly, including the delicate varphi = 1 case.
    for kappa, varphi, z0 in ((24.9, 0.0, 0.3), (6.0, 1.0, 0.2),
                              (11.0, 0.5, -0.4), (25.0, 0.0, 0.0)):
        a = _met_interval_erf_form(kappa, varphi, z0)
        b = _met_interval_erfc_form(kappa, varphi, z0)
        assert rel(a, b) < 1e-11


@pytest.mark.parametrize("x,want", sorted(EXP_ERF_INTEGRAL_ORACLE.items()))
def test_exp_erf_integral_matches_oracle(x, want):
    assert rel(_f_exp_erf(x), want) < 1.2e-15
    assert _f_exp_erf(-x) == _f_exp_erf(x)


@pytest.mark.parametrize("x,want", sorted(ERFCX_INTEGRAL_ORACLE.items()))
def test_erfcx_integral_matches_oracle(x, want):
    assert rel(_int_erfcx0(x), want) < 1e-15


def test_mean_exit_makes_no_quadrature_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return tanh_sinh(*args, **kwargs)

    monkeypatch.setattr(_quad, "tanh_sinh", counting)
    monkeypatch.setattr(mean_exit, "tanh_sinh", counting)
    # the interval mean on its erf form, then on its erfc form
    assert 4.0 * (1.0 + 0.5) ** 2 <= mean_exit._ERF_FORM_LIMIT
    assert rel(met_interval(4.0, 0.5, 0.3), 0.57618612141036914) < 1e-14
    for args in ((30.0, 0.5, 0.2), (10.0, 2.0, 0.0)):
        assert args[0] * (1.0 + args[1]) ** 2 > mean_exit._ERF_FORM_LIMIT
        assert rel(met_interval(*args), INTERVAL_ORACLE[args]) < 1e-12
    for d in (1, 2, 3, 4):
        assert met_radial_interior(d, 2.0, 0.4) > 0.0
    for args in ((3, 1.0, 2.0), (1, 1.0, 3.0), (5, 0.8, 1.5)):
        assert rel(met_radial_exterior(*args),
                   RADIAL_EXTERIOR_ORACLE[args]) < 1e-12
    # erfc-integral arguments of both signs, and beyond x = 6
    for args in ((2.0, 0.5, 1.8), (3.0, 2.2, 1.5)):
        assert rel(met_exterior_1d_forced(*args),
                   EXTERIOR_1D_ORACLE[args]) < 1e-12
    assert met_exterior_1d_forced(50.0, -0.5, 2.0) > 0.0
    assert calls == []


def _interior_mpmath(mpmath, d, kappa, z0):
    """The paper's series as (1/(4b)) [F(1) - z0^2 F(z0^2)] with
    F(x) = 2F2(1, 1; 2, b + 1; kappa x) and b = d/2."""
    b = mpmath.mpf(d) / 2
    z2 = mpmath.mpf(z0) ** 2
    f = lambda x: x * mpmath.hyp2f2(1, 1, 2, b + 1, kappa * x)
    return (f(1) - f(z2)) / (4 * b)


def test_radial_interior_matches_mpmath_on_a_grid():
    # starts at the centre, 1e-9 and 1e-12 from the wall, and two random
    # ones; kappa up to near the edge of float range
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    with mpmath.workdps(40):
        for d in (1, 2, 3, 4):
            for kappa in (1e-3, 0.3, 2.0, 50.0, 700.0):
                for z0 in (0.0, 1.0 - 1e-9, 1.0 - 1e-12,
                           rng.random(), rng.random()):
                    want = float(_interior_mpmath(mpmath, d, kappa, z0))
                    got = met_radial_interior(d, kappa, z0)
                    assert rel(got, want) < 1e-14, (d, kappa, z0)


def test_radial_interior_beyond_float_range_is_inf():
    # 5.3850253648721706e302 from 40-digit mpmath of the series
    assert rel(met_radial_interior(3, 715.0, 0.2),
               5.3850253648721706e302) < 1e-14
    assert met_radial_interior(3, 1e3, 0.2) == math.inf
    assert met_radial_interior(3, 1e300, 0.2) == math.inf
    assert met_radial_interior(1, 1.7976931348623157e308, 0.0) == math.inf


# 30-digit mpmath of the exterior finite sum, Gamma functions and kappa
# powers taken at full precision.  The first three broke the float sum:
# Gamma(d/2) passes float range from d = 344 (NaN at d = 400, inf at
# (344, 1, 2)), and kappa^169 at (341, 100, 1.5) raised OverflowError.
LARGE_D_EXTERIOR = {
    (400, 100.0, 1.5): 27052780568894.46721585,
    (344, 1.0, 2.0): 4.961109264763957953753e+306,
    (341, 100.0, 1.5): 549943.9926063199867455,
    (343, 1.0, 2.0): 3.802266726949452703937e+305,
    (345, 1.0, 2.0): 6.482639099643925125091e+307,
    (5, 2.0, 1.7): 0.2030033847394985048315,
    (6, 0.5, 2.0): 4.068147180559945309417,
    (7, 3.0, 1.2): 0.06174230171922989762089,
    (20, 10.0, 1.4): 0.04095930512785149512013,
    (21, 0.3, 2.5): 12904838201.20584164548,
    (100, 30.0, 1.1): 1.237828749988042726017,
    (101, 50.0, 1.3): 0.01111641415676484195442,
}


@pytest.mark.parametrize("args,want", list(LARGE_D_EXTERIOR.items()),
                         ids=str)
def test_radial_exterior_at_large_d_matches_mpmath(args, want):
    assert rel(met_radial_exterior(*args), want) < 1e-14


# (346, 1, 2) is 8.48e308 in 30-digit mpmath
@pytest.mark.parametrize("args", [(1000, 1.0, 2.0), (346, 1.0, 2.0),
                                  (6, 1e-300, 2.0), (5, 1e-300, 2.0)],
                         ids=str)
def test_radial_exterior_at_large_d_beyond_float_range_is_inf(args):
    assert met_radial_exterior(*args) == math.inf


# sqrt(kappa) z0 passes float range at these points though the mean, about
# 2 ln z0 / (4 kappa), does not; 30-digit mpmath of the closed formula,
# whose erfcx integral over [1e150, 1e450] takes erfcx's asymptotic series
# there (exact far beyond 30 digits).  All three are the same integral.
OVERFLOWED_PRODUCT = {
    (met_radial_exterior, (1, 1e300, 1e300)): 3.453877639491068344944494e-298,
    (met_radial_exterior, (3, 1e300, 1e300)): 3.453877639491068344944494e-298,
    (met_exterior_1d_forced, (1e300, 0.0, 1e300)):
        3.453877639491068344944494e-298,
}


@pytest.mark.parametrize("fn,args", list(OVERFLOWED_PRODUCT), ids=str)
def test_exterior_means_hold_where_sqrt_kappa_z0_overflows(fn, args):
    assert rel(fn(*args), OVERFLOWED_PRODUCT[fn, args]) < 1e-15


def test_exterior_mean_at_odd_large_d_holds_where_sqrt_kappa_z0_overflows():
    # d = 9 takes the scaled sum; its erfcx terms add about 1e-300 of 1
    assert rel(met_radial_exterior(9, 1e300, 1e300),
               3.453877639491068344944494e-298) < 1e-15


# sqrt(kappa) (z0 - varphi), and at the second point sqrt(kappa)
# (1 - varphi) too, pass float range; the mean is ln((z0 - varphi)/
# (1 - varphi))/(2 kappa) to 1e-600, here in 30-digit mpmath.  The two
# erfcx integrals, about 710/sqrt(pi) each, cancel to ln of that ratio, so
# about 1,000 eps of relative accuracy is lost to their rounding.
FORCED_OVERFLOWED_GAPS = {
    (1.0, -1.7e308, 1.7e308): 0.3465735902799726547086161,
    (4.0, -1.5e308, 1e308): 0.06385320297074883540068926,
}


@pytest.mark.parametrize("args,want", list(FORCED_OVERFLOWED_GAPS.items()),
                         ids=str)
def test_forced_exterior_mean_holds_where_both_gaps_overflow(args, want):
    assert rel(met_exterior_1d_forced(*args), want) < 1e-12


def test_forced_exterior_mean_is_inf_where_its_scaled_difference_underflows():
    # at kappa = 1e300 the exit term exp(kappa/4)/(sqrt(kappa)/2) times
    # c = sqrt(pi)/(2 kappa) is far beyond float range; c m underflowed to
    # 0 and read as a cancelled difference, 0.0
    assert met_exterior_1d_forced(1e300, 1.5, 2.0) == math.inf
    assert met_exterior_1d_forced(1e300, 1.5, 1e300) == math.inf


# ---------------------------------------------------------------------------
# one exterior sum at every d

def _exterior_sum_gamma_form(d, kappa, z0):
    """The exterior finite sum in Gamma functions and kappa powers, as
    `met_radial_exterior` took it up to d = 4 before the scaled running
    products served every d; inf where a float operation overflowed."""
    half_d = 0.5 * d
    try:
        if d % 2 == 0:
            total = 2.0 * math.log(z0)
            for j in range(1, d // 2):
                total += (gamma_fn(half_d) / (j * gamma_fn(half_d - j))
                          * kappa**-j * (1.0 - z0 ** (-2 * j)))
            return total / (4.0 * kappa)
        sk = math.sqrt(kappa)
        total = 2.0 * math.sqrt(math.pi) * (
            _int_erfcx0(*mean_exit._scaled_gap(sk, z0)) - _int_erfcx0(sk))
        s_near = sum(gamma_fn(half_d - j) * kappa ** (j - half_d)
                     for j in range(1, (d + 1) // 2))
        s_far = sum(gamma_fn(half_d - j) * (kappa * z0 * z0) ** (j - half_d)
                    for j in range(1, (d + 1) // 2))
        total += erfcx(sk) * s_near - erfcx(sk * z0) * s_far
        return total / (4.0 * kappa)
    except OverflowError:
        return math.inf


def test_exterior_mean_keeps_the_gamma_form_bits_at_d_1_and_2():
    # neither dimension has a Gamma ratio, so the scaled sum does the
    # Gamma form's operations; kappa below 1, starts near the wall, and
    # means beyond float range (the last ones, from kappa near 5e-324)
    rng = random.Random(2029)
    cases = []
    for _ in range(4000):
        kappa = 10.0 ** rng.uniform(-8.0, 4.0)
        z0 = rng.choice((1.0 + 10.0 ** rng.uniform(-15.0, -3.0),
                         1.0 + 10.0 ** rng.uniform(-3.0, 2.0),
                         10.0 ** rng.uniform(2.0, 300.0)))
        cases.append((kappa, z0))
    cases += [(k, z0) for k in (5e-324, 1e-310, 1e-300, 1e300)
              for z0 in (math.nextafter(1.0, 2.0), 2.0, 1e300)]
    beyond = 0
    for d in (1, 2):
        for kappa, z0 in cases:
            want = _exterior_sum_gamma_form(d, kappa, z0)
            got = met_radial_exterior(d, kappa, z0)
            assert _same_bits(got, want), (d, kappa, z0)
            beyond += want == math.inf
    assert beyond >= 4


def _exterior_terms(d, kappa, z0):
    """`mean_exit._exterior_sum`'s scaled terms, each as ldexp(m, e -
    top) on the largest exponent top of a nonzero mantissa, and top."""
    h = 0.5 * d
    terms = []
    if d % 2 == 0:
        terms.append((2.0 * math.log(z0), 0))
        c, e = 1.0, 0
        for j in range(1, d // 2):
            c, de = math.frexp(c * (h - j) / kappa)
            e += de
            terms.append((c * (1.0 - z0 ** (-2 * j)) / j, e))
    else:
        sk = math.sqrt(kappa)
        terms.append((2.0 * math.sqrt(math.pi) * (
            _int_erfcx0(*mean_exit._scaled_gap(sk, z0)) - _int_erfcx0(sk)),
            0))
        a, b, e = 1.0, 1.0, 0
        for j in range(1, (d - 1) // 2):
            a, de = math.frexp(a * (h - j) / kappa)
            b = math.ldexp(b * (j - 0.5) / kappa, -de)
            e += de
            terms.append(((a - b) * (1.0 - z0 ** (-2 * j)) / j, e))
        if d > 1:
            near, far = erfcx(sk), erfcx(sk * z0)
            g, e = math.frexp(math.sqrt(math.pi) / sk)
            for j in range((d - 1) // 2, 0, -1):
                terms.append((g * (near - far * z0 ** (2.0 * (j - h))), e))
                g, de = math.frexp(g * (h - j) / kappa)
                e += de
    top = max((e for m, e in terms if m != 0.0), default=0)
    return [math.ldexp(m, e - top) for m, e in terms], top


def _compensated(xs):
    """Neumaier's compensated sum, the rule builtin sum follows for
    floats from CPython 3.12 on."""
    total = c = 0.0
    for x in xs:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    return total + c


def test_exterior_mean_adds_its_terms_left_to_right_at_every_d():
    # builtin sum adds left to right up to CPython 3.11 and compensates
    # from 3.12, which would move the mean's last bits from d = 5 on; the
    # mean must keep the left-to-right bits on every version
    rng = random.Random(2031)
    moved = {}
    for d in range(1, 10):
        moved[d] = 0
        for _ in range(300):
            kappa = 10.0 ** rng.uniform(-3.0, 3.0)
            z0 = 1.0 + 10.0 ** rng.uniform(-3.0, 2.0)
            xs, top = _exterior_terms(d, kappa, z0)
            total = 0.0
            for x in xs:
                total += x
            want = math.ldexp(total / (4.0 * kappa), top)
            assert _same_bits(met_radial_exterior(d, kappa, z0), want), (
                d, kappa, z0)
            compensated = math.ldexp(_compensated(xs) / (4.0 * kappa), top)
            moved[d] += not _same_bits(compensated, want)
    # a compensated sum would have moved bits at every d from 5
    assert all(moved[d] > 0 for d in range(5, 10))


# 40-digit mpmath quadrature of the integrating-factor form
# int_1^z0 z^(1-d) e^(kappa z^2) Gamma(d/2, kappa z^2) / (2 kappa^(d/2)) dz
# (the same at 60 digits), on points drawn from random.Random(29) with
# kappa log-uniform in [1e-3, 1e3] and z0 - 1 log-uniform in [1e-3, 2].
# Nearer the wall the odd-d erfcx difference loses digits, which is
# outside this grid.
EXTERIOR_D3_D4 = {
    (3, 1.9440808525179338, 1.0138548306691486): 4.29404079477677368066e-3,
    (3, 117.24829375422314, 1.008967446429801): 3.823105998093931228523e-5,
    (3, 1.153639606816173, 1.0136439854688206): 7.829391102726649301336e-3,
    (3, 0.3111455314582876, 2.639596936281213): 2.315170571792119675599,
    (3, 0.004191757349533958, 1.029375068332948): 46.78509754803169756082,
    (3, 0.022327772506790702, 1.0142537689669149): 1.904430856310590571303,
    (3, 982.7445933314397, 1.0122187213585943): 6.182062397879681199153e-6,
    (3, 4.432683416254762, 1.0242754825969556): 2.977988564438740800653e-3,
    (3, 24.139135698820677, 1.0299395611609432): 6.231003429268313634287e-4,
    (3, 0.010534519400957135, 1.0270619330063995): 10.90657652831324534319,
    (3, 0.2807764905685693, 1.413794332380968): 1.102278167009194142839,
    (3, 2.37486376976615, 1.0044496568029389): 1.103406184159671289982e-3,
    (3, 11.042598299553692, 1.0096593120076014): 4.540093156458366453899e-4,
    (3, 1.1785414759780426, 1.0053180462724913): 2.991416879952698986951e-3,
    (3, 0.2914251068428233, 1.3935347177255613): 1.009869105183652413082,
    (3, 1.2422899426812954, 1.3043970114402117): 0.1342019871457262826839,
    (4, 34.70861345131892, 1.0866988089239609): 1.229542178967094799855e-3,
    (4, 7.429541535498483, 1.0204859201441838): 1.544765039088079944428e-3,
    (4, 5.10166646890589, 1.3678640219622469): 0.03517250813410415774683,
    (4, 0.003936425710774002, 2.2449284036940673): 13035.15441658233176088,
    (4, 0.15974403166381482, 1.0028788057440619): 0.06516210288284788146092,
    (4, 0.007943306458030125, 1.013322371796485): 104.3322509378170817195,
    (4, 0.002603726941841056, 1.0205753858557713): 1475.823570123149336861,
    (4, 0.309407974172565, 1.1456526724703286): 0.8415307911049207578365,
    (4, 0.6302702287608459, 2.2229448198549595): 1.135705214853906254022,
    (4, 9.041682940765131, 1.0114735606569185): 6.998526522636562117314e-4,
    (4, 177.57326761821713, 1.2030416789376874): 5.229484274132479493891e-4,
    (4, 636.658961563229, 1.2655155042521082): 1.85165482301143908171e-4,
    (4, 621.9358943700291, 1.0047580734481756): 3.822247441579067064462e-6,
    (4, 0.04679053858425667, 2.6203733648116287): 107.8526318732179684869,
    (4, 0.00135287875866867, 2.1203270833220422): 106486.8079052781142383,
    (4, 289.9994854808426, 1.0028093883474931): 4.853622892532454219578e-6,
}


def test_exterior_mean_at_d_3_and_4_matches_mpmath_on_a_grid():
    for (d, kappa, z0), want in EXTERIOR_D3_D4.items():
        assert rel(met_radial_exterior(d, kappa, z0), want) < 5e-14, (
            d, kappa, z0)


# ---------------------------------------------------------------------------
# the series kernels keep the bits of their one-call-per-term loops

def _interior_series_with_expm1(b, kappa, z0):
    """The radial interior series calling expm1 and forming rho at every
    term, counting n in ints: the operations `_interior_series` must
    keep."""
    log_z2 = 2.0 * math.log(z0) if z0 > 0.0 else -math.inf
    big = math.ldexp(1.0, 900) / max(kappa, 1.0)
    coef = 0.25 / b
    total = 0.0
    scale = 0
    n = 0
    while True:
        term = -coef * math.expm1((n + 1) * log_z2)
        total += term
        rho = kappa / (b + n + 1)
        if rho < 1.0 and term * rho <= 5.5e-17 * (1.0 - rho) * total:
            break
        coef *= kappa * ((n + 1) / ((n + 2) * (b + n + 1)))
        n += 1
        if coef > big:
            coef, shift = math.frexp(coef)
            total = math.ldexp(total, -shift)
            scale += shift
            if scale + math.frexp(total)[1] > 1024:
                return math.inf
    if scale + math.frexp(total)[1] > 1024:
        return math.inf
    return math.ldexp(total, scale)


def _f_exp_erf_int_count(x):
    """The erf-form integral with int counters: the operations
    `_f_exp_erf` must keep."""
    x2 = x * x
    if x2 == 0.0:
        return 0.0
    split = 134217729.0 * x
    hi = split - (split - x)
    lo = x - hi
    x2_lo = ((hi * hi - x2) + 2.0 * hi * lo) + lo * lo
    term = x2
    pieces = []
    total = slope = 0.0
    n = 0
    while True:
        piece = term / (2 * n + 2)
        pieces.append(piece)
        total += piece
        slope += (n + 1) * piece
        if piece <= 1e-17 * total:
            return 2.0 / math.sqrt(math.pi) * (math.fsum(pieces) + x2_lo / x2 * slope)
        n += 1
        term *= 2.0 * x2 / (2 * n + 1)


def _same_bits(got, want):
    return got.hex() == want.hex()


def test_expm1_is_exactly_minus_one_from_minus_forty_down():
    # `_interior_series` skips expm1 where its argument is at most -40
    rng = random.Random(5)
    grid = [-40.0, -40.5, -41.0, -100.0, -745.0, -1e300, -math.inf]
    grid += [-40.0 - 1e4 * rng.random() ** 3 for _ in range(2000)]
    for x in grid:
        assert math.expm1(x) == -1.0, x


def test_interior_series_keeps_the_expm1_loop_bits_at_the_edges():
    largest = 1.7976931348623157e308
    for b in (0.5, 1.0, 1.5, 2.0):
        for kappa in (0.0, 5e-324, 1e-3, 1.0, 37.5, 699.0, 700.0,
                      1200.0, 1e300, largest):
            for z0 in (0.0, 5e-324, 1e-160, 0.5, math.exp(-20.0),
                       0.999, 1.0 - 2.0**-53, 1.0):
                got = mean_exit._interior_series(b, kappa, z0)
                want = _interior_series_with_expm1(b, kappa, z0)
                assert _same_bits(got, want), (b, kappa, z0)


def test_interior_series_keeps_the_expm1_loop_bits_on_a_grid():
    # kappa from 1e-3 to 1300 (past float range of the mean); starts
    # anywhere, near the centre and near the wall
    rng = random.Random(24)
    for _ in range(8000):
        b = 0.5 * rng.randint(1, 4)
        kappa = 10.0 ** rng.uniform(-3.0, math.log10(1300.0))
        z0 = rng.choice((rng.random(), rng.random() ** 8,
                         1.0 - 10.0 ** rng.uniform(-15.0, -1.0)))
        got = mean_exit._interior_series(b, kappa, z0)
        want = _interior_series_with_expm1(b, kappa, z0)
        assert _same_bits(got, want), (b, kappa, z0)


def test_exp_erf_integral_keeps_the_int_count_bits():
    rng = random.Random(7)
    xs = [5e-324, 1e-300, 1e-8, 5.0, -5.0, math.nextafter(5.0, 6.0)]
    xs += [rng.uniform(-5.0, 5.0) for _ in range(2000)]
    for x in xs:
        assert _same_bits(_f_exp_erf(x), _f_exp_erf_int_count(x)), x


@pytest.mark.xfail(
    strict=True,
    reason="the erf form cancels between its start and left-exit terms "
           "below the switch; these points keep only 5-6 digits")
@pytest.mark.parametrize("args,want", sorted(ERF_FORM_CANCELLATION.items()))
def test_interval_keeps_relative_accuracy_where_erf_form_cancels(args, want):
    assert rel(met_interval(*args), want) < 1e-12


def test_interval_backward_equation_residual():
    kappa, varphi, h = 2.0, 0.5, 1e-3
    for z in (-0.5, 0.1, 0.6):
        tm = met_interval(kappa, varphi, z - h)
        t0 = met_interval(kappa, varphi, z)
        tp = met_interval(kappa, varphi, z + h)
        d1 = (tp - tm) / (2.0 * h)
        d2 = (tp - 2.0 * t0 + tm) / (h * h)
        residual = d2 - 2.0 * kappa * (z - varphi) * d1
        assert abs(residual + 1.0) < 1e-4


def test_radial_backward_equation_residual():
    d, kappa, h = 3, 2.0, 1e-3
    for r in (0.3, 0.7):
        tm = met_radial_interior(d, kappa, r - h)
        t0 = met_radial_interior(d, kappa, r)
        tp = met_radial_interior(d, kappa, r + h)
        d1 = (tp - tm) / (2.0 * h)
        d2 = (tp - 2.0 * t0 + tm) / (h * h)
        residual = d2 + ((d - 1) / r - 2.0 * kappa * r) * d1
        assert abs(residual + 1.0) < 1e-4


def test_exterior_backward_equation_residual():
    kappa, varphi, h = 2.0, 0.5, 1e-3
    for z in (1.5, 2.5):
        tm = met_exterior_1d_forced(kappa, varphi, z - h)
        t0 = met_exterior_1d_forced(kappa, varphi, z)
        tp = met_exterior_1d_forced(kappa, varphi, z + h)
        d1 = (tp - tm) / (2.0 * h)
        d2 = (tp - 2.0 * t0 + tm) / (h * h)
        residual = d2 - 2.0 * kappa * (z - varphi) * d1
        assert abs(residual + 1.0) < 1e-4


def test_one_dimensional_radial_equals_interval():
    for kappa in (0.5, 2.0):
        for z0 in (0.0, 0.4):
            a = met_radial_interior(1, kappa, z0)
            b = met_interval(kappa, 0.0, z0)
            assert rel(a, b) < 1e-8


def test_one_dimensional_exterior_routes_agree():
    # d=1 exterior capture equals the unforced half-line formula.
    a = met_radial_exterior(1, 1.0, 3.0)
    b = met_exterior_1d_forced(1.0, 0.0, 3.0)
    assert rel(a, b) < 1e-10


def _exterior_double_quadrature(d, kappa, z0):
    """Integrating-factor form, evaluated blind: tau(z0) =
    int_1^z0 dy y^(1-d) e^(kappa y^2) int_y^inf dx x^(d-1) e^(-kappa x^2)."""
    cut = z0 + 30.0 / math.sqrt(kappa)

    def outer(y):
        inner, _ = tanh_sinh(
            lambda x: x ** (d - 1) * math.exp(-kappa * (x * x - y * y)),
            y, cut, 1e-13)
        return y ** (1 - d) * inner

    value, err = tanh_sinh(outer, 1.0, z0, 1e-11)
    assert err < 1e-9 * value
    return value


def test_even_d_closed_form_equals_double_quadrature():
    for d, kappa, z0 in ((2, 1.3, 2.1), (4, 0.8, 1.9)):
        a = met_radial_exterior(d, kappa, z0)
        b = _exterior_double_quadrature(d, kappa, z0)
        assert rel(a, b) < 1e-8


# ---------------------------------------------------------------------------
# Splitting probability.

def test_splitting_boundary_and_symmetry():
    assert splitting_probability(2.0, 0.7, 1.0) == 1.0
    assert splitting_probability(2.0, 0.7, -1.0) == 0.0
    assert splitting_probability(5.0, 0.0, 0.0) == 0.5
    for z0 in (0.2, 0.6, -0.4):
        total = (splitting_probability(3.0, 0.0, z0)
                 + splitting_probability(3.0, 0.0, -z0))
        assert abs(total - 1.0) < 1e-12


def test_splitting_monotone_in_start_and_bounded():
    grid = [i / 10.0 for i in range(-10, 11)]
    values = [splitting_probability(3.0, 0.7, z0) for z0 in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_splitting_vanishing_trap_is_linear():
    for z0 in (-0.5, 0.0, 0.8):
        got = splitting_probability(0.0, 0.3, z0)
        # eta = 2 kappa varphi = 0 here, so the classical linear law.
        assert abs(got - 0.5 * (1.0 + z0)) < 1e-14


def test_splitting_mirror_for_negative_pull():
    got = splitting_probability(2.0, -1.3, 0.5)
    want = 1.0 - splitting_probability(2.0, 1.3, -0.5)
    assert abs(got - want) < 1e-15


# ---------------------------------------------------------------------------
# Validation.

def test_operations_reject_out_of_domain_points():
    with pytest.raises(ValueError):
        met_interval(2.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        met_interval(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        met_radial_interior(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        met_radial_interior(3, 1.0, -0.1)
    with pytest.raises(ValueError):
        met_radial_exterior(3, 1.0, 0.9)
    with pytest.raises(ValueError):
        met_exterior_1d_forced(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        met_interval_asymptotic(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="z0 < 1"):
        met_interval_asymptotic(10.0, 1.0, 1.0)


@pytest.mark.parametrize("fn", [met_interval, splitting_probability])
@pytest.mark.parametrize("varphi, z0, named", [
    (math.nan, 0.0, "varphi"),
    (math.inf, 0.0, "varphi"),
    (-math.inf, 0.2, "varphi"),
    (0.5, math.nan, "z0"),
])
def test_interval_solvers_name_a_nonfinite_pull_or_start(fn, varphi, z0,
                                                         named):
    for kappa in (1.0, 1e-9):
        with pytest.raises(ValueError, match=named):
            fn(kappa, varphi, z0)


@pytest.mark.parametrize("varphi, z0, named", [
    (math.nan, 0.0, "varphi"),
    (math.inf, 0.0, "varphi"),
    (-math.inf, 0.2, "varphi"),
    (0.5, math.nan, "z0"),
    (0.5, 3.0, "z0"),
    (2.0, 5.0, "z0"),
    (-2.0, -1.5, "z0"),
])
def test_interval_asymptotic_names_a_bad_pull_or_start(varphi, z0, named):
    with pytest.raises(ValueError, match=named):
        met_interval_asymptotic(10.0, varphi, z0)


@pytest.mark.parametrize("z0", [math.nan, math.inf])
@pytest.mark.parametrize("fn", [
    lambda kappa, z0: met_radial_exterior(3, kappa, z0),
    lambda kappa, z0: met_radial_exterior(2, kappa, z0),
    lambda kappa, z0: met_exterior_1d_forced(kappa, 0.5, z0),
], ids=["exterior-d3", "exterior-d2", "exterior-1d-forced"])
def test_exterior_solvers_name_a_nonfinite_start(fn, z0):
    for kappa in (1.0, 0.0):
        with pytest.raises(ValueError, match="z0"):
            fn(kappa, z0)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("fn", [
    lambda kappa: splitting_probability(kappa, 0.3, 0.2),
    lambda kappa: met_radial_interior(3, kappa, 0.5),
    lambda kappa: met_radial_exterior(3, kappa, 2.0),
    lambda kappa: met_exterior_1d_forced(kappa, 0.5, 2.0),
], ids=["splitting", "radial-interior", "radial-exterior",
        "exterior-1d-forced"])
def test_solvers_name_a_nonfinite_or_negative_kappa(fn, kappa):
    with pytest.raises(ValueError, match="kappa"):
        fn(kappa)


def test_exterior_1d_forced_names_a_nan_pull():
    with pytest.raises(ValueError, match="varphi"):
        met_exterior_1d_forced(1.0, math.nan, 2.0)


# ---------------------------------------------------------------------------
# means beyond float range: the value where it fits a float, inf beyond

def _ic0_mpmath(mpmath, x):
    """Integral of exp(z^2) erfc(z) over [0, x]: (sqrt(pi)/2) erfi(x) minus
    the 2F2 form of the exp(z^2) erf(z) integral, with digits to spare for
    their cancellation at x > 0."""
    with mpmath.workdps(60 + int(x * x / 2.3)):
        x = mpmath.mpf(x)
        sqpi = mpmath.sqrt(mpmath.pi)
        return (sqpi / 2 * mpmath.erfi(x)
                - x * x / sqpi * mpmath.hyp2f2(1, 1, 1.5, 2, x * x))


def _exterior_1d_mpmath(mpmath, kappa, varphi, z0):
    kappa, varphi, z0 = map(mpmath.mpf, (kappa, varphi, z0))
    sk = mpmath.sqrt(kappa)
    return (mpmath.sqrt(mpmath.pi) / (2 * kappa)
            * (_ic0_mpmath(mpmath, sk * (z0 - varphi))
               - _ic0_mpmath(mpmath, sk * (1 - varphi))))


def _interval_erfc_mpmath(mpmath, kappa, varphi, z0):
    """The erfc form, with the splitting probability from erfi."""
    varphi, z0 = canonical_orientation(varphi, z0)
    kappa, varphi, z0 = map(mpmath.mpf, (kappa, varphi, z0))
    sk = mpmath.sqrt(kappa)
    with mpmath.workdps(60 + int(kappa * (1 + varphi) ** 2 / 2.3)):
        erfi = lambda z: mpmath.erfi(sk * (z - varphi))
        h = (erfi(z0) - erfi(-1)) / (erfi(1) - erfi(-1))
        top = _ic0_mpmath(mpmath, sk * (1 + varphi))
        j_full = top - _ic0_mpmath(mpmath, sk * (varphi - 1))
        j_start = top - _ic0_mpmath(mpmath, sk * (varphi - z0))
        return mpmath.sqrt(mpmath.pi) / (2 * kappa) * (h * j_full - j_start)


# exp(x^2) of the exit term passes float range (x^2 near 712 and 713) while
# the mean fits a float; both raised OverflowError before.  The float
# evaluation rounds x^2 itself, a relative error of a few x^2 ulps.
@pytest.mark.parametrize("fn, oracle, args", [
    (met_exterior_1d_forced, _exterior_1d_mpmath,
     (525.9780610071722, 2.163331673918802, 2.1060061828084735)),
    (met_interval, _interval_erfc_mpmath,
     (751.547422973541, -0.02565935939230446, 0.5666717794936633)),
], ids=["exterior-1d-forced", "interval"])
def test_mean_where_only_it_fits_a_float_matches_mpmath(fn, oracle, args):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        want = oracle(mpmath, *args)
        assert 1e300 < want < 1.7976931348623157e308
        assert rel(fn(*args), float(want)) < 1e-12


@pytest.mark.parametrize("fn, args", [
    (met_exterior_1d_forced, (1000.0, 2.5, 1.5)),
    (met_exterior_1d_forced, (1e6, 2.0, 1.5)),
    (met_interval, (1000.0, 0.0, 0.0)),
    (met_interval, (900.0, -0.05, -0.5)),
    (met_radial_exterior, (4, 1e-310, 2.0)),
    (met_radial_exterior, (7, 1e-200, 2.0)),
    (met_radial_exterior, (6, 1e-160, 1.0 + 2.0 ** -52)),
])
def test_mean_beyond_float_range_is_inf(fn, args):
    assert fn(*args) == math.inf
    assert "math.inf" in fn.__doc__


def test_solvers_let_no_overflow_out_over_the_benchmark_domain():
    # kappa up to 1e3 and pulls up to 2.5, as the closed-form benchmark draws
    rng = random.Random(20261019)
    for _ in range(3000):
        kappa = 10.0 ** rng.uniform(1.0, 3.0)
        varphi = rng.uniform(-2.5, 2.5)
        for value in (met_interval(kappa, varphi, rng.uniform(-1.0, 1.0)),
                      met_exterior_1d_forced(kappa, varphi,
                                             rng.uniform(1.0, 3.0))):
            assert value >= 0.0, (kappa, varphi)


# ---------------------------------------------------------------------------
# the moment identity: the mean is -d/ds of the MGF at s = 0.  With
# a = s/(4 kappa) and F = M inside the ball, U outside, F(0, b, x) = 1 and
# the mean is (F_a(0, b, kappa) - F_a(0, b, kappa z0^2))/(4 kappa).  The
# tolerance adds the two derivatives' claims, 4 ulps of each term for the
# subtraction, and 4 ulps of the mean per unit of kappa (per unit of
# kappa (1 + |varphi|)^2 on the interval) for the closed form's own
# rounding, which grows with the exponents and term counts it carries.

def _ball_identity(fda, d, kappa, z0):
    """(mean, claim, magnitude of the terms) from F_a at a = 0."""
    hi = fda(0.0, 0.5 * d, kappa)
    lo = fda(0.0, 0.5 * d, kappa * z0 * z0)
    return ((hi.value - lo.value) / (4.0 * kappa),
            (hi.abs_err_estimate + lo.abs_err_estimate) / (4.0 * kappa),
            (abs(hi.value) + abs(lo.value)) / (4.0 * kappa))


def _within_identity(got, identity, exponent):
    value, claim, scale = identity
    tol = claim + 4.0 * _EPS * (scale + max(1.0, exponent) * abs(got))
    return abs(got - value) <= tol


def _grid(seed, kappa_decades, start):
    rng = random.Random(seed)
    return [(d, 10.0 ** rng.uniform(*kappa_decades), start(rng))
            for d in (1, 2, 3, 4) for _ in range(30)]


@pytest.mark.parametrize("d, kappa, z0", [
    (1, 1.0, 0.5), (3, 30.0, 0.2), (2, 5.0, 0.7), (4, 0.01, 0.9),
    *_grid(31, (-2.0, 2.5), lambda rng: rng.random()),
])
def test_radial_interior_mean_is_the_moment_identity(d, kappa, z0):
    identity = _ball_identity(kummer_m_da, d, kappa, z0)
    assert _within_identity(met_radial_interior(d, kappa, z0), identity,
                            kappa)


@pytest.mark.parametrize("d, kappa, z0", [
    (1, 1.0, 2.0), (3, 0.5, 1.5), (2, 5.0, 1.2), (4, 20.0, 2.5),
    *_grid(32, (-2.0, 2.0), lambda rng: 1.0 + 4.0 * rng.random()),
])
def test_radial_exterior_mean_is_the_moment_identity(d, kappa, z0):
    identity = _ball_identity(tricomi_u_da, d, kappa, z0)
    assert _within_identity(met_radial_exterior(d, kappa, z0), identity,
                            kappa)


def _interval_identity(kappa, varphi, z0):
    """The mean from the pair m1, m2 about the trap centre.

    At a = 0, m1 = 1, so y = A m1 + B m2 meeting y = 1 at both ends has
    A = 1, B = 0, and differentiating the two end conditions in a gives
    y_a(z) = m1_a(z) - m1_a(zl) + B_a (m2(z) - m2(zl)) with
    B_a = (m1_a(zr) - m1_a(zl)) / (m2(zl) - m2(zr)).
    """
    varphi, z0 = canonical_orientation(varphi, z0)

    def m1_a(z):
        r = kummer_m_da(0.0, 0.5, kappa * z * z)
        return r.value, r.abs_err_estimate

    def m2(z):
        r = kummer_m(0.5, 1.5, kappa * z * z)
        return z * r.value, abs(z) * r.abs_err_estimate

    zl, zr, z = -1.0 - varphi, 1.0 - varphi, z0 - varphi
    (al, el), (ar, er), (az, ez) = m1_a(zl), m1_a(zr), m1_a(z)
    (bl, fl), (br, fr), (bz, fz) = m2(zl), m2(zr), m2(z)
    b_a = (ar - al) / (bl - br)
    b_a_err = (er + el + abs(b_a) * (fl + fr)) / abs(bl - br)
    y_a = az - al + b_a * (bz - bl)
    claim = ez + el + abs(b_a) * (fz + fl) + abs(bz - bl) * b_a_err
    scale = abs(az) + abs(al) + abs(b_a * (bz - bl))
    return -y_a / (4.0 * kappa), claim / (4.0 * kappa), scale / (4.0 * kappa)


def _interval_grid(seed, size):
    """Seeded points where the m1/m2 form does not cancel: its terms add
    to at most 4 times the mean (M stays in range: kappa (1+|varphi|)^2
    <= 600)."""
    rng = random.Random(seed)
    points = []
    while len(points) < size:
        args = (10.0 ** rng.uniform(-3.0, 2.5), rng.uniform(-2.5, 2.5),
                rng.uniform(-1.0, 1.0))
        if args[0] * (1.0 + abs(args[1])) ** 2 > 600.0:
            continue
        if _interval_identity(*args)[2] <= 4.0 * met_interval(*args):
            points.append(args)
    return points


@pytest.mark.parametrize("kappa, varphi, z0", _interval_grid(33, 120))
def test_interval_mean_is_the_moment_identity(kappa, varphi, z0):
    assert _within_identity(met_interval(kappa, varphi, z0),
                            _interval_identity(kappa, varphi, z0),
                            kappa * (1.0 + abs(varphi)) ** 2)


@pytest.mark.xfail(
    strict=True,
    reason="the m1/m2 form cancels where the erf form does: its terms are "
           "7e9 and 2e10 times the mean, and it is 9e-7 and 7e-7 off")
@pytest.mark.parametrize("args,want", sorted(ERF_FORM_CANCELLATION.items()))
def test_moment_identity_keeps_relative_accuracy_where_erf_form_cancels(
        args, want):
    assert rel(_interval_identity(*args)[0], want) < 1e-12
