"""Tests for the spectral layer: eigenbases, audit, serialization.

Eigenvalues, residue weights and normalizations were frozen from a
40-digit mpmath oracle that shares no code with the library.  alpha_n
is the root of the eigenvalue condition (hyp1f1 or hyperu at the
boundary, or the interval determinant) polished by `findroot`; the
weight is the generating-function residue 4 kappa N / (alpha^2 dD/da)
with dD/da from `mpmath.diff`; beta is 1/sqrt(int p y^2) by `mpmath.quad`
with p = z^(d-1) exp(-kappa z^2).  The radial y is the stored
M(a, b, kappa z^2) or U(a, b, kappa z^2) at the basis's own float
alpha.  The interval y is the exact eigenfunction at the polished root,
scaled onto the stored coefficient pair by least squares: at a float
root the stored pair's own integral is ill-conditioned where the
interval reaches far from the trap centre.

The free-diffusion bases are checked against the classical cosine and
Bessel series, and the quadrature gates count calls through wrappers
on every module that binds the quadrature routines.
"""

import dataclasses
import functools
import hashlib
import json
import math
import random
import sys
import threading

import pytest
import scipy.special as sp

from ouexit import _quad, mean_exit, specfun, spectral
from ouexit.ou_model import Geometry
from ouexit.spectral import (
    RootSearchError,
    basis_from_json,
    basis_to_json,
    build_basis,
    weights_crosscheck,
)

# (geometry, kappa, varphi, d, n_modes) -> [(alpha_n, weight_n, beta_n)]
ORACLE = {
    ('interval', 2.0, 0.0, 1, 6): [
        (0.9858861613098696, 0.5563232483529773, 0.5199665157568395),
        (2.9971013281859507, 0.0, 1.0907855204104915),
        (4.631730834695092, 0.26439554639644725, 1.6840515562149014),
        (6.226225178909415, 0.0, 2.2731769596038305),
        (7.8096075231390785, 0.26792851207713403, 2.8584044346539765),
        (9.388313226192702, 0.0, 3.441317766649701),
    ],
    ('interval', 20.0, 0.0, 1, 4): [
        (0.0006364296568319319, 8.026584104135567e-08, 1.2749724236808108e-07),
        (6.324556531196802, 0.0, 7.622965504372457e-07),
        # dropping the residual term v v_a' of the norm identity moves
        # this beta by 4.3e-8
        (8.944287185691051, 2.432156700841634e-13, 3.1190799980010664e-06),
        (10.95459024109418, 0.0, 1.0040721917262468e-05),
    ],
    ('interval', 4.0, 0.5, 1, 5): [
        (1.3705501945216816, 1.3788570849422117, 1.60813157392118),
        (3.7053277329558867, 0.41004348214266056, 2.378967964056851),
        (5.257708005835664, 0.3495013436618385, 3.0921441725211327),
        (6.718263248062705, 0.3399265010956387, 3.9445613859110984),
        (8.202745361989276, 0.357040717198522, 4.863459285353243),
    ],
    ('interval', 30.0, 0.5, 1, 3): [
        (0.21723816406254365, 0.01526963813483412, 0.026844201887296384),
        # a quadrature of the stored pair gives 0.0840623: the float
        # root leaks the growing solution into the far boundary
        (7.7836868062141775, 0.0001218741457939851, 0.08592927452845113),
        (11.092974986417007, 0.00024498452569180103, 0.17362703955633157),
    ],
    ('interval', 3.0, -0.7, 1, 4): [
        (1.7624375393472829, 0.00337571283910344, 0.004296375254320631),
        (3.706892046112477, -0.004942271647346084, 0.020364191557065873),
        (5.177654818554224, 0.007622206496276193, 0.04563045551383197),
        (6.640464190034419, -0.009056947647654122, 0.07084555428718103),
    ],
    ('interval', 2.0, 1.0, 1, 4): [
        (2.013445587961663, 1.6328394516876377, 2.5675066532102044),
        (3.6228965187084485, 0.9747583230135658, 3.5968558235735775),
        (5.0632476371390736, 0.982249300780279, 4.981099362404044),
        (6.548896279176469, 0.9646084348638226, 6.485440035628188),
    ],
    ('interval', 10.0, 2.0, 1, 4): [
        (13.33160179644666, 6.359212311709247e-05, 0.10631241789998247),
        (15.887935039311685, 5.063675077694233e-05, 0.11305775845916648),
        (17.848553458607554, 4.3689284250336195e-05, 0.1179751367073559),
        (19.505353195584902, 3.910662100473178e-05, 0.12197728570502063),
    ],
    # the trap centre lies far outside the interval; beta from 60-digit
    # quadrature (at 40 digits the cancellation inside y costs 4 digits)
    ('interval', 1.0, 5.0, 1, 4): [
        (5.006518258870563, 4.332055041176065e-8, 0.0010420326569292741),
        (5.8704566295458405, 4.7165867753366784e-8, 0.0012749443209658788),
        (6.8422967213348572, 6.3441748624842988e-8, 0.0017233827213600623),
        (7.9993875045217427, 7.705058090829234e-8, 0.0022205131276746286),
    ],
    ('interval', 30.0, 2.0, 1, 3): [
        (35.112261056325409, 1.5334967315724737e-13, 1.3749921670849119e-5),
        (39.052886956739066, 1.3340645736032767e-13, 1.4264007879519667e-5),
        (42.148328798396964, 1.2088359472331102e-13, 1.4654265053071341e-5),
    ],
    ('radial-interior', 3.0, 0.0, 1, 4): [
        (0.7456602556306231, 1.0547177673598294, 1.4983181499693523),
        (4.69203392647148, -0.08698383212969649, 1.3781504057047032),
        (7.850618691658729, 0.054844074540884746, 1.3981391243100725),
        (10.994454575514855, -0.03984545452294261, 1.4056981147169545),
    ],
    ('radial-interior', 5.0, 0.0, 2, 4): [
        (0.7412562309517364, 1.0451603563509102, 3.3322897019619098),
        (5.3287854157115175, -0.08143594216805819, 4.205207890673543),
        (8.552006536309248, 0.06743170044540285, 5.214631606222906),
        (11.719278350229255, -0.05876625335153044, 6.08469474988161),
    ],
    ('radial-interior', 2.0, 0.0, 3, 4): [
        (2.2321774954994034, 1.4359993602395167, 4.638283980637004),
        (5.896259829628065, -0.8290466646401247, 8.965694977711145),
        (9.172809015405523, 0.7739119761633249, 13.380011768596274),
        (12.37886613440062, -0.7566425484537741, 17.80959622160863),
    ],
    ('radial-interior', 3.0, 0.0, 4, 4): [
        (2.3674788759034104, 1.4424824535113419, 7.423874510702768),
        (6.343216405650319, -0.9074174081260814, 17.029029912273533),
        (9.721768156214942, 0.9779534209608368, 29.22400629087233),
        (12.981893057145173, -1.076133567050987, 43.508910376410064),
    ],
    ('radial-exterior', 1.0, 0.0, 1, 4): [
        (2.252640908269198, 0.37829649387417635, 1.5981901418041633),
        (3.1949408186434596, -0.07724602154698572, 0.5786301249988864),
        (3.879857856083844, 0.012634922340235557, 0.1292217524142086),
        (4.444951803171533, -0.001676749280031598, 0.02127652625199151),
    ],
    ('radial-exterior', 2.0, 0.0, 2, 4): [
        (3.405684974252925, 0.22044277771328932, 1.9070848115413825),
        (4.776874008921344, -0.03018181140910336, 0.462469694102538),
        (5.7633535967136105, 0.0035710463664740356, 0.07450524814491896),
        (6.573562880773352, -0.0003559775435670595, 0.00919263278148253),
    ],
    ('radial-exterior', 1.0, 0.0, 3, 4): [
        (1.7533941546634282, 0.624391727885383, 1.5981901418041633),
        (2.8648990967631196, -0.09606896144762266, 0.5786301249976334),
        (3.6129346774354394, 0.0145708198159903, 0.12922175241419379),
        (4.213976332695506, -0.0018655979541143907, 0.02127652625203882),
    ],
    # deep exterior traps, whose roots reach U(a, d/2, 50) at a near -21;
    # alpha is polished by Newton steps on hyperu, as U near 1e28 defeats
    # findroot's absolute tolerance
    ('radial-exterior', 50.0, 0.0, 1, 6): [
        (56.193681823154925, 3.758247426189812e-25, 1.1584867434142228e-12),
        (60.970107279001176, -9.870149721491985e-29, 3.4829179411690424e-16),
        (64.75629085290635, 6.73795778255026e-32, 2.626242646163917e-19),
        (68.02101483474362, -7.160319781491217e-35, 3.0261439648677593e-22),
        (70.94517519407097, 9.869124766818163e-38, 4.469309416137133e-25),
        (73.6226093615727, -1.6143676444244186e-40, 7.7681041893238515e-28),
    ],
    ('radial-exterior', 50.0, 0.0, 2, 6): [
        (55.74511585660302, 1.0205561696942821e-24, 3.095751276408434e-12),
        (60.55710636317194, -2.67255289151054e-28, 9.3031480530119e-16),
        (64.3676973982194, 1.8210711602637174e-31, 7.012859258979381e-19),
        (67.65125577288538, -1.9325926638779935e-34, 8.0789309055335115e-22),
        (70.59079557568518, 2.6608681727901383e-37, 1.1929641750908908e-24),
        (73.28122751417358, -4.348797179546625e-40, 2.0731818285416136e-27),
    ],
    ('radial-exterior', 50.0, 0.0, 3, 6): [
        (55.29674381771473, 2.7443925414587748e-24, 8.191738321835437e-12),
        (60.14444264944943, -7.172187782097682e-28, 2.4627948945193102e-15),
        (63.979506133028266, 4.880849887971299e-31, 1.8570339841437473e-18),
        (67.28193263535474, -5.174956685343519e-34, 2.1398069184002877e-21),
        (70.23686982858378, 7.119984946232472e-37, 3.1602789953672115e-24),
        (72.94030853517644, -1.162986481336205e-39, 5.4928791492346065e-27),
    ],
}


# (geometry, kappa, varphi, d, n_modes) -> [alpha_n], roots of the
# 40-digit eigenvalue condition polished by `findroot` as for ORACLE.
# The kappa = 10 determinant's Kummer calls reach a < -10 at z = kappa
# (1 + varphi)^2 = 90, where M is summed in the fixed-point series; the
# deep traps put their slowest root between 1e-12 and 1e-9, where the
# refinement works to a relative tolerance.
ALPHA_ORACLE = {
    ('interval', 10.0, 2.0, 1, 12): [
        13.331601796446661, 15.887935039311684, 17.848553458607554,
        19.505353195584902, 20.968371037213336, 22.293605238161321,
        23.514250182879525, 24.651935287696048, 25.721738067625007,
        26.735170001708437, 27.704709462818035, 28.653797056239079,
    ],
    ('interval', 50.0, 0.0, 1, 3): [
        3.902827299429727e-10, 10.0, 14.142135623730951],
    ('interval', 60.0, 0.0, 1, 3): [
        3.017675928024772e-12, 10.954451150103322, 15.491933384829668],
    ('interval', 100.0, 0.3, 1, 3): [
        6.4015678685273723e-10, 14.14213562373095, 20.0],
    ('radial-interior', 60.0, 0.0, 3, 3): [
        3.2772963117186553e-11, 15.491933384829668, 21.908902300206645],
}


def rel(x, y):
    return abs(x - y) / abs(y)


@pytest.mark.parametrize("case", list(ORACLE), ids=str)
def test_basis_matches_mpmath_oracle(case):
    basis = build_basis(*case)
    for n, (alpha, weight, beta) in enumerate(ORACLE[case]):
        assert rel(basis.alphas[n], alpha) < 1e-12, n
        if weight == 0.0:
            assert basis.weights[n] == 0.0, n
        else:
            assert rel(basis.weights[n], weight) < 1e-10, n
        assert rel(basis.betas[n], beta) < 1e-10, n


@pytest.mark.parametrize("case", list(ALPHA_ORACLE), ids=str)
def test_basis_roots_match_mpmath_oracle(case):
    alphas = build_basis(*case).alphas
    assert len(alphas) == len(ALPHA_ORACLE[case])
    for n, alpha in enumerate(ALPHA_ORACLE[case]):
        assert rel(alphas[n], alpha) < 1e-12, n


def test_free_diffusion_interval_is_the_cosine_series():
    basis = build_basis("interval", 0.0, 0.0, 1, 6)
    assert basis.brownian
    for n in range(6):
        alpha = 0.5 * math.pi * (n + 1)
        assert rel(basis.alphas[n], alpha) < 1e-15
        assert basis.weights[n] == (2.0 if n % 2 == 0 else 0.0)
        # the mode is +/- cos(alpha z) / alpha or +/- sin(alpha z) / alpha
        assert rel(basis.betas[n], alpha) < 1e-15
        z0 = 0.3
        want = (math.cos if n % 2 == 0 else math.sin)(alpha * z0) / alpha
        got = spectral.mode_term(basis, n, z0)
        assert abs(abs(got) - abs(want)) < 1e-15


# the free ball's mode factor Gamma(b) J_{b-1}(x) / (x/2)^(b-1), b = d/2
FREE_BALL_FACTOR = {1: math.cos, 2: lambda x: sp.jv(0, x),
                    3: lambda x: math.sin(x) / x,
                    4: lambda x: sp.jv(1, x) / (0.5 * x)}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_free_diffusion_ball_is_the_bessel_series(d):
    # 12 modes take the roots past x = 37; d = 1 and 3 are cos(x) and
    # sin(x)/x, whose weights and beta are closed forms
    basis = build_basis("radial-interior", 0.0, 0.0, d, 12)
    z0 = 0.37
    for n, alpha in enumerate(basis.alphas):
        want = FREE_BALL_FACTOR[d](alpha * z0)
        assert abs(spectral.mode_term(basis, n, z0) - want) < 4e-16
    if d == 1:
        alphas = [math.pi * (n + 0.5) for n in range(12)]
        assert basis.alphas == tuple(alphas)
        assert basis.weights == tuple(2.0 * (-1) ** n / a
                                      for n, a in enumerate(alphas))
        assert basis.betas == (math.sqrt(2.0),) * 12
        # the d = 1 ball is the free interval, whose odd modes carry no
        # weight
        interval = build_basis("interval", 0.0, 0.0, 1, 24)
        for t in (0.05, 0.1, 0.5):
            assert rel(spectral.survival(basis, z0, t),
                       spectral.survival(interval, z0, t)) < 1e-15
        return
    if d == 3:
        alphas = [math.pi * (n + 1) for n in range(12)]
        assert basis.alphas == tuple(alphas)
        assert basis.weights == tuple(2.0 * (-1) ** n for n in range(12))
        assert basis.betas == tuple(math.sqrt(2.0) * a for a in alphas)
        return
    # the roots hold to the root tolerance; a weight moves by 2/alpha of
    # its root's error, so weights and beta are checked at the basis's
    # own roots
    b = d // 2
    for n, zero in enumerate(sp.jn_zeros(b - 1, 12)):
        alpha = basis.alphas[n]
        assert rel(alpha, zero) < 2e-13
        jb = sp.jv(b, alpha)
        scale = (0.5 * alpha) ** (b - 1) / math.gamma(b)
        assert rel(basis.weights[n], 2.0 * scale / (alpha * jb)) < 1e-14
        assert rel(basis.betas[n], math.sqrt(2.0) * scale / abs(jb)) < 1e-14


@pytest.mark.parametrize("mass", [-983.04, 0.0, math.nan, math.inf])
def test_a_mode_without_positive_mass_is_refused(mass):
    # a root or confluent values gone wrong show as a mass that is not
    # positive and finite, and such a mode has no usable beta
    with pytest.raises(RootSearchError, match="mass"):
        spectral._unit_norm(mass, 24.5)


@pytest.mark.parametrize("case", [("interval", 80.0, 0.0, 1, 3),
                                  ("interval", 100.0, 0.0, 1, 3),
                                  ("radial-interior", 100.0, 0.0, 3, 3)],
                         ids=str)
def test_a_slowest_root_under_the_scan_floor_is_refused(case):
    # every condition is positive at alpha = 0; here it is already
    # negative at the 1e-12 floor, so a basis would lack its ground mode
    with pytest.raises(RootSearchError, match="below the scan"):
        build_basis(*case)


def test_a_scan_that_finds_no_sign_change_stops_at_its_cap():
    # the cap is what keeps a condition without roots from being scanned
    # forever
    reads = []

    def positive(alpha):
        reads.append(alpha)
        return 1.0

    with pytest.raises(RootSearchError, match=(
            "found 0 of 3 eigenvalue brackets before alpha = 10;")):
        spectral._scan_brackets(positive, 1.0, 1.0, 0.0, 3, 10.0)
    assert max(reads) <= 10.0


def _full_sweep_scan(fn, kappa, dnu, brownian_gap, n_roots, cap):
    """The scan with the logarithmic sweep evaluated at all 65 grid
    points.  Returns its brackets, or the message of the RootSearchError
    it raised, and the number of sign changes its sweep saw below the
    sweep's last cell."""
    brackets = []
    prev_a = 1e-12
    prev_f = fn(prev_a)
    if prev_f < 0.0:
        return (f"eigenvalue condition is already negative at alpha = "
                f"{prev_a:g}; the slowest mode lies below the scan"), 0
    n_log = 64
    ratio = (math.sqrt(4.0 * kappa * dnu) / prev_a) ** (1.0 / n_log)
    a = prev_a
    for _ in range(n_log):
        a *= ratio
        f = fn(a)
        if (f < 0.0) != (prev_f < 0.0):
            brackets.append((prev_a, a, prev_f, f))
        prev_a, prev_f = a, f
    below_last_cell = sum(1 for br in brackets if br[1] < prev_a)
    while len(brackets) < n_roots:
        a = prev_a + spectral._local_step(prev_a, kappa, dnu, brownian_gap)
        if a > cap:
            return (f"found {len(brackets)} of {n_roots} eigenvalue brackets "
                    f"before alpha = {cap:.6g}; last bracket scanned was "
                    f"({prev_a:.17g}, {a:.17g})"), below_last_cell
        f = fn(a)
        if (f < 0.0) != (prev_f < 0.0):
            brackets.append((prev_a, a, prev_f, f))
        prev_a, prev_f = a, f
    return brackets[:n_roots], below_last_cell


def _sweep_cases(count, seed):
    """Seeded builds whose families ask for 1 or 3 roots: radial d = 1-4,
    centred intervals, and intervals with |varphi| <= 2.5, at kappa
    log-uniform in [1e-7, 700]."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        kappa = math.exp(rng.uniform(math.log(1e-7), math.log(700.0)))
        n_modes = rng.choice((1, 3))
        if rng.random() < 0.45:
            geometry = rng.choice(("radial-interior", "radial-exterior"))
            cases.append((geometry, kappa, 0.0, rng.randint(1, 4), n_modes))
        elif rng.random() < 0.25:
            # each parity family is asked for n_modes // 2 + 1 roots
            cases.append(("interval", kappa, 0.0, 1, 4 if n_modes == 3 else 1))
        else:
            cases.append(("interval", kappa, rng.uniform(-2.5, 2.5), 1,
                          n_modes))
    return cases


def test_the_sweep_keeps_the_full_sweeps_brackets(monkeypatch):
    # Each root family has at most one level below the sweep's top
    # nu = dnu, so reading the sweep's ends and bisecting finds what
    # evaluating every grid point found, wherever that saw at most one
    # sign change below its last cell.  Where it saw more, the interval
    # determinant is cancellation noise far from the trap centre.  The
    # listed oracle cases hold a level rounding puts close to the top.
    cases = _sweep_cases(200, 2027) + [
        ("interval", 50.0, 0.0, 1, 4), ("interval", 100.0, 0.3, 1, 3),
        ("interval", 62.0, 0.0, 1, 4), ("radial-interior", 60.0, 0.0, 3, 3)]
    seen = []
    scan = spectral._scan_brackets

    def compared(fn, kappa, dnu, brownian_gap, n_roots, cap):
        top = math.sqrt(4.0 * kappa * dnu)
        sweep = []

        def counted(x):
            if x <= top * (1.0 + 1e-12):
                sweep.append(x)
            return fn(x)

        args = (kappa, dnu, brownian_gap, n_roots, cap)
        want, below_last_cell = _full_sweep_scan(fn, *args)
        try:
            got = scan(counted, *args)
        except RootSearchError as err:
            got = str(err)
        seen.append((case, want, below_last_cell, got, len(sweep)))
        if isinstance(got, str):
            raise RootSearchError(got)
        return got

    monkeypatch.setattr(spectral, "_scan_brackets", compared)
    for case in cases:
        try:
            build_basis(*case)
        except (RootSearchError, ValueError, OverflowError,
                ZeroDivisionError):
            pass
    compared_families = 0
    for case, want, below_last_cell, got, n_sweep in seen:
        assert n_sweep <= 9, case
        if below_last_cell <= 1:
            assert got == want, case
            compared_families += 1
        else:
            assert case[0] == "interval" and abs(case[2]) > 1.5, case
    assert compared_families >= 200


@pytest.mark.parametrize("n_modes", [1, 5, 12])
def test_a_centred_interval_asks_each_family_for_half_the_modes(
        monkeypatch, n_modes):
    asked = []
    original = spectral._find_roots

    def recorded(fn, kappa, dnu, brownian_gap, n_roots, *rest):
        asked.append(n_roots)
        return original(fn, kappa, dnu, brownian_gap, n_roots, *rest)

    monkeypatch.setattr(spectral, "_find_roots", recorded)
    basis = build_basis("interval", 1.0, 0.0, 1, n_modes)
    assert asked == [n_modes // 2 + 1] * 2
    assert len(basis.alphas) == n_modes
    build_basis("interval", 1.0, 0.3, 1, n_modes)
    assert asked[2:] == [n_modes]


def test_root_refinement_evaluates_no_point_twice(monkeypatch):
    # the residual test reads the last evaluated value of the condition
    calls = []
    original = spectral._refine_root

    def recorded(fn, bracket):
        def counted(x):
            calls[-1].append(x)
            return fn(x)

        calls.append([])
        return original(counted, bracket)

    monkeypatch.setattr(spectral, "_refine_root", recorded)
    for case in (("interval", 1.0, 0.0, 1, 12), ("interval", 4.0, 0.5, 1, 12),
                 ("radial-interior", 2.0, 0.0, 3, 12),
                 ("radial-exterior", 1.0, 0.0, 1, 8)):
        build_basis(*case)
    assert len(calls) > 40
    for xs in calls:
        assert len(set(xs)) == len(xs)


@pytest.mark.parametrize("bracket, root", [((0.5, 2.0, 0.0, 1.0), 0.5),
                                          ((0.5, 2.0, -1.0, 0.0), 2.0)])
def test_a_bracket_end_reading_zero_is_the_root(bracket, root):
    # the scan can hand on an end where the condition is exactly 0.0;
    # that end is returned as it is, with no further read
    def unread(x):
        raise AssertionError(f"read at {x!r}")

    assert spectral._refine_root(unread, bracket) == root


def _bisect_then_secant(fn, bracket):
    """The refiner that walked bisection's path to its last cell: every
    new refiner must reach the same cell and so return the same root."""
    a, b, fa, fb = bracket
    scale = max(abs(fa), abs(fb), 1e-300)
    tol = spectral._ALPHA_TOL * min(1.0, bracket[1])
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(64):
        if b - a <= 1e-3 * (bracket[1] - bracket[0]) + 64.0 * tol:
            break
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    x0, f0 = a, fa
    x1, f1 = b, fb
    for _ in range(80):
        if f1 == f0:
            root = 0.5 * (a + b)
            f_root = fn(root)
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not a < x2 < b:
            x2 = 0.5 * (a + b)
        f2 = fn(x2)
        root, f_root = x2, f2
        if f2 == 0.0:
            break
        if (f2 < 0.0) == (fa < 0.0):
            a, fa = x2, f2
        else:
            b, fb = x2, f2
        moved = abs(x2 - x1)
        x0, f0 = x1, f1
        x1, f1 = x2, f2
        if moved < tol or (b - a) < tol:
            break
    if abs(f_root) > spectral._RESIDUAL_TOL * scale:
        raise RootSearchError(
            f"root at alpha = {root!r} kept residual "
            f"{abs(f_root):.3e} against bracket scale {scale:.3e} "
            f"(bracket ({bracket[0]!r}, {bracket[1]!r}))")
    return root


def _twelve_mode_cases(count, seed):
    """Seeded 12-mode builds, taking the three layouts in turn, at kappa
    log-uniform in [1e-3, 10]: intervals with |varphi| <= 1.5, balls
    with d = 1-4."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        geometry = ("interval", "radial-interior", "radial-exterior")[k % 3]
        kappa = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
        if geometry == "interval":
            cases.append((geometry, kappa, rng.uniform(-1.5, 1.5), 1, 12))
        else:
            cases.append((geometry, kappa, 0.0, rng.randint(1, 4), 12))
    return cases


def _confluent_values_once(monkeypatch):
    """Give each confluent value spectral reads from a dict after its
    first call, so two builds of one case compute their shared points
    once."""
    for name in ("kummer_m", "kummer_m_da", "tricomi_u", "tricomi_u_da"):
        original = getattr(spectral, name)
        seen = {}

        def once(*args, _seen=seen, _original=original):
            try:
                return _seen[args]
            except KeyError:
                value = _seen[args] = _original(*args)
                return value

        monkeypatch.setattr(spectral, name, once)


def test_probed_refinement_builds_bisections_bases(monkeypatch):
    # The probes reach the cell bisection reaches, so each build gives the
    # same bytes, or raises the same type of error: a bracket whose
    # condition changes sign more than once may stop the two at different
    # changes (pinned below)
    _confluent_values_once(monkeypatch)
    probed = spectral._refine_root
    built = 0
    for case in _sweep_cases(300, 2027) + _twelve_mode_cases(102, 2032):
        outcomes = []
        for refine in (probed, _bisect_then_secant):
            monkeypatch.setattr(spectral, "_refine_root", refine)
            try:
                outcomes.append(basis_to_json(build_basis(*case)))
            except (RootSearchError, ValueError, OverflowError,
                    ZeroDivisionError) as err:
                outcomes.append(type(err))
        assert outcomes[0] == outcomes[1], case
        built += isinstance(outcomes[0], str)
    assert built >= 350


def test_probed_refinement_reads_fewer_points_for_each_benchmark_root(
        monkeypatch):
    # the same roots from the same brackets, each within bisection's count
    # plus two reads of the condition; the nine builds took 1,310 reads
    # when bisection walked to its last cell
    counts = []
    probed = spectral._refine_root

    def both(fn, bracket):
        roots = []
        for refine in (probed, _bisect_then_secant):
            reads = [0]

            def counted(x, _reads=reads):
                _reads[0] += 1
                return fn(x)

            roots.append(refine(counted, bracket))
            counts.append(reads[0])
        assert roots[0].hex() == roots[1].hex(), bracket
        return roots[0]

    monkeypatch.setattr(spectral, "_refine_root", both)
    for case in BUILD_SHA256:
        build_basis(*case)
    new, old = counts[::2], counts[1::2]
    assert all(n <= o + 2 for n, o in zip(new, old))
    assert sum(new) <= 800 and sum(old) == 1310


def test_a_probe_reading_zero_is_the_root_bisection_returns():
    # 0.625 is the third midpoint of (0, 1); the secant of a line lands
    # on it at once
    reads = []

    def line(x):
        reads.append(x)
        return x - 0.625

    assert spectral._refine_root(line, (0.0, 1.0, -0.625, 0.375)) == 0.625
    assert reads == [0.625]
    assert _bisect_then_secant(line, (0.0, 1.0, -0.625, 0.375)) == 0.625


def test_halvings_bound_the_probes_on_a_step_like_condition():
    # flat below its root and steep above: the secant through the two
    # smallest |f|, both near -1, runs away, so after its two spare reads
    # the refiner halves as bisection does, and ends two reads behind it
    def step(x):
        return math.expm1(60.0 * (x - 0.9123))

    bracket = (0.0, 1.0, step(0.0), step(1.0))
    runs = []
    for refine in (spectral._refine_root, _bisect_then_secant):
        reads = []

        def counted(x, _reads=reads):
            _reads.append(x)
            return step(x)

        runs.append((refine(counted, bracket), reads))
    (root, reads), (want, bisected) = runs
    assert root == want
    assert reads[1] == 0.5 and reads[0] not in bisected
    assert len(reads) == len(bisected) + 2


# Where a scan bracket holds several sign changes, the refiners may stop
# at different ones.  Here the trap centre lies far outside the interval
# and the determinant is noise: the first scan bracket changes sign 271
# times on 1,025 even points.  Bisection's root there fails the residual
# test; the probes find a change that passes it, and the build fails at
# the next bracket instead.
SEVERAL_CHANGES = ("interval", 41.516549480617144, 2.1586833270880614, 1, 3)


def test_a_bracket_with_several_sign_changes_fails_at_another_root(
        monkeypatch):
    brackets = []
    probed = spectral._refine_root

    def recorded(fn, bracket):
        brackets.append((fn, bracket))
        return probed(fn, bracket)

    monkeypatch.setattr(spectral, "_refine_root", recorded)
    with pytest.raises(RootSearchError, match="residual") as new:
        build_basis(*SEVERAL_CHANGES)
    fn, (a, b, _, _) = brackets[0]
    signs = [fn(a + (b - a) * k / 1024) < 0.0 for k in range(1025)]
    assert sum(s != t for s, t in zip(signs, signs[1:])) > 1
    monkeypatch.setattr(spectral, "_refine_root", _bisect_then_secant)
    with pytest.raises(RootSearchError, match="residual") as old:
        build_basis(*SEVERAL_CHANGES)
    assert f"({a!r}, {b!r})" in str(old.value)
    assert f"({a!r}, {b!r})" not in str(new.value)


# Each case hides one root of a centred interval family (kappa = 1, 12
# modes) by flipping the sign of its condition from that root on, so the
# condition touches zero there without a sign change.  The messages are
# those of the build that asked each family for all 12 roots.
HIDDEN_ROOT = [
    (0.5, 1, "even"),
    (0.5, 5, "even"),  # the 11th root of all
    (1.5, 0, "odd"),
    (1.5, 5, "odd"),  # the 12th root of all
]


@pytest.mark.parametrize("b,index,family", HIDDEN_ROOT)
def test_a_hidden_family_root_breaks_the_alternation(monkeypatch, b, index,
                                                     family):
    basis = build_basis("interval", 1.0, 0.0, 1, 12)
    even = b == 0.5
    roots = [al for al, (_, c2) in zip(basis.alphas, basis.coeff_pairs)
             if (c2 == 0.0) == even]
    # the family's condition takes a = -alpha^2/4 (+1/2 for odd modes)
    a_hidden = -roots[index] ** 2 / 4.0 + (0.0 if even else 0.5)
    original = spectral.kummer_m

    def hidden(a, b_, z):
        result = original(a, b_, z)
        if b_ == b and a <= a_hidden:
            return specfun.HypergeomResult(
                -result.value, result.abs_err_estimate, result.method)
        return result

    monkeypatch.setattr(spectral, "kummer_m", hidden)
    with pytest.raises(RootSearchError) as err:
        build_basis("interval", 1.0, 0.0, 1, 12)
    assert str(err.value) == (
        "even and odd interval families stopped alternating; a root was "
        f"missed in the {family} family")


def test_an_interval_mode_takes_eight_confluent_values(monkeypatch):
    # m1, m2 and their a-derivatives at both boundaries give the pair,
    # the weight and beta; the root search takes no a-derivative
    counts = {"kummer_m": 0, "kummer_m_da": 0}
    for name in counts:
        original = getattr(specfun, name)

        def wrapper(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(spectral, name, wrapper)
    basis = build_basis("interval", 4.0, 0.5, 1, 12)
    assert counts["kummer_m_da"] == 4 * 12
    counts.update(kummer_m=0, kummer_m_da=0)
    spectral._interval_mode(4.0, 0.5, basis.alphas[0])
    assert counts == {"kummer_m": 4, "kummer_m_da": 4}


@pytest.mark.parametrize("geometry, kappa, d, z0, names", [
    ("radial-interior", 2.0, 3, 0.5, ("kummer_m", "kummer_m_da")),
    ("radial-exterior", 1.0, 3, 1.5, ("tricomi_u", "tricomi_u_da")),
], ids=["interior", "exterior"])
def test_a_radial_mode_takes_four_confluent_values_by_module_name(
        monkeypatch, geometry, kappa, d, z0, names):
    # the tracer sees a confluent call only through spectral's own names:
    # a radial mode takes F and dF/da at (a, b, kappa) and at
    # (a+1, b+1, kappa), and mode_term and mgf reach F the same way
    calls = []
    for name in ("kummer_m", "kummer_m_da", "tricomi_u", "tricomi_u_da"):
        original = getattr(specfun, name)

        def wrapper(*args, _name=name, _original=original):
            calls.append((_name,) + args)
            return _original(*args)

        monkeypatch.setattr(spectral, name, wrapper)
    basis = build_basis(geometry, kappa, 0.0, d, 4)
    f, f_da = names
    assert {call[0] for call in calls} == set(names)
    assert sum(call[0] == f_da for call in calls) == 2 * 4
    calls.clear()
    alpha = basis.alphas[0]
    spectral._radial_mode(basis.geometry, kappa, 0.5 * d, alpha)
    a = -alpha * alpha / (4.0 * kappa)
    b = 0.5 * d
    assert sorted(calls) == sorted([
        (f, a, b, kappa), (f_da, a, b, kappa),
        (f, 1.0 + a, b + 1.0, kappa), (f_da, 1.0 + a, b + 1.0, kappa)])
    calls.clear()
    spectral.mode_term(basis, 0, z0)
    assert calls == [(f, a, b, kappa * z0 * z0)]
    calls.clear()
    spectral.mgf(geometry, kappa, 0.0, d, z0, 2.0)
    assert calls == [(f, 2.0 / (4.0 * kappa), b, kappa * z0 * z0),
                     (f, 2.0 / (4.0 * kappa), b, kappa)]


# The benchmark's nine basis-build scenarios at their nominal kappa, and
# the sha256 of each basis's `basis_to_json` as the code gave it before a
# root's mode data read the values its condition kept, the audit
# measured the ground gap from the sweep's top and refinement reached
# bisection's last cell by probes: none of them changes a bit.
BUILD_SHA256 = {
    ("interval", 1.0, 0.0, 1, 12):
        "64a5314947b49c9f8248700d03a351f4177d9dbdfe2914004f70ebc17f3f985e",
    ("interval", 4.0, 0.5, 1, 12):
        "881f9172af9227e47b4334adb974bc23c52462f9392abae7dc19f6f71835355b",
    ("interval", 2.0, 1.0, 1, 12):
        "ab29e9c025c6cac31596f07a2003d5a501bd6a404e0eabb64f1e61c395de6192",
    ("interval", 10.0, 2.0, 1, 4):
        "e1ee228e4c8e53ebb84e3450d24b9a97ee655451104d81021cfc6f8ebca004fa",
    ("radial-interior", 2.0, 0.0, 3, 12):
        "31d1cc6521fe79c6c3a77b20a7ed7010bfa665aeb1f4b44f1d1de90cd33aadcc",
    ("radial-interior", 5.0, 0.0, 2, 12):
        "bc45a0272b3147bd15f038addb4a8797b275e5287bd8683e6619006e5cbc534c",
    ("radial-exterior", 1.0, 0.0, 3, 12):
        "1d3a5984275d0eb348c58da507a6b53e5e2b7f4f21e3a7b1d4369683789cb2c5",
    ("radial-exterior", 1.0, 0.0, 1, 8):
        "dd4fdd385444e8bb8f29aeac51fe03dae95a7479b5c7e1ece6d035efcbfe5c91",
    ("radial-exterior", 2.0, 0.0, 2, 4):
        "93ec1d6ecdde9ec05401cf763899e848e903bb2305f522078da79388ce285625",
}
# confluent calls of the nine builds, through spectral's names: 2,768;
# 3,878 when refinement walked bisection's path to its last cell, and
# 4,195 when every mode computed its values again and the interior
# kappa = 5 build rescanned its ground gap
BUILD_CALL_CEILING = 2850


def test_benchmark_builds_keep_their_bits_and_call_ceiling(monkeypatch):
    calls = []
    for name in ("kummer_m", "kummer_m_da", "tricomi_u", "tricomi_u_da"):
        original = getattr(specfun, name)

        def wrapper(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(spectral, name, wrapper)
    for case, digest in BUILD_SHA256.items():
        text = basis_to_json(build_basis(*case))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, case
    assert len(calls) <= BUILD_CALL_CEILING


def test_an_interior_build_runs_no_rescan_below_the_sweep_top(monkeypatch):
    # its ground gap (0.74, 5.33) is wide, but no level lies between the
    # ground root and the sweep's top sqrt(4 kappa) = 4.47, and (4.47,
    # 5.33) is within the spacing law
    found = []
    original = spectral._suspect_gaps

    def recorded(*args):
        found.append(original(*args))
        return found[-1]

    monkeypatch.setattr(spectral, "_suspect_gaps", recorded)
    basis = build_basis("radial-interior", 5.0, 0.0, 2, 12)
    assert basis.alphas[0] < math.sqrt(4.0 * 5.0) < basis.alphas[1]
    assert found and not any(found)


def test_a_hidden_root_pair_above_the_sweep_top_is_still_caught(monkeypatch):
    # The d = 3 ball at kappa = 2: the ground root 2.23 lies below the
    # sweep's top sqrt(4 kappa) = 2.83.  As in the alternation test, the
    # condition's sign flips from the second root (5.90) on, which hides
    # it and leaves a gap from the top to the third root (9.17) wider than
    # the spacing law; a factor (alpha - 3.55)(alpha - 3.7) puts a close
    # root pair in that gap, between two points of the linear scan
    kappa, d = 2.0, 3
    b = 0.5 * d
    alphas = build_basis("radial-interior", kappa, 0.0, d, 6).alphas
    a_hidden = -alphas[1] ** 2 / (4.0 * kappa)
    lo, hi = 3.55, 3.7
    original = spectral.kummer_m

    def hidden(a, b_, z):
        result = original(a, b_, z)
        if b_ != b or z != kappa:
            return result
        alpha = math.sqrt(-4.0 * kappa * a) if a < 0.0 else 0.0
        value = result.value * (alpha - lo) * (alpha - hi)
        return specfun.HypergeomResult(-value if a <= a_hidden else value,
                                       result.abs_err_estimate,
                                       result.method)

    monkeypatch.setattr(spectral, "kummer_m", hidden)
    gaps = []
    suspect = spectral._suspect_gaps

    def recorded(*args):
        gaps.extend(suspect(*args))
        return suspect(*args)

    monkeypatch.setattr(spectral, "_suspect_gaps", recorded)
    basis = build_basis("radial-interior", kappa, 0.0, d, 6)
    top = math.sqrt(4.0 * kappa)
    assert gaps[0] == (top, pytest.approx(alphas[2], rel=1e-9))
    assert basis.alphas[1:3] == (lo, hi)
    assert basis.alphas[3] == pytest.approx(alphas[2], rel=1e-9)
    # the scan alone misses the pair
    monkeypatch.setattr(spectral, "_audit_gaps", lambda *args: [])
    missed = build_basis("radial-interior", kappa, 0.0, d, 6).alphas
    assert not {lo, hi} & set(missed)


# ---------------------------------------------------------------------------
# The weights audit

# the benchmark's basis-build scenarios; the audit's difference error
# stays below 4e-6 on every one of them
AUDIT_SCENARIOS = [
    ("interval", 1.0, 0.0, 1, 12),
    ("interval", 4.0, 0.5, 1, 12),
    ("interval", 2.0, 1.0, 1, 12),
    ("interval", 10.0, 2.0, 1, 4),
    ("radial-interior", 2.0, 0.0, 3, 12),
    ("radial-interior", 5.0, 0.0, 2, 12),
    ("radial-exterior", 1.0, 0.0, 3, 12),
    ("radial-exterior", 1.0, 0.0, 1, 8),
    ("radial-exterior", 2.0, 0.0, 2, 4),
]
AUDIT_BOUND = 1e-5


@pytest.fixture(scope="module")
def audit_bases():
    return {case: build_basis(*case) for case in AUDIT_SCENARIOS}


@pytest.mark.parametrize("case", AUDIT_SCENARIOS, ids=str)
def test_audit_passes_on_benchmark_scenarios(audit_bases, case):
    report = weights_crosscheck(audit_bases[case])
    assert report.max_discrepancy < AUDIT_BOUND
    assert len(report.rows) == case[4]


@pytest.mark.parametrize("case", [("interval", 0.0, 0.0, 1, 6),
                                  ("radial-interior", 0.0, 0.0, 1, 6),
                                  ("radial-interior", 0.0, 0.0, 2, 6),
                                  ("radial-interior", 0.0, 0.0, 3, 6),
                                  ("radial-interior", 0.0, 0.0, 4, 6)],
                         ids=str)
def test_audit_passes_on_free_diffusion_bases(case):
    assert weights_crosscheck(build_basis(*case)).max_discrepancy < AUDIT_BOUND


@pytest.mark.parametrize("case", AUDIT_SCENARIOS, ids=str)
def test_audit_trips_on_a_weight_off_by_1e_4(audit_bases, case):
    basis = audit_bases[case]
    n = max(k for k in range(basis.n_modes) if basis.weights[k] != 0.0)
    weights = list(basis.weights)
    weights[n] *= 1.0 + 1e-4
    report = weights_crosscheck(
        dataclasses.replace(basis, weights=tuple(weights)))
    assert report.max_discrepancy > AUDIT_BOUND
    assert max(report.rows, key=lambda row: row[4])[0] == n


def test_audit_reports_silenced_modes_as_exact_zeros():
    report = weights_crosscheck(build_basis("interval", 2.0, 0.0, 1, 4))
    for n, alpha, weight, weight_fd, disc in report.rows:
        if n % 2:
            assert weight == weight_fd == disc == 0.0


# ---------------------------------------------------------------------------
# Quadrature gates: per-mode data come from confluent functions alone

def _count_quadrature(monkeypatch):
    """Wrap the quadrature routines wherever a module bound them; the
    returned list records every call."""
    calls = []
    for name in ("tanh_sinh", "integrate_to_cutoff"):
        original = getattr(_quad, name)

        def wrapper(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        for module in (_quad, specfun, mean_exit, spectral):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("case", [
    ("interval", 2.0, 0.0, 1, 6),
    ("interval", 4.0, 0.5, 1, 12),
    ("interval", 2.0, 1.0, 1, 6),
    ("interval", 10.0, 2.0, 1, 4),
    ("radial-interior", 3.0, 0.0, 1, 6),
], ids=str)
def test_build_makes_no_quadrature_call(monkeypatch, case):
    calls = _count_quadrature(monkeypatch)
    build_basis(*case)
    assert calls == []


@pytest.mark.parametrize("case", [
    ("radial-interior", 2.0, 0.0, 3, 12),
    ("radial-exterior", 1.0, 0.0, 1, 4),
    ("radial-exterior", 2.0, 0.0, 2, 4),
    ("radial-exterior", 1.0, 0.0, 3, 4),
], ids=str)
def test_build_makes_no_quadrature_call_of_its_own(monkeypatch, case):
    # the build integrates nothing, and neither does specfun beneath it:
    # Tricomi U's Laplace integral, which exterior builds reach, is its
    # own exp-sinh pass there
    calls = _count_quadrature(monkeypatch)
    build_basis(*case)
    assert calls == []


# ---------------------------------------------------------------------------
# Serialization

@pytest.mark.parametrize("case", [("interval", 4.0, 0.5, 1, 3),
                                  ("radial-exterior", 1.0, 0.0, 3, 3),
                                  ("radial-interior", 0.0, 0.0, 4, 3)],
                         ids=str)
def test_json_round_trip_is_exact(case):
    basis = build_basis(*case)
    text = basis_to_json(basis)
    payload = json.loads(text)
    assert payload["schema"] == 2
    assert "weights_integral" not in payload
    assert "weight_route" not in payload
    again = basis_from_json(text)
    assert again == basis
    assert basis_to_json(again) == text


@pytest.mark.parametrize("case, free", [
    (("interval", 0.0, 0.0, 1, 4), True),
    (("radial-interior", 0.5 * spectral.BROWNIAN_KAPPA, 0.0, 2, 3), True),
    (("interval", 1.0, 0.0, 1, 4), False),
    (("radial-interior", spectral.BROWNIAN_KAPPA, 0.0, 2, 3), False)],
    ids=str)
def test_kappa_alone_marks_a_free_diffusion_basis(case, free):
    # a stored flag could disagree with kappa: flipped to False on the free
    # interval, survival raised ZeroDivisionError; flipped to True on the
    # kappa = 1 one, survival(basis, 0.2, 0.3) gave 0.70164, not 0.70133
    basis = build_basis(*case)
    assert basis.brownian is free
    assert "brownian" not in {f.name for f in dataclasses.fields(basis)}
    with pytest.raises(TypeError):
        dataclasses.replace(basis, brownian=not free)
    text = basis_to_json(basis)
    payload = json.loads(text)
    assert payload["brownian"] is free
    again = basis_from_json(text)
    assert again == basis and again.brownian is free
    assert basis_to_json(again) == text
    payload["brownian"] = not free
    with pytest.raises(ValueError, match="brownian"):
        basis_from_json(json.dumps(payload))


def test_json_rejects_an_unknown_schema():
    basis = build_basis("interval", 2.0, 0.0, 1, 2)
    payload = json.loads(basis_to_json(basis))
    payload["schema"] = 3
    with pytest.raises(ValueError, match="schema"):
        basis_from_json(json.dumps(payload))


@pytest.mark.parametrize("key", ["weights", "betas", "coeff_pairs"])
def test_json_refuses_a_mode_list_shorter_than_n_modes(key):
    # such an image used to load, and survival or mode_term then raised a
    # bare IndexError at the first missing mode
    basis = build_basis("interval", 2.0, 0.3, 1, 4)
    payload = json.loads(basis_to_json(basis))
    payload[key] = payload[key][:2]
    with pytest.raises(ValueError, match=key):
        basis_from_json(json.dumps(payload))


@pytest.mark.parametrize("key", ["weights", "betas", "coeff_pairs"])
def test_basis_refuses_a_mode_list_shorter_than_alphas(key):
    # such a basis used to build, and survival then raised a bare
    # IndexError at the first missing mode
    basis = build_basis("interval", 2.0, 0.3, 1, 4)
    with pytest.raises(ValueError, match=key):
        dataclasses.replace(basis, **{key: getattr(basis, key)[:2]})


@pytest.mark.parametrize("case, z0, t", [
    (("interval", 2.0, 0.3, 1, 4), 0.2, 1.0),
    (("radial-interior", 2.0, 0.0, 3, 4), 0.2, 0.1)], ids=str)
def test_basis_takes_a_layout_name_as_its_member(case, z0, t):
    # a plain-string geometry used to pass every `is Geometry.X` test
    # by: survival gave 0.2557 here on the interval (0.3044) and 1.0 in
    # the ball (0.8234), and basis_to_json raised AttributeError
    basis = build_basis(*case)
    named = dataclasses.replace(basis, geometry=case[0])
    assert named.geometry is basis.geometry
    assert named == basis
    assert spectral.survival(named, z0, t) == spectral.survival(basis, z0, t)
    assert basis_to_json(named) == basis_to_json(basis)
    with pytest.raises(ValueError, match="exterior-1d"):
        dataclasses.replace(basis, geometry="exterior-1d")


def _t_min_loop(basis):
    """The reliability horizon from the last mode of nonzero weight."""
    for n in reversed(range(basis.n_modes)):
        w = basis.weights[n]
        if w != 0.0:
            return max(0.0, math.log(abs(w) / spectral._TMIN_TERM)
                       / (basis.alphas[n] ** 2))
    return 0.0


def test_t_min_is_computed_once_per_basis_and_follows_replace():
    basis = build_basis("interval", 2.0, 0.3, 1, 4)
    text = basis_to_json(basis)
    first = basis.t_min
    assert first == _t_min_loop(basis) > 0.0
    assert vars(basis)["t_min"] is first
    assert basis.t_min is first
    # the cached horizon is no field: equality and JSON do not see it
    assert basis == dataclasses.replace(basis)
    assert basis_to_json(basis) == text
    # a replaced basis computes its own, here from its third mode
    silenced = dataclasses.replace(basis, weights=basis.weights[:3] + (0.0,))
    assert silenced.t_min == _t_min_loop(silenced) != first
    quiet = dataclasses.replace(basis, weights=(0.0,) * 4)
    assert quiet.t_min == _t_min_loop(quiet) == 0.0


# ----------------------------------------------------------------------
# evaluation: reuse of a start's mode factors
# ----------------------------------------------------------------------

CURVE_BASES = (("interval", 4.0, 0.5, 1, 8), ("interval", 2.0, 0.0, 1, 6),
               ("radial-exterior", 1.0, 0.0, 3, 6),
               ("radial-interior", 0.0, 0.0, 2, 6))


@pytest.fixture(scope="module")
def curve_bases():
    return [build_basis(*case) for case in CURVE_BASES]


def _memo_free_sum(basis, z0, t, rate_weighted, factor=None):
    """The truncated mode sum with every factor computed afresh, by
    `factor` (`spectral.mode_term` by default)."""
    factor = factor or spectral.mode_term
    acc = abs_acc = term = 0.0
    kept = 0
    for n in range(basis.n_modes):
        w = basis.weights[n]
        if w == 0.0:
            continue
        lam = basis.alphas[n] ** 2
        term = w * math.exp(-lam * t) * factor(basis, n, z0)
        if rate_weighted:
            term *= lam
        acc += term
        abs_acc += abs(term)
        kept += 1
        if kept >= spectral._MIN_TERMS and abs(term) < (
                spectral._TERM_STOP * abs(acc)):
            return acc, abs_acc, True
    return acc, abs_acc, abs(term) < spectral._TMIN_TERM * max(1.0, abs(acc))


def _curve_times(basis, points=200):
    rate0 = basis.alphas[0] ** 2
    return [basis.t_min * i / (points - 1) + 8.0 / rate0 * (i / points) ** 2
            for i in range(points)]


def test_interleaved_curves_are_bit_identical_to_a_memo_free_sum(
        curve_bases):
    # an equal basis that is a distinct object shares no factors
    copy = basis_from_json(basis_to_json(curve_bases[0]))
    assert copy == curve_bases[0] and copy is not curve_bases[0]
    starts = {"interval": (-0.9, 0.0, 0.35), "radial-interior": (0.0, 0.6),
              "radial-exterior": (1.0, 1.7)}
    streams = [(basis, z0) for basis in curve_bases + [copy]
               for z0 in starts[basis.geometry.value]]
    rng = random.Random(7)
    basis, z0 = streams[0]
    for _ in range(6 * 200):
        if rng.random() < 0.3:
            basis, z0 = rng.choice(streams)
        # times in random order, so the kept prefix must grow mid-curve
        t = rng.choice(_curve_times(basis))
        for rate_weighted, fn in ((False, spectral.survival),
                                  (True, spectral.fet_density)):
            want = _memo_free_sum(basis, z0, t, rate_weighted)
            got = spectral._spectral_sum(basis, z0, t, rate_weighted)
            assert [x.hex() if isinstance(x, float) else x for x in got] == \
                [x.hex() if isinstance(x, float) else x for x in want]
            assert fn(basis, z0, t).raw.hex() == want[0].hex()


def test_a_curve_at_one_start_computes_each_mode_factor_once(
        monkeypatch, curve_bases):
    calls = []
    mode_term = spectral.mode_term

    def counted(basis, n, z0):
        calls.append(n)
        return mode_term(basis, n, z0)

    monkeypatch.setattr(spectral, "mode_term", counted)
    for basis in curve_bases:
        calls.clear()
        z0 = 0.25 if basis.geometry is not Geometry.RADIAL_EXTERIOR else 1.25
        for t in _curve_times(basis):
            spectral.survival(basis, z0, t)
            spectral.fet_density(basis, z0, t)
        assert 0 < len(calls) <= basis.n_modes
        assert len(set(calls)) == len(calls)


def test_the_later_points_of_a_curve_call_no_mode_term(monkeypatch,
                                                        curve_bases):
    calls = []
    mode_term = spectral.mode_term

    def counted(basis, n, z0):
        calls.append(n)
        return mode_term(basis, n, z0)

    monkeypatch.setattr(spectral, "mode_term", counted)
    for basis in curve_bases:
        z0 = 0.4 if basis.geometry is not Geometry.RADIAL_EXTERIOR else 1.4
        rate0 = basis.alphas[0] ** 2
        times = [basis.t_min + 10.0 / rate0 * i / 199 for i in range(200)]
        spectral.survival(basis, z0, times[0])
        assert calls
        calls.clear()
        for t in times[1:]:
            spectral.survival(basis, z0, t)
        assert calls == []


def test_threads_sharing_the_kept_rows_get_each_starts_own_values(
        curve_bases):
    # four threads run curves at their own starts under a short switch
    # interval, so each replaces the one slot of kept rows under the others
    starts = {"interval": (-0.9, 0.35), "radial-interior": (0.0, 0.6),
              "radial-exterior": (1.0, 1.7)}
    curves = [[(basis, z0, t) for t in _curve_times(basis, 40)]
              for basis in curve_bases
              for z0 in starts[basis.geometry.value]]
    want = [[_memo_free_sum(*call, False)[0].hex() for call in curve]
            for curve in curves]
    wrong = []

    def run(seed):
        order = list(range(len(curves)))
        random.Random(seed).shuffle(order)
        for k in order:
            for call, hexed in zip(curves[k], want[k]):
                if spectral.survival(*call).raw.hex() != hexed:
                    wrong.append(call)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _memo_free_values(basis, z0, t, factor=None):
    """(value, raw, warning) of `survival` and of `fet_density`, from the
    memo-free sum with the builtin clamp and magnitudes."""
    raw, _, converged = _memo_free_sum(basis, z0, t, False, factor)
    survival = (min(1.0, max(0.0, raw)), raw,
                bool(raw < -spectral._CLAMP_SLACK
                     or raw > 1.0 + spectral._CLAMP_SLACK
                     or t < basis.t_min or not converged))
    raw, abs_acc, converged = _memo_free_sum(basis, z0, t, True, factor)
    density = (max(0.0, raw), raw,
               bool(raw < -spectral._CLAMP_SLACK * abs_acc
                    or t < basis.t_min or not converged))
    return survival, density


def _hexed(values):
    return [x.hex() if type(x) is float else x for x in values]


EDGE_WEIGHTS = (0.8, 0.0, -0.3, 0.25, 0.1, -0.05, 0.02, 0.01)
# mode factors with -0.0, NaN and +/-inf among ordinary ones; the weights
# above silence mode 1
EDGE_FACTORS = (
    (1.0, 7.0, -0.5, 0.25, 2.0, -1.0, 0.5, 0.25),
    (-0.0, 7.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0),
    (1.0, 7.0, math.nan, 0.25, 2.0, -1.0, 0.5, 0.25),
    (1.0, 7.0, -0.5, 0.25, 2.0, -1.0, 0.5, math.nan),
    (math.inf, 7.0, -0.5, 0.25, 2.0, -1.0, 0.5, 0.25),
    (1.0, 7.0, -0.5, 0.25, 2.0, -1.0, 0.5, -math.inf),
    (-math.inf, 7.0, -0.5, 0.25, 2.0, -1.0, 0.5, math.inf),
    (-2.0, 7.0, -0.5, 0.25, 2.0, -1.0, 0.5, 0.25),
    (3.0, 7.0, 1e-300, -1e300, 2.0, -1.0, 0.5, 0.25),
    # the fourth live term is negligible: the stop test waits for the fifth
    (1.0, 7.0, -0.5, 0.25, 1e-20, -1.0, 0.5, 0.25),
)


@pytest.mark.parametrize("factors", EDGE_FACTORS)
def test_kept_rows_keep_the_builtin_edge_semantics(monkeypatch, factors):
    # a hand-built basis whose mode factors are the table above
    n = len(EDGE_WEIGHTS)
    basis = spectral.SpectralBasis(
        geometry="interval", kappa=4.0, varphi=0.0, d=1,
        alphas=tuple(0.5 + k for k in range(n)),
        coeff_pairs=((1.0, 0.0),) * n, weights=EDGE_WEIGHTS,
        betas=(1.0,) * n)
    monkeypatch.setattr(spectral, "mode_term",
                        lambda basis, n, z0: factors[n])
    # t = 0 keeps every term; t = 1e4 underflows each exponential to 0.0,
    # which meets an inf factor as NaN
    times = (0.0, 1e-3, basis.t_min, 1.0, 4.0, 60.0, 1e4)
    # each start meets its factors cold, then kept, then after another
    # start replaced them
    for z0 in (0.3, -0.6, 0.3):
        for t in times + times[::-1]:
            survival, density = _memo_free_values(basis, z0, t)
            for rate_weighted, fn, want in (
                    (False, spectral.survival, survival),
                    (True, spectral.fet_density, density)):
                got = fn(basis, z0, t)
                assert type(got) is spectral.SpectralValue
                assert type(got.warning) is bool
                assert _hexed((float(got), got.raw, got.warning)) == \
                    _hexed(want)
                assert _hexed(spectral._spectral_sum(
                    basis, z0, t, rate_weighted)) == _hexed(
                    _memo_free_sum(basis, z0, t, rate_weighted))


# ----------------------------------------------------------------------
# evaluation: skipping factors that cannot move a bit
# ----------------------------------------------------------------------

# the four curve-eval bases of the benchmark, a centred interval and a
# free-diffusion ball
SKIP_BASES = (("interval", 4.0, 0.5, 1, 12), ("interval", 10.0, 2.0, 1, 4),
              ("radial-interior", 5.0, 0.0, 2, 12),
              ("radial-exterior", 1.0, 0.0, 3, 8),
              ("interval", 2.0, 0.0, 1, 12),
              ("radial-interior", 0.0, 0.0, 2, 6))
START_RANGE = {"interval": (-1.0, 1.0), "radial-interior": (0.0, 1.0),
               "radial-exterior": (1.0, 3.0)}


@pytest.fixture(scope="module")
def skip_bases():
    return [build_basis(*case) for case in SKIP_BASES]


def _unthinned_mode_term(basis, n, z0):
    """`mode_term` as it read the basis on every call, before its cached
    table: a and the layout per call, the interval pair by `_m1` and
    `_m2`, the radial function by `_radial_solution`."""
    alpha = basis.alphas[n]
    kappa = basis.kappa
    if basis.brownian:
        if basis.geometry is Geometry.INTERVAL:
            c1, c2 = basis.coeff_pairs[n]
            return c1 * math.cos(alpha * z0) - c2 * math.sin(alpha * z0) / alpha
        return spectral._free_radial(basis.d, alpha * z0)
    a = -alpha * alpha / (4.0 * kappa)
    if basis.geometry is Geometry.INTERVAL:
        c1, c2 = basis.coeff_pairs[n]
        z = z0 - basis.varphi
        return (c1 * spectral._m1(specfun.kummer_m, a, kappa, z)
                - c2 * spectral._m2(specfun.kummer_m, a, kappa, z))
    f, _ = spectral._radial_solution(basis.geometry)
    z = kappa * z0 * z0
    try:
        value = f(a, 0.5 * basis.d, z).value if z < math.inf else math.inf
    except OverflowError:
        value = math.inf
    if abs(value) != math.inf:
        return value
    raise spectral._far_start(z0, z)


def _skip_times(rng, basis, count):
    """Seeded times from 0 through below t_min to t_min + 10/rate_0."""
    rate0 = basis.alphas[0] ** 2
    times = [0.0, basis.t_min, basis.t_min + 10.0 / rate0]
    times += [rng.uniform(0.0, basis.t_min) for _ in range(count // 4)]
    times += [basis.t_min + rng.uniform(0.0, 10.0 / rate0)
              for _ in range(count - len(times))]
    return times


def test_skipped_factors_leave_every_value_and_flag_bit_for_bit(skip_bases):
    rng = random.Random(35)
    skipped = 0
    # a basis whose third mode is skipped from t = 0 on while the modes
    # after it are not, so the kept rows must stop before it
    weights = list(skip_bases[0].weights)
    weights[2] *= 1e-30
    hushed = dataclasses.replace(skip_bases[0], weights=tuple(weights))
    for basis in skip_bases + [hushed]:
        lo, hi = START_RANGE[basis.geometry.value]
        rate0 = basis.alphas[0] ** 2
        for _ in range(12):
            z0 = rng.uniform(lo, hi)
            # a fresh start late in the decay, where the skip fires, then a
            # curve at that start in random order, which computes the
            # skipped modes its early points need
            first = basis.t_min + rng.uniform(2.0, 10.0) / rate0
            fn = rng.choice((spectral.survival, spectral.fet_density))
            fn(basis, z0, first)
            live = len(basis._live_modes)
            if len(spectral._rows[2]) < min(spectral._MIN_TERMS, live):
                skipped += 1
            times = [first] + _skip_times(rng, basis, 24)
            rng.shuffle(times)
            for t in times:
                survival, density = _memo_free_values(basis, z0, t,
                                                      _unthinned_mode_term)
                for fn, want in ((spectral.survival, survival),
                                 (spectral.fet_density, density)):
                    got = fn(basis, z0, t)
                    assert _hexed((float(got), got.raw, got.warning)) == \
                        _hexed(want), (basis, z0, t)
    # the skip fired: a sum that skips nothing computes at least
    # min(_MIN_TERMS, live) factors before it can stop
    assert skipped >= 12


def test_each_live_factor_stays_within_half_its_bound(skip_bases):
    for basis in skip_bases:
        bounds = basis._factor_bounds
        assert len(bounds) == len(basis._live_modes)
        if basis.brownian or basis.geometry is Geometry.RADIAL_EXTERIOR:
            assert bounds == (math.inf,) * len(bounds)
            continue
        lo, hi = START_RANGE[basis.geometry.value]
        starts = [lo + (hi - lo) * k / 400 for k in range(401)]
        for (n, _, _), bound in zip(basis._live_modes, bounds):
            assert math.isfinite(bound)
            for z0 in starts:
                assert 2.0 * abs(spectral.mode_term(basis, n, z0)) <= bound


def test_a_late_fresh_start_in_the_ball_takes_fewer_than_five_factors(
        monkeypatch, skip_bases):
    basis = skip_bases[2]
    assert (basis.geometry, basis.kappa, basis.d) == (
        Geometry.RADIAL_INTERIOR, 5.0, 2)
    calls = []
    mode_term = spectral.mode_term

    def counted(basis, n, z0):
        calls.append(n)
        return mode_term(basis, n, z0)

    monkeypatch.setattr(spectral, "mode_term", counted)
    t = basis.t_min + 5.0 / basis.alphas[0] ** 2
    for z0 in (0.0, 0.25, 0.5, 0.75, 1.0):
        calls.clear()
        spectral.survival(basis, z0, t)
        assert 0 < len(calls) < 5
        calls.clear()
        spectral.fet_density(basis, z0 + 1e-9 if z0 < 1.0 else 0.9, t)
        assert 0 < len(calls) < 5


def test_a_spectral_value_from_its_constructor_is_a_float_with_a_bool_flag():
    value = spectral.SpectralValue(0.25, 0.2500001, 1)
    assert type(value) is spectral.SpectralValue
    assert value == 0.25 and value.raw == 0.2500001
    assert value.warning is True
    assert spectral.SpectralValue(1.0, 1.0, []).warning is False


def test_evaluators_flag_with_a_bool_at_a_numpy_time(curve_bases):
    numpy = pytest.importorskip("numpy")
    basis = curve_bases[0]
    for t in (0.5 * basis.t_min, 2.0 * basis.t_min):
        for fn in (spectral.survival, spectral.fet_density):
            got = fn(basis, 0.3, numpy.float64(t))
            assert type(got.warning) is bool
            assert got.warning is fn(basis, 0.3, t).warning


@pytest.mark.parametrize("z0", [math.nan, math.inf, -math.inf])
def test_exterior_evaluators_reject_a_nonfinite_start(curve_bases, z0):
    basis = curve_bases[2]
    assert basis.geometry is Geometry.RADIAL_EXTERIOR
    for fn in (spectral.survival, spectral.fet_density):
        with pytest.raises(ValueError, match=f"z0.*{z0!r}"):
            fn(basis, z0, 1.0)
    with pytest.raises(ValueError, match=f"z0.*{z0!r}"):
        spectral.mgf("radial-exterior", 1.0, 0.0, 3, z0, 1.0)


FAR_OUT = "start z0 = {!r} lies too far out: the radial factor at kappa z0"


@pytest.mark.parametrize("z0, fn", [
    (1e150, spectral.survival), (1e150, spectral.fet_density),
    (1e200, spectral.survival), (1e200, spectral.fet_density)])
def test_exterior_curves_refuse_a_start_whose_factor_passes_float_range(
        z0, fn):
    # at 1e150 a mode factor U overflows in its asymptotic form; at 1e200
    # kappa z0^2 itself is inf
    basis = build_basis("radial-exterior", 1, 0, 3, 4)
    with pytest.raises(ValueError) as err:
        fn(basis, z0, 0.5)
    assert str(err.value).startswith(FAR_OUT.format(z0))
    # the refused start leaves no factors behind
    assert fn(basis, 2.0, 0.5) == fn(dataclasses.replace(basis), 2.0, 0.5)


def test_exterior_mgf_refuses_a_start_where_kappa_z0_squared_is_inf():
    with pytest.raises(ValueError) as err:
        spectral.mgf("radial-exterior", 1, 0, 3, 1e200, 1)
    assert str(err.value).startswith(FAR_OUT.format(1e200))
    # where U at kappa z0^2 still fits, the ratio is returned
    assert 0.0 < spectral.mgf("radial-exterior", 1, 0, 3, 1e150, 1) < 1e-75


# ----------------------------------------------------------------------
# the closed-form MGF
# ----------------------------------------------------------------------

# (geometry, kappa, varphi, d, z0, s) -> E[exp(-s tau)] from 50-digit
# mpmath, frozen to 40: the ratio M(a, d/2, kappa z0^2) / M(a, d/2, kappa)
# inside the ball and U(...) / U(...) outside it, a = s/(4 kappa); on the
# interval, A m1(z) + B m2(z) with (A, B) solving y(-1) = y(1) = 1 by
# `lu_solve`.  The negative s are half the slowest rate of the 4-mode
# basis at the same parameters, -alphas[0]**2 / 2.
MGF_ORACLE = [
    ("interval", 2.0, 0.0, 1, 0.3, 1.5,
     0.3658758489739150225769907281013197251915),
    ("interval", 4.0, 0.5, 1, -0.4, 3.0,
     0.2376590222347108050373383968142514903646),
    ("interval", 3.0, -0.7, 1, 0.6, 0.8,
     0.6909284340962343943281120947626201881815),
    ("interval", 4.0, 0.5, 1, 0.2, -0.9392039178517102,
     2.14000488404151984511993639831223647855),
    ("radial-interior", 3.0, 0.0, 1, 0.4, 2.0,
     0.2158247921030269549286682295165667027325),
    ("radial-interior", 5.0, 0.0, 2, 0.7, 10.0,
     0.1199185577306595062465495837803017972437),
    ("radial-interior", 2.0, 0.0, 3, 0.0, 0.5,
     0.8777585532721333922237890015379198049687),
    ("radial-interior", 2.0, 0.0, 3, 0.5, -2.4913081857052912,
     2.121377576670843167821497246427989544189),
    ("radial-exterior", 1.0, 0.0, 3, 1.5, 3.0,
     0.5726893576956183590691155961801543162093),
    ("radial-exterior", 2.0, 0.0, 2, 1.2, 5.0,
     0.823802400950739004300667617096385400426),
    ("radial-exterior", 0.5, 0.0, 1, 2.5, 0.7,
     0.6386101805835900525487473099007734125111),
    ("radial-exterior", 1.0, 0.0, 3, 1.3, -1.5371955308039387,
     1.467808699839411046308858756265948678554),
]


@pytest.mark.parametrize("row", MGF_ORACLE, ids=str)
def test_mgf_matches_mpmath_oracle(row):
    *args, want = row
    s = args[-1]
    if s < 0.0:
        alpha0 = build_basis(*args[:4], 4).alphas[0]
        assert rel(s, -alpha0 ** 2 / 2.0) < 1e-12
    assert rel(spectral.mgf(*args), want) < 1e-12


@pytest.mark.parametrize("geometry, d, z0", [
    ("interval", 1, -1.0), ("interval", 1, 1.0),
    ("radial-interior", 3, 1.0), ("radial-exterior", 3, 1.0)])
def test_mgf_is_one_on_the_boundary(geometry, d, z0):
    assert spectral.mgf(geometry, 2.0, 0.0, d, z0, 5.0) == 1.0


@pytest.mark.xfail(strict=True, reason=(
    "mgf('interval', 10, 2, 1, 0.5, 1.0) is 4.0e-7 off: the m1/m2 "
    "numerator cancels with both boundaries far from the trap centre"))
def test_mgf_interval_kappa_10_varphi_2_matches_mpmath():
    want = 0.980577900391651031910251704412
    assert rel(spectral.mgf("interval", 10.0, 2.0, 1, 0.5, 1.0), want) < 1e-12


@pytest.mark.parametrize("geometry, kappa, varphi, d, z0", [
    ("interval", 1.0, 0.3, 1, 0.1), ("interval", 1.0, 0.5, 1, 0.1),
    ("radial-interior", 2.0, 0.0, 3, 0.4),
    ("radial-exterior", 1.0, 0.0, 3, 2.0)])
def test_mgf_raises_on_the_first_pole(geometry, kappa, varphi, d, z0):
    s = -build_basis(geometry, kappa, varphi, d, 3).alphas[0] ** 2
    with pytest.raises(ValueError, match="pole"):
        spectral.mgf(geometry, kappa, varphi, d, z0, s)


@pytest.mark.parametrize("kappa, varphi", [(1.0, 0.0), (2.0, 1.0)])
def test_mgf_raises_on_the_first_interval_pole_at_varphi_0_and_1(
        kappa, varphi):
    # the term scale |p c1| + |q c2| vanishes with the denominator here;
    # the determinant's value 2 at s = 0 bounds the scale from below
    s = -build_basis("interval", kappa, varphi, 1, 3).alphas[0] ** 2
    with pytest.raises(ValueError, match="pole"):
        spectral.mgf("interval", kappa, varphi, 1, 0.1, s)


@pytest.mark.parametrize("geometry, kappa, d, z0", [
    ("interval", 1.0, 1, 0.1), ("radial-interior", 2.0, 3, 0.4),
    ("radial-exterior", 1.0, 3, 2.0)])
def test_mgf_refuses_s_beyond_the_first_pole(geometry, kappa, d, z0):
    # between the first and second poles the denominator is negative, so
    # the ratio would be a negative "generating function"
    s = -1.3 * build_basis(geometry, kappa, 0.0, d, 3).alphas[0] ** 2
    with pytest.raises(ValueError, match="pole"):
        spectral.mgf(geometry, kappa, 0.0, d, z0, s)


def test_mgf_keeps_a_large_finite_ratio_at_a_far_exterior_start():
    # U(a, 3/2, kappa z0^2) grows like (kappa z0^2)^-a, so at s < 0 the
    # numerator is huge while the denominator, 0.93, sits far from its
    # pole: the pole rule must not scale with the numerator.  40-digit
    # mpmath of the ratio gives 3.40085877402259537e37
    value = spectral.mgf("radial-exterior", 1, 0, 3, 1e150, -0.5)
    assert value == pytest.approx(3.40085877402259537e37, rel=1e-12)


def _overflowing_ball():
    """A one-mode d = 3 ball at kappa = 800 whose factor M(a, 3/2,
    kappa z0^2), a = -0.78125, takes the large-z expansion, whose e^z
    passes float range at z = 800 though z itself is finite."""
    return spectral.SpectralBasis("radial-interior", 800.0, 0.0, 3, (50.0,),
                                  ((1.0, 0.0),), (1.0,), (1.0,))


def test_a_factor_kernels_overflow_is_a_value_error_naming_float_range():
    basis = _overflowing_ball()
    with pytest.raises(OverflowError):
        specfun.kummer_m(-0.78125, 1.5, 800.0)
    with pytest.raises(ValueError, match="passes float range"):
        spectral.mode_term(basis, 0, 1.0)


def test_a_bound_whose_series_raises_is_inf_and_the_sum_still_flags():
    # the bound's own M(|a|, 3/2, kappa) overflows, so the bound is inf
    # and no mode is skipped; the sum then runs far outside [0, 1]
    basis = _overflowing_ball()
    with pytest.raises(OverflowError):
        specfun.kummer_m(0.78125, 1.5, 800.0)
    assert spectral._factor_bound(basis, 0) == math.inf
    got = spectral.survival(basis, 0.5, 0.01)
    assert got.warning is True
    assert float(got) == 0.0 and got.raw < -1.0


# ----------------------------------------------------------------------
# the input contract: every refused input raises a ValueError that names
# what is wrong
# ----------------------------------------------------------------------

@functools.cache
def _basis(geometry):
    """A 3-mode basis at kappa = 2, varphi = 0 (d = 3 in a ball)."""
    return build_basis(geometry, 2.0, 0.0, 1 if geometry == "interval" else 3,
                       3)


def _image(drop=(), **changes):
    """JSON image of the interval basis, with keys dropped or set."""
    payload = json.loads(basis_to_json(_basis("interval")))
    for key in drop:
        del payload[key]
    payload.update(changes)
    return json.dumps(payload)


def _ball_image(index, value, key="weights"):
    """JSON image of the kappa = 2, d = 3, 4-mode ball basis with one
    per-mode entry set: payload[key][i]...[j] = value, index = (i, ..., j)."""
    payload = json.loads(basis_to_json(
        build_basis("radial-interior", 2.0, 0.0, 3, 4)))
    row = payload[key]
    for i in index[:-1]:
        row = row[i]
    row[index[-1]] = value
    return json.dumps(payload)


# (geometry, kappa, varphi, d, z0, s) where the MGF ratio cannot be formed
# in floats.  Each used to end otherwise: a bare OverflowError from the
# large-z M expansion's exp on the interval and in the ball, a
# ZeroDivisionError where U(a, 1/2, kappa) underflows to 0 outside it, and
# a NaN return on the interval
MGF_BEYOND_RANGE = [
    ("interval", 383.6926738638764, 1.6644766265044062, 1,
     -0.02936621968866926, 0.1624570667772883),
    ("radial-interior", 720.4707234780092, 0.0, 2, 0.18025205724260307,
     0.023183073328010017),
    ("radial-exterior", 0.003527502980797484, 0.0, 1, 1.025602825468219,
     5.372602661776652),
    ("interval", 101.08192296572926, -1.0138139989702522, 1,
     0.7496390463125768, 6.223348557450389),
]


INPUT_CONTRACT = [
    pytest.param(lambda: build_basis("interval", 2.0, 0.0, 1, 0),
                 "n_modes", id="build-n_modes-0"),
    pytest.param(lambda: build_basis("radial-interior", 2.0, 0.0, 3, 2.0),
                 "n_modes", id="build-n_modes-float"),
    pytest.param(lambda: build_basis("interval", math.inf, 0.0, 1, 2),
                 "kappa", id="build-kappa-inf"),
    pytest.param(lambda: build_basis("radial-interior", -1.0, 0.0, 3, 2),
                 "kappa", id="build-kappa-negative"),
    pytest.param(lambda: build_basis("radial-exterior", math.nan, 0.0, 3, 2),
                 "kappa", id="build-kappa-nan"),
    pytest.param(lambda: build_basis("interval", 2.0, math.nan, 1, 2),
                 "varphi", id="build-varphi-nan"),
    pytest.param(lambda: build_basis("interval", 2.0, 0.0, 2, 2),
                 "d must be 1", id="build-interval-d-2"),
    pytest.param(lambda: build_basis("radial-interior", 2.0, 0.0, 5, 2),
                 "dimensions", id="build-interior-d-5"),
    pytest.param(lambda: build_basis("radial-exterior", 2.0, 0.0, 0, 2),
                 "d must be a positive integer", id="build-exterior-d-0"),
    pytest.param(lambda: build_basis("radial-interior", 2.0, 0.3, 3, 2),
                 "varphi must be 0", id="build-interior-pull"),
    pytest.param(lambda: build_basis("radial-exterior", 1e-9, 0.0, 3, 2),
                 "BROWNIAN_KAPPA", id="build-exterior-free-diffusion"),
    pytest.param(lambda: build_basis("interval", 1e-9, 100.0, 1, 2),
                 r"kappa\*varphi", id="build-weak-trap-pull"),
    pytest.param(lambda: spectral.survival(_basis("interval"), 1.5, 1.0),
                 "start", id="survival-interval-start"),
    pytest.param(lambda: spectral.survival(_basis("radial-interior"),
                                           1.1, 1.0),
                 "start", id="survival-interior-start"),
    pytest.param(lambda: spectral.fet_density(_basis("interval"), -1.5, 1.0),
                 "start", id="density-interval-start"),
    pytest.param(lambda: spectral.fet_density(_basis("radial-interior"),
                                              -0.1, 1.0),
                 "start", id="density-interior-start"),
    pytest.param(lambda: spectral.survival(_basis("interval"), 0.2, -1.0),
                 "t must", id="survival-t-negative"),
    pytest.param(lambda: spectral.survival(_basis("radial-interior"),
                                           0.2, math.nan),
                 "t must", id="survival-t-nan"),
    pytest.param(lambda: spectral.fet_density(_basis("interval"), 0.2, -1.0),
                 "t must", id="density-t-negative"),
    pytest.param(lambda: spectral.fet_density(_basis("radial-exterior"),
                                              1.5, math.nan),
                 "t must", id="density-t-nan"),
    pytest.param(lambda: spectral.mgf("interval", 2.0, 0.0, 1, 0.0, math.inf),
                 "s must", id="mgf-s-inf"),
    pytest.param(lambda: spectral.mgf("radial-interior", 2.0, 0.0, 3, 0.5,
                                      -math.inf),
                 "s must", id="mgf-s-minus-inf"),
    pytest.param(lambda: spectral.mgf("radial-exterior", 2.0, 0.0, 3, 1.5,
                                      math.nan),
                 "s must", id="mgf-s-nan"),
    pytest.param(lambda: spectral.mgf("radial-interior", 1e-9, 0.0, 3, 0.5,
                                      1.0),
                 "BROWNIAN_KAPPA", id="mgf-free-diffusion"),
    pytest.param(lambda: basis_from_json(_image(n_modes=4)),
                 "n_modes", id="json-n_modes-mismatch"),
    pytest.param(lambda: basis_from_json(_image(drop=("schema",))),
                 "schema", id="json-no-schema"),
    pytest.param(lambda: build_basis("exterior-1d", 2.0, 0.5, 1, 2),
                 "exterior-1d", id="build-exterior-1d"),
    pytest.param(lambda: spectral.mgf("exterior-1d", 2.0, 0.5, 1, 1.5, 1.0),
                 "exterior-1d", id="mgf-exterior-1d"),
    # such an image used to load, and survival(b, 0.3, 0.2) returned 0.0
    # with raw NaN and warning False
    pytest.param(lambda: basis_from_json(_ball_image((0,), math.nan)),
                 "weights", id="json-weight-nan"),
    pytest.param(lambda: basis_from_json(_ball_image((3,), math.inf)),
                 "weights", id="json-weight-inf"),
    pytest.param(lambda: basis_from_json(_ball_image((1,), math.nan,
                                                     "alphas")),
                 "alphas", id="json-alpha-nan"),
    pytest.param(lambda: basis_from_json(_ball_image((2,), -math.inf,
                                                     "betas")),
                 "betas", id="json-beta-inf"),
    pytest.param(lambda: basis_from_json(_ball_image((0, 0), math.nan,
                                                     "coeff_pairs")),
                 "coeff_pairs", id="json-coefficient-nan"),
    pytest.param(lambda: basis_from_json(_image(d=2)),
                 "d must be 1", id="json-interval-d-2"),
    pytest.param(lambda: basis_from_json(_image(kappa=math.nan)),
                 "kappa", id="json-kappa-nan"),
    pytest.param(lambda: basis_from_json(_image(varphi=math.inf)),
                 "varphi", id="json-varphi-inf"),
    pytest.param(lambda: dataclasses.replace(_basis("radial-interior"),
                                             varphi=0.3),
                 "varphi must be 0", id="basis-interior-pull"),
    pytest.param(lambda: dataclasses.replace(_basis("radial-exterior"), d=5),
                 "dimensions", id="basis-exterior-d-5"),
    pytest.param(lambda: dataclasses.replace(_basis("interval"), kappa=-1.0),
                 "kappa", id="basis-kappa-negative"),
] + [pytest.param(lambda args=args: spectral.mgf(*args), "float range",
                  id=f"mgf-beyond-range-{args[0]}-{args[1]:.4g}")
     for args in MGF_BEYOND_RANGE]


@pytest.mark.parametrize("call, named", INPUT_CONTRACT)
def test_spectral_refuses_inputs_outside_its_contract(call, named):
    with pytest.raises(ValueError, match=named):
        call()
