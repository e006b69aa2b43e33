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
import json
import math
import random

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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_free_diffusion_ball_is_the_bessel_series(d):
    # 12 modes take the roots past x = 37; d = 1 and 3 are cos(x) and
    # sin(x)/x, whose weights and beta are closed forms
    basis = build_basis("radial-interior", 0.0, 0.0, d, 12)
    if d == 1:
        alphas = [math.pi * (n + 0.5) for n in range(12)]
        assert basis.alphas == tuple(alphas)
        assert basis.weights == tuple(2.0 * (-1) ** n / a
                                      for n, a in enumerate(alphas))
        assert basis.betas == (math.sqrt(2.0),) * 12
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
    spectral._interval_mode(4.0, 0.5, basis.alphas[0], "")
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
                                  ("radial-interior", 0.0, 0.0, 2, 6)],
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


# ----------------------------------------------------------------------
# evaluation: reuse of a start's mode factors
# ----------------------------------------------------------------------

CURVE_BASES = (("interval", 4.0, 0.5, 1, 8), ("interval", 2.0, 0.0, 1, 6),
               ("radial-exterior", 1.0, 0.0, 3, 6),
               ("radial-interior", 0.0, 0.0, 2, 6))


@pytest.fixture(scope="module")
def curve_bases():
    return [build_basis(*case) for case in CURVE_BASES]


def _memo_free_sum(basis, z0, t, rate_weighted):
    """The truncated mode sum with every factor computed afresh."""
    acc = abs_acc = term = 0.0
    kept = 0
    for n in range(basis.n_modes):
        w = basis.weights[n]
        if w == 0.0:
            continue
        lam = basis.alphas[n] ** 2
        term = w * math.exp(-lam * t) * spectral.mode_term(basis, n, z0)
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


@pytest.mark.parametrize("z0", [math.nan, math.inf, -math.inf])
def test_exterior_evaluators_reject_a_nonfinite_start(curve_bases, z0):
    basis = curve_bases[2]
    assert basis.geometry is Geometry.RADIAL_EXTERIOR
    for fn in (spectral.survival, spectral.fet_density):
        with pytest.raises(ValueError, match=f"z0.*{z0!r}"):
            fn(basis, z0, 1.0)
    with pytest.raises(ValueError, match=f"z0.*{z0!r}"):
        spectral.mgf("radial-exterior", 1.0, 0.0, 3, z0, 1.0)


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


@pytest.mark.xfail(strict=True, reason=(
    "the interval pole test's scale |p c1| + |q c2| vanishes with the "
    "denominator at varphi = 0 and 1: at s = -alpha_0^2, "
    "mgf('interval', 1, 0, 1, 0.1, s) returns -7.9e15 and the (2, 1) "
    "basis gives 6.8e15"))
@pytest.mark.parametrize("kappa, varphi", [(1.0, 0.0), (2.0, 1.0)])
def test_mgf_raises_on_the_first_interval_pole_at_varphi_0_and_1(
        kappa, varphi):
    s = -build_basis("interval", kappa, varphi, 1, 3).alphas[0] ** 2
    with pytest.raises(ValueError, match="pole"):
        spectral.mgf("interval", kappa, varphi, 1, 0.1, s)


@pytest.mark.xfail(strict=True, reason=(
    "beyond the first pole mgf returns a negative number where its "
    "docstring accepts negative s only until that pole: at "
    "s = -1.3 alpha_0^2 it gives -4.05 (interval 1, 0, z0 = 0.1), "
    "-4.43 (interior d = 3, kappa = 2, z0 = 0.4) and -5.02 (exterior "
    "d = 3, kappa = 1, z0 = 2)"))
@pytest.mark.parametrize("geometry, kappa, d, z0", [
    ("interval", 1.0, 1, 0.1), ("radial-interior", 2.0, 3, 0.4),
    ("radial-exterior", 1.0, 3, 2.0)])
def test_mgf_refuses_s_beyond_the_first_pole(geometry, kappa, d, z0):
    s = -1.3 * build_basis(geometry, kappa, 0.0, d, 3).alphas[0] ** 2
    with pytest.raises(ValueError):
        spectral.mgf(geometry, kappa, 0.0, d, z0, s)


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
                 "dimensions", id="build-exterior-d-0"),
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
]


@pytest.mark.parametrize("call, named", INPUT_CONTRACT)
def test_spectral_refuses_inputs_outside_its_contract(call, named):
    with pytest.raises(ValueError, match=named):
        call()
