"""The interval spectral layer against Chebyshev collocation.

`_collocation` computes eigenvalues and survival of the interval problem
from the generator alone, with numpy and scipy, sharing no code with
`specfun`.  Roots are pinned within 1e-11, survival within 1e-9 wherever
it is not flagged.  Strict xfails name the inputs where the library is
known to be wrong: left starts on bases whose left boundary sits far
from the trap centre, where the interval pair cancels, and the (5, 4)
build that refuses a real root.
"""

import pytest

import _collocation
from ouexit.spectral import RootSearchError, build_basis, survival

STARTS = (-0.95, -0.6, -0.2, 0.2, 0.5)


@pytest.mark.parametrize("kappa, varphi", [
    (10.0, 2.0), (10.0, 3.0), (4.0, 0.5), (2.0, 1.0), (1.0, 0.0), (10.0, 0.0),
    pytest.param(5.0, 4.0, marks=pytest.mark.xfail(
        raises=RootSearchError, strict=True,
        reason="the residual test refuses the root at alpha = 0.024, "
               "where the determinant is noise of its products' size")),
])
def test_interval_roots_match_collocation(kappa, varphi):
    want = _collocation.interval_alphas(kappa, varphi, 4)
    got = build_basis("interval", kappa, varphi, 1, 4).alphas
    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-11, (got, want)


def test_collocation_roots_agree_across_node_counts():
    for kappa, varphi in ((10.0, 3.0), (4.0, 0.5)):
        coarse, fine = (_collocation.interval_alphas(kappa, varphi, 4, n)
                        for n in (80, 160))
        assert max(abs(c - f) for c, f in zip(coarse, fine)) < 1e-11


# per basis, the starts flagged at the horizon t_min itself, where the
# truncation is flagged
FLAGGED_AT_T_MIN = {(4.0, 0.5): [-0.95], (2.0, 1.0): [-0.95], (1.0, 0.0): []}


@pytest.mark.parametrize("kappa, varphi", list(FLAGGED_AT_T_MIN))
def test_interval_survival_matches_collocation(kappa, varphi):
    basis = build_basis("interval", kappa, varphi, 1, 12)
    flagged = []
    for t in (basis.t_min, 1.5 * basis.t_min, 2.0 * basis.t_min, 0.1, 0.3,
              1.0, 3.0):
        want = _collocation.interval_survival(kappa, varphi, t, STARTS)
        for z0, w in zip(STARTS, want):
            got = survival(basis, z0, t)
            if got.warning:
                flagged.append((z0, t))
            else:
                assert abs(got.raw - w) <= 1e-9, (z0, t, got.raw, w)
    assert flagged == [(z0, basis.t_min)
                       for z0 in FLAGGED_AT_T_MIN[kappa, varphi]]


@pytest.mark.xfail(strict=True, reason=(
    "left starts far from the trap centre: c1 m1 - c2 m2 cancels in the "
    "mode factors, and the wrong value is not flagged"))
@pytest.mark.parametrize("kappa, varphi, z0, t", [
    (10.0, 3.0, -0.95, 0.102), (10.0, 2.0, -0.8, 0.12)])
def test_left_start_survival_matches_collocation_or_is_flagged(
        kappa, varphi, z0, t):
    basis = build_basis("interval", kappa, varphi, 1, 12)
    got = survival(basis, z0, t)
    want, = _collocation.interval_survival(kappa, varphi, t, [z0])
    assert got.warning or abs(got.raw - want) <= 1e-9, (got.raw, want)
