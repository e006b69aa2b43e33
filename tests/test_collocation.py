"""The spectral layer against Chebyshev collocation.

`_collocation` computes eigenvalues and survival of the interval problem,
and survival of the radial ones, from the generator alone, with numpy and
scipy, sharing no code with `specfun`.  Roots are pinned within 1e-11,
survival within 1e-9 wherever it is not flagged; the radial bases are
pinned on both their paths, fresh factors from the series and from the
mode fits, and the kappa = 10, varphi = +/-2 intervals on their fits,
which read the pair recessive toward the far wall.  Strict xfails name
the inputs where the library is known to be wrong: left starts on
fresh bases whose left boundary sits far from the trap centre, where
the series' interval pair cancels, and the (5, 4) build that refuses a
real root.
"""

import dataclasses

import pytest

import _collocation
from ouexit import spectral
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


@pytest.fixture(scope="module")
def far_centre_fits():
    """The benchmark's kappa = 10, varphi = 2 interval and its mirror,
    four modes each, with every mode on its fit: these bases fit from
    the pair recessive toward the far wall (`_modefit._far_centre`)."""
    return {varphi: _on_path(build_basis("interval", 10.0, varphi, 1, 4),
                             True)
            for varphi in (2.0, -2.0)}


FAR_STARTS = [round(-0.95 + 0.1 * k, 2) for k in range(20)]


@pytest.mark.parametrize("varphi", [2.0, -2.0])
def test_far_centre_fitted_survival_matches_collocation(far_centre_fits,
                                                        varphi):
    # the series path is wrong here: at (-0.8, 0.12) on varphi = 2 it
    # returns 0.0191, and at (0.8, 0.12) on varphi = -2 0.1449, where
    # collocation gives 7.45e-6 (ROADMAP item 2)
    basis = far_centre_fits[varphi]
    for t in (0.12, 0.2):
        want = _collocation.interval_survival(10.0, varphi, t, FAR_STARTS)
        for z0, w in zip(FAR_STARTS, want):
            got = survival(basis, z0, t)
            assert not got.warning
            assert abs(got.raw - w) <= 1e-9, (z0, t, got.raw, w)


def test_far_centre_fitted_survival_is_mirror_symmetric(far_centre_fits):
    for t in (0.12, 0.2):
        for z0 in FAR_STARTS:
            right = survival(far_centre_fits[2.0], z0, t).raw
            left = survival(far_centre_fits[-2.0], -z0, t).raw
            assert abs(right - left) <= 1e-12, (z0, t, right, left)


# (geometry, kappa, d, n_modes) of the benchmark's radial curve-eval bases
# -> (starts, times, reach of the exterior collocation)
RADIAL = {
    ("radial-interior", 5.0, 2, 12): (
        (0.0, 0.3, 0.6, 0.9), (0.03, 0.1, 0.3, 1.0, 3.0), None),
    # 4.0 lies past the exterior fits' reach R = 3, so it takes the
    # series on both paths; below t = 1 the 8 modes leave these starts'
    # tails unconverged, and every value there is flagged
    ("radial-exterior", 1.0, 3, 8): (
        (1.2, 1.7, 2.5, 3.0, 4.0), (0.3, 1.0, 2.0, 3.0), 8.0),
}


def _on_path(basis, fitted):
    """A copy of basis whose fresh factors come from its mode fits
    (fitted True; every mode fits on these bases) or from the series."""
    copy = dataclasses.replace(basis)
    copy._mode_fits[:] = [spectral._fit_mode(copy, n) if fitted else None
                          for n, _, _ in copy._live_modes]
    assert all(copy._mode_fits) is fitted
    return copy


@pytest.mark.parametrize("fitted", [False, True], ids=["series", "fitted"])
@pytest.mark.parametrize("case", list(RADIAL), ids=["ball", "exterior"])
def test_radial_survival_matches_collocation(case, fitted):
    geometry, kappa, d, n_modes = case
    starts, times, reach = RADIAL[case]
    basis = _on_path(build_basis(geometry, kappa, 0.0, d, n_modes), fitted)
    checked = 0
    for t in times:
        want = _collocation.radial_survival(d, kappa, t, starts, reach)
        for r0, w in zip(starts, want):
            got = survival(basis, r0, t)
            if not got.warning:
                assert abs(got.raw - w) <= 1e-9, (r0, t, got.raw, w)
                checked += 1
            else:
                assert t < 1.0
    assert checked >= 15


def test_radial_collocation_agrees_across_node_counts():
    for d, kappa, reach, counts in ((2, 5.0, None, (81, 161)),
                                    (3, 1.0, 8.0, (160, 240))):
        coarse, fine = (_collocation.radial_survival(
            d, kappa, 1.0, (0.3, 0.9) if reach is None else (1.5, 3.0),
            reach, n) for n in counts)
        assert max(abs(c - f) for c, f in zip(coarse, fine)) < 1e-10
