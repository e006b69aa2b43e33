"""Absorbing-boundary eigenbases and spectral exit-time observables.

`build_basis` finds the Dirichlet spectrum of the trapped-diffusion
generator for three layouts -- the pulled interval, the interior of a
ball, and the exterior of a ball -- and packages eigenvalues, boundary
coefficients, normalizations, and survival weights into an immutable
`SpectralBasis`.  `survival`, `fet_density`, and `mgf` evaluate the
observable sums.  Everything is dimensionless: lengths in units of the
escape radius L, times in units of L**2/D, so mode n decays like
exp(-alphas[n]**2 * t).

The interval eigenfunctions combine the even and odd confluent
solutions m1(z) = M(-nu, 1/2, kappa z^2) and m2(z) = z M(1/2 - nu,
3/2, kappa z^2) about the trap centre z = varphi, with nu =
alpha^2/(4 kappa).  A radial problem uses one solution, Kummer M
(regular at the origin) inside the ball and Tricomi U (decaying at
infinity) outside it, chosen once in `_radial_solution` for the build,
the mode factors and `mgf`.
Eigenvalues are bracketed by an adaptive scan whose step follows the
local level spacing -- pi/2-scaled where the spectrum is
diffusion-like, nu-spacing-scaled where the trap dominates -- with a
logarithmic sweep below that grid because the slowest rate collapses
exponentially in kappa.  Brackets are refined one after another by
bisection plus a secant polish to |d alpha| < 1e-12 (relative below
alpha = 1), each root is re-verified against its bracket-scale
residual, and suspiciously wide gaps trigger a fine rescan before being
accepted.

Per-mode data come from confluent functions alone, with no quadrature.
Each survival weight is a residue of the closed-form generating
function, which divides by the pole derivative dD/da of the eigenvalue
condition D (M or U at the boundary, or the interval determinant).  Each
normalization follows from the Lagrange (Sturm-Liouville) identity: a
solution y(z, lambda) that meets one boundary condition for every
lambda has int p y^2 = +/- p [y_lambda y' - y y_lambda'] at the other
end of the range, with d/d lambda = -(1/(4 kappa)) d/da.  A radial mode
takes that term at z = 1, from the a-derivatives there plus the
raised-parameter functions.  An interval mode takes it at the trap
centre, where m1, m2 and their slopes do not depend on a, once for each
half of the interval; its pair, weight and norm then all come from m1,
m2 and their a-derivatives at the two boundaries, eight confluent
values.  `weights_crosscheck` is an opt-in audit, computed on demand: it
rebuilds every weight with dD/da replaced by a central difference of
D's values, so a wrong parameter derivative or coefficient shows as a
discrepancy.  Below `BROWNIAN_KAPPA` the basis switches to its
closed-form free-diffusion limit (cosines on the interval, Bessel modes
in the ball); the exterior problem keeps no discrete spectrum in that
limit and raises instead.

Deep traps meet two limits.  The slowest rate alpha_0^2 is about one
over the mean exit time, and the scan starts at alpha = 1e-12: every
eigenvalue condition is positive at alpha = 0, so one already negative
there puts the ground mode below the scan, and the build raises
`RootSearchError` rather than return a basis without it (from kappa
about 63 on the centred interval, 67 in the d = 3 ball).  Magnitudes
inside the determinant grow like exp(kappa (1 + |varphi|)^2) and must
stay inside float range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from .ou_model import BROWNIAN_KAPPA, Geometry
from .specfun import (bessel_j, gamma_fn, kummer_m, kummer_m_da, tricomi_u,
                      tricomi_u_da)

__all__ = [
    "SpectralBasis",
    "SpectralValue",
    "WeightsReport",
    "RootSearchError",
    "build_basis",
    "survival",
    "fet_density",
    "mode_term",
    "mgf",
    "weights_crosscheck",
    "basis_to_json",
    "basis_from_json",
]

# Root refinement stops when the bracket width falls below this, taken
# relative to the bracket's upper end when that is below 1.
_ALPHA_TOL = 1e-12

# A refined root must sink the condition function below this fraction
# of its magnitude at the detection-bracket endpoints.
_RESIDUAL_TOL = 1e-10

# `weights_crosscheck` differences the eigenvalue condition with the step
# _AUDIT_STEP * max(1, |a|) in a = -alpha^2/(4 kappa).
_AUDIT_STEP = 1e-4

# Version of the `basis_to_json` layout, the only one `basis_from_json`
# reads.
_SCHEMA = 2

# Spectral sums stop once a term drops below this fraction of the
# accumulated sum, but never before this many nonzero terms.
_TERM_STOP = 1e-12
_MIN_TERMS = 5

# The reliability horizon t_min is where the last kept mode has decayed
# to this size; raw survival values may overshoot [0, 1] by _CLAMP_SLACK
# before the truncation warning fires.
_TMIN_TERM = 1e-8
_CLAMP_SLACK = 0.01

# The generating-function denominator is treated as sitting on a pole
# when it falls below this fraction of its term scale.
_POLE_TOL = 1e-8

# Consecutive eigenvalues never sit further apart than one nu-period
# (trap-dominated end) or one free-diffusion gap (weak-trap end); a gap
# beyond 1.3x both bounds is audited with a fine rescan.
_GAP_SLACK = 1.3


class RootSearchError(RuntimeError):
    """Eigenvalue bracketing failed or left an unexplained gap."""


class SpectralValue(float):
    """Float result of a truncated spectral sum, plus diagnostics.

    Instances behave as ordinary floats holding the clamped value.
    `raw` is the sum before clamping; `warning` is True when the raw
    value left its admissible window or when t sits below the basis
    reliability horizon `t_min`, where the truncated tail is no longer
    negligible.
    """

    __slots__ = ("raw", "warning")

    raw: float
    warning: bool

    def __new__(cls, value: float, raw: float, warning: bool):
        obj = super().__new__(cls, value)
        obj.raw = raw
        obj.warning = bool(warning)
        return obj


@dataclass(frozen=True)
class SpectralBasis:
    """Dirichlet eigenbasis of the trapped-diffusion generator.

    All entries are dimensionless (lengths in L, rates in D/L**2): mode
    n has decay rate alphas[n]**2.  `coeff_pairs` holds the per-mode
    boundary coefficients (c1, c2) multiplying the even and odd
    interval solutions; the single-solution radial layouts store
    (1.0, 0.0).  `weights` are the survival weights, residues of the
    closed-form generating function; `weights_crosscheck` audits them
    on demand.  `betas` are the eigenfunction normalization constants,
    from the Sturm-Liouville norm identity.  `brownian` marks a
    closed-form free-diffusion basis whose mode functions are
    trigonometric or Bessel rather than confluent.  `coeff_pairs`,
    `weights` and `betas` hold one entry per alpha, or construction
    raises ValueError.
    """

    geometry: Geometry
    kappa: float
    varphi: float
    d: int
    alphas: tuple[float, ...]
    coeff_pairs: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]
    betas: tuple[float, ...]
    brownian: bool = False

    def __post_init__(self):
        n = len(self.alphas)
        for key in ("coeff_pairs", "weights", "betas"):
            got = len(getattr(self, key))
            if got != n:
                raise ValueError(
                    f"{key} holds {got} entries, but alphas holds {n}")

    @property
    def n_modes(self) -> int:
        return len(self.alphas)

    @property
    def t_min(self) -> float:
        """Reliability horizon of the truncated sums.

        The time where the last kept contributing mode has decayed to
        1e-8; below it the omitted tail is of the same order as that
        term and the evaluators flag their output.
        """
        for n in reversed(range(self.n_modes)):
            w = self.weights[n]
            if w != 0.0:
                return max(0.0, math.log(abs(w) / _TMIN_TERM)
                           / (self.alphas[n] ** 2))
        return 0.0


@dataclass(frozen=True)
class WeightsReport:
    """Per-mode agreement of the weights with their audit rebuild.

    Each row is (n, alpha_n, weight, audit weight, relative
    discrepancy); `max_discrepancy` is the worst row.
    """

    rows: tuple[tuple[int, float, float, float, float], ...]
    max_discrepancy: float


# ----------------------------------------------------------------------
# confluent building blocks
# ----------------------------------------------------------------------

def _m1(a: float, kappa: float, z: float) -> float:
    """Even interval solution M(a, 1/2, kappa z^2) with a = -nu."""
    return kummer_m(a, 0.5, kappa * z * z).value


def _m2(a: float, kappa: float, z: float) -> float:
    """Odd interval solution z * M(a + 1/2, 3/2, kappa z^2)."""
    return z * kummer_m(a + 0.5, 1.5, kappa * z * z).value


def _m1_da(a: float, kappa: float, z: float) -> float:
    return kummer_m_da(a, 0.5, kappa * z * z).value


def _m2_da(a: float, kappa: float, z: float) -> float:
    return z * kummer_m_da(a + 0.5, 1.5, kappa * z * z).value


def _interval_det(kappa: float, varphi: float) -> Callable[[float], float]:
    """Boundary determinant, as a function of a = -alpha^2/(4 kappa),
    whose zeros are the interval eigenvalues."""
    zr = 1.0 - varphi
    zl = -1.0 - varphi

    def det(a: float) -> float:
        return (_m1(a, kappa, zl) * _m2(a, kappa, zr)
                - _m2(a, kappa, zl) * _m1(a, kappa, zr))

    return det


# ----------------------------------------------------------------------
# root scanning and refinement
# ----------------------------------------------------------------------

def _local_step(alpha: float, kappa: float, dnu: float,
                brownian_gap: float) -> float:
    """Conservative fraction of the local eigenvalue spacing at alpha.

    Trap-dominated levels sit dnu apart in nu = alpha^2/(4 kappa),
    i.e. 2 kappa dnu / alpha apart in alpha; weak-trap levels sit a
    free-diffusion gap apart.  The scan resolves whichever law rules
    locally (the diffusion gap takes over once alpha outruns the trap
    scale ~2.5 kappa; layouts without a free-diffusion family pass
    brownian_gap = 0 and stay on the nu law).
    """
    deep = 2.0 * kappa * dnu / max(alpha, math.sqrt(4.0 * kappa * dnu))
    if brownian_gap > 0.0:
        if alpha > 2.5 * kappa:
            return 0.4 * brownian_gap
        return 0.4 * min(deep, brownian_gap)
    return 0.4 * deep


def _scan_brackets(fn: Callable[[float], float], kappa: float, dnu: float,
                   brownian_gap: float, n_roots: int, cap: float):
    """First n_roots sign-change brackets of fn along alpha > 0.

    Returns (a, b, fa, fb) tuples in ascending order.  A logarithmic
    sweep over [1e-12, sqrt(4 kappa dnu)] precedes the adaptive linear
    scan because the first root collapses exponentially with kappa.
    """
    brackets = []
    prev_a = 1e-12
    prev_f = fn(prev_a)
    if prev_f < 0.0:
        # every family's condition is positive at alpha = 0
        raise RootSearchError(
            f"eigenvalue condition is already negative at alpha = "
            f"{prev_a:g}; the slowest mode lies below the scan")
    alpha_lin = math.sqrt(4.0 * kappa * dnu)
    if alpha_lin > 4.0 * prev_a:
        n_log = 64
        ratio = (alpha_lin / prev_a) ** (1.0 / n_log)
        a = prev_a
        for _ in range(n_log):
            a *= ratio
            f = fn(a)
            if (f < 0.0) != (prev_f < 0.0):
                brackets.append((prev_a, a, prev_f, f))
            prev_a, prev_f = a, f
    while len(brackets) < n_roots:
        a = prev_a + _local_step(prev_a, kappa, dnu, brownian_gap)
        if a > cap:
            raise RootSearchError(
                f"found {len(brackets)} of {n_roots} eigenvalue brackets "
                f"before alpha = {cap:.6g}; last bracket scanned was "
                f"({prev_a:.17g}, {a:.17g})")
        f = fn(a)
        if (f < 0.0) != (prev_f < 0.0):
            brackets.append((prev_a, a, prev_f, f))
        prev_a, prev_f = a, f
    return brackets[:n_roots]


def _refine_root(fn: Callable[[float], float], bracket) -> float:
    """Polish one sign-change bracket to |d alpha| < _ALPHA_TOL, relative
    below alpha = 1.

    Bisection shrinks the bracket three decades below its width, then
    secant steps (clipped to the live bracket, falling back to its
    midpoint) finish superlinearly.  The result must beat the residual
    tolerance relative to the detection-bracket endpoint magnitudes.
    """
    a, b, fa, fb = bracket
    scale = max(abs(fa), abs(fb), 1e-300)
    # an absolute 1e-12 is a large share of a deep trap's slowest root
    tol = _ALPHA_TOL * min(1.0, bracket[1])
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
    root = 0.5 * (a + b)
    for _ in range(80):
        if f1 == f0:
            root = 0.5 * (a + b)
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not a < x2 < b:
            x2 = 0.5 * (a + b)
        f2 = fn(x2)
        if f2 == 0.0:
            root = x2
            break
        if (f2 < 0.0) == (fa < 0.0):
            a, fa = x2, f2
        else:
            b, fb = x2, f2
        moved = abs(x2 - x1)
        x0, f0 = x1, f1
        x1, f1 = x2, f2
        root = x2
        if moved < tol or (b - a) < tol:
            break
    if abs(fn(root)) > _RESIDUAL_TOL * scale:
        raise RootSearchError(
            f"root at alpha = {root!r} kept residual "
            f"{abs(fn(root)):.3e} against bracket scale {scale:.3e} "
            f"(bracket ({bracket[0]!r}, {bracket[1]!r}))")
    return root


def _find_roots(fn: Callable[[float], float], kappa: float, dnu: float,
                brownian_gap: float, n_roots: int, cap: float,
                smooth_gaps: bool) -> list[float]:
    """Scan, refine, and gap-audit one root family."""
    brackets = _scan_brackets(fn, kappa, dnu, brownian_gap, n_roots, cap)
    roots = [_refine_root(fn, br) for br in brackets]
    for _ in range(2):
        extras = _audit_gaps(fn, roots, kappa, brownian_gap, smooth_gaps)
        if not extras:
            break
        roots = sorted(roots + extras)[:n_roots]
    return roots


def _suspect_gaps(roots: list[float], kappa: float, brownian_gap: float,
                  smooth_gaps: bool) -> list[int]:
    """Indices i whose gap (roots[i], roots[i+1]) looks like a missed root.

    Families with a hard spacing law are held to it directly: at most
    _GAP_SLACK nu-periods or _GAP_SLACK free-diffusion gaps.  Exterior
    spectra have no such bound (their spacing grows like sqrt(kappa)
    near the bottom) but decay smoothly mode to mode, so there a gap is
    suspect when it exceeds 1.5x its smallest neighbour gap -- a miss
    doubles one gap while legitimate neighbours stay within ~1.2x.
    """
    gaps = [hi - lo for lo, hi in zip(roots, roots[1:])]
    if not gaps:
        return []
    out = []
    if smooth_gaps:
        if len(gaps) == 1:
            return []
        for i, g in enumerate(gaps):
            neighbours = [gaps[j] for j in (i - 1, i + 1)
                          if 0 <= j < len(gaps)]
            if g > 1.5 * min(neighbours) and g > _GAP_SLACK * (
                    4.0 * kappa) / (roots[i] + roots[i + 1]):
                out.append(i)
        return out
    for i, g in enumerate(gaps):
        nu_gap = (roots[i + 1] ** 2 - roots[i] ** 2) / (4.0 * kappa)
        if nu_gap > _GAP_SLACK and (brownian_gap == 0.0
                                    or g > _GAP_SLACK * brownian_gap):
            out.append(i)
    return out


def _audit_gaps(fn, roots: list[float], kappa: float, brownian_gap: float,
                smooth_gaps: bool) -> list[float]:
    """Rescan any neighbour gap wider than the family's spacing law.

    Returns newly found refined roots.  A missed sign change is always
    a close root pair (the spectrum is simple), so the 96x finer rescan
    recovers it; an empty rescan certifies the wide gap as genuine --
    interval problems with the trap centre outside the domain produce
    legitimately stretched spacings in the drift-dominated band.
    """
    extras = []
    for i in _suspect_gaps(roots, kappa, brownian_gap, smooth_gaps):
        lo, hi = roots[i], roots[i + 1]
        pad = 1e-9 * (hi - lo)
        grid = [lo + pad + (hi - lo - 2.0 * pad) * k / 96.0
                for k in range(97)]
        vals = [fn(x) for x in grid]
        for (xa, va), (xb, vb) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
            if (va < 0.0) != (vb < 0.0):
                extras.append(_refine_root(fn, (xa, xb, va, vb)))
    return extras


# ----------------------------------------------------------------------
# per-mode data (coefficients, weights, normalization)
# ----------------------------------------------------------------------

def _interval_mode(kappa: float, varphi: float, alpha: float, tag: str):
    """Coefficients, residue weight, and beta for one interval mode.

    All three come from m1, m2 and their a-derivatives at the two
    boundaries, eight confluent values.  The residue weight divides by
    whichever boundary coefficient is better conditioned; the two
    groupings agree through the eigenvalue identity c1 A2 = -c2 A1, and
    at a symmetry-silenced mode (odd eigenfunction at varphi = 0, where
    the generating function's pole is removable) the surviving grouping
    returns an exact zero.

    beta follows from the Lagrange identity taken at the trap centre
    z = 0.  With (e, o) = (m2, m1) at a boundary zb, v = e m1 - o m2
    vanishes at zb for every a, so (p v')' = -lambda p v and its lambda
    derivative give int_0^zb p v^2 = -p (v' v_lambda - v v_lambda') at
    z = 0, p = exp(-kappa z^2).  There p = 1, m1 = 1, m2 = 0, m1' = 0
    and m2' = 1 for every a, so v = e, v' = -o, v_a = e_a, v_a' = -o_a,
    and with d/d lambda = -(1/(4 kappa)) d/da the mass between the
    centre and zb is +/- (e o_a - o e_a) / (4 kappa), + on the right.
    The stored pair is k v on each side, k taken through the pair's
    larger component (the two are parallel at an eigenvalue), so the
    mode's mass is k_R^2 times the right-side term minus k_L^2 times the
    left-side one; folding k into each factor keeps the products near
    the size of the pair.  At a float root the two halves k v meet at
    the centre with a mismatch of the root's residual size, and no
    growing solution reaches a far boundary.  With the centre outside
    the interval the two terms share a sign and partly cancel, by at
    most about 5x on bases with |varphi| up to 5; at |varphi| <= 1 they
    add.
    """
    a = -alpha * alpha / (4.0 * kappa)
    zr = 1.0 - varphi
    zl = -1.0 - varphi
    e_r, o_r = _m2(a, kappa, zr), _m1(a, kappa, zr)
    e_l, o_l = _m2(a, kappa, zl), _m1(a, kappa, zl)
    e_r_a, o_r_a = _m2_da(a, kappa, zr), _m1_da(a, kappa, zr)
    e_l_a, o_l_a = _m2_da(a, kappa, zl), _m1_da(a, kappa, zl)
    if tag == "symmetric":
        c1, c2 = e_r, 0.0
    elif tag == "antisymmetric":
        c1, c2 = 0.0, o_r
    else:
        c1, c2 = e_r, o_r

    det_da = o_l_a * e_r + o_l * e_r_a - e_l_a * o_r - e_l * o_r_a
    if abs(c1) >= abs(c2):
        w_res = 4.0 * kappa * (c1 - e_l) / (alpha * alpha * det_da * c1)
    else:
        w_res = -4.0 * kappa * (o_l - c2) / (alpha * alpha * det_da * c2)

    def side(e: float, o: float, e_a: float, o_a: float) -> float:
        k = c1 / e if abs(c1) >= abs(c2) else c2 / o
        return (k * e) * (k * o_a) - (k * o) * (k * e_a)

    mass = (side(e_r, o_r, e_r_a, o_r_a)
            - side(e_l, o_l, e_l_a, o_l_a)) / (4.0 * kappa)
    return (c1, c2), w_res, _unit_norm(mass, alpha)


def _unit_norm(mass: float, alpha: float) -> float:
    """1/sqrt(mass), for the norm-identity mass of the mode at alpha."""
    if not 0.0 < mass < math.inf:
        raise RootSearchError(
            f"mode at alpha = {alpha!r} has norm-identity mass {mass!r}; "
            "its root or its confluent values are unreliable")
    return 1.0 / math.sqrt(mass)


def _radial_mass(kappa: float, a: float, f: float, f_a: float, f1: float,
                 f1_a: float) -> float:
    """exp(-kappa) [f (f1 + a f1_a) - a f_a f1]: the Lagrange boundary term
    at z = 1 for y = F(a, b, kappa z^2), F = M or U, f1 = F(a+1, b+1, .).

    p = z^(d-1) exp(-kappa z^2), d/d lambda = -(1/(4 kappa)) d/da and
    M' = (a/b) M(a+1, b+1), U' = -a U(a+1, b+1) turn
    +/- p [y_lambda y' - y y_lambda'] into this times 1/(2b) on the
    interior and 1/2 on the exterior.  The f f1_a term carries the float
    root's residual f and is kept.
    """
    g = math.exp(-0.5 * kappa)  # sqrt of p(1), one per factor
    return (g * f) * (g * f1 + a * (g * f1_a)) - a * (g * f_a) * (g * f1)


def _radial_solution(geometry: Geometry):
    """(F, dF/da) of a radial layout: (M, dM/da) inside, (U, dU/da)
    outside.  The module's names are read on every call, so a wrapper
    put on them sees every radial confluent call."""
    if geometry is Geometry.RADIAL_INTERIOR:
        return kummer_m, kummer_m_da
    return tricomi_u, tricomi_u_da


def _radial_mode(geometry: Geometry, kappa: float, b: float, alpha: float):
    """Pair, residue weight and beta for one radial mode, from F and dF/da
    at (a, b, kappa) and at (a+1, b+1, kappa), four confluent values."""
    f, f_da = _radial_solution(geometry)
    nu = alpha * alpha / (4.0 * kappa)
    y_a = f_da(-nu, b, kappa).value
    w_res = 4.0 * kappa / (alpha * alpha * y_a)
    mass = _radial_mass(kappa, -nu, f(-nu, b, kappa).value, y_a,
                        f(1.0 - nu, b + 1.0, kappa).value,
                        f_da(1.0 - nu, b + 1.0, kappa).value)
    lagrange = 2.0 * b if geometry is Geometry.RADIAL_INTERIOR else 2.0
    return (1.0, 0.0), w_res, _unit_norm(mass / lagrange, alpha)


# ----------------------------------------------------------------------
# free-diffusion (Brownian) closed forms
# ----------------------------------------------------------------------

def _bessel_zero(order: int, k: int) -> float:
    """k-th positive zero of J_order (k = 1, 2, ...)."""
    guess = (k + 0.5 * order - 0.25) * math.pi
    lo, hi = guess - 0.8, guess + 0.8
    flo, fhi = bessel_j(order, lo), bessel_j(order, hi)
    if (flo < 0.0) == (fhi < 0.0):
        raise RootSearchError(
            f"Bessel zero {k} of order {order} escaped ({lo:.6g}, {hi:.6g})")
    return _refine_root(lambda x: bessel_j(order, x), (lo, hi, flo, fhi))


def _free_radial(d: int, x: float) -> float:
    """Regular free-diffusion radial mode Gamma(b) J_{b-1}(x) / (x/2)^(b-1),
    b = d/2, normalized to 1 at x = 0."""
    if x == 0.0:
        return 1.0
    if d == 1:
        return math.cos(x)
    if d == 3:
        return math.sin(x) / x
    b = d // 2
    return gamma_fn(b) * bessel_j(b - 1, x) / (0.5 * x) ** (b - 1)


def _brownian_basis(geometry: Geometry, kappa: float, varphi: float,
                    d: int, n_modes: int) -> SpectralBasis:
    """Closed-form basis in the free-diffusion limit kappa -> 0.

    Interval modes are cosines/sines about the centre (the odd family
    carries zero survival weight by symmetry); ball modes are Bessel
    functions with the classical zeros.  In d = 1 and 3 those are cos(x)
    and sin(x)/x, whose zeros, weights and beta are closed forms.
    """
    alphas, pairs, weights, betas = [], [], [], []
    if geometry is Geometry.INTERVAL:
        for n in range(n_modes):
            alpha = 0.5 * math.pi * (n + 1)
            if n % 2 == 0:
                sign = -1.0 if (n // 2) % 2 else 1.0  # sin(pi (n+1)/2)
                pairs.append((sign / alpha, 0.0))
                weights.append(2.0)
            else:
                sign = -1.0 if ((n + 1) // 2) % 2 else 1.0  # cos(pi (n+1)/2)
                pairs.append((0.0, sign))
                weights.append(0.0)
            alphas.append(alpha)
            betas.append(alpha)
    else:
        b = d // 2
        for n in range(n_modes):
            if d == 1:
                alpha = math.pi * (n + 0.5)
                weights.append(2.0 * (-1) ** n / alpha)
                betas.append(math.sqrt(2.0))
            elif d == 3:
                alpha = math.pi * (n + 1.0)
                weights.append(2.0 * (-1) ** n)
                betas.append(math.sqrt(2.0) * alpha)
            else:
                alpha = _bessel_zero(b - 1, n + 1)
                jb = bessel_j(b, alpha)
                scale = (0.5 * alpha) ** (b - 1)
                weights.append(2.0 * scale / (alpha * gamma_fn(b) * jb))
                betas.append(scale * math.sqrt(2.0) / (gamma_fn(b) * abs(jb)))
            alphas.append(alpha)
            pairs.append((1.0, 0.0))
    return SpectralBasis(
        geometry=geometry, kappa=kappa, varphi=varphi, d=d,
        alphas=tuple(alphas), coeff_pairs=tuple(pairs),
        weights=tuple(weights), betas=tuple(betas), brownian=True)


# ----------------------------------------------------------------------
# basis construction
# ----------------------------------------------------------------------

def _validate_problem(geometry, kappa: float, varphi: float, d: int,
                      n_modes: int) -> Geometry:
    geometry = Geometry(geometry)
    if not isinstance(n_modes, int) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa!r}")
    if not math.isfinite(varphi):
        raise ValueError(f"varphi must be finite, got {varphi!r}")
    if geometry is Geometry.INTERVAL:
        if d != 1:
            raise ValueError("the interval layout is one-dimensional; d must be 1")
    else:
        if d not in (1, 2, 3, 4):
            raise ValueError(f"supported dimensions are 1..4, got {d!r}")
        if varphi != 0.0:
            raise ValueError(
                "a constant pull breaks radial symmetry; varphi must be 0 "
                f"for {geometry.value}")
    return geometry


def build_basis(geometry, kappa: float, varphi: float = 0.0, d: int = 1,
                n_modes: int = 12) -> SpectralBasis:
    """Find the first n_modes eigenvalues and their expansion data.

    Each mode gets one weight, the residue of the closed-form generating
    function, and a normalization from the Sturm-Liouville norm
    identity; neither takes a quadrature, and an interval mode takes
    both from eight confluent values at its two boundaries.
    `weights_crosscheck` audits the weights on demand; the build itself
    does not run it.  At varphi = 0 the even and odd interval families
    are scanned separately and merged; the generic determinant covers
    every other pull, including varphi = 1 where it degenerates to the
    odd-solution condition on its own.  kappa below BROWNIAN_KAPPA
    returns the closed-form free-diffusion basis (the exterior problem
    has none and raises).  Raises RootSearchError when a root cannot be
    bracketed or verified, when a mode's norm is not positive, and when
    the slowest root lies below alpha = 1e-12, as it does for deep traps
    (the centred interval from kappa about 63).
    """
    geometry = _validate_problem(geometry, kappa, varphi, d, n_modes)
    if kappa < BROWNIAN_KAPPA:
        if geometry is Geometry.RADIAL_EXTERIOR:
            raise ValueError(
                "free diffusion outside a ball has no discrete exit "
                "spectrum; kappa must be at least BROWNIAN_KAPPA")
        if kappa * abs(varphi) > 1e-8:
            raise ValueError(
                "the weak-trap limit assumes the pull kappa*varphi "
                "vanishes with kappa; got kappa*varphi = "
                f"{kappa * varphi!r}")
        return _brownian_basis(geometry, kappa, varphi, d, n_modes)

    smooth_gaps = geometry is Geometry.RADIAL_EXTERIOR
    if geometry is Geometry.INTERVAL:
        if varphi == 0.0:
            families = [
                (lambda al: kummer_m(-al * al / (4.0 * kappa), 0.5,
                                     kappa).value, "symmetric", 1.0),
                (lambda al: kummer_m(0.5 - al * al / (4.0 * kappa), 1.5,
                                     kappa).value, "antisymmetric", 1.0),
            ]
        else:
            det = _interval_det(kappa, varphi)
            families = [(lambda al: det(-al * al / (4.0 * kappa)), "", 0.5)]
        brownian_gap = math.pi if varphi == 0.0 else 0.5 * math.pi
    else:
        f, _ = _radial_solution(geometry)
        b = 0.5 * d
        families = [(lambda al: f(-al * al / (4.0 * kappa), b, kappa).value,
                     "", 1.0)]
        brownian_gap = 0.0 if smooth_gaps else math.pi

    if geometry is Geometry.RADIAL_EXTERIOR:
        # The exterior bottom level sits at nu0 <~ kappa/2 + 1.5 with
        # spacings up to ~0.6 sqrt(kappa) before relaxing toward 1.
        nu_cap = (0.5 * kappa + 2.0
                  + (n_modes + 2.0) * (1.0 + 0.6 * math.sqrt(kappa)))
        cap = math.sqrt(4.0 * kappa * nu_cap)
    else:
        cap = 2.0 * max(math.sqrt(4.0 * kappa) * math.sqrt(n_modes + 2.0),
                        brownian_gap * (n_modes + 2.0)) + 1.0

    tagged: list[tuple[float, str]] = []
    for fn, tag, dnu in families:
        for root in _find_roots(fn, kappa, dnu, brownian_gap, n_modes,
                                cap, smooth_gaps):
            tagged.append((root, tag))
    tagged.sort()
    tagged = tagged[:n_modes]
    if geometry is Geometry.INTERVAL and varphi == 0.0:
        for (_, t0), (_, t1) in zip(tagged, tagged[1:]):
            if t0 == t1:
                raise RootSearchError(
                    "even and odd interval families stopped alternating; "
                    "a root was missed in the "
                    f"{'odd' if t0 == 'symmetric' else 'even'} family")

    pairs, weights, betas = [], [], []
    for alpha, tag in tagged:
        if geometry is Geometry.INTERVAL:
            pair, w, beta = _interval_mode(kappa, varphi, alpha, tag)
        else:
            pair, w, beta = _radial_mode(geometry, kappa, 0.5 * d, alpha)
        pairs.append(pair)
        weights.append(w)
        betas.append(beta)

    return SpectralBasis(
        geometry=geometry, kappa=float(kappa), varphi=float(varphi), d=d,
        alphas=tuple(alpha for alpha, _ in tagged),
        coeff_pairs=tuple(pairs), weights=tuple(weights),
        betas=tuple(betas), brownian=False)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _check_start(geometry: Geometry, z0: float) -> None:
    if geometry is Geometry.INTERVAL:
        if not -1.0 <= z0 <= 1.0:
            raise ValueError(f"interval start must lie in [-1, 1], got {z0!r}")
    elif geometry is Geometry.RADIAL_INTERIOR:
        if not 0.0 <= z0 <= 1.0:
            raise ValueError(f"interior start must lie in [0, 1], got {z0!r}")
    else:
        if not 1.0 <= z0 < math.inf:
            raise ValueError(
                f"exterior start must be finite with z0 >= 1, got {z0!r}")


def mode_term(basis: SpectralBasis, n: int, z0: float) -> float:
    """Spatial factor of mode n in the survival series at start z0.

    This is the unnormalized combination the weights pair with;
    multiply by betas[n] for the orthonormal eigenfunction value.
    """
    alpha = basis.alphas[n]
    kappa = basis.kappa
    if basis.brownian:
        if basis.geometry is Geometry.INTERVAL:
            c1, c2 = basis.coeff_pairs[n]
            return c1 * math.cos(alpha * z0) - c2 * math.sin(alpha * z0) / alpha
        return _free_radial(basis.d, alpha * z0)
    a = -alpha * alpha / (4.0 * kappa)
    if basis.geometry is Geometry.INTERVAL:
        c1, c2 = basis.coeff_pairs[n]
        z = z0 - basis.varphi
        return c1 * _m1(a, kappa, z) - c2 * _m2(a, kappa, z)
    f, _ = _radial_solution(basis.geometry)
    return f(a, 0.5 * basis.d, kappa * z0 * z0).value


# The mode factors of the latest start: (basis, z0, factors), where
# factors[n] = mode_term(basis, n, z0) for a prefix of the modes (0.0 at
# zero-weight modes, which are never evaluated).  A curve at one start
# computes each factor once.  The slot is replaced whole and never
# mutated, so concurrent callers at worst recompute; the basis is matched
# by identity, which costs nothing and leaves equal but distinct bases
# to their own evaluations.
_factors = (None, math.nan, ())


def _spectral_sum(basis: SpectralBasis, z0: float, t: float,
                  rate_weighted: bool):
    """Truncated mode sum; the last flag reports whether the final kept
    term was already negligible (False means the basis ran out of modes
    while terms still mattered)."""
    global _factors
    slot_basis, slot_z0, factors = _factors
    if slot_basis is not basis or slot_z0 != z0:
        factors = ()
    known = len(factors)
    new = []
    acc = 0.0
    abs_acc = 0.0
    kept = 0
    term = 0.0
    for n in range(basis.n_modes):
        w = basis.weights[n]
        if n < known:
            factor = factors[n]
        else:
            factor = mode_term(basis, n, z0) if w != 0.0 else 0.0
            new.append(factor)
        if w == 0.0:
            continue
        lam = basis.alphas[n] ** 2
        term = w * math.exp(-lam * t) * factor
        if rate_weighted:
            term *= lam
        acc += term
        abs_acc += abs(term)
        kept += 1
        if kept >= _MIN_TERMS and abs(term) < _TERM_STOP * abs(acc):
            converged = True
            break
    else:
        converged = abs(term) < _TMIN_TERM * max(1.0, abs(acc))
    if new:
        _factors = (basis, z0, factors + tuple(new))
    return acc, abs_acc, converged


def survival(basis: SpectralBasis, z0: float, t: float) -> SpectralValue:
    """Probability of not having exited by time t (units L**2/D).

    The truncated sum is clamped to [0, 1]; the result's `warning`
    flag marks raw values outside [-0.01, 1.01] and any t below the
    basis reliability horizon `t_min`.  The spatial factors
    (`mode_term`) of the latest start are kept, so a curve of calls at
    one start on one basis object computes each mode's factor once; a
    call at another start or basis replaces them.  z0 must be finite and
    inside the geometry's domain.
    """
    _check_start(basis.geometry, z0)
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    raw, _, converged = _spectral_sum(basis, z0, t, rate_weighted=False)
    warning = (raw < -_CLAMP_SLACK or raw > 1.0 + _CLAMP_SLACK
               or t < basis.t_min or not converged)
    return SpectralValue(min(1.0, max(0.0, raw)), raw, warning)


def fet_density(basis: SpectralBasis, z0: float, t: float) -> SpectralValue:
    """First-exit-time density at t (units D/L**2), -dS/dt term by term.

    Negative truncation noise is clamped to zero; the `warning` flag
    marks raw values below -1% of the term mass and any t below t_min.
    It shares the kept mode factors of the latest start with `survival`.
    """
    _check_start(basis.geometry, z0)
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    raw, abs_acc, converged = _spectral_sum(basis, z0, t, rate_weighted=True)
    warning = (raw < -_CLAMP_SLACK * abs_acc or t < basis.t_min
               or not converged)
    return SpectralValue(max(0.0, raw), raw, warning)


def mgf(geometry, kappa: float, varphi: float = 0.0, d: int = 1,
        z0: float = 0.0, s: float = 0.0) -> float:
    """Exit-time moment generating function E[exp(-s tau)], s in D/L**2.

    Evaluated directly from the closed hypergeometric ratio (m1, m2 on
    the interval, M or U in the ball), with no eigen-decomposition;
    derivatives in s at 0 give the exit-time moments.  Negative s holds
    only above the first pole s = -alphas[0]**2.  A ValueError is raised
    where the denominator falls below 1e-8 of its term scale; on the
    interval at varphi = 0 and 1 that scale vanishes with it, so a float
    pole returns a huge value.  Below the pole the ratio comes back
    unchecked, often negative.
    """
    geometry = _validate_problem(geometry, kappa, varphi, d, 1)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    if kappa < BROWNIAN_KAPPA:
        raise ValueError(
            "the closed ratio needs kappa >= BROWNIAN_KAPPA; the "
            "free-diffusion limit has no trapped generating function")
    _check_start(geometry, z0)
    if abs(z0) == 1.0:
        return 1.0
    a = s / (4.0 * kappa)
    if geometry is Geometry.INTERVAL:
        zr = 1.0 - varphi
        zl = -1.0 - varphi
        c1 = _m2(a, kappa, zr)
        c2 = _m1(a, kappa, zr)
        p = _m1(a, kappa, zl)
        q = _m2(a, kappa, zl)
        den = p * c1 - q * c2
        if s < 0.0 and abs(den) < _POLE_TOL * (abs(p * c1) + abs(q * c2)):
            raise ValueError(
                f"s = {s!r} sits on a spectral pole of the interval problem")
        z = z0 - varphi
        num = ((c1 - q) * _m1(a, kappa, z) + (p - c2) * _m2(a, kappa, z))
        return num / den
    f, _ = _radial_solution(geometry)
    num = f(a, 0.5 * d, kappa * z0 * z0).value
    den = f(a, 0.5 * d, kappa).value
    if s < 0.0 and abs(den) < _POLE_TOL * max(1.0, abs(num)):
        raise ValueError(
            f"s = {s!r} sits on a spectral pole of the {geometry.value} "
            "problem")
    return num / den


def _pole_parts(basis: SpectralBasis, n: int):
    """Eigenvalue condition D(lambda) of mode n's family, and the factor
    num with weights[n] = -num / (lambda dD/dlambda) at lambda = alpha_n^2."""
    kappa, d = basis.kappa, basis.d
    if basis.brownian:
        if basis.geometry is Geometry.INTERVAL:
            # even family: D = cos(sqrt(lambda)), mode c1 cos(alpha z)
            return (lambda lam: math.cos(math.sqrt(lam)),
                    1.0 / basis.coeff_pairs[n][0])
        return lambda lam: _free_radial(d, math.sqrt(lam)), 1.0
    if basis.geometry is not Geometry.INTERVAL:
        f, _ = _radial_solution(basis.geometry)
        return lambda lam: f(-lam / (4.0 * kappa), 0.5 * d, kappa).value, 1.0
    det = _interval_det(kappa, basis.varphi)
    a = -basis.alphas[n] ** 2 / (4.0 * kappa)
    zl = -1.0 - basis.varphi
    c1, c2 = basis.coeff_pairs[n]
    if abs(c1) >= abs(c2):
        num = (c1 - _m2(a, kappa, zl)) / c1
    else:
        num = -(_m1(a, kappa, zl) - c2) / c2
    return lambda lam: det(-lam / (4.0 * kappa)), num


def weights_crosscheck(basis: SpectralBasis) -> WeightsReport:
    """Audit every weight against a rebuild from condition values alone.

    The rebuild replaces the pole derivative, which the basis takes from
    the *_da routines, by a central difference of the eigenvalue
    condition's values at a +/- h, h = 1e-4 max(1, |a|) in
    a = -alpha^2/(4 kappa) (h = 1e-4 lambda for a free-diffusion
    basis).  The difference error stays below about 4e-6 relative, so a
    wrong parameter derivative, or a weight that no longer matches its
    stored coefficients, stands out; the roots themselves are verified
    against their residuals when they are refined.  Modes silenced by
    symmetry carry an exact zero weight and report zero discrepancy.
    """
    rows = []
    worst = 0.0
    for n, alpha in enumerate(basis.alphas):
        w = basis.weights[n]
        w_fd = disc = 0.0
        if w != 0.0:
            lam = alpha * alpha
            h = _AUDIT_STEP * max(4.0 * basis.kappa, lam)
            den, num = _pole_parts(basis, n)
            w_fd = -num * 2.0 * h / (lam * (den(lam + h) - den(lam - h)))
            disc = abs(w - w_fd) / max(abs(w), abs(w_fd))
        worst = max(worst, disc)
        rows.append((n, alpha, w, w_fd, disc))
    return WeightsReport(rows=tuple(rows), max_discrepancy=worst)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def basis_to_json(basis: SpectralBasis) -> str:
    """Full-precision JSON image of every basis field, schema 2."""
    payload = {
        "schema": _SCHEMA,
        "geometry": basis.geometry.value,
        "kappa": basis.kappa,
        "varphi": basis.varphi,
        "d": basis.d,
        "n_modes": basis.n_modes,
        "alphas": list(basis.alphas),
        "coeff_pairs": [list(pair) for pair in basis.coeff_pairs],
        "weights": list(basis.weights),
        "betas": list(basis.betas),
        "brownian": basis.brownian,
    }
    return json.dumps(payload, indent=2)


def basis_from_json(text: str) -> SpectralBasis:
    """Rebuild a basis serialized by `basis_to_json`.

    Raises ValueError for another schema, or when a per-mode list does
    not hold "n_modes" entries (`SpectralBasis` checks the others against
    "alphas").
    """
    payload = json.loads(text)
    schema = payload.get("schema")
    if schema != _SCHEMA:
        raise ValueError(f"unknown basis schema {schema!r}")
    n_modes = int(payload["n_modes"])
    if len(payload["alphas"]) != n_modes:
        raise ValueError(f"serialized n_modes is {n_modes}, but alphas "
                         f"holds {len(payload['alphas'])} entries")
    return SpectralBasis(
        geometry=Geometry(payload["geometry"]),
        kappa=float(payload["kappa"]),
        varphi=float(payload["varphi"]),
        d=int(payload["d"]),
        alphas=tuple(float(a) for a in payload["alphas"]),
        coeff_pairs=tuple((float(c1), float(c2))
                          for c1, c2 in payload["coeff_pairs"]),
        weights=tuple(float(w) for w in payload["weights"]),
        betas=tuple(float(b) for b in payload["betas"]),
        brownian=bool(payload["brownian"]),
    )
