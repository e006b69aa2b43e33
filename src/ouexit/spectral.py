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
alpha^2/(4 kappa).  The pair, or its a-derivatives, is read at the two
boundaries z = +/-1 - varphi in one place, `_interval_ends`, for the
determinant, the mode data, `mgf` and the weights audit.  A radial
problem uses one solution, Kummer M
(regular at the origin) inside the ball and Tricomi U (decaying at
infinity) outside it, chosen once in `_radial_solution` for the build
and `mgf`; the mode factors read each mode's layout and parameters from
a table cached on the basis (`mode_term`).
Eigenvalues are bracketed by an adaptive scan whose step follows the
local level spacing -- pi/2-scaled where the spectrum is
diffusion-like, nu-spacing-scaled where the trap dominates -- with a
logarithmic sweep below that grid because the slowest rate collapses
exponentially in kappa.  Domain monotonicity against the oscillator on
the whole line or space, with no absorbing wall, leaves each family at
most one level below the sweep's top, so the sweep reads its grid's
ends, bisects the grid only when their signs differ, and tests its last
cell on its own (a level can sit within rounding of the top): at most
9 evaluations, where reading every grid point took 65.  Brackets are
refined one after another: secant probes on bisection's grid of halvings
reach the cell bisection would end in, and secant steps polish it to
|d alpha| < 1e-12 (relative below alpha = 1); each root is re-verified
against its bracket-scale residual, and suspiciously wide gaps trigger
a fine rescan before being accepted.  The same theorem places the first
such gap: where a family's lowest root lies below the sweep's top, no
level is missed between the two, so that gap is measured and rescanned
from the top, not from the lowest root: a trap's ground gap is wider
than the spacing law though it can hide no level.  Mode sums read a
per-basis table of the modes with nonzero weight, and skip a mode whose
term a per-mode bound on its factor shows cannot move a bit of the sum.

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
values.  Each root family brings its condition, the values that
condition keeps (`_keeping`) and its mode routine, which reads them at
its roots: the interval pair, or the radial F(a, b, kappa), is not
computed again, and at varphi = 0 the left end mirrors the right.
`weights_crosscheck` is an opt-in audit, computed on demand: it
rebuilds every weight with dD/da replaced by a central difference of
D's values, so a wrong parameter derivative or coefficient shows as a
discrepancy.  Below `BROWNIAN_KAPPA` the basis switches to its
closed-form free-diffusion limit (cosines on the interval, Bessel modes
in the ball); the exterior problem keeps no discrete spectrum in that
limit and raises instead.  kappa alone marks a free-diffusion basis.

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

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

from .ou_model import (BROWNIAN_KAPPA, Geometry, _check_dimension,
                       _check_kappa, _check_start, _check_varphi)
from .specfun import bessel_j, kummer_m, kummer_m_da, tricomi_u, tricomi_u_da

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

# At s < 0 the generating-function denominator is treated as sitting on
# or beyond its first pole unless it exceeds this fraction of its scale.
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
        obj = float.__new__(cls, value)
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
    from the Sturm-Liouville norm identity.  `coeff_pairs`, `weights`
    and `betas` hold one entry per alpha, every alpha, coefficient,
    weight and beta is finite, and (geometry, kappa, varphi, d) passes
    the problem checks of `build_basis` and `mgf` (`_validate_problem`;
    a layout's string value is taken as its `Geometry` member), or
    construction raises ValueError.
    """

    geometry: Geometry
    kappa: float
    varphi: float
    d: int
    alphas: tuple[float, ...]
    coeff_pairs: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        geometry, _, _ = _validate_problem(self.geometry, self.kappa,
                                           self.varphi, self.d)
        object.__setattr__(self, "geometry", geometry)
        n = len(self.alphas)
        for key in ("alphas", "coeff_pairs", "weights", "betas"):
            values = getattr(self, key)
            got = len(values)
            if got != n:
                raise ValueError(
                    f"{key} holds {got} entries, but alphas holds {n}")
            if key == "coeff_pairs":
                values = [c for pair in values for c in pair]
            bad = [v for v in values if not math.isfinite(v)]
            if bad:
                raise ValueError(f"{key} must be finite, got {bad[0]!r}")

    @property
    def n_modes(self) -> int:
        return len(self.alphas)

    @property
    def brownian(self) -> bool:
        """A closed-form free-diffusion basis (trigonometric or Bessel
        modes, not confluent ones): kappa below `BROWNIAN_KAPPA`."""
        return self.kappa < BROWNIAN_KAPPA

    @functools.cached_property
    def _live_modes(self) -> tuple[tuple[int, float, float], ...]:
        """(n, weights[n], alphas[n] ** 2) of every mode with a nonzero
        weight, in order: the terms a spectral sum reads.  Cached like
        `t_min`."""
        return tuple((n, w, self.alphas[n] ** 2)
                     for n, w in enumerate(self.weights) if w != 0.0)

    @functools.cached_property
    def t_min(self) -> float:
        """Reliability horizon of the truncated sums.

        The time where the last kept contributing mode has decayed to
        1e-8; below it the omitted tail is of the same order as that
        term and the evaluators flag their output.  Computed once per
        basis: the instance dict takes it, not a field, so equality,
        `dataclasses.replace` and JSON do not see it.
        """
        if not self._live_modes:
            return 0.0
        _, w, lam = self._live_modes[-1]
        return max(0.0, math.log(abs(w) / _TMIN_TERM) / lam)

    @functools.cached_property
    def _factor_rows(self) -> tuple[tuple, ...]:
        """(layout, a, b, c1, c2) of every mode, the constants `mode_term`
        reads: the layout (None for a free-diffusion basis, whose factors
        read `alphas`), a = -alphas[n]**2 / (4 kappa), b = d/2 and the
        boundary pair.  Cached like `t_min`.  Forming the row per call and
        dropping `kummer_m`'s float-series shortcut together cost 8.3% of
        `curve-eval` `wall_s`, slower in 10 of 10 pairs
        (`BENCH_fork_audit.json`)."""
        if self.brownian:
            return tuple((None, 0.0, 0.0, c1, c2)
                         for c1, c2 in self.coeff_pairs)
        b = 0.5 * self.d
        return tuple((self.geometry, -alpha * alpha / (4.0 * self.kappa), b,
                      c1, c2)
                     for alpha, (c1, c2) in zip(self.alphas,
                                                self.coeff_pairs))

    @functools.cached_property
    def _factor_bounds(self) -> tuple[float, ...]:
        """`_factor_bound` of each entry of `_live_modes`, in order: the
        bounds by which a spectral sum skips a factor that cannot move
        it.  Formed at the first sum that meets a mode beyond its start's
        kept rows, and cached like `t_min`."""
        return tuple(_factor_bound(self, n) for n, _, _ in self._live_modes)


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

def _m1(f, a: float, kappa: float, z: float) -> float:
    """Even interval solution f(a, 1/2, kappa z^2) with a = -nu: m1 for
    f = kummer_m, its a-derivative for f = kummer_m_da."""
    return f(a, 0.5, kappa * z * z).value


def _m2(f, a: float, kappa: float, z: float) -> float:
    """Odd interval solution z * f(a + 1/2, 3/2, kappa z^2), as `_m1`."""
    return z * f(a + 0.5, 1.5, kappa * z * z).value


def _interval_ends(f, a: float, kappa: float, varphi: float,
                   m1_r: float | None = None, m2_r: float | None = None):
    """((m1, m2) at z = -1 - varphi, (m1, m2) at z = 1 - varphi): the
    interval pair (f = kummer_m), or its a-derivatives (f = kummer_m_da),
    at the two boundaries.

    At varphi = 0 the left end mirrors the right: m1 is even and m2 odd
    about the centre, and in floats too, since kappa (-1)(-1) is kappa
    and -1 times m2(1) is the product m2(-1) forms.  There a right-end
    value the caller already holds (m1_r, m2_r) is taken as given.
    """
    if varphi == 0.0:
        if m1_r is None:
            m1_r = _m1(f, a, kappa, 1.0)
        if m2_r is None:
            m2_r = _m2(f, a, kappa, 1.0)
        return (m1_r, -1.0 * m2_r), (m1_r, m2_r)
    zl = -1.0 - varphi
    zr = 1.0 - varphi
    return ((_m1(f, a, kappa, zl), _m2(f, a, kappa, zl)),
            (_m1(f, a, kappa, zr), _m2(f, a, kappa, zr)))


def _interval_det(ends) -> float:
    """Boundary determinant m1(zl) m2(zr) - m2(zl) m1(zr) of the pair's
    values at the two ends (`_interval_ends`), whose zeros in a =
    -alpha^2/(4 kappa) are the interval eigenvalues."""
    (m1_l, m2_l), (m1_r, m2_r) = ends
    return m1_l * m2_r - m2_l * m1_r


def _keeping(values_at: Callable[[float], object],
             condition: Callable[[object], float] = float):
    """(fn, kept): the eigenvalue condition fn(alpha) =
    condition(values_at(alpha)) and the dict in which fn keeps
    values_at(alpha) for every alpha it reads.  Every root is a point the
    refinement read, so the family's mode routine takes the confluent
    values there, kept[root], instead of computing them again."""
    kept: dict[float, object] = {}

    def fn(alpha: float) -> float:
        values = kept[alpha] = values_at(alpha)
        return condition(values)

    return fn, kept


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

    The sweep's 65 grid points run up to nu = alpha^2/(4 kappa) = dnu,
    and each family has at most one level below that: by Dirichlet
    domain monotonicity against the oscillator on the whole line or
    space, interval levels have nu_n >= n/2, the even and odd families
    at varphi = 0 have nu_n >= n and nu_n >= n + 1/2 (dnu = 1), and
    radial levels have nu_n >= n.  So fn is read at the grid's first
    point and its last two, the 63 lower cells are bisected over their
    own grid points when the first and the second-to-last signs differ,
    and the last cell is tested on its own: rounding can put the top
    point just past a level exponentially close to nu = dnu (the
    centred interval at kappa = 50 has one).  That is at most 9
    evaluations, and the brackets of a full sweep wherever it sees at
    most one sign change below its last cell.
    """
    brackets = []
    prev_a = 1e-12
    prev_f = fn(prev_a)
    if prev_f < 0.0:
        # every family's condition is positive at alpha = 0
        raise RootSearchError(
            f"eigenvalue condition is already negative at alpha = "
            f"{prev_a:g}; the slowest mode lies below the scan")
    # its top sqrt(4 kappa dnu) is at least 1.4e-4, as kappa >=
    # BROWNIAN_KAPPA and dnu >= 1/2
    n_log = 64
    ratio = (math.sqrt(4.0 * kappa * dnu) / prev_a) ** (1.0 / n_log)
    grid = [prev_a]
    for _ in range(n_log):
        grid.append(grid[-1] * ratio)
    lo, f_lo = 0, prev_f
    hi, f_hi = n_log - 1, fn(grid[n_log - 1])
    top_f = f_hi
    if (f_hi < 0.0) != (f_lo < 0.0):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            f = fn(grid[mid])
            if (f < 0.0) == (f_lo < 0.0):
                lo, f_lo = mid, f
            else:
                hi, f_hi = mid, f
        brackets.append((grid[lo], grid[hi], f_lo, f_hi))
    prev_a, prev_f = grid[n_log], fn(grid[n_log])
    if (prev_f < 0.0) != (top_f < 0.0):
        brackets.append((grid[n_log - 1], prev_a, top_f, prev_f))
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


def _last_cell(fn: Callable[[float], float], bracket, stop: float):
    """(a, fa, b, fb): the final cell that bisecting the sign-change
    bracket (A, B, fA, fB) by halvings 0.5 (a + b) reaches, with fn at
    its ends, or (x, 0.0, x, 0.0) where a probe x reads exactly zero.

    A cell of width at most `stop`, or 64 halvings deep, is final, so the
    halvings form a fixed tree of floats; replaying them finds the final
    cell holding any x without reading fn.  The read points lo and hi
    that straddle the sign change are kept, and each read lies strictly
    between them, so no point is read twice.  The secant through the two
    points read so far with the smallest |fn| (A and B to begin with)
    gives an estimate, and the probe is the nearer end of the final cell
    holding it, or the other end where the nearer is lo or hi.  Once the
    reads reach the depth of the deepest cell holding [lo, hi] plus two,
    the read is that cell's midpoint instead, a halving, which takes at
    least one level.  Reading stops when lo and hi are the ends of one
    final cell, after at most its depth plus two reads.
    """
    a, b, f_lo, f_hi = bracket
    negative = f_lo < 0.0
    lo, hi = a, b
    # the secant's points, |f1| <= |f0|
    x0, f0, x1, f1 = (a, f_lo, b, f_hi) if abs(f_hi) <= abs(f_lo) else (
        b, f_hi, a, f_lo)
    reads = depth = 0
    while True:
        # descend to the deepest cell holding [lo, hi]; unless it is
        # final, when lo and hi are its ends, its midpoint m lies
        # strictly between them
        while depth < 64 and b - a > stop:
            m = 0.5 * (a + b)
            if hi <= m:
                b = m
            elif lo >= m:
                a = m
            else:
                break
            depth += 1
        else:
            return lo, f_lo, hi, f_hi
        if reads <= depth + 1 and f1 != f0:
            x = x1 - f1 * (x1 - x0) / (f1 - f0)
            if lo < x < hi:
                ca, cb = a, b
                for _ in range(depth, 64):
                    if cb - ca <= stop:
                        break
                    mid = 0.5 * (ca + cb)
                    if x < mid:
                        cb = mid
                    else:
                        ca = mid
                near, far = (ca, cb) if x - ca < cb - x else (cb, ca)
                m = near if lo < near < hi else far
        fm = fn(m)
        reads += 1
        if fm == 0.0:
            return m, fm, m, fm
        if (fm < 0.0) == negative:
            lo, f_lo = m, fm
        else:
            hi, f_hi = m, fm
        if abs(fm) < abs(f1):
            x0, f0, x1, f1 = x1, f1, m, fm
        elif abs(fm) < abs(f0):
            x0, f0 = m, fm


def _refine_root(fn: Callable[[float], float], bracket) -> float:
    """Polish one sign-change bracket to |d alpha| < _ALPHA_TOL, relative
    below alpha = 1.

    First the bracket shrinks to the cell of bisection's last step, three
    decades below its width: halving it, up to 64 times, until the width
    is at most 1e-3 of the bracket's plus 64 tolerances.  Those halvings
    are a fixed grid of floats, and `_last_cell` reaches the cell without
    walking it: it reads grid points that secant steps on the points
    read so far pick, until two adjacent final points straddle the sign
    change, and halves instead wherever the probes would cost more than
    bisection's count plus two reads.  A probe reading exactly 0.0 is the
    root, as such a midpoint was bisection's.  Where fn changes sign once
    among the grid's points in the bracket, the cell is bisection's, with
    the same floats and values at its ends, so the root and everything
    built on it stay bit for bit; where it changes sign more than once
    (the interval determinant's noise with the trap far outside the
    domain), the two may stop at different changes.  Then secant steps,
    clipped to the live bracket and falling back to its midpoint, finish
    superlinearly.  The result must beat the residual tolerance relative
    to the detection-bracket endpoint magnitudes.
    """
    a, b, fa, fb = bracket
    scale = max(abs(fa), abs(fb), 1e-300)
    # an absolute 1e-12 is a large share of a deep trap's slowest root
    tol = _ALPHA_TOL * min(1.0, bracket[1])
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    a, fa, b, fb = _last_cell(fn, bracket,
                              1e-3 * (bracket[1] - bracket[0]) + 64.0 * tol)
    if fa == 0.0:
        return a
    x0, f0 = a, fa
    x1, f1 = b, fb
    # every pass sets the root and its condition value, which the
    # residual test reads
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
    if abs(f_root) > _RESIDUAL_TOL * scale:
        raise RootSearchError(
            f"root at alpha = {root!r} kept residual "
            f"{abs(f_root):.3e} against bracket scale {scale:.3e} "
            f"(bracket ({bracket[0]!r}, {bracket[1]!r}))")
    return root


def _find_roots(fn: Callable[[float], float], kappa: float, dnu: float,
                brownian_gap: float, n_roots: int, cap: float) -> list[float]:
    """Scan, refine, and gap-audit one root family."""
    brackets = _scan_brackets(fn, kappa, dnu, brownian_gap, n_roots, cap)
    roots = [_refine_root(fn, br) for br in brackets]
    for _ in range(2):
        extras = _audit_gaps(fn, roots, kappa, dnu, brownian_gap)
        if not extras:
            break
        roots = sorted(roots + extras)[:n_roots]
    return roots


def _suspect_gaps(roots: list[float], kappa: float, dnu: float,
                  brownian_gap: float) -> list[tuple[float, float]]:
    """Gaps (lo, hi) between neighbour roots that look like a missed root.

    Families with a hard spacing law are held to it directly: at most
    _GAP_SLACK nu-periods or _GAP_SLACK free-diffusion gaps.  Such a
    family has at most one level below the sweep's top alpha =
    sqrt(4 kappa dnu) (see `_scan_brackets`), so no level is missed
    between a lowest root below the top and the top itself: the first gap
    is measured, and rescanned, from max(roots[0], top).  (In a trap the
    ground gap is wider than the spacing law, yet it can hide no level
    below the top.)  Exterior spectra have no such bound (their spacing
    grows like sqrt(kappa) near the bottom) but decay smoothly mode to
    mode, so there (the one family with brownian_gap = 0) a gap is
    suspect when it exceeds 1.5x its smallest neighbour gap -- a miss
    doubles one gap while legitimate neighbours stay within ~1.2x.
    """
    gaps = [hi - lo for lo, hi in zip(roots, roots[1:])]
    if not gaps:
        return []
    out = []
    if brownian_gap == 0.0:
        if len(gaps) == 1:
            return []
        for i, g in enumerate(gaps):
            neighbours = [gaps[j] for j in (i - 1, i + 1)
                          if 0 <= j < len(gaps)]
            if g > 1.5 * min(neighbours) and g > _GAP_SLACK * (
                    4.0 * kappa) / (roots[i] + roots[i + 1]):
                out.append((roots[i], roots[i + 1]))
        return out
    top = math.sqrt(4.0 * kappa * dnu)
    for i, (lo, hi) in enumerate(zip(roots, roots[1:])):
        if i == 0 and lo < top:
            lo = top
        nu_gap = (hi ** 2 - lo ** 2) / (4.0 * kappa)
        if nu_gap > _GAP_SLACK and hi - lo > _GAP_SLACK * brownian_gap:
            out.append((lo, hi))
    return out


def _audit_gaps(fn, roots: list[float], kappa: float, dnu: float,
                brownian_gap: float) -> list[float]:
    """Rescan any neighbour gap wider than the family's spacing law.

    Returns newly found refined roots.  A missed sign change is always
    a close root pair (the spectrum is simple), so the 96x finer rescan
    recovers it; an empty rescan certifies the wide gap as genuine --
    interval problems with the trap centre outside the domain produce
    legitimately stretched spacings in the drift-dominated band.  A
    family with a free-diffusion law has its first gap measured from the
    sweep's top sqrt(4 kappa dnu) where its lowest root lies below it
    (`_suspect_gaps`), since no second level lies below the top.
    """
    extras = []
    for lo, hi in _suspect_gaps(roots, kappa, dnu, brownian_gap):
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

def _interval_mode(kappa: float, varphi: float, alpha: float, ends=None,
                   m1_r: float | None = None, m2_r: float | None = None):
    """Coefficients, residue weight, and beta for one interval mode.

    All three come from m1, m2 and their a-derivatives at the two
    boundaries, eight confluent values.  What the family's condition
    kept at alpha (`_keeping`) is not computed again: `ends`, the pair at
    both ends, for the determinant, m1_r = m1(1) for the even centred
    family and m2_r = m2(1) for the odd one, whose mode has c2, or c1,
    exactly 0.0.  At varphi = 0 the left end mirrors the right
    (`_interval_ends`), so a mode of a centred family takes one value of
    the pair and two a-derivatives.  The residue weight divides by
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
    if ends is None:
        ends = _interval_ends(kummer_m, a, kappa, varphi, m1_r, m2_r)
    (o_l, e_l), (o_r, e_r) = ends
    (o_l_a, e_l_a), (o_r_a, e_r_a) = _interval_ends(kummer_m_da, a, kappa,
                                                    varphi)
    c1 = 0.0 if m2_r is not None else e_r
    c2 = 0.0 if m1_r is not None else o_r

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


def _radial_mode(geometry: Geometry, kappa: float, b: float, alpha: float,
                 y: float | None = None):
    """Pair, residue weight and beta for one radial mode, from F and dF/da
    at (a, b, kappa) and at (a+1, b+1, kappa), four confluent values.  y
    is F(a, b, kappa) where the family's condition kept it at alpha
    (`_keeping`); it is then not computed again."""
    f, f_da = _radial_solution(geometry)
    nu = alpha * alpha / (4.0 * kappa)
    y_a = f_da(-nu, b, kappa).value
    w_res = 4.0 * kappa / (alpha * alpha * y_a)
    if y is None:
        y = f(-nu, b, kappa).value
    mass = _radial_mass(kappa, -nu, y, y_a,
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
    b = d/2, normalized to 1 at x = 0 (Gamma(b) is 1 at even d)."""
    if x == 0.0:
        return 1.0
    if d == 1:
        return math.cos(x)
    if d == 3:
        return math.sin(x) / x
    b = d // 2
    return bessel_j(b - 1, x) / (0.5 * x) ** (b - 1)


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
                weights.append(2.0 * scale / (alpha * jb))
                betas.append(scale * math.sqrt(2.0) / abs(jb))
            alphas.append(alpha)
            pairs.append((1.0, 0.0))
    return SpectralBasis(
        geometry=geometry, kappa=kappa, varphi=varphi, d=d,
        alphas=tuple(alphas), coeff_pairs=tuple(pairs),
        weights=tuple(weights), betas=tuple(betas))


# ----------------------------------------------------------------------
# basis construction
# ----------------------------------------------------------------------

def _validate_problem(geometry, kappa: float, varphi: float,
                      d: int) -> tuple[Geometry, float, float]:
    geometry = Geometry(geometry)
    kappa, varphi = _check_kappa(kappa), _check_varphi(varphi)
    d = _check_dimension(d)
    if geometry is Geometry.INTERVAL:
        if d != 1:
            raise ValueError("the interval layout is one-dimensional; d must be 1")
    else:
        if d > 4:
            raise ValueError(f"supported dimensions are 1..4, got {d!r}")
        if varphi != 0.0:
            raise ValueError(
                "a constant pull breaks radial symmetry; varphi must be 0 "
                f"for {geometry.value}")
    return geometry, kappa, varphi


def build_basis(geometry, kappa: float, varphi: float = 0.0, d: int = 1,
                n_modes: int = 12) -> SpectralBasis:
    """Find the first n_modes eigenvalues and their expansion data.

    Each mode gets one weight, the residue of the closed-form generating
    function, and a normalization from the Sturm-Liouville norm
    identity; neither takes a quadrature, and an interval mode takes
    both from eight confluent values at its two boundaries.  Each root
    family brings its mode routine, which reads the values its condition
    kept at a root rather than computing them again (`_keeping`).
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
    geometry, kappa, varphi = _validate_problem(geometry, kappa, varphi, d)
    if not isinstance(n_modes, int) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
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

    # (condition, kept, mode, tag, dnu) per family; mode(root, kept[root])
    if geometry is Geometry.INTERVAL:
        if varphi == 0.0:
            # m1 and m2 at the right end z = 1
            families = [
                (*_keeping(lambda al: _m1(
                    kummer_m, -al * al / (4.0 * kappa), kappa, 1.0)),
                 lambda al, m1_r: _interval_mode(kappa, varphi, al, m1_r=m1_r),
                 "even", 1.0),
                (*_keeping(lambda al: _m2(
                    kummer_m, -al * al / (4.0 * kappa), kappa, 1.0)),
                 lambda al, m2_r: _interval_mode(kappa, varphi, al, m2_r=m2_r),
                 "odd", 1.0),
            ]
        else:
            families = [(*_keeping(lambda al: _interval_ends(
                kummer_m, -al * al / (4.0 * kappa), kappa, varphi),
                _interval_det),
                lambda al, ends: _interval_mode(kappa, varphi, al, ends),
                "", 0.5)]
        brownian_gap = math.pi if varphi == 0.0 else 0.5 * math.pi
    else:
        f, _ = _radial_solution(geometry)
        b = 0.5 * d
        families = [(*_keeping(
            lambda al: f(-al * al / (4.0 * kappa), b, kappa).value),
            lambda al, y: _radial_mode(geometry, kappa, b, al, y), "", 1.0)]
        # the exterior has no free-diffusion family
        brownian_gap = (0.0 if geometry is Geometry.RADIAL_EXTERIOR
                        else math.pi)

    if geometry is Geometry.RADIAL_EXTERIOR:
        # The exterior bottom level sits at nu0 <~ kappa/2 + 1.5 with
        # spacings up to ~0.6 sqrt(kappa) before relaxing toward 1.
        nu_cap = (0.5 * kappa + 2.0
                  + (n_modes + 2.0) * (1.0 + 0.6 * math.sqrt(kappa)))
        cap = math.sqrt(4.0 * kappa * nu_cap)
    else:
        cap = 2.0 * max(math.sqrt(4.0 * kappa) * math.sqrt(n_modes + 2.0),
                        brownian_gap * (n_modes + 2.0)) + 1.0

    # The even and odd families alternate, so the lowest n_modes roots hold
    # at most n_modes // 2 + 1 of either, and each family is asked for that
    # many.  If a family skips one of its roots among the lowest n_modes
    # (other than the lowest root of all), the two roots of the other family
    # around it meet, both still among the lowest n_modes found, and the
    # alternation check below raises as it would with every root asked for.
    n_roots = n_modes // 2 + 1 if len(families) == 2 else n_modes
    found = []
    for fn, kept, mode, tag, dnu in families:
        for root in _find_roots(fn, kappa, dnu, brownian_gap, n_roots, cap):
            found.append((root, tag, mode, kept[root]))
    found.sort(key=lambda entry: entry[:2])
    found = found[:n_modes]
    if len(families) == 2:
        for (_, t0, *_), (_, t1, *_) in zip(found, found[1:]):
            if t0 == t1:
                raise RootSearchError(
                    "even and odd interval families stopped alternating; "
                    "a root was missed in the "
                    f"{'odd' if t0 == 'even' else 'even'} family")

    pairs, weights, betas = zip(*(mode(alpha, values)
                                  for alpha, _, mode, values in found))
    return SpectralBasis(
        geometry=geometry, kappa=kappa, varphi=varphi, d=d,
        alphas=tuple(entry[0] for entry in found), coeff_pairs=pairs,
        weights=weights, betas=betas)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def mode_term(basis: SpectralBasis, n: int, z0: float) -> float:
    """Spatial factor of mode n in the survival series at start z0.

    This is the unnormalized combination the weights pair with;
    multiply by betas[n] for the orthonormal eigenfunction value.  A
    radial start whose factor passes float range raises ValueError.
    The mode's layout, a, b and pair come from the basis's cached table
    (`_factor_rows`), and the confluent values from `kummer_m` and
    `tricomi_u` through this module's names.
    """
    layout, a, b, c1, c2 = basis._factor_rows[n]
    if layout == "interval":
        # m1 = M(a, 1/2, kappa z^2) and m2 = z M(a + 1/2, 3/2, kappa z^2)
        z = z0 - basis.varphi
        zz = basis.kappa * z * z
        return (c1 * kummer_m(a, 0.5, zz).value
                - c2 * (z * kummer_m(a + 0.5, 1.5, zz).value))
    if layout is None:
        alpha = basis.alphas[n]
        if basis.geometry is Geometry.INTERVAL:
            return c1 * math.cos(alpha * z0) - c2 * math.sin(alpha * z0) / alpha
        return _free_radial(basis.d, alpha * z0)
    z = basis.kappa * z0 * z0
    # a far exterior start takes kappa z0^2, or U there, past float range
    try:
        value = ((kummer_m if layout == "radial-interior" else tricomi_u)(
            a, b, z).value if z < math.inf else math.inf)
    except OverflowError:
        value = math.inf
    if abs(value) != math.inf:
        return value
    raise _far_start(z0, z)


def _factor_bound(basis: SpectralBasis, n: int) -> float:
    """B_n >= 2 sup |mode_term(basis, n, z0)| over the accepted starts,
    or inf.

    The Pochhammer bound |(a)_k| <= (|a|)_k gives |M(a, b, Z)| <=
    M(|a|, b, Z), and M(|a|, b, Z) grows with Z.  Inside the ball Z =
    kappa z0^2 <= kappa, so the factor is at most M(|a|, d/2, kappa).  On
    the interval |z| = |z0 - varphi| <= 1 + |varphi| and Z <= Z* =
    kappa (1 + |varphi|)^2, and |a + 1/2| <= |a| + 1/2, so |c1 m1 - c2 m2|
    is at most |c1| M(|a|, 1/2, Z*) + |c2| (1 + |varphi|) M(|a| + 1/2,
    3/2, Z*).  B_n is twice that, which absorbs the rounding of the bound
    and of the factor.  U grows without bound as z0 -> inf, so an
    exterior mode takes inf, and so does a free-diffusion one; a bound
    that raises or reaches 1e300 is inf too.  An inf bound never lets
    a sum skip its mode.
    """
    layout, a, b, c1, c2 = basis._factor_rows[n]
    try:
        if layout == "radial-interior":
            bound = 2.0 * kummer_m(-a, b, basis.kappa).value
        elif layout == "interval":
            span = 1.0 + abs(basis.varphi)
            zz = basis.kappa * span * span
            bound = 2.0 * (abs(c1) * kummer_m(-a, 0.5, zz).value
                           + abs(c2) * span
                           * kummer_m(0.5 - a, 1.5, zz).value)
        else:
            return math.inf
    except (ArithmeticError, ValueError):
        return math.inf
    return bound if bound < 1e300 else math.inf


def _far_start(z0: float, z: float) -> ValueError:
    """The error for a start whose radial factor, at z = kappa z0^2,
    passes float range, naming the start rather than z."""
    return ValueError(f"start z0 = {z0!r} lies too far out: the radial "
                      f"factor at kappa z0^2 = {z:.6g} passes float range")


# The mode rows of the latest start: (basis, z0, rows), where rows[i] =
# (weights[n], alphas[n] ** 2, mode_term(basis, n, z0)) for n the i-th
# entry of `_live_modes`, over a prefix of the live modes: those a sum
# computed before the first mode it skipped (`_spectral_sum`).  A curve at
# one start computes each factor it needs once, and its later points read
# the rows alone.  The slot is replaced whole and never mutated, so
# concurrent callers at worst recompute; the basis is matched by
# identity, which costs nothing and leaves equal but distinct bases to
# their own evaluations.
_rows = (None, math.nan, ())

# A term below this share of |acc| is under a quarter of acc's ulp.
_SKIP_SHARE = 2.0 ** -55


def _spectral_sum(basis: SpectralBasis, z0: float, t: float,
                  rate_weighted: bool):
    """Truncated mode sum, at z0 and t checked here for both evaluators;
    the last flag reports whether the final kept term was already
    negligible (False means the basis ran out of modes while terms still
    mattered).  Magnitudes are taken by conditionals, not by `abs`; they
    agree with it on every value, -0.0 and inf included, but a NaN's
    sign.

    The start's kept rows are summed first; each later live mode takes
    its factor from `mode_term`, read through the module's name so that
    a wrapper put on it sees every call, unless the factor cannot move a
    bit of the sum.  With pw = w exp(-lambda t), the product the term
    forms first (times lambda for a density), and the mode's bound
    B_n >= 2 sup |factor| over the accepted starts (`_factor_bound`), such
    a mode is skipped where |pw| B_n < 2^-55 |acc|:

    - the term, pw times the factor (times lambda), rounded, is then
      below 2^-55 |acc| too, which is under a quarter of acc's ulp
      (ulp(acc) > 2^-53 |acc|, and the subnormal spacing is wider), so
      acc + term rounds to acc, also at a power of two, where the
      spacing below is half the one above;
    - rounding is monotone, so abs_acc >= |acc|, and abs_acc + |term|
      rounds to abs_acc;
    - |term| < 1e-12 |acc| meets the stop test, so `ahead` counts down
      and the sum returns (acc, abs_acc, True) once it reaches 0, as the
      full sum would; a skipped last mode leaves size 0.0, which meets
      the final test as |term| did;
    - acc = 0 and NaN never skip, the comparison being false.

    So the value, `raw` and `warning` of either evaluator are the full
    sum's, bit for bit.  The slot takes the rows computed before the
    first skipped mode, a prefix of the live modes, once the sum stops
    reading; a later call at the start computes a skipped mode where it
    needs it.  The kept rows and the later modes have a loop each: one
    loop over both cost 24% to 26% of `basis-build` `op_ms.p50`
    (`BENCH_fork_audit.json`, `BENCH_twin_loops.json`).
    """
    global _rows
    z0 = _check_start(basis.geometry, z0)
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    slot_basis, slot_z0, rows = _rows
    if slot_basis is not basis or slot_z0 != z0:
        rows = ()
    exp = math.exp
    acc = abs_acc = size = 0.0
    # terms summed before the stop test applies
    ahead = _MIN_TERMS
    for w, lam, factor in rows:
        term = w * exp(-lam * t) * factor
        if rate_weighted:
            term *= lam
        acc += term
        size = -term if term < 0.0 else term
        abs_acc += size
        ahead -= 1
        if ahead <= 0 and size < _TERM_STOP * (-acc if acc < 0.0 else acc):
            return acc, abs_acc, True
    live = basis._live_modes
    if len(rows) < len(live):
        bounds = basis._factor_bounds
        new = []
        keeping = True
        try:
            for i in range(len(rows), len(live)):
                n, w, lam = live[i]
                pw = w * exp(-lam * t)
                mag = pw * lam if rate_weighted else pw
                if ((mag if mag >= 0.0 else -mag) * bounds[i]
                        < _SKIP_SHARE * (-acc if acc < 0.0 else acc)):
                    keeping = False
                    size = 0.0
                    ahead -= 1
                    if ahead <= 0:
                        return acc, abs_acc, True
                    continue
                factor = mode_term(basis, n, z0)
                if keeping:
                    new.append((w, lam, factor))
                term = pw * factor
                if rate_weighted:
                    term *= lam
                acc += term
                size = -term if term < 0.0 else term
                abs_acc += size
                ahead -= 1
                if ahead <= 0 and size < _TERM_STOP * (
                        -acc if acc < 0.0 else acc):
                    return acc, abs_acc, True
        finally:
            if new:
                _rows = (basis, z0, rows + tuple(new))
    scale = -acc if acc < 0.0 else acc
    return acc, abs_acc, size < _TMIN_TERM * (scale if scale > 1.0 else 1.0)


# `survival` and `fet_density` build their `SpectralValue` by this and two
# slot writes: their flag is a bool already, so the public constructor's
# call and its bool() are skipped.  Building it by the constructor cost
# 11% of `basis-build` `op_ms.p50` (`BENCH_fork_audit.json`).
_float_new = float.__new__


def survival(basis: SpectralBasis, z0: float, t: float) -> SpectralValue:
    """Probability of not having exited by time t (units L**2/D).

    The truncated sum is clamped to [0, 1]; the result's `warning`
    flag marks raw values outside [-0.01, 1.01] and any t below the
    basis reliability horizon `t_min`.  The (weight, rate, factor) rows
    of the latest start's live modes are kept, each factor from
    `mode_term`, so a curve of calls at one start on one basis object
    computes each mode's factor once and its later points sum the rows
    alone; a call at another start or basis replaces them.  A mode whose
    term cannot move a bit of the sum, |w exp(-lambda t)| B_n below
    2^-55 of it with B_n a bound on twice the mode's factor over every
    start, is skipped with no `mode_term` call (`_spectral_sum`), and
    the kept rows stop before the first skipped mode; value, `raw` and
    `warning` are the full sum's, bit for bit.  z0 must be finite and
    inside the geometry's domain, and near enough that its mode factors
    fit a float.
    """
    raw, _, converged = _spectral_sum(basis, z0, t, False)
    # min(1.0, max(0.0, raw)), NaN to 0.0 included
    value = _float_new(SpectralValue, raw if 0.0 < raw < 1.0
                       else 1.0 if raw >= 1.0 else 0.0)
    value.raw = raw
    # `not t >= t_min` is a bool for any t that compares, where `t < t_min`
    # would pass a numpy flag through
    value.warning = (raw < -_CLAMP_SLACK or raw > 1.0 + _CLAMP_SLACK
                     or not t >= basis.t_min or not converged)
    return value


def fet_density(basis: SpectralBasis, z0: float, t: float) -> SpectralValue:
    """First-exit-time density at t (units D/L**2), -dS/dt term by term.

    Negative truncation noise is clamped to zero; the `warning` flag
    marks raw values below -1% of the term mass and any t below t_min.
    It shares the kept mode rows of the latest start with `survival`,
    and skips a mode as `survival` does, with lambda |w exp(-lambda t)|
    in the test.
    """
    raw, abs_acc, converged = _spectral_sum(basis, z0, t, True)
    # max(0.0, raw), NaN to 0.0 included
    value = _float_new(SpectralValue, raw if raw > 0.0 else 0.0)
    value.raw = raw
    value.warning = (raw < -_CLAMP_SLACK * abs_acc or not t >= basis.t_min
                     or not converged)
    return value


def mgf(geometry, kappa: float, varphi: float = 0.0, d: int = 1,
        z0: float = 0.0, s: float = 0.0) -> float:
    """Exit-time moment generating function E[exp(-s tau)], s in D/L**2.

    Evaluated directly from the closed hypergeometric ratio (m1, m2 on
    the interval, M or U in the ball), with no eigen-decomposition;
    derivatives in s at 0 give the exit-time moments.  Negative s holds
    only above the first pole s = -alphas[0]**2, where the denominator
    falls to zero from its positive value at s = 0.  So at s < 0 a
    ValueError is raised unless the denominator exceeds 1e-8 of a fixed
    scale: max(2, |p c1| + |q c2|) on the interval, whose determinant is
    at least 2 at s = 0, and 1 in the ball, where M and U are 1 there.
    That refuses the first pole and the negative stretch after it; past
    the second pole the ratio comes back unchecked.  A ValueError naming
    float range is raised where the ratio cannot be formed in floats: a
    confluent value or factor overflows, the denominator underflows to
    0, or the ratio is NaN.
    """
    geometry, kappa, varphi = _validate_problem(geometry, kappa, varphi, d)
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    if kappa < BROWNIAN_KAPPA:
        raise ValueError(
            "the closed ratio needs kappa >= BROWNIAN_KAPPA; the "
            "free-diffusion limit has no trapped generating function")
    z0 = _check_start(geometry, z0)
    if abs(z0) == 1.0:
        return 1.0
    a = s / (4.0 * kappa)
    try:
        if geometry is Geometry.INTERVAL:
            ends = _interval_ends(kummer_m, a, kappa, varphi)
            (p, q), (c2, c1) = ends
            den = _interval_det(ends)
            _refuse_pole(s, den, max(2.0, abs(p * c1) + abs(q * c2)),
                         geometry)
            z = z0 - varphi
            num = ((c1 - q) * _m1(kummer_m, a, kappa, z)
                   + (p - c2) * _m2(kummer_m, a, kappa, z))
        else:
            f, _ = _radial_solution(geometry)
            z = kappa * z0 * z0
            if not z < math.inf:
                raise _far_start(z0, z)
            num = f(a, 0.5 * d, z).value
            den = f(a, 0.5 * d, kappa).value
            _refuse_pole(s, den, 1.0, geometry)
    except OverflowError:
        pass
    else:
        ratio = num / den if den != 0.0 else math.nan
        if ratio == ratio:
            return ratio
    raise ValueError(
        f"mgf of the {geometry.value} problem cannot be formed in float "
        f"range at kappa = {kappa!r}, varphi = {varphi!r}, d = {d!r}, "
        f"z0 = {z0!r}, s = {s!r}")


def _refuse_pole(s: float, den: float, scale: float,
                 geometry: Geometry) -> None:
    """`mgf`'s pole rule: at s < 0, den must exceed _POLE_TOL * scale."""
    if s < 0.0 and not den > _POLE_TOL * scale:
        raise ValueError(
            f"s = {s!r} sits on or beyond the first spectral pole of the "
            f"{geometry.value} problem")


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
    varphi = basis.varphi
    a = -basis.alphas[n] ** 2 / (4.0 * kappa)
    (m1_l, m2_l), _ = _interval_ends(kummer_m, a, kappa, varphi)
    c1, c2 = basis.coeff_pairs[n]
    if abs(c1) >= abs(c2):
        num = (c1 - m2_l) / c1
    else:
        num = -(m1_l - c2) / c2
    return lambda lam: _interval_det(_interval_ends(
        kummer_m, -lam / (4.0 * kappa), kappa, varphi)), num


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

    Raises ValueError for another schema, when a per-mode list does not
    hold "n_modes" entries, or when "brownian" disagrees with "kappa".
    `SpectralBasis` checks the other lists against "alphas", the layout
    name, and "d" as written (2.5 is refused, not truncated).
    """
    payload = json.loads(text)
    schema = payload.get("schema")
    if schema != _SCHEMA:
        raise ValueError(f"unknown basis schema {schema!r}")
    n_modes = int(payload["n_modes"])
    if len(payload["alphas"]) != n_modes:
        raise ValueError(f"serialized n_modes is {n_modes}, but alphas "
                         f"holds {len(payload['alphas'])} entries")
    basis = SpectralBasis(
        geometry=payload["geometry"],
        kappa=float(payload["kappa"]),
        varphi=float(payload["varphi"]),
        d=payload["d"],
        alphas=tuple(float(a) for a in payload["alphas"]),
        coeff_pairs=tuple((float(c1), float(c2))
                          for c1, c2 in payload["coeff_pairs"]),
        weights=tuple(float(w) for w in payload["weights"]),
        betas=tuple(float(b) for b in payload["betas"]),
    )
    if payload["brownian"] != basis.brownian:
        raise ValueError(f"serialized brownian {payload['brownian']!r} "
                         f"disagrees with kappa = {basis.kappa!r}")
    return basis
