"""The benchmark's three workloads: seeded inputs, timed calls, checks.

Each workload is a closed loop with one caller: a single thread makes one
public `ouexit` call at a time and waits for it.  Inputs come only from the
seed and the pass number, and the amount of work comes only from the run
length asked for, never from how fast the program is, so call counts and
memory compare across versions.

Every timed call is one operation.  It succeeds when it returns a finite
value that passes its check, or `math.inf` from a function whose docstring
documents `math.inf`; any exception, typed or not, and any value failing its
check is a failure.  The checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter

from ouexit import mean_exit, spectral
from ouexit.ou_model import BROWNIAN_KAPPA

GEOMETRIES = ("interval", "radial-interior", "radial-exterior")

# Start-point ranges, shared by every workload: the whole interval and ball,
# and out to three radii from the ball.
INTERVAL_Z0 = (-1.0, 1.0)
INTERIOR_Z0 = (0.0, 1.0)
EXTERIOR_Z0 = (1.0, 3.0)


def _start(rng: random.Random, geometry: str, stratum=0, strata=1) -> float:
    """A start drawn from stratum `stratum` of `strata` equal slices of the
    geometry's start range."""
    lo, hi = {"interval": INTERVAL_Z0, "radial-interior": INTERIOR_Z0,
              "radial-exterior": EXTERIOR_Z0}[geometry]
    return lo + (hi - lo) * (stratum + rng.random()) / strata


def _inf_documented(fn) -> bool:
    return "math.inf" in (fn.__doc__ or "")


def _encode(value) -> str:
    """Exact text of a call's outcome, for bit-for-bit comparison."""
    if isinstance(value, BaseException):
        return type(value).__name__
    if isinstance(value, spectral.SpectralBasis):
        return spectral.basis_to_json(value)
    return float(value).hex()


class Pass:
    """Timing, outcomes and failures of one pass over a workload's inputs."""

    def __init__(self, speed=None, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.api_ns = 0
        self.geom_ns = dict.fromkeys(GEOMETRIES, 0)
        self.op_ns: list[int] = []
        self.attempted = 0
        self.fails: Counter = Counter()
        self.outputs: list[str] = []

    def call(self, geometry: str, fn, *args, **kwargs):
        """Time one public call; returns (value or exception, ns), with ns
        at the reference speed when the pass has a `Speed`."""
        tracer = self.tracer

        def timed():
            if tracer:
                tracer.on = True
            t0 = time.perf_counter_ns()
            try:
                value = fn(*args, **kwargs)
            except Exception as exc:  # every failure is counted, never raised
                value = exc
            ns = time.perf_counter_ns() - t0
            if tracer:
                tracer.on = False
            return value, ns

        value, ns = self.speed.scale(timed) if self.speed else timed()
        self.api_ns += ns
        self.geom_ns[geometry] += ns
        self.outputs.append(_encode(value))
        return value, ns

    def outcome(self, value, ok: bool, count: int = 1) -> None:
        """Account `count` operations that ended in `value`."""
        self.attempted += count
        if isinstance(value, BaseException):
            self.fails[type(value).__name__] += count
        elif not ok:
            self.fails["check"] += count

    @property
    def failed(self) -> int:
        return sum(self.fails.values())


def _plain(value) -> bool:
    return not isinstance(value, BaseException)


def _finite_value(value, fn=None, lo=-math.inf, hi=math.inf,
                  lo_open=False) -> bool:
    """Value check shared by the scalar entry points."""
    if not _plain(value):
        return False
    v = float(value)
    if v == math.inf and fn is not None and _inf_documented(fn):
        return True
    if not math.isfinite(v):
        return False
    return (lo < v if lo_open else lo <= v) and v <= hi


# ----------------------------------------------------------------------
# basis-build
# ----------------------------------------------------------------------

# (geometry, kappa, varphi, d, n_modes).  Interval kappa=10, varphi=2 at 5
# or more modes and exterior d=2, kappa=5 are left out for run length.
SCENARIOS = (
    ("interval", 1.0, 0.0, 1, 12),
    ("interval", 4.0, 0.5, 1, 12),
    ("interval", 2.0, 1.0, 1, 12),
    ("interval", 10.0, 2.0, 1, 4),
    ("radial-interior", 2.0, 0.0, 3, 12),
    ("radial-interior", 5.0, 0.0, 2, 12),
    ("radial-exterior", 1.0, 0.0, 3, 12),
    ("radial-exterior", 1.0, 0.0, 1, 8),
    ("radial-exterior", 2.0, 0.0, 2, 4),
)

# Every build draws kappa from this relative band around the scenario value,
# so no timed build finds the per-z Buchholz tables an identical earlier
# build filled; an identical rebuild runs about 2.5x faster than a cold one.
KAPPA_BAND = 0.005
CURVE_POINTS = 200
CURVE_SPAN = 10.0  # the curve covers t_min .. t_min + CURVE_SPAN / rate_0
# Curves per build.  A survival call's cost depends on the start, so the
# starts of one scenario over a run are spread over CURVE_STARTS x passes
# equal slices of the start range, one start per slice; with one free start
# per build the latency metrics hinged on a handful of draws.
CURVE_STARTS = 4


def _met(geometry, kappa, varphi, d, z0):
    if geometry == "interval":
        return mean_exit.met_interval(kappa, varphi, z0)
    if geometry == "radial-interior":
        return mean_exit.met_radial_interior(d, kappa, z0)
    return mean_exit.met_radial_exterior(d, kappa, z0)


def mean_agrees(basis, z0: float, met: float) -> bool:
    """Spectral mean against the closed form, on the basis's own terms.

    The basis claims its truncated sums hold for t >= t_min, so the modes
    give the part of the mean after t_min, and what the closed form leaves
    for [0, t_min] must lie between t_min * S(t_min) and t_min, as S is
    non-increasing and at most 1.
    """
    t_min = basis.t_min
    late = sum(w * spectral.mode_term(basis, n, z0)
               * math.exp(-a * a * t_min) / (a * a)
               for n, (a, w) in enumerate(zip(basis.alphas, basis.weights))
               if w != 0.0)
    early = met - late
    slack = 1e-6 * met
    s_min = float(spectral.survival(basis, z0, t_min))
    return t_min * s_min - slack <= early <= t_min + slack


def curve_point_ok(value, previous) -> bool:
    """Survival stays in [0, 1] and does not rise above the previous point."""
    return (_plain(value) and 0.0 <= float(value) <= 1.0
            and (previous is None or not _plain(previous)
                 or float(value) <= float(previous)))


class BasisBuild:
    """Cold `build_basis` over the scenario matrix, then survival curves."""

    name = "basis-build"
    # A pass takes about 11 s, yet a 25-second run makes three passes: the
    # median of three shrugs off one pass caught in a slow phase.
    SECONDS_PER_PASS = 8.0

    def __init__(self, seed: int, seconds: float, scenarios=SCENARIOS):
        self.seed = seed
        self.scenarios = scenarios
        self.passes = max(1, round(seconds / self.SECONDS_PER_PASS))

    def prepare(self) -> str:
        """Draw every pass's inputs; nothing needs to travel to the runner."""
        self.inputs = [self._draw(p) for p in range(self.passes)]
        return ""

    def load(self, payload: str) -> bool:
        self.prepare()
        return True

    def _draw(self, p):
        # kappa comes from a stream shared by every seed: the exact-rational
        # Kummer branch costs 10x more for some low-order bits of kappa than
        # for others (0.27 to 2.9 s for interval kappa=10, varphi=2 within
        # the band), so every run builds the same cold bases; the seed
        # moves the start points
        bits = random.Random(f"{self.name}:kappa:{p}")
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        slices = CURVE_STARTS * self.passes
        return [(g, kappa * (1.0 + KAPPA_BAND * bits.uniform(-1.0, 1.0)),
                 varphi, d, n,
                 [_start(rng, g, k * self.passes + p, slices)
                  for k in range(CURVE_STARTS)])
                for g, kappa, varphi, d, n in self.scenarios]

    def run_pass(self, p: int, rec: Pass) -> None:
        for g, kappa, varphi, d, n_modes, starts in self.inputs[p]:
            basis, _ = rec.call(g, spectral.build_basis, g, kappa, varphi, d,
                                n_modes)
            if not _plain(basis):
                rec.outcome(basis, False, 1 + CURVE_STARTS * CURVE_POINTS)
                continue
            try:
                ok = all(mean_agrees(basis, z0, _met(g, kappa, varphi, d, z0))
                         for z0 in starts)
            except Exception:  # the check could not be evaluated
                ok = False
            rec.outcome(basis, ok)
            rate0 = basis.alphas[0] ** 2
            for z0 in starts:
                previous = None
                for i in range(CURVE_POINTS):
                    t = (basis.t_min
                         + CURVE_SPAN / rate0 * i / (CURVE_POINTS - 1))
                    value, ns = rec.call(g, spectral.survival, basis, z0, t)
                    rec.op_ns.append(ns)
                    rec.outcome(value, curve_point_ok(value, previous))
                    previous = value


# ----------------------------------------------------------------------
# curve-eval
# ----------------------------------------------------------------------

# (geometry, kappa, varphi, d, n_modes) of the bases built in set-up.
EVAL_BASES = (
    ("interval", 4.0, 0.5, 1, 12),
    ("interval", 10.0, 2.0, 1, 4),
    ("radial-interior", 5.0, 0.0, 2, 12),
    ("radial-exterior", 1.0, 0.0, 3, 8),
)
EVAL_SPAN = 5.0  # t is drawn from t_min .. t_min + EVAL_SPAN / rate_0


class CurveEval:
    """Random-start `survival` and `fet_density` calls on prebuilt bases."""

    name = "curve-eval"
    CALLS_PER_PASS = 2500
    SECONDS_PER_PASS = 2.0

    def __init__(self, seed: int, seconds: float, calls=CALLS_PER_PASS):
        self.seed = seed
        self.calls = calls
        self.passes = max(1, round(seconds / self.SECONDS_PER_PASS))
        self.bases = None

    def prepare(self) -> str:
        """Build the bases; returns their JSON images."""
        return json.dumps([spectral.basis_to_json(spectral.build_basis(*spec))
                           for spec in EVAL_BASES])

    def load(self, payload: str) -> bool:
        """Take the bases from their JSON; True if every round trip is
        exact."""
        texts = json.loads(payload)
        self.bases = [spectral.basis_from_json(text) for text in texts]
        return all(spectral.basis_to_json(b) == text
                   for b, text in zip(self.bases, texts))

    def run_pass(self, p: int, rec: Pass) -> None:
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        for _ in range(self.calls):
            basis = self.bases[rng.randrange(len(self.bases))]
            g = basis.geometry.value
            z0 = _start(rng, g)
            rate0 = basis.alphas[0] ** 2
            t = basis.t_min + rng.uniform(0.0, EVAL_SPAN / rate0)
            if rng.random() < 0.5:
                value, ns = rec.call(g, spectral.survival, basis, z0, t)
                ok = _finite_value(value, lo=0.0, hi=1.0)
            else:
                value, ns = rec.call(g, spectral.fet_density, basis, z0, t)
                ok = _finite_value(value, lo=0.0)
            rec.op_ns.append(ns)
            rec.outcome(value, ok)


# ----------------------------------------------------------------------
# closed-form
# ----------------------------------------------------------------------

KAPPA_DECADES = (-3.0, 3.0)
VARPHI_MAX = 2.5
S_RANGE = (1e-2, 30.0)
DERIVATIVE_EVERY = 8  # draws between -d mgf/ds checks
DERIVATIVE_STEP = 1e-3  # central-difference step, in units of 1/mean


def _kappa(rng: random.Random) -> float:
    u = rng.random()
    if u < 1.0 / 32.0:
        return 0.0
    if u < 1.0 / 16.0:
        return BROWNIAN_KAPPA * rng.random()
    return 10.0 ** rng.uniform(*KAPPA_DECADES)


def mgf_slope_agrees(mgf_at, mean: float) -> bool:
    """-d mgf/ds at s = 0 by central differences matches the mean.

    Differences at steps h and 2h must agree to 1% of the mean (the MGF is
    smooth at 0), and the h estimate must sit within their gap of the mean.
    """
    h = DERIVATIVE_STEP / mean
    try:
        d1 = (mgf_at(-h) - mgf_at(h)) / (2.0 * h)
        d2 = (mgf_at(-2.0 * h) - mgf_at(2.0 * h)) / (4.0 * h)
    except Exception:  # a raise near s = 0 is a failure of the MGF
        return False
    gap = abs(d1 - d2)
    return gap <= 1e-2 * mean and abs(d1 - mean) <= gap + 1e-6 * mean


class ClosedForm:
    """Closed-form means, splitting probabilities and MGFs over their
    accepted domain."""

    name = "closed-form"
    DRAWS_PER_PASS = 800
    SECONDS_PER_PASS = 1.5

    def __init__(self, seed: int, seconds: float, draws=DRAWS_PER_PASS):
        self.seed = seed
        self.draws = draws
        self.passes = max(1, round(seconds / self.SECONDS_PER_PASS))

    def prepare(self) -> str:
        """Draw every pass's inputs; nothing needs to travel to the runner."""
        self.inputs = [self._draw(p) for p in range(self.passes)]
        return ""

    def load(self, payload: str) -> bool:
        self.prepare()
        return True

    def _draw(self, p):
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        out = []
        for _ in range(self.draws):
            kappa = _kappa(rng)
            out.append((kappa, rng.uniform(-VARPHI_MAX, VARPHI_MAX),
                        rng.randint(1, 4),
                        math.exp(rng.uniform(*map(math.log, S_RANGE))),
                        _start(rng, "interval"),
                        _start(rng, "radial-interior"),
                        _start(rng, "radial-exterior")))
        return out

    def run_pass(self, p: int, rec: Pass) -> None:
        me = mean_exit
        for i, (kappa, varphi, d, s, zi, zr, ze) in enumerate(self.inputs[p]):
            means = {}
            for g, fn, args in (
                    ("interval", me.met_interval, (kappa, varphi, zi)),
                    ("radial-interior", me.met_radial_interior,
                     (d, kappa, zr)),
                    ("radial-exterior", me.met_radial_exterior,
                     (d, kappa, ze)),
                    ("radial-exterior", me.met_exterior_1d_forced,
                     (kappa, varphi, ze))):
                value, ns = rec.call(g, fn, *args)
                rec.op_ns.append(ns)
                ok = _finite_value(value, fn, lo=0.0)
                rec.outcome(value, ok)
                if ok and fn is not me.met_exterior_1d_forced:
                    means[g] = float(value)
            value, ns = rec.call("interval", me.splitting_probability,
                                 kappa, varphi, zi)
            rec.op_ns.append(ns)
            rec.outcome(value, _finite_value(value, lo=0.0, hi=1.0))
            if kappa < BROWNIAN_KAPPA:
                continue  # outside mgf's accepted domain
            for g, vp, dim, z0 in (("interval", varphi, 1, zi),
                                   ("radial-interior", 0.0, d, zr),
                                   ("radial-exterior", 0.0, d, ze)):
                value, ns = rec.call(g, spectral.mgf, g, kappa, vp, dim, z0, s)
                rec.op_ns.append(ns)
                ok = _finite_value(value, lo=0.0, hi=1.0, lo_open=True)
                mean = means.get(g, math.inf)
                if ok and i % DERIVATIVE_EVERY == 0 and 0.0 < mean < math.inf:
                    ok = mgf_slope_agrees(
                        lambda x: spectral.mgf(g, kappa, vp, dim, z0, x), mean)
                rec.outcome(value, ok)


WORKLOADS = {w.name: w for w in (BasisBuild, CurveEval, ClosedForm)}
