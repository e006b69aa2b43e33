"""Problem containers, unit handling, and Boltzmann weights.

Everything downstream works in dimensionless variables: positions in units
of the trap-to-boundary distance L, times in units of L**2/D, and the two
control parameters

    kappa  = k L**2 / (2 kB T)   -- trap stiffness vs. thermal energy,
    varphi = F0 / (k L)          -- constant pull vs. trap force at L.

This module is the only place where SI quantities appear.  `OUProblem`
freezes a validated parameter set, exposes the derived scales (diffusion
coefficient, relaxation time, thermal trap length), and converts between
the physical and dimensionless pictures.  A negative pull is folded into
a positive `varphi` plus an orientation flag, because every solver in the
package exploits the mirror symmetry (varphi, z0) -> (-varphi, -z0)
rather than duplicating branches for both signs.

`load_config` reads a physical or a dimensionless parameter set from a
JSON file with errors that point at the offending line.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

__all__ = [
    "BOLTZMANN_K",
    "BROWNIAN_KAPPA",
    "Geometry",
    "OUProblem",
    "ConfigError",
    "canonical_orientation",
    "boltzmann_weight",
    "boltzmann_weight_scaled",
    "load_config",
]

# Exact SI Boltzmann constant, J/K.
BOLTZMANN_K = 1.380649e-23

# Below this kappa the trap is numerically indistinguishable from free
# diffusion and solvers switch to their closed-form Brownian limits.
BROWNIAN_KAPPA = 1e-8


class Geometry(str, enum.Enum):
    """Escape-region layouts shared by the solvers.

    INTERVAL is the centred segment [-L, L] on the line (the only layout
    that admits a pull); RADIAL_INTERIOR is escape from the ball of
    radius L; RADIAL_EXTERIOR is capture by that ball from outside; and
    EXTERIOR_LINE is the half-line x >= L in one dimension with the trap
    at the origin.
    """

    INTERVAL = "interval"
    RADIAL_INTERIOR = "radial-interior"
    RADIAL_EXTERIOR = "radial-exterior"
    EXTERIOR_LINE = "exterior-1d"


class ConfigError(ValueError):
    """A configuration file failed validation.

    The message carries ``path:line`` of the offending entry so the file
    can be fixed without guessing.
    """


def canonical_orientation(varphi: float, z0: float) -> tuple[float, float]:
    """Map (varphi, z0) with varphi < 0 onto the mirrored problem.

    Reflecting x -> -x sends the pull and the start position to their
    negatives while leaving exit statistics of the symmetric interval
    unchanged, so solvers only ever see varphi >= 0.
    """
    if varphi < 0.0:
        return -varphi, -z0
    return varphi, z0


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class OUProblem:
    """A harmonically trapped particle with an optional constant pull.

    Physical fields are SI: stiffness ``k`` (N/m), drag ``gamma`` (kg/s),
    temperature (K), pull ``F0`` (N, sign preserved), half-width ``L`` (m)
    of the centred escape region, and spatial dimension ``d``.  Derived
    fields are frozen at construction; ``varphi`` is always >= 0 with the
    sign of the pull recorded in ``orientation`` (see
    `canonical_orientation`).
    """

    k: float
    gamma: float
    temperature: float
    F0: float
    L: float
    d: int
    D: float = field(init=False)
    kappa: float = field(init=False)
    varphi: float = field(init=False)
    orientation: float = field(init=False)
    tau_k: float = field(init=False)
    ell_k: float = field(init=False)
    xhat: float = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self) -> None:
        _positive("k", self.k)
        _positive("gamma", self.gamma)
        _positive("temperature", self.temperature)
        _positive("L", self.L)
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if not math.isfinite(self.F0):
            raise ValueError("F0 must be finite")
        kbt = BOLTZMANN_K * self.temperature
        object.__setattr__(self, "D", kbt / self.gamma)
        object.__setattr__(self, "kappa", self.k * self.L**2 / (2.0 * kbt))
        varphi = self.F0 / (self.k * self.L)
        object.__setattr__(self, "orientation", -1.0 if varphi < 0.0 else 1.0)
        object.__setattr__(self, "varphi", abs(varphi))
        object.__setattr__(self, "tau_k", self.gamma / self.k)
        object.__setattr__(self, "ell_k", math.sqrt(2.0 * kbt / self.k))
        object.__setattr__(self, "xhat", self.F0 / self.k)
        object.__setattr__(self, "theta", self.k / self.gamma)

    @classmethod
    def from_physical(cls, k: float, gamma: float, temperature: float,
                      F0: float = 0.0, L: float = 1.0, d: int = 1) -> "OUProblem":
        """Build from SI inputs; the diffusion coefficient follows from
        the fluctuation-dissipation relation D = kB T / gamma."""
        return cls(k=float(k), gamma=float(gamma), temperature=float(temperature),
                   F0=float(F0), L=float(L), d=int(d))

    @classmethod
    def from_dimensionless(cls, kappa: float, varphi: float = 0.0,
                           d: int = 1) -> "OUProblem":
        """Build the unit problem (L = 1, D = 1, kB T = 1) realising the
        given kappa and varphi; convenient for solver-level work."""
        kappa = float(kappa)
        if not math.isfinite(kappa) or kappa <= 0.0:
            raise ValueError(f"kappa must be a positive finite number, got {kappa!r}")
        # With gamma = 1 and kB T = 1 the diffusion coefficient is 1, and
        # k = 2 kappa reproduces kappa = k L^2 / (2 kB T) at L = 1.
        k = 2.0 * kappa
        return cls(k=k, gamma=1.0, temperature=1.0 / BOLTZMANN_K,
                   F0=float(varphi) * k, L=1.0, d=int(d))

    @property
    def timescale(self) -> float:
        """Diffusion time L**2/D across the escape region, seconds."""
        return self.L**2 / self.D

    def canonical_start(self, x0: float) -> float:
        """Start position in the mirrored frame where varphi >= 0."""
        return self.orientation * x0


def boltzmann_weight(problem: OUProblem, x: float) -> float:
    """Stationary weight exp(-k x^2/(2 kB T) + F0 x/(kB T)), unnormalised."""
    kbt = BOLTZMANN_K * problem.temperature
    return math.exp((-0.5 * problem.k * x * x + problem.F0 * x) / kbt)


def boltzmann_weight_scaled(kappa: float, varphi: float, z: float) -> float:
    """Dimensionless stationary weight exp(-kappa z^2 + 2 kappa varphi z)."""
    return math.exp(kappa * z * (2.0 * varphi - z))


# --- configuration files ---------------------------------------------------

_PHYSICAL_KEYS = {
    "k": float, "gamma": float, "temperature": float,
    "F0": float, "L": float, "d": int,
}
_DIMENSIONLESS_KEYS = {"kappa": float, "varphi": float, "d": int}
_OPTIONAL_KEYS = {"z0": float, "t": float, "s": float, "n_modes": int}


def _key_line(text: str, key: str) -> int:
    """Best-effort line number of a JSON key in the raw file text."""
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return 1


def load_config(path: str) -> dict:
    """Read a JSON parameter file, either physical or dimensionless.

    The file must carry ``"mode": "physical"`` with keys k, gamma,
    temperature, F0, L, d, or ``"mode": "dimensionless"`` with keys
    kappa, varphi, d.  The solver keys z0, t, s and n_modes may ride
    along.  Unknown keys, wrong types, and missing required keys raise
    `ConfigError` with the file name and line number of the problem.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1: top level must be a JSON object")

    mode = raw.get("mode")
    if mode not in ("physical", "dimensionless"):
        line = _key_line(text, "mode") if "mode" in raw else 1
        raise ConfigError(
            f"{path}:{line}: \"mode\" must be \"physical\" or \"dimensionless\"")
    required = _PHYSICAL_KEYS if mode == "physical" else _DIMENSIONLESS_KEYS
    allowed = {"mode"} | set(required) | set(_OPTIONAL_KEYS)

    for key in raw:
        if key not in allowed:
            raise ConfigError(f"{path}:{_key_line(text, key)}: unknown key {key!r}")

    out: dict = {"mode": mode}
    for key, want in {**required, **_OPTIONAL_KEYS}.items():
        if key not in raw:
            if key in required and key not in ("F0", "varphi", "d"):
                raise ConfigError(f"{path}:1: missing required key {key!r}")
            continue
        value = raw[key]
        if want is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not ok:
            raise ConfigError(
                f"{path}:{_key_line(text, key)}: key {key!r} must be "
                f"{'an integer' if want is int else 'a number'}, got {value!r}")
        out[key] = want(value)
    return out
