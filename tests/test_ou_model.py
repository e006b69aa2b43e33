"""Tests for the problem container and its unit handling.

The optical-tweezer benchmark (1 um bead in water, k = 1e-6 N/m,
T = 300 K) pins the SI plumbing: drag, diffusion coefficient, trap
relaxation time, and thermal trap length are checked against their
published rounded values at 1%.  Everything else is a structural
property (consistency of the derived fields, mirror symmetry, input
validation).  The accepted problem (kappa, varphi, d and each layout's
start) is defined once here, and every solver refuses an input outside it
with that one check's message.
"""

import dataclasses
import functools
import json
import math

import pytest

from ouexit import mean_exit, spectral
from ouexit.ou_model import (
    BOLTZMANN_K,
    Geometry,
    OUProblem,
    _check_dimension,
    _check_kappa,
    _check_start,
    _check_varphi,
    canonical_orientation,
)

# 1 um bead in water at 300 K inside a k = 1e-6 N/m trap: the four
# benchmark scales as published (rounded), matched at 1%.
TRACER_GAMMA = 1.88e-8      # kg/s
TRACER_D = 2.2e-13          # m^2/s
TRACER_TAU_K = 18.8e-3      # s
TRACER_ELL_K = 91e-9        # m


def tracer_problem(L=None, F0=0.0):
    gamma = 6.0 * math.pi * 1e-3 * 1e-6  # Stokes drag 6 pi eta r, water
    if L is None:
        L = math.sqrt(2.0 * BOLTZMANN_K * 300.0 / 1e-6)
    return OUProblem.from_physical(k=1e-6, gamma=gamma, temperature=300.0,
                                   F0=F0, L=L)


def test_tracer_benchmark_scales():
    p = tracer_problem()
    assert abs(p.gamma - TRACER_GAMMA) / TRACER_GAMMA < 0.01
    assert abs(p.D - TRACER_D) / TRACER_D < 0.01
    assert abs(p.tau_k - TRACER_TAU_K) / TRACER_TAU_K < 0.01
    assert abs(p.ell_k - TRACER_ELL_K) / TRACER_ELL_K < 0.01


def test_escape_region_at_trap_length_gives_unit_kappa():
    p = tracer_problem()
    assert abs(p.kappa - 1.0) < 1e-12


def test_derived_fields_are_mutually_consistent():
    p = tracer_problem(L=2.5e-7, F0=3e-13)
    kbt = BOLTZMANN_K * p.temperature
    assert abs(p.D * p.gamma - kbt) / kbt < 1e-12
    assert abs(p.kappa - p.k * p.L**2 / (2.0 * kbt)) / p.kappa < 1e-12
    assert abs(p.varphi - abs(p.F0) / (p.k * p.L)) / p.varphi < 1e-12
    assert abs(p.tau_k * p.theta - 1.0) < 1e-12
    assert abs(p.ell_k**2 - 2.0 * kbt / p.k) / p.ell_k**2 < 1e-12
    assert abs(p.xhat - p.F0 / p.k) / abs(p.xhat) < 1e-12
    assert abs(p.timescale - p.L**2 / p.D) / p.timescale < 1e-12


def test_from_dimensionless_round_trips():
    p = OUProblem.from_dimensionless(kappa=1.7, varphi=0.4, d=3)
    assert abs(p.kappa - 1.7) < 1e-12
    assert abs(p.varphi - 0.4) < 1e-12
    assert p.d == 3
    assert abs(p.D - 1.0) < 1e-12
    assert p.L == 1.0
    assert abs(p.timescale - 1.0) < 1e-12
    assert abs(p.tau_k - 1.0 / (2.0 * 1.7)) < 1e-12


def test_negative_pull_is_canonicalized():
    p = tracer_problem(F0=-2e-13)
    assert p.F0 == -2e-13            # original value preserved
    assert p.varphi > 0.0
    assert p.orientation == -1.0
    assert p.canonical_start(0.3 * p.L) == -0.3 * p.L
    q = tracer_problem(F0=2e-13)
    assert abs(p.varphi - q.varphi) < 1e-15
    assert q.orientation == 1.0


def test_canonical_orientation_mirrors_negative_pull():
    assert canonical_orientation(-0.3, 0.4) == (0.3, -0.4)
    assert canonical_orientation(0.3, 0.4) == (0.3, 0.4)
    assert canonical_orientation(0.0, -0.9) == (0.0, -0.9)


def test_validation_rejects_bad_inputs():
    good = dict(k=1e-6, gamma=1e-8, temperature=300.0, F0=0.0, L=1e-7, d=1)
    for key, bad in [("k", 0.0), ("gamma", -1.0), ("temperature", 0.0),
                     ("L", -2.0), ("d", 0), ("d", 1.5), ("F0", math.inf)]:
        kwargs = dict(good)
        kwargs[key] = bad
        with pytest.raises(ValueError):
            OUProblem(**kwargs)
    with pytest.raises(ValueError):
        OUProblem.from_dimensionless(kappa=0.0)


# ----------------------------------------------------------------------
# the accepted problem: one check per quantity, shared by every solver
# ----------------------------------------------------------------------

def _message(check, *args):
    with pytest.raises(ValueError) as info:
        check(*args)
    return str(info.value)


@functools.cache
def _basis(geometry):
    """A 3-mode basis at kappa = 2 (d = 3 in a ball)."""
    d = 1 if geometry is Geometry.INTERVAL else 3
    return spectral.build_basis(geometry, 2.0, 0.0, d, 3)


KAPPA_TAKERS = {
    "splitting": lambda k: mean_exit.splitting_probability(k, 0.3, 0.2),
    "met_interval": lambda k: mean_exit.met_interval(k, 0.3, 0.2),
    "asymptotic": lambda k: mean_exit.met_interval_asymptotic(k, 0.3, 0.2),
    "interior": lambda k: mean_exit.met_radial_interior(3, k, 0.5),
    "exterior": lambda k: mean_exit.met_radial_exterior(3, k, 2.0),
    "exterior-1d": lambda k: mean_exit.met_exterior_1d_forced(k, 0.5, 2.0),
    "build": lambda k: spectral.build_basis("interval", k, 0.0, 1, 2),
    "mgf": lambda k: spectral.mgf("radial-interior", k, 0.0, 3, 0.5, 1.0),
}

VARPHI_TAKERS = {
    "splitting": lambda v: mean_exit.splitting_probability(1.0, v, 0.2),
    "met_interval": lambda v: mean_exit.met_interval(1.0, v, 0.2),
    "asymptotic": lambda v: mean_exit.met_interval_asymptotic(10.0, v, 0.2),
    "exterior-1d": lambda v: mean_exit.met_exterior_1d_forced(1.0, v, 2.0),
    "build": lambda v: spectral.build_basis("interval", 2.0, v, 1, 2),
    "mgf": lambda v: spectral.mgf("interval", 2.0, v, 1, 0.2, 1.0),
}

# (layout, entry point taking a start) pairs
START_TAKERS = {
    "splitting": (Geometry.INTERVAL,
                  lambda z: mean_exit.splitting_probability(1.0, 0.3, z)),
    "met_interval": (Geometry.INTERVAL,
                     lambda z: mean_exit.met_interval(1.0, 0.3, z)),
    "asymptotic": (Geometry.INTERVAL,
                   lambda z: mean_exit.met_interval_asymptotic(10.0, 0.3, z)),
    "interior": (Geometry.RADIAL_INTERIOR,
                 lambda z: mean_exit.met_radial_interior(3, 1.0, z)),
    "exterior": (Geometry.RADIAL_EXTERIOR,
                 lambda z: mean_exit.met_radial_exterior(3, 1.0, z)),
    "exterior-1d": (Geometry.RADIAL_EXTERIOR,
                    lambda z: mean_exit.met_exterior_1d_forced(1.0, 0.5, z)),
}
for _g in Geometry:
    START_TAKERS[f"survival-{_g.value}"] = (
        _g, lambda z, g=_g: spectral.survival(_basis(g), z, 1.0))
    START_TAKERS[f"density-{_g.value}"] = (
        _g, lambda z, g=_g: spectral.fet_density(_basis(g), z, 1.0))
    START_TAKERS[f"mgf-{_g.value}"] = (
        _g, lambda z, g=_g: spectral.mgf(
            g, 2.0, 0.0, 1 if g is Geometry.INTERVAL else 3, z, 1.0))

# starts just outside each layout's span, and the non-finite ones
BAD_STARTS = {
    Geometry.INTERVAL: (math.nextafter(1.0, 2.0), -1.5, math.nan, math.inf),
    Geometry.RADIAL_INTERIOR: (math.nextafter(0.0, -1.0), 1.1, math.nan),
    Geometry.RADIAL_EXTERIOR: (math.nextafter(1.0, 0.0), math.nan, math.inf,
                               -math.inf),
}


@pytest.mark.parametrize("name", sorted(KAPPA_TAKERS))
@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0, -5e-324])
def test_every_solver_refuses_kappa_with_the_one_message(name, kappa):
    want = _message(_check_kappa, kappa)
    assert "kappa" in want and repr(kappa) in want
    with pytest.raises(ValueError) as info:
        KAPPA_TAKERS[name](kappa)
    assert str(info.value) == want


@pytest.mark.parametrize("name", sorted(VARPHI_TAKERS))
@pytest.mark.parametrize("varphi", [math.nan, math.inf, -math.inf])
def test_every_solver_refuses_varphi_with_the_one_message(name, varphi):
    want = _message(_check_varphi, varphi)
    assert "varphi" in want and repr(varphi) in want
    with pytest.raises(ValueError) as info:
        VARPHI_TAKERS[name](varphi)
    assert str(info.value) == want


@pytest.mark.parametrize("name", sorted(START_TAKERS))
def test_every_solver_refuses_a_start_with_its_layouts_message(name):
    geometry, call = START_TAKERS[name]
    for z0 in BAD_STARTS[geometry]:
        want = _message(_check_start, geometry, z0)
        assert "start z0" in want and repr(z0) in want
        with pytest.raises(ValueError) as info:
            call(z0)
        assert str(info.value) == want, z0


def _with_d(d):
    """The JSON image of the d = 3 ball basis with "d" set to d."""
    payload = json.loads(spectral.basis_to_json(
        _basis(Geometry.RADIAL_INTERIOR)))
    payload["d"] = d
    return json.dumps(payload)


# a bool is an int, but True used to pass as d = 1; the constructors used
# to truncate 2.5 to 2 with int()
@pytest.mark.parametrize("d", [0, -1, 1.5, 2.0, None, True, False, 2.5])
def test_every_dimension_taker_refuses_d_with_the_one_message(d):
    want = _message(_check_dimension, d)
    assert repr(d) in want
    for call in (lambda: mean_exit.met_radial_interior(d, 1.0, 0.5),
                 lambda: mean_exit.met_radial_exterior(d, 1.0, 2.0),
                 lambda: OUProblem(k=1e-6, gamma=1e-8, temperature=300.0,
                                   F0=0.0, L=1e-7, d=d),
                 lambda: OUProblem.from_physical(1e-6, 1e-8, 300.0, d=d),
                 lambda: OUProblem.from_dimensionless(1.0, d=d),
                 lambda: spectral.build_basis("radial-interior", 2.0, 0.0,
                                              d, 2),
                 lambda: spectral.build_basis("radial-exterior", 2.0, 0.0,
                                              d, 2),
                 lambda: spectral.mgf("radial-interior", 2.0, 0.0, d, 0.5,
                                      1.0),
                 lambda: spectral.mgf("radial-exterior", 2.0, 0.0, d, 1.5,
                                      1.0),
                 lambda: dataclasses.replace(
                     _basis(Geometry.RADIAL_INTERIOR), d=d),
                 # "d" is read as written: int() used to turn 1.5 into 1
                 lambda: spectral.basis_from_json(_with_d(d))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == want


def test_checks_accept_the_closed_ends_and_return_floats():
    for geometry, (lo, hi) in {
            Geometry.INTERVAL: (-1, 1), Geometry.RADIAL_INTERIOR: (0, 1),
            Geometry.RADIAL_EXTERIOR: (1, 1.7976931348623157e308)}.items():
        for z0 in (lo, hi):
            got = _check_start(geometry, z0)
            assert type(got) is float and got == z0
    assert type(_check_kappa(0)) is float and _check_kappa(0) == 0.0
    assert type(_check_varphi(-2)) is float
    assert _check_dimension(4) == 4


def test_spectral_takes_kappa_and_varphi_as_float_does():
    # an int kappa or pull gives the basis of its float, as in mean_exit
    a = spectral.build_basis("interval", 2, 1, 1, 3)
    b = spectral.build_basis("interval", 2.0, 1.0, 1, 3)
    assert spectral.basis_to_json(a) == spectral.basis_to_json(b)
    assert type(a.kappa) is float and type(a.varphi) is float
    assert (spectral.mgf("interval", 2, 1, 1, 0, 3)
            == spectral.mgf("interval", 2.0, 1.0, 1, 0.0, 3.0))
