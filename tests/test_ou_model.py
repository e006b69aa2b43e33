"""Tests for the problem container and its unit handling.

The optical-tweezer benchmark (1 um bead in water, k = 1e-6 N/m,
T = 300 K) pins the SI plumbing: drag, diffusion coefficient, trap
relaxation time, and thermal trap length are checked against their
published rounded values at 1%.  Everything else is a structural
property (consistency of the derived fields, mirror symmetry, input
validation).
"""

import math

import pytest

from ouexit.ou_model import (
    BOLTZMANN_K,
    OUProblem,
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
