"""Tests for problem containers, unit handling, and Boltzmann weights.

The optical-tweezer benchmark (1 um bead in water, k = 1e-6 N/m,
T = 300 K) pins the SI plumbing: drag, diffusion coefficient, trap
relaxation time, and thermal trap length are checked against their
published rounded values at 1%.  Everything else is either exact
(weights at special points) or a structural property (mirror symmetry,
config validation).
"""

import json
import math

import pytest

from ouexit.ou_model import (
    BOLTZMANN_K,
    ConfigError,
    OUProblem,
    boltzmann_weight,
    boltzmann_weight_scaled,
    canonical_orientation,
    load_config,
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


def test_weight_is_one_at_origin():
    p = tracer_problem(F0=1e-13)
    assert boltzmann_weight(p, 0.0) == 1.0


def test_weight_at_trap_length_without_pull():
    p = tracer_problem()
    for sign in (+1.0, -1.0):
        w = boltzmann_weight(p, sign * p.ell_k)
        assert abs(w - math.exp(-1.0)) / math.exp(-1.0) < 1e-12


def test_scaled_weight_matches_direct_formula():
    # kappa=2, varphi=0.3, z=0.5: exponent -kappa z^2 + 2 kappa varphi z
    expected = math.exp(-2.0 * 0.25 + 2.0 * 2.0 * 0.3 * 0.5)
    assert abs(boltzmann_weight_scaled(2.0, 0.3, 0.5) - expected) < 1e-15
    # and agrees with the physical weight of the equivalent unit problem
    p = OUProblem.from_dimensionless(kappa=2.0, varphi=0.3)
    assert abs(boltzmann_weight(p, 0.5) - expected) / expected < 1e-12


def _write(tmp_path, payload, raw=None):
    path = tmp_path / "config.json"
    path.write_text(raw if raw is not None else json.dumps(payload, indent=2))
    return str(path)


def test_config_physical_round_trip(tmp_path):
    path = _write(tmp_path, {
        "mode": "physical", "k": 1e-6, "gamma": 1.885e-8,
        "temperature": 300.0, "F0": 0.0, "L": 9.1e-8, "d": 1, "z0": 0.0,
    })
    cfg = load_config(path)
    p = OUProblem.from_physical(k=cfg["k"], gamma=cfg["gamma"],
                                temperature=cfg["temperature"],
                                F0=cfg["F0"], L=cfg["L"], d=cfg["d"])
    assert abs(p.kappa - 1.0) < 0.01
    assert cfg["z0"] == 0.0


def test_config_dimensionless_round_trip(tmp_path):
    path = _write(tmp_path, {"mode": "dimensionless", "kappa": 2.0,
                             "varphi": 0.3, "d": 3})
    cfg = load_config(path)
    assert cfg["kappa"] == 2.0 and cfg["varphi"] == 0.3 and cfg["d"] == 3


def test_config_unknown_key_reports_line(tmp_path):
    raw = ('{\n  "mode": "dimensionless",\n  "kappa": 1.0,\n'
           '  "stiffness": 2.0\n}\n')
    path = _write(tmp_path, None, raw=raw)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":4:" in str(err.value) and "stiffness" in str(err.value)


@pytest.mark.parametrize("key", ["delta", "n_paths", "t_max", "seed"])
def test_config_rejects_keys_of_no_solver(tmp_path, key):
    raw = ('{\n  "mode": "dimensionless",\n  "kappa": 1.0,\n'
           f'  "{key}": 1\n}}\n')
    path = _write(tmp_path, None, raw=raw)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":4:" in str(err.value) and f"unknown key {key!r}" in str(err.value)


def test_config_wrong_type_reports_line(tmp_path):
    raw = '{\n  "mode": "dimensionless",\n  "kappa": "big"\n}\n'
    path = _write(tmp_path, None, raw=raw)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":3:" in str(err.value) and "kappa" in str(err.value)


def test_config_missing_and_bad_mode(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"mode": "dimensionless"}))  # no kappa
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"mode": "spherical", "kappa": 1.0}))


def test_config_syntax_error_reports_line(tmp_path):
    raw = '{\n  "mode": "dimensionless"\n  "kappa": 1.0\n}\n'
    path = _write(tmp_path, None, raw=raw)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert ":3:" in str(err.value)
