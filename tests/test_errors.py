"""Every input check names its rule in full, and every number passes
through the one rule of ``qtf.errors.require_real``.

One row per checked argument: the call that checks it, the name in its
message and its bound.  Each row is tried with inf, nan and a value on
the wrong side of the bound, and the message must state the rule the
value breaks, never a rule that the value meets.

A real number is a ``numbers.Real`` that is not a bool, in the float
range.  Every public constructor refuses anything else with a
``DomainError`` (a ``DataError`` for a track column) naming the
parameter, and the command line refuses it in every number flag and
config key with one error line.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtf.cli
from qtf.errors import (
    DomainError,
    QtfError,
    require_nonnegative,
    require_positive,
    require_real,
)
from qtf.montecarlo import (
    AccrualConfig,
    Lognormal,
    SimConfig,
    Uniform,
    censor_at_floor,
    lognormal_from_moments,
)
from qtf.solvency import ParticleSpec, action_index, momentum_from_energy, n_real_values
from qtf.thermo import ThermoQuery
from qtf.tracks import TrackDataset, fixture_path, parse_dataset, solvency_report

P = 3.26e-19  # the stated alpha momentum, kg*m/s


def _accrual(**field):
    values = {"initial_budget": 1.0, "budget_rate": 0.0, "cost_rate": 1.0,
              "time_step": 0.1, "max_time": 1.0}
    return AccrualConfig(**{**values, **field})


def _dataset():
    return parse_dataset("6.67e-3", unit="m")


def _simulate(floor_n):
    """A population config's ``floor_n``, which the CLI checks itself
    before any track is drawn."""
    config = {"mode": "censor", "n_tracks": 1, "floor_n": floor_n,
              "distribution": {"kind": "uniform", "lo_m": 1.0, "hi_m": 2.0}}
    return qtf.cli._simulate_tracks(config, 0, "text")


# (name in the message, ">=" or ">", the call given the checked value)
SITES = {
    "ThermoQuery.temperature": ("temperature", ">", lambda v: ThermoQuery(temperature=v)),
    "ThermoQuery.bits": ("bits", ">=", lambda v: ThermoQuery(bits=v)),
    "ThermoQuery.n_modes": ("n_modes", ">=", lambda v: ThermoQuery(n_modes=v)),
    "ThermoQuery.sustain_time": (
        "sustain_time", ">", lambda v: ThermoQuery(sustain_time=v)),
    "ThermoQuery.frame_rate": ("frame_rate", ">", lambda v: ThermoQuery(frame_rate=v)),
    "ThermoQuery.energy_per_mode_per_frame": (
        "energy_per_mode_per_frame", ">=",
        lambda v: ThermoQuery(energy_per_mode_per_frame=v)),
    "Lognormal.sigma": ("sigma", ">=", lambda v: Lognormal(0.0, v)),
    "Uniform.lo": ("lo", ">", lambda v: Uniform(v, 2.0)),
    "lognormal_from_moments.mean": (
        "mean", ">", lambda v: lognormal_from_moments(v, 1.0)),
    "lognormal_from_moments.sd": ("sd", ">", lambda v: lognormal_from_moments(1.0, v)),
    "simulate.floor_n": ("floor_n", ">=", _simulate),
    "AccrualConfig.initial_budget": (
        "initial_budget", ">=", lambda v: _accrual(initial_budget=v)),
    "AccrualConfig.budget_rate": ("budget_rate", ">=", lambda v: _accrual(budget_rate=v)),
    "AccrualConfig.cost_rate": ("cost_rate", ">=", lambda v: _accrual(cost_rate=v)),
    "AccrualConfig.time_step": ("time_step", ">", lambda v: _accrual(time_step=v)),
    "censor_at_floor.momentum": (
        "momentum", ">", lambda v: censor_at_floor(_dataset(), 1.0, v)),
    "censor_at_floor.floor_n": (
        "floor_n", ">=", lambda v: censor_at_floor(_dataset(), v, P)),
    "ParticleSpec.mass": ("mass", ">", lambda v: ParticleSpec(v, 1.0)),
    "ParticleSpec.kinetic_energy": (
        "kinetic_energy", ">=", lambda v: ParticleSpec(1.0, v)),
    "action_index.radius": ("radius", ">=", lambda v: action_index(v, P)),
    "action_index.momentum": ("momentum", ">=", lambda v: action_index(1.0, v)),
    "n_real_values": ("momentum", ">=", lambda v: n_real_values(np.ones(1), v)),
    "solvency_report.floor_n": (
        "floor_n", ">=", lambda v: solvency_report(_dataset(), floor_n=v)),
}

CASES = [
    pytest.param(site, value, id=f"{site}-{value}")
    for site, (_, op, _) in SITES.items()
    for value in (math.inf, math.nan, -1.0 if op == ">=" else 0.0)
]


@pytest.mark.parametrize("site, value", CASES)
def test_message_states_the_whole_rule(site, value):
    name, op, call = SITES[site]
    with pytest.raises(DomainError) as excinfo:
        call(value)
    assert str(excinfo.value) == f"{name} must be finite and {op} 0, got {value}"



@pytest.mark.parametrize("site, value", CASES)
def test_error_carries_the_name_it_states(site, value):
    name, _, call = SITES[site]
    with pytest.raises(DomainError) as excinfo:
        call(value)
    assert excinfo.value.name == name


# Values derived from inputs are checked where they are derived and name
# the inputs: (the call, its message, the name the error carries)
DERIVED = {
    "ThermoQuery.frame_rate-reciprocal-overflows": (
        lambda: ThermoQuery(frame_rate=1e-320),
        "1/frame_rate overflows: frame_rate 1e-320", "frame_rate"),
    "lognormal_from_moments.mean-underflows": (
        lambda: lognormal_from_moments(5e-324, 5.05e-3),
        "sd/mean overflows: sd 0.00505, mean 5e-324", "sd"),
    "lognormal_from_moments.sd-overflows": (
        lambda: lognormal_from_moments(7.42e-3, 1e308),
        "sd/mean overflows: sd 1e+308, mean 0.00742", "sd"),
    "momentum_from_energy": (
        lambda: momentum_from_energy(ParticleSpec(1e308, 8.01e-13)),
        "mass 1e+308 and kinetic_energy 8.01e-13 give a momentum past the float range",
        "mass"),
}


@pytest.mark.parametrize("site", DERIVED)
def test_derived_value_names_its_inputs(site):
    call, message, name = DERIVED[site]
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message
    assert excinfo.value.name == name


def test_underflowing_energy_gives_zero_momentum():
    # not an error here: only censoring needs momentum > 0
    assert momentum_from_energy(ParticleSpec(5e-324, 1e-300)) == 0.0


# (the call, its message, the name the error carries) for each kind of
# value that is not a real number in the float range
NOT_REAL = {
    "ParticleSpec-bool": (lambda: ParticleSpec(True, 1.0), "mass must be a number, got True",
                          "mass"),
    "ParticleSpec-str": (lambda: ParticleSpec("1", 1.0), "mass must be a number, got '1'",
                         "mass"),
    "ThermoQuery-str": (lambda: ThermoQuery(temperature="300"),
                        "temperature must be a number, got '300'", "temperature"),
    "ThermoQuery-bool": (lambda: ThermoQuery(temperature=True),
                         "temperature must be a number, got True", "temperature"),
    "ThermoQuery-huge-int": (lambda: ThermoQuery(bits=10**400),
                             f"bits is out of the float range, got {10**400}", "bits"),
    "Lognormal-bool": (lambda: Lognormal(True, 1.0), "mu must be a number, got True", "mu"),
    "Uniform-huge-int": (lambda: Uniform(1, 10**400),
                         f"hi is out of the float range, got {10**400}", "hi"),
    "Uniform-bool": (lambda: Uniform(True, 2.0), "lo must be a number, got True", "lo"),
    "AccrualConfig-bool": (lambda: AccrualConfig(1, 1, 1, True, 2),
                           "time_step must be a number, got True", "time_step"),
    "lognormal_from_moments-None": (lambda: lognormal_from_moments(None, 1.0),
                                    "mean must be a number, got None", "mean"),
    "require_real-numpy-bool": (lambda: require_real("x", np.bool_(False)),
                                f"x must be a number, got {np.bool_(False)!r}", "x"),
    "require_real-complex": (lambda: require_real("x", 1j), "x must be a number, got 1j", "x"),
}


@pytest.mark.parametrize("site", NOT_REAL)
def test_a_value_that_is_not_a_real_number_is_named(site):
    call, message, name = NOT_REAL[site]
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message
    assert excinfo.value.name == name


def test_a_real_number_is_held_as_a_float():
    for value in (3, np.int64(3), np.float32(3.0), 3.0):
        assert type(require_real("x", value)) is float
        assert require_real("x", value) == 3.0
    particle = ParticleSpec(np.int64(2), np.float32(0.5))
    assert type(particle.mass) is type(particle.kinetic_energy) is float
    assert ThermoQuery(bits=10**6) == ThermoQuery()


# Every kind of value a caller might pass for a number: the ones that
# are not real numbers, ints past the float range, numpy scalars and
# the non-finite floats.
VALUES = st.one_of(
    st.sampled_from([True, False, np.bool_(True), np.bool_(False), "1", "300", "", None,
                     1j, complex(2.0, 0.0), b"2", 10**400, -(10**400), math.nan,
                     math.inf, -math.inf]),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),
    st.integers(),
)


def _tracks(ids, radii):
    return TrackDataset(ids, radii, "", len(ids), 0)


# each public call that takes numbers, and how many it takes
GUARDED = {
    "ParticleSpec": (ParticleSpec, 2),
    "ThermoQuery": (ThermoQuery, 6),
    "Lognormal": (Lognormal, 2),
    "Uniform": (Uniform, 2),
    "lognormal_from_moments": (lognormal_from_moments, 2),
    "AccrualConfig": (AccrualConfig, 5),
    "SimConfig": (lambda seed, n: SimConfig(seed, n, Uniform(1.0, 2.0)), 2),
    "SimConfig.distribution": (lambda value: SimConfig(1, 1, value), 1),
    "TrackDataset": (lambda i, r: _tracks([i], [r]), 2),
    "TrackDataset-arrays": (lambda i, r: _tracks(np.array([i]), np.array([r])), 2),
    "require_real": (lambda value: require_real("x", value), 1),
    "require_nonnegative": (lambda value: require_nonnegative("x", value), 1),
    "require_positive": (lambda value: require_positive("x", value), 1),
}


@pytest.mark.parametrize("site", GUARDED)
@settings(deadline=None)
@given(data=st.data())
def test_a_call_returns_or_raises_a_qtf_error(site, data):
    # pyproject.toml turns a RuntimeWarning, such as a numpy overflow, into
    # an error, so a warning fails this test as any other exception does
    call, arity = GUARDED[site]
    values = data.draw(st.tuples(*[VALUES] * arity))
    try:
        call(*values)
    except QtfError:
        pass


FIXTURE = str(fixture_path())
# the values no number flag or config key takes, as argv text and as JSON
WRONG = {"true": True, "string": "1", "null": None, "huge": 10**400}
NUMBER_FLAGS = [
    (["budget"], "--temperature"),
    (["budget"], "--bits"),
    (["budget"], "--modes"),
    (["budget"], "--tau"),
    (["budget"], "--fps"),
    (["analyze", FIXTURE], "--floor"),
]
CENSOR = {"mode": "censor", "seed": 1, "n_tracks": 10, "floor_n": 1e12,
          "particle": {"mass_kg": 6.644e-27, "kinetic_energy_j": 8.01e-13},
          "distribution": {"kind": "uniform", "lo_m": 1e-3, "hi_m": 2e-2}}
ACCRUAL = {"mode": "accrual", "initial_budget_j": 10.0, "budget_rate_w": 1.0,
           "cost_rate_w": 2.0, "time_step_s": 0.01, "max_time_s": 20.0}
SWEEP = {**ACCRUAL, "mode": "sweep", "budget_rates_w": [0.5]}
del SWEEP["budget_rate_w"]
# each number key as the error names it, and the config that holds it
NUMBER_KEYS = {
    "floor_n": CENSOR,
    "particle.mass_kg": CENSOR,
    "particle.kinetic_energy_j": CENSOR,
    "distribution.lo_m": CENSOR,
    "distribution.hi_m": CENSOR,
    "distribution.mu": {**CENSOR, "distribution": {"kind": "lognormal", "mu": -5.0,
                                                   "sigma": 0.5}},
    "distribution.sigma": {**CENSOR, "distribution": {"kind": "lognormal", "mu": -5.0,
                                                      "sigma": 0.5}},
    "distribution.mean_m": {**CENSOR, "distribution": {"kind": "lognormal",
                                                       "mean_m": 7.42e-3, "sd_m": 5.05e-3}},
    "distribution.sd_m": {**CENSOR, "distribution": {"kind": "lognormal",
                                                     "mean_m": 7.42e-3, "sd_m": 5.05e-3}},
    **{key: ACCRUAL for key in ACCRUAL if key != "mode"},
    "budget_rates_w[0]": SWEEP,
}


def _with(config: dict, key: str, value) -> dict:
    """``config`` with ``key``, as an error names it, set to ``value``."""
    config = json.loads(json.dumps(config))
    if key.endswith("]"):
        name, index = key[:-1].split("[")
        config[name][int(index)] = value
    elif "." in key:
        outer, inner = key.split(".")
        config[outer][inner] = value
    else:
        config[key] = value
    return config


def _fails_naming(capsys, argv: list[str], name: str) -> None:
    assert qtf.cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qtf: error: ") and captured.err.count("\n") == 1
    assert name in captured.err


@pytest.mark.parametrize("wrong", WRONG)
@pytest.mark.parametrize("command, flag", NUMBER_FLAGS, ids=[f for _, f in NUMBER_FLAGS])
def test_a_number_flag_refuses_a_value_that_is_not_a_number(capsys, command, flag, wrong):
    _fails_naming(capsys, [*command, flag, json.dumps(WRONG[wrong])], flag)


@pytest.mark.parametrize("wrong", WRONG)
@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_a_number_key_refuses_a_value_that_is_not_a_number(capsys, tmp_path, key, wrong):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_with(NUMBER_KEYS[key], key, WRONG[wrong])), encoding="utf-8")
    _fails_naming(capsys, ["simulate", str(path)], key)
