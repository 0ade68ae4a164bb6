"""Every finite-bound input check names its rule in full.

One row per checked argument: the call that checks it, the name in its
message and its bound.  Each row is tried with inf, nan and a value on
the wrong side of the bound, and the message must state the rule the
value breaks, never a rule that the value meets.
"""

import math

import numpy as np
import pytest

from qtf.constants import PhysConsts
from qtf.errors import DomainError
from qtf.montecarlo import (
    AccrualConfig,
    Lognormal,
    SimConfig,
    Uniform,
    censor_at_floor,
    lognormal_from_moments,
)
from qtf.solvency import ParticleSpec, action_index, n_real_values
from qtf.thermo import (
    ThermoQuery,
    asymmetry_ratio,
    coherence_cost,
    decoherence_rate,
    dynamic_rendering_rate,
    landauer_cost,
    min_sustain_energy,
    ml_bound,
)
from qtf.tracks import parse_dataset, solvency_report

P = 3.26e-19  # the stated alpha momentum, kg*m/s


def _accrual(**field):
    values = {"initial_budget": 1.0, "budget_rate": 0.0, "cost_rate": 1.0,
              "time_step": 0.1, "max_time": 1.0}
    return AccrualConfig(**{**values, **field})


def _dataset():
    return parse_dataset("6.67e-3", unit="m")


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
    "landauer_cost.temperature": ("temperature", ">", lambda v: landauer_cost(v, 1.0)),
    "landauer_cost.bits": ("bits", ">=", lambda v: landauer_cost(300.0, v)),
    "decoherence_rate": ("temperature", ">", decoherence_rate),
    "min_sustain_energy": ("sustain_time", ">", min_sustain_energy),
    "coherence_cost.n_modes": ("n_modes", ">=", lambda v: coherence_cost(v, 300.0)),
    "coherence_cost.temperature": (
        "temperature", ">", lambda v: coherence_cost(1.0, v)),
    "ml_bound.transition_time": ("transition_time", ">", lambda v: ml_bound(v, 1.0)),
    "ml_bound.n_transitions": ("n_transitions", ">=", lambda v: ml_bound(1.0, v)),
    "dynamic_rendering_rate.energy": (
        "energy_per_mode_per_frame", ">=",
        lambda v: dynamic_rendering_rate(v, 1.0, 1.0)),
    "dynamic_rendering_rate.n_modes": (
        "n_modes", ">=", lambda v: dynamic_rendering_rate(1.0, v, 1.0)),
    "dynamic_rendering_rate.frame_rate": (
        "frame_rate", ">=", lambda v: dynamic_rendering_rate(1.0, 1.0, v)),
    "asymmetry_ratio.w_wave": ("w_wave", ">=", lambda v: asymmetry_ratio(v, 1.0)),
    "asymmetry_ratio.w_collapsed": (
        "w_collapsed", ">", lambda v: asymmetry_ratio(1.0, v)),
    "Lognormal.sigma": ("sigma", ">=", lambda v: Lognormal(0.0, v)),
    "Uniform.lo": ("lo", ">", lambda v: Uniform(v, 2.0)),
    "lognormal_from_moments.mean": (
        "mean", ">", lambda v: lognormal_from_moments(v, 1.0)),
    "lognormal_from_moments.sd": ("sd", ">", lambda v: lognormal_from_moments(1.0, v)),
    "SimConfig.floor_n": (
        "floor_n", ">=", lambda v: SimConfig(0, 1, Uniform(1.0, 2.0), floor_n=v)),
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
    "PhysConsts": ("k_b", ">", lambda v: PhysConsts(k_b=v)),
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

