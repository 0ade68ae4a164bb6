"""Thermodynamic energy-budget calculator with a discrepancy auditor.

``compute_budget`` evaluates the closed-form bounds exactly as written,
from the inputs of one ``ThermoQuery``: temperature T, bits B, modes N,
sustain time tau, frame rate f and energy per mode per frame e.

* Landauer erasure cost          erase_per_bit = k_B * T * ln 2,
                                 erase_total = B * erase_per_bit
* thermal decoherence rate       decoherence_rate = k_B * T / hbar
* minimum sustain energy         min_sustain = hbar / tau
* macroscopic coherence cost     coherence_cost = N * k_B * T  (lower bound, ">~")
* speed-limit minimum energy     ml_min_energy = h / (4*t) at t = 1/f,
                                 per_frame = B * ml_min_energy
* dynamic rendering rate         dynamic_rate = e * N * f

Where the source publication also states a numeric magnitude for one of
these quantities, the computed value is authoritative and the stated
figure is retained only as an audit target; the auditor flags any
relative gap above 10%.  Known outcomes on the stated default inputs:
the decoherence rate and the per-frame speed-limit energy are both
irreproducible from their own formulas and get flagged, the others
agree to within a few percent.
"""

from __future__ import annotations

import math
from dataclasses import fields

from ._value import value_class
from .constants import get_consts
from .errors import DomainError, require_nonnegative, require_positive

_CONSTS = get_consts()

# Relative gap above which the auditor flags a quantity.
FLAG_THRESHOLD = 0.10

# Stated magnitudes for quantities the budget computes, used as audit
# targets.  erase_total and per_frame assume the stated 1e6-bit symbolic
# unit; decoherence_rate and erase_per_bit assume 300 K; min_sustain
# assumes tau = 1 ms; dynamic_rate is the stated worked product for
# 6e-14 J/mode/frame * 1e23 modes * 60 Hz.
STATED_MAGNITUDES: dict[str, float] = {
    "erase_per_bit": 3e-21,
    "erase_total": 3e-15,
    "decoherence_rate": 4e12,
    "min_sustain": 1e-31,
    "per_frame": 1e20,
    "dynamic_rate": 3.6e11,
}

# Read-only biological / scene reference constants.  No biology is
# modeled; these feed the budget report's reference table, which also
# gives wave_scene_j / collapsed_scene_j as asymmetry_scene_ratio.
# dynamic_rate_divergence_claim is the alternative ">> 1e25 J/s" figure
# stated alongside the computed 3.6e11; both are reported, neither is
# adjudicated here.
BIO_REFERENCE: dict[str, float] = {
    "phototransduction_j_per_photon": 1e-16,
    "signal_stabilization_j_per_dot": 1e-6,
    "collapsed_dot_j": 1e-3,
    "wave_scene_j": 1e8,
    "collapsed_scene_j": 1e4,
    "dynamic_rate_divergence_claim_w": 1e25,
}


@value_class
class ThermoQuery:
    """Inputs to the budget; defaults are the stated reference inputs."""

    temperature: float = _CONSTS.default_temperature  # K
    bits: float = 1e6                      # bits per rendered symbolic unit
    n_modes: float = 1e23                  # interacting degrees of freedom
    sustain_time: float = 1e-3             # s
    frame_rate: float = 60.0               # Hz
    energy_per_mode_per_frame: float = 6e-14  # J (opaque stated parameter)

    def __post_init__(self) -> None:
        require_positive("temperature", self.temperature)
        require_nonnegative("bits", self.bits)
        require_nonnegative("n_modes", self.n_modes)
        require_positive("sustain_time", self.sustain_time)
        require_positive("frame_rate", self.frame_rate)
        require_nonnegative("energy_per_mode_per_frame", self.energy_per_mode_per_frame)
        # compute_budget's transition time; checked here to name the input
        if not math.isfinite(1.0 / self.frame_rate):
            raise DomainError(
                f"1/frame_rate overflows: frame_rate {self.frame_rate!r}", "frame_rate"
            )


@value_class
class EnergyBudget:
    """All computed cost components for one query (SI units)."""

    erase_per_bit: float      # J
    erase_total: float        # J
    decoherence_rate: float   # Hz
    min_sustain: float        # J
    coherence_cost: float     # J
    ml_min_energy: float      # J
    per_frame: float          # J
    dynamic_rate: float       # J/s


@value_class
class DiscrepancyRecord:
    """One computed-vs-stated comparison; flagged when the gap is > 10%."""

    quantity: str
    computed: float
    stated: float
    relative_gap: float
    flagged: bool


def compute_budget(query: ThermoQuery) -> EnergyBudget:
    """Evaluate every budget component for one query.

    ``ThermoQuery`` checked every input when it was built, so no
    formula here checks one again.  The per-frame speed-limit energy
    uses ``bits`` as the transition count, matching the stated
    per-symbolic-unit usage.  A component that leaves the float range
    is a ``DomainError`` naming it.
    """
    k_b, temperature = _CONSTS.k_b, query.temperature
    erase_per_bit = k_b * temperature * math.log(2.0)
    ml_min_energy = _CONSTS.h / (4.0 * (1.0 / query.frame_rate))
    budget = EnergyBudget(
        erase_per_bit=erase_per_bit,
        erase_total=query.bits * erase_per_bit,
        decoherence_rate=k_b * temperature / _CONSTS.hbar,
        min_sustain=_CONSTS.hbar / query.sustain_time,
        coherence_cost=query.n_modes * k_b * temperature,
        ml_min_energy=ml_min_energy,
        per_frame=query.bits * ml_min_energy,
        dynamic_rate=query.energy_per_mode_per_frame * query.n_modes * query.frame_rate,
    )
    for field in fields(budget):
        value = getattr(budget, field.name)
        if not math.isfinite(value):
            raise DomainError(
                f"budget component {field.name} is not finite ({value!r});"
                " the inputs leave the float range"
            )
    return budget


def audit_against_paper(budget: EnergyBudget) -> list[DiscrepancyRecord]:
    """Compare computed budget fields against ``STATED_MAGNITUDES``.

    Only meaningful when the budget was computed from the stated default
    inputs; one record per quantity with a stated magnitude, in a fixed
    order.
    """
    records = []
    for quantity, target in STATED_MAGNITUDES.items():
        computed = getattr(budget, quantity)
        gap = abs(computed - target) / abs(target)
        records.append(
            DiscrepancyRecord(
                quantity=quantity,
                computed=computed,
                stated=target,
                relative_gap=gap,
                flagged=gap > FLAG_THRESHOLD,
            )
        )
    return records
