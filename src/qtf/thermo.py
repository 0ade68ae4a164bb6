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
figure, in ``constants.PAPER_TARGET``, is only an audit target; the
auditor flags any relative gap above 10%.  The defaults of
``ThermoQuery`` are the stated inputs, ``constants.PAPER_INPUT``.  Known
outcomes on them: the decoherence rate and the per-frame speed-limit
energy are both irreproducible from their own formulas and get flagged,
the others agree to within a few percent.
"""

from __future__ import annotations

import math
from dataclasses import fields

from ._value import set_fields, value_class
from .constants import PAPER_INPUT, PAPER_TARGET, PHYSICAL
from .errors import DomainError, require_nonnegative, require_positive

# Relative gap above which the auditor flags a quantity.
FLAG_THRESHOLD = 0.10


@value_class
class ThermoQuery:
    """Inputs to the budget; defaults are the stated reference inputs.
    Each input is a real number, held as a float."""

    temperature: float = PAPER_INPUT["temperature"]  # K
    bits: float = PAPER_INPUT["bits"]
    n_modes: float = PAPER_INPUT["n_modes"]
    sustain_time: float = PAPER_INPUT["sustain_time"]  # s
    frame_rate: float = PAPER_INPUT["frame_rate"]  # Hz
    energy_per_mode_per_frame: float = PAPER_INPUT["energy_per_mode_per_frame"]  # J

    def __post_init__(self) -> None:
        set_fields(
            self,
            temperature=require_positive("temperature", self.temperature),
            bits=require_nonnegative("bits", self.bits),
            n_modes=require_nonnegative("n_modes", self.n_modes),
            sustain_time=require_positive("sustain_time", self.sustain_time),
            frame_rate=require_positive("frame_rate", self.frame_rate),
            energy_per_mode_per_frame=require_nonnegative(
                "energy_per_mode_per_frame", self.energy_per_mode_per_frame),
        )
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
    h, hbar, k_b = PHYSICAL["h"], PHYSICAL["hbar"], PHYSICAL["k_b"]
    temperature = query.temperature
    erase_per_bit = k_b * temperature * math.log(2.0)
    ml_min_energy = h / (4.0 * (1.0 / query.frame_rate))
    budget = EnergyBudget(
        erase_per_bit=erase_per_bit,
        erase_total=query.bits * erase_per_bit,
        decoherence_rate=k_b * temperature / hbar,
        min_sustain=hbar / query.sustain_time,
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
    """One record per budget field with a stated target, in the order of
    ``constants.PAPER_TARGET``.

    Only meaningful when the budget was computed from the stated default
    inputs.
    """
    computed = vars(budget)
    records = []
    for quantity, stated in PAPER_TARGET.items():
        if quantity in computed:
            value = computed[quantity]
            gap = abs(value - stated) / abs(stated)
            records.append(DiscrepancyRecord(quantity, value, stated, gap, gap > FLAG_THRESHOLD))
    return records
