"""Collapse-solvency calculus.

Two small pieces of arithmetic:

* momentum from kinetic energy, p = sqrt(2*m*E)
* the per-track solvency index n = r*p/hbar, quantized to whole action
  units (floor, never rounding: there are no partial renderings)

The threshold rules that use the index live where they run: the
inclusive action floor in ``montecarlo.censor_at_floor`` and
``tracks.solvency_report`` (``floor_satisfied``), and the strict
collapse test (cost > budget) in ``montecarlo.run_accrual``.

All operations are pure functions and safe for unrestricted concurrent
use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import get_consts
from .errors import DomainError

_CONSTS = get_consts()


@dataclass(frozen=True)
class ParticleSpec:
    """Particle mass (kg) and kinetic energy (J)."""

    mass: float
    kinetic_energy: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise DomainError(f"mass must be finite and > 0, got {self.mass}")
        if not (math.isfinite(self.kinetic_energy) and self.kinetic_energy >= 0):
            raise DomainError(
                f"kinetic_energy must be finite and >= 0, got {self.kinetic_energy}"
            )


@dataclass(frozen=True)
class ActionIndex:
    """Accumulated action expressed in whole quanta of h.

    ``n_real`` is the continuous index r*p/hbar; ``n_quanta`` is its
    floor; ``action`` is exactly ``n_quanta * h``.
    """

    n_real: float
    n_quanta: int
    action: float


def momentum_from_energy(particle: ParticleSpec) -> float:
    """Momentum p = sqrt(2*m*E) in kg*m/s; zero energy gives zero."""
    return math.sqrt(2.0 * particle.mass * particle.kinetic_energy)


def action_index(radius: float, momentum: float) -> ActionIndex:
    """Solvency index for one track: n = radius * momentum / hbar."""
    if not (math.isfinite(radius) and radius >= 0):
        raise DomainError(f"radius must be finite and >= 0, got {radius}")
    if not (math.isfinite(momentum) and momentum >= 0):
        raise DomainError(f"momentum must be finite and >= 0, got {momentum}")
    n_real = radius * momentum / _CONSTS.hbar
    if not math.isfinite(n_real):
        raise DomainError(
            f"solvency index r*p/hbar is not finite for radius {radius!r} m"
            f" at momentum {momentum!r}"
        )
    n_quanta = math.floor(n_real)
    return ActionIndex(n_real=n_real, n_quanta=n_quanta, action=n_quanta * _CONSTS.h)


def n_real_values(radii, momentum: float):
    """Continuous indices r*p/hbar of many radii (a numpy array) at once.

    Element i equals ``action_index(radii[i], momentum).n_real`` bit for
    bit; the radii are taken as already validated.  An index past the
    float range is inf, without a warning: callers check finiteness.
    """
    if not (math.isfinite(momentum) and momentum >= 0):
        raise DomainError(f"momentum must be finite and >= 0, got {momentum}")
    with np.errstate(over="ignore"):
        n = radii * momentum
        n /= _CONSTS.hbar  # in place: the same two roundings
    return n
