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
from .errors import DomainError, require_nonnegative, require_positive

_CONSTS = get_consts()


@dataclass(frozen=True)
class ParticleSpec:
    """Particle mass (kg) and kinetic energy (J)."""

    mass: float
    kinetic_energy: float

    def __post_init__(self) -> None:
        require_positive("mass", self.mass)
        require_nonnegative("kinetic_energy", self.kinetic_energy)


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
    """Momentum p = sqrt(2*m*E) in kg*m/s.  Zero energy, or a product
    2*m*E that underflows, gives zero; a momentum past the float range
    is a ``DomainError`` naming the particle's mass and energy."""
    momentum = math.sqrt(2.0 * particle.mass * particle.kinetic_energy)
    if momentum == math.inf:
        raise DomainError(
            f"mass {particle.mass!r} and kinetic_energy {particle.kinetic_energy!r}"
            " give a momentum past the float range",
            "mass",
        )
    return momentum


def action_index(radius: float, momentum: float) -> ActionIndex:
    """Solvency index for one track: n = radius * momentum / hbar."""
    require_nonnegative("radius", radius)
    require_nonnegative("momentum", momentum)
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
    require_nonnegative("momentum", momentum)
    with np.errstate(over="ignore"):
        n = radii * momentum
        n /= _CONSTS.hbar  # in place: the same two roundings
    return n
