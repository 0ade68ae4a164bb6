"""Collapse-solvency calculus.

Two small pieces of arithmetic:

* momentum from kinetic energy, p = sqrt(2*m*E)
* the per-track solvency index n = r*p/hbar

Its floor, the number of whole action quanta (never rounded: there are
no partial renderings), is taken in the reports' ``n_quanta`` column.
The threshold rules that use the index live where they run: the
inclusive action floor in ``montecarlo.censor_at_floor`` and
``tracks.solvency_report`` (``floor_satisfied``), and the strict
collapse test (cost > budget) in ``montecarlo.run_accrual``.

All operations are pure functions and safe for unrestricted concurrent
use.
"""

from __future__ import annotations

import math

import numpy as np

from ._value import set_fields, value_class
from .constants import PHYSICAL
from .errors import DomainError, require_nonnegative, require_positive


@value_class
class ParticleSpec:
    """Particle mass (kg) and kinetic energy (J), held as floats."""

    mass: float
    kinetic_energy: float

    def __post_init__(self) -> None:
        set_fields(
            self,
            mass=require_positive("mass", self.mass),
            kinetic_energy=require_nonnegative("kinetic_energy", self.kinetic_energy),
        )


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


def action_index(radius: float, momentum: float) -> float:
    """Solvency index for one track: n = radius * momentum / hbar."""
    require_nonnegative("radius", radius)
    require_nonnegative("momentum", momentum)
    n_real = radius * momentum / PHYSICAL["hbar"]
    if not math.isfinite(n_real):
        raise DomainError(
            f"solvency index r*p/hbar is not finite for radius {radius!r} m"
            f" at momentum {momentum!r}"
        )
    return n_real


def n_real_values(radii, momentum: float):
    """Continuous indices r*p/hbar of many radii (a numpy array) at once.

    Element i equals ``action_index(radii[i], momentum)`` bit for bit;
    the radii are taken as already validated, as every ``TrackDataset``'s
    are finite and > 0.  An index past the float range is inf, without a
    warning: callers check finiteness.
    """
    require_nonnegative("momentum", momentum)
    with np.errstate(over="ignore"):
        n = radii * momentum
        n /= PHYSICAL["hbar"]  # in place: the same two roundings
    return n
