"""Collapse-solvency calculus.

Three small pieces of arithmetic:

* momentum from kinetic energy, p = sqrt(2*m*E)
* the per-track solvency index n = r*p/hbar, quantized to whole action
  units (floor, never rounding: there are no partial renderings)
* the budget ratio test, collapsed iff W_cumulative / W_available > 1
  (strict inequality; a boundary-exactly-solvent interface holds)

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


@dataclass(frozen=True)
class SolvencyResult:
    """Outcome of the budget ratio test."""

    w_cumulative: float
    w_available: float
    ratio: float
    collapsed: bool


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
        return radii * momentum / _CONSTS.hbar


def collapse_test(
    w_cumulative: float, w_available: float, *, inclusive: bool = False
) -> SolvencyResult:
    """Budget ratio test: collapsed iff the ratio strictly exceeds 1.

    ``inclusive=True`` flips the boundary to >= for sensitivity analysis.
    An interface with no budget at all (w_available <= 0) is malformed
    input, not a collapse.
    """
    if not (math.isfinite(w_cumulative) and w_cumulative >= 0):
        raise DomainError(f"w_cumulative must be finite and >= 0, got {w_cumulative}")
    if not (math.isfinite(w_available) and w_available > 0):
        raise DomainError(f"w_available must be finite and > 0, got {w_available}")
    ratio = w_cumulative / w_available
    collapsed = ratio >= 1.0 if inclusive else ratio > 1.0
    return SolvencyResult(
        w_cumulative=w_cumulative,
        w_available=w_available,
        ratio=ratio,
        collapsed=collapsed,
    )


def renderable(index: ActionIndex, floor_n: float, *, strict: bool = False) -> bool:
    """Whether a track clears the empirical action floor.

    The floor comparison is inclusive (n_real >= floor_n) so that an
    observed minimum sitting exactly on the floor qualifies;
    ``strict=True`` flips it for sensitivity analysis.
    """
    if not (math.isfinite(floor_n) and floor_n >= 0):
        raise DomainError(f"floor_n must be finite and >= 0, got {floor_n}")
    if strict:
        return index.n_real > floor_n
    return index.n_real >= floor_n
