"""Physical constants and published reference magnitudes.

Every formula in the package reads its constants from here, so that
cross-checks between computed and stated values are meaningful.  Two
tiers are kept deliberately separate:

* :class:`PhysConsts` holds full-precision SI values.  ``h`` and ``k_b``
  are exact by definition under the 2019 SI redefinition; ``hbar`` is
  derived as ``h / (2*pi)``.
* :class:`PaperValues` holds the rounded magnitudes stated in the source
  publication, transcribed verbatim.  They are comparison targets for
  golden tests and the discrepancy audit, never inputs to derivations
  unless a caller explicitly selects them (e.g. the ``paper`` momentum
  route).

Both are exported in a machine-readable snapshot, printed by
``qtf constants --format json``, so the transcription itself is
auditable.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from ._value import value_class
from .errors import require_positive


@value_class
class PhysConsts:
    """Full-precision physical constants (SI units)."""

    h: float = 6.62607015e-34            # Planck constant, J*s (exact)
    hbar: float = 6.62607015e-34 / (2 * math.pi)  # reduced Planck, J*s
    k_b: float = 1.380649e-23            # Boltzmann constant, J/K (exact)
    default_temperature: float = 300.0   # ambient reference, K

    def __post_init__(self) -> None:
        for name in ("h", "hbar", "k_b", "default_temperature"):
            require_positive(name, getattr(self, name))


@value_class
class PaperValues:
    """Stated reference values, transcribed verbatim (SI units).

    ``momentum`` is the stated alpha-particle momentum, which does not
    follow from the stated mass and kinetic energy (first-principles
    sqrt(2*m*E) gives ~1.03e-19, a factor ~sqrt(10) lower).  Both routes
    are kept available; nothing here guesses which was intended.
    """

    hbar: float = 1.055e-34              # rounded reduced Planck, J*s
    alpha_mass: float = 6.644e-27        # kg
    alpha_energy: float = 8.01e-13       # 5 MeV in J
    momentum: float = 3.26e-19           # stated sqrt(2*m*E), kg*m/s
    median_radius: float = 6.67e-3       # m
    mean_radius: float = 7.42e-3         # m
    radius_sigma: float = 5.05e-3        # m
    n_median: float = 2.06e13            # solvency index at median radius
    n_mean: float = 2.29e13              # solvency index at filtered mean
    floor_n: float = 1e12                # empirical action floor


_CONSTS = PhysConsts()
_PAPER = PaperValues()


def get_consts() -> PhysConsts:
    """Return the canonical full-precision constant set."""
    return _CONSTS


def get_paper_values() -> PaperValues:
    """Return the stated reference values."""
    return _PAPER


def constants_snapshot() -> dict:
    """Machine-readable dump of both constant tiers."""
    return {"physical": asdict(_CONSTS), "paper": asdict(_PAPER)}


def sci(x: float) -> str:
    """Compact scientific notation to three significant digits: 2.0619e13 -> '2.06e13'."""
    mant, exp = f"{x:.2e}".split("e")
    return f"{mant}e{int(exp)}"
