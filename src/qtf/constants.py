"""Physical constants and the source paper's figures, as read-only tables
(``types.MappingProxyType``), so no caller can change a figure that a
later call reads.  Every formula in the package reads its constants here.

* ``PHYSICAL`` holds full-precision SI values.  ``h`` and ``k_b`` are
  exact by definition under the 2019 SI redefinition; ``hbar`` is
  derived as ``h / (2*pi)``.
* The paper's figures are transcribed verbatim, each once under its own
  name, in one table per role:

  - ``PAPER_INPUT``: defaults that a caller may override, namely the
    budget inputs, the alpha particle, the stated momentum and the
    action floor.
  - ``PAPER_TARGET``: stated magnitudes that computed values are
    compared with and never computed from.  Only
    ``thermo.audit_against_paper`` and ``constants_snapshot`` read them,
    which a test checks.
  - ``PAPER_REFERENCE``: figures that the budget report shows and
    nothing compares.

``qtf constants`` prints every figure, under ``physical`` and
``paper.<role>``, so the transcription itself is auditable.
"""

from __future__ import annotations

import math
from types import MappingProxyType

PHYSICAL = MappingProxyType({
    "h": 6.62607015e-34,                    # Planck constant, J*s (exact)
    "hbar": 6.62607015e-34 / (2 * math.pi),  # reduced Planck constant, J*s
    "k_b": 1.380649e-23,                    # Boltzmann constant, J/K (exact)
})

# The stated momentum does not follow from the stated mass and kinetic
# energy: sqrt(2*m*E) gives ~1.03e-19, a factor ~sqrt(10) lower.  Both
# momentum routes are kept; nothing here guesses which was intended.
PAPER_INPUT = MappingProxyType({
    "temperature": 300.0,                   # ambient reference, K
    "bits": 1e6,                            # bits per rendered symbolic unit
    "n_modes": 1e23,                        # interacting degrees of freedom
    "sustain_time": 1e-3,                   # s
    "frame_rate": 60.0,                     # Hz
    "energy_per_mode_per_frame": 6e-14,     # J (opaque stated parameter)
    "alpha_mass": 6.644e-27,                # kg
    "alpha_energy": 8.01e-13,               # 5 MeV in J
    "momentum": 3.26e-19,                   # stated sqrt(2*m*E), kg*m/s
    "floor_n": 1e12,                        # empirical action floor
})

# The budget targets come first, in the audit's order.  erase_total and
# per_frame assume the stated 1e6-bit symbolic unit; decoherence_rate
# and erase_per_bit assume 300 K; min_sustain assumes tau = 1 ms;
# dynamic_rate is the stated worked product of the default inputs.
PAPER_TARGET = MappingProxyType({
    "erase_per_bit": 3e-21,                 # J
    "erase_total": 3e-15,                   # J
    "decoherence_rate": 4e12,               # Hz
    "min_sustain": 1e-31,                   # J
    "per_frame": 1e20,                      # J
    "dynamic_rate": 3.6e11,                 # J/s
    "hbar": 1.055e-34,                      # rounded reduced Planck constant, J*s
    "median_radius": 6.67e-3,               # m
    "mean_radius": 7.42e-3,                 # m
    "radius_sigma": 5.05e-3,                # m
    "n_median": 2.06e13,                    # solvency index at the median radius
    "n_mean": 2.29e13,                      # solvency index at the filtered mean
})

# Biological and scene figures; no biology is modeled.  The budget report
# also gives wave_scene_j / collapsed_scene_j as asymmetry_scene_ratio.
# dynamic_rate_divergence_claim_w is the alternative ">> 1e25 J/s" stated
# next to the computed 3.6e11; both are reported, neither is adjudicated.
PAPER_REFERENCE = MappingProxyType({
    "phototransduction_j_per_photon": 1e-16,
    "signal_stabilization_j_per_dot": 1e-6,
    "collapsed_dot_j": 1e-3,
    "wave_scene_j": 1e8,
    "collapsed_scene_j": 1e4,
    "dynamic_rate_divergence_claim_w": 1e25,
})


def constants_snapshot() -> dict:
    """Every table as a plain dict: ``physical``, and ``paper`` by role."""
    paper = {"input": PAPER_INPUT, "target": PAPER_TARGET, "reference": PAPER_REFERENCE}
    return {"physical": dict(PHYSICAL), "paper": {r: dict(t) for r, t in paper.items()}}


def sci(x: float) -> str:
    """Compact scientific notation to three significant digits: 2.0619e13 -> '2.06e13'."""
    mant, exp = f"{x:.2e}".split("e")
    return f"{mant}e{int(exp)}"
