"""Slow reference versions of qtf's computations, for the tests.

Each oracle states its result the plain way: a formula in the order it
is written, a sort, or a merge one value at a time.  A test checks the
package against it.  pytest collects no test from this module, which
the test modules import as they import ``fixture_builder``.
"""

from __future__ import annotations

import math

import numpy as np

from qtf.constants import PHYSICAL
from qtf.errors import DomainError

# ---------------------------------------------------------------------------
# The energy budget: the six bounds, each written out on its own
# ---------------------------------------------------------------------------


def landauer(temperature: float, bits: float) -> tuple[float, float]:
    """Erasure cost k_B*T*ln 2 per bit, and for ``bits`` bits."""
    per_bit = PHYSICAL["k_b"] * temperature * math.log(2.0)
    return per_bit, bits * per_bit


def decoherence(temperature: float) -> float:
    """Thermal decoherence rate k_B*T/hbar."""
    return PHYSICAL["k_b"] * temperature / PHYSICAL["hbar"]


def min_sustain(sustain_time: float) -> float:
    """Energy hbar/tau to sustain coherence for ``sustain_time``."""
    return PHYSICAL["hbar"] / sustain_time


def coherence(n_modes: float, temperature: float) -> float:
    """Entropic lower bound N*k_B*T to hold N modes coherent."""
    return n_modes * PHYSICAL["k_b"] * temperature


def margolus_levitin(transition_time: float, n_transitions: float) -> tuple[float, float]:
    """Speed-limit energy h/(4*t), and for ``n_transitions`` transitions."""
    ml_min = PHYSICAL["h"] / (4.0 * transition_time)
    return ml_min, n_transitions * ml_min


def rendering_rate(energy_per_mode_per_frame: float, n_modes: float, frame_rate: float) -> float:
    """Continuous rendering power e*N*f."""
    return energy_per_mode_per_frame * n_modes * frame_rate


def budget_reference(query) -> dict[str, float]:
    """The fields of ``compute_budget(query)`` from the six bounds above,
    with the transition time 1/frame_rate and ``bits`` transitions per
    frame; a ``DomainError`` for the first field that is not finite."""
    erase_per_bit, erase_total = landauer(query.temperature, query.bits)
    ml_min, per_frame = margolus_levitin(1.0 / query.frame_rate, query.bits)
    budget = {
        "erase_per_bit": erase_per_bit,
        "erase_total": erase_total,
        "decoherence_rate": decoherence(query.temperature),
        "min_sustain": min_sustain(query.sustain_time),
        "coherence_cost": coherence(query.n_modes, query.temperature),
        "ml_min_energy": ml_min,
        "per_frame": per_frame,
        "dynamic_rate": rendering_rate(
            query.energy_per_mode_per_frame, query.n_modes, query.frame_rate
        ),
    }
    for name, value in budget.items():
        if not math.isfinite(value):
            raise DomainError(
                f"budget component {name} is not finite ({value!r});"
                " the inputs leave the float range"
            )
    return budget


# ---------------------------------------------------------------------------
# Sort-based reference statistics (independent of the implementation)
# ---------------------------------------------------------------------------


def oracle_stats(values):
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        median = ordered[n // 2]
    else:
        median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    mean = math.fsum(ordered) / n
    sigma = math.sqrt(math.fsum((x - mean) ** 2 for x in ordered) / n)
    low, high = mean - sigma, mean + sigma
    kept = [x for x in ordered if low <= x <= high]
    # same degenerate-limit convention as the implementation
    filtered_mean = math.fsum(kept) / len(kept) if kept else mean
    return {
        "median": median,
        "mean": mean,
        "sigma": sigma,
        "filtered_count": len(kept),
        "filtered_mean": filtered_mean,
    }


def mask_stats(radii: np.ndarray) -> dict:
    """Reference median and band of ``compute_stats``: ``np.median`` and
    a boolean mask over the sorted radii."""
    ordered = np.sort(radii)
    mean = float(ordered.mean())
    sigma = float(ordered.std())
    mask = (ordered >= mean - sigma) & (ordered <= mean + sigma)
    filtered = ordered[mask]
    return {
        "median": float(np.median(ordered)),
        "filtered_count": int(mask.sum()),
        "filtered_fraction": float(mask.sum() / ordered.size),
        "filtered_mean": float(filtered.mean()) if filtered.size else mean,
    }


# ---------------------------------------------------------------------------
# Two-sample Kolmogorov-Smirnov statistic
# ---------------------------------------------------------------------------


def ks_merge_oracle(a, b):
    """D statistic by merging the two sorted samples one value at a time."""
    xs = sorted(a.radii.tolist())
    ys = sorted(b.radii.tolist())
    n, m = len(xs), len(ys)
    d = 0.0
    i = j = 0
    while i < n and j < m:
        value = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n and xs[i] <= value:
            i += 1
        while j < m and ys[j] <= value:
            j += 1
        d = max(d, abs(i / n - j / m))
    return d
