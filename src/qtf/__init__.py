"""Collapse-solvency calculus, energy budgets, track statistics, and
seeded Monte Carlo harnesses.

The public names below are loaded on first access (PEP 562), so that a
process imports only the layers it uses: ``qtf budget`` never loads the
track pipeline or the Monte Carlo harness.
"""

from __future__ import annotations

__version__ = "0.1.0"

import importlib
import os
import sys

# qtf makes no BLAS or LAPACK call, yet OpenBLAS starts its worker
# threads when numpy loads them, and they spin on another core.  Load
# numpy with one thread unless the caller already chose a count through
# one of the variables OpenBLAS reads, then restore the environment so
# child processes inherit the caller's.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    v in os.environ for v in _BLAS_THREAD_VARS
)
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy  # noqa: F401
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

# Defining module of each public name.
_EXPORTS = {
    "constants": ("PaperValues", "PhysConsts", "get_consts", "get_paper_values"),
    "errors": ("DataError", "DomainError", "QtfError"),
    "montecarlo": (
        "AccrualConfig",
        "AccrualOutcome",
        "Lognormal",
        "SimConfig",
        "Uniform",
        "censor_at_floor",
        "generate_tracks",
        "ks_statistic",
        "lognormal_from_moments",
        "run_accrual",
        "sweep_prediction_1",
    ),
    "solvency": (
        "ActionIndex",
        "ParticleSpec",
        "action_index",
        "momentum_from_energy",
    ),
    "thermo": (
        "DiscrepancyRecord",
        "EnergyBudget",
        "ThermoQuery",
        "asymmetry_ratio",
        "audit_against_paper",
        "coherence_cost",
        "compute_budget",
        "decoherence_rate",
        "dynamic_rendering_rate",
        "landauer_cost",
        "min_sustain_energy",
        "ml_bound",
    ),
    "tracks": (
        "SolvencyReport",
        "TrackDataset",
        "TrackRecord",
        "TrackStats",
        "compute_stats",
        "emit_summary",
        "load_fixture",
        "parse_dataset",
        "read_dataset",
        "solvency_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
