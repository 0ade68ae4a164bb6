"""Collapse-solvency calculus, energy budgets, track statistics, and
seeded Monte Carlo harnesses."""

from __future__ import annotations

__version__ = "0.1.0"

import os
import sys

# qtf makes no BLAS or LAPACK call, yet OpenBLAS starts its worker
# threads when numpy loads them, and they spin on another core.  Load
# numpy with one thread unless the caller already chose a count through
# one of the variables OpenBLAS reads, then restore the environment so
# child processes inherit the caller's.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .constants import PaperValues, PhysConsts, get_consts, get_paper_values
from .errors import DataError, DomainError, QtfError
from .montecarlo import (
    AccrualConfig,
    AccrualOutcome,
    Lognormal,
    SimConfig,
    Uniform,
    censor_at_floor,
    generate_tracks,
    ks_statistic,
    lognormal_from_moments,
    run_accrual,
    sweep_prediction_1,
)
from .solvency import (
    ActionIndex,
    ParticleSpec,
    SolvencyResult,
    action_index,
    collapse_test,
    momentum_from_energy,
    renderable,
)
from .thermo import (
    DiscrepancyRecord,
    EnergyBudget,
    ThermoQuery,
    asymmetry_ratio,
    audit_against_paper,
    coherence_cost,
    compute_budget,
    decoherence_rate,
    dynamic_rendering_rate,
    landauer_cost,
    min_sustain_energy,
    ml_bound,
)
from .tracks import (
    SolvencyReport,
    TrackDataset,
    TrackRecord,
    TrackStats,
    compute_stats,
    emit_summary,
    load_fixture,
    parse_dataset,
    read_dataset,
    solvency_report,
)

__all__ = [
    "__version__",
    "AccrualConfig",
    "AccrualOutcome",
    "ActionIndex",
    "DataError",
    "DiscrepancyRecord",
    "DomainError",
    "EnergyBudget",
    "Lognormal",
    "PaperValues",
    "ParticleSpec",
    "PhysConsts",
    "QtfError",
    "SimConfig",
    "SolvencyReport",
    "SolvencyResult",
    "ThermoQuery",
    "TrackDataset",
    "TrackRecord",
    "TrackStats",
    "Uniform",
    "action_index",
    "asymmetry_ratio",
    "audit_against_paper",
    "censor_at_floor",
    "coherence_cost",
    "collapse_test",
    "compute_budget",
    "compute_stats",
    "decoherence_rate",
    "dynamic_rendering_rate",
    "emit_summary",
    "generate_tracks",
    "get_consts",
    "get_paper_values",
    "ks_statistic",
    "landauer_cost",
    "load_fixture",
    "lognormal_from_moments",
    "min_sustain_energy",
    "ml_bound",
    "momentum_from_energy",
    "parse_dataset",
    "read_dataset",
    "renderable",
    "run_accrual",
    "solvency_report",
    "sweep_prediction_1",
]
