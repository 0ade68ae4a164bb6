"""Seeded stochastic harnesses for the falsifiable claims.

Two experiment families:

* threshold censoring -- draw synthetic track populations from a
  configured radius distribution, then remove every track whose
  solvency index falls below a floor, modeling the all-or-nothing
  rendering rule.  Generation is counter-based (see :mod:`qtf.rng`):
  track i of a run depends only on (seed, i), and a whole population is
  drawn in one vectorized pass that equals the per-index definition bit
  for bit.
* budget accrual -- discrete-time insolvency: cost and available work
  both grow linearly and collapse fires at the first step where
  cumulative cost strictly exceeds the available budget.  The closed
  form B/(c - a) is kept out of the simulation and used only as the
  test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import PhysConsts, get_paper_values
from .errors import DataError, DomainError
from .rng import libm_map, std_normal_range, unit_uniform_range
from .solvency import ParticleSpec, n_real_values
from .tracks import TrackDataset


@dataclass(frozen=True)
class Lognormal:
    """Lognormal radius distribution; mu/sigma are of the underlying normal."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise DomainError(f"sigma must be finite and >= 0, got {self.sigma}")

    def sample(self, seed: int, n: int) -> np.ndarray:
        """Draws 0..n-1: draw i is exp(mu + sigma * std_normal(seed, i))."""
        exponents = self.mu + self.sigma * std_normal_range(seed, n)
        try:
            return libm_map(math.exp, exponents)
        except OverflowError:
            raise DomainError(
                f"lognormal draw overflows: exp({float(exponents.max())!r})"
            ) from None

    def describe(self) -> dict:
        return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class Uniform:
    """Uniform radius distribution on [lo, hi) meters; lo must be > 0."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and self.lo > 0):
            raise DomainError(f"lo must be finite and > 0, got {self.lo}")
        if not (math.isfinite(self.hi) and self.hi > self.lo):
            raise DomainError(f"hi must be finite and > lo, got {self.hi}")

    def sample(self, seed: int, n: int) -> np.ndarray:
        """Draws 0..n-1: draw i is lo + (hi - lo) * unit_uniform(seed, i)."""
        return self.lo + (self.hi - self.lo) * unit_uniform_range(seed, n)

    def describe(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


RadiusDistribution = Lognormal | Uniform


def lognormal_from_moments(mean: float, sd: float) -> Lognormal:
    """Lognormal whose distribution mean and standard deviation match."""
    if not (math.isfinite(mean) and mean > 0):
        raise DomainError(f"mean must be finite and > 0, got {mean}")
    if not (math.isfinite(sd) and sd > 0):
        raise DomainError(f"sd must be finite and > 0, got {sd}")
    s2 = math.log(1.0 + (sd / mean) ** 2)
    return Lognormal(mu=math.log(mean) - s2 / 2.0, sigma=math.sqrt(s2))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Synthetic track population configuration.

    ``workers`` is accepted for compatibility and ignored: generation
    is a single vectorized pass, so it can never change the output.  It
    is excluded from run manifests.
    """

    seed: int
    n_tracks: int
    distribution: RadiusDistribution
    particle: ParticleSpec | None = None
    momentum_source: str = "paper"
    floor_n: float = get_paper_values().floor_n
    workers: int = 1

    def __post_init__(self) -> None:
        if not _is_int(self.seed):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if not (_is_int(self.n_tracks) and self.n_tracks >= 1):
            raise DomainError(f"n_tracks must be an integer >= 1, got {self.n_tracks!r}")
        if not (math.isfinite(self.floor_n) and self.floor_n >= 0):
            raise DomainError(f"floor_n must be finite and >= 0, got {self.floor_n}")
        if not (_is_int(self.workers) and self.workers >= 1):
            raise DomainError(f"workers must be an integer >= 1, got {self.workers!r}")


@dataclass(frozen=True)
class AccrualConfig:
    """Discrete-time budget accrual parameters (J, W, s)."""

    initial_budget: float
    budget_rate: float
    cost_rate: float
    time_step: float
    max_time: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.initial_budget) and self.initial_budget >= 0):
            raise DomainError(
                f"initial_budget must be finite and >= 0, got {self.initial_budget}"
            )
        for name in ("budget_rate", "cost_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.time_step) and self.time_step > 0):
            raise DomainError(f"time_step must be > 0, got {self.time_step}")
        if not (math.isfinite(self.max_time) and self.max_time >= self.time_step):
            raise DomainError(
                f"max_time must be >= time_step, got {self.max_time}"
            )


@dataclass(frozen=True)
class AccrualOutcome:
    """Result of one accrual run; collapse_time is None when no collapse."""

    collapsed: bool
    collapse_time: float | None
    steps_run: int


def generate_tracks(config: SimConfig) -> TrackDataset:
    """Draw ``n_tracks`` radii deterministically from (seed, index).

    Track i + 1 gets draw i of the seed's stream, so identical configs
    produce identical datasets (``workers`` is ignored).
    """
    dist = config.distribution
    radii = dist.sample(config.seed, config.n_tracks)
    bad = ~(np.isfinite(radii) & (radii > 0))
    if bad.any():
        index = int(bad.argmax())
        raise DomainError(
            f"distribution produced radius {float(radii[index])} at {index};"
            " radii must be finite and > 0"
        )
    label = (
        f"synthetic:{dist.describe()['kind']}:seed={config.seed}:n={config.n_tracks}"
    )
    return TrackDataset(
        ids=np.arange(1, config.n_tracks + 1),
        radii=radii,
        source_label=label,
        rows_read=config.n_tracks,
        rows_dropped=0,
    )


def censor_at_floor(
    dataset: TrackDataset,
    floor_n: float,
    momentum: float,
    consts: PhysConsts | None = None,
) -> TrackDataset:
    """Keep exactly the tracks whose solvency index clears the floor.

    Tracks retain their original ids; the censored count shows up as
    dropped rows in the returned dataset's provenance.
    """
    if not (math.isfinite(momentum) and momentum > 0):
        raise DomainError(f"momentum must be finite and > 0, got {momentum}")
    if not (math.isfinite(floor_n) and floor_n >= 0):
        raise DomainError(f"floor_n must be finite and >= 0, got {floor_n}")
    keep = n_real_values(dataset.radii, momentum, consts) >= floor_n
    return TrackDataset(
        ids=dataset.ids[keep],
        radii=dataset.radii[keep],
        source_label=f"{dataset.source_label}|floor={floor_n!r}",
        rows_read=len(dataset),
        rows_dropped=len(dataset) - int(keep.sum()),
    )


def run_accrual(config: AccrualConfig) -> AccrualOutcome:
    """Step the accrual model, collapsing at first strict insolvency.

    At step k (t = k*time_step): cumulative cost is cost_rate*t and the
    available budget is initial_budget + budget_rate*t.  Collapse fires
    at the first step where cost strictly exceeds budget; otherwise the
    run ends without collapse at max_time.
    """
    n_steps = int(config.max_time / config.time_step + 1e-9)
    for k in range(1, n_steps + 1):
        t = k * config.time_step
        if config.cost_rate * t > config.initial_budget + config.budget_rate * t:
            return AccrualOutcome(collapsed=True, collapse_time=t, steps_run=k)
    return AccrualOutcome(collapsed=False, collapse_time=None, steps_run=n_steps)


def sweep_prediction_1(
    base: AccrualConfig, budget_rates: list[float]
) -> list[tuple[float, AccrualOutcome]]:
    """Run the accrual model across budget rates, ascending.

    More budget rate can only delay collapse, so collapse times come out
    nondecreasing; rates at or above the cost rate never collapse.
    """
    if not budget_rates:
        raise DomainError("budget_rates must be non-empty")
    for rate in budget_rates:
        if not (math.isfinite(rate) and rate >= 0):
            raise DomainError(f"budget rates must be finite and >= 0, got {rate}")
    return [
        (rate, run_accrual(replace(base, budget_rate=rate)))
        for rate in sorted(budget_rates)
    ]


def ks_statistic(a: TrackDataset, b: TrackDataset) -> float:
    """Two-sample Kolmogorov-Smirnov D statistic over radii, in [0, 1].

    Both empirical CDFs are evaluated at every pooled value; D is the
    largest gap between them.
    """
    if not len(a) or not len(b):
        raise DataError("ks_statistic requires two non-empty datasets")
    xs = np.sort(a.radii)
    ys = np.sort(b.radii)
    pooled = np.concatenate((xs, ys))
    cdf_a = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_b = np.searchsorted(ys, pooled, side="right") / ys.size
    return float(np.abs(cdf_a - cdf_b).max())
