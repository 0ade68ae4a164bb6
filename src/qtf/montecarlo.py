"""Seeded stochastic harnesses for the falsifiable claims.

Two experiment families:

* threshold censoring -- draw synthetic track populations from a
  configured radius distribution, then remove every track whose
  solvency index falls below a floor, modeling the all-or-nothing
  rendering rule.  Generation is counter-based (see :mod:`qtf.rng`):
  track i of a run depends only on (seed, i), and ``generate_tracks``
  draws in blocks that equal the per-index definition bit for bit.
* budget accrual -- discrete-time insolvency: cost and available work
  both grow linearly and collapse fires at the first step where
  cumulative cost strictly exceeds the available budget.  The closed
  form B/(c - a) is kept out of the simulation and used only as the
  test oracle.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ._value import value_class
from .errors import DataError, DomainError, require_nonnegative, require_positive

# The draws, the solvency calculus and the track layer are imported by
# the functions that use them, so that accrual and sweep runs never load
# them.
if TYPE_CHECKING:
    from .tracks import TrackDataset


@value_class
class Lognormal:
    """Lognormal radius distribution; mu/sigma are of the underlying normal."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu}", "mu")
        require_nonnegative("sigma", self.sigma)

    def sample(self, seed: int, n: int, start: int = 0) -> np.ndarray:
        """Draws start..start+n-1: draw i is exp(mu + sigma * std_normal(seed, i)),
        with the C library's ``exp`` (see :func:`qtf.rng.libm_apply`).  One
        past the float range is inf and one below it 0, without an error."""
        from .rng import libm_apply, std_normal_range

        with np.errstate(over="ignore", under="ignore"):
            exponents = self.mu + self.sigma * std_normal_range(seed, n, start)
            return libm_apply(np.exp, exponents)

    def describe(self) -> dict:
        return {"kind": "lognormal", "mu": self.mu, "sigma": self.sigma}


@value_class
class Uniform:
    """Uniform radius distribution on [lo, hi] meters; lo must be > 0.  The
    largest draw can round to hi: Uniform(1.0, 3.0) gives 3.0 for unit
    draw 1 - 2**-53."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        require_positive("lo", self.lo)
        if not (math.isfinite(self.hi) and self.hi > self.lo):
            raise DomainError(f"hi must be finite and > lo, got {self.hi}", "hi")

    def sample(self, seed: int, n: int, start: int = 0) -> np.ndarray:
        """Draws start..start+n-1: draw i is lo + (hi - lo) * unit_uniform(seed, i),
        without an error where the product is subnormal."""
        from .rng import unit_uniform_range

        with np.errstate(under="ignore"):
            return self.lo + (self.hi - self.lo) * unit_uniform_range(seed, n, start)

    def describe(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


RadiusDistribution = Lognormal | Uniform


def lognormal_from_moments(mean: float, sd: float) -> Lognormal:
    """Lognormal whose distribution mean and standard deviation match."""
    require_positive("mean", mean)
    require_positive("sd", sd)
    try:
        s2 = math.log(1.0 + (sd / mean) ** 2)
    except OverflowError:  # (sd/mean)**2 leaves the float range
        s2 = math.inf
    if s2 == math.inf:  # or sd/mean itself does, without an error
        raise DomainError(f"sd/mean overflows: sd {sd!r}, mean {mean!r}", "sd")
    return Lognormal(mu=math.log(mean) - s2 / 2.0, sigma=math.sqrt(s2))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@value_class
class SimConfig:
    """The synthetic track population that ``generate_tracks`` draws."""

    seed: int
    n_tracks: int
    distribution: RadiusDistribution

    def __post_init__(self) -> None:
        from .tracks import MAX_TRACKS

        if not _is_int(self.seed):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if not (_is_int(self.n_tracks) and 1 <= self.n_tracks <= MAX_TRACKS):
            raise DomainError(
                f"n_tracks must be an integer in [1, {MAX_TRACKS}], got {self.n_tracks!r}"
            )


# Most steps an accrual run, or a whole sweep of runs, may take.  The
# loop takes about 0.13 s per 1e6 steps on a 2-vCPU x86-64 host, so
# even a run or sweep that never collapses ends in well under a minute.
MAX_ACCRUAL_STEPS = 10**8


@value_class
class AccrualConfig:
    """Discrete-time budget accrual parameters (J, W, s)."""

    initial_budget: float
    budget_rate: float
    cost_rate: float
    time_step: float
    max_time: float

    def __post_init__(self) -> None:
        require_nonnegative("initial_budget", self.initial_budget)
        require_nonnegative("budget_rate", self.budget_rate)
        require_nonnegative("cost_rate", self.cost_rate)
        require_positive("time_step", self.time_step)
        if not (math.isfinite(self.max_time) and self.max_time >= self.time_step):
            raise DomainError(
                f"max_time must be >= time_step, got {self.max_time}", "max_time"
            )
        if not math.isfinite(self.max_time / self.time_step):
            raise DomainError(
                f"max_time/time_step overflows: max_time {self.max_time!r},"
                f" time_step {self.time_step!r}",
                "max_time",
            )
        if self.n_steps > MAX_ACCRUAL_STEPS:
            raise DomainError(
                f"accrual run of {self.n_steps} steps exceeds the cap of"
                f" {MAX_ACCRUAL_STEPS} steps: max_time {self.max_time!r},"
                f" time_step {self.time_step!r}",
                "max_time",
            )

    @property
    def n_steps(self) -> int:
        """Steps in a run that does not collapse: t = time_step .. max_time.

        The quotient may land just under a whole number, by more than
        the 1e-9 slack once it passes about 1e7; a step whose own time
        k * time_step is still within max_time counts all the same.  Past
        2**53 steps a float no longer holds every k, and the quotient
        stands.
        """
        n = int(self.max_time / self.time_step + 1e-9)
        if n < 2**53 and (n + 1) * self.time_step <= self.max_time:
            return n + 1
        return n


@value_class
class AccrualOutcome:
    """Result of one accrual run; collapse_time is None when no collapse."""

    collapsed: bool
    collapse_time: float | None
    steps_run: int


def generate_tracks(config: SimConfig) -> TrackDataset:
    """Draw ``n_tracks`` radii deterministically from (seed, index).

    Track i + 1 gets draw i of the seed's stream, so identical configs
    produce identical datasets.  Each block of ``DRAW_BLOCK`` draws goes
    into the radius column and is checked for a radius not finite and > 0.
    """
    from .rng import DRAW_BLOCK
    from .tracks import ID_DTYPE, TrackDataset

    dist = config.distribution
    radii = np.empty(config.n_tracks)
    for start in range(0, config.n_tracks, DRAW_BLOCK):
        block = radii[start : start + DRAW_BLOCK]
        block[:] = dist.sample(config.seed, block.size, start)
        if not (block.min() > 0 and block.max() < math.inf):
            index = int((~(np.isfinite(block) & (block > 0))).argmax())
            raise DomainError(
                f"distribution produced radius {float(block[index])} at"
                f" {start + index}; radii must be finite and > 0"
            )
    ids = np.arange(1, config.n_tracks + 1, dtype=ID_DTYPE)
    # handed over: the dataset adopts read-only columns it alone owns
    ids.flags.writeable = False
    radii.flags.writeable = False
    label = (
        f"synthetic:{dist.describe()['kind']}:seed={config.seed}:n={config.n_tracks}"
    )
    return TrackDataset(
        ids=ids,
        radii=radii,
        source_label=label,
        rows_read=config.n_tracks,
        rows_dropped=0,
    )


def censor_at_floor(
    dataset: TrackDataset, floor_n: float, momentum: float
) -> TrackDataset:
    """Keep exactly the tracks whose solvency index clears the floor,
    n_real >= floor_n: a track sitting on the floor is kept.

    Tracks retain their original int32 ids; the censored count shows up as
    dropped rows in the returned dataset's provenance.

    The indices are computed and the kept tracks gathered ``DRAW_BLOCK``
    tracks at a time, into columns allocated at their final length, so
    besides those only the keep mask and block-sized temporaries are held.
    """
    from .rng import DRAW_BLOCK
    from .solvency import n_real_values
    from .tracks import ID_DTYPE, TrackDataset

    require_positive("momentum", momentum)
    require_nonnegative("floor_n", floor_n)
    blocks = [slice(i, i + DRAW_BLOCK) for i in range(0, len(dataset), DRAW_BLOCK)]
    keep = np.empty(len(dataset), dtype=bool)
    for block in blocks:
        indices = n_real_values(dataset.radii[block], momentum)
        np.greater_equal(indices, floor_n, out=keep[block])
    kept = int(np.count_nonzero(keep))
    ids = np.empty(kept, dtype=ID_DTYPE)
    radii = np.empty(kept)
    filled = 0
    for block in blocks:
        index = np.flatnonzero(keep[block])
        part = slice(filled, filled + index.size)
        # in-range indices: "clip" takes them as they are, unbuffered
        np.take(dataset.ids[block], index, out=ids[part], mode="clip")
        np.take(dataset.radii[block], index, out=radii[part], mode="clip")
        filled = part.stop
    ids.flags.writeable = False
    radii.flags.writeable = False
    return TrackDataset(
        ids=ids,
        radii=radii,
        source_label=f"{dataset.source_label}|floor={floor_n!r}",
        rows_read=len(dataset),
        rows_dropped=len(dataset) - kept,
    )


def run_accrual(config: AccrualConfig) -> AccrualOutcome:
    """Step the accrual model, collapsing at first strict insolvency.

    At step k (t = k*time_step): cumulative cost is cost_rate*t and the
    available budget is initial_budget + budget_rate*t.  Collapse fires
    at the first step where cost strictly exceeds budget; otherwise the
    run ends without collapse at max_time.
    """
    n_steps = config.n_steps
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
    nondecreasing; rates at or above the cost rate never collapse.  The
    runs together may take at most ``MAX_ACCRUAL_STEPS`` steps.
    """
    if not budget_rates:
        raise DomainError("budget_rates must be non-empty")
    # every run's config, and so every rate, is checked before the first run
    runs = [replace(base, budget_rate=rate) for rate in budget_rates]
    if base.n_steps * len(runs) > MAX_ACCRUAL_STEPS:
        raise DomainError(
            f"sweep of {len(runs)} rates x {base.n_steps} steps exceeds"
            f" the cap of {MAX_ACCRUAL_STEPS} steps"
        )
    runs.sort(key=lambda run: run.budget_rate)
    return [(run.budget_rate, run_accrual(run)) for run in runs]


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
