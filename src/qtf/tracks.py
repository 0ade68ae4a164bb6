"""Track-radius pipeline: ingest, clean, aggregate, index, report.

The pipeline reproduces the published arithmetic end to end: parse
tabulated radii (one per row), compute median / mean / population sigma,
apply the inclusive 1-sigma filter, compute per-track solvency indices
n = r*p/hbar, detect the empirical action floor, and render a summary
in JSON, CSV, or aligned text.

The original measurement dataset is not redistributable, so the package
ships a deterministic 228-row synthetic fixture whose headline
statistics (median 6.67 mm, mean 7.42 mm, population sigma 5.05 mm,
161 rows inside the 1-sigma band, in-band mean 7.42 mm) match the
published values by construction; see :func:`synthetic_radii_mm`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import PhysConsts, get_consts, get_paper_values
from .errors import DataError, DomainError
from .solvency import ParticleSpec, action_index, momentum_from_energy, n_real_values

MOMENTUM_PAPER = "paper-stated"
MOMENTUM_DERIVED = "derived-from-spec"

_MOMENTUM_ALIASES = {
    "paper": MOMENTUM_PAPER,
    MOMENTUM_PAPER: MOMENTUM_PAPER,
    "derived": MOMENTUM_DERIVED,
    MOMENTUM_DERIVED: MOMENTUM_DERIVED,
}


@dataclass(frozen=True)
class TrackRecord:
    """One cleaned observation: ordinal id and radius in meters."""

    id: int
    radius: float


def _read_only(values, dtype: type) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class TrackDataset:
    """Ordered, cleaned radius observations with ingest provenance.

    The tracks are held as two read-only columns of equal length:
    ``ids`` (int64 ordinals) and ``radii`` (float64, meters).  The
    constructor copies both.
    """

    ids: np.ndarray
    radii: np.ndarray
    source_label: str
    rows_read: int
    rows_dropped: int

    def __post_init__(self) -> None:
        ids = _read_only(self.ids, np.int64)
        radii = _read_only(self.radii, np.float64)
        if ids.ndim != 1 or ids.shape != radii.shape:
            raise DataError(f"ids {ids.shape} and radii {radii.shape} must be equal 1-d")
        if ids.size != self.rows_read - self.rows_dropped:
            raise DataError(
                f"record count {ids.size} != rows_read {self.rows_read}"
                f" - rows_dropped {self.rows_dropped}"
            )
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "radii", radii)

    def __len__(self) -> int:
        return self.ids.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrackDataset):
            return NotImplemented
        return (
            self.source_label == other.source_label
            and self.rows_read == other.rows_read
            and self.rows_dropped == other.rows_dropped
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.radii, other.radii)
        )

    @property
    def records(self) -> tuple[TrackRecord, ...]:
        """The tracks as records, built on every access (not for hot paths)."""
        return tuple(map(TrackRecord, self.ids.tolist(), self.radii.tolist()))


@dataclass(frozen=True)
class TrackStats:
    """Descriptive statistics plus the 1-sigma filter band (meters)."""

    count: int
    median_radius: float
    mean_radius: float
    sigma_radius: float
    filter_low: float
    filter_high: float
    filtered_count: int
    filtered_fraction: float
    filtered_mean_radius: float


@dataclass(frozen=True, eq=False)
class SolvencyReport:
    """Per-track solvency indices and their aggregates for one dataset.

    ``n_values`` is a read-only array aligned with the dataset's tracks.
    """

    dataset: TrackDataset
    stats: TrackStats
    momentum_used: float
    momentum_source: str
    floor_n: float
    n_values: np.ndarray
    n_median: float
    n_filtered_mean: float
    n_min: float
    n_max: float
    floor_satisfied: bool


def parse_dataset(
    content: str | bytes, unit: str = "mm", source_label: str = ""
) -> TrackDataset:
    """Parse delimited text with one radius per row into a dataset.

    Lines starting with ``#`` are ignored outright.  A non-numeric first
    row is treated as a header.  Every other row is counted: blank,
    non-numeric, non-finite, and non-positive rows are dropped (never
    aborting the parse); valid rows become tracks in input order,
    converted to meters.  Undecodable bytes or zero valid rows are hard
    errors.
    """
    if unit not in ("mm", "m"):
        raise DomainError(f"unit must be 'mm' or 'm', got {unit!r}")
    if isinstance(content, bytes):
        try:
            content = content.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not decodable as UTF-8: {exc}") from exc

    scale = 1e3 if unit == "mm" else 1.0
    values: list[float] = []
    rows_read = 0
    rows_dropped = 0
    first_data_row = True
    for raw_line in content.splitlines():
        line = raw_line.strip()
        if line.startswith("#"):
            continue
        value = None
        if line:
            try:
                value = float(line)
            except ValueError:
                value = None
        if first_data_row and line and value is None:
            # header row: not counted
            first_data_row = False
            continue
        first_data_row = False
        rows_read += 1
        if value is None or not math.isfinite(value) or value <= 0:
            rows_dropped += 1
            continue
        values.append(value)

    if not values:
        raise DataError(f"no valid radius rows in input ({source_label or 'text'})")
    return TrackDataset(
        ids=np.arange(1, len(values) + 1),
        radii=np.array(values) / scale,
        source_label=source_label,
        rows_read=rows_read,
        rows_dropped=rows_dropped,
    )


def read_dataset(path: str | Path, unit: str = "mm") -> TrackDataset:
    """Read and parse a radius file; missing files are data errors."""
    path = Path(path)
    try:
        content = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return parse_dataset(content, unit=unit, source_label=str(path))


def compute_stats(dataset: TrackDataset, *, sample_sigma: bool = False) -> TrackStats:
    """Median, mean, sigma, and the inclusive 1-sigma filter band.

    Sigma is the population (divide-by-N) standard deviation by default;
    ``sample_sigma=True`` switches to divide-by-(N-1) for sensitivity
    checks.  Even-count median is the mean of the two central order
    statistics.  Both filter bounds are inclusive.

    Values are sorted before any accumulation so every statistic is a
    pure function of the multiset: shuffling input rows cannot move a
    result by even one ulp.
    """
    if not len(dataset):
        raise DataError("cannot compute statistics of an empty dataset")
    radii = np.sort(dataset.radii)
    count = int(radii.size)
    mean = float(radii.mean())
    if count == 1:
        sigma = 0.0
    else:
        sigma = float(radii.std(ddof=1 if sample_sigma else 0))
    low = mean - sigma
    high = mean + sigma
    mask = (radii >= low) & (radii <= high)
    filtered = radii[mask]
    # In exact arithmetic the inclusive band always holds at least one
    # value; edge rounding can empty it only when every candidate sits
    # on the boundary, and the band center is the degenerate-limit mean.
    filtered_mean = float(filtered.mean()) if filtered.size else mean
    return TrackStats(
        count=count,
        median_radius=float(np.median(radii)),
        mean_radius=mean,
        sigma_radius=sigma,
        filter_low=low,
        filter_high=high,
        filtered_count=int(mask.sum()),
        filtered_fraction=float(mask.sum() / count),
        filtered_mean_radius=filtered_mean,
    )


def resolve_momentum(
    momentum_source: str,
    particle: ParticleSpec | None = None,
) -> tuple[float, str]:
    """Map a momentum selector to (momentum, canonical source label).

    ``paper`` uses the stated momentum constant; ``derived`` computes
    sqrt(2*m*E) from the particle spec (stated alpha values by default).
    """
    try:
        canonical = _MOMENTUM_ALIASES[momentum_source]
    except KeyError:
        raise DomainError(
            f"momentum_source must be one of {sorted(set(_MOMENTUM_ALIASES))},"
            f" got {momentum_source!r}"
        ) from None
    paper = get_paper_values()
    if canonical == MOMENTUM_PAPER:
        return paper.momentum, canonical
    particle = particle or ParticleSpec(paper.alpha_mass, paper.alpha_energy)
    return momentum_from_energy(particle), canonical


def solvency_report(
    dataset: TrackDataset,
    particle: ParticleSpec | None = None,
    momentum_source: str = "paper",
    floor_n: float = get_paper_values().floor_n,
    consts: PhysConsts | None = None,
    *,
    sample_sigma: bool = False,
) -> SolvencyReport:
    """Full pipeline result for one dataset: stats plus solvency indices."""
    if not (math.isfinite(floor_n) and floor_n >= 0):
        raise DomainError(f"floor_n must be finite and >= 0, got {floor_n}")
    consts = consts or get_consts()
    stats = compute_stats(dataset, sample_sigma=sample_sigma)
    momentum, source = resolve_momentum(momentum_source, particle)
    n_values = n_real_values(dataset.radii, momentum, consts)
    n_values.flags.writeable = False
    n_min = float(n_values.min())
    return SolvencyReport(
        dataset=dataset,
        stats=stats,
        momentum_used=momentum,
        momentum_source=source,
        floor_n=floor_n,
        n_values=n_values,
        n_median=action_index(stats.median_radius, momentum, consts).n_real,
        n_filtered_mean=action_index(stats.filtered_mean_radius, momentum, consts).n_real,
        n_min=n_min,
        n_max=float(n_values.max()),
        floor_satisfied=n_min >= floor_n,
    )


def report_to_dict(report: SolvencyReport) -> dict:
    """JSON-ready dict form of a report (schema documented in README)."""
    ds = report.dataset
    st = report.stats
    return {
        "dataset": {
            "source_label": ds.source_label,
            "rows_read": ds.rows_read,
            "rows_dropped": ds.rows_dropped,
            "count": len(ds),
        },
        "momentum": {
            "value_kg_m_s": report.momentum_used,
            "source": report.momentum_source,
        },
        "stats": {
            "count": st.count,
            "median_radius_m": st.median_radius,
            "mean_radius_m": st.mean_radius,
            "sigma_radius_m": st.sigma_radius,
            "filter_low_m": st.filter_low,
            "filter_high_m": st.filter_high,
            "filtered_count": st.filtered_count,
            "filtered_fraction": st.filtered_fraction,
            "filtered_mean_radius_m": st.filtered_mean_radius,
        },
        "solvency": {
            "floor_n": report.floor_n,
            "n_median": report.n_median,
            "n_filtered_mean": report.n_filtered_mean,
            "n_min": report.n_min,
            "n_max": report.n_max,
            "floor_satisfied": report.floor_satisfied,
        },
        "tracks": [
            {
                "id": track_id,
                "radius_m": radius,
                "n_real": n,
                "n_quanta": math.floor(n),
            }
            for track_id, radius, n in _track_rows(report)
        ],
    }


def _track_rows(report: SolvencyReport):
    """(id, radius, n_real) per track, as Python int/float for exact repr."""
    ds = report.dataset
    return zip(ds.ids.tolist(), ds.radii.tolist(), report.n_values.tolist())


def sci(x: float, sig: int = 3) -> str:
    """Compact scientific notation: 2.0619e13 -> '2.06e13'."""
    mant, exp = f"{x:.{sig - 1}e}".split("e")
    return f"{mant}e{int(exp)}"


def emit_summary(report: SolvencyReport, format: str = "json") -> str:
    """Render a report deterministically as json, csv, or text.

    The text layout mirrors the published two-row summary (median row,
    filtered-mean row) plus a floor line; the CSV is the per-track table
    (id, radius_m, n_real, n_quanta).
    """
    if format == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    if format == "csv":
        lines = ["id,radius_m,n_real,n_quanta"]
        for track_id, radius, n in _track_rows(report):
            lines.append(f"{track_id},{radius!r},{n!r},{math.floor(n)}")
        return "\n".join(lines) + "\n"
    if format == "text":
        st = report.stats
        ds = report.dataset
        lines = [
            f"tracks: {ds.rows_read} read, {ds.rows_dropped} dropped,"
            f" {st.count} analyzed",
            f"momentum: {sci(report.momentum_used)} kg*m/s"
            f" ({report.momentum_source})",
            "",
            f"{'statistic':<15}{'radius_mm':<12}n",
            f"{'median':<15}{st.median_radius * 1e3:<12.6g}{sci(report.n_median)}",
            f"{'filtered_mean':<15}{st.filtered_mean_radius * 1e3:<12.6g}"
            f"{sci(report.n_filtered_mean)}",
            "",
            f"band [{st.filter_low * 1e3:.6g}, {st.filter_high * 1e3:.6g}] mm:"
            f" {st.filtered_count}/{st.count} retained"
            f" ({st.filtered_fraction:.1%})",
            f"floor: n in [{sci(report.n_min)}, {sci(report.n_max)}],"
            f" floor {sci(report.floor_n)} ->"
            f" {'satisfied' if report.floor_satisfied else 'violated'}",
        ]
        return "\n".join(lines) + "\n"
    raise DomainError(f"format must be json, csv, or text, got {format!r}")


# ---------------------------------------------------------------------------
# Synthetic fixture
# ---------------------------------------------------------------------------

# Construction targets (mm): 228 rows, median 6.67, mean 7.42, population
# sigma 5.05, exactly 161 rows inside the inclusive 1-sigma band
# [2.37, 12.47], in-band mean 7.42, long right tail reaching 50.
_N_ROWS = 228
_TOTAL_SUM = _N_ROWS * 7.42
_TOTAL_SQ = _N_ROWS * (7.42**2 + 5.05**2)
_IN_BAND_SUM = 161 * 7.42
_OUT_BAND_SUM = _TOTAL_SUM - _IN_BAND_SUM

FIXTURE_NAME = "synthetic_tracks_228.csv"


def _spread(a: float, b: float, n: int) -> list[float]:
    step = (b - a) / (n - 1)
    return [a + i * step for i in range(n)]


def synthetic_radii_mm() -> list[float]:
    """Deterministic 228-radius sample hitting the fixture targets.

    Fixed groups place 113 values below the median pair and keep exactly
    161 values inside the band; three free values (one in-band below the
    median, one in-band above it, one in the high tail) are then solved
    in closed form so that the in-band sum, out-of-band sum, and total
    sum of squares land exactly on target.  A fixed stride permutation
    turns the sorted construction into a plausible observation order.
    """
    low = _spread(2.00, 2.30, 44)            # out of band, low side
    in_below = _spread(6.00, 6.64, 68)       # in band, below median
    center = [6.67, 6.67]                    # the two central order stats
    in_above = _spread(7.00, 9.5645, 89)     # in band, above median
    high = _spread(12.60, 16.66, 21) + [50.0]  # out of band, right tail

    fixed_out = low + high
    fixed_in = in_below + center + in_above
    w = _OUT_BAND_SUM - math.fsum(fixed_out)
    pair_sum = _IN_BAND_SUM - math.fsum(fixed_in)
    pair_sq = (
        _TOTAL_SQ
        - math.fsum(x * x for x in fixed_out + fixed_in)
        - w * w
    )
    gap = math.sqrt(2.0 * pair_sq - pair_sum * pair_sum)
    u = (pair_sum - gap) / 2.0
    v = (pair_sum + gap) / 2.0

    ordered = low + in_below + [u] + center + in_above + [v] + high + [w]
    return [ordered[(i * 97 + 13) % _N_ROWS] for i in range(_N_ROWS)]


def fixture_text() -> str:
    """The shipped fixture CSV, regenerated from the builder."""
    lines = [
        "# synthetic track radii (mm), deterministic fixture",
        "# targets: median 6.67, mean 7.42, sigma 5.05, 161 in 1-sigma band",
        "radius_mm",
    ]
    lines.extend(repr(v) for v in synthetic_radii_mm())
    return "\n".join(lines) + "\n"


def load_fixture() -> TrackDataset:
    """Parse the packaged synthetic fixture."""
    text = resources.files("qtf.data").joinpath(FIXTURE_NAME).read_text("utf-8")
    return parse_dataset(text, unit="mm", source_label=f"packaged:{FIXTURE_NAME}")


def fixture_path() -> Path:
    """Filesystem path of the packaged fixture (source installs)."""
    return Path(str(resources.files("qtf.data").joinpath(FIXTURE_NAME)))
