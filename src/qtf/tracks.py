"""Track-radius pipeline: parse, clean, aggregate, index, report.

The pipeline reproduces the published arithmetic end to end: parse
tabulated radii (one per row), compute median / mean / population sigma,
apply the inclusive 1-sigma filter, compute per-track solvency indices
n = r*p/hbar, detect the empirical action floor, and render a summary
as a JSON-ready dict, CSV, or aligned text.  The module reads no file:
it parses bytes or text that the caller has read, as in
``parse_dataset(Path(p).read_bytes(), source_label=p)``.

The original measurement dataset is not redistributable, so the package
ships a deterministic 228-row synthetic fixture whose headline
statistics (median 6.67 mm, mean 7.42 mm, population sigma 5.05 mm,
161 rows inside the 1-sigma band, in-band mean 7.42 mm) match the
published values by construction; :func:`fixture_path` locates it, and
``tests/fixture_builder.py`` builds it.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from ._value import set_fields, value_class
from .constants import PAPER_INPUT, sci
from .errors import DataError, DomainError, is_real, real_from_text, require_nonnegative
from .solvency import ParticleSpec, momentum_from_energy, n_real_values

MOMENTUM_PAPER = "paper-stated"
MOMENTUM_DERIVED = "derived-from-spec"

# Each momentum route a caller selects, mapped to its label in a report
_MOMENTUM_LABELS = {"paper": MOMENTUM_PAPER, "derived": MOMENTUM_DERIVED}


# The dtype of track ids, and so the most tracks a population can hold.
ID_DTYPE = np.int32
_ID_RANGE = np.iinfo(ID_DTYPE)
MAX_TRACKS = int(_ID_RANGE.max)


def _is_id(value: object) -> bool:
    """Whether ``value`` is a real number (``errors.is_real``, so not a
    bool) with an integral value in the ``ID_DTYPE`` range."""
    return is_real(value) and _ID_RANGE.min <= value <= _ID_RANGE.max and value == int(value)


def _id_column(values) -> np.ndarray:
    """An ``ID_DTYPE`` copy of ``values``; an id that is not an integral
    real number the dtype can hold exactly is a ``DataError`` naming the
    first such id, where a cast would truncate or wrap it, or read a bool
    as 0 or 1."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        with np.errstate(invalid="ignore"):
            ids = values.astype(ID_DTYPE)
        if (ids == values).all():
            return ids
        flat = values.ravel().tolist()
    else:
        given = np.array(values, dtype=object)
        flat = given.ravel().tolist()
        if all(map(_is_id, flat)):
            ids = np.array([int(value) for value in flat], dtype=ID_DTYPE)
            return ids.reshape(given.shape)
    bad = next(value for value in flat if not _is_id(value))
    raise DataError(
        f"track id {bad!r} is not an integer in [{_ID_RANGE.min}, {_ID_RANGE.max}]"
    )


def _radius_column(values) -> np.ndarray:
    """A float64 copy of ``values``; a radius that is not a real number (a
    float, or an int that is not a bool) in the float range is a
    ``DataError`` naming the first such radius."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(np.float64)
    given = np.array(values, dtype=object)
    radii = []
    for value in given.ravel().tolist():
        if not is_real(value):
            raise DataError(f"track radius {value!r} is not a real number")
        try:
            radii.append(float(value))
        except OverflowError:
            raise DataError(f"track radius {value!r} is not in the float range") from None
    return np.array(radii, dtype=np.float64).reshape(given.shape)


def _first_bad_radius(radii: np.ndarray) -> int | None:
    """The index of the first radius that is not finite and > 0, or None."""
    if not radii.size or (radii.min() > 0 and radii.max() < math.inf):
        return None
    return int((~(np.isfinite(radii) & (radii > 0))).argmax())


@value_class(eq=False)
class TrackDataset:
    """Ordered, cleaned radius observations with ingest provenance.

    The tracks are held as two read-only columns of equal length:
    ``ids`` (int32 ordinals, so at most ``MAX_TRACKS`` = 2**31 - 1
    tracks) and ``radii`` (float64, meters).  The constructor copies
    both columns, so no array of its caller's is ever shared.  An id
    that is not an integer in the int32 range, or a radius that is not a
    finite real number > 0 (a float, or an int that is not a bool), is a
    ``DataError`` naming the first such value.
    """

    ids: np.ndarray
    radii: np.ndarray
    source_label: str
    rows_read: int
    rows_dropped: int

    def __post_init__(self) -> None:
        ids = _id_column(self.ids)
        radii = _radius_column(self.radii)
        if ids.ndim != 1 or ids.shape != radii.shape:
            raise DataError(f"ids {ids.shape} and radii {radii.shape} must be equal 1-d")
        bad = _first_bad_radius(radii)
        if bad is not None:
            raise DataError(f"track radius {float(radii[bad])!r} is not finite and > 0")
        if ids.size != self.rows_read - self.rows_dropped:
            raise DataError(
                f"record count {ids.size} != rows_read {self.rows_read}"
                f" - rows_dropped {self.rows_dropped}"
            )
        ids.flags.writeable = radii.flags.writeable = False
        set_fields(self, ids=ids, radii=radii)

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
    def records(self) -> tuple[tuple[int, float], ...]:
        """The tracks as ``(id, radius)`` pairs, built on every access; only
        ``bench/spans.py`` reads them, to count tracks, and they go once it
        counts with ``len(dataset)``."""
        return tuple(zip(self.ids.tolist(), self.radii.tolist()))


def _handover(
    ids: np.ndarray, radii: np.ndarray, source_label: str, rows_read: int, rows_dropped: int
) -> TrackDataset:
    """A dataset that takes over the two columns a producer in qtf has
    just built and holds no other reference to: they are made read-only,
    not copied, and not checked, since the producer builds them
    consistent."""
    ids.flags.writeable = radii.flags.writeable = False
    dataset = object.__new__(TrackDataset)
    set_fields(dataset, ids=ids, radii=radii, source_label=source_label,
               rows_read=rows_read, rows_dropped=rows_dropped)
    return dataset


@value_class
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


@value_class(eq=False)
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

    A leading byte-order mark is ignored.  Lines starting with ``#``
    are ignored outright.  A row is numeric when ``errors.real_from_text``
    reads it, as the number flags are read: an ASCII decimal number
    (``12``, ``-1.5``, ``.5``, ``7.42e-3``) or a spelling of nan or inf;
    digit-group underscores and non-ASCII digits make a row non-numeric.
    A non-numeric first row is treated as a header.  Every other row is
    counted: blank, non-numeric, non-finite, and non-positive rows are
    dropped (never aborting the parse), as is a positive row whose
    radius in meters underflows to 0; valid rows become tracks in input
    order, converted to meters, with ids 1, 2, ...  Undecodable bytes,
    zero valid rows or more than ``MAX_TRACKS`` are hard errors.
    """
    if unit not in ("mm", "m"):
        raise DomainError(f"unit must be 'mm' or 'm', got {unit!r}")
    if isinstance(content, bytes):
        try:
            content = content.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not decodable as UTF-8: {exc}") from exc
    content = content.removeprefix("\ufeff")

    scale = 1e3 if unit == "mm" else 1.0
    values: list[float] = []
    rows_read = 0
    rows_dropped = 0
    first_data_row = True
    for raw_line in content.splitlines():
        line = raw_line.strip()
        if line.startswith("#"):
            continue
        try:
            value = real_from_text(line)
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

    radii = np.array(values)
    radii /= scale
    if radii.size and not radii.min() > 0:
        # a row in mm below about 2.5e-321 is 0 m: a non-positive radius
        positive = radii > 0
        rows_dropped += radii.size - int(np.count_nonzero(positive))
        radii = radii[positive]
    if not radii.size:
        raise DataError(f"no valid radius rows in input ({source_label or 'text'})")
    if radii.size > MAX_TRACKS:
        raise DataError(
            f"{radii.size} valid radius rows exceed the limit of {MAX_TRACKS}"
            f" tracks ({source_label or 'text'})"
        )
    ids = np.arange(1, radii.size + 1, dtype=ID_DTYPE)
    return _handover(ids, radii, source_label, rows_read, rows_dropped)


def compute_stats(dataset: TrackDataset) -> TrackStats:
    """Median, mean, sigma, and the inclusive 1-sigma filter band.

    Sigma is the population (divide-by-N) standard deviation.  The
    median is read from the sorted radii by index: the middle value, or
    for an even count ``(a + b) / 2.0`` of the two middle values, which
    is what ``np.median`` computes.  Both filter bounds are inclusive;
    the band is the slice of the sorted radii between
    ``searchsorted(low, "left")`` and ``searchsorted(high, "right")``.

    Values are sorted before any accumulation so every statistic is a
    pure function of the multiset: shuffling input rows cannot move a
    result by even one ulp.
    """
    if not len(dataset):
        raise DataError("cannot compute statistics of an empty dataset")
    radii = np.sort(dataset.radii)
    count = int(radii.size)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mean = float(radii.mean())
        sigma = float(radii.std())
    low = mean - sigma
    high = mean + sigma
    for name, value in (("mean", mean), ("sigma", sigma), ("band", high)):
        if not math.isfinite(value):
            raise DomainError(
                f"radius {name} overflows the float range"
                f" (largest radius {float(radii[-1])!r} m)"
            )
    # below this the variance is below the smallest normal float
    if sigma < math.sqrt(sys.float_info.min) and radii[0] != radii[-1]:
        raise DomainError(
            "radius sigma underflows the float range"
            f" (smallest radius {float(radii[0])!r} m)"
        )
    middle = count // 2
    if count % 2:
        median = float(radii[middle])
    else:
        # the mean is finite, so the sum of two radii cannot overflow
        median = (float(radii[middle - 1]) + float(radii[middle])) / 2.0
    start = np.searchsorted(radii, low, "left")
    stop = np.searchsorted(radii, high, "right")
    filtered = radii[start:stop]
    # In exact arithmetic the inclusive band always holds at least one
    # value; edge rounding can empty it only when every candidate sits
    # on the boundary, and the band center is the degenerate-limit mean.
    filtered_mean = float(filtered.mean()) if filtered.size else mean
    return TrackStats(
        count=count,
        median_radius=median,
        mean_radius=mean,
        sigma_radius=sigma,
        filter_low=low,
        filter_high=high,
        filtered_count=filtered.size,
        filtered_fraction=filtered.size / count,
        filtered_mean_radius=filtered_mean,
    )


def resolve_momentum(
    momentum_source: str,
    particle: ParticleSpec | None = None,
) -> tuple[float, str]:
    """Map a momentum route to (momentum, its label in a report).

    ``paper`` uses the stated momentum constant; ``derived`` computes
    sqrt(2*m*E) from the particle spec (stated alpha values by default).
    A particle given with ``paper`` would go unused, so it is an error.
    """
    try:
        label = _MOMENTUM_LABELS[momentum_source]
    except (KeyError, TypeError):  # TypeError: an unhashable selector
        raise DomainError(
            f"momentum_source must be one of {sorted(_MOMENTUM_LABELS)},"
            f" got {momentum_source!r}"
        ) from None
    if label == MOMENTUM_PAPER:
        if particle is not None:
            raise DomainError(
                "particle is used only by the derived momentum route,"
                f" but momentum_source is {momentum_source!r}"
            )
        return PAPER_INPUT["momentum"], label
    particle = particle or ParticleSpec(PAPER_INPUT["alpha_mass"], PAPER_INPUT["alpha_energy"])
    return momentum_from_energy(particle), label


def solvency_report(
    dataset: TrackDataset,
    particle: ParticleSpec | None = None,
    momentum_source: str = "paper",
    floor_n: float = PAPER_INPUT["floor_n"],
) -> SolvencyReport:
    """Full pipeline result for one dataset: stats plus solvency indices.

    Every index comes from :func:`~qtf.solvency.n_real_values`.  ``n_min``
    and ``n_max`` are the indices at the smallest and largest radius;
    fl(fl(r*p)/hbar) is monotone in r, so every reported index is finite
    exactly when the one at the largest radius is, and otherwise this
    raises :class:`DomainError`.  ``n_median`` and ``n_filtered_mean``
    are the indices of the median and in-band mean radii, clipped into
    ``[n_min, n_max]``: a mean can round one ulp past the radii it
    averages, but its index cannot leave the range of the track indices.
    """
    require_nonnegative("floor_n", floor_n)
    momentum, source = resolve_momentum(momentum_source, particle)
    radii = dataset.radii
    # Checked before the statistics, which would otherwise report the
    # same out-of-range radii as an overflowing mean, and the index array
    # is built after them, so it is not held next to their sorted copy.
    if len(dataset):
        ends = np.array([radii.min(), radii.max()])
        n_min, n_max = n_real_values(ends, momentum).tolist()
        if not math.isfinite(n_max):
            raise DomainError(
                f"solvency index r*p/hbar is not finite for radius"
                f" {float(ends[1])!r} m at momentum {momentum!r}"
            )
    stats = compute_stats(dataset)  # refuses an empty dataset
    n_values = n_real_values(radii, momentum)
    n_values.flags.writeable = False
    centers = np.array([stats.median_radius, stats.filtered_mean_radius])
    n_median, n_filtered_mean = n_real_values(centers, momentum).clip(n_min, n_max).tolist()
    return SolvencyReport(
        dataset=dataset,
        stats=stats,
        momentum_used=momentum,
        momentum_source=source,
        floor_n=floor_n,
        n_values=n_values,
        n_median=n_median,
        n_filtered_mean=n_filtered_mean,
        n_min=n_min,
        n_max=n_max,
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
            {"id": track_id, "radius_m": radius, "n_real": n, "n_quanta": n_quanta}
            for track_id, radius, n, n_quanta in _track_rows(report)
        ],
    }


def _track_rows(report: SolvencyReport):
    """(id, radius, n_real, n_quanta) per track, as Python int/float for
    exact repr; ``n_quanta``, the whole action quanta, is the floor of
    ``n_real``, taken here for every track table."""
    ds = report.dataset
    n_values = report.n_values.tolist()
    return zip(ds.ids.tolist(), ds.radii.tolist(), n_values, map(math.floor, n_values))


def emit_summary(report: SolvencyReport, format: str) -> str:
    """Render a report deterministically as csv or text.

    The text layout mirrors the published two-row summary (median row,
    filtered-mean row) plus a floor line; the CSV is the per-track table
    (id, radius_m, n_real, n_quanta).  The JSON form is
    :func:`report_to_dict`, which the CLI renders with its manifest.
    """
    if format == "csv":
        lines = ["id,radius_m,n_real,n_quanta"]
        for track_id, radius, n, n_quanta in _track_rows(report):
            lines.append(f"{track_id},{radius!r},{n!r},{n_quanta}")
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
            f"{'median':<15}{st.median_radius * 1e3:<11.6g} {sci(report.n_median)}",
            f"{'filtered_mean':<15}{st.filtered_mean_radius * 1e3:<11.6g}"
            f" {sci(report.n_filtered_mean)}",
            "",
            f"band [{st.filter_low * 1e3:.6g}, {st.filter_high * 1e3:.6g}] mm:"
            f" {st.filtered_count}/{st.count} retained"
            f" ({st.filtered_fraction:.1%})",
            f"floor: n in [{sci(report.n_min)}, {sci(report.n_max)}],"
            f" floor {sci(report.floor_n)} ->"
            f" {'satisfied' if report.floor_satisfied else 'violated'}",
        ]
        return "\n".join(lines) + "\n"
    raise DomainError(f"format must be csv or text, got {format!r}")


# ---------------------------------------------------------------------------
# Shipped fixture
# ---------------------------------------------------------------------------

FIXTURE_NAME = "synthetic_tracks_228.csv"


def fixture_path() -> Path:
    """Filesystem path of the packaged fixture."""
    return Path(__file__).parent / "data" / FIXTURE_NAME
