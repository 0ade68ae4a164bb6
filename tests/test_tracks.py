import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtf.errors import DataError, DomainError
from qtf.solvency import ParticleSpec, action_index
from qtf.tracks import (
    TrackDataset,
    TrackRecord,
    compute_stats,
    emit_summary,
    fixture_text,
    load_fixture,
    parse_dataset,
    read_dataset,
    report_to_dict,
    sci,
    solvency_report,
    synthetic_radii_mm,
)

# Frozen hand oracle: population sigma of [1, 2, 3] is sqrt(2/3).
SIGMA_1_2_3 = 0.8164965809277260


def make(rows, unit="mm"):
    return parse_dataset("\n".join(rows), unit=unit)


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


class TestParse:
    def test_mixed_rows(self):
        ds = make(["5.0", "", "abc", "12.5"])
        assert [r.radius for r in ds.records] == [0.005, 0.0125]
        assert ds.rows_read == 4
        assert ds.rows_dropped == 2
        assert [r.id for r in ds.records] == [1, 2]

    def test_millimeter_conversion(self):
        ds = make(["6.67"])
        assert ds.records[0].radius == 6.67e-3

    def test_meter_unit(self):
        ds = make(["6.67"], unit="m")
        assert ds.records[0].radius == 6.67

    def test_nonpositive_rows_rejected(self):
        with pytest.raises(DataError):
            make(["-3.0"])
        ds = make(["-3.0", "0", "2.0"])
        assert len(ds.records) == 1
        assert ds.rows_dropped == 2

    def test_header_autodetected(self):
        ds = make(["radius_mm", "5.0", "6.0"])
        assert ds.rows_read == 2
        assert ds.rows_dropped == 0

    def test_comments_ignored(self):
        ds = make(["# a comment", "5.0", "# another", "6.0"])
        assert ds.rows_read == 2
        assert len(ds.records) == 2

    def test_non_finite_rows_dropped(self):
        ds = make(["inf", "nan", "5.0"])
        assert len(ds.records) == 1
        assert ds.rows_dropped == 2

    def test_undecodable_bytes(self):
        with pytest.raises(DataError):
            parse_dataset(b"\xff\xfe\x00bad", unit="mm")

    def test_empty_input(self):
        with pytest.raises(DataError):
            parse_dataset("", unit="mm")

    def test_bad_unit(self):
        with pytest.raises(DomainError):
            parse_dataset("5.0", unit="cm")

    def test_read_dataset_from_path(self, tmp_path):
        path = tmp_path / "radii.csv"
        path.write_text("radius_mm\n5.0\n6.0\n", encoding="utf-8")
        ds = read_dataset(path)
        assert len(ds.records) == 2
        assert ds.source_label == str(path)

    def test_read_dataset_missing_file(self):
        with pytest.raises(DataError):
            read_dataset("/nonexistent/radii.csv")

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1e4).map(lambda x: f"{x!r}"),
            min_size=1,
            max_size=50,
        )
    )
    @settings(deadline=None)
    def test_unit_sanity(self, rows):
        # mm parsing is exactly the meter parse divided by 1e3
        as_m = parse_dataset("\n".join(rows), unit="m")
        as_mm = parse_dataset("\n".join(rows), unit="mm")
        for rm, rmm in zip(as_m.records, as_mm.records):
            assert rmm.radius == rm.radius / 1e3


class TestColumnarDataset:
    def test_columns_are_read_only(self):
        ds = make(["5.0", "6.0"])
        for column in (ds.ids, ds.radii):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1

    def test_constructor_copies_its_columns(self):
        ids, radii = np.array([1, 2]), np.array([0.5, 0.25])
        ds = TrackDataset(ids=ids, radii=radii, source_label="", rows_read=2, rows_dropped=0)
        radii[0] = 9.0
        assert ds.radii.tolist() == [0.5, 0.25]
        assert ds.ids.dtype == np.int64 and ds.radii.dtype == np.float64

    def test_column_lengths_must_agree(self):
        with pytest.raises(DataError):
            TrackDataset(ids=[1, 2], radii=[0.5], source_label="", rows_read=2, rows_dropped=0)
        with pytest.raises(DataError):
            TrackDataset(ids=[1], radii=[0.5], source_label="", rows_read=2, rows_dropped=0)

    def test_equality_compares_columns_and_provenance(self):
        assert make(["5.0", "6.0"]) == make(["5.0", "6.0"])
        assert make(["5.0", "6.0"]) != make(["5.0", "6.5"])
        assert make(["5.0", "6.0"]) != make(["5.0", "6.0", "x"])  # one row dropped
        assert make(["5.0"]) != parse_dataset("5.0", unit="mm", source_label="other")
        assert make(["5.0"]) != (TrackRecord(id=1, radius=5e-3),)

    def test_records_are_derived_from_the_columns(self):
        ds = make(["5.0", "abc", "6.0"])
        assert ds.records == (TrackRecord(id=1, radius=5e-3), TrackRecord(id=2, radius=6e-3))
        assert len(ds) == len(ds.records) == 2

    def test_report_indices_are_read_only_and_match_action_index(self):
        report = solvency_report(load_fixture())
        assert not report.n_values.flags.writeable
        assert report.n_values.tolist() == [
            action_index(r, report.momentum_used).n_real for r in report.dataset.radii.tolist()
        ]


class TestStats:
    def test_three_values(self):
        st_ = compute_stats(make(["1", "2", "3"]))
        assert st_.median_radius == pytest.approx(2e-3, rel=1e-12)
        assert st_.mean_radius == pytest.approx(2e-3, rel=1e-12)
        assert st_.sigma_radius == pytest.approx(SIGMA_1_2_3 * 1e-3, rel=1e-12)

    def test_single_value(self):
        st_ = compute_stats(make(["5"]))
        assert st_.median_radius == st_.mean_radius == 5e-3
        assert st_.sigma_radius == 0.0
        assert st_.filtered_count == 1
        assert st_.filtered_fraction == 1.0

    def test_even_count_median(self):
        st_ = compute_stats(make(["2", "4"]))
        assert st_.median_radius == pytest.approx(3e-3, rel=1e-12)

    def test_sample_sigma_flag(self):
        ds = make(["1", "2", "3"])
        population = compute_stats(ds).sigma_radius
        sample = compute_stats(ds, sample_sigma=True).sigma_radius
        assert sample == pytest.approx(1e-3, rel=1e-12)
        assert sample > population

    @given(
        st.lists(st.floats(min_value=1e-4, max_value=0.05), min_size=1, max_size=300)
    )
    @settings(deadline=None)
    def test_matches_sort_based_oracle(self, values):
        ds = parse_dataset("\n".join(repr(v) for v in values), unit="m")
        st_ = compute_stats(ds)
        ref = oracle_stats(ds.radii)
        assert st_.median_radius == pytest.approx(ref["median"], rel=1e-12)
        assert st_.mean_radius == pytest.approx(ref["mean"], rel=1e-12)
        assert st_.sigma_radius == pytest.approx(ref["sigma"], rel=1e-12, abs=1e-30)
        # band membership is discontinuous at the edges: skip the count
        # comparison when a value lies between the two routes' rounded
        # edge candidates (it is then legitimately counted differently)
        low, high = ref["mean"] - ref["sigma"], ref["mean"] + ref["sigma"]
        assume(
            not any(
                (st_.filter_low != low and min(st_.filter_low, low) <= v <= max(st_.filter_low, low))
                or (st_.filter_high != high and min(st_.filter_high, high) <= v <= max(st_.filter_high, high))
                for v in ds.radii
            )
        )
        assert st_.filtered_count == ref["filtered_count"]
        assert st_.filtered_mean_radius == pytest.approx(ref["filtered_mean"], rel=1e-12)

    @given(
        st.lists(st.floats(min_value=1e-4, max_value=0.05), min_size=1, max_size=200)
    )
    @settings(deadline=None)
    def test_filter_band_property(self, values):
        ds = parse_dataset("\n".join(repr(v) for v in values), unit="m")
        st_ = compute_stats(ds)
        inside = [r for r in ds.radii if st_.filter_low <= r <= st_.filter_high]
        assert len(inside) == st_.filtered_count
        outside = [r for r in ds.radii if not (st_.filter_low <= r <= st_.filter_high)]
        assert len(inside) + len(outside) == st_.count


class TestSolvencyReport:
    def test_aggregates_and_invariants(self):
        ds = make(["3", "6.67", "9", "12"])
        report = solvency_report(ds, momentum_source="paper", floor_n=1e12)
        assert len(report.n_values) == 4
        assert report.n_min == min(report.n_values)
        assert report.n_max == max(report.n_values)
        assert report.momentum_used == 3.26e-19
        assert report.momentum_source == "paper-stated"
        expected_median = report.stats.median_radius * 3.26e-19 / 1.0545718176461565e-34
        assert report.n_median == pytest.approx(expected_median, rel=1e-12)

    def test_derived_momentum_route(self):
        ds = make(["6.67"])
        report = solvency_report(ds, momentum_source="derived")
        assert report.momentum_source == "derived-from-spec"
        assert report.n_median == pytest.approx(6.5252287439320828e12, rel=1e-12)

    def test_custom_particle(self):
        ds = make(["6.67"])
        report = solvency_report(
            ds,
            particle=ParticleSpec(mass=2.0, kinetic_energy=1.0),
            momentum_source="derived",
        )
        assert report.momentum_used == 2.0

    def test_floor_detection(self):
        ds = make(["6.67"])
        assert solvency_report(ds, floor_n=1e12).floor_satisfied is True
        assert solvency_report(ds, floor_n=1e20).floor_satisfied is False

    def test_invalid_momentum_source(self):
        with pytest.raises(DomainError):
            solvency_report(make(["5"]), momentum_source="guess")

    def test_permutation_invariance(self):
        rows = ["3", "6.67", "9", "12", "1.5", "40"]
        shuffled = ["9", "40", "6.67", "1.5", "12", "3"]
        a = report_to_dict(solvency_report(make(rows)))
        b = report_to_dict(solvency_report(make(shuffled)))
        a.pop("tracks")
        b.pop("tracks")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestEmit:
    def test_default_format_is_json(self):
        report = solvency_report(make(["5", "6", "7"]))
        assert emit_summary(report) == emit_summary(report, "json")
        json.loads(emit_summary(report))

    def test_deterministic_bytes(self):
        report = solvency_report(make(["5", "6", "7"]))
        for fmt in ("json", "csv", "text"):
            assert emit_summary(report, fmt) == emit_summary(report, fmt)

    def test_text_contains_median_row(self):
        report = solvency_report(load_fixture())
        text = emit_summary(report, "text")
        assert "median" in text
        assert "2.06e13" in text
        assert "2.29e13" in text

    def test_csv_per_track_table(self):
        ds = make(["5", "6", "7"])
        report = solvency_report(ds)
        lines = emit_summary(report, "csv").strip().splitlines()
        assert lines[0] == "id,radius_m,n_real,n_quanta"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == 5e-3
        assert int(first[3]) == math.floor(float(first[2]))

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            emit_summary(solvency_report(make(["5"])), "yaml")


def test_sci_formatting():
    assert sci(2.0618984535860123e13) == "2.06e13"
    assert sci(2.8709788850787238e-21) == "2.87e-21"
    assert sci(1.0, 3) == "1.00e0"


class TestFixture:
    def test_builder_matches_packaged_csv(self):
        from importlib import resources

        packaged = resources.files("qtf.data").joinpath("synthetic_tracks_228.csv")
        assert packaged.read_text("utf-8") == fixture_text()

    def test_construction_targets(self):
        values = synthetic_radii_mm()
        assert len(values) == 228
        ref = oracle_stats(values)
        assert ref["median"] == 6.67
        assert ref["mean"] == pytest.approx(7.42, rel=1e-12)
        assert ref["sigma"] == pytest.approx(5.05, rel=1e-12)
        assert ref["filtered_count"] == 161
        assert ref["filtered_mean"] == pytest.approx(7.42, rel=1e-12)
        assert min(values) > 1.0
        assert max(values) == 50.0

    def test_pipeline_reproduces_published_numbers(self):
        report = solvency_report(load_fixture(), momentum_source="paper")
        st_ = report.stats
        assert st_.count == 228
        assert st_.median_radius == pytest.approx(6.67e-3, rel=1e-9)
        assert st_.sigma_radius == pytest.approx(5.05e-3, rel=1e-9)
        assert st_.filtered_count == 161
        assert report.n_median == pytest.approx(2.06e13, rel=5e-3)
        assert report.n_filtered_mean == pytest.approx(2.29e13, rel=5e-3)
        assert report.floor_satisfied is True
