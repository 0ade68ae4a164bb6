import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fixture_builder import fixture_text, synthetic_radii_mm
from oracles import mask_stats, oracle_stats
import qtf.tracks
from qtf.constants import PHYSICAL
from qtf.errors import DataError, DomainError
from qtf.montecarlo import SimConfig, Uniform, censor_at_floor, generate_tracks
from qtf.solvency import ParticleSpec, action_index, momentum_from_energy, n_real_values
from qtf.tracks import (
    TrackDataset,
    compute_stats,
    emit_summary,
    fixture_path,
    parse_dataset,
    report_to_dict,
    sci,
    solvency_report,
)

# Frozen hand oracle: population sigma of [1, 2, 3] is sqrt(2/3).
SIGMA_1_2_3 = 0.8164965809277260


def load_fixture():
    return parse_dataset(fixture_path().read_bytes(), source_label="fixture")


def make(rows, unit="mm"):
    return parse_dataset("\n".join(rows), unit=unit)


def caller_columns(kind):
    """Ids [1, 2] and radii [0.5, 0.25] as ``kind`` of input to the
    constructor, and the two lists or arrays through which their caller
    can still write them."""
    ids, radii = [1, 2], [0.5, 0.25]
    if kind == "list":
        return (ids, radii), (ids, radii)
    if kind == "writable":
        columns = np.array(ids), np.array(radii)
        return columns, columns
    if kind == "read-only view":
        bases = np.array([*ids, 3]), np.array([*radii, 0.125])
        views = bases[0][:2], bases[1][:2]
    else:
        dtypes = (np.int32, np.float64) if kind == "read-only owner" else (np.int64, np.float32)
        views = bases = np.array(ids, dtype=dtypes[0]), np.array(radii, dtype=dtypes[1])
    for view in views:
        view.flags.writeable = False
    return views, bases


class TestParse:
    def test_mixed_rows(self):
        ds = make(["5.0", "", "abc", "12.5"])
        assert ds.radii.tolist() == [0.005, 0.0125]
        assert ds.rows_read == 4
        assert ds.rows_dropped == 2
        assert ds.ids.tolist() == [1, 2]

    def test_millimeter_conversion(self):
        ds = make(["6.67"])
        assert ds.radii[0] == 6.67e-3

    def test_meter_unit(self):
        ds = make(["6.67"], unit="m")
        assert ds.radii[0] == 6.67

    def test_nonpositive_rows_rejected(self):
        with pytest.raises(DataError):
            make(["-3.0"])
        ds = make(["-3.0", "0", "2.0"])
        assert len(ds) == 1
        assert ds.rows_dropped == 2

    def test_header_autodetected(self):
        ds = make(["radius_mm", "5.0", "6.0"])
        assert ds.rows_read == 2
        assert ds.rows_dropped == 0

    def test_leading_blank_row_is_not_the_header(self):
        # the first row is the blank one: it and the header row are both
        # read and dropped, where a header found past it would give 3 and 1
        ds = parse_dataset("\nradius_mm\n1.0\n2.0\n")
        assert (ds.rows_read, ds.rows_dropped) == (4, 2)

    def test_comments_ignored(self):
        ds = make(["# a comment", "5.0", "# another", "6.0"])
        assert ds.rows_read == 2
        assert len(ds) == 2

    def test_non_finite_rows_dropped(self):
        ds = make(["inf", "nan", "5.0"])
        assert len(ds) == 1
        assert ds.rows_dropped == 2

    @pytest.mark.parametrize("row", ["1_5", "١٢", "1_000.5", "１２", "5e1_0"])
    def test_underscores_and_non_ascii_digits_are_non_numeric(self, row):
        ds = make(["5.0", row, "6.0"])
        assert ds.radii.tolist() == [0.005, 0.006]
        assert ds.rows_read == 3
        assert ds.rows_dropped == 1

    @pytest.mark.parametrize(
        "row", ["12", "+12", "-1.5", ".5", "5.", "7.42e-3", "7E2", "NaN", "-inf", "Infinity"]
    )
    def test_ascii_decimal_and_non_finite_spellings_are_numeric(self, row):
        # A numeric first row is data, never a header.
        ds = make([row, "6.0"])
        assert ds.rows_read == 2

    def test_undecodable_bytes(self):
        with pytest.raises(DataError):
            parse_dataset(b"\xff\xfe\x00bad", unit="mm")

    def test_empty_input(self):
        with pytest.raises(DataError):
            parse_dataset("", unit="mm")

    def test_bad_unit(self):
        with pytest.raises(DomainError):
            parse_dataset("5.0", unit="cm")

    def test_byte_order_mark_is_ignored(self):
        # a BOM before a number must not turn that row into a header
        ds = parse_dataset(b"\xef\xbb\xbf5\n6\n")
        assert (ds.rows_read, len(ds)) == (2, 2)
        assert parse_dataset("\ufeff5\n6\n") == ds
        with_bom = parse_dataset(b"\xef\xbb\xbfradius_mm\n5\n6\n")
        without = parse_dataset(b"radius_mm\n5\n6\n")
        assert report_to_dict(solvency_report(with_bom)) == report_to_dict(
            solvency_report(without)
        )

    def test_radius_that_underflows_to_zero_meters_is_dropped(self, monkeypatch):
        # 1e-322 mm is 0 m: a non-positive radius, dropped and not numbered
        ds = parse_dataset("1e-322\n2.5\n")
        assert (ds.rows_read, ds.rows_dropped) == (2, 1)
        assert ds.ids.tolist() == [1]
        assert ds.radii.tolist() == [2.5e-3]
        # in meters the same row is a subnormal radius, and is kept
        ds = parse_dataset("1e-322\n2.5\n", unit="m")
        assert (ds.rows_read, ds.rows_dropped) == (2, 0)
        assert ds.radii.tolist() == [1e-322, 2.5]
        with pytest.raises(DataError, match="no valid radius rows"):
            parse_dataset("1e-322\n2e-322\n")
        # the track limit counts the rows that are kept
        monkeypatch.setattr(qtf.tracks, "MAX_TRACKS", 2)
        assert len(make(["5.0", "1e-322", "6.0"])) == 2

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
        for rm, rmm in zip(as_m.radii.tolist(), as_mm.radii.tolist()):
            assert rmm == rm / 1e3


class TestColumnarDataset:
    def test_columns_are_read_only(self):
        ds = make(["5.0", "6.0"])
        for column in (ds.ids, ds.radii):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1

    @staticmethod
    def _dataset(ids, radii):
        return TrackDataset(
            ids=ids, radii=radii, source_label="", rows_read=len(ids), rows_dropped=0
        )

    @pytest.mark.parametrize(
        "kind", ["list", "writable", "read-only view", "read-only owner", "other dtype"]
    )
    def test_constructor_never_shares_a_callers_array(self, kind):
        given, owners = caller_columns(kind)
        ds = self._dataset(*given)
        for owner, value in zip(owners, (-7, -5.0)):
            if isinstance(owner, np.ndarray):  # numpy lets an owner write again
                owner.flags.writeable = True
            owner[0] = value
        assert ds.ids.tolist() == [1, 2] and ds.radii.tolist() == [0.5, 0.25]
        assert ds.ids.dtype == np.int32 and ds.radii.dtype == np.float64
        assert not ds.ids.flags.writeable and not ds.radii.flags.writeable

    # a real number is a float, or an int that is not a bool
    @pytest.mark.parametrize(
        "radius, rule",
        [
            (-1e-3, "finite and > 0"),
            (0.0, "finite and > 0"),
            (math.nan, "finite and > 0"),
            (math.inf, "finite and > 0"),
            ("a", "a real number"),
            (1j, "a real number"),
            (None, "a real number"),
            (True, "a real number"),
            ("0.5", "a real number"),
            (b"2", "a real number"),
            (10**400, "in the float range"),
        ],
        ids=["-0.001", "0.0", "nan", "inf", "a", "1j", "None", "True", "'0.5'", "b'2'", "10**400"],
    )
    def test_a_radius_not_finite_and_positive_is_refused(self, radius, rule):
        with pytest.raises(DataError) as info:
            self._dataset([1, 2, 3], [2e-3, radius, -1.0])
        assert str(info.value) == f"track radius {radius!r} is not {rule}"

    def test_producers_hand_over_read_only_columns_they_alone_own(self):
        # "1e-322" mm underflows to 0 m: dropped from the column after it is built
        parsed = parse_dataset("5.0\n0\n1e-322\n6.0", unit="mm")
        generated = generate_tracks(SimConfig(7, 100, Uniform(1e-3, 2e-2)))
        censored = censor_at_floor(generated, 5e12, 3.26e-19)
        for ds in (parsed, generated, censored):
            for column in (ds.ids, ds.radii):
                assert not column.flags.writeable and column.base is None

    def test_column_lengths_must_agree(self):
        with pytest.raises(DataError):
            TrackDataset(ids=[1, 2], radii=[0.5], source_label="", rows_read=2, rows_dropped=0)
        with pytest.raises(DataError):
            TrackDataset(ids=[1], radii=[0.5], source_label="", rows_read=2, rows_dropped=0)

    @pytest.mark.parametrize(
        "ids, named",
        [
            ([1.5], "1.5"),
            (np.array([2**40, 5]), "1099511627776"),  # a plain cast gives 0
            ([7, 2**31], "2147483648"),
            ([-1, 2**31], "2147483648"),  # a negative id is in range
            ([-(2**31) - 1], "-2147483649"),
            ([float("nan")], "nan"),
            ([1.0, 2.5], "2.5"),
            (["a"], "'a'"),
            # a bool is not an integer id, though a cast reads it as 0 or 1
            ([True], "True"),
            ([1, False], "False"),  # np.asarray would make it an int 0
            (np.array([True, False]), "True"),
            ([np.bool_(True)], repr(np.bool_(True))),
        ],
    )
    def test_ids_an_int32_cannot_hold_are_refused(self, ids, named):
        with pytest.raises(DataError, match=rf"^track id {named} is not an integer in \["):
            self._dataset(ids, [0.5] * len(ids))

    def test_integral_ids_in_the_int32_range_are_kept(self):
        ds = self._dataset([-(2**31), 2.0, 2**31 - 1], [0.5, 0.25, 0.125])
        assert ds.ids.dtype == np.int32
        assert ds.ids.tolist() == [-(2**31), 2, 2**31 - 1]

    def test_numpy_scalars_are_real_numbers(self):
        ds = self._dataset([np.int64(3), np.float32(4.0)], [np.float32(0.5), np.int8(2)])
        assert ds.ids.tolist() == [3, 4] and ds.radii.tolist() == [0.5, 2.0]

    def test_equality_compares_columns_and_provenance(self):
        assert make(["5.0", "6.0"]) == make(["5.0", "6.0"])
        assert make(["5.0", "6.0"]) != make(["5.0", "6.5"])
        assert make(["5.0", "6.0"]) != make(["5.0", "6.0", "x"])  # one row dropped
        assert make(["5.0"]) != parse_dataset("5.0", unit="mm", source_label="other")
        # a value that is not a dataset is left to the other side's __eq__
        assert make(["5.0"]).__eq__(5) is NotImplemented
        assert (make(["5.0"]) == 5) is False

    def test_records_are_derived_from_the_columns(self):
        ds = make(["5.0", "abc", "6.0"])
        assert ds.records == tuple(zip(ds.ids.tolist(), ds.radii.tolist()))
        assert ds.records == ((1, 5e-3), (2, 6e-3))
        assert len(ds) == len(ds) == 2

    def test_report_indices_are_read_only_and_match_action_index(self):
        report = solvency_report(load_fixture())
        assert not report.n_values.flags.writeable
        assert report.n_values.tolist() == [
            action_index(r, report.momentum_used) for r in report.dataset.radii.tolist()
        ]


def test_parse_refuses_more_valid_rows_than_int32_ids_number(monkeypatch):
    monkeypatch.setattr(qtf.tracks, "MAX_TRACKS", 2)
    assert len(make(["5.0", "x", "6.0"])) == 2
    with pytest.raises(DataError, match=r"^3 valid radius rows exceed the limit of 2 tracks"):
        make(["5.0", "x", "6.0", "7.0"])


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

    @pytest.mark.parametrize(
        "rows, statistic",
        [(["1e308", "1.5e308"], "mean"), (["1e-3", "1e160"], "sigma")],
    )
    def test_overflowing_statistic_is_domain_error(self, rows, statistic):
        with pytest.raises(DomainError, match=f"radius {statistic} overflows"):
            compute_stats(make(rows, unit="m"))

    @pytest.mark.parametrize(
        "rows", [["1e-300", "2e-300"], ["1e-160", "2e-160"]], ids=["1e-300", "1e-160"]
    )
    def test_underflowing_sigma_is_domain_error(self, rows):
        # the variance falls below the smallest normal float: sigma would
        # read 0.0 (1e-300) or 4.99997e-161 (1e-160) and empty the band;
        # a caller's np.errstate does not turn the error into another
        dataset = make(rows, unit="m")
        with pytest.raises(DomainError) as info, np.errstate(all="raise"):
            compute_stats(dataset)
        assert str(info.value) == (
            f"radius sigma underflows the float range (smallest radius {rows[0]} m)"
        )

    @pytest.mark.parametrize(
        "rows, sigma",
        [(["1e-150", "2e-150"], 5e-151), (["1e-300", "1e-300"], 0.0)],
        ids=["1e-150", "equal"],
    )
    def test_sigma_above_the_underflow_edge_or_of_equal_radii(self, rows, sigma):
        assert compute_stats(make(rows, unit="m")).sigma_radius == sigma

    @given(
        st.lists(st.floats(min_value=1e-4, max_value=0.05), min_size=1, max_size=300)
    )
    # the band [0.010049341238349087, 0.07663929433424702] holds neither
    # radius, so the in-band mean falls back to the mean, not to the band's edge
    @example([0.010049341238349085, 0.07663929433424703])
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


# Multiples of 2**-8 m: sums and means stay exact often enough that
# ties and values sitting exactly on a band edge are common.
DYADIC_RADII = st.lists(
    st.integers(1, 6).map(lambda k: k * 2.0**-8), min_size=1, max_size=40
)
FREE_RADII = st.lists(st.floats(min_value=1e-4, max_value=0.05), min_size=1, max_size=300)


class TestStatsOracle:
    @given(st.one_of(DYADIC_RADII, FREE_RADII))
    @example([0.25])
    @example([0.25, 0.75])
    @example([0.25, 0.25, 0.75, 0.75])
    @example([0.25, 0.5, 0.5, 0.75])
    @settings(deadline=None)
    def test_median_and_band_equal_np_median_and_mask(self, values):
        ds = TrackDataset(
            ids=np.arange(1, len(values) + 1),
            radii=values,
            source_label="",
            rows_read=len(values),
            rows_dropped=0,
        )
        st_ = compute_stats(ds)
        ref = mask_stats(ds.radii)
        assert st_.median_radius == ref["median"]
        assert st_.filtered_count == ref["filtered_count"]
        assert st_.filtered_fraction == ref["filtered_fraction"]
        assert st_.filtered_mean_radius == ref["filtered_mean"]

    def test_values_on_both_band_edges_are_kept(self):
        # mean 0.5 and sigma 0.25 are exact: two values sit on each edge
        values = [0.25, 0.25, 0.75, 0.75]
        st_ = compute_stats(make([repr(v) for v in values], unit="m"))
        assert (st_.filter_low, st_.filter_high) == (0.25, 0.75)
        assert st_.filtered_count == 4
        assert st_.filtered_mean_radius == 0.5


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

    def test_particle_with_the_paper_route_is_rejected(self):
        # the stated momentum never reads the particle
        with pytest.raises(DomainError, match="particle is used only by the derived"):
            solvency_report(
                make(["6.67"]),
                particle=ParticleSpec(mass=2.0, kinetic_energy=1.0),
                momentum_source="paper",
            )

    @pytest.mark.parametrize("label", ["paper-stated", "derived-from-spec"])
    def test_a_report_label_is_not_a_momentum_route(self, label):
        with pytest.raises(DomainError) as info:
            solvency_report(make(["6.67"]), momentum_source=label)
        assert str(info.value) == (
            f"momentum_source must be one of ['derived', 'paper'], got {label!r}")

    def test_floor_detection(self):
        ds = make(["6.67"])
        assert solvency_report(ds, floor_n=1e12).floor_satisfied is True
        assert solvency_report(ds, floor_n=1e20).floor_satisfied is False
        # the floor is inclusive: a minimum sitting on it satisfies it
        n_min = solvency_report(ds).n_min
        assert solvency_report(ds, floor_n=n_min).floor_satisfied is True

    # Radii a few ulps either side of float_max * hbar / p, the edge of a
    # finite index, and fractions of it.  The momentum keeps the radii
    # small enough that their statistics stay in the float range.
    @given(
        mass=st.floats(min_value=1e250, max_value=1e300),
        ulps=st.lists(st.integers(-8, 8), min_size=1, max_size=6),
        fractions=st.lists(st.floats(min_value=1e-3, max_value=1.0), max_size=6),
    )
    @example(mass=1e250, ulps=[-8], fractions=[0.5])
    @example(mass=1e250, ulps=[8], fractions=[0.5])
    @example(mass=1e250, ulps=[0] * 6, fractions=[])
    @settings(deadline=None)
    def test_index_is_checked_at_the_ends(self, mass, ulps, fractions):
        particle = ParticleSpec(mass=mass, kinetic_energy=1.0)
        momentum = momentum_from_energy(particle)
        edge = np.finfo(np.float64).max * PHYSICAL["hbar"] / momentum
        near = (np.array([edge]).view(np.int64) + np.array(ulps)).view(np.float64)
        radii = np.concatenate((near, np.array(fractions) * edge))
        ds = TrackDataset(
            ids=np.arange(1, radii.size + 1),
            radii=radii,
            source_label="",
            rows_read=radii.size,
            rows_dropped=0,
        )
        # fl(fl(r*p)/hbar) is monotone in r
        finite = np.isfinite(n_real_values(radii, momentum)).all()
        assert finite == np.isfinite(n_real_values(radii.max(), momentum))
        if not finite:
            with pytest.raises(DomainError, match="r\\*p/hbar is not finite for radius"):
                solvency_report(ds, particle=particle, momentum_source="derived")
            return
        report = solvency_report(ds, particle=particle, momentum_source="derived")
        assert report.n_min == n_real_values(radii.min(), momentum)
        assert report.n_max == n_real_values(radii.max(), momentum)
        # A mean of radii on the edge can round one ulp past them, even to
        # an infinite index: the report clips the centre indices into the
        # track range and otherwise agrees with the scalar definition.
        stats = report.stats
        centers = (
            (stats.median_radius, report.n_median),
            (stats.filtered_mean_radius, report.n_filtered_mean),
        )
        for radius, n in centers:
            assert report.n_min <= n <= report.n_max
            try:
                exact = action_index(radius, momentum)
            except DomainError:
                continue
            if report.n_min <= exact <= report.n_max:
                assert n == exact

    def test_empty_dataset_is_a_data_error(self):
        empty = TrackDataset(ids=[], radii=[], source_label="", rows_read=1, rows_dropped=1)
        with pytest.raises(DataError, match="empty dataset"):
            solvency_report(empty)

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
    def test_deterministic_bytes(self):
        report = solvency_report(make(["5", "6", "7"]))
        for fmt in ("csv", "text"):
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

    @given(
        radii=st.lists(st.floats(min_value=1e-12, max_value=1e12), min_size=1, max_size=20),
        momentum=st.floats(min_value=1e-22, max_value=1e-18),
    )
    @settings(deadline=None)
    def test_quantization_invariants(self, radii, momentum):
        # both track tables hold n_quanta = floor(n_real), never rounded
        ds = parse_dataset("\n".join(map(repr, radii)), unit="m")
        particle = ParticleSpec(mass=momentum**2 / 2, kinetic_energy=1.0)
        report = solvency_report(ds, particle=particle, momentum_source="derived")
        rows = [line.split(",") for line in emit_summary(report, "csv").splitlines()[1:]]
        tracks = report_to_dict(report)["tracks"]
        assert [int(row[3]) for row in rows] == [t["n_quanta"] for t in tracks]
        for track, n in zip(tracks, report.n_values.tolist()):
            assert track["n_real"] == n
            assert track["n_quanta"] == math.floor(n)
            assert track["n_quanta"] <= n < track["n_quanta"] + 1

    def test_unknown_format(self):
        report = solvency_report(make(["5"]))
        # json included: the CLI renders report_to_dict, not emit_summary
        for fmt in ("yaml", "json"):
            with pytest.raises(DomainError):
                emit_summary(report, fmt)


def test_sci_formatting():
    assert sci(2.0618984535860123e13) == "2.06e13"
    assert sci(2.8709788850787238e-21) == "2.87e-21"
    assert sci(1.0) == "1.00e0"


class TestFixture:
    def test_builder_matches_packaged_csv(self):
        assert fixture_path().read_text("utf-8") == fixture_text()

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
