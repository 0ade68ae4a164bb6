import math
import random
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from oracles import ks_merge_oracle
from qtf.errors import DataError, DomainError
from qtf.montecarlo import (
    MAX_ACCRUAL_STEPS,
    AccrualConfig,
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
from qtf.rng import DRAW_BLOCK, std_normal, std_normal_range, unit_uniform
from qtf.solvency import action_index, n_real_values
from qtf.tracks import TrackDataset, parse_dataset

# Frozen before the build: 3 * 5.05e-3 / sqrt(228)
MOMENT_MATCH_BOUND = 1.0033332604767707e-3

LOGNORMAL_B5 = lognormal_from_moments(7.42e-3, 5.05e-3)


def config(seed=42, n=100, dist=LOGNORMAL_B5, **kw):
    return SimConfig(seed=seed, n_tracks=n, distribution=dist, **kw)


# Per-index definitions of the radius draws, from the scalar rng.
def lognormal_ref(dist, seed, i):
    return math.exp(dist.mu + dist.sigma * std_normal(seed, i))


def uniform_ref(dist, seed, i):
    return dist.lo + (dist.hi - dist.lo) * unit_uniform(seed, i)


SEEDS = st.integers(min_value=-(2**70), max_value=2**70 + 3)


class TestGenerate:
    def test_determinism(self):
        a = generate_tracks(config())
        b = generate_tracks(config())
        assert a == b

    def test_seed_sensitivity(self):
        assert generate_tracks(config(seed=42)) != generate_tracks(config(seed=43))

    def test_moment_matched_sample_mean(self):
        ds = generate_tracks(config(n=228))
        mean = math.fsum(ds.radii) / 228
        assert abs(mean - 7.42e-3) <= MOMENT_MATCH_BOUND

    def test_uniform_bounds(self):
        ds = generate_tracks(config(dist=Uniform(lo=1e-3, hi=5e-3), n=2000))
        assert all(1e-3 <= r < 5e-3 for r in ds.radii)

    def test_lognormal_positive(self):
        ds = generate_tracks(config(n=2000))
        assert all(r > 0 for r in ds.radii)

    def test_config_holds_only_what_the_draw_reads(self):
        assert [f.name for f in fields(SimConfig)] == ["seed", "n_tracks", "distribution"]

    def test_n_tracks_is_bounded_by_the_int32_ids(self):
        assert SimConfig(seed=1, n_tracks=2**31 - 1, distribution=LOGNORMAL_B5)
        message = r"^n_tracks must be an integer in \[1, 2147483647\], got "
        for n_tracks in (0, 2**31):
            with pytest.raises(DomainError, match=message + str(n_tracks)):
                SimConfig(seed=1, n_tracks=n_tracks, distribution=LOGNORMAL_B5)

    @pytest.mark.parametrize(
        "distribution", ["x", None, 1.0, {"kind": "uniform"}], ids=["str", "None", "float", "dict"]
    )
    def test_distribution_is_a_lognormal_or_a_uniform(self, distribution):
        message = f"distribution must be a Lognormal or a Uniform, got {distribution!r}"
        with pytest.raises(DomainError) as info:
            SimConfig(1, 5, distribution)
        assert (str(info.value), info.value.name) == (message, "distribution")

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(seed=1, n_tracks=0, distribution=LOGNORMAL_B5)
        with pytest.raises(DomainError):
            Uniform(lo=0.0, hi=1.0)
        with pytest.raises(DomainError):
            Lognormal(mu=0.0, sigma=-1.0)
        with pytest.raises(DomainError, match="^mu must be finite, got nan$") as info:
            Lognormal(mu=float("nan"), sigma=1.0)
        assert info.value.name == "mu"
        with pytest.raises(DomainError):
            lognormal_from_moments(-1.0, 1.0)

    def test_bool_and_float_fields_rejected(self):
        for bad in ({"seed": True}, {"seed": 1.0}, {"n": True}, {"n": 5.0}):
            with pytest.raises(DomainError):
                config(**bad)

    def test_overflowing_lognormal_is_domain_error(self):
        with pytest.raises(DomainError):
            generate_tracks(config(dist=Lognormal(mu=800.0, sigma=1.0), n=5))

    def test_exponents_past_the_float_range_raise_without_a_warning(self):
        # mu + sigma * z is +-inf for most draws: the draws are inf or 0,
        # numpy warns of no overflow, and the run is refused at draw 0
        big = 1.7976931348623157e308
        dist = Lognormal(mu=big, sigma=big)
        assert set(dist.sample(1, 20).tolist()) <= {0.0, math.inf}
        with pytest.raises(
            DomainError,
            match=r"^distribution produced radius (inf|0\.0) at 0; radii must be finite and > 0$",
        ):
            generate_tracks(config(seed=1, n=20, dist=dist))

    @pytest.mark.parametrize(
        "edge, radius",
        [
            (math.log(np.finfo(np.float64).max), "inf"),
            (math.log(np.finfo(np.float64).smallest_subnormal) - math.log(2.0), "0.0"),
        ],
        ids=["overflow", "underflow"],
    )
    def test_the_first_bad_radius_of_a_later_block_is_named_by_its_run_index(
        self, edge, radius
    ):
        # block 0 stays in range and block 1 holds the first draw past
        # the edge: the error names that draw's index in the run
        seed, n = 9, 3 * DRAW_BLOCK
        z = std_normal_range(seed, 2 * DRAW_BLOCK)
        sign = 1.0 if radius == "inf" else -1.0
        top = [float((sign * z[k * DRAW_BLOCK : (k + 1) * DRAW_BLOCK]).max()) for k in range(2)]
        assert top[0] < top[1]
        dist = Lognormal(mu=edge - sign * (top[0] + top[1]) / 2.0, sigma=1.0)
        radii = dist.sample(seed, n)
        bad = int(np.flatnonzero(~(np.isfinite(radii) & (radii > 0)))[0])
        assert DRAW_BLOCK <= bad < 2 * DRAW_BLOCK
        assert repr(float(radii[bad])) == radius
        with pytest.raises(DomainError) as info:
            generate_tracks(config(seed=seed, n=n, dist=dist))
        assert str(info.value) == (
            f"distribution produced radius {radius} at {bad}; radii must be finite and > 0"
        )
        # the first block alone is drawn without an error
        generate_tracks(config(seed=seed, n=DRAW_BLOCK, dist=dist))

    def test_underflowing_lognormal_is_domain_error(self):
        with pytest.raises(DomainError):
            generate_tracks(config(dist=Lognormal(mu=-800.0, sigma=1.0), n=5))

    def test_a_callers_errstate_changes_nothing(self):
        # the draws set their own floating-point error handling: a caller
        # that raises on every error gets the same radii and messages
        def outcome(dist, n):
            try:
                return generate_tracks(config(dist=dist, n=n)).radii.tolist()
            except DomainError as exc:
                return str(exc)

        cases = [
            (LOGNORMAL_B5, DRAW_BLOCK + 5),
            (Lognormal(mu=0.0, sigma=1e-310), 50),  # sigma * z underflows
            (Uniform(lo=1e-3, hi=2e-2), 50),
            (Uniform(lo=1e-310, hi=2e-310), 50),  # (hi - lo) * u underflows
            (Lognormal(mu=800.0, sigma=1.0), 5),
            (Lognormal(mu=-800.0, sigma=1.0), 5),
        ]
        plain = [outcome(*case) for case in cases]
        with np.errstate(all="raise"):
            strict = [outcome(*case) for case in cases]
        assert strict == plain
        assert plain[4].startswith("distribution produced radius inf at 0;")
        assert plain[5].startswith("distribution produced radius 0.0 at 0;")

    def test_track_i_is_draw_i(self):
        ds = generate_tracks(config(seed=-5, n=300))
        assert ds.ids.tolist() == list(range(1, 301))
        assert ds.radii.tolist() == [lognormal_ref(LOGNORMAL_B5, -5, i) for i in range(300)]

    def test_moment_matching_formulas(self):
        dist = lognormal_from_moments(7.42e-3, 5.05e-3)
        mean = math.exp(dist.mu + dist.sigma**2 / 2)
        var = (math.exp(dist.sigma**2) - 1) * math.exp(2 * dist.mu + dist.sigma**2)
        assert mean == pytest.approx(7.42e-3, rel=1e-12)
        assert math.sqrt(var) == pytest.approx(5.05e-3, rel=1e-12)


class TestBulkSampling:
    @given(
        seed=SEEDS,
        n=st.integers(min_value=0, max_value=200),
        mu=st.floats(min_value=-20.0, max_value=5.0),
        sigma=st.floats(min_value=0.0, max_value=3.0),
    )
    @example(seed=-1, n=64, mu=-5.0, sigma=0.6)
    @example(seed=2**64 - 1, n=64, mu=-5.0, sigma=0.6)
    @example(seed=2**70 + 3, n=64, mu=-5.0, sigma=0.6)
    @settings(deadline=None)
    def test_lognormal_equals_per_index_definition(self, seed, n, mu, sigma):
        dist = Lognormal(mu=mu, sigma=sigma)
        assert dist.sample(seed, n).tolist() == [lognormal_ref(dist, seed, i) for i in range(n)]

    @given(
        seed=SEEDS,
        n=st.integers(min_value=0, max_value=200),
        lo=st.floats(min_value=1e-6, max_value=1.0),
        width=st.floats(min_value=1e-3, max_value=1e3),
    )
    @example(seed=-1, n=64, lo=1e-3, width=4.0)
    @example(seed=2**64 - 1, n=64, lo=1e-3, width=4.0)
    @example(seed=2**70 + 3, n=64, lo=1e-3, width=4.0)
    @settings(deadline=None)
    def test_uniform_equals_per_index_definition(self, seed, n, lo, width):
        dist = Uniform(lo=lo, hi=lo * (1.0 + width))
        assert dist.sample(seed, n).tolist() == [uniform_ref(dist, seed, i) for i in range(n)]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize(
        "n",
        [DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 7],
        ids=["B-1", "B", "B+1", "2B+7"],
    )
    @pytest.mark.parametrize(
        "dist, ref",
        [(LOGNORMAL_B5, lognormal_ref), (Uniform(lo=1e-3, hi=2e-2), uniform_ref)],
        ids=["lognormal", "uniform"],
    )
    def test_block_boundaries_equal_per_index_definition(self, seed, n, dist, ref):
        bulk = generate_tracks(config(seed=seed, n=n, dist=dist)).radii
        expected = np.array([ref(dist, seed, i) for i in range(n)])
        assert bulk.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_generate_tracks_peak_memory_is_near_its_two_columns():
    # 16 bytes a track are the ids and radii themselves; copying the
    # columns or holding run-sized temporaries of the draws needs more
    n = 200_000
    sim = config(n=n)
    generate_tracks(config(n=10))  # lazy imports happen outside the trace
    tracemalloc.start()
    try:
        generate_tracks(sim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n


# A censor run at the benchmark's derived momentum and floor keeps about
# 62% of the tracks of the fixture's lognormal.
CENSOR_MOMENTUM = 1.0316825093021593e-19
CENSOR_FLOOR_N = 5e12


def censor_by_mask(dataset, floor_n, momentum):
    """``censor_at_floor`` as one boolean-mask gather over the whole
    dataset, the reference for its blocked gather."""
    keep = n_real_values(dataset.radii, momentum) >= floor_n
    return TrackDataset(
        ids=dataset.ids[keep],
        radii=dataset.radii[keep],
        source_label=f"{dataset.source_label}|floor={floor_n!r}",
        rows_read=len(dataset),
        rows_dropped=len(dataset) - int(keep.sum()),
    )


def columns(dataset):
    """A dataset's tracks as ``(ids, radii)`` lists."""
    return dataset.ids.tolist(), dataset.radii.tolist()


class TestCensor:
    def test_zero_floor_keeps_everything(self):
        ds = generate_tracks(config())
        assert columns(censor_at_floor(ds, 0.0, 3.26e-19)) == columns(ds)

    def test_floor_above_all_empties(self):
        ds = generate_tracks(config())
        censored = censor_at_floor(ds, 1e300, 3.26e-19)
        assert len(censored) == 0
        assert censored.rows_dropped == len(ds)

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(50):
            ds = generate_tracks(config(seed=rng.randrange(2**32), n=rng.randint(1, 60)))
            momentum = 10 ** rng.uniform(-20, -18)
            ns = [action_index(r, momentum) for r in ds.radii.tolist()]
            floor = rng.choice(ns) if rng.random() < 0.5 else rng.uniform(min(ns), max(ns))
            censored = censor_at_floor(ds, floor, momentum)
            kept = [n >= floor for n in ns]
            assert censored.ids.tolist() == [i for i, k in zip(ds.ids.tolist(), kept) if k]
            assert censored.radii.tolist() == [r for r, k in zip(ds.radii.tolist(), kept) if k]

    def test_rejects_nonpositive_momentum(self):
        ds = generate_tracks(config(n=2))
        with pytest.raises(DomainError):
            censor_at_floor(ds, 1.0, 0.0)

    @pytest.mark.parametrize("floor", [-1.0, math.nan, math.inf])
    def test_rejects_bad_floor(self, floor):
        ds = generate_tracks(config(n=2))
        with pytest.raises(DomainError, match="floor_n must be finite and >= 0"):
            censor_at_floor(ds, floor, 3.26e-19)

    def test_keeps_track_above_floor(self):
        ds = parse_dataset("6.67e-3", unit="m")
        assert action_index(6.67e-3, 3.26e-19) > 1e12
        assert columns(censor_at_floor(ds, 1e12, 3.26e-19)) == columns(ds)

    def test_drops_track_below_floor(self):
        ds = parse_dataset("1.0", unit="m")
        assert action_index(1.0, 9.9e-23) < 1e12  # n_real ~ 9.4e11
        censored = censor_at_floor(ds, 1e12, 9.9e-23)
        assert len(censored) == 0
        assert censored.rows_dropped == 1

    def test_floor_boundary_is_inclusive(self):
        # a track sitting exactly on the floor is kept; one ulp above drops it
        ds = parse_dataset("1.0", unit="m")
        n = action_index(1.0, 1e-22)
        assert columns(censor_at_floor(ds, n, 1e-22)) == columns(ds)
        assert len(censor_at_floor(ds, math.nextafter(n, math.inf), 1e-22)) == 0

    @given(
        seed=SEEDS,
        n=st.sampled_from([1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 1]),
        floor=st.one_of(
            st.sampled_from(["all", "none"]),
            st.tuples(st.just("track"), st.floats(min_value=0.0, max_value=1.0)),
        ),
        recensor=st.booleans(),
    )
    @example(seed=0, n=2 * DRAW_BLOCK + 1, floor=("track", 0.5), recensor=True)
    @settings(deadline=None, max_examples=60)
    def test_blocked_gather_equals_one_mask_gather(self, seed, n, floor, recensor):
        ds = generate_tracks(config(seed=seed, n=n))
        if recensor:  # ids no longer contiguous
            ds = censor_at_floor(ds, CENSOR_FLOOR_N, CENSOR_MOMENTUM)
        indices = n_real_values(ds.radii, CENSOR_MOMENTUM)
        if floor == "all":
            floor_n = 0.0
        elif floor == "none":
            floor_n = 1e300
        else:  # sitting on one track's index
            floor_n = float(indices[int(floor[1] * (len(ds) - 1))]) if len(ds) else 1.0
        censored = censor_at_floor(ds, floor_n, CENSOR_MOMENTUM)
        expected = censor_by_mask(ds, floor_n, CENSOR_MOMENTUM)
        assert censored.ids.dtype == np.int32 and censored.radii.dtype == np.float64
        assert censored.ids.tolist() == expected.ids.tolist()
        assert censored.radii.view(np.uint64).tolist() == expected.radii.view(np.uint64).tolist()
        assert censored.rows_read == expected.rows_read
        assert censored.rows_dropped == expected.rows_dropped
        assert type(censored.rows_dropped) is int  # as json writes it
        assert censored.source_label == expected.source_label
        for column in (censored.ids, censored.radii):
            assert not column.flags.writeable
            assert column.base is None


class TestAccrual:
    def test_closed_form_example(self):
        out = run_accrual(
            AccrualConfig(
                initial_budget=10.0, budget_rate=1.0, cost_rate=2.0,
                time_step=0.01, max_time=20.0,
            )
        )
        assert out.collapsed
        assert abs(out.collapse_time - 10.0) <= 0.01

    def test_collapse_boundary_is_strict(self):
        # the README accrual: cost equals budget exactly at step 1000
        # (t = 10.0), which holds; collapse is the next step
        config = AccrualConfig(
            initial_budget=10.0, budget_rate=1.0, cost_rate=2.0,
            time_step=0.01, max_time=20.0,
        )
        t = 1000 * config.time_step
        assert config.cost_rate * t == config.initial_budget + config.budget_rate * t
        out = run_accrual(config)
        assert out.steps_run == 1001
        assert out.collapse_time == 10.01

    def test_balanced_rates_never_collapse(self):
        out = run_accrual(
            AccrualConfig(
                initial_budget=10.0, budget_rate=2.0, cost_rate=2.0,
                time_step=0.01, max_time=50.0,
            )
        )
        assert not out.collapsed
        assert out.collapse_time is None
        assert out.steps_run == 5000

    def test_immediate_insolvency(self):
        out = run_accrual(
            AccrualConfig(
                initial_budget=0.0, budget_rate=0.0, cost_rate=1.0,
                time_step=0.01, max_time=1.0,
            )
        )
        assert out.collapsed
        assert out.steps_run == 1
        assert out.collapse_time == 0.01

    def test_random_configs_match_closed_form(self):
        rng = random.Random(8)
        for _ in range(100):
            budget = rng.uniform(0.1, 20.0)
            cost = rng.uniform(0.2, 5.0)
            rate = cost * rng.uniform(0.0, 0.9)
            t_star = budget / (cost - rate)
            dt = t_star / rng.uniform(50, 2000)
            out = run_accrual(
                AccrualConfig(
                    initial_budget=budget, budget_rate=rate, cost_rate=cost,
                    time_step=dt, max_time=t_star + 10 * dt,
                )
            )
            assert out.collapsed
            assert abs(out.collapse_time - t_star) <= dt

    def test_collapse_at_final_step_respects_max_time(self):
        # exact binary step values: collapse lands exactly on max_time
        out = run_accrual(
            AccrualConfig(
                initial_budget=0.9, budget_rate=0.0, cost_rate=1.0,
                time_step=0.25, max_time=1.0,
            )
        )
        assert out.collapsed
        assert out.steps_run == 4
        assert out.collapse_time == 1.0
        assert out.collapse_time <= 1.0

    def test_cost_at_or_below_rate_never_collapses(self):
        rng = random.Random(9)
        for _ in range(100):
            cost = rng.uniform(0.0, 5.0)
            rate = cost + rng.uniform(0.0, 3.0)
            out = run_accrual(
                AccrualConfig(
                    initial_budget=rng.uniform(0.0, 10.0), budget_rate=rate,
                    cost_rate=cost, time_step=0.05, max_time=5.0,
                )
            )
            assert not out.collapsed

    @given(
        budget=st.just(0.0) | st.floats(min_value=1e-3, max_value=100.0),
        rate=st.just(0.0) | st.floats(min_value=1e-3, max_value=10.0),
        cost=st.just(0.0) | st.floats(min_value=1e-3, max_value=10.0),
        exponent=st.integers(min_value=-60, max_value=60),
    )
    @example(budget=10.0, rate=1.0, cost=2.0, exponent=-7)  # the strict boundary
    @settings(deadline=None)
    def test_scale_invariance(self, budget, rate, cost, exponent):
        # scaling every energy by a power of two is exact (the bounds keep
        # every product clear of underflow), so it cannot move the collapse
        def outcome(k):
            return run_accrual(
                AccrualConfig(
                    initial_budget=k * budget, budget_rate=k * rate,
                    cost_rate=k * cost, time_step=0.25, max_time=50.0,
                )
            )

        assert outcome(2.0**exponent) == outcome(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            AccrualConfig(
                initial_budget=1.0, budget_rate=0.0, cost_rate=1.0,
                time_step=0.0, max_time=1.0,
            )
        with pytest.raises(DomainError):
            AccrualConfig(
                initial_budget=-1.0, budget_rate=0.0, cost_rate=1.0,
                time_step=0.1, max_time=1.0,
            )

    def test_step_cap(self):
        def config(max_time):
            return AccrualConfig(
                initial_budget=1.0, budget_rate=2.0, cost_rate=1.0,
                time_step=1.0, max_time=max_time,
            )

        assert config(float(MAX_ACCRUAL_STEPS)).n_steps == MAX_ACCRUAL_STEPS
        with pytest.raises(
            DomainError,
            match=f"accrual run of {MAX_ACCRUAL_STEPS + 1} steps exceeds the cap"
            f" of {MAX_ACCRUAL_STEPS} steps",
        ):
            config(MAX_ACCRUAL_STEPS + 1.0)
        # a run of 1e6 steps, the size the sweep benchmark uses, still runs
        assert run_accrual(config(1e6)).steps_run == 10**6

    def test_step_count_keeps_a_final_step_lost_to_division(self):
        # 33333.333/0.001 is 33333332.999999996, past the 1e-9 slack, yet
        # step 33333333's own time is exactly max_time
        config = AccrualConfig(
            initial_budget=1e30, budget_rate=0.0, cost_rate=1.0,
            time_step=0.001, max_time=33333.333,
        )
        assert 33333333 * 0.001 == 33333.333
        assert config.n_steps == 33333333

    def test_step_count_slack_is_1e_9(self):
        # 9.9999995 steps: within a 1e-6 slack of 10, not within 1e-9
        assert AccrualConfig(10, 1, 2, time_step=1.0, max_time=9.9999995).n_steps == 9

    def test_step_count_past_2_53_is_the_quotient(self):
        # (2**53 + 1) * 1.0 rounds to 2**53: without the guard a step
        # beyond max_time would be counted
        with pytest.raises(DomainError, match="accrual run of 9007199254740992 steps"):
            AccrualConfig(10, 1, 2, time_step=1.0, max_time=2.0**53)

    @given(
        time_step=st.floats(min_value=1e-4, max_value=1.0),
        ratio=st.integers(min_value=1, max_value=10**8).map(float)
        | st.floats(min_value=1.0, max_value=1e8),
    )
    @example(time_step=0.001, ratio=33333333.0)
    @example(time_step=0.1, ratio=3.0)
    @settings(deadline=None)
    def test_step_count_misses_no_step_within_max_time(self, time_step, ratio):
        max_time = time_step * ratio
        config = AccrualConfig(
            initial_budget=0.0, budget_rate=0.0, cost_rate=1.0,
            time_step=time_step, max_time=max_time,
        )
        assert (config.n_steps + 1) * time_step > max_time


class TestSweep:
    BASE = AccrualConfig(
        initial_budget=10.0, budget_rate=0.0, cost_rate=2.0,
        time_step=0.01, max_time=30.0,
    )

    def test_stated_rates(self):
        results = sweep_prediction_1(self.BASE, [0.0, 0.5, 1.0])
        times = [out.collapse_time for _, out in results]
        for actual, expected in zip(times, [5.0, 10 / 1.5, 10.0]):
            assert abs(actual - expected) <= 0.01

    def test_single_rate_equals_run_accrual(self):
        [(rate, out)] = sweep_prediction_1(self.BASE, [0.5])
        assert out == run_accrual(replace(self.BASE, budget_rate=0.5))

    def test_monotone_nondecreasing_times(self):
        rng = random.Random(11)
        for _ in range(100):
            cost = rng.uniform(0.5, 4.0)
            budget = rng.uniform(0.5, 10.0)
            rates = sorted(cost * rng.uniform(0.0, 0.95) for _ in range(5))
            base = AccrualConfig(
                initial_budget=budget, budget_rate=0.0, cost_rate=cost,
                time_step=budget / (cost * 200), max_time=budget / (cost * 0.04),
            )
            results = sweep_prediction_1(base, rates)
            times = [out.collapse_time for _, out in results if out.collapsed]
            assert len(times) == len(results)
            assert times == sorted(times)

    def test_rejects_empty_rates(self):
        with pytest.raises(DomainError):
            sweep_prediction_1(self.BASE, [])

    def test_checks_every_rate_before_the_first_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "qtf.montecarlo.run_accrual", lambda config: calls.append(config)
        )
        with pytest.raises(DomainError, match="budget_rate must be finite and >= 0"):
            sweep_prediction_1(self.BASE, [0.5, -1.0])
        assert calls == []

    def test_step_cap_covers_the_whole_sweep(self):
        # every run collapses at its first step, so only the check costs
        base = AccrualConfig(
            initial_budget=0.0, budget_rate=0.0, cost_rate=1.0,
            time_step=1.0, max_time=MAX_ACCRUAL_STEPS / 2,
        )
        results = sweep_prediction_1(base, [0.0, 0.5])
        assert [out.steps_run for _, out in results] == [1, 1]
        with pytest.raises(
            DomainError,
            match=f"sweep of 3 rates x {MAX_ACCRUAL_STEPS // 2} steps exceeds"
            f" the cap of {MAX_ACCRUAL_STEPS} steps",
        ):
            sweep_prediction_1(base, [0.0, 0.5, 0.25])


class TestKs:
    def test_identical_datasets(self):
        ds = generate_tracks(config(n=100))
        assert ks_statistic(ds, ds) == 0.0

    def test_disjoint_supports(self):
        a = parse_dataset("\n".join(["1.0"] * 100), unit="mm")
        b = parse_dataset("\n".join(["9.0"] * 100), unit="mm")
        assert ks_statistic(a, b) == 1.0

    def test_hand_computed_example(self):
        a = parse_dataset("1\n2", unit="mm")
        b = parse_dataset("1.5", unit="mm")
        assert ks_statistic(a, b) == 0.5

    def test_matches_scipy(self):
        rng = random.Random(3)
        for _ in range(25):
            a = generate_tracks(config(seed=rng.randrange(2**32), n=rng.randint(1, 80)))
            b = generate_tracks(
                config(
                    seed=rng.randrange(2**32),
                    n=rng.randint(1, 80),
                    dist=Uniform(lo=1e-3, hi=2e-2),
                )
            )
            expected = sp_stats.ks_2samp(a.radii, b.radii).statistic
            assert ks_statistic(a, b) == pytest.approx(expected, abs=1e-12)

    def test_bounded(self):
        rng = random.Random(4)
        for _ in range(20):
            a = generate_tracks(config(seed=rng.randrange(2**32), n=rng.randint(1, 40)))
            b = generate_tracks(config(seed=rng.randrange(2**32), n=rng.randint(1, 40)))
            assert 0.0 <= ks_statistic(a, b) <= 1.0

    def test_rejects_empty(self):
        ds = generate_tracks(config(n=5))
        empty = censor_at_floor(ds, 1e300, 3.26e-19)
        with pytest.raises(DataError):
            ks_statistic(ds, empty)

    def test_matches_merge_oracle_on_generated_tracks(self):
        rng = random.Random(5)
        for _ in range(50):
            a = generate_tracks(config(seed=rng.randrange(2**32), n=rng.randint(1, 300)))
            b = censor_at_floor(a, rng.uniform(0.0, 3e13), 3.26e-19)
            if not len(b):
                continue
            assert ks_statistic(a, b) == ks_merge_oracle(a, b)

    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40),
    )
    @settings(deadline=None)
    def test_matches_merge_oracle_with_ties(self, xs, ys):
        a = parse_dataset("\n".join(map(str, xs)), unit="mm")
        b = parse_dataset("\n".join(map(str, ys)), unit="mm")
        assert ks_statistic(a, b) == ks_merge_oracle(a, b)
