import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

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
from qtf.rng import std_normal, unit_uniform
from qtf.solvency import action_index
from qtf.tracks import parse_dataset

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

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(seed=1, n_tracks=0, distribution=LOGNORMAL_B5)
        with pytest.raises(DomainError):
            Uniform(lo=0.0, hi=1.0)
        with pytest.raises(DomainError):
            Lognormal(mu=0.0, sigma=-1.0)
        with pytest.raises(DomainError):
            lognormal_from_moments(-1.0, 1.0)

    def test_bool_and_float_fields_rejected(self):
        for bad in ({"seed": True}, {"seed": 1.0}, {"n": True}, {"n": 5.0}):
            with pytest.raises(DomainError):
                config(**bad)

    def test_overflowing_lognormal_is_domain_error(self):
        with pytest.raises(DomainError):
            generate_tracks(config(dist=Lognormal(mu=800.0, sigma=1.0), n=5))

    def test_underflowing_lognormal_is_domain_error(self):
        with pytest.raises(DomainError):
            generate_tracks(config(dist=Lognormal(mu=-800.0, sigma=1.0), n=5))

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


class TestCensor:
    def test_zero_floor_keeps_everything(self):
        ds = generate_tracks(config())
        assert censor_at_floor(ds, 0.0, 3.26e-19).records == ds.records

    def test_floor_above_all_empties(self):
        ds = generate_tracks(config())
        censored = censor_at_floor(ds, 1e300, 3.26e-19)
        assert censored.records == ()
        assert censored.rows_dropped == len(ds.records)

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(50):
            ds = generate_tracks(config(seed=rng.randrange(2**32), n=rng.randint(1, 60)))
            momentum = 10 ** rng.uniform(-20, -18)
            ns = [action_index(r.radius, momentum).n_real for r in ds.records]
            floor = rng.choice(ns) if rng.random() < 0.5 else rng.uniform(min(ns), max(ns))
            censored = censor_at_floor(ds, floor, momentum)
            expected = tuple(
                rec for rec, n in zip(ds.records, ns) if n >= floor
            )
            assert censored.records == expected

    def test_rejects_nonpositive_momentum(self):
        ds = generate_tracks(config(n=2))
        with pytest.raises(DomainError):
            censor_at_floor(ds, 1.0, 0.0)


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
            if not b.records:
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
