"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a one-line PASS/FAIL verdict via the conftest hook.
Oracles are independent of the implementation paths they check:
extended-precision arithmetic (mpmath, 50 digits), closed-form solutions,
brute-force filters, and naive sort-based statistics.
"""

import json
import random
import time

import mpmath as mp
import pytest

from conftest import run_cli
from oracles import oracle_stats
from qtf.montecarlo import (
    AccrualConfig,
    SimConfig,
    Uniform,
    censor_at_floor,
    generate_tracks,
    lognormal_from_moments,
    run_accrual,
    sweep_prediction_1,
)
from qtf.solvency import action_index
from qtf.thermo import ThermoQuery, audit_against_paper, compute_budget
from qtf.tracks import compute_stats, fixture_path, parse_dataset

mp.mp.dps = 50

FIXTURE = str(fixture_path())


def test_c01_median_index_reproduction():
    # stated: ~2.06e13 at r = 6.67e-3 m, p = 3.26e-19 kg*m/s
    n = action_index(6.67e-3, 3.26e-19)
    assert abs(n - 2.06e13) / 2.06e13 < 0.005


def test_c02_filtered_mean_index_reproduction():
    # stated: ~2.29e13 at r = 7.42e-3 m
    n = action_index(7.42e-3, 3.26e-19)
    assert abs(n - 2.29e13) / 2.29e13 < 0.005


def test_c03_end_to_end_fixture_run():
    start = time.monotonic()
    proc = run_cli("analyze", FIXTURE, "--unit", "mm", "--momentum", "paper")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    stats = doc["stats"]
    assert stats["median_radius_m"] == pytest.approx(6.67e-3, rel=1e-9)
    assert stats["sigma_radius_m"] == pytest.approx(5.05e-3, rel=1e-9)
    # fraction within half a count of the stated 70.6% on 228 rows
    assert abs(stats["filtered_fraction"] - 0.706) <= 0.5 / 228
    assert doc["solvency"]["n_median"] == pytest.approx(2.06e13, rel=0.005)
    assert elapsed < 1.0, f"analyze took {elapsed:.3f}s"


def test_c04_landauer_bound():
    budget = compute_budget(ThermoQuery())
    per_bit, total = budget.erase_per_bit, budget.erase_total
    oracle = mp.mpf("1.380649e-23") * 300 * mp.log(2)
    assert abs(per_bit - float(oracle)) / float(oracle) < 1e-12
    # one-significant-figure agreement with the stated magnitudes
    assert f"{per_bit:.0e}" == "3e-21"
    assert f"{total:.0e}" == "3e-15"


def test_c05_min_sustain_energy():
    value = compute_budget(ThermoQuery()).min_sustain
    assert abs(value - 1.055e-31) / 1.055e-31 < 1e-3


def test_c06_dynamic_rendering_rate():
    value = compute_budget(ThermoQuery()).dynamic_rate
    assert abs(value - 3.6e11) / 3.6e11 < 1e-3


def test_c07_audit_flags_exactly_known_inconsistencies():
    records = {r.quantity: r for r in audit_against_paper(compute_budget(ThermoQuery()))}
    flagged = {name for name, r in records.items() if r.flagged}
    assert flagged == {"decoherence_rate", "per_frame"}
    assert not records["erase_per_bit"].flagged
    assert not records["erase_total"].flagged
    assert not records["min_sustain"].flagged


def test_c08_floor_property_over_randomized_censoring_runs():
    start = time.monotonic()
    rng = random.Random(20260808)
    runs = 10_000
    for run in range(runs):
        n = rng.randint(1, 40)
        if rng.random() < 0.5:
            dist = lognormal_from_moments(
                10 ** rng.uniform(-3.5, -1.5), 10 ** rng.uniform(-4.0, -2.0)
            )
        else:
            lo = 10 ** rng.uniform(-4.0, -2.0)
            dist = Uniform(lo=lo, hi=lo * rng.uniform(1.5, 50.0))
        config = SimConfig(
            seed=rng.randrange(2**63), n_tracks=n, distribution=dist
        )
        dataset = generate_tracks(config)
        momentum = 10 ** rng.uniform(-20.0, -18.0)
        radii = dataset.radii.tolist()
        ns = [action_index(r, momentum) for r in radii]
        floor = rng.uniform(0.5 * min(ns), 2.0 * max(ns))
        censored = censor_at_floor(dataset, floor, momentum)
        # zero retained tracks below the floor
        for radius in censored.radii.tolist():
            n_real = action_index(radius, momentum)
            assert n_real >= floor, f"run {run}: {n_real} < {floor}"
        # censored set equals the brute-force filter exactly
        kept = [value >= floor for value in ns]
        expected_ids = [i for i, k in zip(dataset.ids.tolist(), kept) if k]
        expected_radii = [r for r, k in zip(radii, kept) if k]
        assert censored.ids.tolist() == expected_ids, f"run {run}: censor mismatch"
        assert censored.radii.tolist() == expected_radii, f"run {run}: censor mismatch"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"{runs} runs took {elapsed:.1f}s"


def test_c09_accrual_matches_closed_form_and_sweeps_are_monotone():
    rng = random.Random(99)
    # collapsing: |t_collapse - B/(c-a)| <= dt over 100 random configs
    for _ in range(100):
        budget = rng.uniform(0.05, 20.0)
        cost = rng.uniform(0.1, 5.0)
        rate = cost * rng.uniform(0.0, 0.95)
        t_star = budget / (cost - rate)
        dt = t_star / rng.uniform(20.0, 2000.0)
        out = run_accrual(
            AccrualConfig(
                initial_budget=budget,
                budget_rate=rate,
                cost_rate=cost,
                time_step=dt,
                max_time=t_star + 10 * dt,
            )
        )
        assert out.collapsed
        assert abs(out.collapse_time - t_star) <= dt
    # non-collapsing: c <= a never collapses
    for _ in range(100):
        cost = rng.uniform(0.0, 5.0)
        out = run_accrual(
            AccrualConfig(
                initial_budget=rng.uniform(0.0, 10.0),
                budget_rate=cost + rng.uniform(0.0, 2.0),
                cost_rate=cost,
                time_step=0.05,
                max_time=10.0,
            )
        )
        assert not out.collapsed
    # sweep monotonicity in budget rate
    for _ in range(25):
        cost = rng.uniform(0.5, 4.0)
        budget = rng.uniform(0.5, 10.0)
        base = AccrualConfig(
            initial_budget=budget,
            budget_rate=0.0,
            cost_rate=cost,
            time_step=budget / (cost * 200.0),
            max_time=budget / (cost * 0.04),
        )
        rates = sorted(cost * rng.uniform(0.0, 0.95) for _ in range(6))
        times = [out.collapse_time for _, out in sweep_prediction_1(base, rates)]
        assert all(t is not None for t in times)
        assert times == sorted(times)


def test_c10_every_subcommand_is_byte_deterministic(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(
        json.dumps(
            {
                "mode": "sweep",
                "initial_budget_j": 10.0,
                "cost_rate_w": 2.0,
                "time_step_s": 0.01,
                "max_time_s": 30.0,
                "budget_rates_w": [0.0, 0.5, 1.0],
            }
        ),
        encoding="utf-8",
    )
    tracks = tmp_path / "tracks.json"
    tracks.write_text(
        json.dumps(
            {
                "mode": "tracks",
                "seed": 7,
                "n_tracks": 200,
                "distribution": {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": 5.05e-3},
            }
        ),
        encoding="utf-8",
    )
    censor = tmp_path / "censor.json"
    censor.write_text(
        json.dumps(
            {
                "mode": "censor",
                "seed": 11,
                "n_tracks": 150,
                "distribution": {"kind": "uniform", "lo_m": 1e-3, "hi_m": 2e-2},
                "floor_n": 1e12,
            }
        ),
        encoding="utf-8",
    )
    accrual = tmp_path / "accrual.json"
    accrual.write_text(
        json.dumps(
            {
                "mode": "accrual",
                "initial_budget_j": 5.0,
                "budget_rate_w": 0.5,
                "cost_rate_w": 2.0,
                "time_step_s": 0.01,
                "max_time_s": 10.0,
            }
        ),
        encoding="utf-8",
    )
    invocations = [
        ("constants", "--format", "json"),
        ("constants", "--format", "text"),
        ("analyze", FIXTURE, "--format", "json"),
        ("analyze", FIXTURE, "--format", "csv"),
        ("analyze", FIXTURE, "--format", "text"),
        ("budget", "--format", "json"),
        ("budget", "--format", "text"),
        ("simulate", str(sweep), "--format", "csv"),
        ("simulate", str(tracks), "--format", "json"),
        ("simulate", str(censor), "--format", "json"),
        ("simulate", str(accrual), "--format", "json"),
    ]
    for args in invocations:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0, args
        assert first.stdout == second.stdout, args


def test_c11_statistics_match_naive_oracle_on_random_datasets():
    rng = random.Random(1337)
    sizes = [1, 2, 10_000] + [int(10 ** rng.uniform(0.0, 4.0)) for _ in range(997)]
    for i, size in enumerate(sizes):
        values = [rng.uniform(1e-4, 5e-2) for _ in range(size)]
        ds = parse_dataset("\n".join(repr(v) for v in values), unit="m")
        stats = compute_stats(ds)

        ref = oracle_stats(values)
        low, high = ref["mean"] - ref["sigma"], ref["mean"] + ref["sigma"]

        assert stats.median_radius == pytest.approx(ref["median"], rel=1e-12), i
        assert stats.mean_radius == pytest.approx(ref["mean"], rel=1e-12), i
        assert stats.sigma_radius == pytest.approx(ref["sigma"], rel=1e-12, abs=1e-30), i
        # membership is discontinuous at the band edges: when the two
        # routes round an edge differently, any value lying between the
        # two edge candidates is legitimately counted differently
        ambiguous = any(
            (stats.filter_low != low and min(stats.filter_low, low) <= v <= max(stats.filter_low, low))
            or (stats.filter_high != high and min(stats.filter_high, high) <= v <= max(stats.filter_high, high))
            for v in values
        )
        if not ambiguous:
            assert stats.filtered_count == ref["filtered_count"], i
            assert stats.filtered_mean_radius == pytest.approx(
                ref["filtered_mean"], rel=1e-12
            ), i
