"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench

It lives beside the benchmark, outside the repository's ``tests``
directory, so the unit-test run does not pick it up.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads
from spans import PER_LAYER

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
def test_workload_runs_and_checks_at_tiny_size(name, trace):
    record = run.run_workload(name, seed=3, seconds=0.01, trace=trace, sizes=workloads.TINY)
    result = record["result"]
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        measured, metrics = record["measured"], result["metrics"]
        scale = record["wall_scale"]
        assert metrics["wall_s_p50"]["value"] == pytest.approx(measured["wall_s_p50"] * scale)
        assert metrics["items_per_s"]["value"] == pytest.approx(measured["items_per_s"] / scale)


def test_inputs_depend_on_the_seed_alone(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    assert workloads.write_radius_file(a, 500, 7) == workloads.write_radius_file(b, 500, 7)
    assert a.read_bytes() == b.read_bytes()
    workloads.write_radius_file(c, 500, 8)
    assert a.read_bytes() != c.read_bytes()


def test_checks_reject_wrong_reports(tmp_path):
    fixture = run.ROOT / "src" / "qtf" / "data" / "synthetic_tracks_228.csv"
    workload, _ = workloads.build("cli-mix", 1, tmp_path, fixture)
    budget = next(inv for inv in workload.round if inv.name == "budget-text")
    with pytest.raises(workloads.CheckFailed):
        budget.check(b"# manifest: {}\nerase_per_bit 3e-21 3e-21 0.01 FLAG\n")
    sweep = workloads.check_sweep_csv(workloads.README_SWEEP)
    good = b"# manifest: {}\nbudget_rate_w,collapse_time_s\n0.0,5.0\n0.5,6.67\n1.0,10.0\n"
    assert sweep(good) == 500 + 667 + 1000
    with pytest.raises(workloads.CheckFailed):
        sweep(good.replace(b"6.67", b"6.7"))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_analyze_json(10, 1)(b'{"dataset": {"rows_read": 10, "rows_dropped": 2}}')


def test_tail_keeps_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == (4.0, pytest.approx(400 / 6), 2)


def test_checkout_without_source_is_refused(tmp_path: Path):
    with pytest.raises(run.BenchError):
        run.run_workload("sweep-1e6", 1, 0.01, False, root=tmp_path)
