import hashlib
import json
from pathlib import Path

import pytest

import qtf.cli
from conftest import run_cli
from qtf.constants import get_paper_values
from qtf.tracks import fixture_path

FIXTURE = str(fixture_path())


def write_config(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SWEEP_CONFIG = {
    "mode": "sweep",
    "initial_budget_j": 10.0,
    "cost_rate_w": 2.0,
    "time_step_s": 0.01,
    "max_time_s": 30.0,
    "budget_rates_w": [0.0, 0.5, 1.0, 2.0],
}

CENSOR_CONFIG = {
    "mode": "censor",
    "seed": 42,
    "n_tracks": 228,
    "distribution": {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": 5.05e-3},
    "floor_n": 1e12,
}


class TestExitCodes:
    def test_missing_file_is_data_error(self):
        proc = run_cli("analyze", "/nonexistent/tracks.csv")
        assert proc.returncode == 2
        assert proc.stderr
        assert not proc.stdout

    def test_zero_valid_rows_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("radius_mm\n-3.0\nabc\n", encoding="utf-8")
        proc = run_cli("analyze", str(path))
        assert proc.returncode == 2

    def test_bad_flag_is_usage_error(self):
        proc = run_cli("analyze", FIXTURE, "--unit", "furlong")
        assert proc.returncode == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 1

    def test_bad_budget_domain_is_config_error(self):
        assert run_cli("budget", "--temperature", "-3").returncode == 1

    def test_invalid_config_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli("simulate", str(path)).returncode == 1

    def test_missing_config_file_is_config_error(self):
        assert run_cli("simulate", "/nonexistent/config.json").returncode == 1

    def test_unknown_config_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {**SWEEP_CONFIG, "typo_key": 1})
        assert run_cli("simulate", str(path)).returncode == 1

    def test_wrong_config_value_types_rejected(self, tmp_path):
        bad_rates = write_config(tmp_path, {**SWEEP_CONFIG, "budget_rates_w": 3})
        assert run_cli("simulate", bad_rates).returncode == 1
        bad_particle = write_config(
            tmp_path, {**CENSOR_CONFIG, "particle": "alpha"}
        )
        assert run_cli("simulate", bad_particle).returncode == 1

    def test_success_is_zero(self):
        assert run_cli("constants").returncode == 0


class TestConstantsCommand:
    def test_json_contains_both_tiers(self):
        proc = run_cli("constants", "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["constants"]["paper"]["hbar"] == 1.055e-34
        assert doc["constants"]["physical"]["hbar"] == pytest.approx(
            1.0545718176461565e-34
        )
        assert doc["manifest"]["subcommand"] == "constants"

    def test_text_format_same_values(self):
        out = run_cli("constants", "--format", "text").stdout.decode()
        assert "1.055e-34" in out
        assert "1.0545718176461565e-34" in out

    def test_repeated_runs_identical(self):
        assert run_cli("constants").stdout == run_cli("constants").stdout


class TestAnalyzeCommand:
    def test_fixture_reproduces_published_median_index(self):
        proc = run_cli("analyze", FIXTURE, "--unit", "mm", "--momentum", "paper")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["solvency"]["n_median"] == pytest.approx(2.06e13, rel=5e-3)
        assert doc["stats"]["filtered_count"] == 161
        assert doc["dataset"]["rows_read"] == 228

    def test_derived_momentum_flag(self):
        doc = json.loads(run_cli("analyze", FIXTURE, "--momentum", "derived").stdout)
        assert doc["momentum"]["source"] == "derived-from-spec"
        assert doc["solvency"]["n_median"] == pytest.approx(6.525e12, rel=1e-3)

    def test_repeated_runs_identical(self):
        args = ("analyze", FIXTURE, "--format", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_text_format(self):
        out = run_cli("analyze", FIXTURE, "--format", "text").stdout.decode()
        assert "2.06e13" in out
        assert "median" in out

    def test_csv_format(self):
        out = run_cli("analyze", FIXTURE, "--format", "csv").stdout.decode()
        lines = out.splitlines()
        assert lines[0].startswith("# manifest:")
        assert lines[1] == "id,radius_m,n_real,n_quanta"
        assert len(lines) == 230

    def test_out_flag_writes_file_only(self, tmp_path):
        out_path = tmp_path / "report.json"
        proc = run_cli("analyze", FIXTURE, "--out", str(out_path))
        assert proc.returncode == 0
        assert not proc.stdout
        doc = json.loads(out_path.read_text("utf-8"))
        assert doc["stats"]["count"] == 228

    def test_writes_nothing_without_out_flag(self, tmp_path):
        before = set(tmp_path.iterdir())
        proc = run_cli("analyze", FIXTURE, cwd=tmp_path)
        assert proc.returncode == 0
        assert set(tmp_path.iterdir()) == before

    def test_floor_flag(self):
        doc = json.loads(run_cli("analyze", FIXTURE, "--floor", "1e20").stdout)
        assert doc["solvency"]["floor_satisfied"] is False
        assert doc["solvency"]["floor_n"] == 1e20


class TestBudgetCommand:
    def test_defaults_reproduce_stated_arithmetic(self):
        doc = json.loads(run_cli("budget").stdout)
        assert doc["budget"]["erase_total"] == pytest.approx(2.871e-15, rel=1e-3)
        assert doc["budget"]["dynamic_rate"] == pytest.approx(3.6e11, rel=1e-12)
        assert doc["audit"]["applicable"] is True
        flagged = {r["quantity"] for r in doc["audit"]["records"] if r["flagged"]}
        assert flagged == {"decoherence_rate", "per_frame"}

    def test_zero_modes(self):
        doc = json.loads(run_cli("budget", "--modes", "0").stdout)
        assert doc["budget"]["coherence_cost"] == 0.0
        assert doc["audit"]["applicable"] is False

    def test_reference_table_present(self):
        doc = json.loads(run_cli("budget").stdout)
        assert doc["reference"]["asymmetry_scene_ratio"] == pytest.approx(1e4)
        assert doc["reference"]["dynamic_rate_divergence_claim_w"] == 1e25

    def test_text_table_flags(self):
        out = run_cli("budget", "--format", "text").stdout.decode()
        assert "FLAG" in out
        assert "decoherence_rate" in out

    def test_repeated_runs_identical(self):
        assert run_cli("budget").stdout == run_cli("budget").stdout


class TestSimulateCommand:
    def test_sweep_monotone(self, tmp_path):
        path = write_config(tmp_path, SWEEP_CONFIG)
        doc = json.loads(run_cli("simulate", path).stdout)
        times = [row["collapse_time_s"] for row in doc["sweep"] if row["collapsed"]]
        assert times == sorted(times)
        assert doc["sweep"][-1]["collapsed"] is False

    def test_sweep_csv(self, tmp_path):
        path = write_config(tmp_path, SWEEP_CONFIG)
        out = run_cli("simulate", path, "--format", "csv").stdout.decode()
        lines = out.splitlines()
        assert lines[1] == "budget_rate_w,collapse_time_s"
        assert lines[-1].endswith(",")  # non-collapsing rate has empty time

    def test_censor_reports_floor_satisfied(self, tmp_path):
        path = write_config(tmp_path, CENSOR_CONFIG)
        doc = json.loads(run_cli("simulate", path).stdout)
        assert doc["solvency"]["floor_satisfied"] is True
        assert doc["solvency"]["n_min"] >= 1e12
        assert doc["sim"]["mode"] == "censor"

    def test_accrual_mode(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "mode": "accrual",
                "initial_budget_j": 10.0,
                "budget_rate_w": 1.0,
                "cost_rate_w": 2.0,
                "time_step_s": 0.01,
                "max_time_s": 20.0,
            },
        )
        doc = json.loads(run_cli("simulate", path).stdout)
        assert doc["outcome"]["collapsed"] is True
        assert doc["outcome"]["collapse_time_s"] == pytest.approx(10.0, abs=0.011)

    def test_same_seed_identical_bytes(self, tmp_path):
        path = write_config(tmp_path, CENSOR_CONFIG)
        assert run_cli("simulate", path).stdout == run_cli("simulate", path).stdout

    def test_env_seed_override(self, tmp_path):
        path = write_config(tmp_path, CENSOR_CONFIG)
        default = run_cli("simulate", path)
        overridden = run_cli("simulate", path, env_extra={"QTF_SEED": "7"})
        assert default.stdout != overridden.stdout
        assert json.loads(overridden.stdout)["manifest"]["seed"] == 7

    def test_bad_env_seed_is_config_error(self, tmp_path):
        path = write_config(tmp_path, CENSOR_CONFIG)
        proc = run_cli("simulate", path, env_extra={"QTF_SEED": "not-a-number"})
        assert proc.returncode == 1

    def test_tracks_mode_with_custom_particle(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "mode": "tracks",
                "seed": 3,
                "n_tracks": 50,
                "distribution": {"kind": "uniform", "lo_m": 1e-3, "hi_m": 1e-2},
                "particle": {"mass_kg": 2.0, "kinetic_energy_j": 1.0},
                "momentum_source": "derived",
            },
        )
        doc = json.loads(run_cli("simulate", path).stdout)
        assert doc["momentum"]["value_kg_m_s"] == 2.0
        assert doc["momentum"]["source"] == "derived-from-spec"

    def test_accrual_rejects_csv_format(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "mode": "accrual",
                "initial_budget_j": 1.0,
                "budget_rate_w": 0.0,
                "cost_rate_w": 2.0,
                "time_step_s": 0.1,
                "max_time_s": 1.0,
            },
        )
        assert run_cli("simulate", path, "--format", "csv").returncode == 1

    def test_sweep_text_format(self, tmp_path):
        path = write_config(tmp_path, SWEEP_CONFIG)
        out = run_cli("simulate", path, "--format", "text").stdout.decode()
        assert "budget_rate_w" in out
        assert "-" in out.splitlines()[-1]  # non-collapsing rate

    def test_workers_excluded_from_manifest(self, tmp_path):
        serial = write_config(tmp_path, {**CENSOR_CONFIG, "workers": 1})
        threaded = tmp_path / "threaded.json"
        threaded.write_text(
            json.dumps({**CENSOR_CONFIG, "workers": 4}), encoding="utf-8"
        )
        out_serial = run_cli("simulate", serial).stdout
        out_threaded = run_cli("simulate", str(threaded)).stdout
        # identical report apart from the config-file digest
        doc_a = json.loads(out_serial)
        doc_b = json.loads(out_threaded)
        doc_a["manifest"].pop("input_digest")
        doc_b["manifest"].pop("input_digest")
        assert doc_a == doc_b


class TestReportSchema:
    def test_analyze_json_schema(self):
        doc = json.loads(run_cli("analyze", FIXTURE).stdout)
        assert set(doc) == {"manifest", "dataset", "momentum", "stats", "solvency", "tracks"}
        manifest = doc["manifest"]
        assert set(manifest) == {
            "tool_version",
            "subcommand",
            "resolved_config",
            "input_digest",
            "seed",
        }
        assert isinstance(manifest["input_digest"], str)
        assert len(manifest["input_digest"]) == 64
        track = doc["tracks"][0]
        assert set(track) == {"id", "radius_m", "n_real", "n_quanta"}

    def test_budget_json_schema(self):
        doc = json.loads(run_cli("budget").stdout)
        assert set(doc) == {"manifest", "query", "budget", "audit", "reference"}
        record = doc["audit"]["records"][0]
        assert set(record) == {"quantity", "computed", "stated", "relative_gap", "flagged"}


class TestConfigHardening:
    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 1.9},
            {"n_tracks": 2.7},
            {"seed": 1.9, "n_tracks": 2.7},
            {"seed": True},
            {"n_tracks": True},
            {"seed": "42"},
            {"workers": 1.5},
            {"workers": True},
        ],
    )
    def test_non_integral_or_boolean_values_rejected(self, tmp_path, override):
        proc = run_cli("simulate", write_config(tmp_path, {**CENSOR_CONFIG, **override}))
        assert proc.returncode == 1
        assert b"must be an integer" in proc.stderr
        assert not proc.stdout

    def test_integral_floats_accepted(self, tmp_path):
        exact = json.loads(run_cli("simulate", write_config(tmp_path, CENSOR_CONFIG)).stdout)
        floats = {**CENSOR_CONFIG, "seed": 42.0, "n_tracks": 228.0, "workers": 2.0}
        doc = json.loads(run_cli("simulate", write_config(tmp_path, floats)).stdout)
        assert doc["manifest"]["seed"] == 42
        assert doc["tracks"] == exact["tracks"]

    def test_overflowing_lognormal_is_config_error(self, tmp_path):
        config = {
            **CENSOR_CONFIG,
            "distribution": {"kind": "lognormal", "mu": 800, "sigma": 1},
        }
        proc = run_cli("simulate", write_config(tmp_path, config))
        assert proc.returncode == 1
        assert b"overflow" in proc.stderr
        assert b"Traceback" not in proc.stderr


class TestOneSourcePerDefault:
    def test_analyze_floor_default_is_the_paper_floor(self):
        args = qtf.cli._build_parser().parse_args(["analyze", FIXTURE])
        assert args.floor == get_paper_values().floor_n

    def test_censor_mode_builds_one_report(self, tmp_path, monkeypatch):
        calls = []
        original = qtf.cli.solvency_report

        def counting(dataset, *args, **kwargs):
            calls.append(len(dataset))
            return original(dataset, *args, **kwargs)

        monkeypatch.setattr(qtf.cli, "solvency_report", counting)
        out = tmp_path / "report.json"
        config = write_config(tmp_path, {**CENSOR_CONFIG, "floor_n": 2e13})
        assert qtf.cli.main(["simulate", config, "--out", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert calls == [doc["dataset"]["count"]]
        assert 0 < doc["dataset"]["count"] < CENSOR_CONFIG["n_tracks"]


# SHA-256 of simulate reports, recorded before the columnar rewrite of
# track generation, censoring and reporting; the rewrite must not move a
# byte of them.
GOLDEN_CONFIGS = {
    "lognormal": {
        "seed": 11,
        "n_tracks": 228,
        "distribution": {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": 5.05e-3},
        "momentum_source": "derived",
        "floor_n": 5e12,
    },
    "uniform": {
        "seed": 11,
        "n_tracks": 228,
        "distribution": {"kind": "uniform", "lo_m": 1e-4, "hi_m": 2e-3},
        "floor_n": 1e12,
    },
}
GOLDEN_SHA256 = {
    ("lognormal", "tracks", "json"): "0216b28c872c3eb2628739a04abfe62cff1b9d1325e6dc5a2447affa0c27b649",
    ("lognormal", "tracks", "csv"): "fe6a1038c3edf260b9fba9f9ccd5b5d9d458388f0d61e2dc864ffc42a087f64f",
    ("lognormal", "tracks", "text"): "e15fd2f2b320c9536467872ecba4f866a276defdc4b90758afc090a26ba15983",
    ("lognormal", "censor", "json"): "71cff248a4a28d2bb1ffedc2ebaff95cc81231badafb3646e0cb2e6f3365e2d4",
    ("lognormal", "censor", "csv"): "50dcae0a77d25cc8ce7a11ab4053f249d2c921e9b55e6506cd86c782fe56b6ce",
    ("lognormal", "censor", "text"): "e92cb3098e92f4f1139c76d74bd5329a7ba673762195ac5d976fa2b7f6863641",
    ("uniform", "tracks", "json"): "50120e92e6221093e72a9f27ae9056ba82cc38f4a320f20d621282cc93bda275",
    ("uniform", "tracks", "csv"): "4909f8dc2d7fde7365b9ae1d5aa6ec57e251709d2fff04bbb56cdd783df9b8aa",
    ("uniform", "tracks", "text"): "5c2528a660e2f68fe26a5e95707d9843e81045190773c3e0364e75b9ca61ebe4",
    ("uniform", "censor", "json"): "d29310db62c329e836d01ee5a01d5c9abddae94b227807dcdd0e8baf90db2ae2",
    ("uniform", "censor", "csv"): "64803239f0e41ff396351ee151cc2e18d53811689ab44823d9b4b056fa8a4eb0",
    ("uniform", "censor", "text"): "bf253d279534a3fbbe7cce3c9fe0755c1df8ee55818f870d1ec95ab2b55f52ce",
}


@pytest.mark.parametrize("dist, mode, fmt", sorted(GOLDEN_SHA256))
def test_simulate_report_bytes_are_golden(tmp_path, dist, mode, fmt):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": mode, **GOLDEN_CONFIGS[dist]}), encoding="utf-8")
    out = tmp_path / "report"
    assert qtf.cli.main(["simulate", str(config), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[dist, mode, fmt]
