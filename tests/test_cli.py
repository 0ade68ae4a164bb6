import gc
import hashlib
import json
import os
import random
import re
import shutil
import sys
from pathlib import Path

import pytest

import qtf.cli
import qtf.montecarlo
import qtf.tracks
from conftest import HAS_BUILTIN_SHA256, run_cli
from qtf.constants import PAPER_INPUT
from qtf.errors import DomainError
from qtf.solvency import action_index
from qtf.tracks import FIXTURE_NAME, fixture_path

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["budget", "--temperature", "abc"],
             "argument --temperature: invalid float value: 'abc'"),
            (["analyze", FIXTURE, "--floor", "-x"], "argument --floor: expected one argument"),
            ([], "the following arguments are required: subcommand"),
            (["budget", "--temperature=--"], "argument --temperature: expected one argument"),
            (["budget", "--out=--"], "argument --out: expected one argument"),
        ],
        ids=["invalid-float", "option-like-value", "bare", "dashes-float", "dashes-out"],
    )
    def test_usage_error_is_one_line_and_exit_1(self, capsys, argv, message):
        assert qtf.cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"qtf: error: {message}\n"
        assert not captured.out

    # every character str.splitlines breaks on (none lies above U+2029)
    LINE_BREAKS = "".join(
        chr(i) for i in range(0x3000) if len(f"a{chr(i)}b".splitlines()) == 2
    )

    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (["budget", "{v}"], 1, "qtf: error: unrecognized arguments: "),
            (["simulate", "{v}"], 1, "qtf: error: cannot read config "),
            (["analyze", "{v}"], 2, "qtf: data error: cannot read "),
            (["constants", "--out", "{missing}/{v}"], 1, "qtf: error: cannot write "),
        ],
        ids=["argv", "config-path", "radius-path", "out-path"],
    )
    def test_line_breaks_in_a_value_keep_the_error_one_line(
        self, capsys, tmp_path, argv, code, prefix
    ):
        value = "a" + self.LINE_BREAKS + "b"
        argv = [a.format(v=value, missing=tmp_path / "missing") for a in argv]
        assert qtf.cli.main(argv) == code
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(prefix)
        assert "a\\n\\x0b\\x0c\\r\\x1c\\x1d\\x1e\\x85\\u2028\\u2029b" in line
        assert captured.err == line + "\n"
        assert not captured.out

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_return_0(self, capsys, flag):
        assert qtf.cli.main([flag]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "subcommand", [[], ["constants"], ["analyze"], ["budget"], ["simulate"]]
    )
    def test_help_shows_no_markup_or_private_name(self, capsys, subcommand):
        # the module docstring is for the code's readers, not the help
        assert qtf.cli.main([*subcommand, "--help"]) == 0
        out = capsys.readouterr().out
        assert "``" not in out
        assert re.search(r"(?<![\w-])_\w", out) is None, out

    def test_bad_budget_domain_is_config_error(self):
        assert run_cli("budget", "--temperature", "-3").returncode == 1

    def test_invalid_config_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_cli("simulate", str(path)).returncode == 1

    def test_missing_config_file_is_config_error(self):
        assert run_cli("simulate", "/nonexistent/config.json").returncode == 1

    def test_unknown_config_keys_rejected(self, tmp_path):
        # workers is no config key either, nor is a sweep's budget_rate_w
        for config, key in (
            ({**SWEEP_CONFIG, "typo_key": 1}, "typo_key"),
            ({**CENSOR_CONFIG, "workers": 1}, "workers"),
            ({**SWEEP_CONFIG, "budget_rate_w": 123.0}, "budget_rate_w"),
        ):
            proc = run_cli("simulate", write_config(tmp_path, config))
            assert proc.returncode == 1, config
            assert proc.stderr.decode().splitlines() == [
                f"qtf: error: config has unknown keys: [{key!r}]"
            ]
            assert not proc.stdout

    def test_wrong_config_value_types_rejected(self, tmp_path):
        bad_rates = write_config(tmp_path, {**SWEEP_CONFIG, "budget_rates_w": 3})
        assert run_cli("simulate", bad_rates).returncode == 1
        bad_particle = write_config(
            tmp_path, {**CENSOR_CONFIG, "particle": "alpha"}
        )
        proc = run_cli("simulate", bad_particle)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == (
            b"qtf: error: particle must be an object with mass_kg/kinetic_energy_j\n")

    def test_success_is_zero(self):
        assert run_cli("constants").returncode == 0


class TestConstantsCommand:
    def test_json_contains_both_tiers(self):
        proc = run_cli("constants", "--format", "json")
        doc = json.loads(proc.stdout)
        assert set(doc["constants"]["paper"]) == {"input", "target", "reference"}
        assert doc["constants"]["paper"]["target"]["hbar"] == 1.055e-34
        assert doc["constants"]["physical"]["hbar"] == pytest.approx(
            1.0545718176461565e-34
        )
        assert doc["manifest"]["subcommand"] == "constants"

    def test_text_format_same_values(self):
        out = run_cli("constants", "--format", "text").stdout.decode()
        assert "1.055e-34" in out
        assert "1.0545718176461565e-34" in out

    def test_text_name_that_fills_its_column_keeps_a_space(self, capsys):
        assert qtf.cli.main(["constants", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "paper.reference.dynamic_rate_divergence_claim_w 1e+25" in lines
        assert f"{'physical.k_b':<47} 1.380649e-23" in lines
        assert f"{'paper.input.temperature':<47} 300.0" in lines

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

    def test_radius_that_fills_its_column_keeps_a_space(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("1e-320\n", encoding="utf-8")
        assert qtf.cli.main(["analyze", str(path), "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "median         9.88131e-321 0.00e0" in lines
        assert "filtered_mean  9.88131e-321 0.00e0" in lines

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start with one
        bodies = []
        for name, raw in (("plain", b"5\n6\n"), ("bom", b"\xef\xbb\xbf5\n6\n")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(raw)
            assert qtf.cli.main(["analyze", str(path), "--format", "text"]) == 0
            manifest, body = capsys.readouterr().out.split("\n", 1)
            assert hashlib.sha256(raw).hexdigest() in manifest
            bodies.append(body)
        assert bodies[1] == bodies[0]
        assert bodies[1].startswith("tracks: 2 read, 0 dropped, 2 analyzed\n")


class TestBudgetCommand:
    def test_defaults_reproduce_stated_arithmetic(self):
        doc = json.loads(run_cli("budget").stdout)
        assert doc["budget"]["erase_total"] == pytest.approx(2.871e-15, rel=1e-3)
        assert doc["budget"]["dynamic_rate"] == pytest.approx(3.6e11, rel=1e-12)
        assert doc["audit"]["applicable"] is True
        flagged = {r["quantity"] for r in doc["audit"]["records"] if r["flagged"]}
        assert flagged == {"decoherence_rate", "per_frame"}

    def test_explicit_stated_inputs_keep_the_audit(self):
        # the flag defaults are ThermoQuery's, so spelling them out changes nothing
        explicit = run_cli(
            "budget", "--temperature", "300", "--bits", "1e6", "--modes", "1e23",
            "--tau", "0.001", "--fps", "60",
        )
        doc = json.loads(explicit.stdout)
        assert doc["audit"]["applicable"] is True
        assert doc["query"] == json.loads(run_cli("budget").stdout)["query"]

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

    def test_sweep_json_reports_no_single_budget_rate(self, tmp_path):
        sweep = json.loads(run_cli("simulate", write_config(tmp_path, SWEEP_CONFIG)).stdout)
        # each run of a sweep takes its rate from budget_rates_w
        assert sweep["accrual"] == {
            "initial_budget": 10.0,
            "cost_rate": 2.0,
            "time_step": 0.01,
            "max_time": 30.0,
        }
        path = write_config(tmp_path, ACCRUAL_CONFIG)
        accrual = json.loads(run_cli("simulate", path).stdout)
        assert accrual["accrual"]["budget_rate"] == ACCRUAL_CONFIG["budget_rate_w"]

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

    @pytest.mark.parametrize("value", ["7", "not-a-number"])
    def test_the_seed_comes_from_the_config_alone(self, tmp_path, value):
        # qtf reads no seed from the environment, so QTF_SEED changes nothing
        path = write_config(tmp_path, CENSOR_CONFIG)
        plain = run_cli("simulate", path)
        exported = run_cli("simulate", path, env_extra={"QTF_SEED": value})
        assert plain.returncode == 0
        assert (exported.stdout, exported.stderr, exported.returncode) == (
            plain.stdout, plain.stderr, plain.returncode)

    def test_particle_without_the_derived_route_is_config_error(self, tmp_path):
        config = {**CENSOR_CONFIG, "mode": "tracks", "particle": PARTICLE}
        for momentum in ({}, {"momentum_source": "paper"}):
            proc = run_cli("simulate", write_config(tmp_path, {**config, **momentum}))
            assert proc.returncode == 1, momentum
            assert proc.stderr.decode().splitlines() == [
                "qtf: error: particle is used only by the derived momentum route,"
                " but momentum_source is 'paper'"
            ]
            assert not proc.stdout

    def test_null_particle_is_no_particle(self, tmp_path):
        bodies = []
        for config in (CENSOR_CONFIG, {**CENSOR_CONFIG, "particle": None}):
            proc = run_cli("simulate", write_config(tmp_path, config), "--format", "csv")
            assert proc.returncode == 0
            bodies.append(proc.stdout.split(b"\n", 1)[1])
        assert bodies[1] == bodies[0]

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
        ten_steps = {
            "mode": "accrual",
            "initial_budget_j": 1.0,
            "budget_rate_w": 0.0,
            "cost_rate_w": 2.0,
            "time_step_s": 0.1,
            "max_time_s": 1.0,
        }
        # 1e15 steps that never collapse: rejected before any step runs
        never = {**ten_steps, "budget_rate_w": 2.0, "cost_rate_w": 1.0,
                 "time_step_s": 0.001, "max_time_s": 1e12}
        for config in (ten_steps, never):
            path = write_config(tmp_path, config)
            proc = run_cli("simulate", path, "--format", "csv", timeout=5)
            assert proc.returncode == 1, config
            assert b"accrual mode supports json or text" in proc.stderr
            assert not proc.stdout

    def test_sweep_text_format(self, tmp_path):
        path = write_config(tmp_path, SWEEP_CONFIG)
        out = run_cli("simulate", path, "--format", "text").stdout.decode()
        assert "budget_rate_w" in out
        assert "-" in out.splitlines()[-1]  # non-collapsing rate


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
        ],
    )
    def test_non_integral_or_boolean_values_rejected(self, tmp_path, override):
        proc = run_cli("simulate", write_config(tmp_path, {**CENSOR_CONFIG, **override}))
        assert proc.returncode == 1
        assert b"must be an integer" in proc.stderr
        assert not proc.stdout

    def test_integral_floats_accepted(self, tmp_path):
        exact = json.loads(run_cli("simulate", write_config(tmp_path, CENSOR_CONFIG)).stdout)
        floats = {**CENSOR_CONFIG, "seed": 42.0, "n_tracks": 228.0}
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
        assert proc.stderr.decode().splitlines() == [
            "qtf: error: distribution produced radius inf at 0; radii must be finite and > 0"
        ]


ACCRUAL_CONFIG = {
    "mode": "accrual",
    "initial_budget_j": 10.0,
    "budget_rate_w": 1.0,
    "cost_rate_w": 2.0,
    "time_step_s": 0.01,
    "max_time_s": 20.0,
}
PARTICLE = {"mass_kg": 6.64e-27, "kinetic_energy_j": 8.01e-13}


def _float_field_cases():
    """(config, description) with one real-valued field made a bool or str."""
    cases = []
    for bad in (True, "2.0"):
        for key in sorted(ACCRUAL_CONFIG.keys() - {"mode"}):
            cases.append(({**ACCRUAL_CONFIG, key: bad}, f"{key}={bad!r}"))
        cases.append(({**SWEEP_CONFIG, "budget_rates_w": [0.0, bad]}, f"rate={bad!r}"))
        cases.append(({**CENSOR_CONFIG, "floor_n": bad}, f"floor_n={bad!r}"))
        for dist in (
            {"kind": "lognormal", "mean_m": bad, "sd_m": 5.05e-3},
            {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": bad},
            {"kind": "lognormal", "mu": bad, "sigma": 0.5},
            {"kind": "lognormal", "mu": -5.0, "sigma": bad},
            {"kind": "uniform", "lo_m": bad, "hi_m": 2e-3},
            {"kind": "uniform", "lo_m": 1e-4, "hi_m": bad},
        ):
            cases.append(({**CENSOR_CONFIG, "distribution": dist}, f"{dist}"))
        for key in PARTICLE:
            particle = {**PARTICLE, key: bad}
            cases.append(({**CENSOR_CONFIG, "particle": particle}, f"{particle}"))
    return [pytest.param(config, id=desc) for config, desc in cases]


class TestStrictNumbers:
    @pytest.mark.parametrize("config", _float_field_cases())
    def test_bool_or_string_for_a_number_is_config_error(
        self, tmp_path, capsys, config
    ):
        assert qtf.cli.main(["simulate", write_config(tmp_path, config)]) == 1
        captured = capsys.readouterr()
        assert "must be a number" in captured.err
        assert not captured.out

    def test_integers_are_accepted_as_numbers(self, tmp_path, capsys):
        config = {**ACCRUAL_CONFIG, "initial_budget_j": 10, "budget_rate_w": 1}
        assert qtf.cli.main(["simulate", write_config(tmp_path, config)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accrual"]["initial_budget"] == 10.0
        assert doc["outcome"]["collapsed"]

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(
                {**ACCRUAL_CONFIG, "initial_budget_j": 10**400}, id="float-range"
            ),
            pytest.param({**CENSOR_CONFIG, "n_tracks": 10**20}, id="n_tracks"),
            pytest.param({**CENSOR_CONFIG, "momentum_source": ["paper"]}, id="momentum"),
        ],
    )
    def test_out_of_range_values_are_config_errors(self, tmp_path, capsys, config):
        assert qtf.cli.main(["simulate", write_config(tmp_path, config)]) == 1
        assert "qtf: error:" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_is_config_error(self, tmp_path, capsys):
        # Python 3.11+ refuses to parse it; older versions reject its value.
        path = tmp_path / "config.json"
        path.write_text('{"mode": "accrual", "initial_budget_j": 1%s}' % ("0" * 5000))
        assert qtf.cli.main(["simulate", str(path)]) == 1
        assert "qtf: error:" in capsys.readouterr().err


class TestMainBoundary:
    def test_internal_value_error_propagates(self, monkeypatch):
        def broken(query):
            raise ValueError("internal bug")

        monkeypatch.setattr(qtf.cli, "compute_budget", broken)
        with pytest.raises(ValueError, match="internal bug"):
            qtf.cli.main(["budget"])

    @pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, target):
        out = tmp_path / target
        assert qtf.cli.main(["constants", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"qtf: error: cannot write {out}")
        assert not captured.out

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("target", ["dev-full", "closed-pipe", "closed"])
    @pytest.mark.parametrize(
        "argv", [["constants"], ["analyze", FIXTURE, "--format", "csv"]], ids=["constants", "analyze"]
    )
    def test_failed_stdout_write_is_config_error(self, monkeypatch, unbuffered, target, argv):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        closed = ()
        if target == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            stdout = open("/dev/full", "wb")
        elif target == "closed-pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)  # no reader: every write fails with EPIPE
            stdout = os.fdopen(write_end, "wb")
        else:  # no fd 1 at all: sys.stdout is None
            stdout, closed = open(os.devnull, "wb"), (1,)
        with stdout:
            proc = run_cli(
                *argv,
                env_extra={"PYTHONUNBUFFERED": "1"} if unbuffered else None,
                stdout=stdout,
                closed=closed,
                timeout=60,
            )
        assert proc.returncode == 1
        # neither a traceback nor "Exception ignored" from the exit flush
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith("qtf: error: cannot write standard output: [Errno ")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("target", ["dev-full", "closed"])
    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_failed_version_or_help_write_is_config_error(
        self, monkeypatch, unbuffered, target, flag
    ):
        # argparse itself would drop the OSError: exit 0 with nothing
        # written, or "Exception ignored" and exit 120 from the exit flush;
        # with no fd 1 it would write to stderr instead
        if target == "dev-full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        with open("/dev/full" if target == "dev-full" else os.devnull, "wb") as stdout:
            proc = run_cli(
                flag,
                env_extra={"PYTHONUNBUFFERED": "1"} if unbuffered else None,
                stdout=stdout,
                closed=(1,) if target == "closed" else (),
                timeout=60,
            )
        assert proc.returncode == 1
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith("qtf: error: cannot write standard output: [Errno ")

    @pytest.mark.parametrize("stream", ["stdout-closed", "stderr-closed", "stderr-dev-full"])
    def test_data_error_is_exit_2_whatever_the_standard_streams(self, stream):
        # the error line goes where it can; the exit code says what failed
        if stream == "stderr-dev-full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        argv = ["analyze", "/nonexistent/tracks.csv"]
        if stream == "stderr-dev-full":
            with open("/dev/full", "wb") as stderr:
                proc = run_cli(*argv, stderr=stderr, timeout=60)
        else:
            proc = run_cli(*argv, closed=(1 if stream == "stdout-closed" else 2,), timeout=60)
        assert proc.returncode == 2
        if stream == "stdout-closed":  # no traceback after the error line
            [line] = proc.stderr.decode().splitlines()
            assert line.startswith("qtf: data error: cannot read ")


class TestOneSourcePerDefault:
    def test_analyze_floor_default_is_the_paper_floor(self):
        args = qtf.cli._build_parser().parse_args(["analyze", FIXTURE])
        assert args.floor == PAPER_INPUT["floor_n"]

    def test_censor_mode_builds_one_report(self, tmp_path, monkeypatch):
        calls = []
        original = qtf.tracks.solvency_report

        def counting(dataset, *args, **kwargs):
            calls.append(len(dataset))
            return original(dataset, *args, **kwargs)

        monkeypatch.setattr(qtf.tracks, "solvency_report", counting)
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


# SHA-256 of the reports of the other subcommands, recorded before file
# reading and report writing moved into one reader and one writer in
# qtf.cli.  The constants reports are the ones that changed since: both
# came to print each of the paper's figures once, under paper.<role>.
REPORT_ARGV = {
    "analyze": ["analyze", FIXTURE_NAME],
    "constants": ["constants"],
    "budget": ["budget"],
    "budget-310K": ["budget", "--temperature", "310"],
    "accrual": ["simulate", "accrual.json"],
    "sweep": ["simulate", "sweep.json"],
}
REPORT_SHA256 = {
    ("analyze", "json"): "d6cb208b6140881daa2943eaafa952eb5e533befa80bbb8b4fcc7a15be4b06db",
    ("analyze", "csv"): "7dcc184402f9f444721483af59415f9c2c2257743ddba1522b27cc27a5ac418f",
    ("analyze", "text"): "e09dfd0d5b613496161cab3a719fc08beed59c5031db03b88b0262ed6d79b218",
    ("constants", "json"): "c2667a563d18f229ed193e0be3d62bbb18645d9f60c85139e2dc823ab3ef4b29",
    ("constants", "text"): "3048084e007036805ec40110a944bca6f672b0ba5abe47e7d585a0beae6cc266",
    ("budget", "json"): "1a9f567f4113bd29334252498e607400c66e6b17f02e8f905708f2fe82c17def",
    ("budget", "text"): "1be2b9dd65c080da83c9d4560bbff9e92ab96727ab8ca40673ae726128b2474c",
    ("budget-310K", "json"): "d7cc7e4f5c0ff9608c0bc0735769820f6b4e0b5fe5a8f6dd079a4d5c511f8245",
    ("budget-310K", "text"): "5139555cb9ccd8d8f3253e3c971ee6fc6b26174d6bbb246beef2b8b87bf82cbc",
    ("accrual", "json"): "b6aac824d21b2b158bf9609c7778f082f4e7217c806ba7b8b1540007e4848674",
    ("accrual", "text"): "16c729635d80aeecd6dd244a39aba2eec1d120c552647d1a45edbc1277e9b5c2",
    ("sweep", "json"): "c2409ed075e130215eebbbc343307384d2b3e730c3ad572053042cf272e531fa",
    ("sweep", "csv"): "b269f4a0994a2a4dfd10ae7a4460cf2eb669a3c5b296ac2bd9e2f67e628eb2bf",
    ("sweep", "text"): "b192d60b8ca68d5816b62505601ba1ca0571c2ff57c32c99d5a4d84625017650",
}


@pytest.mark.parametrize("name, fmt", sorted(REPORT_SHA256))
def test_report_bytes_are_golden(tmp_path, monkeypatch, name, fmt):
    # inputs are named relative to the working directory, so that no
    # manifest holds a machine path
    shutil.copy(fixture_path(), tmp_path / FIXTURE_NAME)
    for config in (ACCRUAL_CONFIG, SWEEP_CONFIG):
        path = tmp_path / f"{config['mode']}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = [*REPORT_ARGV[name], "--format", fmt, "--out", "report"]
    assert qtf.cli.main(argv) == 0
    assert hashlib.sha256(Path("report").read_bytes()).hexdigest() == REPORT_SHA256[name, fmt]


class TestOverflowIsAConfigError:
    """Inputs whose arithmetic leaves the float range end in exit 1."""

    def run_config(self, tmp_path, capsys, config: dict) -> str:
        assert qtf.cli.main(["simulate", write_config(tmp_path, config)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("qtf: error: ")
        return captured.err

    def test_non_finite_solvency_index(self, tmp_path, capsys):
        config = {
            **CENSOR_CONFIG,
            "mode": "tracks",
            "distribution": {"kind": "uniform", "lo_m": 0.001, "hi_m": 1e308},
        }
        err = self.run_config(tmp_path, capsys, config)
        assert "r*p/hbar is not finite" in err
        with pytest.raises(DomainError, match="not finite"):
            action_index(1e308, PAPER_INPUT["momentum"])

    def test_lognormal_exponent_overflow_is_one_line(self, tmp_path):
        # mu + sigma * z leaves the float range: numpy must not warn
        big = 1.7976931348623157e308
        config = {
            **CENSOR_CONFIG,
            "mode": "tracks",
            "distribution": {"kind": "lognormal", "mu": big, "sigma": big},
        }
        proc = run_cli("simulate", write_config(tmp_path, config), timeout=60)
        assert proc.returncode == 1
        assert not proc.stdout
        assert proc.stderr.decode().splitlines() == [
            "qtf: error: distribution produced radius inf at 0; radii must be finite and > 0"
        ]

    def test_lognormal_moment_ratio_overflow(self, tmp_path, capsys):
        config = {
            **CENSOR_CONFIG,
            "distribution": {"kind": "lognormal", "mean_m": 1e-100, "sd_m": 1e100},
        }
        assert "sd/mean overflows" in self.run_config(tmp_path, capsys, config)

    def test_overflowing_statistics(self, tmp_path):
        # every index is finite (the momentum underflows to 0), but the
        # sum behind the mean leaves the float range
        config = {
            **CENSOR_CONFIG,
            "mode": "tracks",
            "distribution": {"kind": "uniform", "lo_m": 1e306, "hi_m": 1e308},
            "momentum_source": "derived",
            "particle": {"mass_kg": 1e-300, "kinetic_energy_j": 1e-300},
        }
        proc = run_cli("simulate", write_config(tmp_path, config))
        assert proc.returncode == 1
        assert not proc.stdout
        err = proc.stderr.decode()
        assert "RuntimeWarning" not in err
        [line] = err.splitlines()
        assert line.startswith("qtf: error: radius mean overflows the float range")

    def test_underflowing_sigma_is_one_line(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("r\n1e-300\n2e-300\n", encoding="utf-8")
        proc = run_cli("analyze", str(path), "--unit", "m", "--format", "json")
        assert proc.returncode == 1
        assert not proc.stdout
        assert proc.stderr.decode().splitlines() == [
            "qtf: error: radius sigma underflows the float range (smallest radius 1e-300 m)"
        ]

    @pytest.mark.parametrize("n_tracks", [2**31, 2**62, 2**63 - 1])
    @pytest.mark.parametrize(
        "distribution",
        [CENSOR_CONFIG["distribution"], {"kind": "uniform", "lo_m": 1e-3, "hi_m": 2e-2}],
        ids=["lognormal", "uniform"],
    )
    def test_too_many_tracks(self, tmp_path, capsys, n_tracks, distribution):
        # track ids are int32: the config is refused before any draw
        config = {**CENSOR_CONFIG, "n_tracks": n_tracks, "distribution": distribution}
        err = self.run_config(tmp_path, capsys, config)
        assert err == (
            f"qtf: error: n_tracks must be an integer in [1, 2147483647], got {n_tracks}\n"
        )

    def test_accrual_step_count_overflow(self, tmp_path, capsys):
        config = {**ACCRUAL_CONFIG, "max_time_s": 1e308, "time_step_s": 0.01}
        err = self.run_config(tmp_path, capsys, config)
        assert err == (
            "qtf: error: max_time/time_step overflows: max_time_s 1e+308, time_step_s 0.01\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_overflowing_budget(self, fmt):
        # k_B*T/hbar leaves the float range: json would hold Infinity and
        # the text table would end in a traceback
        proc = run_cli("budget", "--temperature", "1e308", "--format", fmt)
        assert proc.returncode == 1
        assert not proc.stdout
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith(
            "qtf: error: budget component decoherence_rate is not finite (inf)"
        )

    def test_frame_rate_whose_reciprocal_overflows(self, capsys):
        # 1/frame_rate, the per-frame transition time, is inf
        assert qtf.cli.main(["budget", "--fps", "1e-320"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines() == [
            "qtf: error: 1/frame_rate overflows: --fps 1e-320"
        ]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("base", [ACCRUAL_CONFIG, SWEEP_CONFIG], ids=["accrual", "sweep"])
    def test_accrual_step_cap(self, tmp_path, base, fmt):
        # 1e15 steps that never collapse: rejected before the first step
        never = {**base, "budget_rate_w": 2.0, "cost_rate_w": 1.0,
                 "time_step_s": 0.001, "max_time_s": 1e12}
        if base is SWEEP_CONFIG:
            del never["budget_rate_w"]
        proc = run_cli("simulate", write_config(tmp_path, never), "--format", fmt, timeout=5)
        assert proc.returncode == 1
        assert not proc.stdout
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith("qtf: error: accrual run of 1000000000000000 steps")
        assert line.endswith(
            "exceeds the cap of 100000000 steps: max_time_s 1000000000000.0, time_step_s 0.001"
        )


class TestNothingReadSilently:
    """Config input that would be read wrongly or run without bound is
    rejected at once, with one error line."""

    def run_config_text(self, tmp_path, text: str) -> str:
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        proc = run_cli("simulate", str(path), timeout=5)
        assert proc.returncode == 1
        assert not proc.stdout
        [line] = proc.stderr.decode().splitlines()
        return line

    def test_sweep_step_cap_counts_every_rate(self, tmp_path):
        # 2 never-collapsing rates x 6e7 steps: each run is under the cap,
        # the sweep is not
        config = {**SWEEP_CONFIG, "cost_rate_w": 1.0, "time_step_s": 1.0,
                  "max_time_s": 6e7, "budget_rates_w": [1.0, 2.0]}
        line = self.run_config_text(tmp_path, json.dumps(config))
        assert line == (
            "qtf: error: sweep of 2 rates x 60000000 steps exceeds the cap of"
            " 100000000 steps"
        )

    def test_empty_sweep_names_its_config_key(self, tmp_path):
        line = self.run_config_text(tmp_path, json.dumps({**SWEEP_CONFIG, "budget_rates_w": []}))
        assert line == "qtf: error: budget_rates_w must be a non-empty list of rates"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"mode": "tracks", "seed": 1, "seed": 2, "n_tracks": 10,'
             ' "distribution": {"kind": "uniform", "lo_m": 1e-4, "hi_m": 1e-3}}',
             "seed"),
            ('{"mode": "tracks", "seed": 1, "n_tracks": 10, "distribution":'
             ' {"kind": "uniform", "lo_m": 1e-4, "lo_m": 2e-4, "hi_m": 1e-3}}',
             "lo_m"),
        ],
        ids=["top-level", "distribution"],
    )
    def test_repeated_key(self, tmp_path, text, key):
        line = self.run_config_text(tmp_path, text)
        assert line == f"qtf: error: config has repeated key {key!r}"

    def test_byte_order_mark(self, tmp_path):
        # a radius file may start with one, a config may not
        line = self.run_config_text(tmp_path, "\ufeff" + json.dumps(ACCRUAL_CONFIG))
        assert line.startswith("qtf: error: config ")
        assert "is not valid JSON: Unexpected UTF-8 BOM" in line


class TestOneFileReader:
    @pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing"])
    @pytest.mark.parametrize(
        "subcommand, code, prefix",
        [
            ("analyze", 2, "qtf: data error: cannot read "),
            ("simulate", 1, "qtf: error: cannot read config "),
        ],
        ids=["analyze", "simulate"],
    )
    def test_unreadable_input_keeps_the_exit_code_of_its_subcommand(
        self, tmp_path, capsys, missing, subcommand, code, prefix
    ):
        path = tmp_path / "absent" if missing else tmp_path
        with pytest.raises(OSError) as exc:
            path.read_bytes()
        assert qtf.cli.main([subcommand, str(path)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{prefix}{path}: {exc.value}\n"
        assert not captured.out


# SHA-256 pads a message with at least 9 bytes to whole 64-byte blocks:
# 55 bytes fill one block and 56 need two, as 119 fill two and 120 three
DIGEST_SIZES = [0, 1, 55, 56, 63, 64, 65, 119, 120, 2**20 + 3]


@pytest.mark.parametrize(
    "blocked", [("hashlib",), ("_sha2", "_sha256")], ids=["builtin", "hashlib"]
)
def test_digest_equals_hashlib(monkeypatch, blocked):
    # each route runs with the other's modules made unimportable
    if blocked == ("hashlib",) and not HAS_BUILTIN_SHA256:
        pytest.skip("no built-in SHA-256 module")
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    rng = random.Random(14)
    for size in DIGEST_SIZES:
        data = rng.randbytes(size)
        assert qtf.cli._digest(data) == hashlib.sha256(data).hexdigest(), size


class TestProcessEntryPoint:
    @pytest.mark.parametrize(
        "argv, code", [(["constants"], 0), (["analyze", "/nonexistent/tracks.csv"], 2)]
    )
    def test_run_freezes_then_exits_with_the_code_of_main(
        self, monkeypatch, capsys, argv, code
    ):
        events = []
        main = qtf.cli.main
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(qtf.cli, "main", lambda: events.append("main") or main())
        monkeypatch.setattr(sys, "argv", ["qtf", *argv])
        with pytest.raises(SystemExit) as exc:
            qtf.cli.run()
        assert exc.value.code == code
        # main itself never freezes: it is the in-process API.
        assert events == ["freeze", "main"]

    def test_console_script_targets_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads(
            (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
        )
        assert pyproject["project"]["scripts"]["qtf"] == "qtf.cli:run"


def _moments(mean_m: float, sd_m: float) -> dict:
    distribution = {"kind": "lognormal", "mean_m": mean_m, "sd_m": sd_m}
    return {**CENSOR_CONFIG, "distribution": distribution}


def _uniform(lo_m: float, hi_m: float) -> dict:
    distribution = {"kind": "uniform", "lo_m": lo_m, "hi_m": hi_m}
    return {**CENSOR_CONFIG, "mode": "tracks", "distribution": distribution}


def _derived(mode: str, mass_kg: float, kinetic_energy_j: float) -> dict:
    particle = {"mass_kg": mass_kg, "kinetic_energy_j": kinetic_energy_j}
    return {**CENSOR_CONFIG, "mode": mode, "momentum_source": "derived", "particle": particle}


# An input error names the key or flag the caller wrote, where the
# library names its own parameter (mu, momentum, time_step, lo, hi,
# max_time, budget_rate, temperature, floor_n).
CALLER_NAMED_ERRORS = {
    "mean_m-underflows": (
        _moments(5e-324, 5.05e-3),
        "sd/mean overflows: distribution.sd_m 0.00505, distribution.mean_m 5e-324"),
    "sd_m-overflows": (
        _moments(7.42e-3, 1e308),
        "sd/mean overflows: distribution.sd_m 1e+308, distribution.mean_m 0.00742"),
    "mass_kg-overflows": (
        _derived("tracks", 1e308, 8.01e-13),
        "particle.mass_kg 1e+308 and particle.kinetic_energy_j 8.01e-13 give a momentum"
        " past the float range"),
    "censor-at-zero-energy": (
        _derived("censor", 6.64e-27, 0),
        "particle.mass_kg 6.64e-27 and particle.kinetic_energy_j 0.0 give momentum 0.0,"
        " which censoring cannot use"),
    "time_step_s": (
        {**ACCRUAL_CONFIG, "time_step_s": -1},
        "time_step_s must be finite and > 0, got -1.0"),
    "mu-nan": (
        {**CENSOR_CONFIG,
         "distribution": {"kind": "lognormal", "mu": float("nan"), "sigma": 1.0}},
        "distribution.mu must be finite, got nan"),
    "lo_m": (_uniform(-1, 2e-3), "distribution.lo_m must be finite and > 0, got -1.0"),
    "hi_m-below-lo_m": (
        _uniform(1e-4, 1e-5),
        "distribution.hi_m must be finite and > distribution.lo_m, got 1e-05"),
    "max_time_s-below-time_step_s": (
        {**ACCRUAL_CONFIG, "time_step_s": 0.1, "max_time_s": 0.01},
        "max_time_s must be >= time_step_s, got 0.01"),
    "sweep-rate": (
        {**SWEEP_CONFIG, "budget_rates_w": [0.5, -1]},
        "budget_rates_w[1] must be finite and >= 0, got -1.0"),
    "budget-temperature": (
        ["budget", "--temperature", "-3"], "--temperature must be finite and > 0, got -3.0"),
    "analyze-floor": (
        ["analyze", FIXTURE, "--floor=-1"], "--floor must be finite and >= 0, got -1.0"),
}


@pytest.mark.parametrize("case", CALLER_NAMED_ERRORS)
def test_input_error_names_what_the_caller_wrote(tmp_path, capsys, case):
    call, message = CALLER_NAMED_ERRORS[case]
    argv = call if isinstance(call, list) else ["simulate", write_config(tmp_path, call)]
    assert qtf.cli.main(argv) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"qtf: error: {message}\n"


NESTED_OBJECTS = {
    "shape": ("distribution", {"kind": "lognormal", "mu": -5.0, "sigma": 0.6}),
    "moments": ("distribution", {"kind": "lognormal", "mean_m": 7.42e-3, "sd_m": 5.05e-3}),
    "uniform": ("distribution", {"kind": "uniform", "lo_m": 1e-3, "hi_m": 2e-2}),
    "particle": ("particle", {"mass_kg": 6.64e-27, "kinetic_energy_j": 8.01e-13}),
}


@pytest.mark.parametrize("problem", ["missing", "unknown"])
@pytest.mark.parametrize("case", NESTED_OBJECTS)
def test_a_nested_key_error_names_its_object(tmp_path, capsys, case, problem):
    # the top-level forms, without a prefix, are pinned above
    name, spec = NESTED_OBJECTS[case]
    if problem == "missing":
        key = list(spec)[-1]
        spec = {k: v for k, v in spec.items() if k != key}
    else:
        key = "extra"
        spec = {**spec, key: 1.0}
    config = write_config(tmp_path, {**CENSOR_CONFIG, name: spec})
    assert qtf.cli.main(["simulate", config]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    words = "missing keys" if problem == "missing" else "has unknown keys"
    assert captured.err == f"qtf: error: config {words}: [{name + '.' + key!r}]\n"


def _draw(sim):
    raise AssertionError("a track was drawn")


def test_zero_momentum_censor_draws_no_track(tmp_path, monkeypatch):
    # tracks mode keeps drawing at zero momentum; censor refuses it first
    monkeypatch.setattr(qtf.montecarlo, "generate_tracks", _draw)
    config = write_config(tmp_path, _derived("censor", 6.64e-27, 0))
    assert qtf.cli.main(["simulate", config]) == 1
    tracks = write_config(tmp_path, _derived("tracks", 6.64e-27, 0))
    with pytest.raises(AssertionError, match="a track was drawn"):
        qtf.cli.main(["simulate", tracks])


# A key of a population config that the draw does not read, each wrong in
# a way only the CLI's own check can see before any track is drawn.
UNDRAWN_KEYS = {
    "negative-floor_n": ({"floor_n": -1.0}, "floor_n must be finite and >= 0, got -1.0"),
    "unknown-momentum_source": (
        {"momentum_source": "bogus"},
        "momentum_source must be one of ['derived', 'paper'], got 'bogus'"),
    "report-label-as-momentum_source": (
        {"momentum_source": "paper-stated"},
        "momentum_source must be one of ['derived', 'paper'], got 'paper-stated'"),
    "particle-on-the-paper-route": (
        {"particle": {"mass_kg": 6.64e-27, "kinetic_energy_j": 8.01e-13}},
        "particle is used only by the derived momentum route, but momentum_source is 'paper'"),
}


@pytest.mark.parametrize("mode", ["tracks", "censor"])
@pytest.mark.parametrize("case", UNDRAWN_KEYS)
def test_a_bad_key_the_draw_does_not_read_is_refused_before_any_draw(
    tmp_path, monkeypatch, capsys, case, mode
):
    keys, message = UNDRAWN_KEYS[case]
    monkeypatch.setattr(qtf.montecarlo, "generate_tracks", _draw)
    config = write_config(tmp_path, {**CENSOR_CONFIG, "mode": mode, **keys})
    assert qtf.cli.main(["simulate", config]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"qtf: error: {message}\n"


def test_a_config_with_several_bad_keys_names_them_in_a_fixed_order(
    tmp_path, monkeypatch, capsys
):
    # each step mends the key the error before it named
    monkeypatch.setattr(qtf.montecarlo, "generate_tracks", _draw)
    config = {
        **CENSOR_CONFIG,
        "particle": {"mass_kg": -1, "kinetic_energy_j": 1},
        "floor_n": "high",
        "n_tracks": "many",
        "distribution": {"kind": "uniform", "lo_m": 0, "hi_m": 1e-3},
        "momentum_source": "bogus",
    }
    steps = [
        ({}, "particle.mass_kg must be finite and > 0, got -1.0"),
        ({"particle": None}, "floor_n must be a number, got 'high'"),
        ({"floor_n": -1}, "n_tracks must be an integer, got 'many'"),
        ({"n_tracks": 0}, "distribution.lo_m must be finite and > 0, got 0.0"),
        ({"distribution": CENSOR_CONFIG["distribution"]},
         "n_tracks must be an integer in [1, 2147483647], got 0"),
        ({"n_tracks": 228}, "floor_n must be finite and >= 0, got -1.0"),
        ({"floor_n": 1e12},
         "momentum_source must be one of ['derived', 'paper'], got 'bogus'"),
    ]
    for mend, message in steps:
        config.update(mend)
        assert qtf.cli.main(["simulate", write_config(tmp_path, config)]) == 1
        assert capsys.readouterr().err == f"qtf: error: {message}\n"
    config["momentum_source"] = "paper"
    with pytest.raises(AssertionError, match="a track was drawn"):
        qtf.cli.main(["simulate", write_config(tmp_path, config)])
