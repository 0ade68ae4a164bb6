"""Seeded inputs, invocations and report checks for the benchmark workloads.

A workload is one round of ``python -m qtf`` invocations, run in order.
``build`` writes the round's input files into a work directory and
returns the invocations.  Arguments name those files relative to the
work directory, so report bytes depend on the seed alone and not on
where the work directory lives.

Every invocation carries a check.  A check reads the report bytes,
raises ``CheckFailed`` when the report is wrong, and otherwise returns
the items of work the report accounts for: input rows, generated
tracks, accrual steps, or one invocation.  The seed reaches the program
only through the generated files.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """A report that does not match what its inputs imply."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark runs ``FULL``, its self-test ``TINY``."""

    analyze_rows: int
    censor_tracks: int
    sweep_max_time_s: float


FULL = Sizes(analyze_rows=200_000, censor_tracks=200_000, sweep_max_time_s=1000.0)
TINY = Sizes(analyze_rows=2_000, censor_tracks=2_000, sweep_max_time_s=10.0)


@dataclass(frozen=True)
class Invocation:
    """One ``python -m qtf`` call and the check of its report.

    ``out`` is the file the report is written to with ``--out``; when it
    is None the report is the call's standard output.
    """

    name: str
    argv: tuple[str, ...]
    out: str | None
    check: Callable[[bytes], int]


@dataclass(frozen=True)
class Workload:
    name: str
    item_unit: str
    round: tuple[Invocation, ...]


# The workloads of BENCHMARK.json.  On a shared host the speed of one
# process swings by up to 1.5x over tens of seconds, so the benchmark
# runs few workloads and gives each run the more time; between them
# they run every layer.
WORKLOADS = ("censor-text-200k", "cli-mix")
# Bulk runs of the track pipeline and of the accrual loop, run by name
# only: their layers run at small size in cli-mix.
EXTRA_WORKLOADS = ("analyze-json-200k", "sweep-1e6")

# Moments of the packaged 228-row fixture, in mm.
FIXTURE_MEAN_MM = 7.42
FIXTURE_SD_MM = 5.05
# Censor floor: about 38% of derived-momentum tracks fall below it.
CENSOR_FLOOR_N = 5e12
SWEEP = {"initial_budget_j": 1000.0, "cost_rate_w": 2.0, "time_step_s": 1e-3}

# The documented kinds of droppable rows, with spellings of each kind.
DROP_KINDS = {
    "blank": ("", "   "),
    "non_numeric": ("n/a", "-", "x12", "radius?"),
    "non_finite": ("nan", "inf", "-inf", "NaN"),
    "non_positive": ("0", "0.0", "-1.5", "-7.42"),
}
DROP_SHARE = 0.01


def _lognormal_params(mean: float, sd: float) -> tuple[float, float]:
    s2 = math.log(1.0 + (sd / mean) ** 2)
    return math.log(mean) - s2 / 2.0, math.sqrt(s2)


def write_radius_file(path: Path, rows: int, seed: int) -> dict[str, int]:
    """Write ``rows`` data rows of lognormal radii (mm) with droppable rows.

    Returns the exact number of rows written of each drop kind.
    """
    rng = random.Random(seed)
    mu, sigma = _lognormal_params(FIXTURE_MEAN_MM, FIXTURE_SD_MM)
    kinds = list(DROP_KINDS)
    drop_rows = set(rng.sample(range(rows), max(len(kinds), int(rows * DROP_SHARE))))
    written = dict.fromkeys(kinds, 0)
    lines = ["# synthetic track radii (mm), benchmark input", "radius_mm"]
    for i in range(rows):
        if i % 5000 == 2500:
            lines.append(f"# block {i // 5000}")
        if i in drop_rows:
            kind = rng.choice(kinds)
            written[kind] += 1
            lines.append(rng.choice(DROP_KINDS[kind]))
        else:
            lines.append(f"{rng.lognormvariate(mu, sigma):.6g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return written


def sweep_rates(seed: int) -> list[float]:
    """Eight budget rates against a cost rate of 2 W, in seeded order.

    Three rates collapse at about 0.55, 0.7 and 0.85 of the time cap,
    each moved by under 1% so that the accrual steps, and so the work,
    stay within 0.2% of the same total for every seed.  The other five
    collapse, if ever, at least 10% past the cap.  No rate sits on the
    collapse boundary.
    """
    rng = random.Random(seed)
    cost = SWEEP["cost_rate_w"]
    # Collapse at fraction f of the cap: B / (c - a) = f * cap, where
    # the budget B is cap / 1000 s times 1000 J, so a = c - 1 / f.
    rates = [round(cost - 1 / (f * rng.uniform(0.99, 1.01)), 4) for f in (0.55, 0.7, 0.85)]
    rates += [round(rng.uniform(1.1, 3.0), 4) for _ in range(5)]
    rng.shuffle(rates)
    return rates


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------


def _body_lines(report: bytes) -> list[str]:
    """Text or CSV report lines after the leading manifest comment."""
    lines = report.decode("utf-8").splitlines()
    require(bool(lines) and lines[0].startswith("# manifest: {"), "no manifest line")
    return lines[1:]


_TRACKS_LINE = re.compile(r"tracks: (\d+) read, (\d+) dropped, (\d+) analyzed")
_FLOOR_LINE = re.compile(r"floor: n in \[(\S+), (\S+)\], floor (\S+) -> (\w+)")
_BAND_LINE = re.compile(r"band \[.*\] mm: (\d+)/(\d+) retained \(.*\)")


def _match(pattern: re.Pattern, lines: list[str]) -> re.Match:
    for line in lines:
        m = pattern.fullmatch(line)
        if m:
            return m
    raise CheckFailed(f"no line matches {pattern.pattern!r}")


def check_analyze_json(rows: int, dropped: int) -> Callable[[bytes], int]:
    def check(report: bytes) -> int:
        doc = json.loads(report)
        ds = doc["dataset"]
        require(ds["rows_read"] == rows, f"rows_read {ds['rows_read']} != {rows}")
        require(
            ds["rows_dropped"] == dropped,
            f"rows_dropped {ds['rows_dropped']} != {dropped}",
        )
        require(
            ds["count"] == len(doc["tracks"]) == rows - dropped,
            "track count != rows_read - rows_dropped",
        )
        return rows

    return check


def check_censor_text(n_tracks: int, floor_n: float) -> Callable[[bytes], int]:
    def check(report: bytes) -> int:
        lines = _body_lines(report)
        read, dropped, kept = map(int, _match(_TRACKS_LINE, lines).groups())
        require(read == n_tracks, f"{read} tracks read, expected {n_tracks}")
        require(kept + dropped == n_tracks, "kept + dropped != n_tracks")
        require(0 < kept < n_tracks, f"censoring kept {kept} of {n_tracks}")
        n_min, _, _, verdict = _match(_FLOOR_LINE, lines).groups()
        # n_min is printed to 3 significant digits.
        require(
            verdict == "satisfied" and float(n_min) >= floor_n * (1 - 5e-3),
            f"n_min {n_min} below floor {floor_n!r}",
        )
        return n_tracks

    return check


def check_censor_csv(n_tracks: int, floor_n: float) -> Callable[[bytes], int]:
    def check(report: bytes) -> int:
        lines = _body_lines(report)
        require(lines[0] == "id,radius_m,n_real,n_quanta", "bad CSV header")
        ids = []
        for line in lines[1:]:
            track_id, radius, n_real, n_quanta = line.split(",")
            ids.append(int(track_id))
            require(float(radius) > 0, f"track {track_id}: radius {radius}")
            require(float(n_real) >= floor_n, f"track {track_id}: n {n_real} < floor")
            require(int(n_quanta) == math.floor(float(n_real)), "n_quanta != floor(n)")
        require(0 < len(ids) <= n_tracks, f"{len(ids)} tracks kept of {n_tracks}")
        require(ids == sorted(set(ids)) and ids[-1] <= n_tracks, "track ids out of order")
        return 1

    return check


def _collapse_expected(config: dict, rate: float) -> float | None:
    """Closed-form collapse time B/(c-a), or None when past the cap."""
    gap = config["cost_rate_w"] - rate
    if gap <= 0:
        return None
    t = config["initial_budget_j"] / gap
    return t if t < config["max_time_s"] else None


def check_sweep_csv(config: dict) -> Callable[[bytes], int]:
    """Collapse times within one step of B/(c-a); returns accrual steps."""
    dt = config["time_step_s"]
    cap_steps = round(config["max_time_s"] / dt)

    def check(report: bytes) -> int:
        lines = _body_lines(report)
        require(lines[0] == "budget_rate_w,collapse_time_s", "bad CSV header")
        rows = [line.split(",") for line in lines[1:]]
        rates = [float(rate) for rate, _ in rows]
        require(rates == sorted(config["budget_rates_w"]), "rates differ from config")
        steps = 0
        for rate, field in zip(rates, (t for _, t in rows)):
            expected = _collapse_expected(config, rate)
            if expected is None:
                require(field == "", f"rate {rate}: collapsed at {field}, expected none")
                steps += cap_steps
                continue
            require(field != "", f"rate {rate}: no collapse, expected {expected}")
            t = float(field)
            require(
                abs(t - expected) <= dt * (1 + 1e-9),
                f"rate {rate}: collapse at {t}, expected {expected}",
            )
            steps += round(t / dt)
        return steps

    return check


def check_accrual_json(config: dict) -> Callable[[bytes], int]:
    def check(report: bytes) -> int:
        outcome = json.loads(report)["outcome"]
        expected = _collapse_expected(config, config["budget_rate_w"])
        require(outcome["collapsed"] == (expected is not None), "collapse verdict")
        if expected is not None:
            t = outcome["collapse_time_s"]
            dt = config["time_step_s"]
            require(abs(t - expected) <= dt * (1 + 1e-9), f"collapse at {t}")
            require(outcome["steps_run"] == round(t / dt), "steps_run != t / dt")
        return 1

    return check


def check_budget_text(report: bytes) -> int:
    flagged = {
        line.split()[0] for line in _body_lines(report) if line.endswith("FLAG")
    }
    require(
        flagged == {"decoherence_rate", "per_frame"},
        f"audit flagged {sorted(flagged)}",
    )
    return 1


def check_budget_skipped_json(report: bytes) -> int:
    doc = json.loads(report)
    require(doc["query"]["temperature"] == 310.0, "temperature not applied")
    require(
        doc["audit"] == {"applicable": False, "records": []},
        "audit not skipped off the stated inputs",
    )
    return 1


def check_constants_json(report: bytes) -> int:
    snapshot = json.loads(report)["constants"]
    require("hbar" in snapshot["physical"], "no hbar in constants")
    require(bool(snapshot["paper"]), "no paper values in constants")
    return 1


def check_fixture_text(report: bytes) -> int:
    lines = _body_lines(report)
    counts = tuple(map(int, _match(_TRACKS_LINE, lines).groups()))
    require(counts == (228, 0, 228), f"fixture rows read/dropped/analyzed {counts}")
    band = tuple(map(int, _match(_BAND_LINE, lines).groups()))
    require(band == (161, 228), f"fixture band {band}")
    return 1


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _one_item(check: Callable[[bytes], int]) -> Callable[[bytes], int]:
    """The check, counting its invocation as the one item of work."""

    def counted(report: bytes) -> int:
        check(report)
        return 1

    return counted


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _censor_config(seed: int, n_tracks: int) -> dict:
    return {
        "mode": "censor",
        "seed": seed,
        "n_tracks": n_tracks,
        "distribution": {
            "kind": "lognormal",
            "mean_m": FIXTURE_MEAN_MM * 1e-3,
            "sd_m": FIXTURE_SD_MM * 1e-3,
        },
        "momentum_source": "derived",
        "floor_n": CENSOR_FLOOR_N,
    }


def _sweep_config(seed: int, max_time_s: float) -> dict:
    # The budget scales with the cap so that collapse times keep their
    # place relative to it at every size.
    return {
        "mode": "sweep",
        **SWEEP,
        "initial_budget_j": SWEEP["initial_budget_j"] * max_time_s / 1000.0,
        "max_time_s": max_time_s,
        "budget_rates_w": sweep_rates(seed),
    }


# The accrual and sweep examples from the README.
README_ACCRUAL = {
    "mode": "accrual",
    "initial_budget_j": 10.0,
    "budget_rate_w": 1.0,
    "cost_rate_w": 2.0,
    "time_step_s": 0.01,
    "max_time_s": 20.0,
}
README_SWEEP = {
    "mode": "sweep",
    "initial_budget_j": 10.0,
    "cost_rate_w": 2.0,
    "time_step_s": 0.01,
    "max_time_s": 30.0,
    "budget_rates_w": [0.0, 0.5, 1.0],
}


def build(
    name: str, seed: int, workdir: Path, fixture: Path, sizes: Sizes = FULL
) -> tuple[Workload, dict]:
    """Write the inputs of workload ``name`` and return it with a record
    of the generated inputs."""
    if name == "analyze-json-200k":
        drops = write_radius_file(workdir / "radii.csv", sizes.analyze_rows, seed)
        argv = ("analyze", "radii.csv", "--unit", "mm", "--momentum", "paper",
                "--format", "json", "--out", "report.json")
        inv = Invocation(
            "analyze-json",
            argv,
            "report.json",
            check_analyze_json(sizes.analyze_rows, sum(drops.values())),
        )
        return Workload(name, "rows", (inv,)), {"rows": sizes.analyze_rows, "drops": drops}

    if name == "censor-text-200k":
        config = _censor_config(seed, sizes.censor_tracks)
        _write_json(workdir / "censor.json", config)
        inv = Invocation(
            "censor-text",
            ("simulate", "censor.json", "--format", "text"),
            None,
            check_censor_text(config["n_tracks"], config["floor_n"]),
        )
        return Workload(name, "tracks", (inv,)), {"config": config}

    if name == "sweep-1e6":
        config = _sweep_config(seed, sizes.sweep_max_time_s)
        _write_json(workdir / "sweep.json", config)
        inv = Invocation(
            "sweep-csv",
            ("simulate", "sweep.json", "--format", "csv"),
            None,
            check_sweep_csv(config),
        )
        return Workload(name, "steps", (inv,)), {"config": config}

    if name == "cli-mix":
        small = _censor_config(seed, 228)
        _write_json(workdir / "censor-228.json", small)
        _write_json(workdir / "accrual.json", README_ACCRUAL)
        _write_json(workdir / "sweep-readme.json", README_SWEEP)
        (workdir / fixture.name).write_bytes(fixture.read_bytes())
        round_ = (
            Invocation("constants-json", ("constants", "--format", "json"), None,
                       check_constants_json),
            Invocation("budget-text", ("budget", "--format", "text"), None,
                       check_budget_text),
            Invocation("budget-310-json",
                       ("budget", "--temperature", "310", "--format", "json"), None,
                       check_budget_skipped_json),
            Invocation("fixture-text", ("analyze", fixture.name, "--format", "text"),
                       None, check_fixture_text),
            Invocation("censor-228-csv", ("simulate", "censor-228.json", "--format", "csv"),
                       None, check_censor_csv(228, small["floor_n"])),
            Invocation("accrual-json", ("simulate", "accrual.json"), None,
                       check_accrual_json(README_ACCRUAL)),
            Invocation("sweep-readme-csv", ("simulate", "sweep-readme.json", "--format", "csv"),
                       None, _one_item(check_sweep_csv(README_SWEEP))),
        )
        return Workload(name, "invocations", round_), {"censor_228": small}

    names = ", ".join((*WORKLOADS, *EXTRA_WORKLOADS))
    raise ValueError(f"unknown workload {name!r}; choose from {names}")
