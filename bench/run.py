"""Benchmark of the qtf command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` for those
of BENCHMARK.json.  The seed generates the workload's input files; the
program sees only those.

With ``--trace 0`` the benchmark is a closed loop with one client: it
runs the workload's round of ``python -m qtf`` invocations, one child
process at a time, each spawned after the last has exited, until S
seconds have passed.  The checkout's ``src`` is put on PYTHONPATH.  One
untimed round warms the caches first.  It takes per invocation the
wall time from spawn to exit, with the report written, and the child's
CPU time and peak RSS from ``os.wait4``.  ``setup_s`` is the median
wall time of ``python -m qtf --version``, run once after every round so
that its samples span the whole run.  Times are scaled to a fixed host
speed by a reference program run after every round (see ``END_TO_END``).

With ``--trace 1`` it instead calls ``qtf.cli.main`` in process, one
round untraced and one traced with the wrappers of ``spans.py``, in
turns until S seconds have passed, and reports per-layer self times and
counts (medians over traced rounds), a start-up breakdown, and the
tracing overhead.

Every report is checked (``workloads.py``), and repeats of an invocation,
traced or not, must produce the same bytes.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 1 when a check failed.  A run record
with the raw samples goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from spans import PER_LAYER, Tracer, median_metrics
from workloads import (
    EXTRA_WORKLOADS,
    FULL,
    WORKLOADS,
    CheckFailed,
    Invocation,
    Sizes,
    build,
    require,
)

ROOT = Path(__file__).resolve().parents[1]

# End-to-end metrics: name -> unit.  The items of items_per_s are input
# rows, generated tracks, accrual steps or invocations, by workload.
#
# Times and rates are given at a fixed host speed.  On a shared host the
# speed of a process swings by up to 1.5x over minutes, far longer than
# a run.  So after every round the benchmark also runs REFERENCE_CODE, a
# fixed program that does not use qtf, and scales wall times by
# REFERENCE_S over the reference's median wall time in the run, rates by
# the inverse, and CPU times by REFERENCE_CPU_S over its median CPU
# time.  The values as measured, the reference samples and the scales
# are kept in the run record.  On 2 vCPUs of a shared Xeon host, over
# ten runs of 50 s, the median invocation spread by 8.7% of its median
# (quartile distance) as measured and by 3.0% at fixed host speed on
# censor-text-200k, and by 13.6% and 2.9% on cli-mix.
#
# The tail (the highest percentile with min(10, n // 3) invocations
# beyond it) is printed and recorded but not a metric: a run of
# censor-text-200k holds under 20 invocations, too few for a steady one.
END_TO_END = {
    "wall_s_p50": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Start-up, imports and a tenth of a second of object-heavy Python, like
# a short qtf call.
REFERENCE_CODE = """
import argparse, json, math
from dataclasses import dataclass

import numpy


@dataclass(frozen=True)
class Row:
    index: int
    value: float


rows = [Row(i, math.exp(math.sin(i * 0.001) * 3.0)) for i in range(25000)]
values = numpy.sort(numpy.asarray([row.value for row in rows]))
print(json.dumps({"n": len(rows), "median": float(numpy.median(values))}))
"""
# The reference's wall and CPU time at the host speed the metrics are
# given at.  Its CPU time includes numpy's BLAS threads.
REFERENCE_S = 0.3
REFERENCE_CPU_S = 0.42

# Fewest rounds, and so samples of setup_s and of the reference.
MIN_ROUNDS = 5
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    """One child process: its wall time, resource use and exit code."""

    name: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    round: int = 0
    ok: bool = True


class Runner:
    """Spawns ``python`` children in the work directory, one at a time."""

    def __init__(self, src: Path) -> None:
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")

    def spawn(self, args: list[str], name: str) -> Sample:
        argv = [sys.executable, *args]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, "stdout.txt", flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, "stderr.txt", flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        return Sample(
            name=name,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_kb=usage.ru_maxrss,
            exit_code=os.waitstatus_to_exitcode(status),
        )

    def qtf(self, inv: Invocation) -> tuple[Sample, bytes]:
        if inv.out:
            Path(inv.out).unlink(missing_ok=True)
        sample = self.spawn(["-m", "qtf", *inv.argv], inv.name)
        report = Path(inv.out or "stdout.txt")
        return sample, report.read_bytes() if report.exists() else b""


class Checker:
    """Checks each invocation's report once, then requires repeats to
    reproduce its bytes; counts attempts and failures."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.items: dict[str, int] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def __call__(self, inv: Invocation, exit_code: int, report: bytes, label: str) -> int:
        """Items of work the report accounts for, or 0 when it fails."""
        self.attempted += 1
        try:
            require(exit_code == 0, f"exit code {exit_code}")
            digest = hashlib.sha256(report).hexdigest()
            if inv.name not in self.digests:
                self.items[inv.name] = inv.check(report)
                self.digests[inv.name] = digest
            require(
                digest == self.digests[inv.name],
                "report bytes differ from the first repeat",
            )
        except (CheckFailed, ValueError, LookupError, TypeError) as exc:
            self.errors.append(f"{label} {inv.name}: {exc}")
            return 0
        return self.items[inv.name]

    def check_version(self, sample: Sample) -> None:
        ok = sample.exit_code == 0 and Path("stdout.txt").read_text().startswith("qtf ")
        self.attempted += 1
        if not ok:
            self.errors.append(f"--version exited {sample.exit_code}")
            sample.ok = False


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile of ``values`` with at least min(10, n // 3)
    samples above it: (value, percentile, samples above)."""
    ordered = sorted(values)
    beyond = min(10, len(ordered) // 3)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def locate_qtf(runner: Runner, src: Path) -> tuple[str, Path]:
    """The ``qtf`` package a child imports, which must be the checkout's,
    and the path of its packaged fixture."""
    code = "import qtf, qtf.tracks; print(qtf.__file__); print(qtf.tracks.fixture_path())"
    sample = runner.spawn(["-c", code], "locate")
    out = Path("stdout.txt").read_text().split("\n")
    if sample.exit_code != 0 or len(out) < 2:
        raise BenchError(f"cannot import qtf from {src}: {Path('stderr.txt').read_text()}")
    qtf_file = Path(out[0]).resolve()
    if not qtf_file.is_relative_to(src.resolve()):
        raise BenchError(f"imported qtf from {qtf_file}, not from {src}")
    return str(qtf_file), Path(out[1])


def timed_run(runner: Runner, workload, seconds: float, checker: Checker) -> tuple[dict, dict]:
    """The closed loop with tracing off: end-to-end metrics and samples."""
    for inv in workload.round:
        sample, report = runner.qtf(inv)
        checker(inv, sample.exit_code, report, "warm-up")

    setup: list[Sample] = []
    reference: list[Sample] = []
    samples: list[Sample] = []
    round_walls: list[float] = []
    round_items: list[int] = []
    start = time.perf_counter()
    while len(setup) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        wall = 0.0
        items = 0
        for inv in workload.round:
            sample, report = runner.qtf(inv)
            sample.round = len(round_walls)
            got = checker(inv, sample.exit_code, report, f"round {sample.round}")
            sample.ok = got > 0
            items += got
            wall += sample.wall_s
            samples.append(sample)
        round_walls.append(wall)
        round_items.append(items)
        setup.append(runner.spawn(["-m", "qtf", "--version"], "version"))
        checker.check_version(setup[-1])
        reference.append(runner.spawn(["-c", REFERENCE_CODE], "reference"))
        if reference[-1].exit_code != 0:
            raise BenchError(f"reference program failed: {Path('stderr.txt').read_text()}")

    walls = [s.wall_s for s in samples]
    tail_value, tail_pct, tail_beyond = tail(walls)
    measured = {
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": tail_value,
        "items_per_s": sum(round_items) / sum(round_walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.maxrss_kb for s in samples) / 1024,
        "setup_s": statistics.median(s.wall_s for s in setup),
    }
    wall_scale = REFERENCE_S / statistics.median(s.wall_s for s in reference)
    cpu_scale = REFERENCE_CPU_S / statistics.median(s.cpu_s for s in reference)
    metrics = {
        "wall_s_p50": measured["wall_s_p50"] * wall_scale,
        "items_per_s": measured["items_per_s"] / wall_scale,
        "cpu_s": measured["cpu_s"] * cpu_scale,
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": measured["setup_s"] * wall_scale,
    }
    record = {
        "samples_per_metric": {
            "invocations": len(samples),
            "rounds": len(round_walls),
            "setup": len(setup),
            "reference": len(reference),
        },
        "measured": measured,
        "wall_scale": wall_scale,
        "cpu_scale": cpu_scale,
        "wall_s_tail_percentile": tail_pct,
        "wall_s_tail_samples_beyond": tail_beyond,
        "items_per_round": max(round_items),
        "item_unit": workload.item_unit,
        "round_walls_s": round_walls,
        "samples": [asdict(s) for s in samples],
        "setup_samples": [asdict(s) for s in setup],
        "reference_samples": [asdict(s) for s in reference],
    }
    return metrics, record


def _import_us(stderr: str, module: str) -> int:
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1])
    raise BenchError(f"-X importtime shows no import of {module}")


def startup_breakdown(runner: Runner) -> dict:
    python_s, numpy_us, qtf_us = [], [], []
    for _ in range(STARTUP_REPEATS):
        python_s.append(runner.spawn(["-c", "pass"], "python").wall_s)
        runner.spawn(["-X", "importtime", "-c", "import qtf"], "importtime")
        stderr = Path("stderr.txt").read_text()
        numpy_us.append(_import_us(stderr, "numpy"))
        qtf_us.append(_import_us(stderr, "qtf"))
    return {
        "startup.python_s": statistics.median(python_s),
        "startup.import_numpy_us": statistics.median(numpy_us),
        "startup.import_qtf_us": statistics.median(qtf_us),
    }


def _call_main(inv: Invocation) -> tuple[int, float, bytes]:
    """Exit code, wall time and report of ``qtf.cli.main`` in process."""
    import qtf.cli

    if inv.out:
        Path(inv.out).unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        start = time.perf_counter()
        try:
            code = qtf.cli.main(list(inv.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed invocation, not a dead benchmark
            print(f"qtf.cli.main({list(inv.argv)}) raised {exc!r}", file=sys.stderr)
            code = -1
        wall = time.perf_counter() - start
    if inv.out:
        report = Path(inv.out).read_bytes() if Path(inv.out).exists() else b""
    else:
        report = stdout.getvalue().encode("utf-8")
    return code, wall, report


def _in_process_round(workload, checker: Checker, label: str, tracer: Tracer | None):
    """Wall time and report bytes of one in-process round."""
    wall = 0.0
    report_bytes = 0
    for inv in workload.round:
        code, seconds, report = _call_main(inv)
        wall += seconds
        if tracer is not None:
            tracer.end_invocation()
        report_bytes += len(report)
        checker(inv, code, report, label)
    return wall, report_bytes


def traced_run(runner: Runner, workload, src: Path, seconds: float, checker: Checker):
    """Per-layer metrics from the traced in-process rounds."""
    startup = startup_breakdown(runner)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import qtf
    import qtf.montecarlo
    import qtf.rng

    if not Path(qtf.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported qtf from {qtf.__file__}, not from {src}")

    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(_in_process_round(workload, checker, "untraced", None)[0])
        tracer = Tracer()
        tracer.install()
        try:
            wall, report_bytes = _in_process_round(workload, checker, "traced", tracer)
        finally:
            tracer.restore()
        traced.append(wall)
        layers.append({**tracer.layer_metrics(), "cli.report_bytes": report_bytes})

    metrics = {**median_metrics(layers), **startup}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    # Timing every draw inside the run would distort it, so the draws
    # of the last traced round's (seed, i) counters are timed here.
    draws = 0
    begin = time.perf_counter()
    for config in tracer.sim_configs:
        for i in range(config.n_tracks):
            qtf.rng.std_normal(config.seed, i)
        draws += config.n_tracks
    metrics["rng.std_normal.s"] = time.perf_counter() - begin if draws else 0
    metrics["rng.draws"] = draws

    if tracer.generated is not None and tracer.censored is not None:
        begin = time.perf_counter()
        qtf.montecarlo.ks_statistic(tracer.generated, tracer.censored)
        metrics["montecarlo.ks_statistic.self_s"] = time.perf_counter() - begin

    record = {
        "samples_per_metric": {"traced_rounds": len(traced), "untraced_rounds": len(untraced)},
        "traced_round_walls_s": traced,
        "untraced_round_walls_s": untraced,
        "layer_rounds": layers,
        "spans": [asdict(s) for s in tracer.spans],
    }
    return {name: metrics[name] for name in PER_LAYER}, record


def machine_record(root: Path) -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": sys.version,
        "numpy": numpy_version,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, root: Path = ROOT, sizes: Sizes = FULL
) -> dict:
    """Run one workload and return its result and run record."""
    src = root / "src"
    if not (src / "qtf" / "__init__.py").is_file():
        raise BenchError(f"no qtf package under {src}")
    load_before = os.getloadavg()
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / ".bench_work"))
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        runner = Runner(src)
        qtf_file, fixture = locate_qtf(runner, src)
        workload, inputs = build(name, seed, workdir, fixture, sizes)
        checker = Checker()
        if trace:
            metrics, detail = traced_run(runner, workload, src, seconds, checker)
        else:
            metrics, detail = timed_run(runner, workload, seconds, checker)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": len(checker.errors),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "qtf_file": qtf_file,
        "inputs": inputs,
        "machine": machine_record(root),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "errors": checker.errors,
        "result": result,
        **detail,
    }
    return record


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, *EXTRA_WORKLOADS, "all"], default="all"
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = ROOT / ".bench_out"
    results = {}
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            results[name] = result = record["result"]
            for error in record["errors"]:
                print(f"{name}: FAILED {error}", file=sys.stderr)
            count = record["samples_per_metric"]
            print(f"{name}: error_rate {result['failed'] / result['attempted']:.4g}"
                  f" ({result['failed']}/{result['attempted']}), samples {count}")
            for metric, entry in result["metrics"].items():
                print(f"{name}: {metric} {entry['value']:.6g} {entry['unit']}")
            for metric, value in record.get("measured", {}).items():
                print(f"{name}: {metric} as measured {value:.6g}")
            if "wall_scale" in record:
                print(f"{name}: scale {record['wall_scale']:.6g} wall, {record['cpu_scale']:.6g} cpu")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
