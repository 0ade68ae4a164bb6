"""Command-line entry point.

Subcommands: ``constants``, ``analyze``, ``budget``, ``simulate``.
Reports go to stdout (or ``--out``), diagnostics to stderr, so pipelines
can consume JSON cleanly.  Exit codes: 0 success, 1 usage/config error
or a report that cannot be written, 2 data error, 130 interrupted.

All of qtf's file I/O is here: ``_read_bytes`` reads every input file
and ``_run`` writes every report.

Every report embeds a run manifest (tool version, subcommand, resolved
configuration, content digest of the input, seed) and contains no
timestamps: two runs with equal manifests produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .constants import PAPER_INPUT, PAPER_REFERENCE, constants_snapshot, sci
from .errors import (
    DataError,
    DomainError,
    QtfError,
    real_from_text,
    require_nonnegative,
    require_real,
)
from .thermo import ThermoQuery, audit_against_paper, compute_budget

# The track pipeline, the Monte Carlo harness and the solvency calculus
# are imported by the subcommands that run them, so that ``constants``,
# ``budget`` and ``--version`` never load them.
if TYPE_CHECKING:
    from .montecarlo import AccrualOutcome, Lognormal, Uniform
    from .solvency import ParticleSpec

# The momentum route and action floor of a run that names neither:
# analyze's --momentum and --floor, and a simulate config without the
# momentum_source or floor_n key.
DEFAULT_MOMENTUM = "paper"
DEFAULT_FLOOR_N = PAPER_INPUT["floor_n"]

# Each character str.splitlines breaks on, mapped to its escape as repr
# writes it (repr, unlike the unicode_escape codec, imports no module),
# so that a path or argv element holding one cannot split an error line
_ESCAPE_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _error_line(message: str, kind: str = "error") -> str:
    """The one stderr line of a failed call, ``qtf: error: ...`` or
    ``qtf: data error: ...``, with the line breaks of ``message``
    escaped."""
    return f"qtf: {kind}: {message.translate(_ESCAPE_LINE_BREAKS)}\n"


def _report_error(message: str, kind: str = "error") -> None:
    """Write an error line to stderr, unless stderr is closed or full."""
    try:
        _not_closed(sys.stderr).write(_error_line(message, kind))
    except OSError:
        pass


def _not_closed(stream):
    """``stream``, a standard stream; one whose fd was closed when the
    process started is ``None``, and fails as a write to that fd does."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _digest(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, from CPython's own SHA-256
    module: ``_sha2`` (3.12+) or ``_sha256`` (3.10, 3.11).

    ``hashlib`` loads OpenSSL's libcrypto, about 3.6 MB of a short
    process's memory, to hash what is mostly a small config.  The
    built-in module is the same algorithm, about 6x slower per byte
    (some 2.5 ms more per MB of radius file).  Only an interpreter
    built without either module falls back to ``hashlib``.
    """
    try:
        # 3.12 renamed the module; asking each interpreter only for its
        # own name spares a failed search of sys.path
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(data).hexdigest()


def _manifest(
    subcommand: str,
    resolved_config: dict,
    input_digest: str | None = None,
    seed: int | None = None,
) -> dict:
    """The reproducibility header embedded in every report."""
    return {
        "tool_version": __version__,
        "subcommand": subcommand,
        "resolved_config": resolved_config,
        "input_digest": input_digest,
        "seed": seed,
    }


def _read_bytes(path: Path, error: type[QtfError], name: str) -> bytes:
    """The bytes of ``path``; a file that cannot be read raises ``error``
    (a data error for a radius file, a config error for a config)."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise error(f"cannot read {name}: {exc}") from exc


def _render(manifest: dict, body: dict | str) -> str:
    """A report: a JSON body under a ``manifest`` key, or a csv or text
    body after a ``# manifest:`` comment line."""
    if isinstance(body, dict):
        doc = {"manifest": manifest, **body}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    compact = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return f"# manifest: {compact}\n{body}"


class _Parser(argparse.ArgumentParser):
    """argparse prints usage lines and exits 2 on a usage error; the
    contract wants the one line ``qtf: error: ...`` and exit 1.

    argparse also drops an ``OSError`` from writing ``--help`` or
    ``--version``; here it reaches ``main``, which exits 1 on it.

    A flag is spelled in full: argparse's prefix matching is off, here
    and in each subparser, which argparse builds as this class.  Any
    argument that ``float()`` reads, such as ``-1e5``, ``-inf`` or
    ``-1_000``, is a value, not an unknown option.  A number flag reads
    its value in the grammar of a radius row (``_number``), so a
    negative value in that grammar reaches the domain check, and one
    only ``float()`` reads, such as ``-1_000``, is an invalid value of
    the flag.  argparse itself takes only ``-1`` and ``-.5`` for
    negative numbers; its matcher is private.
    """

    class _Number:
        @staticmethod
        def match(arg: str) -> bool:
            try:
                float(arg)
            except ValueError:
                return False
            return True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = self._Number

    def error(self, message: str) -> None:
        self.exit(1, _error_line(message))

    def _get_values(self, action: argparse.Action, arg_strings: list[str]):
        # Python 3.11 drops the value of --flag=-- and hands the flag an
        # empty list, which --out would take for "no path"
        if action.option_strings and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)

    def _print_message(self, message: str, file=None) -> None:
        if message:
            file = _not_closed(file)
            file.write(message)
            file.flush()


# ---------------------------------------------------------------------------
# Subcommands: each returns its manifest and its report body, a dict for
# json or a str for csv and text; ``main`` renders both with _render.
# ---------------------------------------------------------------------------


def cmd_constants(args: argparse.Namespace) -> tuple[dict, dict | str]:
    manifest = _manifest("constants", {"format": args.format})
    snapshot = constants_snapshot()
    if args.format == "json":
        return manifest, {"constants": snapshot}
    rows = [(f"physical.{name}", value) for name, value in snapshot["physical"].items()]
    for role, table in snapshot["paper"].items():
        rows += [(f"paper.{role}.{name}", value) for name, value in table.items()]
    width = max(len(name) for name, _ in rows)
    return manifest, "".join(f"{name:<{width}} {value!r}\n" for name, value in rows)


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, dict | str]:
    from .tracks import emit_summary, parse_dataset, report_to_dict, solvency_report

    path = Path(args.path)
    raw = _read_bytes(path, DataError, str(path))
    dataset = parse_dataset(raw, unit=args.unit, source_label=str(path))
    with _caller_names({"--floor": "floor_n"}):
        report = solvency_report(dataset, momentum_source=args.momentum, floor_n=args.floor)
    manifest = _manifest(
        "analyze",
        {
            "path": str(args.path),
            "unit": args.unit,
            "momentum": args.momentum,
            "floor_n": args.floor,
            "format": args.format,
        },
        input_digest=_digest(raw),
    )
    if args.format == "json":
        return manifest, report_to_dict(report)
    return manifest, emit_summary(report, args.format)


def _budget_body(query: ThermoQuery) -> dict:
    budget = compute_budget(query)
    applicable = query == ThermoQuery()
    records = audit_against_paper(budget) if applicable else []
    scene_ratio = PAPER_REFERENCE["wave_scene_j"] / PAPER_REFERENCE["collapsed_scene_j"]
    return {
        "query": asdict(query),
        "budget": asdict(budget),
        "audit": {
            "applicable": applicable,
            "records": [asdict(r) for r in records],
        },
        "reference": {**PAPER_REFERENCE, "asymmetry_scene_ratio": scene_ratio},
    }


def cmd_budget(args: argparse.Namespace) -> tuple[dict, dict | str]:
    # argparse stores each flag under its name without the dashes
    flags = {flag: getattr(args, flag[2:]) for flag in _BUDGET_FLAGS}
    table = {flag: field for flag, (field, _) in _BUDGET_FLAGS.items()}
    query = _build(ThermoQuery, flags, table)
    body = _budget_body(query)
    manifest = _manifest("budget", {**asdict(query), "format": args.format})
    if args.format == "json":
        return manifest, body

    lines = [f"{'quantity':<18}{'computed':<14}{'stated':<12}{'gap':<10}flag"]
    stated_by_name = {r["quantity"]: r for r in body["audit"]["records"]}
    for name, value in body["budget"].items():
        rec = stated_by_name.get(name)
        if rec is None:
            lines.append(f"{name:<18}{sci(value):<14}{'-':<12}{'-':<10}")
        else:
            flag = "FLAG" if rec["flagged"] else "."
            lines.append(
                f"{name:<18}{sci(value):<14}{sci(rec['stated']):<12}"
                f"{rec['relative_gap']:<10.3g}{flag}"
            )
    if not body["audit"]["applicable"]:
        lines.append("audit: skipped (inputs differ from stated defaults)")
    lines.append("")
    for name, value in body["reference"].items():
        lines.append(f"reference.{name:<32}{sci(value)}")
    return manifest, "\n".join(lines) + "\n"


def _require_keys(config: dict, required: set[str],
                  optional: set[str] | frozenset[str] = frozenset(), path: str = "") -> None:
    """Every key of ``required`` is present and no key is outside
    ``required | optional``; an error names each key after ``path``."""
    missing = required - config.keys()
    unknown = config.keys() - required - optional
    if missing:
        raise DomainError(f"config missing keys: {sorted(path + k for k in missing)}")
    if unknown:
        raise DomainError(f"config has unknown keys: {sorted(path + k for k in unknown)}")


def _config_int(config: dict, key: str) -> int:
    """An integer config value; integral floats such as 1e6 are accepted,
    booleans, strings and non-integral numbers are not."""
    value = config[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{key} must be an integer, got {value!r}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is a config error, not
    a silent last-one-wins."""
    config = {}
    for key, value in pairs:
        if key in config:
            raise DomainError(f"config has repeated key {key!r}")
        config[key] = value
    return config


# Each table maps a key or flag, as the caller writes it, to the
# parameter it fills, in the order the values are read.
_LOGNORMAL = {"mu": "mu", "sigma": "sigma"}
_MOMENTS = {"mean_m": "mean", "sd_m": "sd"}
_UNIFORM = {"lo_m": "lo", "hi_m": "hi"}
_PARTICLE = {"mass_kg": "mass", "kinetic_energy_j": "kinetic_energy"}
# The keys accrual and sweep share; accrual reads its one rate first, a
# sweep takes its rates from the list budget_rates_w.
_ACCRUAL = {"initial_budget_j": "initial_budget", "cost_rate_w": "cost_rate",
            "time_step_s": "time_step", "max_time_s": "max_time"}
# flag -> (ThermoQuery field, --help text); the defaults are ThermoQuery's
_BUDGET_FLAGS = {
    "--temperature": ("temperature", "K"),
    "--bits": ("bits", "bits per symbolic unit"),
    "--modes": ("n_modes", "degrees of freedom"),
    "--tau": ("sustain_time", "sustain time, s"),
    "--fps": ("frame_rate", "frame rate, Hz"),
}


@contextmanager
def _caller_names(table: dict[str, str], path: str = ""):
    """Re-raise a ``DomainError`` about a parameter of ``table`` with each
    parameter its message names written as the caller's key or flag,
    after ``path``.  A parameter inside a formula, such as ``sd/mean``,
    keeps the library's name."""
    try:
        yield
    except DomainError as exc:
        names = {param: path + key for key, param in table.items()}
        if exc.name not in names:
            raise
        message = re.sub(r"[\w/*()]+", lambda m: names.get(m[0], m[0]), str(exc))
        raise DomainError(message, names[exc.name]) from None


def _build(make, config: dict, table: dict[str, str], path: str = "",
           keys: set[str] | frozenset[str] = frozenset(), **fixed):
    """``make`` called with the values of ``table``'s keys in ``config``,
    which holds those keys and ``keys`` and no other, each a real number
    (``errors.require_real``), and with ``fixed``; its errors name the
    keys after ``path``."""
    _require_keys(config, table.keys() | keys, path=path)
    values = {param: require_real(path + key, config[key]) for key, param in table.items()}
    with _caller_names(table, path):
        return make(**values, **fixed)


def _parse_distribution(spec: dict) -> Lognormal | Uniform:
    from .montecarlo import Lognormal, Uniform, lognormal_from_moments

    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("distribution must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "lognormal":
        if _LOGNORMAL.keys() & spec.keys():
            return _build(Lognormal, spec, _LOGNORMAL, "distribution.", {"kind"})
        return _build(lognormal_from_moments, spec, _MOMENTS, "distribution.", {"kind"})
    if kind == "uniform":
        return _build(Uniform, spec, _UNIFORM, "distribution.", {"kind"})
    raise DomainError(f"unknown distribution kind {kind!r}")


def _parse_particle(spec: dict | None) -> ParticleSpec | None:
    from .solvency import ParticleSpec

    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise DomainError(f"particle must be an object with {'/'.join(_PARTICLE)}")
    return _build(ParticleSpec, spec, _PARTICLE, "particle.")


def _simulate_tracks(config: dict, seed: int, fmt: str) -> dict | str:
    from .montecarlo import SimConfig, censor_at_floor, generate_tracks
    from .tracks import emit_summary, report_to_dict, resolve_momentum, solvency_report

    mode = config["mode"]
    # Every key is checked before any track is drawn; the optional ones
    # the config leaves out take the defaults of analyze's flags.
    particle = _parse_particle(config.get("particle"))
    floor_n = DEFAULT_FLOOR_N
    if "floor_n" in config:
        floor_n = require_real("floor_n", config["floor_n"])
    momentum_source = config.get("momentum_source", DEFAULT_MOMENTUM)
    sim = SimConfig(
        seed=seed,
        n_tracks=_config_int(config, "n_tracks"),
        distribution=_parse_distribution(config["distribution"]),
    )
    require_nonnegative("floor_n", floor_n)
    with _caller_names(_PARTICLE, "particle."):
        momentum, _ = resolve_momentum(momentum_source, particle)
        # censor_at_floor refuses a zero momentum, which only a derived one
        # can be, but after every draw; the with block names its inputs
        if mode == "censor" and momentum == 0.0:
            raise DomainError(f"mass {particle.mass!r} and kinetic_energy"
                              f" {particle.kinetic_energy!r} give momentum 0.0,"
                              " which censoring cannot use", "mass")
    dataset = generate_tracks(sim)
    if mode == "censor":
        censored = censor_at_floor(dataset, floor_n, momentum)
        if not len(censored):
            raise DataError(f"all {len(dataset)} tracks fall below floor {floor_n!r}")
        dataset = censored
    report = solvency_report(
        dataset, particle=particle, momentum_source=momentum_source, floor_n=floor_n
    )
    sim_section = {
        "mode": mode,
        "seed": seed,
        "n_tracks": sim.n_tracks,
        "distribution": sim.distribution.describe(),
        "momentum_source": report.momentum_source,
        "floor_n": floor_n,
    }
    if fmt == "json":
        return {"sim": sim_section, **report_to_dict(report)}
    return emit_summary(report, fmt)


def _outcome_record(outcome: AccrualOutcome) -> dict:
    return {
        "collapsed": outcome.collapsed,
        "collapse_time_s": outcome.collapse_time,
        "steps_run": outcome.steps_run,
    }


def _simulate_accrual(config: dict, fmt: str) -> dict | str:
    from .montecarlo import AccrualConfig, run_accrual

    table = {"budget_rate_w": "budget_rate", **_ACCRUAL}
    accrual = _build(AccrualConfig, config, table, keys={"mode"})
    outcome = run_accrual(accrual)
    if fmt == "json":
        return {"accrual": asdict(accrual), "outcome": _outcome_record(outcome)}
    if outcome.collapsed:
        line = (
            f"collapsed at t = {outcome.collapse_time:.6g} s"
            f" (step {outcome.steps_run})"
        )
    else:
        line = f"no collapse within {accrual.max_time:.6g} s"
    return line + "\n"


def _simulate_sweep(config: dict, fmt: str) -> dict | str:
    from .montecarlo import AccrualConfig, sweep_prediction_1

    key = "budget_rates_w"
    # each run takes its rate from the list; base's rate is a placeholder
    base = _build(AccrualConfig, config, _ACCRUAL, keys={"mode", key}, budget_rate=0.0)
    rates_w = config[key]
    if not (isinstance(rates_w, list) and rates_w):
        raise DomainError(f"{key} must be a non-empty list of rates")
    items = {f"{key}[{i}]": rate for i, rate in enumerate(rates_w)}
    rates = [require_real(item, rate) for item, rate in items.items()]
    # every rate is checked, in order, before the first run
    for item, rate in zip(items, rates):
        with _caller_names({item: "budget_rate"}):
            replace(base, budget_rate=rate)
    results = sweep_prediction_1(base, rates)
    if fmt == "json":
        accrual = asdict(base)
        del accrual["budget_rate"]
        return {
            "accrual": accrual,
            "sweep": [
                {"budget_rate_w": rate, **_outcome_record(out)} for rate, out in results
            ],
        }
    if fmt == "csv":
        lines = ["budget_rate_w,collapse_time_s"]
        for rate, out in results:
            time_field = repr(out.collapse_time) if out.collapsed else ""
            lines.append(f"{rate!r},{time_field}")
        return "\n".join(lines) + "\n"
    lines = [f"{'budget_rate_w':<16}collapse_time_s"]
    for rate, out in results:
        time_field = f"{out.collapse_time:.6g}" if out.collapsed else "-"
        lines.append(f"{rate:<16.6g}{time_field}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, dict | str]:
    path = Path(args.config)
    raw = _read_bytes(path, DomainError, f"config {path}")
    try:
        config = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except DomainError:
        raise
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes, bad JSON and integers
        # past the interpreter's digit limit; RecursionError deep nesting.
        raise DomainError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or "mode" not in config:
        raise DomainError("config must be a JSON object with a 'mode' key")

    mode = config["mode"]
    # Checked before any simulation work: accrual has no csv form.
    if mode == "accrual" and args.format == "csv":
        raise DomainError("accrual mode supports json or text, got 'csv'")
    seed: int | None = None
    if mode in ("tracks", "censor"):
        _require_keys(
            config,
            {"mode", "seed", "n_tracks", "distribution"},
            {"particle", "momentum_source", "floor_n"},
        )
        seed = _config_int(config, "seed")

    resolved = dict(config)
    if seed is not None:
        resolved["seed"] = seed
    manifest = _manifest(
        "simulate",
        {"config": resolved, "format": args.format},
        input_digest=_digest(raw),
        seed=seed,
    )

    if mode in ("tracks", "censor"):
        return manifest, _simulate_tracks(config, seed, args.format)
    if mode == "accrual":
        return manifest, _simulate_accrual(config, args.format)
    if mode == "sweep":
        return manifest, _simulate_sweep(config, args.format)
    raise DomainError(f"unknown mode {mode!r} (tracks, censor, accrual, sweep)")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _number(text: str) -> float:
    """The value of a number flag, in the grammar of a radius row
    (``errors.real_from_text``)."""
    try:
        return real_from_text(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _out_path(value: str) -> str:
    """The value of ``--out``.  An empty one, as an unset shell variable
    gives, is a usage error rather than a quiet write to stdout."""
    if not value:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return value


_DESCRIPTION = """Collapse-solvency indices of track radii, energy budgets and
seeded Monte Carlo simulations. Each report goes to stdout, or to the --out
file, and each error to stderr as one line. Exit status: 0 on success, 2 on a
data error, 130 when interrupted, 1 on any other error."""


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtf", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=f"qtf {__version__}")
    # not required: main reports a missing subcommand after an unknown flag
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("constants", help="dump the constants snapshot")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out", type=_out_path, help="write the report to this path")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("analyze", help="run the track pipeline on a radius file")
    p.add_argument("path", help="input file, one radius per row")
    p.add_argument("--unit", choices=["mm", "m"], default="mm")
    p.add_argument("--momentum", choices=["paper", "derived"], default=DEFAULT_MOMENTUM)
    p.add_argument("--floor", type=_number, default=DEFAULT_FLOOR_N, help="action floor n")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out", type=_out_path, help="write the report to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("budget", help="compute the energy budget and audit")
    stated = ThermoQuery()  # the defaults are the stated reference inputs
    for flag, (field, help_text) in _BUDGET_FLAGS.items():
        p.add_argument(flag, type=_number, default=getattr(stated, field), help=help_text)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out", type=_out_path, help="write the report to this path")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p.add_argument("config", help="JSON config file (see README for keys)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out", type=_out_path, help="write the report to this path")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.error("the following arguments are required: subcommand")
    except SystemExit as exc:  # a usage error, --help or --version
        return exc.code
    except OSError as exc:
        _report_error(f"cannot write standard output: {exc}")
        return 1
    # reported once the traceback, and the run's frames, are gone
    try:
        return _run(args)
    except MemoryError:
        message, code = f"out of memory running {args.subcommand}", 1
    except KeyboardInterrupt:
        message, code = "interrupted", 130
    _report_error(message)
    return code


def _run(args: argparse.Namespace) -> int:
    """Run the subcommand and write its report; the exit code."""
    try:
        report = _render(*args.func(args))
    except DataError as exc:
        _report_error(str(exc), "data error")
        return 2
    except QtfError as exc:
        _report_error(str(exc))
        return 1
    try:
        if args.out is not None:
            # encoded before the file is opened: out of memory leaves it as it was
            Path(args.out).write_bytes(report.encode("utf-8"))
        else:
            _not_closed(sys.stdout).write(report)
            sys.stdout.flush()
    except OSError as exc:
        target = args.out or "standard output"
        _report_error(f"cannot write {target}: {exc}")
        return 1
    return 0


def run() -> None:
    """Process entry point (``qtf`` and ``python -m qtf``): ``main`` on
    ``sys.argv``, exiting with its code.

    The objects built by the imports live until the process exits, so
    they are frozen out of the garbage collector first: no collection,
    nor the interpreter's teardown, walks them again.

    An error line or a report that ``main`` could not write stays in
    its stream's buffer; the stream's fd is then pointed at the null
    device, so that the flush at exit cannot fail again, nor turn the
    exit code into 120.
    """
    gc.freeze()
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed
        try:
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    run()
