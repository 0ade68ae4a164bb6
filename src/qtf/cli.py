"""Command-line entry point.

Subcommands: ``constants``, ``analyze``, ``budget``, ``simulate``.
Reports go to stdout (or ``--out``), diagnostics to stderr, so pipelines
can consume JSON cleanly.  Exit codes: 0 success, 1 usage/config error,
2 data error.

Every report embeds a run manifest (tool version, subcommand, resolved
configuration, content digest of the input, seed) and contains no
timestamps: two runs with equal manifests produce byte-identical
reports.  ``QTF_SEED`` overrides the config seed for ``simulate``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .constants import constants_snapshot, get_paper_values
from .errors import DataError, DomainError
from .montecarlo import (
    AccrualConfig,
    Lognormal,
    SimConfig,
    Uniform,
    censor_at_floor,
    generate_tracks,
    lognormal_from_moments,
    run_accrual,
    sweep_prediction_1,
)
from .solvency import ParticleSpec
from .thermo import (
    BIO_REFERENCE,
    ThermoQuery,
    asymmetry_ratio,
    audit_against_paper,
    compute_budget,
)
from .tracks import (
    emit_summary,
    parse_dataset,
    report_to_dict,
    resolve_momentum,
    sci,
    solvency_report,
)

SEED_ENV_VAR = "QTF_SEED"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header embedded in every report."""

    tool_version: str
    subcommand: str
    resolved_config: dict
    input_digest: str | None
    seed: int | None

    def compact(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest(
    subcommand: str,
    resolved_config: dict,
    input_digest: str | None = None,
    seed: int | None = None,
) -> RunManifest:
    return RunManifest(
        tool_version=__version__,
        subcommand=subcommand,
        resolved_config=resolved_config,
        input_digest=input_digest,
        seed=seed,
    )


def _render_json(manifest: RunManifest, body: dict) -> str:
    doc = {"manifest": asdict(manifest), **body}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _prepend_manifest(manifest: RunManifest, body: str) -> str:
    return f"# manifest: {manifest.compact()}\n{body}"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_constants(args: argparse.Namespace) -> str:
    manifest = _manifest("constants", {"format": args.format})
    snapshot = constants_snapshot()
    if args.format == "json":
        return _render_json(manifest, {"constants": snapshot})
    lines = []
    for tier in ("physical", "paper"):
        for name, value in snapshot[tier].items():
            lines.append(f"{tier + '.' + name:<28}{value!r}")
    return _prepend_manifest(manifest, "\n".join(lines) + "\n")


def cmd_analyze(args: argparse.Namespace) -> str:
    path = Path(args.path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    dataset = parse_dataset(raw, unit=args.unit, source_label=str(path))
    report = solvency_report(
        dataset, momentum_source=args.momentum, floor_n=args.floor
    )
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
        return _render_json(manifest, report_to_dict(report))
    return _prepend_manifest(manifest, emit_summary(report, args.format))


def _budget_body(query: ThermoQuery) -> dict:
    budget = compute_budget(query)
    applicable = query == ThermoQuery()
    records = audit_against_paper(budget) if applicable else []
    return {
        "query": asdict(query),
        "budget": asdict(budget),
        "audit": {
            "applicable": applicable,
            "records": [asdict(r) for r in records],
        },
        "reference": {**BIO_REFERENCE, "asymmetry_scene_ratio": asymmetry_ratio()},
    }


def cmd_budget(args: argparse.Namespace) -> str:
    query = ThermoQuery(
        temperature=args.temperature,
        bits=args.bits,
        n_modes=args.modes,
        sustain_time=args.tau,
        frame_rate=args.fps,
    )
    body = _budget_body(query)
    manifest = _manifest("budget", {**asdict(query), "format": args.format})
    if args.format == "json":
        return _render_json(manifest, body)

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
    return _prepend_manifest(manifest, "\n".join(lines) + "\n")


def _require_keys(config: dict, required: set[str], allowed: set[str]) -> None:
    missing = required - config.keys()
    unknown = config.keys() - allowed
    if missing:
        raise DomainError(f"config missing keys: {sorted(missing)}")
    if unknown:
        raise DomainError(f"config has unknown keys: {sorted(unknown)}")


def _config_int(config: dict, key: str, default: int | None = None) -> int:
    """An integer config value; integral floats such as 1e6 are accepted,
    booleans, strings and non-integral numbers are not."""
    value = config.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{key} must be an integer, got {value!r}")
    return value


def _parse_distribution(spec: dict) -> Lognormal | Uniform:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("distribution must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "lognormal":
        if {"mu", "sigma"} <= spec.keys():
            _require_keys(spec, {"kind", "mu", "sigma"}, {"kind", "mu", "sigma"})
            return Lognormal(mu=float(spec["mu"]), sigma=float(spec["sigma"]))
        _require_keys(spec, {"kind", "mean_m", "sd_m"}, {"kind", "mean_m", "sd_m"})
        return lognormal_from_moments(float(spec["mean_m"]), float(spec["sd_m"]))
    if kind == "uniform":
        _require_keys(spec, {"kind", "lo_m", "hi_m"}, {"kind", "lo_m", "hi_m"})
        return Uniform(lo=float(spec["lo_m"]), hi=float(spec["hi_m"]))
    raise DomainError(f"unknown distribution kind {kind!r}")


def _parse_particle(spec: dict | None) -> ParticleSpec | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise DomainError("particle must be an object with mass_kg/kinetic_energy_j")
    _require_keys(spec, {"mass_kg", "kinetic_energy_j"}, {"mass_kg", "kinetic_energy_j"})
    return ParticleSpec(
        mass=float(spec["mass_kg"]), kinetic_energy=float(spec["kinetic_energy_j"])
    )


_TRACK_KEYS = {
    "mode",
    "seed",
    "n_tracks",
    "distribution",
    "particle",
    "momentum_source",
    "floor_n",
    "workers",
}
_ACCRUAL_KEYS = {
    "mode",
    "initial_budget_j",
    "budget_rate_w",
    "cost_rate_w",
    "time_step_s",
    "max_time_s",
}


def _accrual_config(config: dict, *, sweep: bool) -> AccrualConfig:
    if sweep:
        required = (_ACCRUAL_KEYS - {"budget_rate_w"}) | {"budget_rates_w"}
        allowed = _ACCRUAL_KEYS | {"budget_rates_w"}
    else:
        required = allowed = _ACCRUAL_KEYS
    _require_keys(config, required, allowed)
    return AccrualConfig(
        initial_budget=float(config["initial_budget_j"]),
        budget_rate=float(config.get("budget_rate_w", 0.0)),
        cost_rate=float(config["cost_rate_w"]),
        time_step=float(config["time_step_s"]),
        max_time=float(config["max_time_s"]),
    )


def _simulate_tracks(config: dict, seed: int, fmt: str, manifest: RunManifest) -> str:
    mode = config["mode"]
    sim = SimConfig(
        seed=seed,
        n_tracks=_config_int(config, "n_tracks"),
        distribution=_parse_distribution(config["distribution"]),
        particle=_parse_particle(config.get("particle")),
        momentum_source=config.get("momentum_source", "paper"),
        floor_n=float(config.get("floor_n", get_paper_values().floor_n)),
        workers=_config_int(config, "workers", 1),
    )
    dataset = generate_tracks(sim)
    if mode == "censor":
        momentum, _ = resolve_momentum(sim.momentum_source, sim.particle)
        censored = censor_at_floor(dataset, sim.floor_n, momentum)
        if not len(censored):
            raise DataError(
                f"all {len(dataset)} tracks fall below floor {sim.floor_n!r}"
            )
        dataset = censored
    report = solvency_report(
        dataset,
        particle=sim.particle,
        momentum_source=sim.momentum_source,
        floor_n=sim.floor_n,
    )
    sim_section = {
        "mode": mode,
        "seed": seed,
        "n_tracks": sim.n_tracks,
        "distribution": sim.distribution.describe(),
        "momentum_source": report.momentum_source,
        "floor_n": sim.floor_n,
    }
    if fmt == "json":
        return _render_json(manifest, {"sim": sim_section, **report_to_dict(report)})
    return _prepend_manifest(manifest, emit_summary(report, fmt))


def _simulate_accrual(config: dict, fmt: str, manifest: RunManifest) -> str:
    accrual = _accrual_config(config, sweep=False)
    outcome = run_accrual(accrual)
    body = {
        "accrual": asdict(accrual),
        "outcome": {
            "collapsed": outcome.collapsed,
            "collapse_time_s": outcome.collapse_time,
            "steps_run": outcome.steps_run,
        },
    }
    if fmt == "json":
        return _render_json(manifest, body)
    if fmt == "text":
        if outcome.collapsed:
            line = (
                f"collapsed at t = {outcome.collapse_time:.6g} s"
                f" (step {outcome.steps_run})"
            )
        else:
            line = f"no collapse within {accrual.max_time:.6g} s"
        return _prepend_manifest(manifest, line + "\n")
    raise DomainError(f"accrual mode supports json or text, got {fmt!r}")


def _simulate_sweep(config: dict, fmt: str, manifest: RunManifest) -> str:
    base = _accrual_config(config, sweep=True)
    if not isinstance(config["budget_rates_w"], list):
        raise DomainError("budget_rates_w must be a list of rates")
    rates = [float(r) for r in config["budget_rates_w"]]
    results = sweep_prediction_1(base, rates)
    if fmt == "json":
        body = {
            "accrual": asdict(base),
            "sweep": [
                {
                    "budget_rate_w": rate,
                    "collapsed": out.collapsed,
                    "collapse_time_s": out.collapse_time,
                    "steps_run": out.steps_run,
                }
                for rate, out in results
            ],
        }
        return _render_json(manifest, body)
    if fmt == "csv":
        lines = ["budget_rate_w,collapse_time_s"]
        for rate, out in results:
            time_field = repr(out.collapse_time) if out.collapsed else ""
            lines.append(f"{rate!r},{time_field}")
        return _prepend_manifest(manifest, "\n".join(lines) + "\n")
    if fmt == "text":
        lines = [f"{'budget_rate_w':<16}collapse_time_s"]
        for rate, out in results:
            time_field = f"{out.collapse_time:.6g}" if out.collapsed else "-"
            lines.append(f"{rate:<16.6g}{time_field}")
        return _prepend_manifest(manifest, "\n".join(lines) + "\n")
    raise DomainError(f"sweep mode supports json, csv, or text, got {fmt!r}")


def cmd_simulate(args: argparse.Namespace) -> str:
    path = Path(args.config)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DomainError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict) or "mode" not in config:
        raise DomainError("config must be a JSON object with a 'mode' key")

    mode = config["mode"]
    seed: int | None = None
    if mode in ("tracks", "censor"):
        _require_keys(config, {"mode", "seed", "n_tracks", "distribution"}, _TRACK_KEYS)
        seed = _config_int(config, "seed")
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError as exc:
                raise DomainError(
                    f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
                ) from exc

    resolved = {k: v for k, v in sorted(config.items()) if k != "workers"}
    if seed is not None:
        resolved["seed"] = seed
    manifest = _manifest(
        "simulate",
        {"config": resolved, "format": args.format},
        input_digest=_digest(raw),
        seed=seed,
    )

    if mode in ("tracks", "censor"):
        return _simulate_tracks(config, seed, args.format, manifest)
    if mode == "accrual":
        return _simulate_accrual(config, args.format, manifest)
    if mode == "sweep":
        return _simulate_sweep(config, args.format, manifest)
    raise DomainError(f"unknown mode {mode!r} (tracks, censor, accrual, sweep)")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qtf {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="dump the constants snapshot")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("analyze", help="run the track pipeline on a radius file")
    p.add_argument("path", help="input file, one radius per row")
    p.add_argument("--unit", choices=["mm", "m"], default="mm")
    p.add_argument("--momentum", choices=["paper", "derived"], default="paper")
    p.add_argument(
        "--floor", type=float, default=get_paper_values().floor_n, help="action floor n"
    )
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("budget", help="compute the energy budget and audit")
    p.add_argument("--temperature", type=float, default=300.0, help="K")
    p.add_argument("--bits", type=float, default=1e6, help="bits per symbolic unit")
    p.add_argument("--modes", type=float, default=1e23, help="degrees of freedom")
    p.add_argument("--tau", type=float, default=1e-3, help="sustain time, s")
    p.add_argument("--fps", type=float, default=60.0, help="frame rate, Hz")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p.add_argument("config", help="JSON config file (see README for keys)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except DataError as exc:
        print(f"qtf: data error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, TypeError) as exc:
        print(f"qtf: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
