"""Command-line front end, a thin layer over the library.

Subcommands map to the five workflows the package supports: parameter
sweeps (scan), bisection threshold finding (threshold), Monte-Carlo count
generation (simulate), replaying a count log through the finite-key pipeline
(analyze), and configuration checking (validate).

All parameters load from a flat text configuration of dotted keys, for
example "channel.length_km = 100".  Key ordering is free, unknown keys are
rejected, and --set overrides take precedence over the file.  Every command
validates the params and the analysis.* keys before it runs.  The scan flags
are ScanSpec's fields, and each parses its value as its scan.* key does.
Exit codes: 0 success, 1 configuration or validation error, 2 runtime
error, 3 when a threshold search finds no crossing inside its bracket.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import os
import sys
from typing import Callable, Sequence

from .finite_key import AnalysisConfig, KeyRateResult, evaluate_record
from .params import SystemParams, ValidationError, _parse_lines, validate, write_text
from .scan import (
    OUTPUT_FORMATS,
    SCAN_VARIABLES,
    THRESHOLD_METRICS,
    NoThresholdError,
    ScanSpec,
    check_writable,
    emit,
    find_threshold,
    indented_json,
    key_rate_bps,
    run_scan,
    with_variable,
)
from .simulator import SIM_MODES, SimConfig, replay_counts, simulate_session, write_counts

__all__ = ["ConfigError", "load_config", "parse_assignments", "build_params", "main"]


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Configuration text, key, or value is invalid; argparse prints its message for a flag."""


def _to_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    value = _to_float(text)
    if not value.is_integer():
        raise ConfigError(f"expected an integer, got {text!r}")
    return int(value)


#: The SystemParams sections, each built from the keys under its prefix: the
#: fields whose default factory is the section class.
_PARAM_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(SystemParams)
                   if f.default_factory is not dataclasses.MISSING}

#: Value parser of each field annotation (annotations are postponed, so text).
_PARSERS = {"float": _to_float, "int": _to_int, "str": str, "str | None": str}

#: Every accepted configuration key and its value parser: one key per field
#: of each section, plus the block size.
CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    f"{prefix}.{f.name}": _PARSERS[f.type]
    for prefix, cls in {**_PARAM_SECTIONS, "analysis": AnalysisConfig, "scan": ScanSpec}.items()
    for f in dataclasses.fields(cls)
}
CONFIG_KEYS["rounds"] = _to_int


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, object]:
    """Parse flat "key = value" lines; one ConfigError names every bad line."""
    values, errors = _parse_lines(text.splitlines(), CONFIG_KEYS, lambda n: f"{origin} line {n}")
    if errors:
        raise ConfigError("; ".join(errors))
    return values


def load_config(path: str | os.PathLike[str]) -> dict[str, object]:
    try:
        with open(path, "rb") as file:
            text = file.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))


def parse_assignments(assignments: Sequence[str]) -> dict[str, object]:
    """Parse --set key=value overrides; a later one of the same key wins."""
    values, errors = _parse_lines(assignments, CONFIG_KEYS, lambda n: "--set", form="key=value",
                                  overrides=True)
    if errors:
        raise ConfigError("; ".join(errors))
    return values


def _inputs(args: argparse.Namespace) -> tuple[dict[str, object], SystemParams, AnalysisConfig]:
    """The --config values under the --set overrides, and the params and analysis they build."""
    cfg: dict[str, object] = {}
    if args.config:
        cfg.update(load_config(args.config))
    cfg.update(parse_assignments(args.set or []))
    return cfg, build_params(cfg), build_analysis(cfg)


def _sections(cfg: dict[str, object]) -> dict[str, dict[str, object]]:
    """Group dotted keys by the text before their first dot, in one pass."""
    sections: dict[str, dict[str, object]] = collections.defaultdict(dict)
    for key, value in cfg.items():
        prefix, dot, name = key.partition(".")
        if dot:
            sections[prefix][name] = value
    return sections


def _section(cfg: dict[str, object], prefix: str) -> dict[str, object]:
    return _sections(cfg)[prefix]


def build_params(cfg: dict[str, object]) -> SystemParams:
    """Assemble and validate SystemParams from flat config values."""
    kwargs = {"rounds": cfg["rounds"]} if "rounds" in cfg else {}
    sections = _sections(cfg)
    params = SystemParams(
        **{prefix: cls(**sections[prefix]) for prefix, cls in _PARAM_SECTIONS.items()},
        **kwargs,
    )
    return validate(params)


def build_analysis(cfg: dict[str, object]) -> AnalysisConfig:
    return AnalysisConfig(**_section(cfg, "analysis"))


def build_scan_spec(cfg: dict[str, object], args: argparse.Namespace) -> ScanSpec:
    """Scan settings: config scan.* keys, overridden by command flags."""
    merged = _section(cfg, "scan")
    for f in dataclasses.fields(ScanSpec):
        if getattr(args, f.name) is not None:
            merged[f.name] = getattr(args, f.name)
    missing = [key for key in ("variable", "start", "stop") if key not in merged]
    if missing:
        raise ConfigError(f"scan requires {', '.join('scan.' + m for m in missing)}")
    return ScanSpec(**merged)


def _cmd_scan(args: argparse.Namespace) -> int:
    cfg, params, analysis = _inputs(args)
    spec = build_scan_spec(cfg, args)
    # run_scan would make an out-of-range point an error row; here it exits 1 before any row.
    for value in (spec.start, spec.stop):
        validate(with_variable(params, spec.variable, value))
    if spec.mode == "simulate":  # so does a block that run_scan could not draw
        SimConfig(seed=spec.sim_seed, rounds=params.rounds)
    check_writable(args.output)
    rows = run_scan(spec, params, analysis)
    emit(rows, format=args.format, destination=args.output)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    _, params, analysis = _inputs(args)
    crossing = find_threshold(
        args.metric, args.target, args.bracket, params, analysis, variable=args.variable
    )
    print(crossing)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _, params, _ = _inputs(args)
    rounds = args.rounds if args.rounds is not None else params.rounds
    sim = SimConfig(seed=args.seed, rounds=rounds, mode=args.mode)
    check_writable(args.output)
    write_counts(simulate_session(params, sim), args.output)
    return 0


def _result_json(result: KeyRateResult, rate_bps: float) -> str:
    return indented_json({**vars(result), "key_rate_bps": rate_bps}) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> int:
    _, params, analysis = _inputs(args)
    record = replay_counts(args.counts)
    result = evaluate_record(record, params, analysis)
    rate = key_rate_bps(result.key_length_bits, record.rounds, params.source.pulse_pair_rate)
    write_text(_result_json(result, rate), args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    _inputs(args)
    print("ok")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a flat key = value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cowqkd",
        description="Finite-key analysis and simulation of a two-decoy coherent one-way QKD link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="sweep one parameter and emit per-point results")
    _add_common(p_scan)
    for f in dataclasses.fields(ScanSpec):
        p_scan.add_argument("--" + f.name.replace("_", "-"), type=CONFIG_KEYS["scan." + f.name],
                            help=f"overrides scan.{f.name}")
    p_scan.add_argument("--format", choices=OUTPUT_FORMATS, default="csv")
    p_scan.add_argument("--output", default="-")
    p_scan.set_defaults(handler=_cmd_scan)

    p_thr = sub.add_parser("threshold", help="bisect for where a metric crosses a target")
    _add_common(p_thr)
    p_thr.add_argument("--metric", choices=THRESHOLD_METRICS, required=True)
    p_thr.add_argument("--target", type=float, required=True)
    p_thr.add_argument("--bracket", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p_thr.add_argument("--variable", choices=SCAN_VARIABLES, default="length_km")
    p_thr.set_defaults(handler=_cmd_threshold)

    p_sim = sub.add_parser("simulate", help="run the Monte-Carlo session and write a count log")
    _add_common(p_sim)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--rounds", type=int, help="defaults to the configured block size")
    p_sim.add_argument("--mode", choices=SIM_MODES, default="per_pair")
    p_sim.add_argument("--output", default="-")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_ana = sub.add_parser("analyze", help="replay a count log through the finite-key pipeline")
    _add_common(p_ana)
    p_ana.add_argument("--counts", required=True, help="count log produced by simulate")
    p_ana.add_argument("--output", default="-")
    p_ana.set_defaults(handler=_cmd_analyze)

    p_val = sub.add_parser("validate", help="check a configuration and exit")
    _add_common(p_val)
    p_val.set_defaults(handler=_cmd_validate)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # The top-level pass would only pick the subcommand and hand it the rest.
        if argv and argv[0] in commands:
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConfigError, ValidationError, NoThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NoThresholdError) else 1
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
