"""Parameter scans, threshold search, and result serialization."""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .finite_key import AnalysisConfig, KeyRateResult, evaluate_analytic_point, evaluate_record
from .gains import analytic_gains, qber
from .params import SystemParams
from .simulator import SimConfig, replay_counts, simulate_session

__all__ = [
    "SCAN_VARIABLES",
    "SCAN_MODES",
    "ScanSpec",
    "ScanRow",
    "NoThresholdError",
    "run_scan",
    "scan_values",
    "find_threshold",
    "emit",
]

#: Each scan variable and how to set it in a copy of SystemParams.
_SETTERS: dict[str, Callable[[SystemParams, float], SystemParams]] = {
    "length_km": lambda p, v: replace(p, channel=replace(p.channel, length_km=v)),
    "detector_efficiency": lambda p, v: replace(p, detectors=replace(p.detectors, efficiency=v)),
    "dead_time": lambda p, v: replace(p, detectors=replace(p.detectors, dead_time_s=v)),
    "mu": lambda p, v: replace(p, source=replace(p.source, mu=v)),
}
SCAN_VARIABLES = tuple(_SETTERS)
SCAN_MODES = ("analytic", "simulate", "replay")

#: Output columns, one per ScanRow field in order; the value column is "variable".
COLUMNS = ("variable", "qber", "phase_error_upper", "key_bits", "key_rate_bps", "aborted", "reason")
CSV_HEADER = ",".join(COLUMNS)


@dataclass(frozen=True)
class ScanSpec:
    """One scan: which parameter moves, over what grid, evaluated how."""

    variable: str
    start: float
    stop: float
    step: float
    mode: str = "analytic"
    sim_seed: int = 1
    sim_rounds: int = 1_000_000
    replay_path: str | None = None

    def __post_init__(self) -> None:
        if self.variable not in SCAN_VARIABLES:
            raise ValueError(
                f"unknown scan variable {self.variable!r}, expected one of {SCAN_VARIABLES}"
            )
        if self.mode not in SCAN_MODES:
            raise ValueError(f"unknown scan mode {self.mode!r}, expected one of {SCAN_MODES}")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ValueError(f"stop {self.stop} is below start {self.start}")
        if self.mode == "replay" and not self.replay_path:
            raise ValueError("replay mode requires replay_path")


@dataclass(frozen=True)
class ScanRow:
    value: float
    qber: float
    phase_error_upper: float
    key_bits: float
    key_rate_bps: float
    aborted: bool
    reason: str | None


class NoThresholdError(RuntimeError):
    """The target level is never crossed inside the bracket."""


def with_variable(params: SystemParams, variable: str, value: float) -> SystemParams:
    """A copy of params with one scan variable replaced."""
    if variable not in _SETTERS:
        raise ValueError(f"unknown scan variable {variable!r}")
    return _SETTERS[variable](params, value)


def scan_values(spec: ScanSpec) -> list[float]:
    """Grid points start, start+step, ... up to and including stop.

    The count is derived once from the span so accumulated float error
    cannot drop or duplicate the final point.
    """
    n_steps = int(round((spec.stop - spec.start) / spec.step))
    if abs(spec.start + n_steps * spec.step - spec.stop) > 1e-9 * max(1.0, abs(spec.stop)):
        n_steps = int(math.floor((spec.stop - spec.start) / spec.step + 1e-12))
    return [spec.start + i * spec.step for i in range(n_steps + 1)]


def _evaluate(
    point: SystemParams, spec: ScanSpec, analysis: AnalysisConfig
) -> KeyRateResult:
    if spec.mode == "analytic":
        return evaluate_analytic_point(point, analysis)
    if spec.mode == "simulate":
        record = simulate_session(point, SimConfig(seed=spec.sim_seed, rounds=spec.sim_rounds))
        return evaluate_record(record, point, analysis)
    record = replay_counts(spec.replay_path)
    return evaluate_record(record, point, analysis)


def _row_from_result(value: float, result: KeyRateResult, params: SystemParams) -> ScanRow:
    return ScanRow(
        value=value,
        qber=result.qber,
        phase_error_upper=result.phase_error_observed_upper,
        key_bits=float(result.key_length_bits),
        key_rate_bps=key_rate_bps(
            result.key_length_bits, params.rounds, params.source.pulse_pair_rate
        ),
        aborted=result.aborted,
        reason=result.abort_reason,
    )


def run_scan(
    spec: ScanSpec,
    params: SystemParams,
    analysis: AnalysisConfig | None = None,
) -> list[ScanRow]:
    """Evaluate the grid; a failing point becomes an aborted NaN row.

    A point's value and arithmetic errors (bad inputs, degenerate gains, a
    malformed replay log) are captured rather than raised so one bad point
    cannot lose the rest of a long sweep; any other exception is a fault
    and propagates.
    """
    analysis = analysis or AnalysisConfig()
    rows: list[ScanRow] = []
    for value in scan_values(spec):
        point = with_variable(params, spec.variable, value)
        try:
            result = _evaluate(point, spec, analysis)
            rows.append(_row_from_result(value, result, point))
        except (ValueError, ArithmeticError) as exc:
            rows.append(
                ScanRow(
                    value=value,
                    qber=math.nan,
                    phase_error_upper=math.nan,
                    key_bits=math.nan,
                    key_rate_bps=math.nan,
                    aborted=True,
                    reason=f"error: {exc}",
                )
            )
    return rows


def find_threshold(
    metric: str,
    target: float,
    bracket: tuple[float, float],
    params: SystemParams,
    analysis: AnalysisConfig | None = None,
    variable: str = "length_km",
) -> float:
    """Bisect for where a metric crosses a level along one scan variable.

    For "qber" the crossing is where the error rate first exceeds target;
    for "key_length" it is where the extractable bits fall to target or
    below.  Both metrics are monotone in channel length, the intended use.
    Raises NoThresholdError when the bracket does not straddle the level.
    """
    analysis = analysis or AnalysisConfig()
    if metric == "qber":
        predicate: Callable[[SystemParams], bool] = lambda p: qber(analytic_gains(p)) > target
    elif metric == "key_length":
        predicate = lambda p: evaluate_analytic_point(p, analysis).key_length_bits <= target
    else:
        raise ValueError(f"unknown threshold metric {metric!r}")

    lo, hi = bracket
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")
    at = lambda v: predicate(with_variable(params, variable, v))
    if at(lo):
        raise NoThresholdError(
            f"{metric} already past target {target} at bracket start {lo}"
        )
    if not at(hi):
        raise NoThresholdError(f"{metric} never reaches target {target} by bracket end {hi}")
    tol = 0.01 if variable == "length_km" else 1e-4 * (hi - lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return repr(x)


def key_rate_bps(key_bits: float, rounds: int, pulse_pair_rate: float) -> float:
    """Key bits per second of a block of rounds sent at pulse_pair_rate."""
    return key_bits / (rounds / pulse_pair_rate)


def json_safe(payload: dict) -> dict:
    """payload with each NaN float replaced by None, which JSON can carry."""
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in payload.items()}


def write_text(text: str, destination: str | Path) -> None:
    """Write text to stdout when destination is "-", else to that file."""
    if destination == "-":
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def emit(rows: Sequence[ScanRow], format: str = "csv", destination: str | Path = "-") -> str:
    """Serialize rows to CSV or JSON, byte-stable for identical inputs.

    destination "-" writes to stdout; anything else is a file path.
    Returns the serialized text either way.
    """
    if format == "csv":
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in rows:
            reason = row.reason or ""
            if any(c in reason for c in ',"\n'):
                reason = '"' + reason.replace('"', '""') + '"'
            buf.write(
                ",".join(
                    (
                        _format_float(row.value),
                        _format_float(row.qber),
                        _format_float(row.phase_error_upper),
                        _format_float(row.key_bits),
                        _format_float(row.key_rate_bps),
                        "true" if row.aborted else "false",
                        reason,
                    )
                )
                + "\n"
            )
        text = buf.getvalue()
    elif format == "json":
        payload = [json_safe(dict(zip(COLUMNS, astuple(row)))) for row in rows]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError(f"unknown output format {format!r}")

    write_text(text, destination)
    return text
