"""Parameter scans, threshold search, and result serialization."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .concentration import CountRecord
from .finite_key import AnalysisConfig, KeyRateResult, evaluate_analytic_point, evaluate_record
from .gains import analytic_gains, qber
from .params import SystemParams, ValidationError, _check_choice, raise_float_errors, validate, write_text
from .simulator import SimConfig, replay_counts, simulate_session

__all__ = [
    "ScanSpec",
    "ScanRow",
    "NoThresholdError",
    "run_scan",
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
#: The metrics find_threshold bisects on, and the formats emit writes.
THRESHOLD_METRICS = ("qber", "key_length")
OUTPUT_FORMATS = ("csv", "json")

#: Output columns, one per ScanRow field in order; the value column is "variable".
COLUMNS = ("variable", "qber", "phase_error_upper", "key_bits", "key_rate_bps", "aborted", "reason")
CSV_HEADER = ",".join(COLUMNS)

#: The most grid points one scan may ask for.
MAX_SCAN_POINTS = 1_000_000


@dataclass(frozen=True)
class ScanSpec:
    """One scan: which parameter moves, over what grid, evaluated how."""

    variable: str
    start: float
    stop: float
    step: float = 1.0
    mode: str = "analytic"
    sim_seed: int = 1
    replay_path: str | None = None

    def __post_init__(self) -> None:
        _check_choice("scan variable", self.variable, SCAN_VARIABLES)
        _check_choice("scan mode", self.mode, SCAN_MODES)
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"scan {name} must be finite, got {getattr(self, name)}")
        if self.step <= 0:
            raise ValidationError(f"step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ValidationError(f"stop {self.stop} is below start {self.start}")
        if self.mode == "replay" and not self.replay_path:
            raise ValidationError("replay mode requires replay_path")
        if self.mode == "simulate":
            SimConfig(seed=self.sim_seed, rounds=1)  # raises on a bad seed
        if (n := grid_size(self)) > MAX_SCAN_POINTS:
            raise ValidationError(f"scan grid has {n:,} points, above the limit of {MAX_SCAN_POINTS:,}")


class ScanRow(NamedTuple):
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
    """A copy of params with one scan variable set to value, a number or an array."""
    _check_choice("scan variable", variable, SCAN_VARIABLES)
    return _SETTERS[variable](params, value)


def grid_size(spec: ScanSpec) -> int | float:
    """Number of grid points, inf when the span over the step overflows.

    The count is derived once from the span so accumulated float error
    cannot drop or duplicate the final point.
    """
    span = (spec.stop - spec.start) / spec.step
    if not math.isfinite(span):
        return math.inf
    n_steps = int(round(span))
    if abs(spec.start + n_steps * spec.step - spec.stop) > 1e-9 * max(1.0, abs(spec.stop)):
        n_steps = int(math.floor(span + 1e-12))
    return n_steps + 1


def scan_values(spec: ScanSpec) -> list[float]:
    """Grid points start, start+step, ... up to and including stop."""
    return [spec.start + i * spec.step for i in range(grid_size(spec))]


def _evaluate(
    point: SystemParams, analysis: AnalysisConfig, source: CountRecord | SimConfig | None
) -> tuple[KeyRateResult, int]:
    """The result at point, and the rounds its key length is counted over:
    closed-form without a source, else from the replayed or simulated record."""
    if source is None:
        return evaluate_analytic_point(point, analysis), point.rounds
    record = simulate_session(point, source) if isinstance(source, SimConfig) else source
    return evaluate_record(record, point, analysis), record.rounds


def _rows(
    values: list[float], result: KeyRateResult, rounds: int, params: SystemParams
) -> list[ScanRow]:
    """One row per value, from a result of scalars or of arrays over values."""
    rate = key_rate_bps(result.key_length_bits, rounds, params.source.pulse_pair_rate)
    columns = (result.qber, result.phase_error_observed_upper, result.key_length_bits,
               rate, result.aborted, result.abort_reason)
    cells = (np.broadcast_to(c, len(values)).tolist() for c in columns)
    return list(map(ScanRow._make, zip(values, *cells)))


def _error_row(value: float, exc: Exception) -> ScanRow:
    return ScanRow(value, math.nan, math.nan, math.nan, math.nan, True, f"error: {exc}")


def run_scan(
    spec: ScanSpec,
    params: SystemParams,
    analysis: AnalysisConfig | None = None,
) -> list[ScanRow]:
    """Evaluate the grid; a failing point becomes an aborted NaN row.

    Analytic and replay scans evaluate the grid in one call; simulate mode
    draws a session of params.rounds rounds per point, the block an analytic
    scan evaluates.  A point's value and arithmetic errors (a value
    outside its validate interval, degenerate gains, a malformed replay log)
    are captured rather than raised, point by point after the grid call
    raised one, so one bad point cannot lose the rest of a long sweep; any
    other exception is a fault.
    """
    analysis = analysis or AnalysisConfig()
    values = scan_values(spec)
    # rounds is not a scan variable: every point draws one block, checked before the first.
    source = SimConfig(seed=spec.sim_seed, rounds=params.rounds) if spec.mode == "simulate" else None
    if spec.mode == "replay":
        try:
            source = replay_counts(spec.replay_path)
        except (ValueError, ArithmeticError) as exc:
            return [_error_row(value, exc) for value in values]
    if spec.mode != "simulate":
        grid = with_variable(params, spec.variable, np.asarray(values))
        try:
            # Each scan variable is bound by its params._RANGES interval alone (the
            # decoy sum rule involves none), so valid ends make a valid grid.
            for end in (values[0], values[-1]):
                validate(with_variable(params, spec.variable, end))
            return _rows(values, *_evaluate(grid, analysis, source), params)
        except (ValueError, ArithmeticError):
            pass
    rows: list[ScanRow] = []
    for value in values:
        point = with_variable(params, spec.variable, value)
        try:
            rows += _rows([value], *_evaluate(validate(point), analysis, source), point)
        except (ValueError, ArithmeticError) as exc:
            rows.append(_error_row(value, exc))
    return rows


def _dyadic_points(lo: float, hi: float) -> list[float]:
    """The 2**7 + 1 points of the next seven levels of bisecting [lo, hi], in order,
    each midpoint computed as the bisection computes it from its neighbours."""
    points = [lo, hi]
    for _ in range(7):
        points = [p for a, b in zip(points, points[1:]) for p in (a, 0.5 * (a + b))] + [hi]
    return points


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
    Raises ValidationError, before any evaluation, on an unknown metric, a
    non-finite target, an invalid bracket end or lo >= hi, and
    NoThresholdError when the bracket does not straddle the level.  Each
    evaluation of the metric covers the next seven levels of midpoints.
    """
    analysis = analysis or AnalysisConfig()
    _check_choice("threshold metric", metric, THRESHOLD_METRICS)
    if metric == "qber":
        crossed: Callable[[SystemParams], object] = lambda p: qber(analytic_gains(p)) > target
    else:
        crossed = lambda p: evaluate_analytic_point(p, analysis).key_length_bits <= target

    if not math.isfinite(target):
        raise ValidationError(f"threshold target must be finite, got {target}")
    lo, hi = bracket
    for value in (lo, hi):
        validate(with_variable(params, variable, value))
    if not lo < hi:
        raise ValidationError(f"threshold bracket must satisfy lo < hi, got {lo} {hi}")
    tol = 0.01 if variable == "length_km" else 1e-4 * (hi - lo)

    def evaluate(a: float, b: float) -> tuple[list[float], list[bool]]:
        points = _dyadic_points(a, b)
        with raise_float_errors():
            hits = crossed(with_variable(params, variable, np.asarray(points)))
        return points, np.broadcast_to(hits, len(points)).tolist()

    points, hits = evaluate(lo, hi)
    if hits[0]:
        raise NoThresholdError(f"{metric} already past target {target} at bracket start {lo}")
    if not hits[-1]:
        raise NoThresholdError(f"{metric} never reaches target {target} by bracket end {hi}")
    i, j = 0, len(points) - 1
    while points[j] - points[i] > tol:
        if j - i == 1:
            points, hits = evaluate(points[i], points[j])
            i, j = 0, len(points) - 1
        mid = (i + j) // 2
        if hits[mid]:
            j = mid
        else:
            i = mid
    return 0.5 * (points[i] + points[j])


def key_rate_bps(key_bits: float, rounds: int, pulse_pair_rate: float) -> float:
    """Key bits per second of a block of rounds sent at pulse_pair_rate."""
    return key_bits / (rounds / pulse_pair_rate)


def indented_json(payload: dict | list[dict], allow_nan: bool = True) -> str:
    """A flat dict, or a list of flat dicts, as json.dumps(payload, indent=2) writes
    it, with each NaN float written as null, which JSON can carry.

    indent= would switch json's C encoder off, so the separators carry each
    newline and indent, and the brackets are added here.
    """
    def braced(row: dict, pad: str) -> str:
        row = {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
        text = json.dumps(row, separators=(",\n" + pad, ": "), allow_nan=allow_nan)
        return "{\n" + pad + text[1:-1] + "\n" + pad[2:] + "}" if row else "{}"

    if isinstance(payload, dict):
        return braced(payload, "  ")
    return "[\n  " + ",\n  ".join(braced(row, "    ") for row in payload) + "\n]" if payload else "[]"


def check_writable(destination: str | os.PathLike[str]) -> None:
    """Raise the OSError that write_text would raise on destination, without creating or
    truncating it, so that a command can fail before its work.  A path that does not exist,
    or the target of a symlink to one, is made and removed again, a regular file or a
    directory is opened for writing, and "-" and other special files, such as a pipe, are
    not probed.  An error names destination as it was given."""
    if destination == "-":
        return
    try:
        os.close(os.open(destination, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        if os.path.isfile(destination) or os.path.isdir(destination):
            os.close(os.open(destination, os.O_WRONLY))
        elif not os.path.exists(destination):  # a dangling symlink, or a loop of them
            target = os.path.realpath(destination)
            try:
                os.close(os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            except FileExistsError:  # a loop, or a target made since: open as write_text would
                os.close(os.open(destination, os.O_WRONLY))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, os.fspath(destination)) from None
            else:
                os.remove(target)
    else:
        os.remove(destination)


def emit(rows: Sequence[ScanRow], format: str = "csv", destination: str | os.PathLike[str] = "-") -> str:
    """Serialize rows to CSV or JSON, byte-stable for identical inputs.

    destination "-" writes to stdout; anything else is a file path.
    Returns the serialized text either way.
    """
    _check_choice("output format", format, OUTPUT_FORMATS)
    if format == "csv":
        *numbers, aborted, reasons = tuple(zip(*rows)) or ((),) * len(COLUMNS)
        quoted = {}
        for reason in set(reasons):
            text = reason or ""
            quoted[reason] = ('"' + text.replace('"', '""') + '"'
                              if any(c in text for c in ',"\n') else text)
        flags = map({False: "false", True: "true"}.__getitem__, aborted)
        cells = [*(map(repr, c) for c in numbers), flags, map(quoted.__getitem__, reasons)]
        text = "\n".join([CSV_HEADER, *map(",".join, zip(*cells))]) + "\n"
    else:
        text = indented_json([dict(zip(COLUMNS, row)) for row in rows], allow_nan=False) + "\n"

    write_text(text, destination)
    return text
