"""Experimental parameters and shared numeric primitives.

Holds the immutable configuration of a two-decoy coherent one-way QKD link
(source, fiber channel, detectors, receiver optics, security targets), the
channel transmittance model, binary entropy, _parse_lines, which reads the
"key = value" lines of configs, --set items and count logs, and write_text,
which writes every output file.  validate checks every parameter against its
allowed interval, all listed in one table, _RANGES, and the one cross-field
rule: the decoy probabilities sum to at most 1.
"""

from __future__ import annotations

import math
import operator
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "SourceParams",
    "ChannelParams",
    "DetectorParams",
    "ReceiverParams",
    "SecurityParams",
    "SystemParams",
    "ValidationError",
    "channel_transmittance",
    "binary_entropy",
    "validate",
]

class ValidationError(ValueError):
    """Raised when parameter invariants fail; carries every violation found."""

    def __init__(self, violations: list[str] | str):
        self.violations = [violations] if isinstance(violations, str) else list(violations)
        super().__init__("; ".join(self.violations))


def _is_integer(value: object) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _parse_lines(lines: Iterable[str], parsers: Mapping[str, Callable[[str], object]],
                 where: Callable[[int], str], *, form: str = "key = value",
                 overrides: bool = False) -> tuple[dict[str, object], list[str]]:
    """Parse flat "key = value" lines, skipping blanks and lines that start with '#'.

    Returns the parsed values and one diagnostic, led by where(line number), per line with
    no '=' (which was to read form), an unknown or repeated key, or a value its parser
    raises ValueError on.  As overrides (--set items) a later key wins, and a blank or '#'
    item is bad."""
    values, errors = {}, []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not overrides and (not line or line[0] == "#"):
            continue
        key, eq, text = line.partition("=")
        key = key.strip()
        if not eq:
            problem = f"expected {form!r}, got {raw!r}"
        elif key not in parsers:
            problem = f"unknown key {key!r}"
        elif key in values and not overrides:
            problem = f"repeated key {key!r}"
        else:
            try:
                values[key] = parsers[key](text.strip())
                continue
            except ValueError as exc:
                problem = f"{key}: {exc}"
        errors.append(f"{where(lineno)}: {problem}")
    return values, errors


def write_text(text: str, destination: str | os.PathLike[str]) -> None:
    """Write text as UTF-8 to stdout when destination is "-", else to that file.

    A file is written in place from its start and then cut to the written length, never
    truncated on open: ext4 starts writeback on the close of a file that O_TRUNC emptied
    and that was written again, which costs more than the write.  The file keeps its
    inode, mode and links.  A special file such as a pipe is written but not cut, as
    ftruncate fails on it."""
    if destination == "-":
        sys.stdout.write(text)
        return
    data = text.encode()
    with open(os.open(destination, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as file:
        file.write(data)
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
            file.truncate()


def _check_choice(name: str, value: object, allowed: Iterable[str]) -> None:
    """Raise ValidationError unless value is one of the allowed settings of name."""
    if value not in allowed:
        raise ValidationError(f"unknown {name} {value!r}, expected one of {tuple(allowed)}")


@dataclass(frozen=True)
class SourceParams:
    """Transmitter settings.

    mu is the mean photon number of a non-empty pulse, pulse_pair_rate the
    number of two-bin rounds emitted per second.  Each round carries one of
    four states: a bit state with the pulse in the early or late bin, a
    both-bins decoy, or a vacuum decoy.  The two bit states share the
    probability left over by the decoys equally.
    """

    mu: float = 0.5
    pulse_pair_rate: float = 5.0e8
    p_decoy_alpha_alpha: float = 0.01
    p_decoy_vacuum: float = 0.01

    @property
    def p_z0(self) -> float:
        """Probability of each bit state: half of what the decoys leave."""
        return 0.5 * (1.0 - self.p_decoy_alpha_alpha - self.p_decoy_vacuum)

    p_z1 = p_z0


@dataclass(frozen=True)
class ChannelParams:
    """Fiber link: length, attenuation, and lumped insertion loss.

    extra_loss_db models receiver-side insertion loss (for example the
    delay interferometer) and is charged to the monitoring line only; the
    default 0 dB keeps the closed-form gains in their plain form.
    """

    length_km: float = 100.0
    attenuation_db_per_km: float = 0.2
    extra_loss_db: float = 0.0


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector model: efficiency, dark counts, dead time."""

    efficiency: float = 0.1
    dark_count_prob: float = 1.8e-6
    dead_time_s: float = 50e-6


@dataclass(frozen=True)
class ReceiverParams:
    """Receiver optics.

    t_b is the transmittance of the asymmetric tap sending light to the data
    line; the rest feeds the monitoring interferometer with phase_shift
    between its arms.
    """

    t_b: float = 0.90
    phase_shift: float = math.pi / 2


@dataclass(frozen=True)
class SecurityParams:
    """Failure budgets and error-correction settings for the key bound."""

    eps_cor: float = 1e-15
    eps_sec: float = 1e-10
    eps_1: float = 1e-11
    eps_2: float = 1e-11
    f_ec: float = 1.1
    qber_abort_threshold: float = 0.05


@dataclass(frozen=True)
class SystemParams:
    """Complete system configuration plus the number of rounds per block."""

    source: SourceParams = field(default_factory=SourceParams)
    channel: ChannelParams = field(default_factory=ChannelParams)
    detectors: DetectorParams = field(default_factory=DetectorParams)
    receiver: ReceiverParams = field(default_factory=ReceiverParams)
    security: SecurityParams = field(default_factory=SecurityParams)
    rounds: int = 500_000_000

    def block_duration_s(self) -> float:
        """Wall-clock duration of one block of rounds."""
        return self.rounds / self.source.pulse_pair_rate


def channel_transmittance(
    channel: ChannelParams,
    detectors: DetectorParams,
    *,
    monitoring: bool = False,
) -> float:
    """Net transmittance from transmitter output to detector input.

    The data line sees efficiency * 10^(-attenuation * length / 10); the
    monitoring line additionally pays extra_loss_db.  Strictly decreasing in
    length and attenuation, equal to the bare efficiency at zero length and
    zero extra loss.
    """
    loss_db = channel.attenuation_db_per_km * channel.length_km
    if monitoring:
        loss_db += channel.extra_loss_db
    return detectors.efficiency * np.power(10.0, -loss_db / 10.0)


def raise_float_errors() -> np.errstate:
    """Invalid operations, division by zero and overflow raise; underflow is silent."""
    return np.errstate(invalid="raise", divide="raise", over="raise", under="ignore")


# Elementwise builtins; scalars (analyze evaluates one point) take the builtin: numpy costs 1-30 us.
def _any(mask: object) -> bool:
    """Whether a bool, or any element of an array of bools, is true."""
    return bool(np.count_nonzero(mask)) if isinstance(mask, np.ndarray) else bool(mask)


def _where(cond: object, yes: object, no: object) -> object:
    """yes where cond holds, else no."""
    return np.where(cond, yes, no) if isinstance(cond, np.ndarray) else (yes if cond else no)


def _max(a: object, b: object) -> object:
    """max(a, b) elementwise: b where b > a, else a, as the builtin decides."""
    return _where(b > a, b, a)


def _min(a: object, b: object) -> object:
    """min(a, b) elementwise: b where b < a, else a, as the builtin decides."""
    return _where(b < a, b, a)


def _clamp01(x: float) -> float:
    """min(1, max(0, x)) elementwise; a NaN clamps to 0 either way."""
    return np.fmin(1.0, np.fmax(0.0, x)) if isinstance(x, np.ndarray) else min(1.0, max(0.0, x))


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with h(0) = h(1) = 0 by continuity; a NaN p is out of range."""
    inside = (0.0 <= p) & (p <= 1.0)  # False for NaN
    if not (np.count_nonzero(inside) == inside.size if isinstance(inside, np.ndarray) else inside):
        raise ValueError(f"binary_entropy: p must lie in [0, 1], got {p}")
    q = 1.0 - p
    # 0 log 0 = 0: log2 of 5e-324, the smallest positive float, is finite.
    return -p * np.log2(_where(p > 0.0, p, 5e-324)) - q * np.log2(_where(q > 0.0, q, 5e-324))


#: Allowed interval of each parameter; every float must also be finite.
_RANGES = {
    "source.mu": "(0, 1)",
    "source.pulse_pair_rate": "(0, inf)",
    "source.p_decoy_alpha_alpha": "(0, 1)",
    "source.p_decoy_vacuum": "(0, 1)",
    "channel.length_km": "[0, inf)",
    "channel.attenuation_db_per_km": "(0, inf)",
    "channel.extra_loss_db": "[0, inf)",
    "detectors.efficiency": "(0, 1]",
    "detectors.dark_count_prob": "[0, 1)",
    "detectors.dead_time_s": "[0, inf)",
    "receiver.t_b": "(0, 1)",
    "receiver.phase_shift": "(-inf, inf)",
    "security.eps_cor": "(0, 1)",
    "security.eps_sec": "(0, 1)",
    "security.eps_1": "(0, 1)",
    "security.eps_2": "(0, 1)",
    "security.f_ec": "[1, inf)",
    "security.qber_abort_threshold": "(0, 0.5)",
    "rounds": "[1, inf)",
}


def _interval(text: str) -> tuple:
    """The lower-end test, lower end, upper-end test and upper end of "(lo, hi]" text."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    return (operator.ge if text[0] == "[" else operator.gt, lo,
            operator.le if text[-1] == "]" else operator.lt, hi)


#: Each key's getter and interval, parsed once: parsing costs 5x a validate.
_BOUNDS = {key: (operator.attrgetter(key), text, *_interval(text)) for key, text in _RANGES.items()}


def _range_violations(obj: object, keys: Iterable[str] = _RANGES) -> list[str]:
    """How each of keys, read off obj by its dotted name, breaks its interval."""
    violations = []
    for key in keys:
        get, text, lo_ok, lo, hi_ok, hi = _BOUNDS[key]
        value = get(obj)
        # A NaN fails every comparison, so finiteness is checked first.
        if isinstance(value, float) and not math.isfinite(value):
            violations.append(f"{key} must be finite, got {value}")
        elif not (lo_ok(value, lo) and hi_ok(value, hi)):
            violations.append(f"{key} must lie in {text}, got {value}")
    return violations


def validate(params: SystemParams) -> SystemParams:
    """Check every invariant and return the params unchanged if all hold.

    All violations are collected before raising, so one failed run reports
    everything that needs fixing.  Idempotent on valid input.
    """
    violations = _range_violations(params)
    total = params.source.p_decoy_alpha_alpha + params.source.p_decoy_vacuum
    if total > 1.0:
        violations.append(f"source decoy probabilities must sum to at most 1, got {total}")
    if violations:
        raise ValidationError(violations)
    return params
