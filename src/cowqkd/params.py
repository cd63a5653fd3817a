"""Experimental parameters and shared numeric primitives.

Holds the immutable configuration of a two-decoy coherent one-way QKD link
(source, fiber channel, detectors, receiver optics, security targets), the
channel transmittance model, binary entropy, and aggregate validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


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


# Elementwise builtins; a scalar takes the builtin, as a numpy call costs 1-30 us on one.
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


def _sqrt(x: float) -> float:
    """math.sqrt elementwise; IEEE 754 rounds it and np.sqrt alike."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _clamp01(x: float) -> float:
    """min(1, max(0, x)) elementwise; a NaN clamps to 0 either way."""
    return np.fmin(1.0, np.fmax(0.0, x)) if isinstance(x, np.ndarray) else min(1.0, max(0.0, x))


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with h(0) = h(1) = 0 by continuity."""
    if _any(p < 0.0) or _any(p > 1.0):
        raise ValueError(f"binary_entropy: p must lie in [0, 1], got {p}")
    q = 1.0 - p
    # 0 log 0 = 0: log2 of 5e-324, the smallest positive float, is finite.
    return -p * np.log2(_where(p > 0.0, p, 5e-324)) - q * np.log2(_where(q > 0.0, q, 5e-324))


def _prob_range(name: str, value: float, out: list[str]) -> None:
    if not (0.0 <= value <= 1.0):
        out.append(f"{name} must lie in [0, 1], got {value}")


def _source_violations(s: SourceParams) -> list[str]:
    out: list[str] = []
    if not (0.0 < s.mu < 1.0):
        out.append(f"source.mu must satisfy 0 < mu < 1, got {s.mu}")
    if s.pulse_pair_rate <= 0.0:
        out.append(f"source.pulse_pair_rate must be positive, got {s.pulse_pair_rate}")
    _prob_range("source.p_decoy_alpha_alpha", s.p_decoy_alpha_alpha, out)
    _prob_range("source.p_decoy_vacuum", s.p_decoy_vacuum, out)
    total = s.p_decoy_alpha_alpha + s.p_decoy_vacuum
    if total > 1.0:
        out.append(f"source decoy probabilities must sum to at most 1, got {total}")
    return out


def _channel_violations(c: ChannelParams) -> list[str]:
    out: list[str] = []
    if c.length_km < 0.0:
        out.append(f"channel.length_km must be non-negative, got {c.length_km}")
    if c.attenuation_db_per_km <= 0.0:
        out.append(
            f"channel.attenuation_db_per_km must be positive, got {c.attenuation_db_per_km}"
        )
    if c.extra_loss_db < 0.0:
        out.append(f"channel.extra_loss_db must be non-negative, got {c.extra_loss_db}")
    return out


def _detector_violations(d: DetectorParams) -> list[str]:
    out: list[str] = []
    if not (0.0 < d.efficiency <= 1.0):
        out.append(f"detectors.efficiency must lie in (0, 1], got {d.efficiency}")
    if not (0.0 <= d.dark_count_prob < 1.0):
        out.append(f"detectors.dark_count_prob must lie in [0, 1), got {d.dark_count_prob}")
    if d.dead_time_s < 0.0:
        out.append(f"detectors.dead_time_s must be non-negative, got {d.dead_time_s}")
    return out


def _receiver_violations(r: ReceiverParams) -> list[str]:
    out: list[str] = []
    if not (0.0 < r.t_b < 1.0):
        out.append(f"receiver.t_b must lie in (0, 1), got {r.t_b}")
    return out


def _security_violations(s: SecurityParams) -> list[str]:
    out: list[str] = []
    for name in ("eps_cor", "eps_sec", "eps_1", "eps_2"):
        value = getattr(s, name)
        if not (0.0 < value < 1.0):
            out.append(f"security.{name} must lie in (0, 1), got {value}")
    if s.f_ec < 1.0:
        out.append(f"security.f_ec must be at least 1, got {s.f_ec}")
    if not (0.0 < s.qber_abort_threshold < 0.5):
        out.append(
            f"security.qber_abort_threshold must lie in (0, 0.5), got {s.qber_abort_threshold}"
        )
    return out


def validate(params: SystemParams) -> SystemParams:
    """Check every invariant and return the params unchanged if all hold.

    All violations are collected before raising, so one failed run reports
    everything that needs fixing.  Idempotent on valid input.
    """
    # Every float field must be finite: a NaN makes every comparison below false.
    violations = [
        f"{name}.{key} must be finite, got {value}"
        for name, section in vars(params).items() if name != "rounds"
        for key, value in vars(section).items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    violations += _source_violations(params.source)
    violations += _channel_violations(params.channel)
    violations += _detector_violations(params.detectors)
    violations += _receiver_violations(params.receiver)
    violations += _security_violations(params.security)
    if params.rounds < 1:
        violations.append(f"rounds must be at least 1, got {params.rounds}")
    if violations:
        raise ValidationError(violations)
    return params
