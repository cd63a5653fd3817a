"""Statistical-fluctuation machinery for observed click counts.

Observed counts are converted into bounds on their expected values with a
chosen concentration inequality, then rescaled into bounds on gains.  Six
bounds feed the phase-error estimate: upper bounds for both decoys at both
monitoring ports, plus lower bounds for both decoys at the constructive port,
each holding up to its own failure probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .params import ValidationError, _any, _check_choice, _clamp01, _is_integer, _max

__all__ = [
    "CountRecord",
    "BoundedValue",
    "bound_expected_count",
    "bound_gain",
]

@dataclass(frozen=True)
class CountRecord:
    """Integer click tallies from one protocol session.

    The first eight fields are required and round-trip through count-log
    files.  The optional per-class fields are filled by the simulator and
    allow empirical estimation of every gain; replayed logs leave them at
    None.
    """

    rounds: int
    n_z: int
    n_sent_alpha_alpha: int
    n_sent_vac: int
    n_aa_m0: int
    n_aa_m1: int
    n_vac_m0: int
    n_vac_m1: int
    n_sent_0z: int | None = None
    n_sent_1z: int | None = None
    n_0z_tau0: int | None = None
    n_0z_tau1: int | None = None
    n_1z_tau0: int | None = None
    n_1z_tau1: int | None = None
    n_0z_m0: int | None = None
    n_0z_m1: int | None = None
    n_1z_m0: int | None = None
    n_1z_m1: int | None = None


#: Count-log wire keys in canonical order, mapped to CountRecord fields.
WIRE_KEYS = (
    ("rounds", "rounds"),
    ("n_z", "n_z"),
    ("n_sent_aa", "n_sent_alpha_alpha"),
    ("n_sent_vac", "n_sent_vac"),
    ("n_aa_m0", "n_aa_m0"),
    ("n_aa_m1", "n_aa_m1"),
    ("n_vac_m0", "n_vac_m0"),
    ("n_vac_m1", "n_vac_m1"),
)

#: Each CountRecord field as errors name it: its count-log key, then the
#: field in parentheses where the two differ.
_LOG_NAMES = {field: key if key == field else f"{key} ({field})" for key, field in WIRE_KEYS}


@dataclass(frozen=True)
class BoundedValue:
    """A quantity with optional lower/upper bounds and a failure probability."""

    observed: float
    lower: float | None
    upper: float | None
    failure_prob: float

    def __post_init__(self) -> None:
        _check_eps(self.failure_prob)
        if self.lower is not None and _any(self.lower > self.observed):
            raise ValueError(
                f"lower bound {self.lower} exceeds observed value {self.observed}"
            )
        if self.upper is not None and _any(self.upper < self.observed):
            raise ValueError(
                f"upper bound {self.upper} is below observed value {self.observed}"
            )


#: Emission-count tally of each state: z0, z1, both-bins, vacuum.
_SENT_FIELDS = ("n_sent_0z", "n_sent_1z", "n_sent_alpha_alpha", "n_sent_vac")

#: The detection gates in the simulator's bit order: data-line time bins, then monitoring ports.
_GATES = ("d0", "d1", "m0", "m1")

#: The rule of each click tally of a CountRecord but n_z, from which both the
#: simulator's tallies and the closed-form gains are compiled: the GainSet field
#: it estimates, the state it counts (an index of _SENT_FIELDS), and the events it
#: needs at the gates, P a photon click, D a dark count, C either, ~ negating.
TALLY_RULES = {
    "n_0z_tau0": ("data_0z_tau0", 0, "P.d0 ~D.d1 ~D.m0 ~D.m1"),
    "n_0z_tau1": ("data_0z_tau1", 0, "C.d1 ~D.m0 ~D.m1"),
    "n_1z_tau0": ("data_1z_tau0", 1, "C.d0 ~D.m0 ~D.m1"),
    "n_1z_tau1": ("data_1z_tau1", 1, "P.d1 ~D.d0 ~D.m0 ~D.m1"),
    "n_aa_m0": ("mon_alpha_alpha_m0", 2, "C.m0 ~D.m1 ~D.d0 ~C.d1"),
    "n_aa_m1": ("mon_alpha_alpha_m1", 2, "D.m1 ~P.m1 ~D.m0 ~D.d0 ~C.d1"),
    "n_vac_m0": ("mon_vac_m0", 3, "C.m0 ~D.m1 ~D.d0 ~D.d1"),
    "n_vac_m1": ("mon_vac_m1", 3, "C.m1 ~D.m0 ~D.d0 ~D.d1"),
    "n_0z_m0": ("mon_0z_m0", 0, "C.m0 ~D.m1 ~C.d0 ~D.d1"),
    "n_0z_m1": ("mon_0z_m1", 0, "C.m1 ~D.m0 ~C.d0 ~D.d1"),
    "n_1z_m0": ("mon_1z_m0", 1, "C.m0 ~D.m1 ~C.d1 ~D.d0"),
    "n_1z_m1": ("mon_1z_m1", 1, "C.m1 ~D.m0 ~C.d1 ~D.d0"),
}


def _rule_events(events: str) -> list[tuple[bool, str, int]]:
    """A rule's events, each written [~]KIND.GATE, as (negated, kind, gate index)."""
    return [(word[0] == "~", word[-4], _GATES.index(word[-2:])) for word in events.split()]


#: Each click tally but n_z: the emission count that caps it and the GainSet
#: field it estimates.
CLICK_FIELDS = {click: (_SENT_FIELDS[state], field) for click, (field, state, _) in TALLY_RULES.items()}

_RECORD_FIELDS = tuple(f.name for f in fields(CountRecord))


def validate_record(record: CountRecord) -> CountRecord:
    """Check count invariants, collecting every violation before raising.

    Click counts must be non-negative integers not exceeding the emission
    count of their class, and emissions cannot exceed the round total.
    """
    out: list[str] = []
    for name in _RECORD_FIELDS:
        value = getattr(record, name)
        if value is None:
            continue
        if not _is_integer(value):
            out.append(f"{_LOG_NAMES.get(name, name)} must be an integer, got {value!r}")
        elif value < 0:
            out.append(f"{_LOG_NAMES.get(name, name)} must be non-negative, got {value}")
    if out:
        raise ValidationError(out)

    for click_name, (cap_name, _) in CLICK_FIELDS.items():
        click, cap = getattr(record, click_name), getattr(record, cap_name)
        if click is not None and cap is not None and click > cap:
            cap_name = _LOG_NAMES.get(cap_name, cap_name)
            out.append(f"{click_name} = {click} exceeds {cap_name} = {cap}")
    aa = record.n_sent_alpha_alpha
    if aa + record.n_sent_vac > record.rounds:
        out.append(
            f"decoy emissions {aa} + {record.n_sent_vac} "
            f"exceed rounds = {record.rounds}"
        )
    if record.n_sent_0z is not None and record.n_sent_1z is not None:
        n_signal = record.n_sent_0z + record.n_sent_1z
        total = n_signal + aa + record.n_sent_vac
        if total != record.rounds:
            out.append(f"per-class emissions sum to {total}, expected rounds = {record.rounds}")
    else:
        n_signal = record.rounds - aa - record.n_sent_vac
    if record.n_z > n_signal:
        out.append(f"n_z = {record.n_z} exceeds signal emissions = {n_signal}")
    if out:
        raise ValidationError(out)
    return record


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"failure probability must lie in (0, 1), got {eps}")


def delta_hoeffding(n: float, eps: float) -> float:
    """Fluctuation allowance sqrt((n/2) ln(1/eps)) for n bounded trials.

    Worst-case over the unknown success probability; monotone increasing in n
    and decreasing in eps.
    """
    _check_eps(eps)
    if _any(n < 0):
        raise ValueError(f"n must be non-negative, got {n}")
    return np.sqrt(0.5 * n * math.log(1.0 / eps))


def delta_observed(observed: float, eps: float) -> float:
    """Fluctuation allowance sqrt(2 X ln(1/eps)) scaled by the observed count.

    Variance-adapted alternative to delta_hoeffding: for rare clicks the
    emission count wildly overstates the spread, while the observed count
    tracks it at Poisson scale.
    """
    _check_eps(eps)
    return np.sqrt(2.0 * _max(observed, 0.0) * math.log(1.0 / eps))


#: A provider maps (observed count, emission count, eps) to a deviation delta.
DELTA_PROVIDERS = {
    "hoeffding": lambda observed, n_emitted, eps: delta_hoeffding(n_emitted, eps),
    "observed": lambda observed, n_emitted, eps: delta_observed(observed, eps),
}


def bound_expected_count(
    observed: float,
    n_emitted: float,
    eps: float,
    direction: str = "both",
    *,
    provider: str = "hoeffding",
) -> BoundedValue:
    """Bound the expected count behind an observed one.

    upper = observed + delta and lower = max(0, observed - delta), each
    holding with failure probability at most eps.  direction selects which
    sides to populate ("upper", "lower", or "both"); provider names an entry
    of DELTA_PROVIDERS.
    """
    if _any(observed < 0):
        raise ValueError(f"observed count must be non-negative, got {observed}")
    if _any(observed > n_emitted):
        raise ValueError(
            f"observed count {observed} exceeds emission count {n_emitted}"
        )
    _check_choice("direction", direction, ("upper", "lower", "both"))
    _check_choice("provider", provider, DELTA_PROVIDERS)
    delta = DELTA_PROVIDERS[provider](observed, n_emitted, eps)
    upper = observed + delta if direction in ("upper", "both") else None
    lower = _max(0.0, observed - delta) if direction in ("lower", "both") else None
    return BoundedValue(observed=observed, lower=lower, upper=upper, failure_prob=eps)


def bound_gain(bounded_count: BoundedValue, n_emitted: float) -> BoundedValue:
    """Rescale count bounds into gain bounds, clamped to [0, 1]; a missing side stays None."""
    if _any(n_emitted == 0):
        raise ZeroDivisionError(
            "n_emitted is zero: the decoy class was never sent, gains undefined"
        )
    b = bounded_count
    if _any((n_emitted < 0) | (b.observed > n_emitted)):
        raise ValueError(f"emission count {n_emitted} is negative or below observed count {b.observed}")
    lower, upper = (None if v is None else _clamp01(v / n_emitted) for v in (b.lower, b.upper))
    return BoundedValue(_clamp01(b.observed / n_emitted), lower, upper, b.failure_prob)
