"""Pulse-level Monte-Carlo model of the two-decoy coherent one-way protocol.

Each round emits one state and has eight independent Bernoulli events: a
photon click and a dark count at each of four detection gates, the two
data-line time bins (d0, d1) and the two monitoring-line ports (m0, m1).
Photon clicks fire with probability 1 - exp(-mean photon number) per gate,
dark counts with probability p_d.  A click tally counts the rounds that its
rule in concentration.TALLY_RULES selects, and each closed-form gain is the
probability of the same rule, so each analytic gain but one is the
expectation of its empirical counterpart, to 1e-15 relative.  The one
departure is the light at the both-bins decoy's dark port: b (1 - cos phase)/2
here, b the monitoring feed, and 2b or b in the closed form, by m1_model; the
README gives the n_aa_m1 gap this leaves.

Every round is independent, so per_pair mode draws no round on its own: a
session's counts of the 1,024 (state, pattern) rows, empty patterns included,
are one multinomial draw of their joint law.  Streaming mode at a dead time of
one tick or less draws the same, as it can drop nothing.

Under a dead time of two half-period ticks or more, streaming mode draws only
the clicks that live detectors register, with the law of a greedy filter over
all events.  The set of live gates holds for runs of rounds, between which
events are a Bernoulli process with geometric gaps floor(E / -log1p(-q)), E
standard exponential (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. X).  The gaps are memoryless, so a walk draws each gap from the current
set's own law and, when the gap reaches the next revival, draws afresh there.

Each event is held once, as its row state * 256 + pattern, where bits g and
g + 4 of the pattern are the photon click and the dark count at gate g and the
state is in _joint_law's order: z0, z1, both-bins, vacuum.  The rules are a
matrix over the 1,024 rows, built at import, so a session's 13 tallies are
one product of it with the session's count of each row.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .concentration import _SENT_FIELDS, CLICK_FIELDS, TALLY_RULES, WIRE_KEYS, CountRecord
from .concentration import _rule_events, validate_record
from .gains import _LIGHT, GainSet, _lights
from .params import SystemParams, ValidationError
from .params import _check_choice, _is_integer, _parse_lines, _range_violations, write_text

__all__ = [
    "SimConfig",
    "CountFileError",
    "simulate_session",
    "empirical_gains",
    "replay_counts",
    "format_counts",
    "write_counts",
]

SIM_MODES = ("per_pair", "streaming")


@dataclass(frozen=True)
class SimConfig:
    """Simulation run settings: seed, length, and dead-time handling.

    per_pair treats every round independently, matching the closed-form
    model; streaming additionally suppresses clicks within dead_time_s of a
    prior click on the same detector.
    """

    seed: int
    rounds: int
    mode: str = "per_pair"

    def __post_init__(self) -> None:
        if not _is_integer(self.rounds):
            raise ValidationError(f"rounds must be an integer, got {self.rounds!r}")
        if violations := _range_violations(self, ["rounds"]):
            raise ValidationError(violations)
        if self.rounds >= 2**63:
            raise ValidationError(f"rounds must be below 2**63, the counts' 64-bit limit, got {self.rounds}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        _check_choice("mode", self.mode, SIM_MODES)


class CountFileError(ValueError):
    """Count-log file is malformed; message carries line diagnostics."""


def _mask_index() -> np.ndarray:
    """_mask_laws' scatter index, flat: the row (mask * 4 + state) * 256 + kept pattern of each
    (mask, state, pattern), where live gate g (mask bit g) keeps 17 << g but a d0 click kills d1."""
    kept = np.arange(256) & 17 * np.arange(16)[:, None, None]
    kept = np.where(kept & 17, kept & ~34, kept)
    return (np.arange(64).reshape(16, 4, 1) * 256 + kept).astype(np.int16).ravel()


#: Rows state * 256 + pattern of (state, events), as in the module docstring.
_ROWS = 4 * 256
_MASK_INDEX = _mask_index()


def _event_probabilities(params: SystemParams) -> np.ndarray:
    """Firing probability of each event per state, shape (4, 8): columns 0-3
    are photon clicks at the gates of concentration._GATES under the state's
    _LIGHT, and columns 4-7 dark counts at the same gates."""
    light = _lights(params, math.cos(params.receiver.phase_shift))
    means = np.array([[light[name] for name in row] for row in _LIGHT])
    return np.hstack([-np.expm1(-means), np.full((4, 4), params.detectors.dark_count_prob)])


def _joint_law(params: SystemParams) -> np.ndarray:
    """Probability of each (state, event pattern) per round, shape (4, 256)."""
    s = params.source
    probs = np.array([s.p_z0, s.p_z1, s.p_decoy_alpha_alpha, s.p_decoy_vacuum])
    if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-9:
        raise ValidationError(f"state probabilities must be a distribution, got {probs}")
    fire = _event_probabilities(params)
    events = np.arange(256) & 1 << np.arange(8)[:, None] != 0
    return probs[:, None] * np.where(events, fire[:, :, None], 1.0 - fire[:, :, None]).prod(axis=1)


def _mask_laws(joint: np.ndarray) -> np.ndarray:
    """Probability of each (state, kept pattern) under each live-gate mask, shape (16, 4, 256)."""
    return np.bincount(_MASK_INDEX, np.tile(joint.ravel(), 16), minlength=16 * _ROWS).reshape(16, 4, 256)


@dataclass(frozen=True)
class _Walk:
    """Each live-gate mask's law of live events, as lists for bisect, built once per session."""

    rows: list[list[int]]    # the rows a live event can take, per mask
    cum: list[list[float]]   # their cumulative law, without the steps of zero that bisect skips
    scale: list[float]       # 1 / -log1p(-rate), inf where no live event can fire
    idle: np.ndarray

    @classmethod
    def build(cls, params: SystemParams) -> _Walk:
        law = _mask_laws(_joint_law(params))
        idle = law[..., 0].copy()
        law[..., 0] = 0.0  # pattern 0 is no event
        cum = np.cumsum(law.reshape(16, _ROWS), axis=1)
        rate = cum[:, -1].copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            cum /= rate[:, None]
            scale = -1.0 / np.log1p(-rate)
        rows = [np.flatnonzero(step) for step in np.diff(cum, axis=1, prepend=0.0) > 0]
        return cls([r.tolist() for r in rows], [c[r].tolist() for c, r in zip(cum, rows)],
                   scale.tolist(), idle / idle.sum(axis=1, keepdims=True))


@dataclass
class _Batch:
    """Some of a session's rounds where the detectors keep a click, in round
    order, and emissions that a session's batches sum to its own."""

    sent: np.ndarray     # emissions per state
    rounds: np.ndarray   # round index of each round with a kept click
    rows: np.ndarray     # its (state, kept pattern) row


def _batch(rounds: list[int], rows: list[int]) -> _Batch:
    """The walk's clicks as a batch, with the emissions of their rounds."""
    rows = np.array(rows, dtype=np.int16)
    return _Batch(np.bincount(rows >> 8, minlength=4), np.array(rounds, dtype=np.int64), rows)


def _draws(draw) -> Iterator[float]:
    """Endless stream of one kind of draw, in batches of 256 up to 8,192, drawn when first needed."""
    sizes = itertools.chain((256 << k for k in range(5)), itertools.repeat(1 << 13))
    return itertools.chain.from_iterable(map(np.ndarray.tolist, map(draw, sizes)))


def _walk(rng: np.random.Generator, n: int, walk: _Walk, dead: int) -> Iterator[_Batch]:
    """Draw the clicks that live gates register over n rounds under a dead time
    of dead >= 2 ticks, gate k of a detector at tick 2r + k in round r, in
    batches of 4,096; the last also carries the rounds without a click."""
    exp, uniform = _draws(rng.standard_exponential).__next__, _draws(rng.random).__next__
    rows_of, cum, scale, up, down = walk.rows, walk.cum, walk.scale, (dead + 1) // 2, dead // 2
    r = d0 = d1 = m0 = m1 = 0  # the round, and the first round each gate is live in
    rounds, rows, idle = [], [], [0] * 16
    find, add_round, add_row = bisect.bisect, rounds.append, rows.append
    while r < n:
        # The live gates' mask, and the first round after r where one revives or the session ends.
        if r >= d0:  # d1 revives no later than d0
            mask, stop = 3, n
        elif r >= d1:
            mask, stop = 2, d0 if d0 < n else n
        else:
            mask, stop = 0, d1 if d1 < n else n
        if r >= m0:
            mask |= 4
        elif m0 < stop:
            stop = m0
        if r >= m1:
            mask |= 8
        elif m1 < stop:
            stop = m1
        # The next live event is floor(x) rounds on; x is NaN where none can fire.
        x = exp() * scale[mask]
        if not x < stop - r:
            idle[mask] += stop - r
            r = stop
            continue
        gap = int(x)
        idle[mask] += gap
        r += gap
        row = rows_of[mask][find(cum[mask], uniform())]
        add_round(r)
        add_row(row)
        if len(rows) == 4096:  # in arrays a click takes 10 bytes, in the lists about 70
            yield _batch(rounds, rows)
            del rounds[:], rows[:]
        # A detector revives dead ticks after its click's tick: 2r at d0, m0 and m1, 2r + 1 at d1.
        if row & 17:
            d0, d1 = r + up, r + down
        elif row & 34:
            d0, d1 = r + down + 1, r + up
        if row & 68:
            m0 = r + up
        if row & 136:
            m1 = r + up
        r += 1
    last = _batch(rounds, rows)
    last.sent += sum(rng.multinomial(count, law) for count, law in zip(idle, walk.idle) if count)
    yield last


def _dead_ticks(params: SystemParams, cfg: SimConfig) -> int:
    """Streaming mode's dead time in half-period ticks, 0 in per_pair mode."""
    if cfg.mode == "per_pair":
        return 0
    # Rounding to a millionth of a tick first keeps a whole number of ticks whole despite float error.
    ticks = round(2.0 * params.detectors.dead_time_s * params.source.pulse_pair_rate, 6)
    # A detector reviving after the session's last tick, 2 * rounds - 1, never revives: cap there.
    return math.ceil(min(ticks, 2 * cfg.rounds + 1))


def _row_counts(params: SystemParams, cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Each row's count over a session of independent rounds, empty patterns included."""
    # Reversed, so the last row, which takes what numpy's drifting sum leaves, is z0's empty pattern.
    return rng.multinomial(cfg.rounds, _joint_law(params).ravel()[::-1])[::-1]


def _tally_masks(rows: np.ndarray) -> dict[str, np.ndarray]:
    """Rows each click tally counts: n_z, then each rule of TALLY_RULES, from
    the rows' state and gate bits."""
    P, D = (rows & bit << np.arange(4)[:, None] != 0 for bit in (1, 16))
    event = {"P": P, "D": D, "C": P | D}
    masks = {"n_z": (rows >> 8 < 2) & (event["C"][0] | event["C"][1])}  # a bit state, any data click
    for click, (_, state, events) in TALLY_RULES.items():
        mask = rows >> 8 == state
        for negated, kind, gate in _rule_events(events):
            mask &= event[kind][gate] != negated
        masks[click] = mask
    return masks


#: Rows each click tally counts, and the same as a (13, 1,024) matrix in field order.
_TALLY_ROWS = _tally_masks(np.arange(_ROWS))
_TALLY_MATRIX = np.array(list(_TALLY_ROWS.values()))


def simulate_session(params: SystemParams, cfg: SimConfig) -> CountRecord:
    """Simulate one session and return its validated count record.

    Deterministic for a fixed seed and parameters: a record is a function of
    the seed and the round count.  In streaming mode each physical detector's
    clicks are those a greedy dead-time filter keeps from the per_pair
    events, in law, so suppression can only lower the expected counts; above
    one tick of dead time the two modes draw different streams from one seed.
    """
    if (dead := _dead_ticks(params, cfg)) > 1:
        sent, per_row = np.zeros(4, dtype=np.int64), np.zeros(_ROWS, dtype=np.int64)
        for batch in _walk(np.random.default_rng(cfg.seed), cfg.rounds, _Walk.build(params), dead):
            sent += batch.sent
            per_row += np.bincount(batch.rows, minlength=_ROWS)
    else:
        per_row = _row_counts(params, cfg, np.random.default_rng(cfg.seed))
        sent = per_row.reshape(4, 256).sum(axis=1)
    tallies = dict(zip(_TALLY_ROWS, np.dot(_TALLY_MATRIX, per_row).tolist()))
    tallies.update(zip(_SENT_FIELDS, sent.tolist()))
    return validate_record(CountRecord(rounds=cfg.rounds, **tallies))


def empirical_gains(record: CountRecord) -> GainSet:
    """Frequency estimates of every gain the record can resolve.

    Each gain is its class-conditional click count over the class emission
    count.  A field is None where the record lacks the click tally or the
    class emissions, or the class was never sent.
    """
    values = {}
    for click_name, (sent_name, field) in CLICK_FIELDS.items():
        clicks, sent = getattr(record, click_name), getattr(record, sent_name)
        values[field] = clicks / sent if clicks is not None and sent else None
    return GainSet(**values)


#: A count: ASCII digits only, as int() would also take 1_000, +5 and non-ASCII digits.  The
#: sign is read so that a negative count gets validate_record's "must be non-negative".
_COUNT = re.compile(r"-?[0-9]+")


def _count(text: str) -> int:
    if not _COUNT.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


#: Each count-log key's value parser: a count is a plain integer literal.
_COUNT_PARSERS = dict.fromkeys((key for key, _ in WIRE_KEYS), _count)


def replay_counts(path: str | os.PathLike[str]) -> CountRecord:
    """Parse a count-log file, one "key = integer" line per wire key, into a validated
    CountRecord; its CountFileError names every bad line, missing key and broken invariant,
    or text that is not UTF-8."""
    try:
        with open(path, "rb") as file:
            lines = file.read().decode().splitlines()
    except UnicodeDecodeError as exc:
        raise CountFileError(f"{path}: {exc}") from exc
    values, errors = _parse_lines(lines, _COUNT_PARSERS, "line {}".format, form="key = integer")
    if missing := [key for key, _ in WIRE_KEYS if key not in values]:
        errors.append(f"missing keys: {', '.join(missing)}")
    if errors:
        raise CountFileError(f"{path}: " + "; ".join(errors))
    try:
        return validate_record(CountRecord(**{field: values[key] for key, field in WIRE_KEYS}))
    except ValidationError as exc:
        raise CountFileError(f"{path}: {exc}") from exc


def format_counts(record: CountRecord) -> str:
    """Render the eight wire keys, one per line: CountRecord's required fields in field
    order, each under its own name but n_sent_alpha_alpha, written n_sent_aa."""
    return "".join(f"{key} = {getattr(record, field)}\n" for key, field in WIRE_KEYS)


def write_counts(record: CountRecord, path: str | os.PathLike[str]) -> None:
    write_text(format_counts(record), path)
