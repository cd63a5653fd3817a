"""Pulse-level Monte-Carlo model of the two-decoy coherent one-way protocol.

Each round emits one state and has eight independent Bernoulli events: a
photon click and a dark count at each of four detection gates, the two
data-line time bins (d0, d1) and the two monitoring-line ports (m0, m1).
Photon clicks fire with probability 1 - exp(-mean photon number) per gate,
dark counts with probability p_d.  Tallies apply the same exclusivity
conventions as the closed-form gains, so every analytic gain is the exact
expectation of its empirical counterpart:

  state      tally        condition (P photon click, D dark, C any click)
  bit 0z     tau0 click   P[d0] and not D[d1], not D[m0], not D[m1]
  bit 0z     tau1 click   C[d1] and not D[m0], not D[m1]
  bit 0z     m port       C[m] and not D[other m], not C[d0], not D[d1]
  both-bins  m0           C[m0] and not D[m1], not D[d0], not C[d1]
  both-bins  m1           D[m1] and not P[m1], not D[m0], not D[d0], not C[d1]
  vacuum     m port       C[m] and not D[other m], not D[d0], not D[d1]

with the bit-1z rows mirrored in time.  The both-bins m1 tally counts
dark-only events because the closed-form value models the destructive port as
light-free; the residual-light suppression factors differ by far less than
one Monte-Carlo standard deviation at any tested scale.

Most rounds register nothing, so only rounds where some event fires are
drawn: with pi_k the source distribution and q_k the probability that any
event fires for state k, a Bernoulli process of rate q = sum_k pi_k q_k,
placed by geometric gaps ceil(E / -log1p(-q)) with E standard exponential,
numpy's own geometric draw below q = 1/3 (Devroye, Non-Uniform Random Variate
Generation, 1986, ch. X).  Each such round takes its state and all eight
events from one uniform, by inversion (ch. III) in a table of the joint law
of the 1,024 (state, pattern) rows, where the empty pattern has no mass; a
guide table (Chen and Asau, 1974) of 4,096 cells of [0, 1) leaves to a binary
search only uniforms in the few cells a row boundary splits.  That rounds
each row's share of q to the 2^-53 grain of the uniform, as u < p tests round
an event's probability: a row below about 1e-16 of q, such as four dark counts
at p_d = 1.8e-6, is drawn at that grain or never.  One multinomial draw gives
the other rounds' states, whose law is pi_k (1 - q_k) / (1 - q).

Under a dead time of two half-period ticks or more, streaming mode draws only
the clicks that live detectors register, with the law of a greedy filter over
all events.  The set of live gates holds for runs of rounds, and the gaps are
memoryless, so a walk draws each gap from the current set's own table and,
when the gap reaches the next revival, draws afresh from there.

Each event round is held once, as its row state * 256 + pattern, where bits g
and g + 4 of the pattern are the photon click and the dark count at gate g
and the state is in _Sampler.build's order: z0, z1, both-bins, vacuum.  The
tallies count events per row, so the rules above run once, on all 1,024 rows,
and detection_events decodes the rows.  Rounds are processed in fixed-size
chunks, each with its own RNG stream spawned from the seed, so results are a
deterministic function of seed, round count and chunk size.  A chunk's arrays
may be views into buffers the session allocates once, valid until the next
chunk is drawn: each consumer reads a chunk before the next.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .concentration import CLICK_FIELDS, WIRE_KEYS, CountRecord, validate_record
from .gains import _intensity
from .params import SystemParams, ValidationError, _check_choice, _is_integer, _range_violations

__all__ = [
    "SimConfig",
    "MissingCountError",
    "EmpiricalGains",
    "CountFileError",
    "simulate_session",
    "detection_events",
    "empirical_gains",
    "replay_counts",
    "format_counts",
    "write_counts",
]

SIM_MODES = ("per_pair", "streaming")

#: Rounds per RNG chunk; fixed so that tallies are seed-deterministic
#: regardless of the total round count.
_CHUNK_ROUNDS = 1 << 20


#: Emission-count tally of each state, in _Sampler.build's order.
_SENT_FIELDS = ("n_sent_0z", "n_sent_1z", "n_sent_alpha_alpha", "n_sent_vac")


@dataclass(frozen=True)
class DetectionEvent:
    """One surviving click: which detector, which time bin, dark or photonic."""

    round_index: int
    detector: str
    time_bin: str
    is_dark: bool


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
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        _check_choice("mode", self.mode, SIM_MODES)


class MissingCountError(AttributeError):
    """Requested gain field has no emission data in the record."""


class EmpiricalGains:
    """Gain estimates keyed like GainSet fields; absent fields raise."""

    def __init__(self, values: dict[str, float]):
        self._values = dict(values)

    def __getattr__(self, name: str) -> float:
        try:
            return self.__dict__["_values"][name]
        except KeyError:
            raise MissingCountError(
                f"gain {name!r} unavailable: its state class has no recorded emissions"
            ) from None

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)


class CountFileError(ValueError):
    """Count-log file is malformed; message carries line diagnostics."""


_GATE_ORDER = ("d0", "d1", "m0", "m1")

#: Rows state * 256 + pattern of (state, events), as in the module docstring.
_ROWS = 4 * 256
_CELLS = 4096  # cells of the guide table that finds each event's row


def _event_probabilities(params: SystemParams) -> np.ndarray:
    """Firing probability of each event per state, shape (4, 8).

    Columns 0-3 are photon clicks at d0, d1, m0, m1 and columns 4-7 dark
    counts at the same gates.  The monitoring feed b splits per the
    interferometer phase for the both-bins decoy and into two temporal copies
    totalling b/2 for lone pulses.
    """
    a, b = _intensity(params), _intensity(params, monitoring=True)
    cos = math.cos(params.receiver.phase_shift)
    s = b / 2.0
    means = np.array([
        [a, 0.0, s, s],
        [0.0, a, s, s],
        [a, a, b * (1.0 + cos) / 2.0, b * (1.0 - cos) / 2.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
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


def _event_law(law: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative row law given some event, whose trailing empty rows stay at
    exactly 1 so u < 1 never draws them, event rate and state law given none."""
    idle = law[..., 0].copy()
    law[..., 0] = 0.0  # pattern 0 is no event
    cum = np.cumsum(law.reshape(*law.shape[:-2], _ROWS), axis=-1)
    rate = cum[..., -1].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        return cum / rate[..., None], rate, idle / idle.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class _Sampler:
    """Joint law of state and event pattern, built once per session."""

    rate: float          # probability that some event fires in a round
    cum: np.ndarray      # cumulative law of the rows given that some event fires
    idle: np.ndarray     # state law of the rounds where nothing fires
    guide: np.ndarray    # int16 row of each of _CELLS cells of [0, 1), -1 if two rows share it

    @classmethod
    def build(cls, params: SystemParams) -> _Sampler:
        cum, rate, idle = _event_law(_joint_law(params))
        # Cell j holds [j, j + 1) / _CELLS: one row unless a cum value lies strictly inside.
        guide = cum.searchsorted(np.arange(_CELLS) / _CELLS, side="right")
        guide[guide != cum.searchsorted(np.arange(1, _CELLS + 1) / _CELLS, side="left")] = -1
        return cls(float(rate), cum, idle, guide.astype(np.int16))


def _mask_laws(joint: np.ndarray) -> np.ndarray:
    """Probability of each (state, kept pattern) in a round whose live gates are
    the set bits of a mask, shape (16, 4, 256): a dead gate registers nothing,
    and a d0 click leaves d1 dead, as a dead time of 2 ticks or more does."""
    mask = np.arange(16)[:, None]
    kept = np.arange(256) & sum((mask >> g & 1) * (17 << g) for g in range(4))
    kept = np.where(kept & 17 != 0, kept & ~34, kept)
    index = (mask[:, :, None] * 4 + np.arange(4)[:, None]) * 256 + kept[:, None, :]
    return np.bincount(index.ravel(), np.broadcast_to(joint, index.shape).ravel(),
                       minlength=16 * _ROWS).reshape(16, 4, 256)


@dataclass(frozen=True)
class _Walk:
    """Each live-gate mask's law of live events, as lists for bisect, built once per session."""

    rows: list[list[int]]    # the rows a live event can take, per mask
    cum: list[list[float]]   # their cumulative law, without the steps of zero that bisect skips
    scale: list[float]       # 1 / -log1p(-rate), inf where no live event can fire
    idle: np.ndarray

    @classmethod
    def build(cls, params: SystemParams) -> _Walk:
        cum, rate, idle = _event_law(_mask_laws(_joint_law(params)))
        rows = [np.flatnonzero(step) for step in np.diff(cum, axis=1, prepend=0.0) > 0]
        with np.errstate(divide="ignore"):
            return cls([r.tolist() for r in rows], [c[r].tolist() for c, r in zip(cum, rows)],
                       (-1.0 / np.log1p(-rate)).tolist(), idle)


@dataclass
class _Chunk:
    """The rounds of one chunk where some event fired, in round order; a
    streaming chunk holds only the clicks its detectors keep."""

    sent: np.ndarray     # emissions per state over the whole chunk
    rounds: np.ndarray   # round index of each event
    rows: np.ndarray     # (state, pattern) row of each event, int16 to keep chunks small


class _Buffers:
    """Chunk-sized arrays, each its own block, that a session allocates once and
    every chunk refills.  The first batch of gaps, a session's largest, sizes
    them; the rare chunk whose events outnumber it grows them.  take() writes
    straight into them with mode="clip", as its indices are in range."""

    size = -1

    def fit(self, size: int) -> _Buffers:
        if size > self.size:
            self.size = size
            self.draws = np.empty(size)  # exponentials, then uniforms
            # scratch holds the gaps, then guide cells and states, then the rows cast for the tally.
            self.rounds, self.scratch = np.empty(size, np.intp), np.empty(size, np.intp)
            self.rows = np.empty(size, np.int16)
        return self


def _bernoulli_rounds(rng: np.random.Generator, n: int, q: float,
                      buf: _Buffers | None = None) -> np.ndarray:
    """Ascending rounds below n of a Bernoulli(q) process, by geometric gaps."""
    if q == 0.0:
        return np.empty(0, dtype=np.int64)
    parts = []
    last = -1
    while True:
        expected = (n - 1 - last) * q
        size = int(expected + 4.0 * math.sqrt(expected) + 16)
        buf = (buf or _Buffers()).fit(size)
        draws = rng.standard_exponential(out=buf.draws[:size])
        # Gaps in [1, n + 1] keep rounds distinct and the sum from overflowing; one
        # past the chunk's end ends it.  Clipped before ceil, they are the same integers.
        np.divide(draws, -math.log1p(-q), out=draws).clip(1, n + 1, out=draws)
        pos = np.cumsum(np.ceil(draws, out=buf.scratch[:size], casting="unsafe"), out=buf.rounds[:size])
        pos += last
        if pos[-1] >= n:
            pos = pos[: np.searchsorted(pos, n)]
            return np.concatenate([*parts, pos]) if parts else pos
        parts.append(pos.copy())
        last = int(pos[-1])


def _sample_chunk(rng: np.random.Generator, start: int, n: int, sampler: _Sampler,
                  buf: _Buffers | None = None) -> _Chunk:
    """Sample one chunk into buf, or new buffers.  Draw order is fixed, so
    identical seeds give identical samples."""
    buf = buf or _Buffers()
    rounds = _bernoulli_rounds(rng, n, sampler.rate, buf)
    k = rounds.size
    u = rng.random(out=buf.fit(k).draws[:k])
    # u * _CELLS is exact, so truncating it gives each uniform's cell.
    rows = sampler.guide.take(np.multiply(u, _CELLS, out=buf.scratch[:k], casting="unsafe"),
                              out=buf.rows[:k], mode="clip")
    split = np.flatnonzero(rows < 0)
    rows[split] = sampler.cum.searchsorted(u[split], side="right")
    sent = np.bincount(np.right_shift(rows, 8, out=buf.scratch[:k]), minlength=4)
    sent += rng.multinomial(n - k, sampler.idle)
    return _Chunk(sent, np.add(rounds, start, out=rounds), rows)


def _draws(draw) -> Iterator[float]:
    """Endless stream of one kind of draw, in batches growing from 256 to 8,192."""
    size = 256
    while True:
        yield from draw(size).tolist()
        size = min(2 * size, 1 << 13)


def _walk_chunk(rng: np.random.Generator, start: int, n: int, walk: _Walk, dead: int,
                live: list[int]) -> _Chunk:
    """Draw the clicks that live gates register under a dead time of dead >= 2
    ticks, gate k of a detector at tick 2r + k in round r.  live[g] is the
    first round gate g is live in, carried from chunk to chunk."""
    exps, uniforms = _draws(rng.standard_exponential), _draws(rng.random)
    rows_of, cum, scale, up, down = walk.rows, walk.cum, walk.scale, (dead + 1) // 2, dead // 2
    d0, d1, m0, m1 = live
    rounds, rows, idle = [], [], [0] * 16
    draw, find, add_round, add_row = next, bisect.bisect, rounds.append, rows.append
    r, end = start, start + n
    while r < end:
        # The live gates' mask, and the first round after r where one revives or the chunk ends.
        if r >= d0:  # d1 revives no later than d0
            mask, stop = 3, end
        elif r >= d1:
            mask, stop = 2, d0 if d0 < end else end
        else:
            mask, stop = 0, d1 if d1 < end else end
        if r >= m0:
            mask |= 4
        elif m0 < stop:
            stop = m0
        if r >= m1:
            mask |= 8
        elif m1 < stop:
            stop = m1
        # The next live event is floor(x) rounds on; x is NaN where none can fire.
        x = draw(exps) * scale[mask]
        if not x < stop - r:
            idle[mask] += stop - r
            r = stop
            continue
        gap = int(x)
        idle[mask] += gap
        r += gap
        row = rows_of[mask][find(cum[mask], draw(uniforms))]
        add_round(r)
        add_row(row)
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
    live[:] = d0, d1, m0, m1
    rows = np.array(rows, dtype=np.int16)
    sent = np.bincount(rows >> 8, minlength=4) + sum(
        rng.multinomial(count, law) for count, law in zip(idle, walk.idle) if count)
    return _Chunk(sent, np.array(rounds, dtype=np.int64), rows)


def _chunks(params: SystemParams, cfg: SimConfig, buf: _Buffers | None = None) -> Iterator[_Chunk]:
    """Chunks in round order, drawn into buf or new buffers; in streaming mode
    with a dead time above one tick, each holds only the kept clicks."""
    # Dead time in half-period ticks; rounding to a millionth of a tick first
    # keeps a whole number of ticks whole despite float error.
    ticks = 2.0 * params.detectors.dead_time_s * params.source.pulse_pair_rate
    dead = math.ceil(round(ticks, 6))
    # A detector's clicks sit on distinct ticks, so a 1-tick dead time drops nothing.
    if cfg.mode == "streaming" and dead > 1:
        draw = functools.partial(_walk_chunk, walk=_Walk.build(params), dead=dead, live=[0] * 4)
    else:
        draw = functools.partial(_sample_chunk, sampler=_Sampler.build(params), buf=buf or _Buffers())
    n_chunks = (cfg.rounds + _CHUNK_ROUNDS - 1) // _CHUNK_ROUNDS
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_chunks)):
        start = i * _CHUNK_ROUNDS
        yield draw(np.random.Generator(np.random.PCG64(child)), start, min(_CHUNK_ROUNDS, cfg.rounds - start))


def _tally_masks(rows: np.ndarray) -> dict[str, np.ndarray]:
    """Rows each click tally counts, from their state and gate bits, with P, D
    and C per gate as in the module docstring's table."""
    P = {g: rows & 1 << j != 0 for j, g in enumerate(_GATE_ORDER)}
    D = {g: rows & 16 << j != 0 for j, g in enumerate(_GATE_ORDER)}
    C = {g: P[g] | D[g] for g in _GATE_ORDER}
    is_z0, is_z1, is_aa, is_vac = (rows >> 8 == k for k in range(4))
    no_mon_dark = ~D["m0"] & ~D["m1"]
    return {  # each tally's whole condition, as in the module docstring's table
        "n_z": (is_z0 | is_z1) & (C["d0"] | C["d1"]),
        "n_0z_tau0": is_z0 & P["d0"] & ~D["d1"] & no_mon_dark,
        "n_0z_tau1": is_z0 & C["d1"] & no_mon_dark,
        "n_1z_tau1": is_z1 & P["d1"] & ~D["d0"] & no_mon_dark,
        "n_1z_tau0": is_z1 & C["d0"] & no_mon_dark,
        "n_0z_m0": is_z0 & C["m0"] & ~D["m1"] & ~C["d0"] & ~D["d1"],
        "n_0z_m1": is_z0 & C["m1"] & ~D["m0"] & ~C["d0"] & ~D["d1"],
        "n_1z_m0": is_z1 & C["m0"] & ~D["m1"] & ~C["d1"] & ~D["d0"],
        "n_1z_m1": is_z1 & C["m1"] & ~D["m0"] & ~C["d1"] & ~D["d0"],
        "n_aa_m0": is_aa & C["m0"] & ~D["m1"] & ~D["d0"] & ~C["d1"],
        "n_aa_m1": is_aa & D["m1"] & ~P["m1"] & ~D["m0"] & ~D["d0"] & ~C["d1"],
        "n_vac_m0": is_vac & C["m0"] & ~D["m1"] & ~D["d0"] & ~D["d1"],
        "n_vac_m1": is_vac & C["m1"] & ~D["m0"] & ~D["d0"] & ~D["d1"],
    }


#: Rows each click tally counts.
_TALLY_ROWS = _tally_masks(np.arange(_ROWS))


def simulate_session(params: SystemParams, cfg: SimConfig) -> CountRecord:
    """Simulate one session and return its validated count record.

    Deterministic for a fixed seed and parameters.  In streaming mode each
    physical detector's clicks are those a greedy dead-time filter keeps from
    the per_pair events, in law, so suppression can only lower the expected
    counts; the two modes draw different streams from one seed.
    """
    sent, per_row = np.zeros(4, dtype=np.int64), np.zeros(_ROWS, dtype=np.int64)
    buf = _Buffers()
    for chunk in _chunks(params, cfg, buf):
        sent += chunk.sent
        # bincount would cast the int16 rows to intp itself: cast them into scratch.
        k = chunk.rows.size
        per_row += np.bincount(np.positive(chunk.rows, out=buf.fit(k).scratch[:k]), minlength=_ROWS)
    tallies = {field: int(per_row[rows].sum()) for field, rows in _TALLY_ROWS.items()}
    tallies.update(zip(_SENT_FIELDS, sent.tolist()))
    return validate_record(CountRecord(rounds=cfg.rounds, **tallies))


def detection_events(params: SystemParams, cfg: SimConfig) -> Iterator[DetectionEvent]:
    """Yield every surviving click of a session in round order, for small
    diagnostic runs.

    Reads the same chunks as simulate_session, so the event stream is
    consistent with the tallies for the same seed.
    """
    # One data-line detector covers both bins; each monitoring port is its own.
    detector = ("data", "data", "mon_m0", "mon_m1")
    gate_bin = ("tau0", "tau1", "interference", "interference")
    for chunk in _chunks(params, cfg):
        # Per event and gate: 1 a photon click, 16 a dark count, 17 both.
        clicked = chunk.rows[:, None] >> np.arange(4) & 17
        for event, gate in zip(*np.nonzero(clicked)):
            yield DetectionEvent(
                round_index=int(chunk.rounds[event]),
                detector=detector[gate],
                time_bin=gate_bin[gate],
                is_dark=bool(clicked[event, gate] == 16),
            )


def empirical_gains(record: CountRecord) -> EmpiricalGains:
    """Frequency estimates of every gain the record can resolve.

    Each gain is its class-conditional click count over the class emission
    count.  Fields whose class has no recorded emissions are absent, and
    reading them raises MissingCountError.
    """
    values: dict[str, float] = {}
    for click_name, (sent_name, field) in CLICK_FIELDS.items():
        clicks = getattr(record, click_name)
        sent = getattr(record, sent_name)
        if clicks is None or sent is None or sent == 0:
            continue
        values[field] = clicks / sent
    return EmpiricalGains(values)


def replay_counts(path: str | Path) -> CountRecord:
    """Parse a count-log file into a validated CountRecord.

    The format is one "key = integer" per line with exactly the eight core
    keys required; blank lines and lines starting with '#' are ignored.
    Unknown or repeated keys, malformed lines, and invariant violations are
    all rejected with line diagnostics.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    field_for = dict(WIRE_KEYS)
    values: dict[str, int] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = integer', got {raw!r}")
            continue
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in field_for:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if field_for[key] in values:
            errors.append(f"line {lineno}: repeated key {key!r}")
            continue
        try:
            values[field_for[key]] = int(value_text)
        except ValueError:
            errors.append(f"line {lineno}: value for {key!r} is not an integer: {value_text!r}")
    missing = [key for key, field in WIRE_KEYS if field not in values]
    if missing:
        errors.append(f"missing keys: {', '.join(missing)}")
    if errors:
        raise CountFileError(f"{path}: " + "; ".join(errors))
    try:
        return validate_record(CountRecord(**values))
    except ValidationError as exc:
        raise CountFileError(f"{path}: {exc}") from exc


def format_counts(record: CountRecord) -> str:
    """Render the eight wire keys in canonical order, one per line."""
    return "".join(f"{key} = {getattr(record, field)}\n" for key, field in WIRE_KEYS)


def write_counts(record: CountRecord, path: str | Path) -> None:
    Path(path).write_text(format_counts(record), encoding="utf-8")
