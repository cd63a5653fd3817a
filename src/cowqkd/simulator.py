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

Each event round is held once, as its row state * 256 + pattern, where bits g
and g + 4 of the pattern are the photon click and the dark count at gate g
and the state is in _Sampler.build's order: z0, z1, both-bins, vacuum.  The
tallies count events per row, so the rules above run once, on all 1,024 rows;
the streaming dead-time filter walks each detector's candidate events, by
one binary search per kept click, and clears both bits of each gate it drops
from the row; detection_events decodes the rows.  Rounds are processed in
fixed-size chunks, each with its own RNG stream spawned from the seed, so
results are a deterministic function of seed, round count and chunk size.
A chunk's arrays are views into buffers the session allocates once, valid
until the next chunk is drawn: each consumer reads a chunk before the next.
"""

from __future__ import annotations

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

#: Gates of each physical detector, half a period apart within a round: one
#: data-line detector covers both bins, each monitoring port is its own.
_DETECTOR_GATES = {"data": [0, 1], "mon_m0": [2], "mon_m1": [3]}

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


@dataclass(frozen=True)
class _Sampler:
    """Joint law of state and event pattern, built once per session."""

    rate: float          # probability that some event fires in a round
    cum: np.ndarray      # cumulative law of the rows given that some event fires
    idle: np.ndarray     # state law of the rounds where nothing fires
    guide: np.ndarray    # int16 row of each of _CELLS cells of [0, 1), -1 if two rows share it

    @classmethod
    def build(cls, params: SystemParams) -> _Sampler:
        s = params.source
        probs = np.array([s.p_z0, s.p_z1, s.p_decoy_alpha_alpha, s.p_decoy_vacuum])
        if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-9:
            raise ValidationError(f"state probabilities must be a distribution, got {probs}")
        fire = _event_probabilities(params)
        events = np.arange(256) & 1 << np.arange(8)[:, None] != 0
        law = np.where(events, fire[:, :, None], 1.0 - fire[:, :, None]).prod(axis=1)
        law[:, 0] = 0.0  # pattern 0 is no event, so searchsorted never lands on its rows
        cum = np.cumsum(probs[:, None] * law)
        rate = float(cum[-1])
        with np.errstate(invalid="ignore"):
            cum /= rate  # trailing empty rows stay at exactly 1, so u < 1 never draws them
        idle = probs * np.prod(1.0 - fire, axis=1)
        # Cell j holds [j, j + 1) / _CELLS: one row unless a cum value lies strictly inside.
        guide = cum.searchsorted(np.arange(_CELLS) / _CELLS, side="right")
        guide[guide != cum.searchsorted(np.arange(1, _CELLS + 1) / _CELLS, side="left")] = -1
        return cls(rate, cum, idle / idle.sum(), guide.astype(np.int16))


@dataclass
class _Chunk:
    """The rounds of one chunk where some event fired, in round order."""

    sent: np.ndarray     # emissions per state over the whole chunk
    rounds: np.ndarray   # round index of each event
    rows: np.ndarray     # (state, pattern) row of each event, int16 to keep chunks small
    buf: _Buffers        # session buffers that rounds and rows view until the next chunk


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
            # scratch holds the gaps, then guide cells and states, then a detector's first ticks.
            self.rounds, self.scratch, self.last = (np.empty(size, np.intp) for _ in range(3))
            self.rows, self.keep, self.cands = (np.empty(size, np.int16) for _ in range(3))
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
    return _Chunk(sent, np.add(rounds, start, out=rounds), rows, buf)


def _apply_dead_time(chunk: _Chunk, dead: int, last_kept: dict[str, int]) -> None:
    """Greedy non-paralyzable dead time per detector, applied in place; a
    suppressed gate registers nothing at all.

    Times are integer half-period ticks, gate k of a detector's gates in round
    r at tick 2r + k, so the spacing test is exact.  Each detector walks the
    events with a click at any of its gates, one binary search per kept click;
    last_kept holds each detector's last kept tick across chunks.
    """
    buf, k = chunk.buf, chunk.rows.size
    # Rows keep their state, bits 8 and up, and each kept gate g's events, bits g and g + 4.
    keep = np.bitwise_and(chunk.rows, -256, out=buf.keep[:k])
    for det, gates in _DETECTOR_GATES.items():
        events = np.flatnonzero(chunk.rows & sum(17 << g for g in gates) != 0)
        rows = chunk.rows.take(events, out=buf.cands[: events.size], mode="clip")
        last = chunk.rounds.take(events, out=buf.last[: events.size], mode="clip")
        last *= 2
        # Ticks of each candidate's first and last clicked gate, both ascending.
        first = np.add(last, rows & 17 << gates[0] == 0, out=buf.scratch[: events.size])
        if len(gates) > 1:
            last += rows & 17 << gates[1] != 0
        live = last_kept[det] + dead  # first tick the detector can click again
        i = last.searchsorted(live)
        while i < events.size:
            tick = first.item(i) if first.item(i) >= live else last.item(i)
            keep[events.item(i)] |= 17 << gates[tick & 1]
            live = tick + dead
            i = last.searchsorted(live)
        last_kept[det] = live - dead
    chunk.rows &= keep


def _chunks(params: SystemParams, cfg: SimConfig) -> Iterator[_Chunk]:
    """Sampled chunks in round order, with dead time applied in streaming mode."""
    sampler = _Sampler.build(params)
    # Dead time in half-period ticks; rounding to a millionth of a tick first
    # keeps a whole number of ticks whole despite float error.
    ticks = 2.0 * params.detectors.dead_time_s * params.source.pulse_pair_rate
    dead = math.ceil(round(ticks, 6))
    # A detector's clicks sit on distinct ticks, so a 1-tick filter drops nothing.
    streaming = cfg.mode == "streaming" and dead > 1
    last_kept = dict.fromkeys(_DETECTOR_GATES, -dead)
    buf = _Buffers()
    n_chunks = (cfg.rounds + _CHUNK_ROUNDS - 1) // _CHUNK_ROUNDS
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_chunks)):
        start = i * _CHUNK_ROUNDS
        rng = np.random.Generator(np.random.PCG64(child))
        chunk = _sample_chunk(rng, start, min(_CHUNK_ROUNDS, cfg.rounds - start), sampler, buf)
        if streaming:
            _apply_dead_time(chunk, dead, last_kept)
        yield chunk


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

    Deterministic for a fixed seed and parameters.  In streaming mode the
    dead-time filter runs over the merged click train of each physical
    detector before tallying, so suppression can only remove counts relative
    to per_pair mode on the same seed.
    """
    sent, per_row = np.zeros(4, dtype=np.int64), np.zeros(_ROWS, dtype=np.int64)
    for chunk in _chunks(params, cfg):
        sent += chunk.sent
        per_row += np.bincount(chunk.rows, minlength=_ROWS)
    tallies = {field: int(per_row[rows].sum()) for field, rows in _TALLY_ROWS.items()}
    tallies.update(zip(_SENT_FIELDS, sent.tolist()))
    return validate_record(CountRecord(rounds=cfg.rounds, **tallies))


def detection_events(params: SystemParams, cfg: SimConfig) -> Iterator[DetectionEvent]:
    """Yield every surviving click of a session in round order, for small
    diagnostic runs.

    Reads the same events and dead-time logic as simulate_session, so the
    event stream is consistent with the tallies for the same seed.
    """
    detector = {gate: det for det, gates in _DETECTOR_GATES.items() for gate in gates}
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
