"""The benchmark's workloads: their inputs, timed operations and output checks.

A workload builds all its inputs from the seed in its constructor, before
timing starts.  ``cycle()`` then runs one pass of the commands a user makes,
times each command on its own, and returns the timings with a check for
each command's output.  The checks run after the cycle, outside the timed
region and outside any tracing, and use tolerances rather than exact counts
so that a different but correct sampler still passes them.

Every pass of one run repeats the same inputs, so per-cycle counts are exact
for a seed; different seeds vary the grids, brackets and simulation seeds.

Each workload also names its reference: a millisecond or so of fixed work
of the benchmark's own, never cowqkd's, of the same kinds as the workload's
work.  ``cycle()`` times it right after each command, and the benchmark
reports command times in multiples of it.  On a shared host the process runs
at full speed for a while, then at down to half of it, and the share of slow
periods differs between runs by more than the benchmark's bounds; a command
and the reference run right after it mostly see the same speed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import cowqkd.cli as cli
import cowqkd.simulator as simulator
from cowqkd.gains import analytic_gains
from cowqkd.simulator import SimConfig, empirical_gains
from tracing import tallied_clicks

# Bound here, before any tracing patch, so checks and set-up call the
# originals and never show up in spans.
_build_params = cli.build_params
_load_config = cli.load_config
_replay_counts = simulator.replay_counts
_simulate_session = simulator.simulate_session

QBER_CFG = "qber_scan.cfg"
ETA10_CFG = "keyrate_eta10_dt50.cfg"
ETA20_CFG = "keyrate_eta20_dt30.cfg"

#: Frozen acceptance windows (tests/test_acceptance.py).
QBER_CROSSING_KM = (154.0, 158.0)
CUTOFF_WINDOW_KM = {ETA10_CFG: (75.0, 85.0), ETA20_CFG: (85.0, 95.0)}

#: Every combination of the analysis modes; analyze runs each on every log.
ANALYSIS_MODES = [
    (
        f"analysis.delta_provider={d}",
        f"analysis.cross_term={c}",
        f"analysis.remainder_terms={r}",
        f"analysis.m1_model={m}",
    )
    for d in ("observed", "hoeffding")
    for c in ("mixed", "vacuum")
    for r in ("drop", "include")
    for m in ("optical_switch", "fifty_fifty")
]

GAIN_SIGMAS = 5.0


def interpreter_work() -> float:
    """Fixed pure-Python work: float arithmetic and a dict tally."""
    acc = 0.0
    for i in range(1500):
        acc += math.sqrt(i) * 0.5
    tally: dict[str, int] = {}
    for i in range(1000):
        key = f"k{i % 50}"
        tally[key] = tally.get(key, 0) + i
    return acc + len(tally)


_REF_CUM = np.array([0.25, 0.5, 0.75, 1.0])
_REF_P = np.array([0.1, 0.2, 0.3, 0.4])


def array_work() -> int:
    """Fixed numpy work: a cumulative search on a cache-sized array, then
    draws binned and compared as the simulator does, on 2^16 elements."""
    rng = np.random.default_rng(12345)
    x = rng.random(1 << 14)
    hits = int(np.count_nonzero(np.searchsorted(np.cumsum(x), x * 25.0) > 10))
    kinds = np.searchsorted(_REF_CUM, rng.random(1 << 16), side="right").astype(np.uint8)
    clicks = rng.random(1 << 16) < _REF_P[np.minimum(kinds, 3)]
    return hits + int(np.count_nonzero(clicks & (kinds == 1)))


def reference_seconds(work) -> float:
    """Wall time of one pass of a workload's reference work."""
    t0 = perf_counter()
    for fn in work:
        fn()
    return perf_counter() - t0


@dataclass
class Op:
    """One timed command: its kind, wall time, work done and check, and the
    wall time of the workload's reference work run right after it."""

    kind: str
    seconds: float
    units: int
    check: Callable[[], list[str]]
    reference: float


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run ``cowqkd.cli.main`` in-process.

    Returns the exit code, stdout, stderr and seconds taken.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def _exit_errors(what: str, code: int, stderr: str) -> list[str]:
    return [] if code == 0 else [f"{what}: exit {code}: {stderr.strip()}"]


def _grid_size(start: float, stop: float, step: float) -> int:
    return int(round((stop - start) / step)) + 1


def _scan_errors(what: str, code: int, stderr: str, path: Path, expected_rows: int) -> list[str]:
    errors = _exit_errors(what, code, stderr)
    if errors:
        return errors
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != expected_rows:
        errors.append(f"{what}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        if row["reason"].startswith("error:"):
            errors.append(f"{what}: row {row['variable']}: {row['reason']}")
        elif row["aborted"] == "false" and not float(row["key_bits"]) > 0:
            errors.append(f"{what}: row {row['variable']} kept a key of {row['key_bits']} bits")
    return errors


def round_trip_errors(record, path: Path) -> list[str]:
    """The log at path must replay to the record's eight wire fields."""
    wire = {field for _, field in simulator.WIRE_KEYS}
    optional = {f.name: None for f in dataclasses.fields(record) if f.name not in wire}
    replayed = _replay_counts(path)
    if replayed != dataclasses.replace(record, **optional):
        return [f"{path.name}: replayed {replayed} differs from the simulated record"]
    return []


def gain_errors(record, params) -> list[str]:
    """Per-pair empirical gains within GAIN_SIGMAS binomial sigmas of the closed form."""
    sent = {
        "0z": record.n_sent_0z,
        "1z": record.n_sent_1z,
        "alpha_alpha": record.n_sent_alpha_alpha,
        "vac": record.n_sent_vac,
    }
    expected = dataclasses.asdict(analytic_gains(params))
    errors = []
    for field, observed in empirical_gains(record).as_dict().items():
        n = next(v for k, v in sent.items() if f"_{k}_" in field)
        g = expected[field]
        sigma = math.sqrt(g * (1.0 - g) / n)
        if abs(observed - g) > GAIN_SIGMAS * sigma:
            errors.append(f"gain {field}: {observed:.6g} vs closed form {g:.6g} (sigma {sigma:.3g})")
    return errors


def _analyze_errors(what: str, code: int, stdout: str, stderr: str) -> list[str]:
    errors = _exit_errors(what, code, stderr)
    if errors:
        return errors
    result = json.loads(stdout)
    qber, key = result["qber"], result["key_length_bits"]
    if not (qber is not None and 0.0 <= qber <= 0.5):
        errors.append(f"{what}: qber {qber} outside [0, 0.5]")
    if not (key is not None and key >= 0.0):
        errors.append(f"{what}: key length {key}")
    elif result["aborted"] != (key == 0.0):
        errors.append(f"{what}: aborted={result['aborted']} with a key of {key} bits")
    return errors


def _crossing_errors(what: str, code: int, stdout: str, stderr: str, lo: float, hi: float) -> list[str]:
    errors = _exit_errors(what, code, stderr)
    if not errors and not lo <= float(stdout) <= hi:
        errors.append(f"{what}: crossing {stdout.strip()} km outside [{lo}, {hi}]")
    return errors


class AnalysisSweep:
    """Closed-form scans, threshold searches and replay scans; no rounds drawn."""

    name = "analysis_sweep"
    query = "threshold"
    #: Reference work of the same kind as this workload's: the analysis path
    #: is pure Python, and array work tracked its speed worse.
    reference = (interpreter_work,)
    #: Layers that must record calls in a traced run of this workload.
    layers = (
        "cli.main", "cli.build_params", "params.validate", "gains.analytic_gains",
        "concentration.bound_expected_count", "concentration.validate_record",
        "finite_key.evaluate_analytic_point", "finite_key.evaluate_record",
        "scan.run_scan", "scan.emit", "scan.find_threshold", "simulator.replay_counts",
    )

    SCAN_STEP_KM = 0.1
    REPLAY_STEP_KM = 0.5
    REPLAY_LENGTHS_KM = (40.0, 60.0, 80.0, 100.0)
    REPLAY_ROUNDS = 1 << 21
    SEARCHES_PER_METRIC = 8

    def __init__(self, configs: Path, work: Path, seed: int):
        rng = random.Random(seed)
        #: Errors of each set-up operation, one list per operation.
        self.setup_checks: list[list[str]] = []
        self.probe_args = [str(configs / QBER_CFG)]
        self.scans = []
        for cfg in (QBER_CFG, ETA10_CFG, ETA20_CFG):
            grid = _load_config(configs / cfg)
            offset = rng.uniform(0.0, self.SCAN_STEP_KM)
            start, stop = grid["scan.start"] + offset, grid["scan.stop"] + offset
            self.scans.append((
                f"scan {cfg}",
                ["scan", "--config", str(configs / cfg), "--start", repr(start),
                 "--stop", repr(stop), "--step", repr(self.SCAN_STEP_KM),
                 "--output", str(work / f"scan-{cfg}.csv")],
                work / f"scan-{cfg}.csv",
                _grid_size(start, stop, self.SCAN_STEP_KM),
            ))

        # Brackets of a fixed width at a seeded position, so that every search
        # of one metric bisects the same number of times.
        self.searches = []
        for _ in range(self.SEARCHES_PER_METRIC):
            for cfg, metric, target, lo, width, window in (
                (QBER_CFG, "qber", 0.05, (100, 140), 70, QBER_CROSSING_KM),
                (ETA10_CFG, "key_length", 0, (40, 60), 55, CUTOFF_WINDOW_KM[ETA10_CFG]),
                (ETA20_CFG, "key_length", 0, (50, 70), 50, CUTOFF_WINDOW_KM[ETA20_CFG]),
            ):
                start = rng.uniform(*lo)
                bracket = (start, start + width)
                self.searches.append((
                    f"threshold {metric} {cfg}",
                    ["threshold", "--config", str(configs / cfg), "--metric", metric,
                     "--target", repr(target), "--bracket", *map(repr, bracket)],
                    window,
                ))

        # Count logs for the replay scans, written before timing starts by a
        # child process, so that simulating them does not set this process's
        # peak memory.
        logs = [work / f"replay-{length:g}km.txt" for length in self.REPLAY_LENGTHS_KM]
        jobs = [f"{log}:{length!r}:{rng.randrange(2**32)}" for log, length in zip(logs, self.REPLAY_LENGTHS_KM)]
        self.setup_checks += make_logs(configs / ETA20_CFG, self.REPLAY_ROUNDS, jobs)
        self.replays = []
        for log in logs:
            offset = rng.uniform(0.0, self.REPLAY_STEP_KM)
            start, stop = 20.0 + offset, 120.0 + offset
            out = log.with_suffix(".csv")
            self.replays.append((
                f"replay scan of {log.name}",
                ["scan", "--config", str(configs / ETA20_CFG),
                 "--set", f"rounds={self.REPLAY_ROUNDS}", "--mode", "replay",
                 "--replay-path", str(log), "--variable", "length_km", "--start", repr(start),
                 "--stop", repr(stop), "--step", repr(self.REPLAY_STEP_KM), "--output", str(out)],
                out,
                _grid_size(start, stop, self.REPLAY_STEP_KM),
            ))

    def cycle(self) -> list[Op]:
        ops = []
        for kind, jobs in (("scan", self.scans), ("replay", self.replays)):
            for what, argv, out, rows in jobs:
                code, _, err, s = run_cli(argv)
                check = functools.partial(_scan_errors, what, code, err, out, rows)
                ops.append(Op(kind, s, rows, check, reference_seconds(self.reference)))
        for what, argv, (lo, hi) in self.searches:
            code, out, err, s = run_cli(argv)
            check = functools.partial(_crossing_errors, what, code, out, err, lo, hi)
            ops.append(Op("threshold", s, 1, check, reference_seconds(self.reference)))
        return ops


class Simulation:
    """Simulate one block to a written count log, then analyze it in every mode."""

    query = "analyze"
    #: Reference work of the same kinds as this workload's: numpy arrays in
    #: the simulator, Python in the dead-time filter and in analyze.
    reference = (interpreter_work, array_work)
    layers = (
        "cli.main", "cli.build_params", "params.validate", "gains.analytic_gains",
        "concentration.bound_expected_count", "concentration.validate_record",
        "finite_key.evaluate_record", "simulator.simulate_session", "simulator.replay_counts",
    )

    ROUNDS = 1 << 24

    def __init__(
        self, name: str, length_km: float, mode: str,
        configs: Path, work: Path, seed: int,
    ):
        self.name = name
        self.length_km = length_km
        self.mode = mode
        self.config = configs / ETA20_CFG
        self.cfg = {**_load_config(self.config), "channel.length_km": length_km}
        self.sim = SimConfig(seed=random.Random(seed).randrange(2**32), rounds=self.ROUNDS, mode=mode)
        self.log = work / f"{name}.txt"
        #: Errors of each set-up operation, one list per operation.
        self.setup_checks: list[list[str]] = []
        self.probe_args = [str(self.config), f"channel.length_km={length_km!r}"]

    def simulate(self, sim: SimConfig):
        """Params to written count log, through the module attributes tracing patches."""
        params = cli.build_params(dict(self.cfg))
        record = simulator.simulate_session(params, sim)
        simulator.write_counts(record, self.log)
        return params, record

    def check_record(self, params, record) -> list[str]:
        errors = round_trip_errors(record, self.log)
        if self.mode == "per_pair":
            errors += gain_errors(record, params)
        else:
            src, det = params.source, params.detectors
            cap = record.rounds / src.pulse_pair_rate / det.dead_time_s + 1
            if record.n_z > cap:
                errors.append(f"streaming n_z = {record.n_z} above the dead-time cap {cap:.1f}")
        return errors

    def cycle(self) -> list[Op]:
        t0 = perf_counter()
        params, record = self.simulate(self.sim)
        s = perf_counter() - t0
        check = functools.partial(self.check_record, params, record)
        ops = [Op("simulate", s, record.rounds, check, reference_seconds(self.reference))]
        for modes in ANALYSIS_MODES:
            argv = ["analyze", "--config", str(self.config),
                    "--set", f"channel.length_km={self.length_km!r}", "--set", f"rounds={record.rounds}"]
            for m in modes:
                argv += ["--set", m]
            argv += ["--counts", str(self.log)]
            code, out, err, s = run_cli(argv)
            what = "analyze " + " ".join(modes)
            check = functools.partial(_analyze_errors, what, code, out, err)
            ops.append(Op("analyze", s, 1, check, reference_seconds(self.reference)))
        return ops

    def dead_time_comparison(self, pairs: int) -> dict[str, float]:
        """Per-pair against streaming on this workload's seed, untraced.

        Clicks removed are the tallied clicks the streaming record lacks, per
        detector; the overhead is the median difference in wall time.  The
        useful fraction is the per-pair record's tallied clicks over rounds:
        the clicks a sampler has to produce before the filter drops any.
        """
        per_pair = dataclasses.replace(self.sim, mode="per_pair")
        streaming = dataclasses.replace(self.sim, mode="streaming")
        params = _build_params(dict(self.cfg))
        diffs = []
        for i in range(pairs):
            timed = {}
            for sim in (per_pair, streaming) if i % 2 == 0 else (streaming, per_pair):
                t0 = perf_counter()
                record = _simulate_session(params, sim)
                timed[sim.mode] = (record, perf_counter() - t0)
            diffs.append(timed["streaming"][1] - timed["per_pair"][1])
        a, b = timed["per_pair"][0], timed["streaming"][0]
        port = lambda r, m: sum(getattr(r, f"n_{c}_{m}") for c in ("aa", "vac", "0z", "1z"))
        return {
            "simulator.dead_time_removed.data": a.n_z - b.n_z,
            "simulator.dead_time_removed.m0": port(a, "m0") - port(b, "m0"),
            "simulator.dead_time_removed.m1": port(a, "m1") - port(b, "m1"),
            "simulator.dead_time_overhead_s": statistics.median(diffs),
            "simulator.useful_fraction": tallied_clicks(a) / a.rounds,
        }


def make_logs(config: Path, rounds: int, jobs: list[str]) -> list[list[str]]:
    """Run bench/make_logs.py on jobs "PATH:LENGTH_KM:SEED"; errors per log."""
    env = dict(os.environ, PYTHONPATH=str(config.parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("make_logs.py")), str(config), str(rounds), *jobs],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return [[f"make_logs.py: exit {proc.returncode}: {proc.stderr.strip()}"]]
    return json.loads(proc.stdout)


def make(name: str, configs: Path, work: Path, seed: int):
    if name == "analysis_sweep":
        return AnalysisSweep(configs, work, seed)
    if name == "sim_long_haul":
        return Simulation(name, 100.0, "per_pair", configs, work, seed)
    if name == "sim_dead_time":
        return Simulation(name, 20.0, "streaming", configs, work, seed)
    raise ValueError(f"unknown workload {name!r}")
