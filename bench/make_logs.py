"""Write the count logs of analysis_sweep's replay scans, in a fresh interpreter.

Usage: PYTHONPATH=src python3 bench/make_logs.py CONFIG ROUNDS PATH:LENGTH_KM:SEED ...

For each job it simulates ROUNDS rounds in per-pair mode with CONFIG at
channel.length_km=LENGTH_KM and the given seed, writes the count log to PATH,
and checks that the log replays to the simulated record.  It prints one JSON
list holding each log's errors.  The benchmark runs it as a child process so
that the simulator's arrays do not count toward the benchmark's own peak
memory.
"""

import json
import sys
from pathlib import Path

import cowqkd.cli as cli
import cowqkd.simulator as simulator
from workloads import round_trip_errors

config, rounds, jobs = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
cfg = cli.load_config(config)
errors = []
for job in jobs:
    path, length, seed = job.rsplit(":", 2)
    params = cli.build_params({**cfg, "channel.length_km": float(length)})
    record = simulator.simulate_session(params, simulator.SimConfig(seed=int(seed), rounds=rounds))
    simulator.write_counts(record, path)
    errors.append(round_trip_errors(record, Path(path)))
print(json.dumps(errors))
