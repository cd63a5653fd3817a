"""Set-up cost of one CLI call, run in a fresh interpreter.

Usage: PYTHONPATH=src python3 bench/setup_probe.py CONFIG [KEY=VALUE ...]

Imports cowqkd.cli and validates the config with the overrides, as every
``cowqkd`` command does before its work, and prints the two times as JSON.
The caller times the whole process, interpreter start included.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import cowqkd.cli as cli  # noqa: E402

t1 = perf_counter()
cfg = cli.load_config(sys.argv[1])
cfg.update(cli.parse_assignments(sys.argv[2:]))
t2 = perf_counter()
cli.build_params(cfg)
t3 = perf_counter()
cli.build_analysis(cfg)
print(json.dumps({"import_s": t1 - t0, "build_params_s": t3 - t2}))
