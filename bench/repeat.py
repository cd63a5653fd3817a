"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository:

    python3 bench/repeat.py [--workload NAME ...] [--seeds 1-10] [--seconds S]
                            [--json OUT]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json.  Runs are sequential, one benchmark process at a time.
--json writes the same figures, every run's value, and the machine details.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    """Core count, CPU model, and Python and numpy versions of this host."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args()

    declared = spec["end_to_end"]
    summary = {}
    record = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds, "workloads": summary}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        print(f"{workload} ({len(args.seeds)} seeds)")
        for m in declared:
            v = values[m["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][m["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"], "values": v,
            }
            print(f"  {m['name']:44s} {median:12.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g}"
                  f" spread {spread:.4f} bound {m['bound']:.3g}")
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
