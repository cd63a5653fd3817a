"""cowqkd benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed with their reasons in BENCHMARK.json, which also
names every metric and its unit.  One process with one thread drives the
public API and ``cowqkd.cli.main`` in-process as a closed loop with one
client: each command starts when the previous one has returned.  All inputs
come from --seed and are made before timing starts.  Commands run in cycles,
one pass of the workload's command sequence with the same inputs each time,
until --seconds have passed.  Times are wall times from time.perf_counter.

End-to-end metrics (--trace 0).  Right after each command the benchmark
times the workload's reference work (see workloads.py), and the times below
are in multiples of it (unit "ref").  On a shared host the process's speed
drops by up to half for a while, by more than the bounds over a whole run;
the reference slows with the command before it, so the ratio stays put
while a faster or slower program still moves it.
  setup_s        median time of a fresh interpreter that imports cowqkd.cli
                 and validates the workload's config, over 7 runs, in seconds
  cycle_ref      median over cycles of the cycle's command time over the
                 time of the reference runs in it
  query_ref_p50  median and 90th percentile, over the distinct queries of a
  query_ref_p90  cycle, of each query's median over cycles of its latency
                 over the time of the reference run after it: the
                 ``threshold`` searches on analysis_sweep, ``analyze`` in
                 each analysis mode on the simulation workloads
  peak_rss_mb    peak resident memory of the benchmark process.  Set-up
                 probes and analysis_sweep's replay logs are made in child
                 processes, which do not count.  The peak is set by the
                 simulator's per-chunk arrays on the simulation workloads, and
                 by the imported modules and the scans on analysis_sweep.

The lines before the last also give the times in seconds (cycle_s is the
sum over the cycle's commands of each one's median time), the reference's
median time, the rate of each kind of command (analytic and replay scan
points, and simulated rounds per second, from parameters to a written count
log), the query sample count, and failed_fraction.  A command fails when it
exits non-zero, writes a scan row with an ``error:`` reason, or fails an
output check; the last line reports failed commands in ``failed``.

Per-layer metrics (--trace 1) alternate untraced and traced cycles; traced
cycles wrap the public functions of each module (see tracing.py) and each
metric is the median over traced cycles of its value per cycle.  The spans
and metrics are written to bench/traces/WORKLOAD-seedN.json.gz, and
``python3 bench/diff.py OLD NEW`` compares two such files.
simulator.useful_fraction is tallied clicks over rounds drawn in per-pair
mode: on sim_dead_time it comes from a per-pair run on the workload's seed,
because the clicks the dead-time filter drops are still drawn.
trace.overhead_pct is the median, over pairs of an untraced cycle and the
traced cycle after it, of the traced cycle's extra time as a share of the
untraced one, and trace.overhead_q1_pct and trace.overhead_q3_pct are the
quartiles of those shares.  Where the quartiles lie on both sides of zero,
the overhead is not resolved.
"""

import os

# One thread: numpy's BLAS would otherwise start a thread pool on import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
DEAD_TIME_PAIRS = 2
#: Printed name of each bulk command's rate.
RATE_NAMES = {"scan": "analytic_points_per_s", "replay": "replay_points_per_s", "simulate": "rounds_per_s"}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def probe_setup(args: list[str]) -> dict:
    """Inner split of one fresh-interpreter set-up; the caller times the process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages += errors[: max(0, 10 - len(self.messages))]


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def cycle_time(cycles: list) -> float:
    """Sum over a cycle's commands of each command's median time across cycles."""
    return sum(statistics.median(op.seconds for op in ops) for ops in zip(*cycles))


def layer_metrics(tracer, wl, names: list[str]) -> dict[str, float]:
    """Median over traced cycles of each per-cycle layer value."""
    per_cycle = []
    for k in range(len(tracer.cycles)):
        c = tracer.cycle_layers(k)
        searches = c["scan.find_threshold.calls"]
        c["scan.threshold_evals_per_search"] = c["scan.threshold_evals"] / searches if searches else 0.0
        c["simulator.simulate_session.rounds"] = c["simulator.rounds"]
        rounds = c["simulator.rounds"]
        c["simulator.useful_fraction"] = c["simulator.tallied_clicks"] / rounds if rounds else 0.0
        per_cycle.append(c)
        missing = [n for n in wl.layers if not c[n + ".calls"]]
        if missing:
            print(f"error: traced cycle {k} recorded no calls to {', '.join(missing)}", file=sys.stderr)
            sys.exit(1)
    return {n: statistics.median(c[n] for c in per_cycle) for n in names}


def measure(args, spec: dict, work: Path) -> dict:
    import tracing
    import workloads

    wl = workloads.make(args.workload, ROOT / "configs", work, args.seed)
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        split = probe_setup(wl.probe_args)
        probes.append((split, perf_counter() - t0))
    tally = Tally()
    for errors in wl.setup_checks:
        tally.add(errors)
    for op in wl.cycle():  # warm-up, checked but not timed
        tally.add(op.check())

    tracer = tracing.Tracer() if args.trace else None
    cycles = {False: [], True: []}
    start = perf_counter()
    while perf_counter() - start < args.seconds or (args.trace and not cycles[True]):
        traced = bool(args.trace) and len(cycles[False]) > len(cycles[True])
        with tracer.cycle() if traced else contextlib.nullcontext():
            ops = wl.cycle()
        for op in ops:
            tally.add(op.check())
        cycles[traced].append(ops)

    timed = cycles[False]
    # Each distinct query's latency is its median over cycles; the
    # percentiles are taken over the distinct queries.
    query_ops = [ops for ops in zip(*timed) if ops[0].kind == wl.query]
    queries = [statistics.median(op.seconds for op in ops) for ops in query_ops]
    lines = [f"workload {args.workload} seed {args.seed}: {len(timed)} timed cycles"]
    per_kind = defaultdict(lambda: [0.0, 0])
    for op in (op for ops in timed for op in ops):
        per_kind[op.kind][0] += op.seconds
        per_kind[op.kind][1] += op.units
    for kind, (seconds, units) in per_kind.items():
        if kind in RATE_NAMES:
            lines.append(f"{RATE_NAMES[kind]} {units / seconds:.6g} 1/s ({units} in {seconds:.4g} s)")
    lines.append(
        f"{wl.query} latency over {len(queries)} distinct queries, each the median of {len(timed)} cycles:"
        f" p50 {statistics.median(queries) * 1e3:.4g} ms, p90 {p90(queries) * 1e3:.4g} ms"
    )
    lines.append(f"failed_fraction {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(tracer, wl, names)
        values["cli.import_s"] = statistics.median(p["import_s"] for p, _ in probes)
        values["cli.build_params.s"] = statistics.median(p["build_params_s"] for p, _ in probes)
        for name in names:
            if name.startswith("simulator.dead_time_"):
                values[name] = 0
        if args.workload == "sim_dead_time":
            values.update(wl.dead_time_comparison(DEAD_TIME_PAIRS))
        # Cycles alternate untraced, traced: pair each traced cycle with the
        # untraced one before it.
        shares = [
            sum(op.seconds for op in traced) / sum(op.seconds for op in untraced) - 1.0
            for untraced, traced in zip(cycles[False], cycles[True])
        ]
        q1, median, q3 = statistics.quantiles(shares, n=4) if len(shares) > 1 else shares * 3
        values["trace.overhead_pct"] = median * 100.0
        values["trace.overhead_q1_pct"] = q1 * 100.0
        values["trace.overhead_q3_pct"] = q3 * 100.0
        lines.append(
            f"tracing overhead {median:.2%} (quartiles {q1:.2%} to {q3:.2%})"
            f" over {len(shares)} pairs of untraced and traced cycles"
        )
        declared = spec["per_layer"]
    else:
        references = [op.reference for ops in timed for op in ops]
        lines.append(
            f"cycle_s {cycle_time(timed):.4g} s; reference {statistics.median(references) * 1e3:.4g} ms"
            f" (median of {len(references)})"
        )
        query_refs = [statistics.median(op.seconds / op.reference for op in ops) for ops in query_ops]
        values = {
            "setup_s": statistics.median(s for _, s in probes),
            "cycle_ref": statistics.median(
                sum(op.seconds for op in ops) / sum(op.reference for op in ops) for ops in timed
            ),
            "query_ref_p50": statistics.median(query_refs),
            "query_ref_p90": p90(query_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    if args.trace:
        out = BENCH / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
        tracer.write(out, metrics)
        lines.append(f"spans written to {out.relative_to(ROOT)}")
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print("\n".join(lines))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main() -> None:
    for needed in ("BENCHMARK.json", "src/cowqkd/__init__.py", "configs/keyrate_eta20_dt30.cfg"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
