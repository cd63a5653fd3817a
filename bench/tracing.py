"""Spans around calls into cowqkd's public functions, kept in memory.

Each traced function is patched in every cowqkd module that holds a
reference to it, because that is where its callers look it up: scan.py
calls ``evaluate_analytic_point`` through ``cowqkd.scan``'s own globals, and
finite_key.py calls ``analytic_gains`` through ``cowqkd.finite_key``'s.
Patches are in place only inside ``Tracer.cycle()``; the untraced cycles of
the same run, and the output checks, call the original functions.

A span records its name, start, end and the span that was open when it
began (its parent).  A span's self time is its duration minus the time its
children cover; calls are single-threaded and properly nested, so that is
the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

#: Traced public functions as "module.function", modules of package cowqkd.
TRACED = (
    "cli.main",
    "cli.build_params",
    "params.validate",
    "gains.analytic_gains",
    "concentration.bound_expected_count",
    "concentration.validate_record",
    "finite_key.evaluate_analytic_point",
    "finite_key.evaluate_record",
    "scan.run_scan",
    "scan.emit",
    "scan.find_threshold",
    "simulator.simulate_session",
    "simulator.replay_counts",
)

#: Spans under a threshold search that are one evaluation of its metric:
#: "qber" evaluates analytic_gains, "key_length" evaluate_analytic_point.
THRESHOLD_EVALS = ("gains.analytic_gains", "finite_key.evaluate_analytic_point")

# Record fields that hold a tallied click; the per-bin tau fields only split
# n_z, so they are left out to count each click once.
_CLICK_FIELDS = (
    "n_z", "n_aa_m0", "n_aa_m1", "n_vac_m0", "n_vac_m1",
    "n_0z_m0", "n_0z_m1", "n_1z_m0", "n_1z_m1",
)


def tallied_clicks(record) -> int:
    return sum(getattr(record, f) or 0 for f in _CLICK_FIELDS)


def _count_emit(counts: dict, text: str) -> None:
    counts["scan.emit.bytes"] += len(text.encode("utf-8"))


def _count_scan(counts: dict, rows) -> None:
    counts["scan.error_rows"] += sum(1 for r in rows if (r.reason or "").startswith("error:"))


def _count_simulate(counts: dict, record) -> None:
    counts["simulator.rounds"] += record.rounds
    counts["simulator.tallied_clicks"] += tallied_clicks(record)


#: Counts taken from a traced function's return value.
_RESULT_COUNTERS: dict[str, Callable[[dict, object], None]] = {
    "scan.emit": _count_emit,
    "scan.run_scan": _count_scan,
    "simulator.simulate_session": _count_simulate,
}


class Tracer:
    """Records spans for the calls made inside ``cycle()`` blocks."""

    def __init__(self) -> None:
        self.names = list(TRACED)
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._counts: dict[str, int] = defaultdict(int)
        #: One (first span, end span, counts) triple per traced cycle.
        self.cycles: list[tuple[int, int, dict[str, int]]] = []
        self._patches = list(self._find_call_sites())

    def _find_call_sites(self) -> Iterator[tuple[object, str, Callable]]:
        modules = [m for n, m in sys.modules.items() if n == "cowqkd" or n.startswith("cowqkd.")]
        for name_id, name in enumerate(TRACED):
            module, attr = name.split(".")
            original = getattr(sys.modules["cowqkd." + module], attr)
            wrapper = self._wrap(name_id, original, _RESULT_COUNTERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        yield mod, key, wrapper

    def _wrap(self, name_id: int, fn: Callable, count: Callable | None) -> Callable:
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count is not None:
                count(self._counts, result)
            return result

        return traced

    @contextmanager
    def cycle(self) -> Iterator[None]:
        """Patch every call site, run the block, then restore the originals."""
        originals = [(mod, key, getattr(mod, key)) for mod, key, _ in self._patches]
        first = len(self._start)
        self._counts = defaultdict(int)
        for mod, key, wrapper in self._patches:
            setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for mod, key, original in originals:
                setattr(mod, key, original)
            self.cycles.append((first, len(self._start), dict(self._counts)))

    def cycle_layers(self, index: int) -> dict[str, float]:
        """Per-layer calls, total and self seconds, and counts of one cycle."""
        first, end, counts = self.cycles[index]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        child_s = defaultdict(float)
        for i in range(first, end):
            if parents[i] >= first:
                child_s[parents[i]] += ends[i] - starts[i]
        out: dict[str, float] = defaultdict(float)
        out.update(counts)
        find_threshold = self.names.index("scan.find_threshold")
        evals = {self.names.index(n) for n in THRESHOLD_EVALS}
        for i in range(first, end):
            name = self.names[names[i]]
            duration = ends[i] - starts[i]
            out[name + ".calls"] += 1
            out[name + ".s"] += duration
            out[name + ".self_s"] += duration - child_s[i]
            p = parents[i]
            if names[i] in evals and p >= first and names[p] == find_threshold:
                out["scan.threshold_evals"] += 1
        return out

    def write(self, path: Path, metrics: dict) -> None:
        """Write the metrics and every span, times in microseconds from the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self._start[0] if len(self._start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write('{"metrics": ' + json.dumps(metrics) + ', "names": ' + json.dumps(self.names))
            f.write(', "span_fields": ["name", "parent", "start_us", "end_us"], "spans": [')
            rows = zip(self._name, self._parent, self._start, self._end)
            f.write(",".join(
                f"[{n},{p},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f}]" for n, p, s, e in rows
            ))
            f.write("]}\n")
