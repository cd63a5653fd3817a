"""Per-layer difference between two traced runs.

Usage: python3 bench/diff.py OLD NEW

OLD and NEW are trace files written by ``bench/run.py --trace 1``
(bench/traces/WORKLOAD-seedN.json.gz), for example one made on the parent
commit and one on a change, with the same workload and seed.  Prints each
per-layer metric of both runs and the change as a share of the old value,
largest change first, so that a saving shows in the layer where it appears.
Metrics equal in both runs are left out.
"""

import argparse
import gzip
import json
from pathlib import Path


def load_metrics(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as f:
        return json.load(f)["metrics"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()

    old, new = load_metrics(args.old), load_metrics(args.new)
    rows = []
    for name in old.keys() | new.keys():
        a = old.get(name, {}).get("value")
        b = new.get(name, {}).get("value")
        unit = (new.get(name) or old[name])["unit"]
        if a is None or b is None:
            rows.append((float("inf"), name, a, b, unit, "only in one run"))
        elif a != b:
            change = (b - a) / abs(a) if a else float("inf") if b else 0.0
            rows.append((abs(change), name, a, b, unit, f"{change:+.1%}"))
    rows.sort(key=lambda r: (-r[0], r[1]))
    print(f"{'metric':44s} {'old':>12s} {'new':>12s} unit   change")
    for _, name, a, b, unit, change in rows:
        fmt = lambda v: "-" if v is None else f"{v:.6g}"
        print(f"{name:44s} {fmt(a):>12s} {fmt(b):>12s} {unit:6s} {change}")


if __name__ == "__main__":
    main()
