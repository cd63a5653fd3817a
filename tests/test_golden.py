"""Every number the command line prints, pinned in tests/golden/.

Each case runs cowqkd.cli.main in-process from the repository root and
compares what it prints (stdout, or stderr for a bad input) with its golden
file byte for byte.  Rewrite the files after a deliberate change with

    PYTHONPATH=src python tests/test_golden.py

and record each rewritten file and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import math
import os
import re
from pathlib import Path

import numpy as np

from cowqkd.cli import main
from helpers import EVERY_ANALYSIS, analysis_id

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path("tests/golden")
ETA20 = ["--config", "configs/keyrate_eta20_dt30.cfg", "--set", "channel.length_km=20"]


def _analysis_flags(analysis) -> list[str]:
    return [flag for key, value in vars(analysis).items() for flag in ("--set", f"analysis.{key}={value}")]


#: Each case's golden file, the command that prints it, and the exit code it
#: expects: 0 pins stdout, anything else pins stderr.  Cases run in order, so
#: the analyze cases read the per_pair log that this list writes first.
CASES = [
    *((f"scan-{cfg}.{fmt}", ["scan", "--config", f"configs/{cfg}.cfg", "--format", fmt], 0)
      for cfg in ("keyrate_eta10_dt50", "keyrate_eta20_dt30", "qber_scan") for fmt in ("csv", "json")),
    # The acceptance brackets.
    ("threshold-qber.txt", ["threshold", "--config", "configs/qber_scan.cfg", "--metric", "qber",
                            "--target", "0.05", "--bracket", "100", "200"], 0),
    ("threshold-key-eta10.txt", ["threshold", "--config", "configs/keyrate_eta10_dt50.cfg",
                                 "--metric", "key_length", "--target", "0", "--bracket", "40", "110"], 0),
    ("threshold-key-eta20.txt", ["threshold", "--config", "configs/keyrate_eta20_dt30.cfg",
                                 "--metric", "key_length", "--target", "0", "--bracket", "50", "120"], 0),
    # A full 5e8-round block in each mode.
    *((f"simulate-{mode}.txt", ["simulate", *ETA20, "--mode", mode, "--seed", "1"], 0)
      for mode in ("per_pair", "streaming")),
    *((f"analyze-{analysis_id(a)}.json",
       ["analyze", *ETA20, "--counts", str(GOLDEN / "simulate-per_pair.txt"), *_analysis_flags(a)], 0)
      for a in EVERY_ANALYSIS),
    ("bad-config.err", ["validate", "--config", str(GOLDEN / "input" / "bad.cfg")], 1),
    ("bad-set.err", ["validate", "--set", "source.mu=abc", "--set", "detectors.bogus=1"], 1),
    ("bad-count-log.err", ["analyze", "--counts", str(GOLDEN / "input" / "bad-count-log.txt")], 2),
    # Inputs that cannot be read and outputs that cannot be written.
    ("missing-config.err", ["validate", "--config", str(GOLDEN / "input" / "missing.cfg")], 1),
    ("directory-config.err", ["validate", "--config", str(GOLDEN / "input")], 1),
    ("latin-1-config.err", ["validate", "--config", str(GOLDEN / "input" / "latin-1.cfg")], 1),
    ("missing-count-log.err", ["analyze", "--counts", str(GOLDEN / "input" / "missing-count-log.txt")], 2),
    ("latin-1-count-log.err", ["analyze", "--counts", str(GOLDEN / "input" / "latin-1-count-log.txt")], 2),
    ("scan-output-missing-dir.err", ["scan", "--config", "configs/keyrate_eta10_dt50.cfg",
                                     "--output", str(GOLDEN / "missing" / "scan.csv")], 2),
    ("simulate-output-missing-dir.err", ["simulate", "--rounds", "1000",
                                         "--output", str(GOLDEN / "missing" / "counts.txt")], 2),
]


def run(argv: list[str], code: int) -> str:
    """What main prints for argv, run from the repository root; it must exit with code."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = main(argv)
    finally:
        os.chdir(cwd)
    printed, silent = (out, err) if code == 0 else (err, out)
    assert (got, silent.getvalue()) == (code, ""), (argv, got, err.getvalue())
    return printed.getvalue()


#: A float token in printed text.
_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _same_text(golden: str, text: str) -> bool:
    """Byte for byte; numpy 1 may print a float token that differs within 1e-12 relative."""
    if golden == text or np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        return golden == text
    if _FLOAT.split(golden) != _FLOAT.split(text):
        return False
    pairs = zip(_FLOAT.findall(golden), _FLOAT.findall(text))
    return all(a == b or math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0) for a, b in pairs)


def test_printed_output_matches_the_golden_files():
    diffs = []
    for name, argv, code in CASES:
        path = ROOT / GOLDEN / name
        golden = path.read_bytes().decode("utf-8") if path.exists() else ""
        text = run(argv, code)
        if not _same_text(golden, text):
            diffs.extend(difflib.unified_diff(golden.splitlines(keepends=True), text.splitlines(keepends=True),
                                              f"{GOLDEN / name} (golden)", f"cowqkd {' '.join(argv)}"))
    assert not diffs, "printed output moved; the diff, golden first:\n" + "".join(diffs)


def rewrite() -> None:
    """Write every golden file from what the command line prints now."""
    for name, argv, code in CASES:
        (ROOT / GOLDEN / name).write_bytes(run(argv, code).encode("utf-8"))
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    rewrite()
