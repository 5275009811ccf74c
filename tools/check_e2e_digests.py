#!/usr/bin/env python3
"""Fail when an end-to-end workload no longer answers bit for bit as recorded.

Runs ``benchmarks/e2e/run.py --workload NAME --record FILE`` once per
workload (seed 0, the benchmark's own run length, one subprocess each, the
record in a temporary directory) and compares the run's ``answers_digest`` —
a sha256 over every released ``(value, epsilon charged)`` — with the digests
``benchmarks/e2e/baseline.json`` holds for that workload.  Timings are not
looked at: this is the bit-identity check the benchmark's users otherwise
only get by running a whole comparison.  Nothing under ``benchmarks/e2e``
is written.

A digest is a function of the NumPy version as well as of the code (random
streams and float kernels); the baseline names the version it was recorded
with, and a mismatch under another version is reported with both.

    python tools/check_e2e_digests.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

REPO = Path(__file__).resolve().parents[1]
E2E = REPO / "benchmarks" / "e2e"


def recorded_digests() -> tuple[dict[str, list[str]], str]:
    """``({workload: accepted digests}, numpy version)`` of the baseline."""
    baseline = json.loads((E2E / "baseline.json").read_text())
    digests = {
        name: list(entry["answers_digest"])
        for name, entry in baseline["workloads"].items()
    }
    return digests, str(baseline.get("numpy", "unknown"))


def run_digest(workload: str, record: Path) -> tuple[str | None, int]:
    """Run one workload; its ``(answers_digest, exit code)``."""
    completed = subprocess.run(
        [
            sys.executable, str(E2E / "run.py"),
            "--workload", workload, "--seed", "0", "--record", str(record),
        ],
        stdout=subprocess.DEVNULL,
    )
    if not record.exists():
        return None, completed.returncode
    last = json.loads(record.read_text().splitlines()[-1])
    return last.get("answers_digest"), completed.returncode


def main(argv=None) -> int:
    expected, recorded_numpy = recorded_digests()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(expected),
        help="check only this workload (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="e2e-digests-") as scratch:
        for name in args.workload or list(expected):
            digest, code = run_digest(name, Path(scratch) / f"{name}.jsonl")
            if code == 0 and digest in expected[name]:
                print(f"ok       {name} {digest}")
                continue
            failures += 1
            if code != 0 or digest is None:
                print(f"FAILED   {name}: run.py exited with {code}")
            else:
                print(
                    f"MISMATCH {name}: answered {digest}, recorded "
                    f"{' / '.join(expected[name])} (numpy {numpy.__version__} "
                    f"here, {recorded_numpy} recorded)"
                )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
