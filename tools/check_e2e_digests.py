#!/usr/bin/env python3
"""Fail when an end-to-end workload no longer answers bit for bit as recorded,
or when the socket workload puts more bytes on the wire than it may.

Runs ``benchmarks/e2e/run.py --workload NAME --record FILE`` once per
workload (seed 0, the benchmark's own run length, one subprocess each, the
record in a temporary directory) and compares the run's ``answers_digest`` —
a sha256 over every released ``(value, epsilon charged)`` — with the digests
``benchmarks/e2e/baseline.json`` holds for that workload.  Timings are not
looked at: this is the bit-identity check the benchmark's users otherwise
only get by running a whole comparison.  Nothing under ``benchmarks/e2e``
is written.

The ``wire_socket`` record also carries ``wire_bytes_per_query``, the real
framed bytes per answered query.  It is a deterministic count, not a
timing, so it is held to :data:`WIRE_SOCKET_MAX_BYTES_PER_QUERY`: a change
that puts anything more on the wire — a diagnostic riding a reply, a
column the codec stopped compacting — fails here even when every answer
is still bit-identical.  Lower the ceiling when a change lowers the count.

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

WIRE_SOCKET_MAX_BYTES_PER_QUERY = 807.0
"""Ceiling on ``wire_socket``'s ``wire_bytes_per_query`` at seed 0: the
806.6 B/query the wire carries with released messages only, in column
blocks that send constant columns once and floats as packed doubles."""


def recorded_digests() -> tuple[dict[str, list[str]], str]:
    """``({workload: accepted digests}, numpy version)`` of the baseline."""
    baseline = json.loads((E2E / "baseline.json").read_text())
    digests = {
        name: list(entry["answers_digest"])
        for name, entry in baseline["workloads"].items()
    }
    return digests, str(baseline.get("numpy", "unknown"))


def run_workload(workload: str, record: Path) -> tuple[dict | None, int]:
    """Run one workload; its ``(last record, exit code)``."""
    completed = subprocess.run(
        [
            sys.executable, str(E2E / "run.py"),
            "--workload", workload, "--seed", "0", "--record", str(record),
        ],
        stdout=subprocess.DEVNULL,
    )
    if not record.exists():
        return None, completed.returncode
    return json.loads(record.read_text().splitlines()[-1]), completed.returncode


def wire_bytes(record: dict) -> float | None:
    """``wire_bytes_per_query`` of a record, if it has one."""
    metric = record.get("metrics", {}).get("wire_bytes_per_query")
    return None if metric is None else float(metric["value"])


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
            record, code = run_workload(name, Path(scratch) / f"{name}.jsonl")
            digest = None if record is None else record.get("answers_digest")
            if code != 0 or digest is None:
                failures += 1
                print(f"FAILED   {name}: run.py exited with {code}")
                continue
            if digest not in expected[name]:
                failures += 1
                print(
                    f"MISMATCH {name}: answered {digest}, recorded "
                    f"{' / '.join(expected[name])} (numpy {numpy.__version__} "
                    f"here, {recorded_numpy} recorded)"
                )
                continue
            print(f"ok       {name} {digest}")
            if name != "wire_socket":
                continue
            sent = wire_bytes(record)
            if sent is None or sent > WIRE_SOCKET_MAX_BYTES_PER_QUERY:
                failures += 1
                print(
                    f"OVER     {name}: wire_bytes_per_query {sent}, ceiling "
                    f"{WIRE_SOCKET_MAX_BYTES_PER_QUERY}"
                )
            else:
                print(
                    f"ok       {name} wire_bytes_per_query {sent:.1f} "
                    f"<= {WIRE_SOCKET_MAX_BYTES_PER_QUERY}"
                )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
