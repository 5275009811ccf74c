"""The repo benchmark: four workloads, end-to-end metrics, per-layer budget.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out SPANS.jsonl]
                                  [--record RUNS.jsonl]

Without ``--workload`` every workload runs in its own subprocess (clean
peak RSS, no warmed state leaking between workloads, the socket server
thread torn down with its process), untraced, and with ``--trace`` once
more traced.  With ``--workload`` the one workload runs in this process:
untraced it prints every end-to-end metric, with ``--trace 1`` every
per-layer metric.  Each metric is printed as ``name value unit``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when a correctness
check fails.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if __name__ == "__main__":
    # Run as the benchmark, leave no bytecode behind in the measured checkout.
    sys.dont_write_bytecode = True
if str(SRC) not in sys.path:
    # The checkout's own sources, ahead of any installed copy of the package.
    sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("drain_p50_ms", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("speedup_vs_exact", "ratio"),
    ("rel_err_p50", "fraction"),
    ("epsilon_per_query", "epsilon"),
    ("wire_bytes_per_query", "bytes"),
    ("peak_rss_mb", "MB"),
)

TRACE_DIVISOR = 4
"""A traced run does a quarter of the untraced op count."""

REL_ERR_TOLERANCE = 2.0
"""``rel_err_p50`` must stay within this factor of the recorded seed-0 value."""


def _baseline() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _stamp() -> dict:
    """Where and on what a recorded run was made."""

    def git(*arguments: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *arguments], cwd=HERE, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _print_metric(name: str, value: float, unit: str, samples: int | None = None) -> None:
    suffix = f" n={samples}" if samples is not None else ""
    print(f"{name} {value!r} {unit}{suffix}")


def run_one(args) -> int:
    """Run one workload in this process and print its result."""
    spec = workloads.WORKLOADS[args.workload]
    ops = workloads.ops_for(spec, args.seconds)
    if args.trace:
        ops = max(workloads.MIN_OPS // TRACE_DIVISOR, ops // TRACE_DIVISOR)
    inputs = workloads.make_inputs(spec, args.seed, ops)
    print(f"# workload {spec.name} seed {args.seed} ops {ops} trace {args.trace}")
    record = {
        "workload": spec.name, "rows": spec.rows, "seed": args.seed, "ops": ops,
        "trace": args.trace,
    }
    if not args.trace:
        result = workloads.run_workload(spec, inputs)
        recorded = _baseline().get("workloads", {}).get(spec.name, {})
        # The recorded accuracy belongs to the recorded table size.
        if recorded.get("rows") == spec.rows:
            result.checks["rel_err_near_recorded"] = (
                recorded["rel_err_p50"] / REL_ERR_TOLERANCE
                <= result.metrics["rel_err_p50"]
                <= recorded["rel_err_p50"] * REL_ERR_TOLERANCE
            )
        metrics = {name: (result.metrics[name], unit) for name, unit in END_TO_END}
        for name, (value, unit) in metrics.items():
            _print_metric(name, value, unit, result.samples.get(name))
        _print_metric("failed_frac", result.info["failed_frac"], "fraction", result.attempted)
        _print_metric("dataset_gen_s", result.info["dataset_gen_s"], "s")
        record["samples"] = result.samples
    else:
        # Same inputs twice: the untraced pass is the reference the tracing
        # overhead is measured against and the answers must not differ from.
        reference = workloads.run_workload(spec, inputs, setup_reps=1)
        recorder = layers.SpanRecorder()
        result = workloads.run_workload(spec, inputs, setup_reps=1, recorder=recorder)
        spans = recorder.spans()
        layers.attribute(spans)
        metrics, table = layers.layer_metrics(spans, result, reference.metrics["qps"])
        result.checks["digest_traced_equals_untraced"] = (
            result.answers_digest == reference.answers_digest and reference.correct
        )
        for name, (value, unit) in metrics.items():
            _print_metric(name, value, unit)
        print("# layer self_ms_per_op share_of_traced_wall")
        for layer, row in table.items():
            print(f"# {layer} {row['self_ms_per_op']:.4f} {row['share_of_wall']:.4f}")
        record["layers"] = table
        record["spans"] = len(spans)
        if args.out:
            layers.write_spans(spans, args.out)
    for error in result.errors[:10]:
        print(f"# error {error}")
    print(f"answers_digest {result.answers_digest}")
    for name, passed in result.checks.items():
        print(f"check {name} {'ok' if passed else 'FAILED'}")
    correct = result.correct and all(
        math.isfinite(value) for value, _ in metrics.values()
    )
    summary = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    if args.record:
        record.update(
            summary,
            answers_digest=result.answers_digest,
            checks=result.checks,
            **_stamp(),
        )
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own subprocess, one after the other."""
    worst = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.record:
                command += ["--record", args.record]
            if args.out and trace:
                out = Path(args.out)
                command += ["--out", str(out.with_name(f"{out.stem}.{name}{out.suffix}"))]
            sys.stdout.flush()
            worst = max(worst, subprocess.run(command).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run this workload in-process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the workload generators only")
    parser.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS,
                        help="run-length budget; maps to a fixed op count "
                             "(ops = max(200, base_ops * seconds / 20))")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="traced run at a quarter of the ops: per-layer metrics")
    parser.add_argument("--out", help="write the traced run's spans here as JSON lines")
    parser.add_argument("--record", help="append this run's result here as one JSON line")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
