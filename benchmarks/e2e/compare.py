"""Compare two sets of benchmark runs, or summarise one.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl   # A is the base (parent)
    python3 benchmarks/e2e/compare.py A.jsonl           # summary (baseline.json, seeds.json)

The inputs are the files ``run.py --record`` appends to, one JSON object
per run.  With two files, every workload x end-to-end metric gets one row:
both medians with their quartiles, the ratio B/A, and a verdict against
the metric's bound in ``BENCHMARK.json``:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the distance
  between A's own quartiles;
* ``unresolved`` — the quartile spread of either side is wider than the
  bound, so the runs cannot tell (unless every run of one side beats every
  run of the other, which decides it);
* ``same`` — otherwise.

The exit code is non-zero when any row is ``worse`` or the answers of the
two sides differ on a shared seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """Run records by workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _values(records: list[dict], metric: str) -> list[float]:
    return [record["metrics"][metric]["value"] for record in records]


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """Classify ``change`` against ``base`` for one metric (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    scale = abs(base_median)
    worse_by = sign * (change_median - base_median) / scale
    spread = max(base_q3 - base_q1, change_q3 - change_q1) / scale
    if spread > bound:
        if max(sign * value for value in change) < min(sign * value for value in base):
            return "better"
        if min(sign * value for value in change) > max(sign * value for value in base):
            return "worse" if worse_by > bound else "unresolved"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > (base_q3 - base_q1) / scale:
        return "better"
    return "same"


def compare(base_path: str, change_path: str) -> int:
    contract = json.loads(BENCHMARK.read_text())
    base_runs, change_runs = load(base_path), load(change_path)
    failures = 0
    print(f"{'workload':12s} {'metric':22s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'B/A':>8s} {'bound':>6s}  verdict")
    for workload in base_runs:
        base = [record for record in base_runs[workload] if not record["trace"]]
        change = [record for record in change_runs.get(workload, []) if not record["trace"]]
        if not base or not change:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a, b = _values(base, name), _values(change, name)
            outcome = verdict(a, b, metric["better"], metric["bound"])
            failures += outcome == "worse"
            (a_q1, a_median, a_q3), (b_q1, b_median, b_q3) = quartiles(a), quartiles(b)
            print(
                f"{workload:12s} {name:22s} "
                f"{a_median:14.6g} [{a_q1:9.6g}, {a_q3:9.6g}] "
                f"{b_median:14.6g} [{b_q1:9.6g}, {b_q3:9.6g}] "
                f"{b_median / a_median:8.4f} {metric['bound']:6.3f}  {outcome}"
            )
        failed = sum(record["failed"] for record in change)
        if failed or not all(record["correct"] for record in change):
            failures += 1
            print(f"{workload:12s} failed ops {failed}, or a correctness check failed: worse")
        digests = {(record["seed"], record["ops"]): record["answers_digest"] for record in base}
        differing = sorted(
            {record["seed"] for record in change
             if digests.get((record["seed"], record["ops"]), record["answers_digest"])
             != record["answers_digest"]}
        )
        if differing:
            failures += 1
            print(f"{workload:12s} answers_digest differs on seed(s) {differing}")
        else:
            print(f"{workload:12s} answers_digest equal on every shared seed")
    return 1 if failures else 0


def summarise(path: str) -> int:
    """Print the summary document (``baseline.json``, ``seeds.json``) of one
    file of recorded runs: medians, quartiles and quartile spread per metric."""
    runs = load(path)
    first = next(iter(runs.values()))[0]
    document = {key: first[key] for key in ("commit", "dirty", "nproc", "python", "numpy")}
    document["seeds"] = sorted({record["seed"] for records in runs.values() for record in records})
    document["workloads"] = {}
    for workload, records in runs.items():
        untraced = [record for record in records if not record["trace"]]
        traced = [record for record in records if record["trace"]]
        entry: dict = {}
        if untraced:
            entry.update(
                rows=untraced[0]["rows"],
                ops=untraced[0]["ops"],
                runs=len(untraced),
                answers_digest=sorted({record["answers_digest"] for record in untraced}),
                samples=untraced[0]["samples"],
                rel_err_p50=statistics.median(_values(untraced, "rel_err_p50")),
                end_to_end={},
            )
            for name, metric in untraced[0]["metrics"].items():
                q1, median, q3 = quartiles(_values(untraced, name))
                entry["end_to_end"][name] = {
                    "median": median, "q1": q1, "q3": q3, "unit": metric["unit"],
                    "spread": (q3 - q1) / median,
                }
        if traced:
            last = traced[-1]
            entry.update(
                traced_ops=last["ops"],
                layers=last["layers"],
                per_layer={name: metric["value"] for name, metric in last["metrics"].items()},
            )
        document["workloads"][workload] = entry
    json.dump(document, sys.stdout, indent=1)
    print()
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        return compare(*argv)
    if len(argv) == 1:
        return summarise(*argv)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
