"""Shared recorder for the ``BENCH_*.json`` trajectory files.

Every benchmark that records machine-readable numbers builds its entry
through :func:`record_bench`; with ``REPRO_BENCH_RECORD=1`` in the
environment the entry is also appended to
``benchmarks/results/BENCH_<name>.json``, so the files share one schema and
stay comparable across commits::

    {
      "bench": "<name>",
      "schema_version": 1,
      "entries": [
        {
          "timestamp": "...",            # UTC, seconds precision
          "commit": {"rev": "abc1234", "dirty": false},   # git HEAD of the run
          "machine": {"python": ..., "platform": ..., "machine": ..., "cpus": ...},
          "params": {...},               # workload shape: sizes, counts, seeds
          "metrics": {...}               # measured numbers: seconds, qps, speedups
        },
        ...
      ]
    }

The files are git-tracked on purpose: committing the updated history
alongside a change is what builds the trajectory.  Writing them is opt-in
(``REPRO_BENCH_RECORD=1``, set by the CI step whose results are uploaded,
or by hand on a quiet machine) so that a plain test run leaves the tree
clean; the benchmarks' gates assert on the returned in-memory entry either
way.  Entries written by pre-harness revisions of a file are preserved
verbatim (they lack the ``params`` / ``metrics`` nesting).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

RESULTS_DIR = Path(__file__).parent / "results"

SCHEMA_VERSION = 1


def machine_info() -> dict[str, Any]:
    """The environment fingerprint attached to every entry."""
    return {
        "python": platform.python_version(),
        "platform": platform.system(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


@functools.lru_cache(maxsize=1)
def commit_info() -> dict[str, Any]:
    """``git rev-parse --short HEAD`` plus whether the tree had local changes.

    What makes an entry attributable: a number recorded from a dirty tree
    belongs to no commit.  The result files themselves are left out of the
    dirty check — a recording run rewrites them — and the answer is taken
    once per process.  Outside a git checkout both fields are ``None``.
    """

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout

    rev = git("rev-parse", "--short", "HEAD")
    status = git(
        "status", "--porcelain", "--", ":(top)", ":(top,exclude)benchmarks/results"
    )
    return {
        "rev": rev.strip() if rev else None,
        "dirty": None if status is None else bool(status.strip()),
    }


def stats_metrics(
    stats: Any,
    *,
    prefix: str = "",
    suffix: str = "",
    keys: tuple[str, ...] | None = None,
    scale: float = 1.0,
    round_to: int | None = None,
) -> dict[str, Any]:
    """Flatten a stats object's ``as_dict()`` view into bench metrics.

    Every stats dataclass in the tree exposes the same ``as_dict()``
    surface (the one the metrics registry snapshots), so benchmarks record
    through this helper instead of hand-extracting attributes.  ``keys``
    selects a subset, ``prefix``/``suffix`` namespace the result, and
    ``scale``/``round_to`` apply unit conversion to numeric values.
    """
    values = stats.as_dict()
    if keys is not None:
        values = {key: values[key] for key in keys}
    out: dict[str, Any] = {}
    for key, value in values.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if scale != 1.0:
                value = value * scale
            if round_to is not None:
                value = round(value, round_to)
        out[f"{prefix}{key}{suffix}"] = value
    return out


def record_bench(
    name: str,
    *,
    params: Mapping[str, Any],
    metrics: Mapping[str, Any],
) -> dict[str, Any]:
    """Build one entry and return it; append it to ``results/BENCH_<name>.json``
    only when ``REPRO_BENCH_RECORD=1``."""
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": commit_info(),
        "machine": machine_info(),
        "params": dict(params),
        "metrics": dict(metrics),
    }
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return entry
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    history: dict[str, Any] = {"bench": name, "entries": []}
    if path.exists():
        history = json.loads(path.read_text())
    history["schema_version"] = SCHEMA_VERSION
    history.setdefault("entries", []).append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return entry
