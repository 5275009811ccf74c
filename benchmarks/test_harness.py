"""The shared recorder writes the tracked trajectory files only on request."""

from __future__ import annotations

import json

import _harness


def test_record_bench_writes_only_with_repro_bench_record(monkeypatch, tmp_path):
    monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path)
    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    entry = _harness.record_bench("probe", params={"rows": 10}, metrics={"qps": 2.5})
    # The in-memory entry the benchmarks' gates read is complete either way.
    assert entry["params"] == {"rows": 10} and entry["metrics"] == {"qps": 2.5}
    assert {"timestamp", "commit", "machine"} <= set(entry)
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    for qps in (3.5, 4.5):
        _harness.record_bench("probe", params={"rows": 10}, metrics={"qps": qps})
    history = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert history["bench"] == "probe"
    assert [item["metrics"]["qps"] for item in history["entries"]] == [3.5, 4.5]
