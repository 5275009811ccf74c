"""Observability layer: tracing, metrics, and the DP budget audit ledger.

Three acceptance surfaces:

* **bit-identity off** — with ``ObservabilityConfig(enabled=False)`` (the
  default) the answers and charges are bit-identical to a default-config
  run, across the engine-mode equivalence matrix (the tracing/ledger hooks
  must consume no randomness and change no arithmetic);
* **ledger reconciliation** — for *any* workload, including fault-injected
  degraded drains and cache-reuse zero charges, replaying one owner's
  ledger events equals the accountant's and wallet's live state exactly
  (a hypothesis property);
* **one trace per drain** — a socket-transported, sharded, fault-injected
  degraded drain lands as ONE trace whose spans cover admission, chunking,
  every provider phase call (client and server side), the retry attempts,
  and settlement.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    ObservabilityConfig,
    PrivacyConfig,
    ResilienceConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.obs import BudgetAuditLedger, MetricsRegistry, Tracer
from repro.query.model import RangeQuery
from repro.service import SessionScheduler, TenantRegistry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table
from repro.testing import FaultSchedule, FaultSpec

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import trace_report  # noqa: E402  (tools/ has no package)

QUERIES = (
    RangeQuery.count({"age": (20, 60)}),
    RangeQuery.count({"hours": (5, 20)}),
    RangeQuery.count({"age": (0, 30), "hours": (0, 15)}),
)


def _table(rows: int = 600) -> Table:
    schema = Schema((Dimension("age", 0, 99), Dimension("hours", 0, 49)))
    rng = np.random.default_rng(123)
    return Table(
        schema,
        {
            "age": rng.integers(0, 100, rows),
            "hours": np.minimum(49, rng.poisson(12, rows)),
        },
    )


def _config(
    *,
    observability: bool = True,
    transport: str | None = None,
    shard_workers: int = 1,
    faults: FaultSchedule | None = None,
    resilience: ResilienceConfig | None = None,
    cache: bool = False,
    num_providers: int = 2,
    seed: int = 7,
    cluster_size: int = 1000,
) -> SystemConfig:
    config = SystemConfig(
        num_providers=num_providers,
        seed=seed,
        cluster_size=cluster_size,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2),
        injected_faults=faults,
        resilience=resilience or ResilienceConfig(),
        cache=CacheConfig(enabled=cache),
        observability=ObservabilityConfig(enabled=observability),
    )
    if transport is not None:
        config = config.with_transport(
            TransportConfig(kind=transport, shard_workers=shard_workers)
        )
    return config


@pytest.fixture
def obs_trace(request):
    """Register traced systems; dump their span JSONL on failure (CI artifact).

    Mirrors the ``chaos_trace`` fixture in ``test_chaos.py``: a red run in
    the chaos-smoke job uploads these dumps alongside the fault-injector
    schedules, so the failing drain replays locally with its waterfall.
    """
    systems: list[FederatedAQPSystem] = []
    yield systems.append
    report = getattr(request.node, "rep_call", None)
    directory = os.environ.get("REPRO_CHAOS_TRACE_DIR")
    if report is not None and report.failed and directory:
        os.makedirs(directory, exist_ok=True)
        for index, system in enumerate(systems):
            tracer = system.obs.tracer
            if tracer is not None:
                tracer.export_jsonl(
                    os.path.join(directory, f"{request.node.name}-{index}.jsonl")
                )


def _values(batch) -> list[tuple[float, float, float]]:
    return [
        (result.value, result.epsilon_spent, result.delta_spent)
        for result in batch.results
    ]


# -- disabled observability is bit-identical ------------------------------------


def test_disabled_observability_is_bit_identical_to_default_config():
    """The seed path: an explicit enabled=False config IS the default path."""
    table = _table()
    default = FederatedAQPSystem.from_table(
        table, config=_config(observability=False)
    )
    assert not default.obs.enabled and default.obs.tracer is None
    explicit = FederatedAQPSystem.from_table(
        table, config=_config(observability=False)
    )
    enabled = FederatedAQPSystem.from_table(table, config=_config(observability=True))
    baseline = _values(default.execute_batch(QUERIES, compute_exact=False))
    assert _values(explicit.execute_batch(QUERIES, compute_exact=False)) == baseline
    # Tracing and the ledger consume no randomness and change no float op:
    # an *enabled* run still answers and charges bit-identically.
    assert _values(enabled.execute_batch(QUERIES, compute_exact=False)) == baseline
    assert len(enabled.obs.tracer.spans()) > 0


def test_disabled_observability_matches_equivalence_matrix_modes():
    """Obs on/off, same bits, with the straddlers on the row-scan path
    (insertion-order clusters) and on the bisection path (rows sorted inside
    each cluster)."""
    table = _table()
    for intra_sort_by in (None, "age"):
        off = FederatedAQPSystem.from_table(
            table, config=_config(observability=False), intra_sort_by=intra_sort_by
        )
        on = FederatedAQPSystem.from_table(
            table, config=_config(observability=True), intra_sort_by=intra_sort_by
        )
        assert _values(on.execute_batch(QUERIES, compute_exact=False)) == _values(
            off.execute_batch(QUERIES, compute_exact=False)
        ), f"observability changed answers with intra_sort_by={intra_sort_by!r}"


def test_disabled_observability_keeps_wire_bytes_identical():
    """Loopback frames carry no trace payload when tracing is off."""
    table = _table()
    system = FederatedAQPSystem.from_table(
        table, config=_config(observability=False, transport="loopback")
    )
    system.execute_batch(QUERIES[:1], compute_exact=False)
    # No active span → the envelope payloads never grew a "trace" key, so
    # the byte counters match a pre-observability build exactly.  (The
    # enabled path is allowed to differ — that's the point of the flag.)
    reference = FederatedAQPSystem.from_table(
        table, config=SystemConfig(
            num_providers=2,
            seed=7,
            privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
            sampling=SamplingConfig(sampling_rate=0.2),
            transport=TransportConfig(kind="loopback"),
        )
    )
    reference.execute_batch(QUERIES[:1], compute_exact=False)
    assert (
        system.transport_stats().bytes_sent == reference.transport_stats().bytes_sent
    )


# -- ledger reconciliation ------------------------------------------------------


def _drain_and_reconcile(
    *,
    faults: FaultSchedule | None,
    resilience: ResilienceConfig | None,
    cache: bool,
    workloads: dict[str, list[RangeQuery]],
    rounds: int = 1,
    seed: int = 7,
) -> None:
    system = FederatedAQPSystem.from_table(
        _table(),
        config=_config(
            faults=faults, resilience=resilience, cache=cache, seed=seed
        ),
    )
    registry = TenantRegistry()
    for tenant_id in workloads:
        registry.register(tenant_id, total_epsilon=1e6)
    scheduler = SessionScheduler(system, registry)
    for _ in range(rounds):
        for tenant_id, queries in workloads.items():
            scheduler.submit(tenant_id, queries)
        scheduler.drain()
    ledger = system.obs.ledger
    assert ledger is not None
    assert set(workloads) <= set(ledger.owners())
    for tenant_id in workloads:
        report = ledger.reconcile(tenant_id, registry.get(tenant_id).budget)
        assert report.exact, (
            f"ledger does not reconcile for {tenant_id}: "
            f"charged {report.charged} vs accountant {report.accountant_spent}, "
            f"reserved ({report.reserved_epsilon}, {report.reserved_delta}) vs "
            f"wallet ({report.wallet_reserved_epsilon}, "
            f"{report.wallet_reserved_delta})"
        )


def test_ledger_reconciles_on_clean_drain():
    _drain_and_reconcile(
        faults=None,
        resilience=None,
        cache=False,
        workloads={"acme": list(QUERIES[:2]), "zeta": list(QUERIES[2:])},
    )


def test_ledger_reconciles_on_degraded_drain_with_partial_charges():
    faults = FaultSchedule.of(
        FaultSpec(kind="drop_provider", provider_index=1, phase="answer", repeat=8)
    )
    _drain_and_reconcile(
        faults=faults,
        resilience=ResilienceConfig(enabled=True, max_retries=1, min_providers=1),
        workloads={"acme": list(QUERIES)},
        cache=False,
    )


def test_ledger_records_cache_reuse_as_zero_charge_events():
    system = FederatedAQPSystem.from_table(
        _table(), config=_config(cache=True), total_epsilon=100.0
    )
    first = system.execute_batch(QUERIES, compute_exact=False)
    again = system.execute_batch(QUERIES, compute_exact=False)
    assert [r.value for r in again.results] == [r.value for r in first.results]
    ledger = system.obs.ledger
    events = ledger.events("system")
    reused = [event for event in events if event.cache_reuse]
    assert len(reused) == len(QUERIES)
    assert all(
        event.epsilon == 0.0 and event.delta == 0.0 and event.kind == "charge"
        for event in reused
    )
    assert ledger.reconcile("system", system.end_user_budget).exact


if HAVE_HYPOTHESIS:

    @st.composite
    def _workload_cases(draw):
        num_tenants = draw(st.integers(1, 2))
        workloads = {}
        for index in range(num_tenants):
            count = draw(st.integers(1, 3))
            workloads[f"tenant-{index}"] = [
                QUERIES[draw(st.integers(0, len(QUERIES) - 1))]
                for _ in range(count)
            ]
        fault = draw(
            st.sampled_from(["none", "answer_drop", "summary_drop", "flaky_heal"])
        )
        cache = draw(st.booleans())
        rounds = draw(st.integers(1, 2))
        seed = draw(st.integers(0, 5))
        return workloads, fault, cache, rounds, seed

    _FAULTS = {
        "none": (None, None),
        "answer_drop": (
            FaultSchedule.of(
                FaultSpec(
                    kind="drop_provider", provider_index=1, phase="answer", repeat=99
                )
            ),
            ResilienceConfig(enabled=True, max_retries=1, min_providers=1),
        ),
        "summary_drop": (
            FaultSchedule.of(
                FaultSpec(
                    kind="drop_provider", provider_index=0, phase="summary", repeat=99
                )
            ),
            ResilienceConfig(enabled=True, max_retries=1, min_providers=1),
        ),
        "flaky_heal": (
            FaultSchedule.of(
                FaultSpec(kind="drop_provider", provider_index=0, phase="answer")
            ),
            ResilienceConfig(enabled=True, max_retries=2, min_providers=1),
        ),
    }

    @settings(max_examples=25, deadline=None)
    @given(case=_workload_cases())
    def test_ledger_reconciliation_property(case):
        """Any workload — faults, degraded drains, reuse — reconciles exactly."""
        workloads, fault, cache, rounds, seed = case
        faults, resilience = _FAULTS[fault]
        _drain_and_reconcile(
            faults=faults,
            resilience=resilience,
            cache=cache,
            workloads=workloads,
            rounds=rounds,
            seed=seed,
        )


# -- one trace per drain --------------------------------------------------------


def test_degraded_sharded_socket_drain_is_one_reconciled_trace(tmp_path, obs_trace):
    """The headline acceptance: socket wire + shards + faults → ONE trace."""
    faults = FaultSchedule.of(
        FaultSpec(kind="disconnect", provider_index=1, phase="answer", repeat=99)
    )
    system = FederatedAQPSystem.from_table(
        _table(),
        config=_config(
            transport="socket",
            shard_workers=2,
            cluster_size=50,
            faults=faults,
            resilience=ResilienceConfig(enabled=True, max_retries=1, min_providers=1),
        ),
    )
    obs_trace(system)
    registry = TenantRegistry()
    registry.register("acme", total_epsilon=1e6)
    registry.register("zeta", total_epsilon=1e6)
    scheduler = SessionScheduler(system, registry)
    scheduler.submit("acme", list(QUERIES[:2]))
    scheduler.submit("zeta", list(QUERIES[2:]))
    answers = scheduler.drain()
    assert len(answers) == 2
    assert any(result.degraded for answer in answers for result in answer.results)

    spans = system.obs.tracer.spans()
    drain_roots = [span for span in spans if span.name == "drain"]
    assert len(drain_roots) == 1
    trace_id = drain_roots[0].trace_id
    drain_spans = [span for span in spans if span.trace_id == trace_id]
    names = {span.name for span in drain_spans}
    # The drain trace covers scheduling, every protocol phase on both sides
    # of the wire, and the sharded provider's data passes.
    assert {
        "drain",
        "drain.admission",
        "drain.chunking",
        "drain.chunk",
        "batch.allocation",
        "batch.local_answering",
        "batch.combination",
        "attempt.summary",
        "attempt.answer",
        "rpc.summary",
        "rpc.answer",
        "provider.summary",
        "provider.answer",
        "provider.summary_batch",
        "provider.answer_batch",
        "shard.metadata_pass",
        "shard.scan",
    } <= names
    # Retries are visible: the injected disconnect fails attempt 1 against
    # provider-1 and the retry (attempt 2) is its own span in the same trace.
    answer_attempts = {
        (span.tags.get("provider"), span.tags.get("attempt"))
        for span in drain_spans
        if span.name == "rpc.answer"
    }
    assert ("provider-1", 1) in answer_attempts
    assert ("provider-1", 2) in answer_attempts
    errors = [span for span in drain_spans if "error" in span.tags]
    assert errors, "the severed attempts must carry error tags"
    # Every provider phase call in the trace belongs to this ONE trace —
    # nothing leaked into a second trace.
    assert all(
        span.trace_id == trace_id
        for span in spans
        if span.name.startswith(("rpc.", "provider.", "attempt.", "shard."))
    )
    # And the ledger reconciles against the tenants' final wallet state.
    ledger = system.obs.ledger
    degraded_events = [
        event for event in ledger.events() if event.kind == "charge" and event.degraded
    ]
    assert degraded_events, "degraded partial charges must be flagged in the ledger"
    for tenant_id in ("acme", "zeta"):
        assert ledger.reconcile(tenant_id, registry.get(tenant_id).budget).exact

    # The dump renders as a waterfall (the tools/ report over real output).
    dump = tmp_path / "trace.jsonl"
    system.obs.tracer.export_jsonl(str(dump))
    report = trace_report.render_report(
        trace_report.load_spans(dump.read_text().splitlines()), trace_id=trace_id
    )
    assert report.startswith(f"trace {trace_id}")
    assert "rpc.answer" in report and "drain.chunk" in report


# -- metrics registry -----------------------------------------------------------


def test_metrics_snapshot_unifies_all_stats_groups():
    system = FederatedAQPSystem.from_table(_table(), config=_config())
    system.execute_batch(QUERIES[:1], compute_exact=False)
    snapshot = system.observability()
    assert snapshot["enabled"] is True
    groups = snapshot["metrics"]["groups"]
    assert {
        "network",
        "transport",
        "cache",
        "resilience",
        "kernel",
    } <= set(groups)
    assert groups["network"]["messages"] > 0
    rendered = system.obs.metrics.render_prometheus()
    assert "# TYPE repro_network_messages gauge" in rendered
    assert "repro_network_messages" in rendered


def test_metrics_registry_counters_and_prometheus_escaping():
    registry = MetricsRegistry()
    registry.counter("frames_total").inc(3)
    registry.gauge("depth").set(2.5)
    registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    text = registry.render_prometheus()
    assert "repro_frames_total 3" in text
    assert "repro_depth 2.5" in text
    snapshot = registry.snapshot()
    assert snapshot["counters"]["frames_total"] == 3


def test_trace_sampling_is_deterministic_and_rng_free():
    sampled = Tracer(sample_rate=0.5)
    again = Tracer(sample_rate=0.5)
    decisions = []
    for tracer in (sampled, again):
        row = []
        for _ in range(32):
            ctx = tracer.begin_trace("t")
            row.append(ctx is not None)
            tracer.end_span(ctx)
        decisions.append(row)
    assert decisions[0] == decisions[1]
    assert any(decisions[0]) and not all(decisions[0])


def test_ledger_export_jsonl_round_trips(tmp_path):
    ledger = BudgetAuditLedger()
    ledger.record("acme", "reserve", 1.0, 1e-3)
    ledger.record("acme", "charge", 0.5, 1e-3, label="q0")
    ledger.record("acme", "release", 1.0, 1e-3)
    path = tmp_path / "ledger.jsonl"
    ledger.export_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [entry["kind"] for entry in lines] == ["reserve", "charge", "release"]
    assert lines[1]["epsilon"] == 0.5
