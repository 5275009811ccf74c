"""Chaos tests: deterministic fault injection on the federated drain path.

Every test scripts its failures through a
:class:`~repro.testing.faults.FaultSchedule` riding on
:attr:`~repro.config.SystemConfig.injected_faults`, so each run is
bit-replayable from the (system seed, fault seed) pair:

* **replay** — the same schedule produces the same failure trace and the
  same answers, twice in a row;
* **recovery** — a crashed or hung worker of the process carrier is respawned
  from the existing shared-memory blocks and the retried phase produces answers
  bit-identical to a run with no faults at all;
* **degradation** — a provider that stays down is dropped from the batch:
  answers carry ``degraded`` + ``providers_missing``, survivors are charged
  exactly, and repeated failures quarantine the provider;
* **resource safety** — an injected crash leaks no shared-memory blocks
  (the satellite regression for the abnormal-exit path) and never wedges
  the aggregator: the next batch rebuilds the transport and answers;
* **accounting** — a degraded multi-tenant drain settles partial answers
  with exact per-tenant epsilon actuals and fully returned reservations;
* **transport faults** — severed connections, slow frames, and duplicate
  deliveries on a real wire (loopback and socket transports) degrade or
  heal exactly like provider faults: retries replay bit-identically,
  duplicates are discarded by sequence number, and a degraded drain over
  sockets still returns every reservation.

Set ``REPRO_CHAOS_TRACE_DIR`` to a directory to get each failing test's
fault schedule + failure trace as a JSON artifact (the CI chaos-smoke job
uploads them on red).
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.config import (
    PrivacyConfig,
    ResilienceConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    ProtocolError,
    TransportError,
)
from repro.federation.network import SimulatedNetwork
from repro.query.model import RangeQuery
from repro.service import SessionScheduler, TenantRegistry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table
from repro.testing import FaultInjector, FaultSchedule, FaultSpec

QUERIES = (
    RangeQuery.count({"age": (20, 60)}),
    RangeQuery.count({"hours": (5, 20)}),
    RangeQuery.count({"age": (0, 30), "hours": (0, 15)}),
)


def _table(rows: int = 900) -> Table:
    schema = Schema((Dimension("age", 0, 99), Dimension("hours", 0, 49)))
    rng = np.random.default_rng(123)
    return Table(
        schema,
        {
            "age": rng.integers(0, 100, rows),
            "hours": np.minimum(49, rng.poisson(12, rows)),
        },
    )


def _system(
    backend: str,
    schedule: FaultSchedule | None = None,
    resilience: ResilienceConfig | None = None,
    *,
    num_providers: int = 3,
    seed: int = 7,
) -> FederatedAQPSystem:
    config = SystemConfig(
        num_providers=num_providers,
        seed=seed,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2),
        transport=TransportConfig(
            kind="process" if backend == "process" else "inprocess"
        ),
        injected_faults=schedule,
        resilience=resilience or ResilienceConfig(),
    )
    return FederatedAQPSystem.from_table(_table(), config=config)


@pytest.fixture
def chaos_trace(request):
    """Register injectors; dump their traces on failure (CI artifact)."""
    injectors: list[FaultInjector] = []
    yield injectors.append
    report = getattr(request.node, "rep_call", None)
    directory = os.environ.get("REPRO_CHAOS_TRACE_DIR")
    if report is not None and report.failed and directory:
        for index, injector in enumerate(injectors):
            injector.dump_trace(
                os.path.join(directory, f"{request.node.name}-{index}.json")
            )


# -- schedule / injector units --------------------------------------------------


def test_fault_schedule_from_seed_is_deterministic():
    shapes = dict(num_providers=4, num_batches=3, num_faults=5)
    assert FaultSchedule.from_seed(11, **shapes) == FaultSchedule.from_seed(11, **shapes)
    assert FaultSchedule.from_seed(11, **shapes) != FaultSchedule.from_seed(12, **shapes)


def test_fault_spec_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="meteor_strike")
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="drop_provider", phase="allocation")
    with pytest.raises(ConfigurationError):
        FaultSpec(kind="drop_provider", repeat=0)


def test_injector_consumes_repeat_firings_per_attempt():
    schedule = FaultSchedule.of(
        FaultSpec(kind="drop_provider", provider_index=0, phase="summary", repeat=2)
    )
    injector = FaultInjector(schedule)
    injector.begin_batch(0)
    assert injector.take_call_fault("summary", 0, 1) is not None
    assert injector.take_call_fault("summary", 0, 2) is not None
    assert injector.take_call_fault("summary", 0, 3) is None
    assert injector.fired == 2


def test_dump_trace_writes_schedule_and_trace(tmp_path):
    schedule = FaultSchedule.of(FaultSpec(kind="drop_provider", provider_index=1))
    injector = FaultInjector(schedule)
    injector.begin_batch(0)
    injector.take_call_fault("summary", 1, 1)
    path = tmp_path / "artifacts" / "trace.json"
    injector.dump_trace(str(path))
    import json

    payload = json.loads(path.read_text())
    assert payload["schedule"][0]["kind"] == "drop_provider"
    assert payload["trace"][0]["provider_index"] == 1


# -- network message faults (satellite: dropped/retried counters) ---------------


def test_network_drop_charges_and_counts_query_class():
    network = SimulatedNetwork()
    network.fault_injector = FaultInjector(
        FaultSchedule.of(
            FaultSpec(kind="drop_message", message_class="query", message_index=1)
        )
    )
    network.send(100)
    cost_dropped = network.send(100)  # hit: one copy lost + one retransmit
    network.send(100, message_class="ingest")
    stats = network.stats
    assert stats.messages_dropped == 1 and stats.messages_retried == 1
    assert stats.query_messages_dropped == 1 and stats.query_messages_retried == 1
    assert stats.ingest_messages_dropped == 0 and stats.ingest_messages_retried == 0
    # The lost copy and its retry both crossed the wire: totals include them
    # and the per-class split still sums back.
    assert stats.messages == 4 and stats.query_messages == 3
    assert stats.bytes_sent == 400
    assert cost_dropped == pytest.approx(2 * network.config.transfer_cost(100))


def test_network_drop_counts_ingest_class_separately():
    network = SimulatedNetwork()
    network.fault_injector = FaultInjector(
        FaultSchedule.of(
            FaultSpec(kind="drop_message", message_class="ingest", message_index=0)
        )
    )
    network.send(50, message_class="ingest")
    network.send(50)
    stats = network.stats
    assert stats.ingest_messages_dropped == 1 and stats.ingest_messages_retried == 1
    assert stats.query_messages_dropped == 0 and stats.query_messages_retried == 0
    assert stats.ingest_messages == 2 and stats.messages == 3


def test_network_delay_adds_simulated_latency_only():
    plain = SimulatedNetwork()
    baseline = plain.send(100)
    delayed = SimulatedNetwork()
    delayed.fault_injector = FaultInjector(
        FaultSchedule.of(
            FaultSpec(kind="delay_message", message_class="query", delay_seconds=0.25)
        )
    )
    cost = delayed.send(100)
    assert cost == pytest.approx(baseline + 0.25)
    assert delayed.stats.messages == 1 and delayed.stats.messages_dropped == 0
    assert delayed.stats.merge(plain.stats).messages == 2


# -- deterministic replay -------------------------------------------------------


@pytest.mark.parametrize("backend", ["serial"])
def test_same_fault_seed_replays_identical_trace_and_answers(backend, chaos_trace):
    schedule = FaultSchedule.from_seed(
        5, num_providers=3, num_batches=2, num_faults=3, repeat=3
    )
    resilience = ResilienceConfig(enabled=True, max_retries=1, min_providers=1)

    def run():
        system = _system(backend, schedule, resilience)
        values = []
        for _ in range(2):
            values.extend(
                system.execute_batch(QUERIES, compute_exact=False).values
            )
        injector = system.aggregator.fault_injector
        chaos_trace(injector)
        return values, injector.signature()

    values_a, trace_a = run()
    values_b, trace_b = run()
    assert trace_a == trace_b
    assert values_a == values_b
    assert len(trace_a) > 0


def test_injected_fault_raises_without_resilience_on_serial_backend():
    schedule = FaultSchedule.of(
        FaultSpec(kind="drop_provider", provider_index=0, phase="summary")
    )
    system = _system("serial", schedule)  # resilience disabled
    with pytest.raises(InjectedFaultError):
        system.execute_batch(QUERIES, compute_exact=False)


# -- graceful degradation (in-process providers) --------------------------------


def test_answer_phase_drop_degrades_with_bit_identical_survivors(chaos_trace):
    baseline = _system("serial").execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(kind="drop_provider", provider_index=1, phase="answer", repeat=8)
    )
    system = _system(
        "serial", schedule, ResilienceConfig(enabled=True, max_retries=1)
    )
    degraded = system.execute_batch(QUERIES, compute_exact=False)
    chaos_trace(system.aggregator.fault_injector)
    assert degraded.degraded and degraded.degraded_queries == len(QUERIES)
    assert degraded.providers_missing == ("provider-1",)
    baseline_releases = {
        (index, release.provider_id): (release, local)
        for index, result in enumerate(baseline.results)
        for release, local in zip(result.provider_releases, result.provider_diagnostics)
    }
    for index, result in enumerate(degraded.results):
        assert {release.provider_id for release in result.provider_releases} == {
            "provider-0",
            "provider-2",
        }
        for release, local in zip(result.provider_releases, result.provider_diagnostics):
            # Answer-phase faults leave the summary phase (and therefore the
            # coupled allocation solve) untouched, so every surviving
            # provider's release — and, in-process, its diagnostics — is
            # bit-identical to the no-fault run.
            assert (release, local) == baseline_releases[(index, release.provider_id)]
        # Survivors delivered both phases fresh: the parallel-composition
        # charge is the full per-query budget, exactly.
        assert result.epsilon_spent == pytest.approx(1.0)
        assert result.delta_spent == pytest.approx(1e-3)


def test_summary_phase_loss_charges_nothing_for_missing_provider(chaos_trace):
    schedule = FaultSchedule.of(
        FaultSpec(kind="drop_provider", provider_index=0, phase="summary", repeat=8)
    )
    system = _system(
        "serial", schedule, ResilienceConfig(enabled=True, max_retries=1)
    )
    result = system.execute_batch(QUERIES, compute_exact=False)
    chaos_trace(system.aggregator.fault_injector)
    assert result.providers_missing == ("provider-0",)
    # The missing provider released nothing; the survivors still spend the
    # full budget, so the (max-composed) charge stays the full price.
    assert result.results[0].epsilon_spent == pytest.approx(1.0)
    stats = system.aggregator.resilience_stats
    assert stats.provider_failures == 1 and stats.degraded_batches == 1


def test_quarantine_after_consecutive_failures_and_reinstate(chaos_trace):
    schedule = FaultSchedule.of(
        FaultSpec(
            kind="drop_provider", provider_index=2, phase="summary",
            batch=None, repeat=100,
        )
    )
    system = _system(
        "serial",
        schedule,
        ResilienceConfig(enabled=True, max_retries=0, quarantine_after=2),
    )
    aggregator = system.aggregator
    chaos_trace(aggregator.fault_injector)
    first = system.execute_batch(QUERIES, compute_exact=False)
    assert first.degraded and aggregator.quarantined_providers == ()
    second = system.execute_batch(QUERIES, compute_exact=False)
    assert second.degraded and aggregator.quarantined_providers == ("provider-2",)
    fired_before = aggregator.fault_injector.fired
    third = system.execute_batch(QUERIES, compute_exact=False)
    # Quarantined providers are pre-failed: still degraded, but the provider
    # is never contacted, so the (armed) fault cannot fire again.
    assert third.degraded and third.providers_missing == ("provider-2",)
    assert aggregator.fault_injector.fired == fired_before
    assert aggregator.resilience_stats.providers_quarantined == 1
    aggregator.reinstate("provider-2")
    assert aggregator.quarantined_providers == ()
    fourth = system.execute_batch(QUERIES, compute_exact=False)
    # Reinstated and the fault is still armed: contacted, fails, degrades.
    assert fourth.degraded
    assert aggregator.fault_injector.fired == fired_before + 1


def test_min_providers_floor_fails_the_batch():
    schedule = FaultSchedule.of(
        FaultSpec(kind="drop_provider", provider_index=0, phase="summary", repeat=8),
        FaultSpec(kind="drop_provider", provider_index=1, phase="summary", repeat=8),
    )
    system = _system(
        "serial",
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, min_providers=2),
        num_providers=3,
    )
    with pytest.raises(ProtocolError, match="minimum 2"):
        system.execute_batch(QUERIES, compute_exact=False)


# -- process carrier: crash / hang / respawn ------------------------------------


def test_worker_crash_recovers_bit_identical_after_retry(chaos_trace):
    baseline = _system("serial").execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(kind="crash_worker", provider_index=2, phase="answer", repeat=1)
    )
    with _system(
        "process",
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, provider_timeout_seconds=30.0),
    ) as system:
        result = system.execute_batch(QUERIES, compute_exact=False)
        chaos_trace(system.aggregator.fault_injector)
        stats = system.aggregator.resilience_stats
    # The respawned worker replayed the summary from the phase-entry RNG
    # checkpoint, so the retried answer — and the whole batch — is
    # bit-identical to a run with no fault at all.
    assert result.values == baseline.values
    assert not result.degraded
    assert stats.workers_respawned >= 1 and stats.provider_retries >= 1


def test_worker_respawn_resumes_mid_workload_bit_identical(chaos_trace):
    def run(schedule, resilience):
        with _system("process", schedule, resilience) as system:
            values = []
            for _ in range(3):
                values.extend(
                    system.execute_batch(QUERIES, compute_exact=False).values
                )
            if system.aggregator.fault_injector is not None:
                chaos_trace(system.aggregator.fault_injector)
        return values

    healthy = run(None, None)
    schedule = FaultSchedule.of(
        FaultSpec(kind="crash_worker", provider_index=1, phase="summary", batch=1)
    )
    chaotic = run(
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, provider_timeout_seconds=30.0),
    )
    # The crash lands mid-workload (batch 1 of 3); the worker is respawned
    # from the shared blocks and the run resumes with bit-identical answers
    # for the remaining batches too.
    assert chaotic == healthy


def test_kill_connection_recovers_on_retry(chaos_trace):
    baseline = _system("serial").execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(kind="kill_connection", provider_index=0, phase="answer", repeat=1)
    )
    with _system(
        "process",
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, provider_timeout_seconds=30.0),
    ) as system:
        result = system.execute_batch(QUERIES, compute_exact=False)
        chaos_trace(system.aggregator.fault_injector)
    assert result.values == baseline.values and not result.degraded


def test_hang_worker_trips_timeout_then_recovers(chaos_trace):
    baseline = _system("serial").execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(
            kind="hang_worker", provider_index=1, phase="summary",
            repeat=1, hang_seconds=20.0,
        )
    )
    with _system(
        "process",
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, provider_timeout_seconds=0.5),
    ) as system:
        result = system.execute_batch(QUERIES, compute_exact=False)
        chaos_trace(system.aggregator.fault_injector)
        stats = system.aggregator.resilience_stats
    assert stats.worker_timeouts >= 1 and stats.workers_respawned >= 1
    # Hung worker killed before its reply was read; the respawned worker
    # re-runs the phase from the checkpoint: same draws, same answers.
    assert result.values == baseline.values and not result.degraded


def test_permanent_crash_degrades_batch_then_next_batch_heals(chaos_trace):
    schedule = FaultSchedule.of(
        FaultSpec(kind="crash_worker", provider_index=0, phase="summary", repeat=10)
    )
    with _system(
        "process",
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, provider_timeout_seconds=30.0),
    ) as system:
        first = system.execute_batch(QUERIES, compute_exact=False)
        chaos_trace(system.aggregator.fault_injector)
        assert first.degraded and first.providers_missing == ("provider-0",)
        # The fault is pinned to batch 0: the worker is respawned at the
        # next batch's entry and the federation heals without a rebuild.
        second = system.execute_batch(QUERIES, compute_exact=False)
        assert not second.degraded
        assert len(second.results[0].provider_releases) == 3
        assert second.results[0].provider_diagnostics is None  # behind a pipe


# -- resource safety (satellite: shm leak regression) ---------------------------


def _live_blocks(names) -> list[str]:
    alive = []
    for name in names:
        try:
            block = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        block.close()
        alive.append(name)
    return alive


def test_injected_crash_without_resilience_leaks_no_shared_memory():
    schedule = FaultSchedule.of(
        FaultSpec(kind="crash_worker", provider_index=1, phase="summary", batch=1)
    )
    system = _system("process", schedule)  # resilience disabled: crash is fatal
    try:
        system.execute_batch(QUERIES, compute_exact=False)  # batch 0: healthy
        names = system.aggregator.transport.shared_block_names()
        assert names and _live_blocks(names) == list(names)
        with pytest.raises(TransportError, match="worker died"):
            system.execute_batch(QUERIES, compute_exact=False)  # batch 1: crash
        # The abnormal-exit path closed the transport before the error propagated:
        # every shared block must already be unlinked (the leak regression),
        # *before* anyone calls system.close().
        assert _live_blocks(names) == []
    finally:
        system.close()


def test_failed_batch_does_not_wedge_later_batches():
    schedule = FaultSchedule.of(
        FaultSpec(kind="crash_worker", provider_index=0, phase="answer", batch=0)
    )
    system = _system("process", schedule)  # no resilience: batch 0 dies
    try:
        with pytest.raises(TransportError):
            system.execute_batch(QUERIES, compute_exact=False)
        # The closed transport must not be handed out again (wedge regression):
        # the next batch builds a fresh one and answers normally.
        result = system.execute_batch(QUERIES, compute_exact=False)
        assert len(result.results) == len(QUERIES)
        assert not result.degraded
    finally:
        system.close()


def test_close_unlinks_every_shared_block():
    with _system("process") as system:
        system.execute_batch(QUERIES, compute_exact=False)
        names = system.aggregator.transport.shared_block_names()
        assert names and _live_blocks(names) == list(names)
    assert _live_blocks(names) == []


def test_failed_forget_kills_the_worker_and_the_federation_heals(chaos_trace, monkeypatch):
    """The sessions of a hosted provider live in its worker, not in this
    process: when the wire forget fails, releasing the parent object frees
    nothing — the worker must die (its sessions with it) and be respawned."""
    from repro.config import IngestConfig
    from repro.core.accounting import split_query_budget

    schedule = FaultSchedule.of(
        FaultSpec(kind="crash_worker", provider_index=2, phase="answer", batch=0, repeat=8)
    )
    config = SystemConfig(
        num_providers=3,
        seed=7,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2),
        transport=TransportConfig(kind="process"),
        ingest=IngestConfig(max_delta_rows=50),
        injected_faults=schedule,
        resilience=ResilienceConfig(enabled=True, max_retries=1),
    )
    names: set[str] = set()
    with FederatedAQPSystem.from_table(_table(), config=config) as system:
        aggregator = system.aggregator
        chaos_trace(aggregator.fault_injector)
        # Worker killed mid-answer: the degraded batch settles exact actuals.
        degraded = system.execute_batch(QUERIES, compute_exact=False)
        names.update(aggregator.transport.shared_block_names())
        assert degraded.providers_missing == ("provider-2",)
        for result in degraded.results:
            assert result.epsilon_spent == pytest.approx(1.0)
            assert result.delta_spent == pytest.approx(1e-3)
        assert aggregator.transport.live_workers() == 2
        # A begun batch whose forget never reaches the (healthy) worker 1:
        # the worker is killed rather than left holding the sessions.
        phased = aggregator.begin_batch(QUERIES, split_query_budget(config.privacy))
        assert aggregator.transport.live_workers() == 3  # batch 1 respawned worker 2
        wire_call = aggregator.transport._call

        def lossy_call(index, op, payload, **kwargs):
            if op == "forget" and index == 1:
                raise TransportError("forget frame lost")
            return wire_call(index, op, payload, **kwargs)

        monkeypatch.setattr(aggregator.transport, "_call", lossy_call)
        aggregator.abandon_batch(phased)
        monkeypatch.undo()
        assert aggregator.transport.live_workers() == 2
        # The next batch respawns it and answers in full ...
        healed = system.execute_batch(QUERIES, compute_exact=False)
        assert not healed.degraded
        assert len(healed.results[0].provider_releases) == 3
        # ... and so does a compaction, which no leaked session blocks.
        receipts = system.ingest(_table(300))
        assert all(receipt.compacted for receipt in receipts)
        assert _live_blocks(names) == []  # the fold tore the old hosts down
        after = system.execute_batch(QUERIES, compute_exact=False)
        assert not after.degraded
        names.update(aggregator.transport.shared_block_names())
        for provider in system.providers:
            assert provider.num_open_sessions == 0
    assert names and _live_blocks(names) == []


# -- acceptance: degraded multi-tenant drain ------------------------------------


def _wire_system(
    kind: str,
    schedule: FaultSchedule | None = None,
    resilience: ResilienceConfig | None = None,
    *,
    num_providers: int = 3,
    seed: int = 7,
) -> FederatedAQPSystem:
    """A system whose phase calls cross a real (loopback or socket) wire."""
    config = SystemConfig(
        num_providers=num_providers,
        seed=seed,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2),
        transport=TransportConfig(kind=kind),
        injected_faults=schedule,
        resilience=resilience or ResilienceConfig(),
    )
    return FederatedAQPSystem.from_table(_table(), config=config)


@pytest.mark.parametrize("kind", ["loopback", "socket"])
def test_transport_disconnect_mid_answer_degrades_with_exact_actuals(kind, chaos_trace):
    baseline = _wire_system(kind).execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(kind="disconnect", provider_index=1, phase="answer", repeat=2)
    )
    system = _wire_system(
        kind, schedule, ResilienceConfig(enabled=True, max_retries=1, min_providers=1)
    )
    degraded = system.execute_batch(QUERIES, compute_exact=False)
    chaos_trace(system.aggregator.fault_injector)
    assert degraded.degraded and degraded.providers_missing == ("provider-1",)
    baseline_values = {
        (index, release.provider_id): release.released_value
        for index, result in enumerate(baseline.results)
        for release in result.provider_releases
    }
    for index, result in enumerate(degraded.results):
        # Over a wire the providers' diagnostics never arrive.
        assert result.provider_diagnostics is None and result.noise_injected is None
        for release in result.provider_releases:
            # The disconnect fires on the aggregator side, before the
            # provider consumes any randomness: survivors' released answers
            # are bit-identical to the no-fault run over the same wire.
            assert release.released_value == baseline_values[(index, release.provider_id)]
        # Honest charging under degradation: the survivors delivered both
        # phases, so the max-composed actual is the full per-query price.
        assert result.epsilon_spent == pytest.approx(1.0)
        assert result.delta_spent == pytest.approx(1e-3)
    assert system.aggregator.resilience_stats.degraded_batches == 1


@pytest.mark.parametrize("kind", ["loopback", "socket"])
def test_transport_disconnect_heals_on_retry_bit_identical(kind, chaos_trace):
    baseline = _wire_system(kind).execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(kind="disconnect", provider_index=1, phase="answer", repeat=1)
    )
    system = _wire_system(
        kind, schedule, ResilienceConfig(enabled=True, max_retries=1)
    )
    result = system.execute_batch(QUERIES, compute_exact=False)
    chaos_trace(system.aggregator.fault_injector)
    # One severed connection, one retry over a fresh connection.  The fault
    # fires before the provider runs, so the retried call replays the exact
    # same draws: the whole batch is bit-identical to the healthy run.
    assert not result.degraded
    assert result.values == baseline.values
    assert system.aggregator.fault_injector.fired == 1


def test_transport_slow_frame_changes_nothing_but_latency(chaos_trace):
    baseline = _wire_system("socket").execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(
            kind="delay_frame", provider_index=0, phase="summary",
            repeat=1, delay_seconds=0.2,
        )
    )
    system = _wire_system("socket", schedule)
    result = system.execute_batch(QUERIES, compute_exact=False)
    chaos_trace(system.aggregator.fault_injector)
    assert result.values == baseline.values and not result.degraded
    assert system.aggregator.fault_injector.fired == 1
    # A slow frame is not a lost frame: nothing dropped, nothing duplicated.
    stats = system.transport_stats()
    assert stats.messages_dropped == 0 and stats.frames_duplicated == 0


@pytest.mark.parametrize("kind", ["loopback", "socket"])
def test_transport_duplicate_delivery_is_discarded_by_seq(kind, chaos_trace):
    baseline = _wire_system(kind).execute_batch(QUERIES, compute_exact=False)
    schedule = FaultSchedule.of(
        FaultSpec(kind="duplicate_frame", provider_index=2, phase="answer", repeat=1)
    )
    system = _wire_system(kind, schedule)
    result = system.execute_batch(QUERIES, compute_exact=False)
    chaos_trace(system.aggregator.fault_injector)
    # At-least-once delivery must not become at-least-once execution: the
    # duplicated reply is matched by sequence number and discarded, counted.
    assert result.values == baseline.values and not result.degraded
    assert system.transport_stats().frames_duplicated == 1


def test_transport_fault_without_resilience_is_fatal():
    schedule = FaultSchedule.of(
        FaultSpec(kind="drop_frame", provider_index=0, phase="summary")
    )
    system = _wire_system("loopback", schedule)  # resilience disabled
    with pytest.raises(TransportError):
        system.execute_batch(QUERIES, compute_exact=False)
    assert system.transport_stats().messages_dropped == 1


@pytest.mark.parametrize("kind", ["loopback", "socket"])
def test_fatal_transport_failure_does_not_wedge_later_batches(kind):
    schedule = FaultSchedule.of(
        FaultSpec(kind="disconnect", provider_index=1, phase="answer", batch=0)
    )
    with _wire_system(kind, schedule) as system:  # no resilience: batch 0 dies
        with pytest.raises(TransportError):
            system.execute_batch(QUERIES, compute_exact=False)
        messages_at_failure = system.transport_stats().messages
        for provider in system.providers:
            assert provider.num_open_sessions == 0
        # The abnormal-exit path tore the wire down with the rest of the
        # aggregator's resources; the next batch must rebuild the transport
        # (the wedge regression, transport edition) and answer normally,
        # with the wire counters carried forward cumulatively.  (Bit-identity
        # of healed answers belongs to the retry test above: a *fatal* batch
        # already consumed its summary-phase draws.)
        result = system.execute_batch(QUERIES, compute_exact=False)
        assert len(result.results) == len(QUERIES)
        assert not result.degraded
        stats = system.transport_stats()
        assert stats.messages > messages_at_failure
        assert stats.messages_dropped == 0  # disconnects sever, they don't drop


def test_degraded_drain_over_socket_leaks_no_reservations(chaos_trace):
    schedule = FaultSchedule.of(
        FaultSpec(
            kind="disconnect", provider_index=2, phase="answer",
            batch=None, repeat=50,
        )
    )
    system = _wire_system(
        "socket",
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, min_providers=1),
    )
    registry = TenantRegistry()
    for tenant_id in ("alice", "bob"):
        registry.register(tenant_id, total_epsilon=50.0, total_delta=0.5)
    scheduler = SessionScheduler(system, registry)
    try:
        scheduler.submit("alice", list(QUERIES))
        scheduler.submit("bob", list(QUERIES[:2]))
        answers = scheduler.drain()
        chaos_trace(system.aggregator.fault_injector)
    finally:
        system.close()
    assert {answer.tenant_id for answer in answers} == {"alice", "bob"}
    for answer in answers:
        assert answer.degraded
        assert answer.providers_missing == ("provider-2",)
        tenant = registry.get(answer.tenant_id)
        # PR 7's settlement guarantee holds over a real wire: reservations
        # fully returned, wallets debited the exact delivered actuals.
        assert tenant.budget.reserved_epsilon == 0.0
        assert tenant.budget.reserved_delta == 0.0
        charged = sum(result.epsilon_spent for result in answer.results)
        assert answer.epsilon_charged == pytest.approx(charged)
        assert tenant.remaining_epsilon == pytest.approx(50.0 - charged)
    assert scheduler.stats.degraded_queries == 5


def test_degraded_drain_settles_exact_actuals_and_returns_reservations(chaos_trace):
    schedule = FaultSchedule.of(
        FaultSpec(
            kind="crash_worker", provider_index=2, phase="answer",
            batch=None, repeat=50,
        )
    )
    system = _system(
        "process",
        schedule,
        ResilienceConfig(enabled=True, max_retries=1, provider_timeout_seconds=30.0),
    )
    registry = TenantRegistry()
    for tenant_id in ("alice", "bob"):
        registry.register(tenant_id, total_epsilon=50.0, total_delta=0.5)
    scheduler = SessionScheduler(system, registry)
    try:
        scheduler.submit("alice", list(QUERIES))
        scheduler.submit("bob", list(QUERIES[:2]))
        answers = scheduler.drain()
        chaos_trace(system.aggregator.fault_injector)
        names = system.aggregator.transport.shared_block_names()
        assert _live_blocks(names) == list(names)
    finally:
        system.close()
    assert {answer.tenant_id for answer in answers} == {"alice", "bob"}
    for answer in answers:
        assert answer.degraded
        assert answer.providers_missing == ("provider-2",)
        tenant = registry.get(answer.tenant_id)
        # Partial answers settle through the honest-charging path: the
        # admission reservation is fully returned and the wallet debits
        # exactly the per-query actuals of the delivered releases.
        assert tenant.budget.reserved_epsilon == 0.0
        assert tenant.budget.reserved_delta == 0.0
        charged = sum(result.epsilon_spent for result in answer.results)
        assert answer.epsilon_charged == pytest.approx(charged)
        assert tenant.remaining_epsilon == pytest.approx(50.0 - charged)
        assert tenant.degraded_queries == answer.num_queries
        for result in answer.results:
            # Surviving providers answered fresh; the missing provider at
            # the answer phase still spent only its summary share, so the
            # max-composed charge is the full per-query price, exactly.
            assert result.epsilon_spent == pytest.approx(1.0)
    assert scheduler.stats.degraded_queries == 5
    # Zero leaked shared blocks after close.
    assert _live_blocks(names) == []
