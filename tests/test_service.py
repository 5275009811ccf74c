"""Multi-tenant serving layer: scheduling, isolation, determinism, admission.

The load-bearing guarantees under test:

* **Interleaving invariance** — under a fixed seed, a tenant's answers are
  bit-identical whether its submissions run alone or coalesced with other
  tenants' traffic, in any submission order, on the in-process and the
  process transport carrier (per-tenant noise streams + canonical
  coalescing order).
* **Budget isolation** — tenants hold separate wallets; admission prices
  with the reuse planner's sound bound, reserves it, and settles exact
  actuals; one tenant exhausting its budget never affects another.
* **Budget-exhaustion edges** — at exactly zero remaining budget a fully
  cached workload is admitted and charged zero; a partially cached workload
  is rejected atomically (nothing queued, reserved, or charged).
* **Backpressure** — the bounded pending queue sheds load instead of
  growing without bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    PrivacyConfig,
    ServiceConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ServiceError,
    ServiceOverloadedError,
    UnknownTenantError,
)
from repro.query.model import RangeQuery
from repro.service import SessionScheduler, TenantRegistry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

QA = RangeQuery.count({"age": (10, 60)})
QB = RangeQuery.count({"hours": (5, 30)})
QC = RangeQuery.sum({"age": (0, 40)})
QD = RangeQuery.count({"age": (20, 80), "hours": (0, 20)})


def make_table() -> Table:
    rng = np.random.default_rng(123)
    n = 2000
    schema = Schema((Dimension("age", 0, 99), Dimension("hours", 0, 49)))
    return Table(
        schema,
        {"age": rng.integers(0, 100, n), "hours": rng.integers(0, 50, n)},
    )


def make_system(
    *, backend: str | None = None, cache: bool = False, seed: int = 7
) -> FederatedAQPSystem:
    config = SystemConfig(cluster_size=100, num_providers=4, seed=seed)
    if backend is not None:
        config = config.with_transport(TransportConfig(kind=backend))
    if cache:
        config = config.with_cache(CacheConfig(enabled=True))
    return FederatedAQPSystem.from_table(make_table(), config=config)


def registry_for(*tenant_ids: str, epsilon: float = 50.0) -> TenantRegistry:
    registry = TenantRegistry()
    for tenant_id in tenant_ids:
        registry.register(tenant_id, total_epsilon=epsilon, total_delta=0.5)
    return registry


# -- determinism under interleaving ----------------------------------------------

TENANT_WORKLOADS = {
    "alice": [[QA, QC], [QD]],
    "bob": [[QB], [QC, QA]],
    "carol": [[QD, QB, QC]],
}


def _serve_interleaved(backend, order):
    """All tenants through one scheduler, submissions in the given order."""
    system = make_system(backend=backend)
    try:
        scheduler = SessionScheduler(
            system,
            registry_for(*TENANT_WORKLOADS),
            config=ServiceConfig(max_batch_size=4),
        )
        for tenant_id, submission_index in order:
            scheduler.submit(tenant_id, TENANT_WORKLOADS[tenant_id][submission_index])
        answers = scheduler.drain()
    finally:
        system.close()
    per_tenant: dict[str, list[tuple[float, ...]]] = {}
    charges: dict[str, float] = {}
    for answer in answers:
        per_tenant.setdefault(answer.tenant_id, []).append(answer.values)
        charges[answer.tenant_id] = (
            charges.get(answer.tenant_id, 0.0) + answer.epsilon_charged
        )
    return per_tenant, charges


def _serve_serially(backend):
    """Each tenant alone on a fresh identical system."""
    per_tenant: dict[str, list[tuple[float, ...]]] = {}
    charges: dict[str, float] = {}
    for tenant_id, submissions in TENANT_WORKLOADS.items():
        system = make_system(backend=backend)
        try:
            scheduler = SessionScheduler(system, registry_for(tenant_id))
            for queries in submissions:
                scheduler.submit(tenant_id, queries)
            answers = scheduler.drain()
        finally:
            system.close()
        per_tenant[tenant_id] = [answer.values for answer in answers]
        charges[tenant_id] = sum(answer.epsilon_charged for answer in answers)
    return per_tenant, charges


ROUND_ROBIN = [
    ("alice", 0),
    ("bob", 0),
    ("carol", 0),
    ("alice", 1),
    ("bob", 1),
]
SCRAMBLED = [
    ("carol", 0),
    ("bob", 0),
    ("bob", 1),
    ("alice", 0),
    ("alice", 1),
]


@pytest.mark.parametrize("backend", [None, "process"])
def test_interleaved_equals_serial_per_tenant(backend):
    serial_values, serial_charges = _serve_serially(backend)
    for order in (ROUND_ROBIN, SCRAMBLED):
        values, charges = _serve_interleaved(backend, order)
        assert values == serial_values
        assert charges == serial_charges


def test_backends_are_bit_identical_through_the_scheduler():
    baseline, _ = _serve_interleaved(None, ROUND_ROBIN)
    values, _ = _serve_interleaved("process", ROUND_ROBIN)
    assert values == baseline


def test_coalescing_batches_cross_tenants():
    system = make_system()
    scheduler = SessionScheduler(
        system,
        registry_for("alice", "bob", "carol"),
        config=ServiceConfig(max_batch_size=8),
    )
    scheduler.submit("bob", [QB, QC])
    scheduler.submit("alice", [QA])
    scheduler.submit("carol", [QD, QA])
    answers = scheduler.drain()
    assert scheduler.stats.batches_dispatched == 1
    assert scheduler.stats.cross_tenant_batches == 1
    assert scheduler.stats.queries_dispatched == 5
    # Canonical routing: answers come back per submission in
    # (tenant, submission order), each sized like its submission.
    assert [(a.tenant_id, a.num_queries) for a in answers] == [
        ("alice", 1),
        ("bob", 2),
        ("carol", 2),
    ]


def test_drain_respects_max_batch_size():
    system = make_system()
    scheduler = SessionScheduler(
        system, registry_for("alice"), config=ServiceConfig(max_batch_size=2)
    )
    scheduler.submit("alice", [QA, QB, QC, QD, QA])
    answers = scheduler.drain()
    assert scheduler.stats.batches_dispatched == 3
    assert answers[0].num_queries == 5


# -- admission, isolation, and accounting ----------------------------------------


def test_unknown_tenant_is_refused():
    scheduler = SessionScheduler(make_system(), registry_for("alice"))
    with pytest.raises(UnknownTenantError):
        scheduler.submit("mallory", [QA])


def test_system_with_own_budget_is_refused():
    config = SystemConfig(cluster_size=100, num_providers=4, seed=7)
    system = FederatedAQPSystem.from_partitions(
        [make_table()], config=config, total_epsilon=5.0
    )
    with pytest.raises(ServiceError):
        SessionScheduler(system, registry_for("alice"))


def test_empty_submission_is_refused():
    scheduler = SessionScheduler(make_system(), registry_for("alice"))
    with pytest.raises(ServiceError):
        scheduler.submit("alice", [])


def test_backpressure_sheds_load():
    scheduler = SessionScheduler(
        make_system(), registry_for("alice"), config=ServiceConfig(max_pending=2)
    )
    scheduler.submit("alice", [QA])
    scheduler.submit("alice", [QB])
    with pytest.raises(ServiceOverloadedError):
        scheduler.submit("alice", [QC])
    scheduler.drain()
    scheduler.submit("alice", [QC])  # queue drained: accepted again


def test_budget_isolation_between_tenants():
    registry = TenantRegistry()
    registry.register("poor", total_epsilon=1.0, total_delta=0.01)
    registry.register("rich", total_epsilon=100.0, total_delta=0.5)
    scheduler = SessionScheduler(make_system(), registry)
    scheduler.submit("poor", [QA])
    scheduler.drain()
    assert registry.remaining_budget("poor")[0] == pytest.approx(0.0)
    with pytest.raises(AdmissionError):
        scheduler.submit("poor", [QB])
    # The sibling tenant is untouched by the rejection and keeps serving.
    receipt = scheduler.submit("rich", [QB, QC])
    assert receipt.status == "queued"
    answers = scheduler.drain()
    assert len(answers) == 1 and answers[0].tenant_id == "rich"
    assert registry.remaining_budget("rich")[0] == pytest.approx(98.0)


def test_rejection_is_atomic():
    registry = TenantRegistry()
    registry.register("alice", total_epsilon=1.5, total_delta=0.01)
    scheduler = SessionScheduler(make_system(), registry)
    tenant = registry.get("alice")
    with pytest.raises(AdmissionError):
        scheduler.submit("alice", [QA, QB])  # needs 2.0
    assert scheduler.num_pending == 0
    assert tenant.budget.reserved_epsilon == 0.0
    assert len(tenant.budget.accountant) == 0
    assert tenant.sequence == 0  # no stream tokens consumed either
    assert scheduler.stats.submissions_rejected == 1


def test_reservations_gate_concurrent_submissions():
    registry = TenantRegistry()
    registry.register("alice", total_epsilon=1.0, total_delta=0.01)
    scheduler = SessionScheduler(make_system(), registry)
    scheduler.submit("alice", [QA])  # reserves the whole wallet
    with pytest.raises(AdmissionError):
        scheduler.submit("alice", [QB])  # individually affordable, jointly not
    answers = scheduler.drain()
    assert [a.epsilon_charged for a in answers] == [pytest.approx(1.0)]
    # After settlement the reservation is gone and the wallet reads its
    # true remaining value.
    assert registry.get("alice").budget.reserved_epsilon == 0.0


def test_charges_match_bounds_without_cache():
    scheduler = SessionScheduler(make_system(), registry_for("alice"))
    receipt = scheduler.submit("alice", [QA, QB, QC])
    assert receipt.bound_epsilon == pytest.approx(3.0)
    (answer,) = scheduler.drain()
    assert answer.epsilon_charged == pytest.approx(receipt.bound_epsilon)
    assert answer.delta_charged == pytest.approx(receipt.bound_delta)
    assert scheduler.stats.epsilon_by_tenant["alice"] == pytest.approx(3.0)


# -- budget-exhaustion edge cases (cache-aware admission) ------------------------


def test_zero_budget_fully_cached_workload_succeeds():
    system = make_system(cache=True)
    registry = TenantRegistry()
    registry.register("alice", total_epsilon=2.0, total_delta=0.01)
    scheduler = SessionScheduler(system, registry)
    first = scheduler.serve([("alice", [QA, QB])])[0]
    assert first.epsilon_charged == pytest.approx(2.0)
    assert registry.remaining_budget("alice")[0] == pytest.approx(0.0)
    # Exactly zero budget left; the same predicates are now cached on every
    # provider, so the repeat prices (and costs) zero — and is re-served
    # byte-for-byte.
    receipt = scheduler.submit("alice", [QA, QB])
    assert receipt.status == "queued"
    assert receipt.bound_epsilon == 0.0
    (repeat,) = scheduler.drain()
    assert repeat.epsilon_charged == 0.0
    assert repeat.delta_charged == 0.0
    assert repeat.values == first.values


def test_zero_budget_partially_cached_workload_rejected_atomically():
    system = make_system(cache=True)
    registry = TenantRegistry()
    registry.register("alice", total_epsilon=2.0, total_delta=0.01)
    scheduler = SessionScheduler(system, registry)
    scheduler.serve([("alice", [QA, QB])])
    tenant = registry.get("alice")
    ledger_before = len(tenant.budget.accountant)
    sequence_before = tenant.sequence
    # QC is fresh: the submission's bound is QC's full price, which no longer
    # fits — the whole submission (cached queries included) is refused with
    # no partial execution and no partial charge.
    with pytest.raises(AdmissionError):
        scheduler.submit("alice", [QA, QC])
    assert len(tenant.budget.accountant) == ledger_before
    assert tenant.budget.reserved_epsilon == 0.0
    assert tenant.sequence == sequence_before
    assert scheduler.num_pending == 0


def test_deferred_submission_admitted_once_cache_makes_it_free():
    system = make_system(cache=True)
    registry = TenantRegistry()
    registry.register("poor", total_epsilon=1e-9, total_delta=0.01)
    registry.register("rich", total_epsilon=100.0, total_delta=0.5)
    scheduler = SessionScheduler(
        system, registry, config=ServiceConfig(admission="defer")
    )
    receipt = scheduler.submit("poor", [QA])
    assert receipt.status == "deferred"
    assert scheduler.drain() == []  # still unaffordable: stays parked
    assert scheduler.num_deferred == 1
    # Another tenant's traffic releases the predicate; on the next drain the
    # parked submission re-prices to zero and completes free of charge.
    scheduler.serve([("rich", [QA])])
    assert scheduler.num_deferred == 1
    answers = scheduler.drain()
    assert [a.tenant_id for a in answers] == ["poor"]
    assert answers[0].epsilon_charged == 0.0
    assert scheduler.num_deferred == 0


def test_defer_without_cache_rejects_outright():
    # With the caches off a submission's price can never drop, so "defer"
    # must not park work that would wedge the queue forever.
    registry = TenantRegistry()
    registry.register("alice", total_epsilon=1.0, total_delta=0.01)
    scheduler = SessionScheduler(
        make_system(cache=False),
        registry,
        config=ServiceConfig(admission="defer"),
    )
    with pytest.raises(AdmissionError):
        scheduler.submit("alice", [QA, QB])
    assert scheduler.num_deferred == 0


def test_deferred_park_is_bounded_separately():
    system = make_system(cache=True)
    registry = TenantRegistry()
    registry.register("poor", total_epsilon=1e-9, total_delta=0.01)
    registry.register("rich", total_epsilon=100.0, total_delta=0.5)
    scheduler = SessionScheduler(
        system, registry, config=ServiceConfig(admission="defer", max_pending=2)
    )
    scheduler.submit("poor", [QA])
    scheduler.submit("poor", [QB])
    with pytest.raises(ServiceOverloadedError):
        scheduler.submit("poor", [QC])  # park full
    # The wedged park does not starve admissible tenants...
    scheduler.submit("rich", [QA])
    scheduler.submit("rich", [QB])
    with pytest.raises(ServiceOverloadedError):
        scheduler.submit("rich", [QC])  # ...until the pending bound itself
    # and the park can be cleared explicitly.
    assert scheduler.discard_deferred("poor") == 2
    assert scheduler.num_deferred == 0


def test_failed_drain_charges_completed_queries():
    # Chunk 1 completes (noise released), chunk 2 blows up: the tenant owning
    # chunk 1's queries must still be charged, reservations returned, and the
    # exception propagated.
    system = make_system()
    registry = registry_for("alice", "bob")
    scheduler = SessionScheduler(
        system, registry, config=ServiceConfig(max_batch_size=2, max_in_flight_batches=1)
    )
    real_execute = system.execute_batch
    calls = {"n": 0}

    def flaky_execute(queries, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("provider fell over")
        return real_execute(queries, **kwargs)

    system.execute_batch = flaky_execute
    scheduler.submit("alice", [QA, QB])  # chunk 1 (completes)
    scheduler.submit("bob", [QC, QD])  # chunk 2 (fails)
    with pytest.raises(RuntimeError):
        scheduler.drain()
    alice = registry.get("alice")
    bob = registry.get("bob")
    # alice's two queries ran and are on her ledger; bob ran nothing.
    assert alice.budget.accountant.spent.epsilon == pytest.approx(2.0)
    assert bob.budget.accountant.spent.epsilon == 0.0
    # No reservation survives the failed drain, and the queue is empty.
    assert alice.budget.reserved_epsilon == 0.0
    assert bob.budget.reserved_epsilon == 0.0
    assert scheduler.num_pending == 0
    # The service keeps serving afterwards.
    system.execute_batch = real_execute
    answers = scheduler.serve([("bob", [QA])])
    assert len(answers) == 1


# -- cross-tenant reuse keeps fleet-wide spend sublinear -------------------------


def test_cross_tenant_reuse_prices_repeat_tenants_at_zero():
    system = make_system(cache=True)
    tenant_ids = [f"tenant-{index}" for index in range(6)]
    registry = registry_for(*tenant_ids, epsilon=10.0)
    scheduler = SessionScheduler(system, registry)
    answers = scheduler.serve([(tenant_id, [QA, QB]) for tenant_id in tenant_ids])
    # Canonical order puts tenant-0 first: it pays for the fresh releases;
    # every later tenant re-serves them as post-processing.
    total = sum(answer.epsilon_charged for answer in answers)
    assert answers[0].epsilon_charged == pytest.approx(2.0)
    assert total == pytest.approx(2.0)
    for answer in answers[1:]:
        assert answer.epsilon_charged == 0.0
        assert answer.values == answers[0].values


# -- configuration ----------------------------------------------------------------


def test_service_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_pending=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_in_flight_batches=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(admission="drop")
    assert ServiceConfig().with_admission("defer").admission == "defer"
    assert ServiceConfig().with_max_batch_size(8).max_batch_size == 8
    assert SystemConfig().service == ServiceConfig()


def test_duplicate_tenant_registration_is_refused():
    registry = registry_for("alice")
    with pytest.raises(ServiceError):
        registry.register("alice", total_epsilon=1.0)
    assert "alice" in registry and len(registry) == 1
    assert registry.tenant_ids == ("alice",)


# -- cost-model-driven scheduling -------------------------------------------------


def _answers_by_key(answers):
    return {(a.tenant_id, a.submission_id): (a.values, a.epsilon_charged) for a in answers}


def test_budgeted_chunking_answers_bit_identical_to_count_chunking():
    # A drain time budget moves chunk boundaries only; per-tenant noise
    # streams make every answer independent of the chunking.
    def run(service):
        scheduler = SessionScheduler(
            make_system(), registry_for("alice", "bob", "carol"), config=service
        )
        for tenant_id in ("alice", "bob", "carol"):
            scheduler.submit(tenant_id, [QA, QB, QC, QD])
        return scheduler, scheduler.drain()

    base_sched, base = run(ServiceConfig(max_batch_size=6))
    slo_sched, slo = run(
        ServiceConfig(max_batch_size=6, drain_time_budget_ms=0.05)
    )
    assert _answers_by_key(slo) == _answers_by_key(base)
    # The tight budget split the workload finer than the count cap alone.
    assert slo_sched.stats.batches_dispatched > base_sched.stats.batches_dispatched


def test_prediction_error_recorded_under_time_budget():
    scheduler = SessionScheduler(
        make_system(),
        registry_for("alice", "bob"),
        config=ServiceConfig(drain_time_budget_ms=5.0),
    )
    scheduler.submit("alice", [QA, QB, QC])
    scheduler.submit("bob", [QD, QA])
    scheduler.drain()
    stats = scheduler.stats
    # Every executed chunk fed the calibration: predictions and
    # measurements land pairwise, and the error EWMA is exposed.
    assert scheduler.cost_model.observations == stats.batches_dispatched > 0
    assert len(stats.chunk_predicted_seconds) == stats.batches_dispatched
    assert len(stats.chunk_actual_seconds) == stats.batches_dispatched
    assert all(p > 0 for p in stats.chunk_predicted_seconds)
    assert stats.cost_prediction_error == scheduler.cost_model.prediction_error > 0
    assert scheduler.stats.chunk_latency.count == stats.batches_dispatched


def test_overlapped_drain_answers_bit_identical_to_serial():
    def run(service):
        scheduler = SessionScheduler(
            make_system(), registry_for("alice", "bob"), config=service
        )
        scheduler.submit("alice", [QA, QB, QC])
        scheduler.submit("bob", [QD, QA, QB])
        return scheduler.drain()

    serial = run(ServiceConfig(max_batch_size=2))
    overlapped = run(ServiceConfig(max_batch_size=2, overlap_phases=True))
    assert _answers_by_key(overlapped) == _answers_by_key(serial)


def test_overlapped_drain_keeps_ingest_and_compaction_working():
    # Phase-split batches must release their provider sessions before the
    # drain's trailing ingest work items run, or compaction would refuse.
    system = make_system()
    registry = registry_for("alice")
    scheduler = SessionScheduler(
        system,
        registry,
        config=ServiceConfig(max_batch_size=1, overlap_phases=True),
    )
    rng = np.random.default_rng(5)
    rows = Table(
        system.providers[0].table.schema,
        {"age": rng.integers(0, 100, 40), "hours": rng.integers(0, 50, 40)},
    )
    scheduler.submit("alice", [QA, QB, QC])
    scheduler.submit_ingest(rows, tenant_id="alice")
    answers = scheduler.drain()
    assert len(answers) == 1
    assert registry.get("alice").rows_ingested == 40
    system.compact()  # no leaked sessions: compaction is allowed
    assert system.total_delta_rows == 0


def test_weighted_fair_admission_prefers_high_priority_under_cap():
    registry = TenantRegistry()
    registry.register("low", total_epsilon=50.0, priority_class=1)
    registry.register("high", total_epsilon=50.0, priority_class=8)
    scheduler = SessionScheduler(
        make_system(),
        registry,
        config=ServiceConfig(max_queries_per_drain=1),
    )
    scheduler.submit("low", [QA])  # arrives first, sorts first canonically
    scheduler.submit("high", [QB])
    first = scheduler.drain()
    assert [a.tenant_id for a in first] == ["high"]
    assert scheduler.num_pending == 1
    second = scheduler.drain()
    assert [a.tenant_id for a in second] == ["low"]
    assert scheduler.num_pending == 0


def test_starvation_bound_force_admits_within_limit():
    registry = TenantRegistry()
    registry.register("vip", total_epsilon=50.0, priority_class=100)
    registry.register("meek", total_epsilon=50.0, priority_class=1)
    scheduler = SessionScheduler(
        make_system(),
        registry,
        config=ServiceConfig(max_queries_per_drain=1, starvation_limit=3),
    )
    for _ in range(5):
        scheduler.submit("vip", [QA])
    scheduler.submit("meek", [QB])
    served = []
    for _ in range(3):
        served.append([a.tenant_id for a in scheduler.drain()])
    # Outweighed 100:1, "meek" still drains by its third eligible drain —
    # the aging stage admits it unconditionally (cap-exempt).
    assert "meek" not in served[0] and "meek" not in served[1]
    assert "meek" in served[2]
    assert scheduler.stats.submissions_force_admitted >= 1


def test_priorities_do_not_change_answer_values():
    def run(priorities):
        registry = TenantRegistry()
        for tenant_id in ("alice", "bob"):
            registry.register(
                tenant_id, total_epsilon=50.0, priority_class=priorities[tenant_id]
            )
        scheduler = SessionScheduler(
            make_system(),
            registry,
            config=ServiceConfig(max_queries_per_drain=2),
        )
        scheduler.submit("alice", [QA, QB])
        scheduler.submit("bob", [QC, QD])
        answers = []
        while scheduler.num_pending:
            answers.extend(scheduler.drain())
        return _answers_by_key(answers)

    assert run({"alice": 1, "bob": 1}) == run({"alice": 1, "bob": 9})


def _spy_on_pricing(monkeypatch, scheduler):
    """Record every ``CostModel.estimate`` call (queries, returned units), the
    cost list of every ``work_balanced_chunks`` call, and the number of
    ``cost_stats_batch`` calls each provider served."""
    from repro.service import scheduler as scheduler_module

    estimates: list[tuple[list, list[float]]] = []
    packed: list[list[float]] = []
    stats_calls = {provider.provider_id: 0 for provider in scheduler.system.providers}
    real_estimate = scheduler.cost_model.estimate
    real_chunks = scheduler_module.work_balanced_chunks

    def estimate(queries):
        result = real_estimate(queries)
        estimates.append((list(queries), [entry.units for entry in result]))
        return result

    def chunks(items, costs, budget, **kwargs):
        packed.append(list(costs))
        return real_chunks(items, costs, budget, **kwargs)

    def counting(provider, real):
        def cost_stats_batch(queries):
            stats_calls[provider.provider_id] += 1
            return real(queries)

        return cost_stats_batch

    monkeypatch.setattr(scheduler.cost_model, "estimate", estimate)
    monkeypatch.setattr(scheduler_module, "work_balanced_chunks", chunks)
    for provider in scheduler.system.providers:
        monkeypatch.setattr(
            provider, "cost_stats_batch", counting(provider, provider.cost_stats_batch)
        )
    return estimates, packed, stats_calls


def test_deferred_resubmission_reestimates_after_compaction(monkeypatch):
    # The staleness regression: a submission parked before an ingest +
    # compaction must be packed with costs from the *current* layout, not
    # the zone maps it was priced under when deferred.
    system = make_system(cache=True)
    registry = TenantRegistry()
    registry.register("poor", total_epsilon=1e-9, total_delta=0.01)
    registry.register("rich", total_epsilon=100.0, total_delta=0.5)
    scheduler = SessionScheduler(
        system,
        registry,
        config=ServiceConfig(admission="defer", drain_time_budget_ms=50.0),
    )
    receipt = scheduler.submit("poor", [QA])
    assert receipt.status == "deferred"
    stale_signature = scheduler.cost_model.layout_signature()
    stale_costs = [entry.units for entry in scheduler.cost_model.estimate([QA])]
    # The layout moves underneath the parked submission.
    rng = np.random.default_rng(11)
    rows = Table(
        system.providers[0].table.schema,
        {"age": rng.integers(0, 100, 400), "hours": rng.integers(0, 50, 400)},
    )
    system.ingest(rows)
    system.compact()
    assert scheduler.cost_model.layout_signature() != stale_signature
    fresh_costs = [entry.units for entry in scheduler.cost_model.estimate([QA])]
    assert fresh_costs != stale_costs
    # Another tenant's traffic makes the parked predicate free; the next
    # drain re-admits it and must pack it with an estimate of this layout.
    scheduler.serve([("rich", [QA])])
    estimates, packed, _ = _spy_on_pricing(monkeypatch, scheduler)
    answers = scheduler.drain()
    assert [a.tenant_id for a in answers] == ["poor"]
    assert estimates == [([QA], fresh_costs)]
    assert packed == [fresh_costs]


def test_left_behind_submission_is_reestimated_on_the_next_drain(monkeypatch):
    scheduler = SessionScheduler(
        make_system(),
        registry_for("alice", "bob"),
        config=ServiceConfig(max_queries_per_drain=1, drain_time_budget_ms=50.0),
    )
    estimates, packed, _ = _spy_on_pricing(monkeypatch, scheduler)
    scheduler.submit("alice", [QA])
    scheduler.submit("bob", [QB])
    assert estimates == []
    assert [a.tenant_id for a in scheduler.drain()] == ["alice"]
    assert [a.tenant_id for a in scheduler.drain()] == ["bob"]
    # One estimate per drain, of exactly the work that drain admitted: the
    # submission the cap left behind is priced by the drain that runs it.
    assert [queries for queries, _ in estimates] == [[QA], [QB]]
    assert packed == [units for _, units in estimates]


def test_no_time_budget_means_no_estimate_calls(monkeypatch):
    scheduler = SessionScheduler(make_system(), registry_for("alice", "bob"))
    estimates, packed, stats_calls = _spy_on_pricing(monkeypatch, scheduler)
    scheduler.serve([("alice", [QA, QB]), ("bob", [QC])])
    assert estimates == [] and packed == []
    assert set(stats_calls.values()) == {0}


def test_submit_reads_no_provider_metadata_and_a_drain_reads_it_once(monkeypatch):
    # CostModel.estimate must run where provider state is quiescent: only
    # under the drain lock, never from submit() beside a compacting drain.
    scheduler = SessionScheduler(
        make_system(),
        registry_for("alice", "bob"),
        config=ServiceConfig(drain_time_budget_ms=50.0),
    )
    _, _, stats_calls = _spy_on_pricing(monkeypatch, scheduler)
    scheduler.submit("alice", [QA, QB])
    scheduler.submit("bob", [QC])
    scheduler.submit("alice", [QD])
    assert set(stats_calls.values()) == {0}
    assert len(scheduler.drain()) == 3
    assert set(stats_calls.values()) == {1}


def test_latency_histogram_percentiles():
    from repro.service import LatencyHistogram

    histogram = LatencyHistogram()
    assert histogram.p50 == histogram.p99 == 0.0 and histogram.count == 0
    samples = [0.010, 0.020, 0.030, 0.040, 0.100]
    for sample in samples:
        histogram.record(sample)
    assert histogram.count == 5
    assert histogram.p50 == pytest.approx(np.percentile(samples, 50))
    assert histogram.p95 == pytest.approx(np.percentile(samples, 95))
    assert histogram.p99 == pytest.approx(np.percentile(samples, 99))
    assert histogram.mean == pytest.approx(float(np.mean(samples)))
    with pytest.raises(ServiceError):
        histogram.percentile(101.0)


def test_drain_records_latency_stats():
    scheduler = SessionScheduler(make_system(), registry_for("alice", "bob"))
    scheduler.submit("alice", [QA])
    scheduler.submit("bob", [QB])
    answers = scheduler.drain()
    assert all(a.latency_seconds > 0 for a in answers)
    stats = scheduler.stats
    assert stats.drain_latency.count == 1
    assert stats.submission_latency.count == 2
    # Settlement latency can never precede chunk completion within a drain.
    assert stats.drain_latency.p99 >= max(a.latency_seconds for a in answers) * 0.99


def test_priority_class_validation():
    registry = TenantRegistry()
    with pytest.raises(ServiceError):
        registry.register("bad", total_epsilon=1.0, priority_class=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(drain_time_budget_ms=0.0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_queries_per_drain=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(starvation_limit=0)
    slo = ServiceConfig().with_drain_time_budget_ms(25.0).with_overlap_phases()
    assert slo.drain_time_budget_ms == 25.0 and slo.overlap_phases
