"""Property-based invariants (hypothesis): query algebra, budgets, cache keys.

Families of properties the system's correctness arguments lean on:

* **Interval / RangeQuery algebra** — normalisation is canonical, containment
  and intersection agree with their arithmetic definitions, and the SQL text
  form round-trips exactly through the parser (including ``SUM(<column>)``
  measure names).
* **Budget accounting** — wallets never go negative, a charge succeeds
  exactly when the affordability check says so, failed (enforced) charges
  leave no trace, and admission reservations compose with spends.
* **Cache-key canonicalisation** — semantically equal queries map to equal
  release keys however their range mappings were built, and distinct
  predicates or budgets never collide.
* **Vectorised allocation** — the aggregator's ``(queries, providers)``
  waterfill equals the scalar Equation-6 solver query for query: ties in the
  noisy proportions, negative and huge noisy counts, budgets clamped at
  either end, a single surviving provider.
* **Ingestion / compaction** — folding random delta batches into a random
  clustered table answers every query exactly like
  ``ClusteredTable.from_table`` on the union of rows (the compact-then-query
  ≡ rebuild anchor), watermarks advance monotonically and reset only on a
  fold, and a provider's layout epoch never decreases under any
  ingest/compact/rebuild interleaving.

The suite runs under the derandomised ``repro``/``ci`` profiles registered in
``conftest.py`` so CI failures are reproducible.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from repro.cache.key import answer_key, query_fingerprint, summary_key
from repro.config import PrivacyConfig
from repro.core.accounting import EndUserBudget, split_query_budget
from repro.core.allocation import (
    AllocationProblem,
    solve_allocation,
    solve_allocation_batch,
)
from repro.dp.accountant import PrivacyAccountant
from repro.errors import AllocationError, BudgetExhaustedError
from repro.query.model import Aggregation, Interval, RangeQuery
from repro.query.parser import parse_query

# -- strategies -----------------------------------------------------------------

# Safe SQL identifiers: no keywords (and / between / select ...), no digits-only
# tokens, stable across the grammar's case-insensitive matching.
DIMENSION_NAMES = ("age", "hours", "dept", "income", "d0", "d1", "d2")
MEASURE_NAMES = ("measure", "revenue", "amount", "m1")

intervals = st.builds(
    lambda low, width: Interval(low, low + width),
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=0, max_value=500),
)

points = st.integers(min_value=-1600, max_value=1600)


@st.composite
def range_queries(draw):
    names = draw(
        st.lists(
            st.sampled_from(DIMENSION_NAMES), min_size=1, max_size=4, unique=True
        )
    )
    ranges = {name: draw(intervals) for name in names}
    aggregation = draw(st.sampled_from(list(Aggregation)))
    measure = (
        draw(st.sampled_from(MEASURE_NAMES))
        if aggregation is Aggregation.SUM
        else None
    )
    return RangeQuery(aggregation, ranges, measure=measure)


small_spends = st.tuples(
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False, allow_infinity=False),
)


# -- interval / query algebra ----------------------------------------------------


@given(intervals)
def test_interval_width_and_endpoints(interval):
    assert interval.width == interval.high - interval.low + 1 >= 1
    assert interval.contains(interval.low) and interval.contains(interval.high)
    assert not interval.contains(interval.low - 1)
    assert not interval.contains(interval.high + 1)


@given(intervals, points)
def test_interval_contains_matches_arithmetic(interval, value):
    assert interval.contains(value) == (interval.low <= value <= interval.high)


@given(intervals, intervals)
def test_interval_intersection_symmetric_and_arithmetic(a, b):
    expected = max(a.low, b.low) <= min(a.high, b.high)
    assert a.intersects(b) == b.intersects(a) == expected


@given(intervals, intervals, points)
def test_common_point_implies_intersection(a, b, value):
    if a.contains(value) and b.contains(value):
        assert a.intersects(b)


@given(range_queries())
def test_range_normalisation_is_canonical(query):
    # Tuple-built, Interval-built, and reversed-insertion-order queries are
    # all the same query.
    from_tuples = RangeQuery(
        query.aggregation,
        {name: interval.as_tuple() for name, interval in query.ranges.items()},
        measure=query.measure,
    )
    reversed_order = RangeQuery(
        query.aggregation,
        dict(reversed(list(query.ranges.items()))),
        measure=query.measure,
    )
    assert from_tuples == query
    assert reversed_order == query
    assert all(isinstance(interval, Interval) for interval in query.ranges.values())


# -- SQL round-trip --------------------------------------------------------------


@given(range_queries())
def test_sql_round_trip_is_exact(query):
    parsed, table = parse_query(query.to_sql())
    assert parsed == query
    assert table == "T"
    # The rendered text is a fixed point: parse -> render reproduces itself.
    assert parsed.to_sql() == query.to_sql()


@given(range_queries())
def test_sum_measure_survives_round_trip(query):
    if query.aggregation is Aggregation.SUM:
        assert f"SUM({query.measure})" in query.to_sql()
        assert parse_query(query.to_sql())[0].measure == query.measure
    else:
        assert query.measure is None
        assert "COUNT(*)" in query.to_sql()


# -- budget accounting -----------------------------------------------------------


@given(
    st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    st.lists(small_spends, min_size=1, max_size=12),
)
def test_accountant_never_overdraws_and_failures_leave_no_trace(total, charges):
    accountant = PrivacyAccountant(total_epsilon=total, total_delta=0.05)
    for epsilon, delta in charges:
        affordable = accountant.can_afford(epsilon, delta)
        before = (accountant.spent.epsilon, accountant.spent.delta, len(accountant))
        if affordable:
            accountant.charge(epsilon, delta)
        else:
            with pytest.raises(BudgetExhaustedError):
                accountant.charge(epsilon, delta)
            assert (
                accountant.spent.epsilon,
                accountant.spent.delta,
                len(accountant),
            ) == before
        assert accountant.remaining_epsilon >= 0.0
        assert accountant.remaining_delta >= 0.0
        assert accountant.spent.epsilon <= total + 1e-9


@given(st.lists(small_spends, min_size=1, max_size=8))
def test_charge_many_is_atomic(charges):
    total = sum(epsilon for epsilon, _ in charges)
    tight = PrivacyAccountant(total_epsilon=max(0.0, total - 0.5), total_delta=1.0)
    labelled = [(epsilon, delta, "q") for epsilon, delta in charges]
    if tight.can_afford(total, sum(delta for _, delta in charges)):
        tight.charge_many(labelled)
        assert len(tight) == len(charges)
    else:
        with pytest.raises(BudgetExhaustedError):
            tight.charge_many(labelled)
        assert len(tight) == 0
        assert tight.spent.epsilon == 0.0


@given(st.lists(small_spends, min_size=1, max_size=8))
def test_reservations_compose_with_spends(reservations):
    budget = EndUserBudget.create(4.0, 0.05)
    held: list[tuple[float, float]] = []
    for epsilon, delta in reservations:
        if budget.can_admit(epsilon, delta):
            budget.reserve(epsilon, delta)
            held.append((epsilon, delta))
        else:
            with pytest.raises(BudgetExhaustedError):
                budget.reserve(epsilon, delta)
        # Reservations never exceed what the wallet could actually pay.
        assert budget.reserved_epsilon <= 4.0 + 1e-9
        assert budget.reserved_delta <= 0.05 + 1e-9
    for epsilon, delta in held:
        budget.release(epsilon, delta)
    assert budget.reserved_epsilon == pytest.approx(0.0, abs=1e-12)
    assert budget.reserved_delta == pytest.approx(0.0, abs=1e-12)


def test_charges_never_exceed_admission_bounds():
    # The per-query actual charge is bounded by the full per-query spend the
    # admission check prices with — phase discounts only ever subtract.
    privacy = PrivacyConfig(epsilon=1.0, delta=1e-3)
    budget = split_query_budget(privacy)
    full = budget.epsilon_total
    for summary_hit in (False, True):
        for answer_hit in (False, True):
            from repro.federation.aggregator import Aggregator

            epsilon, delta = Aggregator._query_charge(
                budget, [summary_hit], [answer_hit]
            )
            assert 0.0 <= epsilon <= full + 1e-12
            assert 0.0 <= delta <= budget.delta


# -- cache-key canonicalisation --------------------------------------------------


@given(range_queries(), st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
def test_equal_queries_make_equal_keys(query, epsilon_allocation):
    shuffled = RangeQuery(
        query.aggregation,
        dict(reversed(list(query.ranges.items()))),
        measure=query.measure,
    )
    assert query_fingerprint(shuffled) == query_fingerprint(query)
    assert summary_key(shuffled, epsilon_allocation) == summary_key(
        query, epsilon_allocation
    )
    budget = split_query_budget(PrivacyConfig())
    assert answer_key(shuffled, budget, 5) == answer_key(query, budget, 5)


@given(range_queries(), range_queries())
def test_distinct_predicates_never_collide(a, b):
    same_semantics = a.aggregation == b.aggregation and dict(a.ranges) == dict(
        b.ranges
    )
    assert (query_fingerprint(a) == query_fingerprint(b)) == same_semantics


@given(range_queries())
def test_keys_distinguish_budgets_and_sample_sizes(query):
    assert summary_key(query, 0.1) != summary_key(query, 0.2)
    budget = split_query_budget(PrivacyConfig())
    assert answer_key(query, budget, 5) != answer_key(query, budget, 6)
    other = split_query_budget(PrivacyConfig(epsilon=2.0))
    assert answer_key(query, budget, 5) != answer_key(query, other, 5)


@given(range_queries())
def test_answer_keys_distinguish_delta_watermarks(query):
    budget = split_query_budget(PrivacyConfig())
    assert answer_key(query, budget, 5) == answer_key(
        query, budget, 5, delta_watermark=0
    )
    assert answer_key(query, budget, 5, delta_watermark=3) != answer_key(
        query, budget, 5, delta_watermark=4
    )


# -- ingestion / compaction -------------------------------------------------------

import numpy as np

from repro.ingest import DeltaStore, fold_into_clustered, incremental_eligible
from repro.storage.clustered_table import ClusteredTable
from repro.storage.metadata import build_metadata, patch_metadata
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

INGEST_SCHEMA = Schema((Dimension("d0", 0, 19), Dimension("d1", 0, 9)))


@st.composite
def ingest_tables(draw, min_rows=0, max_rows=48):
    num_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return Table(
        INGEST_SCHEMA,
        {
            "d0": rng.integers(0, 20, num_rows),
            "d1": rng.integers(0, 10, num_rows),
        },
    )


@st.composite
def ingest_boxes(draw):
    d0_low = draw(st.integers(min_value=0, max_value=19))
    d0_high = draw(st.integers(min_value=d0_low, max_value=19))
    d1_low = draw(st.integers(min_value=0, max_value=9))
    d1_high = draw(st.integers(min_value=d1_low, max_value=9))
    which = draw(st.integers(min_value=0, max_value=2))
    if which == 0:
        return RangeQuery.count({"d0": (d0_low, d0_high)})
    if which == 1:
        return RangeQuery.count({"d1": (d1_low, d1_high)})
    return RangeQuery.count({"d0": (d0_low, d0_high), "d1": (d1_low, d1_high)})


@given(
    ingest_tables(),
    st.lists(ingest_tables(max_rows=24), min_size=1, max_size=3),
    st.lists(ingest_boxes(), min_size=1, max_size=4),
    st.sampled_from(["sequential", "sorted"]),
    st.sampled_from([None, "d0", "d1"]),
    st.integers(min_value=1, max_value=9),
)
def test_fold_is_answer_equivalent_to_union_rebuild(
    base, deltas, queries, policy, intra, cluster_size
):
    """merge(compact(deltas)) ≡ ClusteredTable.from_table(all rows)."""
    if not incremental_eligible(policy, None, intra, INGEST_SCHEMA):
        return
    from repro.query.batch import QueryBatch
    from repro.query.executor import ExactExecutor

    clustered = ClusteredTable.from_table(
        base, cluster_size, policy=policy, intra_sort_by=intra
    )
    folded = clustered
    first_affected = clustered.num_clusters
    for delta in deltas:
        folded, first_affected = fold_into_clustered(
            folded,
            delta,
            clustering_policy=policy,
            sort_by=None,
            intra_sort_by=intra,
        )
    union = Table.concat([base] + list(deltas))
    rebuilt = ClusteredTable.from_table(
        union, cluster_size, policy=policy, intra_sort_by=intra
    )
    assert folded.num_clusters == rebuilt.num_clusters
    assert folded.num_rows == rebuilt.num_rows
    batch = QueryBatch(tuple(queries))
    mine = folded.layout().cluster_values(batch)
    theirs = rebuilt.layout().cluster_values(batch)
    assert np.array_equal(mine, theirs)
    # Metadata-driven exact execution agrees too (covering sets included).
    folded_metadata = build_metadata(folded)
    rebuilt_metadata = build_metadata(rebuilt)
    mine_exec = ExactExecutor(folded, folded_metadata).execute_batch(list(queries))
    theirs_exec = ExactExecutor(rebuilt, rebuilt_metadata).execute_batch(list(queries))
    assert [e.value for e in mine_exec] == [e.value for e in theirs_exec]


@given(
    ingest_tables(min_rows=1, max_rows=32),
    st.lists(ingest_tables(min_rows=1, max_rows=16), min_size=2, max_size=4),
    st.integers(min_value=1, max_value=9),
)
def test_patch_metadata_equals_full_rebuild(base, deltas, cluster_size):
    clustered = ClusteredTable.from_table(base, cluster_size)
    store = build_metadata(clustered)
    folded = clustered
    for delta in deltas:
        folded, first_affected = fold_into_clustered(
            folded, delta, clustering_policy="sequential", sort_by=None, intra_sort_by=None
        )
        store = patch_metadata(store, folded, first_affected)
    reference = build_metadata(folded)
    assert store.cluster_ids == reference.cluster_ids
    assert np.array_equal(store.occupancy, reference.occupancy)
    for name in reference.dense_index:
        assert np.array_equal(
            store.dense_index[name].rows_geq, reference.dense_index[name].rows_geq
        )
        assert np.array_equal(
            store.dense_index[name].v_min, reference.dense_index[name].v_min
        )
        assert np.array_equal(
            store.dense_index[name].v_max, reference.dense_index[name].v_max
        )


@given(st.lists(ingest_tables(max_rows=16), min_size=1, max_size=6))
def test_watermarks_are_monotone_until_drained(chunks):
    store = DeltaStore(INGEST_SCHEMA)
    previous = 0
    for chunk in chunks:
        watermark = store.append(chunk)
        assert watermark == previous + chunk.num_rows
        assert watermark >= previous
        previous = watermark
    drained = store.take_all()
    assert drained.num_rows == previous
    assert store.watermark == 0


@given(
    st.lists(
        st.tuples(st.sampled_from(["ingest", "compact", "rebuild"]), ingest_tables(max_rows=12)),
        min_size=1,
        max_size=6,
    )
)
def test_layout_epoch_never_decreases(operations):
    from repro.federation.provider import DataProvider

    provider = DataProvider(
        provider_id="p", table=Table.empty(INGEST_SCHEMA), cluster_size=5, rng=0
    )
    epoch = provider.layout_epoch
    watermark = 0
    for operation, rows in operations:
        if operation == "ingest":
            provider.ingest_rows(rows, auto_compact=False)
            assert provider.delta_watermark == watermark + rows.num_rows
            watermark = provider.delta_watermark
        elif operation == "compact":
            provider.compact()
            watermark = 0
            assert provider.delta_watermark == 0
        else:
            provider.rebuild_layout()
            watermark = 0
        assert provider.layout_epoch >= epoch
        epoch = provider.layout_epoch
    # Every row ever ingested is accounted for: clustered + buffered.
    total = sum(rows.num_rows for op, rows in operations if op == "ingest")
    assert provider.num_rows + provider.delta_watermark == total


# -- fault schedules: budget conservation under chaos -----------------------------

from hypothesis import settings

from repro.config import (
    ResilienceConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.errors import ProtocolError
from repro.service import SessionScheduler, TenantRegistry
from repro.testing import FaultSchedule

CHAOS_SCHEMA = Schema((Dimension("age", 0, 99), Dimension("hours", 0, 49)))

CHAOS_QUERIES = (
    RangeQuery.count({"age": (20, 60)}),
    RangeQuery.count({"hours": (5, 20)}),
    RangeQuery.count({"age": (0, 30), "hours": (0, 15)}),
)


def _chaos_table(rows: int = 600) -> Table:
    rng = np.random.default_rng(321)
    return Table(
        CHAOS_SCHEMA,
        {
            "age": rng.integers(0, 100, rows),
            "hours": np.minimum(49, rng.poisson(12, rows)),
        },
    )


def _chaos_system(backend: str, schedule: FaultSchedule | None) -> FederatedAQPSystem:
    config = SystemConfig(
        num_providers=3,
        seed=11,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2),
        transport=TransportConfig(
            kind="process" if backend == "process" else "inprocess"
        ),
        injected_faults=schedule,
        resilience=ResilienceConfig(enabled=True, max_retries=1, min_providers=1),
    )
    return FederatedAQPSystem.from_table(_chaos_table(), config=config)


def _drain_under_chaos(backend: str, schedule: FaultSchedule | None):
    """Run a two-tenant workload under one fault schedule; return the pieces."""
    system = _chaos_system(backend, schedule)
    registry = TenantRegistry()
    for tenant_id in ("alice", "bob"):
        registry.register(tenant_id, total_epsilon=80.0, total_delta=0.5)
    scheduler = SessionScheduler(system, registry)
    answers = []
    aborted = False
    try:
        for _ in range(2):
            scheduler.submit("alice", list(CHAOS_QUERIES))
            scheduler.submit("bob", list(CHAOS_QUERIES[:2]))
            try:
                answers.extend(scheduler.drain())
            except ProtocolError:
                # Every provider failed the batch: the drain aborts, but the
                # abort path must still settle honestly (asserted below).
                aborted = True
    finally:
        system.close()
    return registry, scheduler, answers, aborted


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_budget_conserved_under_random_fault_schedules(seed):
    """Reserved budget always returns to zero and charges match the ledger,
    whatever faults fire and whether or not the drain survives them."""
    schedule = FaultSchedule.from_seed(
        seed, num_providers=3, num_batches=2, num_faults=3, repeat=2
    )
    registry, scheduler, answers, _ = _drain_under_chaos("serial", schedule)
    charged = {"alice": 0.0, "bob": 0.0}
    for answer in answers:
        charged[answer.tenant_id] += answer.epsilon_charged
        assert answer.epsilon_charged == pytest.approx(
            sum(result.epsilon_spent for result in answer.results)
        )
    for tenant in registry:
        assert tenant.budget.reserved_epsilon == 0.0
        assert tenant.budget.reserved_delta == 0.0
        ledger = scheduler.stats.epsilon_by_tenant.get(tenant.tenant_id, 0.0)
        # Delivered answers account for every debit unless a batch aborted
        # mid-drain, in which case the ledger still equals the wallet debit.
        assert ledger >= charged[tenant.tenant_id] - 1e-9
        assert tenant.remaining_epsilon == pytest.approx(80.0 - ledger)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_answer_phase_faults_leave_survivors_bit_identical(seed):
    """Faults confined to the answer phase never disturb surviving providers:
    their released values match the no-fault run bit for bit (same
    ``seed_material``), because the summary phase — and therefore the coupled
    allocation solve — is identical."""
    schedule = FaultSchedule.from_seed(
        seed,
        num_providers=3,
        num_batches=2,
        num_faults=2,
        phases=("answer",),
        repeat=4,
    )
    _, _, healthy, _ = _drain_under_chaos("serial", None)
    _, _, chaotic, aborted = _drain_under_chaos("serial", schedule)
    assert not aborted  # answer-phase faults degrade, they never abort
    baseline = {}
    for answer in healthy:
        for query_index, result in enumerate(answer.results):
            for release in result.provider_releases:
                key = (answer.tenant_id, answer.submission_id, query_index)
                baseline[key + (release.provider_id,)] = release.released_value
    compared = 0
    for answer in chaotic:
        for query_index, result in enumerate(answer.results):
            for release in result.provider_releases:
                key = (
                    answer.tenant_id,
                    answer.submission_id,
                    query_index,
                    release.provider_id,
                )
                assert result.value == result.value  # NaN guard
                assert release.released_value == baseline[key]
                compared += 1
    assert compared > 0


@pytest.mark.parametrize("backend", ["process"])
def test_budget_conserved_under_chaos_on_parallel_backends(backend):
    """The conservation invariant holds with real worker processes too
    (a fixed seed keeps the expensive process-carrier variant cheap)."""
    schedule = FaultSchedule.from_seed(
        1234, num_providers=3, num_batches=2, num_faults=3, repeat=2
    )
    registry, scheduler, answers, _ = _drain_under_chaos(backend, schedule)
    for tenant in registry:
        assert tenant.budget.reserved_epsilon == 0.0
        assert tenant.budget.reserved_delta == 0.0
        ledger = scheduler.stats.epsilon_by_tenant.get(tenant.tenant_id, 0.0)
        assert tenant.remaining_epsilon == pytest.approx(80.0 - ledger)


# -- weighted-fair admission and work packing -------------------------------------

from repro.federation.partitioning import work_balanced_chunks
from repro.service.scheduler import AdmissionCandidate, plan_weighted_admission


@st.composite
def admission_backlogs(draw):
    """A random multi-tenant backlog: per-tenant priorities and submissions."""
    num_tenants = draw(st.integers(min_value=1, max_value=5))
    backlog = []
    for tenant_index in range(num_tenants):
        tenant_id = f"tenant-{tenant_index}"
        priority = draw(st.integers(min_value=1, max_value=16))
        num_submissions = draw(st.integers(min_value=0, max_value=4))
        for order in range(num_submissions):
            backlog.append(
                AdmissionCandidate(
                    tenant_id=tenant_id,
                    order=order,
                    num_queries=draw(st.integers(min_value=1, max_value=8)),
                    priority_class=priority,
                )
            )
    return backlog


@given(
    backlog=admission_backlogs(),
    max_queries=st.integers(min_value=1, max_value=6),
    starvation_limit=st.integers(min_value=1, max_value=5),
)
def test_weighted_fair_admission_never_starves_beyond_the_limit(
    backlog, max_queries, starvation_limit
):
    """Every submission drains within ``starvation_limit`` eligible drains,
    whatever the priorities, costs, and the per-drain query cap."""
    pending = [(candidate, 0) for candidate in backlog]  # (candidate, age)
    deficits: dict[str, float] = {}
    drained: list[AdmissionCandidate] = []
    rounds = 0
    while pending:
        rounds += 1
        assert rounds <= len(backlog) * starvation_limit + 1, "planner stopped making progress"
        candidates = [
            AdmissionCandidate(
                tenant_id=c.tenant_id,
                order=c.order,
                num_queries=c.num_queries,
                priority_class=c.priority_class,
                drains_skipped=age,
            )
            for c, age in pending
        ]
        picked, forced, deficits = plan_weighted_admission(
            candidates,
            deficits,
            max_queries=max_queries,
            starvation_limit=starvation_limit,
        )
        assert picked, "a non-empty backlog always admits at least one submission"
        assert sorted(set(picked)) == sorted(picked), "no submission admitted twice"
        for index in picked:
            # The starvation bound itself: nothing ever waits K full drains.
            assert candidates[index].drains_skipped <= starvation_limit - 1
            drained.append(pending[index][0])
        chosen = set(picked)
        pending = [
            (candidate, age + 1)
            for index, (candidate, age) in enumerate(pending)
            if index not in chosen
        ]
    # Conservation: everything drained exactly once.
    assert sorted(drained, key=lambda c: (c.tenant_id, c.order)) == sorted(
        backlog, key=lambda c: (c.tenant_id, c.order)
    )


@given(backlog=admission_backlogs())
def test_weighted_fair_admission_is_canonical_within_a_tenant(backlog):
    """Weights reorder tenants against each other, never a tenant against
    itself: each tenant's submissions are always picked oldest-first."""
    candidates = [
        AdmissionCandidate(
            tenant_id=c.tenant_id,
            order=c.order,
            num_queries=c.num_queries,
            priority_class=c.priority_class,
        )
        for c in backlog
    ]
    picked, _forced, carried = plan_weighted_admission(candidates)
    assert len(picked) == len(backlog)
    seen_order: dict[str, int] = {}
    for index in picked:
        candidate = candidates[index]
        assert seen_order.get(candidate.tenant_id, -1) < candidate.order
        seen_order[candidate.tenant_id] = candidate.order
    # Without a cap nothing is left behind, so no deficit carries over.
    assert carried == {}


@given(
    num_items=st.integers(min_value=0, max_value=60),
    cost=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    chunk_size=st.integers(min_value=1, max_value=12),
)
def test_equal_cost_packing_equals_count_chunking(num_items, cost, chunk_size):
    """With uniform per-item cost and budget = k * cost, the work packer is
    exactly count-chunking with chunk size k."""
    items = list(range(num_items))
    chunks = work_balanced_chunks(items, [cost] * num_items, chunk_size * cost)
    expected = [items[i : i + chunk_size] for i in range(0, num_items, chunk_size)]
    assert chunks == expected


@given(
    costs=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=40
    ),
    budget=st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
)
def test_work_packing_conserves_items_and_respects_budget(costs, budget):
    items = list(range(len(costs)))
    chunks = work_balanced_chunks(items, costs, budget)
    assert [item for chunk in chunks for item in chunk] == items
    for chunk in chunks:
        chunk_cost = sum(costs[item] for item in chunk)
        # A chunk either fits the budget or is a single unsplittable item.
        assert chunk_cost <= budget * (1 + 1e-9) or len(chunk) == 1


# -- vectorised allocation ≡ the scalar Equation-6 solver ---------------------------

# Noisy cluster counts as a provider could release them: half-integers probe
# the round-half-to-even rule, negatives and zeros the capacity clamp, and
# the huge magnitudes sit just inside the batch solver's 2**50 domain.
noisy_counts = st.one_of(
    st.floats(min_value=-50.0, max_value=400.0, allow_nan=False),
    st.integers(min_value=-6, max_value=60).map(lambda k: k + 0.5),
    st.sampled_from([0.0, -0.0, 1.0, 2.0**49, -(2.0**49), 1e12]),
)
# Few distinct proportions, so ties in the waterfill order are the norm.
noisy_averages = st.one_of(
    st.sampled_from([-0.25, 0.0, -0.0, 0.125, 0.5, 0.5, 1.0]),
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
)


@st.composite
def summary_matrices(draw):
    providers = draw(st.integers(min_value=1, max_value=6))  # 1: one survivor
    queries = draw(st.integers(min_value=1, max_value=8))
    row = lambda values: st.lists(values, min_size=providers, max_size=providers)
    counts = draw(st.lists(row(noisy_counts), min_size=queries, max_size=queries))
    averages = draw(st.lists(row(noisy_averages), min_size=queries, max_size=queries))
    return counts, averages


@given(
    summary_matrices(),
    # Rates near 0 and 1 clamp the budget at its lower and upper end.
    st.sampled_from([1e-9, 0.01, 0.2, 0.5, 0.99, 1 - 1e-9]),
    st.integers(min_value=1, max_value=3),
)
def test_batch_allocation_equals_scalar_solver_per_query(summaries, rate, floor):
    counts, averages = summaries
    batch = solve_allocation_batch(
        np.array(counts), np.array(averages), rate, min_allocation=floor
    )
    assert batch.dtype == np.int64 and batch.shape == (len(counts), len(counts[0]))
    for row, count_row, average_row in zip(batch.tolist(), counts, averages):
        problems = [
            AllocationProblem(f"p{index}", count, average)
            for index, (count, average) in enumerate(zip(count_row, average_row))
        ]
        scalar = solve_allocation(problems, rate, min_allocation=floor)
        assert row == [result.sample_size for result in scalar]


def test_batch_allocation_rejects_what_the_scalar_solver_rejects():
    ones = np.ones((2, 3))
    for bad_counts in (np.full((2, 3), np.nan), np.full((2, 3), np.inf), ones * 2.0**50):
        with pytest.raises(AllocationError, match="finite"):
            solve_allocation_batch(bad_counts, ones, 0.2)
    with pytest.raises(AllocationError, match="provider"):
        solve_allocation_batch(np.ones((2, 0)), np.ones((2, 0)), 0.2)
    with pytest.raises(AllocationError, match="provider"):
        solve_allocation_batch(ones, np.ones((3, 2)), 0.2)
    with pytest.raises(AllocationError, match="sampling_rate"):
        solve_allocation_batch(ones, ones, 1.0)
    with pytest.raises(AllocationError, match="min_allocation"):
        solve_allocation_batch(ones, ones, 0.2, min_allocation=0)
