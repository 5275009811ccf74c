"""The four workloads of the end-to-end benchmark and their measured loops.

Every workload is one closed loop on one driver thread: the next op is
sent only when the previous one has been answered.  An *op* is what a
client waits for — one ``execute_batch`` call on the three batch
workloads, one tenant submission on ``serve_live``.  Each workload runs a
fixed number of ops (never a fixed duration), so two commits do identical
work and every count repeats exactly.

``--seed`` reaches only the workload generators here (predicates, Zipf
draws, ingest row picks).  The dataset seed and ``SystemConfig.seed`` stay
0, and the program under test receives nothing but the generated
``RangeQuery`` lists and ``Table`` objects.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import struct
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import (
    CacheConfig,
    IngestConfig,
    ServiceConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.experiments.scenarios import adult_scenario, amazon_scenario
from repro.query.model import Aggregation, RangeQuery
from repro.service import SessionScheduler, TenantRegistry
from repro.storage.layout import collect_kernel_telemetry
from repro.storage.table import Table
from repro.workloads.generator import WorkloadGenerator

NOMINAL_SECONDS = 20
"""``--seconds`` value at which a workload runs exactly ``WorkloadSpec.ops``."""

MIN_OPS = 200
"""Floor of the op count, so p95 always has at least ten samples beyond it."""

SETUP_REPS = 5
"""Federation builds (each with its warm-up op) behind the ``setup_s`` median."""

QUERY_DIMENSIONS = 3
POOL_SEED = 0
MIN_SELECTIVITY = 0.02
"""``rel_err_p50`` counts queries whose exact answer is at least this share of
the table's total measure — the figure experiments' acceptance rule.  Below
it the error is DP noise over an almost empty answer, and the median over
all queries sat on the seam between the two populations (18% spread from
seed to seed on ``scan_wide``, against 8% with the rule)."""
ANALYTICS = "a-analytics"
DASHBOARDS = tuple(f"tenant-{index}" for index in range(7))
ZIPF_EXPONENT = 1.2


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizing of one workload; the smoke test shrinks copies of these."""

    name: str
    why: str
    dataset: str
    rows: int
    ops: int
    batch_queries: int
    verify_ops: int
    exact_ops: int
    transport: str = "inprocess"
    serve: bool = False
    # serve_live only: per-round traffic shape.
    dashboard_submissions: int = 6
    wide_pool: int = 512
    narrow_pool: int = 256
    ingest_rows: int = 1000
    max_delta_rows: int = 2048

    @property
    def single_thread(self) -> bool:
        """Whether the whole protocol runs on the driver thread."""
        return self.transport == "inprocess" and not self.serve


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="scan_wide",
            why=(
                "1.6M-row amazon federation, 64 wide queries per batch: row work "
                "in storage.layout dominates, so kernel, tiling and pruning changes "
                "show here and the speed-up over the exact scan is read here"
            ),
            dataset="amazon",
            rows=1_600_000,
            ops=200,
            batch_queries=64,
            verify_ops=24,
            exact_ops=4,
        ),
        WorkloadSpec(
            name="batch_small",
            why=(
                "25k-row adult federation, same code path as scan_wide with the "
                "opposite balance: per-query protocol cost in federation.provider "
                "dominates, so DP-math, allocation and accounting changes show here"
            ),
            dataset="adult",
            rows=25_000,
            ops=500,
            batch_queries=64,
            verify_ops=160,
            exact_ops=40,
        ),
        WorkloadSpec(
            name="wire_socket",
            why=(
                "100k-row adult federation behind the TCP socket transport: the only "
                "workload where federation.transport (codec plus socket wait) does "
                "most of the work; the in-process workloads send zero frames"
            ),
            dataset="adult",
            rows=100_000,
            ops=400,
            batch_queries=16,
            verify_ops=400,
            exact_ops=100,
            transport="socket",
        ),
        WorkloadSpec(
            name="serve_live",
            why=(
                "8 tenants through SessionScheduler, release cache on, ingest and "
                "compaction between drains: writes beside reads, repeated predicates and "
                "tiny submissions stress metadata, cache, scheduler and ingest"
            ),
            dataset="adult",
            rows=100_000,
            ops=200,
            batch_queries=48,
            verify_ops=8,
            exact_ops=4,
            serve=True,
        ),
    )
}


def ops_for(spec: WorkloadSpec, seconds: float) -> int:
    """The fixed op count a ``--seconds`` budget maps to (a pure function)."""
    return max(MIN_OPS, round(spec.ops * seconds / NOMINAL_SECONDS))


# -- inputs ---------------------------------------------------------------------


@dataclass(frozen=True)
class ServeRound:
    """One ``serve_live`` round: the submissions in arrival order, then the
    rows ingested after the query drain."""

    analytics: tuple[RangeQuery, ...]
    dashboards: tuple[tuple[str, RangeQuery], ...]
    ingest: Table

    @property
    def queries(self) -> list[RangeQuery]:
        return [*self.analytics, *(query for _, query in self.dashboards)]


@dataclass
class Inputs:
    """Everything a run needs, made from ``(spec, seed, ops)`` alone."""

    tensor: Table
    config: SystemConfig
    dataset_gen_s: float
    warmup: object
    ops: list
    verify: list = field(default_factory=list)


def make_inputs(spec: WorkloadSpec, seed: int, ops: int) -> Inputs:
    """Generate the dataset (seed 0) and the seed-dependent op inputs."""
    started = time.perf_counter()
    scenario_factory = amazon_scenario if spec.dataset == "amazon" else adult_scenario
    scenario = scenario_factory(num_rows=spec.rows, seed=0)
    dataset_gen_s = time.perf_counter() - started
    tensor = scenario.tensor
    config = replace(
        scenario.system.config,
        transport=TransportConfig(kind=spec.transport),
        cache=CacheConfig(enabled=spec.serve),
        ingest=(
            IngestConfig(auto_compact=True, max_delta_rows=spec.max_delta_rows)
            if spec.serve
            else IngestConfig()
        ),
    )
    if not spec.serve:
        wide = scenario.workload_generator(seed)
        batches = [
            list(wide.generate(spec.batch_queries, QUERY_DIMENSIONS, Aggregation.COUNT))
            for _ in range(ops + 1)
        ]
        return Inputs(tensor, config, dataset_gen_s, batches[0], batches[1:])
    # The predicate pools are the service's fixed population (the panels its
    # dashboards show), generated from POOL_SEED like the dataset; ``seed``
    # draws which of them arrive when, and which rows are ingested.  A Zipf
    # head drawn afresh per seed would make every seed a different service:
    # dashboard latency moved 36% from seed to seed that way.
    # Dashboards probe the tensor's leading dimension: with sequential
    # clustering a narrow range there touches a handful of clusters, a
    # genuine point lookup next to the wide analytics scans.
    narrow = WorkloadGenerator(
        schema=tensor.schema,
        dimensions=scenario.queryable_dimensions[:1],
        min_coverage=0.02,
        max_coverage=0.08,
        rng=np.random.default_rng([POOL_SEED, 1]),
    )
    wide = scenario.workload_generator(POOL_SEED)
    wide_pool = list(wide.generate(spec.wide_pool, QUERY_DIMENSIONS, Aggregation.COUNT))
    narrow_pool = list(narrow.generate(spec.narrow_pool, 1, Aggregation.COUNT))
    draws = np.random.default_rng(seed)

    def zipf(pool: list[RangeQuery], size: int) -> list[RangeQuery]:
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_EXPONENT
        picks = draws.choice(len(pool), size=size, p=weights / weights.sum())
        return [pool[int(pick)] for pick in picks]

    def interleaved(cheap: list[RangeQuery]) -> tuple[tuple[str, RangeQuery], ...]:
        # Dashboards submit round-robin, interleaved, one query each.
        return tuple(
            (DASHBOARDS[position % len(DASHBOARDS)], query)
            for position, query in enumerate(cheap)
        )

    def one_round() -> ServeRound:
        analytics = tuple(zipf(wide_pool, spec.batch_queries))
        cheap = zipf(narrow_pool, spec.dashboard_submissions * len(DASHBOARDS))
        rows = tensor.take(draws.integers(0, tensor.num_rows, spec.ingest_rows))
        return ServeRound(analytics, interleaved(cheap), rows)

    rounds = [one_round() for _ in range(1 + ops)]
    # Verification asks every pool query once, query-only, after the
    # measured rounds: accuracy over the whole population, not its head.
    verify = [
        ServeRound(
            tuple(wide_pool[index :: spec.verify_ops]),
            interleaved(narrow_pool[index :: spec.verify_ops]),
            tensor.slice(0, 0),
        )
        for index in range(spec.verify_ops)
    ]
    return Inputs(tensor, config, dataset_gen_s, rounds[0], rounds[1:], verify)


# -- results --------------------------------------------------------------------


@dataclass
class RunResult:
    """What one run of one workload measured."""

    workload: str
    ops: int
    attempted: int = 0
    failed: int = 0
    queries: int = 0
    wall_s: float = 0.0
    answers_digest: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    # Per-op material the verification and the layer analysis read; never
    # printed or recorded.
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def _ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else float("nan")


def _reset_peak_rss() -> bool:
    """Restart the kernel's resident-set high-water mark (Linux only).

    Dataset generation peaks far above the federation's own footprint
    (410 MB against 270 MB on ``scan_wide``), so without the reset
    ``peak_rss_mb`` would measure the generator, not the system.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb(reset_worked: bool) -> float:
    if reset_worked:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Digest:
    """sha256 over every answered query's ``(value, epsilon_charged)``."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add_results(self, results) -> None:
        for result in results:
            self._hash.update(struct.pack("<dd", result.value, result.epsilon_spent))

    def add_answer(self, answer) -> None:
        self._hash.update(answer.tenant_id.encode())
        self._hash.update(struct.pack("<q", answer.submission_id))
        self.add_results(answer.results)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _oracle_counts(table: Table, query_sets) -> list[list[int]]:
    """Exact COUNT answers read straight off one unpartitioned table.

    The benchmark's own truth, independent of the program's exact baseline
    and about 8x cheaper than it on 1.6M rows, so ``rel_err_p50`` can
    afford the 1000+ queries it needs to be steady from seed to seed.
    """
    columns = {}
    for dimension in table.schema.dimensions:
        small = -(2**15) <= dimension.low and dimension.high < 2**15
        columns[dimension.name] = table.columns[dimension.name].astype(
            np.int16 if small else np.int64
        )
    measure = table.measure_column()
    counts = []
    for queries in query_sets:
        row = []
        for query in queries:
            mask = np.ones(table.num_rows, dtype=bool)
            for name, (low, high) in query.range_tuples().items():
                mask &= (columns[name] >= low) & (columns[name] <= high)
            row.append(int(measure[mask].sum()))
        counts.append(row)
    return counts


def _verify(out, system, table, query_sets, values, op_seconds, exact_ops) -> None:
    """Accuracy and the paper's speed-up, after the measured phase.

    ``rel_err_p50`` compares the answers ``values`` of every query set with
    the oracle.  ``speedup_vs_exact`` times the program's own exact baseline
    over the first ``exact_ops`` sets against ``op_seconds``, what the
    private protocol took for those same sets; the baseline must agree
    with the oracle.
    """
    truth = _oracle_counts(table, query_sets)
    floor = max(1.0, MIN_SELECTIVITY * table.total_measure())
    errors = [
        abs(value - exact) / exact
        for answers, exacts in zip(values, truth)
        for value, exact in zip(answers, exacts)
        if exact >= floor
    ]
    out.metrics["rel_err_p50"] = statistics.median(errors) if errors else float("nan")
    out.samples["rel_err_p50"] = len(errors)
    exact_s: list[float] = []
    agree = True
    for queries, exacts in zip(query_sets[:exact_ops], truth):
        started = time.perf_counter()
        baselines = system.exact_baseline_batch(queries)
        exact_s.append(time.perf_counter() - started)
        agree = agree and [base.value for base in baselines] == exacts
    out.checks["exact_equals_oracle"] = agree
    out.metrics["speedup_vs_exact"] = statistics.median(exact_s) / statistics.median(
        op_seconds[: len(exact_s)]
    )
    out.samples["speedup_vs_exact"] = len(exact_s)


# -- the run --------------------------------------------------------------------


class _Deployment:
    """One built federation (plus scheduler on ``serve_live``)."""

    def __init__(self, spec: WorkloadSpec, inputs: Inputs) -> None:
        self.system = FederatedAQPSystem.from_table(inputs.tensor, config=inputs.config)
        self.scheduler: SessionScheduler | None = None
        if spec.serve:
            # Constructing the registry and scheduler opens nothing, so the
            # system above is the only resource close() has to release.
            registry = TenantRegistry()
            registry.register(ANALYTICS, total_epsilon=1e9, priority_class=1)
            for tenant_id in DASHBOARDS:
                registry.register(tenant_id, total_epsilon=1e9, priority_class=8)
            self.scheduler = SessionScheduler(
                self.system,
                registry,
                config=ServiceConfig(
                    max_pending=4096, drain_time_budget_ms=25.0, overlap_phases=True
                ),
            )

    def close(self) -> None:
        self.system.close()


def _serve_queries(scheduler: SessionScheduler, round_: ServeRound):
    """Submit one round's query traffic and drain it.

    Returns ``(receipts, answers, drain seconds)``.
    """
    receipts = [scheduler.submit(ANALYTICS, round_.analytics)]
    receipts.extend(
        scheduler.submit(tenant_id, [query]) for tenant_id, query in round_.dashboards
    )
    started = time.perf_counter()
    answers = scheduler.drain()
    return receipts, answers, time.perf_counter() - started


def _serve_ingest(scheduler: SessionScheduler, rows: Table) -> float:
    started = time.perf_counter()
    scheduler.submit_ingest(rows)
    scheduler.drain()
    return time.perf_counter() - started


def _warm_up(spec: WorkloadSpec, deployment: _Deployment, inputs: Inputs) -> None:
    if spec.serve:
        _serve_queries(deployment.scheduler, inputs.warmup)
        _serve_ingest(deployment.scheduler, inputs.warmup.ingest)
    else:
        deployment.system.execute_batch(inputs.warmup, compute_exact=False)


def _set_up(spec: WorkloadSpec, inputs: Inputs, reps: int):
    """Build the federation ``reps`` times; keep the last one.

    Returns ``(deployment, setup seconds per rep, build seconds per rep)``;
    a setup sample is the build plus the warm-up op.
    """
    setup_s: list[float] = []
    build_s: list[float] = []
    deployment = None
    for _ in range(reps):
        if deployment is not None:
            deployment.close()
            deployment = None
            gc.collect()
        started = time.perf_counter()
        deployment = _Deployment(spec, inputs)
        try:
            built = time.perf_counter()
            _warm_up(spec, deployment, inputs)
        except BaseException:
            deployment.close()
            raise
        setup_s.append(time.perf_counter() - started)
        build_s.append(built - started)
    return deployment, setup_s, build_s


def run_workload(
    spec: WorkloadSpec,
    inputs: Inputs,
    *,
    setup_reps: int = SETUP_REPS,
    recorder=None,
) -> RunResult:
    """Set up, run the measured phase, verify, and tear down.

    With a ``recorder`` (see :mod:`layers`) the wrappers are installed
    around the measured phase only and removed before verification, so the
    set-up, the exact baselines and every untraced run use pristine classes.
    """
    reset_worked = _reset_peak_rss()
    deployment, setup_s, build_s = _set_up(spec, inputs, setup_reps)
    try:
        telemetry_scope = (
            collect_kernel_telemetry()
            if recorder is not None and spec.single_thread
            else nullcontext()
        )
        with telemetry_scope as telemetry:
            with recorder.installed() if recorder is not None else nullcontext():
                phase = (_measure_serve if spec.serve else _measure_batches)(
                    spec, deployment, inputs, recorder
                )
        phase.metrics["peak_rss_mb"] = _peak_rss_mb(reset_worked)
        if telemetry is not None:
            phase.counters.update(
                {f"kernel.{name}": value for name, value in telemetry.as_dict().items()
                 if isinstance(value, int)}
            )
        (_verify_serve if spec.serve else _verify_batches)(spec, deployment, inputs, phase)
    finally:
        deployment.close()
    phase.metrics["setup_s"] = statistics.median(setup_s)
    if not spec.serve:
        # No ingest runs on the batch workloads; the rows they load per
        # second of federation build is the write rate a user of them sees.
        phase.metrics["ingest_rows_per_s"] = inputs.tensor.num_rows / statistics.median(
            build_s
        )
    phase.info["dataset_gen_s"] = inputs.dataset_gen_s
    phase.info["failed_frac"] = phase.failed / phase.attempted
    return phase


def _wire_bytes(system: FederatedAQPSystem) -> int:
    """Protocol bytes so far: real framed bytes where there is a wire, the
    simulated network's message bytes where there is none (never zero)."""
    if system.config.transport.kind == "inprocess":
        return system.aggregator.network.stats.query_bytes_sent
    return system.transport_stats().bytes_sent


def _add_work(counters: dict, results) -> None:
    """Fold the answers' ``ExecutionTrace`` work counts into ``counters``."""
    for result in results:
        for name in ("clusters_scanned", "rows_scanned", "rows_available"):
            counters[name] = counters.get(name, 0) + getattr(result.trace, name)


def _measure_batches(spec, deployment, inputs, recorder) -> RunResult:
    system = deployment.system
    out = RunResult(spec.name, len(inputs.ops))
    digest = _Digest()
    latencies: list[float] = []
    answered: list[list[tuple[float, float]]] = []
    epsilon = 0.0
    bytes_before = _wire_bytes(system)
    wire_before = system.transport_stats()
    started = time.perf_counter()
    for index, batch in enumerate(inputs.ops):
        if recorder is not None:
            recorder.op = index
        out.attempted += 1
        op_started = time.perf_counter()
        try:
            results = system.execute_batch(batch, compute_exact=False).results
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            out.failed += 1
            out.errors.append(f"op {index}: {error!r}")
            answered.append([])
            continue
        latencies.append(time.perf_counter() - op_started)
        if len(results) != len(batch) or any(result.degraded for result in results):
            out.failed += 1
        answered.append([(result.value, result.epsilon_spent) for result in results])
        out.queries += len(results)
        epsilon += sum(result.epsilon_spent for result in results)
        digest.add_results(results)
        if recorder is not None:
            _add_work(out.counters, results)
    out.wall_s = time.perf_counter() - started
    out.answers_digest = digest.hexdigest()
    out.metrics.update(
        qps=out.queries / out.wall_s,
        latency_p50_ms=_ms(latencies, 50),
        latency_p95_ms=_ms(latencies, 95),
        # One op is one round of client work here, so the round time a
        # serve_live drain measures is the op latency.
        drain_p50_ms=_ms(latencies, 50),
        epsilon_per_query=epsilon / max(out.queries, 1),
        wire_bytes_per_query=(_wire_bytes(system) - bytes_before) / max(out.queries, 1),
    )
    out.samples.update(latency_p50_ms=len(latencies), latency_p95_ms=len(latencies),
                       drain_p50_ms=len(latencies))
    # The cache is off: every query is charged exactly its full epsilon.
    out.checks["epsilon_exact"] = bool(
        np.isclose(epsilon, out.queries * system.config.privacy.epsilon, rtol=1e-9)
    )
    wire = system.transport_stats()
    out.counters.update(
        frames=wire.messages - wire_before.messages,
        wire_bytes=wire.bytes_sent - wire_before.bytes_sent,
        retries=wire.messages_retried - wire_before.messages_retried,
        metadata_bytes=system.metadata_size_bytes(),
        total_rows=system.total_rows,
    )
    out.detail.update(answered=answered, latencies=latencies)
    return out


def _verify_batches(spec, deployment, inputs, out: RunResult) -> None:
    """Verify the first ``verify_ops`` measured batches (no op failed, or the
    run is already incorrect, so the first latencies belong to them)."""
    answered, latencies = out.detail["answered"], out.detail["latencies"]
    count = min(spec.verify_ops, len(inputs.ops))
    _verify(
        out,
        deployment.system,
        inputs.tensor,
        inputs.ops[:count],
        [[value for value, _ in answers] for answers in answered[:count]],
        latencies,
        spec.exact_ops,
    )
    if spec.transport != "inprocess":
        out.checks["wire_equals_inprocess"] = _replay_in_process(inputs, answered[:5])


def _replay_in_process(inputs: Inputs, expected) -> bool:
    """The same first batches on a fresh in-process federation must give the
    same values and charges, bit for bit, as they did over the wire."""
    config = replace(inputs.config, transport=TransportConfig())
    with FederatedAQPSystem.from_table(inputs.tensor, config=config) as system:
        system.execute_batch(inputs.warmup, compute_exact=False)
        replayed = [
            [
                (result.value, result.epsilon_spent)
                for result in system.execute_batch(batch, compute_exact=False).results
            ]
            for batch in inputs.ops[: len(expected)]
        ]
    return replayed == expected


def _measure_serve(spec, deployment, inputs, recorder) -> RunResult:
    system, scheduler = deployment.system, deployment.scheduler
    out = RunResult(spec.name, len(inputs.ops))
    digest = _Digest()
    dashboard_s: list[float] = []
    drain_s: list[float] = []
    ingest_s: list[float] = []
    delta_rows: list[int] = []
    # Per traced round, the answers' (tenant, queries) in the order the drain
    # returned them: what layers.py maps submissions to chunks with.
    drained: dict[int, list[tuple[str, int]]] = out.detail.setdefault("drained", {})
    epsilon = 0.0
    rows_submitted = 0
    stats = scheduler.stats
    before = dict(
        bytes=_wire_bytes(system),
        rows_ingested=stats.rows_ingested,
        compactions=stats.compactions,
        batches=stats.batches_dispatched,
        rejected=stats.submissions_rejected,
        deferred=stats.submissions_deferred,
        cache=system.cache_stats(),
    )
    started = time.perf_counter()
    for index, round_ in enumerate(inputs.ops):
        if recorder is not None:
            recorder.op = index
            delta_rows.append(system.total_delta_rows)
        submissions = 1 + len(round_.dashboards)
        out.attempted += submissions
        try:
            receipts, answers, seconds = _serve_queries(scheduler, round_)
        except Exception as error:  # noqa: BLE001 - a failed round fails its submissions
            out.failed += submissions
            out.errors.append(f"round {index} queries: {error!r}")
            continue
        drain_s.append(seconds)
        expected = {
            receipt.submission_id: receipt.num_queries
            for receipt in receipts
            if receipt.status == "queued"
        }
        good = 0
        for answer in sorted(answers, key=lambda a: (a.tenant_id, a.submission_id)):
            if expected.get(answer.submission_id) == answer.num_queries and not answer.degraded:
                good += 1
            if answer.tenant_id != ANALYTICS:
                dashboard_s.append(answer.latency_seconds)
            out.queries += answer.num_queries
            epsilon += answer.epsilon_charged
            digest.add_answer(answer)
        out.failed += submissions - good
        if recorder is not None:
            drained[index] = [(answer.tenant_id, answer.num_queries) for answer in answers]
            _add_work(out.counters, (r for answer in answers for r in answer.results))
        try:
            ingest_s.append(_serve_ingest(scheduler, round_.ingest))
            rows_submitted += round_.ingest.num_rows
        except Exception as error:  # noqa: BLE001 - fails the ingested-rows check
            out.errors.append(f"round {index} ingest: {error!r}")
    out.wall_s = time.perf_counter() - started
    out.answers_digest = digest.hexdigest()
    rows_ingested = stats.rows_ingested - before["rows_ingested"]
    out.metrics.update(
        qps=out.queries / out.wall_s,
        latency_p50_ms=_ms(dashboard_s, 50),
        latency_p95_ms=_ms(dashboard_s, 95),
        drain_p50_ms=_ms(drain_s, 50),
        ingest_rows_per_s=rows_ingested / sum(ingest_s) if ingest_s else float("nan"),
        epsilon_per_query=epsilon / max(out.queries, 1),
        wire_bytes_per_query=(_wire_bytes(system) - before["bytes"]) / max(out.queries, 1),
    )
    out.samples.update(
        latency_p50_ms=len(dashboard_s),
        latency_p95_ms=len(dashboard_s),
        drain_p50_ms=len(drain_s),
        ingest_rows_per_s=len(ingest_s),
    )
    out.checks["all_rows_ingested"] = rows_ingested == rows_submitted == sum(
        round_.ingest.num_rows for round_ in inputs.ops
    )
    out.checks["nothing_pending"] = (
        scheduler.num_pending == 0
        and scheduler.num_deferred == 0
        and scheduler.num_pending_ingest == 0
    )
    cache, cache_before = system.cache_stats(), before["cache"]

    def evictions(stats) -> int:
        return stats.evicted_capacity + stats.evicted_expired + stats.evicted_stale

    out.counters.update(
        metadata_bytes=system.metadata_size_bytes(),
        total_rows=system.total_rows,
        compactions=stats.compactions - before["compactions"],
        chunks=stats.batches_dispatched - before["batches"],
        query_drains=len(drain_s),
        rejected=stats.submissions_rejected - before["rejected"],
        deferred=stats.submissions_deferred - before["deferred"],
        cost_prediction_error=stats.cost_prediction_error,
        cache_lookups=cache.lookups - cache_before.lookups,
        cache_hits=cache.hits - cache_before.hits,
        cache_evictions=evictions(cache) - evictions(cache_before),
        epsilon_charged=epsilon,
        epsilon_full_price=out.queries * system.config.privacy.epsilon,
        delta_rows_p50=statistics.median(delta_rows) if delta_rows else 0,
        ingest_rounds=len(ingest_s),
    )
    return out


def _verify_serve(spec, deployment, inputs, out: RunResult) -> None:
    """Query-only rounds over the whole predicate population on the final
    table, which by now holds every ingested row (so the oracle agreeing
    with the program's exact baseline also shows that no row was lost)."""
    drain_s: list[float] = []
    values: list[list[float]] = []
    for round_ in inputs.verify:
        receipts, answers, seconds = _serve_queries(deployment.scheduler, round_)
        drain_s.append(seconds)
        by_id = {answer.submission_id: answer for answer in answers}
        values.append(
            [value for receipt in receipts for value in by_id[receipt.submission_id].values]
        )
    table = Table.concat(
        [inputs.tensor, inputs.warmup.ingest, *(round_.ingest for round_ in inputs.ops)]
    )
    _verify(
        out,
        deployment.system,
        table,
        [round_.queries for round_ in inputs.verify],
        values,
        drain_s,
        spec.exact_ops,
    )
