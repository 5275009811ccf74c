"""Outside-in per-layer time budget: wrappers, spans, self time, layer metrics.

Layers are this repo's module names.  :class:`SpanRecorder` replaces the
public entry points of each layer (class or module attributes, listed in
:data:`TARGETS`) with wrappers that record one span per call into an
in-memory list; :meth:`SpanRecorder.installed` removes them again, so the
untraced runs execute pristine classes.  Nothing under ``src/`` is edited.

Self time
---------
A span's parent is the wrapper enclosing it on its own thread.  A span with
no such parent that starts while a *waiter* span (``SessionScheduler.drain``,
or a serializing transport's rpc) is open on another thread is adopted by
that waiter: the dispatcher's chunk work hangs under the drain that waits
for it, the socket server's work under the client rpc blocked on the reply.

* **self time** = the span's duration minus the union of the intervals its
  children (same-thread and adopted) cover — a drain is not billed for the
  work it waited on;
* **wait** (waiters only) = the part covered by adopted children but by no
  same-thread child: time spent blocked on the other thread.

Summed over all spans, self time counts every instant once per thread that
was busy in a leaf span, so ``sum(self) / wall`` exceeds the covered share
of the wall exactly by the time two threads were busy at once
(``budget.overlap_frac``).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


def _queries_argument(args, result) -> int:
    return len(args[1])


def _covering_total(args, result) -> int:
    return sum(len(positions) for positions in result)


# (layer, owner, attribute names, count callback).  An owner is
# "module:Class" or a bare module whose attribute is replaced.
TARGETS = (
    ("storage.layout", "repro.storage.layout:ClusterLayout",
     ("query_cluster_values", "cluster_values", "row_masks", "gather", "patched"), None),
    ("storage.metadata", "repro.storage.metadata:MetadataStore",
     ("covering_positions_batch",), _covering_total),
    ("storage.metadata", "repro.storage.metadata:MetadataStore",
     ("proportions_at_positions_batch", "covering_cluster_ids_batch",
      "proportions_batch", "cost_stats_batch"), None),
    # provider.py binds patch_metadata by name at import, so the name is
    # replaced where it is looked up.
    ("storage.metadata", "repro.federation.provider", ("patch_metadata",), None),
    ("federation.provider", "repro.federation.provider:DataProvider",
     ("prepare_summary_batch", "answer_batch", "forget_batch", "cost_stats_batch"), None),
    ("federation.aggregator", "repro.federation.aggregator:Aggregator",
     ("begin_batch", "collect_batch", "settle_batch", "plan_reuse", "ingest"), None),
    ("federation.transport", "repro.federation.transport",
     ("serialize", "deserialize", "encode_frame"), None),
    ("federation.transport", "repro.federation.transport:FrameDecoder", ("feed",), None),
    ("federation.transport", "repro.federation.transport:_SerializingTransport",
     ("summary_batch", "answer_batch", "forget_batch"), None),
    ("core.system", "repro.core.system:FederatedAQPSystem",
     ("execute_batch", "begin_batch"), _queries_argument),
    ("core.system", "repro.core.system:FederatedAQPSystem", ("ingest",), None),
    ("core.system", "repro.core.system:PhasedExecution", ("collect", "settle"), None),
    ("service.scheduler", "repro.service.scheduler:SessionScheduler",
     ("submit", "submit_ingest", "drain"), None),
    ("cache.store", "repro.cache.store:ReleaseCache",
     ("get", "peek", "put", "rekey_epoch"), None),
    ("ingest", "repro.federation.provider:DataProvider", ("ingest_rows", "compact"), None),
    ("ingest", "repro.ingest.delta:DeltaStore", ("query_values",), None),
)

LAYERS = tuple(dict.fromkeys(target[0] for target in TARGETS))

CODEC = ("serialize", "deserialize", "encode_frame", "feed")
RPC = ("summary_batch", "answer_batch", "forget_batch")
# Spans that block on work another thread does for them.
WAITERS = {("service.scheduler", "drain"), *(("federation.transport", name) for name in RPC)}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class SpanRecorder:
    """Records one span per call into the wrapped layer entry points."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.op = -1
        self._local = threading.local()

    def _wrap(self, layer: str, name: str, function, count):
        records = self.records
        local = self._local
        clock = time.perf_counter
        thread_id = threading.get_ident

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            # [layer, name, thread, start, end, parent record, op, count]
            record = [layer, name, thread_id(), 0.0, 0.0,
                      stack[-1] if stack else None, self.op, 0]
            records.append(record)
            stack.append(record)
            record[3] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if count is not None:
                record[7] = count(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        originals = []
        try:
            for layer, owner_path, names, count in TARGETS:
                owner = _resolve(owner_path)
                for name in names:
                    original = vars(owner)[name]
                    originals.append((owner, name, original))
                    if isinstance(original, (classmethod, staticmethod)):
                        wrapped = type(original)(
                            self._wrap(layer, name, original.__func__, count)
                        )
                    else:
                        wrapped = self._wrap(layer, name, original, count)
                    setattr(owner, name, wrapped)
            yield self
        finally:
            for owner, name, original in reversed(originals):
                setattr(owner, name, original)

    def spans(self) -> list["Span"]:
        index_of = {id(record): index for index, record in enumerate(self.records)}
        return [
            Span(layer, name, thread, start, end,
                 None if parent is None else index_of[id(parent)], op, count)
            for layer, name, thread, start, end, parent, op, count in self.records
        ]


@dataclass
class Span:
    layer: str
    name: str
    thread: int
    start: float
    end: float
    parent: int | None
    op: int
    count: int = 0
    adopted: bool = False
    self_s: float = 0.0
    wait_s: float = 0.0


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span (its list position is the id ``parent`` names)."""
    with open(path, "w") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def attribute(spans: list[Span]) -> None:
    """Adopt cross-thread roots and fill in every span's self and wait time."""
    waiters = sorted(
        (index for index, span in enumerate(spans) if (span.layer, span.name) in WAITERS),
        key=lambda index: spans[index].start,
    )
    waiter_starts = [spans[index].start for index in waiters]
    for span in spans:
        if span.parent is not None:
            continue
        # Innermost waiter on another thread that was open when this root began.
        position = bisect.bisect_right(waiter_starts, span.start)
        for candidate in reversed(waiters[max(0, position - 8):position]):
            waiter = spans[candidate]
            if waiter.thread != span.thread and waiter.end > span.start:
                span.parent, span.adopted = candidate, True
                break
    own: dict[int, list[tuple[float, float]]] = defaultdict(list)
    foreign: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is None:
            continue
        parent = spans[span.parent]
        interval = (max(span.start, parent.start), min(span.end, parent.end))
        if interval[1] > interval[0]:
            (foreign if span.adopted else own)[span.parent].append(interval)
    for index, span in enumerate(spans):
        own_covered = _union_length(own[index])
        covered = _union_length(own[index] + foreign[index]) if foreign[index] else own_covered
        span.self_s = (span.end - span.start) - covered
        span.wait_s = covered - own_covered


# -- the per-layer metrics -------------------------------------------------------

PER_LAYER = (
    ("storage.layout.self_ms_per_op", "ms", "lower"),
    ("storage.layout.calls_per_op", "count", "lower"),
    ("storage.layout.rows_evaluated_per_query", "rows", "lower"),
    ("storage.layout.pairs_scanned_per_query", "count", "lower"),
    ("storage.layout.pairs_pruned_frac", "fraction", "higher"),
    ("storage.layout.pairs_covered_frac", "fraction", "higher"),
    ("storage.layout.pairs_bisected_frac", "fraction", "higher"),
    ("storage.layout.max_tile_bytes", "bytes", "lower"),
    ("storage.metadata.self_ms_per_op", "ms", "lower"),
    ("storage.metadata.calls_per_op", "count", "lower"),
    ("storage.metadata.covering_clusters_per_query", "count", "lower"),
    ("storage.metadata.bytes_per_row", "bytes", "lower"),
    ("federation.provider.summary_self_ms_per_op", "ms", "lower"),
    ("federation.provider.answer_self_ms_per_op", "ms", "lower"),
    ("federation.provider.forget_self_ms_per_op", "ms", "lower"),
    ("federation.provider.clusters_sampled_per_query", "count", "lower"),
    ("federation.provider.rows_scanned_frac", "fraction", "lower"),
    ("federation.aggregator.begin_self_ms_per_op", "ms", "lower"),
    ("federation.aggregator.collect_self_ms_per_op", "ms", "lower"),
    ("federation.aggregator.settle_self_ms_per_op", "ms", "lower"),
    ("federation.transport.codec_self_ms_per_op", "ms", "lower"),
    ("federation.transport.rpc_wait_ms_per_op", "ms", "lower"),
    ("federation.transport.frames_per_op", "count", "lower"),
    ("federation.transport.bytes_per_query", "bytes", "lower"),
    ("federation.transport.retries", "count", "lower"),
    ("core.system.self_ms_per_op", "ms", "lower"),
    ("service.scheduler.submit_self_ms_per_submission", "ms", "lower"),
    ("service.scheduler.drain_self_ms_per_drain", "ms", "lower"),
    ("service.scheduler.drain_wait_ms_per_drain", "ms", "lower"),
    ("service.scheduler.chunks_per_drain", "count", "lower"),
    ("service.scheduler.queue_wait_p50_ms", "ms", "lower"),
    ("service.scheduler.cost_prediction_error", "fraction", "lower"),
    ("service.scheduler.rejected", "count", "lower"),
    ("service.scheduler.deferred", "count", "lower"),
    ("cache.store.self_ms_per_op", "ms", "lower"),
    ("cache.store.lookups_per_query", "count", "lower"),
    ("cache.store.hit_rate", "fraction", "higher"),
    ("cache.store.evictions", "count", "lower"),
    ("cache.store.epsilon_saved_frac", "fraction", "higher"),
    ("ingest.ingest_self_ms_per_round", "ms", "lower"),
    ("ingest.compact_self_ms_per_compaction", "ms", "lower"),
    ("ingest.delta_query_self_ms_per_op", "ms", "lower"),
    ("ingest.compactions", "count", "lower"),
    ("ingest.delta_rows_at_query_p50", "rows", "lower"),
    ("budget.layer_sum_frac", "fraction", "higher"),
    ("budget.unattributed_frac", "fraction", "lower"),
    ("budget.overlap_frac", "fraction", "higher"),
    ("budget.tracing_overhead_frac", "fraction", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _queue_waits(spans: list[Span], drained: dict) -> list[float]:
    """Seconds each dashboard submission queued inside its drain before the
    chunk holding its first query began on the dispatcher.

    Reconstructed from outside: a drain returns its answers in the order it
    flattened the submissions into chunks, and every chunk's span carries
    its query count.
    """
    by_op: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.layer in ("core.system", "service.scheduler"):
            by_op[span.op].append(span)
    waits: list[float] = []
    for op, answers in drained.items():
        drain = min(
            (s for s in by_op[op] if s.name == "drain"), key=lambda s: s.start, default=None
        )
        chunks = sorted(
            (s for s in by_op[op] if s.name in ("begin_batch", "execute_batch") and s.count),
            key=lambda s: s.start,
        )
        if drain is None or not chunks:
            continue
        ends = []
        total = 0
        for chunk in chunks:
            total += chunk.count
            ends.append(total)
        offset = 0
        for tenant_id, num_queries in answers:
            chunk = chunks[min(bisect.bisect_right(ends, offset), len(chunks) - 1)]
            if not tenant_id.startswith("a-"):
                waits.append(max(0.0, chunk.start - drain.start))
            offset += num_queries
    return waits


def layer_metrics(spans: list[Span], result, reference_qps: float):
    """Every ``PER_LAYER`` metric of one traced run, plus the layer table.

    ``result`` is the traced :class:`workloads.RunResult`; ``per_op``
    divides by the driver's loop iterations — batches, or rounds on
    ``serve_live``.  Returns ``(metrics, table)`` where ``table`` maps each
    layer to its self milliseconds per op and its share of the traced wall.
    """
    ops = max(result.ops, 1)
    queries = max(result.queries, 1)
    counters = defaultdict(float, result.counters)
    self_ms: dict[tuple[str, str], float] = defaultdict(float)
    wait_ms: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    covering = 0
    for span in spans:
        key = (span.layer, span.name)
        self_ms[key] += span.self_s * 1e3
        wait_ms[key] += span.wait_s * 1e3
        calls[key] += 1
        nested = span.parent is not None and spans[span.parent].layer == span.layer
        if key == ("storage.metadata", "covering_positions_batch") and not nested:
            covering += span.count

    def total(table, layer: str, names=None) -> float:
        return sum(
            value for (span_layer, name), value in table.items()
            if span_layer == layer and (names is None or name in names)
        )

    layer_self = functools.partial(total, self_ms)
    layer_calls = functools.partial(total, calls)

    pairs = counters["kernel.pairs_total"]
    total_self_s = sum(span.self_s for span in spans)
    covered_s = _union_length([(span.start, span.end) for span in spans])
    drains = layer_calls("service.scheduler", ("drain",))
    queue_waits = _queue_waits(spans, result.detail.get("drained", {}))
    values = {
        "storage.layout.self_ms_per_op": layer_self("storage.layout") / ops,
        "storage.layout.calls_per_op": layer_calls("storage.layout") / ops,
        "storage.layout.rows_evaluated_per_query": counters["kernel.rows_evaluated"] / queries,
        "storage.layout.pairs_scanned_per_query": counters["kernel.pairs_scanned"] / queries,
        "storage.layout.pairs_pruned_frac": _ratio(counters["kernel.pairs_pruned"], pairs),
        "storage.layout.pairs_covered_frac": _ratio(counters["kernel.pairs_covered"], pairs),
        "storage.layout.pairs_bisected_frac": _ratio(counters["kernel.pairs_bisected"], pairs),
        "storage.layout.max_tile_bytes": counters["kernel.max_tile_bytes"],
        "storage.metadata.self_ms_per_op": layer_self("storage.metadata") / ops,
        "storage.metadata.calls_per_op": layer_calls("storage.metadata") / ops,
        "storage.metadata.covering_clusters_per_query": covering / queries,
        "storage.metadata.bytes_per_row": _ratio(
            counters["metadata_bytes"], counters["total_rows"]
        ),
        "federation.provider.summary_self_ms_per_op":
            layer_self("federation.provider", ("prepare_summary_batch",)) / ops,
        "federation.provider.answer_self_ms_per_op":
            layer_self("federation.provider", ("answer_batch",)) / ops,
        "federation.provider.forget_self_ms_per_op":
            layer_self("federation.provider", ("forget_batch",)) / ops,
        "federation.provider.clusters_sampled_per_query":
            counters["clusters_scanned"] / queries,
        "federation.provider.rows_scanned_frac": _ratio(
            counters["rows_scanned"], counters["rows_available"]
        ),
        "federation.aggregator.begin_self_ms_per_op":
            layer_self("federation.aggregator", ("begin_batch",)) / ops,
        "federation.aggregator.collect_self_ms_per_op":
            layer_self("federation.aggregator", ("collect_batch",)) / ops,
        "federation.aggregator.settle_self_ms_per_op":
            layer_self("federation.aggregator", ("settle_batch",)) / ops,
        "federation.transport.codec_self_ms_per_op":
            layer_self("federation.transport", CODEC) / ops,
        # An rpc's own code is a few lines; what is left of it after its
        # codec children and the server's work is time on the socket.
        "federation.transport.rpc_wait_ms_per_op":
            layer_self("federation.transport", RPC) / ops,
        "federation.transport.frames_per_op": counters["frames"] / ops,
        "federation.transport.bytes_per_query": counters["wire_bytes"] / queries,
        "federation.transport.retries": counters["retries"],
        "core.system.self_ms_per_op": layer_self("core.system") / ops,
        "service.scheduler.submit_self_ms_per_submission": _ratio(
            layer_self("service.scheduler", ("submit",)),
            layer_calls("service.scheduler", ("submit",)),
        ),
        "service.scheduler.drain_self_ms_per_drain": _ratio(
            layer_self("service.scheduler", ("drain",)), drains
        ),
        "service.scheduler.drain_wait_ms_per_drain": _ratio(
            wait_ms[("service.scheduler", "drain")], drains
        ),
        "service.scheduler.chunks_per_drain": _ratio(
            counters["chunks"], counters["query_drains"]
        ),
        "service.scheduler.queue_wait_p50_ms":
            statistics.median(queue_waits) * 1e3 if queue_waits else 0.0,
        "service.scheduler.cost_prediction_error": counters["cost_prediction_error"],
        "service.scheduler.rejected": counters["rejected"],
        "service.scheduler.deferred": counters["deferred"],
        "cache.store.self_ms_per_op": layer_self("cache.store") / ops,
        "cache.store.lookups_per_query": counters["cache_lookups"] / queries,
        "cache.store.hit_rate": _ratio(counters["cache_hits"], counters["cache_lookups"]),
        "cache.store.evictions": counters["cache_evictions"],
        "cache.store.epsilon_saved_frac": (
            1.0 - _ratio(counters["epsilon_charged"], counters["epsilon_full_price"])
            if counters["epsilon_full_price"] else 0.0
        ),
        "ingest.ingest_self_ms_per_round": _ratio(
            layer_self("ingest", ("ingest_rows",)), counters["ingest_rounds"]
        ),
        "ingest.compact_self_ms_per_compaction": _ratio(
            layer_self("ingest", ("compact",)), counters["compactions"]
        ),
        "ingest.delta_query_self_ms_per_op": layer_self("ingest", ("query_values",)) / ops,
        "ingest.compactions": counters["compactions"],
        "ingest.delta_rows_at_query_p50": counters["delta_rows_p50"],
        "budget.layer_sum_frac": total_self_s / result.wall_s,
        "budget.unattributed_frac": 1.0 - covered_s / result.wall_s,
        "budget.overlap_frac": (total_self_s - covered_s) / result.wall_s,
        # Whole-phase throughput, not the p50: serve_live's dashboard median
        # sits between two chunk completion times and jumps 10% run to run.
        "budget.tracing_overhead_frac": reference_qps / result.metrics["qps"] - 1.0,
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (float(values[name]), units[name]) for name in units}
    table = {
        layer: {
            "self_ms_per_op": layer_self(layer) / ops,
            "share_of_wall": layer_self(layer) / 1e3 / result.wall_s,
        }
        for layer in LAYERS
    }
    return metrics, table
