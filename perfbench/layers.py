"""Which public calls are traced, and the per-layer metrics taken from them.

The layer names follow the repository's modules (see ``spec.PER_LAYER``).
:func:`install` wraps one public callable per layer boundary; the metric
functions read the recorded spans, the per-request ledger and what the
workload code measured itself. A layer a workload does not exercise
reports 0.
"""

from __future__ import annotations

import numpy as np

import repro.core.clustering as clustering_module
from repro.ann.delta import DeltaIndex
from repro.ann.ivf import IVFIndex
from repro.core.clustering import ClusteredDatastore, IndexShard
from repro.core.hierarchical import HierarchicalSearcher
from repro.core.router import SampledRouter
from repro.datastore.encoder import SyntheticEncoder
from repro.llm.inference import InferenceModel
from repro.obs.metrics import get_registry
from repro.serving.cache import EXACT_HIT, MISS, ROUTING_HIT, SEMANTIC_HIT, RetrievalCache
from repro.serving.frontend import DynamicBatcher, ServingFrontend

import spec
from spans import Recorder, children_of, ledger, self_time
from workloads import RagRun

PRUNE_COUNTERS = ("ivf_cells_pruned_total", "ivf_blocks_pruned_total")


def prune_counters() -> dict:
    registry = get_registry()
    out = {}
    for name in PRUNE_COUNTERS:
        metric = registry.get(name)
        out[name] = metric.total() if metric is not None else 0.0
    return out


def _frontend_result(span, args, kwargs, result) -> None:
    span.attrs["rows"] = len(result.ids)
    span.attrs["kinds"] = np.bincount(np.asarray(result.kinds), minlength=4)
    span.attrs["searched"] = int(result.searched)


def _search_result(span, args, kwargs, result) -> None:
    span.attrs["rows"] = len(result.ids)
    span.attrs["shard_queries"] = int(result.shard_queries)
    span.attrs["degraded"] = bool(result.failed_shards)


def _modelled(span, args, kwargs, result) -> None:
    span.attrs["modelled_s"] = float(result.latency_s)


def install_build(recorder: Recorder) -> None:
    """Time the K-means seed sweep inside ``cluster_datastore``."""
    recorder.wrap(clustering_module, "kmeans_seed_sweep", "build")


#: (owner, attribute, layer, on_result) of every call a traced run wraps,
#: besides ``DynamicBatcher.submit`` (see :meth:`Recorder.watch_submits`).
TRACED = (
    (ServingFrontend, "search", "frontend", _frontend_result),
    (RetrievalCache, "lookup", "cache", None),
    (RetrievalCache, "insert", "cache", None),
    (SampledRouter, "route", "router", None),
    (HierarchicalSearcher, "search", "hierarchical", _search_result),
    (IndexShard, "search", "shard", None),
    (IVFIndex, "search", "ivf", None),
    (DeltaIndex, "search", "delta", None),
    (ClusteredDatastore, "add_documents", "datastore", None),
    (ClusteredDatastore, "delete_documents", "datastore", None),
    (ClusteredDatastore, "compact", "datastore", None),
    (SyntheticEncoder, "encode_tokens", "encoder", None),
    (InferenceModel, "prefill", "llm", _modelled),
    (InferenceModel, "decode", "llm", _modelled),
)


def install(recorder: Recorder) -> None:
    """Wrap every traced public call of the serving stack."""
    for owner, attr, layer, on_result in TRACED:
        recorder.wrap(owner, attr, layer, on_result=on_result)
    recorder.watch_submits(DynamicBatcher)


# -- helpers -------------------------------------------------------------------


def _ms(values, q: float = 50) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q) * 1e3) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _durations(spans) -> list:
    return [s.duration for s in spans]


def _overlaps(start: np.ndarray, end: np.ndarray, intervals: list) -> np.ndarray:
    hit = np.zeros(len(start), dtype=bool)
    for lo, hi in intervals:
        hit |= (start < hi) & (end > lo)
    return hit


# -- metrics -----------------------------------------------------------------------


def _in_windows(spans: list, windows: list) -> list:
    """Spans whose root span started inside one of ``windows``."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        root = s
        while root.parent is not None and root.parent in by_id:
            root = by_id[root.parent]
        if any(lo <= root.start <= hi for lo, hi in windows):
            out.append(s)
    return out


def serving_metrics(recorder: Recorder, windows: list) -> dict:
    """frontend, cache, router, hierarchical, shard, ivf, delta and ledger metrics.

    Spans count when their call tree started inside one of ``windows`` (for
    the retrieve workloads, the open-loop segments); the ledger keeps the
    requests sent on a schedule when there are any (open loop), else all.
    """
    spans = _in_windows(recorder.spans, windows)
    by_id = {s.sid: s for s in spans}
    kids = children_of(spans)
    layer = {}
    for s in spans:
        layer.setdefault(s.layer, []).append(s)

    def parent_layer(s):
        p = by_id.get(s.parent)
        return p.layer if p is not None else None

    front = [s for s in layer.get("frontend", []) if s.parent is None]
    front_s = sum(_durations(front))
    rows = sum(s.attrs["rows"] for s in front)
    kinds = sum((s.attrs["kinds"] for s in front), np.zeros(4, dtype=np.int64))
    searched = sum(s.attrs["searched"] for s in front)
    cache = layer.get("cache", [])
    lookups = [s for s in cache if s.name.endswith("lookup")]
    inserts = [s for s in cache if s.name.endswith("insert")]
    routes = layer.get("router", [])
    hier = layer.get("hierarchical", [])
    hier_s = sum(_durations(hier))
    hier_rows = sum(s.attrs.get("rows", 0) for s in hier)
    shards = layer.get("shard", [])
    deep = [s for s in shards if parent_layer(s) == "hierarchical"]
    deep_ids = {s.sid for s in deep}
    sample_calls = sum(1 for s in shards if parent_layer(s) == "router")
    ivf_deep = [s for s in layer.get("ivf", []) if s.parent in deep_ids]
    pruned = prune_counters()
    mark = recorder.mark or {name: 0.0 for name in PRUNE_COUNTERS}

    rows_ledger = ledger(recorder)
    if any(r.scheduled for r in rows_ledger):
        rows_ledger = [r for r in rows_ledger if r.scheduled]
    latency = sum(r.latency for r in rows_ledger)
    n_req = len(rows_ledger)

    def per_req(name) -> float:
        return _ratio(sum(r.layers.get(name, 0.0) for r in rows_ledger) * 1e3, n_req)

    return {
        "frontend.queue_wait_p50_ms": _ms([r.queue for r in rows_ledger]),
        "frontend.queue_wait_p99_ms": _ms([r.queue for r in rows_ledger], 99),
        "frontend.batch_mean": _ratio(rows, len(front)),
        "frontend.search_p50_ms": _ms(_durations(front)),
        "frontend.busy_frac": _ratio(front_s, sum(hi - lo for lo, hi in windows)),
        "frontend.dedup_frac": _ratio(kinds[MISS] + kinds[ROUTING_HIT] - searched, rows),
        "frontend.self_ms": per_req("frontend"),
        "cache.lookup_p50_ms": _ms(_durations(lookups)),
        "cache.insert_p50_ms": _ms(_durations(inserts)),
        "cache.share": _ratio(sum(_durations(cache)), front_s),
        "cache.exact_frac": _ratio(kinds[EXACT_HIT], rows),
        "cache.semantic_frac": _ratio(kinds[SEMANTIC_HIT], rows),
        "cache.routing_frac": _ratio(kinds[ROUTING_HIT], rows),
        "cache.miss_frac": _ratio(kinds[MISS], rows),
        "cache.self_ms": per_req("cache"),
        "router.route_p50_ms": _ms(_durations(routes)),
        "router.share": _ratio(sum(_durations(routes)), hier_s),
        "router.sample_calls_per_batch": _ratio(sample_calls, len(routes)),
        "router.self_ms": per_req("router"),
        "hierarchical.search_p50_ms": _ms(_durations(hier)),
        "hierarchical.search_p99_ms": _ms(_durations(hier), 99),
        "hierarchical.batch_mean": _ratio(hier_rows, len(hier)),
        "hierarchical.shard_queries_per_query": _ratio(
            sum(s.attrs.get("shard_queries", 0) for s in hier), hier_rows
        ),
        "hierarchical.merge_self_ms": _ms([self_time(s, kids) for s in hier]),
        "hierarchical.degraded_frac": _ratio(sum(s.attrs.get("degraded", 0) for s in hier), len(hier)),
        "hierarchical.self_ms": per_req("hierarchical"),
        "shard.deep_p50_ms": _ms(_durations(deep)),
        "shard.deep_share": _ratio(sum(_durations(deep)), hier_s),
        "shard.self_ms": per_req("shard"),
        "ivf.scan_p50_ms": _ms(_durations(ivf_deep)),
        "ivf.cells_pruned_per_query": _ratio(
            pruned["ivf_cells_pruned_total"] - mark["ivf_cells_pruned_total"], hier_rows
        ),
        "ivf.blocks_pruned_per_query": _ratio(
            pruned["ivf_blocks_pruned_total"] - mark["ivf_blocks_pruned_total"], hier_rows
        ),
        "ivf.self_ms": per_req("ivf"),
        "delta.scan_p50_ms": _ms(_durations(layer.get("delta", []))),
        "delta.self_ms": per_req("delta"),
        "ledger.queue_ms": _ratio(sum(r.queue for r in rows_ledger) * 1e3, n_req),
        "ledger.lag_ms": _ratio(sum(r.lag for r in rows_ledger) * 1e3, n_req),
        "ledger.unattributed_frac": _ratio(sum(r.unattributed for r in rows_ledger), latency),
    }


def datastore_metrics(recorder: Recorder, run, untraced) -> dict:
    """delta.rows_peak and the datastore mutation metrics (retrieve-churn)."""
    ops = {}
    for s in recorder.spans:
        if s.layer == "datastore":
            ops.setdefault(s.name.rsplit(".", 1)[1], []).append(s)
    compactions = ops.get("compact", [])
    in_compaction = np.empty(0)
    if compactions:  # only retrieve-churn compacts
        hit = _overlaps(run.due_abs, run.done_abs, [(s.start, s.end) for s in compactions])
        in_compaction = run.latency_s[hit]
    write_s = getattr(untraced, "write_s", [])
    return {
        "delta.rows_peak": float(getattr(run, "delta_rows_peak", 0)),
        "datastore.insert_p50_ms": _ms(_durations(ops.get("add_documents", []))),
        "datastore.delete_p50_ms": _ms(_durations(ops.get("delete_documents", []))),
        "datastore.compact_p50_ms": _ms(_durations(compactions)),
        "datastore.compactions": float(len(compactions)),
        "datastore.read_p99_in_compaction_ms": _ms(in_compaction, 99),
        "datastore.write_p50_ms": _ms(write_s),
        "datastore.write_p99_ms": _ms(write_s, 99),
    }


def rag_metrics(recorder: Recorder, run, untraced) -> dict:
    """encoder, pipeline and llm metrics (rag-lookahead).

    TTFT and end-to-end time come from the ``untraced`` pass; the rest from
    the traced one.
    """
    if not isinstance(run, RagRun):
        return {m.name: 0.0 for m in spec.PER_LAYER if m.layer in ("encoder", "pipeline", "llm")}
    encodes = [s for s in recorder.spans if s.layer == "encoder"]
    llm = [s for s in recorder.spans if s.layer == "llm"]
    requests = [r for rep in run.reports for r in rep.completed]
    plain = [r for rep in untraced.reports for r in rep.completed]
    records = [s for r in requests for s in r.strides]
    hits = sum(rep.lookahead_hits for rep in run.reports)
    misses = sum(rep.lookahead_misses for rep in run.reports)
    measured = [
        (r.e2e_s - len(r.strides) * rep.block_s) / r.e2e_s
        for rep in run.reports for r in rep.completed
    ]
    # A wave is a run of submits on the pipeline thread with no encode between.
    events = sorted(
        [(s.start, "encode") for s in encodes] + [(r.submit, "submit") for r in recorder.requests]
    )
    waves = sum(
        1 for i, (_, kind) in enumerate(events)
        if kind == "submit" and (i == 0 or events[i - 1][1] != "submit")
    )
    return {
        "encoder.encode_p50_ms": _ms(_durations(encodes)),
        "encoder.calls_per_stride": _ratio(len(encodes), len(records)),
        "pipeline.stride_retrieval_p50_ms": _ms([s.retrieval_s for s in records]),
        "pipeline.spec_hit_frac": _ratio(hits, hits + misses),
        "pipeline.wasted_retrieval_s": _ratio(sum(r.wasted_retrieval_s for r in requests), len(requests)),
        "pipeline.wave_batch_mean": _ratio(len(recorder.requests), waves),
        "pipeline.measured_frac": _mean(measured),
        "pipeline.ttft_p50_ms": _ms([r.ttft_s for r in plain]),
        "pipeline.e2e_p50_s": float(np.median([r.e2e_s for r in plain])),
        "llm.prefill_s": _mean([s.attrs["modelled_s"] for s in llm if s.name.endswith("prefill")]),
        "llm.decode_s": _mean([s.attrs["modelled_s"] for s in llm if s.name.endswith("decode")]),
    }
