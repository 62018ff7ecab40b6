"""The benchmark's declarations: workloads, metrics, units and bounds.

Every workload and metric is declared here once. ``BENCHMARK.json`` at the
repository root is rendered from these tables (``python3 perfbench/run.py
--spec``) and a test keeps the two equal. The definitions and the
"moved by" / "should move" notes that do not fit the ``BENCHMARK.json``
schema are printed by ``python3 perfbench/run.py --describe``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Run length of one measured run, in seconds.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str
    moved_by: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    definition: str
    should_move: str


WORKLOADS = (
    Workload(
        "retrieve-unique",
        "open loop, Poisson at 20 req/s, interleaved with saturating 512-request bursts",
        "distinct TriviaQA-like queries: every lookup misses, so route and deep scan do the work",
    ),
    Workload(
        "retrieve-hot",
        "open loop, Poisson at 20 req/s, interleaved with saturating 8192-request bursts",
        "Zipf(1.2) over a small NQ-like pool, half jittered: the exact and semantic cache tiers serve most requests",
    ),
    Workload(
        "retrieve-churn",
        "retrieve-unique reads plus one writer: every 100 ms insert 32, delete 32 older; compact every 2 s",
        "the only workload where delta scans, tombstone merges and compaction do work; reads match retrieve-unique",
    ),
    Workload(
        "rag-lookahead",
        "closed loop: cohorts of 24 long- and 8 short-context requests, 4 strides each",
        "RAGServingPipeline in lookahead mode: the encoder, the stride scheduler and speculative retrieval work",
    ),
)

END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of 5 cold builds: cluster_datastore (no build cache) plus warm_scan_state on every shard",
        "build.kmeans_s, build.shards_s, build.warm_s",
    ),
    EndToEnd(
        "throughput_qps", "req/s", "higher", 0.25,
        "retrieve-*: completion rate over 8 saturating bursts (512 requests; 8192 on retrieve-hot) submitted from one thread; "
        "rag-lookahead: median over cohorts of retrieval windows completed per wall second of serve()",
        "router.route_p50_ms, shard.deep_p50_ms, ivf.scan_p50_ms, cache.lookup_p50_ms, frontend.batch_mean",
    ),
    EndToEnd(
        "latency_p50_ms", "ms", "lower", 0.25,
        "median time from when a retrieval was due until its result arrived; retrieve-*: open-loop "
        "requests timed from their scheduled send time; rag-lookahead: each retrieval window "
        "(query encode + submit to done), wasted speculative windows included",
        "frontend.queue_wait_p50_ms, hierarchical.search_p50_ms, cache.exact_frac, encoder.encode_p50_ms",
    ),
    EndToEnd(
        "ndcg10", "ratio", "higher", 0.05,
        "mean NDCG@10 of served ids against MonolithicRetriever.ground_truth (retrieve-churn: over "
        "live_vectors() after the writes drain; rag-lookahead: each stride against its true query)",
        "hierarchical.degraded_frac, cache.semantic_frac, pipeline.spec_hit_frac",
    ),
)


def _pl(name, unit, better, layer, definition, should_move):
    return PerLayer(name, unit, better, layer, definition, should_move)


_FRONTEND_MOVES = "latency_p50_ms and throughput_qps on retrieve-unique"
_CACHE_MOVES = "latency_p50_ms and throughput_qps on retrieve-hot; pure overhead on retrieve-unique"
_ROUTER_MOVES = "throughput_qps and latency_p50_ms on retrieve-unique; little on retrieve-hot"
_HIER_MOVES = "latency_p50_ms and throughput_qps on retrieve-unique"
_SHARD_MOVES = "throughput_qps on retrieve-unique"
_WRITE_MOVES = "latency_p50_ms and latency.p99_ms on retrieve-churn; no change on retrieve-unique"
_RAG_MOVES = "latency_p50_ms on rag-lookahead"
_BUILD_MOVES = "setup_s on every workload"
_LEDGER_MOVES = "the latency_p50_ms it is a share of"

PER_LAYER = (
    # frontend: serving.frontend (DynamicBatcher + ServingFrontend)
    _pl("frontend.queue_wait_p50_ms", "ms", "lower", "frontend",
        "median time from submit() to the start of the ServingFrontend.search call that serves the request",
        _FRONTEND_MOVES),
    _pl("frontend.queue_wait_p99_ms", "ms", "lower", "frontend",
        "99th percentile of the same queue wait", "latency.p99_ms as frontend.busy_frac nears 1"),
    _pl("frontend.batch_mean", "count", "higher", "frontend",
        "mean rows per ServingFrontend.search call", _FRONTEND_MOVES),
    _pl("frontend.search_p50_ms", "ms", "lower", "frontend",
        "median ServingFrontend.search call time", _FRONTEND_MOVES),
    _pl("frontend.busy_frac", "ratio", "lower", "frontend",
        "ServingFrontend.search time over the timed window: utilisation of the single batcher worker",
        "latency.p99_ms rises as it approaches 1"),
    _pl("frontend.dedup_frac", "ratio", "higher", "frontend",
        "cache-missing rows answered by an in-batch duplicate, over rows served", "retrieve-hot"),
    _pl("frontend.self_ms", "ms", "lower", "frontend",
        "mean ServingFrontend.search self time per request (ledger share)", _FRONTEND_MOVES),
    # cache: serving.cache
    _pl("cache.lookup_p50_ms", "ms", "lower", "cache",
        "median RetrievalCache.lookup call time", _CACHE_MOVES),
    _pl("cache.insert_p50_ms", "ms", "lower", "cache",
        "median RetrievalCache.insert call time", _CACHE_MOVES),
    _pl("cache.share", "ratio", "lower", "cache",
        "lookup + insert time over ServingFrontend.search time", _CACHE_MOVES),
    _pl("cache.exact_frac", "ratio", "higher", "cache",
        "rows served as exact hits (FrontendResult.kinds)", _CACHE_MOVES),
    _pl("cache.semantic_frac", "ratio", "higher", "cache",
        "rows served as semantic hits", _CACHE_MOVES),
    _pl("cache.routing_frac", "ratio", "higher", "cache",
        "rows served with a cached routing decision", _CACHE_MOVES),
    _pl("cache.miss_frac", "ratio", "lower", "cache", "rows that missed every tier", _CACHE_MOVES),
    _pl("cache.self_ms", "ms", "lower", "cache",
        "mean cache self time per request (ledger share)", _CACHE_MOVES),
    # router: core.router.SampledRouter
    _pl("router.route_p50_ms", "ms", "lower", "router",
        "median SampledRouter.route call time", _ROUTER_MOVES),
    _pl("router.share", "ratio", "lower", "router",
        "route time over HierarchicalSearcher.search time", _ROUTER_MOVES),
    _pl("router.sample_calls_per_batch", "count", "lower", "router",
        "IndexShard.search calls made inside one route call", _ROUTER_MOVES),
    _pl("router.self_ms", "ms", "lower", "router",
        "mean SampledRouter.route self time per request (ledger share)", _ROUTER_MOVES),
    # hierarchical: core.hierarchical
    _pl("hierarchical.search_p50_ms", "ms", "lower", "hierarchical",
        "median HierarchicalSearcher.search call time", _HIER_MOVES),
    _pl("hierarchical.search_p99_ms", "ms", "lower", "hierarchical",
        "99th percentile HierarchicalSearcher.search call time", "latency.p99_ms on retrieve-unique"),
    _pl("hierarchical.batch_mean", "count", "higher", "hierarchical",
        "mean rows per HierarchicalSearcher.search call", _HIER_MOVES),
    _pl("hierarchical.shard_queries_per_query", "count", "lower", "hierarchical",
        "deep (query, shard) pairs per searched row (SearchResult.shard_queries)", _HIER_MOVES),
    _pl("hierarchical.merge_self_ms", "ms", "lower", "hierarchical",
        "median HierarchicalSearcher.search self time per call: merge and bookkeeping", _HIER_MOVES),
    _pl("hierarchical.degraded_frac", "ratio", "lower", "hierarchical",
        "searches that returned with failed shards", "ndcg10 and failures"),
    _pl("hierarchical.self_ms", "ms", "lower", "hierarchical",
        "mean HierarchicalSearcher.search self time per request (ledger share)", _HIER_MOVES),
    # shard: core.clustering.IndexShard; ivf: ann.ivf
    _pl("shard.deep_p50_ms", "ms", "lower", "shard",
        "median IndexShard.search call time for calls made outside route", _SHARD_MOVES),
    _pl("shard.deep_share", "ratio", "lower", "shard",
        "deep IndexShard.search time over HierarchicalSearcher.search time", _SHARD_MOVES),
    _pl("shard.self_ms", "ms", "lower", "shard",
        "mean IndexShard.search self time per request (ledger share)", _SHARD_MOVES),
    _pl("ivf.scan_p50_ms", "ms", "lower", "ivf",
        "median IVFIndex.search call time under deep IndexShard.search calls", _SHARD_MOVES),
    _pl("ivf.cells_pruned_per_query", "count", "higher", "ivf",
        "ivf_cells_pruned_total counter delta over the timed phase, per searched row", _SHARD_MOVES),
    _pl("ivf.blocks_pruned_per_query", "count", "higher", "ivf",
        "ivf_blocks_pruned_total counter delta over the timed phase, per searched row", _SHARD_MOVES),
    _pl("ivf.self_ms", "ms", "lower", "ivf",
        "mean IVFIndex.search time per request (ledger share)", _SHARD_MOVES),
    # delta / datastore: ann.delta and the ClusteredDatastore mutation calls
    _pl("delta.scan_p50_ms", "ms", "lower", "delta",
        "median DeltaIndex.search call time (0 where nothing was inserted)", _WRITE_MOVES),
    _pl("delta.rows_peak", "count", "lower", "delta",
        "largest ClusteredDatastore.delta_rows() seen after a write", _WRITE_MOVES),
    _pl("delta.self_ms", "ms", "lower", "delta",
        "mean DeltaIndex.search time per request (ledger share)", _WRITE_MOVES),
    _pl("datastore.insert_p50_ms", "ms", "lower", "datastore",
        "median ClusteredDatastore.add_documents call time", _WRITE_MOVES),
    _pl("datastore.delete_p50_ms", "ms", "lower", "datastore",
        "median ClusteredDatastore.delete_documents call time", _WRITE_MOVES),
    _pl("datastore.compact_p50_ms", "ms", "lower", "datastore",
        "median ClusteredDatastore.compact call time", _WRITE_MOVES),
    _pl("datastore.compactions", "count", "lower", "datastore",
        "ClusteredDatastore.compact calls in the timed phase", _WRITE_MOVES),
    _pl("datastore.read_p99_in_compaction_ms", "ms", "lower", "datastore",
        "99th percentile latency of reads in flight while a compaction ran", _WRITE_MOVES),
    _pl("datastore.write_p50_ms", "ms", "lower", "datastore",
        "median add_documents / delete_documents call latency, untraced", _WRITE_MOVES),
    _pl("datastore.write_p99_ms", "ms", "lower", "datastore",
        "99th percentile add_documents / delete_documents call latency, untraced", _WRITE_MOVES),
    # encoder: datastore.encoder
    _pl("encoder.encode_p50_ms", "ms", "lower", "encoder",
        "median SyntheticEncoder.encode_tokens call time", _RAG_MOVES),
    _pl("encoder.calls_per_stride", "count", "lower", "encoder",
        "encode_tokens calls per served stride", _RAG_MOVES),
    # pipeline: serving.pipeline
    _pl("pipeline.stride_retrieval_p50_ms", "ms", "lower", "pipeline",
        "median measured submit-to-done time of a stride retrieval (StrideRecord.retrieval_s)", _RAG_MOVES),
    _pl("pipeline.spec_hit_frac", "ratio", "higher", "pipeline",
        "speculative retrievals accepted over speculative retrievals verified", _RAG_MOVES),
    _pl("pipeline.wasted_retrieval_s", "s", "lower", "pipeline",
        "measured seconds of mis-speculated retrieval windows, per request", _RAG_MOVES),
    _pl("pipeline.wave_batch_mean", "count", "higher", "pipeline",
        "retrievals submitted per wave (consecutive submits between encoder calls)", _RAG_MOVES),
    _pl("pipeline.measured_frac", "ratio", "lower", "pipeline",
        "measured seconds over end-to-end seconds on the stitched per-request timeline",
        "how much of e2e a retrieval change can move"),
    _pl("pipeline.ttft_p50_ms", "ms", "lower", "pipeline",
        "median time to first token, untraced: encode + retrieval[0] (measured) + prefill[0] (modelled)",
        "encoder and retrieval changes, diluted by modelled prefill"),
    _pl("pipeline.e2e_p50_s", "s", "lower", "pipeline",
        "median per-request end-to-end time on the stitched timeline (measured + modelled), untraced",
        "retrieval changes only where a window outlasts the modelled block"),
    # llm: llm.inference (modelled, reported only)
    _pl("llm.prefill_s", "modelled_s", "lower", "llm",
        "mean InferenceModel.prefill latency per call (modelled, never claimed)", "nothing measured"),
    _pl("llm.decode_s", "modelled_s", "lower", "llm",
        "mean InferenceModel.decode latency per call (modelled, never claimed)", "nothing measured"),
    # build: cluster_datastore / ann.kmeans
    _pl("build.kmeans_s", "s", "lower", "build",
        "median kmeans_seed_sweep time per cold build", _BUILD_MOVES),
    _pl("build.shards_s", "s", "lower", "build",
        "median cluster_datastore time minus its seed sweep, per cold build", _BUILD_MOVES),
    _pl("build.warm_s", "s", "lower", "build",
        "median warm_scan_state time over all shards, per cold build", _BUILD_MOVES),
    # harness: validity checks, not layers
    _pl("latency.p90_ms", "ms", "lower", "harness",
        "90th percentile of the latency_p50_ms samples, from the untraced pass of the traced run",
        "tail latency: reported, not gated, because on a shared host it swings with the host"),
    _pl("latency.p99_ms", "ms", "lower", "harness",
        "99th percentile of the same samples (with fewer than 1000 samples, nearer a maximum)",
        "tail latency: reported, not gated"),
    _pl("gen.lag_p99_ms", "ms", "lower", "harness",
        "99th percentile of how late the open-loop generator submitted (0 for closed loops)",
        "validity: a large lag means the generator, not the program, set latency"),
    _pl("trace.overhead_frac", "ratio", "lower", "harness",
        "traced latency_p50_ms over untraced latency_p50_ms, minus 1", "validity of the traced run"),
    _pl("ledger.queue_ms", "ms", "lower", "harness",
        "mean per-request queue wait in the ledger", _LEDGER_MOVES),
    _pl("ledger.lag_ms", "ms", "lower", "harness",
        "mean per-request generator lag in the ledger", _LEDGER_MOVES),
    _pl("ledger.unattributed_frac", "ratio", "lower", "harness",
        "share of summed request latency not covered by lag, queue wait and layer self times",
        "validity of the ledger"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, in its fixed schema."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def describe() -> str:
    """Human-readable metadata: every workload and metric with its notes."""
    lines = ["workloads:"]
    for w in WORKLOADS:
        lines += [f"  {w.name}  [{w.loop}]", f"      why: {w.why}"]
    lines.append("end-to-end metrics (measured untraced; bound = allowed worsening of the median):")
    for m in END_TO_END:
        lines += [
            f"  {m.name} [{m.unit}, {m.better} is better, bound {m.bound:.0%}]",
            f"      {m.definition}",
            f"      moved by: {m.moved_by}",
        ]
    lines.append("per-layer metrics (traced run, --trace 1):")
    for m in PER_LAYER:
        lines += [
            f"  {m.name} [{m.unit}] ({m.layer})",
            f"      {m.definition}",
            f"      should move: {m.should_move}",
        ]
    return "\n".join(lines)
