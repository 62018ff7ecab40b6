"""Serving microbenchmark: the retrieval cache + dynamic batching frontend.

The serve-time premise (Fig. 13) is that request streams are Zipf-skewed, so
a retrieval cache in front of the hierarchical searcher converts redundancy
into latency. This harness measures exactly that, in four sections, and
writes ``BENCH_serve.json``:

- **exact_path** — a Zipf-``α`` stream served through the cache-fronted
  frontend vs. straight through the searcher. Asserts the two are
  *bit-identical* (ids and distances) — the exact tier must never change
  results — and, on full runs, that the cached path is ≥ 2x faster at equal
  NDCG@k.
- **semantic_path** — the same stream with half the repeats jittered into
  near-duplicates, exercising the semantic tier; reports the tier mix and
  the measured NDCG delta of threshold-based result reuse.
- **batcher** — single-query submissions coalesced by the
  :class:`~repro.serving.frontend.DynamicBatcher` under its deadline budget.
- **stride_reuse** — strided RAG sessions with and without
  ``reuse_routing``: sample-search skips, document overlap, and the
  *measured* RAGCache prefix hit rate.
- **mutation_sweep** — the same Zipf stream replayed while the datastore
  mutates (per-batch inserts + deletes at several churn rates): p50 with
  the delta memtables live vs after compaction, NDCG@k against brute force
  over the live vectors at both stages, and (on full runs) the acceptance
  floor that 1% churn costs ≤ 15% p50 at *equal* NDCG.

Run from the repo root::

    python benchmarks/bench_serve.py            # full run
    python benchmarks/bench_serve.py --smoke    # seconds, for CI budgets

or, once installed, via the console entry ``hermes-bench-serve``.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..baselines.monolithic import MonolithicRetriever
from ..baselines.ragcache import simulate_cache_hit_rate
from ..core.clustering import cluster_datastore
from ..core.config import HermesConfig
from ..core.hierarchical import HermesSearcher
from ..core.session import StridedRAGSession
from ..datastore.chunkstore import ChunkStore
from ..datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from ..datastore.embeddings import make_corpus, zipf_weights
from ..datastore.encoder import SyntheticEncoder
from ..datastore.queries import trivia_queries
from ..metrics.ndcg import ndcg
from ..serving.cache import CacheConfig, RetrievalCache
from ..serving.frontend import DynamicBatcher, ServingFrontend
from .sysinfo import cpu_metadata

#: Full-run acceptance floor: cached mean batch latency vs uncached.
SPEEDUP_FLOOR = 2.0

#: Full-run acceptance ceiling: p50 overhead of live delta serving at 1% churn.
MUTATION_OVERHEAD_CEILING = 0.15


@dataclass(frozen=True)
class BenchSpec:
    """Workload sizes for one harness run."""

    n_docs: int = 20_000
    dim: int = 64
    n_topics: int = 10
    n_clusters: int = 10
    clusters_to_search: int = 3
    deep_nprobe: int = 64
    k: int = 10
    # Zipf request stream over a fixed unique-query pool.
    n_unique: int = 192
    n_requests: int = 1536
    batch: int = 32
    alpha: float = 1.2
    capacity: int = 512
    semantic_threshold: float = 0.995
    routing_threshold: float = 0.98
    jitter: float = 0.003
    # Dynamic-batcher section.
    batcher_requests: int = 256
    batcher_max_batch: int = 32
    batcher_wait_s: float = 0.005
    # Strided-session section (token-level stack).
    session_docs: int = 300
    session_queries: int = 8
    session_strides: int = 8
    seed: int = 0

    @classmethod
    def smoke(cls) -> "BenchSpec":
        return cls(
            n_docs=3_000,
            dim=32,
            n_topics=5,
            n_clusters=5,
            clusters_to_search=2,
            deep_nprobe=16,
            k=5,
            n_unique=48,
            n_requests=256,
            batch=16,
            capacity=128,
            batcher_requests=48,
            batcher_max_batch=16,
            session_docs=150,
            session_queries=4,
            session_strides=6,
        )


def _make_stack(spec: BenchSpec):
    """Shared corpus, searcher, Zipf query pool, and exact ground truth."""
    corpus = make_corpus(
        spec.n_docs, n_topics=spec.n_topics, dim=spec.dim, seed=spec.seed
    )
    config = HermesConfig(
        n_clusters=spec.n_clusters,
        clusters_to_search=spec.clusters_to_search,
        deep_nprobe=spec.deep_nprobe,
        k=spec.k,
    )
    datastore = cluster_datastore(corpus.embeddings, config)
    searcher = HermesSearcher(datastore, config=config)
    pool = trivia_queries(corpus.topic_model, spec.n_unique, seed=spec.seed + 7).embeddings
    _, truth = MonolithicRetriever(corpus.embeddings).ground_truth(pool, spec.k)
    return searcher, pool, truth


def _stream(spec: BenchSpec, rng: np.random.Generator) -> np.ndarray:
    weights = zipf_weights(spec.n_unique, exponent=spec.alpha)
    return rng.choice(spec.n_unique, size=spec.n_requests, p=weights)


def _replay(frontend_search, queries: np.ndarray, batch: int, k: int):
    """Time one pass of *queries* through a search callable, batch by batch."""
    latencies, ids = [], []
    for start in range(0, len(queries), batch):
        qb = queries[start : start + batch]
        t0 = time.perf_counter()
        result = frontend_search(qb, k)
        latencies.append(time.perf_counter() - t0)
        ids.append(result)
    return np.asarray(latencies), np.concatenate(ids)


def _bench_exact_path(spec: BenchSpec, searcher, pool, truth, *, smoke: bool) -> dict:
    rng = np.random.default_rng(spec.seed)
    stream = _stream(spec, rng)
    queries = pool[stream]
    stream_truth = truth[stream]

    cache = RetrievalCache(
        CacheConfig(
            capacity=spec.capacity, semantic_threshold=None, routing_threshold=None
        )
    )
    frontend = ServingFrontend(searcher, cache=cache)

    cached_lat, cached_ids = _replay(
        lambda qb, k: frontend.search(qb, k=k).ids, queries, spec.batch, spec.k
    )
    uncached_lat, uncached_ids = _replay(
        lambda qb, k: searcher.search(qb, k=k).ids, queries, spec.batch, spec.k
    )

    if not np.array_equal(cached_ids, uncached_ids):
        raise AssertionError("exact path: cached ids diverge from direct search")
    cached_ndcg = ndcg(cached_ids, stream_truth)
    uncached_ndcg = ndcg(uncached_ids, stream_truth)
    if cached_ndcg != uncached_ndcg:
        raise AssertionError("exact path: NDCG changed despite identical ids")

    speedup = float(uncached_lat.mean() / cached_lat.mean())
    if not smoke and speedup < SPEEDUP_FLOOR:
        raise AssertionError(
            f"exact path: cached speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x acceptance floor"
        )
    stats = cache.stats
    return {
        "alpha": spec.alpha,
        "n_requests": spec.n_requests,
        "batch": spec.batch,
        "hit_rate": stats.hit_rate,
        "exact_hits": stats.exact_hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "cached_mean_ms": float(cached_lat.mean() * 1e3),
        "cached_p50_ms": float(np.percentile(cached_lat, 50) * 1e3),
        "cached_p99_ms": float(np.percentile(cached_lat, 99) * 1e3),
        "uncached_mean_ms": float(uncached_lat.mean() * 1e3),
        "uncached_p50_ms": float(np.percentile(uncached_lat, 50) * 1e3),
        "uncached_p99_ms": float(np.percentile(uncached_lat, 99) * 1e3),
        "speedup": speedup,
        "ndcg": float(cached_ndcg),
        "uncached_ndcg": float(uncached_ndcg),
        "bit_identical": True,
    }


def _bench_semantic_path(spec: BenchSpec, searcher, pool, truth) -> dict:
    rng = np.random.default_rng(spec.seed + 1)
    stream = _stream(spec, rng)
    queries = pool[stream].copy()
    # Half the requests become near-duplicates: semantic-tier territory.
    jittered = rng.random(len(stream)) < 0.5
    queries[jittered] += rng.normal(
        scale=spec.jitter, size=(int(jittered.sum()), queries.shape[1])
    ).astype(np.float32)
    stream_truth = truth[stream]

    cache = RetrievalCache(
        CacheConfig(
            capacity=spec.capacity,
            semantic_threshold=spec.semantic_threshold,
            routing_threshold=spec.routing_threshold,
        )
    )
    frontend = ServingFrontend(searcher, cache=cache)
    cached_lat, cached_ids = _replay(
        lambda qb, k: frontend.search(qb, k=k).ids, queries, spec.batch, spec.k
    )
    uncached_lat, uncached_ids = _replay(
        lambda qb, k: searcher.search(qb, k=k).ids, queries, spec.batch, spec.k
    )
    stats = cache.stats
    cached_ndcg = float(ndcg(cached_ids, stream_truth))
    uncached_ndcg = float(ndcg(uncached_ids, stream_truth))
    return {
        "alpha": spec.alpha,
        "jitter": spec.jitter,
        "jittered_fraction": float(jittered.mean()),
        "hit_rate": stats.hit_rate,
        "exact_hits": stats.exact_hits,
        "semantic_hits": stats.semantic_hits,
        "routing_hits": stats.routing_hits,
        "misses": stats.misses,
        "cached_mean_ms": float(cached_lat.mean() * 1e3),
        "uncached_mean_ms": float(uncached_lat.mean() * 1e3),
        "speedup": float(uncached_lat.mean() / cached_lat.mean()),
        "ndcg": cached_ndcg,
        "uncached_ndcg": uncached_ndcg,
        # The measured accuracy cost of threshold-based result reuse.
        "ndcg_delta": cached_ndcg - uncached_ndcg,
    }


def _bench_batcher(spec: BenchSpec, searcher, pool, truth) -> dict:
    rng = np.random.default_rng(spec.seed + 2)
    weights = zipf_weights(spec.n_unique, exponent=spec.alpha)
    stream = rng.choice(spec.n_unique, size=spec.batcher_requests, p=weights)
    frontend = ServingFrontend(
        searcher, cache_config=CacheConfig(capacity=spec.capacity)
    )
    t0 = time.perf_counter()
    with DynamicBatcher(
        frontend, max_batch=spec.batcher_max_batch, max_wait_s=spec.batcher_wait_s
    ) as batcher:
        futures = [batcher.submit(pool[i], k=spec.k) for i in stream]
        rows = [f.result() for f in futures]
    wall = time.perf_counter() - t0
    ids = np.stack([served.ids for served in rows])
    stats = batcher.stats
    return {
        "requests": stats.requests,
        "batches": stats.batches,
        "mean_batch": stats.mean_batch,
        "max_batch": stats.max_batch,
        "max_wait_s": spec.batcher_wait_s,
        "wall_s": wall,
        "throughput_qps": spec.batcher_requests / wall,
        "ndcg": float(ndcg(ids, truth[stream])),
    }


def _bench_stride_reuse(spec: BenchSpec, *, smoke: bool) -> dict:
    """Sessions with vs. without routing reuse + prefix-cache replay of each trace."""
    vocab = TokenVocabulary(n_topics=spec.n_topics, pool_size=150, common_size=80)
    gen = CorpusGenerator(vocab, doc_tokens=96, topical_fraction=0.8, seed=spec.seed + 3)
    docs = gen.generate(spec.session_docs)
    chunks = chunk_documents(docs, chunk_tokens=48)
    encoder = SyntheticEncoder(dim=spec.dim, seed=0)
    embeddings = encoder.encode_chunks(chunks)
    datastore = cluster_datastore(
        embeddings,
        HermesConfig(
            n_clusters=spec.n_clusters,
            clusters_to_search=spec.clusters_to_search,
        ),
    )
    searcher = HermesSearcher(datastore)
    store = ChunkStore(chunks)
    rng = np.random.default_rng(spec.seed + 4)
    queries = [
        rng.choice(vocab.topic_pool(q % spec.n_topics), size=16, replace=False)
        for q in range(spec.session_queries)
    ]

    out: dict = {}
    for label, reuse in (("fresh", False), ("reused", True)):
        traces = []
        t0 = time.perf_counter()
        for qi, tokens in enumerate(queries):
            session = StridedRAGSession(
                searcher,
                encoder,
                store,
                stride_tokens=16,
                seed=spec.seed + qi,
                reuse_routing=reuse,
            )
            traces.append(session.run(tokens, n_strides=spec.session_strides))
        wall = time.perf_counter() - t0
        out[label] = {
            "wall_s": wall,
            "routing_reuse_fraction": float(
                np.mean([t.routing_reuse_fraction for t in traces])
            ),
            "routing_stability": float(
                np.mean([t.routing_stability() for t in traces])
            ),
            "document_overlap": float(
                np.mean([t.document_overlap() for t in traces])
            ),
            # RAGCache's "ideal 100%" assumption, measured on the real trace:
            # every chunk is 48 tokens (96-token docs), so the replay charges
            # each document its true size.
            "measured_prefix_hit_rate": float(
                np.mean([
                    simulate_cache_hit_rate(
                        t.stride_results(), capacity=4096, chunk_tokens=48
                    )
                    for t in traces
                ])
            ),
        }
    out["sessions"] = spec.session_queries
    out["strides"] = spec.session_strides
    if not smoke and out["reused"]["routing_reuse_fraction"] <= 0:
        raise AssertionError("stride reuse: no stride ever reused its routing")
    return out


def _bench_mutation_sweep(spec: BenchSpec, *, smoke: bool) -> dict:
    """Replay the Zipf stream under per-batch churn; live vs compacted.

    One private datastore mutates across the whole sweep (equal inserts and
    deletes keep its size constant); each churn point starts from a fully
    compacted state. Every search runs at full fan-out and full probe so the
    live (delta + tombstone) and compacted answers are bit-identical by the
    mutation-equivalence contract — making the p50 gap a pure measurement of
    what the delta scan costs.
    """
    from ..ann.flat import FlatIndex
    from ..datastore.embeddings import TopicModel

    churns = (0.0, 0.01, 0.05)
    corpus = make_corpus(
        spec.n_docs, n_topics=spec.n_topics, dim=spec.dim, seed=spec.seed + 5
    )
    config = HermesConfig(
        n_clusters=spec.n_clusters,
        clusters_to_search=spec.n_clusters,
        k=spec.k,
    )
    datastore = cluster_datastore(corpus.embeddings, config)
    searcher = HermesSearcher(datastore, config=config)
    full_probe = max(s.index.nlist for s in datastore.shards)
    pool = trivia_queries(
        corpus.topic_model, spec.n_unique, seed=spec.seed + 8
    ).embeddings
    model = corpus.topic_model
    fresh_model = TopicModel(
        centers=model.centers,
        weights=model.weights,
        spread=model.spread,
        rng_seed=spec.seed + 9,
    )
    rng = np.random.default_rng(spec.seed + 6)
    stream = _stream(spec, rng)
    queries = pool[stream]

    def full_search(qb):
        return searcher.search(
            qb,
            k=spec.k,
            clusters_to_search=datastore.n_clusters,
            deep_nprobe=full_probe,
        ).ids

    live = np.arange(len(datastore.assignments))
    points = []
    for churn in churns:
        # Fractional accumulator: churn * batch is < 1 at small batches, so
        # rounding per batch would silently mutate nothing and make the
        # overhead measurement vacuous; carry the remainder instead.
        mut_acc = 0.0
        mutated = 0
        live_lat = []
        peak_delta = 0
        for start in range(0, len(queries), spec.batch):
            mut_acc += churn * spec.batch
            n_mut = int(mut_acc)
            mut_acc -= n_mut
            mutated += n_mut
            if n_mut:
                fresh, _ = fresh_model.sample_documents(n_mut)
                new_ids = datastore.add_documents(fresh)
                victims = rng.choice(
                    np.concatenate([live, new_ids]), size=n_mut, replace=False
                )
                datastore.delete_documents(victims)
                live = np.setdiff1d(
                    np.concatenate([live, new_ids]), victims, assume_unique=True
                )
            peak_delta = max(peak_delta, datastore.delta_rows())
            qb = queries[start : start + spec.batch]
            t0 = time.perf_counter()
            full_search(qb)
            live_lat.append(time.perf_counter() - t0)

        live_vecs = datastore.reconstruct_vectors()[live]
        exact = FlatIndex(spec.dim, "ip")
        exact.add(live_vecs)
        _, truth_pos = exact.search(pool, spec.k)
        truth = live[truth_pos]
        live_ids = full_search(pool)
        ndcg_live = float(ndcg(live_ids, truth))

        datastore.compact()
        compacted_ids = full_search(pool)
        ndcg_compacted = float(ndcg(compacted_ids, truth))
        identical = bool(np.array_equal(live_ids, compacted_ids))

        compacted_lat = []
        for start in range(0, len(queries), spec.batch):
            qb = queries[start : start + spec.batch]
            t0 = time.perf_counter()
            full_search(qb)
            compacted_lat.append(time.perf_counter() - t0)

        p50_live = float(np.percentile(live_lat, 50) * 1e3)
        p50_compacted = float(np.percentile(compacted_lat, 50) * 1e3)
        points.append(
            {
                "churn": churn,
                "mutations": mutated,
                "peak_delta_rows": peak_delta,
                "p50_live_ms": p50_live,
                "p50_compacted_ms": p50_compacted,
                "overhead_frac": p50_live / p50_compacted - 1.0,
                "ndcg_live": ndcg_live,
                "ndcg_compacted": ndcg_compacted,
                "bit_identical": identical,
            }
        )

    if not smoke:
        for p in points:
            if p["churn"] > 0 and p["peak_delta_rows"] == 0:
                raise AssertionError(
                    f"mutation sweep: churn {p['churn']:.0%} accumulated no "
                    "delta rows — the mutation path was not exercised"
                )
            if not p["bit_identical"] or p["ndcg_live"] != p["ndcg_compacted"]:
                raise AssertionError(
                    f"mutation sweep: live != compacted at churn {p['churn']:.0%}"
                )
            if p["churn"] == 0.01 and p["overhead_frac"] > MUTATION_OVERHEAD_CEILING:
                raise AssertionError(
                    f"mutation sweep: {p['overhead_frac']:.0%} p50 overhead at 1% "
                    f"churn exceeds the {MUTATION_OVERHEAD_CEILING:.0%} ceiling"
                )
    return {"churns": list(churns), "points": points}


def run_benchmarks(
    *, smoke: bool = False, out: "str | Path | None" = "BENCH_serve.json"
) -> dict:
    """Run the full harness; returns (and optionally writes) the report."""
    spec = BenchSpec.smoke() if smoke else BenchSpec()
    searcher, pool, truth = _make_stack(spec)
    report = {
        "bench": "serve",
        "smoke": smoke,
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "n_docs": spec.n_docs,
            "dim": spec.dim,
            "n_clusters": spec.n_clusters,
            "n_unique": spec.n_unique,
            "n_requests": spec.n_requests,
            "batch": spec.batch,
            "alpha": spec.alpha,
            "capacity": spec.capacity,
            "k": spec.k,
            "numpy": np.__version__,
            **cpu_metadata(),
        },
        "exact_path": _bench_exact_path(spec, searcher, pool, truth, smoke=smoke),
        "semantic_path": _bench_semantic_path(spec, searcher, pool, truth),
        "batcher": _bench_batcher(spec, searcher, pool, truth),
        "stride_reuse": _bench_stride_reuse(spec, smoke=smoke),
        "mutation_sweep": _bench_mutation_sweep(spec, smoke=smoke),
    }
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
    return report


def _format_report(report: dict) -> str:
    e = report["exact_path"]
    s = report["semantic_path"]
    b = report["batcher"]
    r = report["stride_reuse"]
    lines = [
        f"serve bench (smoke={report['smoke']}, alpha={e['alpha']}, "
        f"{report['meta']['n_unique']} unique / {e['n_requests']} requests, "
        f"cpus={report['meta']['cpu_count']}, "
        f"affinity={report['meta']['cpu_affinity']})",
        f"  exact    hit={e['hit_rate']:.0%} "
        f"cached={e['cached_mean_ms']:.2f} ms "
        f"uncached={e['uncached_mean_ms']:.2f} ms "
        f"speedup={e['speedup']:.2f}x "
        f"NDCG {e['ndcg']:.4f} == {e['uncached_ndcg']:.4f} (bit-identical)",
        f"  semantic hit={s['hit_rate']:.0%} "
        f"(exact {s['exact_hits']} / semantic {s['semantic_hits']} / "
        f"routing {s['routing_hits']} / miss {s['misses']}) "
        f"speedup={s['speedup']:.2f}x NDCG delta {s['ndcg_delta']:+.4f}",
        f"  batcher  {b['requests']} requests -> {b['batches']} batches "
        f"(mean {b['mean_batch']:.1f}, max {b['max_batch']}), "
        f"{b['throughput_qps']:.0f} QPS, NDCG {b['ndcg']:.4f}",
        f"  sessions reuse={r['reused']['routing_reuse_fraction']:.0%} of strides, "
        f"stability {r['reused']['routing_stability']:.2f}, "
        f"overlap {r['reused']['document_overlap']:.2f}, "
        f"prefix hit {r['reused']['measured_prefix_hit_rate']:.0%} "
        f"(fresh {r['fresh']['wall_s']:.2f} s -> "
        f"reused {r['reused']['wall_s']:.2f} s)",
    ]
    for p in report["mutation_sweep"]["points"]:
        lines.append(
            f"  churn {p['churn']:>4.0%} "
            f"p50 live={p['p50_live_ms']:.2f} ms "
            f"compacted={p['p50_compacted_ms']:.2f} ms "
            f"({p['overhead_frac']:+.0%}), "
            f"NDCG {p['ndcg_live']:.4f} == {p['ndcg_compacted']:.4f} "
            f"({'bit-identical' if p['bit_identical'] else 'DIVERGED'})"
        )
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes so the harness fits tier-1 CI time budgets",
    )
    parser.add_argument(
        "--out",
        default="BENCH_serve.json",
        help="report path (default: ./BENCH_serve.json)",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke, out=args.out)
    print(_format_report(report))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
