"""Retrieval microbenchmark: before/after wall-clock for the IVF fast path.

Hermes's premise is that CPU-side retrieval dominates RAG latency at scale
(§2, Figs. 6-8), so the vector-search hot path must be as fast as the
hardware allows. This harness times the optimised search engine (compacted
CSR lists + cell-major batched scan + ADC + threaded shard fan-out) against
the retained pre-optimisation reference path
(:meth:`repro.ann.ivf.IVFIndex.search_reference`), asserts the two return
identical results, and writes ``BENCH_retrieval.json``.

Run it from the repo root::

    python benchmarks/bench_retrieval.py            # full run (~50k vectors)
    python benchmarks/bench_retrieval.py --smoke    # seconds, for CI budgets

or, once installed, via the console entry ``hermes-bench-retrieval``.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ann.distances import as_matrix
from ..ann.flat import FlatIndex
from ..ann.ivf import IVFIndex
from ..ann.quantization import make_quantizer
from ..core.clustering import split_datastore_evenly
from ..core.config import HermesConfig
from ..core.hierarchical import HermesSearcher
from ..obs.metrics import get_registry
from ..obs.trace import disable_tracing, enable_tracing
from .sysinfo import cpu_metadata


@dataclass(frozen=True)
class BenchSpec:
    """Workload sizes for one harness run."""

    n_vectors: int = 50_000
    dim: int = 64
    n_train: int = 10_000
    nlist: int = 224
    # The paper's deep-search operating point (§4.2 uses nProbe=128 for the
    # deep pass); this is where the batched scan matters most.
    nprobe: int = 128
    k: int = 10
    batches: tuple[int, ...] = (1, 32)
    repeats: int = 3
    hier_clusters: int = 10
    hier_batch: int = 32
    hier_deep_nprobe: int = 128
    seed: int = 0

    @classmethod
    def smoke(cls) -> "BenchSpec":
        return cls(
            n_vectors=2_500,
            dim=32,
            n_train=2_500,
            nlist=32,
            nprobe=8,
            k=5,
            batches=(1, 8),
            repeats=1,
            hier_clusters=4,
            hier_batch=8,
            hier_deep_nprobe=16,
        )


def _make_data(spec: BenchSpec) -> tuple[np.ndarray, np.ndarray]:
    """Topic-structured corpus + a query pool drawn near stored vectors."""
    rng = np.random.default_rng(spec.seed)
    n_topics = 32
    centers = rng.normal(scale=4.0, size=(n_topics, spec.dim))
    topic = rng.integers(0, n_topics, size=spec.n_vectors)
    data = (centers[topic] + rng.normal(size=(spec.n_vectors, spec.dim))).astype(
        np.float32
    )
    pool = max(spec.batches + (spec.hier_batch,))
    queries = data[rng.choice(spec.n_vectors, pool, replace=False)] + rng.normal(
        scale=0.05, size=(pool, spec.dim)
    ).astype(np.float32)
    return data, queries.astype(np.float32)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _assert_equivalent(name: str, ref, fast, *, atol: float = 5e-3) -> None:
    ref_d, ref_i = ref
    fast_d, fast_i = fast
    if not np.array_equal(ref_i, fast_i):
        raise AssertionError(f"{name}: fast-path ids diverge from reference")
    finite = np.isfinite(ref_d)
    if not np.array_equal(finite, np.isfinite(fast_d)):
        raise AssertionError(f"{name}: fast-path padding diverges from reference")
    # ids must match exactly; distances only up to float32 accumulation noise
    # (ADC reassociates the reduction, so ~1e-3 absolute at |d| ~ 1e2).
    if not np.allclose(ref_d[finite], fast_d[finite], rtol=1e-3, atol=atol):
        raise AssertionError(f"{name}: fast-path distances diverge from reference")


def _bench_single_indices(spec: BenchSpec, data, queries, metric: str) -> list[dict]:
    rows: list[dict] = []
    train = data[: spec.n_train]

    flat = FlatIndex(spec.dim, metric)
    flat.add(data)
    for batch in spec.batches:
        q = queries[:batch]
        rows.append(
            {
                "index": "flat",
                "batch": batch,
                "before_s": None,
                "after_s": _best_of(lambda: flat.search(q, spec.k), spec.repeats),
                "speedup": None,
                "equivalent": None,
            }
        )

    schemes = [
        ("ivf_flat", "flat"),
        ("ivf_sq8", "sq8"),
        ("ivf_pq8", "pq8"),
        ("ivf_opq8", "opq8"),
    ]
    pruned_counter = get_registry().counter(
        "ivf_cells_pruned_total",
        "probed (query, cell) pairs skipped by the streaming scan's "
        "triangle-inequality bound",
    )
    for name, scheme in schemes:
        index = IVFIndex(
            spec.dim,
            metric,
            nlist=spec.nlist,
            nprobe=spec.nprobe,
            quantizer=make_quantizer(scheme, spec.dim),
        )
        index.train(train)
        index.add(data)
        # Warm every lazy scan structure (compaction, ADC norms, pruning
        # radii) up front: the rows time steady-state serving, matching how
        # a deployed index arrives warm from the v4 persistence format.
        index.warm_scan_state()
        streaming = index.quantizer.adc_dense_advantage <= 1.0
        for batch in spec.batches:
            q = queries[:batch]
            ref = index.search_reference(q, spec.k)
            fast = index.search(q, spec.k)
            unpruned = index.search(q, spec.k, prune=False)
            _assert_equivalent(f"{name}/batch{batch}", ref, fast)
            _assert_equivalent(f"{name}/batch{batch}/prune=False", ref, unpruned)
            before = _best_of(lambda: index.search_reference(q, spec.k), spec.repeats)
            after = _best_of(lambda: index.search(q, spec.k), spec.repeats)
            # PR-7 baseline: the dense/sparse strategies without threshold
            # pruning — isolates what the streaming scan adds on top.
            baseline = _best_of(
                lambda: index.search(q, spec.k, prune=False), spec.repeats
            )
            pruned_before = pruned_counter.total()
            index.search(q, spec.k)
            cells_pruned = pruned_counter.total() - pruned_before
            rows.append(
                {
                    "index": name,
                    "batch": batch,
                    "before_s": before,
                    "after_s": after,
                    "baseline_s": baseline,
                    "speedup": before / after,
                    "pruned_speedup": baseline / after,
                    "cells_pruned": int(cells_pruned),
                    "strategy": "streaming" if streaming else "dense/sparse",
                    "equivalent": True,
                }
            )
    return rows


def _hierarchical_reference(searcher, queries, k, m, nprobe):
    """The pre-optimisation hierarchical path: sequential shards, per-query
    reference IVF scans, row-by-row candidate merge."""
    q = as_matrix(queries)
    routing = searcher.router.route(q, searcher.datastore, m, exclude=frozenset())
    fanout = routing.fanout
    nq = len(q)
    cand_d = np.full((nq, fanout * k), np.inf, dtype=np.float32)
    cand_i = np.full((nq, fanout * k), -1, dtype=np.int64)
    for shard in searcher.datastore.shards:
        hit_q, hit_slot = np.nonzero(routing.clusters == shard.shard_id)
        if not len(hit_q):
            continue
        dists, local = shard.index.search_reference(q[hit_q], k, nprobe=nprobe)
        ids = np.full_like(local, -1)
        valid = local >= 0
        ids[valid] = shard.global_ids[local[valid]]
        for row, slot, d_row, i_row in zip(hit_q, hit_slot, dists, ids):
            cand_d[row, slot * k : (slot + 1) * k] = d_row
            cand_i[row, slot * k : (slot + 1) * k] = i_row
    order = np.argsort(cand_d, axis=1)[:, :k]
    rows = np.arange(nq)[:, np.newaxis]
    return cand_d[rows, order], cand_i[rows, order]


def _bench_hierarchical(spec: BenchSpec, data, queries) -> dict:
    config = HermesConfig(
        n_clusters=spec.hier_clusters,
        clusters_to_search=min(3, spec.hier_clusters),
        deep_nprobe=spec.hier_deep_nprobe,
        k=spec.k,
        quantization="sq8",
        metric="ip",
    )
    datastore = split_datastore_evenly(data, config, seed=spec.seed)
    for shard in datastore.shards:
        shard.index.compact()
    searcher = HermesSearcher(datastore)
    q = queries[: spec.hier_batch]
    m = config.clusters_to_search

    ref = _hierarchical_reference(searcher, q, spec.k, m, spec.hier_deep_nprobe)
    seq = searcher.search(q)
    _assert_equivalent("hierarchical/sequential", ref, (seq.distances, seq.ids))

    before = _best_of(
        lambda: _hierarchical_reference(searcher, q, spec.k, m, spec.hier_deep_nprobe),
        spec.repeats,
    )
    after_seq = _best_of(lambda: searcher.search(q), spec.repeats)
    return {
        "n_clusters": spec.hier_clusters,
        "clusters_to_search": m,
        "batch": spec.hier_batch,
        "deep_nprobe": spec.hier_deep_nprobe,
        "before_s": before,
        "after_sequential_s": after_seq,
        "speedup": before / after_seq,
        "equivalent": True,
    }


def _bench_tracing(spec: BenchSpec, data, queries) -> dict:
    """Tracing-overhead check on the IVF-SQ8 deep-search operating point.

    Times the same batched search with the tracer disabled (the default: all
    instrumentation collapses to a shared null context) and enabled, so the
    report shows what the observability layer costs in each mode. The
    acceptance bar is <5% overhead with tracing *disabled* relative to an
    uninstrumented build — visible here as ``disabled_s`` tracking the
    ``ivf_sq8`` ``after_s`` rows, which exercise the identical code path.
    """
    index = IVFIndex(
        spec.dim,
        "l2",
        nlist=spec.nlist,
        nprobe=spec.nprobe,
        quantizer=make_quantizer("sq8", spec.dim),
    )
    index.train(data[: spec.n_train])
    index.add(data)
    index.compact()
    batch = max(spec.batches)
    q = queries[:batch]
    repeats = max(spec.repeats, 3)
    disabled = _best_of(lambda: index.search(q, spec.k), repeats)
    tracer = enable_tracing()
    try:

        def traced() -> None:
            tracer.clear()  # keep the span list from growing across repeats
            index.search(q, spec.k)

        enabled = _best_of(traced, repeats)
    finally:
        disable_tracing()
    return {
        "index": "ivf_sq8",
        "batch": batch,
        "disabled_s": disabled,
        "enabled_s": enabled,
        "enabled_overhead": enabled / disabled - 1.0,
    }


#: Span names aggregated by ``--profile``, outermost first. ``sample`` and
#: ``shard_search``/``ivf_scan`` are children of ``route`` / ``deep_search``
#: respectively, so the rows overlap by design — each answers "how much wall
#: clock did this kernel absorb", not "what sums to 100%".
_PROFILE_SPANS = ("route", "sample", "deep_search", "shard_search", "ivf_scan", "merge")


def _profile_kernels(spec: BenchSpec, data, queries) -> dict:
    """Per-kernel time breakdown of one hierarchical batch, from obs spans.

    Runs the paper's operating point once under the process-wide tracer
    (which the private per-call tracer cannot see: ``ivf_scan`` spans report
    to the process tracer) and aggregates wall-clock per span name.
    """
    config = HermesConfig(
        n_clusters=spec.hier_clusters,
        clusters_to_search=min(3, spec.hier_clusters),
        deep_nprobe=spec.hier_deep_nprobe,
        k=spec.k,
        quantization="sq8",
        metric="ip",
    )
    datastore = split_datastore_evenly(data, config, seed=spec.seed)
    for shard in datastore.shards:
        shard.index.warm_scan_state()
    searcher = HermesSearcher(datastore)
    q = queries[: spec.hier_batch]
    searcher.search(q)  # warm every lazy structure outside the traced run
    tracer = enable_tracing()
    try:
        tracer.clear()
        searcher.search(q)
        roots = tracer.finished_roots()
    finally:
        disable_tracing()
    profile: dict = {
        "batch": spec.hier_batch,
        "n_clusters": spec.hier_clusters,
        "deep_nprobe": spec.hier_deep_nprobe,
        "retrieval_total_s": sum(r.duration_s for r in roots),
    }
    for name in _PROFILE_SPANS:
        spans = [s for root in roots for s in root.find_all(name)]
        profile[name] = {
            "count": len(spans),
            "total_s": sum(s.duration_s for s in spans),
        }
    return profile


def run_benchmarks(
    *,
    smoke: bool = False,
    out: "str | Path | None" = "BENCH_retrieval.json",
    profile: bool = False,
) -> dict:
    """Run the full harness; returns (and optionally writes) the report."""
    spec = BenchSpec.smoke() if smoke else BenchSpec()
    data, queries = _make_data(spec)
    report = {
        "bench": "retrieval",
        "smoke": smoke,
        "meta": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "n_vectors": spec.n_vectors,
            "dim": spec.dim,
            "nlist": spec.nlist,
            "nprobe": spec.nprobe,
            "k": spec.k,
            "repeats": spec.repeats,
            "numpy": np.__version__,
            **cpu_metadata(),
        },
        "single_index": _bench_single_indices(spec, data, queries, "l2"),
        "hierarchical": _bench_hierarchical(spec, data, queries),
        "tracing": _bench_tracing(spec, data, queries),
    }
    if profile:
        report["profile"] = _profile_kernels(spec, data, queries)
    report["counters"] = {
        "ivf_cells_pruned_total": get_registry()
        .counter("ivf_cells_pruned_total", "see single_index rows")
        .total(),
        "ivf_blocks_pruned_total": get_registry()
        .counter("ivf_blocks_pruned_total", "see single_index rows")
        .total(),
    }
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
    return report


def _format_report(report: dict) -> str:
    lines = [
        f"retrieval bench (smoke={report['smoke']}, "
        f"n={report['meta']['n_vectors']}, dim={report['meta']['dim']}, "
        f"cpus={report['meta']['cpu_count']})"
    ]
    for row in report["single_index"]:
        if row["before_s"] is None:
            lines.append(
                f"  {row['index']:<10s} batch={row['batch']:<3d} "
                f"after={row['after_s'] * 1e3:8.2f} ms"
            )
        else:
            pruned = (
                f" pruned={row['pruned_speedup']:4.2f}x"
                f" cells={row['cells_pruned']}"
                if row.get("strategy") == "streaming"
                else ""
            )
            lines.append(
                f"  {row['index']:<10s} batch={row['batch']:<3d} "
                f"before={row['before_s'] * 1e3:8.2f} ms "
                f"after={row['after_s'] * 1e3:8.2f} ms "
                f"speedup={row['speedup']:5.2f}x{pruned}"
            )
    h = report["hierarchical"]
    lines.append(
        f"  hierarchical {h['n_clusters']} shards batch={h['batch']}: "
        f"before={h['before_s'] * 1e3:.2f} ms "
        f"after={h['after_sequential_s'] * 1e3:.2f} ms "
        f"(speedup {h['speedup']:.2f}x)"
    )
    t = report["tracing"]
    lines.append(
        f"  tracing {t['index']} batch={t['batch']}: "
        f"disabled={t['disabled_s'] * 1e3:.2f} ms "
        f"enabled={t['enabled_s'] * 1e3:.2f} ms "
        f"(enabled overhead {t['enabled_overhead']:+.1%})"
    )
    if "profile" in report:
        p = report["profile"]
        parts = ", ".join(
            f"{name}={p[name]['total_s'] * 1e3:.2f} ms/{p[name]['count']}"
            for name in _PROFILE_SPANS
        )
        lines.append(
            f"  profile batch={p['batch']} "
            f"total={p['retrieval_total_s'] * 1e3:.2f} ms: {parts}"
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
        default="BENCH_retrieval.json",
        help="report path (default: ./BENCH_retrieval.json)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="add a per-kernel time breakdown (route/sample/deep/scan/merge) "
        "from obs spans under the report's 'profile' key",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(smoke=args.smoke, out=args.out, profile=args.profile)
    print(_format_report(report))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
