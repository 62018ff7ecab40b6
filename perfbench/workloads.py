"""The four workloads: inputs made from the seed, runners and output checks.

Each workload is built so that one layer does most of the work:

- ``retrieve-unique``: distinct queries, so every cache lookup misses and the
  searcher (route + deep scan) does the work;
- ``retrieve-hot``: Zipf draws from a small pool, half of them jittered, so
  the exact and semantic cache tiers serve most requests;
- ``retrieve-churn``: the ``retrieve-unique`` reads plus a fixed-rate writer,
  the only workload where delta scans, tombstones and compaction work;
- ``rag-lookahead``: cohorts through ``RAGServingPipeline`` in lookahead mode,
  the only workload where the encoder and speculative retrieval work.

Inputs depend only on the seed (and on ``seconds``, which sets how many are
generated); the program receives only these inputs. Every run checks the
served outputs and records each failure against the operations attempted.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.baselines.monolithic import MonolithicRetriever
from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher
from repro.datastore.chunkstore import ChunkStore
from repro.datastore.corpus import CorpusGenerator, TokenVocabulary, chunk_documents
from repro.datastore.embeddings import TopicModel, make_corpus, zipf_weights
from repro.datastore.encoder import SyntheticEncoder
from repro.datastore.queries import natural_questions_queries, trivia_queries
from repro.metrics.ndcg import ndcg_single
from repro.serving.cache import EXACT_HIT, MISS, ROUTING_HIT, CacheConfig
from repro.serving.frontend import DynamicBatcher, ServingFrontend
from repro.serving.pipeline import PipelineConfig, RAGServingPipeline

K = 10
DIM = 64
#: The documents (and retrieve-hot's query pool) are the deployment under
#: test and stay the same in every run; the seed varies the traffic: which
#: queries arrive, when, with what jitter, the writes and the cohorts. A
#: per-seed pool made retrieve-hot's NDCG swing with whichever few queries
#: the Zipf head happened to hold.
CORPUS_SEED = 0
N_TOPICS = 10
#: retrieve-* datastore: 50k documents over 10 sq8 shards.
N_DOCS = 50_000
#: rag-lookahead datastore: 8k token documents, two 64-token chunks each.
RAG_DOCS = 8_000
#: Cold builds per run; setup_s is their median.
SETUP_REPEATS = 5
#: Offered rate of the retrieve-* open loops. Requests mostly arrive alone,
#: each a batch-1 search of ~7-10 ms, and queueing amplifies the shared
#: host's shifts in speed: on a 2-CPU host retrieve-churn's p50 over five
#: seeds ranged 15-26 ms at 50 req/s and 13.6-14.8 ms at 20 req/s.
RATE = 20.0
#: Requests per saturating burst in the throughput phase. retrieve-hot's
#: requests are mostly cache hits, ~30x cheaper, so its bursts are larger:
#: a 512-request burst there lasts ~20 ms. How the submitting and serving
#: threads share the interpreter lock moves a hot burst's rate by up to a
#: quarter between bursts of one run; 16384-request bursts did not make the
#: median steadier than these and doubled a traced run's memory (to 600 MB).
BURST = 512
HOT_BURST = 8192
#: Share of ``seconds`` spent in the open loop; the rest runs bursts.
OPEN_SHARE = 0.85
#: Rounds of (open-loop segment, one burst) per run.
SEGMENTS = 8
#: Untimed warm-up before every measured phase.
WARM_S = 1.5
MAX_BATCH = 32
MAX_WAIT_S = 0.002
#: Served requests scored for NDCG and re-searched for the probe check.
N_SCORED = 512
N_PROBES = 128
#: Quality floor of the correctness gate (observed values sit near 0.9).
NDCG_FLOOR = 0.7
# retrieve-hot stream
HOT_POOL = 256
HOT_ALPHA = 1.2
HOT_JITTER = 0.003
# retrieve-churn writer: every tick inserts WRITE_BATCH new documents and
# deletes those inserted DELETE_LAG ticks earlier; every COMPACT_EVERY
# ticks it compacts. Twice this rate left too little idle CPU on a slow
# host: read latency then tripled and swung by a third between runs.
WRITE_PERIOD_S = 0.1
WRITE_BATCH = 32
DELETE_LAG = 8
COMPACT_EVERY = 20
N_VERIFY = 512
# rag-lookahead cohorts
RAG_LONG, RAG_SHORT = 24, 8
RAG_LONG_TOKENS, RAG_SHORT_TOKENS = 64, 8
RAG_STRIDES = 4
RAG_STRIDE_TOKENS = 16
RAG_SPEC_THRESHOLD = 0.95
#: Upper bound on cohorts one run can consume (a cohort takes ~0.12 s).
RAG_MAX_COHORTS_PER_S = 40

clock = time.perf_counter


#: The paper's operating point (10 sq8 shards, 3 searched) at k=10.
CONFIG = HermesConfig(k=K)


# -- inputs ---------------------------------------------------------------


@dataclass(frozen=True)
class RetrieveInputs:
    corpus: np.ndarray
    warm: np.ndarray
    stream: np.ndarray
    due: np.ndarray
    bursts: np.ndarray
    #: requests per burst; ``warm`` ends with one burst
    burst: int
    #: retrieve-churn only: (ticks, WRITE_BATCH, DIM) insert vectors and the
    #: post-drain verification queries.
    writes: np.ndarray | None = None
    verify: np.ndarray | None = None


@dataclass(frozen=True)
class RagInputs:
    corpus: np.ndarray
    chunks: list
    warm: list
    cohorts: list


def _poisson_due(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    n = int(rate * duration * 1.5) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return due[due < duration]


def _hot_stream(rng, pool: np.ndarray, n: int) -> np.ndarray:
    picks = rng.choice(len(pool), size=n, p=zipf_weights(len(pool), exponent=HOT_ALPHA))
    queries = pool[picks].copy()
    jittered = rng.random(n) < 0.5
    queries[jittered] += rng.normal(scale=HOT_JITTER, size=(int(jittered.sum()), pool.shape[1]))
    return queries.astype(np.float32)


def make_inputs(workload: str, seed: int, seconds: float):
    """Every input of one run, from the seed alone (plus the run length)."""
    if workload == "rag-lookahead":
        return _rag_inputs(seed, seconds)
    rng = np.random.default_rng([seed, 1])
    corpus = make_corpus(N_DOCS, n_topics=N_TOPICS, dim=DIM, seed=CORPUS_SEED)
    model = corpus.topic_model
    open_s = seconds * OPEN_SHARE
    due = _poisson_due(rng, RATE, open_s)
    # Warm-up: WARM_S of the open loop, then one burst.
    burst = HOT_BURST if workload == "retrieve-hot" else BURST
    n_warm = int(RATE * WARM_S) + burst
    n_burst = burst * SEGMENTS
    n_total = n_warm + len(due) + n_burst
    if workload == "retrieve-hot":
        pool = natural_questions_queries(model, HOT_POOL, seed=CORPUS_SEED + 11).embeddings
        queries = _hot_stream(rng, pool, n_total)
    elif workload in ("retrieve-unique", "retrieve-churn"):
        queries = trivia_queries(model, n_total, seed=seed + 13).embeddings
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warm = queries[:n_warm]
    stream = queries[n_warm : n_warm + len(due)]
    bursts = queries[n_warm + len(due) :]
    writes = verify = None
    if workload == "retrieve-churn":
        # Supply for the warm-up, the open loop and the bursts, whose length
        # depends on the host's speed; a writer that runs out fails the run.
        ticks = int((WARM_S + 3 * seconds + 30.0) / WRITE_PERIOD_S)
        writer = TopicModel(
            centers=model.centers, weights=model.weights, spread=model.spread,
            rng_seed=seed + 17,
        )
        writes = writer.sample_documents(ticks * WRITE_BATCH)[0].reshape(ticks, WRITE_BATCH, DIM)
        verify = trivia_queries(model, N_VERIFY, seed=seed + 19).embeddings
    return RetrieveInputs(corpus.embeddings, warm, stream, due, bursts, burst, writes, verify)


def _rag_inputs(seed: int, seconds: float) -> RagInputs:
    vocab = TokenVocabulary(n_topics=N_TOPICS, pool_size=200, common_size=100)
    gen = CorpusGenerator(vocab, doc_tokens=128, topical_fraction=0.8, seed=CORPUS_SEED)
    chunks = chunk_documents(gen.generate(RAG_DOCS), chunk_tokens=64)
    corpus = SyntheticEncoder(dim=DIM, seed=0).encode_chunks(chunks)
    rng = np.random.default_rng([seed, 2])

    def cohort():
        out = []
        for i in range(RAG_LONG + RAG_SHORT):
            source = chunks[int(rng.integers(len(chunks)))].tokens
            size = RAG_LONG_TOKENS if i < RAG_LONG else RAG_SHORT_TOKENS
            out.append(np.asarray(rng.choice(source, size=size)))
        return out

    warm = cohort()
    cohorts = [cohort() for _ in range(int(RAG_MAX_COHORTS_PER_S * seconds) + 1)]
    return RagInputs(corpus, chunks, warm, cohorts)


def input_digest(inputs) -> str:
    """Digest of every input array of a run (equal seeds, equal digests)."""
    h = hashlib.blake2b(digest_size=16)
    if isinstance(inputs, RagInputs):
        arrays = [inputs.corpus] + [t for c in [inputs.warm, *inputs.cohorts] for t in c]
    else:
        arrays = [inputs.corpus, inputs.warm, inputs.stream, inputs.due, inputs.bursts]
        arrays += [a for a in (inputs.writes, inputs.verify) if a is not None]
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- setup ------------------------------------------------------------------


@dataclass
class Setup:
    datastores: list
    build_s: list
    warm_s: list
    kmeans_s: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return float(np.median(np.add(self.build_s, self.warm_s)))


def setup(corpus: np.ndarray, recorder=None) -> Setup:
    """SETUP_REPEATS cold builds, each warmed; the builds are kept for use.

    ``cluster_datastore`` does not consult the build cache, so every build
    is cold. When a recorder is installed its ``build`` spans time the
    K-means seed sweep inside each build.
    """
    out = Setup([], [], [])
    for _ in range(SETUP_REPEATS):
        first_span = len(recorder.spans) if recorder is not None else 0
        t0 = clock()
        ds = cluster_datastore(corpus, CONFIG)
        t1 = clock()
        for shard in ds.shards:
            shard.index.warm_scan_state()
        t2 = clock()
        out.datastores.append(ds)
        out.build_s.append(t1 - t0)
        out.warm_s.append(t2 - t1)
        if recorder is not None:
            out.kmeans_s.append(
                sum(s.duration for s in recorder.spans[first_span:] if s.layer == "build")
            )
    return out


# -- results and checks -------------------------------------------------------


@dataclass
class Served:
    """Served results in submission order (the batcher is first-in first-out).

    Each field is a list, or an array with one row per result.
    """

    queries: list = field(default_factory=list)
    ids: list = field(default_factory=list)
    distances: list = field(default_factory=list)
    kinds: list = field(default_factory=list)

    def add(self, query, answer) -> None:
        self.queries.append(query)
        self.ids.append(np.asarray(answer.ids))
        self.distances.append(np.asarray(answer.distances))
        self.kinds.append(int(answer.kind))


class CheckFailed(Exception):
    """A served output disagreed with its reference."""


def _digest(row: np.ndarray) -> bytes:
    return np.ascontiguousarray(row, dtype=np.float32).tobytes()


def check_exact_replays(served: Served, *, ordered: bool = True) -> int:
    """Exact-tier hits must replay a cached result bit for bit.

    With ``ordered`` each exact hit must equal the latest result inserted
    into the cache (a miss or routing-tier hit) for the same query before it.
    Without order (the pipeline does not report its submission order) it
    must equal one of the inserted results recorded for that query; hits
    whose insert was not recorded are skipped. Returns the hits checked.
    """
    inserted: dict = {}
    checked = 0
    for q, ids, dist, kind in zip(served.queries, served.ids, served.distances, served.kinds):
        key = _digest(q)
        if kind in (MISS, ROUTING_HIT):
            if ordered:
                inserted[key] = [(ids, dist)]
            else:
                inserted.setdefault(key, []).append((ids, dist))
        elif kind == EXACT_HIT and key in inserted:
            if not any(
                np.array_equal(ids, i) and np.array_equal(dist, d) for i, d in inserted[key]
            ):
                raise CheckFailed("exact-hit replay is not bit-identical to the cached result")
            checked += 1
        elif kind == EXACT_HIT and ordered:
            raise CheckFailed("exact hit for a query never inserted into the cache")
    return checked


def _spread(n: int, m: int) -> np.ndarray:
    """Up to ``m`` evenly spaced indices into ``range(n)``."""
    return np.unique(np.linspace(0, n - 1, num=min(n, m)).astype(np.int64)) if n else np.empty(0, np.int64)


#: Distance tolerance of the probe check. Float32 GEMM sums in an order that
#: depends on the batch a query shares, so a re-search in another batch moves
#: distances by ~1e-7 and can swap ids whose distances tie to that level.
TIE_TOL = 1e-5


def same_ranking(ids_a, dist_a, ids_b, dist_b, tol: float = TIE_TOL) -> bool:
    """Equal top-k lists, up to the order of ids whose distances tie.

    Distances must agree position by position within ``tol``. Ids must be
    equal except inside a run of tied distances, where the two lists must
    hold the same set of ids. The run that reaches the last position may
    hold other ids with the same distances, because a tie there can extend
    past the cut.
    """
    if not np.allclose(dist_a, dist_b, rtol=0.0, atol=tol):
        return False
    start = 0
    for end in range(1, len(ids_b) + 1):
        if end < len(ids_b) and abs(float(dist_b[end]) - float(dist_b[end - 1])) <= tol:
            continue
        if end < len(ids_b) and set(ids_a[start:end].tolist()) != set(ids_b[start:end].tolist()):
            return False
        start = end
    return True


def check_probes(searcher, served: Served, k: int = K) -> int:
    """Served misses must equal a direct ``HierarchicalSearcher.search``."""
    misses = [i for i, kind in enumerate(served.kinds) if kind == MISS]
    rows = [misses[i] for i in _spread(len(misses), N_PROBES)]
    for start in range(0, len(rows), MAX_BATCH):
        chunk = rows[start : start + MAX_BATCH]
        direct = searcher.search(np.stack([served.queries[i] for i in chunk]), k=k)
        for j, i in enumerate(chunk):
            if not same_ranking(served.ids[i], served.distances[i], direct.ids[j], direct.distances[j]):
                raise CheckFailed(
                    f"served ids of request {i} differ from a direct search of the same query"
                )
    return len(rows)


def score_ndcg(corpus: np.ndarray, queries: list, ids: list, id_map=None) -> float:
    """Mean NDCG@K of served ids against brute-force truth over ``corpus``."""
    if not queries:
        raise CheckFailed("no served requests to score")
    _, truth = MonolithicRetriever(corpus).ground_truth(np.stack(queries), K)
    if id_map is not None:
        truth = np.where(truth >= 0, id_map[np.clip(truth, 0, None)], -1)
    return float(np.mean([ndcg_single(i, t) for i, t in zip(ids, truth)]))


def quality_gate(ndcg: float) -> None:
    if not ndcg >= NDCG_FLOOR:
        raise CheckFailed(f"ndcg10 {ndcg:.3f} below the floor {NDCG_FLOOR}")


# -- retrieve-* -------------------------------------------------------------


@dataclass
class RetrieveRun:
    latency_s: np.ndarray
    lag_s: np.ndarray
    due_abs: np.ndarray
    done_abs: np.ndarray
    burst_rates: list
    attempted: int
    failed: int
    #: the open-loop segments, the phase per-layer metrics describe
    windows: list
    write_s: list = field(default_factory=list)
    delta_rows_peak: int = 0
    ndcg10: float = float("nan")
    checks: dict = field(default_factory=dict)

    @property
    def latency_samples(self) -> np.ndarray:
        """Due-to-done seconds of the answered open-loop requests."""
        return self.latency_s[np.isfinite(self.latency_s)]

    @property
    def throughput(self) -> tuple:
        """(requests over seconds of all bursts, bursts).

        The bursts are equal in size, so this is the harmonic mean of their
        rates. A burst's rate varies by ~15% within a run; over eight runs the
        pooled rate spread a quarter less than the median burst rate.
        """
        rates = np.asarray(self.burst_rates)
        return float(len(rates) / np.sum(1.0 / rates)), len(rates)


class _Writer(threading.Thread):
    """Fixed-rate writer: insert, delete earlier inserts, compact periodically."""

    def __init__(self, datastore, writes: np.ndarray) -> None:
        super().__init__(name="perfbench-writer", daemon=True)
        self.datastore = datastore
        self.writes = writes
        self.stop = threading.Event()
        self.timed = threading.Event()
        self.latency: list = []
        self.rows_peak = 0
        self.attempted = 0
        self.failed = 0
        #: what went wrong outside the timed phase, where nothing is counted
        self.errors: list = []

    def _op(self, fn, *args):
        timed = self.timed.is_set()
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed write: counted, or reported if untimed
            out = None
            if timed:
                self.failed += 1
            else:
                self.errors.append(repr(exc))
        if timed:
            self.attempted += 1
            if fn.__name__ != "compact":
                self.latency.append(clock() - t0)
        return out

    def run(self) -> None:
        ds = self.datastore
        inserted = []
        t0 = clock()
        for tick, vecs in enumerate(self.writes):
            wait = t0 + tick * WRITE_PERIOD_S - clock()
            if self.stop.wait(max(wait, 0.0)):
                return
            inserted.append(self._op(ds.add_documents, vecs))
            if tick >= DELETE_LAG and inserted[tick - DELETE_LAG] is not None:
                self._op(ds.delete_documents, inserted[tick - DELETE_LAG])
            if tick % COMPACT_EVERY == COMPACT_EVERY - 1:
                self._op(ds.compact)
            if self.timed.is_set():
                self.rows_peak = max(self.rows_peak, ds.delta_rows())
        self.errors.append("writer ran out of pre-generated writes")


def _submit(batcher, query, recorder, due):
    if recorder is not None:
        recorder.set_due(due)
    return batcher.submit(query, k=K)


class _Chunk(NamedTuple):
    """The answers to one chunk of requests, copied out of their objects."""

    #: per request: whether it was answered
    ok: np.ndarray
    #: the answered requests only, in submission order
    queries: np.ndarray
    ids: np.ndarray
    distances: np.ndarray
    kinds: np.ndarray


def _answers(queries: np.ndarray, futures) -> _Chunk:
    """Wait for one chunk's answers and copy them into arrays.

    Holding one object per answer until the checks made every full garbage
    collection scan all the answers served so far: on retrieve-hot these
    collections grew to ~100 ms and fell inside the late bursts.
    """
    answers = []
    for f in futures:
        try:
            answers.append(f.result())
        except Exception:
            answers.append(None)
    ok = np.array([a is not None for a in answers], dtype=bool)
    got = [a for a in answers if a is not None]
    if not got:
        return _Chunk(ok, np.empty((0, DIM)), np.empty((0, K), np.int64), np.empty((0, K)), np.empty(0, np.int64))
    return _Chunk(
        ok,
        queries[ok],
        np.stack([a.ids for a in got]),
        np.stack([a.distances for a in got]),
        np.array([a.kind for a in got]),
    )


def run_retrieve(workload, inputs: RetrieveInputs, datastore, seconds, recorder=None) -> RetrieveRun:
    """Warm up, then SEGMENTS rounds of (open-loop segment, one burst); then the checks.

    Interleaving spreads both the latency and the throughput samples over
    the whole run, so a slow stretch of the host weighs on both alike.
    Each open-loop segment drains before its burst, and its due times are
    offsets from the segment start, so bursts never queue ahead of timed
    requests.
    """
    searcher = HermesSearcher(datastore)
    frontend = ServingFrontend(searcher, cache_config=CacheConfig())
    batcher = DynamicBatcher(frontend, max_batch=MAX_BATCH, max_wait_s=MAX_WAIT_S)
    writer = None
    if inputs.writes is not None:
        writer = _Writer(datastore, inputs.writes)
        writer.start()
    n = len(inputs.stream)
    done = np.full(n, np.nan)
    due_abs = np.full(n, np.nan)
    lag = np.full(n, np.nan)
    stream_ids = np.full((n, K), -1, dtype=np.int64)
    stream_ok = np.zeros(n, dtype=bool)
    chunks = []  # in submission order
    rates = []
    windows = []
    segment_s = seconds * OPEN_SHARE / SEGMENTS
    try:
        # Warm-up: the batcher thread, cache tiers, scan state and arenas.
        t0 = clock()
        warm = []
        for i, q in enumerate(inputs.warm[: -inputs.burst]):
            wait = t0 + i / RATE - clock()
            if wait > 0:
                time.sleep(wait)
            warm.append(_submit(batcher, q, recorder, None))
        warm += [_submit(batcher, q, recorder, None) for q in inputs.warm[-inputs.burst :]]
        chunks.append(_answers(inputs.warm, warm))
        if recorder is not None:
            recorder.clear()
        if writer is not None:
            writer.timed.set()
        for seg in range(SEGMENTS):
            rows = np.flatnonzero(
                (inputs.due >= seg * segment_s) & (inputs.due < (seg + 1) * segment_s)
            )
            begin = clock() + 0.005
            futures = []
            for i in rows:
                due = begin + inputs.due[i] - seg * segment_s
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                due_abs[i] = due
                lag[i] = clock() - due
                f = _submit(batcher, inputs.stream[i], recorder, due)
                f.add_done_callback(lambda _f, i=i: done.__setitem__(i, clock()))
                futures.append(f)
            chunk = _answers(inputs.stream[rows], futures)
            done[rows[~chunk.ok]] = np.nan  # failures count in `failed`, not in latency
            stream_ok[rows] = chunk.ok
            stream_ids[rows[chunk.ok]] = chunk.ids
            chunks.append(chunk)
            windows.append((begin, clock()))
            burst = inputs.bursts[seg * inputs.burst : (seg + 1) * inputs.burst]
            t = clock()
            futures = [_submit(batcher, q, recorder, None) for q in burst]
            for f in futures:
                f.exception()  # waits; failures are counted from the chunk
            rates.append(len(burst) / (clock() - t))
            chunks.append(_answers(burst, futures))
    finally:
        if writer is not None:
            writer.stop.set()
            writer.join()
        batcher.close()
        if recorder is not None:
            recorder.restore()
    n_warm = len(inputs.warm)
    ok = np.concatenate([c.ok for c in chunks])
    if not ok[:n_warm].all():
        raise CheckFailed("a warm-up request failed")
    served = Served(
        queries=np.concatenate([c.queries for c in chunks]),
        ids=np.concatenate([c.ids for c in chunks]),
        distances=np.concatenate([c.distances for c in chunks]),
        kinds=np.concatenate([c.kinds for c in chunks]),
    )
    run = RetrieveRun(
        latency_s=done - due_abs,
        lag_s=lag,
        due_abs=due_abs,
        done_abs=done,
        burst_rates=rates,
        attempted=len(ok) - n_warm,
        failed=int((~ok[n_warm:]).sum()),
        windows=windows,
    )
    if writer is not None:
        run.attempted += writer.attempted
        run.failed += writer.failed
        run.write_s = writer.latency
        run.delta_rows_peak = writer.rows_peak
        if writer.errors:
            raise CheckFailed(f"writer: {writer.errors[0]}")
    run.checks["exact_replays"] = check_exact_replays(served)
    if workload == "retrieve-churn":
        _verify_after_drain(run, inputs, datastore, searcher)
    else:
        run.checks["probes"] = check_probes(searcher, served)
        answered = np.flatnonzero(stream_ok)
        pick = answered[_spread(len(answered), N_SCORED)]
        run.ndcg10 = score_ndcg(inputs.corpus, list(inputs.stream[pick]), list(stream_ids[pick]))
        run.checks["scored"] = len(pick)
    quality_gate(run.ndcg10)
    return run


def _verify_after_drain(run: RetrieveRun, inputs, datastore, searcher) -> None:
    """After the writer stops: serve fresh queries, score them over the live set."""
    frontend = ServingFrontend(searcher, cache_config=CacheConfig())
    with DynamicBatcher(frontend, max_batch=MAX_BATCH, max_wait_s=MAX_WAIT_S) as batcher:
        answers = [f.result() for f in [batcher.submit(q, k=K) for q in inputs.verify]]
    served = Served()
    for q, a in zip(inputs.verify, answers):
        served.add(q, a)
    run.checks["probes"] = check_probes(searcher, served)
    vecs, live = datastore.live_vectors()
    run.ndcg10 = score_ndcg(vecs, list(inputs.verify), served.ids, id_map=live)
    run.checks["scored"] = len(inputs.verify)


# -- rag-lookahead ------------------------------------------------------------


@dataclass
class RagRun:
    #: measured retrieval windows (encode + submit to done), seconds
    retrieval_s: np.ndarray
    #: (retrievals, serve() seconds) per cohort
    cohorts: list
    reports: list
    attempted: int
    failed: int
    windows: list
    ndcg10: float = float("nan")
    checks: dict = field(default_factory=dict)

    @property
    def latency_samples(self) -> np.ndarray:
        return self.retrieval_s

    @property
    def throughput(self) -> tuple:
        """(median over cohorts of retrievals per second of serve(), cohorts)."""
        return float(np.median([n / wall for n, wall in self.cohorts])), len(self.cohorts)


def _retrievals(report) -> int:
    """Retrieval windows one cohort measured: one per stride, plus wasted ones."""
    strides = [s for r in report.completed for s in r.strides]
    return len(strides) + sum(1 for s in strides if s.fallback_s > 0)


RAG_CONFIG = PipelineConfig(
    mode="lookahead",
    n_strides=RAG_STRIDES,
    stride_tokens=RAG_STRIDE_TOKENS,
    k=K,
    speculation_threshold=RAG_SPEC_THRESHOLD,
)


def run_rag(inputs: RagInputs, datastore, seconds, recorder=None, seed: int = 0) -> RagRun:
    """Serve cohorts until ``seconds`` of serve() wall time; then the checks."""
    searcher = HermesSearcher(datastore)
    encoder = SyntheticEncoder(dim=DIM, seed=0)
    store = ChunkStore(inputs.chunks)
    reports = []
    walls = []
    with RAGServingPipeline(searcher, encoder, store, config=RAG_CONFIG, seed=seed) as pipeline:
        pipeline.serve(inputs.warm)
        if recorder is not None:
            recorder.clear()
        start = clock()
        for cohort in inputs.cohorts:
            t = clock()
            reports.append(pipeline.serve(cohort))
            walls.append(clock() - t)
            if sum(walls) >= seconds:
                break
        windows = [(start, clock())]
    if recorder is not None:
        recorder.restore()
    records = [s for rep in reports for r in rep.completed for s in r.strides]
    retrievals = [s.encode_s + s.retrieval_s for s in records]
    retrievals += [s.fallback_s for s in records if s.fallback_s > 0]
    run = RagRun(
        retrieval_s=np.asarray(retrievals),
        cohorts=[(_retrievals(rep), wall) for rep, wall in zip(reports, walls)],
        reports=reports,
        attempted=sum(len(rep.requests) for rep in reports),
        failed=sum(rep.shed for rep in reports),
        windows=windows,
    )
    served = Served()
    for s in records:
        served.queries.append(s.query)
        served.ids.append(s.ids)
        served.distances.append(s.distances)
        served.kinds.append(s.kind)
    run.checks["exact_replays"] = check_exact_replays(served, ordered=False)
    run.checks["probes"] = check_probes(searcher, served)
    pick = _spread(len(records), N_SCORED)
    run.ndcg10 = score_ndcg(
        inputs.corpus, [records[i].true_query for i in pick], [records[i].ids for i in pick]
    )
    run.checks["scored"] = len(pick)
    quality_gate(run.ndcg10)
    return run
