"""Tests for token-level strided RAG sessions."""

import numpy as np
import pytest

from repro.core.clustering import cluster_datastore
from repro.core.config import HermesConfig
from repro.core.hierarchical import HermesSearcher, RetrievalPolicy
from repro.core.session import StridedRAGSession, grounded_pseudo_decode
from repro.datastore.chunkstore import ChunkStore
from repro.datastore.corpus import (
    Chunk,
    CorpusGenerator,
    TokenVocabulary,
    chunk_documents,
)
from repro.datastore.encoder import SyntheticEncoder
from repro.serving.faults import FaultInjector, OutageWindow


@pytest.fixture(scope="module")
def stack():
    vocab = TokenVocabulary(n_topics=5, pool_size=150, common_size=80)
    gen = CorpusGenerator(vocab, doc_tokens=96, topical_fraction=0.8, seed=2)
    docs = gen.generate(250)
    chunks = chunk_documents(docs, chunk_tokens=48)
    encoder = SyntheticEncoder(dim=64, seed=0)
    embeddings = encoder.encode_chunks(chunks)
    datastore = cluster_datastore(
        embeddings, HermesConfig(n_clusters=5, clusters_to_search=2)
    )
    searcher = HermesSearcher(datastore)
    store = ChunkStore(chunks)
    return vocab, searcher, encoder, store


@pytest.fixture()
def session(stack):
    _, searcher, encoder, store = stack
    return StridedRAGSession(searcher, encoder, store, stride_tokens=16, seed=1)


def topic_query(vocab, topic, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice(vocab.topic_pool(topic), size=n, replace=False)


class TestSessionMechanics:
    def test_runs_requested_strides(self, stack, session):
        vocab = stack[0]
        trace = session.run(topic_query(vocab, 0), n_strides=6)
        assert trace.n_strides == 6
        assert all(len(s.generated_tokens) == 16 for s in trace.steps)

    def test_deterministic_for_seed(self, stack):
        vocab, searcher, encoder, store = stack
        a = StridedRAGSession(searcher, encoder, store, seed=3).run(
            topic_query(vocab, 1), n_strides=4
        )
        b = StridedRAGSession(searcher, encoder, store, seed=3).run(
            topic_query(vocab, 1), n_strides=4
        )
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.retrieved_ids, sb.retrieved_ids)
            assert np.array_equal(sa.generated_tokens, sb.generated_tokens)

    def test_validation(self, stack, session):
        vocab = stack[0]
        with pytest.raises(ValueError):
            session.run(np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            session.run(topic_query(vocab, 0), n_strides=0)
        _, searcher, encoder, store = stack
        with pytest.raises(ValueError):
            StridedRAGSession(searcher, encoder, store, grounding=1.5)


class TestSessionAnalyses:
    def test_topical_queries_retrieve_stably(self, stack, session):
        vocab = stack[0]
        trace = session.run(topic_query(vocab, 2), n_strides=8)
        # Grounded generation keeps the query in-topic, so consecutive
        # strides mostly re-route to the same clusters...
        assert trace.routing_stability() > 0.6
        # ...and RAGCache's overlap premise holds to a substantial degree.
        assert trace.document_overlap() > 0.3

    def test_high_grounding_increases_overlap(self, stack):
        vocab, searcher, encoder, store = stack
        drifty = StridedRAGSession(
            searcher, encoder, store, grounding=0.1, seed=5
        ).run(topic_query(vocab, 3), n_strides=8)
        grounded = StridedRAGSession(
            searcher, encoder, store, grounding=0.9, seed=5
        ).run(topic_query(vocab, 3), n_strides=8)
        assert grounded.document_overlap() >= drifty.document_overlap() - 0.1

    def test_generated_tokens_stay_topical(self, stack, session):
        vocab = stack[0]
        trace = session.run(topic_query(vocab, 4), n_strides=8)
        tokens = trace.all_generated_tokens()
        topics = [vocab.topic_of_token(int(t)) for t in tokens]
        topical = [t for t in topics if t >= 0]
        assert topical
        assert np.bincount(topical, minlength=5).argmax() == 4

    def test_overlap_requires_two_strides(self, stack, session):
        vocab = stack[0]
        trace = session.run(topic_query(vocab, 0), n_strides=1)
        with pytest.raises(ValueError):
            trace.document_overlap()
        with pytest.raises(ValueError):
            trace.routing_stability()


class TestRoutingReuse:
    def make_session(self, stack, **kwargs):
        _, searcher, encoder, store = stack
        return StridedRAGSession(
            searcher, encoder, store, stride_tokens=16, seed=1, **kwargs
        )

    def test_reuse_skips_sample_search(self, stack):
        vocab = stack[0]
        trace = self.make_session(stack, reuse_routing=True).run(
            topic_query(vocab, 0), n_strides=10
        )
        assert trace.routing_reuse_fraction > 0
        # The first stride has no previous routing to reuse, and reuse only
        # starts after two fresh routings agree.
        assert not trace.steps[0].routing_reused
        assert not trace.steps[1].routing_reused

    def test_reuse_bounded_by_max_routing_reuse(self, stack):
        vocab = stack[0]
        trace = self.make_session(
            stack, reuse_routing=True, max_routing_reuse=2
        ).run(topic_query(vocab, 1), n_strides=12)
        run_length = 0
        for step in trace.steps:
            run_length = run_length + 1 if step.routing_reused else 0
            assert run_length <= 2

    def test_disabled_by_default(self, stack):
        vocab = stack[0]
        trace = self.make_session(stack).run(topic_query(vocab, 2), n_strides=8)
        assert trace.routing_reuse_fraction == 0.0

    def test_validation(self, stack):
        with pytest.raises(ValueError):
            self.make_session(stack, routing_stability_threshold=1.5)
        with pytest.raises(ValueError):
            self.make_session(stack, max_routing_reuse=0)


#: (seed, context, top chunk, grounding, stride_tokens, three strides of
#: tokens) — recorded from the two pseudo-decode copies this function
#: replaced (session and serving pipeline, which agreed). Pins the RNG draw
#: order (top chunk first, then context) that seeded NDCG and lookahead
#: hit/miss counts depend on.
GOLDEN_STRIDES = [
    (
        0,
        list(range(10, 30)),
        list(range(100, 148)),
        0.5,
        16,
        [
            [140, 130, 124, 112, 114, 101, 103, 100, 13, 26, 22, 28, 20, 22, 29, 24],
            [130, 126, 126, 144, 113, 139, 132, 100, 24, 22, 29, 11, 100, 103, 22, 16],
            [104, 141, 101, 125, 103, 114, 123, 120, 140, 11, 10, 16, 10, 29, 100, 22],
        ],
    ),
    (
        7,
        [5, 5, 6, 7],
        list(range(200, 264)),
        1.0,
        16,
        [
            [260, 240, 243, 257, 237, 249, 253, 214, 203, 219, 218, 255, 258, 200, 231, 252],
            [208, 251, 207, 229, 252, 219, 221, 217, 246, 216, 263, 228, 230, 232, 237, 235],
            [232, 263, 251, 250, 244, 239, 221, 263, 229, 213, 254, 210, 254, 239, 207, 202],
        ],
    ),
    (
        42,
        list(range(1, 65)),
        [9, 8, 7],
        0.25,
        16,
        [
            [9, 7, 8, 8, 28, 55, 6, 45, 13, 7, 34, 63, 48, 49, 46, 51],
            [8, 9, 7, 8, 41, 30, 15, 34, 63, 52, 33, 7, 44, 36, 37, 19],
            [9, 8, 7, 9, 7, 51, 27, 61, 16, 13, 8, 35, 7, 36, 43, 30],
        ],
    ),
    (
        123,
        list(range(300, 340)),
        list(range(500, 596)),
        0.0,
        16,
        [
            [300, 327, 323, 302, 336, 308, 310, 307, 313, 307, 313, 332, 318, 336, 317, 311],
            [336, 308, 313, 307, 301, 328, 315, 313, 313, 310, 336, 311, 322, 327, 308, 335],
            [331, 336, 336, 316, 301, 308, 315, 337, 308, 316, 317, 311, 300, 335, 301, 327],
        ],
    ),
    (
        2024,
        [3, 1, 4, 1, 5, 9, 2, 6],
        list(range(40, 88)),
        0.75,
        8,
        [
            [51, 72, 44, 50, 55, 54, 6, 2],
            [83, 87, 43, 46, 81, 43, 4, 4],
            [83, 57, 52, 48, 62, 68, 46, 6],
        ],
    ),
]


class TestGroundedPseudoDecode:
    @pytest.mark.parametrize(
        "seed, context, top, grounding, stride_tokens, expected", GOLDEN_STRIDES
    )
    def test_reproduces_golden_tokens(
        self, seed, context, top, grounding, stride_tokens, expected
    ):
        store = ChunkStore([Chunk(0, 0, 0, np.asarray(top, dtype=np.int64))])
        rng = np.random.default_rng(seed)
        context = np.asarray(context, dtype=np.int64)
        for want in expected:
            got = grounded_pseudo_decode(
                rng,
                context,
                np.array([0, -1]),
                store,
                stride_tokens=stride_tokens,
                grounding=grounding,
            )
            assert got.dtype == np.int64
            assert got.tolist() == want
            context = np.concatenate([context, got])

    @pytest.mark.parametrize("ids", [np.array([-1, -1]), np.empty(0, np.int64)])
    def test_no_top_chunk_draws_whole_stride_from_context(self, ids):
        store = ChunkStore([Chunk(0, 0, 0, np.arange(100, 148))])
        context = np.arange(10, 30)
        got = grounded_pseudo_decode(
            np.random.default_rng(0),
            context,
            ids,
            store,
            stride_tokens=16,
            grounding=1.0,
        )
        assert len(got) == 16
        assert np.isin(got, context).all()

    def test_session_survives_fully_degraded_stride(self, stack):
        """Every shard fails its first deep search (call 1, after a clean
        sampling probe), so stride 0 comes back all ``-1`` under the
        retrieval policy. With ``grounding=1.0`` the stride is drawn from
        the query context instead of raising mid-run."""
        vocab, searcher, encoder, store = stack
        chaotic = FaultInjector(0).wrap(
            searcher.datastore,
            {s: OutageWindow(start_call=1) for s in range(5)},
        )
        session = StridedRAGSession(
            HermesSearcher(chaotic, policy=RetrievalPolicy(max_attempts=1)),
            encoder,
            store,
            grounding=1.0,
            seed=1,
        )
        query = topic_query(vocab, 0)
        trace = session.run(query, n_strides=3)
        first = trace.steps[0]
        assert (first.retrieved_ids == -1).all()
        assert len(first.generated_tokens) == 16
        assert np.isin(first.generated_tokens, query).all()
        assert (trace.steps[1].retrieved_ids >= 0).any()
