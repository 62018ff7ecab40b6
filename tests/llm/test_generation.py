"""Tests for the strided-generation timeline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.llm.generation import (
    GenerationConfig,
    RetrievalCost,
    StrideTiming,
    constant_retrieval,
    simulate_generation,
    steady_state_throughput_qps,
    stride_timeline,
)
from repro.llm.inference import InferenceModel
from repro.obs.trace import Tracer
from repro.obs.validate import validate_span_tree


@pytest.fixture()
def inference():
    return InferenceModel()


def run(retrieval_s, inference, **cfg):
    provider = constant_retrieval(RetrievalCost(latency_s=retrieval_s, energy_j=100.0))
    return simulate_generation(provider, inference, GenerationConfig(**cfg))


class TestConfig:
    def test_n_strides(self):
        assert GenerationConfig(output_tokens=256, stride=16).n_strides == 16
        assert GenerationConfig(output_tokens=250, stride=16).n_strides == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(batch=0)
        with pytest.raises(ValueError):
            GenerationConfig(stride=0)

    def test_retrieval_cost_validation(self):
        with pytest.raises(ValueError):
            RetrievalCost(latency_s=-1.0, energy_j=0.0)


class TestSequentialTimeline:
    def test_e2e_is_sum_of_stages(self, inference):
        result = run(1.0, inference)
        assert result.e2e_s == pytest.approx(
            result.encode_s + result.retrieval_s + result.prefill_s + result.decode_s
        )

    def test_retrieval_total_is_per_stride_times_strides(self, inference):
        result = run(1.0, inference)
        assert result.retrieval_s == pytest.approx(result.config.n_strides * 1.0)

    def test_ttft_contains_one_retrieval_and_prefill(self, inference):
        result = run(2.0, inference)
        assert result.ttft_s == pytest.approx(
            result.encode_s + 2.0 + result.first_prefill_s
        )

    def test_paper_e2e_calibration(self, inference):
        # The paper's Fig. 6 anchors, through the full timeline.
        for tokens_latency, expected in ((0.00562, 12.0), (5.62, 101.8), (56.2, 909.1)):
            result = run(tokens_latency, inference)
            assert result.e2e_s == pytest.approx(expected, rel=0.03)

    def test_ttft_retrieval_share_calibration(self, inference):
        # ~61% at 10B (0.562 s retrieval), ~94% at 100B (5.62 s).
        assert run(0.562, inference).retrieval_fraction_of_ttft == pytest.approx(
            0.612, abs=0.02
        )
        assert run(5.62, inference).retrieval_fraction_of_ttft == pytest.approx(
            0.94, abs=0.01
        )


class TestPrefixCaching:
    def test_cached_faster_than_baseline(self, inference):
        base = run(0.5, inference)
        cached = run(0.5, inference, prefix_cached=True)
        assert cached.e2e_s < base.e2e_s

    def test_cache_only_skips_prefill(self, inference):
        base = run(0.5, inference)
        cached = run(0.5, inference, prefix_cached=True)
        assert cached.retrieval_s == base.retrieval_s
        assert cached.decode_s == base.decode_s
        assert cached.prefill_s < base.prefill_s

    def test_ttft_unchanged(self, inference):
        # First stride always prefills in full — caching can't cut TTFT.
        base = run(0.5, inference)
        cached = run(0.5, inference, prefix_cached=True)
        assert cached.ttft_s == pytest.approx(base.ttft_s)


class TestPipelining:
    def test_pipelined_not_slower(self, inference):
        base = run(0.5, inference)
        piped = run(0.5, inference, pipelined=True)
        assert piped.e2e_s <= base.e2e_s

    def test_full_overlap_when_retrieval_small(self, inference):
        result = run(0.001, inference, pipelined=True)
        # E2E ~ encode + first retrieval + all inference.
        inference_only = result.prefill_s + result.decode_s
        assert result.e2e_s == pytest.approx(
            result.encode_s + 0.001 + inference_only, rel=0.01
        )

    def test_retrieval_bound_when_retrieval_large(self, inference):
        result = run(100.0, inference, pipelined=True)
        n = result.config.n_strides
        # All but the last stride are gated by retrieval.
        assert result.e2e_s >= 100.0 * n

    def test_pipelining_helps_most_at_crossover(self, inference):
        # The Fig. 8 shape: speedup peaks where retrieval ~ inference block.
        speedups = []
        for retr in (0.01, 0.7, 100.0):
            base = run(retr, inference)
            piped = run(retr, inference, pipelined=True)
            speedups.append(base.e2e_s / piped.e2e_s)
        assert speedups[1] > speedups[0]
        assert speedups[1] > speedups[2]

    def test_energy_unaffected_by_pipelining(self, inference):
        base = run(0.7, inference)
        piped = run(0.7, inference, pipelined=True)
        assert piped.total_energy_j == pytest.approx(base.total_energy_j)


class TestEnergyAccounting:
    def test_cpu_energy_is_retrieval(self, inference):
        result = run(1.0, inference)
        assert result.cpu_energy_j == pytest.approx(result.config.n_strides * 100.0)

    def test_gpu_energy_positive(self, inference):
        assert run(1.0, inference).gpu_energy_j > 0

    def test_stage_seconds_keys(self, inference):
        stages = run(1.0, inference).stage_seconds
        assert set(stages) == {"encoding", "retrieval", "prefill", "decoding"}


class TestThroughput:
    def test_bottleneck_is_retrieval_when_large(self, inference):
        cfg = GenerationConfig()
        qps = steady_state_throughput_qps(10.0, inference, cfg)
        assert qps == pytest.approx(cfg.batch / 10.0)

    def test_bottleneck_is_inference_when_retrieval_hidden(self, inference):
        cfg = GenerationConfig()
        block = (
            inference.prefill(cfg.batch, cfg.input_tokens).latency_s
            + inference.decode(cfg.batch, cfg.stride).latency_s
        )
        qps = steady_state_throughput_qps(0.001, inference, cfg)
        assert qps == pytest.approx(cfg.batch / block)


class TestMeterIntegration:
    def test_meter_totals_match_result(self, inference):
        from repro.hardware.power import EnergyMeter

        meter = EnergyMeter()
        provider = constant_retrieval(RetrievalCost(latency_s=1.0, energy_j=150.0))
        result = simulate_generation(
            provider, inference, GenerationConfig(), meter=meter
        )
        assert meter.total_joules() == pytest.approx(result.total_energy_j, rel=1e-6)

    def test_meter_labels_cover_stages(self, inference):
        from repro.hardware.power import EnergyMeter

        meter = EnergyMeter()
        provider = constant_retrieval(RetrievalCost(latency_s=0.5, energy_j=50.0))
        simulate_generation(provider, inference, GenerationConfig(), meter=meter)
        by_label = meter.joules_by_label()
        assert set(by_label) == {"encoding", "retrieval", "prefill", "decoding"}
        by_device = meter.joules_by_device()
        assert by_device["cpu"] == pytest.approx(50.0 * 16)

    def test_zero_latency_retrieval_recorded_safely(self, inference):
        from repro.hardware.power import EnergyMeter

        meter = EnergyMeter()
        provider = constant_retrieval(RetrievalCost(latency_s=0.0, energy_j=0.0))
        simulate_generation(provider, inference, GenerationConfig(), meter=meter)
        assert meter.joules_by_label()["retrieval"] == 0.0


SECONDS = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@st.composite
def timelines(draw):
    """Stride 0 plus up to seven strides, each placed one of four ways:
    after the block, overlapped, a verified lookahead hit, or a
    mis-speculation (wasted window, verify encode, fresh search)."""
    strides = []
    for i in range(draw(st.integers(1, 8))):
        e, r, p, d, v, w = (draw(SECONDS) for _ in range(6))
        kind = "sequential" if i == 0 else draw(
            st.sampled_from(["sequential", "overlapped", "hit", "miss"])
        )
        if kind == "sequential":
            strides.append(StrideTiming(e, r, p, d))
        elif kind == "overlapped":
            strides.append(StrideTiming(e, r, p, d, overlapped=True))
        elif kind == "hit":
            strides.append(StrideTiming(e, r, p, d, verify_s=v, overlapped=True))
        else:
            strides.append(StrideTiming(0.0, r, p, d, verify_s=v, wasted_s=w))
    return strides


def _timeline(strides, tracer=None):
    return stride_timeline(strides, tracer=tracer, encode_worker="cpu", root="t")


class TestStrideTimeline:
    """Closed forms of the one stride cursor both timelines use."""

    @given(timelines())
    def test_ttft_is_first_window_plus_prefill(self, strides):
        ttft, _ = _timeline(strides)
        first = strides[0]
        assert ttft == first.encode_s + first.retrieval_s + first.prefill_s

    @given(timelines())
    def test_e2e_closed_form(self, strides):
        """E2E = first window + per transition either max(block, window)
        (overlapped) or block + window, plus the verify encode, + the last
        block. A mis-speculated stride therefore costs block + verify +
        fresh retrieval: its wasted window ran under the block for free."""
        _, e2e = _timeline(strides)
        expected = strides[0].encode_s + strides[0].retrieval_s
        for cur, nxt in zip(strides, strides[1:]):
            block = cur.prefill_s + cur.decode_s
            window = nxt.encode_s + nxt.retrieval_s
            step = max(block, window) if nxt.overlapped else block + window
            expected += step + nxt.verify_s
        expected += strides[-1].prefill_s + strides[-1].decode_s
        assert e2e == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(st.lists(st.tuples(SECONDS, SECONDS, SECONDS, SECONDS), min_size=1, max_size=8))
    def test_all_sequential_e2e_is_sum_of_stages(self, stages):
        _, e2e = _timeline([StrideTiming(*s) for s in stages])
        assert e2e == pytest.approx(sum(map(sum, stages)), rel=1e-12, abs=1e-12)

    @given(timelines())
    def test_trace_closes_at_exactly_e2e(self, strides):
        tracer = Tracer(enabled=True)
        ttft, e2e = _timeline(strides, tracer)
        assert _timeline(strides) == (ttft, e2e)
        (root,) = tracer.finished_roots()
        validate_span_tree(root)
        assert root.start_s == 0.0 and root.end_s == e2e
        assert root.attrs["ttft_s"] == ttft and root.attrs["e2e_s"] == e2e
        assert max(c.end_s for c in root.children) == e2e

    def test_misspeculation_cost(self):
        """block 1.0 + verify 0.1 + fresh search 0.3; the 5 s wasted window
        changes nothing on the clock."""
        first = StrideTiming(0.2, 0.5, 0.6, 0.4)
        miss = StrideTiming(0.0, 0.3, 0.6, 0.4, verify_s=0.1, wasted_s=5.0)
        _, e2e = _timeline([first, miss])
        assert e2e == pytest.approx(0.2 + 0.5 + 1.0 + 0.1 + 0.3 + 1.0)

    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError):
            _timeline([])
