"""Strided RAG generation timeline.

Composes the four pipeline stages of the paper's Fig. 3 — query encoding,
retrieval, prefill, decode — into TTFT / end-to-end latency and per-device
energy, under the execution disciplines the paper compares:

- **sequential** (unoptimized baseline): every stride runs
  retrieve → prefill → decode back to back;
- **prefix-cached** (RAGCache): prefill after the first stride shrinks to the
  newly generated tokens (ideal 100% KV hit rate, §3 Takeaway 3);
- **pipelined** (PipeRAG): the retrieval for stride *i+1* overlaps the
  inference of stride *i*, so each stride costs
  ``max(retrieval, inference)`` after the first — which is why pipelining
  stops helping once retrieval dwarfs inference on large datastores;
- any combination (Hermes composes with both).

Retrieval is supplied per stride as a :class:`RetrievalCost`, so monolithic,
naively split, and Hermes retrieval all plug into the same timeline.

:func:`stride_timeline` is the one place where per-stride stage seconds add
up to TTFT and E2E. It walks a single cursor over :class:`StrideTiming`
records and, when tracing, emits the span tree from that same cursor, so the
root closes at exactly the returned E2E. Both the modelled timeline here
(:func:`simulate_generation`) and the live serving pipeline
(:mod:`repro.serving.pipeline`, measured encode/retrieval plus lookahead
verification and mis-speculation) place their strides through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..obs.trace import Tracer
from ..perfmodel.measurements import EncoderCostModel
from .inference import InferenceModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.power import EnergyMeter
from .kvcache import IdealPrefixCache


@dataclass(frozen=True)
class RetrievalCost:
    """Latency and energy of one batched retrieval call."""

    latency_s: float
    energy_j: float

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.energy_j < 0:
            raise ValueError("retrieval latency and energy must be non-negative")


#: Supplies the retrieval cost of stride *i* (0-based).
RetrievalProvider = Callable[[int], RetrievalCost]


def constant_retrieval(cost: RetrievalCost) -> RetrievalProvider:
    """Provider returning the same cost every stride (steady-state serving)."""

    def provide(stride_index: int) -> RetrievalCost:
        del stride_index
        return cost

    return provide


@dataclass(frozen=True)
class GenerationConfig:
    """Serving configuration for one generation run (paper §5 defaults)."""

    batch: int = 32
    input_tokens: int = 512
    output_tokens: int = 256
    stride: int = 16
    pipelined: bool = False
    prefix_cached: bool = False

    def __post_init__(self) -> None:
        if min(self.batch, self.input_tokens, self.output_tokens, self.stride) <= 0:
            raise ValueError("batch, token counts, and stride must be positive")

    @property
    def n_strides(self) -> int:
        """Number of retrieval strides to generate all output tokens."""
        return math.ceil(self.output_tokens / self.stride)


@dataclass(frozen=True)
class GenerationResult:
    """Latency/energy outcome of one simulated generation batch."""

    ttft_s: float
    e2e_s: float
    encode_s: float
    retrieval_s: float
    prefill_s: float
    decode_s: float
    first_retrieval_s: float
    first_prefill_s: float
    cpu_energy_j: float
    gpu_energy_j: float
    config: GenerationConfig

    @property
    def total_energy_j(self) -> float:
        return self.cpu_energy_j + self.gpu_energy_j

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Per-stage busy time (sums can exceed e2e when pipelined)."""
        return {
            "encoding": self.encode_s,
            "retrieval": self.retrieval_s,
            "prefill": self.prefill_s,
            "decoding": self.decode_s,
        }

    @property
    def retrieval_fraction_of_ttft(self) -> float:
        """Retrieval share of TTFT (the paper quotes 61% @10B, 94% @100B)."""
        if self.ttft_s <= 0:
            return 0.0
        return self.first_retrieval_s / self.ttft_s


@dataclass(frozen=True)
class StrideTiming:
    """One stride's stage seconds, as placed on the generation timeline.

    ``encode_s`` + ``retrieval_s`` is the query window that produced this
    stride's context. ``overlapped`` marks a window issued at the start of
    the previous stride's inference block and run under it; otherwise the
    window starts when that block ends. ``verify_s`` is an encode paid after
    the previous block (lookahead verification), and ``wasted_s`` a
    mis-speculated window that ran under the previous block before this
    stride's fresh, non-overlapped retrieval. Stride 0 has no previous block:
    its window always runs first.
    """

    encode_s: float
    retrieval_s: float
    prefill_s: float
    decode_s: float
    verify_s: float = 0.0
    wasted_s: float = 0.0
    overlapped: bool = False


def stride_timeline(
    strides: Sequence[StrideTiming],
    *,
    tracer: Tracer | None = None,
    encode_worker: str,
    root: str,
    **root_attrs: object,
) -> tuple[float, float]:
    """Place strides on one virtual timeline; return ``(ttft_s, e2e_s)``.

    Time runs from 0. Stride *i*'s inference block is its prefill + decode;
    the window of stride *i+1* either runs under that block (overlapped:
    the cursor advances by ``max(block, encode + retrieval)``) or after it
    (the cursor advances by ``block + encode + retrieval``), plus any verify
    encode. TTFT is ``encode + retrieval + prefill`` of stride 0 under every
    discipline.

    With an enabled ``tracer`` the same cursor emits a root span ``root``
    (worker ``"timeline"``, carrying ``root_attrs`` plus ``ttft_s`` and
    ``e2e_s``) with encode spans on ``encode_worker``, retrieval spans on
    ``"cpu"`` and prefill/decode on ``"gpu"``; the root closes at exactly
    ``e2e_s``. A stride without an encode of its own (``encode_s == 0``)
    gets no encode span. A wasted window is drawn under the block it ran
    beside, clamped to the block's end so same-worker spans stay disjoint
    (its full length is the ``window_s`` attribute).
    """
    if not strides:
        raise ValueError("a timeline needs at least one stride")
    span = None
    if tracer is not None and tracer.enabled:
        span = tracer.start_span(
            root, start_s=0.0, worker="timeline", strides=len(strides), **root_attrs
        )

    def emit(name: str, start: float, end: float, worker: str, **attrs) -> None:
        if span is not None:
            tracer.record(
                name, start_s=start, end_s=end, parent=span, worker=worker, **attrs
            )

    def window(t: float, stride: int, s: StrideTiming, **attrs) -> float:
        if s.encode_s:
            emit("encode", t, t + s.encode_s, encode_worker, stride=stride, **attrs)
        t += s.encode_s
        emit("retrieval", t, t + s.retrieval_s, "cpu", stride=stride, **attrs)
        return t + s.retrieval_s

    t = window(0.0, 0, strides[0])
    ttft_s = t + strides[0].prefill_s
    for i, s in enumerate(strides):
        block = s.prefill_s + s.decode_s
        emit("prefill", t, t + s.prefill_s, "gpu", stride=i)
        emit("decode", t + s.prefill_s, t + block, "gpu", stride=i)
        if i + 1 == len(strides):
            t += block
            break
        nxt = strides[i + 1]
        if nxt.wasted_s:
            emit(
                "retrieval", t, t + min(nxt.wasted_s, block), "cpu",
                stride=i + 1, speculative=True, wasted=True, window_s=nxt.wasted_s,
            )
        if nxt.overlapped:
            # max(t + block, window end) rather than t + max(block, window):
            # equal in exact arithmetic, and this way no span the cursor
            # emitted can end past it by a rounding step.
            t = max(t + block, window(t, i + 1, nxt, speculative=True))
        else:
            t += block
        if nxt.verify_s:
            emit("encode", t, t + nxt.verify_s, encode_worker, stride=i + 1, verify=True)
            t += nxt.verify_s
        if not nxt.overlapped:
            t = window(t, i + 1, nxt)
    if span is not None:
        span.set(ttft_s=ttft_s, e2e_s=t)
        span.finish(t)
    return ttft_s, t


def simulate_generation(
    retrieval: RetrievalProvider,
    inference: InferenceModel,
    config: GenerationConfig,
    *,
    encoder: EncoderCostModel | None = None,
    meter: "EnergyMeter | None" = None,
    tracer: Tracer | None = None,
) -> GenerationResult:
    """Run the strided-generation timeline and return its latency/energy.

    The query is encoded once; each of the ``n_strides`` strides retrieves,
    prefills (full context, or the cached fraction under RAGCache), and
    decodes ``stride`` tokens. Under pipelining, stride *i*'s retrieval
    overlaps stride *i-1*'s inference; energy is unaffected by overlap (both
    devices are busy), only wall-clock latency changes.

    A :class:`~repro.hardware.power.EnergyMeter` may be passed to receive
    per-stage energy intervals (RAPL-style device + label accounting),
    letting the Figs. 7/14/17 energy breakdowns be audited stage by stage.
    """
    encoder = encoder or EncoderCostModel()
    n_strides = config.n_strides
    cache = IdealPrefixCache(
        input_tokens=config.input_tokens, stride_tokens=config.stride
    )

    encode_s = encoder.batch_latency(config.batch)
    cpu_energy = 0.0
    gpu_energy = encoder.batch_energy(config.batch)

    retrieval_costs = [retrieval(i) for i in range(n_strides)]
    prefill_costs = []
    decode_costs = []
    for i in range(n_strides):
        fraction = cache.prefill_fraction(i) if config.prefix_cached else 1.0
        tokens = max(1, int(round(config.input_tokens * fraction)))
        prefill_costs.append(inference.prefill(config.batch, tokens))
        remaining = config.output_tokens - i * config.stride
        decode_costs.append(inference.decode(config.batch, min(config.stride, remaining)))

    retrieval_s = sum(r.latency_s for r in retrieval_costs)
    prefill_s = sum(p.latency_s for p in prefill_costs)
    decode_s = sum(d.latency_s for d in decode_costs)
    cpu_energy += sum(r.energy_j for r in retrieval_costs)
    gpu_energy += sum(p.energy_j for p in prefill_costs)
    gpu_energy += sum(d.energy_j for d in decode_costs)

    if meter is not None:
        meter.record(
            "gpu", encoder.power_w, encode_s, label="encoding"
        )
        for r in retrieval_costs:
            power = r.energy_j / r.latency_s if r.latency_s > 0 else 0.0
            meter.record("cpu", power, r.latency_s, label="retrieval")
        for p in prefill_costs:
            meter.record("gpu", p.power_w, p.latency_s, label="prefill")
        for d in decode_costs:
            meter.record("gpu", d.power_w, d.latency_s, label="decoding")

    ttft_s, e2e_s = stride_timeline(
        [
            StrideTiming(
                encode_s=encode_s if i == 0 else 0.0,
                retrieval_s=r.latency_s,
                prefill_s=p.latency_s,
                decode_s=d.latency_s,
                overlapped=config.pipelined and i > 0,
            )
            for i, (r, p, d) in enumerate(
                zip(retrieval_costs, prefill_costs, decode_costs)
            )
        ],
        tracer=tracer,
        encode_worker="gpu",
        root="generation",
        batch=config.batch,
        pipelined=config.pipelined,
        prefix_cached=config.prefix_cached,
    )

    return GenerationResult(
        ttft_s=ttft_s,
        e2e_s=e2e_s,
        encode_s=encode_s,
        retrieval_s=retrieval_s,
        prefill_s=prefill_s,
        decode_s=decode_s,
        first_retrieval_s=retrieval_costs[0].latency_s,
        first_prefill_s=prefill_costs[0].latency_s,
        cpu_energy_j=cpu_energy,
        gpu_energy_j=gpu_energy,
        config=config,
    )


def steady_state_throughput_qps(
    retrieval_latency_s: float,
    inference: InferenceModel,
    config: GenerationConfig,
) -> float:
    """Saturated-pipeline *per-stride* throughput: queries flowing through
    one retrieval+inference stride slot per second.

    With retrieval on CPU nodes and inference on GPUs running concurrently on
    different batches, each stride slot costs ``max(retrieval, prefill +
    decode)`` and admits ``batch`` queries. A full request performing
    ``config.n_strides`` strides therefore completes at ``1/n_strides`` of
    this rate (see :mod:`repro.serving` for the event-driven validation).
    """
    prefill = inference.prefill(config.batch, config.input_tokens).latency_s
    decode = inference.decode(config.batch, config.stride).latency_s
    bottleneck = max(retrieval_latency_s, prefill + decode)
    if bottleneck <= 0:
        return math.inf
    return config.batch / bottleneck
