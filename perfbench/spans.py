"""Per-layer tracing taken from outside the program.

:class:`Recorder` replaces public callables of the serving stack with timing
wrappers that record one :class:`Span` per call (layer, start, end, the
enclosing span on the same thread), keeps every span in memory and puts the
original callables back on :meth:`Recorder.restore`. Nothing under ``src/``
is changed: the wrappers live here and are installed only for a traced run.

:func:`ledger` then splits each request's latency into generator lag, queue
wait, the self time of every layer in the batch that served it, and the
unattributed remainder (from the end of that batch until the request's
future resolved). The parts are differences of the same timestamps, so they
add up to the latency exactly, up to float rounding.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

_ABSENT = object()


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Request:
    """One ``DynamicBatcher.submit`` call, in submission order."""

    submit: float
    due: float
    #: sent on a schedule (open loop) rather than as soon as possible
    scheduled: bool
    done: float = float("nan")


class Recorder:
    """Timing wrappers around public calls; spans kept in memory."""

    def __init__(self, clock=time.perf_counter, snapshot=None) -> None:
        self.clock = clock
        self.spans: list = []
        self.requests: list = []
        #: ``snapshot()`` as of the last :meth:`clear` (e.g. program counters
        #: to diff against at the end of the timed phase).
        self.mark = None
        self._snapshot = snapshot
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- installation ----------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, *, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``.

        ``on_result(span, args, kwargs, result)`` may copy facts about the
        call into ``span.attrs``.
        """
        saved = vars(owner).get(attr, _ABSENT)
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = recorder._open(layer, name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                recorder._close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, saved))
        setattr(owner, attr, timed)

    def watch_submits(self, batcher_cls) -> None:
        """Record a :class:`Request` per ``submit`` with its completion time."""
        saved = vars(batcher_cls).get("submit", _ABSENT)
        original = batcher_cls.submit
        recorder = self

        @functools.wraps(original)
        def submit(*args, **kwargs):
            now = recorder.clock()
            due = getattr(recorder._local, "due", None)
            req = Request(submit=now, due=now if due is None else due, scheduled=due is not None)
            future = original(*args, **kwargs)
            with recorder._lock:
                recorder.requests.append(req)
            future.add_done_callback(lambda _f: setattr(req, "done", recorder.clock()))
            return future

        self._patches.append((batcher_cls, "submit", saved))
        batcher_cls.submit = submit

    def set_due(self, due: float | None) -> None:
        """Scheduled send time of the next submit on this thread."""
        self._local.due = due

    def restore(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def clear(self) -> None:
        """Drop recorded spans and requests: the timed phase starts now."""
        with self._lock:
            self.spans = []
            self.requests = []
        if self._snapshot is not None:
            self.mark = self._snapshot()

    # -- spans -------------------------------------------------------------
    def _open(self, layer: str, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = Span(
                sid=next(self._ids),
                parent=stack[-1].sid if stack else None,
                layer=layer,
                name=name,
                thread=threading.get_ident(),
                start=self.clock(),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._local.stack.pop()


def children_of(spans: list) -> dict:
    """Map span id -> list of its child spans."""
    kids: dict = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span: Span, kids: dict) -> float:
    """Duration minus the part of it its child spans cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in kids.get(span.sid, ())
    )
    covered = 0.0
    cur_start = cur_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def subtree_self_times(root: Span, kids: dict) -> dict:
    """Self time of every span under ``root`` (inclusive), summed by layer."""
    out: dict = {}
    todo = [root]
    while todo:
        span = todo.pop()
        out[span.layer] = out.get(span.layer, 0.0) + self_time(span, kids)
        todo.extend(kids.get(span.sid, ()))
    return out


@dataclass(frozen=True)
class LedgerRow:
    """One request's latency, split into parts that sum to it."""

    latency: float
    lag: float
    queue: float
    layers: dict
    unattributed: float
    scheduled: bool


def ledger(recorder: Recorder, batch_layer: str = "frontend") -> list:
    """Per-request ledger rows, in submission order.

    The batcher serves requests first-in first-out, so the n-th root span of
    ``batch_layer`` (one ``ServingFrontend.search`` call over ``rows``
    queries) served the next ``rows`` submitted requests. A mismatch between
    the two counts, or a part that comes out negative, means the mapping
    does not hold and raises instead of reporting a wrong split.
    """
    spans = recorder.spans
    kids = children_of(spans)
    batches = sorted(
        (s for s in spans if s.layer == batch_layer and s.parent is None),
        key=lambda s: s.start,
    )
    requests = recorder.requests
    rows_total = sum(int(b.attrs["rows"]) for b in batches)
    if rows_total != len(requests):
        raise ValueError(
            f"ledger: {len(requests)} requests submitted but {rows_total} rows served"
        )
    out = []
    cursor = 0
    for batch in batches:
        parts = subtree_self_times(batch, kids)
        for req in requests[cursor : cursor + int(batch.attrs["rows"])]:
            lag = req.submit - req.due
            queue = batch.start - req.submit
            tail = req.done - batch.end
            if min(lag, queue, tail) < -1e-9:
                raise ValueError(
                    f"ledger: negative part (lag {lag}, queue {queue}, tail {tail})"
                )
            out.append(
                LedgerRow(
                    latency=req.done - req.due,
                    lag=lag,
                    queue=queue,
                    layers=parts,
                    unattributed=tail,
                    scheduled=req.scheduled,
                )
            )
        cursor += int(batch.attrs["rows"])
    return out
