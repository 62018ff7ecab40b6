"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import layers
import spec
import workloads
from repro.obs.trace import ManualClock
from spans import Recorder, ledger

ROOT = Path(__file__).resolve().parents[2]


def _run(*args, cwd=ROOT, timeout=300):
    """The benchmark command, run from ``cwd`` (normally the repository root)."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_wrappers_leave_no_patched_callable_behind():
    targets = [(o, a) for o, a, _, _ in layers.TRACED]
    targets += [(layers.DynamicBatcher, "submit"), (layers.clustering_module, "kmeans_seed_sweep")]
    originals = {(o, a): vars(o)[a] for o, a in targets}
    recorder = Recorder()
    layers.install_build(recorder)
    layers.install(recorder)
    assert all(vars(o)[a] is not f for (o, a), f in originals.items())
    recorder.restore()
    assert all(vars(o)[a] is f for (o, a), f in originals.items())


class _Leaf:
    def __init__(self, clock):
        self.clock = clock

    def scan(self, ticks):
        self.clock.advance(ticks)


class _Front:
    """Stands in for ServingFrontend.search: own work around a child call."""

    def __init__(self, clock, leaf):
        self.clock, self.leaf = clock, leaf

    def search(self, rows):
        self.clock.advance(2)
        self.leaf.scan(5)
        self.clock.advance(1)
        return rows


class _Batcher:
    def __init__(self):
        self.pending = []

    def submit(self, query):
        future = Future()
        self.pending.append(future)
        return future


def test_ledger_telescopes_exactly_on_a_manual_clock():
    clock = ManualClock(100.0)
    leaf = _Leaf(clock)
    front = _Front(clock, leaf)
    recorder = Recorder(clock=clock)
    rows_of = lambda span, args, kwargs, result: span.attrs.update(rows=result)  # noqa: E731
    recorder.wrap(_Front, "search", "frontend", on_result=rows_of)
    recorder.wrap(_Leaf, "scan", "ivf")
    recorder.watch_submits(_Batcher)
    batcher = _Batcher()
    try:
        for batch in ([0, 1, 2], [3], [4, 5]):
            for _ in batch:
                recorder.set_due(clock() - 1.0)  # the generator ran one tick late
                batcher.submit(None)
                clock.advance(3)
            front.search(len(batch))
            clock.advance(4)
            for future in batcher.pending:
                future.set_result(None)
            batcher.pending.clear()
    finally:
        recorder.restore()
    rows = ledger(recorder)
    assert len(rows) == 6
    for row in rows:
        parts = row.lag + row.queue + sum(row.layers.values()) + row.unattributed
        assert parts == row.latency
        assert row.layers == {"frontend": 3.0, "ivf": 5.0}
        assert row.lag == 1.0 and row.unattributed == 4.0


def test_ledger_refuses_a_mapping_that_does_not_hold():
    clock = ManualClock()
    recorder = Recorder(clock=clock)
    recorder.watch_submits(_Batcher)
    try:
        _Batcher().submit(None)
    finally:
        recorder.restore()
    with pytest.raises(ValueError):
        ledger(recorder)


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.input_digest(workloads.make_inputs(workload, 3, 1.0))
    again = workloads.input_digest(workloads.make_inputs(workload, 3, 1.0))
    other = workloads.input_digest(workloads.make_inputs(workload, 4, 1.0))
    assert first == again
    assert first != other


def test_same_ranking_allows_only_ties():
    ids = np.array([1, 2, 3, 4])
    dist = np.array([0.1, 0.2, 0.3, 0.4], dtype=np.float32)
    tied = np.array([0.1, 0.1, 0.3, 0.4], dtype=np.float32)
    assert workloads.same_ranking(ids, dist, ids, dist)
    assert not workloads.same_ranking(np.array([2, 1, 3, 4]), dist, ids, dist)
    assert workloads.same_ranking(np.array([2, 1, 3, 4]), tied, ids, tied)
    assert not workloads.same_ranking(np.array([9, 1, 3, 4]), tied, ids, tied)
    assert not workloads.same_ranking(ids, dist + 1e-3, ids, dist)
    # The last position may hold another id at the same distance: the tie
    # can extend past the cut.
    assert workloads.same_ranking(np.array([1, 2, 3, 9]), dist, ids, dist)


def test_benchmark_json_is_rendered_from_the_declarations():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(setup["bound"] >= m["bound"] for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_traced_churn_passes_its_correctness_gate():
    out = _run("--workload", "retrieve-churn", "--seed", "0", "--seconds", "2", "--trace", "1")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = _result(out.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m.name for m in spec.PER_LAYER}
    assert result["metrics"]["datastore.compactions"]["value"] >= 1
    assert result["metrics"]["ledger.unattributed_frac"]["value"] < 0.5


def test_smoke_rag_passes_its_correctness_gate():
    out = _run("--workload", "rag-lookahead", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = _result(out.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = _run("--workload", "retrieve-unique", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
