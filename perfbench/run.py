"""The repository benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload retrieve-unique --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --describe    # workloads and metric definitions
    python3 perfbench/run.py --spec        # the BENCHMARK.json these declarations give

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same workload twice, untraced and then with timing
wrappers around every layer (``layers.install``), and reports the per-layer
metrics, the tracing overhead and the per-request ledger; its spans are
written to ``.perfbench/`` under the working directory.

Every run checks its outputs (see ``workloads``) and prints, last, one JSON
line ``{"correct", "attempted", "failed", "metrics"}``. A failed check or a
failed operation makes the run incorrect and the exit code 1.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads: default OpenBLAS threading on
# a 2-CPU host doubled the 50k build time and made open-loop latency vary
# by half between identical runs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402
from spans import Recorder  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# ``workloads`` and ``layers`` import the program, so they are imported
# inside functions, once ``main`` has found the program source.


def _conditions(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of its config
        blas = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "rate_rps": workloads.RATE if args.workload.startswith("retrieve") else None,
        "write_period_s": workloads.WRITE_PERIOD_S if args.workload == "retrieve-churn" else None,
    }


def _measure(args, inputs, datastore, recorder=None):
    import workloads

    if args.workload == "rag-lookahead":
        return workloads.run_rag(inputs, datastore, args.seconds, recorder, seed=args.seed)
    return workloads.run_retrieve(args.workload, inputs, datastore, args.seconds, recorder)


def _end_to_end(setup, run) -> dict:
    """name -> (value, sample count)."""
    latency = run.latency_samples
    return {
        "setup_s": (setup.setup_s, len(setup.build_s)),
        "throughput_qps": run.throughput,
        "latency_p50_ms": (float(np.percentile(latency, 50) * 1e3), len(latency)),
        "ndcg10": (run.ndcg10, run.checks["scored"]),
    }


def _per_layer(setup, untraced, traced, recorder) -> dict:
    """name -> (value, None): the traced run's per-layer metrics."""
    import layers

    values = {}
    values.update(layers.serving_metrics(recorder, traced.windows))
    values.update(layers.datastore_metrics(recorder, traced, untraced))
    values.update(layers.rag_metrics(recorder, traced, untraced))
    lag = getattr(traced, "lag_s", np.empty(0))
    lag = lag[np.isfinite(lag)]
    latency = untraced.latency_samples
    base = float(np.percentile(latency, 50))
    values.update(
        {
            "build.kmeans_s": float(np.median(setup.kmeans_s)),
            "build.shards_s": float(np.median(np.subtract(setup.build_s, setup.kmeans_s))),
            "build.warm_s": float(np.median(setup.warm_s)),
            "latency.p90_ms": float(np.percentile(latency, 90) * 1e3),
            "latency.p99_ms": float(np.percentile(latency, 99) * 1e3),
            "gen.lag_p99_ms": float(np.percentile(lag, 99) * 1e3) if len(lag) else 0.0,
            "trace.overhead_frac": float(np.percentile(traced.latency_samples, 50)) / base - 1.0,
        }
    )
    return {m.name: (values[m.name], None) for m in spec.PER_LAYER}


def _write_spans(args, recorder) -> Path:
    out = Path(".perfbench")
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json.gz"
    rows = [
        [s.sid, s.parent, s.layer, s.name, s.thread, s.start, s.end]
        for s in recorder.spans
    ]
    requests = [asdict(r) for r in recorder.requests]
    with gzip.open(path, "wt") as fh:
        json.dump({"spans": rows, "requests": requests}, fh)
    return path


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    print(f"perfbench: {json.dumps(_conditions(args))}", flush=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.seconds)
    print(f"inputs: {workloads.input_digest(inputs)}", flush=True)

    build_recorder = Recorder() if args.trace else None
    if build_recorder is not None:
        layers.install_build(build_recorder)
    try:
        setup = workloads.setup(inputs.corpus, build_recorder)
    finally:
        if build_recorder is not None:
            build_recorder.restore()

    try:
        untraced = _measure(args, inputs, setup.datastores[-1])
        attempted, failed = untraced.attempted, untraced.failed
        checks = {"untraced": untraced.checks}
        if args.trace:
            recorder = Recorder(snapshot=layers.prune_counters)
            layers.install(recorder)
            try:
                traced = _measure(args, inputs, setup.datastores[-2], recorder)
            finally:
                recorder.restore()
            attempted += traced.attempted
            failed += traced.failed
            checks["traced"] = traced.checks
            metrics = _per_layer(setup, untraced, traced, recorder)
            print(f"spans: {_write_spans(args, recorder)}", flush=True)
        else:
            metrics = _end_to_end(setup, untraced)
        correct = failed == 0
        error = None if correct else f"{failed} of {attempted} operations failed"
    except workloads.CheckFailed as exc:
        correct, attempted, failed, metrics, checks = False, 1, 0, {}, {}
        error = str(exc)

    print(f"checks: {json.dumps(checks)}")
    if error:
        print(f"INCORRECT: {error}")
    units = {m.name: m.unit for m in (*spec.END_TO_END, *spec.PER_LAYER)}
    for name, (value, n) in metrics.items():
        count = "" if n is None else f"  (n={n})"
        print(f"  {name:40s} {value:14.6g} {units[name]}{count}")
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, (value, _) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print workloads and metrics")
    parser.add_argument("--spec", action="store_true", help="print BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.describe:
        print(spec.describe())
        return 0
    if args.spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
