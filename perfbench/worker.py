"""One benchmark process: set up a workload, then measure it.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup`` -- import ``sgwl``, build the inputs, print ``READY`` and exit.
  ``run.py`` times several of these to get ``setup_s``.
* ``run``   -- set up, warm up (in-process workloads), then run the closed
  loop with tracing off and print the end-to-end metrics.
* ``trace`` -- set up, warm up, run half the time untraced, then replay the
  same operations with the tracer installed for the other half; print the
  per-layer metrics and the tracing overhead, and fail if a verdict differs.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracing
import workloads
from workloads import INCONCLUSIVE, OK, RunContext

MAX_FAILURES_SHOWN = 5


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--max-ops", type=int, default=0, help="stop after this many operations")
    p.add_argument("--work", type=Path, required=True, help="scratch directory in the checkout")
    return p.parse_args(argv)


def _environment() -> str:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas}, OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
            f"nproc {len(os.sched_getaffinity(0))}")


class Record(NamedTuple):
    kind: str
    latency: float  # seconds
    outcome: str  # OK, INCONCLUSIVE or "fail: <reason>"
    verdict: str


def _failed(records: list[Record]) -> int:
    return sum(r.outcome not in (OK, INCONCLUSIVE) for r in records)


def run_pass(cycles, seconds: float, max_ops: int, ctx: RunContext, tracer=None) -> list[Record]:
    """Closed loop, one caller: whole cycles until ``seconds`` of operation
    time have been spent (or ``max_ops`` operations have run)."""
    records: list[Record] = []
    busy = 0.0
    for k in itertools.count():
        for op in cycles[k]:
            if max_ops and len(records) >= max_ops:
                return records
            if tracer is not None:
                tracer.begin_op(len(records))
            start = time.perf_counter()
            try:
                result = op.run(ctx)
                error = None
            except Exception as exc:  # an operation that raises is counted as failed
                error = f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            ctx.absorb()
            busy += latency
            if error is None:
                try:
                    outcome, verdict = op.check(result)
                except workloads.CheckFailed as exc:
                    outcome, verdict = f"fail: {exc}", "fail"
                except Exception as exc:  # malformed output is a failed operation too
                    outcome, verdict = f"fail: check raised {type(exc).__name__}: {exc}", "fail"
            else:
                outcome, verdict = f"fail: {error}", "raised"
            records.append(Record(op.kind, latency, outcome, verdict))
        if busy >= seconds:
            break
    return records


def _tail(lat_ms: np.ndarray) -> tuple[float, str]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    n = lat_ms.size
    ordered = np.sort(lat_ms)
    if n < 11:
        return float(ordered[-1]), f"max of {n} (fewer than 11 samples, no percentile has 10 beyond)"
    return float(ordered[n - 11]), f"p{100.0 * (n - 10) / n:.1f}: 10 of {n} samples beyond"


def end_to_end(records: list[Record], peak_rss_kib: int) -> tuple[dict, list[str]]:
    lat_ms = np.array([r.latency for r in records]) * 1e3
    n = len(records)
    failed = _failed(records)
    inconclusive = sum(r.outcome == INCONCLUSIVE for r in records)
    tail, tail_note = _tail(lat_ms)
    metrics = {
        "ops_per_s": {"value": n / (lat_ms.sum() / 1e3), "unit": "1/s"},
        "op_p50_ms": {"value": float(np.median(lat_ms)), "unit": "ms"},
        "op_tail_ms": {"value": tail, "unit": "ms"},
        "correct_ratio": {"value": 1.0 - failed / n, "unit": "ratio"},
        "decided_ratio": {"value": 1.0 - inconclusive / n, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0, "unit": "MiB"},
    }
    notes = [
        f"op_tail_ms is {tail_note}",
        f"fail_ratio {failed / n:.6g} ({failed} of {n}), reported as correct_ratio = 1 - fail_ratio",
        f"inconclusive_ratio {inconclusive / n:.6g} ({inconclusive} of {n}), "
        "reported as decided_ratio = 1 - inconclusive_ratio",
    ]
    return metrics, notes


def _by_kind(records: list[Record]) -> list[str]:
    kinds: dict[str, list[Record]] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r)
    lines = []
    for kind, rs in kinds.items():
        lat = np.array([r.latency for r in rs]) * 1e3
        outcomes = {}
        for r in rs:
            key = r.outcome if r.outcome in (OK, INCONCLUSIVE) else "fail"
            outcomes[key] = outcomes.get(key, 0) + 1
        lines.append(f"  {kind:28s} n={len(rs):4d}  median {np.median(lat):9.2f} ms  "
                     f"max {lat.max():9.2f} ms  {outcomes}")
    return lines


def _failures(records: list[Record]) -> list[str]:
    bad = [r for r in records if r.outcome not in (OK, INCONCLUSIVE)]
    return [f"  FAILED {r.kind}: {r.outcome}" for r in bad[:MAX_FAILURES_SHOWN]]


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    if args.max_ops:
        n_cycles = math.ceil(args.max_ops / workload.cycle_size())
    else:
        n_cycles = math.ceil(args.seconds * workload.cycles_per_second) + 1
    cycles = workloads.Inputs(workload, args.seed, n_cycles, args.work)
    warmup = []
    if workload.warm:  # one untimed operation of each kind, from inputs of their own
        first = {}
        for op in workloads.Inputs(workload, args.seed, 1, args.work, stream=1)[0]:
            first.setdefault(op.kind, op)
        warmup = [list(first.values())]
    if args.mode == "setup":
        print("READY", flush=True)
        return 0

    print(f"environment: {_environment()}")
    ctx = RunContext(args.work)
    if workload.warm:
        warm = run_pass(warmup, 0.0, len(warmup[0]), ctx)
        print(f"warm-up: {len(warm)} untimed operations before timing")
    else:
        print("warm-up: none; every cli operation is a fresh, cold process on purpose")

    if args.mode == "run":
        records = run_pass(cycles, args.seconds, args.max_ops, ctx)
        who = resource.RUSAGE_SELF if workload.warm else resource.RUSAGE_CHILDREN
        metrics, notes = end_to_end(records, resource.getrusage(who).ru_maxrss)
        busy = sum(r.latency for r in records)
        print(f"{args.workload}: {len(records)} operations, {busy:.2f} s busy, closed loop, "
              f"1 caller, {'in-process' if workload.warm else 'one process per operation'}")
        print("\n".join(_by_kind(records) + _failures(records) + notes))
        failed = _failed(records)
        out = {"correct": failed == 0, "attempted": len(records), "failed": failed,
               "metrics": metrics}
        print(json.dumps(out))
        return 0

    half = args.seconds / 2
    plain = run_pass(cycles, half, args.max_ops, ctx)
    tracer = tracing.Tracer()
    traced_ctx = RunContext(args.work, tracer)
    tracer.install()
    try:
        traced = run_pass(cycles, half, len(plain), traced_ctx, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(args.work / "spans.npz")
    n = len(traced)
    mismatched = [i for i in range(n) if traced[i].verdict != plain[i].verdict]
    overhead = sum(r.latency for r in traced) / sum(r.latency for r in plain[:n])
    totals = tracer.summary()
    tracing.merge(totals, traced_ctx.process_totals)
    metrics = tracing.per_layer_metrics(totals, n, overhead)
    print(f"{args.workload}: {len(plain)} untraced then {n} traced operations (same inputs); "
          f"trace overhead {overhead:.3f}x the untraced operation time; "
          f"spans written to {args.work / 'spans.npz'}")
    print("\n".join(_by_kind(plain)))
    for i in mismatched[:MAX_FAILURES_SHOWN]:
        print(f"  VERDICT MISMATCH op {i} {traced[i].kind}: "
              f"untraced {plain[i].verdict!r}, traced {traced[i].verdict!r}")
    print("\n".join(_failures(plain + traced)))
    failed = _failed(plain + traced)
    out = {"correct": failed == 0 and not mismatched, "attempted": len(plain) + n,
           "failed": failed, "metrics": metrics}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
