"""Benchmark of the sgwl engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: positivity, decomposability, evolution, cli (see workloads.py and
BENCHMARK.json for why each exists).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced replay.  Every
operation's answer is checked against an oracle; ``correct`` is false when
any answer contradicts its label or a certificate fails to re-verify.

``setup_s`` is the median, over several fresh processes, of the wall time
from process start until ``sgwl`` is imported and the workload's inputs are
built.  All processes run one at a time with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("positivity", "decomposability", "evolution", "cli")
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0  # the whole run, set-up processes included
HERE = Path(__file__).resolve().parent


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description="sgwl benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop after this many operations (smoke runs)")
    return p.parse_args(argv)


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker_cmd(args, mode: str, work: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--max-ops", str(args.max_ops), "--work", str(work)]


def _setup_probe(cmd: list[str], env: dict, root: Path, stderr_path: Path, timeout: float) -> float:
    """Wall time from process start to the worker's READY line."""
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "READY":
        raise RuntimeError(f"set-up process failed (exit {proc.returncode}); see {stderr_path}")
    return elapsed


def main(argv=None) -> int:
    args = _parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "sgwl" / "__init__.py").is_file():
        print(f"error: {root} has no src/sgwl; run from the root of an sgwl checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env(root)
    print(f"load average before: {' '.join(f'{x:.2f}' for x in os.getloadavg())}")

    probe_cmd = _worker_cmd(args, "setup", work)
    if args.trace:
        probe_cmd[1:1] = ["-X", "importtime"]
    setups, importtime_logs = [], []
    try:
        for i in range(SETUP_RUNS):
            stderr_path = work / f"setup-{i}.stderr"
            setups.append(_setup_probe(probe_cmd, env, root, stderr_path,
                                       deadline - time.monotonic()))
            importtime_logs.append(stderr_path.read_text(encoding="utf-8"))
        proc = subprocess.run(_worker_cmd(args, "trace" if args.trace else "run", work),
                              cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    print(f"set-up: {SETUP_RUNS} fresh processes, "
          f"{', '.join(f'{s:.3f}' for s in setups)} s (median reported)")
    if args.trace:
        if args.workload != "cli":  # cli measures its imports per operation
            from tracing import parse_importtime

            parsed = [parse_importtime(text) for text in importtime_logs]
            for key in ("cli.import_ms", "cli.import_scipy_optimize_ms"):
                metrics[key]["value"] = statistics.median(p[f"count:{key}"] for p in parsed)
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"load average after: {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
