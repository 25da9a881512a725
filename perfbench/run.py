"""Benchmark launcher.

    python3 perfbench/run.py --workload tables|witness|queries|all \
        --seed N --seconds S --trace 0|1

Runs each workload in a fresh process of its own (worker.py) with BLAS and
OpenMP pinned to one thread and a fixed hash seed.  Untraced, it first
starts SETUP_PROBES extra processes that only set up, and reports the
median set-up time of all of them.  It prints every metric by name with
its unit, and as its last line one JSON object: correct, attempted,
failed and metrics (end-to-end untraced, per-layer traced).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "witness", "queries")
SETUP_PROBES = 4
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    env = dict(os.environ, **PINNED_ENV)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"worker {' '.join(argv)} passed the deadline")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for k in range(SETUP_PROBES):
            setups.append(spawn(base + ["--setup-only", "--tag", f"probe{k}"], deadline)["setup_s"])
    res = spawn(base + ["--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    if trace:
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in tracing.METRICS}
    else:
        metrics = {n: {"value": res[n], "unit": u} for n, u in END_TO_END}
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(f"{name}: {res['rounds']} round(s) of {res['ops_per_round']} ops, "
          f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}"
          + (f", traced wall_s {res['wall_s']:.4f} s, spans in {res['trace_file']}"
             if trace else ""))
    for n, m in metrics.items():
        print(f"  {name}/{n} = {m['value']:.6g} {m['unit']}")
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "posetrep" / "__init__.py").is_file():
        print(f"error: no posetrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for name in names:
            deadline = start + DEADLINE_S * (len(results) + 1)
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
