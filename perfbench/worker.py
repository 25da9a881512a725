"""One workload in one process: set up, run whole rounds of ops for the
given number of seconds, check every distinct output, print one JSON line.

Started by run.py, which pins BLAS/OpenMP to one thread and passes the
CLOCK_MONOTONIC time at which it spawned this process (``--t0``), so that
``setup_s`` covers interpreter start, imports, input loading and warm-up.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "witness", "queries")
MAX_REPORTED_ERRORS = 10


class OpFailed(Exception):
    """The program reported an error (CLI exit 1) instead of an answer."""


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    data: Any = None


@dataclass
class Context:
    seed: int
    rng: random.Random
    pr: Any
    workdir: Path
    corpus_path: Path = ROOT / "src" / "posetrep" / "tables" / "paper_tables.json"
    extra: dict = field(default_factory=dict)


def cli_op(ctx: Context, argv: list[str]):
    """Run ``posetrep <argv>`` in process; looks cli.main up at call time so
    that a traced run goes through the wrapper."""
    cli = sys.modules["posetrep.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 1:
        raise OpFailed(f"posetrep {' '.join(argv)}: exit 1: {err.getvalue().strip()}")
    return code, out.getvalue()


def import_program():
    """posetrep from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "posetrep" / "__init__.py").is_file():
        raise SystemExit(f"no posetrep sources under {src}")
    sys.path.insert(0, str(src))
    pr = importlib.import_module("posetrep")
    if Path(pr.__file__).resolve().parent != src / "posetrep":
        raise SystemExit(f"imported posetrep from {pr.__file__}, not {src}")
    for name in tracing.LAYERS:
        importlib.import_module(f"posetrep.{name}")
    return pr


def reset_caches() -> None:
    """Clear every functools cache in the program, so the round starts cold."""
    for name, module in list(sys.modules.items()):
        if name != "posetrep" and not name.startswith("posetrep."):
            continue
        for obj in list(vars(module).values()):
            for target in (obj, getattr(obj, "__wrapped__", None)):
                clear = getattr(target, "cache_clear", None)
                if callable(clear):
                    clear()


def run(args) -> dict:
    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}-{args.tag}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> dict:
    t_start = time.monotonic() if args.t0 is None else args.t0
    workload = importlib.import_module(f"wl_{args.workload}")
    pr = import_program()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(pr)
    ctx = Context(args.seed, random.Random(args.seed), pr, workdir)
    ops = workload.setup(ctx)
    workload.warm_up(ctx)
    if args.setup_only:
        return {"setup_s": time.monotonic() - t_start}

    rounds: list[tuple[float, list[float]]] = []
    distinct: list[set] = [set() for _ in ops]
    attempted = failed = 0
    errors: list[str] = []
    setup_s = None
    began = time.monotonic()
    while True:
        if workload.COLD_ROUNDS:
            reset_caches()
            if tracer:
                tracer.reset_cold()
        if setup_s is None:
            setup_s = time.monotonic() - t_start
        latencies = []
        r0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = (len(rounds), i)
            attempted += 1
            a = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that errors is counted, not fatal
                latencies.append(time.perf_counter() - a)
                failed += 1
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(f"op {i} {op.kind} failed: "
                                  + "".join(traceback.format_exception_only(exc)).strip())
                continue
            latencies.append(time.perf_counter() - a)
            distinct[i].add(out)
        wall = time.perf_counter() - r0
        rounds.append((wall, latencies))
        if time.monotonic() - began + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.op = "check"

    bad = list(workload.check_setup(ctx, ops))
    for i, outs in enumerate(distinct):  # outputs are hashable; each distinct one is checked once
        for out in outs:
            bad.extend(f"op {i} {ops[i].kind}: {e}" for e in workload.check(ctx, ops[i], out))
    errors.extend(bad[:MAX_REPORTED_ERRORS])
    for e in errors:
        print(e, file=sys.stderr)

    all_latencies = [x for _, lat in rounds for x in lat]
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "wall_s": stats.median([w for w, _ in rounds]),
        "op_p50_ms": 1e3 * stats.percentile(all_latencies, 50),
        "op_p90_ms": 1e3 * stats.percentile(all_latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        spans = [s for s in tracer.spans if s[tracing.OP] != "check"]
        result["per_layer"] = tracing.summarize(spans)
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tag", default="main")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
