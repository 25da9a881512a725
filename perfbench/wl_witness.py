"""witness: ``posetrep unitarize`` through cli.main, in process.

Admissible ops: every stored admissible weight of a (3,2,1) or (4,2,1) row
with d0 >= 2, each under unitarize seeds 0 (the CLI default) and 1; each
converges in tens of milliseconds.  Reject ops: REJECTS fixed weights that
meet the trace equality but violate a published strict inequality of a
(2,2,1) or (3,2,1) row with d0 = 2, each under a unitarize seed drawn from
the run's seed; each runs all 32 restarts (averaging over them, so its cost
moves little with the seed), and the right answer is "no witness", exit 2.
Rejects are under 5 % of the ops, so op_p50_ms and op_p90_ms follow the
admissible descent while the rejects carry about half of wall_s.  The
admissible seeds are fixed because with seeds drawn per run, op_p50_ms
spread three times as far over five seeds as over five runs of one seed;
the run's seed shuffles the op order.

The weights come from make_inputs.py, so lp, roots and derive do no work
here: numeric does nearly all of it.
"""

from __future__ import annotations

import json
from pathlib import Path

import oracle
from worker import Op, cli_op

WEIGHTS = Path(__file__).resolve().parent / "data" / "weights.json"
ADMISSIBLE_SEEDS = (0, 1)
REJECTS = 10
COLD_ROUNDS = False


def _argv(entry, seed: int) -> list[str]:
    return ["unitarize", "--poset", ",".join(map(str, entry["poset"])), "--dim", entry["dim"],
            "--weight", entry["weight"], "--seed", str(seed)]


def setup(ctx) -> list[Op]:
    pools = json.loads(WEIGHTS.read_text(encoding="utf-8"))
    ops = []
    for entry in pools["admissible"]:
        for seed in ADMISSIBLE_SEEDS:
            argv = _argv(entry, seed)
            ops.append(Op("admissible", lambda argv=argv: cli_op(ctx, argv), entry))
    small = [e for e in pools["reject"] if oracle.parse_dim(e["dim"])[0] == 2]
    step = len(small) / REJECTS
    for k in range(REJECTS):  # evenly spaced over the pool, the same every run
        entry = small[int(k * step)]
        argv = _argv(entry, ctx.rng.randrange(10**6))
        ops.append(Op("reject", lambda argv=argv: cli_op(ctx, argv), entry))
    ctx.rng.shuffle(ops)
    ctx.extra["corpus"] = oracle.load_corpus(ctx.corpus_path)
    return ops


def warm_up(ctx) -> None:
    """One small solve, so numpy's linear algebra is loaded before timing."""
    cli_op(ctx, ["unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
                 "--weight", "1;1;1;3/2"])


def check_setup(ctx, ops):
    return []


def check(ctx, op, output) -> list[str]:
    code, stdout = output
    entry = op.data
    branches = tuple(entry["poset"])
    d = oracle.parse_dim(entry["dim"])
    w = oracle.parse_weight(entry["weight"])
    payload = json.loads(stdout)
    if op.kind == "admissible":
        if code != 0 or payload.get("success") is not True:
            return [f"no witness for admissible {entry}: exit {code}"]
        return oracle.projector_errors(branches, d, w, payload)
    errs = []
    if code != 2 or payload.get("success") is not False:
        errs.append(f"reject weight {entry} answered exit {code}")
    values = oracle.weight_values(w)
    published = dict(ctx.extra["corpus"][branches])[d]
    if oracle.evaluate(oracle.trace_form(d), values) != 0:
        errs.append(f"reject weight {entry} misses the trace equality")
    if all(oracle.holds(c, values) for c in published):
        errs.append(f"reject weight {entry} violates no published condition")
    if not oracle.no_decomposable_witness(d, w):
        errs.append(f"reject weight {entry} admits a decomposable witness")
    return errs
