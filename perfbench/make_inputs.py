"""Make the stored weight pools the witness and queries workloads draw from.

    python3 perfbench/make_inputs.py [--seed 7] [--out perfbench/data/weights.json]

Pools:

* ``admissible``: one weight per derived row of (3,2,1) and (4,2,1) with
  d0 >= 2, the max-slack interior point from ``interior_point``.
* ``reject``: for published rows of (2,2,1) and (3,2,1), weights that meet
  the trace equality but violate one published strict inequality, made by
  flipping that inequality, taking an interior point and moving it by a
  seeded rational step inside the trace hyperplane.
* ``published``: one interior point per published row with a nonempty
  region, for ``check-weight`` queries.

Every weight is checked here with the benchmark's own exact arithmetic
(see oracle.py) before it is stored; a reject weight must also admit no
decomposable witness, so that "no witness" is the only correct answer.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_OUT = HERE / "data" / "weights.json"
CORPUS = ROOT / "src" / "posetrep" / "tables" / "paper_tables.json"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import posetrep

    return posetrep


def _weight_tuple(w) -> tuple:
    return tuple(tuple(b) for b in w.alphas), w.gamma


def _entry(branches, d, w) -> dict:
    return {"poset": list(branches), "dim": oracle.format_dim(d),
            "weight": oracle.format_weight(w)}


def _to_condition_set(pr, conditions):
    return pr.ConditionSet(pr.Condition(pr.LinearForm(f), r) for f, r in conditions)


def admissible_pool(pr) -> list[dict]:
    out = []
    for branches in ((3, 2, 1), (4, 2, 1)):
        p = pr.make_poset(branches)
        for d in pr.enumerate_indec_dims(p):
            if d.d0 < 2:
                continue
            conditions, _ = pr.derive_conditions(p, d)
            w = pr.interior_point(conditions, p)
            if w is None:
                continue
            dim = (d.d0, d.branches)
            wt = _weight_tuple(w)
            values = oracle.weight_values(wt)
            derived = oracle.conditions_from_json(conditions.to_json())
            if evaluate_trace(dim, wt) != 0 or not all(oracle.holds(c, values) for c in derived):
                raise SystemExit(f"interior point of {branches} {dim} is not admissible")
            out.append(_entry(branches, dim, wt))
    return out


def evaluate_trace(d, w) -> Fraction:
    return oracle.evaluate(oracle.trace_form(d), oracle.weight_values(w))


def _nudge(rng: random.Random, d, w):
    """Move w by a small seeded rational step, restoring the trace equality
    through gamma."""
    alphas = tuple(tuple(a * (1 + Fraction(rng.randint(-40, 40), 1000)) for a in b)
                   for b in w[0])
    total = sum((a * e for b, db in zip(alphas, d[1]) for a, e in zip(b, db)), Fraction(0))
    return alphas, total / d[0]


def reject_pool(pr, corpus, rng: random.Random) -> list[dict]:
    out = []
    for branches in ((2, 2, 1), (3, 2, 1)):
        p = pr.make_poset(branches)
        for dim, published in corpus[branches]:
            if dim[0] < 2:
                continue
            stricts = [c for c in published if c[1] == oracle.LT]
            rng.shuffle(stricts)
            for flip in stricts:
                others = [c for c in published if c is not flip]
                flipped = others + [({k: -v for k, v in flip[0].items()}, oracle.LT)]
                w = pr.interior_point(_to_condition_set(pr, flipped), p)
                if w is None:
                    continue
                for _ in range(20):
                    cand = _nudge(rng, dim, _weight_tuple(w))
                    values = oracle.weight_values(cand)
                    if (all(a > 0 for b in cand[0] for a in b)
                            and oracle.evaluate(flip[0], values) > 0
                            and evaluate_trace(dim, cand) == 0
                            and oracle.no_decomposable_witness(dim, cand)):
                        out.append(_entry(branches, dim, cand))
                        break
                break  # one reject per published row
    return out


def published_pool(pr, corpus) -> list[dict]:
    out = []
    for branches, rows in sorted(corpus.items()):
        p = pr.make_poset(branches)
        for dim, published in rows:
            w = pr.interior_point(_to_condition_set(pr, published), p)
            if w is None:
                continue
            wt = _weight_tuple(w)
            if not all(oracle.holds(c, oracle.weight_values(wt)) for c in published):
                raise SystemExit(f"interior point of published {branches} {dim} fails")
            out.append(_entry(branches, dim, wt))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    pr = _import_program()
    rng = random.Random(args.seed)
    corpus = oracle.load_corpus(CORPUS)
    pools = {
        "seed": args.seed,
        "admissible": admissible_pool(pr),
        "reject": reject_pool(pr, corpus, rng),
        "published": published_pool(pr, corpus),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(pools, indent=1) + "\n", encoding="utf-8")
    print(f"{args.out}: " + ", ".join(f"{k} {len(v)}" for k, v in pools.items()
                                      if isinstance(v, list)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
