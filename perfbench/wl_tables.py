"""tables: every row of the five condition tables, then the published ones.

One op per row: derive the raw conditions and simplify them, as
``generate_table`` does, for (1,1,1), (2,1,1), (2,2,1), (3,2,1) and
(4,2,1); then one op per published row: derive and compare regions, as
``verify_tables`` does.  The exact simplex does nearly all of the work,
through redundancy removal and region equivalence.  Cold root enumeration
of the five posets happens in setup.  The seed only shuffles the op order.
"""

from __future__ import annotations

import sys

import oracle
from worker import Op

POSETS = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1))
COLD_ROUNDS = False


def _generate_row(p, d):
    derive = sys.modules["posetrep.derive"]
    conditions, _ = derive.derive_conditions(p, d)
    return conditions, derive.simplify(conditions)


def _verify_row(p, row):
    derive = sys.modules["posetrep.derive"]
    derived, _ = derive.derive_conditions(p, row.dim)
    return derived, derive.regions_equivalent(derived, row.conditions)


def setup(ctx) -> list[Op]:
    pr = ctx.pr
    ops = []
    for branches in POSETS:
        p = pr.make_poset(branches)
        for d in pr.enumerate_indec_dims(p):
            ops.append(Op("generate", lambda p=p, d=d: _generate_row(p, d),
                          (branches, (d.d0, d.branches))))
    for branches, table in sorted(pr.paper_corpus().items()):
        for index, row in enumerate(table.rows):
            ops.append(Op("verify", lambda p=table.poset, row=row: _verify_row(p, row),
                          (branches, index)))
    ctx.rng.shuffle(ops)
    return ops


def warm_up(ctx) -> None:
    pass


def _conditions(cs):
    return oracle.conditions_from_json(cs.to_json())


def check_setup(ctx, ops):
    """Row counts against the benchmark's own root closure, and one verify
    op per published row."""
    corpus = oracle.load_corpus(ctx.corpus_path)
    ctx.extra["corpus"] = corpus
    for branches in POSETS:
        dims = sorted(op.data[1] for op in ops if op.kind == "generate" and op.data[0] == branches)
        expected = oracle.indecomposable_dims(branches)
        if set(dims) != expected or len(dims) != len(expected):
            yield f"{branches}: {len(dims)} rows, expected {len(expected)} chain-monotone roots"
    published = sorted(op.data for op in ops if op.kind == "verify")
    wanted = sorted((b, i) for b, rows in corpus.items() for i in range(len(rows)))
    if published != wanted:
        yield f"{len(published)} verify ops for {len(wanted)} published rows"


def check(ctx, op, output) -> list[str]:
    corpus = ctx.extra["corpus"]
    if op.kind == "generate":
        branches, d = op.data
        raw, simplified = (_conditions(c) for c in output)
        errs = _equality_is_trace(raw, d, "raw") + _equality_is_trace(simplified, d, "simplified")
        if not all(any(oracle.same_condition(c, r) for r in raw) for c in simplified):
            errs.append("simplified row has a condition the raw row lacks")
        if not oracle.drops_are_implied(oracle.poset_keys(branches), raw, simplified):
            errs.append("simplify dropped an inequality that is not implied")
        return errs
    branches, index = op.data
    derived, equivalent = output
    d, published = corpus[branches][index]
    derived = _conditions(derived)
    errs = _equality_is_trace(derived, d, "derived")
    if equivalent is not True:
        errs.append(f"published row {oracle.format_dim(d)} reported not equivalent")
    if not oracle.regions_equivalent(oracle.poset_keys(branches), derived, published):
        errs.append(f"published row {oracle.format_dim(d)} differs from the derived region")
    return errs


def _equality_is_trace(conditions, d, what) -> list[str]:
    eqs = [f for f, r in conditions if r == oracle.EQ]
    if len(eqs) != 1 or not oracle.proportional(eqs[0], oracle.trace_form(d)):
        return [f"{what} row {oracle.format_dim(d)}: equalities {eqs} are not the trace condition"]
    return []
