"""Each workload's checker accepts the program's real output and rejects a
corrupted copy of it."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import oracle
import wl_queries
import wl_tables
import wl_witness
import worker


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    pr = worker.import_program()
    c = worker.Context(3, random.Random(3), pr, tmp_path_factory.mktemp("work"))
    c.extra["corpus"] = oracle.load_corpus(c.corpus_path)
    return c


def _cs(pr, conditions):
    return pr.ConditionSet(pr.Condition(pr.LinearForm(f), r) for f, r in conditions)


# --- tables ---------------------------------------------------------------------


def _generate(pr, branches, dim):
    p = pr.make_poset(branches)
    d = pr.core.parse_dim_string(dim)
    op = worker.Op("generate", None, (branches, (d.d0, d.branches)))
    return op, wl_tables._generate_row(p, d)


def test_tables_accepts_real_row(ctx):
    op, out = _generate(ctx.pr, (2, 2, 1), "1,2;1,2;2;3")
    assert wl_tables.check(ctx, op, out) == []


def test_tables_rejects_dropped_equality(ctx):
    op, (raw, simplified) = _generate(ctx.pr, (2, 2, 1), "1,2;1,2;2;3")
    broken = ctx.pr.ConditionSet(simplified.inequalities)
    assert wl_tables.check(ctx, op, (raw, broken))


def test_tables_rejects_dropped_needed_inequality(ctx):
    op, (raw, simplified) = _generate(ctx.pr, (2, 2, 1), "1,2;1,2;2;3")
    assert simplified.inequalities
    broken = ctx.pr.ConditionSet(simplified.inequalities[1:] + simplified.equalities)
    assert any("not implied" in e for e in wl_tables.check(ctx, op, (raw, broken)))


def test_tables_rejects_altered_condition(ctx):
    op, (raw, simplified) = _generate(ctx.pr, (2, 2, 1), "1,2;1,2;2;3")
    conds = oracle.conditions_from_json(simplified.to_json())
    form, rel = next(c for c in conds if c[1] == oracle.LT)
    altered = dict(form, g=form.get("g", Fraction(0)) + 1)
    broken = _cs(ctx.pr, [c if c[0] is not form else (altered, rel) for c in conds])
    assert wl_tables.check(ctx, op, (raw, broken))


def test_tables_rejects_flipped_verdict_and_wrong_row_count(ctx):
    pr = ctx.pr
    table = pr.paper_corpus()[(2, 1, 1)]
    op = worker.Op("verify", None, ((2, 1, 1), 5))
    derived, ok = wl_tables._verify_row(table.poset, table.rows[5])
    assert ok is True and wl_tables.check(ctx, op, (derived, ok)) == []
    assert wl_tables.check(ctx, op, (derived, False))
    ops = [worker.Op("generate", None, ((1, 1, 1), (d.d0, d.branches)))
           for d in pr.enumerate_indec_dims(pr.make_poset((1, 1, 1)))]
    errors = list(wl_tables.check_setup(ctx, ops[1:]))
    assert any("(1, 1, 1): 8 rows, expected 9" in e for e in errors)


# --- witness --------------------------------------------------------------------

def _pools():
    return json.loads(wl_witness.WEIGHTS.read_text("utf-8"))


def test_witness_accepts_and_rejects_perturbed_projector(ctx):
    entry = _pools()["admissible"][0]
    op = worker.Op("admissible", None, entry)
    code, stdout = worker.cli_op(ctx, wl_witness._argv(entry, 0))
    assert code == 0 and wl_witness.check(ctx, op, (code, stdout)) == []
    payload = json.loads(stdout)
    payload["projectors"][2][0][1][0] += 1e-4
    errors = wl_witness.check(ctx, op, (code, json.dumps(payload)))
    assert any("residual" in e for e in errors) and any("idempotent" in e for e in errors)


def test_witness_rejects_flipped_verdict(ctx):
    entry = next(e for e in _pools()["reject"] if oracle.parse_dim(e["dim"])[0] == 2)
    op = worker.Op("reject", None, entry)
    code, stdout = worker.cli_op(ctx, wl_witness._argv(entry, 0))
    assert code == 2 and wl_witness.check(ctx, op, (code, stdout)) == []
    payload = dict(json.loads(stdout), success=True)
    assert wl_witness.check(ctx, op, (0, json.dumps(payload)))


# --- queries --------------------------------------------------------------------


def test_queries_rejects_wrong_root_count(ctx):
    op = worker.Op("enumerate", None, (4, 2, 1))
    code, stdout = worker.cli_op(ctx, ["enumerate", "--poset", "4,2,1", "--json"])
    assert wl_queries.check(ctx, op, (code, stdout)) == []
    obj = json.loads(stdout)
    obj["dims"] = obj["dims"][1:]
    assert wl_queries.check(ctx, op, (code, json.dumps(obj)))


def test_queries_rejects_dropped_raw_equality(ctx):
    d = (3, ((1, 2), (1, 2), (2,)))
    op = worker.Op("conditions_raw", None, ((2, 2, 1), d))
    code, stdout = worker.cli_op(ctx, ["conditions", "--poset", "2,2,1", "--dim",
                                       oracle.format_dim(d), "--raw", "--format", "json"])
    assert wl_queries.check(ctx, op, (code, stdout)) == []
    obj = json.loads(stdout)
    obj["conditions"] = [c for c in obj["conditions"] if c["rel"] != "eq0"]
    assert wl_queries.check(ctx, op, (code, json.dumps(obj)))


def test_queries_rejects_flipped_check_weight_verdict(ctx):
    d = (2, ((1,), (1,), (1,)))
    w = ((Fraction(1),) * 1, (Fraction(1),), (Fraction(1),)), Fraction(3, 2)
    op = worker.Op("check_weight", None, ((1, 1, 1), d, w))
    argv = ["check-weight", "--poset", "1,1,1", "--dim", oracle.format_dim(d),
            "--weight", oracle.format_weight(w)]
    code, stdout = worker.cli_op(ctx, argv)
    assert (code, stdout) == (0, "admissible\n")
    assert wl_queries.check(ctx, op, (code, stdout)) == []
    assert wl_queries.check(ctx, op, (2, "violated: α+β+δ<2γ\n"))


def test_queries_trace_report_must_be_the_trace_condition(ctx):
    d = (2, ((1,), (1,), (1,)))
    w = ((Fraction(1),), (Fraction(1),), (Fraction(1),)), Fraction(2)
    op = worker.Op("check_weight_trace", None, ((1, 1, 1), d, w))
    argv = ["check-weight", "--poset", "1,1,1", "--dim", oracle.format_dim(d),
            "--weight", oracle.format_weight(w)]
    code, stdout = worker.cli_op(ctx, argv)
    assert wl_queries.check(ctx, op, (code, stdout)) == []
    assert wl_queries.check(ctx, op, (code, "violated: α+β+δ=3γ\n"))


def test_queries_rep_verdicts(ctx):
    check = wl_queries.CHECKS["rep_isomorphic"]
    assert check(ctx, True, 0, "isomorphic\n") == []
    assert check(ctx, False, 0, "isomorphic\n")
