"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are fixed here, not configurable."""

from __future__ import annotations

import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from posetrep.cli import main
from posetrep.core import (
    SymbolicWeight,
    classify_degeneracy,
    make_poset,
    parse_dim_string,
    parse_weight_string,
    trace_condition,
)
from posetrep.coxeter import (
    alpha_to_beta,
    beta_to_alpha,
    fminus_dim,
    fplus_dim,
    phiminus_weight,
    phiplus_weight,
    rho_dim,
    sigma_dim,
)
from posetrep.coxeter import NegativeEntry
from posetrep.derive import (
    check_weight,
    derive_conditions,
    interior_point,
    paper_corpus,
)
from posetrep.linrep import (
    are_isomorphic,
    end_dim,
    family_1111,
    is_brick,
    is_indecomposable,
    nonbrick_alpha,
)
from posetrep.numeric import TraceObstruction, structure_check, unitarize
from posetrep.roots import enumerate_indec_dims, is_finite_type, positive_roots, star_graph

FINITE = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1)]


@pytest.fixture
def table421(five_tables):
    """The (4,2,1) table and the seconds generate_table took."""
    table, _, seconds = five_tables[(4, 2, 1)]
    return table, seconds


def test_criterion_1_table_reproduction(verify_report):
    report, elapsed = verify_report
    per_poset = {}
    for row in report.rows:
        per_poset.setdefault(row.poset, []).append(row)
    counts = {k: len(v) for k, v in per_poset.items()}
    assert counts == {(1, 1, 1): 9, (2, 1, 1): 15, (2, 2, 1): 29, (3, 2, 1): 53}
    ok, total = report.counts
    assert total == 106 and ok == 106, [r for r in report.rows if not r.equivalent]
    assert elapsed < 60
    print(f"\nACCEPTANCE 1: PASS table reproduction 106/106 rows in {elapsed:.1f}s")


def test_criterion_2_enumeration():
    corpus = paper_corpus()
    for branches, table in corpus.items():
        fixture_dims = {r.dim for r in table.rows}
        assert set(enumerate_indec_dims(make_poset(branches))) == fixture_dims
    counts = {}
    for branches, expected in [
        ((1, 1, 1), 12), ((2, 1, 1), 20), ((2, 2, 1), 36),
        ((3, 2, 1), 63), ((4, 2, 1), 120),
    ]:
        # test_roots compares these roots with an exhaustive box scan
        counts[branches] = len(positive_roots(star_graph(make_poset(branches))))
        assert counts[branches] == expected
    print(f"\nACCEPTANCE 2: PASS enumeration sets match; root counts {list(counts.values())}")


def test_criterion_3_functor_algebra():
    checked = 0
    for branches in FINITE:
        p = make_poset(branches)
        for d in enumerate_indec_dims(p):
            for op in (sigma_dim, rho_dim):
                try:
                    once = op(p, d)
                except NegativeEntry:
                    continue
                assert op(p, once) == d
            if not classify_degeneracy(p, d):
                assert fplus_dim(p, fminus_dim(p, d)) == d
                assert fminus_dim(p, fplus_dim(p, d)) == d
                sw = SymbolicWeight.identity(p)
                defect = _defect(p, d, sw)
                assert _defect(p, fminus_dim(p, d), phiminus_weight(p, sw)) == defect
                checked += 1
        sw = SymbolicWeight.identity(p)
        assert phiplus_weight(p, phiminus_weight(p, sw)) == sw
        assert phiminus_weight(p, phiplus_weight(p, sw)) == sw
    rng = random.Random(99)
    randoms = 0
    while randoms < 1000:
        p, d = _random_nondegenerate(rng)
        try:
            down = fminus_dim(p, d)
        except NegativeEntry:
            continue
        sw = SymbolicWeight.identity(p)
        assert _defect(p, down, phiminus_weight(p, sw)) == _defect(p, d, sw)
        w = _random_weight(rng, p)
        assert beta_to_alpha(p, alpha_to_beta(p, w)) == w
        randoms += 1
    print(
        f"\nACCEPTANCE 3: PASS functor algebra exact on {checked} enumerated "
        f"and {randoms} random dims"
    )


def _defect(p, d, sw):
    from posetrep.core import LinearForm

    total = LinearForm()
    for j, i in p.elements():
        total = total + sw.entry(j, i) * Q(d.entry(j, i))
    return total - sw.gamma_form * Q(d.d0)


def _random_nondegenerate(rng):
    branches = tuple(rng.randint(1, 3) for _ in range(rng.randint(3, 4)))
    p = make_poset(branches)
    d0 = max(branches) + rng.randint(1, 3)
    dims = tuple(tuple(sorted(rng.sample(range(1, d0), k))) for k in branches)
    from posetrep.core import DimVector

    return p, DimVector(d0, dims)


def _random_weight(rng, p):
    from posetrep.core import Weight

    return Weight(
        tuple(
            tuple(Q(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(k))
            for k in p.branches
        ),
        Q(rng.randint(1, 10)),
    )


def test_criterion_4_equality_is_trace_condition(table421):
    table, _ = table421
    rows = 0
    for branches, fixture in paper_corpus().items():
        p = make_poset(branches)
        for row in fixture.rows:
            derived, _ = derive_conditions(p, row.dim)
            eqs = derived.equalities
            assert len(eqs) == 1 and eqs[0] == trace_condition(p, row.dim)
            rows += 1
    p42 = make_poset([4, 2, 1])
    for row in table.rows:
        eqs = row.conditions.equalities
        assert len(eqs) == 1 and eqs[0] == trace_condition(p42, row.dim)
        rows += 1
    print(f"\nACCEPTANCE 4: PASS emitted equality = trace condition on {rows} rows")


def test_criterion_5_numeric_witnesses():
    worst = 0.0
    slowest = 0.0
    rows = empty = 0
    for branches in [(1, 1, 1), (2, 2, 1)]:
        p = make_poset(branches)
        for d in enumerate_indec_dims(p):
            conditions, _ = derive_conditions(p, d)
            w = interior_point(conditions, p)
            if w is None:
                empty += 1
                continue
            start = time.monotonic()
            rep = unitarize(p, d, w)
            elapsed = time.monotonic() - start
            bound = 1e-8 * float(w.gamma) * np.sqrt(d.d0)
            assert rep.residual <= bound
            assert structure_check(rep, p, d, tol=1e-8).ok
            assert elapsed < 5
            worst = max(worst, rep.residual / bound)
            slowest = max(slowest, elapsed)
            rows += 1
    angles = [0, 2 * np.pi / 3, 4 * np.pi / 3]
    projs = [
        np.array([[np.cos(t)], [np.sin(t)]], dtype=complex) for t in angles
    ]
    m = sum(v @ v.conj().T for v in projs) - 1.5 * np.eye(2)
    assert np.linalg.norm(m) <= 1e-12
    print(
        f"\nACCEPTANCE 5: PASS witnesses for {rows} nonempty rows "
        f"({empty} empty), worst residual {worst:.2f}x bound, "
        f"slowest row {slowest:.2f}s; closed-form check <= 1e-12"
    )


def test_criterion_6_table_421(table421):
    table, gen_seconds = table421
    assert gen_seconds < 600
    assert len(table.rows) == len(enumerate_indec_dims(make_poset([4, 2, 1])))
    p = make_poset([4, 2, 1])
    witnessed = empty = 0
    for row in table.rows:
        if row.dim.d0 > 3:
            continue
        w = interior_point(row.conditions, p)
        if w is None:
            empty += 1
            continue
        rep = unitarize(p, row.dim, w)
        assert rep.residual <= 1e-8 * float(w.gamma) * np.sqrt(row.dim.d0)
        assert structure_check(rep, p, row.dim, tol=1e-8).ok
        witnessed += 1
    print(
        f"\nACCEPTANCE 6: PASS (4,2,1) table of {len(table.rows)} rows in "
        f"{gen_seconds:.1f}s; {witnessed} witnesses for d0<=3 ({empty} empty rows)"
    )


def test_criterion_7_linrep_and_finite_type():
    nb = nonbrick_alpha(1)
    assert end_dim(nb) == 2
    assert is_indecomposable(nb)
    assert not is_brick(nb)
    reps = {lam: family_1111(lam) for lam in (2, 3, 5)}
    for r in reps.values():
        assert is_brick(r)
    assert not are_isomorphic(reps[2], reps[3])
    assert not are_isomorphic(reps[2], reps[5])
    assert not are_isomorphic(reps[3], reps[5])
    for branches in [(1,), (6,), (3, 4), (5, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1)]:
        assert is_finite_type(make_poset(branches))
    for branches in [(1, 1, 1, 1), (2, 2, 2), (3, 3, 2), (5, 2, 1)]:
        assert not is_finite_type(make_poset(branches))
    print("\nACCEPTANCE 7: PASS fixture invariants and finite-type classification")


def test_criterion_8_trace_precheck(capsys):
    p = make_poset([4, 2, 1])
    d = parse_dim_string("1,2,3,4;1,2;1;5")
    w = parse_weight_string("1,1,1,1;1,1;1;1")  # trace sum 14 != 5
    start = time.monotonic()
    verdict = check_weight(p, d, w)
    precheck_seconds = time.monotonic() - start
    assert not verdict.admissible
    assert verdict.violated == (trace_condition(p, d),)
    with pytest.raises(TraceObstruction):
        unitarize(p, d, w)
    assert precheck_seconds < 0.1  # no derivation happens on the fast path
    code = main(["check-weight", "--poset", "1,1,1", "--dim", "1;1;1;2",
                 "--weight", "3;2;2;3"])
    assert code == 2
    code = main(["unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
                 "--weight", "3;2;2;3"])
    assert code == 2
    capsys.readouterr()
    print(f"\nACCEPTANCE 8: PASS trace pre-check rejects in {precheck_seconds*1e6:.0f}us with exit 2")
