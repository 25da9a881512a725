from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import mul, neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetrep import coxeter, derive, lp
from posetrep.cli import main
from posetrep.core import (
    EQ_ZERO,
    FULL,
    GAMMA_KEY,
    LT_ZERO,
    MERGE,
    ZERO,
    Condition,
    ConditionSet,
    DimVector,
    Finding,
    LinearForm,
    PosetRepError,
    PrimitivePoset,
    ShapeMismatch,
    SymbolicWeight,
    Weight,
    _dim_string,
    _reduce,
    alpha_key,
    classify_degeneracy,
    format_dim_string,
    make_poset,
    parse_condition_text,
    parse_dim_string,
    parse_weight_string,
    trace_condition,
)
from posetrep.coxeter import NegativeEntry, _fminus_dims, _phiminus_forms, phiminus_weight
from posetrep.derive import (
    ApplyPhiMinus,
    DerivationTrace,
    MalformedTrace,
    NotInEnumeration,
    OrbitEscape,
    RowCondition,
    Terminal,
    TraceStep,
    Verdict,
    _Row,
    _condition_row,
    _criterion,
    _dot,
    _form,
    _max_slack,
    _merged,
    _ray_hits,
    _rows,
    _sorted_var_keys,
    _table_row,
    check_weight,
    derive_conditions,
    generate_table,
    interior_point,
    paper_corpus,
    regions_equivalent,
    simplify,
    step_to_json,
    verify_tables,
)
from posetrep.roots import (
    FiniteTypeRequired,
    PosetTooLarge,
    _indec_roots,
    _is_root,
    _root_count,
    dim_to_root,
    enumerate_indec_dims,
    is_finite_type,
    positive_roots,
    require_finite_type,
    star_graph,
)

from test_coxeter import fminus_composition
from test_linalg import _fraction_rref


def _conds(p, *texts):
    return ConditionSet([parse_condition_text(t, p) for t in texts])


def test_derive_published_examples():
    p = make_poset([1, 1, 1])
    cs, _ = derive_conditions(p, parse_dim_string("1;1;1;2"))
    assert regions_equivalent(cs, _conds(p, "a<g", "b<g", "d<g", "a+b+d=2g"))
    cs2, _ = derive_conditions(p, parse_dim_string("1;1;1;1"))
    assert cs2 == _conds(p, "a+b+d=g")
    p211 = make_poset([2, 1, 1])
    cs3, _ = derive_conditions(p211, parse_dim_string("1,2;1;1;2"))
    assert regions_equivalent(
        cs3, _conds(p211, "a1+a2<g", "a2+b<g", "a2+d<g", "a1+2a2+b+d=2g")
    )
    p221 = make_poset([2, 2, 1])
    cs4, _ = derive_conditions(p221, parse_dim_string("1,2;1,2;1;3"))
    assert regions_equivalent(
        cs4,
        _conds(
            p221, "a1+a2<g", "a1+a2+b2+d<2g", "b1+b2<g",
            "a2+b1+b2+d<2g", "a2+b2<g", "a1+2a2+b1+2b2+d=3g",
        ),
    )


def test_derive_errors():
    with pytest.raises(FiniteTypeRequired):
        derive_conditions(make_poset([5, 2, 1]), parse_dim_string("0,0,0,0,1;0,0;0;1"))
    # not a root, or a vector that does not fit the poset
    for dim in ["1;1;1;3", "1,1;1;1;2", "1;1;2", "1;1;1;1;2", "1,2;1;1;2"]:
        with pytest.raises(NotInEnumeration):
            derive_conditions(make_poset([1, 1, 1]), parse_dim_string(dim))
    # a finite-type poset above MAX_ELEMENTS is refused before any graph is built
    with pytest.raises(PosetTooLarge):
        derive_conditions(make_poset([10**9, 1, 1]), parse_dim_string("1;1;1;2"))


def test_trace_structure():
    p = make_poset([1, 1, 1])
    _, trace = derive_conditions(p, parse_dim_string("1;1;1;2"))
    assert isinstance(trace.steps[-1], Terminal)
    phis = [s for s in trace.steps if isinstance(s, ApplyPhiMinus)]
    assert len(phis) == 1 and len(phis[0].emitted) == 3
    _, trace0 = derive_conditions(p, parse_dim_string("0;0;0;1"))
    kinds = [step_to_json(s)["step"] for s in trace0.steps]
    assert kinds == ["zero", "zero", "zero", "terminal"]


def test_degeneracy_report_is_the_first_reduction_pass():
    # the report and the derivation run the same pass, so the report lists
    # exactly the reductions the trace records before its first transform
    for branches in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1), (5, 1, 1), (4, 4)]:
        p = make_poset(branches)
        for d in enumerate_indec_dims(p):
            _, trace = derive_conditions(p, d)
            leading = []
            for step in map(step_to_json, trace.steps):
                if step["step"] not in ("zero", "merge", "full"):
                    break
                leading.append((step["step"], step["branch"], step["index"]))
            report = classify_degeneracy(p, d)
            assert [(f.kind, f.branch, f.index) for f in report] == leading, (branches, d)


def test_trace_must_end_in_terminal():
    # a typed error, so the check holds under python -O as well
    with pytest.raises(MalformedTrace):
        DerivationTrace(())
    with pytest.raises(MalformedTrace):
        DerivationTrace((ApplyPhiMinus(()),))
    assert issubclass(MalformedTrace, PosetRepError)


def test_derivation_depth_bounded_by_root_count():
    for branches in [(1, 1, 1), (2, 2, 1), (3, 2, 1)]:
        p = make_poset(branches)
        bound = len(positive_roots(star_graph(p)))
        for d in enumerate_indec_dims(p):
            _, trace = derive_conditions(p, d)
            phis = sum(1 for s in trace.steps if isinstance(s, ApplyPhiMinus))
            assert phis <= bound


def test_deleted_elements_never_mentioned():
    p = make_poset([2, 1, 1])
    cs, _ = derive_conditions(p, parse_dim_string("0,1;1;1;2"))
    assert "a.1.1" not in cs.variables()
    assert regions_equivalent(cs, _conds(p, "a2<g", "b<g", "d<g", "a2+b+d=2g"))


def test_simplify_drops_redundant():
    p = make_poset([1, 1, 1])
    base = _conds(p, "g<a+b+d", "a+b+d=2g")  # inequality implied by g>0
    out = simplify(base)
    assert out == _conds(p, "a+b+d=2g")
    dup = ConditionSet(
        [parse_condition_text("a<g", p), parse_condition_text("2a<2g", p)]
    )
    assert len(dup) == 1  # canonical dedup happens on construction
    assert simplify(ConditionSet([])) == ConditionSet([])


def test_simplify_keeps_empty_region_empty():
    p = make_poset([1, 1, 1])
    clash = _conds(p, "a<g", "g<a")
    out = simplify(clash)
    assert interior_point(out, p) is None
    assert regions_equivalent(out, clash)


def test_simplify_preserves_region_on_table_rows():
    p = make_poset([2, 2, 1])
    for d in enumerate_indec_dims(p):
        cs, _ = derive_conditions(p, d)
        assert regions_equivalent(simplify(cs), cs)


def test_regions_equivalent_examples():
    p = make_poset([1, 1, 1])
    assert regions_equivalent(_conds(p, "a<g"), _conds(p, "2a<2g"))
    assert not regions_equivalent(_conds(p, "a<g"), _conds(p, "a<2g"))
    assert regions_equivalent(_conds(p, "g=0"), _conds(p, "2g=0"))
    # reflexive and symmetric on generated rows
    p211 = make_poset([2, 1, 1])
    rows = [derive_conditions(p211, d)[0] for d in enumerate_indec_dims(p211)]
    for cs in rows:
        assert regions_equivalent(cs, cs)
    for a in rows[:4]:
        for b in rows[:4]:
            assert regions_equivalent(a, b) == regions_equivalent(b, a)


def test_interior_point_examples():
    p = make_poset([1, 1, 1])
    cs, _ = derive_conditions(p, parse_dim_string("1;1;1;2"))
    w = interior_point(cs, p)
    assert w is not None and w.gamma == 1
    assert check_weight(p, parse_dim_string("1;1;1;2"), w).admissible
    cs0, _ = derive_conditions(p, parse_dim_string("0;0;0;1"))
    assert interior_point(cs0, p) is None
    cs1, _ = derive_conditions(p, parse_dim_string("1;1;1;1"))
    w1 = interior_point(cs1, p)
    assert w1 is not None
    assert w1.entry(1, 1) + w1.entry(2, 1) + w1.entry(3, 1) == w1.gamma


def test_check_weight_examples():
    p = make_poset([1, 1, 1])
    d = parse_dim_string("1;1;1;2")
    assert check_weight(p, d, parse_weight_string("2;2;2;3")).admissible
    bad = check_weight(p, d, parse_weight_string("3;2;2;3"))
    assert not bad.admissible
    assert bad.violated == (trace_condition(p, d),)
    # homogeneity: scaling a weight never changes the verdict
    assert check_weight(p, d, parse_weight_string("4;4;4;6")).admissible


# --- the compiled check against the derived conditions ---------------------

_SHAPES = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1), (5, 1, 1), (4, 4)]
# every root whose trace equality some positive weight meets
_TRACE_ROOTS = [(make_poset(b), d) for b in _SHAPES for d in enumerate_indec_dims(make_poset(b))
                if any(e for branch in d.branches for e in branch)]


@lru_cache(maxsize=None)
def _derived(p, d):
    return derive_conditions(p, d)[0]


def _assert_compiled_check_agrees(p, d, w):
    """check_weight against the reference verdict: every derived condition
    evaluated at w (where the trace equality holds)."""
    assert trace_condition(p, d).holds_at(w)
    expected = tuple(c for c in _derived(p, d) if not c.holds_at(w))
    assert check_weight(p, d, w) == Verdict(not expected, expected), (p, d, w)


def _point(p, values):
    """Weight from a dict over p.variable_keys(), or None if not positive."""
    if any(v <= 0 for v in values.values()):
        return None
    alphas = tuple(tuple(values[alpha_key(j, i)] for i in range(1, k + 1))
                   for j, k in enumerate(p.branches, start=1))
    return Weight(alphas, values[GAMMA_KEY])


def test_compiled_check_matches_derived_conditions():
    """Each root's interior point, and for each inequality the points on its
    boundary and just outside it, moving from the interior point along the
    trace hyperplane."""
    rows = outside = 0
    for b in _SHAPES:
        p = make_poset(b)
        keys = p.variable_keys()
        for d in enumerate_indec_dims(p):
            conditions = _derived(p, d)
            x0 = interior_point(conditions, p)
            if x0 is None:
                continue
            _assert_compiled_check_agrees(p, d, x0)
            rows += 1
            x = {k: x0.value(k) for k in keys}
            t = [trace_condition(p, d).form.coeff(k) for k in keys]
            tt = sum(c * c for c in t)
            for cond in conditions.inequalities:
                f = [cond.form.coeff(k) for k in keys]
                ft = sum(a * c for a, c in zip(f, t))
                v = [a * tt - c * ft for a, c in zip(f, t)]  # f projected off t
                v = [c / gcd(*(int(c) for c in v)) for c in v]
                fv = sum(a * c for a, c in zip(f, v))
                at_x0 = cond.form.evaluate(x0)
                assert at_x0 < 0 < fv
                for over in (Fraction(0), Fraction(1, 1000)):
                    s = -at_x0 / fv * (1 + over)
                    w = _point(p, {k: x[k] + s * c for k, c in zip(keys, v)})
                    if w is not None:
                        assert not cond.holds_at(w)
                        _assert_compiled_check_agrees(p, d, w)
                        outside += 1
    assert rows > 250 and outside > 1000


@st.composite
def _trace_weights(draw):
    p, d = draw(st.sampled_from(_TRACE_ROOTS))
    entry = st.builds(Fraction, st.integers(1, 36), st.integers(1, 6))
    alphas = tuple(tuple(draw(entry) for _ in range(k)) for k in p.branches)
    total = sum(a * e for b, db in zip(alphas, d.branches) for a, e in zip(b, db))
    return p, d, Weight(alphas, total / d.d0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trace_weights())
def test_compiled_check_matches_on_trace_weights(case):
    _assert_compiled_check_agrees(*case)


def test_criterion_cache_is_bounded():
    assert _criterion.cache_info().maxsize == 1024
    p = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    _criterion.cache_clear()
    # a weight on the trace hyperplane, so check_weight reaches the criterion
    check_weight(p, d, parse_weight_string("1,1;1,1;1;8/3"))
    assert _criterion.cache_info().currsize == 1

    def found(obj, kind):
        if isinstance(obj, kind):
            yield obj
        elif isinstance(obj, tuple):
            for x in obj:
                yield from found(x, kind)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                yield from found(getattr(obj, name), kind)

    c = _criterion(p, d)
    assert not list(found(c, LinearForm))
    # the only Findings it reaches are the later passes', in the shared memo
    # entry of d's reduced state: its condition rows and trace steps alone
    reduced = _reduce(d.d0, d.branches, d.branches, d.d0)[0]
    assert c.descent is derive._descent(d.d0, reduced, _root_count(p.branches))
    conditions, steps = c.descent
    assert [rel for _, rel in conditions] == [LT_ZERO] * (len(conditions) - 1) + [EQ_ZERO]
    assert all(isinstance(s, Finding) or {type(t) for t in s} == {_Row} for s in steps)
    assert any(isinstance(s, Finding) for s in steps)
    assert not list(found((c.keys, c.conditions, c.owner), Finding))
    _criterion.cache_clear()
    assert _criterion.cache_info().currsize == 0


def test_descent_memo_is_bounded():
    """The memoised descent is a module-level lru_cache of 1,024 entries,
    one per (d0, reduced dims, step bound); cache_clear empties it, and a
    descent that fails is not kept."""
    assert derive._descent.cache_info().maxsize == 1024
    derive._descent.cache_clear()
    p = make_poset([61, 1, 1])
    for d in enumerate_indec_dims(p)[:500]:
        _criterion.__wrapped__(p, d)
    assert 0 < derive._descent.cache_info().currsize <= 2
    derive._descent.cache_clear()
    assert derive._descent.cache_info().currsize == 0
    with pytest.raises(OrbitEscape):
        derive._descent(3, ((1,), (2,)), 6)  # the new d0 is 0, below its branches
    with pytest.raises(derive._Exceeded):
        derive._descent(2, ((1,),) * 5, 12)  # an infinite-type state never ends
    assert derive._descent.cache_info().currsize == 0


def test_corpus_row_counts_and_order():
    corpus = paper_corpus()
    counts = {k: len(t.rows) for k, t in corpus.items()}
    assert counts == {(1, 1, 1): 9, (2, 1, 1): 15, (2, 2, 1): 29, (3, 2, 1): 53}
    t1 = corpus[(1, 1, 1)]
    assert t1.rows[0].dim == parse_dim_string("0;0;0;1")
    assert t1.rows[-1].dim == parse_dim_string("1;1;1;2")


def test_corpus_dims_match_enumeration():
    corpus = paper_corpus()
    for branches, table in corpus.items():
        p = make_poset(branches)
        assert {r.dim for r in table.rows} == set(enumerate_indec_dims(p))


def test_corpus_equalities_equal_trace_condition():
    corpus = paper_corpus()
    for branches, table in corpus.items():
        p = make_poset(branches)
        for row in table.rows:
            eqs = row.conditions.equalities
            assert len(eqs) == 1
            assert eqs[0] == trace_condition(p, row.dim)


def test_verify_small_tables(verify_report):
    report, _ = verify_report
    small = [r for r in report.rows if r.poset in ((1, 1, 1), (2, 1, 1))]
    assert len(small) == 24
    assert all(r.equivalent for r in small)


def test_generate_table_order_and_interior_consistency():
    p = make_poset([1, 1, 1])
    table = generate_table(p)
    assert [r.dim for r in table.rows] == list(enumerate_indec_dims(p))
    for row in table.rows:
        w = interior_point(row.conditions, p)
        if w is not None:
            assert check_weight(p, row.dim, w).admissible


def test_corpus_env_override(tmp_path, monkeypatch):
    corpus = paper_corpus()
    slim = {"tables": [corpus[(1, 1, 1)].to_json()]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(slim))
    monkeypatch.setenv("POSETREP_CORPUS", str(path))
    assert set(paper_corpus()) == {(1, 1, 1)}
    monkeypatch.delenv("POSETREP_CORPUS")
    assert len(paper_corpus()) == 4


def test_corpus_missing():
    from posetrep.derive import CorpusMissing

    with pytest.raises(CorpusMissing):
        paper_corpus("/nonexistent/corpus.json")


# --- oracle: the region LP as stated before the homogeneous rows ------------
#
# The earlier _max_slack, kept verbatim: one row x_v >= s per variable,
# s <= 1, and g substituted by 1 into every right-hand side.  The LP of
# derive._max_slack has the same feasible set in (x, s) and the same
# optimal slack, so simplify, regions_equivalent and the emptiness of
# interior_point must give the same answers as the versions built on this.


def _substituted_row(form, var_keys):
    """Coefficient row over var_keys and the constant after setting g = 1."""
    return [form.coeff(k) for k in var_keys], form.coeff(GAMMA_KEY)


def _oracle_max_slack(var_keys, c, extra_nonneg=()):
    """Maximise the common slack s of {f + s <= 0 for strict f in c,
    x_v >= s, s <= 1} over {equalities of c, f >= 0 for f in extra_nonneg,
    g = 1, x >= 0}.

    Returns the maximising point when the best slack is positive, which
    certifies a strictly feasible rational point, and None otherwise.
    """
    n = len(var_keys)
    zero = Fraction(0)
    one = Fraction(1)
    c_obj = [zero] * n + [one]
    a_ub = []
    b_ub = []
    for q in c.inequalities:
        row, const = _substituted_row(q.form, var_keys)
        a_ub.append(row + [one])
        b_ub.append(-const)
    for f in extra_nonneg:  # f >= 0, not slack-tightened
        row, const = _substituted_row(f, var_keys)
        a_ub.append([-v for v in row] + [zero])
        b_ub.append(const)
    for v in range(n):  # x_v >= s keeps every variable strictly positive
        row = [zero] * (n + 1)
        row[v] = -one
        row[n] = one
        a_ub.append(row)
        b_ub.append(zero)
    a_ub.append([zero] * n + [one])  # s <= 1
    b_ub.append(one)
    a_eq = []
    b_eq = []
    for q in c.equalities:
        row, const = _substituted_row(q.form, var_keys)
        a_eq.append(row + [zero])
        b_eq.append(-const)
    res = lp.solve_lp(c_obj, a_ub, b_ub, a_eq, b_eq)
    if res.status != lp.OPTIMAL or res.value <= 0:
        return None
    return {k: res.x[i] for i, k in enumerate(var_keys)}


def _oracle_interior_point(c, p):
    point = _oracle_max_slack([alpha_key(j, i) for j, i in p.elements()], c)
    return None if point is None else _point(p, {**point, GAMMA_KEY: Fraction(1)})


def _slack(c, w):
    """The largest s with w_v >= s, f(w) + s <= 0 for each strict f in c,
    and s <= 1: at a max-slack point, the optimal slack."""
    alphas = [a for branch in w.alphas for a in branch]
    return min([Fraction(1)] + alphas + [-q.form.evaluate(w) for q in c.inequalities])


def _oracle_simplify(c):
    var_keys = _sorted_var_keys(c.variables())
    equalities = list(c.equalities)
    kept = list(c.inequalities)
    for cond in list(kept):
        rest = ConditionSet([q for q in kept if q != cond] + equalities)
        if _oracle_max_slack(var_keys, rest, [cond.form]) is None:
            kept.remove(cond)
    return ConditionSet(kept + equalities)


def _equality_span(c, keys):
    """Canonical basis of the span of c's equalities over keys: the nonzero
    rows of its reduced row echelon form, so equal spans compare equal."""
    a, pivots = _fraction_rref([[Fraction(q.form.coeff(k)) for k in keys] for q in c.equalities])
    return a[: len(pivots)]


def _oracle_regions_equivalent(c1, c2):
    var_keys = _sorted_var_keys(c1.variables() | c2.variables())
    nonempty1 = _oracle_max_slack(var_keys, c1) is not None
    nonempty2 = _oracle_max_slack(var_keys, c2) is not None
    if not nonempty1 and not nonempty2:
        return True
    if nonempty1 != nonempty2:
        return False
    full_keys = var_keys + [GAMMA_KEY]
    if _equality_span(c1, full_keys) != _equality_span(c2, full_keys):
        return False
    for cond in c1.inequalities:
        if _oracle_max_slack(var_keys, c2, [cond.form]) is not None:
            return False
    for cond in c2.inequalities:
        if _oracle_max_slack(var_keys, c1, [cond.form]) is not None:
            return False
    return True


def _without_first_inequality(c):
    return ConditionSet(list(c.inequalities[1:]) + list(c.equalities))


def _assert_simplify_matches_oracle(p, c):
    """simplify, in order, and interior_point's emptiness and slack against
    the oracle."""
    out = simplify(c)
    assert tuple(out) == tuple(_oracle_simplify(c)), c
    w, ref = interior_point(c, p), _oracle_interior_point(c, p)
    assert (w is None) == (ref is None), c
    if w is not None:
        assert _slack(c, w) == _slack(c, ref), c
    return out


def _equivalence_matching_oracle(c1, c2):
    verdict = regions_equivalent(c1, c2)
    assert verdict == _oracle_regions_equivalent(c1, c2), (c1, c2)
    return verdict


def test_region_ops_match_oracle_on_table_rows(five_tables):
    verdicts = set()
    for b in _SHAPES:
        p = make_poset(b)
        if b in five_tables:
            rows = five_tables[b].raw.values()
        else:
            rows = [_derived(p, d) for d in enumerate_indec_dims(p)]
        for c in rows:
            out = _assert_simplify_matches_oracle(p, c)
            verdicts.add(_equivalence_matching_oracle(out, _without_first_inequality(out)))
    assert verdicts == {True, False}


def test_region_ops_match_oracle_on_published_rows(five_tables):
    rows = 0
    verdicts = set()
    for table in paper_corpus().values():
        p = table.poset
        for row in table.rows:
            derived = five_tables[p.branches].raw[row.dim]
            _assert_simplify_matches_oracle(p, row.conditions)
            assert _equivalence_matching_oracle(derived, row.conditions)
            verdicts.add(_equivalence_matching_oracle(
                derived, _without_first_inequality(row.conditions)))
            rows += 1
    assert rows == 106 and verdicts == {True, False}


@st.composite
def _random_regions(draw):
    """Integer condition sets on (1,1,1) or (2,1,1): a few strict conditions
    and equalities with small coefficients, zero forms allowed (so empty and
    trivial rows occur), and a second set that adds one inequality."""
    p = make_poset(draw(st.sampled_from([(1, 1, 1), (2, 1, 1)])))
    keys = p.variable_keys()
    form = st.lists(st.integers(-3, 3), min_size=len(keys), max_size=len(keys)).map(
        lambda cs: LinearForm(dict(zip(keys, cs))))
    strict = draw(st.lists(form, max_size=5))
    equal = draw(st.lists(form, max_size=2))
    c = ConditionSet([Condition(f, LT_ZERO) for f in strict]
                     + [Condition(f, EQ_ZERO) for f in equal])
    extra = Condition(draw(form), LT_ZERO)
    return p, c, ConditionSet(list(c) + [extra])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_random_regions())
def test_region_ops_match_oracle_on_random_regions(case):
    p, c, wider = case
    _assert_simplify_matches_oracle(p, c)
    _assert_simplify_matches_oracle(p, wider)
    assert _equivalence_matching_oracle(c, wider) == _equivalence_matching_oracle(wider, c)


# --- exact outputs and interior points of the five tables -------------------

_TABLES = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1)]

# SHA-256 of json.dumps(table.to_json(), sort_keys=True), and of the
# verify_tables() rows, recorded before the region LP was restated on
# homogeneous integer rows: table output must stay byte-identical.
_TABLE_SHA256 = {
    (1, 1, 1): "98264658cd59aa03caaff79baaacc42c4c0c57316050dd1cee224da67dbf0d24",
    (2, 1, 1): "0a7168ecc916ee9b8900320df365063631c560d56613924b531c0f4bb5a19680",
    (2, 2, 1): "492166fcb2060730c3941aabf70e858d70823f55a2875a176f2e9dbc5f02d8c9",
    (3, 2, 1): "a921ab902b1d9533f57769782300b22974888adac2038ee4095b301e52e98d5e",
    (4, 2, 1): "9d730a3ed623dca00dce4577ef694a146b7e9bcef2b92af8507f3da07cb5826a",
}
_VERIFY_SHA256 = "091dc1092eb49ac8d36733bddc76354260ea31c6a466b4d9a647d54220631b64"
# The same for two wide (k,1,1) shapes, recorded while simplify ran one LP
# per inequality: none of their raw inequalities is redundant (16,1,1 keeps
# all 408).  (10,10), a
# two-chain shape whose rows carry only the trace equality, was recorded
# while the descent still built a `LinearForm` for every condition.
_WIDE_TABLE_SHA256 = {
    (8, 1, 1): "140a67d5943b7983281575dcf13ecf5b64d9e10cc81a5d47f7a6ee67d4380788",
    (16, 1, 1): "a33411042074d4be5aeebd42d4691f3e6adfed5b39b6a50a24470a9ad95f7d25",
    (10, 10): "38ad7021ffba4a8c797cdf3d0521d0e4b25cd486effd5ea10cd876de843c0c67",
}


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_golden_tables_and_verify_rows(five_tables, verify_report):
    for b in _TABLES:
        assert _sha256(five_tables[b].table.to_json()) == _TABLE_SHA256[b], b
    report, _ = verify_report
    rows = [[list(r.poset), r.dim.to_json(), r.equivalent, r.detail] for r in report.rows]
    assert _sha256(rows) == _VERIFY_SHA256


def test_golden_wide_tables():
    tables = {b: generate_table(make_poset(b)) for b in _WIDE_TABLE_SHA256}
    for b, digest in _WIDE_TABLE_SHA256.items():
        assert _sha256(tables[b].to_json()) == digest, b
    assert sum(len(r.conditions.inequalities) for r in tables[(16, 1, 1)].rows) == 408


def test_interior_point_is_strictly_inside_every_table_row(five_tables):
    nonempty = 0
    for b in _TABLES:
        p = make_poset(b)
        for row in five_tables[b].table.rows:
            w = interior_point(row.conditions, p)
            if w is None:
                continue
            assert w.gamma == 1
            assert all(a > 0 for branch in w.alphas for a in branch), (b, row.dim)
            assert all(q.holds_at(w) for q in row.conditions), (b, row.dim)
            nonempty += 1
    assert nonempty > 150


# --- region operations against the one-LP-per-question oracle -------------
#
# The certificates, the batched maxima and the merged columns only settle
# questions that _oracle_simplify and _oracle_regions_equivalent answer with
# one Fraction LP each, so the kept conditions, their order and every
# verdict must come out the same.


@st.composite
def _integer_systems(draw):
    """Two integer condition sets over one poset's variables.  The first
    has zero to two equalities (trace-like, or arbitrary) and a few strict
    rows, sparse ones on a wide (k,1,1) shape; some of its rows are
    positive multiples of another plus a multiple of an equality, and some
    contradict another, so empty regions occur.  The second permutes the
    first, replaces some rows by such equivalents or by their negations and
    may drop or add one."""
    shape = draw(st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (6, 1, 1), (12, 1, 1)]))
    keys = make_poset(shape).variable_keys()
    alphas = keys[:-1]

    def form(coeffs):
        return LinearForm({k: v for k, v in coeffs.items() if v})

    def strict_form():
        support = draw(st.lists(st.sampled_from(alphas), min_size=1, max_size=4, unique=True))
        kind = draw(st.integers(0, 4))
        coeffs = {k: draw(st.integers(1, 2)) for k in support}
        total = sum(coeffs.values())
        if kind < 2:  # an upper bound sum(c_i a_i) < m g, loose at a = g
            coeffs[GAMMA_KEY] = -total - draw(st.integers(0, 2))
        elif kind < 4:  # a lower bound m g < sum(c_i a_i), loose at a = g
            coeffs = {k: -v for k, v in coeffs.items()}
            coeffs[GAMMA_KEY] = total - draw(st.integers(0, 2))
        else:
            coeffs = {k: draw(st.integers(-2, 2)) for k in support}
            coeffs[GAMMA_KEY] = draw(st.integers(-3, 3))
        return form(coeffs)

    def equality_form():
        if draw(st.integers(0, 3)):  # sum(d_i a_i) = d0 g, as the trace is
            coeffs = {k: draw(st.integers(0, 2)) for k in alphas}
            d0 = sum(coeffs.values()) + draw(st.integers(-1, 1))
            return form({**coeffs, GAMMA_KEY: -d0})
        return form({k: draw(st.integers(-2, 2)) for k in keys})

    def shifted(f):
        """A positive multiple of f plus a multiple of an equality."""
        g = form({k: draw(st.integers(1, 3)) * v for k, v in f.coeffs.items()})
        if equal:
            e = draw(st.sampled_from(equal))
            g = form({k: g.coeff(k) + draw(st.integers(-2, 2)) * e.coeff(k) for k in keys})
        return g

    def negated(f):
        return form({k: -v for k, v in f.coeffs.items()})

    equal = [equality_form() for _ in range(draw(st.integers(0, 2)))]
    strict = [strict_form() for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        strict.append(shifted(draw(st.sampled_from(strict))))
    if draw(st.integers(0, 4)) == 4:  # a contradiction: f < 0 and -f < 0
        strict.append(negated(draw(st.sampled_from(strict))))
    first = [Condition(f, LT_ZERO) for f in strict] + [Condition(e, EQ_ZERO) for e in equal]
    second = [Condition(draw(st.sampled_from([f, shifted(f), negated(f)])), LT_ZERO)
              for f in strict]
    second = draw(st.permutations(second))
    if second and draw(st.booleans()):
        second = second[1:]
    if draw(st.booleans()):
        second = second + [Condition(strict_form(), LT_ZERO)]
    second = list(second) + [Condition(shifted(e), EQ_ZERO) if draw(st.booleans())
                             else Condition(e, EQ_ZERO) for e in equal]
    return ConditionSet(first), ConditionSet(second)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_integer_systems())
def test_region_ops_match_one_lp_per_question(case):
    c1, c2 = case
    for c in (c1, c2):
        assert tuple(simplify(c)) == tuple(_oracle_simplify(c)), c
    for a, b in ((c1, c2), (c2, c1), (c1, simplify(c1)), (c1, c1)):
        assert regions_equivalent(a, b) == _oracle_regions_equivalent(a, b), (a, b)


def test_region_ops_match_one_lp_per_question_on_wide_rows():
    for b in [(8, 1, 1), (5, 5)]:
        p = make_poset(b)
        rows = [_derived(p, d) for d in enumerate_indec_dims(p)]
        for c in rows:
            out = simplify(c)
            assert tuple(out) == tuple(_oracle_simplify(c)), (b, c)
            fewer = _without_first_inequality(out)
            assert regions_equivalent(c, fewer) == _oracle_regions_equivalent(c, fewer), (b, c)


@st.composite
def _copied_columns(draw):
    """A random integer region over (k,1,1) and the same region over a
    wider (k+m,1,1): its fresh variables a.1.(k+1), ..., a.1.(k+m) copy
    drawn columns of the first, so each has the coefficients of its column
    in every row.  Each region holds a drawn positive point unless it
    contradicts itself, so empty ones occur too."""
    k = draw(st.integers(1, 3))
    keys = make_poset((k, 1, 1)).variable_keys()
    n = len(keys) - 1
    x = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)

    def through(r, value):
        """r with the g coefficient that makes its value at (x, 1) value."""
        return [*r, value - sum(map(mul, r, x))]

    strict = [through(r, -draw(st.integers(1, 3)))
              for r in draw(st.lists(row, min_size=1, max_size=6))]
    if draw(st.integers(0, 3)) == 0:  # a contradiction: f < 0 and -f < 0
        strict.append([-v for v in draw(st.sampled_from(strict))])
    equal = [through(r, 0) for r in draw(st.lists(row, max_size=2))]
    copies = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    wide_keys = make_poset((k + len(copies), 1, 1)).variable_keys()

    def region(keys, widen):
        def form(r):
            return LinearForm(dict(zip(keys, widen(r))))

        return ConditionSet([Condition(form(r), LT_ZERO) for r in strict]
                            + [Condition(form(e), EQ_ZERO) for e in equal])

    return (region(keys, list),
            region(wide_keys, lambda r: [*r[:k], *(r[j] for j in copies), *r[k:]]))


def _merged_system(c):
    var_keys = _sorted_var_keys(c.variables())
    return _merged(len(var_keys), *_rows(var_keys, c))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_copied_columns())
def test_copied_columns_keep_every_answer(case):
    """Summing equal columns keeps each region question's answer: a region
    with copied columns keeps the same inequalities as the region itself,
    agrees with the one-LP-per-question oracle and merges to the same
    columns, each merged system with distinct primitive rows."""
    c, wide = case

    def kept(cs):
        return [cs.inequalities.index(q) for q in simplify(cs).inequalities]

    assert kept(wide) == kept(c), (c, wide)
    assert tuple(simplify(wide)) == tuple(_oracle_simplify(wide)), wide
    systems = [_merged_system(cs) for cs in (c, wide)]
    n, rows, equal = systems[1]
    assert n == systems[0][0] and set(zip(*rows)) == set(zip(*systems[0][1])), (c, wide)
    for part in (rows, equal):
        assert len(set(map(tuple, part))) == len(part), wide
        assert all(gcd(*r) in (0, 1) for r in part), wide


@st.composite
def _equal_copies(draw):
    """A random integer region over one poset's variables and a copy that
    defines the same set: its strict rows permuted, each scaled by a
    positive int, shifted by multiples of the equalities and sometimes
    duplicated, and its equalities replaced by a triangular combination of
    them with a positive diagonal.  Each region holds a drawn positive
    point unless it contradicts itself, so empty ones occur too.  Also the
    copy with one coefficient of one strict row moved by 1."""
    shape = draw(st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1), (6, 1, 1)]))
    keys = make_poset(shape).variable_keys()
    coeff = st.integers(-3, 3)
    row = st.lists(coeff, min_size=len(keys) - 1, max_size=len(keys) - 1)
    x = draw(st.lists(st.integers(1, 3), min_size=len(keys) - 1, max_size=len(keys) - 1))

    def through(r, value):
        """r with the g coefficient that makes its value at (x, 1) value."""
        return [*r, value - sum(map(mul, r, x))]

    strict = [through(r, -draw(st.integers(1, 3)))
              for r in draw(st.lists(row, min_size=1, max_size=6))]
    if draw(st.integers(0, 3)) == 0:  # a contradiction: f < 0 and -f < 0
        strict.append([-v for v in draw(st.sampled_from(strict))])
    equal = [through(r, 0) for r in draw(st.lists(row, max_size=2))]

    def shifted(r, base):
        for e in base:
            m = draw(coeff)
            r = [a + m * b for a, b in zip(r, e)]
        return r

    copy = []
    for r in strict:
        for _ in range(draw(st.integers(1, 2))):
            scale = draw(st.integers(1, 4))
            copy.append(shifted([scale * v for v in r], equal))
    copy = draw(st.permutations(copy))
    equal_copy = []
    for i, e in enumerate(equal):
        scale = draw(st.integers(1, 3))
        equal_copy.append(shifted([scale * v for v in e], equal[:i]))

    def region(strict_rows, equal_rows):
        def form(r):
            return LinearForm(dict(zip(keys, r)))

        return ConditionSet([Condition(form(r), LT_ZERO) for r in strict_rows]
                            + [Condition(form(e), EQ_ZERO) for e in equal_rows])

    i, k = draw(st.integers(0, len(copy) - 1)), draw(st.integers(0, len(keys) - 1))
    perturbed = [list(r) for r in copy]
    perturbed[i][k] += draw(st.sampled_from([-1, 1]))
    return region(strict, equal), region(copy, equal_copy), region(perturbed, equal_copy)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_equal_copies())
def test_equal_normal_forms_need_no_lp(case):
    """A region and a copy that defines the same set by equal normal forms
    are equivalent without a simplex tableau, empty regions included; with
    one row perturbed, the verdict is the one-LP-per-question oracle's."""
    c, copy, perturbed = case
    with pytest.MonkeyPatch.context() as mp:
        counts = _counting_simplex(mp)
        assert regions_equivalent(c, copy) and regions_equivalent(copy, c), (c, copy)
    assert counts == {"tableaus": 0, "pivots": 0}
    for a, b in ((c, perturbed), (perturbed, c)):
        assert regions_equivalent(a, b) == _oracle_regions_equivalent(a, b), (a, b)


def test_linear_forms_store_integers(five_tables):
    """Every form of derive_conditions (its trace too), generate_table and
    paper_corpus holds int coefficients, while coeffs, coeff and evaluate
    give Fractions, and a form built from ints equals and hashes as one
    built from Fractions."""
    forms = []
    for b in _TABLES:
        p = make_poset(b)
        for row in five_tables[b].table.rows:
            cs, trace = derive_conditions(p, row.dim)
            forms += [q.form for q in (*cs, *row.conditions)]
            forms += [f for s in trace.steps if isinstance(s, ApplyPhiMinus) for f in s.emitted]
    forms += [q.form for t in paper_corpus().values() for r in t.rows for q in r.conditions]
    assert len(forms) > 1000
    assert all(type(v) is int for f in forms for _, v in f._items)
    w = Weight(((1, 2), (3,), (Fraction(1, 2),)), 2)
    for f in forms[:50]:
        assert all(type(v) is Fraction for v in f.coeffs.values())
        assert type(f.coeff(GAMMA_KEY)) is Fraction and type(f.coeff("a.9.9")) is Fraction
    f = LinearForm({"a.1.1": 2, "a.3.1": -1, GAMMA_KEY: 0})
    g = LinearForm({"a.1.1": Fraction(4, 2), "a.3.1": Fraction(-1), GAMMA_KEY: Fraction(0)})
    assert f == g and hash(f) == hash(g) and f.to_json() == g.to_json()
    assert type(f.evaluate(w)) is Fraction and f.evaluate(w) == Fraction(3, 2)
    assert type(LinearForm().evaluate(w)) is Fraction
    half = LinearForm({"a.1.1": Fraction(1, 2), GAMMA_KEY: 1.0}) * 2
    assert half == LinearForm({"a.1.1": 1, GAMMA_KEY: 2})
    assert all(type(v) is int for _, v in half._items)
    assert LinearForm({"a.1.1": Fraction(1, 2)})._items == (("a.1.1", Fraction(1, 2)),)


def test_descent_runs_no_value_checks(monkeypatch):
    """Once the root cache is warm, derive_conditions over the 106 rows of
    (4,2,1) builds no DimVector or PrimitivePoset and canonicalises no
    Condition: the walk steps on ints and its rows enter as built."""
    p = make_poset([4, 2, 1])
    dims = enumerate_indec_dims(p)
    derive_conditions(p, dims[-1])  # the warm-up
    checks = Counter()
    for cls in (DimVector, PrimitivePoset, Condition):
        def counting(self, check=cls.__post_init__, name=cls.__name__):
            checks[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    assert DimVector(1, ((1,),)) and checks == {"DimVector": 1}  # the counter counts
    checks.clear()
    results = [derive_conditions(p, d) for d in dims]
    monkeypatch.undo()
    assert checks == {} and len(results) == 106


def test_descent_builds_no_fraction(monkeypatch):
    """derive_conditions over the 106 rows of (4,2,1) constructs no
    Fraction: every row from the walk to the returned forms is integral."""
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    p = make_poset([4, 2, 1])
    dims = enumerate_indec_dims(p)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and built[0] > 0  # the counter counts
    built[0] = 0
    results = [derive_conditions(p, d) for d in dims]
    monkeypatch.undo()
    assert built[0] == 0
    assert len(results) == 106


# --- certificates: the rows the ray keeps, and the LPs they save -----------


def _raw_table_rows(five_tables):
    """Each row of the five tables: its raw derived conditions and the row."""
    for table, raw, _ in five_tables.values():
        for row in table.rows:
            yield raw[row.dim], row


def _lifted(x, rows, equal, n, merged):
    """The point x of the `_merged` system of (rows, equal) over n columns,
    with each merged coordinate split evenly over the columns it merges."""
    mrows, mequal = merged
    where = {col: k for k, col in enumerate(list(zip(*mrows, *mequal))[:len(x)])}
    owner = [where[col] for col in list(zip(*rows, *equal))[:n]]
    sizes = Counter(owner)
    return [x[k] / sizes[k] for k in owner]


def test_every_ray_certificate_checks_exactly(five_tables):
    """For each row the ray keeps on the merged system that `_kept` asks,
    rebuild the point just past its hit, lift it to the poset's variables
    (`_lifted`) and check it on integers against the walk's rows, without
    the simplex: positive, on every equality, outside that row and strictly
    inside every other.  The ray keeps every row the table keeps, on the
    five tables, (8,1,1) and (16,1,1); simplify on the raw conditions of
    the five tables gives the generated row."""
    shapes = {"five tables": [(make_poset(b), row) for b in _TABLES
                              for row in five_tables[b].table.rows]}
    for b in [(8, 1, 1), (16, 1, 1)]:
        p = make_poset(b)
        shapes[b] = [(p, row) for row in generate_table(p).rows]
    for raw, row in _raw_table_rows(five_tables):
        assert tuple(simplify(raw)) == tuple(row.conditions), raw
    counts = {}
    for shape, table_rows in shapes.items():
        certified = kept = 0
        for p, row in table_rows:
            *strict, equality = _criterion(p, row.dim).conditions
            rows, equal = [r for r, _ in strict], [equality[0]]
            out = {tuple(r) for r in _rows(p.variable_keys()[:-1], row.conditions)[0]}
            kept += len(out)
            if not rows:
                continue
            n, *merged = _merged(p.n, rows, equal)
            z = _max_slack(n, *merged)
            if z is None:
                continue
            hits = _ray_hits(*merged, z)
            for i, (v, t) in hits.items():
                assert v[-1] == 0, row  # the ray keeps g at 1
                x = _lifted([a + t * b for a, b in zip(z, v)], rows, equal, p.n, merged)
                scale = lcm(*(a.denominator for a in x))
                xs = [int(a * scale) for a in x]
                assert all(a > 0 for a in xs), row
                xs.append(scale)  # g = 1
                assert all(sum(map(mul, e, xs)) == 0 for e in equal), row
                values = [sum(map(mul, r, xs)) for r in rows]
                assert values[i] > 0, row
                assert all(u < 0 for j, u in enumerate(values) if j != i), row
                assert rows[i] in out, row
            certified += len(hits)
        counts[shape] = (certified, kept)
    assert counts == {"five tables": (518, 518), (8, 1, 1): (108, 108),
                      (16, 1, 1): (408, 408)}


def _counting_simplex(monkeypatch) -> dict[str, int]:
    """Counts that grow with every simplex tableau built (`lp._phase1`)
    and every pivot made (`lp._pivot`), phase 1 and phase 2 alike."""
    counts = {"tableaus": 0, "pivots": 0}
    phase1, pivot = lp._phase1, lp._pivot

    def counting_phase1(*args):
        counts["tableaus"] += 1
        return phase1(*args)

    def counting_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    monkeypatch.setattr(lp, "_phase1", counting_phase1)
    monkeypatch.setattr(lp, "_pivot", counting_pivot)
    return counts


def test_equal_condition_sets_need_no_rows(monkeypatch, five_tables):
    """regions_equivalent(c, c), and of c against an equal copy in another
    order or read back from JSON, builds no row (`_rows`) and no simplex
    tableau, on every raw and every generated row of the five tables; 62
    published rows equal their derived sets exactly."""
    built = [0]
    rows = derive._rows

    def counting_rows(*args):
        built[0] += 1
        return rows(*args)

    monkeypatch.setattr(derive, "_rows", counting_rows)
    counts = _counting_simplex(monkeypatch)
    pairs = 0
    for c, row in _raw_table_rows(five_tables):
        for cs in (c, row.conditions):
            for copy in (cs, ConditionSet(reversed(tuple(cs))),
                         ConditionSet.from_json(cs.to_json())):
                assert regions_equivalent(cs, copy) and regions_equivalent(copy, cs)
                pairs += 1
    assert pairs == 6 * 212 and built == [0] and counts == {"tableaus": 0, "pivots": 0}
    published = [(t.poset, r) for t in paper_corpus().values() for r in t.rows]
    equal = [r for p, r in published if derive_conditions(p, r.dim)[0] == r.conditions]
    assert len(published) == 106 and len(equal) == 62


def test_region_lp_count(monkeypatch):
    """Simplex work for the five tables plus verify_tables.  One LP per
    question took 849 + 577 = 1,426 tableaus; the certificates left 454 +
    153 tableaus with 4,269 + 945 pivots; one tableau per region for all
    implied-row questions left 180 + 123 with 2,162 + 657.  A published
    row whose strict rows have the derived row's normal forms needs no LP,
    which leaves verify_tables at most 26 tableaus and 303 pivots.  With
    equal columns merged, the ray keeps every kept row of the tables,
    which takes them from 180 to 179 tableaus and from 2,162 to 2,135
    pivots."""
    counts = _counting_simplex(monkeypatch)
    for b in _TABLES:
        generate_table(make_poset(b))
    tables = dict(counts)
    assert verify_tables().all_ok
    assert (tables["tableaus"], tables["pivots"]) == (179, 2135)
    assert counts["tableaus"] - tables["tableaus"] <= 26
    assert counts["pivots"] - tables["pivots"] <= 303


def test_wide_table_simplex_work_is_bounded(monkeypatch):
    """Simplex work for (16,1,1).  Its rows whose ray tied paid one tableau
    each, 201 tableaus and 1,140 pivots in all.  With equal columns merged
    the ray keeps all 408 of its kept rows, so the table takes one
    interior-point tableau per region with a strict row: at most 136
    tableaus and 800 pivots."""
    counts = _counting_simplex(monkeypatch)
    generate_table(make_poset([16, 1, 1]))
    assert counts["tableaus"] <= 136 and counts["pivots"] <= 800


# --- oracle: the descent as walked on LinearForms ---------------------------
#
# An earlier walk, kept verbatim: every branch form and the gamma form a
# LinearForm of Fractions, phi- applied through phiminus_weight, and the
# downward step on dimensions as the composite of sigma and rho.  The walk
# of derive._criterion holds the same forms as integer rows, so the
# conditions and the trace must come out the same, and the integer walk of
# the numeric lift must meet the oracle's states at every integer point.


def _oracle_walk(
    p: PrimitivePoset, d: DimVector
) -> tuple[list[Condition], list[TraceStep], list[tuple]]:
    """The descent of `derive_conditions`: its conditions in emission order,
    its trace steps, and its states, each (d0, dims, branch forms, gamma
    form, reduced dims) as it stood before its reduction pass."""
    if not is_finite_type(p):
        raise FiniteTypeRequired(f"poset {p.branches} has infinite type")
    # the cached root table checks MAX_ELEMENTS before building any graph
    roots = set(_indec_roots(p.branches))
    if not (d.fits(p) and d.is_admissible(p) and dim_to_root(d) in roots):
        raise NotInEnumeration(
            f"{d} is not an indecomposable dimension vector of {p.branches}"
        )

    d0, dims = d.d0, d.branches
    w = SymbolicWeight.identity(p)
    forms, gamma_form = w.branch_forms, w.gamma_form
    steps: list[TraceStep] = []
    conditions: list[Condition] = []
    states: list[tuple] = []
    # at most len(roots) transforms, each followed by a reduction pass
    for _ in range(len(roots) + 1):
        state = (d0, dims, forms, gamma_form)
        dims, forms, gamma_form, findings = _reduce(d0, dims, forms, gamma_form)
        states.append(state + (dims,))
        steps.extend(findings)
        if not dims:
            equality = Condition(gamma_form, EQ_ZERO)
            conditions.append(equality)
            steps.append(Terminal(equality))
            return conditions, steps, states

        sub_poset = PrimitivePoset(tuple(len(b) for b in dims))
        state_d = DimVector(d0, dims)
        try:
            next_d = fminus_composition(sub_poset, state_d)
        except NegativeEntry as exc:
            raise OrbitEscape(f"downward transform failed at {state_d}: {exc}") from exc
        next_w = phiminus_weight(sub_poset, SymbolicWeight(forms, gamma_form))
        tails = tuple(b[-1] for b in next_w.branch_forms)
        conditions.extend(Condition(-tail, LT_ZERO) for tail in tails)
        steps.append(ApplyPhiMinus(tails))
        d0, dims = next_d.d0, next_d.branches
        forms, gamma_form = next_w.branch_forms, next_w.gamma_form
    raise OrbitEscape(f"descent from {d} exceeded {len(roots)} steps")


def _oracle_rows(forms, keys):
    """Rows over keys of forms, all scaled by one positive common
    denominator into integers, and that denominator."""
    denom = lcm(*(v.denominator for f in forms for v in f.coeffs.values()))
    return denom, [[int(f.coeff(k) * denom) for k in keys] for f in forms]


def _int_walk(p: PrimitivePoset, d: DimVector, x: list[int]) -> list[tuple]:
    """The states of `derive._walk` from d itself on the integer point x
    over p's variables (gamma last), as the numeric lift walks them: each
    (d0, dims, branch values, gamma value, reduced dims)."""
    entries = iter(x)
    forms = tuple(tuple(islice(entries, k)) for k in p.branches)
    walk = derive._walk(d.d0, d.branches, forms, x[-1], _root_count(p.branches))
    return [state + (reduced[0],) for state, reduced in walk]


def _at(state: tuple, value) -> tuple:
    """A state (d0, dims, branch forms, gamma form, ...) with each form
    replaced by value(form); what follows gamma is kept."""
    d0, dims, forms, gamma, *rest = state
    return (d0, dims, tuple(tuple(map(value, b)) for b in forms), value(gamma), *rest)


def _points(p: PrimitivePoset, d: DimVector, count: int = 2) -> list[list[int]]:
    """count integer points over p's variables, seeded by (p, d)."""
    rng = random.Random(f"{p.branches}{format_dim_string(d)}")
    return [[rng.randint(-9, 9) for _ in range(p.n + 1)] for _ in range(count)]


_WALK_SHAPES = _SHAPES + [(8, 1, 1), (6, 6)]


def test_walk_matches_linear_form_oracle():
    roots = 0
    for b in _WALK_SHAPES:
        p = make_poset(b)
        keys = p.variable_keys()
        for d in enumerate_indec_dims(p):
            conditions, steps, states = _oracle_walk(p, d)
            cs, trace = derive_conditions(p, d)
            ref = ConditionSet(conditions)
            assert tuple(cs) == tuple(ref), (b, d)
            assert cs.to_json() == ref.to_json(), (b, d)
            assert [step_to_json(s) for s in trace.steps] == list(map(step_to_json, steps))

            # the walk's rows are the oracle's canonical forms, each
            # equality's sign included, in ConditionSet order
            compiled = _criterion.__wrapped__(p, d)
            walked = list(compiled.conditions)
            denom, rows = _oracle_rows([c.form for c in ref], keys)
            expected = [(tuple(r), c.rel) for r, c in zip(rows, ref)]
            assert denom == 1 and walked == expected, (b, d)
            assert all(next(v for v in r if v) > 0 for r, rel in walked if rel == EQ_ZERO)
            assert compiled.keys == tuple(keys)
            # the integer walk meets the oracle's Fraction states at x exactly
            for x in _points(p, d):
                def value(f, x=x):
                    return sum(f.coeff(k) * v for k, v in zip(keys, x))

                assert _int_walk(p, d, x) == [_at(s, value) for s in states], (b, d, x)
            roots += 1
    assert roots == 397


# --- oracle: the descent walked whole on integer rows -----------------------
#
# The descent with no memo: one unit row per variable of p, and every state
# of every walk stepped through.  The engine of derive._criterion (first
# pass, memoised descent, substitution) must give the same rows in the same
# order, the same trace steps and the same states, substituted back.


def _row_walk(
    p: PrimitivePoset, d: DimVector
) -> tuple[list[RowCondition], list[Finding | tuple[_Row, ...]], list[tuple]]:
    """The descent of `derive_conditions`, on `_Row`s over p.variable_keys()
    and plain int dimensions, without a `LinearForm`, a `DimVector` or a
    `PrimitivePoset`: its distinct conditions (`_condition_row`)
    in emission order, its trace steps but the terminal one, a transform's
    as its tail rows, and its states, each (d0, dims, branch rows, gamma
    row, reduced dims) as it stood before its reduction pass."""
    require_finite_type(p)
    if not (d.fits(p) and d.is_admissible(p) and _is_root(d.d0, d.branches)):
        raise NotInEnumeration(
            f"{format_dim_string(d)} is not an indecomposable dimension vector of {p.branches}"
        )

    # the identity weight: one unit row per variable, branch-major, g last
    zero = (0,) * p.n
    units = iter(_Row(zero[:i] + (1,) + zero[i:]) for i in range(p.n + 1))
    d0, dims = d.d0, d.branches
    forms = tuple(tuple(next(units) for _ in range(k)) for k in p.branches)
    gamma = next(units)
    steps: list[Finding | tuple[_Row, ...]] = []
    conditions: dict[RowCondition, None] = {}
    states: list[tuple] = []
    # at most |Phi+| transforms, each followed by a reduction pass
    bound = _root_count(p.branches)
    for _ in range(bound + 1):
        state = (d0, dims, forms, gamma)
        dims, forms, gamma, findings = _reduce(d0, dims, forms, gamma)
        states.append(state + (dims,))
        steps.extend(findings)
        if not dims:
            conditions[_condition_row(gamma, EQ_ZERO)] = None
            return list(conditions), steps, states

        try:
            d0, dims = _fminus_dims(d0, dims)
        except NegativeEntry as exc:
            raise OrbitEscape(
                f"downward transform failed at {_dim_string(d0, dims)}: {exc}"
            ) from exc
        forms, gamma = _phiminus_forms(forms, gamma)
        tails = tuple(b[-1] for b in forms)
        conditions.update(dict.fromkeys(_condition_row(map(neg, t), LT_ZERO) for t in tails))
        steps.append(tails)
    raise OrbitEscape(f"descent from {format_dim_string(d)} exceeded {bound} steps")


def test_engine_matches_the_row_walk_oracle():
    """Rows and trace steps of the engine equal those of the whole walk,
    the integer walk meets its states at integer points, and the walks of
    a shape share few descents."""
    derive._descent.cache_clear()
    walks = 0
    for b in _WALK_SHAPES + [(16, 1, 1)]:
        p = make_poset(b)
        keys = p._variable_keys
        for d in enumerate_indec_dims(p):
            conditions, steps, states = _row_walk(p, d)
            expected = [s if isinstance(s, Finding) else
                        ApplyPhiMinus(tuple(_form(keys, t) for t in s)) for s in steps]
            _, trace = derive_conditions(p, d)
            assert list(trace.steps[:-1]) == expected, (b, d)
            compiled = _criterion.__wrapped__(p, d)
            assert compiled.conditions == tuple(conditions), (b, d)
            for x in _points(p, d):
                expected = [_at(s, lambda r, x=x: _dot(r, x)) for s in states]
                assert _int_walk(p, d, x) == expected, (b, d, x)
            walks += 1
    assert walks == 397 + 204
    assert derive._descent.cache_info().currsize < walks // 3


@st.composite
def _first_pass_points(draw):
    """A poset, a root d whose first reduction pass fires a drawn rule
    (zero, merge or full) and an integer point over the poset's
    variables."""
    p = make_poset(draw(st.sampled_from([(2, 2, 1), (4, 2, 1), (3, 3), (5, 1, 1)])))
    rule = draw(st.sampled_from([ZERO, MERGE, FULL]))
    dims = [d for d in enumerate_indec_dims(p)
            if rule in {f.kind for f in classify_degeneracy(p, d)}]
    d = draw(st.sampled_from(dims))
    x = draw(st.lists(st.integers(-60, 60), min_size=p.n + 1, max_size=p.n + 1))
    return p, d, x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_first_pass_points())
def test_integer_walk_is_the_row_walk_at_the_point(case):
    """`_walk` from d on the integers of a point x equals, state by state
    and pass by pass, `_walk` from d on full-width unit rows, each row
    dotted with x: the walk is linear in its forms."""
    p, d, x = case
    zero = (0,) * p.n
    units = iter(_Row(zero[:i] + (1,) + zero[i:]) for i in range(p.n + 1))
    forms = tuple(tuple(next(units) for _ in range(k)) for k in p.branches)
    entries = iter(x)
    values = tuple(tuple(islice(entries, k)) for k in p.branches)
    bound = _root_count(p.branches)
    walked = list(derive._walk(d.d0, d.branches, values, x[-1], bound))
    rows = list(derive._walk(d.d0, d.branches, forms, next(units), bound))
    assert len(walked) == len(rows), (p, d)

    def value(r):
        return _dot(r, x)

    for (state, reduced), (row_state, row_reduced) in zip(walked, rows):
        assert state == _at(row_state, value), (p, d, x)
        assert reduced == _at((None, *row_reduced), value)[1:], (p, d, x)


def test_one_compile_per_dimension_vector(monkeypatch):
    """derive_conditions, _table_row, check_weight and unitarize on one
    cleared (p, d) miss `_criterion` once between them, and the first
    reduction pass on d's bitmasks (gamma 0) runs once.  The lift's walk
    on the weight's integers, from d with gamma positive, is no compile."""
    from posetrep import numeric

    p = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    passes, replays = [], []
    reduce = derive._reduce

    def counting(d0, dims, forms, gamma):
        if type(gamma) is int:  # a compiled descent's gamma is a _Row
            (passes if gamma == 0 else replays).append(dims)
        return reduce(d0, dims, forms, gamma)

    monkeypatch.setattr(derive, "_reduce", counting)
    _criterion.cache_clear()
    derive._descent.cache_clear()
    cs, _ = derive_conditions(p, d)
    w = interior_point(cs, p)
    assert _table_row(p, d) == simplify(cs)
    assert check_weight(p, d, w).admissible
    assert numeric.unitarize(p, d, w).residual <= 1e-8
    info = _criterion.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 4
    assert passes == [d.branches]
    assert replays[0] == d.branches and len(replays) > 1


# --- one integer row per condition: a LinearForm only where one is returned --


def _counting_forms(monkeypatch):
    """A list that grows by one on every LinearForm construction, checked
    (`__init__`) or ordered (`_ordered`)."""
    made = []
    init, ordered = LinearForm.__init__, LinearForm._ordered.__func__

    def counting(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    def counting_ordered(cls, items):
        made.append(None)
        return ordered(cls, items)

    monkeypatch.setattr(LinearForm, "__init__", counting)
    monkeypatch.setattr(LinearForm, "_ordered", classmethod(counting_ordered))
    return made


def test_compiled_descent_builds_no_linear_form(monkeypatch):
    p = make_poset([4, 2, 1])
    dims = enumerate_indec_dims(p)
    made = _counting_forms(monkeypatch)
    for d in dims:
        _criterion.__wrapped__(p, d)
    assert made == []


def test_generate_table_builds_one_linear_form_per_condition(monkeypatch):
    p = make_poset([4, 2, 1])
    made = _counting_forms(monkeypatch)
    table = generate_table(p)
    assert len(made) == sum(len(r.conditions) for r in table.rows) > len(table.rows)


def test_conditions_command_prints_the_table_row(monkeypatch, capsys, five_tables):
    """`conditions` without --raw or --trace prints the table's row and
    builds one LinearForm per printed condition."""
    table = five_tables[(4, 2, 1)].table
    made = _counting_forms(monkeypatch)
    for row in table.rows:
        del made[:]
        argv = ["conditions", "--poset", "4,2,1", "--dim", format_dim_string(row.dim)]
        assert main([*argv, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["conditions"] == row.conditions.to_json()
        assert len(made) == len(row.conditions)


def test_no_trace_is_built_where_none_is_printed(monkeypatch, capsys):
    """verify_tables and `conditions --raw` without --trace build no
    ApplyPhiMinus step: their conditions come from `_raw_conditions`, which
    derive_conditions reads too."""
    built = []

    class Counting(ApplyPhiMinus):
        def __init__(self, emitted):
            built.append(emitted)
            super().__init__(emitted)

    monkeypatch.setattr(derive, "ApplyPhiMinus", Counting)
    assert verify_tables().counts == (106, 106)
    p = make_poset([4, 2, 1])
    for d in enumerate_indec_dims(p):
        argv = ["conditions", "--poset", "4,2,1", "--dim", format_dim_string(d), "--raw"]
        assert main([*argv, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["conditions"] == derive._raw_conditions(p, d).to_json()
        assert "trace" not in out
    assert built == []
    assert all(derive_conditions(p, d)[0] == derive._raw_conditions(p, d)
               for d in enumerate_indec_dims(p))
    assert built  # the trace of derive_conditions does build them


def test_canonical_conditions_match_the_public_constructor(five_tables):
    """A walk row entered as built (`Condition._canonical`) equals, hashes
    and prints as the public constructor's canonicalised condition, on
    every derived row of the five tables and of (16,1,1)."""
    cases = [(make_poset(b), row.dim) for b in _TABLES for row in five_tables[b].table.rows]
    wide = make_poset([16, 1, 1])
    cases += [(wide, d) for d in enumerate_indec_dims(wide)]
    rows = 0
    for p, d in cases:
        keys = p._variable_keys
        assert keys == tuple(p.variable_keys())
        for row, rel in _criterion(p, d).conditions:
            built = Condition._canonical(_form(keys, row), rel)
            checked = Condition(_form(keys, row), rel)
            assert built == checked and hash(built) == hash(checked), (p, d, row)
            assert built.to_json() == checked.to_json(), (p, d, row)
            assert built.form._items == checked.form._items, (p, d, row)
            rows += 1
    assert rows == 1673


def test_walk_keeps_its_orbit_escape_text(monkeypatch):
    """A downward step that fails inside the walk is an OrbitEscape that
    names the state it failed at and the step's own message, at d's
    reduced state or at a later state of the memoised descent; a walk past
    its step bound names d.  Both caches are cleared first: an entry that
    an earlier walk left would never call the patched step.  A failed
    descent leaves no entry."""
    _criterion.cache_clear()
    derive._descent.cache_clear()
    p = make_poset([1, 1, 1])
    monkeypatch.setattr(derive, "_fminus_dims", lambda d0, dims: coxeter._fminus_dims(0, dims))
    message = ("downward transform failed at 1;1;1;2: dimension vector 1;1;1;0 is not "
               "admissible for (1, 1, 1)")
    with pytest.raises(OrbitEscape) as exc:
        derive_conditions(p, parse_dim_string("1;1;1;2"))
    assert str(exc.value) == message

    # the second step fails, at the state the first one reduced to
    p = make_poset([2, 2, 1])
    d = enumerate_indec_dims(p)[-1]
    state = _row_walk(p, d)[2][1]  # (d0, dims, forms, gamma, reduced dims)
    d0, reduced = state[0], state[4]
    steps = []

    def second_fails(d0, dims):
        steps.append(dims)
        return coxeter._fminus_dims(0 if len(steps) > 1 else d0, dims)

    monkeypatch.setattr(derive, "_fminus_dims", second_fails)
    with pytest.raises(NegativeEntry) as inner:
        coxeter._fminus_dims(0, reduced)
    with pytest.raises(OrbitEscape) as exc:
        _criterion.__wrapped__(p, d)
    assert len(steps) == 2 and steps[1] == reduced
    assert str(exc.value) == (f"downward transform failed at {_dim_string(d0, reduced)}: "
                              f"{inner.value}")

    # a step that never moves runs past the bound, |Phi+| = 20 for D5
    monkeypatch.setattr(derive, "_fminus_dims", lambda d0, dims: (d0, dims))
    with pytest.raises(OrbitEscape, match=r"^descent from 0,1;1;1;2 exceeded 20 steps$"):
        derive_conditions(make_poset([2, 1, 1]), parse_dim_string("0,1;1;1;2"))
    assert derive._descent.cache_info().currsize == 0


def test_interior_point_refuses_variables_outside_the_poset():
    p = make_poset([1, 1])
    outside = ConditionSet([Condition(LinearForm({"a.3.1": 1, GAMMA_KEY: -1}), LT_ZERO)])
    with pytest.raises(ShapeMismatch, match=r"\['a.3.1'\] outside poset \(1, 1\)"):
        interior_point(outside, p)
    inside = _conds(p, "a<g", "b<g")
    w = interior_point(inside, p)
    assert w is not None and inside.holds_at(w) and w.fits(p)


# --- one canonical row: LinearForm and the walk share linalg._primitive_row --


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(-12, 12), st.builds(Fraction, st.integers(-12, 12),
                                                           st.integers(1, 6))),
                min_size=5, max_size=5),
       st.sampled_from([1, -1, 2, -6, Fraction(1, 3)]), st.booleans())
def test_canonicalized_is_the_walk_row_rule(values, factor, sign_normalize):
    keys = make_poset([2, 1, 1]).variable_keys()
    row = [factor * v for v in values]
    form = LinearForm(dict(zip(keys, row)))
    walked, _ = _condition_row(row, EQ_ZERO if sign_normalize else LT_ZERO)
    assert form.canonicalized(sign_normalize) == _form(keys, walked)
