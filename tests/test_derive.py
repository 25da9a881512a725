from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetrep.core import (
    GAMMA_KEY,
    ConditionSet,
    PosetRepError,
    Weight,
    alpha_key,
    classify_degeneracy,
    make_poset,
    parse_condition_text,
    parse_dim_string,
    parse_weight_string,
    trace_condition,
)
from posetrep.derive import (
    ApplyPhiMinus,
    DerivationTrace,
    MalformedTrace,
    NotInEnumeration,
    Terminal,
    Verdict,
    check_weight,
    derive_conditions,
    generate_table,
    interior_point,
    paper_corpus,
    regions_equivalent,
    simplify,
    step_to_json,
)
from posetrep.roots import (
    FiniteTypeRequired,
    PosetTooLarge,
    enumerate_indec_dims,
    positive_roots,
    star_graph,
)


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
            report = classify_degeneracy(p, d).findings
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
    from posetrep.core import LinearForm
    from posetrep.derive import _criterion

    assert _criterion.cache_info().maxsize == 1024
    p = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    check_weight(p, d, parse_weight_string("1,1;1,1;1;2"))
    assert _criterion.cache_info().currsize >= 1

    def forms(obj):
        if isinstance(obj, LinearForm):
            yield obj
        elif isinstance(obj, tuple):
            for x in obj:
                yield from forms(x)
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                yield from forms(getattr(obj, name))

    assert not list(forms(_criterion(p, d)))
    _criterion.cache_clear()
    assert _criterion.cache_info().currsize == 0


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
    import json

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
