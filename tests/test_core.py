from __future__ import annotations

import random
import time
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetrep.core import (
    EQ_ZERO,
    GAMMA_KEY,
    LT_ZERO,
    Condition,
    ConditionSet,
    DimVector,
    EmptyOrNonPositiveBranch,
    LinearForm,
    NonPositiveWeight,
    PrimitivePoset,
    ShapeMismatch,
    Weight,
    _names,
    _var_name,
    alpha_key,
    classify_degeneracy,
    format_dim_string,
    format_weight_string,
    make_poset,
    parse_condition_text,
    parse_dim_string,
    parse_weight_string,
    key_order,
    render_condition,
    trace_condition,
)


def test_make_poset():
    p = make_poset([2, 2, 1])
    assert p.width == 3 and p.n == 5
    assert make_poset([1]).n == 1
    assert make_poset([4, 2, 1]).n == 7
    with pytest.raises(EmptyOrNonPositiveBranch):
        make_poset([])
    with pytest.raises(EmptyOrNonPositiveBranch):
        make_poset([2, 0])
    with pytest.raises(EmptyOrNonPositiveBranch, match=r"^invalid branch lengths \(1\.9, 1, 1\)$"):
        PrimitivePoset((1.9, 1, 1))


def test_poset_elements_and_keys():
    p = make_poset([2, 1])
    assert list(p.elements()) == [(1, 1), (1, 2), (2, 1)]
    assert p.variable_keys() == ["a.1.1", "a.1.2", "a.2.1", "g"]


def test_dim_vector_admissibility():
    p = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    assert d.fits(p) and d.is_admissible(p)
    assert not parse_dim_string("2,1;1,2;2;3").is_admissible(p)
    assert not parse_dim_string("1,2;1,2;4;3").is_admissible(p)
    with pytest.raises(ShapeMismatch):
        d.require_fits(make_poset([1, 1, 1]))
    with pytest.raises(ShapeMismatch):
        parse_dim_string("1,-2;1,2;2;3")
    # sizes are integers: a float is refused, not truncated
    for d0, branches in [(2.7, ((1,),)), (2, ((1.5,),)), (2.0, ((1,),))]:
        with pytest.raises(ShapeMismatch, match="^non-integer entry in dimension vector"):
            DimVector(d0, branches)
        with pytest.raises(ShapeMismatch, match="^non-integer entry in dimension vector"):
            DimVector.from_json({"d0": d0, "branches": [list(b) for b in branches]})


def test_dim_string_round_trip_random():
    rng = random.Random(0)
    for _ in range(1000):
        branches = tuple(
            tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        )
        d = DimVector(rng.randint(0, 9), branches)
        assert parse_dim_string(format_dim_string(d)) == d


def test_weight_positivity_and_round_trip():
    w = parse_weight_string("1/2,3/4;1;1;2")
    assert w.gamma == 2 and w.entry(1, 2) == Q(3, 4)
    with pytest.raises(NonPositiveWeight):
        parse_weight_string("0;1;1;2")
    with pytest.raises(NonPositiveWeight):
        parse_weight_string("1;1;1;-2")
    rng = random.Random(1)
    for _ in range(1000):
        alphas = tuple(
            tuple(Q(rng.randint(1, 50), rng.randint(1, 9)) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        )
        w = Weight(alphas, Q(rng.randint(1, 30), rng.randint(1, 7)))
        assert parse_weight_string(format_weight_string(w)) == w
        assert Weight.from_json(w.to_json()) == w


def _random_form(rng: random.Random, p: PrimitivePoset) -> LinearForm:
    coeffs = {}
    for j, i in p.elements():
        if rng.random() < 0.7:
            coeffs[alpha_key(j, i)] = Q(rng.randint(-8, 8), rng.randint(1, 5))
    if rng.random() < 0.8:
        coeffs[GAMMA_KEY] = Q(rng.randint(-8, 8), rng.randint(1, 5))
    return LinearForm(coeffs)


def _random_weight(rng: random.Random, p: PrimitivePoset) -> Weight:
    return Weight(
        tuple(
            tuple(Q(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(k))
            for k in p.branches
        ),
        Q(rng.randint(1, 40), rng.randint(1, 7)),
    )


def test_form_arithmetic_examples():
    p = make_poset([1, 1, 1])
    f = parse_condition_text("a+b+d=2g", p).form
    assert f.evaluate(parse_weight_string("2;2;2;3")) == 0
    two_a = LinearForm({"a.1.1": Q(2), "g": Q(-4)})
    assert two_a.canonicalized() == LinearForm({"a.1.1": Q(1), "g": Q(-2)})
    a = LinearForm.variable("a.1.1")
    g = LinearForm.variable("g")
    assert ((a - g) + (g - a)).is_zero()


def test_eval_commutes_with_add_scale():
    rng = random.Random(2)
    p = make_poset([2, 2, 1])
    for _ in range(1000):
        f, g = _random_form(rng, p), _random_form(rng, p)
        w = _random_weight(rng, p)
        c = Q(rng.randint(-6, 6), rng.randint(1, 4))
        assert (f + g).evaluate(w) == f.evaluate(w) + g.evaluate(w)
        assert (f * c).evaluate(w) == c * f.evaluate(w)


def test_canonicalize_idempotent_and_zero_set_preserved():
    rng = random.Random(3)
    p = make_poset([2, 1, 1])
    for _ in range(500):
        f = _random_form(rng, p)
        c1 = f.canonicalized()
        assert c1.canonicalized() == c1
        c2 = f.canonicalized(sign_normalize=True)
        assert c2.canonicalized(sign_normalize=True) == c2
        for _ in range(3):
            w = _random_weight(rng, p)
            v = f.evaluate(w)
            # inequality canonicalisation never flips the sign
            v1 = c1.evaluate(w)
            assert (v > 0) == (v1 > 0) and (v < 0) == (v1 < 0)
            # equality canonicalisation preserves the vanishing locus
            assert (v == 0) == (c2.evaluate(w) == 0)


def _oracle_canonicalized(f: LinearForm, sign_normalize: bool = False) -> LinearForm:
    """The general path of LinearForm.canonicalized, which once served
    every form: clear denominators, divide by the gcd, and flip the sign
    when asked and the first coefficient in key order is negative."""
    coeffs = f.coeffs
    if not coeffs:
        return f
    denom_lcm = 1
    for v in coeffs.values():
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = {k: v * denom_lcm for k, v in coeffs.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v.numerator))
    out = {k: v / g for k, v in ints.items()}
    if sign_normalize:
        first = min(out, key=key_order)
        if out[first] < 0:
            out = {k: -v for k, v in out.items()}
    return LinearForm(out)


_FORM_KEYS = make_poset([2, 1, 1]).variable_keys()


@st.composite
def _forms(draw):
    """Integer or rational forms on (2,1,1), scaled by a common factor so
    that gcds above 1 occur; the factor 0 gives the zero form."""
    entry = st.one_of(st.integers(-4, 4).map(Q),
                      st.builds(Q, st.integers(-6, 6), st.integers(1, 6)))
    coeffs = draw(st.lists(entry, min_size=len(_FORM_KEYS), max_size=len(_FORM_KEYS)))
    factor = draw(st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(6), Q(1, 2), Q(0)]))
    return LinearForm({k: factor * v for k, v in zip(_FORM_KEYS, coeffs)})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_forms(), st.booleans())
def test_canonicalized_matches_general_path(f, sign_normalize):
    out = f.canonicalized(sign_normalize)
    ref = _oracle_canonicalized(f, sign_normalize)
    assert out == ref and out.to_json() == ref.to_json()
    coeffs = f.coeffs
    values = list(coeffs.values())
    first = coeffs[min(coeffs, key=key_order)] if coeffs else 0
    canonical = (all(v.denominator == 1 for v in values)
                 and gcd(*(int(v) for v in values)) == 1
                 and not (sign_normalize and first < 0))
    # an integer form with gcd 1 and no sign flip due is returned as it is
    assert (out is f) == (canonical or f.is_zero())


def test_condition_canonical_sign():
    p = make_poset([1, 1, 1])
    c = Condition(LinearForm({GAMMA_KEY: Q(-1)}), EQ_ZERO)
    assert c.form.coeff(GAMMA_KEY) == 1  # equality sign-normalised
    lt = Condition(LinearForm({GAMMA_KEY: Q(-2)}), LT_ZERO)
    assert lt.form.coeff(GAMMA_KEY) == -1  # inequality keeps orientation
    assert render_condition(c, p) == "γ=0"


def test_condition_set_dedup_and_set_equality():
    p = make_poset([2, 1, 1])
    c1 = parse_condition_text("a1+a2<g", p)
    c2 = parse_condition_text("2a1+2a2<2g", p)
    cs = ConditionSet([c1, c2, c1])
    assert len(cs) == 1
    assert cs == ConditionSet([c2])
    assert ConditionSet.from_json(cs.to_json()) == cs


def test_classify_degeneracy():
    p = make_poset([1, 1, 1])
    rep = classify_degeneracy(p, parse_dim_string("1;1;1;1"))
    assert [f.kind for f in rep] == ["full", "full", "full"]
    assert not classify_degeneracy(p, parse_dim_string("1;1;1;2"))
    rep2 = classify_degeneracy(make_poset([2, 1, 1]), parse_dim_string("1,1;1;1;2"))
    assert [(f.kind, f.branch, f.index) for f in rep2] == [("merge", 1, 1)]
    with pytest.raises(ShapeMismatch):
        classify_degeneracy(p, parse_dim_string("1,1;1;1;2"))


def test_classify_degeneracy_matches_direct_scan():
    rng = random.Random(4)
    for _ in range(300):
        branches = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        p = make_poset(branches)
        d0 = rng.randint(0, 4)
        dims = []
        for k in branches:
            chain = sorted(rng.randint(0, d0) for _ in range(k))
            dims.append(tuple(chain))
        d = DimVector(d0, tuple(dims))
        report = classify_degeneracy(p, d)
        plain = all(
            e != 0 and e != d0 for b in d.branches for e in b
        ) and all(b[i] < b[i + 1] for b in d.branches for i in range(len(b) - 1))
        assert (not report) == plain


def test_trace_condition_examples():
    p = make_poset([1, 1, 1])
    assert trace_condition(p, parse_dim_string("1;1;1;1")) == parse_condition_text(
        "a+b+d=g", p
    )
    assert trace_condition(p, parse_dim_string("1;1;1;2")) == parse_condition_text(
        "a+b+d=2g", p
    )
    p221 = make_poset([2, 2, 1])
    assert trace_condition(p221, parse_dim_string("1,2;1,2;2;3")) == parse_condition_text(
        "a1+2a2+b1+2b2+2d=3g", p221
    )


def test_render_parse_round_trip():
    p = make_poset([3, 2, 1])
    for text in ["a1+2a2+3a3+b1+3b2+2d=4g", "a3+b2<g", "g<b1+d", "g=0"]:
        c = parse_condition_text(text, p)
        ascii_text = render_condition(c, p, "ascii")
        assert parse_condition_text(ascii_text, p) == c


def test_render_reads_a_name_table():
    """The renderer reads one name table per (poset, style), whose names
    are `_var_name`'s; a key outside the poset and a branch with no
    display letter keep their ShapeMismatch messages."""
    for p in [make_poset([3, 2, 1]), make_poset([12, 1]), make_poset([1] * 11)]:
        for style in ("text", "latex", "ascii"):
            names = _names(p, style)
            assert names is _names(p, style)
            for k in p.variable_keys():
                assert names.get(k) == (_var_name(k, p, style) if key_order(k)[1] <= 10 else None)
    wide = make_poset([1] * 11)
    tenth = Condition(LinearForm({"a.10.1": 1, GAMMA_KEY: -1}), LT_ZERO)
    assert render_condition(tenth, wide) == "μ<γ"
    assert render_condition(tenth, wide, "latex") == "\\mu<\\gamma"
    eleventh = Condition(LinearForm({"a.11.1": 1, GAMMA_KEY: -1}), LT_ZERO)
    with pytest.raises(ShapeMismatch, match=r"^no display letter for branch 11$"):
        render_condition(eleventh, wide)
    with pytest.raises(ShapeMismatch, match=r"^variable a.11.1 outside poset \(1, 1\)$"):
        render_condition(eleventh, make_poset([1, 1]))


def test_json_encodings():
    p = make_poset([2, 2, 1])
    assert PrimitivePoset.from_json(p.to_json()) == p
    d = parse_dim_string("1,2;1,2;2;3")
    assert DimVector.from_json(d.to_json()) == d
    assert d.to_json() == {"branches": [[1, 2], [1, 2], [2]], "d0": 3}
    w = Weight(((Q(1, 2), Q(3, 4)), (Q(1), Q(1)), (Q(2),)), Q(2))
    assert w.to_json() == {
        "alphas": [["1/2", "3/4"], ["1", "1"], ["2"]],
        "gamma": "2",
    }
    c = parse_condition_text("a1<2g", p)
    assert c.to_json() == {"coeffs": {"a.1.1": "1", "g": "-2"}, "rel": "lt0"}


def test_weight_from_json_bounds_numerals():
    w = Weight.from_json({"alphas": [["1/2", 3], ["1"]], "gamma": "2"})
    assert w.alphas == ((Q(1, 2), Q(3)), (Q(1),)) and w.gamma == 2
    start = time.monotonic()
    with pytest.raises(ShapeMismatch, match="exponent above 4300"):
        Weight.from_json({"alphas": [["1e3000000"]], "gamma": "1"})
    with pytest.raises(ShapeMismatch, match="longer than 4300"):
        Weight.from_json({"alphas": [["1"]], "gamma": "3" * 4301})
    assert time.monotonic() - start < 0.1


# one spelling per variable: a second spelling of a.j.i would be a second
# column for the same weight entry, and branch or index 0 would read
# alphas[-1]
@pytest.mark.parametrize("key", ["a.0.1", "a.1.0", "a.01.1", "a.1.01", "a.١.1", "a.1.1\n"])
def test_variable_key_has_one_spelling(key):
    with pytest.raises(ValueError, match="unknown variable key"):
        LinearForm.from_json({key: "1", "g": "-1"})


def test_condition_text_index_zero():
    with pytest.raises(ShapeMismatch, match="outside poset"):
        parse_condition_text("b0<g", make_poset([1, 2]))


def test_weight_value_outside_its_shape():
    w = parse_weight_string("1;1,2;3")
    assert w.value("a.2.2") == 2 and w.value(GAMMA_KEY) == 3
    for key in ("a.1.2", "a.3.1"):
        with pytest.raises(ShapeMismatch, match="outside the weight's shape"):
            w.value(key)
        with pytest.raises(ShapeMismatch):
            Condition(LinearForm({key: 1, GAMMA_KEY: -1}), LT_ZERO).holds_at(w)
