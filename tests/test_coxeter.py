from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as Q
from itertools import product

import pytest

from posetrep.core import (
    DimVector,
    LinearForm,
    NonPositiveWeight,
    PrimitivePoset,
    SymbolicWeight,
    Weight,
    classify_degeneracy,
    make_poset,
    parse_dim_string,
    parse_weight_string,
)
from posetrep.coxeter import (
    NegativeEntry,
    NotStrictlyDecreasing,
    StarWeight,
    _fminus_dims,
    alpha_to_beta,
    beta_to_alpha,
    fminus_dim,
    fplus_dim,
    phiminus_concrete,
    phiminus_weight,
    phiplus_concrete,
    phiplus_weight,
    rho_dim,
    sigma_dim,
)
from posetrep.roots import enumerate_indec_dims

FINITE_POSETS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1), (3,), (2, 2)]


def fplus_closed_form(p: PrimitivePoset, d: DimVector) -> DimVector:
    """Oracle: the displayed closed form of the upward transform,
    d0' = sum_j d_k^(j) - d0; branch j entry i = sum_{l != j} d_k^(l) - d0
    + d_{i-1}^(j) with d_0 := 0."""
    assert d.is_admissible(p)
    tops = [b[-1] for b in d.branches]
    total = sum(tops)
    branches = []
    for j, b in enumerate(d.branches):
        rest = total - tops[j]
        branches.append(
            tuple(rest - d.d0 + (b[i - 1] if i >= 1 else 0) for i in range(len(b)))
        )
    return DimVector(total - d.d0, tuple(branches))


def fminus_composition(p: PrimitivePoset, d: DimVector) -> DimVector:
    """Oracle: the downward transform as the composite of its two
    involutions, sigma first."""
    return rho_dim(p, sigma_dim(p, d))


def _box(branches: tuple[int, ...], top: int):
    """Every dimension vector of the shape with d0 and entries in 0..top,
    admissible or not."""
    n = sum(branches)
    for entries in product(range(top + 1), repeat=n + 1):
        chains, pos = [], 1
        for k in branches:
            chains.append(entries[pos: pos + k])
            pos += k
        yield DimVector(entries[0], tuple(chains))


def _outcome(f, *args):
    try:
        return f(*args)
    except NegativeEntry as exc:
        return "NegativeEntry", str(exc)


# (shape, largest entry): 24,797 vectors, most of them inadmissible
_FMINUS_BOXES = (((1, 1, 1), 5), ((2, 2, 1), 3), ((4, 2, 1), 2), ((3, 3), 2), ((5,), 3),
                 ((5, 1, 1), 2))


def test_fminus_closed_form_matches_composition():
    """`_fminus_dims` on plain ints and `fminus_dim` give the composite's
    value, or raise NegativeEntry with its message, on every vector of a
    box, admissible or not; each of the composite's three failures occurs."""
    seen = Counter()
    for branches, top in _FMINUS_BOXES:
        p = make_poset(branches)
        for d in _box(branches, top):
            expected = _outcome(fminus_composition, p, d)
            if isinstance(expected, DimVector):
                seen["value"] += 1
                assert _fminus_dims(d.d0, d.branches) == (expected.d0, expected.branches), d
            else:
                seen[expected[1].split(" ")[1]] += 1  # vector, undefined: or output
                assert _outcome(_fminus_dims, d.d0, d.branches) == expected, d
            assert _outcome(fminus_dim, p, d) == expected, d
    assert seen == {"value": 836, "vector": 23113, "undefined:": 152, "output": 696}


def test_sigma_examples():
    p = make_poset([1, 1, 1])
    assert sigma_dim(p, parse_dim_string("1;1;1;2")) == parse_dim_string("1;1;1;2")
    p221 = make_poset([2, 2, 1])
    assert sigma_dim(p221, parse_dim_string("1,2;1,2;2;3")) == parse_dim_string(
        "1,2;1,2;1;3"
    )
    assert sigma_dim(p, parse_dim_string("0;0;0;1")) == parse_dim_string("1;1;1;1")


def test_rho_examples():
    p = make_poset([1, 1, 1])
    assert rho_dim(p, parse_dim_string("1;1;1;1")) == parse_dim_string("1;1;1;2")
    p221 = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    assert rho_dim(p221, d) == d
    with pytest.raises(NegativeEntry):
        rho_dim(p, parse_dim_string("0;0;0;1"))


def test_f_transform_examples():
    p = make_poset([1, 1, 1])
    assert fplus_dim(p, parse_dim_string("1;1;1;1")) == parse_dim_string("1;1;1;2")
    assert fminus_dim(p, parse_dim_string("1;1;1;2")) == parse_dim_string("1;1;1;1")
    p221 = make_poset([2, 2, 1])
    assert fminus_dim(p221, parse_dim_string("1,2;1,2;2;3")) == parse_dim_string(
        "1,2;1,2;1;2"
    )
    with pytest.raises(NegativeEntry):
        fminus_dim(p, parse_dim_string("1;1;1;1"))  # degenerate input


def test_involutions_and_inverses_on_enumerated_dims():
    for branches in FINITE_POSETS:
        p = make_poset(branches)
        for d in enumerate_indec_dims(p):
            try:
                s = sigma_dim(p, d)
            except NegativeEntry:
                s = None
            if s is not None:
                assert sigma_dim(p, s) == d
            try:
                r = rho_dim(p, d)
            except NegativeEntry:
                r = None
            if r is not None:
                assert rho_dim(p, r) == d
            if not classify_degeneracy(p, d):
                down = fminus_dim(p, d)
                assert fplus_dim(p, down) == d
                up = fplus_dim(p, d)
                assert fminus_dim(p, up) == d


def test_fplus_matches_closed_form():
    for branches in FINITE_POSETS:
        p = make_poset(branches)
        for d in enumerate_indec_dims(p):
            try:
                via_composition = fplus_dim(p, d)
            except NegativeEntry:
                continue
            assert via_composition == fplus_closed_form(p, d)


def test_phi_symbolic_examples():
    p = make_poset([1, 1, 1])
    out = phiminus_weight(p, SymbolicWeight.identity(p))
    a, b, d, g = (LinearForm.variable(k) for k in ["a.1.1", "a.2.1", "a.3.1", "g"])
    assert out.branch_forms == ((b + d - g,), (a + d - g,), (a + b - g,))
    assert out.gamma_form == a + b + d - g
    p211 = make_poset([2, 1, 1])
    out211 = phiminus_weight(p211, SymbolicWeight.identity(p211))
    a2 = LinearForm.variable("a.1.2")
    bb = LinearForm.variable("a.2.1")
    dd = LinearForm.variable("a.3.1")
    gg = LinearForm.variable("g")
    assert out211.branch_forms[0] == (a2, bb + dd - gg)


def test_phi_plus_minus_identity_symbolic():
    for branches in FINITE_POSETS:
        p = make_poset(branches)
        sw = SymbolicWeight.identity(p)
        assert phiplus_weight(p, phiminus_weight(p, sw)) == sw
        assert phiminus_weight(p, phiplus_weight(p, sw)) == sw


def test_phiminus_concrete_positivity():
    p = make_poset([1, 1, 1])
    w = parse_weight_string("2;2;2;3")
    out = phiminus_concrete(p, w)
    assert out == parse_weight_string("1;1;1;3")
    with pytest.raises(NonPositiveWeight, match=r"^transformed weight left the positive cone: "
                       r"weight entry must be positive, got -4$"):
        phiminus_concrete(p, parse_weight_string("1;1;5;10"))
    with pytest.raises(NonPositiveWeight, match=r"^transformed weight left the positive cone: "
                       r"weight entry must be positive, got -1/2$"):
        phiplus_concrete(p, parse_weight_string("1;1;1;1/2"))


# the poset shapes of the benchmark's queries workload (perfbench/wl_queries.py)
QUERY_POSETS = ((1,), (4,), (8,), (2, 2), (4, 3), (5, 5), (6, 5), (6, 6),
                (1, 1, 1), (2, 1, 1), (5, 1, 1), (8, 1, 1), (10, 1, 1),
                (2, 2, 1), (3, 2, 1), (4, 2, 1))


def _symbolic_image(transform, p: PrimitivePoset, w: Weight) -> Weight | str:
    """Oracle: the symbolic transform of the identity weight evaluated at w,
    or the error text of a concrete transform that leaves the cone."""
    try:
        return transform(p, SymbolicWeight.identity(p)).evaluate(w)
    except NonPositiveWeight as exc:
        return f"transformed weight left the positive cone: {exc}"


def test_concrete_transforms_match_symbolic_images():
    rng = random.Random(15)
    outcomes = set()
    for branches in QUERY_POSETS:
        p = make_poset(branches)
        for _ in range(25):
            w = Weight(
                tuple(tuple(Q(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(k))
                      for k in branches),
                Q(rng.randint(1, 60), rng.randint(1, 3)),
            )
            for concrete, symbolic in [(phiplus_concrete, phiplus_weight),
                                       (phiminus_concrete, phiminus_weight)]:
                try:
                    got = concrete(p, w)
                except NonPositiveWeight as exc:
                    got = str(exc)
                assert got == _symbolic_image(symbolic, p, w), (branches, w)
                outcomes.add((concrete.__name__, type(got)))
    assert len(outcomes) == 4  # each transform both stays in and leaves the cone


def test_alpha_beta_round_trip():
    p = make_poset([2])
    w = Weight(((Q(1), Q(2)),), Q(5))
    sw = alpha_to_beta(p, w)
    assert sw.betas == ((Q(3), Q(2)),)
    assert beta_to_alpha(p, sw) == w
    p3 = make_poset([3])
    assert alpha_to_beta(p3, Weight(((Q(1), Q(1), Q(1)),), Q(1))).betas == (
        (Q(3), Q(2), Q(1)),
    )
    with pytest.raises(NotStrictlyDecreasing):
        beta_to_alpha(p, StarWeight(((Q(2), Q(2)),), Q(1)))
    rng = random.Random(11)
    for _ in range(1000):
        branches = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        pr = make_poset(branches)
        w = Weight(
            tuple(
                tuple(Q(rng.randint(1, 30), rng.randint(1, 5)) for _ in range(k))
                for k in branches
            ),
            Q(rng.randint(1, 9)),
        )
        assert beta_to_alpha(pr, alpha_to_beta(pr, w)) == w


def _defect_form(p: PrimitivePoset, d: DimVector, sw: SymbolicWeight) -> LinearForm:
    total = LinearForm()
    for j, i in p.elements():
        total = total + sw.entry(j, i) * Q(d.entry(j, i))
    return total - sw.gamma_form * Q(d.d0)


def _random_nondegenerate(rng: random.Random) -> tuple[PrimitivePoset, DimVector]:
    branches = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    p = make_poset(branches)
    d0 = max(branches) + rng.randint(1, 4)
    dims = []
    for k in branches:
        chain = sorted(rng.sample(range(1, d0), k))
        dims.append(tuple(chain))
    return p, DimVector(d0, tuple(dims))


def _raw_fminus_values(p, d):
    """Closed form of the downward transform without admissibility checks
    (entries may go negative on infinite-type input); the independent
    oracle for the defect identity."""
    firsts = [b[0] for b in d.branches]
    d0_new = (p.width - 1) * d.d0 - sum(firsts)
    branches = [
        [b[i] - b[0] for i in range(1, len(b))] + [d.d0 - b[0]] for b in d.branches
    ]
    return d0_new, branches


def _raw_defect(d0, branches, sw: SymbolicWeight) -> LinearForm:
    total = LinearForm()
    for bf, bd in zip(sw.branch_forms, branches):
        for f, e in zip(bf, bd):
            total = total + f * Q(e)
    return total - sw.gamma_form * Q(d0)


def test_trace_defect_invariance_on_enumerated_dims():
    for branches in FINITE_POSETS:
        p = make_poset(branches)
        for d in enumerate_indec_dims(p):
            if classify_degeneracy(p, d):
                continue
            sw = SymbolicWeight.identity(p)
            before = _defect_form(p, d, sw)
            after = _defect_form(p, fminus_dim(p, d), phiminus_weight(p, sw))
            assert after == before


def test_trace_defect_invariance_random():
    rng = random.Random(12)
    for _ in range(1000):
        p, d = _random_nondegenerate(rng)
        sw = SymbolicWeight.identity(p)
        before = _defect_form(p, d, sw)
        d0_new, branches = _raw_fminus_values(p, d)
        after = _raw_defect(d0_new, branches, phiminus_weight(p, sw))
        assert after == before
