from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from posetrep import linalg
from posetrep.core import ShapeMismatch, make_poset, parse_dim_string
from posetrep.linrep import (
    ContainmentViolation,
    ForbiddenParameter,
    NonMonomorphicArrow,
    PosetMismatch,
    RankDeficient,
    SubspaceRep,
    are_isomorphic,
    dim_vector,
    direct_sum,
    end_dim,
    family_1111,
    family_222,
    family_332,
    family_521,
    from_quiver_rep,
    hom_space,
    is_brick,
    is_indecomposable,
    make_rep,
    nonbrick_alpha,
    rep_from_json,
    rep_to_json,
    to_quiver_rep,
)

FAMILIES = [family_1111, family_222, family_332, family_521]


def _three_lines():
    p = make_poset([1, 1, 1])
    return make_rep(p, 2, [[[1], [0]], [[0], [1]], [[1], [1]]])


def test_make_rep_and_validation():
    r = _three_lines()
    assert dim_vector(r) == parse_dim_string("1;1;1;2")
    assert make_rep(r.poset, r.ambient, r.bases) == r
    with pytest.raises(ContainmentViolation):
        make_rep(make_poset([2]), 2, [[[1], [0]], [[0], [1]]])
    with pytest.raises(RankDeficient):
        make_rep(make_poset([1]), 2, [[[1, 2], [1, 2]]])


def test_nonbrick_fixture():
    r = nonbrick_alpha(1)
    assert dim_vector(r) == parse_dim_string("2;2;2;2;4")
    assert end_dim(r) == 2
    assert not is_brick(r)
    assert is_indecomposable(r)
    with pytest.raises(ForbiddenParameter):
        nonbrick_alpha(0)


def test_family_fixture_shapes():
    assert dim_vector(family_1111(2)) == parse_dim_string("1;1;1;1;2")
    assert dim_vector(family_222(2)) == parse_dim_string("1,2;1,2;1,2;3")
    assert dim_vector(family_332(2)) == parse_dim_string("1,2,3;1,2,3;2;4")
    assert dim_vector(family_521(2)) == parse_dim_string("1,2,3,4,5;2,4;3;6")
    for fam in FAMILIES:
        with pytest.raises(ForbiddenParameter):
            fam(0)
        with pytest.raises(ForbiddenParameter):
            fam(1)
        fam(Q(1, 2))  # non-integer parameters are fine


def test_family_1111_bricks_pairwise_distinct():
    reps = {lam: family_1111(lam) for lam in (2, 3, 5)}
    for lam, r in reps.items():
        assert is_brick(r) and is_indecomposable(r)
    assert not are_isomorphic(reps[2], reps[3])
    assert not are_isomorphic(reps[2], reps[5])
    assert not are_isomorphic(reps[3], reps[5])


def test_families_pairwise_non_isomorphic():
    lams = [2, 3, 5, 7]
    for fam in FAMILIES:
        reps = [fam(lam) for lam in lams]
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                assert not are_isomorphic(reps[i], reps[j]), (fam.__name__, i, j)


def test_brick_implies_indecomposable():
    rng = random.Random(13)
    reps = [fam(lam) for fam in FAMILIES for lam in (2, 3)]
    reps += [nonbrick_alpha(1), _three_lines()]
    for _ in range(20):
        # random small rep: lines/planes inside dimension 3
        p = make_poset([1, 1])
        cols1 = [[Q(rng.randint(-2, 2)) for _ in range(1)] for _ in range(3)]
        if all(x == 0 for row in cols1 for x in row):
            cols1[0][0] = Q(1)
        identity = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
        reps.append(make_rep(p, 3, [cols1, identity]))
    for r in reps:
        if is_brick(r):
            assert is_indecomposable(r)


def test_direct_sum_and_decomposability():
    one = make_rep(make_poset([1, 1, 1]), 1, [[[1]], [[1]], [[1]]])
    s = direct_sum(one, one)
    assert end_dim(s) == 4
    assert not is_indecomposable(s)
    assert dim_vector(s) == parse_dim_string("2;2;2;2")
    f = family_1111(2)
    assert not is_indecomposable(direct_sum(f, f))
    assert not is_indecomposable(direct_sum(f, family_1111(3)))
    with pytest.raises(PosetMismatch):
        direct_sum(one, f)


def test_hom_space_examples():
    f2, f3 = family_1111(2), family_1111(3)
    basis = hom_space(f2, f3)
    for c in basis:  # every basis element is a genuine intertwiner
        for e in range(4):
            img = linalg.matmul(c, f2.basis(e))
            assert linalg.column_span_contains(f3.basis(e), img)
    r1 = _three_lines()
    small = make_rep(make_poset([1, 1, 1]), 1, [[[1]], [[1]], [[]]])
    assert hom_space(small, r1) == []  # image must lie in line1 and line2

    # hom dimension is invariant under simultaneous base change
    rng = random.Random(14)
    for r in (f2, nonbrick_alpha(2)):
        n = r.ambient
        m = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        while linalg.rank(m) < n:
            m = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        conj = make_rep(r.poset, n, [linalg.matmul(m, r.basis(e)) for e in range(r.poset.n)])
        assert end_dim(conj) == end_dim(r)
        assert are_isomorphic(r, conj)


def test_hom_space_empty_case():
    p = make_poset([1])
    full = make_rep(p, 1, [[[1]]])
    zero_sub = make_rep(p, 1, [[[]]])
    # C must map V_1 = C into 0, so only C = 0 intertwines full -> zero_sub
    assert hom_space(full, zero_sub) == []


def test_are_isomorphic_basics():
    f2 = family_1111(2)
    assert are_isomorphic(f2, f2)
    assert not are_isomorphic(f2, family_1111(3))  # cross-ratio differs


def test_quiver_round_trip():
    for rep in [_three_lines(), family_1111(2), family_222(2), family_332(2), family_521(2)]:
        q = to_quiver_rep(rep)
        back = from_quiver_rep(q)
        assert are_isomorphic(rep, back)
    # flags: every arrow of a subspace rep is injective
    q = to_quiver_rep(family_222(3))
    assert all(all(flags) for flags in q.monomorphism_flags())


def test_quiver_rep_rechecks_containment():
    # built directly, bypassing make_rep's check: line e1 is not inside line e2
    e1, e2 = ((Q(1),), (Q(0),)), ((Q(0),), (Q(1),))
    with pytest.raises(ContainmentViolation):
        to_quiver_rep(SubspaceRep(make_poset([2]), 2, (e1, e2)))


def test_quiver_zero_map_rejected():
    r = _three_lines()
    q = to_quiver_rep(r)
    zero_map = ((Q(0),), (Q(0),))  # 2x1 zero matrix on a 1-dim source
    maps = list(q.chain_maps)
    maps[0] = (zero_map,)
    bad = type(q)(q.poset, q.dims, tuple(maps))
    with pytest.raises(NonMonomorphicArrow):
        from_quiver_rep(bad)


def test_rep_json_round_trip():
    for rep in [_three_lines(), nonbrick_alpha(Q(1, 2)), family_521(3)]:
        assert rep_from_json(rep_to_json(rep)) == rep
    zero = make_rep(make_poset([1]), 2, [[[], []]])
    assert rep_from_json(rep_to_json(zero)) == zero


def test_indecomposability_locality_oracle():
    """Deterministic cross-check: over a char-0 field the radical is the
    kernel of the trace form on End, and the representation is
    indecomposable over the complex numbers iff dim End/rad == 1."""
    cases = [
        (nonbrick_alpha(1), True),
        (family_1111(2), True),
        (family_222(3), True),
        (_three_lines(), True),
        (direct_sum(family_1111(2), family_1111(2)), False),
        (direct_sum(family_1111(2), family_1111(3)), False),
        (direct_sum(_three_lines(), _three_lines()), False),
    ]
    for rep, expected in cases:
        basis = hom_space(rep, rep)
        gram = [
            [
                sum(
                    linalg.matmul(x, y)[i][i]
                    for i in range(rep.ambient)
                )
                for y in basis
            ]
            for x in basis
        ]
        rad_dim = len(linalg.nullspace(gram)) if basis else 0
        local = len(basis) - rad_dim == 1
        assert local == expected
        assert is_indecomposable(rep) == expected


def test_make_rep_bounds_ambient():
    from posetrep.core import MAX_AMBIENT, AmbientTooLarge

    assert make_rep(make_poset([1]), MAX_AMBIENT, [[]]).ambient == MAX_AMBIENT
    with pytest.raises(AmbientTooLarge):
        make_rep(make_poset([1]), MAX_AMBIENT + 1, [[]])


def test_make_rep_bounds_rank_work():
    """The work of a chain pair counts its two bases, the stacked pair and
    the upper basis again; a zero lower subspace adds no containment
    check.  Every basis here is zero, so an accepted one is rank deficient."""
    from posetrep.linrep import MAX_RANK_WORK, RepTooLarge

    def zeros(rows, cols):
        return [[0] * cols for _ in range(rows)]

    work = {c: 70 * c * min(70, c) ** 2 for c in (60, 70, 130)}
    total = work[60] + work[70] + work[130] + work[70]
    assert work[60] + work[70] <= MAX_RANK_WORK < total
    with pytest.raises(RepTooLarge, match=f"takes {total} units"):
        make_rep(make_poset([2]), 70, [zeros(70, 60), zeros(70, 70)])
    with pytest.raises(RankDeficient):
        make_rep(make_poset([1, 1]), 70, [zeros(70, 60), zeros(70, 70)])
    assert 80**4 <= MAX_RANK_WORK < 3 * 80**4
    with pytest.raises(RankDeficient):
        make_rep(make_poset([2]), 80, [[], zeros(80, 80)])


def test_rep_from_json_bounds_rank_work_before_parsing(monkeypatch):
    """The rank work depends on the shapes alone, so a file too large to
    validate converts no numeral; an accepted one converts each entry once."""
    import posetrep.linrep as linrep

    calls = []

    def counting(x):
        calls.append(x)
        return Q(x)

    monkeypatch.setattr(linrep, "_numeral", counting)
    dense = [["1/2"] * 100 for _ in range(100)]  # 100 * 100 * 100^2 units
    with pytest.raises(linrep.RepTooLarge):
        rep_from_json({"poset": {"branches": [1]}, "ambient": 100, "bases": [dense]})
    assert calls == []
    with pytest.raises(ShapeMismatch):
        rep_from_json({"poset": {"branches": [1]}, "ambient": 100, "bases": [dense[:99]]})
    assert calls == []
    rep = rep_from_json({"poset": {"branches": [1, 1]}, "ambient": 2, "bases": [[["1"], ["0"]], []]})
    assert len(calls) == 2 and rep.dims() == [1, 0]


def test_single_round_verdicts_follow_the_draws():
    # With one round, a decomposable rep passes exactly when the drawn
    # endomorphism has a single eigenvalue, so these seed lists (recorded
    # with the Fraction implementation) pin the order of the random draws.
    f = family_1111(2)
    for rep, seeds in [
        (direct_sum(f, f), [31, 137, 285, 307]),
        (direct_sum(nonbrick_alpha(1), f),
         [2, 16, 21, 58, 65, 100, 117, 127, 166, 172, 185, 288, 302, 305, 307, 332, 333,
          361, 371, 373, 388, 396]),
    ]:
        assert [s for s in range(400) if is_indecomposable(rep, seed=s, rounds=1)] == seeds
