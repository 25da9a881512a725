from __future__ import annotations

import itertools
import math
import random
from operator import mul
from fractions import Fraction
from fractions import Fraction as Q
from typing import Sequence

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from posetrep import lp
from posetrep.core import PosetRepError

# --- oracle: the two-phase simplex on a Fraction tableau ---------------------
#
# Same method, same Bland's rule, but every entry a Fraction.  It takes the
# same pivots as the integer tableau of lp.solve_lp, so the two must agree
# on status, optimum and vertex exactly.


def _fraction_pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = 1 / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            f = tab[r][col]
            tab[r] = [v - f * w for v, w in zip(tab[r], tab[row])]
    basis[row] = col


def _fraction_run_simplex(tab: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    """Optimise in place; last row is the objective (maximisation form)."""
    while True:
        obj = tab[-1]
        col = next((c for c in range(ncols) if obj[c] > 0), None)
        if col is None:
            return lp.OPTIMAL
        best_row, best_ratio = None, None
        for r in range(len(tab) - 1):
            if tab[r][col] > 0:
                ratio = tab[r][-1] / tab[r][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return lp.UNBOUNDED
        _fraction_pivot(tab, basis, best_row, col)


def _fraction_simplex(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> lp.LpResult:
    n = len(c)
    rows: list[tuple[list[Fraction], Fraction, bool]] = []
    for row, b in zip(a_ub, b_ub):
        rows.append(([Fraction(v) for v in row], Fraction(b), True))
    for row, b in zip(a_eq, b_eq):
        rows.append(([Fraction(v) for v in row], Fraction(b), False))

    nslack = sum(1 for _, _, ineq in rows if ineq)
    ncols = n + nslack  # structural + slack columns; artificials appended after
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    artificial_rows: list[int] = []
    si = 0
    for r, (row, b, ineq) in enumerate(rows):
        line = row + [Fraction(0)] * nslack
        if ineq:
            line[n + si] = Fraction(1)
            slack_col = n + si
            si += 1
        else:
            slack_col = None
        if b < 0:
            line = [-v for v in line]
            b = -b
            slack_col = None  # negated slack cannot start basic
        tab.append(line + [b])
        if slack_col is not None:
            basis.append(slack_col)
        else:
            basis.append(-1)  # placeholder, artificial assigned below
            artificial_rows.append(r)

    nart = len(artificial_rows)
    total = ncols + nart
    for r in range(len(tab)):
        row = tab[r]
        body, b = row[:-1], row[-1]
        art = [Fraction(0)] * nart
        tab[r] = body + art + [b]
    for k, r in enumerate(artificial_rows):
        tab[r][ncols + k] = Fraction(1)
        basis[r] = ncols + k

    if nart:
        # Phase 1: maximise -(sum of artificials).
        obj = [Fraction(0)] * (total + 1)
        for k in range(nart):
            obj[ncols + k] = Fraction(-1)
        tab.append(obj)
        for r in artificial_rows:
            tab[-1] = [v + w for v, w in zip(tab[-1], tab[r])]
        status = _fraction_run_simplex(tab, basis, total)
        assert status == lp.OPTIMAL  # phase 1 is always bounded
        if tab[-1][-1] != 0:
            return lp.LpResult(lp.INFEASIBLE, None, None)
        tab.pop()
        # Drive leftover artificials out of the basis.
        for r in range(len(tab)):
            if basis[r] >= ncols:
                col = next((cc for cc in range(ncols) if tab[r][cc] != 0), None)
                if col is None:
                    continue  # redundant row, harmless to keep
                _fraction_pivot(tab, basis, r, col)

    obj = [Fraction(v) for v in c] + [Fraction(0)] * (total - n) + [Fraction(0)]
    for r in range(len(tab)):
        if basis[r] < n and obj[basis[r]] != 0:
            f = obj[basis[r]]
            obj = [v - f * w for v, w in zip(obj, tab[r])]
    tab.append(obj)
    status = _fraction_run_simplex(tab, basis, ncols)
    if status == lp.UNBOUNDED:
        return lp.LpResult(lp.UNBOUNDED, None, None)
    x = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = tab[r][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return lp.LpResult(lp.OPTIMAL, value, tuple(x))


# --- tests -------------------------------------------------------------------


def test_simple_bounded():
    res = lp.solve_lp([Q(1)], [[Q(1)]], [Q(1)])
    assert res.status == lp.OPTIMAL and res.value == 1 and res.x == (Q(1),)


def test_two_variable():
    # max x + y with x + 2y <= 4, 3x + y <= 6
    res = lp.solve_lp([Q(1), Q(1)], [[Q(1), Q(2)], [Q(3), Q(1)]], [Q(4), Q(6)])
    assert res.status == lp.OPTIMAL
    assert res.value == Q(14, 5)  # vertex (8/5, 6/5)


def test_equality_constraint():
    res = lp.solve_lp([Q(0), Q(1)], [[Q(0), Q(1)]], [Q(5)], [[Q(1), Q(1)]], [Q(3)])
    assert res.status == lp.OPTIMAL and res.value == 3


def test_infeasible():
    res = lp.solve_lp([Q(1)], [[Q(1)], [Q(-1)]], [Q(-2), Q(1)])
    assert res.status == lp.INFEASIBLE


def test_unbounded():
    assert lp.solve_lp([Q(1)]).status == lp.UNBOUNDED
    assert lp.solve_lp([Q(1)], [[Q(-1)]], [Q(1)]).status == lp.UNBOUNDED


def test_negative_rhs_rows():
    # x >= 2 written as -x <= -2, maximise -x: optimum at x = 2
    res = lp.solve_lp([Q(-1)], [[Q(-1)], [Q(1)]], [Q(-2), Q(10)])
    assert res.status == lp.OPTIMAL and res.x == (Q(2),)


def test_degenerate_vertex_terminates():
    # classic degeneracy: several constraints meet at the optimum
    res = lp.solve_lp(
        [Q(1), Q(1)],
        [[Q(1), Q(0)], [Q(0), Q(1)], [Q(1), Q(1)]],
        [Q(1), Q(1), Q(1)],
    )
    assert res.status == lp.OPTIMAL and res.value == 1


def test_redundant_equalities():
    res = lp.solve_lp(
        [Q(1), Q(0)],
        a_eq=[[Q(1), Q(1)], [Q(2), Q(2)]],
        b_eq=[Q(2), Q(4)],
    )
    assert res.status == lp.OPTIMAL and res.value == 2


def _random_instance(rng: random.Random):
    """(c, A_ub, b_ub, A_eq, b_eq): up to 4 variables, 4 <= rows with
    nonnegative right-hand sides and at most one = row."""
    nvars = rng.randint(1, 4)
    nub = rng.randint(1, 4)
    neq = rng.randint(0, 1)
    c = [Q(rng.randint(-4, 4)) for _ in range(nvars)]
    a_ub = [[Q(rng.randint(-3, 3)) for _ in range(nvars)] for _ in range(nub)]
    b_ub = [Q(rng.randint(0, 6)) for _ in range(nub)]
    a_eq = [[Q(rng.randint(-2, 2)) for _ in range(nvars)] for _ in range(neq)]
    b_eq = [Q(rng.randint(0, 3)) for _ in range(neq)]
    return c, a_ub, b_ub, a_eq, b_eq


def _assert_matches_scipy(res, c, a_ub, b_ub, a_eq, b_eq, options=None):
    ref = scipy.optimize.linprog(
        [-float(x) for x in c],
        A_ub=np.array(a_ub, dtype=float),
        b_ub=np.array(b_ub, dtype=float),
        A_eq=np.array(a_eq, dtype=float) if a_eq else None,
        b_eq=np.array(b_eq, dtype=float) if a_eq else None,
        bounds=[(0, None)] * len(c),
        method="highs",
        options=options,
    )
    if res.status == lp.OPTIMAL:
        assert ref.status == 0, (res, ref)
        assert abs(float(res.value) + ref.fun) < 1e-7
    elif res.status == lp.INFEASIBLE:
        assert ref.status == 2
    else:
        assert ref.status == 3


def test_random_instances_match_scipy():
    rng = random.Random(7)
    for _ in range(60):
        instance = _random_instance(rng)
        _assert_matches_scipy(lp.solve_lp(*instance), *instance)


def test_maximize_each_matches_scipy_and_solve_lp():
    """Several objectives over each of the draws above, from one tableau.
    Every answer is scipy's and a separate solve_lp's; each maximiser is
    feasible and attains its value, also after an unbounded objective has
    left the basis where its ray starts."""
    rng = random.Random(7)
    after_unbounded = 0
    for _ in range(60):
        c, a_ub, b_ub, a_eq, b_eq = _random_instance(rng)
        objectives = [c] + [[Q(rng.randint(-4, 4)) for _ in c] for _ in range(4)]
        results = lp.maximize_each(objectives, a_ub, b_ub, a_eq, b_eq)
        assert len(results) == len(objectives)
        for k, (obj, res) in enumerate(zip(objectives, results)):
            # HiGHS's presolve calls some of these unbounded problems
            # infeasible, although x = 0 is feasible for them
            _assert_matches_scipy(res, obj, a_ub, b_ub, a_eq, b_eq, {"presolve": False})
            alone = lp.solve_lp(obj, a_ub, b_ub, a_eq, b_eq)
            assert (res.status, res.value) == (alone.status, alone.value)
            if res.status != lp.OPTIMAL:
                continue
            x = res.x
            assert all(v >= 0 for v in x)
            assert all(sum(map(mul, row, x)) <= b for row, b in zip(a_ub, b_ub))
            assert all(sum(map(mul, row, x)) == b for row, b in zip(a_eq, b_eq))
            assert sum(map(mul, obj, x)) == res.value
            after_unbounded += any(r.status == lp.UNBOUNDED for r in results[:k])
    assert after_unbounded >= 20


def test_maximize_each_infeasible_and_empty():
    a_ub, b_ub = [[Q(1)], [Q(-1)]], [Q(-2), Q(1)]  # x <= -2 and x >= -1
    results = lp.maximize_each([[Q(1)], [Q(-1)], [Q(0)]], a_ub, b_ub)
    assert [r.status for r in results] == [lp.INFEASIBLE] * 3
    assert lp.solve_lp([Q(1)], a_ub, b_ub) == results[0]
    assert lp.maximize_each([], a_ub, b_ub) == []


def test_feasible_point_satisfies_constraints():
    rng = random.Random(8)
    for _ in range(40):
        nvars = rng.randint(1, 4)
        c = [Q(rng.randint(-3, 3)) for _ in range(nvars)]
        a_ub = [[Q(rng.randint(-3, 3)) for _ in range(nvars)] for _ in range(3)]
        b_ub = [Q(rng.randint(-1, 5)) for _ in range(3)]
        res = lp.solve_lp(c, a_ub, b_ub)
        if res.status != lp.OPTIMAL:
            continue
        for row, b in zip(a_ub, b_ub):
            assert sum(r * x for r, x in zip(row, res.x)) <= b
        assert all(x >= 0 for x in res.x)


_ENTRIES = st.sampled_from(
    [Q(v) for v in range(-3, 4)] + [Q(1, 2), Q(-1, 2), Q(2, 3), Q(-3, 4), Q(5, 3)]
)
_RHS = st.one_of(st.just(Q(0)), _ENTRIES, st.integers(-6, 6).map(Q))


@st.composite
def _lp_instances(draw):
    """Up to 8 variables and 12 rows: <= and = rows, negative right-hand
    sides, and duplicated (possibly rescaled) rows for degenerate vertices
    and redundant equalities."""
    n = draw(st.integers(1, 8))
    vec = st.lists(_ENTRIES, min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(vec, _RHS, st.booleans()), max_size=12))
    copies = draw(st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from([Q(1), Q(2), Q(1, 3)])),
        max_size=12 - len(rows),
    ))
    for i, k in copies:
        if rows:
            row, b, is_eq = rows[i % len(rows)]
            rows.append(([k * v for v in row], k * b, is_eq))
    c = draw(vec)
    a_ub = [row for row, _, is_eq in rows if not is_eq]
    b_ub = [b for _, b, is_eq in rows if not is_eq]
    a_eq = [row for row, _, is_eq in rows if is_eq]
    b_eq = [b for _, b, is_eq in rows if is_eq]
    return c, a_ub, b_ub, a_eq, b_eq


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lp_instances())
def test_integer_tableau_matches_fraction_oracle(instance):
    assert lp.solve_lp(*instance) == _fraction_simplex(*instance)


def _converted(instance, convert):
    """instance with convert(i, v) applied to its i-th entry, counted
    through c, the rows of A_ub, b_ub, the rows of A_eq and b_eq."""
    count = itertools.count()
    c, a_ub, b_ub, a_eq, b_eq = instance

    def conv(values):
        return [convert(next(count), v) for v in values]

    return conv(c), [conv(r) for r in a_ub], conv(b_ub), [conv(r) for r in a_eq], conv(b_eq)


def _integral(instance):
    """The same problem with integer entries, as Fractions: each row scaled
    together with its right-hand side, and the objective, by the lcm of
    their denominators.  The vertex is unchanged; the value scales."""
    c, a_ub, b_ub, a_eq, b_eq = instance

    def scaled(values):
        den = math.lcm(*(v.denominator for v in values))
        return [v * den for v in values]

    ub = [scaled([*row, b]) for row, b in zip(a_ub, b_ub)]
    eq = [scaled([*row, b]) for row, b in zip(a_eq, b_eq)]
    return (scaled(c), [r[:-1] for r in ub], [r[-1] for r in ub],
            [r[:-1] for r in eq], [r[-1] for r in eq])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lp_instances())
def test_int_and_fraction_input_agree(instance):
    """A problem given as ints, as Fractions or as a mix of both has one
    answer, the Fraction oracle's, and it is given in Fractions."""
    fractions = _integral(instance)
    ints = _converted(fractions, lambda i, v: int(v))
    mixed = _converted(fractions, lambda i, v: int(v) if i % 2 else v)
    res = lp.solve_lp(*ints)
    assert res == lp.solve_lp(*fractions) == lp.solve_lp(*mixed) == _fraction_simplex(*fractions)
    # the drawn problem itself, with its integral entries at odd positions as ints
    partly_int = _converted(instance, lambda i, v: int(v) if i % 2 and v.denominator == 1 else v)
    rational = lp.solve_lp(*instance)
    assert lp.solve_lp(*partly_int) == rational
    for r in (res, rational):
        if r.status == lp.OPTIMAL:
            assert type(r.value) is Fraction and all(type(v) is Fraction for v in r.x)


def test_integer_tableau_with_negative_first_pivot(monkeypatch):
    pivots = []
    real_pivot = lp._pivot

    def checked_pivot(tab, basis, row, col):
        pivots.append(tab[row][col])
        real_pivot(tab, basis, row, col)
        for line in tab:
            assert all(type(v) is int for v in line)
            assert math.gcd(*line) == 1

    monkeypatch.setattr(lp, "_pivot", checked_pivot)
    # 2x + 3y = 0 stated with negative coefficients, twice.  Phase 1 is
    # optimal at once; the leftover artificial of the first row leaves the
    # basis by a pivot on -2 and the second row becomes redundant.
    args = (
        [Q(1), Q(1), Q(1)],
        [[Q(1), Q(1), Q(1)]],
        [Q(4)],
        [[Q(-2), Q(-3), Q(0)], [Q(-4), Q(-6), Q(0)]],
        [Q(0), Q(0)],
    )
    res = lp.solve_lp(*args)
    assert res == lp.LpResult(lp.OPTIMAL, Q(4), (Q(0), Q(0), Q(4)))
    assert pivots[0] == -2 and len(pivots) == 2
    assert res == _fraction_simplex(*args)


def test_phase_one_failure_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(lp, "_run_simplex", lambda tab, basis, ncols: lp.UNBOUNDED)
    with pytest.raises(lp.LpError):
        lp.solve_lp([Q(1)], a_eq=[[Q(1)]], b_eq=[Q(1)])
    assert issubclass(lp.LpError, PosetRepError)
