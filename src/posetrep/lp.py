"""Exact linear programming: a small two-phase simplex on an integer tableau.

Problems are stated as

    maximize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0

with every entry an int or a Fraction.  The tableau is fraction-free (in
the spirit of Bareiss 1968): each row, the objective included, is held as
a primitive integer vector, a positive multiple of the true rational row,
and is divided by its gcd after every update.  Signs and ratios are
therefore those of the rational tableau, so Bland's rule takes exactly the
pivots a Fraction tableau would take and cannot cycle; basic values are
read back as ``Fraction(rhs, coefficient)``.  A pivot touches only the
rows with a nonzero entry in the pivot column and, in each, only the
nonzero columns of the pivot row.  The row scaling and the elimination
step are those of the echelon kernel in `linalg`.

`maximize_each` answers several objectives over the same rows from one
tableau: phase 1 runs once, and each phase 2 starts from the basis the
previous objective left, which every pivot keeps feasible.  `solve_lp`
is its one-objective case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import PosetRepError
from .linalg import _eliminate, _primitive, _rationals, _scaled

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(PosetRepError):
    """The simplex reached a state its invariants rule out."""


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _pivot(tab: list[list[int]], basis: list[int], row: int, col: int) -> None:
    prow = tab[row]
    a = prow[col]
    if a < 0:
        prow = tab[row] = [-v for v in prow]
        a = -a
    nz = [j for j, v in enumerate(prow) if v]
    for r in range(len(tab)):
        if r != row and tab[r][col]:
            tab[r] = _eliminate(tab[r], a, tab[r][col], prow, nz)
    basis[row] = col


def _run_simplex(tab: list[list[int]], basis: list[int], ncols: int) -> str:
    """Optimise in place; last row is the objective (maximisation form)."""
    while True:
        obj = tab[-1]
        col = next((c for c in range(ncols) if obj[c] > 0), None)
        if col is None:
            return OPTIMAL
        # Ratios rhs/a of rows with a > 0, compared by cross-multiplication.
        best_row, best_rhs, best_a = None, 0, 1
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a > 0:
                lhs, rhs = tab[r][-1] * best_a, best_rhs * a
                if (
                    best_row is None
                    or lhs < rhs
                    or (lhs == rhs and basis[r] < basis[best_row])
                ):
                    best_row, best_rhs, best_a = r, tab[r][-1], a
        if best_row is None:
            return UNBOUNDED
        _pivot(tab, basis, best_row, col)


def _phase1(
    n: int,
    a_ub: Sequence[Sequence[Fraction | int]],
    b_ub: Sequence[Fraction | int],
    a_eq: Sequence[Sequence[Fraction | int]],
    b_eq: Sequence[Fraction | int],
) -> tuple[list[list[int]], list[int], int, int] | None:
    """The tableau of the rows over n structural columns with a feasible
    basis, the number of structural and slack columns and the number of
    all columns; None when the rows are infeasible."""
    # each row with its right-hand side appended, and whether it is <=
    rows: list[tuple[list[Fraction | int], bool]] = []
    for row, b in zip(a_ub, b_ub):
        rows.append((_rationals([*row, b]), True))
    for row, b in zip(a_eq, b_eq):
        rows.append((_rationals([*row, b]), False))

    nslack = sum(1 for _, ineq in rows if ineq)
    nart = sum(1 for line, ineq in rows if not ineq or line[-1] < 0)
    ncols = n + nslack  # structural + slack columns; artificials appended after
    total = ncols + nart
    # Each row is scaled by the lcm of its denominators and negated when its
    # right-hand side is negative; a row whose slack cannot start basic gets
    # an artificial.  The phase-1 objective, the sum of the artificial rows
    # with the artificial columns cancelled, is accumulated exactly.
    tab: list[list[int]] = []
    basis: list[int] = []
    phase1 = [0] * (n + 1)
    phase1_slacks: list[int] = []
    si = k = 0
    for row, ineq in rows:
        sign = -1 if row[-1] < 0 else 1
        den, ints = _scaled(row)
        line = [sign * v for v in ints[:-1]] + [0] * (total - n) + [sign * ints[-1]]
        if ineq:
            line[n + si] = sign * den
        if ineq and sign > 0:
            basis.append(n + si)
        else:
            line[ncols + k] = den
            basis.append(ncols + k)
            k += 1
            if sign > 0:
                phase1 = [u + v for u, v in zip(phase1, row)]
            else:
                phase1 = [u - v for u, v in zip(phase1, row)]
            if ineq:
                phase1_slacks.append(n + si)
        si += ineq
        tab.append(_primitive(line))

    if nart:
        # Phase 1: maximise -(sum of artificials).
        den, ints = _scaled(phase1)
        obj = ints[:-1] + [0] * (total - n) + ints[-1:]
        for col in phase1_slacks:
            obj[col] = -den
        tab.append(_primitive(obj))
        if _run_simplex(tab, basis, total) != OPTIMAL:
            raise LpError("phase 1 of the simplex is bounded, yet it reported unbounded")
        if tab.pop()[-1] != 0:
            return None
        # Drive leftover artificials out of the basis.
        for r in range(len(tab)):
            if basis[r] >= ncols:
                col = next((cc for cc in range(ncols) if tab[r][cc] != 0), None)
                if col is None:
                    continue  # redundant row, harmless to keep
                _pivot(tab, basis, r, col)
    return tab, basis, ncols, total


def _phase2(
    tab: list[list[int]], basis: list[int], ncols: int, total: int,
    c: Sequence[Fraction | int],
) -> LpResult:
    """Maximise c.x from the feasible basis, which it leaves feasible."""
    n = len(c)
    scale, ints = _scaled(_rationals(c))
    obj_int = _primitive(ints + [0] * (total - n + 1))
    for r in range(len(tab)):
        if basis[r] < n and obj_int[basis[r]] != 0:
            row = tab[r]
            obj_int = _eliminate(obj_int, row[basis[r]], obj_int[basis[r]], row,
                                 [j for j, v in enumerate(row) if v])
    tab.append(obj_int)
    status = _run_simplex(tab, basis, ncols)
    tab.pop()
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    # x[bcol] = rhs / pivot of its row, and c = ints / scale; the value
    # sum(c.x) is summed over a common denominator and reduced once
    x = [Fraction(0)] * n
    num, den = 0, 1
    for r, bcol in enumerate(basis):
        if bcol < n:
            rhs, piv = tab[r][-1], tab[r][bcol]
            x[bcol] = Fraction(rhs, piv)
            if rhs and ints[bcol]:
                num, den = num * piv + ints[bcol] * rhs * den, den * piv
    return LpResult(OPTIMAL, Fraction(num, den * scale), tuple(x))


def maximize_each(
    objectives: Sequence[Sequence[Fraction | int]],
    a_ub: Sequence[Sequence[Fraction | int]] = (),
    b_ub: Sequence[Fraction | int] = (),
    a_eq: Sequence[Sequence[Fraction | int]] = (),
    b_eq: Sequence[Fraction | int] = (),
) -> list[LpResult]:
    """`solve_lp` for each objective over the same rows, in order, from one
    tableau.  An optimal objective's x is a maximiser, not necessarily the
    vertex `solve_lp` would return."""
    if not objectives:
        return []
    start = _phase1(len(objectives[0]), a_ub, b_ub, a_eq, b_eq)
    if start is None:
        return [LpResult(INFEASIBLE, None, None)] * len(objectives)
    return [_phase2(*start, c) for c in objectives]


def solve_lp(
    c: Sequence[Fraction | int],
    a_ub: Sequence[Sequence[Fraction | int]] = (),
    b_ub: Sequence[Fraction | int] = (),
    a_eq: Sequence[Sequence[Fraction | int]] = (),
    b_eq: Sequence[Fraction | int] = (),
) -> LpResult:
    return maximize_each([c], a_ub, b_ub, a_eq, b_eq)[0]
