"""Exact linear algebra over the rationals.

Matrices are lists of rows of ints and `fractions.Fraction`s.  This is
the one module that turns rationals into integer rows and eliminates them
(fraction-free, in the spirit of Bareiss 1968): a row is scaled once by the
lcm of its denominators (`_scaled`) and held as a primitive integer vector
(`_primitive`), a positive multiple of the rational row, divided by the
gcd of its entries after every update.  `_echelon` is the one elimination:
it inserts the rows one at a time into a reduced basis and stops early
once the basis has full column rank.  A positive row scale changes neither
the pivots nor the reduced row echelon form, which is read back exactly as
``Fraction(v, pivot)``; a square matrix is invertible exactly when its
`rank` is full.  `_primitive_row` is the canonical integer row of a
condition, shared by `core.LinearForm.canonicalized` and the descent in
`derive`.  The simplex in `lp` shares the row scaling and the elimination
step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries."""
    # A loop, not gcd(*row): unpacking long rows into argument tuples
    # raised the peak memory of a full table run by about 4 %.
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    return [v // g for v in row] if g > 1 else row


def _scaled(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(d, d*values) for d the lcm of the denominators of values."""
    rationals = [v for v in values if type(v) is not int]
    if not rationals:  # all ints, as the rows of the descent and the LP are
        return 1, list(values)
    den = lcm(*{v.denominator for v in rationals})
    if den == 1:
        return 1, [v if type(v) is int else v.numerator for v in values]
    return den, [v.numerator * (den // v.denominator) for v in values]


def _primitive_row(values: Sequence[Fraction | int],
                   positive_first: bool = False) -> Sequence[Fraction | int]:
    """The primitive integer multiple of the rational row values: the
    positive one, or, when positive_first, the one whose first nonzero
    entry is positive.  values itself when it is that row already, else a
    new list of ints."""
    den, ints = _scaled(values)
    row = _primitive(ints)
    if positive_first and next((v for v in row if v), 0) < 0:
        return [-v for v in row]
    return values if den == 1 and row is ints else row


def _rationals(values: Sequence) -> list[Fraction | int]:
    """values as ints and Fractions.  An int is tested by its exact type:
    isinstance(v, Fraction) on an int fails only through the slow
    abstract-base-class check."""
    return [v if type(v) is int or isinstance(v, Fraction) else Fraction(v) for v in values]


def _eliminate(target: list[int], a: int, f: int, prow: list[int], nz: list[int]) -> list[int]:
    """Primitive positive multiple of target - (f/a)*prow, for a > 0."""
    g = gcd(a, f)
    a, f = a // g, f // g
    out = [a * v for v in target] if a != 1 else list(target)
    for j in nz:
        out[j] -= f * prow[j]
    return _primitive(out)


def _int_row(values: Sequence) -> list[int]:
    """values scaled to a primitive integer row."""
    return _primitive(_scaled(_rationals(values))[1])


def _echelon(m: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row echelon form of m, each as a
    primitive integer row with a positive pivot entry, and their pivot
    columns.  Rows are inserted one at a time into a reduced basis, so a
    basis of full column rank ends the pass early.  Row r divided by its
    pivot entry is row r of the reduced row echelon form."""
    nc = len(m[0]) if m else 0
    basis: dict[int, list[int]] = {}  # pivot column -> row
    support: dict[int, list[int]] = {}  # pivot column -> nonzero columns
    for raw in m:
        if len(basis) == nc:
            break
        row = _int_row(raw)
        for c, prow in basis.items():
            if row[c]:
                row = _eliminate(row, prow[c], row[c], prow, support[c])
        c = next((j for j, v in enumerate(row) if v), None)
        if c is None:
            continue
        if row[c] < 0:
            row = [-v for v in row]
        nz = [j for j in range(c, nc) if row[j]]
        for pc, prow in basis.items():
            if prow[c]:
                prow = basis[pc] = _eliminate(prow, row[c], prow[c], row, nz)
                support[pc] = [j for j in range(pc, nc) if prow[j]]
        basis[c] = row
        support[c] = nz
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def mat(rows: Iterable[Iterable]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def shape(m: Sequence[Sequence]) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Matrix) -> Matrix:
    nr, nc = shape(m)
    return [[m[r][c] for r in range(nr)] for c in range(nc)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    nr, inner = shape(a)
    inner2, nc = shape(b)
    if inner != inner2:
        raise ValueError(f"matmul shape mismatch {shape(a)} x {shape(b)}")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt]
            for row in a]


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b):
        raise ValueError("hstack row mismatch")
    return [ra + rb for ra, rb in zip(a, b)]


def from_columns(cols: Iterable[Iterable], nrows: int) -> Matrix:
    cols = [list(c) for c in cols]
    for c in cols:
        if len(c) != nrows:
            raise ValueError("column length mismatch")
    return [[Fraction(c[r]) for c in cols] for r in range(nrows)]


def rank(m: Matrix) -> int:
    return len(_echelon(m)[1])


def nullspace(m: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of {x : m x = 0}; one vector per free column.  `ncols` names
    the vector length when m has no rows."""
    nc = len(m[0]) if m else (ncols or 0)
    rows, pivots = _echelon(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(nc):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            if row[f]:
                v[c] = Fraction(-row[f], row[c])
        basis.append(v)
    return basis


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b for X when a has full column rank; None if inconsistent."""
    nr, nc = shape(a)
    nrb, ncb = shape(b)
    if nr != nrb:
        raise ValueError("solve shape mismatch")
    rows, pivots = _echelon(hstack(a, b))
    if pivots and pivots[-1] >= nc:
        return None  # a pivot landed in the b block: inconsistent
    if len(pivots) < nc:
        raise ValueError("solve requires full column rank")
    x = zeros(nc, ncb)
    for row, c in zip(rows, pivots):
        for k in range(ncb):
            x[c][k] = Fraction(row[nc + k], row[c])
    return x


def column_span_contains(basis: Matrix, vectors: Matrix) -> bool:
    """Whether every column of `vectors` lies in the column span of `basis`."""
    return rank(hstack(basis, vectors)) == rank(basis)
