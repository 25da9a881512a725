from __future__ import annotations

import ast
import random
from fractions import Fraction
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetrep import linalg

# --- oracle: Gauss-Jordan elimination on Fractions ---------------------------
#
# The elimination linalg ran before it moved to primitive integer rows,
# kept verbatim.  The reduced row echelon form depends only on the row
# space, so the integer kernel must return the same matrix, pivots,
# nullspace basis and solution, and a full rank exactly where the
# determinant is nonzero.  The oracle takes Fraction
# matrices only (on an int pivot, 1 / a[r][c] is a float); the kernel takes
# ints as well and must not tell them from equal Fractions.


def _fraction_rref(m):
    a = [row[:] for row in m]
    nr, nc = linalg.shape(a)
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def _fraction_det(m):
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in a):
        raise ValueError("det requires a square matrix")
    sign = 1
    out = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        out *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out * sign


def _oracle_nullspace(m, ncols):
    nc = len(m[0]) if m else ncols
    if not m:
        return [[Q(int(i == j)) for i in range(nc)] for j in range(nc)]
    a, pivots = _fraction_rref(m)
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        v = [Q(0)] * nc
        v[f] = Q(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return basis


def _oracle_solve(a, b):
    """(solution, None) or (None, 'inconsistent') or (None, 'rank')."""
    nc, ncb = len(a[0]), len(b[0])
    aug, pivots = _fraction_rref(linalg.hstack(a, b))
    if any(c >= nc for c in pivots):
        return None, "inconsistent"
    if len(pivots) < nc:
        return None, "rank"
    x = [[Q(0)] * ncb for _ in range(nc)]
    for r, c in enumerate(pivots):
        for k in range(ncb):
            x[c][k] = aug[r][nc + k]
    return x, None


# --- random rational matrices ----------------------------------------------------
#
# Hypothesis draws the shape, the kinds of entry and a seed; the entries
# come from that seed (drawing each entry through hypothesis made the
# tests several times slower).

_KINDS = {
    "zero": lambda rng: 0,
    "small": lambda rng: rng.randint(-3, 3),
    "fraction": lambda rng: Q(rng.randint(-35, 35), rng.randint(1, 7)),
    "large": lambda rng: Q(rng.randint(-10**40, 10**40), rng.randint(1, 10**6)),
}


@st.composite
def _matrices(draw, nrows=None, ncols=None, square=False):
    """A Fraction matrix, sometimes with a row that is a combination of two
    others and a column that is a multiple of another (rank deficiency)."""
    nr = draw(st.integers(0, 8)) if nrows is None else nrows
    nc = nr if square else draw(st.integers(0, 7)) if ncols is None else ncols
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        return Q(_KINDS[rng.choice(kinds)](rng))

    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if nc and nr > 1 and draw(st.booleans()):
        i, j, k = rng.randrange(nr), rng.randrange(nr), rng.randrange(nr)
        f, g = entry(), entry()
        rows[i] = [f * x + g * y for x, y in zip(rows[j], rows[k])]
    if nc > 1 and draw(st.booleans()):
        src, dst, scale = rng.randrange(nc), rng.randrange(nc), entry()
        for row in rows:
            row[dst] = scale * row[src]
    return rows


def _fractions_only(m):
    return all(type(x) is Fraction for row in m for x in row)


def _with_ints(m):
    """m with every integral entry as an int."""
    return [[int(x) if x.denominator == 1 else x for x in row] for row in m]


def _kernel_rref(m):
    """The nonzero rows of the reduced row echelon form as `linalg._echelon`
    reads them off its primitive integer rows, and the pivot columns."""
    rows, pivots = linalg._echelon(m)
    return [[Q(v, row[c]) for v in row] for row, c in zip(rows, pivots)], pivots


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(_matrices())
def test_rref_rank_and_row_space_match_oracle(m):
    want, want_pivots = _fraction_rref(m)
    assert _kernel_rref(m) == (want[: len(want_pivots)], want_pivots)
    assert linalg.rank(m) == (len(want_pivots) if m and m[0] else 0)
    assert linalg._echelon(_with_ints(m)) == linalg._echelon(m)


@_SETTINGS
@given(_matrices(), st.integers(0, 5))
def test_nullspace_matches_oracle(m, ncols):
    got = linalg.nullspace(m, ncols=ncols)
    assert got == _oracle_nullspace(m, ncols)
    assert _fractions_only(got)
    assert linalg.nullspace(_with_ints(m), ncols=ncols) == got
    for v in got:
        assert all(sum((x * y for x, y in zip(row, v)), Q(0)) == 0 for row in m)


@_SETTINGS
@given(st.data())
def test_solve_matches_oracle(data):
    nr = data.draw(st.integers(1, 7))
    nc = data.draw(st.integers(1, nr))
    ncb = data.draw(st.integers(1, 3))
    a = data.draw(_matrices(nrows=nr, ncols=nc))
    if data.draw(st.booleans()):  # consistent: b = a x
        x = data.draw(_matrices(nrows=nc, ncols=ncb))
        b = [[sum((a[i][t] * x[t][k] for t in range(nc)), Q(0)) for k in range(ncb)]
             for i in range(nr)]
    else:
        b = data.draw(_matrices(nrows=nr, ncols=ncb))
    want, failure = _oracle_solve(a, b)
    if failure == "rank":
        with pytest.raises(ValueError, match="full column rank"):
            linalg.solve(a, b)
        return
    got = linalg.solve(a, b)
    assert got == want
    if got is not None:
        assert _fractions_only(got)
    assert linalg.solve(_with_ints(a), _with_ints(b)) == got


@_SETTINGS
@given(_matrices(square=True))
def test_full_rank_matches_oracle_det(m):
    """A square matrix is invertible exactly when its rank is full, the
    test `linrep.are_isomorphic` makes; singular draws included."""
    invertible = _fraction_det(m) != 0
    assert (linalg.rank(m) == len(m)) == invertible
    assert (linalg.rank(_with_ints(m)) == len(m)) == invertible


def test_edge_cases():
    assert linalg._echelon([]) == linalg._echelon([[], []]) == ([], [])
    assert linalg.rank([]) == linalg.rank([[]]) == linalg.rank([[0, 0]]) == 0
    assert linalg.nullspace([[0, 0, 0]]) == _oracle_nullspace([[Q(0)] * 3], 3)
    assert linalg.nullspace([], ncols=2) == [[1, 0], [0, 1]]
    assert linalg.nullspace([[]]) == []
    # a tall matrix of full column rank: the rows after the first two are
    # never reduced
    tall = [[Q(0), Q(-2)], [Q(1, 3), Q(5)]] + [[Q(7), Q(11)]] * 5
    want, pivots = _fraction_rref(tall)
    assert _kernel_rref(tall) == (want[:2], pivots) and linalg.rank(tall) == 2
    rhs = [[Q(1)], [Q(2)]]
    assert linalg.solve(tall[:2], rhs) == _oracle_solve(tall[:2], rhs)[0]
    assert linalg.solve([[1], [1]], [[1], [2]]) is None


def test_only_linalg_imports_gcd_or_lcm():
    """linalg is the one module that scales rationals to integer rows and
    makes them primitive; no other module of the package has its own gcd
    or lcm from math."""
    users = set()
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "math":
                names = {node.attr}
            else:
                continue
            if names & {"gcd", "lcm"}:
                users.add(path.stem)
    assert users == {"linalg"}
