"""Exact linear representations of posets by nested subspaces.

A representation stores one rational basis matrix per poset element
(columns span the subspace).  Hom spaces, endomorphism rings,
brick/indecomposability tests, isomorphism testing, the round trip
through star-quiver representations, and the explicit example families
used as fixtures all live here.

Randomised decisions (indecomposability, isomorphism) take an explicit
seed, so concurrent runs stay reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import index, mul
from typing import Iterable, Mapping, Sequence

from . import linalg
from .core import (
    DimVector,
    PosetRepError,
    PrimitivePoset,
    ShapeMismatch,
    _numeral,
    require_ambient,
)

Matrix = linalg.Matrix


class RankDeficient(PosetRepError):
    """A basis matrix does not have full column rank."""


class ContainmentViolation(PosetRepError):
    """A chain subspace is not contained in its successor."""


class PosetMismatch(PosetRepError):
    """Two representations live over different posets."""


class NonMonomorphicArrow(PosetRepError):
    """A quiver arrow matrix is not injective."""


class ForbiddenParameter(PosetRepError):
    """Fixture parameter outside its allowed set."""


class HomTooLarge(PosetRepError):
    """A Hom space with more than MAX_HOM_UNKNOWNS unknowns."""


class RepTooLarge(PosetRepError):
    """A representation whose validation takes more than MAX_RANK_WORK."""


# Most entries a Hom-space map may have (ambient1 * ambient2).  Exact
# elimination on dense data grows steeply with it: on one 2 vCPU machine the
# slowest dense case found at 49 (a line mapped into 64 dense 24-dimensional
# subspaces of a 49-dimensional space) took 1.3 s, the same shape at 64 took
# 5 s and at 100 took 25 s.
MAX_HOM_UNKNOWNS = 49

# Most rank work `make_rep` takes on: the sum, over the rank computations it
# makes, of rows * cols * min(rows, cols)^2 (elimination steps times the
# growth of the fraction-free entries).  On one 2 vCPU machine the slowest
# dense files found near it (64 dense 33-dimensional subspaces of a
# 33-dimensional space) validate in about 2 s; 64 dense 50-of-100 took 5-7 s.
MAX_RANK_WORK = 80_000_000


@dataclass(frozen=True)
class SubspaceRep:
    """Subspaces of an ambient rational space, one per poset element
    (branch-major), each given by a basis matrix of full column rank."""

    poset: PrimitivePoset
    ambient: int
    bases: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def basis(self, e: int) -> Matrix:
        return [list(row) for row in self.bases[e]]

    def dims(self) -> list[int]:
        return [len(b[0]) if b else 0 for b in self.bases]


def _freeze(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def _shape(
    p: PrimitivePoset, ambient: int, bases: Sequence[Sequence[Sequence]]
) -> tuple[list[int], list[tuple[int, int]]]:
    """The column count of each basis matrix (ambient x dim, rows given as
    sequences) and the chain pairs (lower, upper) whose containment
    `make_rep` checks, after its shape checks.  Reads no entry, and
    raises RepTooLarge when the rank work of the validation, which depends
    on the shapes alone, is above MAX_RANK_WORK."""
    if len(bases) != p.n:
        raise ShapeMismatch(f"poset {p.branches} needs {p.n} bases, got {len(bases)}")
    require_ambient(ambient)
    widths = []
    for m in bases:
        if ambient == 0 or not any(m):  # every row empty: the zero subspace
            widths.append(0)
            continue
        if len(m) != ambient:
            raise ShapeMismatch(f"basis has {len(m)} rows, ambient is {ambient}")
        if any(len(r) != len(m[0]) for r in m):
            raise ShapeMismatch("ragged basis matrix")
        widths.append(len(m[0]))
    starts = accumulate(p.branches, initial=0)
    pairs = [(pos + i, pos + i + 1) for pos, k in zip(starts, p.branches) for i in range(k - 1)]
    pairs = [(lo, up) for lo, up in pairs if widths[lo]]  # a zero subspace is contained

    def work(c: int) -> int:
        return ambient * c * min(ambient, c) ** 2

    total = sum(map(work, widths)) + sum(
        work(widths[lo] + widths[up]) + work(widths[up]) for lo, up in pairs)
    if total > MAX_RANK_WORK:
        raise RepTooLarge(
            f"validating the representation takes {total} units of rank work, "
            f"above the supported {MAX_RANK_WORK}"
        )
    return widths, pairs


def make_rep(p: PrimitivePoset, ambient: int, bases: Sequence[Iterable]) -> SubspaceRep:
    """Validate and build a representation; `bases` is branch-major and a
    basis matrix is ambient x dim (columns are the spanning vectors)."""
    rows = [[list(r) for r in raw] for raw in bases]
    widths, pairs = _shape(p, ambient, rows)
    mats = [linalg.mat(m) if c else [[] for _ in range(ambient)] for m, c in zip(rows, widths)]
    for e, (m, ncols) in enumerate(zip(mats, widths)):
        if linalg.rank(m) != ncols:
            raise RankDeficient(f"basis of element {e} has rank < {ncols}")
    for lo, up in pairs:
        if not linalg.column_span_contains(mats[up], mats[lo]):
            raise ContainmentViolation(f"element {lo} is not contained in its successor")
    return SubspaceRep(p, ambient, tuple(_freeze(m) for m in mats))


def dim_vector(rep: SubspaceRep) -> DimVector:
    ds = rep.dims()
    branches = []
    pos = 0
    for k in rep.poset.branches:
        branches.append(tuple(ds[pos : pos + k]))
        pos += k
    return DimVector(rep.ambient, tuple(branches))


def rep_to_json(rep: SubspaceRep) -> dict:
    return {
        "poset": rep.poset.to_json(),
        "ambient": rep.ambient,
        "bases": [[[str(x) for x in row] for row in b] for b in rep.bases],
    }


def rep_from_json(obj: Mapping) -> SubspaceRep:
    try:
        p = PrimitivePoset.from_json(obj["poset"])
        ambient = index(obj["ambient"])
        raw = obj["bases"]
        # the rank work depends on the shapes alone: a file too large to
        # validate is refused before any numeral is converted
        _shape(p, ambient, raw)
        bases = [[[_numeral(x) for x in row] for row in b] for b in raw]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise PosetRepError(f"malformed representation: {exc}") from exc
    return make_rep(p, ambient, bases)


def direct_sum(r1: SubspaceRep, r2: SubspaceRep) -> SubspaceRep:
    """Block construction V + W with elementwise subspace sums."""
    if r1.poset != r2.poset:
        raise PosetMismatch(f"{r1.poset.branches} vs {r2.poset.branches}")
    ambient = r1.ambient + r2.ambient
    bases = []
    for b1, b2 in zip(r1.bases, r2.bases):
        m1, m2 = [list(r) for r in b1], [list(r) for r in b2]
        c1 = len(m1[0]) if m1 else 0
        c2 = len(m2[0]) if m2 else 0
        top = [list(r) + [Fraction(0)] * c2 for r in (m1 or [[]] * r1.ambient)]
        bot = [[Fraction(0)] * c1 + list(r) for r in (m2 or [[]] * r2.ambient)]
        top = top if r1.ambient else []
        bot = bot if r2.ambient else []
        bases.append(top + bot)
    return make_rep(r1.poset, ambient, bases)


def hom_space(r1: SubspaceRep, r2: SubspaceRep) -> list[Matrix]:
    """Basis of {C : C(V_e) inside W_e for all e}, by exact nullspace of
    the stacked constraints L_e C B_e = 0 with L_e the left annihilator
    of W_e.  Each constraint row is built on integers, from an annihilator
    vector and a column of B_e each scaled to a primitive integer vector:
    a positive multiple of the rational row, with the same row space."""
    if r1.poset != r2.poset:
        raise PosetMismatch(f"{r1.poset.branches} vs {r2.poset.branches}")
    a1, a2 = r1.ambient, r2.ambient
    nunk = a2 * a1
    if nunk > MAX_HOM_UNKNOWNS:
        raise HomTooLarge(
            f"a Hom space between ambient dimensions {a1} and {a2} has {nunk} "
            f"unknowns, above the supported {MAX_HOM_UNKNOWNS}"
        )
    if nunk == 0:
        return []
    rows: list[list[int]] = []
    for e in range(r1.poset.n):
        b = r1.basis(e)
        if not b[0]:
            continue
        w = r2.basis(e)
        annihilator = [linalg._int_row(l)
                       for l in linalg.nullspace(linalg.transpose(w), ncols=a2)]
        cols = [linalg._int_row(col) for col in linalg.transpose(b)]
        for l in annihilator:
            for col in cols:
                rows.append([ls * x for ls in l for x in col])
    basis = linalg.nullspace(rows, ncols=nunk)
    return [[v[s * a1 : (s + 1) * a1] for s in range(a2)] for v in basis]


def end_dim(rep: SubspaceRep) -> int:
    return len(hom_space(rep, rep))


def is_brick(rep: SubspaceRep) -> bool:
    """Endomorphisms are exactly the scalars."""
    return end_dim(rep) == 1


def _integer_basis(basis: list[Matrix]) -> list[list[list[int]]]:
    """The basis matrices times one common denominator, as ints."""
    nr, nc = linalg.shape(basis[0])
    _, flat = linalg._scaled([x for m in basis for row in m for x in row])
    rows = [flat[k : k + nc] for k in range(0, len(flat), nc)]
    return [rows[k : k + nr] for k in range(0, len(rows), nr)]


def _combination(coeffs: Sequence[int], mats: list[list[list[int]]]) -> list[list[int]]:
    out = [[0] * len(mats[0][0]) for _ in mats[0]]
    for c, m in zip(coeffs, mats):
        if c == 0:
            continue
        for orow, mrow in zip(out, m):
            for j, x in enumerate(mrow):
                if x:
                    orow[j] += c * x
    return out


def _random_end_element(basis: list[list[list[int]]], rng: random.Random) -> list[list[int]]:
    coeffs = [rng.randint(-9, 9) for _ in basis]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return _combination(coeffs, basis)


def _is_nilpotent(m: list[list[int]]) -> bool:
    """Whether m**n = 0.  Each row of each power is divided by the gcd of
    its entries (`linalg._primitive`) before the next product.  That scales
    the power by a positive diagonal matrix on the left, which every later
    product keeps there, so the last power is zero exactly when m**n is."""
    cols = list(zip(*m))
    power = m
    for _ in range(len(m)):
        power = [[sum(map(mul, row, col)) for col in cols]
                 for row in map(linalg._primitive, power)]
    return not any(map(any, power))


def is_indecomposable(rep: SubspaceRep, seed: int = 0, rounds: int = 16) -> bool:
    """Randomised locality test on the endomorphism ring.

    An endomorphism with two distinct complex eigenvalues yields a
    nontrivial idempotent (a spectral projector, polynomial in the
    element), so the representation is decomposable.  A random element T
    is sampled per round and checked exactly: T has a single eigenvalue
    iff T - (tr T / n) I is nilpotent.  Surviving all rounds is strong
    randomised evidence of indecomposability, never a proof.  T is drawn
    as an integer multiple of the endomorphism, which changes neither test.
    """
    if rep.ambient == 0:
        return False
    basis = hom_space(rep, rep)
    if len(basis) == 1:
        return True
    ints = _integer_basis(basis)
    rng = random.Random(seed)
    n = rep.ambient
    for _ in range(rounds):
        t = _random_end_element(ints, rng)
        trace = sum(t[i][i] for i in range(n))
        shifted = [[n * x - (trace if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(t)]
        if not _is_nilpotent(shifted):
            return False
    return True


def are_isomorphic(r1: SubspaceRep, r2: SubspaceRep, seed: int = 0,
                   trials: int = 32) -> bool:
    """Polynomial-identity test for an invertible intertwiner.

    det(sum x_i C_i) over a Hom basis {C_i} is tested at `trials` random
    integer points drawn from a sample set of size 10**6; a nonzero
    determinant, which is a full `linalg.rank`, certifies an isomorphism,
    and surviving all trials bounds the false-negative probability by
    (ambient/10**6)**trials.  The C_i are scaled by one common
    denominator, which leaves every determinant's zero set unchanged.
    """
    if r1.poset != r2.poset:
        raise PosetMismatch(f"{r1.poset.branches} vs {r2.poset.branches}")
    if dim_vector(r1) != dim_vector(r2):
        return False
    if r1.ambient == 0:
        return True
    basis = hom_space(r1, r2)
    if not basis:
        return False
    ints = _integer_basis(basis)
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randint(1, 10**6) for _ in basis]
        if linalg.rank(_combination(coeffs, ints)) == r1.ambient:
            return True
    return False


@dataclass(frozen=True)
class QuiverRep:
    """Star-quiver representation: vertex dimensions plus one matrix per
    arrow, stored branch-major as (A_{1->2}, ..., A_{k-1->k}, A_{k->centre})."""

    poset: PrimitivePoset
    dims: DimVector
    chain_maps: tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]

    def monomorphism_flags(self) -> tuple[tuple[bool, ...], ...]:
        flags = []
        for branch in self.chain_maps:
            row = []
            for m in branch:
                mm = [list(r) for r in m]
                ncols = len(mm[0]) if mm else 0
                row.append(linalg.rank(mm) == ncols)
            flags.append(tuple(row))
        return tuple(flags)


def to_quiver_rep(rep: SubspaceRep) -> QuiverRep:
    """Express each chain inclusion in the chosen bases."""
    chain_maps = []
    pos = 0
    for k in rep.poset.branches:
        maps = []
        for i in range(k - 1):
            lower, upper = rep.basis(pos + i), rep.basis(pos + i + 1)
            ncols_l = len(lower[0]) if lower else 0
            ncols_u = len(upper[0]) if upper else 0
            if ncols_l == 0:
                maps.append([[] for _ in range(ncols_u)] if ncols_u else [])
                continue
            x = linalg.solve(upper, lower)
            if x is None:  # containment is validated at construction
                raise ContainmentViolation(
                    f"element {pos + i} is not contained in its successor"
                )
            maps.append(x)
        maps.append(rep.basis(pos + k - 1))
        chain_maps.append(tuple(_freeze(m) if m else () for m in maps))
        pos += k
    return QuiverRep(rep.poset, dim_vector(rep), tuple(chain_maps))


def from_quiver_rep(q: QuiverRep) -> SubspaceRep:
    """Rebuild subspaces as images of the path compositions into the
    centre; every arrow matrix must be injective."""
    for j, flags in enumerate(q.monomorphism_flags(), start=1):
        for i, injective in enumerate(flags, start=1):
            if not injective:
                raise NonMonomorphicArrow(f"arrow {i} of branch {j} is not injective")
    ambient = q.dims.d0
    bases = []
    for j, k in enumerate(q.poset.branches):
        branch = [[list(r) for r in m] for m in q.chain_maps[j]]
        dims_j = q.dims.branches[j]
        for i in range(k):
            m = branch[-1]
            for step in reversed(branch[i:-1]):
                m = linalg.matmul(m, step) if step and m else []
            if dims_j[i] == 0:
                bases.append([[] for _ in range(ambient)] if ambient else [])
            else:
                bases.append(m)
    return make_rep(q.poset, ambient, bases)


# --- explicit example families ---------------------------------------------


def _cols(vectors: Sequence[Sequence], ambient: int) -> Matrix:
    return linalg.from_columns(vectors, ambient)


def _e(i: int, n: int) -> list[Fraction]:
    return [Fraction(1) if k == i else Fraction(0) for k in range(n)]


def nonbrick_alpha(a) -> SubspaceRep:
    """Indecomposable non-brick over the width-4 antichain: two planes in
    dimension 4, the diagonal plane, and the graph of the unipotent block
    [[1, a], [0, 1]]."""
    a = Fraction(a)
    if a == 0:
        raise ForbiddenParameter("parameter must be nonzero")
    p = PrimitivePoset((1, 1, 1, 1))
    n = 4
    v1 = _cols([_e(0, n), _e(1, n)], n)
    v2 = _cols([_e(2, n), _e(3, n)], n)
    v3 = _cols([[1, 0, 1, 0], [0, 1, 0, 1]], n)
    v4 = _cols([[1, 0, 1, 0], [0, 1, a, 1]], n)
    return make_rep(p, n, [v1, v2, v3, v4])


def _family_parameter(lam) -> Fraction:
    lam = Fraction(lam)
    if lam in (0, 1):
        raise ForbiddenParameter("parameter must avoid 0 and 1")
    return lam


def family_1111(lam) -> SubspaceRep:
    """Four distinct lines in the plane: e1, e2, e1+e2, e1+lam*e2."""
    lam = _family_parameter(lam)
    p = PrimitivePoset((1, 1, 1, 1))
    return make_rep(
        p,
        2,
        [
            _cols([[1, 0]], 2),
            _cols([[0, 1]], 2),
            _cols([[1, 1]], 2),
            _cols([[1, lam]], 2),
        ],
    )


def family_222(lam) -> SubspaceRep:
    """One of the classic infinite series over (2,2,2), ambient dim 3."""
    lam = _family_parameter(lam)
    p = PrimitivePoset((2, 2, 2))
    n = 3
    return make_rep(
        p,
        n,
        [
            _cols([_e(0, n)], n),
            _cols([_e(0, n), _e(1, n)], n),
            _cols([_e(2, n)], n),
            _cols([_e(1, n), _e(2, n)], n),
            _cols([[1, 1, 1]], n),
            _cols([[1, 1, 1], [lam, 1, 0]], n),
        ],
    )


def family_332(lam) -> SubspaceRep:
    """Infinite series displayed with seven subspaces in ambient dim 4;
    the data forms a representation of (3,3,1), whose star graph is the
    extended E7 diagram."""
    lam = _family_parameter(lam)
    p = PrimitivePoset((3, 3, 1))
    n = 4
    return make_rep(
        p,
        n,
        [
            _cols([_e(0, n)], n),
            _cols([_e(0, n), _e(1, n)], n),
            _cols([_e(0, n), _e(1, n), _e(2, n)], n),
            _cols([_e(3, n)], n),
            _cols([_e(2, n), _e(3, n)], n),
            _cols([_e(1, n), _e(2, n), _e(3, n)], n),
            _cols([[1, 1, 1, 0], [lam, 0, 1, 1]], n),
        ],
    )


def family_521(lam) -> SubspaceRep:
    """Infinite series over (5,2,1) in ambient dim 6."""
    lam = _family_parameter(lam)
    p = PrimitivePoset((5, 2, 1))
    n = 6
    return make_rep(
        p,
        n,
        [
            _cols([_e(0, n)], n),
            _cols([_e(0, n), _e(1, n)], n),
            _cols([_e(0, n), _e(1, n), _e(2, n)], n),
            _cols([_e(0, n), _e(1, n), _e(2, n), _e(3, n)], n),
            _cols([_e(0, n), _e(1, n), _e(2, n), _e(3, n), _e(4, n)], n),
            _cols([_e(4, n), _e(5, n)], n),
            _cols([_e(2, n), _e(3, n), _e(4, n), _e(5, n)], n),
            _cols(
                [
                    [1, 0, 1, 1, 1, 0],
                    [lam, 0, 1, 0, 1, 1],
                    [0, 1, 0, 1, 0, 0],
                ],
                n,
            ),
        ],
    )
