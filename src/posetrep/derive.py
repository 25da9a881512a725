"""Derivation of the exact weight conditions of an indecomposable
representation, region simplification/comparison (exact certificates,
then one simplex tableau per region for the questions they leave), and
the condition tables (bundled reference corpus plus generated output).

The derivation walks the representation down to a degenerate one:

  1. elements with zero dimension are deleted (their weight entry becomes
     unconstrained),
  2. chain-adjacent elements with equal dimension are merged and their
     weight forms summed,
  3. elements whose dimension equals the ambient one are deleted and their
     form subtracted from the gamma form,
  4. an empty poset terminates with the equality "gamma form = 0",
  5. otherwise the state is non-degenerate: the downward Coxeter transform
     is applied to the dimensions and the symbolic weight, and strict
     positivity of each newly created branch-tail form is emitted.

Steps 1-3 are one reduction pass, `core._reduce`: zeros fire, then
merges, then fulls, each branch-major.  The trace records the pass's
`core.Finding`s as they are, and `core.classify_degeneracy` reports those
of the first pass.  A position is one of the state its rule fired in: a
zero's in the branch as given, a merge's once the zeros and earlier
merges are done, a full's once all merges are done.  Whether d is an
indecomposable dimension vector at all is decided by the Tits form
(`roots._is_root`), and the number of positive roots, in closed form,
bounds the number of transforms; the walk builds no root.
Positivity of the transformed gamma form is implied by the branch tails,
so it is never emitted, and reductions emit no inequalities at all.

The walk is compiled once per (poset, d) by `_criterion`, the one way
into it.  The first reduction pass runs on d's dimensions alone and fixes
which variables sum into each reduced element and which full variables
leave gamma.  The reduction and the transform are linear in the forms,
and which rule fires depends on the dimensions alone, so the rest of the
descent depends only on the reduced state (d0, dims): it runs once per
state on local unit rows, one per reduced element and one for gamma,
memoised in `_descent`.  Its rows stay local until they are output: the
conditions and a trace's tails are substituted back over the poset's
variables (`Criterion.lift`), and the numeric lift evaluates them at the
weight pushed through the first pass (`Criterion.point`).

A condition is one row from the walk to the LP: primitive integers over
`PrimitivePoset.variable_keys()` (gamma last), an equality's first nonzero
one positive: `linalg._primitive_row`, the rule by which `core.Condition`
canonicalises its form.  The walk dedups these rows; `_form` builds a
`LinearForm` only for what is returned, and enters it into a `Condition`
as it is (`Condition._canonical`).  `_rows` turns a public region
operation's `ConditionSet`s into rows once.  The downward transform runs
on the walk's plain int dimensions (`coxeter._fminus_dims`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import accumulate, chain, islice
from operator import add, itemgetter, mul, neg, sub
from typing import Iterable, Sequence, Union

from . import lp
from .core import (
    EQ_ZERO,
    GAMMA_KEY,
    LT_ZERO,
    Condition,
    ConditionSet,
    DimVector,
    Finding,
    LinearForm,
    PosetRepError,
    PrimitivePoset,
    ShapeMismatch,
    Weight,
    _dim_string,
    _reduce,
    classify_degeneracy,
    format_dim_string,
    key_order,
    trace_condition,
)
from .coxeter import NegativeEntry, _fminus_dims, _phiminus_forms
from .linalg import _echelon, _eliminate, _primitive, _primitive_row, _scaled
from .roots import (_is_root, _root_count, dim_to_root, enumerate_indec_dims,
                    require_finite_type)


class NotInEnumeration(PosetRepError):
    """Dimension vector is not an indecomposable one for this poset."""


class OrbitEscape(PosetRepError):
    """The downward transform left the valid region or failed to terminate."""


class MalformedTrace(PosetRepError):
    """A derivation trace that does not end in its terminal equality."""


class CorpusMissing(PosetRepError):
    """The reference table corpus could not be loaded."""


@dataclass(frozen=True)
class ApplyPhiMinus:
    emitted: tuple[LinearForm, ...]


@dataclass(frozen=True)
class Terminal:
    equality: Condition


TraceStep = Union[Finding, ApplyPhiMinus, Terminal]


@dataclass(frozen=True)
class DerivationTrace:
    steps: tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        if not (self.steps and isinstance(self.steps[-1], Terminal)):
            raise MalformedTrace("a derivation trace must end in its terminal equality")


def step_to_json(step: TraceStep) -> dict:
    if isinstance(step, Finding):
        return {"step": step.kind, "branch": step.branch, "index": step.index}
    if isinstance(step, ApplyPhiMinus):
        return {"step": "phi_minus", "emitted": [f.to_json() for f in step.emitted]}
    return {"step": "terminal", "equality": step.equality.to_json()}


class _Row(tuple):
    """An integer form: its coefficients over the local variables of a
    `_descent`, with elementwise + and -, so that `core._reduce` and
    `coxeter._phiminus_forms` run on it as on a `LinearForm`."""

    __slots__ = ()

    def __add__(self, other: "_Row") -> "_Row":
        return _Row(map(add, self, other))

    def __sub__(self, other: "_Row") -> "_Row":
        return _Row(map(sub, self, other))


IntRow = tuple[int, ...]
RowCondition = tuple[IntRow, str]


def _condition_row(form: Iterable[int], rel: str) -> RowCondition:
    """form = 0 or form < 0 as a primitive row, canonical as in `Condition`."""
    return tuple(_primitive_row(list(form), rel == EQ_ZERO)), rel


def _form(keys, row) -> LinearForm:
    """The form with integer coefficients row over keys, which are valid
    and in key order (`PrimitivePoset.variable_keys`)."""
    return LinearForm._ordered(tuple((k, v) for k, v in zip(keys, row) if v))


class _Exceeded(Exception):
    """A `_descent` that ran past its step bound."""


@lru_cache(maxsize=1024)
def _descent(
    d0: int, dims: tuple[tuple[int, ...], ...], bound: int
) -> tuple[tuple, tuple, tuple]:
    """The descent from the reduced state (d0, dims), with at most bound + 1
    downward transforms, on local unit rows: one per element of dims,
    branch-major, then gamma.

    Returns its distinct conditions (`_condition_row`) in emission order,
    the equality last; its trace steps, a transform's as its tail rows;
    and its states, each (d0, dims, branch rows, gamma row, reduced dims)
    as it stood before its reduction pass, (d0, dims) itself first.  Which
    rule fires depends on the dimensions alone, so every walk that reaches
    (d0, dims) shares this descent (`_criterion`).  A failed descent raises,
    OrbitEscape or `_Exceeded`, and is not cached; `cache_clear` empties
    the memo."""
    zero = (0,) * sum(map(len, dims))
    units = iter(_Row(zero[:i] + (1,) + zero[i:]) for i in range(len(zero) + 1))
    forms = tuple(tuple(next(units) for _ in b) for b in dims)
    gamma = next(units)
    conditions: dict[RowCondition, None] = {}
    steps: list[Finding | tuple[_Row, ...]] = []
    states = [(d0, dims, forms, gamma, dims)]
    for _ in range(bound + 1):
        if not dims:
            conditions[_condition_row(gamma, EQ_ZERO)] = None
            return tuple(conditions), tuple(steps), tuple(states)
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
        state = (d0, dims, forms, gamma)
        dims, forms, gamma, findings = _reduce(*state)
        states.append(state + (dims,))
        steps.extend(findings)
    raise _Exceeded


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask >= 0."""
    return [v for v, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _not_indecomposable(p: PrimitivePoset, d: DimVector) -> NotInEnumeration:
    return NotInEnumeration(
        f"{format_dim_string(d)} is not an indecomposable dimension vector of {p.branches}")


@dataclass(frozen=True, slots=True)
class Criterion:
    """The descent of one (poset, d), compiled once (`_criterion`): its
    condition rows over keys with their relations, in `ConditionSet`
    order; the `_descent` entry of d's reduced state; and the first pass
    as owner, where each variable reads its coefficient in a local row
    padded with (-gamma, 0): at its element, at gamma (-3), at -gamma
    when full (-2), at 0 when zero (-1)."""

    keys: tuple[str, ...]
    conditions: tuple[RowCondition, ...]
    descent: tuple[tuple, tuple, tuple]
    owner: tuple[int, ...]

    def lift(self, row: IntRow) -> IntRow:
        """A local row substituted back over keys: its coefficient c on an
        element lands on every variable the element sums, gamma's c on
        gamma and -c on every full variable."""
        return itemgetter(*self.owner)((*row, -row[-1], 0))

    def point(self, x: list[int]) -> list[int]:
        """The integer point x over keys pushed through the first pass, so
        that _dot(row, point(x)) == _dot(lift(row), x) for a local row."""
        sums = [0] * (len(self.descent[2][0][3]) + 2)  # local row, then the pads
        for k, v in zip(self.owner, x):
            sums[k] += v
        *local, gamma, full, _ = sums
        return [*local, gamma - full]

    def violated(self, x: list[int]) -> tuple[Condition, ...]:
        """The conditions that fail at the integer point x of a weight that
        fits the poset (`_integer_point`), in order."""
        return tuple(Condition._canonical(_form(self.keys, row), rel)
                     for row, rel in self.conditions
                     if (_dot(row, x) != 0 if rel == EQ_ZERO else _dot(row, x) >= 0))


@lru_cache(maxsize=1024)
def _criterion(p: PrimitivePoset, d: DimVector) -> Criterion:
    """The descent of (p, d), compiled once, after p's scope and whether d
    is a chain-monotone root (`roots._is_root`) are checked.

    The first reduction pass runs on d's dimensions with one bit per
    variable as the forms: it fixes which variables sum into each reduced
    element (disjoint, nonempty sets) and which full variables leave
    gamma.  The rest is the memoised `_descent` from the reduced state,
    whose condition rows are substituted back (`Criterion.lift`).  The
    substitution is linear and injective and keeps a row's gcd, so the
    descent's dedup, order and primitive rows survive; only the
    equality's sign is normalised again.  Holds no `LinearForm` and no
    `Finding` of its own; `cache_clear` empties it."""
    require_finite_type(p)
    if not (d.fits(p) and d.is_admissible(p) and _is_root(d.d0, d.branches)):
        raise _not_indecomposable(p, d)
    forms = tuple(tuple(1 << v for v in range(end - k, end))
                  for k, end in zip(p.branches, accumulate(p.branches)))
    dims, masks, fulls, _ = _reduce(d.d0, d.branches, forms, 0)
    # at most |Phi+| transforms, each followed by a reduction pass
    bound = _root_count(p.branches)
    try:
        descent = _descent(d.d0, dims, bound)
    except _Exceeded:
        raise OrbitEscape(
            f"descent from {format_dim_string(d)} exceeded {bound} steps") from None

    owner = [-1] * p.n + [-3]
    for k, mask in enumerate(chain.from_iterable(masks)):
        for v in _bits(mask):
            owner[v] = k
    for v in _bits(-fulls):
        owner[v] = -2
    c = Criterion(p._variable_keys, (), descent, tuple(owner))
    *strict, (equality, _) = descent[0]
    conditions = [(c.lift(row), rel) for row, rel in strict]
    conditions.append(_condition_row(c.lift(equality), EQ_ZERO))
    return replace(c, conditions=tuple(conditions))


def _raw_conditions(p: PrimitivePoset, d: DimVector) -> ConditionSet:
    """The conditions of `derive_conditions`, without its trace."""
    c = _criterion(p, d)
    return ConditionSet(Condition._canonical(_form(c.keys, row), rel)
                        for row, rel in c.conditions)


def derive_conditions(
    p: PrimitivePoset, d: DimVector
) -> tuple[ConditionSet, DerivationTrace]:
    """Exact weight conditions for the indecomposable with dimensions d,
    and their trace: d's first-pass findings (`core.classify_degeneracy`),
    then the steps of its `_descent`, a transform's tails substituted
    back."""
    cs = _raw_conditions(p, d)
    c = _criterion(p, d)
    trace = [*classify_degeneracy(p, d)]
    trace += [s if isinstance(s, Finding) else
              ApplyPhiMinus(tuple(_form(c.keys, c.lift(t)) for t in s)) for s in c.descent[1]]
    return cs, DerivationTrace((*trace, Terminal(cs.equalities[0])))  # the one equality


# --- the descent compiled to integer rows ---------------------------------


def _dot(row: IntRow, x: list[int]) -> int:
    return sum(map(mul, row, x))


def _integer_point(w: Weight) -> tuple[list[int], int]:
    """w times the lcm L of its denominators, as integers in variable order
    (`PrimitivePoset.variable_keys`), and L."""
    scale, x = _scaled([*(a for b in w.alphas for a in b), w.gamma])
    return x, scale


def _trace_row(x: list[int]) -> IntRow:
    """The trace form sum_i a_i r_i - g r0 at the integer point x of a
    weight (`_integer_point`), as a row over root coordinates
    (`roots.dim_to_root`): zero at a dimension vector exactly when the
    weight meets its trace equality."""
    return (-x[-1], *x[:-1])


# --- LP-backed region operations ------------------------------------------
#
# A region lives in the open positive orthant of the weights, up to scale.
# Its LP is stated homogeneously on rows (c, c_g): with x = y + s*1, y >= 0,
# a strict condition c.x + c_g*g < 0 tightened by the slack s becomes
# c.y + (sum(c) + 1)*s + c_g*g <= 0, so x_v >= s needs no row of its own,
# every right-hand side is 0 and the scale is fixed by the one row g = 1.


def _rows(var_keys: list[str], c: ConditionSet) -> tuple[list[list[int]], list[list[int]]]:
    """The strict and the equality rows of c over var_keys, then g.
    Canonical forms store integer coefficients as ints, so the rows are
    those coefficients, built from the sparse ones: most of a row is zero."""
    index = {k: i for i, k in enumerate([*var_keys, GAMMA_KEY])}
    strict, equal = [], []
    for q in c:
        row = [0] * len(index)
        for k, v in q.form._items:
            row[index[k]] = v
        (equal if q.rel == EQ_ZERO else strict).append(row)
    return strict, equal


def _max_slack(
    n: int, strict: Sequence[IntRow], equal: Sequence[IntRow]
) -> list[Fraction] | None:
    """Maximise the common slack s of {f + s <= 0 for f in strict, x_v >= s}
    over {f = 0 for f in equal, g = 1, x >= 0}, with s <= 1, as the LP in
    (y, s, g) above; n is the number of x_v.

    Returns the maximising x when the best slack is positive, an interior
    point of the region, and None when the region is empty.
    """
    zeros = [0] * n
    a_ub = [[*r[:n], sum(r[:n]) + 1, r[n]] for r in strict]
    a_ub.append(zeros + [1, -1])  # s <= g
    a_eq = [[*r[:n], sum(r[:n]), r[n]] for r in equal]
    a_eq.append(zeros + [0, 1])  # g = 1
    b_eq = [0] * len(a_eq)
    b_eq[-1] = 1
    res = lp.solve_lp(zeros + [1, 0], a_ub, [0] * len(a_ub), a_eq, b_eq)
    if res.status != lp.OPTIMAL or res.value <= 0:
        return None
    s = res.x[n]
    return [y + s if y else s for y in res.x[:n]]


def _sorted_var_keys(cs_vars: set[str]) -> list[str]:
    return sorted(cs_vars - {GAMMA_KEY}, key=key_order)


def interior_point(c: ConditionSet, p: PrimitivePoset) -> Weight | None:
    """A strictly feasible rational weight of p with gamma = 1 and maximin
    slack, or None when the region is empty.  Raises ShapeMismatch when c
    has a variable outside p."""
    keys = p.variable_keys()
    outside = sorted(c.variables() - set(keys), key=key_order)
    if outside:
        raise ShapeMismatch(f"variables {outside} outside poset {p.branches}")
    point = _max_slack(p.n, *_rows(keys[:-1], c))
    if point is None:
        return None
    entries = iter(point)
    return Weight(tuple(tuple(islice(entries, k)) for k in p.branches), Fraction(1))


# --- exact certificates that settle a region question without an LP ------
#
# An interior point z of a region (g = 1) keeps a strict row i when the ray
# from z along the row's normal, projected onto the null space of the
# equality rows, meets row i strictly before every other row and every
# coordinate hyperplane: just past that hit is a positive point that meets
# every equality, violates row i and strictly satisfies every other row
# (Clarkson 1994 finds the facets of a polytope by such ray shooting).


def _project(row: Sequence[int], basis: list[list[int]]) -> list[int]:
    """A positive multiple of row projected orthogonally off the span of
    basis, whose rows are mutually orthogonal integer rows."""
    for u in basis:
        f = _dot(u, row)
        if f:
            row = _eliminate(row, _dot(u, u), f, u, [j for j, v in enumerate(u) if v])
    return list(row)


def _orthogonal(rows: list[Sequence[int]]) -> list[list[int]]:
    """A basis of the span of rows, mutually orthogonal, as integer rows
    (fraction-free Gram-Schmidt)."""
    basis: list[list[int]] = []
    for row in rows:
        row = _project(row, basis)
        if any(row):
            basis.append(row)
    return basis


def _homogeneous(x: Sequence[Fraction]) -> list[int]:
    """The point x with g = 1, times the lcm of its denominators, as
    integers with g last: each row's value there has the sign of its
    value at x."""
    scale, xs = _scaled(x)
    xs.append(scale)
    return xs


def _strictly_inside(xs: list[int], strict: Sequence[IntRow], equal: Sequence[IntRow]) -> bool:
    """Whether the point of `_homogeneous` xs satisfies every row of strict
    strictly and every row of equal."""
    return all(_dot(r, xs) < 0 for r in strict) and all(_dot(r, xs) == 0 for r in equal)


def _ray_hits(
    strict: Sequence[IntRow], equal: Sequence[IntRow], z: list[Fraction]
) -> dict[int, tuple[list[int], Fraction]]:
    """The strict rows that the ray from the interior point z keeps, each
    as i -> (v, t): v is the ray's integer direction (0 at g), and z + t*v
    lies between the hit of row i and the next hit, or at twice the
    distance of the hit when nothing else is hit."""
    zs = _homogeneous(z)
    scale = zs[-1]
    basis = _orthogonal([r[:-1] for r in equal])
    supports = [[(j, v) for j, v in enumerate(r) if v] for r in strict]
    # scale times each row's value at z: negative, as z is interior.  The
    # ray zs + t*v meets row j at t = -at_z[j] / rate[j] when rate[j] > 0,
    # and coordinate k at t = zs[k] / -v[k] when v[k] < 0.
    at_z = [sum(a * zs[j] for j, a in s) for s in supports]
    hits = {}
    for i, r in enumerate(strict):
        v = _project(r[:-1], basis) + [0]  # the ray keeps g at 1
        rates = [sum(a * v[j] for j, a in s) for s in supports]
        num, den = -at_z[i], rates[i]
        if den <= 0:
            continue  # row i is constant along the equalities
        others = [(-a, r) for j, (a, r) in enumerate(zip(at_z, rates)) if r > 0 and j != i]
        others += [(x, -u) for x, u in zip(zs, v) if u < 0]
        # the hit of row i at num/den must come strictly first; nxt is the
        # earliest other hit
        nxt = None
        for hit in others:
            if hit[0] * den <= num * hit[1]:
                break
            if nxt is None or hit[0] * nxt[1] < nxt[0] * hit[1]:
                nxt = hit
        else:
            t = Fraction(num, den)
            t = (t + Fraction(*nxt)) / 2 if nxt else 2 * t
            hits[i] = (v, t / scale)
    return hits


def _normal_forms(rows: Sequence[IntRow], span: list[list[int]], pivots: list[int]) -> list:
    """Each row reduced modulo the span of the equality rows, given by the
    rows and pivots of their `_echelon`: a primitive integer row, equal
    for two rows exactly when one is a positive multiple of the other
    modulo the span."""
    supports = [[j for j, v in enumerate(prow) if v] for prow in span]
    out = []
    for r in rows:
        row = _primitive(list(r))
        for prow, col, nz in zip(span, pivots, supports):
            if row[col]:
                row = _eliminate(row, prow[col], row[col], prow, nz)
        out.append(tuple(row))
    return out


def _maxima(
    n: int, objectives: Sequence[IntRow], strict: Sequence[IntRow], equal: Sequence[IntRow]
) -> list[lp.LpResult]:
    """The maximum of each objective row over the closure of a nonempty
    region, {f <= 0 for f in strict, f = 0 for f in equal, x >= 0, g = 1},
    from one tableau; n is the number of x_v.

    Let z be a strictly feasible point of the region at which the row r is
    negative.  The region implies r < 0 exactly when the maximum of r is
    finite and at most 0: if r vanished at a point of the open region, r
    would be positive just past it on the line from z.  A positive or
    unbounded maximum is met near points of the region itself."""
    b_eq = [0] * (len(equal) + 1)
    b_eq[-1] = 1
    results = lp.maximize_each(objectives, strict, [0] * len(strict),
                               [*equal, (0,) * n + (1,)], b_eq)
    if results and results[0].status == lp.INFEASIBLE:
        raise lp.LpError("the closure of a nonempty region is empty")
    return results


def _implied(res: lp.LpResult) -> bool:
    """Whether a maximum of `_maxima` shows its row implied."""
    return res.status == lp.OPTIMAL and res.value <= 0


def _merged(
    n: int, rows: Sequence[IntRow], equal: Sequence[IntRow]
) -> tuple[int, Sequence[IntRow], Sequence[IntRow]]:
    """The system with the x-columns that are equal in every row, the
    equalities too, merged into one, in sorted order; n counts the x_v, and
    g is never merged.  A merged column stands for the sum of its
    variables, which maps the open positive orthant onto its own, and every
    row factors through the sum, so each region question keeps its answer.
    Only repeated columns go, so rows stay distinct and primitive."""
    columns = list(zip(*rows, *equal))
    distinct = set(columns[:n])
    if len(distinct) == n:
        return n, rows, equal
    merged = list(zip(*sorted(distinct), columns[n]))
    return len(distinct), merged[:len(rows)], merged[len(rows):]


def _kept(n: int, rows: Sequence[IntRow], equal: Sequence[IntRow]) -> list[int]:
    """The indices of the strict rows that `simplify` keeps; n counts the
    x_v.  Every question is asked of the `_merged` system."""
    if not rows:
        return []
    n, rows, equal = _merged(n, rows, equal)
    z = _max_slack(n, rows, equal)
    certified = _ray_hits(rows, equal, z) if z is not None else {}
    open_rows = [i for i in range(len(rows)) if i not in certified]
    if z is not None:
        # one tableau over the ray-kept rows, a subset of every rest below
        maxima = dict(zip(open_rows, _maxima(
            n, [rows[i] for i in open_rows], [rows[j] for j in certified], equal)))
    kept = list(range(len(rows)))
    for i in open_rows:
        rest = [rows[j] for j in kept if j != i]
        if z is None:  # an empty region: row i is implied when rest is empty
            implied = _max_slack(n, rest, equal) is None
        else:
            implied = _implied(maxima[i]) or _implied(_maxima(n, [rows[i]], rest, equal)[0])
        if implied:
            kept.remove(i)
    return kept


def simplify(c: ConditionSet) -> ConditionSet:
    """Drop duplicate conditions and inequalities implied by the rest of
    the system together with base positivity; the region is unchanged.

    An inequality is kept when the rest with the inequality reversed has a
    strictly feasible point.  Each question is asked with the equal
    columns merged (`_merged`).  A row the ray from the interior point z
    keeps needs no LP.  The other rows get their maxima over the closure of
    the ray-kept rows from one tableau (`_maxima`): a maximum at most 0
    drops the row; any other row gets its maximum over the rest.  In an
    empty region the rest with a row reversed is the rest itself, so a row
    is dropped when the rest is empty (`_max_slack`)."""
    var_keys = _sorted_var_keys(c.variables())
    inequalities = c.inequalities
    kept = _kept(len(var_keys), *_rows(var_keys, c))
    return ConditionSet([inequalities[j] for j in kept] + list(c.equalities))


def regions_equivalent(c1: ConditionSet, c2: ConditionSet) -> bool:
    """Whether the two solution sets inside the open positive orthant
    (with gamma normalised to 1) coincide.

    Equal sets of canonical conditions define one set, so they are
    settled before any row is built.  A strict row's sign on the equality
    span is that of its normal form modulo the span (`_normal_forms`).
    So when the two equality spans
    agree and so do the two sets of normal forms, the two systems define
    one set, empty or not, and no LP is solved.  Otherwise the first
    region's interior point, when it lies inside the second, shows the
    second nonempty.  Once the spans agree, a strict row whose normal form
    the other side holds is implied there and needs no LP.  The other rows
    of a side get their maxima over the other side's rows from one tableau
    (`_maxima`).  Its criterion needs no interior point here: both regions
    are nonempty in one affine span, so a row negative on one of them is
    not constant on that span, and a maximum at most 0 over the other
    shows it negative there too."""
    if c1 == c2:
        return True
    var_keys = _sorted_var_keys(c1.variables() | c2.variables())
    n = len(var_keys)
    strict1, equal1 = _rows(var_keys, c1)
    strict2, equal2 = _rows(var_keys, c2)
    span = _echelon(equal1)
    same_span = span == _echelon(equal2)
    if same_span:
        forms1 = _normal_forms(strict1, *span)
        forms2 = _normal_forms(strict2, *span)
        held1, held2 = set(forms1), set(forms2)
        if held1 == held2:
            return True
    z1 = _max_slack(n, strict1, equal1)
    nonempty1 = z1 is not None
    if nonempty1 and _strictly_inside(_homogeneous(z1), strict2, equal2):
        nonempty2 = True
    else:
        nonempty2 = _max_slack(n, strict2, equal2) is not None
    if not nonempty1 and not nonempty2:
        return True
    if nonempty1 != nonempty2 or not same_span:
        return False
    # one tableau per side for the rows the other side does not hold
    for rows, forms, strict, equal, held in ((strict1, forms1, strict2, equal2, held2),
                                            (strict2, forms2, strict1, equal1, held1)):
        open_rows = [row for row, form in zip(rows, forms) if form not in held]
        if not all(map(_implied, _maxima(n, open_rows, strict, equal))):
            return False
    return True


# --- weight checking and tables -------------------------------------------


@dataclass(frozen=True)
class Verdict:
    admissible: bool
    violated: tuple[Condition, ...]


def check_weight(p: PrimitivePoset, d: DimVector, w: Weight) -> Verdict:
    """Exact evaluation of the derived conditions at w.

    A poset outside `roots.require_finite_type` is refused first, then a d
    that is not chain-monotone, whatever w.  The necessary trace equality
    is checked next in O(n) (`_trace_row`); when it fails the derivation
    is skipped entirely, for any d, root or not: no representation with
    dimensions d has weight w.  Otherwise the conditions
    are those of the cached `_criterion`, whose integer rows are evaluated
    at w scaled to integers, once.
    """
    require_finite_type(p)
    d.require_fits(p)
    w.require_fits(p)
    if not d.is_admissible(p):
        raise _not_indecomposable(p, d)
    x, _ = _integer_point(w)
    if _dot(_trace_row(x), dim_to_root(d)):
        return Verdict(False, (trace_condition(p, d),))
    violated = _criterion(p, d).violated(x)
    return Verdict(not violated, violated)


@dataclass(frozen=True)
class TableRow:
    dim: DimVector
    conditions: ConditionSet


@dataclass(frozen=True)
class Table:
    poset: PrimitivePoset
    rows: tuple[TableRow, ...]

    def to_json(self) -> dict:
        return {
            "poset": self.poset.to_json(),
            "rows": [
                {"dim": r.dim.to_json(), "conditions": r.conditions.to_json()}
                for r in self.rows
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Table":
        poset = PrimitivePoset.from_json(obj["poset"])
        rows = tuple(
            TableRow(DimVector.from_json(r["dim"]), ConditionSet.from_json(r["conditions"]))
            for r in obj["rows"]
        )
        return cls(poset, rows)


def _table_row(p: PrimitivePoset, d: DimVector) -> ConditionSet:
    """The conditions of d after `simplify`, which runs on the walk's rows:
    `simplify(derive_conditions(p, d)[0])` without a `LinearForm` for a
    dropped row or for the trace."""
    c = _criterion(p, d)
    *strict, equality = c.conditions  # the walk emits one equality, last
    kept = [strict[j] for j in _kept(p.n, [row for row, _ in strict], [equality[0]])]
    return ConditionSet(Condition._canonical(_form(c.keys, row), rel)
                        for row, rel in kept + [equality])


def generate_table(p: PrimitivePoset) -> Table:
    """One row per indecomposable dimension vector, in enumeration order,
    with its conditions after `simplify` (`_table_row`)."""
    return Table(p, tuple(TableRow(d, _table_row(p, d)) for d in enumerate_indec_dims(p)))


ENV_CORPUS = "POSETREP_CORPUS"


def _corpus_text(path: str | None) -> str:
    if path is None:
        path = os.environ.get(ENV_CORPUS) or None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise CorpusMissing(f"cannot read corpus at {path}: {exc}") from exc
    try:
        return (
            resources.files("posetrep").joinpath("tables/paper_tables.json").read_text("utf-8")
        )
    except (FileNotFoundError, OSError) as exc:
        raise CorpusMissing(f"bundled corpus missing: {exc}") from exc


def paper_corpus(path: str | None = None) -> dict[tuple[int, ...], Table]:
    """The bundled reference tables, keyed by poset branches.

    Rows keep their published order verbatim, including empty-region rows
    and duplicated inequalities (duplicates collapse in ConditionSet).
    """
    try:
        data = json.loads(_corpus_text(path))
        tables = [Table.from_json(t) for t in data["tables"]]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise CorpusMissing(f"malformed corpus: {exc}") from exc
    return {t.poset.branches: t for t in tables}


@dataclass(frozen=True)
class VerifyRow:
    poset: tuple[int, ...]
    dim: DimVector
    equivalent: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple[VerifyRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.equivalent for r in self.rows)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for r in self.rows if r.equivalent)
        return ok, len(self.rows)


def verify_tables(corpus_path: str | None = None) -> VerifyReport:
    """Compare the derived conditions of every corpus row against the
    published ones, region by region."""
    corpus = paper_corpus(corpus_path)
    out = []
    for branches in sorted(corpus):
        table = corpus[branches]
        p = table.poset
        for row in table.rows:
            try:
                derived = _raw_conditions(p, row.dim)
                ok = regions_equivalent(derived, row.conditions)
                detail = "" if ok else "regions differ"
            except PosetRepError as exc:
                ok, detail = False, str(exc)
            out.append(VerifyRow(branches, row.dim, ok, detail))
    return VerifyReport(tuple(out))
