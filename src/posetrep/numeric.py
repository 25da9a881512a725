"""Construction of projection tuples realising an admissible weight:
orthogonal projections onto nested column spans of one orthonormal frame
per branch, whose weighted sum is the scalar matrix.

For a finite-type poset the answer is exact.  A witness is an orthogonal
direct sum of irreducible ones with the same weight; an irreducible
locally scalar representation is indecomposable (Kruglyak and Roiter,
"Locally scalar representations of graphs in the category of Hilbert
spaces", 2005), and an indecomposable one has a root dimension (Gabriel;
Kleiner for posets).  So a witness exists if and only if d is a sum of
roots, repeats allowed, at each of which the weight is admissible
(`_cover`), and then the block-diagonal sum of their witnesses is one.
The roots on the weight's trace equality at which it is admissible are
the dimension vectors of the stable representations of one slope (King,
"Moduli of representations of finite dimensional algebras", 1994), an
exceptional sequence, so they are linearly independent (Crawley-Boevey,
"Exceptional sequences of representations of quivers", 1993) and one
exact solve decides the sum.
The witness of a root is lifted from the empty representation up the
states of its descent, walked (`derive._walk`) on the weight's integers
from d itself: a reduction is undone by bookkeeping, a downward transform
by the Coxeter reflections on *-representations, rho at the centre and
then sigma on each chain.

Infinite type and posets above `roots.MAX_ELEMENTS` lie outside that
scope and are refused (`roots.require_finite_type`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
import numpy as np

from .core import (
    MAX_WEIGHT_EXPONENT,
    Condition,
    DimVector,
    PosetRepError,
    PrimitivePoset,
    ShapeMismatch,
    Weight,
    WeightOutOfRange,
    format_dim_string,
    require_ambient,
)
from . import linalg
from .derive import OrbitEscape, _criterion, _dot, _integer_point, _trace_row, _walk
from .roots import (_indec_roots, _is_root, _root_count, dim_to_root, require_finite_type,
                    root_to_dim)


class TraceObstruction(PosetRepError):
    """The necessary trace equality fails; no witness can exist."""


class InvalidBudget(PosetRepError):
    """A success tolerance that is not finite and positive."""


class NoWitness(PosetRepError):
    """No sum of roots at each of which the weight is admissible gives d: no
    witness exists.  violated holds the violated conditions of d when d is
    a root, and is empty otherwise."""

    def __init__(self, message: str, violated: tuple[Condition, ...]):
        super().__init__(message)
        self.violated = violated


class NoConvergence(PosetRepError):
    """A lifted witness whose residual misses the success tolerance; it is
    attached as best."""

    def __init__(self, message: str, best: "NumericRep"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class NumericRep:
    """Projection matrices (per element, branch-major) plus solve metadata:
    iterations counts the downward transforms the lift undid; restarts_used
    is always 0 and seed is only recorded."""

    poset: PrimitivePoset
    dims: DimVector
    weight: Weight
    projectors: tuple[np.ndarray, ...]
    residual: float
    iterations: int
    restarts_used: int
    seed: int

    def to_json(self) -> dict:
        mats = [np.stack([m.real, m.imag], axis=-1).tolist() for m in self.projectors]
        return {
            "poset": self.poset.to_json(),
            "dim": self.dims.to_json(),
            "weight": self.weight.to_json(),
            "projectors": mats,
            "residual": self.residual,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "seed": self.seed,
        }


def trace_precheck(p: PrimitivePoset, d: DimVector, w: Weight) -> None:
    """Exact O(n) necessary condition `core.trace_condition`:
    sum_i a_i d_i = g d0."""
    _trace_checked_point(p, d, w)


def _trace_checked_point(p: PrimitivePoset, d: DimVector, w: Weight) -> tuple[list[int], int]:
    """`trace_precheck`, then `derive._integer_point(w)`: w scaled once."""
    d.require_fits(p)
    w.require_fits(p)
    x, scale = _integer_point(w)
    off = Fraction(_dot(_trace_row(x), dim_to_root(d)), scale)
    if off:
        g_d0 = w.gamma * d.d0
        raise TraceObstruction(f"trace obstruction: sum a*d = {g_d0 + off} but g*d0 = {g_d0}")
    return x, scale


def _complement(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of q's columns; with
    no columns, the identity, as the QR would give it."""
    if not q.shape[1]:
        return np.eye(q.shape[0], dtype=complex)
    full, _ = np.linalg.qr(q, mode="complete")
    return full[:, q.shape[1]:]


def _projectors(p: PrimitivePoset, d: DimVector,
                frames: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    mats = []
    for j, k in enumerate(p.branches, start=1):
        q = frames[j - 1]
        for i in range(1, k + 1):
            cols = q[:, : d.entry(j, i)]
            mats.append(cols @ cols.conj().T)
    return tuple(mats)


def _residual(p: PrimitivePoset, w: Weight, projectors, n: int) -> float:
    m = -float(w.gamma) * np.eye(n, dtype=complex)
    for (j, i), proj in zip(p.elements(), projectors):
        m += float(w.entry(j, i)) * proj
    return float(np.linalg.norm(m))


def _lift(p: PrimitivePoset, d: DimVector, x: list[int],
          scale: int) -> tuple[tuple[np.ndarray, ...], int]:
    """Projectors of a witness for the root d at the admissible weight w, and
    the number of downward transforms undone; (x, scale) is
    `derive._integer_point(w)`.

    The states of `derive._walk` from d on x's integers are walked back up
    from the empty one.  Column weights and gamma are those of the state
    being left, so every step keeps sum_j Q_j diag(b_j) Q_j* = g I: exact
    integers divided once, each float the correctly rounded rational.
    """
    forms = tuple(tuple(x[end - k:end]) for k, end in zip(p.branches, accumulate(p.branches)))
    states = list(_walk(d.d0, d.branches, forms, x[-1], _root_count(p.branches)))
    frames: list[np.ndarray] = []  # the terminal state: no branches, gamma 0
    for k in reversed(range(len(states))):
        d0, dims, *_ = state = states[k][0]
        # undo the reduction: zeros add no column, merged elements share
        # their columns, a full element completes its frame to a unitary
        lifted = iter(frames)
        frames = []
        for b in dims:
            q = next(lifted) if any(0 < e < d0 for e in b) else np.zeros((d0, 0), complex)
            frames.append(np.hstack([q, _complement(q)]) if b[-1] == d0 else q)
        if k:
            col_w, gamma = _column_weights_exact(state, scale, d)
            frames = _unreflect(frames, col_w, gamma, [b[-1] for b in states[k - 1][1][0]])
    return _projectors(p, d, frames), len(states) - 1


def _column_weights_exact(state: tuple, scale: int,
                          d: DimVector) -> tuple[list[np.ndarray], float]:
    """Column weights and gamma of a state of the walk on w times scale,
    after checking exactly that 0 < b < g for every column: rho takes
    square roots of b and of g - b.  An element adds e - e_prev columns of
    weight b = a_i + ... + a_k, a suffix sum."""
    _, dims, forms, g = state
    col_w = []
    for b, branch in zip(dims, forms):
        suffix = list(accumulate(reversed(branch)))[::-1]
        counts = [e - prev for prev, e in zip((0,) + b, b)]
        if not all(0 < v < g for v, n in zip(suffix, counts) if n):
            raise OrbitEscape(
                f"lift of {format_dim_string(d)}: a column weight leaves (0, gamma)"
            )
        col_w.append(np.repeat([v / scale for v in suffix], counts))
    return col_w, g / scale


def _unreflect(frames: list[np.ndarray], col_w: list[np.ndarray], gamma: float,
               tops: tuple[int, ...]) -> list[np.ndarray]:
    """Undo one downward transform (sigma, then rho) on frames: rho, then
    sigma.  tops are the last dimensions of the branches to rebuild.

    rho: A = [Q_j diag(sqrt b_j)] has AA* = gI; with B an orthonormal basis
    of ker A, sqrt(g) B_j* has Gram diag(g - b_j), so its normalised columns
    form the new frames (in reverse column order).  sigma completes each
    frame to a unitary and reverses the column order; the completion then
    comes first and carries the first element, and the frame keeps the
    columns its last element spans.
    """
    a = np.hstack([q * np.sqrt(c) for q, c in zip(frames, col_w)])
    kernel = _complement(a.conj().T)
    out, pos = [], 0
    for c, top in zip(col_w, tops):
        v = np.sqrt(gamma) * kernel[pos: pos + len(c)].conj().T / np.sqrt(gamma - c)
        pos += len(c)
        out.append(np.hstack([_complement(v), v])[:, :top])
    return out


def _cover(p: PrimitivePoset, d: DimVector, x: list[int]) -> tuple[DimVector, ...] | None:
    """Roots, largest first and repeats allowed, that sum to d and at each of
    which w is admissible, or None; x is `derive._integer_point(w)[0]`.

    d itself is tried first.  Otherwise the candidates are the roots r < d
    with r0 >= 1 on w's trace equality at which w is admissible.  They are
    the dimension vectors of the stable representations of one slope
    (King, "Moduli of representations of finite dimensional algebras",
    1994): pairwise Hom-orthogonal exceptional modules of a Dynkin quiver,
    so an exceptional sequence, whose dimension vectors are linearly
    independent (Crawley-Boevey, "Exceptional sequences of representations
    of quivers", 1993).  So at most one combination of them gives d, and
    one exact solve finds it; a dependent set would make `linalg.solve`
    raise rather than answer."""
    if _is_root(d.d0, d.branches) and not _criterion(p, d).violated(x):
        return (d,)
    whole = dim_to_root(d)
    trace = _trace_row(x)
    candidates = []
    for r in reversed(_indec_roots(p.branches)):
        if r == whole or r[0] < 1 or _dot(trace, r) or any(a > b for a, b in zip(r, whole)):
            continue
        if not _criterion(p, root_to_dim(p, r)).violated(x):
            candidates.append(r)
    if not candidates:
        return None
    mult = linalg.solve(linalg.transpose(candidates), [[v] for v in whole])
    if mult is None or not all(v >= 0 and v.denominator == 1 for (v,) in mult):
        return None
    return tuple(root_to_dim(p, r) for r, (v,) in zip(candidates, mult) for _ in range(int(v)))


def unitarize(
    p: PrimitivePoset,
    d: DimVector,
    w: Weight,
    success_tol: float = 1e-8,
    seed: int = 0,
) -> NumericRep:
    """Find projections onto nested subspaces of the stated dimensions
    satisfying the weighted sum relation up to success_tol * g * sqrt(d0),
    exactly decided and lifted as the module docstring says.  seed is only
    recorded in the result."""
    if not 0 < success_tol < float("inf"):  # NaN fails too
        raise InvalidBudget(f"success_tol must be finite and positive, got {success_tol}")
    require_finite_type(p)
    if not d.is_admissible(p):
        raise ShapeMismatch(f"dimension vector {format_dim_string(d)} is not chain-monotone")
    x, scale = _trace_checked_point(p, d, w)
    require_ambient(d.d0)
    n = d.d0
    if n == 0:
        return NumericRep(p, d, w, tuple(np.zeros((0, 0), dtype=complex)
                                         for _ in range(p.n)), 0.0, 0, 0, seed)

    parts = _cover(p, d, x)
    if parts is None:  # d is a root exactly when it violates a condition
        dim = format_dim_string(d)
        violated = _criterion(p, d).violated(x) if _is_root(d.d0, d.branches) else ()
        reason = (f"the weight violates {len(violated)} derived condition(s) of {dim}"
                  if violated else f"{dim} is not a root of {p.branches}")
        raise NoWitness(f"{reason}, and no sum of roots at which the weight is admissible "
                        f"gives {dim}", violated)
    # the exact verdicts are in; w = x / scale, and its first float comes next
    top = 10 ** MAX_WEIGHT_EXPONENT
    if not all(scale <= v * top and v <= scale * top for v in x):
        raise WeightOutOfRange(f"a numeric witness needs every weight entry and gamma "
                               f"within 10^-{MAX_WEIGHT_EXPONENT}..10^{MAX_WEIGHT_EXPONENT}")
    target = success_tol * float(w.gamma) * float(np.sqrt(n))
    # the block-diagonal sum of the lifts of the parts, each lifted once
    lifts = {r: _lift(p, r, x, scale) for r in set(parts)}
    projectors = tuple(np.zeros((n, n), dtype=complex) for _ in range(p.n))
    pos = 0
    for r in parts:
        for out, m in zip(projectors, lifts[r][0]):
            out[pos: pos + r.d0, pos: pos + r.d0] = m
        pos += r.d0
    steps = sum(lifts[r][1] for r in parts)
    residual = _residual(p, w, projectors, n)
    rep = NumericRep(p, d, w, projectors, residual, steps, 0, seed)
    if not residual <= target:  # NaN fails too
        raise NoConvergence(
            f"lifted witness residual {residual:.3e} above tolerance {target:.3e}", rep
        )
    return rep


@dataclass(frozen=True)
class StructureReport:
    checks: tuple[tuple[str, bool, float], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def structure_check(rep: NumericRep, p: PrimitivePoset, d: DimVector,
                    tol: float = 1e-8) -> StructureReport:
    """Verify idempotence, self-adjointness, chain containment and ranks."""
    d.require_fits(p)
    if len(rep.projectors) != p.n:
        raise ShapeMismatch(f"{len(rep.projectors)} projectors for {p.n} elements")
    checks = []
    elements = list(p.elements())
    for (j, i), proj in zip(elements, rep.projectors):
        dev = float(np.linalg.norm(proj @ proj - proj))
        checks.append((f"idempotent({j},{i})", dev <= tol, dev))
        dev = float(np.linalg.norm(proj - proj.conj().T))
        checks.append((f"hermitian({j},{i})", dev <= tol, dev))
        eigs = np.linalg.eigvalsh((proj + proj.conj().T) / 2)
        got = int((eigs > 0.5).sum())
        checks.append((f"rank({j},{i})", got == d.entry(j, i), float(got)))
    pos = 0
    for j, k in enumerate(p.branches, start=1):
        for i in range(k - 1):
            lower, upper = rep.projectors[pos + i], rep.projectors[pos + i + 1]
            dev = float(np.linalg.norm(lower @ upper - lower))
            checks.append((f"containment({j},{i + 1})", dev <= tol, dev))
        pos += k
    return StructureReport(tuple(checks))
