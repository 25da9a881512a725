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
The witness of a root is lifted up its cached descent
(`derive._criterion`) from the empty representation, on integer rows
evaluated at the weight scaled to integers: a reduction is undone by
bookkeeping, a downward transform by the Coxeter reflections on
*-representations, rho at the centre and then sigma on each chain.

Infinite type and posets above `roots.MAX_ELEMENTS` go to a descent:
||sum_i a_i P_i - g I||_F^2 is minimised over the frames with a
Barzilai-Borwein step, Armijo backtracking and a QR retraction after
every step; random restarts guard against saddle points.  Chain
containment is exact by construction (nested columns of a single frame),
so only the relation residual is ever optimised.  Failure of the descent
to converge is reported best-effort and is never a certificate that no
witness exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .core import (
    Condition,
    DimVector,
    PosetRepError,
    PrimitivePoset,
    ShapeMismatch,
    Weight,
    format_dim_string,
    require_ambient,
)
from . import linalg
from .coxeter import alpha_to_beta
from .derive import LiftState, OrbitEscape, _criterion, _dot, _integer_point
from .roots import MAX_ELEMENTS, _positive_roots, dim_to_root, is_finite_type, root_to_dim

# Largest restart and iteration budgets the descent accepts.
MAX_RESTARTS = 1000
MAX_ITER = 100_000


class TraceObstruction(PosetRepError):
    """The necessary trace equality fails; no witness can exist."""


class InvalidBudget(PosetRepError):
    """A restart or iteration budget, or a success tolerance, outside its
    allowed range."""


class NoWitness(PosetRepError):
    """No sum of roots at each of which the weight is admissible gives d: no
    witness exists.  violated holds the violated conditions of d when d is
    a root, and is empty otherwise."""

    def __init__(self, message: str, violated: tuple[Condition, ...]):
        super().__init__(message)
        self.violated = violated


class NoConvergence(PosetRepError):
    """No witness within the success tolerance; best attempt attached."""

    def __init__(self, message: str, best: "NumericRep"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class NumericRep:
    """Projection matrices (per element, branch-major) plus solve metadata:
    a lifted witness counts the downward transforms it undid as iterations
    and uses no restarts."""

    poset: PrimitivePoset
    dims: DimVector
    weight: Weight
    projectors: tuple[np.ndarray, ...]
    residual: float
    iterations: int
    restarts_used: int
    seed: int

    def to_json(self) -> dict:
        mats = [
            [[[float(z.real), float(z.imag)] for z in row] for row in m]
            for m in self.projectors
        ]
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
    d.require_fits(p)
    w.require_fits(p)
    total = sum((a * e for b, c in zip(w.alphas, d.branches) for a, e in zip(b, c)), Fraction(0))
    if total != w.gamma * d.d0:
        raise TraceObstruction(
            f"trace obstruction: sum a*d = {total} but g*d0 = {w.gamma * d.d0}"
        )


def _column_weights(p: PrimitivePoset, d: DimVector, w: Weight) -> list[np.ndarray]:
    """Weight carried by each frame column: column c of branch j lies in the
    subspaces of the elements with d_i >= c, so it carries the suffix sum
    b_i = a_i + ... + a_k of the first of them (`alpha_to_beta`)."""
    return [
        np.repeat([float(x) for x in betas], np.diff((0,) + dims))
        for betas, dims in zip(alpha_to_beta(p, w).betas, d.branches)
    ]


def _orthonormalize(m: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(m)
    return q


def _complement(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of q's columns."""
    full, _ = np.linalg.qr(q, mode="complete")
    return full[:, q.shape[1]:]


def _random_frame(rng: np.random.Generator, n: int, cols: int) -> np.ndarray:
    raw = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    return _orthonormalize(raw)


def _mismatch(frames: list[np.ndarray], col_w: list[np.ndarray], gamma: float,
              n: int) -> np.ndarray:
    m = -gamma * np.eye(n, dtype=complex)
    for q, wts in zip(frames, col_w):
        if q.shape[1]:
            m += (q * wts) @ q.conj().T
    return m


def _projectors(p: PrimitivePoset, d: DimVector, frames: list[np.ndarray],
                n: int) -> tuple[np.ndarray, ...]:
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


# --- the exact path ------------------------------------------------------------


def _lift(p: PrimitivePoset, d: DimVector, w: Weight) -> tuple[tuple[np.ndarray, ...], int]:
    """Projectors of a witness for the root d at the admissible weight w, and
    the number of downward transforms undone.

    The states are those of the cached descent (`derive._criterion`),
    walked back up from the empty one.  Column weights and gamma are those
    of the state being left, so every step keeps
    sum_j Q_j diag(b_j) Q_j* = g I; they are exact integer dot products
    divided once, so each float is the correctly rounded rational.
    """
    states = _criterion(p, d).states
    x, scale = _integer_point(w)
    frames: list[np.ndarray] = []  # the terminal state: no branches, gamma 0
    for k in reversed(range(len(states))):
        s = states[k]
        # undo the reduction: zeros add no column, merged elements share
        # their columns, a full element completes its frame to a unitary
        lifted = iter(frames)
        frames = []
        for b in s.dims:
            q = next(lifted) if any(0 < e < s.d0 for e in b) else np.zeros((s.d0, 0), complex)
            if b[-1] == s.d0:
                q = np.hstack([q, _complement(q)])
            frames.append(q)
        if k:
            col_w, gamma = _column_weights_exact(s, x, scale, d)
            frames = _unreflect(frames, col_w, gamma, states[k - 1].tops)
    return _projectors(p, d, frames, d.d0), len(states) - 1


def _column_weights_exact(s: LiftState, x: list[int], scale: int,
                          d: DimVector) -> tuple[list[np.ndarray], float]:
    """Column weights and gamma of the lift state s at the integer point x
    (w times scale), after checking exactly that 0 < b < g for every
    column: rho takes square roots of b and of g - b."""
    g = _dot(s.gamma, x)
    col_w = []
    for branch in s.columns:
        values = [_dot(row, x) for row, _ in branch]
        if not all(0 < v < g for v in values):
            raise OrbitEscape(
                f"lift of {format_dim_string(d)}: a column weight leaves (0, gamma)"
            )
        col_w.append(np.repeat([v / scale for v in values], [c for _, c in branch]))
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


def _cover(p: PrimitivePoset, d: DimVector, w: Weight) -> tuple[DimVector, ...] | None:
    """Roots, largest first and repeats allowed, that sum to d and at each of
    which w is admissible, or None.

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
    roots = _positive_roots(p.branches)
    whole = dim_to_root(d)
    if whole in roots and not _criterion(p, d).violated(w):
        return (d,)
    x, _ = _integer_point(w)
    trace = (-x[-1], *x[:-1])  # sum a_i r_i - g r0 over root coordinates
    candidates = []
    for r in sorted(roots, reverse=True):
        if r == whole or r[0] < 1 or _dot(trace, r) or any(a > b for a, b in zip(r, whole)):
            continue
        part = root_to_dim(p, r)
        if part.is_admissible(p) and not _criterion(p, part).violated(w):
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
    inner_tol: float = 1e-12,
    max_iter: int = 5000,
    restarts: int = 32,
    seed: int = 0,
) -> NumericRep:
    """Find projections onto nested subspaces of the stated dimensions
    satisfying the weighted sum relation up to success_tol * g * sqrt(d0):
    exactly decided and lifted where the module docstring says, by the
    descent otherwise."""
    if not 1 <= restarts <= MAX_RESTARTS:
        bound = "at least 1" if restarts < 1 else f"at most {MAX_RESTARTS}"
        raise InvalidBudget(f"restarts must be {bound}, got {restarts}")
    if not 1 <= max_iter <= MAX_ITER:
        bound = "at least 1" if max_iter < 1 else f"at most {MAX_ITER}"
        raise InvalidBudget(f"max_iter must be {bound}, got {max_iter}")
    if not 0 < success_tol < float("inf"):  # NaN fails too
        raise InvalidBudget(f"success_tol must be finite and positive, got {success_tol}")
    trace_precheck(p, d, w)
    if not d.is_admissible(p):
        raise ShapeMismatch(f"dimension vector {d} is not chain-monotone")
    require_ambient(d.d0)
    n = d.d0
    # a Python float, whose square overflows to inf without a NumPy warning
    target = success_tol * float(w.gamma) * float(np.sqrt(max(n, 1)))

    if n == 0:
        return NumericRep(p, d, w, tuple(np.zeros((0, 0), dtype=complex)
                                         for _ in range(p.n)), 0.0, 0, 0, seed)

    if p.n > MAX_ELEMENTS or not is_finite_type(p):
        return _descend(p, d, w, target, inner_tol, max_iter, restarts, seed)
    parts = _cover(p, d, w)
    if parts is None:  # d is a root exactly when it violates a condition
        dim, roots = format_dim_string(d), _positive_roots(p.branches)
        violated = _criterion(p, d).violated(w) if dim_to_root(d) in roots else ()
        reason = (f"the weight violates {len(violated)} derived condition(s) of {dim}"
                  if violated else f"{dim} is not a root of {p.branches}")
        raise NoWitness(f"{reason}, and no sum of roots at which the weight is admissible "
                        f"gives {dim}", violated)
    # the block-diagonal sum of the lifts of the parts, each lifted once
    lifts = {r: _lift(p, r, w) for r in set(parts)}
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


def _descend(p: PrimitivePoset, d: DimVector, w: Weight, target: float,
             inner_tol: float, max_iter: int, restarts: int, seed: int) -> NumericRep:
    """Barzilai-Borwein descent over frames from random restarts."""
    n = d.d0
    gamma = float(w.gamma)
    col_w = _column_weights(p, d, w)
    best: tuple[float, list[np.ndarray], int, int] | None = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        frames = [_random_frame(rng, n, len(cw)) for cw in col_w]
        m = _mismatch(frames, col_w, gamma, n)
        f = float(np.linalg.norm(m) ** 2)
        step = 1.0 / (1.0 + gamma)
        prev_frames = None
        prev_grads = None
        it = 0
        while it < max_iter and f > target * target:
            grads = [4.0 * (m @ (q * cw)) for q, cw in zip(frames, col_w)]
            gnorm2 = sum(float(np.linalg.norm(g) ** 2) for g in grads)
            if gnorm2 < inner_tol * inner_tol:
                break
            if prev_frames is not None:
                s_dot_y = 0.0
                s_dot_s = 0.0
                for q, pq, g, pg in zip(frames, prev_frames, grads, prev_grads):
                    s = q - pq
                    y = g - pg
                    s_dot_y += float(np.real(np.vdot(s, y)))
                    s_dot_s += float(np.real(np.vdot(s, s)))
                if s_dot_y > 1e-300:
                    step = s_dot_s / s_dot_y
            step = min(max(step, 1e-12), 1e6)
            prev_frames = [q.copy() for q in frames]
            prev_grads = [g.copy() for g in grads]
            improved = False
            t = step
            for _ in range(40):
                cand = [
                    _orthonormalize(q - t * g) if q.shape[1] else q
                    for q, g in zip(frames, grads)
                ]
                m_cand = _mismatch(cand, col_w, gamma, n)
                f_cand = float(np.linalg.norm(m_cand) ** 2)
                if f_cand <= f - 1e-4 * t * gnorm2 or f_cand < f * (1 - 1e-16):
                    frames, m, f = cand, m_cand, f_cand
                    improved = True
                    break
                t *= 0.5
            it += 1
            if not improved:
                break
        if best is None or f < best[0]:
            best = (f, frames, it, r)
        if f <= target * target:
            break

    f, frames, it, r = best
    residual = float(np.sqrt(f))
    rep = NumericRep(p, d, w, _projectors(p, d, frames, n), residual, it, r + 1, seed)
    if residual > target:
        raise NoConvergence(
            f"best residual {residual:.3e} above tolerance {target:.3e} "
            f"after {restarts} restarts", rep,
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
