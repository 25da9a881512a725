"""Numerical construction of projection tuples realising an admissible
weight: orthogonal projections onto nested column spans of one
orthonormal frame per branch, optimised so that the weighted projector
sum matches the scalar matrix.

The objective ||sum_i a_i P_i - g I||_F^2 is minimised by gradient descent
over the frames with a Barzilai-Borwein step, Armijo backtracking and a QR
retraction after every step; random restarts guard against saddle points.
Chain containment is exact by construction (nested columns of a single
frame), so only the relation residual is ever optimised.  Failure to
converge is reported best-effort and is never a certificate that no
witness exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .core import (
    GAMMA_KEY,
    DimVector,
    PosetRepError,
    PrimitivePoset,
    ShapeMismatch,
    Weight,
    trace_condition,
)


class TraceObstruction(PosetRepError):
    """The necessary trace equality fails; no witness can exist."""


class InvalidRestarts(PosetRepError):
    """unitarize needs at least one restart."""


class NoConvergence(PosetRepError):
    """Descent did not reach the success tolerance; best attempt attached."""

    def __init__(self, message: str, best: "NumericRep"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class NumericRep:
    """Projection matrices (per element, branch-major) plus solve metadata."""

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
    form = trace_condition(p, d).form
    w.require_fits(p)
    value = form.evaluate(w)
    if value != 0:
        # the stored form is (sum d_i a_i - d0 g) / gcd(d), negated when every
        # d_i is 0; gcd(d) times its alpha part is sum a*d in both cases
        alpha_part = value - form.coeff(GAMMA_KEY) * w.gamma
        total = gcd(d.d0, *(e for b in d.branches for e in b)) * alpha_part
        raise TraceObstruction(
            f"trace obstruction: sum a*d = {total} but g*d0 = {w.gamma * d.d0}"
        )


def _column_weights(p: PrimitivePoset, d: DimVector, w: Weight) -> list[np.ndarray]:
    """Weight carried by each frame column: column c of branch j is inside
    the projector of every element with d_i >= c, so it accumulates the
    corresponding suffix of the branch weights."""
    out = []
    for j, k in enumerate(p.branches, start=1):
        top = d.entry(j, k)
        weights = np.zeros(top)
        for c in range(1, top + 1):
            weights[c - 1] = float(
                sum((w.entry(j, i) for i in range(1, k + 1) if d.entry(j, i) >= c), Fraction(0))
            )
        out.append(weights)
    return out


def _orthonormalize(m: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(m)
    return q


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
    satisfying the weighted sum relation up to success_tol * g * sqrt(d0)."""
    if restarts < 1:
        raise InvalidRestarts(f"restarts must be at least 1, got {restarts}")
    trace_precheck(p, d, w)
    if not d.is_admissible(p):
        raise ShapeMismatch(f"dimension vector {d} is not chain-monotone")
    n = d.d0
    gamma = float(w.gamma)
    target = success_tol * gamma * np.sqrt(max(n, 1))
    col_w = _column_weights(p, d, w)

    if n == 0:
        return NumericRep(p, d, w, tuple(np.zeros((0, 0), dtype=complex)
                                         for _ in range(p.n)), 0.0, 0, 0, seed)

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


def relation_residual(rep: NumericRep, w: Weight) -> float:
    """||sum a_i P_i - g I||_F for the stored projectors under w."""
    w.require_fits(rep.poset)
    n = rep.dims.d0
    m = -float(w.gamma) * np.eye(n, dtype=complex)
    for (j, i), proj in zip(rep.poset.elements(), rep.projectors):
        m += float(w.entry(j, i)) * proj
    return float(np.linalg.norm(m))


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


def commutant_dim(rep: NumericRep, tol: float = 1e-8) -> int:
    """Dimension of {X : X P_i = P_i X for all i}, via the singular values
    of the stacked commutator system."""
    n = rep.dims.d0
    if n == 0:
        return 0
    eye = np.eye(n)
    blocks = []
    for proj in rep.projectors:
        blocks.append(np.kron(eye, proj) - np.kron(proj.T, eye))
    stacked = np.vstack(blocks) if blocks else np.zeros((1, n * n))
    svals = np.linalg.svd(stacked, compute_uv=False)
    svals = np.concatenate([svals, np.zeros(max(0, n * n - len(svals)))])
    return int((svals < tol).sum())
