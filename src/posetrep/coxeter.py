"""Reflection-functor shadows on dimension vectors and weights.

`sigma_dim` and `rho_dim` are the two involutions on dimension vectors;
their composites `fplus_dim` (rho first) and `fminus_dim` (sigma first)
are mutually inverse wherever defined.  Primitive posets are self-dual, so
the dual-order outputs are re-normalised to increasing chain order
immediately and a single DimVector representation is used throughout.
`fminus_dim` is computed in closed form on plain ints (`_fminus_dims`),
which the descent of `derive` calls as it is; the tests keep the
composite as its oracle.

`phiplus_weight` / `phiminus_weight` are the matching transforms on
symbolic weights.  The form arithmetic of each transform is one generic
function, `_phiplus_forms` and `_phiminus_forms`, on any form type with +
and -: `LinearForm`s for the symbolic transforms, the weight's `Fraction`s
for the concrete ones (which insist on positive results) and, for the
downward one, integer rows in the descent of `derive`.

Note: the usual printed closed form of the downward composite has a
garbled head, (m-1)d0 - sum_j d_j^(last); invertibility against the
upward composite forces (m-1)d0 - sum_j d_j^(first), which is what
`fminus_dim` implements (the two agree whenever every branch has one
element).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add
from typing import TypeVar

from .core import (
    DimVector,
    NonPositiveWeight,
    PosetRepError,
    PrimitivePoset,
    SymbolicWeight,
    Weight,
    _chain_monotone,
    _dim_string,
    format_dim_string,
)


_Form = TypeVar("_Form")


class NegativeEntry(PosetRepError):
    """A dimension transform left the admissible region."""


class NotStrictlyDecreasing(PosetRepError):
    """Star-side weight must decrease strictly along each branch."""


def _require_admissible(p: PrimitivePoset, d: DimVector) -> None:
    if not d.is_admissible(p):
        raise NegativeEntry(
            f"dimension vector {format_dim_string(d)} is not admissible for {p.branches}"
        )


def sigma_dim(p: PrimitivePoset, d: DimVector) -> DimVector:
    """Complement each subspace chain in the ambient space: d0 stays,
    branch (d_1,...,d_k) becomes (d0-d_k,...,d0-d_1)."""
    _require_admissible(p, d)
    return DimVector(
        d.d0, tuple(tuple(d.d0 - e for e in reversed(b)) for b in d.branches)
    )


def rho_dim(p: PrimitivePoset, d: DimVector) -> DimVector:
    """d0 -> sum_j d_j^(last) - d0; branch entry i -> d_k - d_{k-i} with
    d_0 := 0 (increasing normalisation of the dual-order output)."""
    _require_admissible(p, d)
    d0_new = sum(b[-1] for b in d.branches) - d.d0
    if d0_new < 0:
        raise NegativeEntry(f"rho undefined: new ambient dimension {d0_new} < 0")
    branches = tuple(
        tuple(b[-1] - (b[len(b) - 1 - i] if i < len(b) else 0) for i in range(1, len(b) + 1))
        for b in d.branches
    )
    out = DimVector(d0_new, branches)
    if not out.is_admissible(p):
        raise NegativeEntry(f"rho output {format_dim_string(out)} is not admissible")
    return out


def fplus_dim(p: PrimitivePoset, d: DimVector) -> DimVector:
    """Upward transform: rho then sigma."""
    return sigma_dim(p, rho_dim(p, d))


def fminus_dim(p: PrimitivePoset, d: DimVector) -> DimVector:
    """Downward transform: sigma then rho; exact inverse of fplus_dim.

    Closed form (`_fminus_dims`): d0' = (m-1)d0 - sum_j d_1^(j), branch
    entries (d_2-d_1, ..., d_k-d_1, d0-d_1).  Meant for non-degenerate
    input, but also defined on the degenerate images of fplus_dim;
    NegativeEntry signals that the orbit left the admissible region.
    """
    d.require_fits(p)
    return DimVector(*_fminus_dims(d.d0, d.branches))


def _fminus_dims(
    d0: int, dims: tuple[tuple[int, ...], ...]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """`fminus_dim` on the ambient dimension d0 and the nonempty branches
    dims, as ints: the new d0 and branches.  Raises NegativeEntry, with the
    message of `rho_dim(p, sigma_dim(p, d))`, when d is not admissible,
    when the new d0 is negative, or when a new branch's last entry
    d0 - d_1 exceeds it; no other entry can leave the admissible region."""
    if not _chain_monotone(d0, dims):
        raise NegativeEntry(f"dimension vector {_dim_string(d0, dims)} is not admissible "
                            f"for {tuple(map(len, dims))}")
    d0_new = (len(dims) - 1) * d0 - sum(b[0] for b in dims)
    if d0_new < 0:
        raise NegativeEntry(f"rho undefined: new ambient dimension {d0_new} < 0")
    branches = tuple((*(e - b[0] for e in b[1:]), d0 - b[0]) for b in dims)
    if any(b[-1] > d0_new for b in branches):
        raise NegativeEntry(f"rho output {_dim_string(d0_new, branches)} is not admissible")
    return d0_new, branches


def phiplus_weight(p: PrimitivePoset, w: SymbolicWeight) -> SymbolicWeight:
    """Symbolic weight transform matching fplus_dim: branch j becomes
    (g - A_j, a_1, ..., a_{k-1}) and g -> (m-1)g - sum_j a_k^(j)."""
    if not w.fits(p):
        raise PosetRepError(f"symbolic weight does not fit poset {p.branches}")
    return SymbolicWeight(*_phiplus_forms(w.branch_forms, w.gamma_form))


def phiminus_weight(p: PrimitivePoset, w: SymbolicWeight) -> SymbolicWeight:
    """Symbolic weight transform matching fminus_dim: branch j becomes
    (a_2, ..., a_k, sum_{l != j} A_l - g) and g -> sum_l A_l - g."""
    if not w.fits(p):
        raise PosetRepError(f"symbolic weight does not fit poset {p.branches}")
    return SymbolicWeight(*_phiminus_forms(w.branch_forms, w.gamma_form))


def _phiplus_forms(
    branch_forms: tuple[tuple[_Form, ...], ...], gamma_form: _Form
) -> tuple[tuple[tuple[_Form, ...], ...], _Form]:
    """The branch forms and gamma form of `phiplus_weight`, for forms of
    any type with + and - (every branch nonempty)."""
    branches = tuple((gamma_form - reduce(add, b),) + b[:-1] for b in branch_forms)
    return branches, reduce(add, (gamma_form - b[-1] for b in branch_forms)) - gamma_form


def _phiminus_forms(
    branch_forms: tuple[tuple[_Form, ...], ...], gamma_form: _Form
) -> tuple[tuple[tuple[_Form, ...], ...], _Form]:
    """The branch forms and gamma form of `phiminus_weight`, for forms of
    any type with + and - (every branch nonempty)."""
    sums = [reduce(add, b) for b in branch_forms]
    total = reduce(add, sums)
    branches = tuple(b[1:] + (total - s - gamma_form,) for b, s in zip(branch_forms, sums))
    return branches, total - gamma_form


def _concrete(forms, p: PrimitivePoset, w: Weight) -> Weight:
    """forms (`_phiplus_forms` or `_phiminus_forms`) applied to the
    weight's Fractions; the result must stay positive."""
    w.require_fits(p)
    try:
        return Weight(*forms(w.alphas, w.gamma))
    except NonPositiveWeight as exc:
        raise NonPositiveWeight(f"transformed weight left the positive cone: {exc}") from exc


def phiplus_concrete(p: PrimitivePoset, w: Weight) -> Weight:
    """Apply the upward weight transform to a concrete weight."""
    return _concrete(_phiplus_forms, p, w)


def phiminus_concrete(p: PrimitivePoset, w: Weight) -> Weight:
    """Apply the downward weight transform to a concrete weight."""
    return _concrete(_phiminus_forms, p, w)


@dataclass(frozen=True)
class StarWeight:
    """Weight in star-graph coordinates: strictly decreasing per branch."""

    betas: tuple[tuple[Fraction, ...], ...]
    gamma: Fraction

    def __post_init__(self) -> None:
        betas = tuple(tuple(Fraction(x) for x in b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gamma", Fraction(self.gamma))


def alpha_to_beta(p: PrimitivePoset, w: Weight) -> StarWeight:
    """Suffix sums b_i = a_i + ... + a_k along each branch."""
    w.require_fits(p)
    return StarWeight(tuple(tuple(accumulate(reversed(b)))[::-1] for b in w.alphas), w.gamma)


def beta_to_alpha(p: PrimitivePoset, sw: StarWeight) -> Weight:
    """Invert alpha_to_beta; the betas must decrease strictly to 0."""
    if tuple(len(b) for b in sw.betas) != p.branches:
        raise PosetRepError(f"star weight does not fit poset {p.branches}")
    alphas = []
    for b in sw.betas:
        ext = list(b) + [Fraction(0)]
        if any(x <= y for x, y in zip(ext, ext[1:])):
            raise NotStrictlyDecreasing(f"branch {b} is not strictly decreasing positive")
        alphas.append(tuple(x - y for x, y in zip(ext, ext[1:])))
    return Weight(tuple(alphas), sw.gamma)
