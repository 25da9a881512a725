"""Star graphs attached to primitive posets, their quadratic form, positive
roots, finite-type detection and enumeration of indecomposable dimension
vectors.

Whether a dimension vector is a root is decided by the Tits form alone:
for a Dynkin graph the positive roots are exactly the nonzero x >= 0 with
q(x) = 1 (Gabriel 1972), and |Phi+| has a closed form, so neither needs
the roots.  The roots themselves are built height by height from the
simple roots, polynomial in the number of vertices; posets above
`MAX_ELEMENTS` elements are rejected.  They are built once per branch
multiset, for the branches longest first; another order of the same
branches permutes those roots.  The chain-monotone ones, sorted, are the
dimension vectors `enumerate_indec_dims` reads, kept once per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from .core import DimVector, PosetRepError, PrimitivePoset, ShapeMismatch, _chain_monotone

IntVector = tuple[int, ...]

# Largest poset (number of elements) whose roots are computed.  A star with
# n vertices has O(n^2) positive roots and the closure does O(n) work per
# root, so this keeps every enumeration to about a tenth of a second.
MAX_ELEMENTS = 64

# Most posets whose roots, and whose sorted chain-monotone roots, stay
# cached: twice the 16 shapes one round of one-shot queries over every
# finite-type family touches.  An entry holds up to 3.0 MB (the 4,160 roots
# of (1,1,62)); both caches full of the largest shapes hold 61 MB
# (tracemalloc), where an unbounded one grew with every shape visited.
MAX_CACHED_POSETS = 32


class FiniteTypeRequired(PosetRepError):
    """Operation only defined for posets of finite representation type."""


class PosetTooLarge(PosetRepError):
    """Poset has more than MAX_ELEMENTS elements."""


@dataclass(frozen=True)
class StarGraph:
    """Tree with one arm per poset branch; vertex 0 is the centre, arm
    vertices follow branch-major in the order (j,1),...,(j,k_j)."""

    poset: PrimitivePoset
    nvertices: int
    edges: tuple[tuple[int, int], ...]


def star_graph(p: PrimitivePoset) -> StarGraph:
    """Underlying graph of the one-point extension of the Hasse diagram."""
    edges = []
    for j, k in enumerate(p.branches, start=1):
        base = 1 + sum(p.branches[: j - 1])
        for i in range(k - 1):
            edges.append((base + i, base + i + 1))
        edges.append((base + k - 1, 0))
    return StarGraph(p, 1 + p.n, tuple(edges))


def tits_form(g: StarGraph, x: IntVector) -> int:
    """q(x) = sum x_v^2 - sum over edges x_u x_w, exactly."""
    if len(x) != g.nvertices:
        raise ShapeMismatch(f"vector length {len(x)} != {g.nvertices} vertices")
    return sum(v * v for v in x) - sum(x[u] * x[w] for u, w in g.edges)


def is_finite_type(p: PrimitivePoset) -> bool:
    """Finite representation type: the star graph is Dynkin, i.e. at most
    two branches, or three with 1/(k1+1) + 1/(k2+1) + 1/(k3+1) > 1."""
    if p.width != 3:
        return p.width < 3
    a, b, c = (k + 1 for k in p.branches)
    return b * c + a * c + a * b > a * b * c


def require_finite_type(p: PrimitivePoset) -> None:
    """The scope of every root-based answer: raises FiniteTypeRequired for
    infinite type, then PosetTooLarge above MAX_ELEMENTS elements.  It
    computes no root."""
    if not is_finite_type(p):
        raise FiniteTypeRequired(f"poset {p.branches} has infinite type")
    if p.n > MAX_ELEMENTS:
        raise PosetTooLarge(
            f"poset {p.branches} has {p.n} elements; at most {MAX_ELEMENTS} are supported"
        )


def _height_one_closure(branches: tuple[int, ...]) -> frozenset[IntVector]:
    """The positive roots of the star graph of branches, height by height
    from the simple roots: for a positive root x and a vertex v, x + e_v is
    a root exactly when (x, e_v) = -1, that is when the neighbours of v sum
    to 2 x_v + 1 (root strings of a simply-laced system; Humphreys,
    "Introduction to Lie Algebras and Representation Theory", 9.4)."""
    n = 1 + sum(branches)
    # (v, a, b) for each arm vertex: its two neighbours, a leaf's outer one
    # being the extra coordinate n, which stays 0; the centre's are the ends
    arms, ends, base = [], [], 1
    for k in branches:
        arms.extend((base + i, base + i - 1 if i else n, base + i + 1 if i < k - 1 else 0)
                    for i in range(k))
        base += k
        ends.append(base - 1)
    layer = {tuple(int(i == v) for i in range(n + 1)) for v in range(n)}
    roots = []
    while layer:
        roots.extend(layer)
        higher = set()
        for x in layer:
            if sum([x[e] for e in ends]) == 2 * x[0] + 1:
                higher.add((x[0] + 1,) + x[1:])
            for v, a, b in arms:
                if x[a] + x[b] == 2 * x[v] + 1:
                    higher.add(x[:v] + (x[v] + 1,) + x[v + 1 :])
        layer = higher
    return frozenset(x[:n] for x in roots)


def _root_count(branches: tuple[int, ...]) -> int:
    """The number of positive roots of the star graph of branches, a Dynkin
    graph with n vertices: n(n+1)/2 for A_n, n(n-1) for D_n and 36, 63 and
    120 for E6, E7 and E8."""
    n = 1 + sum(branches)
    if len(branches) < 3:
        return n * (n + 1) // 2
    if branches.count(1) > 1:
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def _is_root(d0: int, chains: tuple[tuple[int, ...], ...]) -> bool:
    """Whether the non-negative dimension vector (d0, chains) of a finite-type
    poset is a positive root: q = 1 for the Tits form of its star graph
    (Gabriel 1972), `tits_form` summed chain by chain, leaf first."""
    q = d0 * d0
    for c in chains:
        prev = 0
        for v in c:
            q += v * (v - prev)
            prev = v
        q -= prev * d0
    return q == 1


@lru_cache(maxsize=MAX_CACHED_POSETS)
def _positive_roots(branches: tuple[int, ...]) -> frozenset[IntVector]:
    """The positive roots of the star graph of branches.  The closure runs
    only for the canonical order, branches longest first; any other order
    permutes the arm coordinate blocks of the canonical roots, which a
    relabelling of the arms maps onto its own."""
    p = PrimitivePoset(branches)
    require_finite_type(p)
    order = sorted(range(p.width), key=lambda j: -p.branches[j])
    canonical = tuple(p.branches[j] for j in order)
    if canonical == p.branches:
        return _height_one_closure(p.branches)
    starts = dict(zip(order, accumulate(canonical, initial=1)))
    picks = [0]  # the centre, then each arm's block in its canonical place
    for j, k in enumerate(p.branches):
        picks.extend(range(starts[j], starts[j] + k))
    return frozenset(map(itemgetter(*picks), _positive_roots(canonical)))


def positive_roots(g: StarGraph) -> frozenset[IntVector]:
    """The positive roots of g, height by height from the simple roots, for
    a poset within `require_finite_type`'s scope."""
    return _positive_roots(g.poset.branches)


def root_to_dim(p: PrimitivePoset, x: IntVector) -> DimVector:
    """Read root coordinates as a dimension vector (centre first)."""
    branches = []
    pos = 1
    for k in p.branches:
        branches.append(tuple(x[pos : pos + k]))
        pos += k
    return DimVector(x[0], tuple(branches))


def dim_to_root(d: DimVector) -> IntVector:
    return (d.d0,) + tuple(e for b in d.branches for e in b)


def _chain_blocks(branches: tuple[int, ...]) -> list[tuple[int, int]]:
    """The coordinate slice of each branch's chain in a root."""
    bounds = list(accumulate(branches, initial=1))
    return list(zip(bounds, bounds[1:]))


@lru_cache(maxsize=MAX_CACHED_POSETS)
def _indec_roots(branches: tuple[int, ...]) -> tuple[IntVector, ...]:
    """The chain-monotone positive roots of branches, sorted: the root
    tuples `_positive_roots` holds, scanned once per shape."""
    blocks = _chain_blocks(branches)
    return tuple(x for x in sorted(_positive_roots(branches))
                 if _chain_monotone(x[0], (x[a:b] for a, b in blocks)))


def enumerate_indec_dims(p: PrimitivePoset) -> tuple[DimVector, ...]:
    """Dimension vectors of the indecomposable representations: the
    chain-monotone positive roots, sorted by (d0, branch entries), which
    is the order of the root tuples themselves."""
    blocks = _chain_blocks(p.branches)
    return tuple(DimVector(x[0], tuple(x[a:b] for a, b in blocks))
                 for x in _indec_roots(p.branches))
