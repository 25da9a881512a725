"""Star graphs attached to primitive posets, their quadratic form, positive
roots, finite-type detection and enumeration of indecomposable dimension
vectors.

Positive roots are the closure of the simple roots under the simple
reflections (the Bernstein-Gelfand-Ponomarev orbit), polynomial in the
number of vertices; posets above `MAX_ELEMENTS` elements are rejected.
The closure runs once per branch multiset, for the branches longest first;
another order of the same branches permutes those roots.
`enumerate_indec_dims` then keeps the roots whose coordinates are
chain-monotone and reads them as dimension vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from .core import DimVector, PosetRepError, PrimitivePoset, ShapeMismatch, _chain_monotone

IntVector = tuple[int, ...]

# Largest poset (number of elements) whose roots are computed.  A star with
# n vertices has O(n^2) positive roots and the closure does O(n^2) work per
# root, so this keeps every enumeration to about a second.
MAX_ELEMENTS = 64

# Most posets whose roots stay cached: twice the 16 shapes one round of
# one-shot queries over every finite-type family touches.  An entry holds
# up to 3.0 MB (the 4,160 roots of (1,1,62)); the cache full of the largest
# shapes holds 61 MB (tracemalloc), where an unbounded one grew with every
# shape visited.
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

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.nvertices)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


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


def _reflection_closure(g: StarGraph) -> frozenset[IntVector]:
    """Positive roots as the closure of simple roots under the simple
    reflections, discarding reflections that leave the positive cone."""
    n = g.nvertices
    adj = g.adjacency()
    simple = [tuple(1 if i == v else 0 for i in range(n)) for v in range(n)]
    roots: set[IntVector] = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for x in frontier:
            for v in range(n):
                reflected = sum(x[u] for u in adj[v]) - x[v]
                if reflected < 0:
                    continue
                y = x[:v] + (reflected,) + x[v + 1 :]
                if y not in roots:
                    roots.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(roots)


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
        return _reflection_closure(star_graph(p))
    starts = dict(zip(order, accumulate(canonical, initial=1)))
    picks = [0]  # the centre, then each arm's block in its canonical place
    for j, k in enumerate(p.branches):
        picks.extend(range(starts[j], starts[j] + k))
    return frozenset(map(itemgetter(*picks), _positive_roots(canonical)))


def positive_roots(g: StarGraph) -> frozenset[IntVector]:
    """The positive roots of g, by reflection closure of the simple roots,
    for a poset within `require_finite_type`'s scope."""
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


def enumerate_indec_dims(p: PrimitivePoset) -> tuple[DimVector, ...]:
    """Dimension vectors of the indecomposable representations: the
    chain-monotone positive roots, sorted by (d0, branch entries), which
    is the order of the root tuples themselves."""
    bounds = list(accumulate(p.branches, initial=1))
    blocks = list(zip(bounds, bounds[1:]))
    dims = []
    for x in sorted(_positive_roots(p.branches)):
        chains = tuple(x[a:b] for a, b in blocks)
        if _chain_monotone(x[0], chains):
            dims.append(DimVector(x[0], chains))
    return tuple(dims)
