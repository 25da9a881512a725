from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import pytest

from posetrep import roots as roots_module
from posetrep.core import make_poset, parse_dim_string
from posetrep.derive import _criterion, check_weight, derive_conditions, interior_point
from posetrep.numeric import unitarize
from posetrep.roots import (
    MAX_CACHED_POSETS,
    FiniteTypeRequired,
    PosetTooLarge,
    _height_one_closure,
    _indec_roots,
    _is_root,
    _root_count,
    dim_to_root,
    enumerate_indec_dims,
    is_finite_type,
    positive_roots,
    require_finite_type,
    root_to_dim,
    star_graph,
    tits_form,
)


def _scan_bound(branches) -> int:
    # 6 covers the largest highest-root coefficient of the exceptional
    # shapes; the chain and (k,1,1) shapes never exceed 2.
    ks = tuple(sorted(branches, reverse=True))
    if len(ks) == 3 and ks[1] == 2:
        return 6
    return 2


def _scan_roots(g, bound: int) -> frozenset:
    """Oracle: all x in [0, bound]^V with x != 0 and q(x) = 1, by brute
    force over the whole box (3^n vectors for the chain and (k,1,1) shapes)."""
    n = g.nvertices
    width = bound + 1
    tail = n
    block = 1
    while tail > 0 and block * width <= 1 << 18:
        block *= width
        tail -= 1
    grid = np.indices((width,) * (n - tail)).reshape(n - tail, -1).T
    roots = set()
    for prefix in itertools.product(range(width), repeat=tail):
        x = np.empty((grid.shape[0], n), dtype=np.int64)
        x[:, :tail] = prefix
        x[:, tail:] = grid
        q = (x * x).sum(axis=1)
        for u, w in g.edges:
            q -= x[:, u] * x[:, w]
        for row in x[q == 1]:
            roots.add(tuple(int(v) for v in row))
    return frozenset(roots)


def _reflection_closure(g) -> frozenset:
    """Oracle: the positive roots as the closure of the simple roots under
    the simple reflections, discarding reflections that leave the positive
    cone (the Bernstein-Gelfand-Ponomarev orbit)."""
    n = g.nvertices
    adj = [[] for _ in range(n)]
    for u, w in g.edges:
        adj[u].append(w)
        adj[w].append(u)
    simple = [tuple(1 if i == v else 0 for i in range(n)) for v in range(n)]
    roots = set(simple)
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


@lru_cache(maxsize=None)
def _oracle(branches) -> frozenset:
    return _reflection_closure(star_graph(make_poset(branches)))


def _orders(branches):
    return sorted(set(itertools.permutations(branches)))


LARGE = ((61, 1, 1), (1, 1, 62), (30, 30), (63,))
TABLES = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1))


def _finite_by_list(branches) -> bool:
    """Oracle: the classification list of width-3 primitive posets of
    finite type."""
    ks = tuple(sorted(branches, reverse=True))
    return ks[1:] == (1, 1) or ks in ((2, 2, 1), (3, 2, 1), (4, 2, 1))


def test_star_graph_shapes():
    g = star_graph(make_poset([1, 1, 1]))
    assert g.nvertices == 4
    assert sorted(g.edges) == [(1, 0), (2, 0), (3, 0)]
    g6 = star_graph(make_poset([2, 2, 1]))
    assert g6.nvertices == 6
    g8 = star_graph(make_poset([4, 2, 1]))
    assert g8.nvertices == 8
    # each arm is a path ending at the centre
    assert (1, 2) in g8.edges and (4, 0) in g8.edges


def test_tits_form():
    g = star_graph(make_poset([1, 1, 1]))
    assert tits_form(g, (1, 0, 0, 0)) == 1
    g6 = star_graph(make_poset([2, 2, 1]))
    assert tits_form(g6, (3, 1, 2, 1, 2, 2)) == 1  # highest root
    assert tits_form(g6, (0, 0, 0, 0, 0, 0)) == 0
    with pytest.raises(Exception):
        tits_form(g6, (1, 2, 3))


def test_root_counts_dual_oracle():
    # D_n has n(n-1) positive roots, A_n has n(n+1)/2
    expected = {
        (1, 1, 1): 12,
        (2, 1, 1): 20,
        (2, 2, 1): 36,
        (3, 2, 1): 63,
        (4, 2, 1): 120,
        (3, 1, 1): 6 * 5,
        (5, 1, 1): 8 * 7,
        (3, 3): 7 * 8 // 2,
        (4, 2): 7 * 8 // 2,
        (5,): 6 * 7 // 2,
    }
    for branches, count in expected.items():
        g = star_graph(make_poset(branches))
        roots = positive_roots(g)
        assert len(roots) == count
        assert roots == _scan_roots(g, _scan_bound(branches))
        assert all(tits_form(g, x) == 1 for x in roots)
        assert all(min(x) >= 0 and max(x) > 0 for x in roots)


def test_positive_roots_rejects_non_dynkin():
    """positive_roots refuses through require_finite_type, with its error
    and message: infinite type, and above MAX_ELEMENTS elements."""
    for branches, error, message in [
        ((2, 2, 2), FiniteTypeRequired, "poset (2, 2, 2) has infinite type"),
        ((65,), PosetTooLarge, "poset (65,) has 65 elements; at most 64 are supported"),
    ]:
        p = make_poset(branches)
        with pytest.raises(error) as scope:
            require_finite_type(p)
        with pytest.raises(error) as roots:
            positive_roots(star_graph(p))
        assert str(roots.value) == str(scope.value) == message


def test_require_finite_type_order_and_no_roots():
    """Infinite type is named before size, and the check computes no root."""
    before = _indec_roots.cache_info()
    require_finite_type(make_poset([40, 24]))  # 64 elements
    with pytest.raises(PosetTooLarge, match=r"^poset \(40, 30\) has 70 elements"):
        require_finite_type(make_poset([40, 30]))
    with pytest.raises(FiniteTypeRequired, match=r"^poset \(40, 30, 1\) has infinite type$"):
        require_finite_type(make_poset([40, 30, 1]))
    assert _indec_roots.cache_info() == before


def test_one_closure_per_branch_order(monkeypatch):
    """Each branch order builds its own closure once, on an empty root table,
    and a second enumeration builds none; each table is the oracle's
    chain-monotone roots in enumeration order."""
    closure = roots_module._height_one_closure
    calls = []

    def counting_closure(branches):
        calls.append(branches)
        return closure(branches)

    monkeypatch.setattr(roots_module, "_height_one_closure", counting_closure)
    for b in [(4, 2, 1), (1, 2, 4), (2, 4, 1)]:
        p = make_poset(b)
        _indec_roots.cache_clear()
        calls.clear()
        first = enumerate_indec_dims(p)
        assert calls == [b]
        assert enumerate_indec_dims(p) == first
        assert calls == [b]
        assert [dim_to_root(d) for d in first] == sorted(
            x for x in _oracle(b) if root_to_dim(p, x).is_admissible(p)), b
    _indec_roots.cache_clear()


def test_root_cache_is_bounded():
    """The root table holds at most MAX_CACHED_POSETS shapes, at least the 16
    that one round of one-shot queries touches, keeps the most recent, and
    `cache_clear` empties it."""
    assert _indec_roots.cache_info().maxsize == MAX_CACHED_POSETS >= 16
    chains = [(k,) for k in range(1, MAX_CACHED_POSETS + 2)]
    for b in chains:
        enumerate_indec_dims(make_poset(b))
    assert _indec_roots.cache_info().currsize == MAX_CACHED_POSETS
    hits = _indec_roots.cache_info().hits
    enumerate_indec_dims(make_poset(chains[-1]))
    assert _indec_roots.cache_info().hits == hits + 1
    _indec_roots.cache_clear()
    assert _indec_roots.cache_info().currsize == 0


def test_height_one_closure_matches_reflection_closure():
    """Height by height from the simple roots gives the reflection closure,
    in every branch order: chains, two chains and (k,1,1) up to 12 elements,
    the three E shapes, and the largest shapes once each."""
    small = [(k,) for k in range(1, 13)]
    small += [(a, b) for a in range(1, 12) for b in range(1, 13 - a)]
    small += [o for k in range(1, 11) for o in _orders((k, 1, 1))]
    small += [o for b in TABLES[2:] for o in _orders(b)]
    for b in small:
        assert _height_one_closure(b) == _oracle(b), b
    for b in LARGE[:3]:
        assert _height_one_closure(b) == _oracle(b), b


def test_tits_form_membership_equals_closure_membership():
    """A dimension vector is a root exactly when q = 1 (`_is_root`), on every
    vector of the box from 0 to one past the highest root."""
    for branches in (*TABLES, (5, 1, 1), (3, 3)):
        roots = _oracle(branches)
        top = [max(c) + 1 for c in zip(*roots)]
        bounds = list(itertools.accumulate(branches, initial=1))
        blocks = list(zip(bounds, bounds[1:]))
        found = {x for x in itertools.product(*(range(t + 1) for t in top))
                 if _is_root(x[0], [x[a:b] for a, b in blocks])}
        assert found == roots, branches


def test_root_count_closed_form():
    """|Phi+| in closed form equals the closure's size on every finite-type
    shape up to 20 elements, in every branch order, and on the largest
    shapes."""
    shapes = [b for width in (1, 2, 3) for b in itertools.product(range(1, 21), repeat=width)
              if sum(b) <= 20 and is_finite_type(make_poset(b))]
    assert len(shapes) == 20 + 190 + (1 + 3 * 17) + (3 + 6 + 6)
    for b in shapes + list(LARGE):
        assert _root_count(b) == len(_oracle(b)), b


def _cleared_caches():
    for cache in (_indec_roots, _criterion):
        cache.cache_clear()


def test_single_row_queries_build_no_root(monkeypatch):
    """derive_conditions, check_weight and unitarize at an admissible weight
    decide a (61,1,1) row by the Tits form and build no root."""
    calls = []
    closure = roots_module._height_one_closure
    monkeypatch.setattr(roots_module, "_height_one_closure",
                        lambda b: calls.append(b) or closure(b))
    p = make_poset([61, 1, 1])
    d = parse_dim_string(",".join(["1"] * 61) + ";1;1;2")
    _cleared_caches()
    cs, _ = derive_conditions(p, d)
    w = interior_point(cs, p)
    _cleared_caches()
    assert check_weight(p, d, w).admissible
    _cleared_caches()
    assert unitarize(p, d, w).residual <= 1e-8
    assert calls == []
    assert _indec_roots.cache_info().currsize == 0
    _cleared_caches()


def test_enumeration_scans_each_shape_once(monkeypatch):
    """Two enumerations of one shape test chain-monotonicity once per root,
    and read the root table's tuples."""
    scans = []
    monotone = roots_module._chain_monotone
    monkeypatch.setattr(roots_module, "_chain_monotone",
                        lambda d0, chains: scans.append(d0) or monotone(d0, chains))
    _cleared_caches()
    p = make_poset([4, 2, 1])
    first = enumerate_indec_dims(p)
    assert enumerate_indec_dims(p) == first
    assert len(scans) == _root_count((4, 2, 1)) == 120
    assert [dim_to_root(d) for d in first] == list(_indec_roots((4, 2, 1)))
    _cleared_caches()


def test_is_finite_type():
    for branches in [(3,), (5, 7), (9, 1, 1), (1, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1)]:
        assert is_finite_type(make_poset(branches))
    for branches in [(5, 2, 1), (1, 1, 1, 1), (2, 2, 2), (3, 3, 2), (3, 3, 1), (2, 2, 1, 1)]:
        assert not is_finite_type(make_poset(branches))
    for branches in itertools.product(range(1, 9), repeat=3):
        assert is_finite_type(make_poset(branches)) == _finite_by_list(branches), branches
    for branches in itertools.product(range(1, 9), repeat=4):
        assert not is_finite_type(make_poset(branches))


def test_enumerate_111_matches_published_rows():
    dims = enumerate_indec_dims(make_poset([1, 1, 1]))
    got = [tuple(e for b in d.branches for e in b) + (d.d0,) for d in dims]
    assert got == [
        (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1),
        (1, 0, 0, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1), (1, 1, 1, 2),
    ]


def test_enumerate_211_matches_published_rows():
    dims = enumerate_indec_dims(make_poset([2, 1, 1]))
    assert len(dims) == 15
    assert dims[-1] == parse_dim_string("1,2;1;1;2")
    assert all(d.is_admissible(make_poset([2, 1, 1])) for d in dims)


def test_enumerate_counts():
    assert len(enumerate_indec_dims(make_poset([2, 2, 1]))) == 29
    assert len(enumerate_indec_dims(make_poset([3, 2, 1]))) == 53
    with pytest.raises(FiniteTypeRequired):
        enumerate_indec_dims(make_poset([5, 2, 1]))


def test_enumerate_chain_posets():
    # every indecomposable of a chain is one-dimensional
    dims = enumerate_indec_dims(make_poset([2]))
    assert [parse_dim_string(s) for s in ["0,0;1", "0,1;1", "1,1;1"]] == list(dims)
    dims2 = enumerate_indec_dims(make_poset([1, 2]))
    assert all(d.d0 == 1 for d in dims2)
    assert len(dims2) == 6  # 2 chains on the first branch times 3 on the second


def test_root_dim_round_trip():
    p = make_poset([2, 2, 1])
    for d in enumerate_indec_dims(p):
        assert root_to_dim(p, dim_to_root(d)) == d


def test_infinite_type_scan_finds_many_monotone_roots():
    # evidence of infinitude: the bounded box scan keeps producing
    # chain-monotone unit-form vectors as the bound grows
    p = make_poset([1, 1, 1, 1])
    g = star_graph(p)
    bound = 5
    found = 0
    for x in itertools.product(range(bound + 1), repeat=g.nvertices):
        if any(x) and tits_form(g, x) == 1 and root_to_dim(p, x).is_admissible(p):
            found += 1
    assert found >= bound
