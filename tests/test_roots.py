from __future__ import annotations

import itertools

import numpy as np
import pytest

from posetrep import roots as roots_module
from posetrep.core import make_poset, parse_dim_string
from posetrep.roots import (
    MAX_CACHED_POSETS,
    FiniteTypeRequired,
    PosetTooLarge,
    _positive_roots,
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
    before = _positive_roots.cache_info()
    require_finite_type(make_poset([40, 24]))  # 64 elements
    with pytest.raises(PosetTooLarge, match=r"^poset \(40, 30\) has 70 elements"):
        require_finite_type(make_poset([40, 30]))
    with pytest.raises(FiniteTypeRequired, match=r"^poset \(40, 30, 1\) has infinite type$"):
        require_finite_type(make_poset([40, 30, 1]))
    assert _positive_roots.cache_info() == before


def test_one_closure_per_branch_multiset(monkeypatch):
    """The closure runs once per branch multiset, for the branches longest
    first; every other order gets the closure of its own star graph by
    permuting the arm blocks of those roots."""
    closure = roots_module._reflection_closure
    calls = []

    def counting_closure(g):
        calls.append(g.poset.branches)
        return closure(g)

    monkeypatch.setattr(roots_module, "_reflection_closure", counting_closure)
    _positive_roots.cache_clear()
    orders = [(4, 2, 1), (1, 2, 4), (2, 4, 1), (1, 4, 2), (1, 5, 1), (1, 1, 5), (2, 7), (7, 2)]
    for b in orders:
        assert _positive_roots(b) == closure(star_graph(make_poset(b))), b
    assert calls == [(4, 2, 1), (5, 1, 1), (7, 2)]
    _positive_roots.cache_clear()


def test_root_cache_is_bounded():
    """The cache holds at most MAX_CACHED_POSETS shapes, at least the 16
    that one round of one-shot queries touches, and keeps the most recent."""
    assert _positive_roots.cache_info().maxsize == MAX_CACHED_POSETS >= 16
    chains = [(k,) for k in range(1, MAX_CACHED_POSETS + 2)]
    for b in chains:
        _positive_roots(b)
    assert _positive_roots.cache_info().currsize == MAX_CACHED_POSETS
    hits = _positive_roots.cache_info().hits
    _positive_roots(chains[-1])
    assert _positive_roots.cache_info().hits == hits + 1
    _positive_roots.cache_clear()
    assert _positive_roots.cache_info().currsize == 0


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
