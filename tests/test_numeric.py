from __future__ import annotations

import numpy as np
import pytest

from posetrep.core import make_poset, parse_dim_string, parse_weight_string
from posetrep.derive import derive_conditions, interior_point
from posetrep.numeric import (
    NoConvergence,
    NumericRep,
    TraceObstruction,
    commutant_dim,
    relation_residual,
    structure_check,
    trace_precheck,
    unitarize,
)


def test_equiangular_lines_closed_form():
    angles = [0, 2 * np.pi / 3, 4 * np.pi / 3]
    projs = []
    for t in angles:
        v = np.array([[np.cos(t)], [np.sin(t)]], dtype=complex)
        projs.append(v @ v.conj().T)
    m = sum(projs) - 1.5 * np.eye(2)
    assert np.linalg.norm(m) <= 1e-12


def test_unitarize_three_lines():
    p = make_poset([1, 1, 1])
    d = parse_dim_string("1;1;1;2")
    w = parse_weight_string("1;1;1;3/2")
    rep = unitarize(p, d, w)
    assert rep.residual <= 1e-8 * 1.5 * np.sqrt(2)
    assert structure_check(rep, p, d).ok
    assert commutant_dim(rep) == 1  # distinct lines in the plane act irreducibly
    assert relation_residual(rep, w) == pytest.approx(rep.residual, abs=1e-12)


def test_trace_obstruction():
    p = make_poset([1, 1, 1])
    d = parse_dim_string("1;1;1;2")
    with pytest.raises(TraceObstruction):
        unitarize(p, d, parse_weight_string("3;2;2;3"))
    trace_precheck(p, d, parse_weight_string("2;2;2;3"))  # no raise


def test_unitarize_e6_row():
    p = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    cs, _ = derive_conditions(p, d)
    w = interior_point(cs, p)
    rep = unitarize(p, d, w)
    assert rep.residual <= 1e-8 * float(w.gamma) * np.sqrt(3)
    assert structure_check(rep, p, d).ok
    # rescaling the weight changes nothing: the same tuple witnesses it,
    # and the solver succeeds on the rescaled problem too
    assert relation_residual(rep, w.scaled(3)) <= 3 * rep.residual + 1e-12
    rep3 = unitarize(p, d, w.scaled(3))
    assert rep3.residual <= 1e-8 * 3 * float(w.gamma) * np.sqrt(3)


def test_residual_invariant_under_unitary_conjugation():
    p = make_poset([1, 1, 1])
    d = parse_dim_string("1;1;1;2")
    w = parse_weight_string("1;1;1;3/2")
    rep = unitarize(p, d, w)
    rng = np.random.default_rng(42)
    for _ in range(5):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(raw)
        conj = NumericRep(
            p, d, w,
            tuple(u @ proj @ u.conj().T for proj in rep.projectors),
            rep.residual, rep.iterations, rep.restarts_used, rep.seed,
        )
        assert relation_residual(conj, w) == pytest.approx(rep.residual, abs=1e-10)


def test_zero_projectors_residual():
    p = make_poset([1, 1, 1])
    d = parse_dim_string("0;0;0;2")
    w = parse_weight_string("1;1;1;2")
    rep = NumericRep(p, d, w, tuple(np.zeros((2, 2), dtype=complex) for _ in range(3)),
                     0.0, 0, 0, 0)
    assert relation_residual(rep, w) == pytest.approx(2 * np.sqrt(2))


def test_commutant_of_block_diagonal_sum():
    p = make_poset([1, 1, 1])
    d = parse_dim_string("1;1;1;2")
    w = parse_weight_string("1;1;1;3/2")
    rep = unitarize(p, d, w)
    doubled = []
    for proj in rep.projectors:
        top = np.hstack([proj, np.zeros((2, 2))])
        bot = np.hstack([np.zeros((2, 2)), proj])
        doubled.append(np.vstack([top, bot]))
    pair = NumericRep(p, parse_dim_string("2;2;2;4"), w, tuple(doubled),
                      rep.residual, 0, 0, 0)
    assert commutant_dim(pair) >= 2


def test_one_dimensional_case_is_exact():
    p = make_poset([2, 1, 1])
    d = parse_dim_string("1,1;1;0;1")
    w = parse_weight_string("1/3,1/3;1/3;5;1")  # trace: 1/3+1/3+1/3 = 1
    rep = unitarize(p, d, w)
    assert rep.residual <= 1e-12
    assert structure_check(rep, p, d).ok


def test_no_convergence_reports_best_attempt():
    p = make_poset([1, 1, 1])
    d = parse_dim_string("1;1;1;2")
    w = parse_weight_string("1;1;1;3/2")
    with pytest.raises(NoConvergence) as exc:
        unitarize(p, d, w, success_tol=1e-300, max_iter=3, restarts=1)
    best = exc.value.best
    assert isinstance(best, NumericRep)
    assert best.residual > 0


def test_unitarize_rejects_inadmissible_dims():
    from posetrep.core import ShapeMismatch

    p = make_poset([2])
    with pytest.raises(ShapeMismatch):
        unitarize(p, parse_dim_string("2,1;2"), parse_weight_string("1,1;3/2"))


# --- the exact path: decide, then lift -------------------------------------------


@pytest.fixture(scope="module")
def five_tables():
    from posetrep.derive import generate_table

    return [generate_table(make_poset(b))
            for b in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1)]]


def test_lift_witnesses_every_table_row(five_tables):
    rows = 0
    for table in five_tables:
        p = table.poset
        for row in table.rows:
            w = interior_point(row.conditions, p)
            if w is None:
                continue
            rep = unitarize(p, row.dim, w)
            assert rep.residual <= 1e-8 * float(w.gamma) * np.sqrt(row.dim.d0)
            assert structure_check(rep, p, row.dim).ok
            assert rep.restarts_used == 0  # lifted, not descended
            rows += 1
    assert rows > 200  # every d0 of (4,2,1) included, up to 6


def _no_descent(*args, **kwargs):
    raise AssertionError("the descent ran")


def test_exact_reject_never_descends(monkeypatch):
    from posetrep import numeric
    from posetrep.derive import check_weight
    from posetrep.numeric import NoWitness

    monkeypatch.setattr(numeric, "_descend", _no_descent)
    p = make_poset([2, 2, 1])
    d = parse_dim_string("0,1;0,1;1;2")
    w = parse_weight_string("1,4/3;1,1/3;1/3;1")  # trace holds, g < b2 + d fails
    with pytest.raises(NoWitness) as exc:
        unitarize(p, d, w)
    assert exc.value.violated == check_weight(p, d, w).violated != ()


def test_non_root_exact_reject(monkeypatch):
    from posetrep import numeric
    from posetrep.numeric import NoWitness

    monkeypatch.setattr(numeric, "_descend", _no_descent)
    p = make_poset([1, 1, 1])
    d = parse_dim_string("0;1;1;2")  # (0;1;0;1) + (0;0;1;1), not a root
    with pytest.raises(NoWitness) as exc:
        unitarize(p, d, parse_weight_string("8;6;1;7/2"))  # no part has b = g or d = g
    assert exc.value.violated == ()
    assert "not a root" in str(exc.value)
    # with a trace split, the split into two roots still answers
    rep = unitarize(p, d, parse_weight_string("8;1;1;1"))
    assert rep.residual <= 1e-8 * np.sqrt(2) and structure_check(rep, p, d).ok


def test_lift_checks_column_weights_exactly():
    from posetrep.derive import OrbitEscape
    from posetrep.numeric import _lift

    p = make_poset([2, 2, 1])
    d = parse_dim_string("0,1;0,1;1;2")
    with pytest.raises(OrbitEscape, match="column weight"):
        _lift(p, d, parse_weight_string("1,4/3;1,1/3;1/3;1"))  # g < b2 + d fails


def test_two_root_split_gives_decomposable_witness(monkeypatch):
    from posetrep import numeric

    monkeypatch.setattr(numeric, "_descend", _no_descent)
    p = make_poset([1, 1, 1])
    d = parse_dim_string("1;1;1;2")
    w = parse_weight_string("1;1/2;1/2;1")  # a = g breaks a < g; P1 = e1e1*, P2 = P3 = e2e2*
    rep = unitarize(p, d, w)
    assert rep.residual <= 1e-8 * np.sqrt(2)
    assert structure_check(rep, p, d).ok
    assert commutant_dim(rep) >= 2  # decomposable


def test_lifted_witness_above_tolerance_is_no_convergence():
    p = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    w = interior_point(derive_conditions(p, d)[0], p)
    with pytest.raises(NoConvergence) as exc:
        unitarize(p, d, w, success_tol=1e-300)
    best = exc.value.best
    assert best.restarts_used == 0 and structure_check(best, p, d).ok
    assert 0 < best.residual <= 1e-8 * np.sqrt(3)


def test_trace_split_matches_exhaustive_scan():
    """`_has_trace_split` against every integer vector below d."""
    import itertools
    import random

    from posetrep.core import DimVector, Weight
    from posetrep.numeric import _has_trace_split
    from posetrep.roots import enumerate_indec_dims

    def scan(d, w):
        flat = [e for b in d.branches for e in b]
        for d0 in range(1, d.d0):
            for part in itertools.product(*(range(e + 1) for e in flat)):
                it = iter(part)
                branches = tuple(tuple(next(it) for _ in b) for b in d.branches)
                rest = tuple(tuple(x - y for x, y in zip(b, c))
                             for b, c in zip(d.branches, branches))
                p = make_poset([len(b) for b in d.branches])
                if not (DimVector(d0, branches).is_admissible(p)
                        and DimVector(d.d0 - d0, rest).is_admissible(p)):
                    continue
                value = sum(e * a for b, c in zip(branches, w.alphas) for e, a in zip(b, c))
                if value == w.gamma * d0:
                    return True
        return False

    rng = random.Random(5)
    hits = 0
    for branches in [(2, 2, 1), (3, 2, 1)]:
        p = make_poset(branches)
        for d in enumerate_indec_dims(p):
            if d.d0 > 4:
                continue
            for _ in range(3):
                w = Weight(tuple(tuple(rng.randint(1, 3) for _ in range(k)) for k in branches),
                           rng.randint(1, 4))
                found = _has_trace_split(d, w)
                assert found == scan(d, w), (d, w)
                hits += found
    assert hits > 20
