from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import le, mul

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posetrep.core import (
    DimVector,
    PrimitivePoset,
    Weight,
    make_poset,
    parse_dim_string,
    parse_weight_string,
    trace_condition,
)
from posetrep.coxeter import alpha_to_beta
from posetrep.derive import (
    Verdict,
    _integer_point,
    check_weight,
    derive_conditions,
    interior_point,
)
from posetrep.numeric import (
    NoConvergence,
    NumericRep,
    TraceObstruction,
    _projectors,
    structure_check,
    trace_precheck,
    unitarize,
)
from posetrep.roots import enumerate_indec_dims

# --- oracles on projector tuples --------------------------------------------------


def relation_residual(rep, w):
    """||sum a_i P_i - g I||_F for the stored projectors under w."""
    w.require_fits(rep.poset)
    m = -float(w.gamma) * np.eye(rep.dims.d0, dtype=complex)
    for (j, i), proj in zip(rep.poset.elements(), rep.projectors):
        m += float(w.entry(j, i)) * proj
    return float(np.linalg.norm(m))


def commutant_dim(rep, tol=1e-8):
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


def test_trace_checks_agree_with_trace_condition():
    """check_weight's trace verdict and trace_precheck's message against
    trace_condition and the Fraction sum, on and off the trace."""
    rng = random.Random(15)
    for branches in [(1, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1), (5, 5), (6, 1, 1)]:
        p = make_poset(branches)
        dims = enumerate_indec_dims(p)
        for d in rng.sample(dims, min(12, len(dims))):
            alphas = [[Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in b]
                      for b in d.branches]
            total = sum((a * e for b, c in zip(alphas, d.branches) for a, e in zip(b, c)),
                        Fraction(0))
            on = total / d.d0
            for gamma in [on, on + Fraction(rng.randint(1, 9), rng.randint(2, 9)),
                          on * Fraction(rng.randint(1, 5), 7)]:
                if gamma <= 0:  # d = (1; 0, ..., 0) has no positive weight on its trace
                    continue
                w = Weight(tuple(map(tuple, alphas)), gamma)
                trace = trace_condition(p, d)
                meets = trace.holds_at(w)
                assert meets == (gamma == on)
                verdict = check_weight(p, d, w)
                if meets:
                    assert trace not in verdict.violated
                    trace_precheck(p, d, w)
                    continue
                assert verdict == Verdict(False, (trace,))
                with pytest.raises(TraceObstruction) as exc:
                    trace_precheck(p, d, w)
                assert str(exc.value) == (
                    f"trace obstruction: sum a*d = {total} but g*d0 = {gamma * d.d0}")


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
        unitarize(p, d, w, success_tol=1e-300)
    best = exc.value.best
    assert isinstance(best, NumericRep)
    assert best.residual > 0


def test_unitarize_rejects_inadmissible_dims():
    from posetrep.core import ShapeMismatch

    p = make_poset([2])
    with pytest.raises(ShapeMismatch):
        unitarize(p, parse_dim_string("2,1;2"), parse_weight_string("1,1;3/2"))


# --- the exact path: decide, then lift -------------------------------------------


def test_lift_witnesses_every_table_row(five_tables):
    rows = 0
    for table, _, _ in five_tables.values():
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


def test_exact_reject_never_descends():
    from posetrep.derive import check_weight
    from posetrep.numeric import NoWitness

    p = make_poset([2, 2, 1])
    d = parse_dim_string("0,1;0,1;1;2")
    w = parse_weight_string("1,4/3;1,1/3;1/3;1")  # trace holds, g < b2 + d fails
    with pytest.raises(NoWitness) as exc:
        unitarize(p, d, w)
    assert exc.value.violated == check_weight(p, d, w).violated != ()


def test_non_root_exact_reject():
    from posetrep.numeric import NoWitness

    p = make_poset([1, 1, 1])
    d = parse_dim_string("0;1;1;2")  # (0;1;0;1) + (0;0;1;1), not a root
    with pytest.raises(NoWitness) as exc:
        unitarize(p, d, parse_weight_string("8;6;1;7/2"))  # no part has b = g or d = g
    assert exc.value.violated == ()
    assert "not a root" in str(exc.value)
    # at a weight admissible for both roots, their sum is a cover
    rep = unitarize(p, d, parse_weight_string("8;1;1;1"))
    assert rep.residual <= 1e-8 * np.sqrt(2) and structure_check(rep, p, d).ok


def test_lift_checks_column_weights_exactly():
    from posetrep.derive import OrbitEscape
    from posetrep.numeric import _lift

    p = make_poset([2, 2, 1])
    d = parse_dim_string("0,1;0,1;1;2")
    with pytest.raises(OrbitEscape, match="column weight"):
        # g < b2 + d fails
        _lift(p, d, *_integer_point(parse_weight_string("1,4/3;1,1/3;1/3;1")))


def test_weight_scaled_to_integers_once(monkeypatch):
    """check_weight and unitarize, admissible or rejected, scale the weight
    to integers once per call."""
    from posetrep import derive, numeric
    from posetrep.numeric import NoWitness

    calls = []

    def counting(w):
        calls.append(w)
        return _integer_point(w)

    monkeypatch.setattr(derive, "_integer_point", counting)
    monkeypatch.setattr(numeric, "_integer_point", counting)
    p = make_poset([2, 2, 1])
    d = parse_dim_string("1,2;1,2;2;3")
    w = parse_weight_string("1,1;1,1;1;8/3")
    assert check_weight(p, d, w).admissible
    assert len(calls) == 1
    calls.clear()
    unitarize(p, d, w)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(NoWitness) as exc:
        unitarize(p, d, parse_weight_string("1,4;1,1;1;14/3"))
    assert exc.value.violated and len(calls) == 1


def test_two_root_split_gives_decomposable_witness():
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


def _sum_dims(parts, p):
    from posetrep.roots import dim_to_root, root_to_dim

    total = [sum(x) for x in zip(*map(dim_to_root, parts))]
    return root_to_dim(p, tuple(total))


def _reachable_by_admissible_roots(p, roots, d, w):
    """Whether d is a sum of roots, repeats allowed, at each of which
    check_weight admits w: every sum below d, grown one root at a time.
    roots are p's chain-monotone roots with d0 >= 1."""
    from posetrep.derive import check_weight
    from posetrep.roots import dim_to_root

    whole = dim_to_root(d)
    values = (-w.gamma,) + tuple(a for b in w.alphas for a in b)
    scale = lcm(*(v.denominator for v in values))
    values = [int(v * scale) for v in values]
    admissible = []
    for r in roots:
        x = dim_to_root(r)
        # the trace equality first, as check_weight does, on integers
        if (all(map(le, x, whole)) and not sum(map(mul, values, x))
                and check_weight(p, r, w).admissible):
            admissible.append(x)
    seen = {(0,) * len(whole)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for v in frontier:
            for r in admissible:
                s = tuple(a + b for a, b in zip(v, r))
                if s not in seen and all(map(le, s, whole)):
                    seen.add(s)
                    fresh.append(s)
        frontier = fresh
    return whole in seen


def _check_cover_exhaustively():
    """`_cover` against every sum of admissible roots, on every
    chain-monotone d with d0 <= 4 of (2,2,1) and (3,2,1)."""
    import itertools
    import random

    from posetrep.core import DimVector
    from posetrep.derive import check_weight
    from posetrep.numeric import _cover

    def chains(k, top):
        return [c for c in itertools.product(range(top + 1), repeat=k)
                if all(a <= b for a, b in zip(c, c[1:]))]

    rng = random.Random(5)
    covered = rejected = 0
    for branches in [(2, 2, 1), (3, 2, 1)]:
        p = make_poset(branches)
        roots = [r for r in enumerate_indec_dims(p) if r.d0 >= 1]
        for d0 in range(1, 5):
            for dims in itertools.product(*(chains(k, d0) for k in branches)):
                d = DimVector(d0, dims)
                alphas = tuple(tuple(rng.randint(1, 3) for _ in range(k)) for k in branches)
                trace = sum(a * e for b, c in zip(alphas, dims) for a, e in zip(b, c))
                if not trace:  # gamma would be 0
                    continue
                w = Weight(alphas, Fraction(trace, d0))
                parts = _cover(p, d, _integer_point(w)[0])
                assert (parts is not None) == _reachable_by_admissible_roots(p, roots, d, w), (d, w)
                if parts is None:
                    rejected += 1
                    continue
                assert _sum_dims(parts, p) == d
                assert all(check_weight(p, r, w).admissible for r in parts)
                covered += 1
    assert covered > 200 and rejected > 1000


def test_cover_matches_exhaustive_search():
    _check_cover_exhaustively()


def test_admissible_roots_on_a_trace_hyperplane_are_independent():
    """The invariant `_cover` solves by: on grids of small integer alphas,
    gamma set so that some root meets the trace equality, the roots on that
    hyperplane at which the weight is admissible are linearly independent."""
    import itertools
    from collections import defaultdict

    from posetrep import linalg
    from posetrep.derive import _criterion
    from posetrep.roots import _positive_roots, root_to_dim

    largest = {}
    for branches, values in [((1, 1, 1), range(1, 6)), ((2, 1, 1), range(1, 4)),
                             ((2, 2), range(1, 5)), ((3, 3), (1, 2)), ((5, 1, 1), (1, 2)),
                             ((2, 2, 1), (1, 2, 3)), ((3, 2, 1), (1, 2)), ((4, 2, 1), (1, 2))]:
        p = make_poset(branches)
        roots = [(r, _criterion(p, root_to_dim(p, r))) for r in _positive_roots(branches)
                 if r[0] >= 1 and root_to_dim(p, r).is_admissible(p)]
        largest[branches] = 0
        for flat in itertools.product(values, repeat=p.n):
            it = iter(flat)
            alphas = tuple(tuple(next(it) for _ in range(k)) for k in branches)
            on = defaultdict(list)  # gamma -> the roots whose trace equality it meets
            for r, criterion in roots:
                on[Fraction(sum(map(mul, flat, r[1:])), r[0])].append((r, criterion))
            on.pop(0, None)
            for gamma, group in on.items():
                w = Weight(alphas, gamma)
                x, _ = _integer_point(w)
                admissible = [r for r, criterion in group if not criterion.violated(x)]
                assert linalg.rank(admissible) == len(admissible), (branches, w, admissible)
                largest[branches] = max(largest[branches], len(admissible))
    assert largest[(4, 2, 1)] == 7 and largest[(3, 2, 1)] == 6


def test_dependent_candidates_raise_instead_of_answering(monkeypatch):
    """With every root admissible, the roots 1;0;0;1, 0;1;1;1 and their sum
    1;1;1;2 all meet the trace equality of 1;1/2;1/2;1: the solve has no
    unique answer and raises rather than give a verdict."""
    from types import SimpleNamespace

    from posetrep import numeric

    p = make_poset([1, 1, 1])
    d = parse_dim_string("2;1;1;3")  # 2 (1;0;0;1) + (0;1;1;1), not a root
    x, _ = _integer_point(parse_weight_string("1;1/2;1/2;1"))
    assert numeric._cover(p, d, x) == tuple(
        map(parse_dim_string, ["1;0;0;1", "1;0;0;1", "0;1;1;1"]))
    monkeypatch.setattr(numeric, "_criterion",
                        lambda p, d: SimpleNamespace(violated=lambda x: ()))
    with pytest.raises(ValueError, match="full column rank"):
        numeric._cover(p, d, x)


@st.composite
def _sums_of_roots(draw):
    """A poset, a sum d of one to three of its roots, and a weight: an
    admissible one of the first root with d that root repeated, or small
    integers with gamma set by d's trace equality."""
    p = make_poset(draw(st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 1)])))
    roots = [r for r in enumerate_indec_dims(p) if r.d0 >= 1]
    parts = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=3))
    if draw(st.booleans()):
        w = interior_point(derive_conditions(p, parts[0])[0], p)
        assume(w is not None)
        return p, _sum_dims([parts[0]] * len(parts), p), w
    d = _sum_dims(parts, p)
    alphas = tuple(tuple(draw(st.integers(1, 4)) for _ in range(k)) for k in p.branches)
    trace = sum(a * e for b, c in zip(alphas, d.branches) for a, e in zip(b, c))
    assume(trace)  # gamma would be 0
    return p, d, Weight(alphas, Fraction(trace, d.d0))


# --- oracle: a numeric descent over frames ----------------------------------
#
# ||sum_i a_i P_i - g I||_F^2 is minimised over one orthonormal frame per
# branch with a Barzilai-Borwein step, Armijo backtracking and a QR
# retraction after every step; random restarts guard against saddle points.
# Chain containment is exact by construction (nested columns of a single
# frame), so only the relation residual is optimised.  Failure to converge
# is never a certificate that no witness exists; convergence is one that a
# witness does, independent of the exact cover.


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
    rep = NumericRep(p, d, w, _projectors(p, d, frames), residual, it, r + 1, seed)
    if residual > target:
        raise NoConvergence(
            f"best residual {residual:.3e} above tolerance {target:.3e} "
            f"after {restarts} restarts", rep,
        )
    return rep


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_sums_of_roots())
def test_descent_converges_only_with_a_cover(case):
    """On random sums of roots: when the descent converges a cover exists,
    and every cover lifts to a witness."""
    from posetrep import numeric

    p, d, w = case
    target = 1e-8 * float(w.gamma) * np.sqrt(d.d0)
    if numeric._cover(p, d, _integer_point(w)[0]) is None:
        with pytest.raises(NoConvergence):
            _descend(p, d, w, target, 1e-12, 300, 2, 0)
        return
    rep = unitarize(p, d, w)
    assert rep.residual <= target
    assert structure_check(rep, p, d).ok


def test_slow_sum_of_roots_decided_exactly():
    """d is a sum of four roots of (2,2,1) and no root below it is
    admissible at w; the descent once ran for tens of seconds on it."""
    from posetrep import numeric
    from posetrep.numeric import NoWitness

    p = make_poset([2, 2, 1])
    w = parse_weight_string("1/2,2;1,5/2;3/2;29/6")
    with pytest.raises(NoWitness) as exc:
        unitarize(p, parse_dim_string("3,4;4,5;2;6"), w)
    assert exc.value.violated == ()
    assert "not a root" in str(exc.value)
    # a cover by three roots, two of them equal
    d = parse_dim_string("2,2;2,3;1;3")
    w = parse_weight_string("1/2,1/2;2,3;3;6")
    x, _ = _integer_point(w)
    assert numeric._cover(p, d, x) == tuple(
        map(parse_dim_string, ["1,1;1,1;0;1", "1,1;1,1;0;1", "0,0;0,1;1;1"]))
    rep = unitarize(p, d, w)
    assert rep.residual <= 1e-8 * 6 * np.sqrt(3) and structure_check(rep, p, d).ok
    assert commutant_dim(rep) >= 3
    # the candidates are independent, so one solve decides a cover of 60 parts
    assert len(numeric._cover(p, parse_dim_string("40,40;40,60;20;60"), x)) == 60
    # a repeated part is lifted once, and its lift steps count each time
    p = make_poset([1, 1, 1])
    w = parse_weight_string("1;1;1;3/2")
    root = unitarize(p, parse_dim_string("1;1;1;2"), w)
    rep = unitarize(p, parse_dim_string("2;2;2;4"), w)
    assert root.iterations > 0 and rep.iterations == 2 * root.iterations
    assert rep.residual <= 1e-8 * 1.5 * 2 and structure_check(rep, p, rep.dims).ok


def test_finite_type_never_descends():
    """Every finite-type poset up to 64 elements is decided by the cover:
    a witness, or an exact reject."""
    import random

    from posetrep.numeric import NoWitness

    rng = random.Random(11)
    outcomes = set()
    for branches in [(1, 1, 1), (5, 1, 1), (4, 2, 1), (6, 5), (32, 32), (63,)]:
        p = make_poset(branches)
        roots = [r for r in enumerate_indec_dims(p) if 1 <= r.d0 <= 3]
        for _ in range(6):
            d = _sum_dims(rng.sample(roots, 2), p)
            alphas = tuple(tuple(rng.randint(1, 3) for _ in range(k)) for k in branches)
            trace = sum(a * e for b, c in zip(alphas, d.branches) for a, e in zip(b, c))
            w = Weight(alphas, Fraction(trace, d.d0))
            try:
                rep = unitarize(p, d, w)
            except NoWitness:
                outcomes.add("no witness")
            else:
                assert structure_check(rep, p, d).ok
                outcomes.add("witness")
    assert outcomes == {"witness", "no witness"}
