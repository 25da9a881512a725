"""Reference computations made apart from posetrep.

Every check the benchmark applies to an output of the program goes through
this module.  Nothing here imports posetrep: roots come from a reflection
closure written here, conditions are evaluated with plain Fractions, region
questions go to scipy's floating-point ``linprog`` and projectors to numpy.

Encodings used throughout:

* a dimension vector is ``(d0, ((d_11, ..., d_1k1), ...))``;
* a weight is ``(alphas, gamma)`` with the same branch shape, Fractions;
* a linear form is a dict ``{key: Fraction}`` over the keys ``a.j.i`` and
  ``g`` (zero coefficients are dropped);
* a condition is ``(form, rel)`` with rel ``"eq0"`` (form = 0) or ``"lt0"``
  (form < 0).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

GAMMA = "g"
EQ, LT = "eq0", "lt0"
GREEK = "αβδεζηθκλμ"
SUBSCRIPTS = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")


def akey(j: int, i: int) -> str:
    return f"a.{j}.{i}"


def poset_keys(branches) -> list[str]:
    return [akey(j, i) for j, k in enumerate(branches, 1) for i in range(1, k + 1)]


# --- encodings ----------------------------------------------------------------


def form_from_json(obj) -> dict:
    out = {k: Fraction(v) for k, v in obj.items()}
    return {k: v for k, v in out.items() if v != 0}


def conditions_from_json(obj) -> list[tuple[dict, str]]:
    return [(form_from_json(c["coeffs"]), c["rel"]) for c in obj]


def dim_from_json(obj) -> tuple:
    return int(obj["d0"]), tuple(tuple(int(e) for e in b) for b in obj["branches"])


def parse_dim(text: str) -> tuple:
    fields = text.split(";")
    return int(fields[-1]), tuple(tuple(int(x) for x in f.split(",")) for f in fields[:-1])


def format_dim(d) -> str:
    return ";".join(",".join(str(e) for e in b) for b in d[1]) + f";{d[0]}"


def parse_weight(text: str) -> tuple:
    fields = text.split(";")
    return (tuple(tuple(Fraction(x) for x in f.split(",")) for f in fields[:-1]),
            Fraction(fields[-1]))


def format_weight(w) -> str:
    return ";".join(",".join(str(a) for a in b) for b in w[0]) + f";{w[1]}"


def weight_values(w) -> dict:
    alphas, gamma = w
    out = {akey(j, i): a for j, b in enumerate(alphas, 1) for i, a in enumerate(b, 1)}
    out[GAMMA] = gamma
    return out


def load_corpus(path: Path) -> dict:
    """Published tables: {branches: [(dim, conditions), ...]} in file order."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    out = {}
    for table in data["tables"]:
        branches = tuple(table["poset"]["branches"])
        out[branches] = [(dim_from_json(r["dim"]), conditions_from_json(r["conditions"]))
                         for r in table["rows"]]
    return out


# --- exact evaluation -----------------------------------------------------------


def evaluate(form: dict, values: dict) -> Fraction:
    return sum((c * values[k] for k, c in form.items()), Fraction(0))


def holds(cond, values: dict) -> bool:
    form, rel = cond
    v = evaluate(form, values)
    return v == 0 if rel == EQ else v < 0


def trace_form(d) -> dict:
    """sum_i d_i a_i - d0 g, the trace of the projection relation."""
    d0, branches = d
    form = {akey(j, i): Fraction(e) for j, b in enumerate(branches, 1)
            for i, e in enumerate(b, 1) if e}
    if d0:
        form[GAMMA] = Fraction(-d0)
    return form


def proportional(f1: dict, f2: dict, positive: bool = False) -> bool:
    """Whether f1 = c f2 for some c != 0 (c > 0 when positive)."""
    if set(f1) != set(f2) or not f1:
        return f1 == f2
    k = next(iter(f1))
    c = f1[k] / f2[k]
    if positive and c < 0:
        return False
    return all(f1[key] == c * f2[key] for key in f1)


def same_condition(c1, c2) -> bool:
    (f1, r1), (f2, r2) = c1, c2
    return r1 == r2 and proportional(f1, f2, positive=(r1 == LT))


def parse_rendered(text: str, branches) -> tuple[dict, str]:
    """Read a condition printed in table style, e.g. ``2α₁+β<γ+δ``."""
    rel = LT if "<" in text else EQ
    lhs, rhs = text.split("<" if rel == LT else "=")
    form: dict = {}
    for side, sign in ((lhs, 1), (rhs, -1)):
        if side == "0":
            continue
        for term in side.split("+"):
            pos = 0
            while term[pos] in "0123456789/":
                pos += 1
            coef = Fraction(term[:pos]) if pos else Fraction(1)
            letter, index = term[pos], term[pos + 1:].translate(SUBSCRIPTS)
            if letter == "γ":
                key = GAMMA
            else:
                j = GREEK.index(letter) + 1
                if j > len(branches):
                    raise ValueError(f"letter {letter} outside poset {branches}")
                key = akey(j, int(index) if index else 1)
            form[key] = form.get(key, Fraction(0)) + sign * coef
    return {k: v for k, v in form.items() if v}, rel


# --- roots of the star graph ----------------------------------------------------


def star_adjacency(branches) -> list[list[int]]:
    """Vertex 0 is the centre; branch j's element i follows branch-major, and
    the top element of each branch touches the centre."""
    n = 1 + sum(branches)
    adj = [[] for _ in range(n)]
    base = 1
    for k in branches:
        for i in range(k - 1):
            adj[base + i].append(base + i + 1)
            adj[base + i + 1].append(base + i)
        adj[base + k - 1].append(0)
        adj[0].append(base + k - 1)
        base += k
    return adj


def tits_form(branches, x) -> int:
    adj = star_adjacency(branches)
    edges = sum(x[u] * x[v] for u in range(len(adj)) for v in adj[u] if u < v)
    return sum(v * v for v in x) - edges


def positive_roots(branches) -> set:
    """Closure of the simple roots under simple reflections, keeping the
    positive cone.  Only valid for Dynkin stars (finite closure)."""
    adj = star_adjacency(branches)
    n = len(adj)
    frontier = [tuple(int(i == v) for i in range(n)) for v in range(n)]
    roots = set(frontier)
    while frontier:
        fresh = []
        for x in frontier:
            for v in range(n):
                y = sum(x[u] for u in adj[v]) - x[v]
                if y >= 0:
                    z = x[:v] + (y,) + x[v + 1:]
                    if z not in roots:
                        roots.add(z)
                        fresh.append(z)
        frontier = fresh
    return roots


def root_to_dim(branches, x) -> tuple:
    out, pos = [], 1
    for k in branches:
        out.append(tuple(x[pos:pos + k]))
        pos += k
    return x[0], tuple(out)


def dim_to_root(d) -> tuple:
    return (d[0],) + tuple(e for b in d[1] for e in b)


def is_monotone(d) -> bool:
    d0, branches = d
    return all(b[0] >= 0 and all(x <= y for x, y in zip(b, b[1:])) and b[-1] <= d0
               for b in branches)


def indecomposable_dims(branches) -> set:
    """Chain-monotone positive roots, read as dimension vectors."""
    return {d for d in (root_to_dim(branches, x) for x in positive_roots(branches))
            if is_monotone(d)}


def splits(d):
    """Every d' with 0 < d' < d such that d' and d - d' are chain-monotone."""
    d0, branches = d

    def chains(b, top):
        # monotone c <= b with b - c monotone, all entries <= top
        out = [()]
        for i, e in enumerate(b):
            nxt = []
            for c in out:
                lo = c[-1] if c else 0
                for v in range(lo, min(e, top) + 1):
                    if i and (e - v) < (b[i - 1] - c[-1]):
                        continue
                    nxt.append(c + (v,))
            out = nxt
        return [c for c in out if d0 - top >= b[-1] - c[-1]]

    for top in range(1, d0 + 1):  # top = 0 forces d' = 0
        for combo in itertools.product(*(chains(b, top) for b in branches)):
            if (top, combo) != d:
                yield top, combo


def no_decomposable_witness(d, w) -> bool:
    """True when no split d = d' + d'' lets both parts meet their own trace
    equality at w, so any witness would have to be indecomposable."""
    values = weight_values(w)
    return all(evaluate(trace_form(s), values) != 0 for s in splits(d))


# --- reflection transforms --------------------------------------------------------


class Undefined(Exception):
    """A transform leaves the admissible region or the positive cone."""


def sigma_dim(d):
    if not is_monotone(d):
        raise Undefined(d)
    d0, bs = d
    return d0, tuple(tuple(d0 - e for e in reversed(b)) for b in bs)


def rho_dim(d):
    if not is_monotone(d):
        raise Undefined(d)
    d0, bs = d
    new0 = sum(b[-1] for b in bs) - d0
    out = (new0, tuple(tuple(b[-1] - (b[len(b) - 1 - i] if i < len(b) else 0)
                             for i in range(1, len(b) + 1)) for b in bs))
    if new0 < 0 or not is_monotone(out):
        raise Undefined(d)
    return out


DIM_OPS = {
    "sigma": sigma_dim,
    "rho": rho_dim,
    "fplus": lambda d: sigma_dim(rho_dim(d)),
    "fminus": lambda d: rho_dim(sigma_dim(d)),
}


def _add(*forms) -> dict:
    out: dict = {}
    for sign, f in forms:
        for k, v in f.items():
            out[k] = out.get(k, Fraction(0)) + sign * v
    return {k: v for k, v in out.items() if v}


def phiplus_symbolic(bs, g):
    """(branch forms, gamma form) -> upward transform of the forms."""
    m = len(bs)
    new_bs = tuple((_add((1, g), *((-1, f) for f in b)),) + b[:-1] for b in bs)
    new_g = _add((m - 1, g), *((-1, b[-1]) for b in bs))
    return new_bs, new_g


def phiminus_symbolic(bs, g):
    sums = [_add(*((1, f) for f in b)) for b in bs]
    total = _add(*((1, s) for s in sums))
    new_bs = tuple(b[1:] + (_add((1, total), (-1, sums[j]), (-1, g)),)
                   for j, b in enumerate(bs))
    return new_bs, _add((1, total), (-1, g))


SYMBOLIC_OPS = {"phiplus": phiplus_symbolic, "phiminus": phiminus_symbolic}


def identity_symbolic(branches):
    return (tuple(tuple({akey(j, i): Fraction(1)} for i in range(1, k + 1))
                  for j, k in enumerate(branches, 1)), {GAMMA: Fraction(1)})


def weight_transform(op: str, branches, w):
    bs, g = SYMBOLIC_OPS[op](*identity_symbolic(branches))
    values = weight_values(w)
    alphas = tuple(tuple(evaluate(f, values) for f in b) for b in bs)
    gamma = evaluate(g, values)
    if gamma <= 0 or any(a <= 0 for b in alphas for a in b):
        raise Undefined(w)
    return alphas, gamma


# --- regions, by floating-point LP ------------------------------------------------

LP_TOL = 1e-9


def _rows(forms, keys):
    a = np.array([[float(f.get(k, 0)) for k in keys] for f in forms]).reshape(len(forms), len(keys))
    b = np.array([-float(f.get(GAMMA, 0)) for f in forms])
    return a, b


def _linprog(c, keys, eqs, ubs, bounds=(0, None)):
    """minimise c.x subject to ubs <= 0 and eqs = 0 at g = 1 (scipy is only
    imported for the checks, after the timed phase)."""
    from scipy.optimize import linprog

    a_eq, b_eq = _rows(eqs, keys)
    a_ub, b_ub = _rows(ubs, keys)
    return linprog(c, A_ub=a_ub if ubs else None, b_ub=b_ub if ubs else None,
                   A_eq=a_eq if eqs else None, b_eq=b_eq if eqs else None,
                   bounds=bounds, method="highs")


def _split(conditions):
    return ([f for f, r in conditions if r == EQ], [f for f, r in conditions if r == LT])


def region_nonempty(keys, conditions) -> bool:
    """Some point with g = 1, every alpha > 0, equalities and strict
    inequalities met: maximise a common slack s <= 1."""
    eqs, lts = _split(conditions)
    n = len(keys)
    ubs = [dict(f, s=Fraction(1)) for f in lts]
    ubs += [{k: Fraction(-1), "s": Fraction(1)} for k in keys]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = _linprog(c, keys + ["s"], eqs, ubs, bounds=[(0, None)] * n + [(None, 1)])
    return res.status == 0 and -res.fun > LP_TOL


def implied(keys, conditions, form) -> bool:
    """Whether form < 0 on the (nonempty) region: form <= 0 on its closure,
    and form does not vanish on the affine hull of the equalities (the
    region is open in that hull)."""
    eqs, lts = _split(conditions)
    c = np.array([float(form.get(k, 0)) for k in keys])
    hi = _linprog(-c, keys, eqs, lts)
    if hi.status == 3:
        return False
    if hi.status != 0:
        raise RuntimeError(f"linprog failed: {hi.message}")
    if -hi.fun + float(form.get(GAMMA, 0)) > LP_TOL:
        return False
    return not equality_span_equal(keys, eqs, eqs + [form]) if eqs else any(form.values())


def equality_span_equal(keys, eqs1, eqs2) -> bool:
    full = keys + [GAMMA]

    def mat(fs):
        return np.array([[float(f.get(k, 0)) for k in full] for f in fs]).reshape(len(fs), len(full))

    r1 = np.linalg.matrix_rank(mat(eqs1)) if eqs1 else 0
    r2 = np.linalg.matrix_rank(mat(eqs2)) if eqs2 else 0
    r12 = np.linalg.matrix_rank(mat(eqs1 + eqs2)) if eqs1 or eqs2 else 0
    return r1 == r2 == r12


def regions_equivalent(keys, c1, c2) -> bool:
    """Same solution set inside the open positive orthant with g = 1."""
    n1, n2 = region_nonempty(keys, c1), region_nonempty(keys, c2)
    if not n1 or not n2:
        return n1 == n2
    if not equality_span_equal(keys, _split(c1)[0], _split(c2)[0]):
        return False
    return (all(implied(keys, c2, f) for f in _split(c1)[1])
            and all(implied(keys, c1, f) for f in _split(c2)[1]))


def drops_are_implied(keys, raw, kept) -> bool:
    """Every inequality of raw missing from kept is implied by kept."""
    if not region_nonempty(keys, kept):
        return True
    dropped = [f for f, r in raw if r == LT and not any(
        same_condition((f, r), k) for k in kept)]
    return all(implied(keys, kept, f) for f in dropped)


# --- projectors ---------------------------------------------------------------------


def projector_errors(branches, d, w, payload) -> list[str]:
    """Check unitarize's printed projectors against the relation and the
    structure a witness must have; returns the failures found."""
    d0, dims = d
    alphas, gamma = w
    mats = [np.array([[complex(re, im) for re, im in row] for row in m]).reshape(d0, d0)
            for m in payload["projectors"]]
    flat_dims = [e for b in dims for e in b]
    flat_alphas = [float(a) for b in alphas for a in b]
    if len(mats) != len(flat_dims):
        return [f"{len(mats)} projectors for {len(flat_dims)} elements"]
    errs = []
    total = -float(gamma) * np.eye(d0, dtype=complex)
    for a, p in zip(flat_alphas, mats):
        total += a * p
    residual = float(np.linalg.norm(total))
    bound = 1e-8 * float(gamma) * d0 ** 0.5
    if residual > bound:
        errs.append(f"relation residual {residual:.3e} > {bound:.3e}")
    for idx, (p, rank) in enumerate(zip(mats, flat_dims)):
        if np.linalg.norm(p - p.conj().T) > 1e-8:
            errs.append(f"P{idx} not Hermitian")
        if np.linalg.norm(p @ p - p) > 1e-8:
            errs.append(f"P{idx} not idempotent")
        got = int((np.linalg.eigvalsh((p + p.conj().T) / 2) > 0.5).sum())
        if got != rank:
            errs.append(f"P{idx} has rank {got}, expected {rank}")
    pos = 0
    for b in dims:
        for i in range(len(b) - 1):
            lower, upper = mats[pos + i], mats[pos + i + 1]
            if np.linalg.norm(lower @ upper - lower) > 1e-8:
                errs.append(f"P{pos + i} not inside P{pos + i + 1}")
        pos += len(b)
    return errs


# --- exact subspace representations -------------------------------------------------


def rank(rows) -> int:
    """Rank of a rational matrix by exact Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def _bases(rep):
    return [[[Fraction(x) for x in row] for row in b] for b in rep["bases"]]


def change_basis(rep: dict, rng) -> dict:
    """The same representation seen through a random invertible rational
    T = L U (unit lower times upper triangular with nonzero diagonal)."""
    n = rep["ambient"]
    lower = [[Fraction(1) if i == j else Fraction(rng.randint(-3, 3)) if j < i else Fraction(0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.choice((1, 2, 3, -1, -2))) if i == j
              else Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    t = _matmul(lower, upper)
    bases = [_matmul(t, b) if b and b[0] else b for b in _bases(rep)]
    return dict(rep, bases=[[[str(x) for x in row] for row in b] for b in bases])


def independent(matrices) -> bool:
    return rank([[x for row in m for x in row] for m in matrices]) == len(matrices)


def intertwines(c, rep: dict) -> bool:
    """Whether C maps every subspace of rep into itself."""
    for b in _bases(rep):
        if b and b[0]:
            image = _matmul(c, b)
            if rank([rb + ri for rb, ri in zip(b, image)]) != rank(b):
                return False
    return True


def rep_dims(rep: dict) -> tuple:
    ranks = [rank(b) if b and b[0] else 0 for b in _bases(rep)]
    out, pos = [], 0
    for k in rep["poset"]["branches"]:
        out.append(tuple(ranks[pos:pos + k]))
        pos += k
    return rep["ambient"], tuple(out)
