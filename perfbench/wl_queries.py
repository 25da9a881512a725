"""queries: a seeded stream of one-shot CLI queries through cli.main.

The round has a fixed make-up (counts below); the seed picks the dimension
vectors, weights, transform steps and fixture parameters.  It covers every
finite-type shape the root scan finishes in seconds: chains, two chains,
(k,1,1) and the three exceptional shapes.  Every round starts with the
program's caches cleared, so the first query that touches a poset pays its
cold root enumeration; the rest of the stream is warm.  Here the root scan,
the descent in derive, linrep/linalg and the CLI's own parsing and
formatting do the work; the LP only simplifies a few rows.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import oracle
from worker import Op, cli_op

POSETS = ((1,), (4,), (8,), (2, 2), (4, 3), (5, 5), (6, 5), (6, 6),
          (1, 1, 1), (2, 1, 1), (5, 1, 1), (8, 1, 1), (10, 1, 1),
          (2, 2, 1), (3, 2, 1), (4, 2, 1))
PUBLISHED = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1))
# Simplified (LP) queries stay on the three smallest published posets: one
# (3,2,1) row can take 0.5 s to simplify, so a few of them drawn by the seed
# would swing a round's wall time from seed to seed by up to a third.
SIMPLIFIED_POSETS = ((1, 1, 1), (2, 1, 1), (2, 2, 1))
ENUMERATE_PER_POSET = 3
RAW_PER_POSET = 10
SIMPLIFIED_PER_POSET = 4
WEIGHTS_PER_PUBLISHED = 6  # of each kind: near-interior and random
TRACE_WEIGHTS_PER_POSET = 2
DIM_TRANSFORMS, WEIGHT_TRANSFORMS, SYMBOLIC_TRANSFORMS = 20, 12, 6
MAX_STEPS = 3
COLD_ROUNDS = True


def _poset_arg(branches) -> str:
    return ",".join(map(str, branches))


def _random_alphas(rng, d):
    return tuple(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in b) for b in d[1])


def _fit_gamma(alphas, d) -> Fraction:
    return sum((a * e for b, db in zip(alphas, d[1]) for a, e in zip(b, db)), Fraction(0)) / d[0]


class _Builder:
    def __init__(self, ctx):
        self.ctx, self.rng, self.ops = ctx, ctx.rng, []
        self.dims = {b: sorted(oracle.indecomposable_dims(b)) for b in POSETS}
        self.pools = json.loads(
            (Path(__file__).resolve().parent / "data" / "weights.json").read_text("utf-8"))

    def add(self, kind, argv, data):
        self.ops.append(Op(kind, lambda: cli_op(self.ctx, argv), data))

    def weighted_dim(self, branches):
        """A dimension vector with some nonzero branch entry, so that the
        trace equality fixes a positive gamma."""
        return self.rng.choice([d for d in self.dims[branches] if any(e for b in d[1] for e in b)])

    def enumerate_ops(self):
        for branches in POSETS:
            for _ in range(ENUMERATE_PER_POSET):
                self.add("enumerate", ["enumerate", "--poset", _poset_arg(branches), "--json"],
                         branches)

    def condition_ops(self):
        for branches in POSETS:
            for _ in range(RAW_PER_POSET):
                d = self.rng.choice(self.dims[branches])
                self.add("conditions_raw", ["conditions", "--poset", _poset_arg(branches),
                                            "--dim", oracle.format_dim(d), "--raw",
                                            "--format", "json"], (branches, d))
        for branches in SIMPLIFIED_POSETS:
            for _ in range(SIMPLIFIED_PER_POSET):
                d = self.rng.choice(self.dims[branches])
                self.add("conditions", ["conditions", "--poset", _poset_arg(branches),
                                        "--dim", oracle.format_dim(d), "--format", "json"],
                         (branches, d))

    def check_weight_ops(self):
        for branches in PUBLISHED:
            near = [e for e in self.pools["published"] if tuple(e["poset"]) == branches]
            for _ in range(WEIGHTS_PER_PUBLISHED):
                entry = self.rng.choice(near)
                d = oracle.parse_dim(entry["dim"])
                alphas = tuple(tuple(a * (1 + Fraction(self.rng.randint(-20, 20), 1000))
                                     for a in b) for b in oracle.parse_weight(entry["weight"])[0])
                self._check_weight(branches, d, (alphas, _fit_gamma(alphas, d)), "check_weight")
            for _ in range(WEIGHTS_PER_PUBLISHED):
                d = self.weighted_dim(branches)
                alphas = _random_alphas(self.rng, d)
                self._check_weight(branches, d, (alphas, _fit_gamma(alphas, d)), "check_weight")
        for branches in POSETS:
            for _ in range(TRACE_WEIGHTS_PER_POSET):
                d = self.weighted_dim(branches)
                alphas = _random_alphas(self.rng, d)
                gamma = _fit_gamma(alphas, d) * Fraction(self.rng.choice((5, 7, 9)), 8)
                self._check_weight(branches, d, (alphas, gamma), "check_weight_trace")

    def _check_weight(self, branches, d, w, kind):
        self.add(kind, ["check-weight", "--poset", _poset_arg(branches), "--dim",
                        oracle.format_dim(d), "--weight", oracle.format_weight(w)],
                 (branches, d, w))

    def coxeter_ops(self):
        made = {"dim": 0, "weight": 0}
        while made["dim"] < DIM_TRANSFORMS:
            branches = self.rng.choice(POSETS)
            op = self.rng.choice(sorted(oracle.DIM_OPS))
            d = self.rng.choice(self.dims[branches])
            steps = _valid_steps(lambda x: oracle.DIM_OPS[op](x), d)
            if steps:
                made["dim"] += 1
                self.add("coxeter_dim", ["coxeter", "--op", op, "--poset", _poset_arg(branches),
                                         "--dim", oracle.format_dim(d), "--steps", str(steps)],
                         (branches, op, d, steps))
        while made["weight"] < WEIGHT_TRANSFORMS:
            branches = self.rng.choice(POSETS)
            op = self.rng.choice(sorted(oracle.SYMBOLIC_OPS))
            w = (tuple(tuple(Fraction(self.rng.randint(1, 9)) for _ in range(k))
                       for k in branches), Fraction(self.rng.randint(1, 9)))
            steps = _valid_steps(lambda x: oracle.weight_transform(op, branches, x), w)
            if steps:
                made["weight"] += 1
                self.add("coxeter_weight", ["coxeter", "--op", op, "--poset",
                                            _poset_arg(branches), "--weight",
                                            oracle.format_weight(w), "--steps", str(steps)],
                         (branches, op, w, steps))
        for _ in range(SYMBOLIC_TRANSFORMS):
            branches = self.rng.choice(POSETS)
            op = self.rng.choice(sorted(oracle.SYMBOLIC_OPS))
            steps = self.rng.randint(1, MAX_STEPS)
            self.add("coxeter_symbolic", ["coxeter", "--op", op, "--poset",
                                          _poset_arg(branches), "--symbolic",
                                          "--steps", str(steps)], (branches, op, steps))

    def rep_ops(self):
        linrep = self.ctx.pr.linrep
        self.ctx.workdir.mkdir(parents=True, exist_ok=True)
        lams = []
        while len(lams) < 3:
            lam = Fraction(self.rng.randint(2, 9), self.rng.randint(1, 5))
            if lam not in lams and lam != 1:
                lams.append(lam)
        reps = {f"f1111_{k}": linrep.family_1111(lam) for k, lam in enumerate(lams)}
        reps["f222"] = linrep.family_222(lams[0])
        reps["f332"] = linrep.family_332(lams[1])
        reps["f521"] = linrep.family_521(lams[2])
        reps["nonbrick"] = linrep.nonbrick_alpha(Fraction(self.rng.randint(1, 9), 2))
        reps["sum_1111"] = linrep.direct_sum(reps["f1111_0"], reps["f1111_1"])
        reps["sum_222"] = linrep.direct_sum(reps["f222"], reps["f222"])
        reps["sum_nonbrick"] = linrep.direct_sum(reps["nonbrick"], reps["f1111_2"])
        files = {}
        for name, rep in reps.items():
            obj = linrep.rep_to_json(rep)
            files[name] = self._write(name, obj)
            if name in ("f1111_0", "f222", "f332", "f521", "nonbrick"):
                files[name + "_moved"] = self._write(name + "_moved",
                                                     oracle.change_basis(obj, self.rng))
        self.ctx.extra["rep_files"] = files
        for k in range(3):
            self.add("rep_brick", ["rep", "--file", files[f"f1111_{k}"], "--check", "brick"], True)
        for k in range(2):
            self.add("rep_indecomposable", ["rep", "--file", files[f"f1111_{k}"], "--check",
                                            "indecomposable"], True)
        for name in ("f1111_0", "f222", "f332", "f521", "nonbrick"):
            self.add("rep_isomorphic", ["rep", "--isomorphic", files[name],
                                        files[name + "_moved"]], True)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            self.add("rep_isomorphic", ["rep", "--isomorphic", files[f"f1111_{i}"],
                                        files[f"f1111_{j}"]], False)
        self.add("rep_hom", ["rep", "--hom", files["nonbrick"], files["nonbrick"]],
                 ("nonbrick", 2))
        self.add("rep_hom", ["rep", "--hom", files["f1111_0"], files["f1111_0"]],
                 ("f1111_0", 1))
        self.add("rep_brick", ["rep", "--file", files["nonbrick"], "--check", "brick"], False)
        for name in ("sum_1111", "sum_222", "sum_nonbrick"):
            self.add("rep_indecomposable", ["rep", "--file", files[name], "--check",
                                            "indecomposable"], False)
        for name in ("f332", "f521", "sum_nonbrick"):
            self.add("rep_dim", ["rep", "--file", files[name], "--check", "dim"], name)

    def _write(self, name, obj) -> str:
        path = self.ctx.workdir / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)


def _valid_steps(step, x) -> int:
    n = 0
    while n < MAX_STEPS:
        try:
            x = step(x)
        except oracle.Undefined:
            break
        n += 1
    return n


def setup(ctx) -> list[Op]:
    b = _Builder(ctx)
    b.enumerate_ops()
    b.condition_ops()
    b.check_weight_ops()
    b.coxeter_ops()
    b.rep_ops()
    ctx.rng.shuffle(b.ops)
    ctx.extra["corpus"] = oracle.load_corpus(ctx.corpus_path)
    return b.ops


def warm_up(ctx) -> None:
    pass


def check_setup(ctx, ops):
    return []


def check(ctx, op, output) -> list[str]:
    code, stdout = output
    return CHECKS[op.kind](ctx, op.data, code, stdout)


def _check_enumerate(ctx, branches, code, stdout):
    dims = [oracle.dim_from_json(x) for x in json.loads(stdout)["dims"]]
    expected = oracle.indecomposable_dims(branches)
    errs = []
    if code != 0 or len(dims) != len(expected) or set(dims) != expected:
        errs.append(f"{branches}: {len(dims)} vectors, expected {len(expected)}")
    if not all(oracle.is_monotone(d) and oracle.tits_form(branches, oracle.dim_to_root(d)) == 1
               for d in dims):
        errs.append(f"{branches}: a vector is not a chain-monotone root")
    return errs


def _check_conditions(ctx, data, code, stdout):
    branches, d = data
    conditions = oracle.conditions_from_json(json.loads(stdout)["conditions"])
    eqs = [f for f, r in conditions if r == oracle.EQ]
    errs = [] if code == 0 else [f"exit {code}"]
    if len(eqs) != 1 or not oracle.proportional(eqs[0], oracle.trace_form(d)):
        errs.append(f"{branches} {oracle.format_dim(d)}: equality is not the trace condition")
    if branches in ctx.extra["corpus"]:
        published = dict(ctx.extra["corpus"][branches])[d]
        if not oracle.regions_equivalent(oracle.poset_keys(branches), conditions, published):
            errs.append(f"{branches} {oracle.format_dim(d)}: region differs from the published row")
    return errs


def _violated(stdout, branches):
    lines = stdout.splitlines()
    if not all(line.startswith("violated: ") for line in lines):
        return None
    return [oracle.parse_rendered(line[len("violated: "):], branches) for line in lines]


def _check_weight(ctx, data, code, stdout):
    branches, d, w = data
    values = oracle.weight_values(w)
    published = dict(ctx.extra["corpus"][branches])[d]
    admissible = all(oracle.holds(c, values) for c in published)
    if admissible:
        return [] if (code, stdout) == (0, "admissible\n") else [
            f"{branches} {oracle.format_dim(d)} at {oracle.format_weight(w)}: "
            f"admissible weight answered exit {code}"]
    violated = _violated(stdout, branches)
    if code != 2 or not violated:
        return [f"{branches} {oracle.format_dim(d)} at {oracle.format_weight(w)}: "
                f"inadmissible weight answered exit {code}: {stdout.strip()}"]
    if any(oracle.holds(c, values) for c in violated):
        return [f"{branches} {oracle.format_dim(d)}: a reported condition holds"]
    return []


def _check_weight_trace(ctx, data, code, stdout):
    branches, d, w = data
    violated = _violated(stdout, branches)
    if code != 2 or violated is None or len(violated) != 1 or not oracle.same_condition(
            violated[0], (oracle.trace_form(d), oracle.EQ)):
        return [f"{branches} {oracle.format_dim(d)}: trace violation reported as {stdout!r}"]
    return []


def _check_coxeter_dim(ctx, data, code, stdout):
    branches, op, d, steps = data
    expected = []
    for _ in range(steps):
        d = oracle.DIM_OPS[op](d)
        expected.append(d)
    got = [oracle.parse_dim(line) for line in stdout.splitlines()]
    return [] if code == 0 and got == expected else [f"{op} on {branches}: {got} != {expected}"]


def _check_coxeter_weight(ctx, data, code, stdout):
    branches, op, w, steps = data
    expected = []
    for _ in range(steps):
        w = oracle.weight_transform(op, branches, w)
        expected.append(w)
    got = [oracle.parse_weight(line) for line in stdout.splitlines()]
    return [] if code == 0 and got == expected else [f"{op} on {branches}: {got} != {expected}"]


def _check_coxeter_symbolic(ctx, data, code, stdout):
    branches, op, steps = data
    bs, g = oracle.identity_symbolic(branches)
    expected = []
    for _ in range(steps):
        bs, g = oracle.SYMBOLIC_OPS[op](bs, g)
        expected.append((bs, g))
    got = []
    for line in stdout.splitlines():
        obj = json.loads(line)
        got.append((tuple(tuple(oracle.form_from_json(f) for f in b) for b in obj["branches"]),
                    oracle.form_from_json(obj["gamma"])))
    return [] if code == 0 and got == expected else [f"symbolic {op} on {branches} differs"]


def _check_verdict(word_yes, word_no):
    def check(ctx, expected, code, stdout):
        want = (0, word_yes + "\n") if expected else (2, word_no + "\n")
        return [] if (code, stdout) == want else [f"expected {want}, got {(code, stdout)}"]
    return check


def _check_hom(ctx, data, code, stdout):
    name, dim = data
    obj = json.loads(stdout)
    rep = json.loads(Path(ctx.extra["rep_files"][name]).read_text("utf-8"))
    basis = [[[Fraction(x) for x in row] for row in m] for m in obj["basis"]]
    errs = [] if code == 0 and obj["dim"] == dim == len(basis) else [
        f"End({name}) has dimension {obj['dim']}, expected {dim}"]
    if not oracle.independent(basis) or not all(oracle.intertwines(c, rep) for c in basis):
        errs.append(f"End({name}) basis is not a set of independent endomorphisms")
    return errs


def _check_dim(ctx, name, code, stdout):
    rep = json.loads(Path(ctx.extra["rep_files"][name]).read_text("utf-8"))
    expected = oracle.rep_dims(rep)
    got = oracle.parse_dim(stdout.strip())
    return [] if code == 0 and got == expected else [f"dim of {name}: {got} != {expected}"]


CHECKS = {
    "enumerate": _check_enumerate,
    "conditions_raw": _check_conditions,
    "conditions": _check_conditions,
    "check_weight": _check_weight,
    "check_weight_trace": _check_weight_trace,
    "coxeter_dim": _check_coxeter_dim,
    "coxeter_weight": _check_coxeter_weight,
    "coxeter_symbolic": _check_coxeter_symbolic,
    "rep_brick": _check_verdict("brick", "not brick"),
    "rep_indecomposable": _check_verdict("indecomposable", "decomposable"),
    "rep_isomorphic": _check_verdict("isomorphic", "not isomorphic"),
    "rep_hom": _check_hom,
    "rep_dim": _check_dim,
}
