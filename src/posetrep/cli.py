"""Command-line surface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 malformed input (a weight entry that is not positive included) or IO
failure, 2 negative verdict (table mismatch, violated weight, no
witness, no convergence, trace obstruction, not-a-brick, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import derive, linrep
from .core import (
    DimVector,
    NonPositiveWeight,
    PosetRepError,
    PrimitivePoset,
    SymbolicWeight,
    Weight,
    format_dim_string,
    format_weight_string,
    make_poset,
    parse_dim_string,
    parse_weight_string,
    render_condition,
    render_condition_set,
)
from .coxeter import (
    NegativeEntry,
    fminus_dim,
    fplus_dim,
    phiminus_concrete,
    phiminus_weight,
    phiplus_concrete,
    phiplus_weight,
    rho_dim,
    sigma_dim,
)
from .roots import _require_size, enumerate_indec_dims

VERDICT_ERRORS = (NonPositiveWeight, NegativeEntry)

# Most transforms `coxeter --steps` applies; every finite-type orbit is
# periodic well within this.
MAX_STEPS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _poset(s: str) -> PrimitivePoset:
    try:
        return make_poset(int(x) for x in s.split(","))
    except ValueError as exc:
        raise PosetRepError(f"malformed poset {s!r}") from exc


def _dim(p: PrimitivePoset, s: str) -> DimVector:
    d = parse_dim_string(s)
    d.require_fits(p)
    return d


def _weight(p: PrimitivePoset, s: str) -> Weight:
    try:
        w = parse_weight_string(s)
    except NonPositiveWeight as exc:  # malformed input, not a verdict
        raise PosetRepError(str(exc)) from exc
    w.require_fits(p)
    return w


def _latex_table(table: derive.Table) -> str:
    lines = ["\\begin{longtable}{p{3.2cm} | p{7cm}}",
             "Dimensions $D$ & Conditions $C$\\\\"]
    for row in table.rows:
        dim = format_dim_string(row.dim)
        conds = render_condition_set(row.conditions, table.poset, "latex")
        lines.append(f"\\hline $({dim})$ & ${conds}$ \\\\")
    lines.append("\\end{longtable}")
    return "\n".join(lines)


def _text_table(table: derive.Table) -> str:
    dims = [format_dim_string(r.dim) for r in table.rows]
    width = max(len(s) for s in dims) if dims else 0
    lines = []
    for dim, row in zip(dims, table.rows):
        conds = render_condition_set(row.conditions, table.poset)
        lines.append(f"{dim.ljust(width)}  {conds}")
    return "\n".join(lines)


def _cmd_enumerate(args) -> int:
    p = _poset(args.poset)
    dims = enumerate_indec_dims(p)
    if args.json:
        print(json.dumps({"poset": p.to_json(), "dims": [d.to_json() for d in dims]}))
    else:
        for d in dims:
            print(format_dim_string(d))
    return 0


def _cmd_conditions(args) -> int:
    p = _poset(args.poset)
    d = _dim(p, args.dim)
    # under --raw the walk's rows, otherwise a table's row
    conditions = (derive._raw_conditions if args.raw else derive._table_row)(p, d)
    if args.trace:
        trace = derive.derive_conditions(p, d)[1]
    if args.format == "json":
        out = {
            "poset": p.to_json(),
            "dim": d.to_json(),
            "conditions": conditions.to_json(),
        }
        if args.trace:
            out["trace"] = [derive.step_to_json(s) for s in trace.steps]
        print(json.dumps(out))
        return 0
    if args.format == "latex":
        print(f"${render_condition_set(conditions, p, 'latex')}$")
    else:
        for c in list(conditions.inequalities) + list(conditions.equalities):
            print(render_condition(c, p))
    if args.trace:
        print("trace:")
        for s in trace.steps:
            print(" ", json.dumps(derive.step_to_json(s)))
    return 0


def _cmd_table(args) -> int:
    p = _poset(args.poset)
    table = derive.generate_table(p)
    if args.format == "json":
        print(json.dumps(table.to_json()))
    elif args.format == "latex":
        print(_latex_table(table))
    else:
        print(_text_table(table))
    return 0


def _cmd_verify_tables(args) -> int:
    report = derive.verify_tables(args.corpus)
    for r in report.rows:
        tag = "ok" if r.equivalent else "MISMATCH"
        extra = f"  {r.detail}" if r.detail else ""
        print(f"{tag} {r.poset} {format_dim_string(r.dim)}{extra}")
    ok, total = report.counts
    print(f"{ok}/{total} rows equivalent")
    return 0 if report.all_ok else 2


def _cmd_check_weight(args) -> int:
    p = _poset(args.poset)
    d = _dim(p, args.dim)
    w = _weight(p, args.weight)
    verdict = derive.check_weight(p, d, w)
    if verdict.admissible:
        print("admissible")
        return 0
    for c in verdict.violated:
        print(f"violated: {render_condition(c, p)}")
    return 2


def _cmd_unitarize(args) -> int:
    from . import numeric  # numpy loads for this command alone

    p = _poset(args.poset)
    d = _dim(p, args.dim)
    w = _weight(p, args.weight)
    try:
        rep = numeric.unitarize(p, d, w, success_tol=args.tol, seed=args.seed)
        ok = True
    except numeric.TraceObstruction as exc:  # a negative verdict, as in VERDICT_ERRORS
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except numeric.NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        rep, ok = exc.best, False
    except numeric.NoWitness as exc:
        if exc.violated:
            violated = ", ".join(render_condition(c, p) for c in exc.violated)
            print(f"no witness: violated: {violated}", file=sys.stderr)
        else:  # d is not a root
            print(f"no witness: {exc}", file=sys.stderr)
        rep, ok = None, False
    if rep is None:  # the same keys, with nothing to show
        payload = {"poset": p.to_json(), "dim": d.to_json(), "weight": w.to_json(),
                   "projectors": None, "residual": None, "iterations": 0,
                   "restarts_used": 0, "seed": args.seed}
    else:
        payload = rep.to_json()
    payload["success"] = ok
    text = json.dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        summary = "no witness" if rep is None else f"residual {rep.residual:.3e}"
        print(f"{summary} -> {args.out}")
    else:
        print(text)
    return 0 if ok else 2


_DIM_OPS = {"sigma": sigma_dim, "rho": rho_dim, "fplus": fplus_dim, "fminus": fminus_dim}
_WEIGHT_OPS = {"phiplus": phiplus_concrete, "phiminus": phiminus_concrete}
_SYMBOLIC_OPS = {"phiplus": phiplus_weight, "phiminus": phiminus_weight}


def _cmd_coxeter(args) -> int:
    p = _poset(args.poset)
    given = [x is not None for x in (args.dim, args.weight)] + [args.symbolic]
    if sum(given) != 1:
        raise PosetRepError("exactly one of --dim, --weight, --symbolic is required")
    if args.steps < 1:
        raise PosetRepError(f"steps must be at least 1, got {args.steps}")
    if args.steps > MAX_STEPS:
        raise PosetRepError(f"steps must be at most {MAX_STEPS}, got {args.steps}")
    _require_size(p)  # infinite type is accepted; a step's cost grows with the size
    if args.dim is not None:
        if args.op not in _DIM_OPS:
            raise PosetRepError(f"operation {args.op} does not act on dimension vectors")
        value = _dim(p, args.dim)
        for _ in range(args.steps):
            value = _DIM_OPS[args.op](p, value)
            print(format_dim_string(value))
        return 0
    if args.op not in _WEIGHT_OPS:
        raise PosetRepError(f"operation {args.op} does not act on weights")
    if args.weight is not None:
        w = _weight(p, args.weight)
        for _ in range(args.steps):
            w = _WEIGHT_OPS[args.op](p, w)
            print(format_weight_string(w))
        return 0
    sw = SymbolicWeight.identity(p)
    for _ in range(args.steps):
        sw = _SYMBOLIC_OPS[args.op](p, sw)
        print(json.dumps(sw.to_json()))
    return 0


def _load_rep(path: str) -> linrep.SubspaceRep:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise PosetRepError(f"cannot load representation {path}: {exc}") from exc
    return linrep.rep_from_json(obj)


def _cmd_rep(args) -> int:
    modes = [args.file is not None, args.hom is not None, args.isomorphic is not None]
    if sum(modes) != 1:
        raise PosetRepError("exactly one of --file, --hom, --isomorphic is required")
    if args.hom is not None:
        r1, r2 = (_load_rep(f) for f in args.hom)
        basis = linrep.hom_space(r1, r2)
        print(json.dumps({
            "dim": len(basis),
            "basis": [[[str(x) for x in row] for row in m] for m in basis],
        }))
        return 0
    if args.isomorphic is not None:
        r1, r2 = (_load_rep(f) for f in args.isomorphic)
        if linrep.are_isomorphic(r1, r2, seed=args.seed):
            print("isomorphic")
            return 0
        print("not isomorphic")
        return 2
    if args.check is None:
        raise PosetRepError("--file requires --check")
    if args.check == "validate":
        try:
            _load_rep(args.file)
        except (linrep.RankDeficient, linrep.ContainmentViolation) as exc:
            print(f"invalid: {exc}")
            return 2
        print("valid")
        return 0
    rep = _load_rep(args.file)
    if args.check == "dim":
        print(format_dim_string(linrep.dim_vector(rep)))
        return 0
    if args.check == "brick":
        if linrep.is_brick(rep):
            print("brick")
            return 0
        print("not brick")
        return 2
    if linrep.is_indecomposable(rep, seed=args.seed):
        print("indecomposable")
        return 0
    print("decomposable")
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posetrep")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("enumerate", help="indecomposable dimension vectors")
    q.add_argument("--poset", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_enumerate)

    q = sub.add_parser("conditions", help="weight conditions of one dimension vector")
    q.add_argument("--poset", required=True)
    q.add_argument("--dim", required=True)
    q.add_argument("--raw", action="store_true")
    q.add_argument("--format", choices=["text", "json", "latex"], default="text")
    q.add_argument("--trace", action="store_true")
    q.set_defaults(func=_cmd_conditions)

    q = sub.add_parser("table", help="full condition table of a poset")
    q.add_argument("--poset", required=True)
    q.add_argument("--format", choices=["text", "json", "latex"], default="text")
    q.set_defaults(func=_cmd_table)

    q = sub.add_parser("verify-tables", help="compare derived against the bundled tables")
    q.add_argument("--corpus", default=None)
    q.set_defaults(func=_cmd_verify_tables)

    q = sub.add_parser("check-weight", help="evaluate the conditions at a weight")
    q.add_argument("--poset", required=True)
    q.add_argument("--dim", required=True)
    q.add_argument("--weight", required=True)
    q.set_defaults(func=_cmd_check_weight)

    q = sub.add_parser("unitarize", help="construct witness projections numerically")
    q.add_argument("--poset", required=True)
    q.add_argument("--dim", required=True)
    q.add_argument("--weight", required=True)
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_unitarize)

    q = sub.add_parser("coxeter", help="apply reflection transforms")
    q.add_argument("--op", required=True,
                   choices=["sigma", "rho", "fplus", "fminus", "phiplus", "phiminus"])
    q.add_argument("--poset", required=True)
    q.add_argument("--dim", default=None)
    q.add_argument("--weight", default=None)
    q.add_argument("--symbolic", action="store_true")
    q.add_argument("--steps", type=int, default=1)
    q.set_defaults(func=_cmd_coxeter)

    q = sub.add_parser("rep", help="operations on subspace representations")
    q.add_argument("--file", default=None)
    q.add_argument("--check", default=None,
                   choices=["validate", "brick", "indecomposable", "dim"])
    q.add_argument("--hom", nargs=2, default=None, metavar=("R1", "R2"))
    q.add_argument("--isomorphic", nargs=2, default=None, metavar=("R1", "R2"))
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_rep)

    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser() once per process: building it costs more than most
    commands, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VERDICT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PosetRepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
