"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the posetrep layer
modules by a wrapper, in every posetrep module that holds a reference to
it, so calls between layers pass through the wrappers.  A wrapper records
one span (name, start, end, parent, op id) in memory plus the few facts the
layer metrics need from the arguments or the result.  Nothing is patched
unless the benchmark runs traced, so untraced timings see the program as
shipped.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("lp", "derive", "roots", "coxeter", "numeric", "linrep", "linalg", "cli")

# name, unit: the per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    ("lp.solves", "count"), ("lp.solve_s", "s"), ("lp.cells", "count"),
    ("lp.infeasible", "count"),
    ("derive.simplify_s", "s"), ("derive.simplify_drop_ratio", "ratio"),
    ("derive.equivalent_s", "s"),
    ("derive.derive_self_s", "s"), ("derive.descent_steps", "count"),
    ("derive.raw_conditions", "count"), ("derive.check_weight_s", "s"),
    ("derive.trace_rejects", "count"),
    ("roots.enumerate_calls", "count"), ("roots.enumerate_s", "s"),
    ("roots.cold_s", "s"), ("roots.roots_found", "count"),
    ("coxeter.calls", "count"), ("coxeter.s", "s"),
    ("numeric.unitarize_s", "s"), ("numeric.reject_s", "s"),
    ("numeric.restarts_run", "count"), ("numeric.final_iterations", "count"),
    ("linrep.hom_s", "s"), ("linrep.decide_s", "s"),
    ("linalg.rref_calls", "count"), ("linalg.rref_s", "s"), ("linalg.rref_cells", "count"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
)

DECIDERS = {"linrep.is_brick", "linrep.is_indecomposable", "linrep.are_isomorphic"}

# span record fields
NAME, START, END, PARENT, OP, INFO = range(6)


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.cold_seen: set = set()

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of each layer module of `package`."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for fname, fn in public_functions(module).items():
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)

    def reset_cold(self) -> None:
        self.cold_seen.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = time.perf_counter()
                stack.pop()
                if observe:
                    rec[INFO] = observe(self, sig.bind(*args, **kwargs), None, exc)
                raise
            rec[END] = time.perf_counter()
            stack.pop()
            if observe:
                rec[INFO] = observe(self, sig.bind(*args, **kwargs), result, None)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON: one [name, start, end, parent, op, info] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)


# --- observers: facts taken from arguments and results ------------------------


def _obs_solve_lp(tracer, bound, result, exc):
    a = bound.arguments
    n = len(a["c"])
    m_ub, m_eq = len(a.get("a_ub", ())), len(a.get("a_eq", ()))
    infeasible = result is not None and result.status == "infeasible"
    return {"cells": (m_ub + m_eq) * (n + m_ub), "infeasible": int(infeasible)}


def _obs_simplify(tracer, bound, result, exc):
    if result is None:
        return None
    return {"dropped": len(bound.arguments["c"].inequalities) - len(result.inequalities)}


def _obs_derive(tracer, bound, result, exc):
    if result is None:
        return None
    conditions, trace = result
    return {"steps": len(trace.steps), "conditions": len(conditions)}


def _obs_enumerate(tracer, bound, result, exc):
    key = bound.arguments["p"].branches
    cold = key not in tracer.cold_seen
    tracer.cold_seen.add(key)
    return {"cold": int(cold), "found": len(result) if result is not None else 0}


def _obs_unitarize(tracer, bound, result, exc):
    if result is not None:
        return {"ok": 1, "restarts": result.restarts_used, "iterations": result.iterations}
    best = getattr(exc, "best", None)
    if best is None:
        return {"ok": 0, "error": type(exc).__name__}
    bound.apply_defaults()
    return {"ok": 0, "restarts": bound.arguments["restarts"], "iterations": best.iterations,
            "no_convergence": 1}


def _obs_check_weight(tracer, bound, result, exc):
    if result is None:
        return None
    return {"admissible": int(result.admissible)}


def _obs_rref(tracer, bound, result, exc):
    m = bound.arguments["m"]
    return {"cells": len(m) * (len(m[0]) if m else 0)}


OBSERVERS = {
    "lp.solve_lp": _obs_solve_lp,
    "derive.simplify": _obs_simplify,
    "derive.derive_conditions": _obs_derive,
    "roots.enumerate_indec_dims": _obs_enumerate,
    "numeric.unitarize": _obs_unitarize,
    "derive.check_weight": _obs_check_weight,
    "linalg.rref": _obs_rref,
}


# --- aggregation ----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _has_descendant(spans, children, idx, name) -> bool:
    todo = list(children[idx])
    while todo:
        c = todo.pop()
        if spans[c][NAME] == name:
            return True
        todo.extend(children[c])
    return False


def layer_metrics(spans) -> dict:
    """The per-layer metrics over one group of spans (indices into spans
    stay valid because parents always precede children)."""
    children: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    own = self_times(spans)
    m = {name: 0 for name, _ in METRICS}
    simplify_solves = dropped = 0
    for i, s in enumerate(spans):
        name, dur, info = s[NAME], s[END] - s[START], s[INFO] or {}
        layer = name.split(".", 1)[0]
        parent_name = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        parent_layer = parent_name.split(".", 1)[0]
        if name == "lp.solve_lp":
            m["lp.solves"] += 1
            m["lp.solve_s"] += dur
            m["lp.cells"] += info.get("cells", 0)
            m["lp.infeasible"] += info.get("infeasible", 0)
        elif name == "derive.simplify":
            m["derive.simplify_s"] += dur
            dropped += info.get("dropped", 0)
            simplify_solves += _count_below(spans, children, i, "lp.solve_lp")
        elif name == "derive.regions_equivalent":
            m["derive.equivalent_s"] += dur
        elif name == "derive.derive_conditions":
            m["derive.derive_self_s"] += own[i]
            m["derive.descent_steps"] += info.get("steps", 0)
            m["derive.raw_conditions"] += info.get("conditions", 0)
        elif name == "derive.check_weight":
            m["derive.check_weight_s"] += dur
            if info.get("admissible") == 0 and not _has_descendant(
                    spans, children, i, "derive.derive_conditions"):
                m["derive.trace_rejects"] += 1
        elif name == "roots.enumerate_indec_dims":
            m["roots.enumerate_calls"] += 1
            m["roots.enumerate_s"] += dur
            if info.get("cold"):
                m["roots.cold_s"] += dur
                m["roots.roots_found"] += info.get("found", 0)
        elif name == "numeric.unitarize":
            if info.get("ok"):
                m["numeric.unitarize_s"] += dur
            elif info.get("no_convergence"):
                m["numeric.reject_s"] += dur
            m["numeric.restarts_run"] += info.get("restarts", 0)
            m["numeric.final_iterations"] += info.get("iterations", 0)
        elif name == "linrep.hom_space":
            m["linrep.hom_s"] += dur
        elif name == "linalg.rref":
            m["linalg.rref_calls"] += 1
            m["linalg.rref_s"] += dur
            m["linalg.rref_cells"] += info.get("cells", 0)
        if name in DECIDERS and parent_name not in DECIDERS:
            m["linrep.decide_s"] += dur
        if layer == "coxeter" and parent_layer != "coxeter":
            m["coxeter.calls"] += 1
            m["coxeter.s"] += dur
        if layer == "cli":
            m["cli.self_s"] += own[i]
    m["trace.spans"] = len(spans)
    m["derive.simplify_drop_ratio"] = (dropped, simplify_solves)
    return m


def _count_below(spans, children, idx, name) -> int:
    todo, n = list(children[idx]), 0
    while todo:
        c = todo.pop()
        n += spans[c][NAME] == name
        todo.extend(children[c])
    return n


def summarize(spans) -> dict:
    """Per-layer metrics of one setup plus one median round.

    Spans are grouped by op id: "setup", or (round, op).  Each metric is
    its setup value plus the median of its per-round values; rounds repeat
    the same ops, so counts come out exact.
    """
    groups: dict = {}
    for s in spans:
        key = "setup" if s[OP] == "setup" else s[OP][0]
        groups.setdefault(key, []).append(s)
    per_group = {}
    for key, group in groups.items():
        index = {id(s): i for i, s in enumerate(group)}
        local = [[s[NAME], s[START], s[END],
                  index.get(id(spans[s[PARENT]]), -1) if s[PARENT] >= 0 else -1,
                  s[OP], s[INFO]] for s in group]
        per_group[key] = layer_metrics(local)
    setup = per_group.pop("setup", None)
    rounds = list(per_group.values())
    out = {}
    for name, unit in METRICS:
        if name == "derive.simplify_drop_ratio":
            continue
        value = statistics.median(r[name] for r in rounds) if rounds else 0
        if setup is not None:
            value += setup[name]
        out[name] = value
    dropped = (setup["derive.simplify_drop_ratio"][0] if setup else 0) + statistics.median(
        r["derive.simplify_drop_ratio"][0] for r in rounds)
    solves = (setup["derive.simplify_drop_ratio"][1] if setup else 0) + statistics.median(
        r["derive.simplify_drop_ratio"][1] for r in rounds)
    out["derive.simplify_drop_ratio"] = dropped / solves if solves else 0.0
    return {name: out[name] for name, _ in METRICS}
