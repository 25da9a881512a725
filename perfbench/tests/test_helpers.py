"""Percentile, self-time and oracle helpers on known inputs, and repeatable
counts from two traced runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import stats
import tracing

HERE = Path(__file__).resolve().parent.parent


def test_percentile_known_values():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert stats.percentile(range(1, 102), 90) == 91
    assert stats.percentile([7], 90) == 7
    assert stats.median([3, 1, 2]) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, (0, 0), info]


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("derive.check_weight", 1.0, 7.0, 0),
        _span("derive.derive_conditions", 2.0, 6.0, 1),
        _span("roots.enumerate_indec_dims", 2.5, 3.5, 2, {"cold": 1, "found": 9}),
        _span("coxeter.fminus_dim", 4.0, 5.0, 2),
        _span("coxeter.rho_dim", 4.2, 4.6, 4),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 1.0, 0.6, 0.4])
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["derive.derive_self_s"] == pytest.approx(2.0)
    assert m["coxeter.calls"] == 1 and m["coxeter.s"] == pytest.approx(1.0)
    assert m["roots.cold_s"] == pytest.approx(1.0) and m["roots.roots_found"] == 9
    assert m["derive.trace_rejects"] == 0


def test_summarize_adds_setup_to_the_median_round():
    spans = [["lp.solve_lp", 0.0, 1.0, -1, "setup", {"cells": 6, "infeasible": 0}]]
    for r, dur in enumerate((2.0, 3.0, 9.0)):
        spans.append(["lp.solve_lp", 0.0, dur, -1, (r, 0), {"cells": 10, "infeasible": 1}])
    out = tracing.summarize(spans)
    assert out["lp.solves"] == 2 and out["lp.cells"] == 16 and out["lp.infeasible"] == 1
    assert out["lp.solve_s"] == pytest.approx(4.0)


def test_oracle_root_counts():
    counts = {(1, 1, 1): (12, 9), (2, 1, 1): (20, 15), (2, 2, 1): (36, 29),
              (3, 2, 1): (63, 53), (4, 2, 1): (120, 106)}
    for branches, (roots, rows) in counts.items():
        assert len(oracle.positive_roots(branches)) == roots
        assert len(oracle.indecomposable_dims(branches)) == rows
    assert all(oracle.tits_form((4, 2, 1), x) == 1 for x in oracle.positive_roots((4, 2, 1)))


def test_oracle_reads_rendered_conditions():
    form, rel = oracle.parse_rendered("2α₁+β<γ+1/2δ", (2, 1, 1))
    assert rel == oracle.LT
    assert form == {"a.1.1": 2, "a.2.1": 1, "g": -1, "a.3.1": Fraction(-1, 2)}


def _traced(workload: str, seed: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--tag", "test"],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["queries", "witness"])
def test_two_traced_runs_give_identical_counts(workload):
    first, second = _traced(workload, 5), _traced(workload, 5)
    assert first["correct"] and second["correct"]
    counts = [name for name, unit in tracing.METRICS if unit == "count"]
    assert {n: first["per_layer"][n] for n in counts} == {n: second["per_layer"][n] for n in counts}
