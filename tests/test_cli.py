from __future__ import annotations

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

import posetrep
from posetrep.cli import main
from posetrep.core import make_poset, parse_dim_string
from posetrep.derive import paper_corpus
from posetrep.linrep import (
    direct_sum,
    family_1111,
    family_222,
    family_332,
    family_521,
    make_rep,
    nonbrick_alpha,
    rep_to_json,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text_and_json_agree(capsys):
    code, out, _ = _run(capsys, "enumerate", "--poset", "1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    code, jout, _ = _run(capsys, "enumerate", "--poset", "1,1,1", "--json")
    assert code == 0
    payload = json.loads(jout)
    from_json = [parse_dim_string(s) for s in lines]
    from_text = [type(from_json[0]).from_json(d) for d in payload["dims"]]
    assert from_json == from_text


def test_enumerate_poset_size_limit(capsys):
    for poset, count in [("8,8", 81), ("9,9", 100), ("64", 65)]:
        code, out, _ = _run(capsys, "enumerate", "--poset", poset)
        assert code == 0 and len(out.splitlines()) == count
    for poset in ["65", "63,1,1", "1000000000"]:
        code, out, err = _run(capsys, "enumerate", "--poset", poset)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "at most 64 are supported" in err


def test_conditions_text(capsys):
    code, out, _ = _run(capsys, "conditions", "--poset", "1,1,1", "--dim", "1;1;1;2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[-1] == "α+β+δ=2γ"


def test_conditions_json_with_trace(capsys):
    code, out, _ = _run(
        capsys, "conditions", "--poset", "2,2,1", "--dim", "1,2;1,2;2;3",
        "--raw", "--format", "json", "--trace",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == {"branches": [[1, 2], [1, 2], [2]], "d0": 3}
    assert payload["trace"][-1]["step"] == "terminal"
    rels = {c["rel"] for c in payload["conditions"]}
    assert rels == {"lt0", "eq0"}


def test_conditions_simplified_flag_is_gone(capsys):
    # simplified is the default; the flag that said so had no effect
    code, out, err = _run(capsys, "conditions", "--poset", "1,1,1", "--dim", "1;1;1;2",
                          "--simplified")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --simplified" in err


def test_conditions_rejects_bad_dim(capsys):
    code, _, err = _run(capsys, "conditions", "--poset", "1,1,1", "--dim", "9;9;9;1")
    assert code == 1 and "error" in err


def test_table_latex(capsys):
    code, out, _ = _run(capsys, "table", "--poset", "1,1,1", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{longtable}")
    assert "\\end{longtable}" in out
    assert out.count("\\hline") == 9


def test_table_json_row_count(capsys):
    code, out, _ = _run(capsys, "table", "--poset", "2,1,1", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 15


def test_check_weight_exit_codes(capsys):
    code, out, _ = _run(
        capsys, "check-weight", "--poset", "1,1,1", "--dim", "1;1;1;2",
        "--weight", "2;2;2;3",
    )
    assert code == 0 and out.strip() == "admissible"
    code, out, _ = _run(
        capsys, "check-weight", "--poset", "1,1,1", "--dim", "1;1;1;2",
        "--weight", "3;2;2;3",
    )
    assert code == 2 and "violated" in out
    code, out, err = _run(capsys, "check-weight", "--poset", "1,1,1", "--dim", "0;1;1;2",
                          "--weight", "8;6;1;7/2")
    assert (code, out) == (1, "")
    assert err == "error: 0;1;1;2 is not an indecomposable dimension vector of (1, 1, 1)\n"


@pytest.mark.parametrize("weight, message", [
    ("1;1;1;0", "gamma must be positive, got 0"),
    ("-1;1;1;2", "weight entry must be positive, got -1"),
])
def test_non_positive_weight_is_malformed_input(capsys, weight, message):
    """A weight entry that is not positive is malformed input, exit 1, on
    every command that reads --weight; a transform that leaves the positive
    cone stays a verdict (test_coxeter_weight_and_symbolic)."""
    for command in (["check-weight", "--dim", "1;1;1;2"], ["unitarize", "--dim", "1;1;1;2"],
                    ["coxeter", "--op", "phiminus"]):
        code, out, err = _run(capsys, *command, "--poset", "1,1,1", f"--weight={weight}")
        assert (code, out, err) == (1, "", f"error: {message}\n"), command


def test_hostile_numerals_rejected(tmp_path, capsys):
    for cmd in ["check-weight", "unitarize"]:
        for weight in ["1e1000000;1;1;2", "1;1;1;1e-1000000", "1;1;1;1e1_000_000"]:
            code, out, err = _run(
                capsys, cmd, "--poset", "1,1,1", "--dim", "1;1;1;2", "--weight", weight,
            )
            assert code == 1 and out == ""
            assert err == "error: numeral exponent above 4300 in magnitude\n"
        code, out, err = _run(
            capsys, cmd, "--poset", "1,1,1", "--dim", "1;1;1;2", "--weight", "1;1;1;" + "2" * 4301,
        )
        assert code == 1 and out == ""
        assert err == "error: numeral longer than 4300 characters\n"
    code, out, _ = _run(
        capsys, "check-weight", "--poset", "1,1,1", "--dim", "1;1;1;2",
        "--weight", "2e4300;2e4300;2e4300;3e4300",
    )
    assert code == 0 and out.strip() == "admissible"
    # numerals inside JSON input files are bounded the same way
    for numeral, rep_err, corpus_err in [
        ("1e3000000", "numeral exponent above 4300 in magnitude",
         "numeral exponent above 4300 in magnitude"),
        ("1/0", "malformed representation: Fraction(1, 0)", "malformed corpus: Fraction(1, 0)"),
    ]:
        rep = rep_to_json(family_1111(2))
        rep["bases"][0][0][0] = numeral
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        code, out, err = _run(capsys, "rep", "--file", str(rep_path), "--check", "dim")
        assert code == 1 and out == ""
        assert err == f"error: {rep_err}\n"
        table = paper_corpus()[(1, 1, 1)].to_json()
        coeffs = table["rows"][1]["conditions"][0]["coeffs"]
        coeffs[next(iter(coeffs))] = numeral
        corpus_path = tmp_path / "corpus.json"
        corpus_path.write_text(json.dumps({"tables": [table]}))
        code, out, err = _run(capsys, "verify-tables", "--corpus", str(corpus_path))
        assert code == 1 and out == ""
        assert err == f"error: {corpus_err}\n"


def test_unitarize_success_and_obstruction(tmp_path, capsys):
    out_path = tmp_path / "proj.json"
    code, out, _ = _run(
        capsys, "unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
        "--weight", "1;1;1;3/2", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["success"] is True
    assert payload["residual"] <= 1e-8 * 1.5 * 2**0.5
    assert len(payload["projectors"]) == 3
    code, _, err = _run(
        capsys, "unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
        "--weight", "3;2;2;3",
    )
    assert code == 2 and "trace obstruction" in err


def test_unitarize_exact_reject(tmp_path, capsys):
    _, admissible, _ = _run(capsys, "unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
                            "--weight", "1;1;1;3/2")
    for argv, message in [
        (["unitarize", "--poset", "2,2,1", "--dim", "0,1;0,1;1;2",
          "--weight", "1,4/3;1,1/3;1/3;1"], "violated: γ<β₂+δ"),
        # not a root: (0;1;0;1) + (0;0;1;1), and neither part meets its trace
        (["unitarize", "--poset", "1,1,1", "--dim", "0;1;1;2", "--weight", "8;6;1;7/2"],
         "0;1;1;2 is not a root of (1, 1, 1), and no sum of roots at which the weight "
         "is admissible gives 0;1;1;2"),
        # a sum of four roots of (2,2,1), and no root below it is admissible
        (["unitarize", "--poset", "2,2,1", "--dim", "3,4;4,5;2;6",
          "--weight", "1/2,2;1,5/2;3/2;29/6"],
         "3,4;4,5;2;6 is not a root of (2, 2, 1), and no sum of roots at which the weight "
         "is admissible gives 3,4;4,5;2;6"),
    ]:
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert err == f"no witness: {message}\n"
        payload = json.loads(out)
        assert payload.keys() == json.loads(admissible).keys()
        assert payload["success"] is False and payload["projectors"] is None
        out_path = tmp_path / "none.json"
        code, out, err = _run(capsys, *argv, "--out", str(out_path))
        assert code == 2 and out == f"no witness -> {out_path}\n"
        assert json.loads(out_path.read_text()) == payload


def test_unitarize_and_check_weight_refuse_outside_finite_type(capsys):
    """Infinite type and posets above 64 elements are refused before any
    trace verdict, whatever d0 and whether or not the weight meets the
    trace equality."""
    for branches, message in [
        ((1, 1, 1, 1), "poset (1, 1, 1, 1) has infinite type"),
        ((2, 2, 2), "poset (2, 2, 2) has infinite type"),
        ((40, 30), "poset (40, 30) has 70 elements; at most 64 are supported"),  # finite type
    ]:
        poset, n = ",".join(map(str, branches)), sum(branches)
        zeros, ones = (";".join(",".join([e] * k) for k in branches) for e in "01")
        # all-ones alphas on all-ones dimensions have trace sum n
        for d, w in [(f"{zeros};0", f"{ones};1"),  # d0 = 0
                     (f"{ones};1", f"{ones};{n + 1}"),  # misses the trace equality
                     (f"{ones};1", f"{ones};{n}")]:  # meets it
            for command in ("unitarize", "check-weight"):
                code, out, err = _run(capsys, command, "--poset", poset, "--dim", d,
                                      "--weight", w)
                assert (code, out, err) == (1, "", f"error: {message}\n"), (command, d, w)
    code, out, _ = _run(capsys, "unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
                        "--weight", "1;1;1;3/2", "--restarts", "2")
    assert (code, out) == (1, "")


def test_errors_print_dimension_strings(capsys):
    for argv, code, message in [
        (["coxeter", "--op", "sigma", "--poset", "2", "--dim", "2,1;2"], 2,
         "dimension vector 2,1;2 is not admissible for (2,)"),
        (["unitarize", "--poset", "2", "--dim", "2,1;2", "--weight", "1,1;3/2"], 1,
         "dimension vector 2,1;2 is not chain-monotone"),
        (["conditions", "--poset", "1,1", "--dim", "1;1;1;2"], 1,
         "dimension vector 1;1;1;2 does not fit poset (1, 1)"),
    ]:
        assert _run(capsys, *argv) == (code, "", f"error: {message}\n")


def test_python_dash_m_entry_point():
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    src = str(Path(posetrep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "posetrep", "unitarize", "--poset", "1,1,1",
         "--dim", "1;1;1;2", "--weight", "1;1;1;3/2"],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["success"] is True and payload["residual"] <= 1e-8 * 1.5 * 2**0.5


_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
import posetrep
from posetrep import cli
argvs = [["table", "--poset", "2,1,1"],
         ["conditions", "--poset", "2,1,1", "--dim", "1,2;1;1;2"],
         ["check-weight", "--poset", "1,1,1", "--dim", "1;1;1;2", "--weight", "1;1;1;3/2"],
         ["enumerate", "--poset", "2,2,1"],
         ["coxeter", "--op", "fminus", "--poset", "2,2,1", "--dim", "1,2;1,2;2;3"],
         ["verify-tables"]]
with contextlib.redirect_stdout(io.StringIO()):
    exact = [cli.main(argv) for argv in argvs]
loaded = "numpy" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
                     "--weight", "1;1;1;3/2"])
print(json.dumps({"exact": exact, "loaded": loaded, "unitarize": code,
                  "success": json.loads(out.getvalue())["success"],
                  "numpy": "numpy" in sys.modules,
                  "lazy": posetrep.unitarize is sys.modules["posetrep.numeric"].unitarize}))
"""


def test_exact_commands_do_not_import_numpy():
    """Importing the package and running the exact commands loads no numpy;
    unitarize loads it when it runs, and the package's numeric names
    resolve to those of posetrep.numeric."""
    env = dict(os.environ)
    src = str(Path(posetrep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT],
                          capture_output=True, env=env, timeout=300, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"exact": [0] * 6, "loaded": False, "unitarize": 0,
                                       "success": True, "numpy": True, "lazy": True}


def test_unitarize_decomposable_witness(capsys):
    start = time.monotonic()
    code, out, _ = _run(capsys, "unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2",
                        "--weight", "1;1/2;1/2;1")
    assert time.monotonic() - start < 1
    payload = json.loads(out)
    assert code == 0 and payload["success"] is True
    assert payload["residual"] <= 1e-8 * 2**0.5


def test_check_weight_on_a_non_root_exits_1_where_unitarize_covers_it(capsys):
    """Only roots have condition rows, so check-weight refuses a non-root d
    (exit 1), while unitarize decides the same d by its cover, here the
    three roots 1;0;0;1, 0;1;0;1 and 0;0;1;1."""
    argv = ["--poset", "1,1,1", "--dim", "1;1;1;3", "--weight", "2;2;2;2"]
    code, out, err = _run(capsys, "check-weight", *argv)
    assert (code, out) == (1, "")
    assert err == "error: 1;1;1;3 is not an indecomposable dimension vector of (1, 1, 1)\n"
    code, out, _ = _run(capsys, "unitarize", *argv)
    payload = json.loads(out)
    assert code == 0 and payload["success"] is True
    assert payload["residual"] <= 1e-8 * 2 * 3**0.5


def test_budget_and_size_bounds(tmp_path, capsys):
    base = ["unitarize", "--poset", "1,1,1", "--dim", "1;1;1;2", "--weight", "1;1;1;3/2"]
    infinite = ["unitarize", "--poset", "1,1,1,1", "--dim", "1;1;1;1;2",
                "--weight", "1;1;1;1;2"]
    for flag, value, message in [
        ("--tol", "nan", "success_tol must be finite and positive, got nan"),
        ("--tol", "inf", "success_tol must be finite and positive, got inf"),
        ("--tol", "0", "success_tol must be finite and positive, got 0.0"),
        ("--tol", "-1", "success_tol must be finite and positive, got -1.0"),
    ]:
        for argv in (base, infinite):  # the tolerance is checked before the scope
            code, out, err = _run(capsys, *argv, flag, value)
            assert (code, out, err) == (1, "", f"error: {message}\n")
    for steps, bound in [("1000000000", "at most 1000"), ("0", "at least 1"),
                         ("-3", "at least 1")]:
        code, out, err = _run(capsys, "coxeter", "--op", "phiminus", "--poset", "1,1,1",
                              "--symbolic", "--steps", steps)
        assert (code, out, err) == (1, "", f"error: steps must be {bound}, got {steps}\n")
    # not a root, meets every other check, and would need a 100000 x 100000 matrix
    start = time.monotonic()
    code, out, err = _run(capsys, "unitarize", "--poset", "1", "--dim", "1;100000",
                          "--weight", "100000;1")
    assert time.monotonic() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: ambient dimension 100000 is above the supported 512\n"
    rep_path = tmp_path / "huge.json"
    rep_path.write_text(json.dumps({"poset": {"branches": [1]}, "ambient": 10**9,
                                    "bases": [[]]}))
    code, out, err = _run(capsys, "rep", "--file", str(rep_path), "--check", "dim")
    assert (code, out) == (1, "")
    assert err == "error: ambient dimension 1000000000 is above the supported 512\n"
    # validation work: one 94 x 94 basis is accepted, 95 x 95 is refused before any rank
    for n, code_out in [(94, (0, "94;94\n")), (95, (1, ""))]:
        identity = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        rep_path.write_text(json.dumps({"poset": {"branches": [1]}, "ambient": n,
                                        "bases": [identity]}))
        code, out, err = _run(capsys, "rep", "--file", str(rep_path), "--check", "dim")
        assert (code, out) == code_out
    assert err == ("error: validating the representation takes 81450625 units of rank "
                   "work, above the supported 80000000\n")


def test_coxeter_dim_steps(capsys):
    code, out, _ = _run(
        capsys, "coxeter", "--op", "fminus", "--poset", "2,2,1",
        "--dim", "1,2;1,2;2;3",
    )
    assert code == 0 and out.strip() == "1,2;1,2;1;2"
    code, out, _ = _run(
        capsys, "coxeter", "--op", "fplus", "--poset", "2,2,1",
        "--dim", "1,2;1,2;1;2", "--steps", "2",
    )
    assert code == 0
    assert out.strip().splitlines() == ["1,2;1,2;2;3", "1,2;1,2;1;3"]


def test_coxeter_weight_and_symbolic(capsys):
    code, out, _ = _run(
        capsys, "coxeter", "--op", "phiminus", "--poset", "1,1,1",
        "--weight", "2;2;2;3",
    )
    assert code == 0 and out.strip() == "1;1;1;3"
    code, out, _ = _run(
        capsys, "coxeter", "--op", "phiminus", "--poset", "1,1,1", "--symbolic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == {"a.1.1": "1", "a.2.1": "1", "a.3.1": "1", "g": "-1"}
    # applying phi-minus to a weight that leaves the cone is a verdict error
    code, _, err = _run(
        capsys, "coxeter", "--op", "phiminus", "--poset", "1,1,1",
        "--weight", "1;1;5;10",
    )
    assert code == 2


def test_coxeter_requires_exactly_one_input(capsys):
    code, _, err = _run(capsys, "coxeter", "--op", "sigma", "--poset", "1,1,1")
    assert code == 1


def test_verify_tables_with_corpus_override(tmp_path, capsys):
    corpus = paper_corpus()
    slim = {"tables": [corpus[(1, 1, 1)].to_json()]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(slim))
    code, out, _ = _run(capsys, "verify-tables", "--corpus", str(path))
    assert code == 0
    assert "9/9 rows equivalent" in out


def test_verify_tables_corpus_poset_too_large(tmp_path, capsys):
    table = paper_corpus()[(1, 1, 1)].to_json()
    table["poset"] = {"branches": [10**9, 1, 1]}
    table["rows"] = table["rows"][:1]
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"tables": [table]}))
    # the row fails with the size error at once, as any underivable row does
    code, out, _ = _run(capsys, "verify-tables", "--corpus", str(path))
    assert code == 2 and "at most 64 are supported" in out
    assert "0/1 rows equivalent" in out


def test_verify_tables_detects_mismatch(tmp_path, capsys):
    corpus = paper_corpus()
    table = corpus[(1, 1, 1)].to_json()
    # corrupt one inequality: claim a<2g instead of a<g
    table["rows"][8]["conditions"][0]["coeffs"]["g"] = "-2"
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"tables": [table]}))
    code, out, _ = _run(capsys, "verify-tables", "--corpus", str(path))
    assert code == 2
    assert "MISMATCH" in out


@pytest.mark.parametrize("key", ["a.0.1", "a.1.0", "a.01.1"])
def test_verify_tables_corpus_key_spelling(tmp_path, capsys, key):
    """A second spelling of a variable key is a malformed corpus (exit 1),
    not a region that differs."""
    table = paper_corpus()[(1, 1, 1)].to_json()
    coeffs = next(c["coeffs"] for r in table["rows"] for c in r["conditions"]
                  if "a.1.1" in c["coeffs"])
    coeffs[key] = coeffs.pop("a.1.1")
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"tables": [table]}))
    code, out, err = _run(capsys, "verify-tables", "--corpus", str(path))
    assert code == 1 and out == ""
    assert err == f"error: malformed corpus: unknown variable key {key!r}\n"


def test_rep_checks(tmp_path, capsys):
    nb = tmp_path / "nonbrick.json"
    nb.write_text(json.dumps(rep_to_json(nonbrick_alpha(1))))
    code, out, _ = _run(capsys, "rep", "--file", str(nb), "--check", "validate")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = _run(capsys, "rep", "--file", str(nb), "--check", "dim")
    assert code == 0 and out.strip() == "2;2;2;2;4"
    code, out, _ = _run(capsys, "rep", "--file", str(nb), "--check", "brick")
    assert code == 2 and out.strip() == "not brick"
    code, out, _ = _run(capsys, "rep", "--file", str(nb), "--check", "indecomposable")
    assert code == 0 and out.strip() == "indecomposable"


def test_rep_hom_and_isomorphic(tmp_path, capsys):
    f2 = tmp_path / "f2.json"
    f3 = tmp_path / "f3.json"
    f2.write_text(json.dumps(rep_to_json(family_1111(2))))
    f3.write_text(json.dumps(rep_to_json(family_1111(3))))
    code, out, _ = _run(capsys, "rep", "--hom", str(f2), str(f2))
    assert code == 0 and json.loads(out)["dim"] == 1
    code, out, _ = _run(capsys, "rep", "--isomorphic", str(f2), str(f3))
    assert code == 2 and out.strip() == "not isomorphic"
    code, out, _ = _run(capsys, "rep", "--isomorphic", str(f2), str(f2))
    assert code == 0 and out.strip() == "isomorphic"


def test_rep_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "rep", "--file", str(bad), "--check", "validate")
    assert code == 1
    # a poset that is a list, and a basis entry that is no rational number
    for payload in [{"poset": [1], "ambient": 1, "bases": [[["1"]]]},
                    {"poset": {"branches": [1]}, "ambient": 1, "bases": [[[float("inf")]]]}]:
        bad.write_text(json.dumps(payload))
        for check in ["validate", "dim"]:
            code, out, err = _run(capsys, "rep", "--file", str(bad), "--check", check)
            assert code == 1 and out == ""
            assert err.startswith("error: malformed representation") and err.count("\n") == 1


def test_rep_ragged_basis_rejected(tmp_path, capsys):
    """An empty row beside a nonempty one is ragged, whichever row it is:
    only a basis whose rows are all empty is the zero subspace."""
    bad = tmp_path / "ragged.json"
    for first in ([[], ["1"]], [["1"], []]):
        bad.write_text(json.dumps({
            "poset": {"branches": [1, 1, 1]},
            "ambient": 2,
            "bases": [first, [["0"], ["1"]], [["1"], ["1"]]],
        }))
        for check in ["dim", "validate"]:
            code, out, err = _run(capsys, "rep", "--file", str(bad), "--check", check)
            assert (code, out, err) == (1, "", "error: ragged basis matrix\n")


def test_non_integral_sizes_rejected(tmp_path, capsys):
    """A float size in a rep file or a corpus row exits 1 with one error
    line instead of being truncated."""
    lines = {"poset": {"branches": [1, 1, 1]}, "ambient": 2,
             "bases": [[["1"], ["0"]], [["0"], ["1"]], [["1"], ["1"]]]}
    bad = tmp_path / "rep.json"
    for key, value, message in [
        ("poset", {"branches": [1.9, 1, 1]}, "invalid branch lengths (1.9, 1, 1)"),
        ("ambient", 2.5,
         "malformed representation: 'float' object cannot be interpreted as an integer"),
    ]:
        bad.write_text(json.dumps(dict(lines, **{key: value})))
        code, out, err = _run(capsys, "rep", "--file", str(bad), "--check", "dim")
        assert (code, out, err) == (1, "", f"error: {message}\n")
    corpus_path = tmp_path / "corpus.json"
    for edit in ["d0", "branch"]:
        table = paper_corpus()[(1, 1, 1)].to_json()
        dim = table["rows"][1]["dim"]
        if edit == "d0":
            dim["d0"] += 0.7
        else:
            dim["branches"][0][0] += 0.5
        corpus_path.write_text(json.dumps({"tables": [table]}))
        code, out, err = _run(capsys, "verify-tables", "--corpus", str(corpus_path))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: non-integer entry in dimension vector")


def test_rep_validate_negative_verdict(tmp_path, capsys):
    payload = {
        "poset": {"branches": [2]},
        "ambient": 2,
        "bases": [[["1"], ["0"]], [["0"], ["1"]]],  # no containment
    }
    bad = tmp_path / "badrep.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = _run(capsys, "rep", "--file", str(bad), "--check", "validate")
    assert code == 2 and "invalid" in out


def test_malformed_poset_and_usage(capsys):
    code, _, err = _run(capsys, "enumerate", "--poset", "2,x,1")
    assert code == 1
    code, _, err = _run(capsys, "enumerate")
    assert code == 1  # missing required option


def test_no_assert_statements_in_the_package():
    """Invariants are typed errors, which survive ``python -O``; an assert
    statement would not."""
    for path in sorted(Path(posetrep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, (path.name, asserts)


def _run_optimized(*argv):
    """Run the CLI in a fresh interpreter under ``python -O`` (asserts off)."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    src = str(Path(posetrep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; from posetrep.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, env=env, timeout=300,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def test_optimized_interpreter_smoke(capsys):
    code, out, err = _run_optimized("verify-tables")
    assert code == 0, err
    assert out.splitlines()[-1] == "106/106 rows equivalent"
    argv = ["conditions", "--poset", "4,2,1", "--dim", "1,2,3,5;2,4;3;6"]
    code, out, err = _run_optimized(*argv)
    assert code == 0, err
    assert (code, out, err) == _run(capsys, *argv)
    assert len(out.splitlines()) == 8


# --- golden outputs of the rep command ----------------------------------------


def _change_of_basis(n):
    """A fixed invertible n x n matrix L*U, unit lower times unit upper
    triangular, with small integer and half-integer entries."""
    lower = [[Q(1) if i == j else Q((2 * i + j) % 3 - 1) if j < i else Q(0)
              for j in range(n)] for i in range(n)]
    upper = [[Q(1) if i == j else Q((i + 2 * j) % 5 - 2, 1 + j % 2) if j > i else Q(0)
              for j in range(n)] for i in range(n)]
    return [[sum((lower[i][k] * upper[k][j] for k in range(n)), Q(0)) for j in range(n)]
            for i in range(n)]


def _conjugate(rep):
    m = _change_of_basis(rep.ambient)
    bases = []
    for e in range(rep.poset.n):
        b = rep.basis(e)
        k = len(b[0]) if b else 0
        bases.append([[sum((m[i][t] * b[t][c] for t in range(rep.ambient)), Q(0))
                       for c in range(k)] for i in range(rep.ambient)])
    return make_rep(rep.poset, rep.ambient, bases)


def _golden_reps():
    f2, f3 = family_1111(2), family_1111(Q(-1, 3))
    reps = {
        "f1111_2": f2,
        "f1111_m13": f3,
        "f222": family_222(Q(5, 2)),
        "f332": family_332(3),
        "f521": family_521(Q(-2, 7)),
        "nonbrick": nonbrick_alpha(Q(3, 2)),
    }
    reps["sum_1111"] = direct_sum(f2, f3)
    reps["sum_1111_same"] = direct_sum(f2, f2)
    reps["sum_222"] = direct_sum(reps["f222"], reps["f222"])
    reps["sum_nonbrick"] = direct_sum(reps["nonbrick"], f3)
    for name in list(reps):
        reps[name + "_conj"] = _conjugate(reps[name])
    return reps


def _golden_rep_outputs(tmp_path, capsys):
    """sha256 per kind of rep query over [argv tail, exit code, stdout]."""
    reps = _golden_reps()
    paths = {}
    for name, rep in reps.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(rep_to_json(rep)))
    pairs = [(name, name) for name in reps]
    pairs += [(name, name + "_conj") for name in reps if not name.endswith("_conj")]
    pairs += [("f1111_2", "f1111_m13"), ("f1111_2", "sum_1111"), ("sum_1111", "f1111_2"),
              ("nonbrick", "f1111_2"), ("sum_nonbrick", "sum_1111_conj"),
              ("sum_1111", "sum_1111_same"), ("f222", "f332")]
    runs = {kind: [] for kind in ("hom", "isomorphic", "brick", "indecomposable", "dim")}
    for a, b in pairs:
        for kind in ("hom", "isomorphic"):
            code, out, _ = _run(capsys, "rep", f"--{kind}", str(paths[a]), str(paths[b]))
            runs[kind].append([a, b, code, out])
    for name in reps:
        for kind in ("brick", "indecomposable", "dim"):
            code, out, _ = _run(capsys, "rep", "--file", str(paths[name]), "--check", kind)
            runs[kind].append([name, code, out])
    for a, seed in [("sum_1111", "5"), ("nonbrick_conj", "7"), ("sum_222_conj", "3")]:
        code, out, _ = _run(capsys, "rep", "--file", str(paths[a]), "--check",
                            "indecomposable", "--seed", seed)
        runs["indecomposable"].append([a, seed, code, out])
    for a, b, seed in [("f1111_2", "f1111_2_conj", "9"), ("f521", "f521_conj", "4")]:
        code, out, _ = _run(capsys, "rep", "--isomorphic", str(paths[a]), str(paths[b]),
                            "--seed", seed)
        runs["isomorphic"].append([a, b, seed, code, out])
    return {kind: hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            for kind, rows in runs.items()}


# Recorded before linalg and the Hom space moved to integer rows: every rep
# output must stay byte-identical.
_REP_SHA256 = {
    "hom": "6ac7d9c5f6dc201cced095db616ee9793445b853fef1c1fbc1a0e38fdd7fc859",
    "isomorphic": "89672c2b132428b22f77c1dd749d0d1c6f6ebffd06c85bbfe6c465ccae6ef9f2",
    "brick": "70a0f0dd460ab6d4ba876b5fdc02ac600f3c57a175ac23df40f98441559f2ddf",
    "indecomposable": "fd1bb93f98dd7308e0738be68b00e4f037090746c6a5e6ba1911af8ac54e4a62",
    "dim": "dd2d2542af173926286115eee3896dbcc9281403e4f0e0e56924a85530bb314a",
}


def test_golden_rep_outputs(tmp_path, capsys):
    assert _golden_rep_outputs(tmp_path, capsys) == _REP_SHA256


def test_hom_size_bound(tmp_path, capsys):
    def write(name, ambient, dim):
        cols = [[Q(int(i == j)) for j in range(dim)] for i in range(ambient)]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rep_to_json(make_rep(make_poset([1]), ambient, [cols]))))
        return str(path)

    r7, r8, r512 = write("r7", 7, 3), write("r8", 8, 3), write("r512", 512, 0)
    code, out, err = _run(capsys, "rep", "--hom", r7, r7)
    # at the bound: 49 unknowns, 4 * 3 constraints
    assert code == 0 and json.loads(out)["dim"] == 49 - 4 * 3 and err == ""
    for a, b, a1, a2 in [(r7, r8, 7, 8), (r8, r8, 8, 8), (r512, r512, 512, 512)]:
        start = time.monotonic()
        runs = [_run(capsys, "rep", "--hom", a, b)]
        if a == b:  # reps of unequal dimension vectors are not isomorphic at once
            runs += [_run(capsys, "rep", "--isomorphic", a, b)]
            runs += [_run(capsys, "rep", "--file", a, "--check", check)
                     for check in ("brick", "indecomposable")]
        assert time.monotonic() - start < 1
        message = (f"error: a Hom space between ambient dimensions {a1} and {a2} has "
                   f"{a1 * a2} unknowns, above the supported 49\n")
        assert runs == [(1, "", message)] * len(runs)
