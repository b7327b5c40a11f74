"""CLI boundaries: a negative number in exponent form is a value, not an
option, check refuses a case count that would check nothing, table
checks a document's mode and u alike for every method (a u given with
eps obeys the engines' input rule too) and reads a float literal at face
value, the retired --diagonal-only flag is refused, an --output file
that cannot be written is an input error, and a size above its cap is a
usage error before any work starts."""

from __future__ import annotations

import json

import pytest

from gtransform import cli, quadrature
from gtransform.cli import main
from gtransform.engines import METHODS


def _strict_json(out: str):
    def refuse(token):
        raise AssertionError(f"non-finite token {token} in the output")

    return json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize("a", ["-1e0", "-1E-2", "-.5e1", "-1", "-1.5"])
def test_negative_exponent_limit_is_a_value(a, capsys):
    argv = ["integrate", "--integrand", "t_exp", "--x", "1", "--n-max", "3"]
    assert main(argv + ["--a", a]) == 0
    separate = capsys.readouterr().out
    assert main(argv + [f"--a={a}"]) == 0
    assert separate == capsys.readouterr().out
    assert _strict_json(separate)["L"] == 3
    # A non-finite value is still refused, by the finite-number check.
    assert main(argv + ["--a", "-inf"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_check_refuses_a_non_positive_case_count(cases, capsys):
    assert main(["check", "--L", "2", "--cases", cases]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cases" in captured.err


@pytest.mark.parametrize("doc,error", [
    ({"A": [1, 2, 3], "u": ["abc"]}, "u[0]: not a rational number"),
    ({"A": [1, 2, 3], "u": "notalist"}, "field 'u' must be a non-empty list"),
    ({"A": [1, 2, 3], "u": [1.0, None]}, "u[1]: unsupported type NoneType"),
    ({"A": [1, 2, 3], "mode": "general"}, "field 'u' must be a non-empty list"),
    # eps ignores the values of u, but not the engines' input rule.
    ({"A": [1, 2, 4], "u": [0, 1, 2, 3, 5]},
     "u[0] is zero; the recursion needs every u value nonzero as an "
     "initial divisor\n"),
    ({"A": [1, 2, 4], "u": [1, 1, 2, 3, 5, 8, 13]},
     "field 'u': u holds 7 values but at most 2L+1 = 5 are meaningful\n"),
], ids=["text u", "u not a list", "null in u", "general mode without u",
        "zero in u", "u too long"])
def test_table_checks_u_for_every_method(doc, error, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    for method in METHODS:
        assert main(["table", "--input", str(path), "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"input error: {error}" in captured.err


def test_exact_reads_a_float_literal_at_face_value(tmp_path, capsys):
    # Neither literal survives a trip through a double: the first rounds
    # to 0.1, the second underflows to zero.
    path = tmp_path / "in.json"
    path.write_text('{"A": [1, 0.10000000000000001, 2]}')
    argv = ["table", "--input", str(path), "--method", "eps", "--exact"]
    assert main(argv + ["--format", "text", "--full"]) == 0
    assert "(1,0) valid 10000000000000001/100000000000000000\n" in (
        capsys.readouterr().out
    )
    path.write_text('{"A": [1, 0.1, 2], "u": [1, 1e-400, 3, 4, 5]}')
    argv = ["table", "--input", str(path), "--method", "fsqd", "--exact"]
    assert main(argv) == 0
    rows = _strict_json(capsys.readouterr().out)["table"]
    assert [r["value"] for r in rows if r["n"] == 0] == ["1", "1/10", "2"]


@pytest.mark.parametrize("method", METHODS)
def test_diagonal_only_outside_fsqd_is_a_usage_error(method, tmp_path,
                                                     capsys):
    # The diagonal-only table is --method fsqd_diag; the retired flag is
    # unknown for every method, fsqd included, and refused before the
    # document is read (reading it would exit 2).
    argv = ["table", "--input", str(tmp_path / "missing.json"),
            "--method", method, "--diagonal-only"]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --diagonal-only" in captured.err


@pytest.mark.parametrize("target", [lambda d: d / "no" / "x.json",
                                    lambda d: d],
                         ids=["in a missing directory", "a directory"])
def test_output_that_cannot_be_written_is_an_input_error(
    target, tmp_path, capsys
):
    path = target(tmp_path)
    argv = ["integrate", "--integrand", "sinc", "--x", "0", "--n-max", "3",
            "--output", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: cannot write {path}: " in captured.err


def _refuse_work(monkeypatch, module, name):
    def work(*args, **kwargs):
        raise AssertionError(f"{name} called above the cap")

    monkeypatch.setattr(module, name, work)


def test_n_max_above_the_cap_is_a_usage_error(monkeypatch, capsys):
    _refuse_work(monkeypatch, quadrature, "g_transform")
    argv = ["integrate", "--integrand", "sinc", "--x", "0",
            "--n-max", str(cli.MAX_N_MAX + 1)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--n-max is capped at {cli.MAX_N_MAX}" in captured.err


def test_subdivisions_above_the_cap_is_a_usage_error(monkeypatch, capsys):
    # cap + 1 is odd, which the Simpson rule refuses too; the message says
    # which check refused it.
    _refuse_work(monkeypatch, quadrature, "g_transform")
    argv = ["integrate", "--integrand", "sinc", "--x", "0", "--n-max", "3",
            "--subdivisions", str(cli.MAX_SUBDIVISIONS + 1)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--subdivisions is capped at {cli.MAX_SUBDIVISIONS}" in captured.err


def test_bench_L_above_the_cap_is_a_usage_error(monkeypatch, capsys):
    _refuse_work(monkeypatch, cli, "bench_method")
    argv = ["bench", "--method", "fsqd", "--L", str(cli.MAX_BENCH_L + 1)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bench is capped at L <= {cli.MAX_BENCH_L}" in captured.err


def test_check_budget_scales_with_the_case_count(capsys):
    # A fixed budget of 400 draws could never give 401 cases.
    assert main(["check", "--L", "1", "--cases", "401"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["passed"] is True and doc["first_counterexample"] is None


def test_check_cases_above_the_cap_is_a_usage_error(capsys):
    argv = ["check", "--L", "1", "--cases", str(cli.MAX_CHECK_CASES + 1)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"check is capped at {cli.MAX_CHECK_CASES} cases" in captured.err


@pytest.mark.parametrize("method", ["fsqd", "rs", "eps"])
def test_table_document_above_the_cap_is_a_usage_error(method, tmp_path,
                                                       capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"A": [1.0] * (cli.MAX_TABLE_VALUES + 1)}))
    assert main(["table", "--input", str(path), "--method", method]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"A is capped at {cli.MAX_TABLE_VALUES} values" in captured.err
