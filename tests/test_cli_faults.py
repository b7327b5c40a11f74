"""CLI boundaries: a negative number in exponent form is a value, not an
option, check refuses a case count that would check nothing, and table
checks a document's mode and u alike for every method."""

from __future__ import annotations

import json

import pytest

from gtransform.cli import main


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
], ids=["text u", "u not a list", "null in u", "general mode without u"])
def test_table_checks_u_for_every_method(doc, error, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    for method in ("fsqd", "rs", "eps"):
        assert main(["table", "--input", str(path), "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"input error: {error}" in captured.err
