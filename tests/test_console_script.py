"""The console-script contract, across the process boundary.

Each case runs `python -m gtransform.cli ...` in a fresh interpreter, in
a directory holding the input documents, and checks its exit code and
what it writes on stdout.  The subprocess imports gtransform from the
directory this process imports it from: run from a checkout with
PYTHONPATH=src that is src/, and run outside the checkout against an
installed package it is the installed copy.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

# The directory holding the gtransform package this process imports.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    importlib.util.find_spec("gtransform").origin)))

DOCUMENTS = {
    "seq.json": '{"A": ["1", "3/2", "11/6"], '
                '"u": ["1", "1/2", "1/3", "1/4", "1/5"]}',
    # Bad numbers in float mode, and a u that is not numeric or has a
    # zero under eps (which ignores the values of u but checks u by the
    # same rule as the other methods).
    "nan.json": '{"A": [1.0, NaN, 2.0]}',
    "big.json": '{"A": [1, 1' + "0" * 399 + ', 2]}',
    "text_u.json": '{"A": [1, 2, 3], "u": ["abc"]}',
    "zero_u.json": '{"A": [1, 2, 4], "u": [0, 1, 2, 3, 5]}',
    "literal.json": '{"A": [1, 0.10000000000000001, 2]}',
    # A constant u makes every system past column 0 singular.
    "constant.json": '{"A": [1, 2, 3], "u": [1, 1, 1, 1, 1]}',
    # One value above the CLI's cap of 501.
    "long.json": json.dumps({"A": [1.0] * 502}),
}


def _empty(out: str) -> None:
    assert out == ""


def _strict_json(out: str):
    """out is strict JSON (no NaN or Infinity token), laid out byte for
    byte as json.dumps(indent=2) with a final newline."""
    def refuse(token):
        raise AssertionError(f"not strict JSON: {token}")

    doc = json.loads(out, parse_constant=refuse)
    assert out == json.dumps(doc, indent=2) + "\n", "not json.dumps(indent=2)"
    return doc


def _passed(out: str) -> None:
    assert _strict_json(out)["passed"] is True


def _face_value(out: str) -> None:
    # Under --exact a float literal is read at face value, not through a
    # double.
    assert "  (1,0) valid 10000000000000001/100000000000000000" in (
        out.splitlines())


# (argv, exit code, stdout rule), one row per case.
CASES = [
    ("table --input seq.json --method fsqd --exact", 0, _strict_json),
    # Input errors: exit 2, nothing on stdout.
    ("table --input nan.json --method fsqd", 2, _empty),
    ("table --input big.json --method fsqd", 2, _empty),
    ("table --input text_u.json --method eps", 2, _empty),
    ("table --input zero_u.json --method eps", 2, _empty),
    ("integrate --integrand sinc --x 0 --n-max 3 --output missing/x.json",
     2, _empty),
    # bench and check write strict JSON and take no --format; a negative
    # limit in exponent form is a value, not an option.
    ("bench --method fsqd --L 10", 0, _strict_json),
    ("check --L 2 --cases 2", 0, _strict_json),
    ("integrate --integrand t_exp --x 1 --a -1e0 --n-max 3", 0,
     _strict_json),
    # check's redraw budget grows with the case count: 401 cases pass.
    ("check --L 1 --cases 401", 0, _passed),
    ("table --input literal.json --method eps --exact --format text --full",
     0, _face_value),
    # No entry past column 0 is valid and some broke down: exit 3, with
    # the table still written; under fsqd_diag the off-diagonal entries
    # are not computed.
    ("table --input constant.json --method fsqd --exact", 3, _strict_json),
    ("table --input constant.json --method fsqd_diag --exact", 3,
     _strict_json),
    # Usage errors: exit 64, nothing on stdout.  --n-max 501, --cases 501
    # and a document of 502 values are each one above their cap;
    # --diagonal-only is no flag (the diagonal-only table is --method
    # fsqd_diag).
    ("check --format text", 64, _empty),
    ("check --cases 0", 64, _empty),
    ("integrate --integrand sinc --x 0 --n-max 501", 64, _empty),
    ("check --L 1 --cases 501", 64, _empty),
    ("table --input long.json --method fsqd", 64, _empty),
    ("table --input seq.json --method fsqd --diagonal-only", 64, _empty),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    for name, text in DOCUMENTS.items():
        (path / name).write_text(text + "\n")
    return path


@pytest.mark.parametrize("argv, code, rule", CASES,
                         ids=[argv for argv, _, _ in CASES])
def test_console_script(workdir, argv, code, rule):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.run(
        [sys.executable, "-m", "gtransform.cli", *argv.split()],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    rule(proc.stdout)
