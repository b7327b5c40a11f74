"""One input path: every engine and the CLI turn input into numbers through
the field's convert, which refuses what it cannot represent with
ParseError, and every engine treats a short or empty u alike."""

from __future__ import annotations

import argparse
import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gtransform.cli import _emit, main
from gtransform.engines import METHODS, build_qd_table, run_fs_qd, run_rs
from gtransform.scalars import (
    CountingField,
    FloatField,
    ParseError,
    RationalField,
)
from gtransform.tables import EntryStatus, SequencePair

FIELDS = (FloatField, RationalField, CountingField)
NOT_COMPUTED = EntryStatus.NOT_COMPUTED


@pytest.mark.parametrize("field_cls", [FloatField, CountingField])
@pytest.mark.parametrize(
    "value", [10**400, -(10**400), Fraction(10**400), Fraction(-(10**401), 3)],
    ids=["int", "negative int", "Fraction", "negative Fraction"],
)
def test_float_field_refuses_numbers_outside_the_double_range(
    field_cls, value
):
    with pytest.raises(ParseError, match="outside the double range"):
        field_cls().convert(value)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf,
     CountingField().convert(math.nan),
     CountingField().convert(math.inf)],
    ids=["nan", "inf", "-inf", "counting nan", "counting inf"],
)
def test_rational_field_refuses_non_finite_floats(value):
    with pytest.raises(ParseError, match="not a finite number"):
        RationalField().convert(value)


def _statuses(table):
    return {key: entry.status for key, entry in table.items()}


def _engine_statuses(field_cls, A, u, L):
    seq = SequencePair(A=A, u=u, L=L)
    fsqd = run_fs_qd(seq, field=field_cls())
    diag = run_fs_qd(seq, diagonal_only=True, field=field_cls())
    rs = run_rs(seq, field=field_cls())[1]
    qd = build_qd_table(u, L, field_cls())
    return {
        "fsqd": _statuses(fsqd),
        "fsqd_diag": _statuses(diag),
        "rs": _statuses(rs),
        "q": _statuses(qd.q),
        "e": _statuses(qd.e),
    }


@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("length", ["empty", "short"])
def test_engines_treat_empty_and_short_u_alike(L, length):
    A = [Fraction(k + 1, k + 2) for k in range(L + 1)]
    u = [] if length == "empty" else [Fraction(1, k + 1) for k in range(L)]
    # Every engine converts the Fractions through its field and returns a
    # table; none refuses the short u.
    per_field = {
        field_cls.__name__: _engine_statuses(field_cls, A, u, L)
        for field_cls in FIELDS
    }
    float_statuses = per_field["FloatField"]
    assert per_field["RationalField"] == float_statuses
    assert per_field["CountingField"] == float_statuses
    # fsqd_diag computes the diagonal of the fsqd table only.
    for (j, n), status in float_statuses["fsqd_diag"].items():
        if j == 0 or n == 0:
            assert status is float_statuses["fsqd"][(j, n)]
        else:
            assert status is NOT_COMPUTED
    if length == "empty":
        for name in ("fsqd", "fsqd_diag", "rs", "q"):
            assert all(
                status is NOT_COMPUTED
                for (j, n), status in float_statuses[name].items()
                if n > 0
            ), name
        assert all(
            (status is NOT_COMPUTED) == (n > 0)
            for (j, n), status in float_statuses["e"].items()
        )


NUMBER_TOKENS = st.one_of(
    st.integers(min_value=-9, max_value=9).map(str),
    st.floats(min_value=-1e3, max_value=1e3).map(repr),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 99)).map(
        json.dumps
    ),
)
# Values the CLI must refuse or read cleanly: non-finite and overflowing
# literals, huge integers (one past the interpreter's digit limit for int
# parsing), any double, short strings, bools, null and nested containers.
# The explicit examples below add nesting past the recursion limit.
WILD_TOKENS = st.one_of(
    st.sampled_from([
        "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
        "1" + "0" * 400, "-" + "7" * 330, "9" * 5000, "5e-324", "-0.0",
        "true", "false", "null", "[]", "[[1]]", '{"x": 1}',
    ]),
    st.integers(min_value=-(10**500), max_value=10**500).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    # At most five characters, so no exponent exceeds three digits.
    st.text(alphabet="0123456789./-+eE naifb", max_size=5).map(json.dumps),
)


def _mostly(common, rare, one_in: int):
    """common, except for about one draw in one_in, which is rare."""
    return st.integers(1, one_in).flatmap(
        lambda k: rare if k == one_in else common
    )


VALUE_TOKENS = _mostly(NUMBER_TOKENS, WILD_TOKENS, 8)
LIST_TOKENS = _mostly(
    st.lists(VALUE_TOKENS, min_size=1, max_size=5).map(
        lambda xs: "[" + ", ".join(xs) + "]"
    ),
    WILD_TOKENS,
    10,
)


@st.composite
def documents(draw):
    parts = ['"A": ' + draw(LIST_TOKENS)]
    if draw(st.booleans()):
        parts.append('"u": ' + draw(LIST_TOKENS))
    mode = draw(st.sampled_from([None, '"general"', '"shanks"', '"other"']))
    if mode is not None:
        parts.append('"mode": ' + mode)
    return "{" + ", ".join(parts) + "}"


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example('{"A": [1, ' + "9" * 5000 + "]}", "eps", False)
@example('{"A": ' + "[" * 100000 + "]" * 100000 + "}", "eps", False)
@example('{"A": [1.0, NaN, 2.0]}', "fsqd", True)
@given(documents(), st.sampled_from(METHODS), st.booleans())
def test_any_document_exits_cleanly_with_strict_json(
    tmp_path, capsys, text, method, exact
):
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = ["table", "--input", str(path), "--method", method]
    argv += ["--exact"] * exact
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 64)

    def refuse(token):
        raise AssertionError(f"non-finite token {token} in the output")

    if out:
        assert code in (0, 3)
        json.loads(out, parse_constant=refuse)


DECIMAL_LITERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(
        "{}{}{}e{}".format,
        st.sampled_from(["", "-"]),
        st.from_regex(r"(0|[1-9][0-9]{0,19})", fullmatch=True),
        st.from_regex(r"(\.[0-9]{1,25})?", fullmatch=True),
        st.integers(-345, 310),
    ),
)


@settings(max_examples=300, deadline=None)
@given(DECIMAL_LITERALS)
def test_float_field_reads_a_json_float_literal_as_float_does(text):
    # The CLI hands a document's float literals to convert as their text.
    if math.isinf(float(text)):
        with pytest.raises(ParseError, match="outside the double range"):
            FloatField().convert(text)
    else:
        assert FloatField().convert(text) == float(text)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_emit_refuses_a_non_finite_value(capsys, value):
    doc = {"method": "fsqd", "L": 0, "diagonal": [value]}
    with pytest.raises(ValueError):
        _emit(doc, argparse.Namespace(format="json", output=None))
    assert capsys.readouterr().out == ""
