"""One breakdown policy for every engine: no entry reported VALID holds a
value that is not finite, and input that would produce one through the CLI
fails cleanly with its documented exit code."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtransform.cli import main
from gtransform.engines import run_epsilon, run_fs_qd, run_rs, shanks_prepare
from gtransform.scalars import CountingField, FloatField, ParseError
from gtransform.tables import InitializationError, SequencePair

# Finite doubles from the smallest subnormal up to 2^1023, either sign.
MAGNITUDES = st.builds(
    lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
    st.integers(min_value=-1073, max_value=1023),
)

# Huge A against alternating tiny and huge u: the rs table overflowed here
# and was reported as four valid Infinity entries.
OVERFLOW_DOC = {
    "A": [1e300, 2e300, 1e300, 3e300],
    "u": [1e-300, 1e300, 1e-300, 1e300, 1e-300, 1e300, 1e-300],
}


def _engine_tables(field_cls, A, u, E, L):
    seq = SequencePair(A=A, u=u, L=L)
    runs = {
        "fsqd": lambda f: run_fs_qd(seq, field=f),
        "fsqd_diag": lambda f: run_fs_qd(seq, diagonal_only=True, field=f),
        "rs": lambda f: run_rs(seq, field=f)[1],
        "eps": lambda f: run_epsilon(E, field=f),
        "shanks": lambda f: run_fs_qd(shanks_prepare(E, field=f), field=f),
    }
    for name, run in runs.items():
        try:
            yield name, run(field_cls())
        except InitializationError:
            pass  # a zero u or difference is refused before any entry


@settings(max_examples=150, deadline=None)
@example((  # an fsqd quotient overflowed
    2,
    [-4.49423283715579e307, 2.2912022726247035e-151, -6.071e-320],
    [8.036314553897005e300, -6.741349255733685e307, 5.357543035931337e300,
     -6.741349255733685e307, -6.741349255733685e307],
    [1.0, 2.0, 4.0, 5.0, 7.0],
))
@example((  # 1/(E1 - E0) overflowed, then inf - inf gave eps a NaN
    1,
    [1.0, 2.0],
    [1.0, 0.5, 0.25],
    [5e-324, 1e-323, 1.5e-323],
))
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda L: st.tuples(
        st.just(L),
        st.lists(MAGNITUDES, min_size=L + 1, max_size=L + 1),
        st.lists(MAGNITUDES, min_size=2 * L + 1, max_size=2 * L + 1),
        st.lists(MAGNITUDES, min_size=2 * L + 1, max_size=2 * L + 1),
    )
))
def test_no_valid_entry_is_non_finite(case):
    L, A, u, E = case
    for field_cls in (FloatField, CountingField):
        for name, table in _engine_tables(field_cls, A, u, E, L):
            for (j, n), entry in table.items():
                assert not entry.valid or math.isfinite(float(entry.value)), (
                    f"{field_cls.__name__} {name} ({j},{n}) is {entry.value}"
                )


@pytest.mark.parametrize("method", ["rs", "fsqd", "eps"])
def test_overflowing_table_writes_strict_json(tmp_path, capsys, method):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(OVERFLOW_DOC))
    code = main(["table", "--input", str(path), "--method", method])
    assert code in (0, 3)

    def refuse(token):
        raise AssertionError(f"non-finite token {token} in the output")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["method"] == method


@pytest.mark.parametrize(
    "token", ['"1e400"', "1" + "0" * 400], ids=["text", "integer"]
)
def test_float_overflowing_document_value_is_input_error(
    tmp_path, capsys, token
):
    path = tmp_path / "in.json"
    path.write_text('{"A": [1.0, %s, 2.0]}' % token)
    code = main(["table", "--input", str(path), "--method", "eps"])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err and "A[1]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("integrand", ["exp_decay", "t_exp"])
def test_integrate_reference_overflow_is_input_error(capsys, integrand):
    code = main(["integrate", "--integrand", integrand, "--a", "-1000",
                 "--x", "-1000", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err and "overflows" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("integrand", ["exp_decay", "t_exp"])
def test_integrate_sample_overflow_is_input_error(capsys, integrand):
    code = main(["integrate", "--integrand", integrand, "--a", "-709",
                 "--x", "-709", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["abc", "nan", "1/0"])
def test_float_text_goes_through_the_rational_parser(text):
    with pytest.raises(ParseError):
        FloatField().convert(text)


@pytest.mark.parametrize("flags", [
    ["--x", "0", "--h", "1e308"],        # x + 2h overflows
    ["--a=-1e308", "--x", "1e308"],      # the panel [a, x] is too wide
], ids=["grid", "panel"])
def test_integrate_sinc_sample_point_overflow_is_input_error(capsys, flags):
    code = main(["integrate", "--integrand", "sinc", *flags, "--n-max", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "input error" in captured.err
    assert captured.out == ""


def test_float_text_outside_the_double_range_is_parse_error():
    with pytest.raises(ParseError, match="1e400"):
        FloatField().convert("1e400")
