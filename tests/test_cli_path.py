"""One CLI path: the parser is built once per process, bench and check
write JSON only, every subcommand maps its failures to the documented
exit codes, and numbers crossing the CLI are bounded by the interpreter's
4300-digit limit in both directions."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gtransform import cli
from gtransform.cli import main
from gtransform.engines import METHODS, run_epsilon
from gtransform.scalars import (
    FloatField,
    ParseError,
    RationalField,
    rational_from_text,
)


def _strict_json(out: str):
    def refuse(token):
        raise AssertionError(f"non-finite token {token} in the output")

    return json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [["bench", "--method", "fsqd", "--L", "10"], ["check", "--L", "2"]],
    ids=["bench", "check"],
)
@pytest.mark.parametrize(
    "flags",
    [["--format", "text"], ["--format", "json"], ["--full"]],
    ids=["format text", "format json", "full"],
)
def test_bench_and_check_take_no_render_flags(capsys, argv, flags):
    assert main(argv + flags) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("_build_parser called by main")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    argv = ["integrate", "--integrand", "sinc", "--x", "0", "--n-max", "4"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    _strict_json(outputs[0])


@pytest.mark.parametrize("text", ["1e5000", "1e-5000", " -2.5E+4301 ",
                                  "1e" + "9" * 5000])
@pytest.mark.parametrize("field_cls", [FloatField, RationalField])
def test_an_exponent_beyond_the_digit_limit_is_refused(field_cls, text):
    with pytest.raises(ParseError, match="exponent beyond 4300"):
        field_cls().convert(text)


def test_an_exponent_at_the_digit_limit_is_parsed():
    assert rational_from_text("1e4300") == 10**4300
    assert rational_from_text("1e-4300") == Fraction(1, 10**4300)
    assert rational_from_text("1_0e4_299") == 10**4300


def _write(tmp_path, doc) -> str:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_refuses_a_float_text_exponent_beyond_the_limit(tmp_path, capsys):
    path = _write(tmp_path, {"A": ["1e-5000", "2", "3"]})
    assert main(["table", "--input", path, "--method", "eps"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: A[0]: exponent beyond 4300" in captured.err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_exact_value_too_long_to_write_is_an_input_error(
    tmp_path, capsys, fmt
):
    # 10**4300 has 4301 digits, one more than str() of an int may write.
    path = _write(tmp_path, {"A": ["1e4300", "2", "3"]})
    argv = ["table", "--input", path, "--method", "eps", "--exact",
            "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err
    assert "4300" in captured.err
    # The library still returns the exact value.
    table = run_epsilon([10**4300, 2, 3], field=RationalField())
    assert table.get(0, 0).value == 10**4300


# Flag values: mostly good ones within the sizes below (memory is O(L^2)),
# and now and then a bad one of a kind the parser or the subcommand must
# refuse: not a number, negative, zero, odd, non-finite or out of range.
def _mostly(good, bad):
    return st.integers(1, 6).flatmap(lambda k: bad if k == 6 else good)


NOT_A_NUMBER = st.sampled_from(["", "abc", "1.5", "0x10", "nan", "inf", "--"])
HUGE = st.just("9" * 30)


def _ints(lo, hi, bad_lo=None, bad=st.nothing()):
    """Integers in [lo, hi]; bad ones from [bad_lo, lo) (by default the
    three below lo), not numbers or bad."""
    below = st.integers(lo - 3 if bad_lo is None else bad_lo, lo - 1)
    return _mostly(st.integers(lo, hi).map(str),
                   st.one_of(below.map(str), NOT_A_NUMBER, bad))


def _floats(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        NOT_A_NUMBER,
        st.sampled_from(["-inf", "1e400", "-1e400", "1e308", "-1e308", "0",
                         "-1", "5e-324", "-0.0"]),
    ))


def _flags(draw, spec):
    """--name=value for each optional flag of spec drawn present; a
    required flag is left out only now and then."""
    argv = []
    for name, (values, required) in spec.items():
        if draw(st.integers(0, 19)) < (19 if required else 10):
            argv.append(f"--{name}={draw(values)}")
    return argv


# Flags bench and check do not take.
RENDER_FLAGS = _mostly(st.just([]), st.sampled_from(
    [["--format=json"], ["--format=text"], ["--full"]]))


@st.composite
def integrate_argv(draw):
    return ["integrate"] + _flags(draw, {
        "integrand": (_mostly(st.sampled_from(["exp_decay", "t_exp", "sinc"]),
                              st.just("x")), True),
        "a": (_floats(-50.0, 0.0), False),
        "x": (_floats(0.0, 50.0), True),
        "h": (_floats(1e-3, 10.0), False),
        "n-max": (_ints(1, 20), True),
        "engine": (_mostly(st.sampled_from(METHODS), st.just("qd")), False),
        "subdivisions": (_mostly(st.integers(1, 32).map(lambda k: str(2 * k)),
                                 st.one_of(st.integers(-3, 63).map(str),
                                           NOT_A_NUMBER)), False),
    }) + ["--analytic-f"] * draw(st.booleans())


@st.composite
def bench_argv(draw):
    return ["bench"] + _flags(draw, {
        "method": (_mostly(st.sampled_from(METHODS), st.just("x")), True),
        "L": (_ints(10, 40, bad_lo=-2), True),
        "seed": (_ints(-5, 10**6, bad=HUGE), False),
    }) + draw(RENDER_FLAGS)


@st.composite
def check_argv(draw):
    return ["check"] + _flags(draw, {
        # An L above 5 is refused before the suite runs, however large.
        "L": (_ints(1, 5, bad=st.sampled_from(["6", "9" * 30])), True),
        "cases": (_ints(1, 3, bad_lo=-2), True),
        "seed": (_ints(-5, 10**6, bad=HUGE), False),
    }) + draw(RENDER_FLAGS)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# Python before 3.12 stores "--L=--" as an empty list, and the rs
# recursion breaks down on a zero Hankel determinant that its check must
# redraw, not report.
@example(["bench", "--method=fsqd", "--L=--"])
@example(["integrate", "--integrand=sinc", "--x=--", "--n-max=3"])
@example(["check", "--L=3", "--cases=2", "--seed=-6"])
@given(st.one_of(integrate_argv(), bench_argv(), check_argv()))
def test_any_flags_exit_cleanly_with_strict_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3, 64)
    if out:
        assert code in (0, 3)
        _strict_json(out)


@st.composite
def table_argv(draw, tmp_path):
    """table on a small sequence document (floats or exact texts, u now
    and then holding a zero, so that breakdowns occur), in any method and
    mode."""
    L = draw(st.integers(0, 5))
    number = st.one_of(st.floats(-100, 100),
                       st.builds("{}/{}".format, st.integers(-9, 9),
                                 st.integers(1, 9)))
    doc = {"A": draw(st.lists(number, min_size=L + 1, max_size=L + 1))}
    if draw(st.booleans()):
        doc["u"] = draw(st.lists(number, min_size=1, max_size=2 * L + 1))
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    method = draw(st.sampled_from(METHODS))
    return (["table", "--input", str(path), "--method", method]
            + ["--exact"] * draw(st.booleans()))


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_json_output_is_laid_out_as_json_dumps_indent_2(tmp_path, capsys, data):
    argv = data.draw(st.one_of(integrate_argv(), bench_argv(), check_argv(),
                               table_argv(tmp_path)))
    main(argv)
    out = capsys.readouterr().out
    if out:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
