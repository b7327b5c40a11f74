"""One breakdown policy for every engine: no entry reported VALID holds a
value that is not finite, and input that would produce one through the CLI
fails cleanly with its documented exit code."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtransform import engines
from gtransform.cli import main
from gtransform.engines import (
    build_qd_table,
    run_epsilon,
    run_fs_qd,
    run_rs,
    shanks_prepare,
)
from gtransform.scalars import (
    CountingField,
    FloatField,
    ParseError,
    RationalField,
)
from gtransform.tables import EntryStatus, InitializationError, SequencePair

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


# Doubles of every kind a float sweep can meet: subnormals, values near
# the ends of the double range, infinities and NaN; A alone may hold -0.0
# (u holds no zero).
EXTREMES = st.one_of(
    MAGNITUDES,
    st.floats(allow_nan=True, allow_infinity=True).filter(bool),
    st.sampled_from((5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                     -1e-300, 1e300, -1e300, 1.7976931348623157e308,
                     math.inf, -math.inf, math.nan)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda L: st.tuples(
        st.just(L),
        st.lists(st.one_of(EXTREMES, st.just(-0.0)),
                 min_size=L + 1, max_size=L + 1),
        st.lists(EXTREMES, max_size=2 * L + 1),
    )
))
def test_float_fs_sweep_holds_values_only(case):
    """The precondition of engines._fs_sweep: under FloatField and
    CountingField the qd sweep never yields a refused (None) divisor, as
    structural_divisors floors every one, so the FS sweep yields a value
    in every slot and raises nothing, on any doubles and any u length."""
    L, A, u = case
    for field in (FloatField(), CountingField()):
        A_, u_ = [field.convert(x) for x in A], [field.convert(x) for x in u]
        for _, _, d in engines._qd_sweep(u_, L, field):
            assert all(isinstance(x, float) for x in d), d
        columns = list(engines._fs_sweep(A_, u_, L, field))
        assert len(columns) == L + 1
        for M, N in columns:
            assert all(isinstance(x, float) for x in M + N), (M, N)


# Small multiples of the least subnormal, where a product of a factor
# underflows to zero.
SUBNORMAL_MULTIPLES = st.builds(
    lambda k: k * 5e-324, st.integers(min_value=-8, max_value=8).filter(bool))


@settings(max_examples=300, deadline=None)
# r[0][2] = u_1 * (s[1][1]/s[0][1] - 1) = 2.5e-323 * (-2.2/-2.25 - 1)
# underflows to 0.0, and is refused.
@example((1, [-0.0, 2.0], [-2e-323, 2.5e-323, -3e-323]))
@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda L: st.tuples(
        st.just(L),
        st.lists(st.one_of(EXTREMES, st.just(-0.0)),
                 min_size=L + 1, max_size=L + 1),
        st.sampled_from((EXTREMES, SUBNORMAL_MULTIPLES)).flatmap(
            lambda kind: st.lists(kind, max_size=2 * L + 1)),
    )
))
def test_float_rs_factors_are_never_zero(case):
    """Why the float fields' factors make no test on c: under FloatField
    and CountingField every valued r and s slot is nonzero (u holds no
    zero, s's first column is 1, and factors refuses a zero product), so
    no factor divides by zero and run_rs raises nothing, on any doubles
    and any u length."""
    L, A, u = case
    for field in (FloatField(), CountingField()):
        rs, _ = run_rs(SequencePair(A=A, u=u, L=L), field=field)
        for col in rs.r.columns + rs.s.columns:
            assert not any(isinstance(x, float) and x == 0.0 for x in col), \
                col


def _slot_rule_case(rng: random.Random):
    """(L, A, u, E): random, degenerate (repeated or geometric u, a value
    of A and E not finite, u near 1e+300 or 1e-300, A near the double
    range, where an rs entry overflows) or short-u input."""
    L = rng.randint(1, 5)
    m = 2 * L + 1
    kind = rng.choice(("random", "repeated", "geometric", "non-finite",
                       "huge", "tiny", "overflow", "short"))
    u = [rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5) for _ in range(m)]
    if kind == "repeated":
        u = [rng.choice((1.0, 2.0, -1.0)) for _ in range(m)]
    elif kind == "geometric":
        ratio = rng.choice((0.5, -0.5, 2.0))
        u = [ratio ** k for k in range(m)]
    elif kind in ("huge", "tiny"):
        u = [x * (1e300 if kind == "huge" else 1e-300) for x in u]
    elif kind == "short":
        u = u[:rng.randrange(m)]
    A = [rng.uniform(-2.0, 2.0) for _ in range(L + 1)]
    # Partial sums of u, some terms repeated: epsilon differences vanish.
    E = [sum(u[:k + 1]) if rng.random() < 0.7 else 1.0 for k in range(m)]
    if kind == "overflow":
        A = [x * 1e307 for x in A]
    elif kind == "non-finite":
        A[rng.randrange(L + 1)] = rng.choice((math.inf, -math.inf, math.nan))
        E[rng.randrange(m)] = rng.choice((math.inf, math.nan))
    return L, A, u, E


def _token(x) -> str:
    if isinstance(x, EntryStatus):
        return x.name
    if isinstance(x, float):
        return type(x).__name__ + x.hex()
    return str(x)


def _slot_rule_runs(L, A, u, E):
    """Each engine's columns, rs's and build_qd_table's arrays included,
    as a function of a fresh field."""
    seq = SequencePair(A=A, u=u, L=L)

    def rs(f):
        rs_table, table = run_rs(seq, field=f)
        return table.columns + rs_table.r.columns + rs_table.s.columns

    def qd(f):
        qd_table = build_qd_table(u, L, f)
        return qd_table.q.columns + qd_table.e.columns

    return {
        "fsqd": lambda f: run_fs_qd(seq, field=f).columns,
        "fsqd_diag": lambda f: run_fs_qd(seq, diagonal_only=True,
                                         field=f).columns,
        "rs": rs,
        "qd": qd,
        "eps": lambda f: run_epsilon(E, field=f).columns,
    }


def test_slot_rule_everywhere_changes_no_bit(monkeypatch):
    """_apply maps an update over whole columns only while no operand
    slot holds a status, so forcing its slot rule everywhere changes no
    value, status, rs or qd array or operation count, in float, counting
    and exact arithmetic.  The draws include rs and eps runs that leave
    the whole-column path partway, in every field."""
    real, forced, log = engines._apply, [False], []

    def apply(f, clean, *cols):
        log.append(clean)
        return real(f, clean and not forced[0], *cols)

    monkeypatch.setattr(engines, "_apply", apply)
    rng, left = random.Random(22), set()
    for _ in range(120):
        L, A, u, E = _slot_rule_case(rng)
        exact = [[Fraction(x) for x in xs] for xs in (A, u, E)] \
            if all(map(math.isfinite, A + E)) else None
        for make, inputs in ((FloatField, (A, u, E)),
                             (CountingField, (A, u, E)),
                             (RationalField, exact)):
            if inputs is None:
                continue
            for name, run in _slot_rule_runs(L, *inputs).items():
                outs = []
                for forced[0] in (False, True):
                    log.clear()
                    fld = make()
                    cols = run(fld)
                    counts = getattr(fld, "counts", None)
                    outs.append(([[_token(x) for x in c] for c in cols],
                                 counts and counts.as_dict()))
                    if not forced[0] and log[:1] == [True] and False in log:
                        left.add((name, make.__name__))
                assert outs[0] == outs[1], (name, make.__name__, L, *inputs)
    fields = ("FloatField", "CountingField", "RationalField")
    assert {(m, f) for m in ("rs", "eps") for f in fields} <= left


# The per-value checks: input conversion, the zero test on u and on
# shanks_prepare's differences, and the finiteness of a reported value.
# Every other method of a field is a guard a sweep asks.
PER_VALUE = {"convert", "is_zero", "is_finite"}


def _recording_field():
    """A FloatField whose every guard counts its calls, and the tally."""
    calls = Counter()

    def recorder(name):
        guard = getattr(FloatField, name)

        def record(self, *args):
            calls[name] += 1
            return guard(self, *args)
        return record

    guards = [name for name, attr in vars(FloatField).items()
              if callable(attr) and not name.startswith("_")
              and name not in PER_VALUE]
    assert set(guards) == {"differences", "factors", "structural_divisors",
                           "value_divisors"}
    field = type("RecordingField", (FloatField,),
                 {name: recorder(name) for name in guards})()
    return field, calls


# The guard calls a float engine makes per column on a run with no
# breakdown: fsqd floors its qd divisors and judges its final N divisors;
# eps forms and judges hi - lo at each of its 2L steps, two per column;
# rs forms and judges its two factors, each of which passes its brackets
# to differences, and forms and judges its entry's r0 - r1.  Each
# quantity is one engine call: fsqd 2, eps 2 and rs 3 per column.
GUARDS_PER_COLUMN = {
    "fsqd": {"structural_divisors": 1, "value_divisors": 1},
    "fsqd_diag": {"structural_divisors": 1, "value_divisors": 1},
    "eps": {"differences": 2},
    "rs": {"factors": 2, "differences": 3},
}


@pytest.mark.parametrize("method", ["fsqd", "fsqd_diag", "rs", "eps"])
def test_every_guard_judges_a_column(method):
    """The engines ask the field's guards once per column, never once per
    slot: on a run with no breakdown at L = 20, 40 and 150 each float
    engine makes exactly GUARDS_PER_COLUMN[method] calls of each guard
    per column (fsqd and fsqd_diag 2L in all, eps 2L, rs 5L), so the
    count grows linearly in L while a table has about L^2 slots.  No
    field keeps a per-slot negligibility test, or a guard that only
    re-judges another guard's output."""
    for make in (FloatField, CountingField, RationalField):
        assert not hasattr(make(), "is_negligible")
        assert not hasattr(make(), "value_factors")
    rng = random.Random(26)
    for L in (20, 40, 150):
        A = [rng.uniform(-1.0, 1.0) for _ in range(L + 1)]
        u = [rng.uniform(0.5, 2.0) for _ in range(2 * L + 1)]
        seq = SequencePair(A=A, u=u)
        field, calls = _recording_field()
        if method == "eps":
            table = run_epsilon(u, field=field)
        elif method == "rs":
            table = run_rs(seq, field=field)[1]
        else:
            table = run_fs_qd(seq, diagonal_only=method == "fsqd_diag",
                              field=field)
        assert not any(e.status is EntryStatus.BREAKDOWN
                       for _, e in table.items())
        want = {name: k * L for name, k in GUARDS_PER_COLUMN[method].items()}
        assert dict(calls) == want, L


B, N = EntryStatus.BREAKDOWN, EntryStatus.NOT_COMPUTED
SLOTS = st.one_of(st.integers(min_value=-9, max_value=9),
                  st.sampled_from([B, N]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(SLOTS, max_size=7), min_size=1, max_size=4),
       st.booleans())
@example([[1, B, N, 4], [N, 2, B, 5, 6], [7, 8, 9]], False)
@example([[B, N], [1, 2]], False)
def test_apply_calls_its_update_once_on_the_valued_rows(cols, clean):
    """engines._apply's contract.  Clean, f is called once on the columns
    as given.  Otherwise f is called once, on the rows where every operand
    holds a value, in order, and not at all when there are none; the
    result has the zip length of the operands, every valued row takes f's
    slot, and every other slot the slot rule's status: breakdown when an
    operand broke down, else not computed."""
    if clean:
        cols = [[x for x in col if not isinstance(x, EntryStatus)]
                for col in cols]
    calls = []

    def f(*operands):
        calls.append(operands)
        return [("f", row) for row in zip(*operands)]

    out = engines._apply(f, clean, *cols)
    rows = list(zip(*cols))
    valued = [row for row in rows if not set(row) & {B, N}]
    assert len(out) == len(rows)
    for row, slot in zip(rows, out):
        if B in row:
            assert slot is B
        elif N in row:
            assert slot is N
        else:
            assert slot == ("f", row)
    if clean:
        assert len(calls) == 1 and all(
            got is col for got, col in zip(calls[0], cols))
    elif valued:
        assert [[list(col) for col in call] for call in calls] == [
            [list(col) for col in zip(*valued)]]
    else:
        assert calls == []


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
