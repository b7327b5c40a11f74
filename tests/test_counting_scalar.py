"""The counting scalar's contract: a float whose + - * / alone are counted,
that refuses to mix with plain numbers, and that every other field and
guard treats as the plain float it holds."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtransform.scalars import (
    EPS,
    FLOOR_MIN,
    CountingField,
    CountingScalar,
    FloatField,
    RationalField,
    infer_field,
)

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]


def test_a_counting_scalar_is_a_float():
    x = CountingField().convert(1.5)
    assert isinstance(x, CountingScalar)
    assert isinstance(x, float)


@pytest.mark.parametrize("op", ARITHMETIC, ids=lambda op: op.__name__)
def test_mixing_with_a_plain_float_raises_and_counts_nothing(op):
    fld = CountingField()
    x = fld.convert(2.0)
    with pytest.raises(TypeError):
        op(x, 1.0)
    with pytest.raises(TypeError):
        op(1.0, x)
    assert fld.counts.total == 0


def test_negation_stays_counting_and_hashes_as_a_float():
    # That negation, abs and comparisons are free is checked in
    # test_scalars.py; this adds what a float subclass could get wrong.
    fld = CountingField()
    x = fld.convert(-3.0)
    y = -x
    assert isinstance(y, CountingScalar) and y == 3.0
    assert hash(x) == hash(-3.0)
    assert {x: "key"}[-3.0] == "key"
    assert fld.counts.total == 0
    y + x
    assert fld.counts.additions == 1


def test_interleaved_fields_keep_separate_tallies():
    first, second = CountingField(), CountingField()
    a, b = first.convert(1.0), first.convert(2.0)
    c, d = second.convert(3.0), second.convert(4.0)
    for _ in range(3):
        a = a + b
        c = c * d
        c = c / d
    assert first.counts.as_dict() == {
        "additions": 3, "multiplications": 0, "divisions": 0,
    }
    assert second.counts.as_dict() == {
        "additions": 0, "multiplications": 3, "divisions": 3,
    }


GUARD_CASES = [
    (0.0, (1.0,)),
    (1e-300, (1.0, 2.0)),
    (-1e-300, (1.0, 2.0)),
    (1e-3, (1e10,)),
    (1e10 * 2.0 ** -53, (1e10, 1.0)),
    (-0.5, (1.0, -3.0, 0.25)),
    (2.0, ()),
    (math.inf, (1.0,)),
    (math.nan, (math.nan, 1.0)),
]


def _summands(ops):
    """ops as the three summands of a qd divisor: a missing one is 0.0,
    which never raises the scale, so the rule is unchanged."""
    return (*ops, *[0.0] * (3 - len(ops)))


@pytest.mark.parametrize("d,ops", GUARD_CASES)
def test_float_field_guards_treat_counting_scalars_as_floats(d, ops):
    """Each guard answers a counting scalar as the float it holds: the
    value guards on d, the floor on d and its summands, and differences
    on d less each operand (0.0 without one).  Only the subtractions
    differences forms are counted."""
    plain = FloatField()
    counting = CountingField()
    cd = counting.convert(d)
    summands = _summands(ops)
    csummands = [counting.convert(o) for o in summands]
    ys = ops or (0.0,)
    cys = [counting.convert(y) for y in ys]

    def same(a, b):
        return (a is None and b is None) or (
            a is not None and b is not None
            and (a == b or (math.isnan(a) and math.isnan(b)))
        )

    assert plain.is_zero(cd) == plain.is_zero(d)
    [got] = plain.value_factors([cd])
    assert same(got, plain.value_factors([d])[0])
    [got] = plain.value_divisors([cd])
    assert same(got, plain.value_divisors([d])[0])
    # Each summand its own one-slot column.
    [got] = plain.structural_divisors([cd], *[[o] for o in csummands])
    [want] = plain.structural_divisors([d], *[[o] for o in summands])
    assert same(got, want)
    assert counting.counts.total == 0
    got = plain.differences([cd] * len(cys), cys)
    want = plain.differences([d] * len(ys), ys)
    assert len(got) == len(want) == len(ys)
    assert all(map(same, got, want))
    assert counting.counts.as_dict() == {
        "additions": len(ys), "multiplications": 0, "divisions": 0,
    }


def _floor_as_documented(d, *ops):
    """The floor rule as FloatField documents it, written out: the floor
    is EPS times the largest operand magnitude (NaN ignored), at least
    FLOOR_MIN; a divisor below it becomes the floor with its sign."""
    scale = max([0.0] + [abs(o) for o in ops if not math.isnan(o)])
    floor = max(EPS * scale, FLOOR_MIN)
    if abs(d) >= floor:
        return d
    return type(d)(floor if d >= 0.0 else -floor)


# Every kind of double the floor can meet: signed zeros, subnormals, the
# floor's own bounds, infinities and NaN, besides any finite double.
FLOOR_OPERANDS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, FLOOR_MIN,
                     -FLOOR_MIN, EPS, 1.0, math.inf, -math.inf, math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOOR_OPERANDS, min_size=1, max_size=4))
def test_structural_floor_follows_the_documented_rule(row):
    """structural_divisors equals the documented floor rule bit for bit
    and in type, for the float and the counting field, on every kind of
    double, with up to three summands given (the others 0.0); flooring
    counts nothing."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        d, *ops = [fld.convert(x) for x in row]
        summands = [fld.convert(o) for o in _summands(ops)]
        [got] = fld.structural_divisors([d], *[[o] for o in summands])
        want = _floor_as_documented(d, *ops)
        assert (type(got), got.hex()) == (type(want), want.hex())
        assert type(got) is type(d)
    assert counting.counts.total == 0


def _difference_as_documented(x, y):
    """The difference rule as FloatField documents it, written out: x - y,
    or None where |x - y| is at most EPS times the larger of |x| and |y|
    (NaN ignored, starting from 0), a zero difference included."""
    x, y = float(x), float(y)
    d = x - y
    scale = max([0.0] + [abs(o) for o in (x, y) if not math.isnan(o)])
    return None if abs(d) <= EPS * scale else d


@settings(max_examples=300, deadline=None)
@given(FLOOR_OPERANDS)
@example(0.0)
@example(-0.0)
@example(5e-324)
def test_negligible_and_value_divisor_follow_the_documented_rule(d):
    """value_factors and value_divisors return d itself unless it is
    zero, and None where it is, for the float and the counting field, on
    every kind of double (their operand rule moved to differences); the
    exact field's value_factors returns every slot unchanged, an exact 0
    included; the guards count nothing."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        cd = fld.convert(d)
        for guard in (fld.value_factors, fld.value_divisors):
            [got] = guard([cd])
            assert got is (None if d == 0 else cd)
    assert counting.counts.total == 0
    exact = RationalField()
    column = [Fraction(0), *([Fraction(d)] if math.isfinite(d) else [])]
    got = exact.value_factors(column)
    assert len(got) == len(column) and all(map(operator.is_, got, column))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FLOOR_OPERANDS, FLOOR_OPERANDS), max_size=8),
       st.lists(st.booleans(), max_size=8))
# A difference exactly EPS times the scale is refused, one ulp more is
# kept; a difference of subnormals next to a zero operand, an exact
# zero, cancelling infinities and a NaN operand on either side.
@example([(1.0, 1.0 - EPS), (1.0, 1.0 - 2 * EPS), (5e-324, 0.0),
          (-0.0, 0.0), (math.inf, math.inf), (math.inf, 1.0),
          (math.nan, 1.0), (1.0, math.nan)], [False, True])
def test_differences_follow_the_documented_rule(rows, refused):
    """differences returns x - y, or None where the documented rule finds
    it cancelled, row by row, bit for bit and in type, for the float and
    the counting field, on every kind of double.  A None x stays None and
    its y is not read (here y is None too).  The counting field tallies
    one addition per row it computes and none for a None row.  The exact
    field refuses no difference, an exact zero included."""
    nones = [i for i, r in enumerate(refused[:len(rows)]) if r]
    counting = CountingField()
    for fld in (FloatField(), counting):
        xs = [fld.convert(x) for x, _ in rows]
        ys = [fld.convert(y) for _, y in rows]
        for i in nones:
            xs[i] = ys[i] = None
        got = fld.differences(xs, ys)
        assert len(got) == len(rows)
        for x, y, g in zip(xs, ys, got):
            if x is None:
                assert g is None
                continue
            want = _difference_as_documented(x, y)
            if want is None:
                assert g is None
            else:
                assert (type(g), g.hex()) == (type(x), want.hex())
    assert counting.counts.as_dict() == {
        "additions": len(rows) - len(nones), "multiplications": 0,
        "divisions": 0,
    }
    exact = RationalField()
    finite = [(Fraction(x), Fraction(y)) for x, y in rows
              if math.isfinite(x) and math.isfinite(y)]
    xs = [Fraction(1), None, *(x for x, _ in finite)]
    ys = [Fraction(1), None, *(y for _, y in finite)]
    assert exact.differences(xs, ys) == [
        Fraction(0), None, *(x - y for x, y in finite)]


@pytest.mark.parametrize("make", [FloatField, CountingField, RationalField])
def test_value_guards_keep_a_refused_slot_refused(make):
    """A slot an earlier guard refused (None) stays None through both
    value guards and through differences, whose y of that row (None too)
    is not read; the other slots are judged as usual."""
    fld = make()
    one, zero = fld.convert(1), fld.convert(0)
    # The exact field refuses no factor, not even an exact zero.
    for guard, kept in ((fld.value_divisors, False),
                        (fld.value_factors, make is RationalField)):
        assert guard([None, one]) == [None, one]
        assert guard([None, one, zero]) == [None, one, zero if kept else None]
    # The exact field refuses no difference; the float one refuses 1 - 1.
    got = fld.differences([None, one, one], [None, zero, one])
    assert got == [None, one, zero if make is RationalField else None]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda arity: st.lists(st.lists(FLOOR_OPERANDS, min_size=arity + 1,
                                    max_size=arity + 1),
                           min_size=1, max_size=8)))
# Floored, refused and kept slots side by side: an exact zero, a divisor
# cancelled next to its operands, an ordinary one, a subnormal and NaN.
@example([[0.0, 1.0], [1e-300, 2.0], [0.5, 3.0], [5e-324, 0.0],
          [math.nan, 1.0], [-EPS, 1.0]])
def test_column_guards_judge_each_slot_by_its_own_operands(rows):
    """A column of several quantities, each with its own operands (up to
    three, the others 0.0), gets slot for slot what the documented rules
    give each row alone: the floor of d next to its summands, d refused
    where it is zero, and d less its first operand refused where it
    cancels; floored, refused and kept slots side by side.  The counting
    field keeps its scalar type in every slot it returns, floored ones
    included; the guards count nothing and differences one addition per
    row."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        converted = [[fld.convert(x) for x in (row[0], *_summands(row[1:]))]
                     for row in rows]
        ds, *summands = (list(col) for col in zip(*converted))
        kept = fld.value_divisors(ds)
        floored = fld.structural_divisors(ds, *summands)
        assert counting.counts.total == 0
        diffs = fld.differences(ds, summands[0])
        assert len(kept) == len(floored) == len(diffs) == len(rows)
        for d, *row_ops, k, f, x in zip(ds, *summands, kept, floored, diffs):
            assert k is (None if d == 0 else d)
            want = _floor_as_documented(d, *row_ops)
            assert (type(f), f.hex()) == (type(want), want.hex())
            assert type(f) is type(d)
            want = _difference_as_documented(d, row_ops[0])
            if want is None:
                assert x is None
            else:
                assert (type(x), x.hex()) == (type(d), want.hex())
    assert counting.counts.as_dict() == {
        "additions": len(rows), "multiplications": 0, "divisions": 0,
    }


def test_infer_field_picks_the_float_field():
    fld = CountingField()
    assert type(infer_field([fld.convert(1.0)])) is FloatField
    assert type(infer_field([1, fld.convert(2.0)])) is FloatField


def test_infer_field_picks_exact_rationals_without_a_float():
    assert type(infer_field([1, Fraction(1, 3)])) is RationalField
    assert type(infer_field([2, 3])) is RationalField
    assert type(infer_field([])) is RationalField
