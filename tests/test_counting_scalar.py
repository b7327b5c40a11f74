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


@pytest.mark.parametrize("d,ops", GUARD_CASES)
def test_float_field_guards_treat_counting_scalars_as_floats(d, ops):
    plain = FloatField()
    counting = CountingField()
    cd = counting.convert(d)
    cops = [counting.convert(o) for o in ops]

    def same(a, b):
        return (a is None and b is None) or (
            a is not None and b is not None
            and (a == b or (math.isnan(a) and math.isnan(b)))
        )

    def column(guard, d, ops):
        # The row as a one-slot column: each operand its own column.
        [got] = guard([d], *[[o] for o in ops])
        return got

    assert plain.is_zero(cd) == plain.is_zero(d)
    assert plain.is_negligible(cd, *cops) == plain.is_negligible(d, *ops)
    assert same(column(plain.value_divisors, cd, cops),
                column(plain.value_divisors, d, ops))
    assert same(column(plain.structural_divisors, cd, cops),
                column(plain.structural_divisors, d, ops))
    assert counting.counts.total == 0


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
@given(st.lists(FLOOR_OPERANDS, min_size=1, max_size=5))
def test_structural_floor_follows_the_documented_rule(row):
    """structural_divisors equals the documented floor rule bit for bit
    and in type, for the float and the counting field, on every kind of
    double; flooring counts nothing."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        d, *ops = [fld.convert(x) for x in row]
        [got] = fld.structural_divisors([d], *[[o] for o in ops])
        want = _floor_as_documented(d, *ops)
        assert (type(got), got.hex()) == (type(want), want.hex())
        assert type(got) is type(d)
    assert counting.counts.total == 0


def _negligible_as_documented(d, *ops):
    """The negligibility rule as FloatField documents it, written out: d
    vanishes when it is zero or, given operands, when |d| is at most EPS
    times the largest operand magnitude (NaN ignored, starting from 0)."""
    scale = max([0.0] + [abs(o) for o in ops if not math.isnan(o)])
    return d == 0 or (len(ops) > 0 and abs(d) <= EPS * scale)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOOR_OPERANDS, min_size=1, max_size=5))
# A leading NaN operand must not hide the others' scale, and a divisor
# exactly EPS times the scale is negligible.
@example([5e-324, math.nan, 1.0])
@example([EPS, 1.0])
def test_negligible_and_value_divisor_follow_the_documented_rule(row):
    """is_negligible equals the documented rule, and value_divisors
    returns d itself where it does not hold and None where it does, for
    the float and the counting field, on every kind of double; the guards
    count nothing."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        d, *ops = [fld.convert(x) for x in row]
        negligible = _negligible_as_documented(d, *ops)
        assert fld.is_negligible(d, *ops) is negligible
        [got] = fld.value_divisors([d], *[[o] for o in ops])
        assert got is (None if negligible else d)
    assert counting.counts.total == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda arity: st.lists(st.lists(FLOOR_OPERANDS, min_size=arity + 1,
                                    max_size=arity + 1),
                           min_size=1, max_size=8)))
# Floored, refused and kept slots side by side: an exact zero, a divisor
# cancelled next to its operands, an ordinary one, a subnormal and NaN.
@example([[0.0, 1.0], [1e-300, 2.0], [0.5, 3.0], [5e-324, 0.0],
          [math.nan, 1.0], [-EPS, 1.0]])
def test_column_guards_judge_each_slot_by_its_own_operands(rows):
    """A column of several divisors, each with its own operands, gets slot
    for slot what the documented rules give each row alone: floored,
    refused and kept slots side by side.  The counting field keeps its
    scalar type in every slot it returns, floored ones included, and
    judging the columns counts nothing."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        converted = [[fld.convert(x) for x in row] for row in rows]
        ds, *ops = (list(col) for col in zip(*converted))
        kept = fld.value_divisors(ds, *ops)
        floored = fld.structural_divisors(ds, *ops)
        assert len(kept) == len(floored) == len(rows)
        for (d, *row_ops), k, f in zip(converted, kept, floored):
            want = None if _negligible_as_documented(d, *row_ops) else d
            assert k is want
            want = _floor_as_documented(d, *row_ops)
            assert (type(f), f.hex()) == (type(want), want.hex())
            assert type(f) is type(d)
    assert counting.counts.total == 0


def test_infer_field_picks_the_float_field():
    fld = CountingField()
    assert type(infer_field([fld.convert(1.0)])) is FloatField
    assert type(infer_field([1, fld.convert(2.0)])) is FloatField


def test_infer_field_picks_exact_rationals_without_a_float():
    assert type(infer_field([1, Fraction(1, 3)])) is RationalField
    assert type(infer_field([2, 3])) is RationalField
    assert type(infer_field([])) is RationalField
