"""The counting scalar's contract: a float whose + - * / alone are counted,
that refuses to mix with plain numbers, and that every other field and
guard treats as the plain float it holds."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import repeat

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
    value guard on d, the floor on d and its summands, differences on d
    less each operand (0.0 without one), and factors on d * (y/c - 1),
    with y the first operand and c the floored d (never zero, as factors
    requires).  Only the arithmetic differences and factors form is
    counted.  factors forms its bracket with the field's own 1, so the
    counting field's own factors is asked, as an engine asks it."""
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
    [got] = plain.value_divisors([cd])
    assert same(got, plain.value_divisors([d])[0])
    # Each summand its own one-slot column.
    [cc] = plain.structural_divisors([cd], *[[o] for o in csummands])
    [c] = plain.structural_divisors([d], *[[o] for o in summands])
    assert same(cc, c)
    assert counting.counts.total == 0
    got = plain.differences([cd] * len(cys), cys)
    want = plain.differences([d] * len(ys), ys)
    assert len(got) == len(want) == len(ys)
    assert all(map(same, got, want))
    assert counting.counts.as_dict() == {
        "additions": len(ys), "multiplications": 0, "divisions": 0,
    }
    [got] = counting.factors([cd], cys[:1], [cc])
    [want] = plain.factors([d], ys[:1], [c])
    assert same(got, want)
    [bracket] = plain.differences([ys[0] / c], [1.0])
    assert counting.counts.as_dict() == {
        "additions": len(ys) + 1, "multiplications": int(bracket is not None),
        "divisions": 1,
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
# |d| between EPS times the largest summand and EPS times their sum: kept
# by the rule, though it fails the guard's first keep test, on the
# summands' magnitude sum, so the guard builds a new column.
@example([2 * EPS, 1.0, 1.0, 1.0])
@example([-2 * EPS, 1.0, -1.0])
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


def test_structural_divisors_hand_back_a_column_they_do_not_floor():
    """The float and the counting field's floor returns its input list
    itself when no divisor is floored, and a new list of equal length
    when one is: every kept divisor the same object, the floored one
    replaced.  Neither counts anything."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        ds, q1, q0, ep = ([fld.convert(x) for x in col] for col in (
            [0.5, -2.0, 1e-20, 3.0], [1.0, 1.0, 1e-20, 4.0],
            [0.5, 3.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]))
        assert fld.structural_divisors(ds, q1, q0, ep) is ds
        ds[1] = fld.convert(EPS / 4)
        got = fld.structural_divisors(ds, q1, q0, ep)
        assert got is not ds and len(got) == len(ds)
        assert [g is d for g, d in zip(got, ds)] == [True, False, True, True]
        assert (type(got[1]), got[1]) == (type(ds[1]), 3.0 * EPS)
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
    """value_divisors returns d itself unless it is zero, and None where
    it is, for the float and the counting field, on every kind of double
    (the operand rule lives in differences), and counts nothing.  The
    exact field's value_divisors refuses an exact 0 alone; its factors
    x * (y/c - 1) is refused only where c is 0, so an exact zero product
    stays a value."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        cd = fld.convert(d)
        [got] = fld.value_divisors([cd])
        assert got is (None if d == 0 else cd)
    assert counting.counts.total == 0
    exact = RationalField()
    column = [Fraction(0), *([Fraction(d)] if math.isfinite(d) else [])]
    ones = [Fraction(1)] * len(column)
    got = exact.value_divisors(column)
    assert got[0] is None
    assert all(g is (None if x == 0 else x)
               for g, x in zip(got[1:], column[1:]))
    assert exact.factors(column, column, ones) == [
        x * (x - 1) for x in column]
    assert exact.factors(ones, ones, column) == [
        None if x == 0 else 1 / x - 1 for x in column]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FLOOR_OPERANDS, FLOOR_OPERANDS), max_size=8))
# A difference exactly EPS times the scale is refused, one ulp more is
# kept; a difference of subnormals next to a zero operand, an exact
# zero, cancelling infinities and a NaN operand on either side.
@example([(1.0, 1.0 - EPS), (1.0, 1.0 - 2 * EPS), (5e-324, 0.0),
          (-0.0, 0.0), (math.inf, math.inf), (math.inf, 1.0),
          (math.nan, 1.0), (1.0, math.nan)])
# |x - y| between EPS and 2 EPS times |x|: kept by the rule, though it
# fails the fast keep test 2 EPS |x| < |x - y|.
@example([(1.0, 1.0 - 1.5 * EPS), (-1.0, -1.0 + 1.5 * EPS)])
# A finite x with an infinite y: the difference is infinite, so the fast
# keep test (< inf) leaves it to the rule, which refuses it.  Opposite
# huge operands: the difference overflows, and the rule keeps it.
@example([(1.0, math.inf), (-1.0, -math.inf), (1e308, -1e308)])
# Subnormal differences one and two ulps wide: next to the smallest
# normal, where EPS times it rounds to one ulp (one refused, two kept),
# and between subnormals, where it rounds to zero (both kept).
@example([(2.0 ** -1022, 2.0 ** -1022 - 5e-324),
          (2.0 ** -1022, 2.0 ** -1022 - 1e-323),
          (-2.0 ** -1022 + 5e-324, -2.0 ** -1022),
          (1.5e-323, 1e-323), (1.5e-323, 5e-324)])
def test_differences_follow_the_documented_rule(rows):
    """differences returns x - y, or None where the documented rule finds
    it cancelled, row by row, bit for bit and in type, for the float and
    the counting field, on every kind of double.  The counting field
    tallies one addition per row.  The exact field refuses an exact zero
    difference and no other."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        xs = [fld.convert(x) for x, _ in rows]
        ys = [fld.convert(y) for _, y in rows]
        got = fld.differences(xs, ys)
        assert len(got) == len(rows)
        for x, y, g in zip(xs, ys, got):
            want = _difference_as_documented(x, y)
            if want is None:
                assert g is None
            else:
                assert (type(g), g.hex()) == (type(x), want.hex())
    assert counting.counts.as_dict() == {
        "additions": len(rows), "multiplications": 0, "divisions": 0,
    }
    exact = RationalField()
    finite = [(Fraction(x), Fraction(y)) for x, y in rows
              if math.isfinite(x) and math.isfinite(y)]
    xs = [Fraction(1), Fraction(1), *(x for x, _ in finite)]
    ys = [Fraction(1), Fraction(0), *(y for _, y in finite)]
    assert exact.differences(xs, ys) == [
        None, Fraction(1), *(None if x == y else x - y for x, y in finite)]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda arity: st.lists(st.lists(FLOOR_OPERANDS, min_size=arity + 1,
                                    max_size=arity + 1),
                           min_size=1, max_size=8)))
# Floored, refused and kept slots side by side: an exact zero, a divisor
# cancelled next to its operands, an ordinary one, a subnormal and NaN.
# Among the float factors: a bracket cancelled (y = c), a zero product
# (x = 0) and a product that underflows to -0.0 (5e-324 * -0.5); among
# the exact ones: a zero c and exact zero products (y = c, and x = 0).
@example([[0.0, 1.0], [1e-300, 2.0], [0.5, 3.0], [5e-324, 0.0],
          [math.nan, 1.0], [-EPS, 1.0], [2.0, 2.0], [2.0, 1.0, 1.0],
          [0.0, 1.0, 3.0], [5e-324, FLOOR_MIN / 2]])
def test_column_guards_judge_each_slot_by_its_own_operands(rows):
    """A column of several quantities, each with its own operands (up to
    three, the others 0.0), gets slot for slot what the documented rules
    give each row alone: the floor of d next to its summands, d refused
    where it is zero, d less its first operand refused where it cancels,
    and the factor d * (y/c - 1), with y the first operand, refused where
    its bracket cancels (the differences rule) or its product is zero;
    floored, refused and kept slots side by side.  The float factor's c
    is the floored d, never zero, as factors requires.  The counting
    field keeps its scalar type in every slot it returns, floored ones
    included; the value guard and the floor count nothing, differences
    one addition per row, and factors a division and an addition per row
    and a multiplication per bracket kept.  The exact field's factor,
    with c the second operand, is refused only where c is zero; an exact
    zero product stays a value."""
    counting = CountingField()
    for fld in (FloatField(), counting):
        converted = [[fld.convert(x) for x in (row[0], *_summands(row[1:]))]
                     for row in rows]
        ds, *summands = (list(col) for col in zip(*converted))
        kept = fld.value_divisors(ds)
        floored = fld.structural_divisors(ds, *summands)
        assert counting.counts.total == 0
        diffs = fld.differences(ds, summands[0])
        factors = fld.factors(ds, summands[0], floored)
        assert len(kept) == len(floored) == len(diffs) == len(rows)
        assert len(factors) == len(rows)
        brackets = 0  # of this field's rows
        for d, *row_ops, k, f, x, p in zip(ds, *summands, kept, floored,
                                           diffs, factors):
            assert k is (None if d == 0 else d)
            want = _floor_as_documented(d, *row_ops)
            assert (type(f), f.hex()) == (type(want), want.hex())
            assert type(f) is type(d)
            want = _difference_as_documented(d, row_ops[0])
            if want is None:
                assert x is None
            else:
                assert (type(x), x.hex()) == (type(d), want.hex())
            bracket = _difference_as_documented(
                float(row_ops[0]) / float(f), 1.0)
            brackets += bracket is not None
            want = None if bracket is None else float(d) * bracket
            if want is None or want == 0.0:
                assert p is None
            else:
                assert (type(p), p.hex()) == (type(d), want.hex())
    assert counting.counts.as_dict() == {
        "additions": 2 * len(rows), "multiplications": brackets,
        "divisions": len(rows),
    }
    exact = RationalField()
    finite = [[Fraction(x) for x in (row[0], *_summands(row[1:]))]
              for row in rows if all(map(math.isfinite, row))]
    xs, ys, cs = ([row[i] for row in finite] for i in range(3))
    assert exact.factors(xs, ys, cs) == [
        None if c == 0 else x * (y / c - 1) for x, y, c in zip(xs, ys, cs)]


def _factors_in_three_steps(fld, xs, ys, cs):
    """rs's factor written out as three column steps: every ratio y/c,
    then the brackets differences(ratios, repeat(1)), then x times each
    bracket kept, refused where the product is zero."""
    ratios = [y / c for y, c in zip(ys, cs)]
    brackets = fld.differences(ratios, repeat(fld.convert(1)))
    return [None if b is None or (p := x * b) == 0.0 else p
            for x, b in zip(xs, brackets)]


# Doubles a factor can meet: signed zeros, subnormals, infinities, NaN
# and values near 1e+-300, besides any finite double.
FACTOR_OPERANDS = st.one_of(
    FLOOR_OPERANDS,
    st.sampled_from([1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
                     2.2250738585072014e-308]),
    st.builds(lambda sign, m: sign * m, st.sampled_from((-1.0, 1.0)),
              st.one_of(st.floats(1e-302, 1e-298), st.floats(1e298, 1e302))),
)
# A row whose ratio y/c is 1 + k ulp or 1 - k ulp, exactly where c is a
# power of two inside the double range: y's bracket lies at the
# negligibility threshold.
NEAR_ONE_ROWS = st.builds(
    lambda x, k, up, sign, e: (
        x, sign * (1.0 + k * EPS if up else 1.0 - k * EPS / 2) * 2.0 ** e,
        sign * 2.0 ** e),
    FACTOR_OPERANDS, st.integers(0, 4), st.booleans(),
    st.sampled_from((-1.0, 1.0)), st.integers(-1074, 1023))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(FACTOR_OPERANDS, FACTOR_OPERANDS,
              FACTOR_OPERANDS.filter(bool)),
    NEAR_ONE_ROWS), max_size=8))
# Ratios at 1 - 3 ulp (a bracket kept, though it fails differences' fast
# keep test 2 EPS |t| < |t - 1|), 1 - 1 ulp and 1 + 1 ulp (refused) and
# 1 + 2 ulp (kept); a cancelled bracket, a zero and an underflowing
# product, a NaN and an infinite ratio, and signed zeros.
@example([(1.0, 1.0 - 1.5 * EPS, 1.0), (3.0, 1.0 - EPS / 2, 1.0),
          (-2.0, 1.0 + EPS, 1.0), (-2.0, 1.0 + 2 * EPS, 1.0),
          (1.0, 1.0, 1.0), (0.0, 2.0, 1.0), (5e-324, 1.5, 1.0),
          (1.0, math.nan, 2.0), (1.0, 1e300, 1e-300), (-0.0, -0.0, 1.0),
          (2.0, -0.0, -1.0)])
# Both ends of the refused ratios 1 - 2**-52 <= t <= 1 + 2**-52 and the
# doubles inside (1 - 2**-53 and 1), the nearest ratios kept on either
# side (1 - 3 * 2**-53 and 1 + 2 * 2**-52), infinite ratios (refused)
# and a NaN one (kept).
@example([(3.0, 1.0 - EPS, 1.0), (3.0, 1.0 - EPS / 2, 1.0),
          (3.0, 1.0, 1.0), (3.0, 1.0 + EPS, 1.0),
          (3.0, 1.0 - 1.5 * EPS, 1.0), (3.0, 1.0 + 2 * EPS, 1.0),
          (3.0, math.inf, 1.0), (3.0, -math.inf, 1.0),
          (3.0, math.nan, 1.0)])
def test_factors_equal_their_three_column_steps(rows):
    """factors, which forms y/c, its bracket and the product in one pass,
    equals the three steps written out with the same field's
    differences, row for row: each value's type and bits (its sign
    included), each None, and the counting tally.  c is never zero, as
    factors requires."""
    for make in (FloatField, CountingField):
        one_pass, steps = make(), make()
        got = one_pass.factors(*([one_pass.convert(row[i]) for row in rows]
                                 for i in range(3)))
        want = _factors_in_three_steps(
            steps, *([steps.convert(row[i]) for row in rows]
                     for i in range(3)))
        assert len(got) == len(want) == len(rows)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert type(g) is type(one_pass.convert(0.0))
                assert type(w) is type(steps.convert(0.0))
                assert g.hex() == w.hex()
        if make is CountingField:
            assert one_pass.counts == steps.counts


def test_infer_field_picks_the_float_field():
    fld = CountingField()
    assert type(infer_field([fld.convert(1.0)])) is FloatField
    assert type(infer_field([1, fld.convert(2.0)])) is FloatField


def test_infer_field_picks_exact_rationals_without_a_float():
    assert type(infer_field([1, Fraction(1, 3)])) is RationalField
    assert type(infer_field([2, 3])) is RationalField
    assert type(infer_field([])) is RationalField
