"""The counting scalar's contract: a float whose + - * / alone are counted,
that refuses to mix with plain numbers, and that every other field and
guard treats as the plain float it holds."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest

from gtransform.scalars import (
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

    assert plain.is_zero(cd) == plain.is_zero(d)
    assert plain.is_negligible(cd, *cops) == plain.is_negligible(d, *ops)
    assert same(plain.value_divisor(cd, *cops), plain.value_divisor(d, *ops))
    assert same(plain.structural_divisor(cd, *cops),
                plain.structural_divisor(d, *ops))
    assert counting.counts.total == 0


def test_infer_field_picks_the_float_field():
    fld = CountingField()
    assert type(infer_field([fld.convert(1.0)])) is FloatField
    assert type(infer_field([1, fld.convert(2.0)])) is FloatField


def test_infer_field_picks_exact_rationals_without_a_float():
    assert type(infer_field([1, Fraction(1, 3)])) is RationalField
    assert type(infer_field([2, 3])) is RationalField
    assert type(infer_field([])) is RationalField
