"""Arithmetic layer: rational parsing, counting scalars, float thresholds."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from gtransform.scalars import (
    EPS,
    CountingField,
    FloatField,
    ParseError,
    RationalField,
    rational_from_text,
)


class TestWithCounting:
    """Tallies of scalars built through a fresh CountingField."""

    def test_single_addition(self):
        fld = CountingField()
        result = fld.convert(2.0) + fld.convert(3.0)
        assert float(result) == 5.0
        assert fld.counts.as_dict() == {
            "additions": 1,
            "multiplications": 0,
            "divisions": 0,
        }

    def test_one_of_each(self):
        fld = CountingField()
        a, b, c, d = (fld.convert(v) for v in (1.0, 2.0, 3.0, 4.0))
        result = ((a + b) * c) / d
        counts = fld.counts
        assert float(result) == 2.25
        assert counts.additions == 1
        assert counts.multiplications == 1
        assert counts.divisions == 1

    def test_empty_computation(self):
        fld = CountingField()
        fld.convert(0)
        assert fld.counts.total == 0

    def test_subtraction_counts_as_addition(self):
        fld = CountingField()
        fld.convert(5.0) - fld.convert(2.0)
        assert fld.counts.additions == 1
        assert fld.counts.multiplications == 0

    def test_negation_and_comparison_are_free(self):
        fld = CountingField()
        a = fld.convert(3.0)
        b = -a
        assert b < a
        assert abs(b) == a
        assert fld.counts.total == 0

    def test_division_by_zero_carries_partial_counts(self):
        fld = CountingField()
        a = fld.convert(1.0) + fld.convert(2.0)
        b = a + a
        with pytest.raises(ZeroDivisionError):
            b / fld.convert(0)
        assert fld.counts.additions == 2
        assert fld.counts.divisions == 0

    def test_counts_monotone_during_run(self):
        fld = CountingField()
        seen = []
        acc = fld.convert(0)
        for i in range(1, 6):
            acc = acc + fld.convert(float(i))
            seen.append(fld.counts.additions)
        assert seen == sorted(seen)
        assert seen[-1] == 5


class TestRationalFromText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("17/6", Fraction(17, 6)),
            ("4/6", Fraction(2, 3)),
            ("0.25", Fraction(1, 4)),
            ("0.5", Fraction(1, 2)),
            ("-3", Fraction(-3)),
            ("7", Fraction(7)),
            ("-21/14", Fraction(-3, 2)),
        ],
    )
    def test_parses_and_normalizes(self, text, expected):
        got = rational_from_text(text)
        assert got == expected
        assert got.denominator > 0

    @pytest.mark.parametrize("bad", ["3/0", "abc", "", "1/2/3", "nan", "inf"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError) as exc_info:
            rational_from_text(bad)
        # error must name the offending token
        assert repr(bad)[1:-1] in str(exc_info.value) or bad in str(exc_info.value)


def test_rational_field_axioms():
    """Associativity, distributivity, and division inverse on 1000 random
    rationals with numerators and denominators in [-99, 99] minus zero.
    """
    rng = random.Random(20260822)

    def draw():
        num = rng.choice([k for k in range(-99, 100) if k != 0])
        den = rng.choice([k for k in range(1, 100)])
        return Fraction(num, den)

    for _ in range(1000):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a / b) * b == a


def test_counting_matches_plain_floats_bitwise():
    """The counting realization must not perturb float results."""
    rng = random.Random(99)
    raw = [rng.uniform(0.5, 1.5) for _ in range(40)]

    def work(values):
        acc = values[0]
        for v in values[1:]:
            acc = (acc + v) * v - acc / v
        return acc

    plain = work(raw)

    fld = CountingField()
    counted = work([fld.convert(v) for v in raw])
    counts = fld.counts
    assert float(counted) == plain
    assert counts.additions == 2 * 39
    assert counts.multiplications == 39
    assert counts.divisions == 39


class TestFloatField:
    def test_value_divisor_rejects_negligible(self):
        # The engines' chain: a difference of big operands is refused
        # when it vanishes or cancels to one ulp of big, kept otherwise.
        fld = FloatField()
        big = 1e10
        ys = [big, math.nextafter(big, 0.0), big - 1e-3]
        kept = fld.value_divisors(fld.differences([big] * 3, ys))
        assert big - ys[1] <= big * EPS
        assert kept[:2] == [None, None]
        assert kept[2] is not None

    def test_structural_divisor_never_none(self):
        fld = FloatField()
        d, d_neg = fld.structural_divisors([0.0, -1e-300], [1.0, 1.0],
                                           [0.0, 0.0], [0.0, 0.0])
        assert d is not None and d > 0
        # sign preserved for negative near-zeros
        assert d_neg < 0

    def test_structural_floor_bounded_away_from_underflow(self):
        # cascaded degenerate operands must not drive the floor to the
        # subnormal range, else later quotients overflow
        fld = FloatField()
        [d] = fld.structural_divisors([0.0], [0.0], [0.0], [0.0])
        assert abs(d) >= EPS * EPS

    def test_convert_accepts_rational_strings(self):
        fld = FloatField()
        assert fld.convert("1/2") == 0.5
        assert fld.convert(Fraction(3, 4)) == 0.75


class TestRationalFieldDivisors:
    def test_zero_is_the_only_breakdown(self):
        fld = RationalField()
        tiny = Fraction(1, 10**40)
        one = [Fraction(1)] * 2
        assert fld.value_divisors([Fraction(0), tiny]) == [None, tiny]
        assert fld.structural_divisors(
            [Fraction(0), tiny], one, one, one) == [None, tiny]

    def test_convert_reads_decimal_floats_exactly(self):
        fld = RationalField()
        assert fld.convert(0.25) == Fraction(1, 4)
        assert fld.convert("17/6") == Fraction(17, 6)


def test_counting_field_runs_inside_context():
    fld_outer = CountingField.__name__  # only to document the public name
    assert fld_outer == "CountingField"
    fld = CountingField()
    result = fld.convert(6.0) / fld.convert(3.0)
    assert float(result) == 2.0
    assert fld.counts.divisions == 1
