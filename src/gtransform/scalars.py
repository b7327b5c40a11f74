"""Arithmetic fields the extrapolation engines are generic over.

Three realizations share one small protocol: plain machine doubles, exact
rationals, and counting doubles.  A counting scalar is a float that tallies
every add, subtract, multiply and divide in its field's counts; to every
other operation, and to the float field's guards, it is a plain float.
The breakdown policy lives here and nowhere else: engines
never test a divisor or a value themselves.  Every guard a sweep asks
judges a whole column in one call: whether a divisor is refused
(value_divisors) or floored (structural_divisors), or an rs factor
cancelled to roundoff (value_factors).  ds holds one quantity per slot,
and each column of ops one of the operands that formed it; the value
guards keep a slot refused by an earlier guard (None) refused, without
reading its operands, so an engine can chain them.  is_zero and
is_finite judge single values: the input checks, and whether a value an
engine would report is finite.

A field's convert is also the one place that turns input into numbers:
text goes through rational_from_text, and every value it cannot represent
(text that is not a rational number, an int or Fraction outside the
double range for a float field, a NaN or infinite float for the exact
field, an unsupported type) raises ParseError.  convert does not refuse
a non-finite float in the float fields; the breakdown policy above
decides what becomes of it.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import repeat
from typing import Union

# Unit roundoff for double precision.  Relative negligibility threshold:
# a quantity d produced from operands with magnitude `scale` is treated as
# vanishing when |d| <= EPS * scale.
EPS = 2.0 ** -52

# Lower bound for continuation divisors so a quotient cannot overflow to
# inf after a short chain of floored divisions (a floor of 2**-1022 was
# observed to push tables of exactly-degenerate input past the double
# range by depth 3).
FLOOR_MIN = EPS * EPS

# What a field's convert takes besides number text; a counting scalar is a
# float.
Numeric = Union[int, float, Fraction]

# Largest decimal exponent number text may carry: Fraction builds 10**exp
# in full, so an unbounded exponent costs unbounded time and memory.  4300
# is the interpreter's default digit limit for int parsing, which already
# bounds the mantissa and the JSON integer literals.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[-+]?[\d_.]*[eE][-+]?([\d_]+)")


class ParseError(ValueError):
    """Text did not parse as a rational number."""


def rational_from_text(text: str) -> Fraction:
    """Parse an integer, a fraction "p/q", or a finite decimal exactly.

    "4/6" reduces to 2/3, "0.25" becomes 1/4.  A zero denominator, a
    decimal exponent beyond MAX_EXPONENT in magnitude or malformed text
    raises ParseError naming the offending token.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}: {text!r}")
    stripped = text.strip()
    m = _EXPONENT.fullmatch(stripped)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        # Compare the length first: int() refuses over-long digit strings.
        if len(digits) > 5 or int(digits or "0") > MAX_EXPONENT:
            raise ParseError(
                f"exponent beyond {MAX_EXPONENT} in {stripped!r}"
            )
    try:
        return Fraction(stripped)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {stripped!r}") from None
    except ValueError:
        raise ParseError(f"not a rational number: {stripped!r}") from None


@dataclass
class OpCounts:
    """Tally of arithmetic operations; additions and subtractions share one
    counter."""

    additions: int = 0
    multiplications: int = 0
    divisions: int = 0

    @property
    def total(self) -> int:
        return self.additions + self.multiplications + self.divisions

    def as_dict(self) -> dict:
        return asdict(self)


def _refuse(scalar, other):
    raise TypeError(
        f"cannot mix a counting scalar with {type(other).__name__}"
    )


class CountingScalar(float):
    """A double that reports its arithmetic to its field's OpCounts.

    Only + - * / count.  Each computes with float's own operator, so
    results are bit-identical to running the same computation on plain
    floats, and a division by zero raises ZeroDivisionError, uncounted.
    Everything else a float does (negation, abs, comparisons, hashing) is
    free; negation alone keeps the result a counting scalar.  Both
    operands of + - * / must be counting scalars: mixing in a plain
    number, on either side, raises TypeError.  Scalars are built through
    a CountingField, whose own subclass carries its tally as the class
    attribute counts.
    """

    __slots__ = ()
    counts: OpCounts

    def __add__(self, other):
        if not isinstance(other, CountingScalar):
            _refuse(self, other)
        self.counts.additions += 1
        return type(self)(float.__add__(self, other))

    def __sub__(self, other):
        if not isinstance(other, CountingScalar):
            _refuse(self, other)
        self.counts.additions += 1
        return type(self)(float.__sub__(self, other))

    def __mul__(self, other):
        if not isinstance(other, CountingScalar):
            _refuse(self, other)
        self.counts.multiplications += 1
        return type(self)(float.__mul__(self, other))

    def __truediv__(self, other):
        if not isinstance(other, CountingScalar):
            _refuse(self, other)
        # Divided before counting, so a zero divisor raises uncounted.
        quotient = float.__truediv__(self, other)
        self.counts.divisions += 1
        return type(self)(quotient)

    def __neg__(self):
        return type(self)(float.__neg__(self))

    # Reached only with a plain number on the left, where float's own
    # operator would return an uncounted float.
    __radd__ = __rsub__ = __rmul__ = __rtruediv__ = _refuse


class FloatField:
    """Machine double precision.

    Structural divisors (the quotient-difference e-quantities, whose effect
    cancels between numerator tables) are floored rather than refused, so
    the table continues through exactly-degenerate data.  Value-bearing
    divisors and rs factors are refused (None) when negligible next to the
    operands that produced them; a value that is not finite is never
    reported.
    """

    is_finite = staticmethod(math.isfinite)

    def convert(self, v: Numeric) -> float:
        try:
            return float(rational_from_text(v) if isinstance(v, str) else v)
        except OverflowError:
            raise ParseError(f"outside the double range: {v!r}") from None
        except TypeError:
            raise ParseError(
                f"cannot convert {type(v).__name__} to a float"
            ) from None

    def is_zero(self, v) -> bool:
        return v == 0.0

    # Each guard computes its operand scale (the largest |o|, NaN skipped,
    # from 0.0) inline in its own frame and judges a column row by row, as
    # one pass over the rows costs less than a pass per operand column or
    # a call per slot.
    def value_divisors(self, ds, *ops) -> list:
        """The divisors for divisions whose quotients are reported values,
        slot by slot: d itself, or None to signal breakdown where d is
        negligible: zero, or, given operands, at most EPS times the
        largest of their magnitudes.  A None d stays None."""
        if not ops:
            return [None if d == 0.0 else d for d in ds]
        out = []
        for d, row in zip(ds, zip(*ops)):
            if d is None:
                out.append(None)
                continue
            scale = 0.0
            for o in row:
                a = abs(o)
                if a > scale:
                    scale = a
            out.append(None if abs(d) <= EPS * scale else d)
        return out

    value_factors = value_divisors

    def structural_divisors(self, ds, *ops) -> list:
        """Safe divisors for divisions whose quotients only propagate the
        table (never reported directly), slot by slot: d floored away from
        zero, in its own type, to EPS times its operands' scale and at
        least FLOOR_MIN."""
        out = []
        for d, row in zip(ds, zip(*ops) if ops else repeat(())):
            scale = 0.0
            for o in row:
                a = abs(o)
                if a > scale:
                    scale = a
            scaled = EPS * scale
            floor = scaled if scaled > FLOOR_MIN else FLOOR_MIN
            out.append(d if abs(d) >= floor
                       else type(d)(floor if d >= 0.0 else -floor))
        return out


class RationalField:
    """Exact rational arithmetic over fractions.Fraction.

    Every result is normalized (reduced, positive denominator), so equality
    is structural.  Both divisor kinds refuse exact zeros; no rs factor is
    refused and every value is finite.
    """

    def convert(self, v: Numeric) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, str):
            return rational_from_text(v)
        if not isinstance(v, (int, float)):
            raise ParseError(
                f"cannot convert {type(v).__name__} to a rational"
            )
        try:
            return Fraction(v)
        except (OverflowError, ValueError):
            raise ParseError(f"not a finite number: {v!r}") from None

    def is_zero(self, v) -> bool:
        return v == 0

    @staticmethod
    def is_finite(v) -> bool:
        return True

    def value_divisors(self, ds, *ops) -> list:
        return [None if d == 0 else d for d in ds]

    structural_divisors = value_divisors

    def value_factors(self, ds, *ops) -> list:
        return list(ds)


class CountingField(FloatField):
    """FloatField semantics with operation tallying.

    Negligibility, finiteness and floor decisions are inherited from
    FloatField and use float's own abs and comparisons, so they are free;
    only the arithmetic the engine actually performs is counted.  Each
    field owns a fresh OpCounts and its own CountingScalar subclass,
    fld.scalar, whose class attribute counts is that tally: fld.counts
    holds the tally of every scalar built through fld.
    """

    def __init__(self):
        self.counts = OpCounts()
        self.scalar = type(
            "CountingScalar", (CountingScalar,),
            {"__slots__": (), "counts": self.counts},
        )

    def convert(self, v: Numeric) -> CountingScalar:
        return self.scalar(super().convert(v))


def infer_field(values) -> "FloatField | RationalField":
    """Choose a field from sample values: FloatField when any value is a
    float (a counting scalar is one), otherwise exact rationals (ints and
    Fractions).  Counting needs an explicit CountingField."""
    if any(isinstance(v, float) for v in values):
        return FloatField()
    return RationalField()
