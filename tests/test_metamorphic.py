"""Metamorphic properties of the defining system, checked bit for bit.

Entry (j,n) of fsqd, fsqd_diag and rs solves

  A_l = A_n^(j) + sum_{k=1..n} alpha_k u_{k+l-1},  l = j..j+n,

and eps's entry (j,n) is eps[j][2n] of the raw sequence E_j..E_{j+2n}.
Each property below follows from that form and needs no oracle, only a
second run:
- window: extending A and u (for eps, E) leaves every entry of the
  smaller table unchanged;
- shift: entry (j,n) of (A, u) is entry (0,n) of
  (A[j:], u[j:j+2(L-j)+1]), and for eps of E[j:];
- scale: u -> c u leaves every entry unchanged and A -> c' A scales every
  valid one by c' (eps: E -> c E scales it by c); in exact mode for any
  nonzero c and c', in float mode for powers of two inside the domain
  _DomainWatch states;
- affine, in exact mode: A_l -> a A_l + b + c u_{l+k-1}, k >= 1, maps
  every valid entry (j,n) with n >= k to a A(j,n) + b, the added column
  being absorbed by alpha_k (eps: E -> a E + b, a nonzero, maps every
  valid entry to a E(j,n) + b).

Statuses are part of every property, and every property runs in
FloatField, CountingField and RationalField (exact draws only).  The
draws include degenerate input: repeated small integers, geometric and
constant u, short u, and, in float mode, subnormals, values near the
ends of the double range, infinities and NaN.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtransform.engines import accelerate, run_epsilon
from gtransform.scalars import (
    CountingField,
    CountingScalar,
    FloatField,
    RationalField,
)
from gtransform.tables import EntryStatus

F = Fraction
PAIR_METHODS = ("fsqd", "fsqd_diag", "rs")
FLOAT_FIELDS = (FloatField, CountingField)

PQ = st.builds(F, st.integers(-99, 99).filter(bool), st.integers(1, 99))
SMALL = st.sampled_from((F(-2), F(-1), F(1), F(2)))
RATIOS = st.sampled_from((F(1, 2), F(-2, 3), F(2), F(-3)))
# Doubles a float sweep can meet at the edges: subnormals, values near
# the ends of the double range, infinities and NaN.
EXTREME = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).filter(bool),
    st.sampled_from((5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                     -1e300, 1.7976931348623157e308, math.inf, -math.inf,
                     math.nan)),
)


@st.composite
def _values(draw, size: int, kind: str, zero: bool):
    """size values of one kind; zero lets the list hold zeros."""
    if kind == "geometric":
        r = draw(RATIOS)
        return [r ** k for k in range(size)]
    if kind == "partial_sums":
        r = draw(RATIOS)
        return [sum(r ** i for i in range(k + 1)) for k in range(size)]
    if kind == "constant":
        return [draw(SMALL)] * size
    value = {"pq": PQ, "small": SMALL, "extreme": EXTREME}[kind]
    if zero:
        value = st.one_of(value, st.sampled_from(
            (0.0, -0.0) if kind == "extreme" else (F(0),)))
    return draw(st.lists(value, min_size=size, max_size=size))


@st.composite
def _case(draw, L: int):
    """(A, u, E) at L: A of L+1 values, u of 2L+1 (or, one draw in four,
    0..2L), E of 1..2L+2, each of a drawn kind.  Only the "extreme" kind
    holds floats; every other value is a Fraction."""
    extreme = draw(st.integers(0, 4)) == 0

    def kind(*kinds):
        return "extreme" if extreme else draw(st.sampled_from(kinds))

    A = draw(_values(L + 1, kind("pq", "small", "constant"), True))
    u = draw(_values(2 * L + 1, kind("pq", "small", "geometric", "constant"),
                     False))
    if draw(st.integers(0, 3)) == 0:
        u = u[:draw(st.integers(0, 2 * L))]
    E = draw(_values(draw(st.integers(1, 2 * L + 2)),
                     kind("pq", "small", "partial_sums", "constant"), True))
    return A, u, E


def _fields(values):
    """The fields a draw runs in: RationalField only for exact draws."""
    exact = all(isinstance(x, Fraction) for x in values)
    return FLOAT_FIELDS + (RationalField,) if exact else FLOAT_FIELDS


def _columns(method, field, A, u=()):
    if method == "eps":
        return run_epsilon(A, field=field).columns
    return accelerate(method, A, u, field=field).columns


def _bits(slot):
    """A slot as compared: its status, a double's bits or a Fraction."""
    return slot.hex() if isinstance(slot, float) else slot


def _runs(A, u, E):
    """(method, field class, A or E, u) for every method and field."""
    for make in _fields(A + u):
        for method in PAIR_METHODS:
            yield method, make, A, u
    for make in _fields(E):
        yield "eps", make, E, ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 3), st.data())
def test_window(L, extra, data):
    """Every entry of the table at L equals the same entry of the table
    of the extended input, bit for bit, statuses included."""
    A, u, E = data.draw(_case(L + extra))
    cut = data.draw(st.integers(1, len(E)))
    for method, make, X, v in _runs(A, u, E):
        small = (X[:cut], ()) if method == "eps" else (X[:L + 1],
                                                       v[:2 * L + 1])
        big = _columns(method, make(), X, v)
        for n, col in enumerate(_columns(method, make(), *small)):
            for j, slot in enumerate(col):
                assert _bits(slot) == _bits(big[n][j]), (
                    method, make.__name__, j, n)


# fsqd_diag computes only the diagonal, which is fsqd's: entry (j,n) of
# fsqd is entry (0,n) of fsqd_diag on the shifted input.
SHIFTED_FROM = {"fsqd_diag": "fsqd"}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_shift(L, data):
    """Entry (j,n) equals entry (0,n) of the run on the input shifted by
    j, bit for bit, statuses included."""
    A, u, E = data.draw(_case(L))
    for method, make, X, v in _runs(A, u, E):
        full = _columns(SHIFTED_FROM.get(method, method), make(), X, v)
        for j in range(1, len(full[0])):
            sub = (X[j:], ()) if method == "eps" else (
                X[j:], v[j:j + 2 * (L - j) + 1])
            for n, col in enumerate(_columns(method, make(), *sub)):
                assert _bits(col[0]) == _bits(full[n][j]), (
                    method, make.__name__, j, n)


NONZERO = st.one_of(PQ, st.sampled_from((F(-1), F(1, 1024), F(10 ** 9))))


def _exact_cases(L):
    return _case(L).filter(lambda c: len(_fields(c[0] + c[1] + c[2])) == 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(_exact_cases), NONZERO, NONZERO, NONZERO)
def test_exact_scale(case, c_u, c_A, c_E):
    """In exact mode u -> c_u u changes no entry and A -> c_A A scales
    every valid entry by c_A; eps's E -> c_E E scales it by c_E.
    Statuses do not move."""
    A, u, E = case
    field = RationalField()
    for method, X, v, c, X2, v2 in [
        *((m, A, u, c_A, [c_A * a for a in A], [c_u * x for x in u])
          for m in PAIR_METHODS),
        ("eps", E, (), c_E, [c_E * e for e in E], ()),
    ]:
        base = _columns(method, field, X, v)
        scaled = _columns(method, field, X2, v2)
        for n, (col, col2) in enumerate(zip(base, scaled, strict=True)):
            for j, (x, y) in enumerate(zip(col, col2, strict=True)):
                want = x if isinstance(x, EntryStatus) else c * x
                assert y == want, (method, j, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(_exact_cases), st.data())
def test_exact_affine(case, data):
    """In exact mode A_l -> a A_l + b + c u_{l+k-1} maps every valid entry
    (j,n) with n >= k to a A(j,n) + b.  Where u is too short to hold
    u_{l+k-1} a filler stands in: an entry with n >= k that reads that A_l
    needs u past its end, so it is not computed either way.  Statuses
    depend on u alone, so none moves at any n; eps's E -> a E + b, a
    nonzero, maps every valid entry and moves no status."""
    A, u, E = case
    L = len(A) - 1
    a, b, c = (data.draw(st.one_of(PQ, st.just(F(0)))) for _ in range(3))
    k = data.draw(st.integers(1, L + 1))
    filler = data.draw(PQ)
    col = [u[i] if i < len(u) else filler for i in range(k - 1, L + k)]
    A2 = [a * x + b + c * y for x, y in zip(A, col)]
    a_E = data.draw(NONZERO)
    field = RationalField()
    for method, X, v, X2, first, scale in [
        *((m, A, u, A2, k, a) for m in PAIR_METHODS),
        ("eps", E, (), [a_E * e + b for e in E], 0, a_E),
    ]:
        base = _columns(method, field, X, v)
        mapped = _columns(method, field, X2, v)
        for n, (col, col2) in enumerate(zip(base, mapped, strict=True)):
            for j, (x, y) in enumerate(zip(col, col2, strict=True)):
                if isinstance(x, EntryStatus):
                    assert y is x, (method, j, n)
                elif n >= first:
                    assert y == scale * x + b, (method, j, n)
                else:
                    assert not isinstance(y, EntryStatus), (method, j, n)


# The smallest magnitude v for which EPS * v is a normal double: every
# guard threshold formed from such a value is then exact.
TINY = 2.0 ** -969


class _DomainWatch(CountingField):
    """A counting field that notes whether a run stays inside the domain
    where scaling A, u or E by a power of two commutes with every float
    rule: each input and each + - * / result is zero or of magnitude in
    [TINY, inf), and no product or quotient underflows to zero.  Every
    guard threshold is then EPS times a normal value, exact under the
    scaling.  FLOOR_MIN, the qd floor's one absolute term, does not bound
    the domain: the qd sweep reads u only through u_{j+1}/u_j, which the
    scaling leaves bit for bit, so both runs floor the same divisors to
    the same values.  inside is False once a run leaves the domain."""

    def __init__(self):
        super().__init__()
        self.inside = True

        def check(v, *operands):
            if v != 0 and not TINY <= abs(v) < math.inf or (
                    v == 0 and operands and all(operands)):
                self.inside = False
            return v

        def watched(op, product):
            return lambda x, y: check(op(x, y), *((x, y) if product else ()))

        self.check = check
        self.scalar = type("WatchedScalar", (self.scalar,), {
            "__slots__": (),
            "__add__": watched(CountingScalar.__add__, False),
            "__sub__": watched(CountingScalar.__sub__, False),
            "__mul__": watched(CountingScalar.__mul__, True),
            "__truediv__": watched(CountingScalar.__truediv__, True),
        })

    def convert(self, v):
        return self.check(super().convert(v))


def _inside(method, X, v):
    watch = _DomainWatch()
    _columns(method, watch, X, v)
    return watch.inside


POWERS = st.one_of(st.integers(-64, 64), st.integers(-1074, 1023))


def _scaled(xs, k):
    return [float(x) * 2.0 ** k for x in xs]


# A geometric u with ratio 1e-20: every e is zero, and EPS times its
# summands (about 2e-36) is below FLOOR_MIN, so each qd divisor is
# floored at FLOOR_MIN, in both runs alike.
@example(([1.0, 1.5, 1.75], [1e-20 ** k for k in range(5)], [1.0, 2.0]),
         7, -5, 3)
# u_2 * 2^-1070 = 2^-1075 rounds to 0.0: the scaled u holds a zero its
# input check refuses, so that run lies outside the domain.
@example(([F(-2), F(-2)], [F(1), F(1), F(1, 32)], [F(1)]), -1070, 0, 0)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(_case), POWERS, POWERS, POWERS)
def test_float_power_of_two_scale(case, k_u, k_A, k_E):
    """In float and counting mode, u -> 2^k_u u changes no entry and
    A -> 2^k_A A scales every valid one by 2^k_A, bit for bit and with
    statuses unchanged, wherever both runs stay inside _DomainWatch's
    domain; eps's E -> 2^k_E E likewise scales by 2^k_E.  A scaled input
    that underflowed to zero from a nonzero value is outside it."""
    A, u, E = case
    runs = [(m, _scaled(A, 0), _scaled(u, 0), _scaled(A, k_A),
             _scaled(u, k_u), k_A) for m in PAIR_METHODS]
    runs.append(("eps", _scaled(E, 0), (), _scaled(E, k_E), (), k_E))
    for method, X, v, X2, v2, k in runs:
        if any(x != 0 and x2 == 0
               for x, x2 in zip([*X, *v], [*X2, *v2], strict=True)):
            continue
        if not (_inside(method, X, v) and _inside(method, X2, v2)):
            continue
        for make in FLOAT_FIELDS:
            base = _columns(method, make(), X, v)
            scaled = _columns(method, make(), X2, v2)
            for n, (col, col2) in enumerate(zip(base, scaled, strict=True)):
                for j, (x, y) in enumerate(zip(col, col2, strict=True)):
                    want = x if isinstance(x, EntryStatus) else (
                        float(x) * 2.0 ** k).hex()
                    assert _bits(y) == want, (method, make.__name__, j, n)


def test_float_scale_domain():
    """_DomainWatch's domain is neither empty nor everything: ordinary
    input lies inside it, as does a u whose qd divisors are floored at
    FLOOR_MIN, while a subnormal input and a result past the double range
    each leave it."""
    A, u = [1.0, 1.5, 1.75], [1.0, 0.5, 0.25, 0.2, 0.1]
    assert all(_inside(m, A, u) for m in PAIR_METHODS)
    assert _inside("eps", [1.0, 1.5, 1.75, 1.8], ())
    assert not _inside("fsqd", [5e-324, 1.0, 2.0], u)
    assert not _inside("fsqd", [1e300, 1.0, 2.0], [1e-300, *u[1:]])
    assert _inside("fsqd", A, [1e-20 ** k for k in range(5)])
