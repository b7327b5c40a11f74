"""engines.accelerate, the one way to run a method; bench_on's checks of
L and of the length of A; and column 0 under the finite rule."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from gtransform.engines import (
    METHODS,
    accelerate,
    run_epsilon,
    run_fs_qd,
    run_rs,
    shanks_prepare,
)
from gtransform.opbench import bench_on
from gtransform.scalars import CountingField, FloatField, RationalField
from gtransform.tables import ArgumentError, EntryStatus, SequencePair

FIELDS = {"float": FloatField, "rational": RationalField,
          "counting": CountingField}

_rng = random.Random(15)
L = 3
A = [F(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(L + 1)]
U = [F(_rng.randint(1, 9), _rng.randint(1, 6)) for _ in range(2 * L + 1)]
# 2L+1 partial sums of positive terms: no difference is zero.
E = [sum(F(1, k * k + 1) for k in range(i + 1)) for i in range(2 * L + 1)]


def _direct(method, seq, fld):
    if method == "rs":
        return run_rs(seq, field=fld)[1]
    return run_fs_qd(seq, diagonal_only=method == "fsqd_diag", field=fld)


def _run(call, make):
    """The table and, under counting, the tally of one call on a fresh
    field."""
    fld = make()
    table = call(fld)
    counts = fld.counts if isinstance(fld, CountingField) else None
    return table.method, list(table.slots()), counts


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("method", METHODS)
def test_accelerate_is_the_direct_engine_call(method, name):
    make = FIELDS[name]
    if method == "eps":
        want = _run(lambda f: run_epsilon(E, field=f), make)
        assert _run(lambda f: accelerate("eps", E, field=f), make) == want
        # eps ignores u.
        assert _run(lambda f: accelerate("eps", E, U, field=f), make) == want
        return
    want = _run(lambda f: _direct(method, SequencePair(A, U), f), make)
    assert _run(lambda f: accelerate(method, A, U, field=f), make) == want
    # Without u the method runs on the Shanks pair of the raw sequence.
    shanks = _run(
        lambda f: _direct(method, shanks_prepare(E, field=f), f), make)
    assert _run(lambda f: accelerate(method, E, field=f), make) == shanks


def test_accelerate_refuses_an_unknown_method():
    with pytest.raises(ArgumentError, match="unknown method 'gauss'"):
        accelerate("gauss", A, U)


@pytest.mark.parametrize("method", ["fsqd", "fsqd_diag", "rs"])
def test_bench_on_still_checks_the_length_of_A(method):
    with pytest.raises(ArgumentError, match="A must hold L\\+1 = 5 values"):
        bench_on(method, [1.0] * (L + 1), [1.0] * (2 * L + 1), L + 1)


@pytest.mark.parametrize("method", METHODS)
def test_bench_on_refuses_L_below_1(method):
    """Normalizing by L^2 at L = 0 would divide by zero."""
    with pytest.raises(ArgumentError, match="L must be at least 1, got 0"):
        bench_on(method, [1.0], [2.0] if method != "eps" else None, 0)


@pytest.mark.parametrize("method", ["fsqd", "fsqd_diag", "rs"])
def test_bench_on_shanks_input_holds_2L_plus_1_or_2L_plus_2_terms(method):
    """With u None the engine runs at depth (len(A)-1)//2, so A must hold
    2L+1 or 2L+2 terms for the report's L to be the depth it ran at."""
    terms = [1.0 + 1.0 / (k + 1) for k in range(2 * 20 + 2)]
    with pytest.raises(ArgumentError, match="41 or 42 values, got 21"):
        bench_on(method, terms[:21], None, 20)
    for size in (41, 42):
        report = bench_on(method, terms[:size], None, 20)
        assert report.L == 20
    assert report.normalized["additions"] > 2.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("method", ["fsqd", "rs", "eps"])
def test_column_zero_reports_no_value_that_is_not_finite(method, bad):
    """A non-finite input value is a breakdown in column 0, as in every
    other column, so best() never returns it."""
    table = accelerate(method, [bad, 1.0, 2.0], [1.0, 0.7, 0.4, 0.3, 0.2])
    assert table.get(0, 0).status is EntryStatus.BREAKDOWN
    for _, entry in table.items():
        assert not entry.valid or math.isfinite(entry.value)
    best = table.best()
    assert best is None or math.isfinite(best[1])
