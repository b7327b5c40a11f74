"""The fraction-free exact FS path against the qd sweep it stands in for.

Over exact rationals run_fs_qd first tries the integer path
(_fraction_free_columns).  It must give the sweep's table exactly, values
and statuses, wherever it returns columns, and hand back to the sweep
exactly when u is short or a Hankel determinant the sweep divides by is
zero.  Its integer determinants, and the M/N arrays the sweep carries,
are checked against the oracle's determinant definitions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from gtransform import engines
from gtransform.engines import run_fs_qd, shanks_prepare
from gtransform.oracle import SingularError, f_det, hankel_det, psi
from gtransform.scalars import RationalField
from gtransform.tables import EntryStatus, InitializationError, SequencePair

FIELD = RationalField()
KINDS = ("pq", "geometric", "two_geometric", "small_int", "shanks", "short",
         "zero_f1")


def _pq(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                    rng.randint(1, 99))


def _case(kind, L, rng):
    """(A, u, L) of one kind, as Fractions; only "short" has fewer than
    2L+1 values of u."""
    m = 2 * L + 1
    A = [_pq(rng) for _ in range(L + 1)]
    if kind == "pq":
        u = [_pq(rng) for _ in range(m)]
    elif kind == "geometric":
        u = [Fraction(-2, 3) ** k for k in range(m)]
    elif kind == "two_geometric":
        u = [Fraction(1, 2) ** k + Fraction(-1, 3) ** k for k in range(m)]
    elif kind == "small_int":
        # Few distinct values: zero Hankel determinants are common.
        u = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(m)]
    elif kind == "shanks":
        # The geometric pad makes H_2^(2L-2) zero; the sweep never
        # divides by it.
        pair = shanks_prepare([_pq(rng) for _ in range(m)], FIELD)
        return pair.A, pair.u, pair.L
    elif kind == "short":
        u = [_pq(rng) for _ in range(rng.randrange(1, m))]
    elif kind == "zero_f1":
        # u_{j+1} = u_j makes f_1^(j)(1) = u_{j+1} - u_j zero.
        u = [_pq(rng) for _ in range(m)]
        for j in rng.sample(range(m - 1), min(2, m - 1)):
            u[j + 1] = u[j]
    else:
        raise ValueError(kind)
    return A, u, L


def _corpus(count, max_L, seed):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        try:
            out.append((kind, *_case(kind, rng.randint(1, max_L), rng)))
        except InitializationError:
            pass  # shanks_prepare refused a zero difference
    return out


def _sweep(monkeypatch, seq, diagonal_only):
    """run_fs_qd with the integer path switched off."""
    with monkeypatch.context() as m:
        m.setattr(engines, "_fraction_free_columns", lambda *args: None)
        return run_fs_qd(seq, diagonal_only, FIELD)


def _divided_hankel_is_zero(u, L):
    """Whether a Hankel determinant the sweep divides by is zero: some
    H_k^(j) whose window u_j..u_{j+2k-2} ends before u_2L, or H_{L+1}^(0)."""
    return hankel_det(u, 0, L + 1) == 0 or any(
        hankel_det(u, j, k) == 0
        for k in range(1, L + 1)
        for j in range(2 * L - 2 * k + 2)
    )


def _slots(table):
    return [[(type(s), s) for s in col] for col in table.columns]


def test_integer_path_equals_the_sweep(monkeypatch):
    """Equal values and statuses wherever the integer path answers, and a
    fallback exactly where the rule says so, on every kind of input."""
    taken = {kind: 0 for kind in KINDS}
    fell_back = {kind: 0 for kind in KINDS}
    zero_f1_breakdowns = 0
    for kind, A, u, L in _corpus(280, 7, seed=2017):
        seq = SequencePair(A=A, u=u, L=L)
        expect_fallback = len(u) < 2 * L + 1 or _divided_hankel_is_zero(u, L)
        for diagonal_only in (False, True):
            table = run_fs_qd(seq, diagonal_only, FIELD)
            assert _slots(table) == _slots(
                _sweep(monkeypatch, seq, diagonal_only)), (kind, A, u, L)
            columns = engines._fraction_free_columns(
                A, u, L, FIELD, diagonal_only)
            assert (columns is None) == expect_fallback, (kind, A, u, L)
            if columns is None:
                fell_back[kind] += 1
                continue
            taken[kind] += 1
            zero_f1_breakdowns += sum(
                s is EntryStatus.BREAKDOWN for col in columns for s in col)
    # Not vacuous: of the 80 runs of each kind, the integer path answers
    # on the generic kinds and on Shanks-padded input, every geometric and
    # short run falls back, small integers go both ways, and zero f(1)
    # breakdowns occur on the integer path.
    for kind, least in (("pq", 60), ("shanks", 60), ("zero_f1", 60),
                        ("small_int", 20)):
        assert taken[kind] >= least, (kind, taken)
    for kind, least in (("geometric", 80), ("short", 80),
                        ("two_geometric", 40), ("small_int", 30)):
        assert fell_back[kind] >= least, (kind, fell_back)
    assert zero_f1_breakdowns >= 50


def test_shanks_pad_zero_is_not_a_fallback():
    A, u, L = _case("shanks", 4, random.Random(5))
    assert hankel_det(u, 2 * L - 2, 2) == 0
    assert engines._fraction_free_columns(A, u, L, FIELD, False) is not None


@pytest.mark.parametrize("L", range(0, 8))
def test_sylvester_columns_match_the_determinant_definitions(L):
    """G_n[j] = D_u^n H_n^(j) and f_n^(j)(b) = D_u^n D_b f_det(b, j, n),
    for b = A and b = 1, on every column the integer sweep yields."""
    rng = random.Random(100 + L)
    for _ in range(3):
        A = [_pq(rng) for _ in range(L + 1)]
        u = [_pq(rng) for _ in range(2 * L + 1)]
        d_u = math.lcm(*(x.denominator for x in u))
        d_A = math.lcm(*(x.denominator for x in A))
        steps = list(engines._sylvester_sweep(
            [int(x * d_u) for x in u],
            ([int(a * d_A) for a in A], [1] * (L + 1)), L, FIELD))
        assert len(steps) == L and None not in steps
        ones = [1] * (L + 1)
        for n, (G, (fA, f1)) in enumerate(steps, start=1):
            assert len(G) == 2 * L + 3 - 2 * n
            assert len(fA) == len(f1) == L - n + 1
            for j, value in enumerate(G):
                assert value == hankel_det(u, j, n) * d_u ** n, (n, j)
            for j in range(L - n + 1):
                assert fA[j] == f_det(A, u, j, n) * d_u ** n * d_A
                assert f1[j] == f_det(ones, u, j, n) * d_u ** n


def test_fs_sweep_columns_are_signed_psi():
    """M_n[j] = (-1)^n psi(A, j, n) and N_n[j] = (-1)^n psi(1, j, n) on
    every valid slot the FS sweep yields; a slot whose psi has a zero
    Hankel denominator is skipped."""
    rng = random.Random(3)
    compared = 0
    for _ in range(60):
        L = rng.randint(1, 6)
        A = [_pq(rng) for _ in range(L + 1)]
        u = [_pq(rng) for _ in range(2 * L + 1)]
        ones = [1] * (L + 1)
        columns = list(engines._fs_sweep(A, u, L, FIELD))
        assert len(columns) == L + 1
        for n, (M, N, _) in enumerate(columns):
            assert len(M) == len(N) == L - n + 1
            for j, (m, nv) in enumerate(zip(M, N)):
                if isinstance(m, EntryStatus):
                    assert nv is m
                    continue
                try:
                    want_m = (-1) ** n * psi(A, u, j, n)
                    want_n = (-1) ** n * psi(ones, u, j, n)
                except SingularError:
                    continue
                assert (m, nv) == (want_m, want_n), (A, u, j, n)
                compared += 1
    assert compared > 0
