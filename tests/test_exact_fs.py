"""The fraction-free exact FS path, refereed by the linear system.

Over exact rationals run_fs_qd computes its table on integer determinants
alone (_fraction_free_columns).  An entry breaks down where f_n^(j)(1) =
0, the determinant of its own system, or where a Sylvester divisor in its
cone is zero; otherwise it is the system's solution, which direct_solve
computes by elimination.  Its integer determinants, and the M/N arrays
the Fraction qd sweep carries, are checked against the oracle's
determinant definitions.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from gtransform import engines
from gtransform.engines import run_fs_qd, run_rs, shanks_prepare
from gtransform.oracle import (
    SingularError,
    direct_solve,
    f_det,
    hankel_det,
    psi,
)
from gtransform.scalars import RationalField
from gtransform.tables import EntryStatus, InitializationError, SequencePair

FIELD = RationalField()
BREAKDOWN, NOT_COMPUTED = EntryStatus.BREAKDOWN, EntryStatus.NOT_COMPUTED
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


def _computed(L, u, n, diagonal_only):
    """How many slots of column n the table computes: entry (j,n) needs
    u_{j+2n}, and fsqd_diag computes only j = 0."""
    width = max(0, min(L + 1 - n, len(u) - 2 * n))
    return min(width, 1) if diagonal_only else width


def test_valid_entries_equal_direct_solve():
    """Every valid fsqd and fsqd_diag entry is direct_solve's value, every
    computed entry whose system is singular is breakdown, and a slot is
    not computed exactly where its u is missing or, under fsqd_diag, off
    the diagonal: on every kind of input, short and geometric included."""
    tally = {"valid": 0, "singular": 0, "cone": 0}
    valid_by_kind = {kind: 0 for kind in KINDS}
    for kind, A, u, L in _corpus(280, 7, seed=2017):
        seq = SequencePair(A=A, u=u, L=L)
        solved = {}
        for diagonal_only in (False, True):
            table = run_fs_qd(seq, diagonal_only, FIELD)
            assert table.columns[0] == A
            for n, col in enumerate(table.columns[1:], start=1):
                width = _computed(L, u, n, diagonal_only)
                assert col[width:] == [NOT_COMPUTED] * (len(col) - width)
                for j, slot in enumerate(col[:width]):
                    if (j, n) not in solved:
                        solved[j, n] = direct_solve(seq, j, n)
                    ref = solved[j, n]
                    where = (kind, A, u, L, j, n, diagonal_only)
                    if slot is BREAKDOWN:
                        tally["singular" if ref.singular else "cone"] += 1
                        continue
                    assert not ref.singular and slot == ref.value, where
                    tally["valid"] += 1
                    valid_by_kind[kind] += 1
    # Not vacuous: each kind yields valid entries past column 0, and
    # breakdowns occur both on singular systems and on nonsingular ones
    # behind a zero Sylvester divisor.
    assert all(count > 0 for count in valid_by_kind.values()), valid_by_kind
    assert tally["valid"] > 3000 and tally["singular"] > 300, tally
    assert tally["cone"] > 20, tally


def test_exact_fsqd_never_runs_the_qd_sweep(monkeypatch):
    """Over exact rationals run_fs_qd takes the integer path alone: the
    Fraction qd sweep is never entered, on any kind of input."""
    def refuse(*args):
        raise AssertionError("the qd sweep ran")

    monkeypatch.setattr(engines, "_qd_sweep", refuse)
    kinds = set()
    for kind, A, u, L in _corpus(140, 7, seed=99):
        for diagonal_only in (False, True):
            table = run_fs_qd(SequencePair(A=A, u=u, L=L), diagonal_only,
                              FIELD)
            assert len(table.columns) == L + 1
        kinds.add(kind)
    assert kinds == set(KINDS)


def test_entries_behind_a_zero_hankel_determinant_stay_valid():
    """H_2^(0) = u_0 u_2 - u_1^2 = 0 on u = (1, 2, 4, 5, 7), but no entry
    divides by it: fsqd and fsqd_diag keep every entry, equal to
    direct_solve, and exact rs agrees."""
    seq = SequencePair(A=[Fraction(x) for x in (3, 1, 4)],
                       u=[Fraction(x) for x in (1, 2, 4, 5, 7)])
    assert hankel_det(seq.u, 0, 2) == 0
    want = {(0, 1): 5, (1, 1): -2, (0, 2): 5}
    full = run_fs_qd(seq, field=FIELD)
    diag = run_fs_qd(seq, diagonal_only=True, field=FIELD)
    rs = run_rs(seq, field=FIELD)[1]
    for (j, n), value in want.items():
        assert direct_solve(seq, j, n).value == value
        assert full.columns[n][j] == value
        assert rs.columns[n][j] == value
        if j == 0:
            assert diag.columns[n][j] == value


@pytest.mark.parametrize("L", range(0, 8))
def test_sylvester_columns_match_the_determinant_definitions(L):
    """f_n^(j)(b) = D_u^n D_b f_det(b, j, n), for b = A and b = 1, on
    every column the integer sweep yields; no divisor is zero on these
    draws, so every column is clean."""
    rng = random.Random(100 + L)
    for _ in range(3):
        A = [_pq(rng) for _ in range(L + 1)]
        u = [_pq(rng) for _ in range(2 * L + 1)]
        d_u = math.lcm(*(x.denominator for x in u))
        d_A = math.lcm(*(x.denominator for x in A))
        steps = list(engines._sylvester_sweep(
            [int(x * d_u) for x in u],
            ([int(a * d_A) for a in A], [1] * (L + 1)), L, FIELD))
        assert len(steps) == L
        ones = [1] * (L + 1)
        for n, ((fA, f1), clean) in enumerate(steps, start=1):
            assert clean
            assert len(fA) == len(f1) == L - n + 1
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
