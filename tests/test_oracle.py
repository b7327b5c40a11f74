"""Determinantal reference values, checked against hand expansions."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from gtransform.oracle import (
    SingularError,
    direct_solve,
    e_ref,
    f_det,
    hankel_det,
    k_det,
    psi,
    q_ref,
    r_ref,
    s_ref,
)
from gtransform.tables import ArgumentError, SequencePair

HARMONIC = [F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)]


class TestHankel:
    def test_order_zero_is_one(self):
        assert hankel_det([F(7)], 0, 0) == 1
        assert hankel_det([], 3, 0) == 1

    def test_two_by_two_cofactor(self):
        # det [[1, 1/2], [1/2, 1/3]] = 1/3 - 1/4
        assert hankel_det([F(1), F(1, 2), F(1, 3)], 0, 2) == F(1, 12)

    def test_geometric_rows_vanish(self):
        assert hankel_det([F(1), F(2), F(4)], 0, 2) == 0

    def test_shift_parameter(self):
        u = HARMONIC
        # j=1 window: det [[1/2, 1/3], [1/3, 1/4]]
        assert hankel_det(u, 1, 2) == F(1, 8) - F(1, 9)

    def test_missing_indices_rejected(self):
        with pytest.raises(ArgumentError):
            hankel_det([F(1), F(2)], 0, 2)

    def test_large_order_uses_elimination(self):
        # 4x4 crosses the cofactor cutoff; compare against the 3x3 path
        # through a bordered expansion on a matrix with known rank
        rng = random.Random(5)
        u = [F(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(9)]
        d4 = hankel_det(u, 0, 4)
        assert isinstance(d4, F)
        # elimination and cofactor must agree at order 3
        assert hankel_det(u, 0, 3) == hankel_det(u[:7], 0, 3)


class TestKdet:
    def test_low_orders_are_one(self):
        assert k_det([F(3)], 0, 0) == 1
        assert k_det([F(3)], 0, 1) == 1

    def test_two_by_two_with_ones_row(self):
        u0, u1 = F(2, 7), F(5, 3)
        assert k_det([u0, u1], 0, 2) == u1 - u0

    def test_three_by_three(self):
        assert k_det([F(1), F(1, 2), F(1, 3), F(1, 4)], 0, 3) == F(1, 72)


class TestRatios:
    def test_r_init_matches_recursion_seed(self):
        u = HARMONIC
        for j in range(4):
            assert r_ref(u, j, 1) == u[j]

    def test_s_init_is_one(self):
        assert s_ref(HARMONIC, 2, 0) == 1

    def test_s_first_column(self):
        assert s_ref([F(1), F(1, 2), F(1, 3), F(1, 4)], 0, 1) == F(-1, 2)

    def test_e_first_column(self):
        assert e_ref(HARMONIC, 0, 1) == F(1, 6)

    def test_q_second_column(self):
        assert q_ref(HARMONIC, 0, 2) == F(1, 3)

    def test_q_first_column_is_quotient(self):
        u = HARMONIC
        for j in range(3):
            assert q_ref(u, j, 1) == u[j + 1] / u[j]

    def test_singular_denominator_raises(self):
        geo = [F(1), F(2), F(4), F(8), F(16)]
        with pytest.raises(SingularError):
            q_ref(geo, 0, 2)  # H_2 in the denominator vanishes


class TestColumnDeterminants:
    def test_psi_order_zero(self):
        u = HARMONIC
        a = [F(2), F(3), F(5)]
        ones = [F(1)] * 3
        for j in range(3):
            assert psi(a, u, j, 0) == a[j] / u[j]
            assert psi(ones, u, j, 0) == 1 / u[j]

    def test_psi_ratio_two_geometric(self):
        u = [F(5, 6), F(13, 36), F(35, 216)]
        a = [F(2), F(17, 6)]
        ones = [F(1)] * 2
        assert psi(a, u, 0, 1) / psi(ones, u, 0, 1) == F(59, 17)

    def test_f_det_order_zero_is_sample(self):
        b = [F(9), F(8)]
        assert f_det(b, HARMONIC, 1, 0) == F(8)

    def test_zero_g_raises(self):
        geo = [F(1), F(2), F(4), F(8), F(16)]
        ones = [F(1)] * 3
        with pytest.raises(SingularError):
            psi(ones, geo, 0, 2)  # G_3 of a geometric sequence is zero


class TestDirectSolve:
    def test_two_by_two_hand_case(self):
        seq = SequencePair(A=[F(2), F(17, 6)], u=[F(5, 6), F(13, 36)])
        res = direct_solve(seq, 0, 1)
        assert not res.singular
        assert res.value == F(59, 17)
        assert res.alphas == [F(-30, 17)]

    def test_order_zero(self):
        seq = SequencePair(A=[F(4), F(5)], u=[F(1), F(1), F(1)])
        res = direct_solve(seq, 1, 0)
        assert res.value == F(5)
        assert res.alphas == []

    def test_two_geometric_shanks_value(self):
        # partial sums of (1/2)^k + (1/3)^k with u taken as the forward
        # differences; order 2 recovers the limit exactly
        A = [F(2), F(17, 6), F(115, 36), F(725, 216), F(4447, 1296)]
        u = [A[k + 1] - A[k] for k in range(4)]
        res = direct_solve(SequencePair(A=A[:3], u=u), 0, 2)
        assert res.value == F(7, 2)

    def test_back_substitution(self):
        """Non-singular solutions must satisfy every defining equation."""
        rng = random.Random(7)
        checked = 0
        while checked < 12:
            L = 3
            A = [F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(L + 1)]
            u = [F(rng.randint(1, 20), rng.randint(1, 10)) for _ in range(2 * L + 1)]
            seq = SequencePair(A=A, u=u)
            for n in range(L + 1):
                for j in range(L - n + 1):
                    res = direct_solve(seq, j, n)
                    if res.singular:
                        continue
                    for l in range(j, j + n + 1):
                        recon = res.value + sum(
                            res.alphas[k - 1] * u[k + l - 1]
                            for k in range(1, n + 1)
                        )
                        assert recon == A[l]
                    checked += 1

    def test_singular_system_flagged(self):
        # identical u columns force a rank drop
        seq = SequencePair(A=[F(1), F(2), F(3)], u=[F(1), F(1), F(1), F(1), F(1)])
        res = direct_solve(seq, 0, 2)
        assert res.singular

    def test_desk_scale_cap(self):
        L = 9
        A = [F(i + 1) for i in range(L + 1)]
        u = [F(1, i + 2) for i in range(2 * L + 1)]
        with pytest.raises(ArgumentError):
            direct_solve(SequencePair(A=A, u=u), 0, 9)

    def test_rejects_float_input(self):
        seq = SequencePair(A=[1.0, 2.0], u=[0.5, 0.5, 0.5])
        with pytest.raises(ArgumentError):
            direct_solve(seq, 0, 1)

    def test_psi_ratio_agrees_with_solver(self):
        rng = random.Random(31)
        ones = [F(1)] * 4
        agreements = 0
        while agreements < 8:
            A = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)]
            u = [F(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(7)]
            seq = SequencePair(A=A, u=u)
            for n in (1, 2):
                res = direct_solve(seq, 0, n)
                try:
                    ratio = psi(A, u, 0, n) / psi(ones, u, 0, n)
                except SingularError:
                    continue
                if res.singular:
                    continue
                assert ratio == res.value
                agreements += 1
