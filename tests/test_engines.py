"""Recursive engines: qd table, FS/qd, rs, epsilon, sequence preparation.

Exact values come from the determinantal reference module or from hand
evaluation of the recursions; both are recorded inline.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtransform.crosscheck import (
    _Degenerate,
    check_epsilon_identity_case,
    check_equivalence_case,
    random_pair,
)
from gtransform.engines import (
    build_qd_table,
    run_epsilon,
    run_fs_qd,
    run_rs,
    shanks_prepare,
)
from gtransform.oracle import direct_solve, e_ref, q_ref, r_ref, s_ref
from gtransform.scalars import EPS, CountingField, FloatField, RationalField
from gtransform.tables import (
    ArgumentError,
    EntryStatus,
    InitializationError,
    SequencePair,
)

RAT = RationalField()
FLT = FloatField()

HARMONIC = [F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)]
GEOMETRIC = [F(1), F(2), F(4), F(8), F(16)]

# the two-geometric worked example: partial sums a_k of (1/2)^k + (1/3)^k
A_TWOGEO = [F(2), F(17, 6), F(115, 36), F(725, 216), F(4447, 1296)]
U_TWOGEO = [A_TWOGEO[k + 1] - A_TWOGEO[k] for k in range(4)]


class TestQdTable:
    def test_harmonic_values(self):
        t = build_qd_table(HARMONIC, 2, field=RAT)
        assert t.q.get(0, 1).value == F(1, 2)
        assert t.e.get(0, 1).value == F(1, 6)
        assert t.q.get(0, 2).value == F(1, 3)

    def test_geometric_forces_breakdown(self):
        t = build_qd_table(GEOMETRIC, 2, field=RAT)
        for j in range(4):
            assert t.q.get(j, 1).value == F(2)
        for j in range(3):
            e = t.e.get(j, 1)
            assert e.status is EntryStatus.VALID
            assert e.value == 0
        assert t.q.get(0, 2).status is EntryStatus.BREAKDOWN

    def test_e_column_zero(self):
        t = build_qd_table(HARMONIC, 2, field=RAT)
        for j in range(5):
            entry = t.e.get(j, 0)
            assert entry.status is EntryStatus.VALID
            assert entry.value == 0

    def test_index_bounds(self):
        L = 2
        t = build_qd_table(HARMONIC, L, field=RAT)
        assert sorted(k for k, _ in t.q.items()) == sorted(
            (j, n) for n in range(1, L + 1) for j in range(2 * (L - n) + 2)
        )
        assert sorted(k for k, _ in t.e.items()) == sorted(
            (j, n) for n in range(L + 1) for j in range(2 * (L - n) + 1)
        )

    def test_overlong_u_rejected(self):
        with pytest.raises(ArgumentError):
            build_qd_table([F(1)] * 7, 2, field=RAT)

    def test_short_u_leaves_not_computed(self):
        t = build_qd_table(HARMONIC[:4], 2, field=RAT)
        assert t.q.get(3, 1).status is EntryStatus.NOT_COMPUTED
        assert t.q.get(0, 2).status is EntryStatus.VALID

    def test_matches_determinant_ratios(self):
        rng = random.Random(17)
        u = [F(rng.randint(1, 25), rng.randint(1, 9)) for _ in range(9)]
        L = 4
        t = build_qd_table(u, L, field=RAT)
        for (j, n), entry in t.q.items():
            if entry.status is EntryStatus.VALID:
                assert entry.value == q_ref(u, j, n)
        for (j, n), entry in t.e.items():
            if entry.status is not EntryStatus.VALID:
                continue
            if n == 0:
                assert entry.value == 0
            else:
                assert entry.value == e_ref(u, j, n)


class TestFsQd:
    def test_two_geometric_values(self):
        # the tail entry only feeds the deepest qd column; any value that
        # avoids an exact rank collapse there leaves the output unchanged
        a5 = A_TWOGEO[4] + F(1, 32) + F(1, 243)
        seq = SequencePair(A=A_TWOGEO[:3], u=U_TWOGEO + [a5])
        t = run_fs_qd(seq, field=RAT)
        assert t.value(0, 1) == F(59, 17)
        assert t.value(0, 2) == F(7, 2)

    def test_first_column_is_input(self):
        rng = random.Random(3)
        A = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
        u = [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(7)]
        t = run_fs_qd(SequencePair(A=A, u=u), field=RAT)
        for j in range(4):
            assert t.value(j, 0) == A[j]

    def test_exact_geometric_breaks_down(self):
        """On a geometric u every system of order 2 or more is singular,
        so (0,2) breaks down; the order-1 systems are not, and (0,1) and
        (1,1) hold the limit 2."""
        seq = SequencePair(
            A=[F(1), F(3, 2), F(7, 4)],
            u=[F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)],
        )
        t = run_fs_qd(seq, field=RAT)
        assert t.value(0, 1) == t.value(1, 1) == 2
        assert direct_solve(seq, 0, 2).singular
        assert t.get(0, 2).status is EntryStatus.BREAKDOWN
        with pytest.raises(ArgumentError, match=r"\(0,2\) is breakdown"):
            t.value(0, 2)

    def test_float_geometric_continues_to_limit(self):
        """In float arithmetic the degenerate divisor is replaced by a
        signed floor; the quotient of the two inner tables still cancels
        it, so the geometric case lands on the limit instead of dying.
        """
        seq = SequencePair(
            A=[1.0, 1.5, 1.75], u=[0.5, 0.25, 0.125, 0.0625, 0.03125]
        )
        t = run_fs_qd(seq, field=FLT)
        assert t.value(0, 1) == pytest.approx(2.0, abs=1e-12)
        assert t.value(0, 2) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_only_masks_off_diagonal(self):
        a5 = A_TWOGEO[4] + F(1, 100)
        seq = SequencePair(A=A_TWOGEO[:3], u=U_TWOGEO + [a5])
        full = run_fs_qd(seq, field=RAT)
        diag = run_fs_qd(seq, diagonal_only=True, field=RAT)
        assert diag.get(1, 1).status is EntryStatus.NOT_COMPUTED
        for n in range(3):
            assert diag.value(0, n) == full.value(0, n)

    def test_zero_u_refused(self):
        seq = SequencePair(A=[F(1), F(2)], u=[F(1), F(0), F(1)])
        with pytest.raises(InitializationError) as exc_info:
            run_fs_qd(seq, field=RAT)
        assert "1" in str(exc_info.value)


class TestRs:
    def test_initializations(self):
        seq = SequencePair(A=A_TWOGEO[:3], u=U_TWOGEO + [F(1, 50)])
        rs, table = run_rs(seq, field=RAT)
        for j in range(6):
            assert rs.s.get(j, 0).value == 1
        for j in range(5):
            assert rs.r.get(j, 1).value == seq.u[j]
        for j in range(3):
            assert table.value(j, 0) == seq.A[j]

    def test_hand_evaluated_first_entry(self):
        seq = SequencePair(
            A=[F(2), F(17, 6)], u=[F(5, 6), F(13, 36), F(35, 216)]
        )
        _, table = run_rs(seq, field=RAT)
        assert table.value(0, 1) == F(59, 17)

    def test_geometric_does_not_break_down_at_order_one(self):
        seq = SequencePair(
            A=[F(1), F(3, 2), F(7, 4)],
            u=[F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)],
        )
        _, table = run_rs(seq, field=RAT)
        assert table.value(0, 1) == F(2)

    def test_matches_determinant_ratios(self):
        rng = random.Random(29)
        L = 3
        A = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(L + 1)]
        u = [F(rng.randint(1, 25), rng.randint(1, 9)) for _ in range(2 * L + 1)]
        rs, _ = run_rs(SequencePair(A=A, u=u), field=RAT)
        for (j, n), entry in rs.r.items():
            if entry.status is EntryStatus.VALID:
                assert entry.value == r_ref(u, j, n)
        for (j, n), entry in rs.s.items():
            if entry.status is EntryStatus.VALID:
                assert entry.value == s_ref(u, j, n)

    def test_top_corner_r_is_stored(self):
        # the recursion reaches one r entry past the A-cone depth
        L = 2
        u = HARMONIC
        rs, _ = run_rs(
            SequencePair(A=[F(1), F(2), F(3)], u=u), field=RAT
        )
        corner = rs.r.get(0, L + 1)
        assert corner.status is EntryStatus.VALID
        assert corner.value == r_ref(u, 0, L + 1)

    def test_breaks_down_where_fsqd_and_the_system_do_not(self):
        # u_2/u_1 = 1 makes s[1][1] = u_2/u_1 - 1 zero, and the r update
        # divides by it: rs loses three nonsingular entries.  (1,1) is
        # singular, and both engines break down there.
        seq = SequencePair(A=[F(3), F(-1), F(4), F(2)],
                           u=[F(x) for x in (1, 2, 2, 5, 7, 3, 9)])
        rs, table = run_rs(seq, field=RAT)
        fsqd = run_fs_qd(seq, field=RAT)
        assert rs.s.get(1, 1).value == 0
        for (j, n), entry in fsqd.items():
            solved = direct_solve(seq, j, n)
            if (j, n) == (1, 1):
                assert solved.singular and not entry.valid
                assert not table.get(j, n).valid
                continue
            assert entry.value == solved.value
            lost = (j, n) in ((0, 2), (0, 3), (1, 2))
            assert table.get(j, n).status is (
                EntryStatus.BREAKDOWN if lost else EntryStatus.VALID
            )

    # Float u on which rs's factor refuses r[j][2] = u_{j+1} (s[j+1][1] /
    # s[j][1] - 1): the slot j, and what the bracket b and the product p
    # computed from the table's own s values must be.
    FACTOR_REFUSALS = {
        # q = 2: every s[j][1] is 1, so the bracket is exactly zero.
        "bracket-zero": ([2.0 ** k for k in range(5)], 0,
                         lambda b, p: b == 0.0),
        # q = 3.3: s[2][1] / s[1][1] rounds to 1 + EPS.
        "bracket-roundoff": ([3.3 ** k for k in range(5)], 1,
                             lambda b, p: 0.0 < abs(b) <= EPS),
        # 10, 21 and 44 smallest subnormals: the product is -1/11 of the
        # smallest subnormal and rounds to -0.0.
        "product-underflow": ([k * 5e-324 for k in (10, 21, 44)], 0,
                              lambda b, p: abs(b) > EPS and p == 0.0),
    }

    @pytest.mark.parametrize("u,j,kind", FACTOR_REFUSALS.values(),
                             ids=FACTOR_REFUSALS)
    def test_float_factor_breaks_down_where_it_cancels_or_underflows(
            self, u, j, kind):
        L = (len(u) - 1) // 2
        seq = SequencePair(A=[float(k) for k in range(L + 1)], u=u)
        rs, _ = run_rs(seq, field=FLT)
        s0, s1 = rs.s.get(j, 1).value, rs.s.get(j + 1, 1).value
        bracket = s1 / s0 - 1.0
        assert kind(bracket, rs.r.get(j + 1, 1).value * bracket)
        assert rs.r.get(j, 2).status is EntryStatus.BREAKDOWN
        exact, _ = run_rs(seq, field=RAT)
        assert exact.r.get(j, 2).valid


class TestEpsilon:
    def test_three_term_shanks(self):
        t = run_epsilon([F(1), F(3, 2), F(7, 4)], field=RAT)
        assert t.value(0, 1) == F(2)

    def test_first_column_is_input(self):
        A = [F(5), F(1, 3), F(-2, 7)]
        t = run_epsilon(A, field=RAT)
        for j in range(3):
            assert t.value(j, 0) == A[j]

    def test_five_term_matches_differenced_run(self):
        t_eps = run_epsilon(A_TWOGEO, field=RAT)
        t_fs = run_fs_qd(shanks_prepare(A_TWOGEO, field=RAT), field=RAT)
        assert t_eps.value(0, 2) == F(7, 2)
        assert t_eps.value(0, 2) == t_fs.value(0, 2)

    def test_empty_input_rejected(self):
        with pytest.raises(ArgumentError):
            run_epsilon([], field=RAT)

    def test_zero_difference_breaks_down(self):
        t = run_epsilon([F(1), F(1), F(2)], field=RAT)
        assert t.get(0, 1).status is EntryStatus.BREAKDOWN


class TestShanksPrepare:
    def test_three_term_differences(self):
        seq = shanks_prepare([F(1), F(3, 2), F(7, 4)], field=RAT)
        assert seq.A == [F(1), F(3, 2)]
        assert seq.u[:2] == [F(1, 2), F(1, 4)]
        # the tail slot continues the last ratio so the qd recursion sees
        # a geometric tail as exactly geometric
        assert seq.u[2] == F(1, 8)

    def test_five_term_differences(self):
        seq = shanks_prepare(A_TWOGEO, field=RAT)
        assert seq.u[:4] == U_TWOGEO
        assert seq.u[4] == U_TWOGEO[3] * U_TWOGEO[3] / U_TWOGEO[2]

    def test_constant_input_refused(self):
        with pytest.raises(InitializationError) as exc_info:
            shanks_prepare([F(5), F(5), F(5)], field=RAT)
        assert "zero difference" in str(exc_info.value)

    def test_single_term(self):
        seq = shanks_prepare([F(3)], field=RAT)
        assert seq.A == [F(3)]
        assert seq.u == []

    def test_tail_slot_does_not_change_output_values(self):
        """Entries of the output cone depend only on the genuine
        differences; the synthesized tail affects validity bookkeeping,
        never a valid value.
        """
        base = shanks_prepare(A_TWOGEO, field=RAT)
        for tail in (F(1, 7), F(3), F(-2, 5)):
            alt = SequencePair(A=base.A, u=base.u[:4] + [tail])
            t_base = run_fs_qd(base, field=RAT)
            t_alt = run_fs_qd(alt, field=RAT)
            for n in range(3):
                for j in range(3 - n):
                    a, b = t_base.get(j, n), t_alt.get(j, n)
                    if a.valid and b.valid:
                        assert a.value == b.value


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=F(-10), max_value=F(10), max_denominator=8),
    st.integers(min_value=0, max_value=999),
)
def test_scaling_invariance(c, seed):
    """Rescaling u by any nonzero rational leaves every output entry of
    both recursive engines unchanged, statuses included.
    """
    if c == 0:
        c = F(1, 3)
    rng = random.Random(seed)
    seq = random_pair(rng, 3)
    scaled = SequencePair(A=seq.A, u=[c * v for v in seq.u])
    for runner in (lambda s: run_fs_qd(s, field=RAT), lambda s: run_rs(s, field=RAT)[1]):
        t1, t2 = runner(seq), runner(scaled)
        for (key, e1) in t1.items():
            e2 = t2.get(*key)
            assert e1.status is e2.status
            if e1.valid:
                assert e1.value == e2.value


def test_cross_engine_equivalence_random():
    """Twenty random instances at mixed depths, redrawn on breakdown:
    both recursions and the direct solver agree entry for entry.
    """
    rng = random.Random(41)
    done = 0
    while done < 20:
        L = rng.randint(1, 5)
        seq = random_pair(rng, L)
        try:
            assert check_equivalence_case(seq) is None
        except _Degenerate:
            continue
        done += 1


def test_epsilon_identity_random():
    rng = random.Random(43)
    done = 0
    while done < 20:
        A = [
            F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(9)
        ]
        try:
            assert check_epsilon_identity_case(A) is None
        except _Degenerate:
            continue
        done += 1


def test_breakdown_propagates_to_dependents():
    """On u = 1, 1, 2, 4, 3, 5, 7, 11, 13 the Hankel determinant
    H_2^(1) = u_1 u_3 - u_2^2 is zero.  f_3^(0) divides by it, so (0,3)
    breaks down although its own system is nonsingular, and so does
    (0,4), built from f_3^(0).  (0,1) breaks down on its singular system
    (u_1 = u_0), but a zero f(1) is no divisor of the sweep, so nothing
    that depends on it breaks down."""
    B = EntryStatus.BREAKDOWN
    seq = SequencePair(
        A=[F(3), F(1), F(4), F(1), F(5)],
        u=[F(x) for x in (1, 1, 2, 4, 3, 5, 7, 11, 13)],
    )
    t = run_fs_qd(seq, field=RAT)
    assert t.columns[1:] == [[B, -2, 7, 17], [-2, -2, F(-4, 3)],
                             [B, F(-37, 21)], [B]]
    assert direct_solve(seq, 0, 1).singular
    assert not direct_solve(seq, 0, 3).singular
    assert not direct_solve(seq, 0, 4).singular
    assert not t.broken_beyond_first_column()
    constant = SequencePair(A=[F(1), F(2), F(3)], u=[F(1)] * 5)
    assert run_fs_qd(constant, field=RAT).broken_beyond_first_column()


def test_sequence_pair_refuses_A_of_another_length_than_L_plus_1():
    with pytest.raises(ArgumentError, match=r"L\+1 = 3 values, got 2"):
        SequencePair(A=[F(1), F(2)], u=HARMONIC[:5], L=2)


def test_short_u_general_mode():
    seq = SequencePair(A=[F(1), F(2), F(3)], u=HARMONIC[:3], L=2)
    t = run_fs_qd(seq, field=RAT)
    assert t.get(0, 1).status is EntryStatus.VALID
    assert t.get(0, 2).status is EntryStatus.NOT_COMPUTED


def test_exact_breakdown_with_short_u_reaches_every_dependent():
    """u = 1, 1, 1, 1, 1 of 7 values: the qd divisors e_1[0..2] = 0 are
    refused, so q_2[0] and q_2[1] break down, and so does every slot
    built from them.  e_2[1] and q_3[1] also read a slot that the
    missing tail of u leaves not computed, which alone would leave them
    not computed: breakdown wins."""
    B, NC = EntryStatus.BREAKDOWN, EntryStatus.NOT_COMPUTED
    t = build_qd_table([F(1)] * 5, 3, RAT)
    assert t.q.columns == [[], [1, 1, 1, 1, NC, NC], [B, B, NC, NC], [B, B]]
    assert t.e.columns == [[0] * 7, [0, 0, 0, NC, NC], [B, B, NC], [B]]


def _qd_columns(u, L, fld):
    table = build_qd_table(u, L, fld)
    return table.q.columns + table.e.columns


# Nonzero u and A values: random ones, and small powers of two and signs
# whose exact ratios make qd divisors vanish, so that the floor acts.
_SAMPLES = st.one_of(st.floats(min_value=0.5, max_value=1.5),
                     st.sampled_from([1.0, 2.0, 4.0, 0.5, -1.0, -2.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_short_u_agrees_with_full_u(L, data):
    """A u cut short leaves each fsqd column a not-computed tail, which
    the sweep holds apart from the values it maps over.  Every slot of
    the short run equals the full run's slot bit for bit, or is not
    computed, under fsqd, fsqd_diag and build_qd_table, in float and in
    counting arithmetic."""
    A = data.draw(st.lists(_SAMPLES, min_size=L + 1, max_size=L + 1))
    u = data.draw(st.lists(_SAMPLES, min_size=2 * L + 1, max_size=2 * L + 1))
    cut = data.draw(st.integers(min_value=0, max_value=2 * L))
    for fld in (FloatField(), CountingField()):
        runs = (
            lambda v: run_fs_qd(SequencePair(A, v, L), field=fld).columns,
            lambda v: run_fs_qd(SequencePair(A, v, L), diagonal_only=True,
                                field=fld).columns,
            lambda v: _qd_columns(v, L, fld),
        )
        for run in runs:
            full, short = run(u), run(u[:cut])
            assert [len(col) for col in full] == [len(col) for col in short]
            for col_full, col_short in zip(full, short):
                for a, b in zip(col_full, col_short):
                    if isinstance(b, EntryStatus):
                        assert b is EntryStatus.NOT_COMPUTED or a is b
                    else:
                        assert (type(a), a.hex()) == (type(b), b.hex())
