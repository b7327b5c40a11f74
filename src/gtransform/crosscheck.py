"""Exact-rational consistency suite.

Checks, on random rational inputs, that the fast engines agree with each
other, with the determinantal definitions, and with direct solution of
the defining linear system.  Used by the check subcommand and by the
acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from . import oracle
from .engines import (
    build_qd_table,
    run_epsilon,
    run_fs_qd,
    run_rs,
    shanks_prepare,
)
from .scalars import RationalField
from .tables import EntryStatus, InitializationError, SequencePair

_FIELD = RationalField()


@dataclass
class CheckReport:
    cases: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_counterexample(self) -> Optional[str]:
        return self.failures[0] if self.failures else None


def _rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        p = rng.randint(-20, 20)
        q = rng.randint(1, 10)
        if nonzero and p == 0:
            continue
        return Fraction(p, q)


def random_pair(rng: random.Random, L: int) -> SequencePair:
    A = [_rand_fraction(rng) for _ in range(L + 1)]
    u = [_rand_fraction(rng, nonzero=True) for _ in range(2 * L + 1)]
    return SequencePair(A=A, u=u, L=L)


def _fully_valid(table) -> bool:
    return not any(isinstance(slot, EntryStatus)
                   for col in table.columns for slot in col)


class _Degenerate(Exception):
    """Raised by a case checker to request a redraw."""


def check_equivalence_case(seq: SequencePair) -> Optional[str]:
    """fsqd, rs and the direct linear solve must produce structurally
    identical rationals at every (j, n).  Returns a description of the
    first mismatch, None when the case passes, or raises _Degenerate to
    request a redraw when any engine breaks down."""
    fsqd = run_fs_qd(seq, field=_FIELD)
    _, rs = run_rs(seq, field=_FIELD)
    if not (_fully_valid(fsqd) and _fully_valid(rs)):
        raise _Degenerate()
    for j, n, value in fsqd.slots():
        other = rs.columns[n][j]
        if value != other:
            return (
                f"fsqd ({j},{n}) = {value} but rs gives {other} "
                f"on A={seq.A} u={seq.u}"
            )
        solved = oracle.direct_solve(seq, j, n)
        if solved.singular:
            return (
                f"direct solve singular at ({j},{n}) though engines "
                f"succeeded on A={seq.A} u={seq.u}"
            )
        if solved.value != value:
            return (
                f"direct solve ({j},{n}) = {solved.value} but engines "
                f"give {value} on A={seq.A} u={seq.u}"
            )
    return None


def check_epsilon_identity_case(A: List[Fraction]) -> Optional[str]:
    """Even epsilon columns must equal the fsqd table of the differenced
    sequence wherever both are valid."""
    eps = run_epsilon(A, field=_FIELD)
    try:
        seq = shanks_prepare(A, field=_FIELD)
    except InitializationError:
        raise _Degenerate() from None
    fsqd = run_fs_qd(seq, field=_FIELD)
    compared = 0
    for j, n, value in fsqd.slots():
        other = eps.columns[n][j]
        if isinstance(value, EntryStatus) or isinstance(other, EntryStatus):
            continue
        compared += 1
        if value != other:
            return (
                f"eps ({j},{n}) = {other} but fsqd-on-differences "
                f"gives {value} on A={A}"
            )
    if compared == 0:
        raise _Degenerate()
    return None


def _check_ratios(u, stored) -> Optional[str]:
    """Compare stored entries with their determinant-ratio definitions.

    stored holds (name, array, reference, first): every entry of array in
    a column n >= first is checked.  Every reference is computed before
    any comparison: a zero determinant anywhere is a zero divisor of the
    recursion, so the case is redrawn rather than reported for the
    breakdown it causes further on."""
    try:
        wants = [(name, j, n, got, ref(u, j, n))
                 for name, array, ref, first in stored
                 for j, n, got in array.slots() if n >= first]
    except oracle.SingularError:
        raise _Degenerate() from None
    for name, j, n, got, want in wants:
        if got != want:
            return f"{name}[{j}][{n}] = {got} but ratio gives {want} on u={u}"
    return None


def check_qd_identity_case(u: List[Fraction], L: int) -> Optional[str]:
    """Every stored qd entry must equal its Hankel-ratio definition (e's
    column 0 holds the zeros the recursion starts from)."""
    table = build_qd_table(u, L, field=_FIELD)
    return _check_ratios(u, [("e", table.e, oracle.e_ref, 1),
                             ("q", table.q, oracle.q_ref, 0)])


def check_rs_identity_case(seq: SequencePair) -> Optional[str]:
    """Every stored r and s entry must equal its determinant-ratio
    definition."""
    tbl, _ = run_rs(seq, field=_FIELD)
    return _check_ratios(seq.u, [
        ("r", tbl.r, oracle.r_ref, 0),
        ("s", tbl.s, oracle.s_ref, 0),
    ])


def _run_with_redraw(
    report: CheckReport, rng, draw, check, cases: int
) -> None:
    """Check cases non-degenerate draws, redrawing degenerate ones, in at
    most 20 draws a case (400 at the default of 20 cases)."""
    budget = 20 * cases
    done = 0
    for _ in range(budget):
        if done == cases:
            return
        try:
            failure = check(draw(rng))
        except _Degenerate:
            continue
        done += 1
        report.cases += 1
        if failure is not None:
            report.failures.append(failure)
            return
    if done < cases:
        report.failures.append(
            f"could not draw {cases} non-degenerate cases in {budget} "
            f"attempts"
        )


def run_equivalence_suite(
    L: int = 4, cases: int = 20, seed: int = 7
) -> CheckReport:
    """The full consistency battery: engine/solve equivalence, the
    epsilon identity, and the qd and rs determinant identities."""
    report = CheckReport()
    rng = random.Random(seed)
    batteries = (
        (lambda r: random_pair(r, L), check_equivalence_case),
        (lambda r: [_rand_fraction(r) for _ in range(9)],
         check_epsilon_identity_case),
        (lambda r: [_rand_fraction(r, nonzero=True) for _ in range(2 * L + 1)],
         lambda u: check_qd_identity_case(u, L)),
        (lambda r: random_pair(r, L), check_rs_identity_case),
    )
    for draw, check in batteries:
        _run_with_redraw(report, rng, draw, check, cases)
        if not report.ok:
            break
    return report
