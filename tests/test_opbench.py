"""Operation counting: closed-form tallies and the cost comparison.

The closed forms below were derived once by walking the recursions and
are pinned so any accounting drift shows up as a hard failure.

  fsqd        add 2L^2 + L(L+1),  mul L(L-1),
              div 2L + L(L-1) + 2(L+1) + L(L+1) + L(L+1)/2
  fsqd_diag   same add/mul, div 2L^2 + 5L + 2
  rs          add = mul = 3L^2 + 2L,  div 2L^2 + L + L(L+1)/2
  eps         add 2(2L^2 + L),  mul 0,  div 2L^2 + L   (input 2L+1)
"""

from __future__ import annotations

import random
from dataclasses import asdict
from fractions import Fraction as F

import pytest

from gtransform.opbench import (
    METHODS,
    BenchReport,
    bench_method,
    bench_on,
    compare_ratio,
)
from gtransform.scalars import CountingField
from gtransform.engines import accelerate, run_fs_qd
from gtransform.tables import ArgumentError, EntryStatus, SequencePair


def fsqd_expected(L):
    return {
        "additions": 2 * L * L + L * (L + 1),
        "multiplications": L * (L - 1),
        "divisions": (
            2 * L + L * (L - 1) + 2 * (L + 1) + L * (L + 1)
            + L * (L + 1) // 2
        ),
    }


def fsqd_diag_expected(L):
    out = fsqd_expected(L)
    out["divisions"] = 2 * L * L + 5 * L + 2
    return out


def rs_expected(L):
    return {
        "additions": 3 * L * L + 2 * L,
        "multiplications": 3 * L * L + 2 * L,
        "divisions": 2 * L * L + L + L * (L + 1) // 2,
    }


def eps_expected(L):
    return {
        "additions": 2 * (2 * L * L + L),
        "multiplications": 0,
        "divisions": 2 * L * L + L,
    }


EXPECTED = {
    "fsqd": fsqd_expected,
    "fsqd_diag": fsqd_diag_expected,
    "rs": rs_expected,
    "eps": eps_expected,
}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("L", [10, 100])
def test_closed_form_counts(method, L):
    report = bench_method(method, L, seed=1)
    assert report.valid
    assert report.counts.as_dict() == EXPECTED[method](L)


def test_manual_tally_smallest_case():
    """Hand count at L=2, every recursion step tallied by hand.

    qd: q col 1 = 4 divs; e col 1 = 3 entries x 2 adds; q col 2 =
    2 entries x (1 div + 1 mul); e col 2 = 1 entry x 2 adds.
    inits: 3 entries x (A/u and 1/u) = 6 divs.  updates: 2 x 2 + 2 x 1
    entries at cols 1, 2 over M and N = (4+2) x (1 add + 1 div) per
    inner table.  final: 6 divisions.  Totals: add 14, mul 2, div 21.
    """
    A = [1.25, 0.75, 1.125]
    u = [0.9, 1.1, 0.8, 1.2, 1.05]

    fld = CountingField()
    seq = SequencePair(
        A=[fld.convert(v) for v in A], u=[fld.convert(v) for v in u]
    )
    run_fs_qd(seq, field=fld)
    counts = fld.counts
    assert counts.as_dict() == {
        "additions": 14,
        "multiplications": 2,
        "divisions": 21,
    }
    assert counts.as_dict() == fsqd_expected(2)


def test_eps_has_no_multiplications():
    for L in (10, 25):
        for seed in (1, 2, 3):
            assert bench_method("eps", L, seed).counts.multiplications == 0


def test_normalized_counts_near_leading_coefficients():
    targets = {
        "fsqd": {"multiplications": 1.0, "additions": 3.0, "divisions": 2.5},
        "rs": {"multiplications": 3.0, "additions": 3.0, "divisions": 2.5},
        "eps": {"multiplications": 0.0, "additions": 4.0, "divisions": 2.0},
    }
    for method, wanted in targets.items():
        report = bench_method(method, 100, seed=1)
        for op, target in wanted.items():
            got = report.normalized[op]
            if target == 0.0:
                assert got == 0.0
            else:
                assert abs(got - target) <= 0.1 * target, (method, op, got)
    diag = bench_method("fsqd_diag", 100, seed=1)
    assert abs(diag.normalized["divisions"] - 2.0) <= 0.2


def test_normalized_converges_with_L():
    # leading coefficients dominate: the L=200 normalization sits closer
    # to the target than L=50 for the division count of fsqd
    target = 2.5
    n50 = bench_method("fsqd", 50, 1).normalized["divisions"]
    n200 = bench_method("fsqd", 200, 1).normalized["divisions"]
    assert abs(n200 - target) < abs(n50 - target)


def test_cost_ratio_thirty_percent():
    ratio = compare_ratio(100, seed=1)
    assert 1.20 <= ratio <= 1.40


def test_cost_ratio_stabilizes():
    r100 = compare_ratio(100, seed=1)
    r200 = compare_ratio(200, seed=1)
    assert abs(r200 - r100) <= 0.05


def test_deterministic_given_seed():
    a = bench_method("rs", 40, seed=9)
    b = bench_method("rs", 40, seed=9)
    assert a.counts.as_dict() == b.counts.as_dict()
    assert a.total == b.total


def test_small_L_rejected():
    with pytest.raises(ArgumentError):
        bench_method("fsqd", 5, seed=1)


def test_unknown_method_rejected():
    with pytest.raises(ArgumentError):
        bench_method("gauss", 50, seed=1)


def test_breakdown_flags_report_invalid():
    # geometric u degenerates the exact recursion; under counting floats
    # the run completes but rs marks entries broken, so the report is
    # flagged rather than silently mixing a truncated tally in
    L = 3
    A = [1.0, 1.5, 1.75, 1.875]
    u = [2.0 ** -(k + 1) for k in range(2 * L + 1)]
    report = bench_on("rs", A, u, L)
    assert isinstance(report, BenchReport)
    assert not report.valid


# (A, u, L) per method: a run in which a slot breaks down inside the
# recursion (a constant u zeroes the FS denominators; a repeated term
# zeroes eps's first difference), and runs whose only invalid slots are
# not computed (a short u; fsqd_diag's off-diagonal).  eps computes every
# slot it stores, so its second run has none invalid.
BROKEN = {m: ([1.0, 2.0, 0.5], [1.0] * 5, 2)
          for m in ("fsqd", "fsqd_diag", "rs")}
BROKEN["eps"] = ([1.0, 1.0, 2.0], None, 1)
UNBROKEN = {m: ([1.0, 2.0, 0.5], [1.0, 0.5], 2)
            for m in ("fsqd", "fsqd_diag", "rs")}
UNBROKEN["fsqd_diag"] = ([1.0, 2.0, 0.5], [1.0, 0.7, 0.4, 0.3, 0.2], 2)
UNBROKEN["eps"] = ([1.0, 0.5, 0.8, 0.6, 0.7], None, 2)


def _statuses(method, A, u):
    return {s for col in accelerate(method, A, u).columns for s in col
            if isinstance(s, EntryStatus)}


@pytest.mark.parametrize("method", METHODS)
def test_valid_is_false_exactly_when_a_slot_broke_down(method):
    A, u, L = BROKEN[method]
    assert EntryStatus.BREAKDOWN in _statuses(method, A, u)
    assert not bench_on(method, A, u, L).valid
    A, u, L = UNBROKEN[method]
    want = set() if method == "eps" else {EntryStatus.NOT_COMPUTED}
    assert _statuses(method, A, u) == want
    assert bench_on(method, A, u, L).valid


def test_report_shape():
    report = bench_method("fsqd", 10, seed=4)
    d = asdict(report)
    assert d["method"] == "fsqd"
    assert d["L"] == 10
    assert d["total"] == sum(d["counts"].values())
    assert set(d["normalized"]) == {"additions", "multiplications", "divisions"}
