"""Self-tests of the benchmark's checkers: each one passes the program's
real output and rejects a deliberately wrong one, so no check can pass
vacuously.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import gtransform as gt  # noqa: E402
from gtransform import Entry, EntryStatus  # noqa: E402
from gtransform.cli import main as cli_main  # noqa: E402

L = 12


def float_pair(seed=3):
    rng = random.Random(seed)
    return ([rng.uniform(0.5, 1.5) for _ in range(L + 1)],
            [rng.uniform(0.5, 1.5) for _ in range(2 * L + 1)])


def exact_pair(seed=4):
    rng = random.Random(seed)

    def r():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 999),
                        rng.randint(1, 999))

    return [r() for _ in range(L + 1)], [r() for _ in range(2 * L + 1)]


def with_value(table, j, n, value):
    table.set(j, n, Entry(value, EntryStatus.VALID))
    return table


def test_float_entry_perturbed_by_1e6_relative_is_rejected():
    A, u = float_pair()
    table = gt.run_fs_qd(gt.SequencePair(A=A, u=u, L=L))
    want = {k: checks.solve_entry(A, u, *k)
            for k in checks.sample_entries(L, seed=1)}
    errors, digits = checks.float_vs_solve(table, want)
    assert errors == [] and min(digits) > 8
    j, n = 0, 3
    with_value(table, j, n, table.value(j, n) * (1 + 1e-6))
    errors, digits = checks.float_vs_solve(table, want)
    assert len(errors) == 1 and "(0,3)" in errors[0]
    assert min(digits) < 6.1


def test_exact_entry_off_by_one_billionth_is_rejected():
    A, u = exact_pair()
    table = gt.run_fs_qd(gt.SequencePair(A=A, u=u, L=L))
    want = {k: checks.solve_entry(A, u, *k)
            for k in checks.sample_entries(L, seed=2)}
    assert checks.exact_vs_solve(table, want) == []
    j, n = next(iter(want))
    with_value(table, j, n, table.value(j, n) + Fraction(1, 10**9))
    assert len(checks.exact_vs_solve(table, want)) == 1


@pytest.mark.parametrize("method", ["fsqd", "fsqd_diag", "rs", "eps"])
@pytest.mark.parametrize("kind", workloads.OP_KINDS)
def test_tally_off_by_one_is_rejected(method, kind):
    A, u = float_pair()
    rng = random.Random(5)
    E = [rng.uniform(0.5, 1.5) for _ in range(2 * L + 1)]
    report = (gt.bench_on("eps", E, None, L) if method == "eps"
              else gt.bench_on(method, A, u, L))
    counts = report.counts.as_dict()
    assert report.valid and checks.tally_errors(method, L, counts) == []
    counts[kind] += 1
    assert len(checks.tally_errors(method, L, counts)) == 1


def integrate_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["integrate", *argv]) == 0
    return out.getvalue()


def test_bare_nan_in_cli_output_is_rejected():
    text = integrate_output("--integrand", "sinc", "--x", "0",
                           "--n-max", "6")
    doc = checks.parse_strict(text)
    value = repr(doc["diagonal"][1])
    assert value in text
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            checks.parse_strict(text.replace(value, token, 1))


def test_broken_diagonal_identity_pair_is_rejected():
    A, u = float_pair()
    seq = gt.SequencePair(A=A, u=u, L=L)
    full = gt.run_fs_qd(seq)
    assert checks.same_diagonal(full, gt.run_fs_qd(seq, diagonal_only=True)) \
        == []
    diag = gt.run_fs_qd(seq, diagonal_only=True)
    with_value(diag, 0, 2, math.nextafter(diag.value(0, 2), math.inf))
    assert len(checks.same_diagonal(full, diag)) == 1
    diag = gt.run_fs_qd(seq, diagonal_only=True)
    diag.set(0, 4, Entry(None, EntryStatus.BREAKDOWN))
    assert len(checks.same_diagonal(full, diag)) == 1


def test_one_ulp_off_in_a_counting_table_is_rejected():
    A, u = float_pair()
    seq = gt.SequencePair(A=A, u=u, L=L)
    plain = gt.run_rs(seq, field=gt.FloatField())[1]
    counted = gt.run_rs(seq, field=gt.CountingField())[1]
    assert checks.bit_identical(plain, counted) == []
    v = float(counted.value(3, 2))
    with_value(counted, 3, 2, math.nextafter(v, -math.inf))
    assert len(checks.bit_identical(plain, counted)) == 1


def test_exact_engines_disagreeing_are_rejected():
    A, u = exact_pair()
    seq = gt.SequencePair(A=A, u=u, L=L)
    fsqd, rs = gt.run_fs_qd(seq), gt.run_rs(seq)[1]
    assert checks.equal_where_valid(fsqd, rs, "fsqd vs rs") == []
    with_value(rs, 1, 5, rs.value(1, 5) * Fraction(1000000001, 10**9))
    assert len(checks.equal_where_valid(fsqd, rs, "fsqd vs rs")) == 1


def test_sinc_estimate_without_enough_gain_is_rejected():
    ref = workloads.REFERENCE["sinc"]
    good = [1.0, ref + 1e-2, ref + 1e-4]
    assert workloads.check_estimate("sinc", "fsqd", good)[0] == []
    bad = [1.0, ref + 1e-2, ref + 2e-4]
    assert len(workloads.check_estimate("sinc", "fsqd", bad)[0]) == 1
    assert len(workloads.check_estimate("sinc", "fsqd", [1.0, None])[0]) == 1
