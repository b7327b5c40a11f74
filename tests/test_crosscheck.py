"""The consistency suite catches a fault.

Each test plants one wrong value where a battery reads it (an rs entry,
a direct-solve value, an eps entry, a qd entry, an r or s entry) and
requires run_equivalence_suite to report it, or makes every draw
degenerate and requires the suite to say it could not draw its cases.
"""

from __future__ import annotations

import dataclasses

import pytest

from gtransform import cli, crosscheck, oracle
from gtransform.crosscheck import run_equivalence_suite
from gtransform.tables import EntryStatus


def _plant(monkeypatch, name, columns):
    """Wrap crosscheck's name so that slot (0, 1) of columns(result) reads
    one more than it should."""
    real = getattr(crosscheck, name)

    def planted(*args, **kwargs):
        result = real(*args, **kwargs)
        cols = columns(result)
        if not isinstance(cols[1][0], EntryStatus):
            cols[1][0] += 1
        return result

    monkeypatch.setattr(crosscheck, name, planted)


def _plant_direct_solve(monkeypatch):
    direct_solve = oracle.direct_solve

    def planted(seq, j, n):
        solved = direct_solve(seq, j, n)
        if (j, n) == (0, 1):
            return dataclasses.replace(solved, value=solved.value + 1)
        return solved

    monkeypatch.setattr(oracle, "direct_solve", planted)


PLANTS = {
    "rs": (lambda mp: _plant(mp, "run_rs", lambda r: r[1].columns),
           "fsqd (0,1) = "),
    "direct_solve": (_plant_direct_solve, "direct solve (0,1) = "),
    "eps": (lambda mp: _plant(mp, "run_epsilon", lambda t: t.columns),
            "eps (0,1) = "),
    "qd": (lambda mp: _plant(mp, "build_qd_table", lambda t: t.q.columns),
           "q[0][1] = "),
    "s": (lambda mp: _plant(mp, "run_rs", lambda r: r[0].s.columns),
          "s[0][1] = "),
}


@pytest.mark.parametrize("battery", PLANTS)
def test_suite_reports_a_planted_wrong_value(battery, monkeypatch):
    plant, failure = PLANTS[battery]
    plant(monkeypatch)
    report = run_equivalence_suite(L=3, cases=5, seed=7)
    assert not report.ok
    assert report.failures == [report.first_counterexample()]
    assert report.first_counterexample().startswith(failure)


def test_check_exits_1_on_a_planted_wrong_value(monkeypatch, capsys):
    PLANTS["rs"][0](monkeypatch)
    assert cli.main(["check", "--L", "3", "--cases", "5"]) == 1
    captured = capsys.readouterr()
    assert '"passed": false' in captured.out
    assert captured.err.startswith("counterexample: fsqd (0,1) = ")
    assert " but rs gives " in captured.err


def test_suite_reports_an_exhausted_redraw_budget(monkeypatch):
    # A breakdown in every fsqd table makes every equivalence draw
    # degenerate, so the first battery spends its 20 draws a case.
    run_fs_qd = crosscheck.run_fs_qd

    def broken(seq, diagonal_only=False, field=None):
        table = run_fs_qd(seq, diagonal_only=diagonal_only, field=field)
        table.columns[-1][0] = EntryStatus.BREAKDOWN
        return table

    monkeypatch.setattr(crosscheck, "run_fs_qd", broken)
    report = run_equivalence_suite(L=2, cases=3, seed=7)
    assert report.cases == 0
    assert report.failures == [
        "could not draw 3 non-degenerate cases in 60 attempts"]
