"""Pinned outputs: every engine, field and default CLI command on a seeded
corpus, reduced to one SHA-256.

The digest covers each table's entries in items() order (key, status and
value as float.hex() or exact text), the table summaries, the qd and rs
arrays, the operation counts of every counting run, and the stdout and
exit code of a few default CLI commands.  It was recorded before the
engines moved from per-slot entry tables to column lists, so it fails on
any change to a float bit, a rational, a status, an entry set, an item
order, an operation count or a CLI byte.  When a change is meant to alter
one of these, record the new digest printed by the failing assertion and
say why in CHANGES.md.

Run as a script (PYTHONPATH=src python tests/test_pinned_outputs.py), the
module prints the engine corpus, one line per line, under a "# kind L=..
seed=.. field" header per section, so the corpora of two checkouts can be
diffed section by section.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from gtransform.cli import main
from gtransform.engines import (
    build_qd_table,
    run_epsilon,
    run_fs_qd,
    run_rs,
    shanks_prepare,
)
from gtransform.scalars import CountingField, FloatField, RationalField
from gtransform.tables import SequencePair

PINNED_SHA256 = "e00e65e23adcd8c817a73da3d7a1f436388641a41a9949f6976b31c812f4b6af"


def _token(v) -> str:
    return str(v) if isinstance(v, Fraction) else float(v).hex()


def _case(kind: str, L: int, rng: random.Random):
    """(A, u, E): the pair of the linear system and a raw sequence for the
    epsilon and Shanks runs, as floats whose values Fraction reads
    exactly."""
    m = 2 * L + 1
    if kind == "uniform":
        u = [rng.uniform(0.5, 1.5) for _ in range(m)]
    elif kind == "geometric":
        u = [0.5 ** k for k in range(m)]
    elif kind == "two_geometric":
        u = [0.5 ** k + 0.25 ** k for k in range(m)]
    elif kind == "alternating":
        u = [(-1) ** k * rng.uniform(0.5, 1.5) / (k + 1) for k in range(m)]
    elif kind == "tiny":
        u = [rng.uniform(0.5, 1.5) * 2.0 ** -900 for _ in range(m)]
    elif kind == "huge":
        u = [rng.uniform(0.5, 1.5) * 2.0 ** 900 for _ in range(m)]
    elif kind == "subnormal":
        u = [rng.uniform(0.5, 1.5) * 2.0 ** -1040 for _ in range(m)]
    elif kind == "near_geometric":
        u = [0.5 ** k * (1.0 + rng.choice((-1, 1)) * 2.0 ** -50)
             for k in range(m)]
    elif kind == "near_constant":
        u = [1.0 + (k % 2) * 2.0 ** -52 for k in range(m)]
    elif kind == "underflow":
        u = [round(3 * 2.3 ** k) * 2.0 ** -1074 for k in range(m)]
    elif kind == "short":
        u = [0.5 ** k for k in range(rng.randrange(m))]
    elif kind == "empty_u":
        u = []
    elif kind == "zero_u":
        u = [rng.uniform(0.5, 1.5) for _ in range(m)]
        u[L] = 0.0
    else:
        raise ValueError(kind)
    A = [rng.uniform(-2.0, 2.0) for _ in range(L + 1)]
    E, total = [], 0.0
    for k in range(m if kind not in ("short", "empty_u") else max(1, m - 1)):
        total += u[k] if k < len(u) else 0.5 ** k
        E.append(total)
    return A, u, E


CORPUS = [
    (kind, L, seed)
    for seed, (kind, L) in enumerate(
        [("uniform", L) for L in (0, 1, 2, 5, 9, 13)]
        + [("geometric", L) for L in (1, 3, 6)]
        + [("two_geometric", L) for L in (2, 4, 7)]
        + [("alternating", L) for L in (3, 8, 12)]
        + [("tiny", L) for L in (2, 6)]
        + [("huge", L) for L in (2, 6)]
        + [("subnormal", L) for L in (2, 6)]
        + [("near_geometric", L) for L in (3, 7, 11)]
        + [("near_constant", 3), ("underflow", 4)]
        + [("short", L) for L in (1, 3, 4, 6)]
        + [("empty_u", 2), ("zero_u", 3)]
    )
]


def _fields():
    """(name, field factory, input conversion) for the three fields."""
    return [
        ("float", FloatField, float),
        ("rational", RationalField, Fraction),
        ("counting", CountingField, float),
    ]


def _entry_lines(tag, table):
    for (j, n), e in table.items():
        value = _token(e.value) if e.valid else "-"
        yield f"{tag} ({j},{n}) {e.status.value} {value}"


def _table_lines(tag, table):
    yield f"{tag} method={table.method} limit={table.limit} len={len(table)}"
    yield from _entry_lines(tag, table)
    yield f"{tag} diagonal " + " ".join(
        _token(e.value) if e.valid else e.status.value
        for e in table.diagonal()
    )
    best = table.best()
    best = "-" if best is None else f"{best[0]} {_token(best[1])}"
    yield f"{tag} best {best}"
    yield f"{tag} broken {table.broken_beyond_first_column()}"


def _array_lines(tag, array):
    yield f"{tag} len={len(array)}"
    yield from _entry_lines(tag, array)


def _engine_lines(name, make, A, u, E, L):
    seq = SequencePair(A=A, u=u, L=L)

    def shanks(fld):
        return run_fs_qd(shanks_prepare(E, field=fld), field=fld)

    def rs(fld):
        tbl, out = run_rs(seq, field=fld)
        yield from _array_lines("r", tbl.r)
        yield from _array_lines("s", tbl.s)
        yield from _table_lines("rs", out)

    def qd(fld):
        tbl = build_qd_table(u, L, fld)
        yield from _array_lines("q", tbl.q)
        yield from _array_lines("e", tbl.e)

    runs = [
        ("fsqd", lambda f: _table_lines("fsqd", run_fs_qd(seq, field=f))),
        ("fsqd_diag", lambda f: _table_lines(
            "fsqd_diag", run_fs_qd(seq, diagonal_only=True, field=f))),
        ("rs", rs),
        ("eps", lambda f: _table_lines("eps", run_epsilon(E, field=f))),
        ("shanks", lambda f: _table_lines("shanks", shanks(f))),
        ("qd", qd),
    ]
    for run, fn in runs:
        fld = make()
        yield f"== {name} {run}"
        try:
            yield from fn(fld)
        except ValueError as exc:
            yield f"raised {type(exc).__name__}"
        if name == "counting":
            c = fld.counts
            yield f"counts {c.additions} {c.multiplications} {c.divisions}"


def _corpus_lines():
    for kind, L, seed in CORPUS:
        A0, u0, E0 = _case(kind, L, random.Random(seed))
        for name, make, conv in _fields():
            if name == "rational" and L > 2 and kind in (
                "tiny", "huge", "subnormal", "underflow"
            ):
                continue  # exact cost grows with the power-of-two scale
            A, u, E = ([conv(x) for x in xs] for xs in (A0, u0, E0))
            yield f"# {kind} L={L} seed={seed} {name}"
            yield from _engine_lines(name, make, A, u, E, L)


def _cli_lines(tmp_path, capsys):
    docs = {
        "shanks.json": {"A": [1.0, 1.5, 1.75, 1.875, 1.9375, 1.96875, 1.984]},
        "general.json": {
            "A": ["2", "17/6", "115/36"],
            "u": ["5/6", "13/36", "35/216", "97/1296", "26957/7776"],
        },
        "geometric.json": {"A": ["1", "3/2", "7/4", "15/8", "31/16"]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    commands = [
        ["table", "--input", "shanks.json", "--method", "fsqd"],
        ["table", "--input", "shanks.json", "--method", "fsqd_diag"],
        ["table", "--input", "general.json", "--method", "rs", "--exact"],
        ["table", "--input", "general.json", "--method", "fsqd", "--exact"],
        ["table", "--input", "geometric.json", "--method", "fsqd", "--exact"],
        ["table", "--input", "geometric.json", "--method", "eps",
         "--format", "text", "--full"],
        ["integrate", "--integrand", "sinc", "--x", "0", "--n-max", "8"],
        ["integrate", "--integrand", "exp_decay", "--x", "0.5", "--n-max", "3",
         "--analytic-f", "--engine", "rs"],
        ["integrate", "--integrand", "t_exp", "--x", "1", "--h", "0.7",
         "--n-max", "6", "--engine", "eps", "--format", "text"],
        ["bench", "--method", "fsqd_diag", "--L", "12", "--seed", "3"],
        ["check", "--L", "3", "--cases", "3", "--seed", "5"],
    ]
    for argv in commands:
        code = main(
            [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        )
        yield "$ " + " ".join(argv)
        yield f"exit {code}"
        yield capsys.readouterr().out


def test_outputs_match_pinned_digest(tmp_path, capsys):
    h = hashlib.sha256()
    for line in _corpus_lines():
        h.update(line.encode("utf-8") + b"\n")
    for line in _cli_lines(tmp_path, capsys):
        h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == PINNED_SHA256


if __name__ == "__main__":
    for line in _corpus_lines():
        print(line)
