"""The four workloads: inputs drawn from a seed, the list of timed calls,
the checks on their outputs, and the extra calls of the traced run.

A workload's calls are Ops.  Each takes a span factory (a no-op one when
tracing is off) and returns the call's output, which the checks read.
The package module is passed in as `gt`, because the set-up timing
imports it afresh several times.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import statistics
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

import checks
from tracing import no_span

ENGINES = ("fsqd", "fsqd_diag", "rs", "eps", "shanks")
OP_KINDS = ("additions", "multiplications", "divisions")
# The layer pass repeats its timed calls this often, so that its medians
# do not rest on one sample of a one-second call.
LAYER_REPS = 3


@dataclass
class Op:
    name: str  # the public call, layer.function; also the span name
    engine: str  # one of ENGINES
    fn: Callable[[Callable], Any]
    tag: Optional[str] = None  # span tag; the engine unless it must differ
    feeds: bool = True  # timed into <engine>_ms
    latency: bool = True  # timed into call_p50_ms and call_p95_ms
    count: Optional[Callable[[], Any]] = None  # same input, CountingField
    key: Any = None  # which input of the workload the call runs on

    def __post_init__(self):
        if self.tag is None:
            self.tag = self.engine


@dataclass
class State:
    ops: List[Op]
    data: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------- helpers


def _uniform(rng, k):
    return [rng.uniform(0.5, 1.5) for _ in range(k)]


def _engine_ops(gt, A, u, E, L, feeds=True):
    """The five timed engine calls on one (A, u) pair and one raw
    sequence E of 2L+1 terms.  Fields are inferred from the inputs, as a
    caller who passes no field gets them.  Calls that do not feed the
    engine metrics carry their size in the span tag."""
    seq = gt.SequencePair(A=A, u=u, L=L)

    def shanks(span):
        with span("engines.shanks_prepare", "shanks"):
            pair = gt.shanks_prepare(E)
        with span("engines.run_fs_qd", "shanks"):
            return gt.run_fs_qd(pair)

    def count_shanks():
        pair = gt.shanks_prepare(E)
        return gt.bench_on("fsqd", pair.A, pair.u, pair.L)

    ops = [
        Op("engines.run_fs_qd", "fsqd", lambda s: gt.run_fs_qd(seq),
           count=lambda: gt.bench_on("fsqd", A, u, L)),
        Op("engines.run_fs_qd", "fsqd_diag",
           lambda s: gt.run_fs_qd(seq, diagonal_only=True),
           count=lambda: gt.bench_on("fsqd_diag", A, u, L)),
        Op("engines.run_rs", "rs", lambda s: gt.run_rs(seq)[1],
           count=lambda: gt.bench_on("rs", A, u, L)),
        Op("engines.run_epsilon", "eps", lambda s: gt.run_epsilon(E),
           count=lambda: gt.bench_on("eps", E, None, L)),
        Op("engines.shanks", "shanks", shanks, count=count_shanks),
    ]
    for op in ops:
        op.feeds = feeds
        op.tag = op.engine if feeds else f"{op.engine}@L{L}"
    return ops


def _median(values):
    """Median correct digits; 0 when nothing could be checked."""
    return statistics.median(values) if values else 0.0


def _by_engine(ops, results):
    return {op.engine: res for op, res in zip(ops, results)}


def _check_engine_tables(tables, A, u, E, L, seed, exact):
    """The float-deep and exact-audit checks on one set of five tables.
    Returns (errors, correct digits of each solved float entry)."""
    missing = [e for e in ENGINES if tables.get(e) is None]
    if missing:
        return [f"L={L}: no output from {', '.join(missing)}"], []
    errors = []
    SA, Su = checks.shanks_system(E)
    for eng, col in (("fsqd", A), ("fsqd_diag", A), ("rs", A), ("eps", E),
                     ("shanks", E[: L + 1])):
        errors += checks.column_zero(tables[eng], col)
        if not exact:
            errors += checks.valid_finite(tables[eng])
    errors += checks.same_diagonal(tables["fsqd"], tables["fsqd_diag"])

    full = checks.sample_entries(L, seed)
    diag = checks.sample_entries(L, seed, diagonal_only=True)
    want_g = {k: checks.solve_entry(A, u, *k) for k in full}
    want_s = {k: checks.solve_entry(SA, Su, *k) for k in full}
    plan = [("fsqd", want_g), ("rs", want_g), ("eps", want_s),
            ("shanks", want_s),
            ("fsqd_diag", {k: want_g[k] for k in diag})]
    found = []
    for eng, want in plan:
        if exact:
            errors += checks.exact_vs_solve(tables[eng], want)
        else:
            errs, d = checks.float_vs_solve(tables[eng], want)
            errors += errs
            found += d
    if exact:
        errors += checks.equal_where_valid(
            tables["fsqd"], tables["rs"], f"L={L} fsqd vs rs")
        errors += checks.equal_where_valid(
            tables["eps"], tables["shanks"], f"L={L} eps vs shanks")
    return errors, found


def read_tables(tables, span):
    """Time the read side of every returned table."""
    for eng, table in tables:
        with span("tables.read", eng):
            list(table.items())
            table.diagonal()
            table.best()


def status_counts(statuses):
    """statuses: (engine, status string) pairs."""
    out = {}
    for eng in ENGINES:
        out[f"tables.valid_entries.{eng}"] = 0
        out[f"tables.breakdown_entries.{eng}"] = 0
    for eng, status in statuses:
        if status == "valid":
            out[f"tables.valid_entries.{eng}"] += 1
        elif status == "breakdown":
            out[f"tables.breakdown_entries.{eng}"] += 1
    return out


def table_statuses(tables):
    for eng, table in tables:
        for _, entry in table.items():
            yield eng, entry.status.value


def alloc_peaks(ops):
    """The tracemalloc peak of each call, the largest per engine, in MB."""
    peaks = {f"tables.alloc_peak_mb.{e}": 0.0 for e in ENGINES}
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                op.fn(no_span)
            except Exception:  # a failing call is counted by the timed run
                continue
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            key = f"tables.alloc_peak_mb.{op.engine}"
            peaks[key] = max(peaks[key], peak)
    finally:
        tracemalloc.stop()
    return peaks


def scalar_counts(reports):
    """reports: (engine, BenchReport) pairs, summed per engine."""
    out = {f"scalars.{k}.{e}": 0 for k in OP_KINDS for e in ENGINES}
    for eng, report in reports:
        for k, n in report.counts.as_dict().items():
            out[f"scalars.{k}.{eng}"] += n
    return out


def replay(ops, span):
    """Each call that feeds an engine metric once more, under a span, so
    that the layer pass times every call it compares in one stretch."""
    for i, op in enumerate(ops):
        if op.feeds:
            with span(op.name, op.tag, call=i):
                try:
                    op.fn(span)
                except Exception:  # a failing call is counted by the timed run
                    pass


def _engine_layer_pass(gt, ops, results, span, u, L):
    """Layer pass shared by the workloads whose calls return tables: the
    calls again, the qd build alone on the fsqd input, table reads, entry
    statuses, operation counts on the same inputs and allocation peaks."""
    for _ in range(LAYER_REPS):
        replay(ops, span)
        with span("engines.build_qd_table", "fsqd"):
            gt.build_qd_table(u, L)
    tables = [(op.engine, r) for op, r in zip(ops, results) if r is not None]
    read_tables(tables, span)
    out = status_counts(table_statuses(tables))
    out.update(scalar_counts((op.engine, op.count()) for op in ops))
    out.update(alloc_peaks(ops))
    return out


# -------------------------------------------------------------- float-deep


class FloatDeep:
    """FloatField tables at L=150 on uniform [0.5, 1.5] input."""

    L = 150

    def setup(self, gt, seed):
        rng = random.Random(seed)
        L = self.L
        A, u, E = _uniform(rng, L + 1), _uniform(rng, 2 * L + 1), \
            _uniform(rng, 2 * L + 1)
        ops = _engine_ops(gt, A, u, E, L)
        return State(ops, {"A": A, "u": u, "E": E, "seed": seed})

    def check(self, gt, state, results):
        d = state.data
        errors, found = _check_engine_tables(
            _by_engine(state.ops, results), d["A"], d["u"], d["E"],
            self.L, d["seed"], exact=False)
        return errors, _median(found)

    def layer_pass(self, gt, state, results, span):
        return _engine_layer_pass(gt, state.ops, results, span,
                                  state.data["u"], self.L)


# ------------------------------------------------------------- exact-audit


class ExactAudit:
    """RationalField tables at L = 16, 24 and 32; the engine metrics come
    from the L=32 calls.

    Exact cost depends on the numbers drawn: the time of one engine on
    one input spread by 15-20% across seeds.  So the inputs are one fixed
    draw, the same for every seed, and the seed shuffles the call order
    and picks the checked entries."""

    SIZES = (16, 24, 32)
    INPUT_SEED = 2017

    @staticmethod
    def _rational(rng):
        sign = rng.choice((-1, 1))
        return Fraction(sign * rng.randint(1, 999), rng.randint(1, 999))

    def setup(self, gt, seed):
        rng = random.Random(self.INPUT_SEED)
        ops, inputs = [], {}
        for L in self.SIZES:
            A = [self._rational(rng) for _ in range(L + 1)]
            u = [self._rational(rng) for _ in range(2 * L + 1)]
            E, total = [], Fraction(0)
            for _ in range(2 * L + 1):
                total += self._rational(rng)  # never zero: no zero difference
                E.append(total)
            size_ops = _engine_ops(gt, A, u, E, L, feeds=L == self.SIZES[-1])
            for op in size_ops:
                op.key = L
            ops += size_ops
            inputs[L] = (A, u, E)
        random.Random(seed).shuffle(ops)
        return State(ops, {"inputs": inputs, "seed": seed})

    def check(self, gt, state, results):
        errors = []
        for L in self.SIZES:
            A, u, E = state.data["inputs"][L]
            tables = {op.engine: res for op, res in zip(state.ops, results)
                      if op.key == L}
            errs, _ = _check_engine_tables(
                tables, A, u, E, L, state.data["seed"], exact=True)
            errors += errs
        # Exact tables equal the solve or the check fails, so the digits
        # read the cap whenever the run is correct.
        return errors, checks.DIGITS_CAP if not errors else 0.0

    def layer_pass(self, gt, state, results, span):
        L = self.SIZES[-1]
        return _engine_layer_pass(gt, state.ops, results, span,
                                  state.data["inputs"][L][1], L)


# ----------------------------------------------------------------- opcount


class OpCount:
    """CountingField runs through opbench.bench_on at L=150."""

    L = 150

    def setup(self, gt, seed):
        rng = random.Random(seed)
        L = self.L
        A, u, E = _uniform(rng, L + 1), _uniform(rng, 2 * L + 1), \
            _uniform(rng, 2 * L + 1)

        def shanks(span):
            with span("engines.shanks_prepare", "shanks"):
                pair = gt.shanks_prepare(E)
            with span("opbench.bench_on", "shanks"):
                return gt.bench_on("fsqd", pair.A, pair.u, pair.L)

        ops = [
            Op("opbench.bench_on", m, lambda s, m=m: gt.bench_on(m, A, u, L))
            for m in ("fsqd", "fsqd_diag", "rs")
        ] + [
            Op("opbench.bench_on", "eps",
               lambda s: gt.bench_on("eps", E, None, L)),
            Op("opbench.shanks", "shanks", shanks),
        ]
        return State(ops, {"A": A, "u": u, "E": E, "seed": seed})

    def _tables(self, gt, d, fld):
        L = self.L
        seq = gt.SequencePair(A=d["A"], u=d["u"], L=L)
        pair = gt.shanks_prepare(d["E"])
        return {
            "fsqd": gt.run_fs_qd(seq, field=fld),
            "fsqd_diag": gt.run_fs_qd(seq, diagonal_only=True, field=fld),
            "rs": gt.run_rs(seq, field=fld)[1],
            "eps": gt.run_epsilon(d["E"], field=fld),
            "shanks": gt.run_fs_qd(pair, field=fld),
        }

    def check(self, gt, state, results):
        d, L = state.data, self.L
        reports = _by_engine(state.ops, results)
        errors = []
        for eng in ENGINES:
            rep = reports.get(eng)
            if rep is None:
                errors.append(f"no report from {eng}")
                continue
            if not rep.valid:
                errors.append(f"{eng} report is not valid")
            errors += checks.tally_errors(eng, L, rep.counts.as_dict())
        if reports.get("rs") and reports.get("fsqd"):
            ratio = reports["rs"].total / reports["fsqd"].total
            if not 1.20 <= ratio <= 1.40:
                errors.append(f"rs/fsqd total {ratio:.4f} outside [1.20, 1.40]")

        counted = self._tables(gt, d, gt.CountingField())
        plain = self._tables(gt, d, gt.FloatField())
        for eng in ENGINES:
            errors += checks.bit_identical(plain[eng], counted[eng])
        errs, found = _check_engine_tables(
            counted, d["A"], d["u"], d["E"], L, d["seed"], exact=False)
        return errors + errs, _median(found)

    def layer_pass(self, gt, state, results, span):
        d, L = state.data, self.L
        for _ in range(LAYER_REPS):
            replay(state.ops, span)
            with span("engines.build_qd_table", "fsqd"):
                gt.build_qd_table(d["u"], L, gt.CountingField())
        tables = list(self._tables(gt, d, gt.CountingField()).items())
        read_tables(tables, span)
        out = status_counts(table_statuses(tables))
        out.update(scalar_counts(
            (op.engine, r) for op, r in zip(state.ops, results)
            if r is not None))
        out.update(alloc_peaks(state.ops))
        return out


# ---------------------------------------------------------- integrate-grid

INTEGRANDS = ("exp_decay", "t_exp", "sinc")
GRID_X = (0.0, 0.5, 1.0, 2.0)
GRID_H = (1.0, 1.5, 2.0)
GRID_N = (10, 14, 20)
GRID_SUB = (64, 256)
CLI_ENGINES = ("fsqd", "rs", "eps")
# Integrals from 0 to infinity, known to the benchmark.
REFERENCE = {"exp_decay": 1.0, "t_exp": 1.0, "sinc": math.pi / 2}
EXACT_KERNEL_TOL = 1e-6  # exp_decay and t_exp: only Simpson error remains
SINC_GAIN = {"fsqd": 0.01, "rs": 0.01, "eps": 0.1, "shanks": 0.1}


def grid_points():
    return [
        (f, x, h, n, s)
        for f in INTEGRANDS
        for x in GRID_X
        if not (f == "t_exp" and x == 0.0)  # f(0) = 0 is refused
        for h in GRID_H
        for n in GRID_N
        for s in GRID_SUB
    ]


def _cli_call(main, argv):
    def call(span):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return call


def check_estimate(integrand, engine, diagonal):
    """Checks on one accelerated diagonal (floats, None where not valid).
    Returns (errors, correct digits of the deepest valid entry)."""
    if len(diagonal) < 2 or diagonal[1] is None:
        return ["order-1 diagonal entry is not valid"], 0.0
    ref = REFERENCE[integrand]
    best = next(v for v in reversed(diagonal) if v is not None)
    err = abs(best - ref)
    errors = []
    if integrand == "sinc":
        limit = SINC_GAIN[engine] * abs(diagonal[1] - ref)
    else:
        limit = EXACT_KERNEL_TOL
    if not err <= limit:
        errors.append(f"error {err:.3e} above {limit:.3e}")
    return errors, checks.digits(err / ref)


class IntegrateGrid:
    """`gtransform integrate` through cli.main over a fixed grid, plus the
    diagonal-only fsqd and FS/qd-on-differences library calls on the same
    samples.  The seed shuffles the call order."""

    def setup(self, gt, seed):
        main = importlib.import_module("gtransform.cli").main
        ops, samples = [], {}
        for point in grid_points():
            f, x, h, n, s = point
            spec = gt.make_spec(f)
            cfg = gt.QuadratureConfig(subdivisions_per_panel=s)
            F = gt.sample_F(spec, x, h, n + 1, cfg)
            fx = [spec.f(x + i * h) for i in range(2 * n + 1)]
            samples[point] = (F, fx)
            for eng in CLI_ENGINES:
                argv = ["integrate", "--integrand", f, "--x", repr(x),
                        "--h", repr(h), "--n-max", str(n), "--engine", eng,
                        "--subdivisions", str(s)]
                ops.append(Op("cli.main", eng, _cli_call(main, argv),
                              key=point))
            seq = gt.SequencePair(A=F, u=fx, L=n)
            diag = Op("engines.run_fs_qd", "fsqd_diag",
                      lambda sp, seq=seq: gt.run_fs_qd(seq, diagonal_only=True),
                      latency=False, key=point)

            def shanks(span, F=F):
                with span("engines.shanks_prepare", "shanks"):
                    pair = gt.shanks_prepare(F)
                with span("engines.run_fs_qd", "shanks"):
                    return gt.run_fs_qd(pair)

            ops.append(diag)
            # shanks_prepare refuses a zero difference: where F has already
            # converged to the last bit (exp_decay, h=2, n=20) there is no
            # FS/qd-on-differences call to make.
            if all(a != b for a, b in zip(F, F[1:])):
                ops.append(Op("engines.shanks", "shanks", shanks,
                              latency=False, key=point))
        random.Random(seed).shuffle(ops)
        return State(ops, {"samples": samples})

    def check(self, gt, state, results):
        errors, accuracy, cli_diag = [], [], {}
        for op, res in zip(state.ops, results):
            if res is None or op.name != "cli.main":
                continue
            label = f"{op.key} {op.engine}"
            try:
                doc = checks.parse_strict(res)
            except ValueError as exc:
                errors.append(f"{label}: output is not strict JSON: {exc}")
                continue
            errs, d = check_estimate(op.key[0], op.engine, doc["diagonal"])
            errors += [f"{label}: {e}" for e in errs]
            accuracy.append(d)
            if op.engine == "fsqd":
                cli_diag[op.key] = doc["diagonal"]
        for op, res in zip(state.ops, results):
            label = f"{op.key} {op.engine}"
            if res is None:
                errors.append(f"{label}: no output")
                continue
            if op.name == "cli.main":
                continue
            values = [float(e.value) if e.valid else None
                      for e in res.diagonal()]
            if op.engine == "shanks":
                errs, _ = check_estimate(op.key[0], "shanks", values)
                errors += [f"{label}: {e}" for e in errs]
            elif op.key in cli_diag and [
                None if v is None else v.hex() for v in values
            ] != [None if v is None else float(v).hex()
                  for v in cli_diag[op.key]]:
                errors.append(f"{label}: diagonal differs from integrate fsqd")
        return errors, _median(accuracy)

    def layer_pass(self, gt, state, results, span):
        """Each CLI call again, followed on the same arguments by
        g_transform and sample_F and, for fsqd, by the library fsqd, its
        diagonal-only run and the qd build alone, so that each difference
        compares calls made back to back."""
        samples = state.data["samples"]
        tables, statuses, reports = [], [], []
        f_evals = out_bytes = 0
        for i, (op, res) in enumerate(zip(state.ops, results)):
            f, x, h, n, s = op.key
            F, fx = samples[op.key]
            if op.name != "cli.main":
                if res is not None:
                    tables.append((op.engine, res))
                if op.engine == "shanks":
                    with span(op.name, op.tag, call=i):
                        op.fn(span)
                    pair = gt.shanks_prepare(F)
                    reports.append(("shanks", gt.bench_on(
                        "fsqd", pair.A, pair.u, pair.L)))
                else:
                    reports.append(("fsqd_diag",
                                    gt.bench_on("fsqd_diag", F, fx, n)))
                continue
            if res is not None:
                out_bytes += len(res.encode("utf-8"))
                statuses += [(op.engine, row["status"])
                             for row in checks.parse_strict(res)["table"]]
            cfg = gt.QuadratureConfig(subdivisions_per_panel=s)
            spec = gt.make_spec(f)
            with span(op.name, op.tag, call=i):
                try:
                    op.fn(span)
                except RuntimeError:  # a failing call is counted already
                    pass
            with span("quadrature.g_transform", op.engine, call=i):
                result = gt.g_transform(spec, x, h, n, op.engine, cfg)
            with span("quadrature.sample_F", op.engine, call=i):
                gt.sample_F(spec, x, h, n + 1, cfg)
            tables.append((op.engine, result.table))
            f_evals += self._count_f_evals(gt, op.key, op.engine, cfg)
            if op.engine == "fsqd":
                seq = gt.SequencePair(A=F, u=fx, L=n)
                with span("engines.run_fs_qd", "fsqd", call=i):
                    gt.run_fs_qd(seq)
                with span("engines.run_fs_qd", "fsqd_diag", call=i):
                    gt.run_fs_qd(seq, diagonal_only=True)
                with span("engines.build_qd_table", "fsqd", call=i):
                    gt.build_qd_table(fx, n)
            u = None if op.engine == "eps" else fx
            reports.append((op.engine, gt.bench_on(op.engine, F, u, n)))
        read_tables(tables, span)
        out = status_counts(
            statuses + list(table_statuses(
                [t for t in tables if t[0] in ("fsqd_diag", "shanks")])))
        out.update(scalar_counts(reports))
        out.update(alloc_peaks(state.ops))
        out["quadrature.f_evals"] = f_evals
        out["cli.output_bytes"] = out_bytes
        return out

    @staticmethod
    def _count_f_evals(gt, point, engine, cfg):
        """Evaluations of the integrand in one g_transform call, counted by
        wrapping the catalog spec's f from outside."""
        f, x, h, n, _ = point
        spec = gt.make_spec(f)
        inner, calls = spec.f, [0]

        def counted(t):
            calls[0] += 1
            return inner(t)

        spec.f = counted
        gt.g_transform(spec, x, h, n, engine, cfg)
        return calls[0]


WORKLOADS = {
    "float-deep": FloatDeep,
    "integrate-grid": IntegrateGrid,
    "exact-audit": ExactAudit,
    "opcount": OpCount,
}
