"""Wall-time benchmark of the gtransform package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop (one client, one thread, each call issued
when the previous one returns) in whole rounds of its call list for about
S seconds, checks the outputs of the last round, and prints one JSON
line: correct, attempted, failed and the metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced run
gives the per-layer ones.  The package is imported from the src/
directory beside this one.  See README.md for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

import workloads  # noqa: E402  (beside this file)
from tracing import Tracer, no_span  # noqa: E402

# Set-up is repeated and its median reported; the first repetition also
# pays the standard-library imports, later ones re-execute the package.
SETUP_REPS = 9
ENGINE_CALLS = ("engines.run_fs_qd", "opbench.bench_on")
UNITS = (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_digits", "digits"),
         ("_bytes", "bytes"))

# Machine-speed normalisation.  On the shared machine this benchmark was
# built on, a fixed Python loop ran up to 50% slower for minutes at a
# time, and the package's calls slowed with it.  So every reported time
# is scaled by REF_KERNEL_S over the time of `kernel` measured just before
# and just after the call: a time in ms is the time on a machine where
# the kernel takes 20 ms.  The raw times go to the copy in perfbench/out/.
REF_KERNEL_S = 0.020
KERNEL_EVERY_S = 0.25


class _Cell:
    def __init__(self, value, ok):
        self.value = value
        self.ok = ok


def kernel() -> int:
    """Fixed pure-Python work in two parts.  The first is shaped like the
    float engines: tuple-keyed dict lookups, small objects built through
    __init__, float arithmetic.  The second, dict stores of small lists,
    tracked the exact-arithmetic calls better; together they tracked every
    workload within a few per cent."""
    cells, rows = {}, {}
    x = 1.0
    for i in range(6000):
        prev = cells.get((i - 1, 0))
        cells[(i, 0)] = _Cell(x, prev is None or prev.ok)
        x = x * 1.0000001 + 0.5 / (i + 1)
    for i in range(15000):
        rows[(i, i & 7)] = [x, i]
        x = x * 1.0000001 + 0.5 / (i + 1)
    return len(cells) + len(rows)


def kernel_time() -> float:
    gc.freeze()
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def _unit(name: str) -> str:
    head, _, last = name.rpartition(".")
    base = head if last in workloads.ENGINES else name
    return next((u for end, u in UNITS if base.endswith(end)), "count")


def timed_setup(workload, seed):
    """Import the package afresh and draw the inputs, SETUP_REPS times.
    Returns the module, the workload state, and the raw set-up times with
    the kernel times taken between them."""
    times, kernels = [], []
    for _ in range(SETUP_REPS):
        kernels.append(kernel_time())
        for mod in [m for m in sys.modules
                    if m == "gtransform" or m.startswith("gtransform.")]:
            del sys.modules[mod]
        gc.freeze()
        t0 = perf_counter()
        gt = importlib.import_module("gtransform")
        state = workload.setup(gt, seed)
        times.append(perf_counter() - t0)
    return gt, state, times, kernels


class Measurement:
    def __init__(self, ops):
        self.times = [[] for _ in ops]  # per call: raw seconds, per round
        self.marks = [[] for _ in ops]  # index of the kernel time before it
        self.kernels = []  # kernel times, in the order taken
        self.results = [None] * len(ops)
        self.attempted = 0
        self.failures = []

    def scaled(self, i, normalise=True):
        """Call i's times, each scaled by the kernel times around it."""
        if not normalise:
            return list(self.times[i])
        return [t * REF_KERNEL_S / statistics.mean(self.kernels[k:k + 2])
                for t, k in zip(self.times[i], self.marks[i])]

    def rounds(self, normalise=True):
        """Time of each round's calls."""
        calls = [self.scaled(i, normalise) for i in range(len(self.times))]
        return [sum(r) for r in zip(*calls)]


def measure(ops, seconds, spans):
    """Whole rounds of the call list for about `seconds`: another round
    starts while less than half a round's time would be left over.  The
    kernel runs at each round's start and after every KERNEL_EVERY_S of
    calls.

    After each call, outside its timing, the cyclic garbage it left is
    collected and everything alive is frozen out of the collector's sight
    (gc.freeze).  So a call's collections scan only the objects it makes
    itself, not the outputs the benchmark holds for its checks; otherwise
    which call pays for a full collection would depend on what ran before
    it.

    Rounds cycle through the span factories, one Measurement each, so a
    traced and an untraced series share the same stretch of machine time.
    """
    series = [Measurement(ops) for _ in spans]
    total, rounds = 0.0, 0
    while True:
        for m, span in zip(series, spans):
            m.kernels.append(kernel_time())
            since = 0.0
            with span("round"):
                for i, op in enumerate(ops):
                    t0 = perf_counter()
                    try:
                        with span(op.name, op.tag, call=i):
                            res = op.fn(span)
                    except Exception as exc:  # count it, go on with the round
                        res = None
                        m.failures.append(
                            f"{op.name} {op.tag} {op.key}: {exc!r}")
                    dt = perf_counter() - t0
                    m.times[i].append(dt)
                    m.marks[i].append(len(m.kernels) - 1)
                    m.results[i] = res
                    gc.collect()
                    gc.freeze()
                    total += dt
                    since += dt
                    if since >= KERNEL_EVERY_S:
                        m.kernels.append(kernel_time())
                        since = 0.0
            m.attempted += len(ops)
            rounds += 1
        if total + 0.5 * total / rounds >= seconds:
            return series


def end_to_end(ops, m, setup, normalise=True):
    times, kernels = setup
    setup_scale = (REF_KERNEL_S / statistics.median(kernels)
                   if normalise else 1.0)
    scaled = [m.scaled(i, normalise) for i in range(len(ops))]

    def med_ms(engine):
        return 1e3 * statistics.median(
            t for op, ts in zip(ops, scaled)
            if op.feeds and op.engine == engine for t in ts)

    # Each distinct call contributes its median over the rounds, so the
    # percentiles do not jump between kinds of call from run to run.
    calls = [statistics.median(ts) for op, ts in zip(ops, scaled)
             if op.latency]
    p95 = (statistics.quantiles(calls, n=20, method="inclusive")[18]
           if len(calls) > 1 else calls[0])
    return {
        "setup_s": setup_scale * statistics.median(times),
        "wall_s": statistics.median(m.rounds(normalise)),
        "fsqd_ms": med_ms("fsqd"),
        "fsqd_diag_ms": med_ms("fsqd_diag"),
        "rs_ms": med_ms("rs"),
        "eps_ms": med_ms("eps"),
        "shanks_ms": med_ms("shanks"),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_p95_ms": 1e3 * p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(tracer, layer, scale, overhead_s):
    """Layer metrics from the self times of the layer pass's spans, plus
    the workload's counts.  A name x = a - b is the difference of the
    median times of two public calls made back to back on the same
    inputs."""

    def ms(names, tag=None):
        return scale * tracer.median_ms(names, tag)

    fsqd = ms(ENGINE_CALLS, "fsqd")
    qd = ms("engines.build_qd_table")
    g_transform = ms("quadrature.g_transform")
    sample = ms("quadrature.sample_F")
    cli = ms("cli.main")
    out = {
        "engines.qd_build_ms": qd,
        "engines.fsqd_sweep_ms": fsqd - qd,
        "engines.final_div_ms": fsqd - ms(ENGINE_CALLS, "fsqd_diag"),
        "engines.shanks_prepare_ms": ms("engines.shanks_prepare"),
        "tables.read_ms": scale * tracer.total_ms("tables.read"),
        "quadrature.sample_F_ms": sample,
        "quadrature.engine_ms": g_transform - sample if g_transform else 0.0,
        "cli.overhead_ms": cli - g_transform if cli else 0.0,
        "quadrature.f_evals": 0,
        "cli.output_bytes": 0,
    }
    out.update(layer)
    out["trace.overhead_s"] = overhead_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gtransform", "__init__.py")):
        sys.stderr.write(f"perfbench: no gtransform package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)

    workload = workloads.WORKLOADS[args.workload]()
    gt, state, *setup = timed_setup(workload, args.seed)
    ops = state.ops
    record = {}

    if args.trace:
        rounds, layer = Tracer(), Tracer()
        plain, m = measure(ops, args.seconds, (no_span, rounds.span))
        overhead = (statistics.median(m.rounds())
                    - statistics.median(plain.rounds()))
        m.attempted += plain.attempted
        m.failures += plain.failures
        errors, _ = workload.check(gt, state, m.results)
        kernels = [kernel_time()]
        counts = workload.layer_pass(gt, state, m.results, layer.span)
        kernels.append(kernel_time())
        kernels += plain.kernels + m.kernels
        scale = REF_KERNEL_S / statistics.median(kernels)
        metrics = per_layer(layer, counts, scale, overhead)
        record["raw_metrics"] = per_layer(layer, counts, 1.0, overhead)
        record["spans"] = {"rounds": rounds.records(),
                           "layer": layer.records()}
    else:
        (m,) = measure(ops, args.seconds, (no_span,))
        # Read the process peak before the checks allocate anything.
        metrics = end_to_end(ops, m, setup)
        record["raw_metrics"] = end_to_end(ops, m, setup, normalise=False)
        errors, metrics["accuracy_digits"] = workload.check(
            gt, state, m.results)
    record["kernel_s"] = m.kernels

    for line in (m.failures + errors)[:20]:
        sys.stderr.write(f"perfbench: {line}\n")
    result = {
        "correct": not errors,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {
            k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()
        },
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, **record), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
