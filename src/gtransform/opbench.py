"""Operation-count benchmarks for the engines.

Each run feeds a reproducible random input through an engine over
counting arithmetic and reports raw and L^2-normalized tallies.  Random
rather than structured inputs: structured data (geometric, say) breaks
tables down and truncates the counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .engines import METHODS, accelerate
from .scalars import CountingField, OpCounts
from .tables import ArgumentError, EntryStatus

MIN_L = 10


@dataclass
class BenchReport:
    method: str
    L: int
    counts: OpCounts
    normalized: Dict[str, float]
    total: int
    valid: bool


def _draw_input(
    method: str, L: int, seed: int
) -> Tuple[List[float], Optional[List[float]]]:
    rng = random.Random(seed)
    if method == "eps":
        return [rng.uniform(0.5, 1.5) for _ in range(2 * L + 1)], None
    A = [rng.uniform(0.5, 1.5) for _ in range(L + 1)]
    u = [rng.uniform(0.5, 1.5) for _ in range(2 * L + 1)]
    return A, u


def bench_on(
    method: str, A: List[float], u: Optional[List[float]], L: int
) -> BenchReport:
    """Run one engine over counting arithmetic on explicit input.

    Input conversion and status bookkeeping are free; only the arithmetic
    in the engine recursions is tallied.  A breakdown anywhere in the run
    flags the report invalid; the counts then omit the arithmetic of the
    entries that broke down.  L is at least 1.  Every method but eps needs
    L+1 values in A, or, with u None (Shanks' transformation of A), 2L+1
    or 2L+2; eps runs at depth (len(A)-1)//2 whatever L says.
    """
    if L < 1:
        raise ArgumentError(f"L must be at least 1, got {L}")
    if method != "eps" and u is not None and len(A) != L + 1:
        raise ArgumentError(f"A must hold L+1 = {L + 1} values, got {len(A)}")
    if method != "eps" and u is None and len(A) not in (2 * L + 1, 2 * L + 2):
        raise ArgumentError(f"with u None, A must hold 2L+1 = {2 * L + 1} "
                            f"or {2 * L + 2} values, got {len(A)}")
    fld = CountingField()
    table = accelerate(method, A, u, field=fld)
    valid = not any(EntryStatus.BREAKDOWN in col for col in table.columns)
    counts = fld.counts
    L2 = float(L * L)
    normalized = {
        "additions": counts.additions / L2,
        "multiplications": counts.multiplications / L2,
        "divisions": counts.divisions / L2,
    }
    return BenchReport(
        method=method,
        L=L,
        counts=counts,
        normalized=normalized,
        total=counts.total,
        valid=valid,
    )


def bench_method(method: str, L: int, seed: int) -> BenchReport:
    """Benchmark one engine on the standard random input for (L, seed)."""
    if L < MIN_L:
        raise ArgumentError(f"L must be at least {MIN_L}, got {L}")
    A, u = _draw_input(method, L, seed)
    return bench_on(method, A, u, L)


def compare_ratio(L: int, seed: int) -> float:
    """Total-operation ratio rs over fsqd on one shared random input."""
    if L < MIN_L:
        raise ArgumentError(f"L must be at least {MIN_L}, got {L}")
    A, u = _draw_input("fsqd", L, seed)
    rs_report = bench_on("rs", A, u, L)
    fsqd_report = bench_on("fsqd", A, u, L)
    return rs_report.total / fsqd_report.total
