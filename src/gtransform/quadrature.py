"""Driver for semi-infinite integrals.

Builds samples of the running integral F(x+ih) by cumulative panel
quadrature (or a closed form where one exists), feeds the (F, f) sample
pair to an acceleration engine, and reports the accelerated estimates of
the full integral together with errors against a known reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

from .engines import accelerate
from .tables import (ArgumentError, EntryStatus, ExtrapolationTable,
                     InitializationError)


@dataclass
class IntegrandSpec:
    """One integrand on [a, infinity): a sampling function, an optional
    closed-form running integral, and an optional known value of the full
    integral."""

    id: str
    a: float
    f: Callable[[float], float]
    F_closed: Optional[Callable[[float], float]] = None
    reference: Optional[float] = None

    def __post_init__(self) -> None:
        if self.reference is not None and not math.isfinite(self.reference):
            raise InitializationError(
                f"the {self.id} integral from a = {self.a} overflows the "
                f"double range"
            )


def _sinc(t: float) -> float:
    if t == 0.0:
        return 1.0
    try:
        return math.sin(t) / t
    except ValueError:
        # math.sin raises on an overflowed (infinite) sample point; NaN
        # lets the sample check refuse it as bad input.
        return math.nan


def make_spec(integrand_id: str, a: float = 0.0) -> IntegrandSpec:
    """Catalog lookup.  Closed forms and references are exact consequences
    of the lower limit a; sinc has a known value only from a = 0.  A
    reference that overflows the double range is an InitializationError."""
    try:
        ea = math.exp(-a)
    except OverflowError:
        ea = math.inf
    if integrand_id == "exp_decay":
        return IntegrandSpec(
            id="exp_decay",
            a=a,
            f=lambda t: math.exp(-t),
            F_closed=lambda x: ea - math.exp(-x),
            reference=ea,
        )
    if integrand_id == "t_exp":
        return IntegrandSpec(
            id="t_exp",
            a=a,
            f=lambda t: t * math.exp(-t),
            F_closed=lambda x: (1.0 + a) * ea - (1.0 + x) * math.exp(-x),
            reference=(1.0 + a) * ea,
        )
    if integrand_id == "sinc":
        return IntegrandSpec(
            id="sinc",
            a=a,
            f=_sinc,
            F_closed=None,
            reference=(math.pi / 2.0) if a == 0.0 else None,
        )
    raise ArgumentError(
        f"unknown integrand {integrand_id!r}; catalog: "
        "exp_decay, t_exp, sinc"
    )


@dataclass
class QuadratureConfig:
    """Panel-quadrature parameters.  The rule is composite Simpson; the
    subdivision count must be even and at least 2."""

    subdivisions_per_panel: int = 64
    analytic_F: bool = False

    def __post_init__(self) -> None:
        n = self.subdivisions_per_panel
        if n < 2 or n % 2 != 0:
            raise ArgumentError(
                f"subdivisions_per_panel must be even and >= 2, got {n}"
            )


def simpson_panel(
    f: Callable[[float], float], lo: float, hi: float, subdivisions: int
) -> float:
    """Composite Simpson over one panel."""
    if hi < lo:
        raise ArgumentError(f"panel [{lo}, {hi}] is reversed")
    if hi == lo:
        return 0.0
    h = (hi - lo) / subdivisions
    total = f(lo) + f(hi)
    # Interior nodes weigh 4, 2, 4, 2, ..., summed in node order: two per
    # iteration, and the last odd node after the loop when the count is
    # even.
    for i in range(1, subdivisions - 1, 2):
        total += 4.0 * f(lo + i * h)
        total += 2.0 * f(lo + (i + 1) * h)
    if subdivisions % 2 == 0:
        total += 4.0 * f(lo + (subdivisions - 1) * h)
    return total * h / 3.0


def sample_F(
    spec: IntegrandSpec,
    x: float,
    h: float,
    count: int,
    cfg: Optional[QuadratureConfig] = None,
) -> List[float]:
    """F(x), F(x+h), ..., F(x+(count-1)h).

    Quadrature runs cumulatively: one composite panel over [a, x], then
    one per step [x+(i-1)h, x+ih], so no subinterval is integrated twice
    and successive samples differ by exactly one panel integral.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    if h <= 0:
        raise ArgumentError(f"h must be positive, got {h}")
    if x < spec.a:
        raise ArgumentError(f"x = {x} lies below the lower limit a = {spec.a}")
    if cfg.analytic_F and spec.F_closed is not None:
        return [spec.F_closed(x + i * h) for i in range(count)]
    nsub = cfg.subdivisions_per_panel
    running = simpson_panel(spec.f, spec.a, x, nsub) if x > spec.a else 0.0
    out = [running]
    for i in range(1, count):
        running += simpson_panel(spec.f, x + (i - 1) * h, x + i * h, nsub)
        out.append(running)
    return out


@dataclass
class GTransformResult:
    """An accelerated integral table at one (x, h).

    errors[n] is |T(0,n) - spec.reference| for n = 0..limit when the
    integral's value is known; otherwise diagonal_deltas reports the
    successive diagonal differences |T(0,n) - T(0,n-1)| as a heuristic
    proxy.  Either list holds None where an entry it reads is not valid.
    """

    table: ExtrapolationTable
    errors: Optional[List[Optional[float]]]
    diagonal_deltas: Optional[List[Optional[float]]]

    def diagonal_values(self) -> List[Optional[float]]:
        return [None if isinstance(col[0], EntryStatus) else float(col[0])
                for col in self.table.columns]


def _check_finite(name: str, vals: List[float], x: float, h: float) -> None:
    for i, val in enumerate(vals):
        if not math.isfinite(val):
            raise InitializationError(
                f"{name}(x + {i}h) = {name}({x + i * h}) is {val}; the "
                f"samples must be finite"
            )


def g_transform(
    spec: IntegrandSpec,
    x: float,
    h: float,
    n_max: int,
    engine: str = "fsqd",
    cfg: Optional[QuadratureConfig] = None,
) -> GTransformResult:
    """Accelerate F(x+jh) toward the full integral.

    Builds the pair A_i = F(x+ih) (i = 0..n_max) and u_i = f(x+ih)
    (i = 0..2 n_max) and runs the engine, a method of engines.METHODS,
    through accelerate, which refuses any other name.  The eps engine
    ignores u entirely and runs on the F samples alone with its depth
    halved; it is exposed for comparison only.  A sample that is not
    finite (the integrand or its running integral overflowed) is an
    InitializationError, and so, from the engine, is a zero sample of f.
    """
    if n_max < 1:
        raise ArgumentError(f"n_max must be >= 1, got {n_max}")
    if cfg is None:
        cfg = QuadratureConfig()

    F_vals = sample_F(spec, x, h, n_max + 1, cfg)
    _check_finite("F", F_vals, x, h)

    u_vals = None
    if engine != "eps":
        u_vals = [spec.f(x + i * h) for i in range(2 * n_max + 1)]
        _check_finite("f", u_vals, x, h)
    table = accelerate(engine, F_vals, u_vals)

    result = GTransformResult(table, None, None)
    diag = result.diagonal_values()
    ref = spec.reference
    if ref is not None:
        result.errors = [None if v is None else abs(v - ref) for v in diag]
    else:
        result.diagonal_deltas = [
            None if a is None or b is None else abs(b - a)
            for a, b in zip(diag, diag[1:])
        ]
    return result
