"""Convergence acceleration via the higher-order G-transformation.

The package computes extrapolation tables for a sequence A_0..A_L with
an auxiliary sequence u_0..u_{2L}, through four interchangeable engines:
the FS/qd recursive scheme, the rs scheme, the scalar epsilon algorithm,
and an exact determinantal oracle used for cross-checking.  On top of
the engines sit a driver for semi-infinite integrals and an instrumented
arithmetic layer that counts operations per method.

The root holds the names a caller runs the package with.  Everything
else (the oracle, the qd and rs arrays, the counting scalar and its
tally, the report types) is imported from its own module.

Importing the root loads only the fields, the tables and the engines.
The integral driver's names (QuadratureConfig, g_transform, make_spec,
sample_F), the operation counter's (bench_method, bench_on) and the
exact suite's (run_equivalence_suite) load their module on first access
(PEP 562), so a caller of the engines does not pay for compiling them.
"""

import importlib

from .scalars import CountingField, FloatField, ParseError, RationalField
from .tables import (
    ArgumentError,
    Entry,
    EntryStatus,
    ExtrapolationTable,
    InitializationError,
    SequencePair,
)
from .engines import (
    METHODS,
    accelerate,
    build_qd_table,
    run_epsilon,
    run_fs_qd,
    run_rs,
    shanks_prepare,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CountingField",
    "Entry",
    "EntryStatus",
    "ExtrapolationTable",
    "FloatField",
    "InitializationError",
    "METHODS",
    "ParseError",
    "QuadratureConfig",
    "RationalField",
    "SequencePair",
    "accelerate",
    "bench_method",
    "bench_on",
    "build_qd_table",
    "g_transform",
    "make_spec",
    "run_epsilon",
    "run_fs_qd",
    "run_rs",
    "sample_F",
    "shanks_prepare",
    "run_equivalence_suite",
    "__version__",
]

# Root names loaded on first access, each with the submodule defining it.
_LAZY = {
    "QuadratureConfig": "quadrature",
    "g_transform": "quadrature",
    "make_spec": "quadrature",
    "sample_F": "quadrature",
    "bench_method": "opbench",
    "bench_on": "opbench",
    "run_equivalence_suite": "crosscheck",
}


def __getattr__(name):
    """Import the submodule that defines a deferred root name, and bind
    the name here so that later lookups do not come back."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
