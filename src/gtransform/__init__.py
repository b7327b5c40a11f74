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
"""

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
from .quadrature import (
    QuadratureConfig,
    g_transform,
    make_spec,
    sample_F,
)
from .opbench import bench_method, bench_on
from .crosscheck import run_equivalence_suite

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
