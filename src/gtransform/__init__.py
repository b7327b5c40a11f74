"""Convergence acceleration via the higher-order G-transformation.

The package computes extrapolation tables for a sequence A_0..A_L with
an auxiliary sequence u_0..u_{2L}, through four interchangeable engines:
the FS/qd recursive scheme, the rs scheme, the scalar epsilon algorithm,
and an exact determinantal oracle used for cross-checking.  On top of
the engines sit a driver for semi-infinite integrals and an instrumented
arithmetic layer that counts operations per method.
"""

from .scalars import (
    CountingField,
    CountingScalar,
    FloatField,
    OpCounts,
    ParseError,
    RationalField,
    rational_from_text,
)
from .tables import (
    ArgumentError,
    Entry,
    EntryStatus,
    ExtrapolationTable,
    InitializationError,
    QdTable,
    RsTable,
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
from .oracle import (
    DirectSolveResult,
    SingularError,
    direct_solve,
    e_ref,
    f_det,
    hankel_det,
    k_det,
    psi,
    q_ref,
    r_ref,
    s_ref,
)
from .quadrature import (
    ENGINES,
    GTransformResult,
    IntegrandSpec,
    QuadratureConfig,
    g_transform,
    make_spec,
    sample_F,
    simpson_panel,
)
from .opbench import (
    BenchReport,
    bench_method,
    bench_on,
    compare_ratio,
)
from .crosscheck import CheckReport, run_equivalence_suite

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BenchReport",
    "CheckReport",
    "CountingField",
    "CountingScalar",
    "DirectSolveResult",
    "ENGINES",
    "Entry",
    "EntryStatus",
    "ExtrapolationTable",
    "FloatField",
    "GTransformResult",
    "InitializationError",
    "IntegrandSpec",
    "METHODS",
    "OpCounts",
    "ParseError",
    "QdTable",
    "QuadratureConfig",
    "RationalField",
    "RsTable",
    "SequencePair",
    "SingularError",
    "accelerate",
    "bench_method",
    "bench_on",
    "build_qd_table",
    "compare_ratio",
    "direct_solve",
    "e_ref",
    "f_det",
    "g_transform",
    "hankel_det",
    "k_det",
    "make_spec",
    "psi",
    "q_ref",
    "r_ref",
    "rational_from_text",
    "run_epsilon",
    "run_fs_qd",
    "run_rs",
    "s_ref",
    "sample_F",
    "shanks_prepare",
    "simpson_panel",
    "run_equivalence_suite",
    "__version__",
]
