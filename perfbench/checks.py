"""Output checks for the benchmark, computed apart from the package.

Every reference here is the benchmark's own: an exact-rational solve of
the defining linear system, the operation-count closed forms derived in
README.md, a strict JSON reader and plain bit comparisons.  Each check
returns a list of error strings (empty when the output is right) and never
raises on a wrong output, so a run can report every fault it finds.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# Entries with order n <= MAX_SOLVE_ORDER are checked against the exact
# solve; deeper entries would make the rational solve the dominant cost.
MAX_SOLVE_ORDER = 8
# Random input makes some of these systems ill-conditioned: eps entries
# at n = 8 were seen 2.9e-9 from the solve (float-deep, seed 30), so a
# bound of 1e-8 would fail on some seed for want of digits, not for a
# fault.  A 1e-6 perturbation of one entry still fails (test_checks.py).
FLOAT_REL_TOL = 1e-7
DIGITS_CAP = 16.0

VALID = "valid"


def _status(entry) -> str:
    return entry.status.value


def _bits(v) -> str:
    return float(v).hex()


def solve_entry(A, u, j: int, n: int) -> Fraction:
    """A(j, n) from the system A_l = A(j,n) + sum_k alpha_k u_{k+l-1},
    l = j..j+n, by fraction Gaussian elimination.

    The unknown A(j, n) sits in the last column, so forward elimination
    alone yields it.
    """
    rows = [
        [Fraction(u[k + l - 1]) for k in range(1, n + 1)]
        + [Fraction(1), Fraction(A[l])]
        for l in range(j, j + n + 1)
    ]
    size = n + 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if pivot is None:
            raise ZeroDivisionError(f"singular system at ({j},{n})")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        for r in range(c + 1, size):
            factor = rows[r][c] / top[c]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], top)]
    return rows[size - 1][size] / rows[size - 1][size - 1]


def shanks_system(E):
    """(A, u) of the Shanks transformation of E: the first L+1 terms and
    the exact forward differences."""
    E = [Fraction(x) for x in E]
    L = (len(E) - 1) // 2
    return E[: L + 1], [E[i + 1] - E[i] for i in range(len(E) - 1)]


def sample_entries(L: int, seed: int, diagonal_only: bool = False):
    """Entries (j, n), n = 1..8, at j in {0, mid, L-n, one seeded j}."""
    rng = random.Random(seed)
    out = []
    for n in range(1, min(MAX_SOLVE_ORDER, L) + 1):
        js = {0} if diagonal_only else {
            0, (L - n) // 2, L - n, rng.randrange(L - n + 1)
        }
        out.extend((j, n) for j in sorted(js))
    return out


def digits(rel: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    if rel <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel))


def float_vs_solve(table, expected, rel_tol: float = FLOAT_REL_TOL):
    """Errors for float entries farther than rel_tol from their exact
    values (a dict keyed (j, n)), and the correct digits of each entry."""
    errors, found = [], []
    for (j, n), exact in expected.items():
        entry = table.get(j, n)
        if _status(entry) != VALID:
            errors.append(f"{table.method} ({j},{n}) is {_status(entry)}")
            continue
        diff = abs(Fraction(float(entry.value)) - exact)
        rel = float(diff / abs(exact)) if exact else float(diff)
        found.append(digits(rel))
        if not rel <= rel_tol:
            errors.append(
                f"{table.method} ({j},{n}) relative error {rel:.3e} "
                f"against the exact solve"
            )
    return errors, found


def exact_vs_solve(table, expected):
    """Errors for exact entries that differ from their exact values."""
    errors = []
    for (j, n), exact in expected.items():
        entry = table.get(j, n)
        if _status(entry) != VALID:
            errors.append(f"{table.method} ({j},{n}) is {_status(entry)}")
        elif entry.value != exact:
            errors.append(f"{table.method} ({j},{n}) differs from the solve")
    return errors


def column_zero(table, values):
    """Column 0 must hold the input exactly."""
    errors = []
    for j, v in enumerate(values):
        entry = table.get(j, 0)
        if _status(entry) != VALID or entry.value != v:
            errors.append(f"{table.method} ({j},0) is not input value {j}")
    return errors


def valid_finite(table):
    errors = []
    for (j, n), entry in table.items():
        if _status(entry) == VALID and not math.isfinite(float(entry.value)):
            errors.append(f"{table.method} ({j},{n}) is valid but not finite")
    return errors


def same_diagonal(full, diag):
    """The diagonal-only run must reproduce the full run's diagonal in
    value bits and status."""
    errors = []
    a, b = full.diagonal(), diag.diagonal()
    if len(a) != len(b):
        return [f"diagonal lengths {len(a)} and {len(b)} differ"]
    for n, (x, y) in enumerate(zip(a, b)):
        if _status(x) != _status(y):
            errors.append(f"diagonal n={n}: {_status(x)} vs {_status(y)}")
        elif _status(x) == VALID and _bits(x.value) != _bits(y.value):
            errors.append(f"diagonal n={n}: {x.value!r} vs {y.value!r}")
    return errors


def bit_identical(a, b):
    """Every entry of b equals a in status and value bits."""
    ea, eb = dict(a.items()), dict(b.items())
    if ea.keys() != eb.keys():
        return [f"{a.method}: entry sets differ"]
    errors = []
    for key, x in ea.items():
        y = eb[key]
        if _status(x) != _status(y) or (
            _status(x) == VALID and _bits(x.value) != _bits(y.value)
        ):
            errors.append(f"{a.method} {key}: {x} vs {y}")
    return errors


def equal_where_valid(a, b, label: str):
    """Exact tables must agree on every entry both hold as valid."""
    eb = dict(b.items())
    errors = []
    for key, x in a.items():
        y = eb.get(key)
        if (
            y is not None
            and _status(x) == VALID
            and _status(y) == VALID
            and x.value != y.value
        ):
            errors.append(f"{label} {key}: {x.value} vs {y.value}")
    return errors


def closed_form(method: str, L: int) -> dict:
    """Operation tallies of one run at size L, derived in README.md.
    The eps input has 2L+1 terms; shanks counts only its fsqd run."""
    fsqd_divisions = {
        "fsqd": (5 * L * L + 9 * L + 4) // 2,
        "shanks": (5 * L * L + 9 * L + 4) // 2,
        "fsqd_diag": 2 * L * L + 5 * L + 2,
    }
    if method in fsqd_divisions:
        return {"additions": 3 * L * L + L,
                "multiplications": L * (L - 1),
                "divisions": fsqd_divisions[method]}
    if method == "rs":
        return {"additions": 3 * L * L + 2 * L,
                "multiplications": 3 * L * L + 2 * L,
                "divisions": (5 * L * L + 3 * L) // 2}
    if method == "eps":
        return {"additions": 4 * L * L + 2 * L, "multiplications": 0,
                "divisions": 2 * L * L + L}
    raise ValueError(f"no closed form for {method!r}")


def tally_errors(method: str, L: int, counts: dict):
    want = closed_form(method, L)
    return [
        f"{method} L={L} {kind}: counted {counts[kind]}, closed form {n}"
        for kind, n in want.items()
        if counts[kind] != n
    ]


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def parse_strict(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)
