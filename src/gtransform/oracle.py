"""Reference implementations built directly from the determinantal
definitions and the defining linear system.

Everything here runs in exact rational arithmetic and exists to validate
the fast recursive engines, not to be fast itself.  Float input is
rejected: Hankel-structured float determinants are too ill-conditioned to
referee anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .tables import ArgumentError, SequencePair

# Determinant and solve sizes stay desk-scale; the oracle exists for
# testing, so a clear refusal beats an open-ended exact computation.
MAX_ORDER = 8


class SingularError(ArithmeticError):
    """A determinant in a denominator vanished."""


def _as_exact(values: Sequence, what: str) -> List[Fraction]:
    out = []
    for i, v in enumerate(values):
        if isinstance(v, Fraction):
            out.append(v)
        elif isinstance(v, int):
            out.append(Fraction(v))
        else:
            raise ArgumentError(
                f"{what}[{i}] is {type(v).__name__}; the oracle accepts "
                f"exact rationals only"
            )
    return out


def _check_order(n: int) -> None:
    if n < 0:
        raise ArgumentError(f"order must be non-negative, got {n}")
    if n > MAX_ORDER:
        raise ArgumentError(
            f"order {n} exceeds the oracle cap of {MAX_ORDER}"
        )


def _det_bareiss_int(rows: List[List[int]]) -> int:
    """Fraction-free elimination on an integer matrix."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, n):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det(rows: List[List[Fraction]]) -> Fraction:
    """Exact determinant by integer fraction-free elimination after
    clearing row denominators; order 0 gives 1."""
    n = len(rows)
    _check_order(n)
    for row in rows:
        if len(row) != n:
            raise ArgumentError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    cleared: List[List[int]] = []
    factor = 1
    for row in rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        cleared.append([int(x * scale) for x in row])
        factor *= scale
    return Fraction(_det_bareiss_int(cleared), factor)


def _window(name: str, values: List[Fraction], lo: int, hi: int,
            what: str) -> None:
    if lo < 0 or hi >= len(values):
        raise ArgumentError(
            f"{what} needs {name} indices {lo}..{hi} but {name} has length "
            f"{len(values)}"
        )


def hankel_det(u: Sequence, j: int, n: int) -> Fraction:
    """Determinant of the n-by-n matrix with entry (l, k) = u_{j+l+k};
    order 0 gives 1."""
    _check_order(n)
    uu = _as_exact(u, "u")
    if n == 0:
        return Fraction(1)
    _window("u", uu, j, j + 2 * n - 2, f"hankel_det(j={j}, n={n})")
    rows = [[uu[j + l + k] for k in range(n)] for l in range(n)]
    return det(rows)


def k_det(u: Sequence, j: int, n: int) -> Fraction:
    """Determinant of the n-by-n matrix whose first row is all ones and
    whose later rows are shifted windows of u; orders 0 and 1 give 1."""
    _check_order(n)
    uu = _as_exact(u, "u")
    if n <= 1:
        return Fraction(1)
    _window("u", uu, j, j + 2 * n - 3, f"k_det(j={j}, n={n})")
    rows = [[Fraction(1)] * n]
    for i in range(1, n):
        rows.append([uu[j + i - 1 + c] for c in range(n)])
    return det(rows)


def r_ref(u: Sequence, j: int, n: int) -> Fraction:
    """r as the ratio of the plain Hankel determinant to the ones-row
    determinant of the same order."""
    den = k_det(u, j, n)
    if den == 0:
        raise SingularError(f"k_det(j={j}, n={n}) = 0")
    return hankel_det(u, j, n) / den


def s_ref(u: Sequence, j: int, n: int) -> Fraction:
    """s as the ratio of the order-(n+1) ones-row determinant to the
    order-n Hankel determinant."""
    den = hankel_det(u, j, n)
    if den == 0:
        raise SingularError(f"hankel_det(j={j}, n={n}) = 0")
    return k_det(u, j, n + 1) / den


def q_ref(u: Sequence, j: int, n: int) -> Fraction:
    """q from the four-Hankel ratio H_{n-1}^(j) H_n^(j+1) over
    H_n^(j) H_{n-1}^(j+1)."""
    den = hankel_det(u, j, n) * hankel_det(u, j + 1, n - 1)
    if den == 0:
        raise SingularError(f"q_ref(j={j}, n={n}): zero denominator")
    return hankel_det(u, j, n - 1) * hankel_det(u, j + 1, n) / den


def e_ref(u: Sequence, j: int, n: int) -> Fraction:
    """e from the four-Hankel ratio H_{n+1}^(j) H_{n-1}^(j+1) over
    H_n^(j) H_n^(j+1)."""
    den = hankel_det(u, j, n) * hankel_det(u, j + 1, n)
    if den == 0:
        raise SingularError(f"e_ref(j={j}, n={n}): zero denominator")
    return hankel_det(u, j, n + 1) * hankel_det(u, j + 1, n - 1) / den


def f_det(b: Sequence, u: Sequence, j: int, n: int) -> Fraction:
    """Determinant of the (n+1)-by-(n+1) matrix with first column
    b_j..b_{j+n} and remaining columns the shifted u windows; order 0
    gives b_j."""
    _check_order(n + 1)
    bb, uu = _as_exact(b, "b"), _as_exact(u, "u")
    _window("b", bb, j, j + n, f"f_det(j={j}, n={n})")
    if n == 0:
        return bb[j]
    _window("u", uu, j, j + 2 * n - 1, f"f_det(j={j}, n={n})")
    rows = []
    for l in range(n + 1):
        row = [bb[j + l]]
        row.extend(uu[(k + 1) + (j + l) - 1] for k in range(n))
        rows.append(row)
    return det(rows)


def psi(b: Sequence, u: Sequence, j: int, n: int) -> Fraction:
    """The ratio of f_det(b) of order n to the Hankel determinant of
    order n+1.  The fast engine's M and N arrays carry (-1)^n times it,
    for b = A and for b = 1."""
    den = hankel_det(u, j, n + 1)
    if den == 0:
        raise SingularError(f"hankel_det(j={j}, n={n + 1}) = 0")
    return f_det(b, u, j, n) / den


@dataclass
class DirectSolveResult:
    value: Optional[Fraction]
    alphas: List[Fraction]
    singular: bool


def direct_solve(seq: SequencePair, j: int, n: int) -> DirectSolveResult:
    """Solve the defining (n+1)-square linear system for the accelerated
    value and its n combination coefficients by exact elimination.

    Row l (l = j..j+n) reads: value + sum_k alpha_k * u_{k+l-1} = A_l.
    Singular systems are reported, not raised.
    """
    _check_order(n)
    if seq.L > MAX_ORDER:
        raise ArgumentError(
            f"L = {seq.L} exceeds the oracle cap of {MAX_ORDER}"
        )
    if j < 0 or n < 0 or j + n > seq.L:
        raise ArgumentError(f"({j},{n}) outside 0 <= j+n <= L = {seq.L}")
    A = _as_exact(seq.A, "A")
    u = _as_exact(seq.u, "u")
    if n == 0:
        return DirectSolveResult(A[j], [], False)
    hi = j + 2 * n - 1
    _window("u", u, j, hi, f"direct_solve(j={j}, n={n})")

    size = n + 1
    # Augmented rows: [1, u_l, ..., u_{l+n-1} | A_l] for l = j..j+n.
    rows = []
    for l in range(j, j + n + 1):
        row = [Fraction(1)]
        row.extend(u[l + k] for k in range(n))
        row.append(A[l])
        rows.append(row)

    for col in range(size):
        pivot = None
        for rr in range(col, size):
            if rows[rr][col] != 0:
                pivot = rr
                break
        if pivot is None:
            return DirectSolveResult(None, [], True)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for rr in range(size):
            if rr != col and rows[rr][col] != 0:
                factor = rows[rr][col]
                rows[rr] = [
                    a - factor * b for a, b in zip(rows[rr], rows[col])
                ]

    value = rows[0][size]
    alphas = [rows[k][size] for k in range(1, size)]
    return DirectSolveResult(value, alphas, False)
