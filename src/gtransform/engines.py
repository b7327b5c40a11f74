"""The four recursive acceleration engines.

All engines run over any scalar field from .scalars and record per-entry
statuses instead of aborting on degenerate data.  Every engine obeys one
rule: an entry breaks down when an operand has broken down, when the field
refuses its divisor, or when the value it would report is not finite; an
entry with an operand not computed (and none broken down) is not
computed.  The field (.scalars) decides whether a divisor is refused or
floored, an rs factor cancelled or a value finite; an engine never does.
Under float arithmetic the divisors that only propagate the
quotient-difference table are floored rather than refused, because their
size is a gauge choice that cancels between the paired numerator and
denominator arrays of the FS recursion.

accelerate runs any method of METHODS in one call: the one the CLI, the
integral driver and opbench make.

All five entry points (run_fs_qd, run_rs, build_qd_table, run_epsilon,
shanks_prepare) take their input through one helper, _input: it infers
the field when none is given, turns every value into a number through
the field's convert, and holds the input rules.  A is not empty; u has
no zero and is not longer than 2L+1; a shorter u, empty included, leaves
the entries that need its missing tail not computed.

Over exact rationals run_fs_qd computes its table fraction-free, on
integer Hankel and FS determinants (_fraction_free_columns), because the
reduced Fractions of the qd sweep are large and every operation on them
pays a gcd.  There an entry breaks down where f_n^(j)(1) = 0, the
determinant of its own system, or where a Sylvester divisor in its cone
is zero; the qd sweep serves build_qd_table and the other fields.

Every engine update is a function from operand columns to a result
column: the qd difference and q update, the M/N update and the final
quotient of fsqd, rs's factor and entry, eps's step.  Each computes only
over the zip of its operand columns, and each guard it asks judges a
whole column in one call.  A guard that scales by operands forms or
takes them itself: the field's differences forms eps's hi - lo, rs's
r0 - r1 and rs's bracket ratio - 1, and judges each next to its two
operands; structural_divisors floors the qd divisor e next to its three
summands q[j+1], q[j] and e[j+1].  value_divisors (every other divisor:
those differences, fsqd's N, rs's c and the Sylvester divisors) and
value_factors (rs's products) refuse only a zero.  Every sweep that
can hold a status (qd, Sylvester, rs, eps) builds its columns through
_apply, one update call per column.  While the run is clean the update
gets the whole columns; once it is not, the slot rule gives each slot
with a status operand its status, and the update runs on the rows of
the others.  The qd and Sylvester sweeps stay clean until exact
arithmetic refuses a divisor (see _qd_sweep); rs and eps, until a column
they produce holds a breakdown.  The float FS sweep holds values only.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import islice, repeat
from typing import Any, List, Tuple

from .scalars import RationalField, infer_field
from .tables import (
    ArgumentError,
    EntryStatus,
    ExtrapolationTable,
    InitializationError,
    QdTable,
    RsTable,
    SequencePair,
)

# A slot of a working column holds its value, or one of these two
# statuses when the entry has none.
BREAKDOWN = EntryStatus.BREAKDOWN
NOT_COMPUTED = EntryStatus.NOT_COMPUTED


def _settled(col, field) -> list:
    """col with every value the field finds not finite marked breakdown,
    so that no engine reports an overflowed or undefined value."""
    finite = field.is_finite
    return [
        s if s is BREAKDOWN or s is NOT_COMPUTED or finite(s) else BREAKDOWN
        for s in col
    ]


def _holds(col, slot=BREAKDOWN) -> bool:
    """Whether a slot of col is slot (a breakdown unless given), tested by
    identity: == would call a Fraction's __eq__ on every slot."""
    return any(map(operator.is_, col, repeat(slot)))


def _pad(col, length: int) -> list:
    """col extended to length slots, each new one not computed: the slots
    whose operands lie past the end of a short u, or past a diagonal."""
    return col + [NOT_COMPUTED] * (length - len(col))


def _input(field, L: int, A, u=()):
    """The field (inferred from A and u when None), and A and u converted
    through its convert: the one input path of every engine.

    L must be non-negative; the callers derive it from A, so an empty A
    is refused here.  u may be shorter than 2L+1, empty included: the
    entries that need its missing tail are then not computed.  A longer u
    is an error, and every u value must be nonzero, as the recursions
    divide by each.
    """
    if L < 0:
        raise ArgumentError(f"L = {L}: A must hold at least one value")
    if len(u) > 2 * L + 1:
        raise ArgumentError(
            f"u holds {len(u)} values but at most 2L+1 = {2 * L + 1} are "
            f"meaningful"
        )
    if field is None:
        field = infer_field([*A, *u])
    A = [field.convert(x) for x in A]
    u = [field.convert(x) for x in u]
    for i, x in enumerate(u):
        if field.is_zero(x):
            raise InitializationError(
                f"u[{i}] is zero; the recursion needs every u value "
                f"nonzero as an initial divisor"
            )
    return field, A, u


def _apply(f, clean, *cols) -> list:
    """The column f makes of cols, one slot per index of their zip: f
    takes operand columns and returns its result column.  While clean (no
    operand slot holds a status), f gets cols as given.

    Otherwise the slot rule holds: a slot inherits the status of its
    operand slots, breakdown first (it propagates to every dependent),
    then not-computed, and f runs once, on the rows where every operand
    holds a value, gathered in order into columns; not at all when there
    are none.  The statuses are found inline, not by a call per slot."""
    if clean:
        return f(*cols)
    out, valued = [], []
    for row in zip(*cols):
        status = None
        for s in row:
            if s is BREAKDOWN:
                status = BREAKDOWN
                break
            if s is NOT_COMPUTED:
                status = NOT_COMPUTED
        if status is None:
            valued.append(row)
        out.append(status)
    if not valued:
        return out
    values = iter(f(*zip(*valued)))
    return [next(values) if s is None else s for s in out]


def _qd_sweep(u, L: int, field):
    """Columns (q_n, e_n, d_n), n = 0..L, of the quotient-difference
    recursion over converted u_0..u_2L.

    e[j][0] = 0; q[j][1] = u_{j+1}/u_j; then
    e[j][n] = q[j+1][n] - q[j][n] + e[j+1][n-1] and
    q[j][n+1] = (e[j+1][n]/d[j][n]) * q[j+1][n],
    where d_n is e_n passed through the field's structural_divisors,
    scaled by the operands that formed it: None where the guard refuses a
    slot, e's own status where e has no value.  q_0 and d_0 are empty.

    Until the guard refuses a divisor, the sweep is clean: no slot has
    broken down, and the not-computed slots a short u leaves are each
    column's tail.  A clean column is held without that tail, which _pad
    restores where the column is read, so _apply hands the updates values
    alone.  A refused divisor (only exact arithmetic refuses one, in
    build_qd_table) ends clean: from then on the columns are held at full
    length and swept by the slot rule.
    """
    q = [u1 / u0 for u1, u0 in zip(u[1:], u)]
    e = [field.convert(0)] * (2 * L + 1)
    clean = True
    yield [], e, []
    for n in range(1, L + 1):
        ops = q[1:], q, e[1:]
        e = _apply(_qd_difference, clean, *ops)
        d = _apply(field.structural_divisors, clean, e, *ops)
        if clean and _holds(d, None):
            clean = False
            size = 2 * (L - n) + 1
            q, e, d = _pad(q, size + 1), _pad(e, size), _pad(d, size)
        yield q, e, d
        q = _apply(_ratio_step, clean, e[1:], d, q[1:])


# The qd and M/N updates, column by column; a q entry whose divisor was
# refused (None) breaks down.  The M/N sweep never meets one.
def _qd_difference(q1, q0, ep):
    return [a - b + c for a, b, c in zip(q1, q0, ep)]


def _ratio_step(e1, d, q1):
    return [BREAKDOWN if den is None else (a / den) * b
            for a, den, b in zip(e1, d, q1)]


def _difference_step(x1, x0, d):
    return [(a - b) / den for a, b, den in zip(x1, x0, d)]


def build_qd_table(u, L: int, field=None) -> QdTable:
    """Quotient-difference arrays from u_0..u_2L, column by column (see
    _qd_sweep).  A short u (fewer than 2L+1 values) leaves the entries
    that would need the missing tail not-computed; a longer u is an
    error."""
    field, _, u = _input(field, L, (), u)
    q_cols, e_cols = [], []
    for n, (q, e, _) in enumerate(_qd_sweep(u, L, field)):
        q_cols.append(_pad(q, 2 * (L - n) + 2) if n else q)
        e_cols.append(_pad(e, 2 * (L - n) + 1))
    return QdTable(q_cols, e_cols)


def _sylvester_sweep(g, bs, L: int, field):
    """Columns (f_n, clean), n = 1..L, of integer FS determinants, with
    the Hankel determinants they divide by, by Sylvester's identity.

    From g = U_0..U_m and integer vectors b_0..b_L in bs, G_n[j] is
    H_n^(j), the Hankel determinant of U_j..U_{j+2n-2}, and f_n holds
    f_n^(j)(b) for each b, from H_0 = 1, H_1^(j) = U_j and f_0(b) = b:
      H_{n+1}^(j) = (H_n^(j) H_n^(j+2) - (H_n^(j+1))^2) / H_{n-1}^(j+2),
      f_n^(j) = (f_{n-1}^(j) H_n^(j+1) - H_n^(j) f_{n-1}^(j+1))
                / H_{n-1}^(j+1),
    every division exact, so f_n^(j) is computed for j + 2n - 1 <= m.  A
    divisor the field's column guard refuses breaks its slot down, and
    _apply's slot rule breaks down every slot that depends on it; until
    then, clean holds.
    """
    below, fs, clean = [1] * len(g), bs, True
    for n in range(L):
        if n:
            below, g = g, _apply(_det_step, clean, g, g[1:], g[1:], g[2:],
                                 d[1:])
        d = _apply(field.value_divisors, clean, below[1:len(g)])
        fs = [_apply(_det_step, clean, f, g, f[1:], g[1:], d) for f in fs]
        clean = clean and not _holds(d, None)
        yield fs, clean


def _det_step(a, b, c, e, d):
    # Sylvester's update (a e - b c) / d, the division exact; an entry
    # whose divisor was refused (None) breaks down.
    return [BREAKDOWN if den is None else (w * z - x * y) // den
            for w, x, y, z, den in zip(a, b, c, e, d)]


def _fs_sweep(A, u, L: int, field):
    """Columns (M_n, N_n), n = 0..L, of the FS recursion over converted A
    and u: M_0[j] = A_j/u_j, N_0[j] = 1/u_j, and
    M_n[j] = (M_{n-1}[j+1] - M_{n-1}[j]) / d_n[j], N_n likewise, with d_n
    from _qd_sweep.  Precondition: the field never refuses a qd divisor,
    as the float fields, the only ones run_fs_qd runs this sweep on,
    floor every one.  So every slot holds a value, and a column is held
    without the not-computed tail a short u leaves, as the qd columns
    are."""
    one = field.convert(1)
    M = [a / x for a, x in zip(A, u)]
    N = [one / x for x in u[:len(A)]]
    yield M, N
    for _, _, d in islice(_qd_sweep(u, L, field), 1, None):
        M = _difference_step(M[1:], M, d)
        N = _difference_step(N[1:], N, d)
        yield M, N


def _fraction_free_columns(A, u, L: int, field, diagonal_only: bool):
    """The fsqd table columns over exact rationals.

    Entry (j,n) is A(j,n) = f_n^(j)(A) / f_n^(j)(1).  Scaling u by the
    lcm D_u of its denominators leaves it unchanged, and scaling A by the
    lcm D_A of its own scales it by D_A, so _sylvester_sweep runs on
    integers.  It runs on u without its last value: entry (j,n) reads
    u_j..u_{j+2n-1}, but, as under the qd sweep, it is computed only where
    u holds u_{j+2n}.  An entry breaks down where f_n^(j)(1) is zero (its
    system is singular), or where a divisor in its cone is.
    """
    U = u[:-1]
    d_u = math.lcm(*(x.denominator for x in U))
    d_A = math.lcm(*(x.denominator for x in A))

    def quotients(fA, f1):
        return [BREAKDOWN if den is None else Fraction(num, d_A * den)
                for num, den in zip(fA, field.value_divisors(f1))]

    columns = [A]
    for (fA, f1), clean in _sylvester_sweep(
        [x.numerator * (d_u // x.denominator) for x in U],
        ([x.numerator * (d_A // x.denominator) for x in A], [1] * (L + 1)),
        L, field,
    ):
        width = 1 if diagonal_only else len(f1)
        columns.append(_pad(_apply(quotients, clean, fA[:width], f1[:width]),
                            len(columns[-1]) - 1))
    return columns


def run_fs_qd(
    seq: SequencePair, diagonal_only: bool = False, field=None
) -> ExtrapolationTable:
    """The paired-numerator FS recursion (_fs_sweep) with divisors
    supplied by the quotient-difference table; entry (j,n) is
    M[j][n]/N[j][n].  The sweep holds values only, so each column's
    quotients are formed in one call; an entry breaks down where N is
    zero or a value is not finite.  With diagonal_only the final
    division is performed only for j = 0, which drops the division count
    from 5L^2/2 + O(L) to 2L^2 + O(L); off-diagonal entries beyond
    column 0 are then not computed.

    Over exact rationals the table is computed fraction-free on integer
    determinants instead (_fraction_free_columns): an entry breaks down
    where f_n^(j)(1) = 0, or where a Sylvester divisor in its cone is
    zero.
    """
    L = seq.L
    field, A, u = _input(field, L, seq.A, seq.u)
    method = "fsqd_diag" if diagonal_only else "fsqd"
    if isinstance(field, RationalField):
        return ExtrapolationTable(
            method, _fraction_free_columns(A, u, L, field, diagonal_only))

    value_divisors, finite = field.value_divisors, field.is_finite

    def quotients(M, N):
        # Checked before dividing: a non-finite M or N is never divided,
        # and a quotient that is not finite is never reported.
        return [
            BREAKDOWN if den is None or not (finite(me) and finite(den))
            or not finite(value := me / den) else value
            for me, den in zip(M, value_divisors(N))
        ]

    columns = [_settled(A, field)]
    for M, N in islice(_fs_sweep(A, u, L, field), 1, None):
        width = 1 if diagonal_only else len(M)
        columns.append(_pad(quotients(M[:width], N[:width]),
                            len(columns[-1]) - 1))
    return ExtrapolationTable(method, columns)


def run_rs(seq: SequencePair, field=None) -> Tuple[RsTable, ExtrapolationTable]:
    """The r/s recursion and the accelerated table it drives.

    s[j][0] = 1 and r[j][1] = u_j; then
    s[j][n] = s[j+1][n-1] * (r[j+1][n]/r[j][n] - 1),
    r[j][n+1] = r[j+1][n] * (s[j+1][n]/s[j][n] - 1), and
    entry (j,n) = (r[j][n] T(j+1,n-1) - r[j+1][n] T(j,n-1))
                  / (r[j][n] - r[j+1][n]).

    The r and s quantities carry value information, so the field judges
    their brackets and products, column by column: differences forms each
    bracket ratio - 1 and, under float arithmetic, refuses one that
    cancels to roundoff next to its operands ratio and 1; value_factors
    refuses a zero product under float arithmetic.  A refused r or s is
    marked breakdown at creation; exact zeros stay valid and only fail
    where actually divided by.  The entry's divisor r[j][n] - r[j+1][n]
    is formed by differences too, refused where it cancels next to
    r[j][n] and r[j+1][n], and then by value_divisors where it is zero.

    _apply builds every column under one clean flag for s, r and the values
    (a choice for simplicity: s and r never read the values).  It holds
    unless u is short or column 0 holds a breakdown, until a column does.
    """
    L = seq.L
    field, A, u = _input(field, L, seq.A, seq.u)
    one = field.convert(1)
    differences, value_divisors, value_factors, finite = (
        field.differences, field.value_divisors, field.value_factors,
        field.is_finite)

    def factor(a, b, c):
        # a * (b/c - 1), the r and the s update, in three passes (the
        # ratios, the brackets, the products), each computed on the slots
        # the field has not refused (None): value_divisors judges c,
        # differences forms and judges the bracket, value_factors the
        # product.
        ratios = [None if den is None else y / den
                  for y, den in zip(b, value_divisors(c))]
        brackets = differences(ratios, repeat(one))
        return [BREAKDOWN if v is None else v for v in value_factors(
            [None if p is None else x * p for x, p in zip(a, brackets)])]

    def entry(r0, r1, t1, t0):
        # t1 is never longer than r0 or r1, so r0 - r1 is formed on the
        # rows the entries fill and no other (a counting field counts it).
        dens = value_divisors(differences(r0[:len(t1)], r1))
        return [
            BREAKDOWN if den is None
            or not finite(value := (x0 * y1 - x1 * y0) / den) else value
            for x0, x1, y1, y0, den in zip(r0, r1, t1, t0, dens)
        ]

    r_cols = [[], _pad(u, 2 * L + 1)]
    s_cols = [[one] * (len(r_cols[1]) + 1)]
    columns = [_settled(A, field)]
    clean = len(u) == 2 * L + 1 and not _holds(columns[0])
    for _ in range(L):
        r, t = r_cols[-1], columns[-1]
        s = _apply(factor, clean, s_cols[-1][1:], r[1:], r)
        clean = clean and not _holds(s)
        s_cols.append(s)
        r_cols.append(_apply(factor, clean, r[1:], s[1:], s))
        columns.append(_apply(entry, clean, r, r[1:], t[1:], t))
        clean = clean and not (_holds(r_cols[-1]) or _holds(columns[-1]))
    return RsTable(r_cols, s_cols), ExtrapolationTable("rs", columns)


def run_epsilon(A, field=None) -> ExtrapolationTable:
    """Even columns of the epsilon recursion over the raw sequence.

    eps[j][-1] = 0, eps[j][0] = A_j,
    eps[j][k+1] = eps[j+1][k-1] + 1/(eps[j+1][k] - eps[j][k]).
    Entry (j, n) of the result is eps[j][2n]; odd columns stay internal.
    The field's differences forms eps[j+1][k] - eps[j][k] and refuses it
    where it cancels next to its two operands (under float arithmetic),
    and value_divisors where it is zero; a refused difference or a value
    that is not finite marks the entry, and every entry that depends on
    it, breakdown.  The columns are built by _apply, clean until one
    holds a breakdown: the first two operand columns, zeros and the raw
    A, hold no status.
    """
    L = (len(A) - 1) // 2
    field, vals, _ = _input(field, L, A)
    one = field.convert(1)
    differences, value_divisors, finite = (
        field.differences, field.value_divisors, field.is_finite)

    def step(pv, hi, lo):
        # hi is never longer than pv or lo, so hi - lo is formed on the
        # rows the step fills and no other.
        dens = value_divisors(differences(hi, lo))
        return [
            BREAKDOWN if den is None
            or not finite(value := p + one / den) else value
            for p, den in zip(pv, dens)
        ]

    prev, cur = [field.convert(0)] * len(vals), vals
    columns = [_settled(vals, field)]
    clean = True
    for k in range(len(vals) - 1):
        prev, cur = cur, _apply(step, clean, prev[1:], cur[1:], cur)
        clean = clean and not _holds(cur)
        if k % 2 == 1:
            columns.append(cur)
    return ExtrapolationTable("eps", columns)


def shanks_prepare(A, field=None) -> SequencePair:
    """Difference a raw sequence into the (A, u) input pair.

    From 2L+1 terms: the first L+1 terms become A and the 2L forward
    differences become u_0..u_{2L-1}.  The one unconstructible value
    u_{2L} is padded with the geometric continuation
    u_{2L-1}^2 / u_{2L-2}, chosen because it leaves every accelerated
    value unchanged (u_{2L} enters those entries only through factors
    that cancel) while keeping an exactly geometric tail exactly
    geometric, so exactness-driven degeneracy is still detected.  An
    even-length input needs no pad.  A zero difference is refused here
    so downstream initialization never sees a zero divisor.
    """
    L = (len(A) - 1) // 2
    field, vals, _ = _input(field, L, A)

    u: List[Any] = []
    for k in range(len(vals) - 1):
        d = vals[k + 1] - vals[k]
        if field.is_zero(d):
            raise InitializationError(
                f"zero difference at index {k}: A[{k + 1}] equals A[{k}]"
            )
        u.append(d)
    if len(vals) % 2 == 1 and L >= 1:
        u.append(u[-1] * u[-1] / u[-2])
    return SequencePair(A=vals[: L + 1], u=u, L=L)


METHODS = ("fsqd", "fsqd_diag", "rs", "eps")


def accelerate(method: str, A, u=None, field=None) -> ExtrapolationTable:
    """The table of one method of METHODS: the one way to run an engine.

    fsqd, fsqd_diag (fsqd with diagonal_only) and rs run on the pair
    (A, u), or, when u is None, on shanks_prepare(A): Shanks'
    transformation of A.  eps runs on the raw sequence A and ignores the
    values of u, but a u given with it obeys the input rule of _input, as
    with every other method.
    """
    if method not in METHODS:
        raise ArgumentError(
            f"unknown method {method!r}; choose from {', '.join(METHODS)}"
        )
    if method == "eps":
        if u is not None:
            _input(field, len(A) - 1, A, u)
        return run_epsilon(A, field=field)
    seq = shanks_prepare(A, field=field) if u is None else SequencePair(A, u)
    if method == "rs":
        return run_rs(seq, field=field)[1]
    return run_fs_qd(seq, diagonal_only=method == "fsqd_diag", field=field)
