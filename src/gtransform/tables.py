"""Table and input types shared by the extrapolation engines.

Every table slot carries a status so degenerate data truncates tables
instead of aborting runs: a zero divisor invalidates one entry and its
dependents, and entries whose inputs are simply unavailable are marked
not-computed rather than breakdown.

Tables are stored as the columns the engines sweep: column n is a plain
list whose slot j holds the value of entry (j, n), or the EntryStatus
BREAKDOWN or NOT_COMPUTED when the entry has no value.  The package
reads the columns; Entry objects are built only when an outside caller
reads a slot through get, items or diagonal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple


class ArgumentError(ValueError):
    """A structurally invalid argument (bad lengths, out-of-range index)."""


class InitializationError(ValueError):
    """Input data violates an engine precondition (for example a zero
    sample where a nonzero divisor is required)."""


class EntryStatus(enum.Enum):
    VALID = "valid"
    BREAKDOWN = "breakdown"
    NOT_COMPUTED = "not_computed"


@dataclass
class Entry:
    """One table slot: a value plus its status.  value is None unless the
    status is VALID."""

    value: Any = None
    status: EntryStatus = EntryStatus.NOT_COMPUTED

    @property
    def valid(self) -> bool:
        return self.status is EntryStatus.VALID


def _entry(slot) -> Entry:
    if isinstance(slot, EntryStatus):
        return Entry(None, slot)
    return Entry(slot, EntryStatus.VALID)


class _ColumnTable:
    """Ragged table keyed by (j, n), held as columns[n][j].  A column may
    be empty (the q and r arrays start at n = 1); slots outside the
    columns read as not computed."""

    def __init__(self, columns: List[list]) -> None:
        self.columns = columns

    def _has(self, j: int, n: int) -> bool:
        return 0 <= n < len(self.columns) and 0 <= j < len(self.columns[n])

    def _slot(self, j: int, n: int):
        if self._has(j, n):
            return self.columns[n][j]
        return EntryStatus.NOT_COMPUTED

    def get(self, j: int, n: int) -> Entry:
        return _entry(self._slot(j, n))

    def set(self, j: int, n: int, entry: Entry) -> None:
        """Overwrite an existing slot."""
        if not self._has(j, n):
            raise ArgumentError(f"table has no slot ({j},{n})")
        self.columns[n][j] = entry.value if entry.valid else entry.status

    def slots(self) -> Iterator[Tuple[int, int, Any]]:
        """(j, n, slot) for every stored slot in (j, n) order; a slot is a
        value or the EntryStatus of an entry without one."""
        depth = max(map(len, self.columns), default=0)
        for j in range(depth):
            for n, col in enumerate(self.columns):
                if j < len(col):
                    yield j, n, col[j]

    def items(self) -> Iterator[Tuple[Tuple[int, int], Entry]]:
        """Every slot in (j, n) order."""
        for j, n, slot in self.slots():
            yield (j, n), _entry(slot)

    def __len__(self) -> int:
        return sum(map(len, self.columns))


class ExtrapolationTable(_ColumnTable):
    """Accelerated values indexed (j, n) for n = 0..limit, tagged with the
    engine that produced it; limit is one less than the column count.
    fsqd and rs store the triangle j+n <= limit; eps stores every entry
    its even columns determine, len(A) - 2n slots in column n
    (2(limit-n)+1 for an odd-length A: 5, 3, 1 at limit 2)."""

    def __init__(self, method: str, columns: List[list]) -> None:
        super().__init__(columns)
        self.method = method
        self.limit = len(columns) - 1

    def value(self, j: int, n: int):
        slot = self._slot(j, n)
        if isinstance(slot, EntryStatus):
            raise ArgumentError(
                f"entry ({j},{n}) is {slot.value}, not valid"
            )
        return slot

    def diagonal(self) -> List[Entry]:
        """Entries (0, n) for n = 0..limit."""
        return [self.get(0, n) for n in range(self.limit + 1)]

    def best(self) -> Optional[Tuple[int, Any]]:
        """The deepest valid diagonal entry (0, n), preferred for summaries
        because diagonal entries converge fastest.  None when even (0,0)
        is unavailable."""
        for n in range(self.limit, -1, -1):
            slot = self._slot(0, n)
            if not isinstance(slot, EntryStatus):
                return n, slot
        return None

    def broken_beyond_first_column(self) -> bool:
        """True when no entry with n >= 1 is valid and at least one of
        them broke down; the rest, if any, were not computed."""
        later = self.columns[1:]
        return (all(isinstance(s, EntryStatus) for col in later for s in col)
                and any(EntryStatus.BREAKDOWN in col for col in later))


class QdTable:
    """Quotient-difference arrays q and e.

    Stored index ranges, for input length 2L+1: q[j][n] for n >= 1 and
    0 <= j <= 2(L-n)+1; e[j][n] for n >= 0 and 0 <= j <= 2(L-n).  These
    are exactly the entries determined by u_0..u_2L.
    """

    def __init__(self, q: List[list], e: List[list]) -> None:
        self.q = _ColumnTable(q)
        self.e = _ColumnTable(e)


class RsTable:
    """Arrays r and s of the rs recursion.

    Stored index ranges: r[j][n] for n >= 1, 0 <= j <= 2(L-n)+2 (which
    admits the single top entry r[0][L+1]); s[j][n] for n >= 0,
    0 <= j <= 2(L-n)+1.
    """

    def __init__(self, r: List[list], s: List[list]) -> None:
        self.r = _ColumnTable(r)
        self.s = _ColumnTable(s)


@dataclass
class SequencePair:
    """The inputs A_0..A_L and u_0..u_2L of the defining linear system.

    Only the length of A is checked here; every engine checks and converts
    the values in one place (engines._input).  u may be shorter than 2L+1,
    empty included; engines then mark the entries that would need the
    missing tail as not computed.  A longer u is an error.
    """

    A: List[Any]
    u: List[Any]
    L: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.L < 0:
            self.L = len(self.A) - 1
        if len(self.A) != self.L + 1:
            raise ArgumentError(
                f"A must hold L+1 = {self.L + 1} values, got {len(self.A)}"
            )
