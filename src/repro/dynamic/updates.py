"""Update records for dynamic CIJ workloads.

A dynamic workload is a sequence of :class:`UpdateBatch` objects, each a
group of point insertions/deletions against ``P`` and/or ``Q`` that the
maintenance layer (:mod:`repro.dynamic.maintenance`) applies atomically:
after :meth:`~repro.dynamic.maintenance.DynamicJoinSession.apply_updates`
returns, the maintained pair set equals a from-scratch join over the
updated pointsets, and the returned :class:`PairDelta` lists exactly the
pairs that appeared and disappeared.

The module is dependency-light (geometry only), and the package ``__init__``
exposes the session lazily, so the workload generators in
:mod:`repro.datasets.workload` build update streams without pulling in the
join and Voronoi stack.

Update-stream files
-------------------
The CLI (``cij join --updates FILE``) reads a plain-text stream format, one
operation per line::

    # comments and blank lines are ignored
    insert P 500 1250.5 7300.0
    delete Q 17
    ---

A line of dashes ends the current batch; the final batch needs no
terminator.  ``insert`` takes a side (``P``/``Q``), a fresh object id and
the point coordinates; ``delete`` takes the side and the id of a currently
stored point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Set, Tuple

from repro.geometry.point import Point

#: Operation kinds accepted by :class:`Update`.
OPS = ("insert", "delete")
#: Join sides accepted by :class:`Update`.
SIDES = ("P", "Q")


@dataclass(frozen=True)
class Update:
    """One point insertion or deletion against one side of the join.

    ``point`` is required for inserts; for deletes it may be omitted when
    the maintenance layer can resolve the oid itself (the CLI stream format
    does exactly that), but a given point must match the stored one.  A
    given point must be finite: a NaN or infinite coordinate has no Voronoi
    cell, and rejecting it here makes a stream line carrying one a parse
    error rather than a failed batch.
    """

    op: str
    side: str
    oid: int
    point: Optional[Point] = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown update op {self.op!r}; expected one of {OPS}")
        if self.side not in SIDES:
            raise ValueError(
                f"unknown update side {self.side!r}; expected one of {SIDES}"
            )
        if self.op == "insert" and self.point is None:
            raise ValueError("insert updates must carry the point to insert")
        if self.point is not None and not (
            math.isfinite(self.point.x) and math.isfinite(self.point.y)
        ):
            raise ValueError(
                f"update coordinates must be finite, got {self.point.as_tuple()}"
            )


@dataclass(frozen=True)
class UpdateBatch:
    """A group of updates applied (and accounted) as one maintenance step."""

    updates: Tuple[Update, ...]

    def __init__(self, updates: Iterable[Update]):
        object.__setattr__(self, "updates", tuple(updates))
        if not self.updates:
            raise ValueError("an update batch must contain at least one update")
        seen: Set[Tuple[str, str, int]] = set()
        for update in self.updates:
            key = (update.op, update.side, update.oid)
            if key in seen:
                raise ValueError(
                    f"duplicate {update.op} of {update.side} oid {update.oid} "
                    "in one batch"
                )
            seen.add(key)
            if (("delete" if update.op == "insert" else "insert"),
                    update.side, update.oid) in seen:
                raise ValueError(
                    f"batch both inserts and deletes {update.side} oid "
                    f"{update.oid}; split the operations across batches"
                )

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    def by_side(self, side: str) -> List[Update]:
        """The batch's updates against one side, in stream order."""
        return [u for u in self.updates if u.side == side]


@dataclass
class UpdateStats:
    """Update-phase accounting, alongside the paper's MAT/JOIN split.

    Scalar counters accumulate over every applied batch; a per-batch
    snapshot rides on each :class:`PairDelta`.
    """

    #: Batches applied so far.
    batches_applied: int = 0
    #: Individual insert/delete operations applied.
    updates_applied: int = 0
    #: Maintained cells whose region could change and was recomputed
    #: (includes the cells of freshly inserted points).
    cells_invalidated: int = 0
    #: Result pairs removed from the maintained answer.
    pairs_retracted: int = 0
    #: Result pairs added to the maintained answer.
    pairs_emitted: int = 0

    def accumulate(self, other: "UpdateStats") -> None:
        """Add another record's counters into this one (generically, so a
        new counter can never be silently dropped from session totals)."""
        for field_info in fields(self):
            setattr(
                self,
                field_info.name,
                getattr(self, field_info.name) + getattr(other, field_info.name),
            )


@dataclass(frozen=True)
class PairDelta:
    """The change one update batch made to the join answer."""

    #: Pairs present after the batch but not before, sorted.
    added: Tuple[Tuple[int, int], ...]
    #: Pairs present before the batch but not after, sorted.
    removed: Tuple[Tuple[int, int], ...]
    #: Update-phase accounting for exactly this batch.
    stats: UpdateStats

    def __len__(self) -> int:
        return len(self.added) + len(self.removed)

    def is_empty(self) -> bool:
        return not self.added and not self.removed


class UpdateStreamError(ValueError):
    """A malformed update-stream file (carries the offending line number)."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"update stream line {line_number}: {message}")
        self.line_number = line_number


def parse_update_stream(lines: Iterable[str]) -> List[UpdateBatch]:
    """Parse the text stream format into batches (see the module docstring)."""
    batches: List[UpdateBatch] = []
    current: List[Update] = []
    #: (side, oid) pairs the current batch already touches: the batch-level
    #: consistency rules are enforced here, per line, so the diagnostic
    #: points at the offending line rather than the batch separator.
    touched: Set[Tuple[str, str, int]] = set()

    def flush(line_number: int) -> None:
        if not current:
            return
        try:
            batches.append(UpdateBatch(current))
        except ValueError as error:  # unreachable: enforced per line above
            raise UpdateStreamError(line_number, str(error)) from None
        current.clear()
        touched.clear()

    line_number = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if set(line) == {"-"}:
            flush(line_number)
            continue
        tokens = line.split()
        op = tokens[0].lower()
        if op not in OPS:
            raise UpdateStreamError(
                line_number, f"unknown operation {tokens[0]!r}; expected insert/delete"
            )
        expected = 5 if op == "insert" else 3
        if len(tokens) != expected:
            raise UpdateStreamError(
                line_number,
                f"{op} takes {expected - 1} arguments "
                f"({'side oid x y' if op == 'insert' else 'side oid'}), "
                f"got {len(tokens) - 1}",
            )
        side = tokens[1].upper()
        if side not in SIDES:
            raise UpdateStreamError(
                line_number, f"unknown side {tokens[1]!r}; expected P or Q"
            )
        try:
            oid = int(tokens[2])
        except ValueError:
            raise UpdateStreamError(
                line_number, f"object id must be an integer, got {tokens[2]!r}"
            ) from None
        point = None
        if op == "insert":
            try:
                point = Point(float(tokens[3]), float(tokens[4]))
            except ValueError:
                raise UpdateStreamError(
                    line_number, f"coordinates must be numbers, got {tokens[3:5]!r}"
                ) from None
        if (op, side, oid) in touched:
            raise UpdateStreamError(
                line_number, f"duplicate {op} of {side} oid {oid} in one batch"
            )
        other_op = "delete" if op == "insert" else "insert"
        if (other_op, side, oid) in touched:
            raise UpdateStreamError(
                line_number,
                f"batch both inserts and deletes {side} oid {oid}; "
                "split the operations across batches (insert a new line of "
                "dashes between them)",
            )
        touched.add((op, side, oid))
        try:
            current.append(Update(op=op, side=side, oid=oid, point=point))
        except ValueError as error:
            raise UpdateStreamError(line_number, str(error)) from None
    flush(line_number + 1)
    return batches


def load_update_stream(path: str) -> List[UpdateBatch]:
    """Read and parse an update-stream file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_update_stream(handle)
