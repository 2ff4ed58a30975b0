"""I/O and work counters shared by the storage layer and the experiments."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class IOCounters:
    """Mutable counters for logical and physical page traffic.

    ``reads``/``writes`` are *physical* accesses (buffer misses / page
    flushes); ``logical_reads`` counts every page request regardless of
    whether the buffer satisfied it.  ``by_tag`` breaks physical accesses
    down by an arbitrary tag (e.g. ``"RP"``, ``"RQ"``, ``"RP_voronoi"``) so
    experiments can attribute cost to materialisation vs. join processing.
    """

    reads: int = 0
    writes: int = 0
    logical_reads: int = 0
    buffer_hits: int = 0
    by_tag: Dict[str, int] = field(default_factory=dict)

    @property
    def page_accesses(self) -> int:
        """Total physical page accesses (reads + writes), the paper's metric."""
        return self.reads + self.writes

    def record_read(self, tag: str, hit: bool) -> None:
        """Record one logical read; a miss also costs a physical read."""
        self.logical_reads += 1
        if hit:
            self.buffer_hits += 1
        else:
            self.reads += 1
            self.by_tag[tag] = self.by_tag.get(tag, 0) + 1

    def record_write(self, tag: str) -> None:
        """Record one physical page write."""
        self.writes += 1
        self.by_tag[tag] = self.by_tag.get(tag, 0) + 1

    def reset(self) -> None:
        """Zero every counter (used between experiment phases)."""
        self.reads = 0
        self.writes = 0
        self.logical_reads = 0
        self.buffer_hits = 0
        self.by_tag.clear()

    def snapshot(self) -> "IOCounters":
        """An independent copy of the current counter values."""
        copy = IOCounters(
            reads=self.reads,
            writes=self.writes,
            logical_reads=self.logical_reads,
            buffer_hits=self.buffer_hits,
        )
        copy.by_tag = dict(self.by_tag)
        return copy

    def diff(self, earlier: "IOCounters") -> "IOCounters":
        """Counters accumulated since the ``earlier`` snapshot."""
        out = IOCounters(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            logical_reads=self.logical_reads - earlier.logical_reads,
            buffer_hits=self.buffer_hits - earlier.buffer_hits,
        )
        tags = set(self.by_tag) | set(earlier.by_tag)
        out.by_tag = {
            tag: self.by_tag.get(tag, 0) - earlier.by_tag.get(tag, 0) for tag in tags
        }
        out.by_tag = {tag: count for tag, count in out.by_tag.items() if count}
        return out

    def absorb(self, other: "IOCounters") -> None:
        """Add another counter set into this one in place.

        The sharded join executor runs each worker against its own forked
        copy of the disk; the parent absorbs every worker's counter delta so
        the shared counters reflect the whole join afterwards.  Fields are
        summed generically so a counter added to the dataclass can never be
        silently dropped from merged results.
        """
        for field_info in fields(self):
            if field_info.name == "by_tag":
                for tag, count in other.by_tag.items():
                    self.by_tag[tag] = self.by_tag.get(tag, 0) + count
            else:
                setattr(
                    self,
                    field_info.name,
                    getattr(self, field_info.name) + getattr(other, field_info.name),
                )
