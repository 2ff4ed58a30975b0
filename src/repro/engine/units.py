"""The work-unit plane: serializable, ordered descriptors of join work.

The sharded executor used to pass *materialised* shard units around — the
``Node`` objects of ``R_Q`` leaves, :class:`~repro.join.synchronous.JoinPartition`
instances for FM — which tied scheduling to in-process object graphs (fork
inheritance).  A :class:`WorkUnit` instead names a unit by what is on disk:

* NM-CIJ / PM-CIJ — the page id of one Hilbert-ordered ``R_Q`` leaf;
* FM-CIJ — the seed page-id pairs of one top-level ``R'_P`` join partition.

That makes a unit (a) *serializable* — it crosses the NDJSON node protocol
as canonical JSON and a worker re-opens the pages from the shared backend —
and (b) *ordered* — ``index`` is the unit's position in the algorithm's
serial traversal, which is all the deterministic merge needs: results are
folded in index order, so the merged pair list is byte-identical to serial
no matter which worker produced which unit.

Whether NM-CIJ's REUSE buffer is handed from unit to unit is the
executor's decision, made per run: it builds its
:class:`~repro.engine.coordinator.UnitCoordinator` chained or not.

Enumeration (:meth:`~repro.engine.algorithms.JoinAlgorithm.work_units`) is
charged to the dispatching process, once; *resolving* a descriptor back
into a runnable object
(:meth:`~repro.engine.algorithms.JoinAlgorithm.resolve_unit`) is uncounted
(:meth:`~repro.index.rtree.RTree.peek_node`), mirroring fork semantics
where the already-read node objects crossed into workers for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True, order=True)
class WorkUnit:
    """One schedulable slice of a join phase, by page-range payload."""

    #: Registry name of the algorithm the unit belongs to (``"nm"``...).
    algorithm: str
    #: Position in the algorithm's serial unit order (the merge key).
    index: int
    #: Page-range payload: ``(leaf_page_id,)`` for the leaf-shaped
    #: algorithms, a tuple of ``(page_p, page_q)`` seed pairs for FM.
    payload: Tuple

    def to_wire(self) -> Dict[str, Any]:
        """The unit as a JSON-safe mapping (tuples become lists)."""
        return {
            "algorithm": self.algorithm,
            "index": self.index,
            "payload": [
                list(item) if isinstance(item, tuple) else item
                for item in self.payload
            ],
        }

    @staticmethod
    def from_wire(wire: Dict[str, Any]) -> "WorkUnit":
        """Rebuild a unit from :meth:`to_wire` output (lists become tuples)."""
        return WorkUnit(
            algorithm=wire["algorithm"],
            index=wire["index"],
            payload=tuple(
                tuple(item) if isinstance(item, list) else item
                for item in wire["payload"]
            ),
        )
