"""repro.dynamic — incremental CIJ maintenance for dynamic workloads.

The paper's CIJ variants assume static pointsets; this subsystem keeps the
join answer current under insert/delete streams against ``P`` and ``Q``
without full recomputation::

    from repro import DOMAIN, Point
    from repro.dynamic import DynamicJoinSession, Update, UpdateBatch

    session = DynamicJoinSession(tree_p, tree_q, domain=DOMAIN)
    delta = session.apply_updates(UpdateBatch([
        Update("insert", "P", 500, Point(1250.0, 7300.0)),
        Update("delete", "Q", 17),
    ]))
    # delta.added / delta.removed — exactly the pairs that changed

The caller builds the session on two trees that share one DiskManager and
closes it (then the workload) when done.  A batch the session rejects — an
unknown oid, a duplicate location, a point outside the domain — changes
nothing.

Only cells whose nearest-neighbour set can change are recomputed (bounded
by the Lemma-1 influence radius), and only pairs incident to those dirty
cells are re-evaluated; see :mod:`repro.dynamic.maintenance` for the
correctness argument and ``tests/dynamic/`` for the differential harness
that proves incremental == rebuild on every stream.
"""

from repro.dynamic.updates import (
    PairDelta,
    Update,
    UpdateBatch,
    UpdateStats,
    UpdateStreamError,
    load_update_stream,
    parse_update_stream,
)


def __getattr__(name: str):
    # The update records above are dependency-light (geometry only) and
    # imported eagerly; the session pulls in the index/join/voronoi stack,
    # so it loads lazily (PEP 562) — stream generators such as
    # repro.datasets.workload can build update streams without it.
    if name == "DynamicJoinSession":
        from repro.dynamic.maintenance import DynamicJoinSession

        return DynamicJoinSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DynamicJoinSession",
    "PairDelta",
    "Update",
    "UpdateBatch",
    "UpdateStats",
    "UpdateStreamError",
    "load_update_stream",
    "parse_update_stream",
]
