"""Property-based differential testing of random update streams.

Hypothesis drives random interleaved insert/delete streams (including
streams that delete a side down to one point and streams landing new
points on the snapped grid the base sets came from) against a
:class:`~repro.dynamic.DynamicJoinSession`.  After every batch the
maintained pair set must equal the index-free brute oracle computed over
the current pointsets, the session bookkeeping must be internally
consistent, and both source R-trees must satisfy their structural
invariants.

Tier-1 runs these derandomized (see tests/conftest.py); the scheduled
``HYPOTHESIS_PROFILE=explore`` CI job re-enables randomized search.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import DOMAIN
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.dynamic import DynamicJoinSession, Update, UpdateBatch
from tests.oracles import brute_force_cij_pairs
from tests.conftest import distinct_pointsets, grid_points_strategy

#: An op template: (kind, side selector, payload draw).  Deletes pick a live
#: oid by index so every drawn stream is applicable by construction.
_op_template = st.tuples(
    st.sampled_from(["insert", "delete"]),
    st.sampled_from(["P", "Q"]),
    st.integers(min_value=0, max_value=10_000),
    grid_points_strategy(),
)

_streams = st.lists(
    st.lists(_op_template, min_size=1, max_size=5),
    min_size=1,
    max_size=3,
)


def _materialise(batch_templates, live, taken, next_oid):
    """Turn op templates into an applicable :class:`UpdateBatch`, or None."""
    updates = []
    touched = {"P": set(), "Q": set()}
    for kind, side, pick, point in batch_templates:
        if kind == "delete":
            candidates = [oid for oid in sorted(live[side]) if oid not in touched[side]]
            if len(candidates) <= 1:
                continue  # keep every side non-empty
            oid = candidates[pick % len(candidates)]
            touched[side].add(oid)
            del live[side][oid]
            updates.append(Update("delete", side, oid))
        else:
            if (point.x, point.y) in taken[side]:
                continue
            oid = next_oid[side]
            next_oid[side] += 1
            touched[side].add(oid)
            live[side][oid] = point
            taken[side].add((point.x, point.y))
            updates.append(Update("insert", side, oid, point))
    return UpdateBatch(updates) if updates else None


class TestRandomStreams:
    @given(
        distinct_pointsets(min_size=3, max_size=8),
        distinct_pointsets(min_size=3, max_size=8),
        _streams,
    )
    @settings(max_examples=20, deadline=None)
    def test_incremental_equals_oracle_after_every_batch(self, points_p, points_q, stream):
        workload = build_workload(
            WorkloadConfig(buffer_fraction=0.05), points_p=points_p, points_q=points_q
        )
        session = DynamicJoinSession(
            workload.tree_p,
            workload.tree_q,
            domain=DOMAIN,
        )
        live = {
            "P": dict(enumerate(points_p)),
            "Q": dict(enumerate(points_q)),
        }
        taken = {
            side: {(p.x, p.y) for p in live[side].values()} for side in ("P", "Q")
        }
        next_oid = {"P": len(points_p) + 1000, "Q": len(points_q) + 1000}

        def oracle():
            return brute_force_cij_pairs(
                list(live["P"].values()),
                list(live["Q"].values()),
                DOMAIN,
                oids_p=list(live["P"]),
                oids_q=list(live["Q"]),
            )

        assert session.pair_set() == oracle()
        for batch_templates in stream:
            batch = _materialise(batch_templates, live, taken, next_oid)
            if batch is None:
                continue
            delta = session.apply_updates(batch)
            # Internal bookkeeping, structural R-tree invariants included.
            session.check_consistency()
            # The answer equals a from-scratch computation...
            assert session.pair_set() == oracle()
            # ...and the reported delta is exactly the answer's change.
            assert set(delta.added) <= session.pairs
            assert set(delta.removed).isdisjoint(session.pairs)

    @given(
        distinct_pointsets(min_size=4, max_size=7),
        distinct_pointsets(min_size=4, max_size=7),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_delete_heavy_stream_down_to_singletons(self, points_p, points_q, pick):
        """Delete-only churn down to one point per side, one op per batch."""
        workload = build_workload(
            WorkloadConfig(buffer_fraction=0.05), points_p=points_p, points_q=points_q
        )
        session = DynamicJoinSession(workload.tree_p, workload.tree_q, domain=DOMAIN)
        live = {"P": dict(enumerate(points_p)), "Q": dict(enumerate(points_q))}
        step = 0
        while len(live["P"]) > 1 or len(live["Q"]) > 1:
            side = "P" if len(live["P"]) > 1 and (step % 2 == 0 or len(live["Q"]) == 1) else "Q"
            oids = sorted(live[side])
            oid = oids[(pick + step) % len(oids)]
            del live[side][oid]
            session.apply_updates(UpdateBatch([Update("delete", side, oid)]))
            session.check_consistency()
            assert session.pair_set() == brute_force_cij_pairs(
                list(live["P"].values()),
                list(live["Q"].values()),
                DOMAIN,
                oids_p=list(live["P"]),
                oids_q=list(live["Q"]),
            )
            step += 1
        # Two singletons always join: both cells are the whole domain.
        assert session.pair_set() == {
            (next(iter(live["P"])), next(iter(live["Q"])))
        }
