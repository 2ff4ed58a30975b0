"""The differential update-stream harness.

Every scenario replays an update stream through a
:class:`~repro.dynamic.DynamicJoinSession` and, after **each** batch,
rebuilds the join from scratch over the current pointsets — through the
engine (NM on the live trees, which the session just mutated) and through
the index-free brute oracle — asserting exact pair-set equality.  That is
the subsystem's correctness contract: incremental == rebuild, always.

Backends: the session-side workloads honour ``$REPRO_STORAGE`` (the CI
tier-1 matrix), and one scenario additionally parametrizes all three
backends explicitly.
"""

import random

import pytest

from repro.datasets.workload import (
    DynamicWorkloadConfig,
    WorkloadConfig,
    build_workload,
    generate_update_batches,
)
from repro.engine import JoinEngine
from repro.geometry.point import Point
from repro.join.baseline import brute_force_cij_pairs
from repro.dynamic import DynamicJoinSession, Update, UpdateBatch


def _live_points(session, side):
    cells = session.cells_p if side == "P" else session.cells_q
    return {oid: cell.site for oid, cell in cells.items()}


def _rebuild_pairs(engine, session):
    """A from-scratch engine join over the session's current (mutated) trees."""
    result = engine.run(
        "nm", session.tree_p, session.tree_q, domain=session.domain
    )
    return result.pair_set()


def _oracle_pairs(session):
    points_p = _live_points(session, "P")
    points_q = _live_points(session, "Q")
    return brute_force_cij_pairs(
        list(points_p.values()),
        list(points_q.values()),
        session.domain,
        oids_p=list(points_p),
        oids_q=list(points_q),
    )


def _replay(session, batches, engine, check_oracle=True):
    """Apply every batch, asserting incremental == rebuild after each."""
    previous = session.pair_set()
    for batch in batches:
        delta = session.apply_updates(batch)
        session.check_consistency()
        # The delta is exactly the difference between consecutive answers.
        assert previous | set(delta.added) == session.pairs | set(delta.removed)
        assert set(delta.added).isdisjoint(set(delta.removed))
        assert set(delta.added) <= session.pairs
        assert set(delta.removed).isdisjoint(session.pairs)
        assert session.pair_set() == _rebuild_pairs(engine, session)
        if check_oracle:
            assert session.pair_set() == _oracle_pairs(session)
        previous = session.pair_set()


@pytest.fixture
def engine():
    return JoinEngine()


class TestScriptedStreams:
    def _open(self, n_p=60, n_q=50, seed=3):
        workload = build_workload(WorkloadConfig(n_p=n_p, n_q=n_q, seed=seed))
        session = DynamicJoinSession(
            workload.tree_p, workload.tree_q, domain=workload.domain
        )
        return workload, session

    def test_bootstrap_matches_engine_and_oracle(self, engine):
        _, session = self._open()
        assert session.pair_set() == _rebuild_pairs(engine, session)
        assert session.pair_set() == _oracle_pairs(session)

    def test_mixed_stream(self, engine):
        workload, session = self._open()
        batches = generate_update_batches(
            workload,
            DynamicWorkloadConfig(batches=4, batch_size=6, seed=21),
        )
        _replay(session, batches, engine)

    def test_insert_only_stream(self, engine):
        workload, session = self._open()
        batches = generate_update_batches(
            workload,
            DynamicWorkloadConfig(batches=3, batch_size=5, insert_fraction=1.0, seed=5),
        )
        _replay(session, batches, engine)

    def test_delete_only_stream(self, engine):
        workload, session = self._open()
        batches = generate_update_batches(
            workload,
            DynamicWorkloadConfig(batches=4, batch_size=8, insert_fraction=0.0, seed=6),
        )
        assert all(u.op == "delete" for b in batches for u in b)
        _replay(session, batches, engine)

    def test_single_side_stream(self, engine):
        workload, session = self._open()
        batches = generate_update_batches(
            workload,
            DynamicWorkloadConfig(batches=3, batch_size=6, sides="P", seed=8),
        )
        assert all(u.side == "P" for b in batches for u in b)
        _replay(session, batches, engine)

    def test_boundary_targeting_batches(self, engine):
        """Inserts landing on maintained cell vertices and edge midpoints —
        the configurations where the tie convention matters most."""
        workload, session = self._open(n_p=40, n_q=35, seed=9)
        # Collect boundary locations of the current diagram before mutating.
        targets = []
        for cell in list(session.cells_p.values())[:6]:
            vertices = cell.polygon.vertices
            if len(vertices) < 2:
                continue
            a, b = vertices[0], vertices[1]
            targets.append(Point(a.x, a.y))
            targets.append(Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0))
        assert targets, "expected at least one multi-vertex cell"
        taken = {(c.site.x, c.site.y) for c in session.cells_q.values()}
        inserts = [
            Update("insert", "Q", 70_000 + i, point)
            for i, point in enumerate(targets)
            if (point.x, point.y) not in taken
        ]
        _replay(session, [UpdateBatch(inserts)], engine)
        # ... and deleting them again restores the previous answer shape.
        removals = UpdateBatch(
            [Update("delete", "Q", u.oid) for u in inserts]
        )
        _replay(session, [removals], engine)

    def test_batch_may_reinsert_at_a_deleted_location(self, engine):
        """Deletes release their coordinates within the batch (application
        order is deletes-then-inserts), so replacing a point under a fresh
        oid in one atomic batch is legal — and still exactly differential."""
        _, session = self._open()
        victim = min(session.cells_p)
        location = session.cells_p[victim].site
        batch = UpdateBatch(
            [
                Update("delete", "P", victim),
                Update("insert", "P", 60_000, Point(location.x, location.y)),
            ]
        )
        _replay(session, [batch], engine)
        assert 60_000 in session.cells_p and victim not in session.cells_p

    def test_churn_shrinks_then_regrows_a_side(self, engine):
        """Delete P down to the minimum, then regrow it — the session must
        survive near-empty diagrams (single cells cover the whole domain)."""
        workload, session = self._open(n_p=10, n_q=8, seed=12)
        live = sorted(session.cells_p)
        down = [
            UpdateBatch([Update("delete", "P", oid)]) for oid in live[: len(live) - 1]
        ]
        _replay(session, down, engine)
        assert session.point_count("P") == 1
        regrow = [
            UpdateBatch(
                [Update("insert", "P", 500 + i, Point(123.0 + 77.0 * i, 4_567.0 - 13.0 * i))]
            )
            for i in range(4)
        ]
        _replay(session, regrow, engine)


def _grid_stream(seed, batches=6, batch_size=5):
    """Initial sites and a mixed insert/delete stream on a 500-step integer
    grid over the domain.  Q starts with copies of some P sites and every
    other insert lands on a live opposite-side site, so the stream is full
    of cross-side duplicate coordinates, co-circular sites and exactly
    colinear bisectors (same-side duplicates are invalid and never drawn)."""
    rng = random.Random(seed)
    grid = [Point(500.0 * i, 500.0 * j) for i in range(21) for j in range(21)]
    points_p = rng.sample(grid, 30)
    points_q = rng.sample(points_p, 8) + rng.sample(
        [g for g in grid if g not in points_p], 17
    )
    live = {"P": dict(enumerate(points_p)), "Q": dict(enumerate(points_q))}
    next_oid = {"P": 1000, "Q": 1000}
    stream = []
    for _ in range(batches):
        updates = []
        touched = set()
        for _ in range(batch_size):
            side = rng.choice("PQ")
            other = "Q" if side == "P" else "P"
            deletable = [oid for oid in sorted(live[side]) if (side, oid) not in touched]
            if rng.random() < 0.4 and len(deletable) > 3:
                oid = rng.choice(deletable)
                del live[side][oid]
                updates.append(Update("delete", side, oid))
            else:
                taken = set(live[side].values())
                pool = list(live[other].values()) if rng.random() < 0.5 else grid
                free = [g for g in pool if g not in taken]
                if not free:
                    continue
                oid = next_oid[side]
                next_oid[side] += 1
                live[side][oid] = rng.choice(free)
                updates.append(Update("insert", side, oid, live[side][oid]))
            touched.add((side, oid))
        stream.append(UpdateBatch(updates))
    return points_p, points_q, stream


class TestIntegerGridStreams:
    @pytest.mark.parametrize("seed", range(6))
    def test_grid_stream_with_cross_side_duplicates(self, engine, seed):
        points_p, points_q, stream = _grid_stream(seed)
        workload = build_workload(
            WorkloadConfig(buffer_fraction=0.05), points_p=points_p, points_q=points_q
        )
        with workload:
            session = DynamicJoinSession(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            assert session.pair_set() == _oracle_pairs(session)
            _replay(session, stream, engine)


@pytest.mark.parametrize("storage", ["memory", "file", "sqlite"])
class TestAcrossBackends:
    def test_stream_on_backend(self, engine, storage, tmp_path):
        """The maintenance layer is backend-agnostic: the same stream yields
        the same incremental answers when pages live in a file or SQLite."""
        path = None
        if storage != "memory":
            path = str(tmp_path / f"dynamic.{storage}")
        workload = build_workload(
            WorkloadConfig(n_p=45, n_q=40, seed=4, storage=storage, storage_path=path)
        )
        with workload:
            session = DynamicJoinSession(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            batches = generate_update_batches(
                workload,
                DynamicWorkloadConfig(batches=3, batch_size=6, seed=31),
            )
            _replay(session, batches, engine)


class TestUpdateAccounting:
    def test_incremental_beats_rebuild_on_small_batches(self, engine):
        """The point of the subsystem: a small batch invalidates a small
        neighbourhood, not the ``|P| + |Q|`` cells a rebuild recomputes."""
        workload = build_workload(WorkloadConfig(n_p=150, n_q=150, seed=13))
        session = DynamicJoinSession(
            workload.tree_p, workload.tree_q, domain=workload.domain
        )
        rebuild_cells = len(session.cells_p) + len(session.cells_q)
        batches = generate_update_batches(
            workload, DynamicWorkloadConfig(batches=3, batch_size=4, seed=41)
        )
        for batch in batches:
            delta = session.apply_updates(batch)
            assert 0 < delta.stats.cells_invalidated < rebuild_cells / 2
        assert session.stats.batches_applied == 3
        assert session.stats.updates_applied == 12

    def test_delta_stats_ride_on_each_batch(self, engine):
        workload = build_workload(WorkloadConfig(n_p=40, n_q=40, seed=14))
        session = DynamicJoinSession(
            workload.tree_p, workload.tree_q, domain=workload.domain
        )
        [batch] = generate_update_batches(
            workload, DynamicWorkloadConfig(batches=1, batch_size=5, seed=51)
        )
        delta = session.apply_updates(batch)
        assert delta.stats.batches_applied == 1
        assert delta.stats.updates_applied == 5
        assert delta.stats.pairs_emitted == len(delta.added)
        assert delta.stats.pairs_retracted == len(delta.removed)
        assert session.stats.cells_invalidated == delta.stats.cells_invalidated
