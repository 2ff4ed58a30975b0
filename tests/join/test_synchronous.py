"""Tests for the synchronous-traversal intersection join."""


from repro.datasets.synthetic import uniform_points
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.index.bulkload import StreamingBulkLoader
from repro.index.entries import LeafEntry
from repro.index.rtree import RTree
from repro.join.synchronous import join_from_seeds, partitioned_join_seeds
from repro.storage.disk import DiskManager
from tests.oracles import synchronous_join


def rect_tree(disk, tag, rects, leaf_capacity=4):
    """Index a list of rectangles (as degenerate 'cells')."""
    entries = [
        LeafEntry(i, rect, ConvexPolygon.from_rect(rect), size_bytes=40)
        for i, rect in enumerate(rects)
    ]
    tree = RTree(disk, tag)
    loader = StreamingBulkLoader(tree)
    for entry in entries:
        loader.append(entry)
    loader.finish()
    return tree


def count_pairs(tree_a, tree_b, refine=None):
    return sum(1 for _ in synchronous_join(tree_a, tree_b, refine=refine))


class TestSynchronousJoin:
    def test_matches_nested_loop_on_random_rectangles(self):
        import random

        rng = random.Random(91)
        def random_rects(count, seed_offset):
            rects = []
            for _ in range(count):
                x = rng.uniform(0, 9000)
                y = rng.uniform(0, 9000)
                rects.append(Rect(x, y, x + rng.uniform(10, 800), y + rng.uniform(10, 800)))
            return rects

        rects_a = random_rects(60, 0)
        rects_b = random_rects(50, 1)
        disk = DiskManager()
        tree_a = rect_tree(disk, "A", rects_a)
        tree_b = rect_tree(disk, "B", rects_b)
        expected = {
            (i, j)
            for i, ra in enumerate(rects_a)
            for j, rb in enumerate(rects_b)
            if ra.intersects(rb)
        }
        got = {(ea.oid, eb.oid) for ea, eb in synchronous_join(tree_a, tree_b)}
        assert got == expected

    def test_refinement_predicate_filters_pairs(self):
        rects_a = [Rect(0, 0, 10, 10), Rect(20, 20, 30, 30)]
        rects_b = [Rect(5, 5, 15, 15), Rect(25, 25, 35, 35)]
        disk = DiskManager()
        tree_a = rect_tree(disk, "A", rects_a)
        tree_b = rect_tree(disk, "B", rects_b)
        assert count_pairs(tree_a, tree_b) == 2
        none = count_pairs(tree_a, tree_b, refine=lambda a, b: False)
        assert none == 0

    def test_empty_inputs_yield_nothing(self):
        disk = DiskManager()
        tree_a = rect_tree(disk, "A", [Rect(0, 0, 1, 1)])
        empty = RTree(disk, "B")
        assert list(synchronous_join(tree_a, empty)) == []
        assert list(synchronous_join(empty, tree_a)) == []

    def test_trees_of_different_heights(self):
        disk = DiskManager()
        tall_rects = [Rect(i * 10.0, 0.0, i * 10.0 + 5.0, 5.0) for i in range(64)]
        short_rects = [Rect(100.0, 0.0, 400.0, 5.0)]
        tall = rect_tree(disk, "A", tall_rects, leaf_capacity=4)
        short = rect_tree(disk, "B", short_rects)
        assert tall.height > short.height
        expected = sum(1 for r in tall_rects if r.intersects(short_rects[0]))
        assert count_pairs(tall, short) == expected
        assert count_pairs(short, tall) == expected

    def test_partitioned_traversal_is_byte_identical(self):
        """Concatenating the partitions' DFS outputs must reproduce the
        single-stack traversal exactly: same pair *sequence* and the same
        page-access sequence (reads, logical reads and buffer hits)."""
        import random

        rng = random.Random(93)
        def random_rects(count):
            rects = []
            for _ in range(count):
                x = rng.uniform(0, 9000)
                y = rng.uniform(0, 9000)
                rects.append(
                    Rect(x, y, x + rng.uniform(10, 700), y + rng.uniform(10, 700))
                )
            return rects

        rects_a, rects_b = random_rects(80), random_rects(70)

        def build(disk):
            return (
                rect_tree(disk, "A", rects_a, leaf_capacity=4),
                rect_tree(disk, "B", rects_b, leaf_capacity=4),
            )

        disk_classic = DiskManager(buffer_pages=6)
        tree_a, tree_b = build(disk_classic)
        snapshot = disk_classic.counters.snapshot()
        classic = [(a.oid, b.oid) for a, b in synchronous_join(tree_a, tree_b)]
        classic_io = disk_classic.counters.diff(snapshot)

        disk_part = DiskManager(buffer_pages=6)
        tree_a2, tree_b2 = build(disk_part)
        snapshot2 = disk_part.counters.snapshot()
        partitioned = []
        partitions = partitioned_join_seeds(tree_a2, tree_b2)
        assert len(partitions) > 1  # the split is real on this input
        for partition in partitions:
            partitioned.extend(
                (a.oid, b.oid)
                for a, b in join_from_seeds(tree_a2, tree_b2, partition.seeds)
            )
        part_io = disk_part.counters.diff(snapshot2)

        assert partitioned == classic  # sequence equality, order included
        for field in ("reads", "logical_reads", "buffer_hits", "writes"):
            assert getattr(part_io, field) == getattr(classic_io, field), field

    def test_partitioned_seeds_of_empty_tree(self):
        disk = DiskManager()
        tree_a = rect_tree(disk, "A", [Rect(0, 0, 1, 1)])
        empty = RTree(disk, "B")
        assert partitioned_join_seeds(tree_a, empty) == []
        assert partitioned_join_seeds(empty, tree_a) == []

    def test_point_trees_join_on_coincident_points(self):
        points = uniform_points(100, seed=92)
        disk = DiskManager()
        tree_a = RTree(disk, "A")
        tree_b = RTree(disk, "B")
        for oid, point in enumerate(points):
            tree_a.insert_point(oid, point)
            # B holds every other point of A, so exactly those 50 coincide.
            if oid % 2 == 0:
                tree_b.insert_point(oid, point)
        assert count_pairs(tree_a, tree_b) == 50
