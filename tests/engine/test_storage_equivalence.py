"""Engine equivalence across storage backends and executors.

The storage backend decides where page bytes live; it must never change
what a join computes or what the paper's cost model charges.  These tests
run every CIJ variant over the same seeded synthetic dataset on all three
backends and both executors and require byte-identical pair lists and
identical ``JoinStats`` (timings excluded — wall clocks differ, counters
must not).
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import clustered_points, uniform_points
from repro.engine import default_engine
from repro.experiments.drivers.common import run_cij
from repro.join.result import CIJResult
from repro.storage.backends import STORAGE_BACKENDS
from tests.oracles import units_in_process

POINTS_P = uniform_points(240, seed=3)
POINTS_Q = uniform_points(210, seed=11)

#: Backends a node subprocess can reopen (the distributed tier's domain):
#: shared files, shared databases, and the remote page server.
SHARED_BACKENDS = ("file", "sqlite", "remote")


def stats_fingerprint(result: CIJResult) -> dict:
    """Every deterministic JoinStats field (CPU timings excluded)."""
    stats = result.stats
    return {
        "algorithm": stats.algorithm,
        "mat_page_accesses": stats.mat_page_accesses,
        "join_page_accesses": stats.join_page_accesses,
        "cells_computed_p": stats.cells_computed_p,
        "cells_computed_q": stats.cells_computed_q,
        "cells_reused_p": stats.cells_reused_p,
        "filter_candidates": stats.filter_candidates,
        "filter_true_hits": stats.filter_true_hits,
        "progress": [(s.page_accesses, s.pairs_reported) for s in stats.progress],
    }


def run_on(backend: str, algorithm: str, **overrides) -> CIJResult:
    return run_cij(algorithm, POINTS_P, POINTS_Q, storage=backend, **overrides)


class TestBackendEquivalence:
    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    def test_serial_results_identical_across_backends(self, algorithm):
        reference = run_on("memory", algorithm)
        for backend in STORAGE_BACKENDS[1:]:
            result = run_on(backend, algorithm)
            assert result.pairs == reference.pairs, backend
            assert stats_fingerprint(result) == stats_fingerprint(reference), backend

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    def test_sharded_results_identical_across_backends(self, algorithm):
        reference = run_on("memory", algorithm, executor="sharded", workers=3)
        for backend in STORAGE_BACKENDS[1:]:
            result = run_on(backend, algorithm, executor="sharded", workers=3)
            assert result.pairs == reference.pairs, backend
            assert stats_fingerprint(result) == stats_fingerprint(reference), backend

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_sharded_pairs_match_serial_on_every_backend(self, backend, algorithm):
        serial = run_on(backend, algorithm)
        sharded = run_on(backend, algorithm, executor="sharded", workers=3)
        assert sharded.pairs == serial.pairs

    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_sharded_fm_stats_identical_to_serial(self, backend):
        """The partitioned traversal *is* the serial coupled traversal, so
        a sharded FM matches the serial JoinStats byte for byte — the
        progress curve included."""
        serial = run_on(backend, "fm")
        sharded = run_on(backend, "fm", executor="sharded", workers=3)
        assert sharded.pairs == serial.pairs
        assert stats_fingerprint(sharded) == stats_fingerprint(serial)

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_one_worker_is_the_serial_run(self, backend, algorithm):
        """``workers=1`` runs the serial join itself, so every JoinStats
        field matches on every backend, the progress curve included."""
        serial = run_on(backend, algorithm)
        sharded = run_on(backend, algorithm, executor="sharded", workers=1)
        assert sharded.pairs == serial.pairs
        assert stats_fingerprint(sharded) == stats_fingerprint(serial)

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_fork_pool_matches_units_in_process(self, backend, algorithm):
        """A fork worker runs each unit it pulls from the dispatch-time
        buffer, so the merged fork output — progress curve included —
        equals the same units run one after another in this process.  The
        buffer holds 30% of the pages (the default here holds none), so a
        worker that kept one unit's warm pages for the next would read
        fewer pages than the reference."""
        forked = run_on(
            backend, algorithm, buffer_fraction=0.3, executor="sharded", workers=2
        )
        with units_in_process():
            reference = run_on(backend, algorithm, buffer_fraction=0.3)
        assert forked.pairs == reference.pairs
        assert stats_fingerprint(forked) == stats_fingerprint(reference)
        assert forked.storage.bytes_read == reference.storage.bytes_read

    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_chained_units_match_serial_accounting(self, backend):
        """Passing NM's REUSE carry from unit to unit, as the nodes do,
        restores the serial reuse chain: every scalar JoinStats counter
        equals the serial run's, and the progress samples keep the serial
        pair milestones, never at earlier access offsets (the units are
        enumerated up front, serial interleaves them)."""
        serial = run_on(backend, "nm")
        with units_in_process(chained=True):
            chained = run_on(backend, "nm")
        assert chained.pairs == serial.pairs
        serial_fp = stats_fingerprint(serial)
        chained_fp = stats_fingerprint(chained)
        serial_fp.pop("progress"), chained_fp.pop("progress")
        assert chained_fp == serial_fp
        assert [s.pairs_reported for s in chained.stats.progress] == [
            s.pairs_reported for s in serial.stats.progress
        ]
        assert all(
            c.page_accesses >= s.page_accesses
            for c, s in zip(chained.stats.progress, serial.stats.progress)
        )

    def test_results_agree_with_brute_oracle(self):
        oracle = set(run_on("memory", "brute").pairs)
        for backend in STORAGE_BACKENDS[1:]:
            for algorithm in ("nm", "pm", "fm"):
                assert set(run_on(backend, algorithm).pairs) == oracle, algorithm


class TestDistributedEquivalence:
    """The distributed tier must be invisible in the merged output.

    ``executor="distributed"`` runs the same work units on node
    subprocesses that reopen the shared on-disk backend read-only; the
    coordinator merges results in unit index order, so pairs, ``JoinStats``
    and the deterministic counters must be byte-identical to the serial
    run on every shared backend the tier supports — the remote page server
    included — and with the REUSE-handoff pipeline, which the distributed
    executor always chains.
    """

    @pytest.mark.parametrize("backend", SHARED_BACKENDS)
    def test_distributed_fm_stats_identical_to_serial(self, backend):
        """FM partitions carry no cross-unit state, so the full
        fingerprint — progress curve included — matches serial."""
        serial = run_on(backend, "fm")
        distributed = run_on(backend, "fm", executor="distributed", nodes=2)
        assert distributed.pairs == serial.pairs
        assert stats_fingerprint(distributed) == stats_fingerprint(serial)

    @pytest.mark.parametrize("algorithm", ["nm", "pm"])
    @pytest.mark.parametrize("backend", SHARED_BACKENDS)
    def test_distributed_scalar_counters_identical_to_serial(
        self, backend, algorithm
    ):
        """Default distributed NM/PM matches every scalar serial counter.

        For NM that relies on the distributed executor chaining the
        REUSE handoff, which restores the serial recomputation counts
        exactly.  Progress samples keep the serial pair milestones, never
        at earlier access offsets: the executor enumerates the leaf units
        up front, while serial interleaves them with the first pairs.
        """
        serial = run_on(backend, algorithm)
        distributed = run_on(backend, algorithm, executor="distributed", nodes=2)
        assert distributed.pairs == serial.pairs
        serial_fp = stats_fingerprint(serial)
        distributed_fp = stats_fingerprint(distributed)
        serial_fp.pop("progress"), distributed_fp.pop("progress")
        assert distributed_fp == serial_fp
        assert [s.pairs_reported for s in distributed.stats.progress] == [
            s.pairs_reported for s in serial.stats.progress
        ]
        assert (
            distributed.stats.progress[0].page_accesses
            >= serial.stats.progress[0].page_accesses
        )

    @pytest.mark.parametrize("backend", SHARED_BACKENDS)
    def test_distributed_nm_matches_the_in_process_chain(self, backend):
        """Nodes run the chained unit pipeline over the wire, leasing
        ahead of the carry; the merged fingerprint — progress curve
        included — equals the same chain run in this process."""
        with units_in_process(chained=True):
            chained = run_on(backend, "nm")
        distributed = run_on(backend, "nm", executor="distributed", nodes=2)
        assert distributed.pairs == chained.pairs
        assert stats_fingerprint(distributed) == stats_fingerprint(chained)

    def test_distributed_rejects_memory_backend(self):
        with pytest.raises(ValueError, match="shared backend"):
            run_on("memory", "nm", executor="distributed", nodes=2)

    def test_server_killed_mid_run_fails_loudly(self):
        """Losing the page server must surface as a loud error — from the
        parent's own connection or as exhausted node failures — never as a
        silently wrong (or empty) result."""
        from repro.datasets.workload import WorkloadConfig, build_workload
        from repro.storage.pageserver import PageServerError, spawn_page_server

        server = spawn_page_server()
        try:
            config = WorkloadConfig(
                storage="remote",
                storage_path=f"{server.host}:{server.port}",
            )
            with build_workload(
                config, points_p=POINTS_P[:80], points_q=POINTS_Q[:80]
            ) as workload:
                server.process.kill()
                server.process.wait(timeout=10)
                with pytest.raises((PageServerError, RuntimeError)):
                    default_engine().run(
                        "nm",
                        workload.tree_p,
                        workload.tree_q,
                        domain=workload.domain,
                        executor="distributed",
                        nodes=2,
                    )
        finally:
            server.stop()


class TestByteAccountingAcrossPlanes:
    """One byte count, whatever plane runs the units.

    A buffer miss moves the same page bytes in the parent, a forked worker
    or a node subprocess, and each unit reports its own delta, so the
    disk's ``storage_stats().bytes_read`` grows by the same amount over a
    join on every executor that reads the same pages as serial
    (``sharded-1`` is the serial run itself).  That is every plane for PM
    and FM.  For NM it excludes the fork pool: forked units never chain
    the REUSE carry, so they recompute cells and read other pages.
    """

    POINTS_P = uniform_points(300, seed=21)
    POINTS_Q = uniform_points(300, seed=22)

    PLANES = {
        "sharded-1": {"executor": "sharded", "workers": 1},
        "fork-2": {"executor": "sharded", "workers": 2},
        "distributed-2": {"executor": "distributed", "nodes": 2},
    }

    def traffic(self, backend, algorithm, **overrides):
        """``(page accesses, bytes read)`` over one join on a fresh workload."""
        from repro.experiments.drivers.common import fresh_workload

        with fresh_workload(self.POINTS_P, self.POINTS_Q, storage=backend) as workload:
            before = workload.disk.storage_stats().bytes_read
            result = default_engine().run(
                algorithm,
                workload.tree_p,
                workload.tree_q,
                domain=workload.domain,
                **overrides,
            )
            moved = workload.disk.storage_stats().bytes_read - before
        return result.stats.total_page_accesses, moved

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_bytes_read_equal_on_every_plane(self, backend, algorithm):
        serial = self.traffic(backend, algorithm)
        assert serial[1] > 0
        for plane, overrides in self.PLANES.items():
            if algorithm == "nm" and plane == "fork-2":
                continue  # unchained: other pages, other bytes
            assert self.traffic(backend, algorithm, **overrides) == serial, plane


class TestSkewedWorkloadScheduling:
    """Pull scheduling balances a skewed workload without changing bytes.

    A clustered ``Q`` concentrates most points — and most join work — in a
    few Hilbert-adjacent leaves, the workload where static contiguous
    chunking leaves one worker with nearly all the expensive units while
    the rest idle.  The coordinator hands units out on demand instead:
    every worker keeps pulling until the queue is dry, so no worker can be
    left with the whole queue, and the unit-order merge keeps the output
    byte-identical to serial regardless of who executed what.
    """

    #: Three dense clusters + uniform background: leaf costs vary wildly.
    SKEWED_Q = clustered_points(360, clusters=3, seed=5)

    def test_distributed_pull_balances_skewed_units(self):
        serial = run_cij("pm", POINTS_P, self.SKEWED_Q, storage="file")
        distributed = run_cij(
            "pm",
            POINTS_P,
            self.SKEWED_Q,
            storage="file",
            executor="distributed",
            nodes=2,
        )
        trace = default_engine().last_executor.last_assignments

        # Merged output: byte-identical to serial despite dynamic
        # assignment (scalars and pair milestones; access offsets shift
        # because the executor enumerates the leaf units up front).
        assert distributed.pairs == serial.pairs
        serial_fp = stats_fingerprint(serial)
        distributed_fp = stats_fingerprint(distributed)
        serial_fp.pop("progress"), distributed_fp.pop("progress")
        assert distributed_fp == serial_fp

        # Scheduling: both nodes really pulled work (each drive thread
        # pulls its first unit before any result returns), no node was
        # handed the entire queue, and together they covered every unit
        # exactly once.
        assert sorted(trace) == ["node-0", "node-1"]
        counts = {worker: len(indices) for worker, indices in trace.items()}
        total = sum(counts.values())
        assert total >= 4
        assert min(counts.values()) >= 1
        assert max(counts.values()) < total
        assert sorted(i for indices in trace.values() for i in indices) == list(
            range(total)
        )

    def test_sharded_fork_pull_balances_skewed_units(self):
        serial = run_cij("pm", POINTS_P, self.SKEWED_Q, storage="memory")
        sharded = run_cij(
            "pm",
            POINTS_P,
            self.SKEWED_Q,
            storage="memory",
            executor="sharded",
            workers=2,
        )
        trace = default_engine().last_executor.last_assignments
        assert sharded.pairs == serial.pairs

        counts = {worker: len(indices) for worker, indices in trace.items()}
        total = sum(counts.values())
        assert sorted(i for indices in trace.values() for i in indices) == list(
            range(total)
        )
        # A fork slow to start can find the queue already drained; when
        # both pulled, neither took the whole queue.
        if len(counts) >= 2:
            assert min(counts.values()) >= 1
            assert max(counts.values()) < total


class TestFileBackedPaging:
    """Acceptance scenario: a file-backed NM-CIJ whose working set exceeds
    the LRU buffer pages real bytes off disk yet reports the same pairs
    and logical I/O as the in-memory run."""

    def test_dataset_larger_than_buffer_pages_bytes_off_disk(self, tmp_path):
        from repro.datasets.workload import WorkloadConfig, build_workload

        results = {}
        for backend in ("memory", "file"):
            config = WorkloadConfig(
                buffer_fraction=0.02,  # the paper's default: a few pages
                storage=backend,
                storage_path=(
                    str(tmp_path / "paging.bin") if backend == "file" else None
                ),
            )
            with build_workload(
                config, points_p=POINTS_P, points_q=POINTS_Q
            ) as workload:
                assert workload.disk.page_count() > workload.disk.buffer.capacity
                result = default_engine().run(
                    "nm", workload.tree_p, workload.tree_q, domain=workload.domain
                )
                counters = workload.disk.counters
                results[backend] = {
                    "pairs": result.pairs,
                    "logical_reads": counters.logical_reads,
                    "physical_reads": counters.reads,
                    "buffer_hits": counters.buffer_hits,
                    "bytes_read": workload.disk.storage_stats().bytes_read,
                }

        memory, file_backed = results["memory"], results["file"]
        assert file_backed["pairs"] == memory["pairs"]
        assert file_backed["logical_reads"] == memory["logical_reads"]
        assert file_backed["physical_reads"] == memory["physical_reads"]
        assert file_backed["buffer_hits"] == memory["buffer_hits"]
        # The in-memory run moves no bytes; the file-backed run re-reads a
        # page's bytes for every buffer miss.
        assert memory["bytes_read"] == 0
        assert file_backed["bytes_read"] > 0
        assert file_backed["physical_reads"] > 0
