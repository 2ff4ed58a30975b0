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

POINTS_P = uniform_points(240, seed=3)
POINTS_Q = uniform_points(210, seed=11)

#: Backends a node subprocess can reopen (the distributed tier's domain):
#: shared files, shared databases, and the remote page server.
SHARED_BACKENDS = ("file", "sqlite", "remote+file")


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

    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_cache_enabled_sharded_nm_matches_serial_accounting(self, backend):
        """With the shard-boundary REUSE handoff the serial reuse chain is
        restored: every scalar JoinStats counter equals the serial run's
        (progress samples keep the same pair milestones but different
        access offsets, because the executor enumerates the leaves up
        front while the serial run interleaves them)."""
        serial = run_on(backend, "nm")
        sharded = run_on(
            backend, "nm", executor="sharded", workers=3, reuse_handoff="always"
        )
        assert sharded.pairs == serial.pairs
        serial_fp = stats_fingerprint(serial)
        sharded_fp = stats_fingerprint(sharded)
        serial_fp.pop("progress"), sharded_fp.pop("progress")
        assert sharded_fp == serial_fp
        assert [s.pairs_reported for s in sharded.stats.progress] == [
            s.pairs_reported for s in serial.stats.progress
        ]

    @pytest.mark.parametrize("algorithm", ["nm", "pm", "fm"])
    @pytest.mark.parametrize("backend", list(STORAGE_BACKENDS))
    def test_inline_shards_match_serial_accounting(self, backend, algorithm):
        """One worker runs every unit in this process, chaining the REUSE
        handoff, so each scalar counter matches the serial run on every
        backend; FM's progress curve matches too, and NM/PM keep the
        serial pair milestones at different access offsets."""
        serial = run_on(backend, algorithm)
        sharded = run_on(backend, algorithm, executor="sharded", workers=1)
        assert sharded.pairs == serial.pairs
        serial_fp = stats_fingerprint(serial)
        sharded_fp = stats_fingerprint(sharded)
        if algorithm == "fm":
            assert sharded_fp == serial_fp
        serial_fp.pop("progress"), sharded_fp.pop("progress")
        assert sharded_fp == serial_fp
        assert [s.pairs_reported for s in sharded.stats.progress] == [
            s.pairs_reported for s in serial.stats.progress
        ]

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
    executor chains by default.
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

        For NM that relies on ``reuse_handoff="auto"`` resolving to the
        chained pipeline on the distributed executor, which restores the
        serial recomputation counts exactly.  Progress samples keep the
        serial pair milestones at different access offsets (the executor
        enumerates the leaf units up front; serial interleaves them).
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

    @pytest.mark.parametrize("backend", SHARED_BACKENDS)
    def test_distributed_nm_matches_sharded_pipeline_bytes(self, backend):
        """Node subprocesses and in-process sharding run the same chained
        unit pipeline, so the full merged fingerprint agrees between them."""
        sharded = run_on(
            backend,
            "nm",
            executor="sharded",
            workers=1,
            reuse_handoff="always",
        )
        distributed = run_on(backend, "nm", executor="distributed", nodes=2)
        assert distributed.pairs == sharded.pairs
        assert stats_fingerprint(distributed) == stats_fingerprint(sharded)

    def test_distributed_rejects_memory_backend(self):
        with pytest.raises(ValueError, match="shared backend"):
            run_on("memory", "nm", executor="distributed", nodes=2)

    def test_server_killed_mid_run_fails_loudly(self):
        """Losing the page server must surface as a loud error — from the
        parent's own connection or as exhausted node failures — never as a
        silently wrong (or empty) result."""
        from repro.datasets.workload import WorkloadConfig, build_workload
        from repro.storage.pageserver import PageServerError, spawn_page_server

        server = spawn_page_server(backing="file")
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
        if len(counts) >= 2:  # no fork support falls back to inline
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
