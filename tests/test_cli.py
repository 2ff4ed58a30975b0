"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def stream_file(tmp_path):
    """A small valid update stream: one mixed batch, then a delete batch."""
    path = tmp_path / "stream.txt"
    path.write_text(
        "insert P 900 123.5 456.5\n"
        "insert Q 901 7000.0 2500.0\n"
        "---\n"
        "delete P 900\n",
        encoding="utf-8",
    )
    return str(path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command_parses_scale(self):
        args = build_parser().parse_args(["run", "fig7", "--scale", "tiny"])
        assert args.command == "run"
        assert args.experiment == "fig7"
        assert args.scale == "tiny"

    def test_join_command_defaults(self):
        # --method stays unset (None) so --updates can reject an explicit
        # one; the join resolves it to nm (test_join_without_method_runs_nm).
        args = build_parser().parse_args(["join"])
        assert args.n_p == 500 and args.n_q == 500 and args.method is None


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table3" in out

    def test_run_prints_a_table(self, capsys):
        assert main(["run", "fig10a", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "false hit ratio" in out.lower()

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            main(["run", "fig99"])

    def test_join_reports_pair_count(self, capsys):
        assert main(["join", "--n-p", "40", "--n-q", "30", "--method", "nm"]) == 0
        out = capsys.readouterr().out
        assert "result pairs" in out
        assert "page accesses" in out

    def test_invalid_join_method_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["join", "--method", "bogus"])

    def test_removed_compute_flag_rejected_by_argparse(self):
        """The scalar geometry path is the only one: no flag selects it."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "--compute", "scalar"])

    def test_sharded_fm_join_runs(self, capsys):
        """--executor sharded is now legal for fm (partitioned traversal)."""
        assert main([
            "join", "--n-p", "40", "--n-q", "30", "--method", "fm",
            "--executor", "sharded", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded (2 workers)" in out


class TestExecutorReport:
    """The executor line prints the size of the config the run used, not a
    default restated by the CLI."""

    @staticmethod
    def _argv(executor, tmp_path):
        argv = ["join", "--n-p", "40", "--n-q", "30", "--executor", executor]
        if executor == "distributed":
            argv += ["--storage", "file", "--storage-path", str(tmp_path / "p.bin")]
        return argv

    @pytest.mark.parametrize(
        "executor, field", [("sharded", "workers"), ("distributed", "nodes")]
    )
    def test_unset_size_prints_engine_config_default(
        self, capsys, tmp_path, executor, field
    ):
        from repro.engine import EngineConfig

        assert main(self._argv(executor, tmp_path)) == 0
        size = getattr(EngineConfig(), field)
        assert f"executor        : {executor} ({size} {field})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "executor, field", [("sharded", "workers"), ("distributed", "nodes")]
    )
    def test_size_is_read_from_the_resolved_config(
        self, capsys, monkeypatch, tmp_path, executor, field
    ):
        import dataclasses

        import repro.cli as cli

        resolve = cli.resolve_config
        monkeypatch.setattr(
            cli,
            "resolve_config",
            lambda config, overrides: dataclasses.replace(
                resolve(config, overrides), **{field: 1}
            ),
        )
        assert main(self._argv(executor, tmp_path)) == 0
        assert f"executor        : {executor} (1 {field})" in capsys.readouterr().out


class TestWorkersValidation:
    """--workers used to be silently ignored with --executor serial; both
    contradictions are now rejected with a clear parser error."""

    def test_nonpositive_workers_rejected_everywhere(self, capsys):
        for argv in (
            ["join", "--workers", "0"],
            ["join", "--workers", "-3", "--executor", "sharded"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "workers must be at least 1" in capsys.readouterr().err

    def test_workers_with_serial_executor_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--workers", "4"])  # serial is the default
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no effect with --executor serial" in err

    def test_single_worker_with_serial_executor_allowed(self, capsys):
        """--workers 1 states the serial fact explicitly; not an error."""
        assert main(["join", "--n-p", "30", "--n-q", "20", "--workers", "1"]) == 0
        assert "result pairs" in capsys.readouterr().out

    def test_workers_with_sharded_executor_allowed(self, capsys):
        assert main([
            "join", "--n-p", "30", "--n-q", "20",
            "--executor", "sharded", "--workers", "3",
        ]) == 0
        assert "result pairs" in capsys.readouterr().out

    def test_workers_with_distributed_executor_rejected(self, capsys):
        """--workers sizes the sharded fork pool only; the distributed
        executor is sized by --nodes."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "join", "--storage", "file", "--executor", "distributed",
                "--nodes", "2", "--workers", "4",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers 4 has no effect with --executor distributed" in err


class TestRemovedHandoffFlag:
    """Where the units run decides whether NM's REUSE buffer crosses unit
    boundaries; argparse rejects the old flag as an unknown argument."""

    def test_reuse_handoff_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--executor", "sharded", "--reuse-handoff", "always"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRemovedPrefetchFlags:
    """Every page fetch is synchronous: the overlapped-I/O flags are gone
    and argparse rejects them as unknown arguments."""

    @pytest.mark.parametrize(
        "flag",
        [
            ["--prefetch", "next_batch"],
            ["--prefetch-depth", "2"],
            ["--fetch-latency-ms", "2"],
        ],
    )
    def test_prefetch_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRemovedStorageSpellings:
    """One name per page store: ``--storage remote --storage-path
    HOST:PORT`` is the only way to attach to a page server, and the server
    always serves a file store."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--page-server", "127.0.0.1:1"], "unrecognized arguments"),
            (["--storage", "remote+sqlite"], "invalid choice"),
        ],
    )
    def test_removed_spellings_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestNumericArgumentValidation:
    """Bad numbers are usage errors at parse time (exit 2), never a
    traceback from deep inside the run."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["join", "--n-p", "-5"], "--n-p"),
            (["join", "--n-q", "0"], "--n-q"),
            (["serve", "--n-p", "-5"], "--n-p"),
            (["serve", "--n-q", "0"], "--n-q"),
            (["serve", "--port", "99999"], "--port"),
            (["serve", "--port", "-1"], "--port"),
        ],
    )
    def test_out_of_range_numbers_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err

    def test_boundary_values_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "65535", "--n-p", "1", "--n-q", "1"]
        )
        assert (args.port, args.n_p, args.n_q) == (65535, 1, 1)


class TestUpdateStreams:
    """--updates drives incremental maintenance; contradictory executor
    combinations and malformed stream files must fail with clear messages."""

    def test_updates_applies_stream_and_prints_deltas(self, capsys, stream_file):
        assert main([
            "join", "--n-p", "40", "--n-q", "30", "--updates", stream_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "initial pairs" in out
        assert "batch  1" in out and "batch  2" in out
        assert "cells invalidated" in out
        assert "final pairs" in out and "update totals" in out

    def test_updates_path_resolves_the_config_first(self, capsys, stream_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--updates", stream_file, "--workers", "0"])
        assert excinfo.value.code == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_updates_with_sharded_executor_rejected(self, capsys, stream_file):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "join", "--updates", stream_file,
                "--executor", "sharded", "--workers", "2",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--updates requires --executor serial" in err

    @pytest.mark.parametrize("method", ["fm", "nm"])
    def test_updates_with_explicit_method_rejected(self, capsys, stream_file, method):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "join", "--n-p", "30", "--n-q", "20", "--updates", stream_file,
                "--method", method,
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"--method {method} has no effect with --updates" in err
        assert "algorithm-independent" in err

    def test_join_without_method_runs_nm(self, capsys):
        assert main(["join", "--n-p", "30", "--n-q", "20"]) == 0
        assert "algorithm       : NM" in capsys.readouterr().out

    def test_malformed_stream_reports_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("insert P 1 2.0 3.0\nfrobnicate Q 7\n", encoding="utf-8")
        assert main(["join", "--n-p", "30", "--n-q", "20", "--updates", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "update stream line 2" in err
        assert "frobnicate" in err

    def test_missing_stream_file_reports_clearly(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.txt")
        assert main(["join", "--n-p", "30", "--n-q", "20", "--updates", missing]) == 2
        assert "cannot read --updates file" in capsys.readouterr().err

    def test_inapplicable_update_reports_its_batch(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("delete P 99999\n", encoding="utf-8")
        assert main(["join", "--n-p", "30", "--n-q", "20", "--updates", str(path)]) == 2
        err = capsys.readouterr().err
        assert "update batch 1" in err and "no such point" in err


class TestDistributedFlags:
    """--executor distributed / --nodes: the distributed tier's CLI surface.

    Contradictions (nodes without the distributed executor, the
    non-sharding brute oracle, update streams) are rejected loudly with
    exit code 2, in the same style as --workers and --updates.
    """

    def test_distributed_join_runs_on_file_backend(self, capsys, tmp_path):
        assert main([
            "join", "--n-p", "40", "--n-q", "30",
            "--storage", "file", "--storage-path", str(tmp_path / "pages.bin"),
            "--executor", "distributed", "--nodes", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "executor        : distributed (2 nodes)" in out
        assert "result pairs" in out

    def test_nodes_with_serial_executor_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--nodes", "2"])  # serial is the default
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no effect with --executor serial" in err

    def test_nodes_with_sharded_executor_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--executor", "sharded", "--nodes", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no effect with --executor sharded" in err

    def test_nonpositive_nodes_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--executor", "distributed", "--nodes", "0"])
        assert excinfo.value.code == 2
        assert "nodes must be at least 1" in capsys.readouterr().err

    def test_distributed_brute_rejected(self, capsys):
        # The engine's shardable check rejects the oracle before MAT.
        assert main([
            "join", "--n-p", "30", "--n-q", "20", "--method", "brute",
            "--storage", "file", "--executor", "distributed",
        ]) == 2
        err = capsys.readouterr().err
        assert "does not support distributed execution" in err

    def test_distributed_with_updates_rejected(self, capsys, stream_file):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "join", "--updates", stream_file,
                "--storage", "file", "--executor", "distributed",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--updates requires --executor serial" in err

    def test_distributed_memory_backend_reports_error(self, capsys):
        # No --storage: the default memory backend cannot be shared with
        # node subprocesses; the engine's rejection surfaces as exit 2.
        assert main([
            "join", "--n-p", "30", "--n-q", "20", "--executor", "distributed",
        ]) == 2
        assert "shared backend" in capsys.readouterr().err

    def test_unreachable_page_server_reports_error(self, capsys):
        # Port 1 is never a live page server: the connection failure is an
        # operator error (wrong address / server down), not a traceback.
        assert main([
            "join", "--n-p", "30", "--n-q", "20",
            "--storage", "remote", "--storage-path", "127.0.0.1:1",
        ]) == 2
        assert "could not reach the page server" in capsys.readouterr().err


class TestFaultToleranceFlags:
    """--node-timeout / --node-retries / --fault-plan: the fault-tolerance
    surface of the distributed tier.

    Each flag is distributed-only and rejected with exit code 2 elsewhere;
    a malformed fault-plan spec dies at parse time, not mid-run.
    """

    @pytest.mark.parametrize(
        "flag, value", [("--node-timeout", "5"), ("--node-retries", "1")]
    )
    def test_flags_require_distributed_executor(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", flag, value])  # serial is the default
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} configures the distributed executor" in err
        assert "no effect with --executor serial" in err

    def test_fault_plan_requires_distributed_executor(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--fault-plan", "crash@node-0"])  # serial default
        assert excinfo.value.code == 2
        assert "fault_plan injects node faults and requires executor='distributed'" in (
            capsys.readouterr().err
        )

    def test_nonpositive_node_timeout_rejected(self, capsys):
        # A NaN deadline never fires and an infinite one overflows the
        # pipe wait: both are rejected like zero.
        for value in ("0", "nan", "inf"):
            with pytest.raises(SystemExit) as excinfo:
                main(["join", "--executor", "distributed", "--node-timeout", value])
            assert excinfo.value.code == 2
            assert "node_timeout must be positive" in capsys.readouterr().err

    def test_negative_node_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["join", "--executor", "distributed", "--node-retries", "-1"])
        assert excinfo.value.code == 2
        assert "node_retries must be >= 0" in capsys.readouterr().err

    def test_malformed_fault_plan_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "join", "--executor", "distributed",
                "--fault-plan", "meteor@node-0",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fault_plan:" in err
        assert "meteor" in err

    def test_faulted_run_reports_quarantine_and_retries(self, capsys, tmp_path):
        # 150/140 points give PM several work units, so node-1 is
        # guaranteed to pull (and crash on) its first unit before node-0
        # can drain the queue.
        assert main([
            "join", "--n-p", "150", "--n-q", "140", "--method", "pm",
            "--storage", "file", "--storage-path", str(tmp_path / "pages.bin"),
            "--executor", "distributed", "--nodes", "2",
            "--fault-plan", "crash@node-1:after=0",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault plan      : crash@node-1" in out
        assert "quarantined     : 1 node(s): node-1 (NodeCrashed)" in out
        assert "result pairs" in out

    def test_clean_faulted_run_reports_no_failures(self, capsys, tmp_path):
        assert main([
            "join", "--n-p", "40", "--n-q", "30", "--method", "pm",
            "--storage", "file", "--storage-path", str(tmp_path / "pages.bin"),
            "--executor", "distributed", "--nodes", "2",
            "--fault-plan", "ready_delay@node-1:seconds=0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault outcome   : no node failures observed" in out
