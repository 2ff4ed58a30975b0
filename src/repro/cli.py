"""Command-line interface: run paper experiments and ad-hoc joins.

Examples
--------
List the available experiments::

    python -m repro.cli list

Reproduce Figure 7 at the default (small) scale::

    python -m repro.cli run fig7

Run every experiment at the tiny scale and write a markdown report::

    python -m repro.cli run-all --scale tiny --markdown report.md

Join two uniform pointsets with NM-CIJ::

    python -m repro.cli join --n-p 500 --n-q 500 --method nm

Same join, sharded across four worker processes by the engine (every CIJ
variant shards: NM/PM by R_Q leaves, FM by top-level R'_P join partitions)::

    python -m repro.cli join --n-p 500 --n-q 500 --executor sharded --workers 4
    python -m repro.cli join --n-p 500 --n-q 500 --method fm --executor sharded --workers 4

Sharded NM on one worker runs its units in-process and hands the REUSE
buffer from unit to unit, so its P-cell counts equal the serial run's
(forked workers run independent units; a distributed NM always chains)::

    python -m repro.cli join --executor sharded --workers 1

Distributed join: the same work units pulled over NDJSON by two node
subprocesses that reopen the shared backend read-only (needs --storage
file, sqlite or remote; merged output is byte-identical to serial)::

    python -m repro.cli join --n-p 500 --n-q 500 --storage file --executor distributed --nodes 2

Same join with pages stored in (and read back from) a real file::

    python -m repro.cli join --n-p 500 --n-q 500 --storage file

Remote storage: serve pages from a separate page-server process, then run
a two-node distributed join against it — no shared filesystem needed
(``--storage remote`` without ``--storage-path`` spawns a private server)::

    python -m repro.storage.pageserver --port 9321 &
    python -m repro.cli join --n-p 500 --n-q 500 --storage remote \
        --storage-path 127.0.0.1:9321 --executor distributed --nodes 2

Apply a dynamic update stream after the initial join and print the pair
delta of every batch (see :mod:`repro.dynamic.updates` for the file
format)::

    python -m repro.cli join --n-p 500 --n-q 500 --updates stream.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import common_influence_join, uniform_points
from repro.engine.config import EngineConfig, resolve_config
from repro.experiments import list_experiments, run_experiment
from repro.storage.backends import STORAGE_BACKENDS
from repro.storage.pageserver import PageServerError


#: The ``join`` flags that are :class:`EngineConfig` fields of the same name.
_JOIN_KNOBS = (
    "executor", "workers", "nodes", "node_timeout", "node_retries", "fault_plan"
)


def _int_range(low: int, high: Optional[int] = None):
    """argparse type: an integer in ``[low, high]``.

    An out-of-range value is a usage error (exit 2) at parse time instead
    of a traceback from deep inside the run.  Point counts take ``low=1``:
    every pointset is indexed, and an empty one has no R-tree.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound} (got {value})")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="cij",
        description="Common Influence Join (CIJ) reproduction — experiments and joins",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run = subparsers.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", help="experiment id, e.g. fig7 or table3")
    run.add_argument("--scale", default="small", help="tiny | small | medium | large")

    run_all = subparsers.add_parser("run-all", help="run every registered experiment")
    run_all.add_argument("--scale", default="small", help="tiny | small | medium | large")
    run_all.add_argument(
        "--markdown", default=None, help="also write a markdown report to this path"
    )

    join = subparsers.add_parser("join", help="run a CIJ on synthetic pointsets")
    join.add_argument("--n-p", type=_int_range(1), default=500, help="points in P")
    join.add_argument("--n-q", type=_int_range(1), default=500, help="points in Q")
    join.add_argument("--seed", type=int, default=0, help="random seed")
    join.add_argument(
        "--method",
        default=None,
        choices=("nm", "pm", "fm", "brute"),
        help="algorithm (default nm; brute = the quadratic oracle baseline)",
    )
    join.add_argument(
        "--executor",
        default="serial",
        choices=("serial", "sharded", "distributed"),
        help="engine executor: serial (paper semantics), sharded "
        "(R_Q leaves for nm/pm, top-level R'_P partitions for fm, local "
        "workers), or distributed (the same units pulled by node "
        "subprocesses over the shared file, sqlite or remote backend)",
    )
    join.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shards / worker processes for the sharded executor (default 2; "
        "only valid with --executor sharded)",
    )
    join.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="worker subprocesses for the distributed executor (default 2; "
        "only valid with --executor distributed)",
    )
    join.add_argument(
        "--node-timeout",
        type=float,
        default=None,
        help="seconds of node silence (no reply, no heartbeat) before the "
        "distributed executor quarantines a hung node and retries its unit "
        "elsewhere (default 60; only valid with --executor distributed)",
    )
    join.add_argument(
        "--node-retries",
        type=int,
        default=None,
        help="times one unit may be re-run on another node after a node "
        "failure; 0 aborts on the first failure (default 2; only valid "
        "with --executor distributed)",
    )
    join.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for the distributed tier, e.g. "
        "'crash@node-1:after=2;ready_delay@node-0:seconds=0.2' — merged "
        "pairs and counters stay byte-identical to serial regardless "
        "(testing knob; only valid with --executor distributed)",
    )
    join.add_argument(
        "--updates",
        default=None,
        metavar="FILE",
        help="after the initial join, apply this update-stream file "
        "incrementally (one 'insert SIDE OID X Y' / 'delete SIDE OID' per "
        "line, batches separated by '---') and print each batch's pair "
        "delta; requires --executor serial",
    )
    join.add_argument(
        "--storage",
        default=None,
        choices=STORAGE_BACKENDS,
        help="page-store backend (default: $REPRO_STORAGE or memory); "
        "remote serves pages from a page-server process over TCP",
    )
    join.add_argument(
        "--storage-path",
        default=None,
        help="backing file for --storage file|sqlite, or HOST:PORT of an "
        "already-running page server for --storage remote (default: owned "
        "temp file / a freshly spawned server)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived join service (newline-delimited JSON over TCP)",
        description="Serve concurrent join/window/update/stats requests from "
        "a warm dynamic session per dataset; see repro.service for the "
        "protocol.  Updates stream to subscribed connections as delta "
        "events.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=_int_range(0, 65535),
        default=0,
        help="TCP port (0 picks a free one)",
    )
    serve.add_argument("--dataset", default="default", help="dataset name")
    serve.add_argument("--n-p", type=_int_range(1), default=200, help="points in P")
    serve.add_argument("--n-q", type=_int_range(1), default=200, help="points in Q")
    serve.add_argument("--seed", type=int, default=0, help="random seed")
    serve.add_argument(
        "--storage",
        default=None,
        choices=STORAGE_BACKENDS,
        help="page-store backend (default: $REPRO_STORAGE or memory)",
    )
    serve.add_argument(
        "--storage-path",
        default=None,
        help="backing file for --storage file|sqlite, or HOST:PORT of an "
        "already-running page server for --storage remote (default: owned "
        "temp file / a freshly spawned server)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="queued-plus-running window/update operations per dataset "
        "before requests are rejected as overloaded",
    )
    return parser


def _cmd_list() -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _cmd_run(experiment: str, scale: str) -> int:
    result = run_experiment(experiment, scale=scale)
    print(result.to_text())
    return 0


def _cmd_run_all(scale: str, markdown: Optional[str]) -> int:
    sections = []
    for experiment_id in list_experiments():
        start = time.perf_counter()
        result = run_experiment(experiment_id, scale=scale)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"[{experiment_id} completed in {elapsed:.1f}s]\n")
        sections.append(result.to_markdown())
    if markdown:
        with open(markdown, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(sections) + "\n")
        print(f"markdown report written to {markdown}")
    return 0


def _validate_executor_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject flags that the chosen executor would silently ignore.

    These are the flag-combination rules :class:`EngineConfig` cannot see
    (it only sees values, with its own defaults filled in): ``--workers``
    above 1 sizes only the sharded executor, ``--nodes``,
    ``--node-timeout`` and ``--node-retries`` configure only the
    distributed one, ``--updates`` mutates the source trees, which shard
    workers must never do, and its maintenance ignores ``--method``.  Value
    ranges, fault-plan specs and ``fault_plan``'s executor rule are
    :class:`EngineConfig`'s.
    """
    if args.executor != "sharded" and args.workers is not None and args.workers > 1:
        parser.error(
            f"--workers {args.workers} has no effect with --executor "
            f"{args.executor}; use --executor sharded to run shards in "
            "parallel (--nodes sizes the distributed executor)"
        )
    if args.executor != "distributed":
        for flag, value in (
            ("--nodes", args.nodes),
            ("--node-timeout", args.node_timeout),
            ("--node-retries", args.node_retries),
        ):
            if value is not None:
                parser.error(
                    f"{flag} configures the distributed executor and has no "
                    f"effect with --executor {args.executor}; use "
                    "--executor distributed"
                )
    if args.updates is not None and args.executor != "serial":
        parser.error(
            f"--updates requires --executor serial: incremental maintenance "
            f"mutates the source trees, which {args.executor!r} shard workers "
            "cannot do (drop --executor, or apply the updates first)"
        )
    if args.updates is not None and args.method is not None:
        parser.error(
            f"--method {args.method} has no effect with --updates: incremental "
            "maintenance is algorithm-independent (drop --method)"
        )


def _cmd_join(args: argparse.Namespace, config: EngineConfig) -> int:
    points_p = uniform_points(args.n_p, seed=args.seed)
    points_q = uniform_points(args.n_q, seed=args.seed + 10_000)
    storage, storage_path = args.storage, args.storage_path
    if args.updates is not None:
        return _cmd_join_with_updates(
            points_p, points_q, storage, storage_path, args.updates
        )
    try:
        result = common_influence_join(
            points_p,
            points_q,
            method=args.method or "nm",
            storage=storage,
            storage_path=storage_path,
            config=config,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except PageServerError as error:
        # An unreachable, dead or misbehaving page server is an operator
        # problem (wrong --storage-path address, server not running), not
        # an internal failure: surface it like the other usage errors.
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = result.stats
    print(f"algorithm       : {stats.algorithm}")
    if config.executor == "distributed":
        print(f"executor        : distributed ({config.nodes} nodes)")
        _print_fault_report(config.fault_plan)
    elif config.executor == "sharded":
        print(f"executor        : sharded ({config.workers} workers)")
    if storage is not None:
        where = f" at {storage_path}" if storage_path else ""
        print(f"storage         : {storage}{where}")
    print(f"result pairs    : {len(result.pairs)}")
    print(f"page accesses   : {stats.total_page_accesses} (MAT {stats.mat_page_accesses} + JOIN {stats.join_page_accesses})")
    print(f"CPU seconds     : {stats.total_cpu_seconds:.2f}")
    if stats.filter_candidates:
        print(f"false hit ratio : {stats.false_hit_ratio:.3f}")
    return 0


def _print_fault_report(fault_plan: Optional[str]) -> None:
    """Summarise the last distributed run's fault-tolerance activity.

    The report lives on the executor (not in :class:`JoinStats`): the
    statistics fingerprint must stay byte-identical to serial, faults or
    not, so retry/quarantine accounting is deliberately out-of-band.
    """
    from repro import default_engine

    executor = getattr(default_engine(), "last_executor", None)
    report = getattr(executor, "last_run_report", None)
    if report is None:
        return
    if fault_plan is not None:
        print(f"fault plan      : {report.get('faults_planned')}")
    quarantined = report.get("quarantined") or {}
    retries = report.get("retries") or {}
    if quarantined:
        names = ", ".join(
            f"{node} ({reason.split(':', 1)[0]})"
            for node, reason in sorted(quarantined.items())
        )
        print(f"quarantined     : {len(quarantined)} node(s): {names}")
    if retries:
        total = sum(retries.values())
        units = ", ".join(str(index) for index in sorted(retries))
        print(f"units retried   : {total} retry(ies) over unit(s) {units}")
    if fault_plan is not None and not quarantined and not retries:
        print("fault outcome   : no node failures observed")


def _cmd_join_with_updates(
    points_p,
    points_q,
    storage: Optional[str],
    storage_path: Optional[str],
    updates_path: str,
) -> int:
    """Initial join plus an incremental update stream, printing pair deltas.

    The maintenance bootstrap derives the initial answer itself (it is
    algorithm-independent), so ``--method`` is rejected with ``--updates``.
    """
    from repro import DOMAIN, Rect
    from repro.datasets.workload import WorkloadConfig, build_workload
    from repro.dynamic import DynamicJoinSession, load_update_stream

    try:
        batches = load_update_stream(updates_path)
    except OSError as error:
        print(f"error: cannot read --updates file: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    domain = DOMAIN.union(Rect.from_points(list(points_p) + list(points_q)))
    config = WorkloadConfig(domain=domain, storage=storage, storage_path=storage_path)
    with build_workload(config, points_p=points_p, points_q=points_q) as workload:
        # The session bootstrap *is* the initial join (every algorithm
        # returns the same pair set), so no separate measured run is paid.
        session = DynamicJoinSession(workload.tree_p, workload.tree_q, domain=domain)
        print("algorithm       : delta-CIJ (incremental maintenance)")
        print(f"initial pairs   : {len(session.pairs)}")
        for number, batch in enumerate(batches, start=1):
            try:
                delta = session.apply_updates(batch)
            except ValueError as error:
                print(f"error: update batch {number}: {error}", file=sys.stderr)
                return 2
            print(
                f"batch {number:2d}        : {len(batch)} updates  "
                f"+{len(delta.added)} pairs  -{len(delta.removed)} pairs  "
                f"({delta.stats.cells_invalidated} cells invalidated)"
            )
        totals = session.stats
        print(f"final pairs     : {len(session.pairs)}")
        print(
            f"update totals   : {totals.updates_applied} updates in "
            f"{totals.batches_applied} batches, "
            f"{totals.cells_invalidated} cells invalidated, "
            f"+{totals.pairs_emitted}/-{totals.pairs_retracted} pairs"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import DatasetSpec, JoinService

    if args.max_queue < 1:
        print(f"error: --max-queue must be at least 1 (got {args.max_queue})", file=sys.stderr)
        return 2
    spec = DatasetSpec(
        name=args.dataset,
        n_p=args.n_p,
        n_q=args.n_q,
        seed=args.seed,
        storage=args.storage,
        storage_path=args.storage_path,
        max_queue=args.max_queue,
    )

    async def _run() -> None:
        service = JoinService([spec])
        host, port = await service.start(args.host, args.port)
        state = service.datasets[spec.name]
        print(f"serving on {host}:{port}", flush=True)
        print(
            f"dataset {spec.name!r}: |P|={state.snapshot.points_p} "
            f"|Q|={state.snapshot.points_q} pairs={len(state.snapshot.pairs)} "
            f"storage={state.workload.disk.storage_backend}",
            flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            await service.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by both ``python -m repro.cli`` and the ``cij`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.scale)
    if args.command == "run-all":
        return _cmd_run_all(args.scale, args.markdown)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "join":
        _validate_executor_flags(parser, args)
        try:
            # The join's one config, resolved before any work: unset flags
            # keep EngineConfig's defaults, and a bad value is reported with
            # the config's own message, which names the field.
            config = resolve_config(
                None, {knob: getattr(args, knob) for knob in _JOIN_KNOBS}
            )
        except ValueError as error:
            parser.error(str(error))
        return _cmd_join(args, config)
    parser.error(f"unhandled command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
