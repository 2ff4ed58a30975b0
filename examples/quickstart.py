#!/usr/bin/env python3
"""Quickstart: compute a Common Influence Join on two synthetic pointsets.

The common influence join CIJ(P, Q) returns every pair (p, q) such that some
location is simultaneously closer to p than to any other point of P and
closer to q than to any other point of Q — i.e. their Voronoi cells overlap.
Unlike an ε-distance join or a k-closest-pairs join it needs no parameter.

Run with::

    python examples/quickstart.py
"""

from repro import (
    DOMAIN,
    brute_force_cij,
    common_influence_join,
    epsilon_distance_join,
    uniform_points,
)
from repro.datasets.workload import WorkloadConfig, build_workload
from repro.engine import EngineConfig, JoinEngine


def main() -> None:
    # Two synthetic pointsets in the paper's [0, 10000] x [0, 10000] domain.
    restaurants = uniform_points(400, seed=1)
    cinemas = uniform_points(300, seed=2)

    print("=== Common Influence Join, NM-CIJ (the paper's best algorithm) ===")
    result = common_influence_join(restaurants, cinemas, method="nm")
    stats = result.stats
    print(f"input sizes      : |P| = {len(restaurants)}, |Q| = {len(cinemas)}")
    print(f"result pairs     : {len(result.pairs)}")
    print(f"page accesses    : {stats.total_page_accesses}")
    print(f"CPU seconds      : {stats.total_cpu_seconds:.2f}")
    print(f"false hit ratio  : {stats.false_hit_ratio:.3f}")
    print(f"first 5 pairs    : {result.pairs[:5]}")
    print()

    print("=== Comparing the three algorithms of the paper ===")
    for method in ("fm", "pm", "nm"):
        run = common_influence_join(restaurants, cinemas, method=method)
        s = run.stats
        print(
            f"{s.algorithm:7s}  pairs={len(run.pairs):6d}  "
            f"pages={s.total_page_accesses:6d} "
            f"(MAT {s.mat_page_accesses} + JOIN {s.join_page_accesses})  "
            f"cpu={s.total_cpu_seconds:5.2f}s"
        )
    print()

    print("=== The JoinEngine: one entry point, pluggable executors ===")
    # Every algorithm above ran through repro.engine under the hood.  Using
    # the engine directly gives access to the execution knobs and to the
    # per-phase work counters the convenience wrappers hide.
    engine = JoinEngine()
    workload = build_workload(WorkloadConfig(), points_p=restaurants, points_q=cinemas)
    result = engine.run("nm", workload.tree_p, workload.tree_q, domain=workload.domain)
    print(f"registered algorithms : {engine.algorithm_names()}")
    print(f"serial NM-CIJ pairs   : {len(result.pairs)}")
    print(f"Voronoi clip ops      : {result.cell_stats.refinements}")
    print(f"filter heap pops      : {result.filter_stats.heap_pops}")
    print()

    print("=== Parallel quickstart: sharded execution (every CIJ variant) ===")
    # The sharded executor partitions the algorithm's shard units across
    # worker processes: Q's Hilbert-ordered leaves for NM/PM, top-level
    # R'_P partitions of the synchronous traversal for FM.  workers=4 forks
    # four processes; workers=1 runs the same units in this process.  The
    # pair list is byte-identical to the serial run in every case.
    config = EngineConfig(executor="sharded", workers=4)
    workload = build_workload(WorkloadConfig(), points_p=restaurants, points_q=cinemas)
    sharded = engine.run(
        "nm", workload.tree_p, workload.tree_q, config, domain=workload.domain
    )
    print(f"sharded NM-CIJ pairs  : {len(sharded.pairs)} "
          f"(identical to serial: {sharded.pairs == result.pairs})")
    print(f"P-cells recomputed    : serial {result.stats.cells_computed_p}, "
          f"sharded {sharded.stats.cells_computed_p}")
    workload = build_workload(WorkloadConfig(), points_p=restaurants, points_q=cinemas)
    sharded_fm = engine.run(
        "fm", workload.tree_p, workload.tree_q, config, domain=workload.domain
    )
    print(f"sharded FM-CIJ pairs  : {len(sharded_fm.pairs)} "
          f"(the synchronous traversal shards by top-level R'_P entries)")
    print()

    print("=== Shard-boundary REUSE handoff ===")
    # Forked shards are independent, so NM recomputes the P-cells the REUSE
    # buffer would have carried across shard boundaries.  With workers=1
    # the shards run in-process one after another, and shard k's final
    # buffer seeds shard k+1, restoring the exact serial reuse accounting.
    config = EngineConfig(executor="sharded", workers=1)
    workload = build_workload(WorkloadConfig(), points_p=restaurants, points_q=cinemas)
    handoff = engine.run(
        "nm", workload.tree_p, workload.tree_q, config, domain=workload.domain
    )
    print(f"handoff NM-CIJ pairs  : {len(handoff.pairs)} "
          f"(identical to serial: {handoff.pairs == result.pairs})")
    print(f"P-cells recomputed    : serial {result.stats.cells_computed_p}, "
          f"handoff {handoff.stats.cells_computed_p} (equal again)")
    print()

    print("=== Distributed quickstart: coordinator + node subprocesses ===")
    # executor="distributed" runs the same work units on separate node
    # interpreters (python -m repro.engine.node): the coordinator hands
    # units out on demand over an NDJSON pipe protocol — a worker stuck on
    # an expensive unit simply stops pulling while the others drain the
    # queue — and each node reopens the run's on-disk backend read-only
    # (so the workload is built with storage="file" or "sqlite"; memory is
    # rejected).  The engine reads the backend from the trees' disk.
    # Results merge in unit order: pairs, JoinStats and the deterministic
    # counters are byte-identical to the serial run, REUSE accounting
    # included (the distributed NM chains the handoff by default).
    dist_workload = build_workload(
        WorkloadConfig(storage="file"), points_p=restaurants, points_q=cinemas
    )
    with dist_workload:
        distributed = engine.run(
            "nm",
            dist_workload.tree_p,
            dist_workload.tree_q,
            EngineConfig(executor="distributed", nodes=2),
            domain=dist_workload.domain,
        )
    trace = engine.last_executor.last_assignments
    print(f"distributed NM pairs  : {len(distributed.pairs)} "
          f"(identical to serial: {distributed.pairs == result.pairs})")
    print(f"P-cells recomputed    : serial {result.stats.cells_computed_p}, "
          f"distributed {distributed.stats.cells_computed_p} (equal)")
    print(f"units per node        : "
          + ", ".join(f"{node} -> {len(ids)}" for node, ids in sorted(trace.items())))
    # NM's chained handoff makes unit k+1 wait for unit k's REUSE carry
    # before its candidate cells, so one node may well serve most units
    # here; run a carry-free method (pm/fm) to see the pull loop spread
    # units across nodes.
    # From a shell, the same run is:
    #     python -m repro.cli join --storage file --executor distributed --nodes 2
    print()

    print("=== Fault tolerance: nodes may crash or hang ===")
    # The distributed tier leases units instead of consuming them: a node
    # that dies (or goes silent past node_timeout) is quarantined, its
    # leased unit goes back to the queue, and a surviving node re-runs it
    # — up to node_retries extra attempts per unit.  The run starts once
    # every node still alive is up and degrades gracefully down to a
    # single survivor.  fault_plan
    # injects deterministic failures to prove all of this: here node-1 is
    # killed (SIGKILL-equivalent) the moment it starts its first unit.
    # The invariant is absolute: pairs and every deterministic counter
    # stay byte-identical to the serial run no matter which faults fire —
    # fault accounting lives on the executor, never in JoinStats.
    fault_workload = build_workload(
        WorkloadConfig(storage="file"), points_p=restaurants, points_q=cinemas
    )
    with fault_workload:
        faulted = engine.run(
            "pm",
            fault_workload.tree_p,
            fault_workload.tree_q,
            EngineConfig(
                executor="distributed",
                nodes=2,
                node_timeout=10.0,
                node_retries=2,
                fault_plan="crash@node-1:after=0",
            ),
            domain=fault_workload.domain,
        )
    # Capture the report before the serial baseline below replaces
    # engine.last_executor.
    report = engine.last_executor.last_run_report
    pm_workload = build_workload(
        WorkloadConfig(), points_p=restaurants, points_q=cinemas
    )
    serial_pm = engine.run(
        "pm", pm_workload.tree_p, pm_workload.tree_q, domain=pm_workload.domain
    )
    print(f"faulted PM pairs      : {len(faulted.pairs)} "
          f"(identical to serial: {faulted.pairs == serial_pm.pairs})")
    print(f"quarantined nodes     : {report['quarantined']}")
    print(f"units retried         : {report['retries']}")
    # From a shell:
    #     python -m repro.cli join --storage file --executor distributed \
    #         --nodes 2 --node-retries 2 --fault-plan 'crash@node-1:after=0'
    print()

    print("=== Remote storage: a page server instead of a shared filesystem ===")
    # storage="remote" moves the page file behind a page-server process
    # that owns it and serves read_page over the
    # same NDJSON framing as repro.service — so distributed nodes no longer
    # need to share a local filesystem with the coordinator: each one opens
    # its own socket to the server.  The node-side LRU buffer and decoded-
    # page cache stay in front of the wire, which keeps the paper's logical
    # page counters byte-identical to the serial run; the physical RPC
    # traffic is reported separately in storage_stats(): every buffer miss
    # on a node is one synchronous read_page RPC, and each node's bytes
    # are added to the coordinator's totals when its unit is merged.
    from repro.storage.pageserver import spawn_page_server

    server = spawn_page_server()
    try:
        remote_workload = build_workload(
            WorkloadConfig(
                storage="remote", storage_path=f"{server.host}:{server.port}"
            ),
            points_p=restaurants,
            points_q=cinemas,
        )
        with remote_workload:
            remote = engine.run(
                "nm",
                remote_workload.tree_p,
                remote_workload.tree_q,
                EngineConfig(executor="distributed", nodes=2),
                domain=remote_workload.domain,
            )
            io = remote_workload.disk.storage_stats()
            print(f"remote NM pairs       : {len(remote.pairs)} "
                  f"(identical to serial: {remote.pairs == result.pairs})")
            print(f"bytes read over RPC   : {io.bytes_read}")
            print(f"coordinator RPCs      : {io.extra.get('rpc_calls', 0)}")
    finally:
        server.stop()
    # From two shells — no shared filesystem needed between them:
    #     python -m repro.storage.pageserver --port 9321
    #     python -m repro.cli join --storage remote \
    #         --storage-path 127.0.0.1:9321 --executor distributed --nodes 2
    # (--storage remote without --storage-path spawns a private server.)
    print()

    # Boundary ties: a pair joins only when the two influence regions
    # overlap with positive area.  Cells that merely touch (zero-area
    # contact, e.g. exactly colinear bisectors) are excluded — by the
    # brute-force oracle and all three algorithms alike.

    # Numeric tolerance policy: every geometric predicate reads its
    # epsilon from repro.geometry.tolerance (BOUNDARY_EPS for
    # clipping/SAT/containment, CONTAINMENT_EPS for the Φ distance test,
    # TIE_SLACK for dynamic invalidation).  One shared set of constants
    # means a point near a clip boundary gets the same verdict from
    # Halfplane.contains, polygon clipping and the SAT interior test.  See
    # the module docstring of src/repro/geometry/tolerance.py for the full
    # policy.

    print("=== File-backed storage: pages live on a real disk ===")
    # The same join can run with every R-tree page serialized into a single
    # binary file (or an SQLite database with storage="sqlite").  Buffer
    # misses then move real bytes, so datasets larger than the LRU buffer —
    # or than RAM — keep the paper's exact page-access accounting.
    file_workload = build_workload(
        WorkloadConfig(storage="file"), points_p=restaurants, points_q=cinemas
    )
    with file_workload:
        file_result = engine.run(
            "nm",
            file_workload.tree_p,
            file_workload.tree_q,
            domain=file_workload.domain,
        )
        io = file_workload.disk.storage_stats()
        print(f"backend               : {file_workload.disk.storage_backend}")
        print(f"pairs (same as memory): {file_result.pairs == result.pairs}")
        print(f"bytes read from file  : {io.bytes_read}")
        print(f"bytes written to file : {io.bytes_written}")
    print()

    print("=== Dynamic workloads: incremental updates to P and Q ===")
    # A DynamicJoinSession keeps the join answer current under insert/
    # delete streams: only cells whose nearest-neighbour set can change
    # (bounded by the Lemma-1 influence radius) are recomputed, and only
    # pairs incident to those dirty cells are re-evaluated.  Each batch
    # returns the exact pair delta.
    from repro import DynamicJoinSession, Point, Update, UpdateBatch

    workload = build_workload(WorkloadConfig(), points_p=restaurants, points_q=cinemas)
    session = DynamicJoinSession(workload.tree_p, workload.tree_q, domain=workload.domain)
    print(f"initial pairs         : {len(session.pairs)}")
    delta = session.apply_updates(UpdateBatch([
        Update("insert", "P", 900, Point(4300.0, 5200.0)),   # a new restaurant
        Update("insert", "Q", 901, Point(4350.0, 5100.0)),   # a new cinema
        Update("delete", "Q", 0),                            # one cinema closes
    ]))
    print(f"pair delta            : +{len(delta.added)} / -{len(delta.removed)} "
          f"(e.g. added {delta.added[:3]})")
    print(f"cells invalidated     : {delta.stats.cells_invalidated} of "
          f"{session.point_count('P') + session.point_count('Q')} "
          f"(a rebuild would recompute all of them)")
    check = engine.run("nm", workload.tree_p, workload.tree_q, domain=workload.domain)
    print(f"equals a fresh rebuild: {session.pair_set() == check.pair_set()}")
    print()

    print("=== Serving the join: python -m repro.cli serve ===")
    # The same warm DynamicJoinSession can be owned by a long-running
    # asyncio server and shared by many clients over newline-delimited
    # JSON.  From a shell::
    #
    #     python -m repro.cli serve --port 8900 --storage file \
    #         --storage-path /tmp/cij-pages
    #
    # then each line sent to the socket is one request: {"op": "join"},
    # {"op": "window", "window": [x0, y0, x1, y1]} (a ConditionalFilter
    # sub-rectangle descent), {"op": "update", "updates": ["insert P 900
    # 4300 5200", ...]} (the delta-CIJ path; the response carries the
    # exact pair delta), {"op": "stats"}, {"op": "subscribe"} (pushes a
    # "delta" event line on every update).  Reads are served from an
    # immutable snapshot while one writer per dataset applies batches, so
    # concurrent clients always see a consistent version — every response
    # is byte-equal to a serial replay (enforced by tests/service/).
    import asyncio

    from repro.service import DatasetSpec, JoinService, ServiceClient

    async def serve_demo() -> None:
        service = JoinService([DatasetSpec(n_p=200, n_q=200, seed=5)])
        host, port = await service.start()
        try:
            async with await ServiceClient.connect(host, port) as conn:
                await conn.subscribe()
                joined = await conn.join()
                print(f"served join           : version {joined['version']}, "
                      f"{len(joined['pairs'])} pairs")
                windowed = await conn.window([2000.0, 2000.0, 6000.0, 6000.0])
                print(f"window [2000,6000]^2  : {len(windowed['pairs'])} pairs "
                      f"whose common region meets the window")
                updated = await conn.update(
                    ["insert P 900 4300 5200", "insert Q 901 4350 5100"]
                )
                print(f"update batch          : version {updated['version']}, "
                      f"+{len(updated['added'])} / -{len(updated['removed'])} pairs")
                event = await conn.next_event()
                print(f"streamed delta event  : {event['event']} "
                      f"v{event['version']} (+{len(event['added'])})")
        finally:
            await service.close()

    asyncio.run(serve_demo())
    print()

    print("=== Why CIJ is not a distance join ===")
    # The smallest ε for which the ε-distance join contains the CIJ result
    # would have to reach the most distant CIJ pair — which can be huge —
    # while a small ε misses legitimate CIJ pairs entirely.
    small = uniform_points(40, seed=3)
    other = uniform_points(35, seed=4)
    cij_pairs = brute_force_cij(small, other, DOMAIN).pair_set()
    workload = build_workload(WorkloadConfig(), points_p=small, points_q=other)
    epsilon = 1200.0
    distance_pairs = {
        (p, q) for p, q, _ in epsilon_distance_join(workload.tree_p, workload.tree_q, epsilon)
    }
    only_cij = cij_pairs - distance_pairs
    only_distance = distance_pairs - cij_pairs
    print(f"CIJ pairs                      : {len(cij_pairs)}")
    print(f"ε-distance pairs (ε={epsilon:.0f})   : {len(distance_pairs)}")
    print(f"CIJ pairs missed by ε-join     : {len(only_cij)}")
    print(f"ε-join pairs that are not CIJ  : {len(only_distance)}")
    print("Neither result contains the other: the two operators answer different questions.")


if __name__ == "__main__":
    main()
