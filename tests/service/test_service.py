"""Differential suite for the join service.

The correctness invariant of :mod:`repro.service`: every served response
is byte-equal to a serial replay of the same request order.  N
concurrent clients issue interleaved ``join``/``window``/``update``
requests; afterwards a fresh :class:`DynamicJoinSession` applies the
recorded update batches in the server's version order and every recorded
response line is re-derived and compared as raw canonical-JSON bytes —
across the memory, file, and sqlite backends.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.datasets.workload import WorkloadConfig, build_workload
from repro.dynamic.maintenance import DynamicJoinSession
from repro.dynamic.updates import parse_update_stream
from repro.engine import JoinEngine
from repro.service import DatasetSpec, JoinService, ServiceClient
from repro.service.protocol import (
    canonical_json,
    decode_line,
    encode_line,
    ok_response,
    pairs_payload,
    ServiceError,
)

N_P = 60
N_Q = 55
SEED = 3


def make_spec(storage, tmp_path, **kwargs):
    path = None
    if storage != "memory":
        path = str(tmp_path / f"svc.{storage}")
    defaults = dict(
        name="d", n_p=N_P, n_q=N_Q, seed=SEED, storage=storage, storage_path=path
    )
    defaults.update(kwargs)
    return DatasetSpec(**defaults)


def client_script(k):
    """Client ``k``'s deterministic request sequence (disjoint oids, so
    every interleaving of the scripts is conflict-free)."""
    base = 10_000 * (k + 1)
    rect = [150.0 * k, 100.0 * k, 150.0 * k + 4500.0, 100.0 * k + 4500.0]
    d = "d"
    return [
        {"op": "join", "dataset": d, "id": f"{k}-0"},
        {"op": "window", "dataset": d, "window": rect, "id": f"{k}-1"},
        {
            "op": "update",
            "dataset": d,
            "updates": [
                f"insert P {base} {100.5 + 17 * k} {200.5 + 13 * k}",
                f"insert Q {base + 1} {300.5 + 11 * k} {400.5 + 7 * k}",
            ],
            "id": f"{k}-2",
        },
        {"op": "join", "dataset": d, "id": f"{k}-3"},
        {"op": "update", "dataset": d, "updates": [f"delete P {base}"], "id": f"{k}-4"},
        {"op": "window", "dataset": d, "window": rect, "id": f"{k}-5"},
        {"op": "stats", "dataset": d, "id": f"{k}-6"},
        {"op": "join", "dataset": d, "id": f"{k}-7"},
    ]


async def run_clients(spec, n_clients):
    """Serve ``n_clients`` concurrent scripted clients; return records."""
    service = JoinService([spec])
    host, port = await service.start()
    records = []

    async def one_client(k):
        async with await ServiceClient.connect(host, port) as client:
            for request in client_script(k):
                response = await client.request(request)
                records.append((request, response))

    try:
        await asyncio.gather(*(one_client(k) for k in range(n_clients)))
    finally:
        await service.close()
    return records


def snapshot_payloads(session, version):
    return {
        "pairs": pairs_payload(session.pairs),
        "points": {"P": session.point_count("P"), "Q": session.point_count("Q")},
        "update_stats": {
            "updates_applied": session.stats.updates_applied,
            "batches_applied": session.stats.batches_applied,
            "cells_invalidated": session.stats.cells_invalidated,
            "pairs_emitted": session.stats.pairs_emitted,
            "pairs_retracted": session.stats.pairs_retracted,
        },
        "version": version,
    }


def replay_and_compare(spec, records):
    """Re-derive every recorded response serially and compare raw bytes."""
    for _request, response in records:
        assert response.get("ok"), f"a scripted request failed: {response}"

    updates_by_version = {}
    for request, response in records:
        if request["op"] == "update":
            version = response["version"]
            assert version not in updates_by_version, "duplicate version"
            updates_by_version[version] = (request, response)
    max_version = max([0, *updates_by_version])
    assert sorted(updates_by_version) == list(range(1, max_version + 1))

    reads_by_version = {}
    for request, response in records:
        if request["op"] != "update":
            reads_by_version.setdefault(response["version"], []).append(
                (request, response)
            )

    # The replay runs on the memory backend regardless of what the server
    # used: the maintained answer must not depend on the page store.
    workload = build_workload(WorkloadConfig(n_p=spec.n_p, n_q=spec.n_q, seed=spec.seed))
    with workload:
        session = DynamicJoinSession(
            workload.tree_p, workload.tree_q, domain=workload.domain
        )
        for version in range(0, max_version + 1):
            if version > 0:
                request, response = updates_by_version[version]
                [batch] = parse_update_stream(request["updates"])
                delta = session.apply_updates(batch)
                expected = ok_response(
                    "update",
                    request["id"],
                    {
                        "version": version,
                        "added": pairs_payload(delta.added),
                        "removed": pairs_payload(delta.removed),
                        "batch_stats": {
                            "updates_applied": delta.stats.updates_applied,
                            "batches_applied": delta.stats.batches_applied,
                            "cells_invalidated": delta.stats.cells_invalidated,
                            "pairs_emitted": delta.stats.pairs_emitted,
                            "pairs_retracted": delta.stats.pairs_retracted,
                        },
                    },
                )
                assert encode_line(expected) == encode_line(response)
            state = snapshot_payloads(session, version)
            for request, response in reads_by_version.get(version, []):
                op = request["op"]
                if op == "join":
                    expected = ok_response(
                        "join",
                        request["id"],
                        {
                            "version": version,
                            "count": len(state["pairs"]),
                            "pairs": state["pairs"],
                        },
                    )
                    assert encode_line(expected) == encode_line(response)
                elif op == "window":
                    from repro.geometry.rect import Rect

                    rect = Rect(*request["window"])
                    expected = ok_response(
                        "window",
                        request["id"],
                        {
                            "version": version,
                            "window": list(request["window"]),
                            "pairs": pairs_payload(session.window_pairs(rect)),
                        },
                    )
                    assert encode_line(expected) == encode_line(response)
                else:  # stats: deterministic fields; storage counters are
                    # I/O-history-dependent, so they are checked for
                    # presence and backend only.
                    assert response["version"] == version
                    assert response["pairs"] == len(state["pairs"])
                    assert response["points"] == state["points"]
                    assert response["update_stats"] == state["update_stats"]
                    assert response["storage"]["backend"] == (
                        spec.storage or response["storage"]["backend"]
                    )
        # The replayed end state matches a fresh engine run (which the
        # dynamic differential suite in turn pins against the oracle).
        # The domain must be the session's: engine.run would otherwise
        # derive it from the mutated tree MBRs and clip cells differently.
        result = JoinEngine().run(
            "nm", workload.tree_p, workload.tree_q, domain=workload.domain
        )
        assert result.pair_set() == session.pairs


@pytest.mark.parametrize("storage", ["memory", "file", "sqlite"])
class TestDifferentialService:
    def test_concurrent_clients_byte_equal_serial_replay(self, storage, tmp_path):
        spec = make_spec(storage, tmp_path)
        records = asyncio.run(run_clients(spec, n_clients=4))
        assert len(records) == 4 * 8
        replay_and_compare(spec, records)


class TestSubscribers:
    def test_streamed_delta_byte_equal_update_response(self):
        async def scenario():
            service = JoinService([DatasetSpec(name="d", n_p=40, n_q=40, seed=5)])
            host, port = await service.start()
            try:
                subscriber = await ServiceClient.connect(host, port)
                await subscriber.subscribe("d")
                async with await ServiceClient.connect(host, port) as updater:
                    responses = [
                        await updater.update(["insert P 7001 111.5 222.5"], "d"),
                        await updater.update(["delete P 7001", "insert Q 7002 333.5 444.5"], "d"),
                    ]
                events = [await subscriber.next_event() for _ in responses]
                await subscriber.close()
                return responses, events
            finally:
                await service.close()

        responses, events = asyncio.run(scenario())
        for response, event in zip(responses, events):
            assert event["event"] == "delta"
            assert event["dataset"] == "d"
            # The streamed delta is the response's delta, byte for byte.
            for key in ("version", "added", "removed"):
                assert encode_line(event[key]) == encode_line(response[key])
        assert [event["version"] for event in events] == [1, 2]


class TestAdmissionControl:
    def test_overload_is_a_loud_structured_rejection(self):
        async def scenario():
            service = JoinService(
                [DatasetSpec(name="d", n_p=30, n_q=30, seed=1, max_queue=1)]
            )
            host, port = await service.start()
            try:
                state = service.datasets["d"]
                # Occupy the single worker slot with a slow operation.
                blocker = asyncio.ensure_future(
                    state.submit(lambda: time.sleep(0.4))
                )
                await asyncio.sleep(0.05)  # let the blocker claim the slot
                async with await ServiceClient.connect(host, port) as client:
                    rejected = await client.request(
                        {"op": "window", "dataset": "d", "window": [0, 0, 9000, 9000], "id": 1}
                    )
                    await blocker
                    accepted = await client.request(
                        {"op": "window", "dataset": "d", "window": [0, 0, 9000, 9000], "id": 2}
                    )
                return rejected, accepted
            finally:
                await service.close()

        rejected, accepted = asyncio.run(scenario())
        assert rejected["ok"] is False
        assert rejected["error"]["code"] == "overloaded"
        assert "limit 1" in rejected["error"]["message"]
        assert rejected["id"] == 1  # the rejection names the request
        assert accepted["ok"] is True and accepted["id"] == 2


class TestWindowSemantics:
    def test_window_matches_first_principles_oracle(self):
        """The served window join equals the definition: pairs of the full
        CIJ whose common influence region meets the window with positive
        area — computed here from brute-force diagrams."""
        from repro.geometry.polygon import ConvexPolygon
        from repro.geometry.rect import Rect
        from repro.voronoi.diagram import brute_force_diagram

        window = [2000.0, 1500.0, 7000.0, 8000.0]

        async def scenario():
            service = JoinService([DatasetSpec(name="d", n_p=30, n_q=25, seed=9)])
            host, port = await service.start()
            try:
                async with await ServiceClient.connect(host, port) as client:
                    return await client.window(window, "d")
            finally:
                await service.close()

        response = asyncio.run(scenario())

        workload = build_workload(WorkloadConfig(n_p=30, n_q=25, seed=9))
        with workload:
            domain = workload.domain
            diagram_p = brute_force_diagram(workload.points_p, domain)
            diagram_q = brute_force_diagram(workload.points_q, domain)
            window_poly = ConvexPolygon.from_rect(Rect(*window))
            expected = set()
            for cell_p in diagram_p:
                for cell_q in diagram_q:
                    region = cell_p.common_region(cell_q)
                    if region.is_empty():
                        continue
                    if not cell_p.intersects(cell_q):
                        continue
                    if region.intersects_interior(window_poly):
                        expected.add((cell_p.oid, cell_q.oid))
        assert response["pairs"] == pairs_payload(expected)


class TestProtocolErrors:
    @staticmethod
    def _run_one(request):
        async def scenario():
            service = JoinService([DatasetSpec(name="d", n_p=20, n_q=20, seed=2)])
            host, port = await service.start()
            try:
                async with await ServiceClient.connect(host, port) as client:
                    return await client.request(request)
            finally:
                await service.close()

        return asyncio.run(scenario())

    def test_unknown_op(self):
        response = self._run_one({"op": "nuke", "dataset": "d", "id": 3})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert response["id"] == 3

    def test_unknown_dataset(self):
        response = self._run_one({"op": "join", "dataset": "nope"})
        assert response["error"]["code"] == "unknown_dataset"
        assert "'nope'" in response["error"]["message"]

    def test_malformed_window(self):
        response = self._run_one({"op": "window", "dataset": "d", "window": [1, 2, 3]})
        assert response["error"]["code"] == "bad_request"

    def test_inverted_window(self):
        response = self._run_one(
            {"op": "window", "dataset": "d", "window": [10.0, 0.0, 0.0, 10.0]}
        )
        assert response["error"]["code"] == "bad_request"
        assert "degenerate window" in response["error"]["message"]

    def test_update_of_missing_point_is_rejected_not_applied(self):
        response = self._run_one(
            {"op": "update", "dataset": "d", "updates": ["delete P 424242"]}
        )
        assert response["error"]["code"] == "update_rejected"

    def test_rejected_updates_leave_the_dataset_unchanged(self):
        """Non-finite coordinates are a ``bad_request``; a batch inserting
        outside the domain is an ``update_rejected`` that writes nothing.
        Neither bumps the version, and a later join equals the serial
        replay of the accepted batch alone."""
        rejected_batches = [
            ["insert P 999 nan 500"],
            ["insert P 999 inf 500"],
            ["insert Q 998 123.5 456.5", "insert P 999 20000 20000"],
        ]
        accepted_batch = ["insert P 999 500 500"]

        async def scenario():
            service = JoinService([DatasetSpec(name="d", n_p=60, n_q=50, seed=3)])
            host, port = await service.start()
            try:
                async with await ServiceClient.connect(host, port) as client:
                    rejected = [
                        await client.request(
                            {"op": "update", "dataset": "d", "updates": lines}
                        )
                        for lines in rejected_batches
                    ]
                    before = await client.join("d")
                    accepted = await client.update(accepted_batch, "d")
                    after = await client.join("d")
                return rejected, before, accepted, after
            finally:
                await service.close()

        rejected, before, accepted, after = asyncio.run(scenario())
        codes = [response["error"]["code"] for response in rejected]
        assert codes == ["bad_request", "bad_request", "update_rejected"]
        assert "finite" in rejected[0]["error"]["message"]
        assert "outside the session domain" in rejected[2]["error"]["message"]
        assert before["version"] == 0 and accepted["version"] == 1
        assert after["version"] == 1

        workload = build_workload(WorkloadConfig(n_p=60, n_q=50, seed=3))
        with workload:
            session = DynamicJoinSession(
                workload.tree_p, workload.tree_q, domain=workload.domain
            )
            assert before["pairs"] == pairs_payload(session.pairs)
            [batch] = parse_update_stream(accepted_batch)
            session.apply_updates(batch)
            assert after["pairs"] == pairs_payload(session.pairs)
            session.check_consistency()

    def test_multi_batch_update_is_rejected(self):
        response = self._run_one(
            {
                "op": "update",
                "dataset": "d",
                "updates": ["insert P 5001 1.5 2.5", "---", "insert P 5002 3.5 4.5"],
            }
        )
        assert response["error"]["code"] == "bad_request"
        assert "exactly one batch" in response["error"]["message"]

    def test_non_json_line_does_not_kill_the_connection(self):
        async def scenario():
            service = JoinService([DatasetSpec(name="d", n_p=20, n_q=20, seed=2)])
            host, port = await service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await reader.readline()  # hello
                writer.write(b"this is not json\n")
                await writer.drain()
                error_line = await reader.readline()
                writer.write(encode_line({"op": "join", "dataset": "d"}))
                await writer.drain()
                ok_line = await reader.readline()
                writer.close()
                await writer.wait_closed()
                return decode_line(error_line), decode_line(ok_line)
            finally:
                await service.close()

        error, ok = asyncio.run(scenario())
        assert error["ok"] is False and error["error"]["code"] == "bad_request"
        assert ok["ok"] is True and ok["op"] == "join"


class TestLineLimits:
    """Both ends accept lines up to ``MAX_LINE_BYTES`` (asyncio's default
    stream limit is 64 KiB); a longer request line gets a structured
    ``bad_request`` and a longer response line fails the client loudly."""

    def test_join_response_over_64_kib(self):
        async def scenario():
            service = JoinService([DatasetSpec(name="d", n_p=1500, n_q=1500, seed=2)])
            host, port = await service.start()
            try:
                async with await ServiceClient.connect(host, port) as client:
                    response = await asyncio.wait_for(client.join("d"), 20)
                    pairs = service.datasets["d"].snapshot.pairs
                    return response, pairs
            finally:
                await service.close()

        response, pairs = asyncio.run(scenario())
        assert len(encode_line(response)) > 64 * 1024
        assert response["pairs"] == pairs

    @staticmethod
    def _padded_requests(padding_bytes):
        """A padded join, then a plain one on the same connection."""

        async def scenario():
            service = JoinService([DatasetSpec(name="d", n_p=20, n_q=20, seed=2)])
            host, port = await service.start()
            try:
                async with await ServiceClient.connect(host, port) as client:
                    padded = {"op": "join", "dataset": "d", "id": 1}
                    padded["padding"] = "x" * padding_bytes
                    first = await asyncio.wait_for(client.request(padded), 20)
                    second = await asyncio.wait_for(
                        client.request({"op": "join", "dataset": "d", "id": 2}), 20
                    )
                    return first, second
            finally:
                await service.close()

        return asyncio.run(scenario())

    def test_100_kib_request_is_served(self):
        first, second = self._padded_requests(100 * 1024)
        assert first["ok"] is True and first["id"] == 1
        assert second["ok"] is True and second["id"] == 2
        assert first["pairs"] == second["pairs"]

    def test_request_over_1_mib_is_a_bad_request(self):
        from repro.service.protocol import MAX_LINE_BYTES

        first, second = self._padded_requests(MAX_LINE_BYTES + 1)
        assert first["ok"] is False
        assert first["error"]["code"] == "bad_request"
        assert "exceeds" in first["error"]["message"]
        # The oversized line was skipped to its end: the connection serves
        # the next request normally.
        assert second["ok"] is True and second["id"] == 2

    def test_response_over_1_mib_fails_pending_request(self):
        """A reply the client cannot read raises instead of hanging."""
        from repro.service.protocol import MAX_LINE_BYTES

        async def handle(reader, writer):
            writer.write(encode_line({"event": "hello", "protocol": 1}))
            await reader.readline()
            writer.write(b"[" + b"0," * (MAX_LINE_BYTES // 2) + b"0]\n")
            await writer.drain()
            await reader.read()  # hold the connection open
            writer.close()

        async def scenario():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    with pytest.raises(ServiceError) as first:
                        await asyncio.wait_for(client.stats("d"), 20)
                    with pytest.raises(ServiceError) as later:
                        await asyncio.wait_for(client.stats("d"), 20)
                    return first.value, later.value
            finally:
                server.close()
                await server.wait_closed()

        first, later = asyncio.run(scenario())
        assert first.code == "disconnected" and later.code == "disconnected"


class TestServeCommand:
    def test_cli_serve_end_to_end(self, tmp_path):
        """``python -m repro.cli serve`` binds, announces its port, serves
        a join and an update, and shuts down cleanly on SIGINT."""
        import os
        import signal
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--n-p",
                "30",
                "--n-q",
                "30",
                "--storage",
                "file",
                "--storage-path",
                str(tmp_path / "serve.file"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serving on "), banner
            host, port = banner.removeprefix("serving on ").rsplit(":", 1)

            async def scenario():
                async with await ServiceClient.connect(host, int(port)) as client:
                    joined = await client.join()
                    updated = await client.update(["insert P 6001 123.5 456.5"])
                    return joined, updated

            joined, updated = asyncio.run(scenario())
            assert joined["version"] == 0 and joined["count"] == len(joined["pairs"])
            assert updated["version"] == 1
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        assert process.returncode == 0


class TestCanonicalJson:
    def test_sorted_compact_ascii(self):
        assert canonical_json({"b": 1, "a": [1.5, "ü"]}) == '{"a":[1.5,"\\u00fc"],"b":1}'

    def test_oversized_line_rejected(self):
        from repro.service.protocol import MAX_LINE_BYTES

        with pytest.raises(ServiceError, match="exceeds"):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))
