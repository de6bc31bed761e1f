"""Concurrency behavior of the compile/run daemon.

Covers the scheduler's three contracts under concurrent clients:
same-point requests coalesce into one dispatch with per-lane
replies bit-identical to serial runs, round-robin fairness keeps a
flooding client from starving anyone, and admission control bounds the
queue with structured ``overloaded`` rejections.  Worker parking uses
file latches; progress is observed through the inline ``stats`` op.
"""

import asyncio

import pytest

from repro.service import ProtocolError, ServiceError, coalesce_key, \
    request, validate_request

from service_utils import (
    FTYPE,
    connect,
    park_worker,
    serial_digest,
    service,
    wait_until,
)


def test_same_point_requests_coalesce_into_one_dispatch(tmp_path):
    """Four clients ask for the same point while the only shard is
    busy; one batched dispatch answers all four, every lane
    bit-identical to a serial run, and one certificate covers the
    batch for the client that asked for validation."""

    async def scenario():
        async with service(tmp_path, workers=1, max_batch=8) as daemon:
            parker = await connect(daemon)
            latch = tmp_path / "release"
            park_id = await park_worker(daemon, parker, latch)
            clients = [await connect(daemon) for _ in range(4)]
            ids = []
            for index, client in enumerate(clients):
                fields = {"backend": "mpfr"}
                if index == 0:
                    fields["validate"] = True
                ids.append(await client.send("run", kernel="trmm",
                                             ftype=FTYPE, n=4,
                                             **fields))
            await wait_until(lambda: daemon._pending_count() == 4,
                             message="all four requests queued")
            latch.touch()
            assert (await parker.reply(park_id))["ok"]
            replies = [await client.reply(request_id)
                       for client, request_id in zip(clients, ids)]
            reference = serial_digest("trmm", 4)
            lanes_seen = set()
            for index, reply in enumerate(replies):
                assert reply["ok"], reply
                result = reply["result"]
                assert result["lanes"] == 4
                assert result["digest"] == reference
                lanes_seen.add(result["lane"])
            assert lanes_seen == {0, 1, 2, 3}
            seqs = {r["result"]["seq"] for r in replies}
            assert len(seqs) == 1, "coalesced batch must share one seq"
            certificate = replies[0]["result"]["certificate"]
            assert certificate["passed"] is True
            assert len(certificate["checks"]) == 4
            assert "certificate" not in replies[1]["result"]
            counters = daemon.registry.counters
            assert counters.get("service.coalesced") == 4
            assert counters.get("service.batches") == 1
            for client in [parker] + clients:
                await client.close()

    asyncio.run(scenario())


def test_boost_same_point_requests_coalesce(tmp_path):
    """Coalescing is not mpfr-only: two same-point boost runs parked
    behind a busy shard get one dispatch and identical replies."""

    async def scenario():
        async with service(tmp_path, workers=1, max_batch=8) as daemon:
            parker = await connect(daemon)
            latch = tmp_path / "release"
            park_id = await park_worker(daemon, parker, latch)
            clients = [await connect(daemon) for _ in range(2)]
            ids = [await client.send("run", kernel="trmm", ftype=FTYPE,
                                     n=4, backend="boost")
                   for client in clients]
            await wait_until(lambda: daemon._pending_count() == 2,
                             message="both requests queued")
            latch.touch()
            assert (await parker.reply(park_id))["ok"]
            replies = [await client.reply(request_id)
                       for client, request_id in zip(clients, ids)]
            counters = dict(daemon.registry.counters)
            for client in [parker] + clients:
                await client.close()
            return replies, counters

    replies, counters = asyncio.run(scenario())
    for reply in replies:
        assert reply["ok"], reply
    results = [reply["result"] for reply in replies]
    assert len({r["seq"] for r in results}) == 1
    assert [r["lane"] for r in results] == [0, 1]
    assert all(r["lanes"] == 2 for r in results)
    strip = ("lane", "attempts")
    first, second = ({k: v for k, v in r.items() if k not in strip}
                     for r in results)
    assert first == second
    assert first["digest"] == serial_digest("trmm", 4, backend="boost")
    assert counters.get("service.coalesced") == 2
    assert counters.get("service.batches") == 1


def test_round_robin_fairness_under_flooding_client(tmp_path):
    """A client with six queued requests only advances one per
    rotation turn: the single request of a second client is dispatched
    immediately after the flooder's first."""

    async def scenario():
        async with service(tmp_path, workers=1) as daemon:
            parker = await connect(daemon)
            latch = tmp_path / "release"
            park_id = await park_worker(daemon, parker, latch)
            flooder = await connect(daemon)
            patient = await connect(daemon)
            flood_ids = [await flooder.send("run", kernel="trmm",
                                            ftype=FTYPE, n=n,
                                            backend="mpfr")
                         for n in range(4, 10)]
            patient_id = await patient.send("run", kernel="jacobi-1d",
                                            ftype=FTYPE, n=4,
                                            backend="mpfr")
            await wait_until(lambda: daemon._pending_count() == 7,
                             message="all seven requests queued")
            latch.touch()
            assert (await parker.reply(park_id))["ok"]
            flood_seqs = []
            for request_id in flood_ids:
                reply = await flooder.reply(request_id)
                assert reply["ok"], reply
                flood_seqs.append(reply["result"]["seq"])
            patient_reply = await patient.reply(patient_id)
            assert patient_reply["ok"], patient_reply
            patient_seq = patient_reply["result"]["seq"]
            # Exactly one flooder dispatch precedes the patient's.
            assert sum(1 for seq in flood_seqs
                       if seq < patient_seq) == 1
            assert patient_seq == min(flood_seqs) + 1
            for client in (parker, flooder, patient):
                await client.close()

    asyncio.run(scenario())


def test_mixed_workload_matches_serial_references(tmp_path):
    """Interleaved compile and validated run requests from two clients
    all come back bit-identical to in-process serial execution."""

    points = [("trmm", 4), ("jacobi-1d", 4), ("trmm", 5)]

    async def scenario():
        async with service(tmp_path, workers=2) as daemon:
            first = await connect(daemon)
            second = await connect(daemon)
            results = []
            for kernel, n in points:
                await first.call("compile", kernel=kernel, ftype=FTYPE,
                                 backend="mpfr")
                results.append((kernel, n, await second.call(
                    "run", kernel=kernel, ftype=FTYPE, n=n,
                    backend="mpfr", validate=True)))
            stats = await first.call("stats")
            for client in (first, second):
                await client.close()
            return results, stats

    results, stats = asyncio.run(scenario())
    for kernel, n, result in results:
        assert result["digest"] == serial_digest(kernel, n)
        assert result["certificate"]["passed"] is True
    # The compile requests warmed the shared store for the runs.
    hits = (stats["counters"].get("service.store.memory_hits", 0)
            + stats["counters"].get("service.store.disk_hits", 0))
    assert hits >= 1
    assert stats["store"]["entries"] >= 2


def test_admission_control_rejects_overload_with_structured_error(tmp_path):
    """Beyond ``queue_limit`` queued requests, new work is rejected
    immediately with ``overloaded`` -- and the already-admitted
    requests still complete."""

    async def scenario():
        async with service(tmp_path, workers=1,
                           queue_limit=2) as daemon:
            parker = await connect(daemon)
            latch = tmp_path / "release"
            park_id = await park_worker(daemon, parker, latch)
            client = await connect(daemon)
            admitted = [await client.send("run", kernel="trmm",
                                          ftype=FTYPE, n=4,
                                          backend="mpfr")
                        for _ in range(2)]
            await wait_until(lambda: daemon._pending_count() == 2,
                             message="queue to fill")
            rejected_id = await client.send("run", kernel="trmm",
                                            ftype=FTYPE, n=4,
                                            backend="mpfr")
            rejection = await client.reply(rejected_id)
            assert not rejection["ok"]
            assert rejection["error"]["code"] == "overloaded"
            # Inline ops stay available at full queue.
            assert (await client.call("ping"))["pong"] is True
            latch.touch()
            assert (await parker.reply(park_id))["ok"]
            reference = serial_digest("trmm", 4)
            for request_id in admitted:
                reply = await client.reply(request_id)
                assert reply["ok"], reply
                assert reply["result"]["digest"] == reference
            assert daemon.registry.counters.get(
                "service.rejected") == 1
            for c in (parker, client):
                await c.close()

    asyncio.run(scenario())


def test_malformed_requests_get_bad_request_not_disconnect(tmp_path):
    """Protocol violations are answered, not fatal to the connection."""

    async def scenario():
        async with service(tmp_path, workers=1) as daemon:
            client = await connect(daemon)
            from repro.service import encode

            client._writer.write(encode({"v": 1, "op": "nope",
                                         "id": 9}))
            await client._writer.drain()
            reply = await client.reply(9)
            assert not reply["ok"]
            assert reply["error"]["code"] == "bad_request"
            # Same connection still serves valid requests.
            assert (await client.call("ping"))["pong"] is True
            try:
                await client.call("run", kernel="no-such-kernel",
                                  ftype=FTYPE, n=4, backend="mpfr")
                raise AssertionError("unknown kernel was accepted")
            except ServiceError as error:
                assert error.code == "task_failed"
            await client.close()

    asyncio.run(scenario())


def test_coalesce_key_discriminates_points():
    """Unit-level: only genuinely identical run requests share a key."""
    base = request("run", 1, kernel="trmm", ftype=FTYPE, n=4,
                   backend="mpfr")
    same = request("run", 2, kernel="trmm",
                   ftype="vpfloat<mpfr,16,64>", n=4, backend="mpfr")
    assert coalesce_key(base) is not None
    assert coalesce_key(base) == coalesce_key(same)
    for variation in (
            request("run", 3, kernel="trmm", ftype=FTYPE, n=5,
                    backend="mpfr"),
            request("run", 4, kernel="gemm", ftype=FTYPE, n=4,
                    backend="mpfr"),
            request("run", 5, kernel="trmm",
                    ftype="vpfloat<mpfr, 16, 128>", n=4,
                    backend="mpfr"),
    ):
        assert coalesce_key(variation) != coalesce_key(base)
    # A unum run has its own key, distinct from the mpfr one.
    unum = coalesce_key(request("run", 6, kernel="trmm", ftype=FTYPE,
                                n=4, backend="unum"))
    assert unum is not None and unum != coalesce_key(base)
    assert coalesce_key(request("compile", 7, kernel="trmm",
                                ftype=FTYPE)) is None


def test_run_with_raw_source_is_a_protocol_error():
    """Raw source is a compile input: a run names a kernel point, so a
    source-carrying run is refused before it reaches a worker."""
    source = "double f() { return 1.0; }"
    for message in (request("run", 1, source=source, ftype=FTYPE, n=4),
                    request("run", 2, kernel="gemm", source=source,
                            ftype=FTYPE, n=4)):
        with pytest.raises(ProtocolError, match="'compile' input"):
            validate_request(message)
    assert validate_request(request("compile", 3, source=source)) == \
        "compile"
    assert validate_request(request("run", 4, kernel="gemm",
                                    ftype=FTYPE, n=4)) == "run"
