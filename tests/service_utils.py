"""Shared driver for the service tests: an in-process daemon on a
temporary socket plus asyncio clients, all inside one ``asyncio.run``.

Synchronization is by observable state only -- the ``stats`` op is
answered inline by the daemon (never queued behind workers), so tests
park workers on file latches and poll stats with a bounded deadline
instead of sleeping and hoping.
"""

import asyncio
import contextlib

from repro.service import AsyncServiceClient, ServiceConfig, VpfloatDaemon

FTYPE = "vpfloat<mpfr, 16, 64>"


@contextlib.asynccontextmanager
async def service(tmp_path, **overrides):
    """A running daemon on a socket under ``tmp_path`` (debug ops
    enabled -- this is the fault-injection harness)."""
    overrides.setdefault("workers", 1)
    overrides.setdefault("request_timeout", 60.0)
    overrides.setdefault("allow_debug", True)
    config = ServiceConfig(
        socket_path=str(tmp_path / "serve.sock"),
        cache_dir=str(tmp_path / "store"), **overrides)
    daemon = VpfloatDaemon(config)
    await daemon.start()
    try:
        yield daemon
    finally:
        daemon._stopping.set()
        await daemon._shutdown()


async def connect(daemon) -> AsyncServiceClient:
    return await AsyncServiceClient(daemon.config.socket_path).connect()


async def wait_until(predicate, deadline: float = 30.0,
                     message: str = "condition"):
    """Poll an observable condition to a hard deadline (the bounded
    replacement for sleeps-as-synchronization)."""
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    while True:
        result = predicate()
        if asyncio.iscoroutine(result):
            result = await result
        if result:
            return result
        if loop.time() >= end:
            raise AssertionError(f"timed out waiting for {message}")
        await asyncio.sleep(0.01)


async def park_worker(daemon, client, latch_path) -> int:
    """Send a ``wait_for_file`` debug request and wait until the shard
    is verifiably blocked on it (no free workers, nothing queued);
    returns the request id (release with ``latch_path.touch()``)."""
    request_id = await client.send("debug", action="wait_for_file",
                                   path=str(latch_path))
    await wait_until(
        lambda: daemon._free.qsize() == 0
        and daemon._pending_count() == 0,
        message="worker parked on the latch")
    return request_id


def serial_digest(kernel: str, n: int, ftype: str = FTYPE,
                  backend: str = "mpfr") -> str:
    """The in-process serial reference digest for one point."""
    from repro.evaluation.harness import run_kernel
    from repro.validation.certificate import values_digest

    outcome = run_kernel(kernel, ftype, n, backend=backend,
                         engine="jit")
    return values_digest([outcome.value] + list(outcome.outputs))
