"""Always-on compile/run daemon (``vpfloat-serve``).

One asyncio event loop owns a warm pool of worker processes (the same
worker runtime the parallel sweep shards use, so programs stay JIT-hot
and the artifact store stays warm across requests) and a local Unix
socket speaking the :mod:`repro.service.protocol` line protocol.

Scheduling
----------
Admission control bounds the daemon: at most ``queue_limit`` requests
may be queued at once; excess requests are rejected immediately with
``overloaded`` instead of building unbounded latency.  Queued requests
live in per-client FIFO deques drained round-robin, so a flooding
client cannot starve the others -- each scheduler pick services the
next client in rotation.

When the head requests of several clients name the *same point* (same
kernel, canonical element type, n, backend, options --
:func:`repro.service.protocol.coalesce_key`), the scheduler coalesces
up to ``max_batch`` of them into one dispatch: the shard runs the
point once and that one observation answers every lane, so each lane's
reply is bit-identical to a serial run.

Fault tolerance
---------------
Every dispatch has a per-attempt timeout.  A worker that dies severs
its pipe (detected immediately); one that hangs trips the timeout.
Either way the shard is reaped, a fresh one is spawned in its place,
and the in-flight requests are retried at the *front* of their
clients' queues -- at most ``max_retries`` extra attempts, then a
structured ``worker_failed``/``timeout`` error.  Unrelated queued
requests are never dropped by a fault.

Validation
----------
A request carrying ``"validate": true`` gets a serial reference
execution on the same warm shard and a ``serial<->service``
:class:`~repro.validation.certificate.Certificate` (strictness from
the ``TRANSITIONS`` registry: exact -- the daemon is transport, values
and cycle reports must match bit-for-bit) attached to the reply.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..observability import (
    MetricsRegistry,
    RunLedger,
    install_ledger,
    install_telemetry,
)
from ..validation.certificate import TRANSITIONS, Certificate, make_check
from ..validation.harness import record_certificate
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    coalesce_key,
    decode,
    default_socket_path,
    encode,
    error_reply,
    ok_reply,
    validate_request,
)
from .store import ArtifactStore
from .worker import worker_main

#: Strictness of the serial<->service transition (certificates).
SERVICE_STRICTNESS = TRANSITIONS["serial↔service"]


@dataclass
class ServiceConfig:
    """Everything ``vpfloat-serve`` can be told on the command line."""

    socket_path: str = ""
    workers: int = 2
    queue_limit: int = 64
    max_batch: int = 16
    request_timeout: float = 30.0
    max_retries: int = 1
    cache_dir: Optional[str] = None
    max_cache_bytes: Optional[int] = None
    ledger_path: Optional[str] = None
    metrics_out: Optional[str] = None
    allow_debug: bool = False

    def __post_init__(self):
        if not self.socket_path:
            self.socket_path = default_socket_path()
        if self.cache_dir is None:
            self.cache_dir = os.environ.get(
                "VPFLOAT_CACHE_DIR",
                os.path.join(os.path.dirname(self.socket_path), "store"))
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.queue_limit < 1 or self.max_batch < 1:
            raise ValueError("queue_limit and max_batch must be >= 1")


class WorkerDied(Exception):
    """The shard's pipe severed mid-call (process death)."""


class WorkerHung(Exception):
    """The shard missed the per-attempt deadline."""


class WorkerHandle:
    """One warm worker shard: process + duplex pipe + blocking call.

    ``call`` runs on a thread (``asyncio.to_thread``) so the event
    loop never blocks on a pipe; the handle is only ever used by one
    dispatch at a time (the scheduler owns worker checkout).
    """

    _counter = 0

    def __init__(self, config: ServiceConfig):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe(duplex=True)
        WorkerHandle._counter += 1
        self.name = f"shard-{WorkerHandle._counter}"
        self.process = ctx.Process(
            target=worker_main,
            args=(child, config.cache_dir, True, config.ledger_path,
                  config.max_cache_bytes),
            name=f"vpfloat-serve-{self.name}", daemon=True)
        self.process.start()
        child.close()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def call(self, message: dict, timeout: float):
        """Send one message, wait for its reply (blocking).

        Raises :class:`WorkerDied` on a severed pipe and
        :class:`WorkerHung` on deadline; either way the caller must
        reap this handle (the shard's state is unknown).
        """
        try:
            self.conn.send(message)
            if not self.conn.poll(timeout):
                raise WorkerHung(f"{self.name} missed the "
                                 f"{timeout:.1f}s deadline")
            return self.conn.recv()
        except (BrokenPipeError, ConnectionResetError, EOFError,
                OSError) as error:
            raise WorkerDied(f"{self.name} pipe severed: "
                             f"{type(error).__name__}") from None

    def reap(self) -> None:
        """Kill the shard and release its resources (idempotent)."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5)

    def stop(self) -> None:
        """Polite shutdown: ask the loop to exit, then reap."""
        try:
            self.conn.send({"kind": "exit"})
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2)
        self.reap()


@dataclass
class ClientState:
    """One accepted connection: identity, writer, and request queue."""

    client_id: int
    writer: asyncio.StreamWriter
    queue: Deque["PendingRequest"] = field(
        default_factory=collections.deque)
    connected: bool = True


@dataclass
class PendingRequest:
    """One admitted request travelling through the scheduler."""

    client: ClientState
    message: dict
    op: str
    attempts: int = 0

    @property
    def request_id(self):
        return self.message.get("id")


class VpfloatDaemon:
    """The service: socket server, per-client queues, scheduler."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.registry = MetricsRegistry()
        self.ledger = RunLedger(config.ledger_path) \
            if config.ledger_path else None
        self.store = ArtifactStore(config.cache_dir,
                                   max_bytes=config.max_cache_bytes)
        self.workers: List[WorkerHandle] = []
        self.clients: Dict[int, ClientState] = {}
        self._rotation: Deque[int] = collections.deque()
        self._free: "asyncio.Queue[WorkerHandle]" = asyncio.Queue()
        self._has_work = asyncio.Event()
        self._stopping = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._dispatches: set = set()
        self._next_client = 0
        self._seq = 0
        self.started = asyncio.Event()
        self._previous_telemetry = None
        self._previous_ledger = None

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    async def start(self) -> None:
        os.makedirs(os.path.dirname(self.config.socket_path) or ".",
                    exist_ok=True)
        try:
            os.unlink(self.config.socket_path)
        except FileNotFoundError:
            pass
        self._previous_telemetry = install_telemetry(None,
                                                     self.registry)
        if self.ledger is not None:
            self._previous_ledger = install_ledger(self.ledger)
        for _ in range(self.config.workers):
            self._add_worker()
        self._server = await asyncio.start_unix_server(
            self._serve_client, path=self.config.socket_path)
        self._scheduler = asyncio.create_task(self._schedule())
        self.started.set()

    async def run_forever(self) -> None:
        await self.start()
        await self._stopping.wait()
        await self._shutdown()

    def _add_worker(self) -> WorkerHandle:
        handle = WorkerHandle(self.config)
        self.workers.append(handle)
        self._free.put_nowait(handle)
        self.registry.gauge("service.workers", len(self.workers))
        return handle

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
        for task in list(self._dispatches):
            task.cancel()
        for client in list(self.clients.values()):
            while client.queue:
                pending = client.queue.popleft()
                await self._reply(pending.client, error_reply(
                    pending.request_id, "shutting_down",
                    "daemon is shutting down"))
            try:
                client.writer.close()
            except Exception:
                pass
        for handle in self.workers:
            handle.stop()
        self.workers.clear()
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        if self._previous_telemetry is not None:
            install_telemetry(*self._previous_telemetry)
        if self.ledger is not None:
            install_ledger(self._previous_ledger)
            self.ledger.close()
        if self.config.metrics_out:
            self.store.publish_occupancy(self.registry)
            with open(self.config.metrics_out, "w",
                      encoding="utf-8") as out:
                json.dump(self.registry.to_dict(), out, indent=2,
                          sort_keys=True)
                out.write("\n")

    # ------------------------------------------------------------- #
    # Connections
    # ------------------------------------------------------------- #

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self._next_client += 1
        client = ClientState(self._next_client, writer)
        self.clients[client.client_id] = client
        self._rotation.append(client.client_id)
        self.registry.inc("service.connections")
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                await self._handle_line(client, line)
        finally:
            client.connected = False
            # Queued requests from a vanished client are dropped at
            # dispatch time (never executed on its behalf) -- but the
            # client record stays until its queue drains so retries
            # and in-flight replies find a live object.
            self.clients.pop(client.client_id, None)
            try:
                self._rotation.remove(client.client_id)
            except ValueError:
                pass
            try:
                writer.close()
            except Exception:
                pass

    async def _handle_line(self, client: ClientState,
                           line: bytes) -> None:
        message: dict = {}
        try:
            message = decode(line)
            op = validate_request(message)
        except ProtocolError as error:
            await self._reply(client, error_reply(
                message.get("id"), "bad_request", str(error)))
            return
        self.registry.inc("service.requests")
        self.registry.inc(f"service.op.{op}")
        if op == "ping":
            await self._reply(client, ok_reply(message.get("id"), {
                "pong": True, "workers": len(self.workers),
                "pending": self._pending_count(),
                "protocol": PROTOCOL_VERSION}))
            return
        if op == "stats":
            await self._reply(client, ok_reply(message.get("id"),
                                               self.stats()))
            return
        if op == "shutdown":
            await self._reply(client, ok_reply(message.get("id"),
                                               {"stopping": True}))
            self._stopping.set()
            return
        if op == "debug" and not self.config.allow_debug:
            await self._reply(client, error_reply(
                message.get("id"), "unsupported",
                "debug ops need --allow-debug"))
            return
        if self._pending_count() >= self.config.queue_limit:
            self.registry.inc("service.rejected")
            await self._reply(client, error_reply(
                message.get("id"), "overloaded",
                f"queue limit {self.config.queue_limit} reached"))
            return
        client.queue.append(PendingRequest(client, message, op))
        self._has_work.set()

    def _pending_count(self) -> int:
        return sum(len(c.queue) for c in self.clients.values())

    async def _reply(self, client: ClientState, message: dict) -> None:
        """Best-effort reply: a client that disconnected mid-flight
        must never take the daemon (or other requests) down."""
        if not client.connected:
            return
        try:
            client.writer.write(encode(message))
            await client.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            client.connected = False

    # ------------------------------------------------------------- #
    # Scheduling
    # ------------------------------------------------------------- #

    async def _schedule(self) -> None:
        while True:
            await self._has_work.wait()
            # Acquire the worker *before* collecting: while every
            # shard is busy, queued same-point requests keep piling up
            # behind the heads and coalesce into one dispatch the
            # moment a shard frees.
            worker = await self._free.get()
            batch = self._collect_batch()
            if not batch:
                self._free.put_nowait(worker)
                self._has_work.clear()
                continue
            self._seq += 1
            task = asyncio.create_task(
                self._dispatch(worker, batch, self._seq))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    def _collect_batch(self) -> List[PendingRequest]:
        """The next unit of work: one request, or up to ``max_batch``
        coalescible run requests for the same point.

        Fairness: the seed request comes from the next client in
        rotation; coalescing only ever takes additional *head*
        requests (round-robin over the other clients first), so no
        client's FIFO order is disturbed and a flooding client still
        only advances one head per rotation turn.
        """
        seed = self._pop_next()
        if seed is None:
            return []
        batch = [seed]
        key = coalesce_key(seed.message)
        if key is None:
            return batch
        for client_id in list(self._rotation):
            client = self.clients.get(client_id)
            while (client is not None and client.queue
                   and len(batch) < self.config.max_batch
                   and coalesce_key(client.queue[0].message) == key):
                batch.append(client.queue.popleft())
        return batch

    def _pop_next(self) -> Optional[PendingRequest]:
        for _ in range(len(self._rotation)):
            client_id = self._rotation.popleft()
            self._rotation.append(client_id)
            client = self.clients.get(client_id)
            if client is not None and client.queue:
                return client.queue.popleft()
        return None

    def _requeue(self, batch: List[PendingRequest]) -> None:
        """Put a faulted dispatch's requests back at the front of
        their clients' queues, preserving order."""
        for pending in reversed(batch):
            pending.client.queue.appendleft(pending)
        self._has_work.set()

    # ------------------------------------------------------------- #
    # Dispatch
    # ------------------------------------------------------------- #

    async def _dispatch(self, worker: WorkerHandle,
                        batch: List[PendingRequest], seq: int) -> None:
        live = [p for p in batch if p.client.connected]
        if not live:
            self._free.put_nowait(worker)
            return
        for pending in live:
            pending.attempts += 1
        seed = live[0]
        lanes = len(live)
        if lanes > 1:
            self.registry.inc("service.coalesced", lanes)
            self.registry.inc("service.batches")
        message = {"kind": seed.op, "payload": self._payload(seed.message)}
        wall0 = time.perf_counter()
        try:
            ok, payload, delta = await asyncio.to_thread(
                worker.call, message, self.config.request_timeout)
        except (WorkerDied, WorkerHung) as fault:
            await self._handle_fault(worker, live, fault)
            return
        self.store.absorb_delta(self.registry, delta)
        wall = time.perf_counter() - wall0
        if not ok:
            self.registry.inc("service.task_failed")
            for pending in live:
                await self._reply(pending.client, error_reply(
                    pending.request_id, "task_failed",
                    payload.get("message", payload.get("type", "?")),
                    type=payload.get("type"),
                    traceback=payload.get("traceback", "")))
            self._record(seed, seq, lanes, wall, "task_failed")
            self._free.put_nowait(worker)
            return
        certificate = None
        worker_ok = True
        if seed.op == "run" and any(
                p.message.get("validate") for p in live):
            certificate, worker_ok = await self._certify(worker, seed,
                                                         payload, lanes)
        # The one run answers every coalesced lane.
        for lane, pending in enumerate(live):
            result = dict(payload)
            result.update({"seq": seq, "lanes": lanes, "lane": lane,
                           "attempts": pending.attempts})
            if certificate is not None \
                    and pending.message.get("validate"):
                result["certificate"] = certificate.to_dict()
            await self._reply(pending.client,
                              ok_reply(pending.request_id, result))
        self.registry.inc("service.dispatches")
        self._record(seed, seq, lanes, wall, "ok")
        if worker_ok:
            self._free.put_nowait(worker)

    @staticmethod
    def _payload(message: dict) -> dict:
        payload = {key: message[key] for key in
                   ("kernel", "source", "ftype", "n", "backend",
                    "options", "action", "path", "name")
                   if key in message}
        return payload

    async def _handle_fault(self, worker: WorkerHandle,
                            live: List[PendingRequest],
                            fault: Exception) -> None:
        """Reap + respawn the shard, retry what has retries left."""
        hung = isinstance(fault, WorkerHung)
        self.registry.inc("service.timeouts" if hung
                          else "service.worker_deaths")
        await asyncio.to_thread(worker.reap)
        if worker in self.workers:
            self.workers.remove(worker)
        self._add_worker()
        retry: List[PendingRequest] = []
        for pending in live:
            if pending.attempts > self.config.max_retries:
                await self._reply(pending.client, error_reply(
                    pending.request_id,
                    "timeout" if hung else "worker_failed",
                    f"{fault} (after {pending.attempts} attempt(s))",
                    attempts=pending.attempts))
            else:
                retry.append(pending)
        if retry:
            self.registry.inc("service.retries", len(retry))
            self._requeue(retry)

    async def _certify(self, worker: WorkerHandle,
                       seed: PendingRequest, member: dict, lanes: int):
        """One serial reference run on the same warm shard, each of the
        ``lanes`` service lanes (all answered by ``member``) checked
        against it bit-for-bit.

        Returns ``(certificate_or_None, worker_ok)`` -- a shard that
        faulted during the reference run is reaped and replaced here
        (the primary results are already in hand, so nothing retries),
        and the caller must not return it to the free pool.
        """
        payload = self._payload(seed.message)
        try:
            ok, reference, delta = await asyncio.to_thread(
                worker.call, {"kind": "run", "payload": payload},
                self.config.request_timeout)
        except (WorkerDied, WorkerHung) as fault:
            self.registry.inc("service.timeouts"
                              if isinstance(fault, WorkerHung)
                              else "service.worker_deaths")
            await asyncio.to_thread(worker.reap)
            if worker in self.workers:
                self.workers.remove(worker)
            self._add_worker()
            return None, False
        self.store.absorb_delta(self.registry, delta)
        if not ok:
            return None, True
        kernel = payload.get("kernel", "?")
        certificate = Certificate(
            subject=f"{kernel}:{payload.get('ftype')}"
                    f"@n={payload.get('n')}",
            kind="service", reference="serial.inprocess",
            witness={"transition": "serial↔service",
                     "digest": reference.get("digest"),
                     "lanes": lanes})
        for lane in range(lanes):
            certificate.add(make_check(
                f"service.lane{lane}", SERVICE_STRICTNESS,
                reference["values"], member["values"],
                reference["report"], member["report"]))
        record_certificate(certificate)
        return certificate, True

    def _record(self, seed: PendingRequest, seq: int, lanes: int,
                wall: float, outcome: str) -> None:
        if self.ledger is None:
            return
        self.ledger.record(
            "service", op=seed.op, seq=seq, lanes=lanes,
            outcome=outcome, kernel=seed.message.get("kernel"),
            ftype=seed.message.get("ftype"), n=seed.message.get("n"),
            backend=seed.message.get("backend", "mpfr"),
            attempts=seed.attempts, wall_seconds=wall)

    # ------------------------------------------------------------- #
    # Introspection
    # ------------------------------------------------------------- #

    def stats(self) -> dict:
        """The ``stats`` reply: queues, workers, store, counters."""
        occupancy = self.store.publish_occupancy(self.registry)
        metrics = self.registry.to_dict()
        counters = {name: value for name, value in
                    metrics.get("counters", {}).items()
                    if name.startswith("service.")}
        return {
            "pending": self._pending_count(),
            "clients": len(self.clients),
            "queues": {str(c.client_id): len(c.queue)
                       for c in self.clients.values() if c.queue},
            "workers": [h.pid for h in self.workers],
            "free_workers": self._free.qsize(),
            "store": occupancy,
            "counters": counters,
            "config": {
                "workers": self.config.workers,
                "queue_limit": self.config.queue_limit,
                "max_batch": self.config.max_batch,
                "request_timeout": self.config.request_timeout,
                "max_retries": self.config.max_retries,
            },
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vpfloat-serve",
        description="always-on vpfloat compile/run daemon")
    parser.add_argument("--socket", default=None,
                        help="Unix socket path (default: "
                             "$VPFLOAT_SERVICE_SOCKET or "
                             "~/.cache/vpfloat-repro/serve.sock)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-attempt request timeout (seconds)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts after a worker fault")
    parser.add_argument("--cache-dir", default=None,
                        help="shared artifact store directory")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="store size budget (LRU eviction)")
    parser.add_argument("--ledger", default=None,
                        help="append service records to this JSONL "
                             "run ledger")
    parser.add_argument("--metrics-out", default=None,
                        help="dump the metrics registry as JSON on "
                             "shutdown")
    parser.add_argument("--allow-debug", action="store_true",
                        help="enable fault-injection debug ops "
                             "(tests only)")
    args = parser.parse_args(argv)
    config = ServiceConfig(
        socket_path=args.socket or "",
        workers=args.workers, queue_limit=args.queue_limit,
        max_batch=args.max_batch, request_timeout=args.timeout,
        max_retries=args.retries, cache_dir=args.cache_dir,
        max_cache_bytes=args.cache_bytes, ledger_path=args.ledger,
        metrics_out=args.metrics_out, allow_debug=args.allow_debug)
    daemon = VpfloatDaemon(config)
    print(f"vpfloat-serve: {config.workers} worker(s) on "
          f"{config.socket_path}", file=sys.stderr)
    try:
        asyncio.run(daemon.run_forever())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
