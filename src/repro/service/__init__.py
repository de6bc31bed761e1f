"""Always-on compile/run service over the vpfloat toolchain.

``vpfloat-serve`` keeps a warm pool of worker processes (JIT-hot
programs, a shared content-addressed artifact store) behind a local
Unix socket; ``vpfloat-client`` talks to it.  Same-point run requests
from concurrent clients coalesce into one shared run, faults
(dead/hung workers, vanished clients) degrade gracefully, and every
reply is bit-identical to an in-process run -- certified on request via
the ``serial<->service`` transition.

Layers: :mod:`~repro.service.protocol` (wire format),
:mod:`~repro.service.store` (shared artifact store),
:mod:`~repro.service.worker` (shard runtime),
:mod:`~repro.service.daemon` (scheduler + socket server),
:mod:`~repro.service.client` (blocking + asyncio clients, CLI).
"""

from .client import (
    AsyncServiceClient,
    ServiceClient,
    ServiceError,
    run_mix,
    wait_for,
)
from .daemon import ServiceConfig, VpfloatDaemon, WorkerDied, WorkerHung
from .protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    coalesce_key,
    decode,
    default_socket_path,
    encode,
    error_reply,
    ok_reply,
    request,
    validate_request,
)
from .store import ArtifactStore, stats_delta, stats_snapshot

__all__ = [
    "ERROR_CODES", "OPS", "PROTOCOL_VERSION", "ArtifactStore",
    "AsyncServiceClient", "ProtocolError", "ServiceClient",
    "ServiceConfig", "ServiceError", "VpfloatDaemon", "WorkerDied",
    "WorkerHung", "coalesce_key", "decode", "default_socket_path",
    "encode", "error_reply", "ok_reply", "request", "run_mix",
    "stats_delta", "stats_snapshot", "validate_request", "wait_for",
]
