"""Wire protocol of the compile/run service.

The daemon (:mod:`repro.service.daemon`) and its clients speak
newline-delimited JSON over a local Unix socket: one request object per
line, one reply object per line, correlated by the client-chosen
``id`` field (so a client may pipeline requests on one connection and
match replies out of order).

Requests::

    {"v": 1, "op": "run", "id": 7, "kernel": "gemm",
     "ftype": "vpfloat<mpfr, 16, 64>", "n": 6, "backend": "mpfr",
     "validate": true, "options": {"engine": "jit"}}

Replies::

    {"v": 1, "id": 7, "ok": true, "result": {...}}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "timeout", "message": "...", "attempts": 2}}

Run results carry the *same* observation an in-process run would
produce: the value-token sequence of ``repro.validation.value_token``
over ``[return value] + output array`` (bit-level identity survives
the JSON round trip as nested lists), its 16-hex digest, and the full
cycle-report snapshot -- which is what lets the serial<->service
transition certificate compare daemon replies against in-process
serial runs bit-for-bit.

Error codes are closed-vocabulary (:data:`ERROR_CODES`) so clients can
dispatch on them: ``overloaded`` (admission control rejected the
request, retry later), ``timeout`` (the request exceeded the daemon's
per-request budget, possibly after retries), ``worker_failed`` (the
worker died and bounded retries were exhausted), ``task_failed`` (the
request itself raised -- deterministic, never retried),
``shutting_down``, ``bad_request``, ``unsupported``, ``internal``.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Tuple

#: Bump on incompatible message-shape changes.
PROTOCOL_VERSION = 1

#: Environment override for the default socket location.
SOCKET_ENV = "VPFLOAT_SERVICE_SOCKET"

#: Request operations the daemon understands.  ``debug`` is the fault
#: -injection side door (worker death / hang / latch primitives) and is
#: rejected with ``unsupported`` unless the daemon was started with
#: ``allow_debug`` -- it exists for the fault-injection test suite and
#: must never be enabled on a shared daemon.
OPS = ("ping", "compile", "run", "stats", "debug", "shutdown")

ERROR_CODES = ("bad_request", "overloaded", "timeout", "worker_failed",
               "task_failed", "shutting_down", "unsupported", "internal")

#: ``run``-request option keys forwarded to the worker (everything
#: else is rejected, keeping the worker payload picklable and the
#: coalescing key canonical).
RUN_OPTION_KEYS = ("engine", "polly", "opt_level", "contract_fma")


def default_socket_path() -> str:
    """``$VPFLOAT_SERVICE_SOCKET`` or ``~/.cache/vpfloat-repro/serve.sock``."""
    env = os.environ.get(SOCKET_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache",
                        "vpfloat-repro", "serve.sock")


class ProtocolError(ValueError):
    """A message violated the wire protocol."""


def encode(message: dict) -> bytes:
    """One compact JSON line (the only framing the protocol uses)."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> dict:
    """Parse one received line; raises :class:`ProtocolError` on
    anything but a JSON object."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable message: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def request(op: str, request_id: Optional[int] = None, **fields) -> dict:
    """Assemble one request message."""
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    message = {"v": PROTOCOL_VERSION, "op": op}
    if request_id is not None:
        message["id"] = request_id
    message.update(fields)
    return message


def ok_reply(request_id, result: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "result": result}


def error_reply(request_id, code: str, message: str, **extra) -> dict:
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}; "
                            f"choose from {ERROR_CODES}")
    error = {"code": code, "message": message}
    error.update(extra)
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": error}


def validate_request(message: dict) -> str:
    """The request's op after structural validation (raises
    :class:`ProtocolError` on a malformed request)."""
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version {version!r} is not "
                            f"{PROTOCOL_VERSION}")
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {OPS}")
    options = message.get("options")
    if options is not None:
        if not isinstance(options, dict):
            raise ProtocolError("'options' must be an object")
        unknown = sorted(set(options) - set(RUN_OPTION_KEYS))
        if unknown:
            raise ProtocolError(f"unknown option(s) {unknown}; "
                                f"choose from {RUN_OPTION_KEYS}")
    if op in ("run", "compile"):
        kernel = message.get("kernel")
        source = message.get("source")
        if not isinstance(kernel, str) and not isinstance(source, str):
            raise ProtocolError(f"{op!r} needs a 'kernel' name or a "
                                f"'source' string")
        if op == "run" and source is not None:
            raise ProtocolError("raw 'source' is a 'compile' input; "
                                "'run' names a 'kernel'")
        if not isinstance(message.get("ftype"), str) and source is None:
            raise ProtocolError(f"{op!r} needs an 'ftype' string")
    if op == "run" and not isinstance(message.get("n"), int):
        raise ProtocolError("'run' needs an integer 'n'")
    return op


def coalesce_key(message: dict) -> Optional[Tuple]:
    """The batching identity of a ``run`` request, or None when the
    request must run alone.

    Requests sharing a key compute the *same point* of the same
    compiled program (kernel, canonical element type, n, backend and
    every forwarded option), so the daemon may answer any number of
    them with one run.  Other ops return None and dispatch alone.
    """
    if message.get("op") != "run":
        return None
    backend = message.get("backend", "mpfr")
    options = dict(message.get("options") or {})
    try:
        from ..evaluation.harness import parse_ftype

        kind, params = parse_ftype(message.get("ftype", ""))
        if kind == "mpfr":
            # The byte-size annotation is storage-only under the mpfr
            # ABI: spellings with and without it compile identically.
            params.pop("size", None)
        ftype = (kind, tuple(sorted(params.items())))
    except ValueError:
        ftype = message.get("ftype")
    return (message.get("kernel"), ftype, message.get("n"), backend,
            tuple(sorted(options.items())))
