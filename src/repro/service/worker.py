"""Worker-process side of the compile/run service.

Each daemon shard is one of these processes on the end of a duplex
pipe: it installs the shared artifact store and ledger exactly like a
sweep worker (:func:`repro.evaluation.parallel.init_worker_runtime`),
then serves ``(kind, payload)`` messages until the pipe closes or the
daemon kills it.

Every reply ships an *observation* -- the value tokens, digest and
cycle-report snapshot an in-process run of the same point would produce
-- plus the request's artifact-store traffic delta, so the daemon can
certify serial<->service equivalence and aggregate store hit rates
without ever touching the toolchain itself.

The ``debug`` kind is the fault-injection surface for the test suite:
``die`` / ``die_once`` (hard process exit mid-request), ``hang`` /
``hang_once`` (block until the daemon's request timeout reaps the
shard), ``wait_for_file`` (a latch for deterministically parking a
shard while requests pile up behind it).  The daemon refuses debug
requests unless explicitly configured to allow them.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from typing import List, Optional

from ..core import CompilerDriver
from ..evaluation.harness import (
    canonical_source_ftype,
    get_compile_cache,
    run_kernel,
)
from ..evaluation.parallel import init_worker_runtime
from ..validation.certificate import (
    report_snapshot,
    values_digest,
    values_token,
)
from ..workloads.polybench import KERNELS, source_for
from .protocol import RUN_OPTION_KEYS
from .store import stats_delta, stats_snapshot

#: Exit status of a ``die``/``die_once`` fault (recognizable in waitpid
#: output when debugging the daemon's reaper).
FAULT_EXIT_STATUS = 43


class TaskFailed(Exception):
    """The request itself raised; deterministic, never retried."""


def observation(values: List, report,
                wall_seconds: float = 0.0) -> dict:
    """The reply payload for one executed point: bit-level value
    tokens (+ digest) and the cycle-report snapshot."""
    tokens = values_token(values)
    return {
        "values": tokens,
        "digest": values_digest(values),
        "report": report_snapshot(report),
        "cycles": getattr(report, "cycles", None)
        if not isinstance(report, dict) else report.get("cycles"),
        "wall_seconds": wall_seconds,
    }


def _run_options(payload: dict) -> dict:
    options = dict(payload.get("options") or {})
    unknown = sorted(set(options) - set(RUN_OPTION_KEYS))
    if unknown:
        raise TaskFailed(f"unknown run option(s) {unknown}")
    return options


def _resolve_source(payload: dict) -> str:
    source = payload.get("source")
    if isinstance(source, str):
        return source
    kernel = payload["kernel"]
    if kernel not in KERNELS:
        raise TaskFailed(f"unknown kernel {kernel!r}; choose from "
                         f"{sorted(KERNELS)}")
    return source_for(kernel, canonical_source_ftype(payload["ftype"]))


def execute_compile(payload: dict) -> dict:
    """Compile one program against the shared store; -> fingerprint,
    whether the store served it, and the compile wall time."""
    cache = get_compile_cache()
    options = _run_options(payload)
    # The engine is a run knob, not a compile one.
    options.pop("engine", None)
    source = _resolve_source(payload)
    name = payload.get("kernel") or payload.get("name") or "service"
    backend = payload.get("backend", "mpfr")
    before = stats_snapshot(cache.stats) if cache is not None else {}
    wall0 = time.perf_counter()
    driver = CompilerDriver(backend=backend, cache=cache, **options)
    program = driver.compile(source, name=f"{name}-{backend}")
    wall = time.perf_counter() - wall0
    cached = False
    if cache is not None:
        after = stats_snapshot(cache.stats)
        cached = after.get("memory_hits", 0) > before.get(
            "memory_hits", 0) or after.get("disk_hits", 0) > before.get(
            "disk_hits", 0)
    return {"fingerprint": program.fingerprint, "cached": cached,
            "wall_seconds": wall, "backend": backend,
            "passes": sorted(program.pass_timings)}


def execute_run(payload: dict) -> dict:
    """One point, exactly the in-process path (run_kernel)."""
    options = _run_options(payload)
    wall0 = time.perf_counter()
    outcome = run_kernel(payload["kernel"], payload["ftype"],
                         payload["n"],
                         backend=payload.get("backend", "mpfr"),
                         **options)
    values = [outcome.value] + list(outcome.outputs)
    return observation(values, outcome.report,
                       wall_seconds=time.perf_counter() - wall0)


def execute_debug(payload: dict) -> dict:
    """Fault-injection primitives (gated behind the daemon's
    ``allow_debug``); see the module docstring."""
    action = payload.get("action")
    if action == "ok":
        return {"pid": os.getpid()}
    if action in ("die", "die_once"):
        if action == "die" or _arm_latch(payload):
            os._exit(FAULT_EXIT_STATUS)
        return {"survived": True, "pid": os.getpid()}
    if action in ("hang", "hang_once"):
        if action == "hang" or _arm_latch(payload):
            threading.Event().wait()  # until the daemon reaps us
        return {"survived": True, "pid": os.getpid()}
    if action == "wait_for_file":
        path = payload["path"]
        while not os.path.exists(path):
            time.sleep(0.005)
        return {"released": True, "pid": os.getpid()}
    raise TaskFailed(f"unknown debug action {action!r}")


def _arm_latch(payload: dict) -> bool:
    """True exactly once per latch file: the first worker to arm it
    faults, every retry sees the latch and survives."""
    path = payload.get("path")
    if not path:
        raise TaskFailed("one-shot debug actions need a latch 'path'")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _execute(message: dict) -> dict:
    kind = message.get("kind")
    payload = message.get("payload") or {}
    if kind == "ping":
        return {"pong": True, "pid": os.getpid()}
    if kind == "compile":
        return execute_compile(payload)
    if kind == "run":
        return execute_run(payload)
    if kind == "debug":
        return execute_debug(payload)
    raise TaskFailed(f"unknown worker message kind {kind!r}")


def worker_main(conn, cache_dir: Optional[str], use_cache: bool,
                ledger_path: Optional[str],
                max_cache_bytes: Optional[int]) -> None:
    """One shard's request loop: recv -> execute -> send, forever.

    Replies are ``(ok, payload)`` tuples; task exceptions travel back
    as structured failures (they are the *request's* fault and must
    not cost a retry), while a genuine crash simply severs the pipe
    and lets the daemon's reaper take over.  Every reply carries the
    request's artifact-store traffic delta.
    """
    init_worker_runtime(cache_dir, use_cache, ledger_path,
                        max_cache_bytes=max_cache_bytes)
    cache = get_compile_cache()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message.get("kind") == "exit":
            return
        before = stats_snapshot(cache.stats) if cache is not None else {}
        try:
            ok, payload = True, _execute(message)
        except TaskFailed as error:
            ok, payload = False, {"type": "TaskFailed",
                                  "message": str(error),
                                  "traceback": ""}
        except Exception as error:
            ok, payload = False, {"type": type(error).__name__,
                                  "message": str(error),
                                  "traceback": traceback.format_exc()}
        delta = stats_delta(before, stats_snapshot(cache.stats)) \
            if cache is not None else {}
        try:
            conn.send((ok, payload, delta))
        except (BrokenPipeError, OSError):
            return
