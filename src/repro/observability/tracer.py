"""Hierarchical span tracing with Chrome trace-event export.

:class:`Tracer` records *spans* -- named, timed intervals arranged in a
strict stack per thread -- and serializes them to the Chrome
trace-event JSON format, directly loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

The tracer is deliberately dependency-free and append-only: an event is
one small dict, a span costs two clock reads and one append.  Nothing
here charges modeled cycles or mutates interpreter state, so a traced
run produces bit-identical kernel outputs and cycle reports to an
untraced one.

Cross-process merging: worker shards build their own tracer, ship
``tracer.events`` (plain list of dicts) back over pickle, and the
parent calls :meth:`Tracer.extend`.  Timestamps come from
``time.perf_counter`` which is CLOCK_MONOTONIC on Linux -- a system-wide
clock -- so parent and worker spans line up on one timeline; export
normalizes all timestamps against the earliest event.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional

#: Trace categories used across the stack (for Perfetto filtering).
CAT_COMPILE = "compile"
CAT_PASS = "pass"
CAT_RUNTIME = "runtime"
CAT_CACHE = "cache"
CAT_WORKER = "worker"
CAT_VALIDATE = "validate"


class Span:
    """One open interval; ``args`` may be filled until the span closes."""

    __slots__ = ("name", "cat", "start_us", "args", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Optional[dict]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.start_us = time.perf_counter() * 1e6
        self.args: dict = args if args is not None else {}

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.finish(self)


class Tracer:
    """Collects trace events for one process.

    Events live in :attr:`events` as plain JSON-ready dicts (picklable,
    mergeable).  ``pid`` defaults to the OS process id so merged
    multi-process traces render as separate process tracks.
    """

    def __init__(self, pid: Optional[int] = None,
                 process_name: Optional[str] = None):
        self.pid = os.getpid() if pid is None else pid
        self.process_name = process_name or f"vpfloat pid {self.pid}"
        self.events: List[dict] = []
        #: Open-span depth per thread id (used for nesting sanity).
        self._depth: Dict[int, int] = {}

    # ------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------ #

    def _tid(self) -> int:
        # Chrome wants small-ish ints; thread idents are stable per
        # thread for the life of the process.
        return threading.get_ident() % 1_000_000

    def span(self, name: str, cat: str = CAT_RUNTIME,
             args: Optional[dict] = None) -> Span:
        """Open a span; use as a context manager or call finish()."""
        tid = self._tid()
        self._depth[tid] = self._depth.get(tid, 0) + 1
        return Span(self, name, cat, args)

    def finish(self, span: Span) -> None:
        end_us = time.perf_counter() * 1e6
        tid = self._tid()
        self._depth[tid] = max(0, self._depth.get(tid, 1) - 1)
        event = {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.start_us,
            "dur": max(0.0, end_us - span.start_us),
            "pid": self.pid,
            "tid": tid,
        }
        if span.args:
            event["args"] = span.args
        self.events.append(event)

    # ------------------------------------------------------------ #
    # Merging / export
    # ------------------------------------------------------------ #

    def extend(self, events: List[dict]) -> None:
        """Splice in events from another tracer (e.g. a worker shard)."""
        self.events.extend(events)

    def to_chrome(self) -> dict:
        """The Chrome trace-event document (``traceEvents`` form)."""
        if self.events:
            t0 = min(e["ts"] for e in self.events)
        else:
            t0 = 0.0
        out: List[dict] = []
        pids = {}
        for e in self.events:
            pids.setdefault(e["pid"], None)
            shifted = dict(e)
            shifted["ts"] = e["ts"] - t0
            out.append(shifted)
        meta = []
        for pid in sorted(pids):
            name = self.process_name if pid == self.pid \
                else f"vpfloat worker pid {pid}"
            meta.append({"name": "process_name", "ph": "M", "pid": pid,
                         "tid": 0, "args": {"name": name}})
        return {"traceEvents": meta + out, "displayTimeUnit": "ms"}

    def export(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        document = self.to_chrome()
        with open(path, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")
