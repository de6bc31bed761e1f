"""Outside-in layer spans for the traced runs of the e2e benchmark.

:func:`install` wraps the public entry points of each toolchain layer
with timing wrappers defined here, so the program itself is not
changed.  Spans are held in memory; a span's *self time* is its
duration minus the time its direct children cover.  Each request is a
root span, so its self time is the request time no layer accounts for
(``trace.unattributed_s``).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Callable, Dict, List, Optional, Union

from workloads import clock  # spans and requests share one clock

REQUEST = "request"

#: Layer spans, each reported under its own name.  The -O3 passes
#: record ``passes.<name>`` spans, reported as ``passes.<name>.self_s``.
LAYERS = (
    "lang.parse", "lang.sema", "irgen", "verify",
    "backends.mpfr", "backends.boost", "backends.unum",
    "cache.get", "cache.put", "cache.codegen",
    "pyjit.emit", "pyjit.bind",
    "runtime.execute", "runtime.batch", "runtime.unum_machine",
    "harness.read_outputs",
)
O3_PASSES = ("inline", "mem2reg", "constfold", "simplifycfg", "gvn", "licm",
             "loop-idiom", "loop-unroll", "dce")


def ir_size(module) -> int:
    return sum(len(block.instructions)
               for func in module.functions.values()
               for block in func.blocks)


class Trace:
    """Spans (name, start, end, parent index, request id) and counters
    of one traced phase."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.fallbacks: Counter = Counter()
        self._stack: List[int] = []
        self._request = -1
        self._requests = 0
        self._undo: List[tuple] = []

    # -- spans ------------------------------------------------------ #

    @property
    def in_request(self) -> bool:
        return bool(self._stack) and self._stack[0] >= 0

    def begin(self, name: str) -> None:
        """Open a span; outside a request nothing is recorded."""
        if name != REQUEST and not self.in_request:
            self._stack.append(-1)
            return
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, clock(), 0.0, parent, self._request])

    def end(self) -> None:
        index = self._stack.pop()
        if index >= 0:
            self.spans[index][2] = clock()

    def begin_request(self) -> None:
        self._request = self._requests
        self._requests += 1
        self.begin(REQUEST)

    def end_request(self, outcome=None) -> None:
        """Close the request span, then take the run's counters from
        its :class:`~workloads.Outcome`."""
        self.end()
        if outcome is None:
            return
        counts = self.counts
        counts["runtime.ir_insts"] += outcome.report.instructions
        counts["runtime.mpfr_calls"] += outcome.report.mpfr_calls
        stats = outcome.mpfr_stats
        if stats is not None:
            counts["mpfr.pool_hits"] += stats.pool_hits
            counts["mpfr.pool_misses"] += stats.pool_misses
        if outcome.batch_mode == "serial":
            counts["runtime.batch.serial_fallbacks"] += 1

    # -- wrappers --------------------------------------------------- #

    def wrap(self, owner, attr: str,
             name: Union[None, str, Callable[[tuple], str]],
             after: Optional[Callable] = None, restore: bool = True) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span
        (unless ``name`` is None) and calls ``after(args, result)``
        inside it.  Outside a request it records and counts nothing."""
        original = getattr(owner, attr)
        trace = self

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if span is not None:
                trace.begin(span)
            try:
                result = original(*args, **kwargs)
                if after is not None and trace.in_request:
                    after(args, result)
                return result
            except BaseException:
                if span is not None and trace.in_request:
                    trace.counts[f"{span}.raised"] += 1
                raise
            finally:
                if span is not None:
                    trace.end()

        setattr(owner, attr, wrapper)
        if restore:
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------- #

    def self_times(self) -> Dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = Counter()
        for index, (name, start, end, _parent, _rid) in \
                enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return totals

    def request_time(self) -> float:
        return sum(end - start for name, start, end, _p, _r in self.spans
                   if name == REQUEST)

    def chrome_events(self) -> dict:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        return {"displayTimeUnit": "ms", "traceEvents": [
            {"name": name, "ph": "X", "pid": 1, "tid": 1,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"request": rid, "parent": parent}}
            for name, start, end, parent, rid in self.spans]}

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_events(), handle)


def install(trace: Trace) -> None:
    """Wrap every layer's public entry points; undo with
    ``trace.uninstall()``."""
    import repro.backends.unum_backend as unum_backend
    import repro.core as core
    from repro.backends import BoostLoweringPass, MPFRLoweringPass
    from repro.codegen.pyjit import FunctionEmitter, JitEngine
    from repro.core.cache import CompileCache
    from repro.evaluation import harness
    from repro.passes import ModulePass
    from repro.runtime.interpreter import Interpreter
    from repro.runtime.unum_machine import UnumMachine

    counts = trace.counts
    wrap = trace.wrap

    def count_ir(key):
        def after(_args, module):
            counts[key] += ir_size(module)
        return after

    wrap(core, "parse", "lang.parse")
    wrap(core, "analyze", "lang.sema")
    wrap(core, "generate_ir", "irgen", after=count_ir("irgen.ir_insts"))

    build_pipeline = core.build_o3_pipeline

    def traced_pipeline(*args, **kwargs):
        manager = build_pipeline(*args, **kwargs)
        for pass_ in manager.passes:
            method = "run_module" if isinstance(pass_, ModulePass) else "run"
            wrap(pass_, method, f"passes.{pass_.name}", restore=False)
        wrap(manager, "run", None, restore=False,
             after=lambda args, _stats: counts.update(
                 {"passes.ir_insts_out": ir_size(args[0])}))
        return manager

    core.build_o3_pipeline = traced_pipeline
    trace._undo.append((core, "build_o3_pipeline", build_pipeline))

    wrap(core, "verify_module", "verify")
    wrap(MPFRLoweringPass, "run_module",
         lambda args: "backends.boost"
         if isinstance(args[0], BoostLoweringPass) else "backends.mpfr")

    def count_asm(_args, asm):
        counts["backends.unum.asm_insts"] += sum(
            len(block.instructions) for func in asm.functions.values()
            for block in func.blocks)

    wrap(unum_backend, "compile_to_unum", "backends.unum", after=count_asm)

    def count_lookup(_args, program):
        counts["cache.hits" if program is not None else "cache.misses"] += 1

    wrap(CompileCache, "get", "cache.get", after=count_lookup)
    wrap(CompileCache, "put", "cache.put")
    wrap(CompileCache, "get_codegen", "cache.codegen")
    wrap(CompileCache, "put_codegen", "cache.codegen")
    wrap(FunctionEmitter, "emit", "pyjit.emit")
    wrap(JitEngine, "entry", "pyjit.bind")

    def count_fallback(_args, materialized):
        _entry, status, reason, _cached = materialized
        if status == "fallback":
            trace.fallbacks[reason or "unknown"] += 1

    wrap(JitEngine, "_materialize", None, after=count_fallback)
    wrap(Interpreter, "run",
         lambda args: "runtime.batch"
         if getattr(args[0], "batch", None) is not None
         else "runtime.execute")
    wrap(UnumMachine, "run", "runtime.unum_machine")
    wrap(harness, "read_lane_outputs", "harness.read_outputs")
    wrap(harness, "_read_unum_outputs", "harness.read_outputs")


def layer_metrics(trace: Trace, requests: int) -> Dict[str, float]:
    """Per-request layer metrics of a finished traced phase, keyed by
    their ``BENCHMARK.json`` names (all but the exec-large-only
    ``runtime.cache_model.s`` and ``trace.overhead``)."""
    selfs = trace.self_times()
    counts = trace.counts
    per = 1.0 / max(1, requests)
    metrics: Dict[str, float] = {}
    passes = [f"passes.{name}" for name in O3_PASSES]
    unknown = set(selfs) - set(LAYERS) - set(passes) - {REQUEST}
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    for span in LAYERS:
        metrics[span] = selfs.get(span, 0.0) * per
    for span in passes:
        metrics[f"{span}.self_s"] = selfs.get(span, 0.0) * per
    for key in ("irgen.ir_insts", "passes.ir_insts_out",
                "backends.unum.asm_insts", "runtime.ir_insts",
                "runtime.mpfr_calls", "runtime.batch.serial_fallbacks"):
        metrics[key] = counts[key] * per
    lookups = counts["cache.hits"] + counts["cache.misses"]
    metrics["cache.hit_ratio"] = counts["cache.hits"] / lookups \
        if lookups else 0.0
    metrics["cache.put_failures"] = counts["cache.put.raised"] * per
    metrics["pyjit.fallbacks"] = sum(trace.fallbacks.values()) * per
    executed = (selfs.get("runtime.execute", 0.0)
                + selfs.get("runtime.batch", 0.0)
                + selfs.get("runtime.unum_machine", 0.0))
    metrics["runtime.ns_per_ir_inst"] = \
        executed * 1e9 / counts["runtime.ir_insts"] \
        if counts["runtime.ir_insts"] else 0.0
    pooled = counts["mpfr.pool_hits"] + counts["mpfr.pool_misses"]
    metrics["runtime.mpfr_pool_hit_ratio"] = \
        counts["mpfr.pool_hits"] / pooled if pooled else 0.0
    metrics["trace.unattributed_s"] = selfs.get(REQUEST, 0.0) * per
    metrics["trace.request_s"] = trace.request_time() * per
    return metrics
