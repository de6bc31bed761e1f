"""Unified telemetry subsystem: tracing spans + metrics registry.

This package gives the whole stack -- compiler driver, pass pipeline,
compile cache, interpreter (jit and legacy engines), UNUM machine, MPFR
free list (on for mpfr/none, off for boost), and the parallel
evaluation engine -- one observability layer:

* :class:`Tracer` -- hierarchical spans (compile -> per-pass ->
  lowering; ``execute:<fn>`` with its modeled cycles; cache lookups;
  per-shard worker lifetimes) exported as Chrome trace-event JSON,
  viewable in Perfetto or ``chrome://tracing``.
* :class:`MetricsRegistry` -- namespaced counters/gauges/histograms
  that absorb the stack's pre-existing private stats (CacheStats,
  MpfrStats pool traffic, the exact IRProfile, pass timings,
  CostReport).  Picklable and mergeable, so worker shards fold back
  into the parent.

Telemetry is **opt-in and process-global**: :func:`current_tracer` /
:func:`current_metrics` return ``None`` until :func:`enable_telemetry`
(or :func:`telemetry_session`) installs live instances.  Every layer
boundary is instrumented through one primitive, :func:`observe`, which
decides which of the three sinks (tracer, metrics, run ledger) it
feeds; with none installed it returns a shared no-op.  Telemetry only
reads what a run leaves behind: the interpreter and the jit consult no
sink, so they run one code path whatever is installed, and traced runs
are bit-identical to untraced ones.  Hot blocks and op counts come
from the exact IR profiler (``run(..., profile=True)``,
``vpfloat-cc --profile``).

This module is dependency-free (stdlib only) so any layer of the stack
may import it without cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Tuple

from .ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    RunLedger,
    current_ledger,
    install_ledger,
    ledger_session,
    read_ledger,
    report_fields,
    reproducibility_envelope,
    validate_record,
)
from .metrics import (
    MetricsRegistry,
    absorb_mpfr_stats,
    absorb_pass_timings,
    absorb_profile,
    absorb_report,
    absorb_unum_stats,
)
from .tracer import (
    CAT_CACHE,
    CAT_COMPILE,
    CAT_PASS,
    CAT_RUNTIME,
    CAT_VALIDATE,
    CAT_WORKER,
    Span,
    Tracer,
)

__all__ = [
    "CAT_CACHE", "CAT_COMPILE", "CAT_PASS", "CAT_RUNTIME",
    "CAT_VALIDATE", "CAT_WORKER", "LEDGER_SCHEMA_VERSION",
    "LedgerError", "MetricsRegistry", "RunLedger", "Span", "Tracer",
    "absorb_mpfr_stats", "absorb_pass_timings",
    "absorb_profile", "absorb_report",
    "absorb_unum_stats",
    "NULL_OBSERVATION", "Observation",
    "current_ledger", "current_metrics",
    "current_tracer", "enable_telemetry", "install_ledger",
    "install_telemetry", "ledger_session", "observe", "read_ledger",
    "report_fields", "reproducibility_envelope", "telemetry_enabled",
    "telemetry_session", "validate_record",
]

_TRACER: Optional[Tracer] = None
_METRICS: Optional[MetricsRegistry] = None


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _TRACER


def current_metrics() -> Optional[MetricsRegistry]:
    """The installed metrics registry, or None when disabled."""
    return _METRICS


def telemetry_enabled() -> bool:
    return _TRACER is not None or _METRICS is not None


def install_telemetry(tracer: Optional[Tracer],
                      metrics: Optional[MetricsRegistry]
                      ) -> Tuple[Optional[Tracer],
                                 Optional[MetricsRegistry]]:
    """Install (tracer, metrics) as the process defaults; returns the
    previous pair so callers can restore it."""
    global _TRACER, _METRICS
    previous = (_TRACER, _METRICS)
    _TRACER = tracer
    _METRICS = metrics
    return previous


def enable_telemetry(trace: bool = False, metrics: bool = False
                     ) -> Tuple[Optional[Tracer],
                                Optional[MetricsRegistry]]:
    """Create and install fresh telemetry objects; returns the new
    (tracer, registry) pair (entries are None for disabled facets)."""
    tracer = Tracer() if trace else None
    registry = MetricsRegistry() if metrics else None
    install_telemetry(tracer, registry)
    return tracer, registry


#: Metrics adapter per attachable type, keyed by class name so this
#: module imports nothing from the layers it observes.
_ABSORB = {
    "CostReport": absorb_report,
    "MpfrStats": absorb_mpfr_stats,
    "IRProfile": absorb_profile,
    "UnumMachine": absorb_unum_stats,
}


class Observation:
    """One live layer boundary, opened by :func:`observe`.

    The producer fills it while the boundary runs: :meth:`arg` adds
    tracer span args, :meth:`attach` hands over run statistics for the
    metrics adapters (a ``CostReport`` also becomes the ledger record's
    cost fields), :meth:`note` adds ledger fields and :meth:`count`
    bumps a metrics counter.  On exit the span closes, the attachments
    are absorbed and the one ledger record is written.  A boundary that
    raises only closes its span -- unless its ``CostReport`` was already
    attached: the execution it describes finished, and what failed
    afterwards (validation, say) is recorded alongside it.  With no
    sink every hook is a no-op (see :data:`NULL_OBSERVATION`).
    """

    __slots__ = ("_tracer", "_registry", "_ledger", "_event", "_span",
                 "_wall0", "_fields", "_attached", "_report")

    def __init__(self, tracer, registry, ledger, layer, cat, event, args):
        self._tracer = tracer
        self._registry = registry
        self._ledger = ledger
        self._event = event
        self._span = tracer.span(layer, cat=cat, args=args or None) \
            if tracer is not None and layer is not None else None
        self._wall0 = time.perf_counter()
        self._fields: dict = {}
        self._attached: list = []
        self._report = None

    def __enter__(self) -> "Observation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            self._tracer.finish(self._span)
        if exc_type is not None and self._report is None:
            return False
        registry = self._registry
        if registry is not None:
            for item in self._attached:
                _ABSORB[type(item).__name__](registry, item)
        if self._ledger is not None:
            fields = self._fields
            fields["wall_seconds"] = time.perf_counter() - self._wall0
            if self._report is not None:
                fields.update(report_fields(self._report))
            self._ledger.record(self._event, **fields)
        return False

    def arg(self, **args) -> None:
        if self._span is not None:
            self._span.args.update(args)

    def attach(self, *items, absorb: bool = True) -> None:
        """Hand over run statistics; ``absorb=False`` when another
        boundary already fed them to the metrics registry."""
        if self._registry is None and self._ledger is None:
            return
        for item in items:
            if type(item).__name__ == "CostReport":
                self._report = item
        if absorb:
            self._attached.extend(items)

    def note(self, **fields) -> None:
        if self._ledger is not None:
            self._fields.update(fields)

    def count(self, name: str, n: float = 1) -> None:
        if self._registry is not None:
            self._registry.inc(name, n)


#: What :func:`observe` returns while no sink is installed: shared, and
#: it keeps nothing it is handed.
NULL_OBSERVATION = Observation(None, None, None, None, CAT_RUNTIME, None,
                               None)


def observe(layer: Optional[str], cat: str = CAT_RUNTIME,
            event: Optional[str] = None, **args) -> Observation:
    """The one instrumentation point of a layer boundary::

        with observe(f"execute:{name}", event="run", backend=b) as obs:
            result = ...
            obs.attach(result.report)
            obs.note(function=name)

    ``layer`` names the tracer span (None: no span) and ``args`` are its
    initial args; ``event`` names the boundary's ledger record (None: no
    record).  Only the installed sinks are fed; with no tracer, metrics
    registry or ledger installed this returns :data:`NULL_OBSERVATION`.
    """
    tracer, registry = _TRACER, _METRICS
    ledger = current_ledger() if event is not None else None
    if tracer is None and registry is None and ledger is None:
        return NULL_OBSERVATION
    return Observation(tracer, registry, ledger, layer, cat, event, args)


@contextmanager
def telemetry_session(trace: bool = False, metrics: bool = False):
    """Scoped telemetry: installs fresh objects, restores the previous
    configuration on exit.  Yields the (tracer, registry) pair."""
    tracer = Tracer() if trace else None
    registry = MetricsRegistry() if metrics else None
    previous = install_telemetry(tracer, registry)
    try:
        yield tracer, registry
    finally:
        install_telemetry(*previous)
