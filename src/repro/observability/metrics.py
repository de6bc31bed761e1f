"""Unified metrics registry: counters, gauges, histograms, merge.

One :class:`MetricsRegistry` absorbs every pre-existing private counter
in the stack -- :class:`~repro.core.cache.CacheStats`,
:class:`~repro.bigfloat.mpfr_api.MpfrStats` (pool hit/miss traffic),
the exact :class:`~repro.observability.profile.IRProfile`, pass timings,
and :class:`~repro.runtime.cost_model.CostReport` -- behind one namespaced
API.  It only reads what a run leaves behind: a run's precisions are
its type's, and its op counts are ``runtime.opcode.<op>`` of a
profiled run.

Metric naming scheme (dotted, lowercase)::

    compile.count / compile.cache_hits          driver-level compiles
    compile.cache.{memory_hits,disk_hits,misses,stores,errors}
    compile.pass.<pass-name>.seconds            mid-end + lowering wall time
    runtime.{cycles,instructions,mpfr_calls,heap_allocations,llc_misses,...}
    runtime.opcode.<op>                         profiled-run opcode counts
    runtime.builtin.<name>.{calls,cycles}       profiled-run builtin cycles
    runtime.mpfr.{inits,clears,sets,ops,specialized_ops,...}
    runtime.pool.{hits,misses,releases}         MPFR free-list traffic
    eval.points                                 kernel executions absorbed

The registry is picklable (plain dicts only) and :meth:`merge` is
commutative over counters/histograms (sums) and takes the max of
gauges, so ``parallel_map``/``run_grid`` can fold worker-shard
registries into the parent in any order.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

FORMAT_VERSION = 1


class MetricsRegistry:
    """Named counters / gauges / histograms with cross-process merge."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        #: name -> number (int or float; timings are float seconds).
        self.counters: Dict[str, float] = {}
        #: name -> last observed value (merge keeps the max).
        self.gauges: Dict[str, float] = {}
        #: name -> {observed value -> occurrence count}.
        self.histograms: Dict[str, Dict[float, int]] = {}

    # ------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------ #

    def inc(self, name: str, n: float = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float, n: int = 1) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = {}
        hist[value] = hist.get(value, 0) + n

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    # ------------------------------------------------------------ #
    # Merge / serialization
    # ------------------------------------------------------------ #

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (sums counters/histograms,
        max for gauges); returns self for chaining."""
        counters = self.counters
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = self.gauges
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = dict(hist)
            else:
                for value, count in hist.items():
                    mine[value] = mine.get(value, 0) + count
        return self

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            # JSON object keys must be strings; values are numeric.
            "histograms": {
                name: {repr(value): count for value, count in hist.items()}
                for name, hist in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from a ``--metrics-out`` document.

        Partial documents are fine: a dump missing one or more sections
        (a run that recorded no histograms, a hand-pruned file) loads
        with those sections empty.  Only something that is not a
        metrics document at all -- not an object, or no recognizable
        section, or a section of the wrong shape -- is rejected.
        """
        if not isinstance(data, dict):
            raise ValueError("not a vpfloat metrics document")
        sections = ("counters", "gauges", "histograms")
        if data and not any(key in data for key in sections) \
                and "format" not in data:
            raise ValueError("not a vpfloat metrics document")
        for key in sections:
            if not isinstance(data.get(key, {}), dict):
                raise ValueError(
                    f"metrics section {key!r} must be an object")
        registry = cls()
        registry.counters.update(data.get("counters", {}))
        registry.gauges.update(data.get("gauges", {}))
        for name, hist in data.get("histograms", {}).items():
            registry.histograms[name] = {
                _num(value): count for value, count in hist.items()
            }
        return registry

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "MetricsRegistry":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------ #

    def render(self) -> str:
        """A grouped, aligned text report of everything recorded."""
        lines = []
        if self.counters:
            lines.append("== counters ==")
            for name in sorted(self.counters):
                lines.append(f"  {name:<44} {_fmt(self.counters[name])}")
        if self.gauges:
            lines.append("== gauges ==")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<44} {_fmt(self.gauges[name])}")
        if self.histograms:
            lines.append("== histograms ==")
            for name in sorted(self.histograms):
                hist = self.histograms[name]
                total = sum(hist.values())
                weighted = sum(v * c for v, c in hist.items())
                mean = weighted / total if total else 0.0
                lines.append(
                    f"  {name}: n={total} min={_fmt(min(hist))} "
                    f"max={_fmt(max(hist))} mean={mean:g}")
                for value in sorted(hist):
                    lines.append(f"    {_fmt(value):>12} x {hist[value]}")
        return "\n".join(lines) if lines else "(empty registry)"


def _num(text: str) -> float:
    value = float(text)
    return int(value) if value.is_integer() else value


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


# ----------------------------------------------------------------- #
# Absorb adapters: fold the stack's private counter objects in.
# ----------------------------------------------------------------- #

def absorb_mpfr_stats(registry: MetricsRegistry, stats) -> None:
    """Fold one run's :class:`~repro.bigfloat.MpfrStats` in (pool
    hit/miss traffic, allocation counts, per-entry-point calls)."""
    registry.inc("runtime.mpfr.inits", stats.inits)
    registry.inc("runtime.mpfr.clears", stats.clears)
    registry.inc("runtime.mpfr.sets", stats.sets)
    registry.inc("runtime.mpfr.ops", stats.ops)
    registry.inc("runtime.mpfr.specialized_ops", stats.specialized_ops)
    registry.inc("runtime.mpfr.compares", stats.compares)
    registry.inc("runtime.mpfr.conversions", stats.conversions)
    registry.inc("runtime.mpfr.limb_bytes_allocated",
                 stats.limb_bytes_allocated)
    registry.inc("runtime.pool.hits", stats.pool_hits)
    registry.inc("runtime.pool.misses", stats.pool_misses)
    registry.inc("runtime.pool.releases", stats.pool_releases)
    for name, count in stats.by_name.items():
        registry.inc(f"runtime.mpfr.call.{name}", count)


def absorb_profile(registry: MetricsRegistry, profile) -> None:
    """Fold an exact :class:`~repro.observability.profile.IRProfile`
    (opcode counts, per-builtin calls and self cycles) in."""
    for opcode, count in profile.opcode_counts.items():
        registry.inc(f"runtime.opcode.{opcode}", count)
    for name, calls in profile.builtin_calls.items():
        registry.inc(f"runtime.builtin.{name}.calls", calls)
    for name, cycles in profile.builtin_cycles.items():
        registry.inc(f"runtime.builtin.{name}.cycles", cycles)


def absorb_pass_timings(registry: MetricsRegistry,
                        timings: Optional[dict]) -> None:
    """Fold per-pass wall-clock seconds in (one real compile's worth)."""
    if not timings:
        return
    for name, seconds in timings.items():
        registry.inc(f"compile.pass.{name}.seconds", seconds)


def absorb_unum_stats(registry: MetricsRegistry, machine) -> None:
    """Fold one unum-backend run's machine + coprocessor accounting in.

    The unum path bypasses the interpreter, so without this adapter its
    cycle model and g-layer traffic never reach the registry (they only
    lived on the :class:`~repro.runtime.unum_machine.UnumMachine`
    object).  Emits ``unum.*`` counters: the split cycle model
    (scalar core vs coprocessor), dynamic instruction counts, memory
    traffic, and per-opcode g-layer op counts.
    """
    coprocessor = machine.coprocessor
    stats = coprocessor.stats
    registry.inc("unum.scalar_cycles", machine.scalar_cycles)
    registry.inc("unum.coprocessor_cycles", coprocessor.cycles)
    registry.inc("unum.instructions", stats.instructions)
    registry.inc("unum.loads", stats.loads)
    registry.inc("unum.stores", stats.stores)
    registry.inc("unum.bytes_loaded", stats.bytes_loaded)
    registry.inc("unum.bytes_stored", stats.bytes_stored)
    registry.inc("unum.config_writes", stats.config_writes)
    for opcode, count in stats.by_opcode.items():
        registry.inc(f"unum.op.{opcode}", count)


def absorb_report(registry: MetricsRegistry, report) -> None:
    """Fold one execution's :class:`CostReport` in."""
    registry.inc("runtime.cycles", report.cycles)
    registry.inc("runtime.instructions", report.instructions)
    registry.inc("runtime.mpfr_calls", report.mpfr_calls)
    registry.inc("runtime.mpfr_allocations", report.mpfr_allocations)
    registry.inc("runtime.heap_allocations", report.heap_allocations)
    registry.inc("runtime.llc_misses", report.llc_misses)
    registry.inc("runtime.dram_bytes", report.dram_bytes)
    registry.inc("runtime.parallel_cycles", report.parallel_cycles)
    for category, cycles in report.by_category.items():
        registry.inc(f"runtime.cycles_by.{category}", cycles)
