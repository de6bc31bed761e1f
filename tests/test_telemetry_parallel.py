"""Telemetry across the parallel engine + the no-perturbation contract.

Two guarantees from the observability tentpole:

* worker shards record into fresh telemetry objects and the parent
  merges them, so a ``run_grid(jobs=N)`` sweep produces the same merged
  metric totals as the serial run and a trace with per-worker tracks;
* telemetry never touches modeled state: kernel outputs are
  bit-identical and cycle reports equal with tracing on vs off, for
  every dispatch engine.
"""

import pytest

from repro.evaluation.harness import run_kernel
from repro.evaluation.parallel import GridPoint, run_grid
from repro.observability import (
    install_telemetry,
    telemetry_session,
)
from repro.observability.stats import validate_trace_document
from repro.workloads.polybench import KERNELS

#: Small but real sweep: 2 kernels x 2 types = 4 points over 2 workers.
GRID = [
    GridPoint.make("gemm", "double", 8),
    GridPoint.make("gemm", "vpfloat<mpfr, 16, 128>", 8),
    GridPoint.make("jacobi-1d", "double", 16),
    GridPoint.make("jacobi-1d", "vpfloat<mpfr, 16, 128>", 16),
]

#: Counters that must be exactly the sum of the shards' work.
SUMMED = ("eval.points", "runtime.cycles", "runtime.instructions",
          "compile.count")


@pytest.fixture(autouse=True)
def _no_leaked_telemetry():
    previous = install_telemetry(None, None)
    try:
        yield
    finally:
        install_telemetry(*previous)


def _bits(value):
    """Exact content tuple for a BigFloat (or the raw value)."""
    if hasattr(value, "mant"):
        return (value.kind, value.sign, value.mant, value.exp, value.prec)
    return value


def _report_tuple(report):
    return (report.cycles, report.instructions, report.mpfr_calls,
            report.mpfr_allocations, report.heap_allocations,
            report.llc_misses, report.dram_bytes,
            report.parallel_cycles, sorted(report.by_category.items()))


class TestParallelMerge:
    def test_run_grid_merges_worker_metrics(self, tmp_path):
        # Serial reference run, telemetry on.
        with telemetry_session(metrics=True) as (_, serial_reg):
            serial = run_grid(GRID, jobs=1,
                              cache_dir=str(tmp_path / "serial"),
                              compile_cache=False)
        # Parallel run: shards record independently, parent merges.
        with telemetry_session(trace=True, metrics=True) \
                as (tracer, merged_reg):
            parallel = run_grid(GRID, jobs=2,
                                cache_dir=str(tmp_path / "par"),
                                compile_cache=False)
        assert merged_reg.counters["eval.points"] == len(GRID)
        for name in SUMMED:
            assert merged_reg.counters[name] == \
                serial_reg.counters[name], name
        # Outcomes themselves are unchanged by the engine.
        for a, b in zip(serial, parallel):
            assert [_bits(x) for x in a.outputs] == \
                [_bits(x) for x in b.outputs]
            assert a.report.cycles == b.report.cycles
        # The trace holds each worker's lifetime span on its own
        # process track, and validates as a Chrome trace.
        doc = tracer.to_chrome()
        validate_trace_document(doc)
        shard_spans = [e for e in doc["traceEvents"]
                       if e["ph"] == "X" and e["name"] == "worker.shard"]
        if len({e["pid"] for e in doc["traceEvents"]
                if e["ph"] == "X"}) > 1:
            # Genuine multi-process run (not the serial fallback).
            assert len(shard_spans) == 2
            assert len({e["pid"] for e in shard_spans}) == 2
            assert all(e["args"]["tasks"] == 2 for e in shard_spans)

    def test_disabled_parent_ships_no_telemetry(self, tmp_path):
        # No telemetry installed: the sweep must work exactly as before.
        outcomes = run_grid(GRID[:2], jobs=2,
                            cache_dir=str(tmp_path / "c"),
                            compile_cache=False)
        assert len(outcomes) == 2


class TestNoPerturbation:
    """Tracing on vs off: bit-identical outputs, identical cycles."""

    @pytest.mark.parametrize("engine", ("jit", "legacy"))
    @pytest.mark.parametrize("kernel,n", (("gemm", 8), ("jacobi-1d", 16)))
    def test_outputs_and_report_identical(self, kernel, n, engine):
        ftype = "vpfloat<mpfr, 16, 128>"
        baseline = run_kernel(kernel, ftype, n, backend="none",
                              engine=engine, compile_cache=None)
        with telemetry_session(trace=True, metrics=True):
            traced = run_kernel(kernel, ftype, n, backend="none",
                                engine=engine, compile_cache=None)
        assert [_bits(x) for x in baseline.outputs] == \
            [_bits(x) for x in traced.outputs]
        assert _report_tuple(baseline.report) == \
            _report_tuple(traced.report)

    @pytest.mark.parametrize("engine", ("jit", "legacy"))
    def test_mpfr_backend_identical(self, engine):
        baseline = run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 8,
                              backend="mpfr", engine=engine,
                              compile_cache=None)
        with telemetry_session(trace=True, metrics=True):
            traced = run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 8,
                                backend="mpfr", engine=engine,
                                compile_cache=None)
        assert [_bits(x) for x in baseline.outputs] == \
            [_bits(x) for x in traced.outputs]
        assert _report_tuple(baseline.report) == \
            _report_tuple(traced.report)
