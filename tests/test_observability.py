"""Unified telemetry subsystem: tracer, metrics registry, validators.

Covers the tentpole guarantees: span nesting / Chrome-trace validity,
MetricsRegistry round-trips and merges, the absorb adapters over the
stack's pre-existing stats objects, the vpfloat-stats validators, and
the install/restore semantics of the process-global telemetry hooks.
"""

import json

import pytest

from repro.core import CompileCache, CompilerDriver, compile_source
from repro.observability import (
    CAT_COMPILE,
    CAT_RUNTIME,
    MetricsRegistry,
    Tracer,
    current_metrics,
    current_tracer,
    enable_telemetry,
    install_telemetry,
    telemetry_enabled,
    telemetry_session,
)
from repro.observability.stats import (
    ValidationError,
    main as stats_main,
    render_codegen_summary,
    render_trace_summary,
    validate_metrics_document,
    validate_trace_document,
)

SRC = """
double run(int n) {
  vpfloat<mpfr, 16, 256> s = 0.0;
  for (int i = 0; i < n; i = i + 1) {
    s = s + 1.5;
  }
  return (double)s;
}
"""


@pytest.fixture(autouse=True)
def _no_leaked_telemetry():
    """Every test starts and ends with telemetry disabled."""
    previous = install_telemetry(None, None)
    try:
        yield
    finally:
        install_telemetry(*previous)


class TestTracer:
    def test_span_nesting_and_chrome_export(self):
        tracer = Tracer(pid=1)
        with tracer.span("outer", cat=CAT_COMPILE):
            with tracer.span("inner", cat=CAT_COMPILE):
                pass
        with tracer.span("sibling", cat=CAT_RUNTIME):
            pass
        doc = tracer.to_chrome()
        validate_trace_document(doc)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert names == {"outer", "inner", "sibling"}
        outer = next(e for e in spans if e["name"] == "outer")
        inner = next(e for e in spans if e["name"] == "inner")
        # Inner nests strictly within outer on the same track.
        assert inner["ts"] >= outer["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner["tid"] == outer["tid"]
        # Timestamps are normalized: the earliest span starts at ~0.
        assert min(e["ts"] for e in spans) == 0

    def test_metadata_names_processes(self):
        tracer = Tracer(pid=7)
        with tracer.span("s"):
            pass
        doc = tracer.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["pid"] == 7 and e["name"] == "process_name"
                   for e in meta)

    def test_instant_and_counter_events(self):
        # The stack emits spans only, but traces made elsewhere may
        # carry instants and counter samples.
        tracer = Tracer(pid=1)
        tracer.extend([
            {"name": "marker", "cat": "runtime", "ph": "i", "s": "t",
             "ts": 1.0, "pid": 1, "tid": 1},
            {"name": "pool", "cat": "pool", "ph": "C", "ts": 2.0,
             "pid": 1, "tid": 0, "args": {"hits": 3, "misses": 1}}])
        doc = tracer.to_chrome()
        validate_trace_document(doc)
        phases = sorted(e["ph"] for e in tracer.events)
        assert phases == ["C", "i"]

    def test_extend_merges_foreign_events(self):
        parent = Tracer(pid=1)
        child = Tracer(pid=2)
        with child.span("shard"):
            pass
        parent.extend(child.events)
        doc = parent.to_chrome()
        validate_trace_document(doc)
        assert {e["pid"] for e in doc["traceEvents"]
                if e["ph"] == "X"} == {2}

    def test_export_writes_json(self, tmp_path):
        tracer = Tracer(pid=1)
        with tracer.span("s"):
            pass
        path = tmp_path / "t.json"
        tracer.export(str(path))
        data = json.loads(path.read_text())
        validate_trace_document(data)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        reg.gauge("g", 5)
        reg.gauge("g", 3)  # gauges keep the last value in-process
        reg.observe("h", 256)
        reg.observe("h", 256)
        reg.observe("h", 512)
        assert reg.counters["a"] == 3
        assert reg.gauges["g"] == 3
        assert reg.histograms["h"] == {256: 2, 512: 1}

    def test_round_trip_and_validation(self):
        reg = MetricsRegistry()
        reg.inc("c", 4)
        reg.gauge("g", 1.5)
        reg.observe("h", 128)
        doc = reg.to_dict()
        validate_metrics_document(doc)
        # JSON-serializable end to end (histogram keys stringified).
        clone = MetricsRegistry.from_dict(json.loads(json.dumps(doc)))
        assert clone.counters == reg.counters
        assert clone.gauges == reg.gauges
        assert clone.histograms == reg.histograms

    def test_merge_sums_counters_and_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.inc("only-b")
        a.gauge("g", 10)
        b.gauge("g", 4)
        a.observe("h", 64)
        b.observe("h", 64)
        b.observe("h", 128)
        a.merge(b)
        assert a.counters["c"] == 3
        assert a.counters["only-b"] == 1
        assert a.gauges["g"] == 10
        assert a.histograms["h"] == {64: 2, 128: 1}

    def test_save_load(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("x", 7)
        path = tmp_path / "m.json"
        reg.save(str(path))
        assert MetricsRegistry.load(str(path)).counters["x"] == 7

    def test_render_mentions_all_names(self):
        reg = MetricsRegistry()
        reg.inc("compile.count", 2)
        reg.observe("codegen.emit_seconds", 0.25)
        text = reg.render()
        assert "compile.count" in text
        assert "codegen.emit_seconds" in text


class TestInstall:
    def test_disabled_by_default(self):
        assert current_tracer() is None
        assert current_metrics() is None
        assert not telemetry_enabled()

    def test_enable_and_restore(self):
        tracer, registry = enable_telemetry(trace=True, metrics=True)
        assert current_tracer() is tracer
        assert current_metrics() is registry
        assert telemetry_enabled()
        install_telemetry(None, None)
        assert not telemetry_enabled()

    def test_session_restores_previous(self):
        outer, _ = enable_telemetry(trace=True)
        with telemetry_session(metrics=True) as (tracer, registry):
            assert tracer is None
            assert registry is current_metrics()
            assert current_tracer() is None
        assert current_tracer() is outer
        assert current_metrics() is None


class TestCompilerTelemetry:
    def test_compile_produces_spans_and_pass_metrics(self):
        with telemetry_session(trace=True, metrics=True) \
                as (tracer, registry):
            compile_source(SRC, backend="mpfr")
        doc = tracer.to_chrome()
        validate_trace_document(doc)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(n.startswith("compile:") for n in names)
        assert any(n.startswith("pass:") for n in names)
        assert "lowering:mpfr" in names
        assert registry.counters["compile.count"] == 1
        assert registry.counters["compile.fresh"] == 1
        assert any(k.startswith("compile.pass.")
                   for k in registry.counters)

    def test_cache_lookup_span_and_counters(self):
        cache = CompileCache(directory=None)
        driver = CompilerDriver(backend="mpfr", cache=cache)
        with telemetry_session(trace=True, metrics=True) \
                as (tracer, registry):
            driver.compile(SRC, name="k")
            driver.compile(SRC, name="k")
        names = [e["name"] for e in tracer.events if e["ph"] == "X"]
        assert names.count("cache.lookup") == 2
        assert registry.counters["compile.cache.misses"] == 1
        assert registry.counters["compile.cache.memory_hits"] == 1
        assert registry.counters["compile.cache.stores"] == 1
        assert registry.counters["compile.cache_hits"] == 1

    def test_execute_spans_and_runtime_metrics(self):
        program = compile_source(SRC, backend="mpfr")
        with telemetry_session(trace=True, metrics=True) \
                as (tracer, registry):
            program.run("run", [8])
        names = [e["name"] for e in tracer.events if e["ph"] == "X"]
        assert "execute:run" in names
        execute = next(e for e in tracer.events
                       if e["ph"] == "X" and e["name"] == "execute:run")
        assert execute["args"]["cycles"] > 0
        assert registry.counters["runtime.cycles"] > 0
        assert registry.counters["runtime.mpfr_calls"] > 0


class TestValidators:
    def test_rejects_malformed_metrics(self):
        with pytest.raises(ValidationError, match="not numeric"):
            validate_metrics_document({"counters": {"x": "nope"},
                                       "gauges": {}, "histograms": {}})
        with pytest.raises(ValidationError, match="bucket"):
            validate_metrics_document({"counters": {}, "gauges": {},
                                       "histograms": {"h": {"abc": 1}}})

    def test_partial_metrics_documents_validate(self):
        # A dump missing whole sections is still a metrics document
        # (hand-pruned files, runs that recorded no histograms):
        # missing sections read as empty rather than invalid.
        validate_metrics_document({"gauges": {}, "histograms": {}})
        validate_metrics_document({"counters": {"x": 1}})
        validate_metrics_document({})
        registry = MetricsRegistry.from_dict({"counters": {"x": 1}})
        assert registry.counter("x") == 1
        with pytest.raises(ValueError):
            MetricsRegistry.from_dict({"counters": ["not", "a", "map"]})

    def test_rejects_malformed_trace(self):
        with pytest.raises(ValidationError, match="traceEvents"):
            validate_trace_document({})
        with pytest.raises(ValidationError, match="missing 'ph'"):
            validate_trace_document({"traceEvents": [
                {"name": "x", "pid": 1, "tid": 1, "ts": 0}]})
        with pytest.raises(ValidationError, match="negative"):
            validate_trace_document({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                 "ts": 0, "dur": -5}]})

    def test_rejects_partial_overlap(self):
        events = [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0, "dur": 10},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1,
             "ts": 5, "dur": 10},
        ]
        with pytest.raises(ValidationError, match="overlaps"):
            validate_trace_document({"traceEvents": events})

    def test_accepts_disjoint_and_nested(self):
        events = [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1,
             "ts": 0, "dur": 10},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1,
             "ts": 2, "dur": 4},
            {"name": "c", "ph": "X", "pid": 1, "tid": 1,
             "ts": 20, "dur": 3},
        ]
        validate_trace_document({"traceEvents": events})

    def test_render_trace_summary(self):
        tracer = Tracer(pid=1)
        with tracer.span("compile:x", cat=CAT_COMPILE):
            pass
        text = render_trace_summary(tracer.to_chrome())
        assert "compile:x" in text


class TestStatsCLI:
    def test_validate_and_render(self, tmp_path, capsys):
        tracer = Tracer(pid=1)
        with tracer.span("s"):
            pass
        trace_path = tmp_path / "t.json"
        tracer.export(str(trace_path))
        reg = MetricsRegistry()
        reg.inc("compile.count")
        metrics_path = tmp_path / "m.json"
        reg.save(str(metrics_path))
        assert stats_main(["--validate", str(trace_path),
                           str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "OK (trace)" in out
        assert "OK (metrics)" in out
        assert stats_main([str(metrics_path)]) == 0
        assert "compile.count" in capsys.readouterr().out

    def test_invalid_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"counters\": 3}")
        assert stats_main(["--validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestCodegenSummary:
    def test_renders_per_function_status(self):
        text = render_codegen_summary({"counters": {
            "codegen.fn.run.jit": 4,
            "codegen.fn.scale.jit": 4,
            "codegen.fn.dyn.fallback.dynamic-vpfloat-call-operand": 4,
            "codegen.functions.jit": 8,
        }})
        assert "3 function(s), 2 specialized, 1 fell back" in text
        lines = {l.split()[0]: l for l in text.splitlines()[3:]}
        assert "fallback" in lines["dyn"]
        assert "dynamic-vpfloat-call-operand" in lines["dyn"]
        assert "jit" in lines["run"]
        assert "jit" in lines["scale"]

    def test_empty_without_codegen_counters(self):
        assert render_codegen_summary({"counters": {"x": 1}}) == ""

    def test_stats_cli_appends_codegen_section(self, tmp_path, capsys):
        reg = MetricsRegistry()
        reg.inc("codegen.fn.run.jit")
        path = tmp_path / "m.json"
        reg.save(str(path))
        assert stats_main([str(path)]) == 0
        assert "codegen (jit engine)" in capsys.readouterr().out


class TestStatsHardening:
    """Empty/partial inputs must render "no data", never raise."""

    def test_empty_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert stats_main([str(path)]) == 0
        assert "no data" in capsys.readouterr().out

    def test_partial_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text('{"counters": {"compile.count": 2}}')
        assert stats_main([str(path)]) == 0
        assert "compile.count" in capsys.readouterr().out

    def test_empty_ledger_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert stats_main([str(path)]) == 0
        assert "no data" in capsys.readouterr().out

    def test_ledger_with_only_torn_lines(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"schema": 1, "event": "run", "trunc\n')
        assert stats_main([str(path)]) == 0
        out = capsys.readouterr()
        assert "no data" in out.out or "skipped" in out.out + out.err


class TestUnumTelemetry:
    def test_unum_run_emits_counters(self):
        from repro.core import CompilerDriver
        from repro.workloads.polybench import source_for

        source = source_for("gemm", "vpfloat<unum, 3, 6>")
        with telemetry_session(metrics=True) as (_, registry):
            program = CompilerDriver(backend="unum").compile(
                source, name="gemm-unum-telemetry")
            program.run("run", [4])
        assert registry.counter("unum.instructions") > 0
        assert registry.counter("unum.coprocessor_cycles") > 0
        assert registry.counter("unum.scalar_cycles") > 0
        assert any(name.startswith("unum.op.")
                   for name in registry.counters)

    def test_fig2_unum_point_counted_once(self):
        # run_kernel's unum point runs through CompiledProgram.run, whose
        # boundary alone absorbs the machine's counters.
        from repro.evaluation.fig2 import UNUM_TYPE
        from repro.evaluation.harness import parse_ftype, run_kernel
        from repro.unum import UnumConfig, UnumCoprocessor
        from repro.workloads.polybench import source_for

        with telemetry_session(metrics=True) as (_, registry):
            outcome = run_kernel("gemm", UNUM_TYPE, 4, backend="unum",
                                 read_outputs=False, compile_cache=None)
        params = parse_ftype(UNUM_TYPE)[1]
        config = UnumConfig(params["ess"], params["fss"])
        program = CompilerDriver(backend="unum").compile(
            source_for("gemm", UNUM_TYPE), name="gemm-unum")
        result = program.run("run", [4], coprocessor=UnumCoprocessor(
            wgp=min(512, config.precision)))
        assert result.report.cycles == outcome.report.cycles
        assert registry.counter("unum.scalar_cycles") == \
            result.machine.scalar_cycles

    def test_unum_summary_rendered_by_stats(self, tmp_path, capsys):
        from repro.observability.stats import render_unum_summary

        document = {"counters": {
            "unum.scalar_cycles": 100, "unum.coprocessor_cycles": 300,
            "unum.instructions": 42, "unum.loads": 5, "unum.stores": 4,
            "unum.bytes_loaded": 80, "unum.bytes_stored": 64,
            "unum.op.gmul": 7,
        }}
        text = render_unum_summary(document)
        assert "unum" in text and "gmul" in text
        path = tmp_path / "unum.json"
        path.write_text(json.dumps(document))
        assert stats_main([str(path)]) == 0
        assert "gmul" in capsys.readouterr().out

    def test_no_unum_section_without_counters(self):
        from repro.observability.stats import render_unum_summary

        assert render_unum_summary({"counters": {"x": 1}}) == ""


class TestObserveSpine:
    """``observe`` is each boundary's one instrumentation point: one
    span and one ledger record per boundary, nothing when disabled."""

    def test_disabled_path_is_the_shared_noop(self):
        from repro.observability import (
            NULL_OBSERVATION,
            install_ledger,
            observe,
        )

        previous = install_ledger(None)
        try:
            first = observe("execute:f", event="run", backend="mpfr")
            second = observe("frontend", cat=CAT_COMPILE)
        finally:
            install_ledger(previous)
        assert first is NULL_OBSERVATION and second is NULL_OBSERVATION
        report = compile_source(SRC, backend="mpfr").run("run", [2]).report
        with first as obs:
            obs.attach(report)
            obs.note(function="f")
            obs.arg(cycles=1)
            obs.count("x")
        assert NULL_OBSERVATION._report is None
        assert not NULL_OBSERVATION._attached
        assert not NULL_OBSERVATION._fields

    def test_one_span_and_one_record_per_boundary(self, tmp_path):
        from collections import Counter

        from repro.observability import ledger_session, read_ledger

        ledger_path = tmp_path / "ledger.jsonl"
        cache = CompileCache(tmp_path / "cache")
        with telemetry_session(trace=True, metrics=True) as (tracer, _), \
                ledger_session(ledger_path):
            program = CompilerDriver(backend="mpfr", cache=cache) \
                .compile(SRC, name="m")
            CompilerDriver(backend="mpfr", cache=cache).compile(SRC,
                                                                name="m")
            program.run("run", [4])
            program.run_batch("run", [4], lanes=2)
        records, problems = read_ledger(ledger_path)
        assert not problems
        assert [(r["event"], r.get("cached")) for r in records] == [
            ("compile", False), ("compile", True), ("run", None),
            ("batch_run", None)]
        assert records[3]["mode"] == "batched"
        spans = Counter(event["name"] for event in tracer.events
                        if event["ph"] == "X")
        assert spans["compile:m"] == 2 and spans["cache.lookup"] == 2
        assert spans["frontend"] == spans["o3-pipeline"] == 1
        assert spans["lowering:mpfr"] == 1
        assert spans["execute:run"] == spans["execute-batch:run"] == 1
