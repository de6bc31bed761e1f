"""Differential tests for the specializing jit codegen engine.

Every PolyBench and RAJAPerf kernel is executed under both the ``jit``
engine (compiled Python source, :mod:`repro.codegen.pyjit`) and the
``legacy`` reference walker; outputs must be bit-identical and the
modeled cycle reports identical field by field.  Dynamic-precision
kernels exercise the per-function fallback path, and the CompileCache
round-trip checks that warm runs skip re-emission.
"""

import dataclasses
import re
from importlib.util import MAGIC_NUMBER

import pytest

from repro.codegen import pyjit
from repro.codegen.pyjit import CodegenStore, emit_function_source
from repro.core import CompileCache, CompilerDriver, compile_source
from repro.evaluation.harness import _read_interpreter_outputs
from repro.observability import ledger_session, telemetry_session
from repro.validation.certificate import values_token
from repro.workloads import RAJA_KERNELS, raja_source
from repro.workloads.polybench import KERNELS, source_for

POLYBENCH_FTYPE = "vpfloat<mpfr, 16, 128>"
RAJA_FTYPE = "vpfloat<mpfr, 16, 96>"
RAJA_N = 20


def _full_state(report, interp):
    """Every CostReport field, the MPFR stats (``by_name`` included)
    and object counts, and the memory model's byte counters and heap
    of one run."""
    fields = {f.name: getattr(report, f.name)
              for f in dataclasses.fields(report)}
    fields["by_category"] = dict(report.by_category)
    library, memory = interp.mpfr, interp.memory
    return {"report": fields,
            "mpfr": dataclasses.asdict(library.stats),
            "objects": (library.live_objects, library.peak_live_objects,
                        library.pooled_objects()),
            "bytes": (memory.bytes_read, memory.bytes_written),
            "heap": (memory.heap_pointer, dict(memory.heap_blocks))}


def _assert_identical(jit, legacy):
    assert (_full_state(jit.report, jit.interpreter)
            == _full_state(legacy.report, legacy.interpreter))


class TestPolyBenchDifferential:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_jit_matches_legacy(self, kernel):
        # One compile, both engines: instruction order out of the -O3
        # pipeline feeds the cache model, so comparing across separate
        # compiles would compare two different (equally valid) layouts.
        spec = KERNELS[kernel]
        n = spec.size_for("mini")
        program = compile_source(source_for(kernel, POLYBENCH_FTYPE),
                                 backend="mpfr")
        jit = program.run("run", [n], engine="jit")
        legacy = program.run("run", [n], engine="legacy")
        assert jit.value == legacy.value
        jit_out = _read_interpreter_outputs(
            jit.interpreter, int(jit.value), spec.outputs(n),
            POLYBENCH_FTYPE, "mpfr")
        legacy_out = _read_interpreter_outputs(
            legacy.interpreter, int(legacy.value), spec.outputs(n),
            POLYBENCH_FTYPE, "mpfr")
        assert jit_out == legacy_out
        _assert_identical(jit, legacy)


class TestRajaPerfDifferential:
    @pytest.mark.parametrize("kernel", RAJA_KERNELS)
    def test_jit_matches_legacy(self, kernel):
        source = raja_source(kernel, RAJA_FTYPE, openmp=False)
        program = compile_source(source, backend="mpfr")
        jit = program.run("run", [RAJA_N], engine="jit")
        legacy = program.run("run", [RAJA_N], engine="legacy")
        assert jit.value == legacy.value
        _assert_identical(jit, legacy)


#: (kernel, n) for the inlined-MPFR differential: small sizes, every
#: inlined helper reached (gemm/atax: op3 + set_scalar, the jacobis:
#: op3 + set_; all of them init2/clear and the array helpers).
MPFR_FAST_PATH_KERNELS = (("gemm", 5), ("atax", 8), ("jacobi-1d", 12),
                          ("jacobi-2d", 5))

#: Kernels with the most vpfloat array elements per run: most of their
#: init2/clear traffic goes through __mpfr_array_init/_clear.
ARRAY_HEAVY_KERNELS = (("3mm", 6), ("fdtd-2d", 6), ("adi", 6))

#: A callee whose temporaries are cleared on every return and
#: re-initialized by the next call: with the pool on, every call after
#: the first is served from the free list.
POOL_SRC = """
vpfloat<mpfr, 16, 128> step(vpfloat<mpfr, 16, 128> x) {
  vpfloat<mpfr, 16, 128> y = x * 1.5;
  return y + x;
}

double run(int n) {
  vpfloat<mpfr, 16, 128> s = 1.0;
  for (int i = 0; i < n; i = i + 1) s = step(s);
  return (double) s;
}
"""


class TestMpfrFastPathDifferential:
    """The jit's inlined MPFR helpers against the legacy walker's
    installed handlers, with the cache model on and off: values, every
    report field, MPFR stats and object counts, memory byte counts and
    the heap are identical.  At 300 and 512 bits the limb blocks
    straddle cache lines."""

    @pytest.mark.parametrize("prec", (24, 128, 300, 512))
    @pytest.mark.parametrize("kernel,n", MPFR_FAST_PATH_KERNELS)
    def test_mpfr_matches_legacy(self, kernel, n, prec):
        self._check(kernel, "mpfr", prec, n)

    def test_boost_matches_legacy(self):
        self._check("gemm", "boost", 128, 5)

    @pytest.mark.parametrize("prec", (64, 300))
    @pytest.mark.parametrize("kernel,n", MPFR_FAST_PATH_KERNELS)
    def test_boost_pool_off_matches_legacy(self, kernel, n, prec):
        # Boost runs with the pool off: every clear frees its block.
        self._check(kernel, "boost", prec, n)

    @pytest.mark.parametrize("backend", ("mpfr", "boost"))
    @pytest.mark.parametrize("kernel,n", ARRAY_HEAVY_KERNELS)
    def test_array_heavy_matches_legacy(self, kernel, n, backend):
        self._check(kernel, backend, 128, n)

    @pytest.mark.parametrize("pool_limit", (1024, 1))
    @pytest.mark.parametrize("cache", (True, False))
    def test_pool_hits_and_parks_match_legacy(self, pool_limit, cache):
        # A limit of 1 parks one handle per precision and frees the
        # rest: the helpers' hit, park and free branches all run.
        from repro.bigfloat import MpfrLibrary
        from repro.runtime import Interpreter
        from repro.runtime.cost_model import CacheModel, CostAccounting

        program = compile_source(POOL_SRC, backend="mpfr",
                                 disable_passes=("inline",))
        states, interps = {}, {}
        for engine in ("jit", "legacy"):
            interp = interps[engine] = Interpreter(
                program.module, dispatch=engine,
                accounting=CostAccounting(
                    cache=CacheModel() if cache else None),
                mpfr_library=MpfrLibrary(pool=True, pool_limit=pool_limit))
            result = interp.run("run", [8])
            states[engine] = (result.value,
                              _full_state(result.report, interp))
        assert states["jit"] == states["legacy"]
        stats = states["jit"][1]["mpfr"]
        assert stats["pool_hits"] > 0 and stats["pool_releases"] > 0
        assert (stats["clears"] > 0) == (pool_limit == 1)
        statuses = interps["jit"]._jit_engine.store.statuses()
        assert {statuses[f]["status"] for f in ("run", "step")} == {"jit"}

    @pytest.mark.parametrize("prec", (128, 512))
    @pytest.mark.parametrize("kernel,n", (("gemm", 5), ("jacobi-2d", 5)))
    def test_evicting_cache_matches_legacy(self, kernel, n, prec):
        # Levels of 8, 32 and 128 lines: the helpers' touches miss,
        # hit in L2/L3 and evict, not only hit in L1.
        from repro.runtime import Interpreter
        from repro.runtime.cost_model import (CacheLevel, CacheModel,
                                              CostAccounting)

        levels = (CacheLevel("L1", 8 * 64, 64, 4),
                  CacheLevel("L2", 32 * 64, 64, 12),
                  CacheLevel("L3", 128 * 64, 64, 40))
        program = compile_source(
            source_for(kernel, f"vpfloat<mpfr, 16, {prec}>"),
            backend="mpfr")
        states, interps = {}, {}
        for engine in ("jit", "legacy"):
            interp = interps[engine] = Interpreter(
                program.module, dispatch=engine, mpfr_pool=True,
                accounting=CostAccounting(cache=CacheModel(levels=levels)))
            report = interp.run("run", [n]).report
            states[engine] = _full_state(report, interp)
        assert states["jit"] == states["legacy"]
        assert all(states["jit"]["report"]["cache_hits"])
        statuses = interps["jit"]._jit_engine.store.statuses()
        assert statuses["run"]["status"] == "jit"

    @staticmethod
    def _check(kernel, backend, prec, n):
        program = compile_source(
            source_for(kernel, f"vpfloat<mpfr, 16, {prec}>"),
            backend=backend)
        for cache in (True, False):
            jit = program.run("run", [n], engine="jit", cache=cache)
            legacy = program.run("run", [n], engine="legacy", cache=cache)
            assert values_token([jit.value]) == values_token([legacy.value])
            _assert_identical(jit, legacy)
            assert jit.report.mpfr_calls > 0
        assert program._codegen_store.statuses()["run"]["status"] == "jit"


FAULT_SRC = """
double f(double a, double b) {
  vpfloat<mpfr, 16, 128> x = a, y = b, z;
  z = x * y;
  z = z + x;
  return (double) z;
}
"""


ARRAY_SRC = """
double g(double a) {
  vpfloat<mpfr, 16, 128> v[4];
  for (int i = 0; i < 4; i = i + 1) v[i] = a + i;
  return (double) v[3];
}
"""


def _fault_program(fault):
    """FAULT_SRC at -O0 with its ``mpfr_mul(z, x, y)`` made to fault:
    ``cleared`` clears y first, ``uninitialized`` drops z's init2,
    ``null`` passes a null x; ``cleared-set`` clears x before its
    ``mpfr_set_d``.  The lifecycle faults: ``double-clear`` clears y
    twice, ``clear-uninitialized`` clears z before its init2, and
    ``null-init2``/``null-clear`` pass a null x to its init2/clear."""
    from repro.ir import CallInst, ConstantPointerNull

    program = compile_source(FAULT_SRC, backend="mpfr", opt_level=0)
    block = program.module.get_function("f").blocks[0]
    calls = [i for i in block.instructions if isinstance(i, CallInst)]

    def call(name, operand):
        return next(i for i in calls if i.callee.name == name
                    and i.operands[0] is operand)

    mul = next(i for i in calls if i.callee.name == "mpfr_mul")
    dst, x, y = mul.operands
    if fault == "cleared":
        clear = call("mpfr_clear", y)
        block.instructions.remove(clear)
        block.insert_before(mul, clear)
    elif fault == "uninitialized":
        call("mpfr_init2", dst).erase_from_parent()
    elif fault == "null":
        mul.set_operand(1, ConstantPointerNull(x.type))
    elif fault == "double-clear":
        clear = call("mpfr_clear", y)
        block.insert_before(clear, CallInst(clear.callee, [y]))
    elif fault == "clear-uninitialized":
        clear = call("mpfr_clear", dst)
        block.insert_before(call("mpfr_init2", dst),
                            CallInst(clear.callee, [dst]))
    elif fault == "null-init2":
        call("mpfr_init2", x).set_operand(0, ConstantPointerNull(x.type))
    elif fault == "null-clear":
        call("mpfr_clear", x).set_operand(0, ConstantPointerNull(x.type))
    else:  # cleared-set
        set_d = call("mpfr_set_d", x)
        clear = call("mpfr_clear", x)
        block.instructions.remove(clear)
        block.insert_before(set_d, clear)
    return program


class TestMpfrFastPathFaults:
    """A fault on an inlined MPFR call raises the walker's exception
    type and message and leaves the walker's state: handle loads,
    cache traffic, MPFR charges and stats, and the step and
    instruction counts and static charges up to the faulting call."""

    @pytest.mark.parametrize("fault", ("cleared", "uninitialized", "null",
                                       "cleared-set", "double-clear",
                                       "clear-uninitialized", "null-init2",
                                       "null-clear"))
    @pytest.mark.parametrize("cache", (True, False))
    def test_fault_matches_legacy(self, fault, cache, monkeypatch):
        from repro.bigfloat.mpfr_api import MpfrVar

        program = _fault_program(fault)
        outcomes = {}
        for engine in ("jit", "legacy"):
            # Handle uids appear in use-after-clear messages.
            monkeypatch.setattr(MpfrVar, "_next_uid", 0)
            interp = program.interpreter(cache=cache, engine=engine)
            with pytest.raises(Exception) as raised:
                interp.run("f", [3.0, 2.0])
            report = interp.accounting.finalize(interp.memory)
            outcomes[engine] = (type(raised.value), str(raised.value),
                                _full_state(report, interp), interp.steps)
        assert outcomes["jit"] == outcomes["legacy"]
        assert program._codegen_store.statuses()["f"]["status"] == "jit"

    @pytest.mark.parametrize("backend", ("mpfr", "boost"))
    @pytest.mark.parametrize("cache", (True, False))
    def test_array_clear_over_cleared_elements(self, backend, cache):
        # A clear of the array's first two elements ahead of its own
        # clear: the array clear loads every element, skips the two
        # dead ones and clears the rest.
        from repro.ir import CallInst, ConstantInt
        from repro.ir.types import I64

        program = compile_source(ARRAY_SRC, backend=backend, opt_level=0)
        array_clear = next(
            i for b in program.module.get_function("g").blocks
            for i in b.instructions if isinstance(i, CallInst)
            and i.callee.name == "__mpfr_array_clear")
        array_clear.parent.insert_before(array_clear, CallInst(
            array_clear.callee,
            [array_clear.operands[0], ConstantInt(I64, 2)]))
        states = {}
        for engine in ("jit", "legacy"):
            result = program.run("g", [2.0], engine=engine, cache=cache)
            states[engine] = (result.value,
                              _full_state(result.report, result.interpreter))
        assert states["jit"] == states["legacy"]
        assert states["jit"][0] == 5.0
        assert states["jit"][1]["objects"][0] == 0  # every element cleared
        assert program._codegen_store.statuses()["g"]["status"] == "jit"


SCALAR_FAULT_SRC = """
double divide(long n, long m) {
  vpfloat<mpfr, 16, 100> acc = 1.0;
  long s = 0;
  for (long i = 0; i < m; i = i + 1) {
    acc = acc * 1.5;
    s = s + 100 / (n - i);
    acc = acc + s;
    s = s * 3;
  }
  return (double) acc + s;
}

double remainder(long n, long m) {
  vpfloat<mpfr, 16, 100> acc = 1.0;
  long s = 0;
  for (long i = 0; i < m; i = i + 1) {
    acc = acc * 1.5;
    s = s * 3 + 7 % (n - i);
    acc = acc + s;
  }
  return (double) acc + s;
}

long inner(long n, long i) {
  long q = 100 / (n - i);
  return q * 2 + 1;
}

long middle(long n, long i) {
  long t = inner(n, i);
  return t * 3 + i;
}

double before_call(long n, long m) {
  long s = 0;
  for (long i = 0; i < m; i = i + 1) {
    s = s + 100 / (n - i);
    s = s + middle(n + 100, i);
  }
  return s;
}

double nested(long n, long m) {
  vpfloat<mpfr, 16, 100> acc = 1.0;
  long s = 0;
  for (long i = 0; i < m; i = i + 1) {
    acc = acc * 1.5;
    s = s + middle(n, i);
    acc = acc + s;
  }
  return (double) acc + s;
}

double region(long n, long m) {
  vpfloat<mpfr, 16, 100> A[8];
  vpfloat<mpfr, 16, 100> s = 0.0;
  long d = 100 / (n + m);
  #pragma omp parallel for
  for (long i = 0; i < m; i++) {
    A[i] = 2.0 * i;
    A[i] = A[i] + 100 / (n - i);
  }
  for (long i = 0; i < m; i++) s = s + A[i];
  return (double) s + d;
}
"""


def _scalar_fault_program(backend, fault):
    """SCALAR_FAULT_SRC without inlining.  ``unreachable`` ends the
    loop body of ``divide`` in an ``unreachable``; ``region-entry``
    moves ``region``'s ``__omp_parallel_begin`` ahead of its first
    division, which then faults in the entry block's second charge
    segment."""
    from repro.ir import CallInst, UnreachableInst

    program = compile_source(SCALAR_FAULT_SRC, backend=backend,
                             disable_passes=("inline",))
    if fault == "unreachable":
        body = max(program.module.get_function("divide").blocks,
                   key=lambda b: len(b.instructions))
        body.instructions.pop()
        body.append(UnreachableInst())
    elif fault == "region-entry":
        entry = program.module.get_function("region").entry
        begin = next(i for i in entry.instructions
                     if isinstance(i, CallInst)
                     and i.callee.name == "__omp_parallel_begin")
        entry.instructions.remove(begin)
        first = next(i for i in entry.instructions
                     if i.opcode in ("sdiv", "sub", "add"))
        entry.insert_before(first, begin)
    return program


def _outcome(program, engine, func, args, **options):
    """The value or exception of one run, with its whole state."""
    interp = program.interpreter(engine=engine, **options)
    try:
        value = ("value", interp.run(func, args).value)
    except Exception as error:
        value = (type(error).__name__, str(error))
    report = interp.accounting.finalize(interp.memory)
    return value, _full_state(report, interp), interp.steps


#: (fault, function, arguments): each run raises.
SCALAR_FAULTS = (
    ("sdiv", "divide", [3, 6]),
    ("srem", "remainder", [4, 6]),
    ("unreachable", "divide", [9, 6]),
    ("nested", "nested", [2, 5]),
    ("before-call", "before_call", [2, 5]),
    ("region", "region", [3, 6]),
    ("region-entry", "region", [-6, 6]),
)


class TestScalarFaults:
    """A run that stops in mid-block, on a scalar fault or the step
    limit, leaves the walker's whole state on the jit: the faulting
    instruction is counted and charged and nothing after it, in every
    caller too; the step limit raises at a block's entry before any of
    it is counted."""

    @pytest.mark.parametrize("backend", ("none", "mpfr"))
    @pytest.mark.parametrize("fault,func,args", SCALAR_FAULTS)
    def test_fault_matches_legacy(self, backend, fault, func, args):
        program = _scalar_fault_program(backend, fault)
        jit = _outcome(program, "jit", func, args)
        legacy = _outcome(program, "legacy", func, args)
        assert jit == legacy
        assert legacy[0][0] == "VPRuntimeError"
        assert legacy[1]["report"]["instructions"] == legacy[2] > 0
        statuses = program._codegen_store.statuses()
        assert {record["status"] for record in statuses.values()} == {"jit"}

    @pytest.mark.parametrize("backend", ("none", "mpfr"))
    @pytest.mark.parametrize("func,args", (("nested", [9, 3]),
                                           ("region", [9, 3])))
    def test_step_limit_sweep_matches_legacy(self, backend, func, args):
        program = _scalar_fault_program(backend, None)
        full = _outcome(program, "legacy", func, args)
        assert full[0][0] == "value"
        steps = full[2]
        limited = 0
        for max_steps in range(1, steps + 1):
            jit = _outcome(program, "jit", func, args, max_steps=max_steps)
            legacy = _outcome(program, "legacy", func, args,
                              max_steps=max_steps)
            assert jit == legacy, max_steps
            limited += legacy[0][0] == "ExecutionLimitExceeded"
        assert legacy == full
        assert limited > 0


#: (source, arguments, disabled passes) of the telemetry checks:
#: gemm's vpfloat ops, and a callee whose temporaries cycle through
#: the MPFR pool (its lifecycle helpers) on every call.
TELEMETRY_WORKLOADS = {
    "gemm": (source_for("gemm", POLYBENCH_FTYPE), [4], ()),
    "pool": (POOL_SRC, [100], ("inline",)),
}


def _jit_kernels(interp):
    """``(bound, memoized)`` pairs of every scalar kernel the jit code
    of ``interp``'s functions closes over: its vpfloat op kernels and
    the kernels its MPFR site caches resolved."""
    from repro.codegen.kernels import scalar_kernel

    engine = interp._jit_engine
    pairs = []
    for func in interp.module.functions.values():
        entry = engine._entries.get(id(func))
        if entry is None:
            continue
        closure = dict(zip(entry.__code__.co_freevars,
                           (cell.cell_contents
                            for cell in entry.__closure__)))
        emitter = pyjit.FunctionEmitter(interp, func)
        emitter.emit()
        for (opcode, prec, exp_bits), name in \
                emitter._kernel_refs.items():
            pairs.append((closure[name], scalar_kernel(
                pyjit._VP_OPS[opcode], prec, exp_bits=exp_bits)))
        for op, name in emitter._mpfr_map_refs.items():
            if op in pyjit._MpfrSite._CONSTRUCTORS:
                continue
            pairs.extend((kernel, scalar_kernel(op, prec, exp_bits=eb))
                         for (prec, eb), (kernel, _, _)
                         in closure[name].items())
    return pairs


class TestTelemetryLeavesRunAlone:
    """Installed sinks never change the code a run executes: a run
    under trace + metrics + a run ledger leaves the untraced run's
    value and full state, on both engines, and the jit binds the
    memoized scalar kernels themselves."""

    @pytest.mark.parametrize("workload,backend", [
        ("gemm", "none"), ("gemm", "mpfr"),
        ("pool", "mpfr"), ("pool", "boost")])
    def test_session_matches_untraced(self, workload, backend, tmp_path):
        source, args, disabled = TELEMETRY_WORKLOADS[workload]
        program = compile_source(source, backend=backend,
                                 disable_passes=disabled)
        states = {}
        for engine in ("jit", "legacy"):
            untraced = program.run("run", args, engine=engine)
            with telemetry_session(trace=True, metrics=True) as (
                    tracer, registry), \
                    ledger_session(tmp_path / f"{engine}.jsonl"):
                traced = program.run("run", args, engine=engine)
            assert tracer.events and registry.counters
            for mode, result in (("untraced", untraced),
                                 ("traced", traced)):
                states[engine, mode] = (
                    result.value,
                    _full_state(result.report, result.interpreter))
        assert all(state == states["jit", "untraced"]
                   for state in states.values()), states
        assert program._codegen_store.statuses()["run"]["status"] == "jit"

    @pytest.mark.parametrize("backend", ("none", "mpfr"))
    def test_session_binds_memoized_kernels(self, backend, tmp_path):
        source, args, _ = TELEMETRY_WORKLOADS["gemm"]
        program = compile_source(source, backend=backend)
        with telemetry_session(trace=True, metrics=True), \
                ledger_session(tmp_path / "ledger.jsonl"):
            result = program.run("run", args, engine="jit")
        pairs = _jit_kernels(result.interpreter)
        assert pairs
        assert all(bound is memoized for bound, memoized in pairs)


#: Limb bytes of one ``vpfloat<mpfr, 16, 128>`` handle of ``POOL_SRC``.
POOL_LIMB_BYTES = 16


def _runtime_counters(registry):
    return {name: value for name, value in registry.counters.items()
            if name.startswith("runtime.")}


class TestMpfrLifecycleTelemetry:
    """A traced or metered run takes the same lifecycle path on both
    engines, and what ``observe()`` records of it is the run's own
    MPFR stats: the pool traffic of every acquire/release, and every
    allocating init2 at the type's precision."""

    @pytest.mark.parametrize("backend", ("mpfr", "boost"))
    def test_pool_samples_and_precision_match_legacy(self, backend):
        program = compile_source(POOL_SRC, backend=backend,
                                 disable_passes=("inline",))
        outcomes = {}
        for engine in ("jit", "legacy"):
            with telemetry_session(trace=True, metrics=True) as (_,
                                                                  registry):
                result = program.run("run", [100], engine=engine)
            outcomes[engine] = (
                result.value, _runtime_counters(registry),
                _full_state(result.report, result.interpreter))
        assert outcomes["jit"] == outcomes["legacy"]
        _, counters, state = outcomes["jit"]
        stats = state["mpfr"]
        for field in ("pool_hits", "pool_misses", "pool_releases"):
            assert counters[f"runtime.pool.{field[5:]}"] == stats[field]
        for name in ("mpfr_init2", "mpfr_clear"):
            assert counters[f"runtime.mpfr.call.{name}"] == \
                stats["by_name"][name] >= 100
        if backend == "mpfr":
            # Every call after the first is served from the free list.
            assert stats["pool_hits"] > stats["pool_misses"] > 0
        assert counters["runtime.mpfr.limb_bytes_allocated"] == \
            counters["runtime.mpfr.inits"] * POOL_LIMB_BYTES > 0
        assert program._codegen_store.statuses()["run"]["status"] == "jit"

    @pytest.mark.parametrize("backend", ("mpfr", "boost"))
    def test_precision_metrics_match_legacy(self, backend):
        # Metered but untraced.
        program = compile_source(POOL_SRC, backend=backend,
                                 disable_passes=("inline",))
        outcomes = {}
        for engine in ("jit", "legacy"):
            with telemetry_session(metrics=True) as (_, registry):
                result = program.run("run", [12], engine=engine)
            outcomes[engine] = (
                result.value, _runtime_counters(registry),
                _full_state(result.report, result.interpreter))
        assert outcomes["jit"] == outcomes["legacy"]
        counters = outcomes["jit"][1]
        assert counters["runtime.mpfr.limb_bytes_allocated"] == \
            counters["runtime.mpfr.inits"] * POOL_LIMB_BYTES > 0


DYNAMIC_PREC_SRC = """
vpfloat<mpfr, 16, 256> out;

int run(int n) {
    int p = 64 + n;
    vpfloat<mpfr, 16, p> acc = 0.0;
    vpfloat<mpfr, 16, p> step = 1.25;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + step * step;
    }
    out = (vpfloat<mpfr, 16, 256>)acc;
    return n;
}
"""

MIXED_SRC = """
vpfloat<mpfr, 16, 256> out;

vpfloat<mpfr, 16, 256> scale(vpfloat<mpfr, 16, 256> x, int k) {
    vpfloat<mpfr, 16, 256> y = x;
    for (int i = 0; i < k; i = i + 1) {
        y = y * 1.5;
    }
    return y;
}

int dyn(int p, int k) {
    vpfloat<mpfr, 16, p> acc = 3.25;
    for (int i = 0; i < k; i = i + 1) {
        acc = acc / 2.0;
    }
    return p;
}

int run(int n) {
    out = scale(1.0, n);
    return dyn(96, n);
}
"""


LISTING2_AXPY_SRC = """
void axpy_mpfr(unsigned prec, int N,
               vpfloat<mpfr, 16, prec> alpha,
               vpfloat<mpfr, 16, prec> *X,
               vpfloat<mpfr, 16, prec> *Y) {
    for (unsigned i = 0; i < N; ++i)
        Y[i] = alpha * X[i] + Y[i];
}

double run(unsigned prec, int n) {
    vpfloat<mpfr, 16, prec> alpha = 1.5;
    vpfloat<mpfr, 16, prec> X[8];
    vpfloat<mpfr, 16, prec> Y[8];
    for (int i = 0; i < n; i++) {
        X[i] = i + 0.25;
        Y[i] = 1.0;
    }
    axpy_mpfr(prec, n, alpha, X, Y);
    return (double)Y[n - 1];
}
"""


class TestDynamicPrecisionFallback:
    def test_dynamic_kernel_falls_back_bit_identical(self):
        program = compile_source(DYNAMIC_PREC_SRC, backend="mpfr")
        jit = program.run("run", [6], engine="jit")
        legacy = program.run("run", [6], engine="legacy")
        assert jit.value == legacy.value
        _assert_identical(jit, legacy)
        statuses = program._codegen_store.statuses()
        assert statuses["run"]["status"] == "fallback"
        assert statuses["run"]["reason"]

    def test_mixed_module_per_function_status(self):
        # Inlining would fold dyn(96, n) into run and constant-fold the
        # precision (making everything static); keep the calls to get
        # one jit and one fallback function in the same module.
        program = compile_source(MIXED_SRC, backend="mpfr",
                                 disable_passes=("inline",))
        jit = program.run("run", [5], engine="jit")
        legacy = program.run("run", [5], engine="legacy")
        assert jit.value == legacy.value
        _assert_identical(jit, legacy)
        statuses = program._codegen_store.statuses()
        # The static functions specialize; the dynamic-precision one
        # must fall back to the legacy walker -- per function, not per
        # module.
        assert statuses["dyn"]["status"] == "fallback"
        assert statuses["run"]["status"] == "jit"
        assert statuses["scale"]["status"] == "jit"

    def test_paper_listing_fallback_counted_and_matches_legacy(self):
        # Paper Listing 2's axpy_mpfr takes its precision at runtime,
        # and so does its driver's declarations: under the default
        # engine the driver falls back to the legacy walker, counted
        # per function, with the walker's value and report.
        for backend in ("none", "mpfr"):
            program = compile_source(LISTING2_AXPY_SRC, backend=backend,
                                     disable_passes=("inline",))
            with telemetry_session(metrics=True) as (_, registry):
                default = program.run("run", [100, 6])
            legacy = program.run("run", [100, 6], engine="legacy")
            assert any(k.startswith("codegen.fn.run.fallback.dynamic-")
                       for k in registry.counters), backend
            assert default.value == legacy.value == 8.875
            _assert_identical(default, legacy)
            assert default.report.llc_misses == legacy.report.llc_misses
            assert default.report.dram_bytes == legacy.report.dram_bytes

    def test_bind_failure_reproduces_error_on_walker(self):
        # A constant the runtime cannot evaluate passes emission but
        # fails when the emitted module binds it; the function falls
        # back and the walker raises the very same error.
        from repro.ir import FunctionType, IntType, IRBuilder, Module
        from repro.ir import Function as IRFunction
        from repro.ir.values import Constant
        from repro.runtime import Interpreter, VPRuntimeError

        class Opaque(Constant):
            pass

        module = Module("bind")
        i32 = IntType(32)
        func = module.add_function(IRFunction("f", FunctionType(i32, [])))
        IRBuilder(func.add_block("entry")).ret(Opaque(i32))
        errors = {}
        for engine in ("jit", "legacy"):
            with telemetry_session(metrics=True) as (_, registry):
                with pytest.raises(VPRuntimeError) as raised:
                    Interpreter(module, dispatch=engine).run("f")
            errors[engine] = str(raised.value)
            if engine == "jit":
                assert registry.counters.get(
                    "codegen.fn.f.fallback.bind-failed:-VPRuntimeError") == 1
        assert errors["jit"] == errors["legacy"]
        assert "cannot evaluate constant" in errors["jit"]

    def test_fallback_metrics_and_reason(self):
        program = compile_source(DYNAMIC_PREC_SRC, backend="mpfr")
        with telemetry_session(metrics=True) as (_, registry):
            program.run("run", [4], engine="jit")
        assert registry.counters.get("codegen.functions.fallback", 0) >= 1
        assert any(k.startswith("codegen.fn.run.fallback.")
                   for k in registry.counters)

    def test_emit_rejects_dynamic_precision(self):
        program = compile_source(DYNAMIC_PREC_SRC, backend="mpfr")
        interp = program.interpreter()
        func = program.module.get_function("run")
        source, reason = emit_function_source(interp, func)
        assert source is None
        assert reason


class TestCodegenCacheRoundTrip:
    def test_warm_run_skips_reemission(self, tmp_path):
        source = raja_source("DAXPY", RAJA_FTYPE, openmp=False)
        results = []
        span_args = []
        for _ in range(2):
            with telemetry_session(trace=True) as (tracer, _):
                driver = CompilerDriver(backend="mpfr",
                                        cache=str(tmp_path))
                program = driver.compile(source, "daxpy")
                results.append(program.run("run", [RAJA_N]))
            span_args.append([
                e["args"] for e in tracer.events
                if e.get("name", "").startswith("codegen:")
            ])
        cold, warm = span_args
        assert cold and not any(a.get("cached") for a in cold)
        assert warm and all(a.get("cached") for a in warm)
        assert results[0].value == results[1].value
        assert results[0].report.cycles == results[1].report.cycles
        sidecars = list(tmp_path.glob("*.vpcgen"))
        assert sidecars

    def test_stale_sidecar_version_is_dropped(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        cache.put_codegen("k1", {"version": -1, "functions": {}})
        assert (tmp_path / "k1.vpcgen").read_bytes().startswith(
            MAGIC_NUMBER)
        assert cache.get_codegen("k1") is None
        assert cache.stats.errors == 1
        assert not list(tmp_path.glob("k1.vpcgen"))

    def test_warm_run_never_compiles(self, tmp_path, monkeypatch):
        # The sidecar carries bytecode: a warm process binds it without
        # emitting or compiling any source.
        source = source_for("gemm", POLYBENCH_FTYPE)
        cold = CompilerDriver(backend="mpfr", cache=CompileCache(
            str(tmp_path))).compile(source, "gemm").run("run", [4])

        def no_compile(*args, **kwargs):
            raise AssertionError("warm run called compile()")

        monkeypatch.setattr(pyjit, "compile", no_compile, raising=False)
        warm_driver = CompilerDriver(backend="mpfr", cache=CompileCache(
            str(tmp_path)))
        program = warm_driver.compile(source, "gemm")
        warm = program.run("run", [4])
        assert warm.value == cold.value
        _assert_identical(warm, cold)
        assert warm_driver.cache.stats.disk_hits == 1
        jitted = [name for name, r in program._codegen_store.statuses()
                  .items() if r["status"] == "jit"]
        assert len(jitted) >= 2

    def test_one_sidecar_across_tier_and_batch(self, tmp_path,
                                              monkeypatch):
        # The kernels bind when the code binds, and batched
        # records sit beside the serial ones: one program, one sidecar.
        source = source_for("gemm", "vpfloat<mpfr, 16, 53>")
        program = CompilerDriver(backend="mpfr", cache=CompileCache(
            str(tmp_path))).compile(source, "gemm")
        cold = program.run("run", [4])
        cold_batch = program.run_batch("run", [4], lanes=2)
        assert len(list(tmp_path.glob("*.vpcgen"))) == 1

        def no_compile(*args, **kwargs):
            raise AssertionError("warm run called compile()")

        monkeypatch.setattr(pyjit, "compile", no_compile, raising=False)
        with telemetry_session(metrics=True) as (_, registry):
            program = CompilerDriver(backend="mpfr", cache=CompileCache(
                str(tmp_path))).compile(source, "gemm")
            warm = program.run("run", [4])
        assert registry.counters["compile.cache.disk_hits"] == 1
        warm_batch = program.run_batch("run", [4], lanes=2)
        assert warm_batch.mode == "batched"
        assert warm.report.cycles == cold.report.cycles
        assert warm_batch.reports[0].cycles == cold_batch.reports[0].cycles

    def test_cold_run_writes_sidecar_once(self, tmp_path, monkeypatch):
        writes = []
        put_codegen = CompileCache.put_codegen

        def counting_put(cache, key, payload):
            writes.append(sorted(payload["functions"]))
            return put_codegen(cache, key, payload)

        monkeypatch.setattr(CompileCache, "put_codegen", counting_put)
        driver = CompilerDriver(backend="mpfr",
                                cache=CompileCache(str(tmp_path)))
        program = driver.compile(source_for("gemm", POLYBENCH_FTYPE),
                                 "gemm")
        program.run("run", [4])
        statuses = program._codegen_store.statuses()
        jitted = sorted(name for name, r in statuses.items()
                        if r["status"] == "jit")
        assert len(jitted) >= 2
        assert writes == [sorted(statuses)]

    def test_one_cache_entry_across_engines(self, tmp_path):
        # The engine is a run choice: legacy, jit and the default all
        # run the one cached program, beside one codegen sidecar.
        source = source_for("gemm", POLYBENCH_FTYPE)
        runs = []
        for engine in ("legacy", "jit", None):
            driver = CompilerDriver(backend="mpfr",
                                    cache=CompileCache(str(tmp_path)))
            result = driver.compile(source, "gemm").run("run", [4],
                                                        engine=engine)
            outputs = _read_interpreter_outputs(
                result.interpreter, int(result.value),
                KERNELS["gemm"].outputs(4), POLYBENCH_FTYPE, "mpfr")
            runs.append((values_token([result.value] + outputs),
                         result.report.cycles))
        assert runs[0] == runs[1] == runs[2]
        assert len(list(tmp_path.glob("*.vpc"))) == 1
        assert len(list(tmp_path.glob("*.vpcgen"))) == 1

    def test_deprecated_driver_engine_is_a_run_default(self, tmp_path):
        cache = CompileCache(str(tmp_path))
        source = "int f() { return 1; }"
        with pytest.warns(DeprecationWarning, match="engine"):
            legacy = CompilerDriver(backend="none", cache=cache,
                                    engine="legacy").compile(source)
        default = CompilerDriver(backend="none", cache=cache).compile(source)
        assert legacy.fingerprint == default.fingerprint
        assert legacy.run("f", []).interpreter.dispatch == "legacy"
        assert legacy.run("f", [], engine="jit").interpreter.dispatch \
            == "jit"
        # The cached program itself keeps no per-driver default.
        assert default.run("f", []).interpreter.dispatch == "jit"


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        program = compile_source("int f() { return 1; }", backend="none")
        with pytest.raises(ValueError, match="unknown engine"):
            program.run("f", [], engine="fused")

    def test_removed_fast_engine_rejected_everywhere(self, tmp_path,
                                                     capsys):
        from repro import cli
        from repro.evaluation.__main__ import main as eval_main
        from repro.runtime import Interpreter

        choices = re.escape("('jit', 'legacy')")
        program = compile_source("int f() { return 1; }", backend="none")
        for make in (lambda: program.run("f", [], engine="fast"),
                     lambda: Interpreter(program.module, dispatch="fast")):
            with pytest.raises(ValueError, match=choices):
                make()
        source = tmp_path / "f.c"
        source.write_text("int f() { return 1; }")
        for run_cli in (lambda: cli.main([str(source), "--engine", "fast"]),
                        lambda: eval_main(["table1", "--engine", "fast"])):
            with pytest.raises(SystemExit) as exited:
                run_cli()
            assert exited.value.code == 2
            err = capsys.readouterr().err
            assert "'fast'" in err and "jit" in err and "legacy" in err

    @pytest.mark.parametrize("option,value,flags", [
        ("pool", False, ["--no-pool"]),
        ("kernels", "generic", ["--kernels", "generic"]),
    ], ids=["pool", "kernels"])
    def test_removed_run_options_rejected(self, tmp_path, capsys, option,
                                          value, flags):
        # The engine is a run's only choice: the MPFR free list follows
        # the backend, and one kernel family serves every precision.
        from repro import cli

        program = compile_source("int f() { return 1; }", backend="none")
        with pytest.raises(TypeError, match=option):
            program.run("f", [], **{option: value})
        source = tmp_path / "f.c"
        source.write_text("int f() { return 1; }")
        with pytest.raises(SystemExit) as exited:
            cli.main([str(source), "--run", "f", *flags])
        assert exited.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_profiled_runs_use_legacy_walker(self):
        # The exact profiler hooks per-instruction dispatch, so a
        # profiled run executes on the legacy walker whatever the engine.
        program = compile_source(MIXED_SRC, backend="mpfr")
        result = program.run("run", [3], engine="jit", profile=True)
        baseline = program.run("run", [3], engine="legacy", profile=True)
        assert result.profile is not None
        assert result.value == baseline.value
        assert result.report.cycles == baseline.report.cycles
        assert result.profile.opcode_counts == \
            baseline.profile.opcode_counts
        assert result.profile.builtin_cycles == \
            baseline.profile.builtin_cycles
        assert program._codegen_store is None  # nothing was jitted

    def test_in_memory_store_reused_across_runs(self):
        program = compile_source(MIXED_SRC, backend="mpfr")
        program.run("run", [3])
        store = program._codegen_store
        assert isinstance(store, CodegenStore)
        program.run("run", [4])
        assert program._codegen_store is store
        assert store.statuses()["run"]["status"] == "jit"
