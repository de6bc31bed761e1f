"""Public compilation API: one driver over the whole flow.

This is the package's front door::

    from repro.core import CompilerDriver

    program = CompilerDriver(backend="mpfr", polly=True).compile(source)
    result = program.run("kernel", [args...])

Backends: ``"none"`` (vpfloat stays first-class, functional testing),
``"mpfr"`` (the paper's MPFR lowering), ``"boost"`` (the Boost-style
baseline), ``"unum"`` (the coprocessor ISA backend executed on the
machine model).
"""

from __future__ import annotations

import copy
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

from ..backends import BoostLoweringPass, MPFRLoweringPass
from ..codegen import generate_ir
from ..ir import IntType, Module, verify_module
from ..lang import analyze, parse
from ..observability import (
    CAT_CACHE,
    CAT_COMPILE,
    absorb_pass_timings,
    current_metrics,
    observe,
)
from ..observability.profile import exact_run
from ..passes import build_o3_pipeline
from ..passes.pass_manager import o3_passes
from ..passes.polly import optimize_unit
from ..runtime import ENGINES, CostAccounting, ExecutionResult, Interpreter
from ..runtime.cost_model import CacheModel
from ..runtime.interpreter import _mask_int
from .cache import CacheStats, CompileCache, as_compile_cache, \
    default_cache_dir

BACKENDS = ("none", "mpfr", "boost", "unum")

__all__ = [
    "BACKENDS", "BatchResult", "CacheStats", "CompileCache",
    "CompileOptions", "CompiledProgram", "CompilerDriver", "ENGINES",
    "as_compile_cache", "compile_source", "default_cache_dir",
    "resolve_engine",
]


def resolve_engine(engine: Optional[str]) -> str:
    """Validate / default the execution engine selection.

    ``None`` picks the specializing ``jit`` codegen engine for every
    backend; ``legacy`` is the reference walker.
    """
    if engine is None:
        return "jit"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; "
                         f"choose from {ENGINES}")
    return engine


@dataclass
class CompileOptions:
    """Knobs mirroring the paper's evaluation configurations."""

    opt_level: int = 3
    polly: bool = False
    polly_tile: int = 16
    backend: str = "mpfr"
    #: MPFR-backend options (the ablation switches).
    reuse_objects: bool = True
    specialize_scalars: bool = True
    in_place_stores: bool = True
    #: -O3 passes left out, by name (see passes.droppable_passes).
    disable_passes: tuple = ()

    def __post_init__(self):
        self.passes()  # an unknown pass name raises ValueError

    def passes(self) -> Tuple[str, ...]:
        """The -O3 passes this compile runs, by name in run order (none
        below -O2): what the compile-cache key hashes of the pipeline."""
        names = tuple(name for name, _ in o3_passes(self.disable_passes))
        return names if self.opt_level >= 2 else ()


@dataclass
class BatchResult:
    """Outcome of :meth:`CompiledProgram.run_batch`: one run's value,
    report and interpreter, returned for every lane.  ``mode`` is always
    ``"batched"``: one execution served every lane."""

    lanes: int
    values: List[object]
    reports: List[object]
    stdout: List[str] = field(default_factory=list)
    mode: str = "batched"
    interpreter: object = None

    @property
    def value(self):
        return self.values[0]

    @property
    def report(self):
        return self.reports[0]


def _c_args(func, args):
    """``args`` as a C call passes them: each integer wrapped to its
    parameter's width (the engines keep integers as signed values of
    their IR width)."""
    if func is None or not args or len(args) != len(func.args):
        return args  # the engine reports a wrong argument count
    return [_mask_int(value, param.type.bits)
            if isinstance(param.type, IntType) and isinstance(value, int)
            else value
            for param, value in zip(func.args, args)]


def _c_result(func, value):
    """A returned integer read as the function's C return type: the
    engines return the signed bit pattern, so an ``unsigned`` result is
    re-read modulo its width."""
    if func is not None and func.unsigned_return and isinstance(value, int):
        return value & ((1 << func.return_type.bits) - 1)
    return value


class CompiledProgram:
    """The result of a compilation: IR module and (for unum) assembly."""

    def __init__(self, module: Module, options: CompileOptions,
                 asm=None, tiled_nests: int = 0, pass_timings=None):
        self.module = module
        self.options = options
        self.asm = asm
        self.tiled_nests = tiled_nests
        #: Wall-clock seconds per middle-end pass / backend lowering.
        self.pass_timings: dict = pass_timings or {}
        #: Jit-engine codegen store (set by the driver when the program
        #: came through a CompileCache; else created lazily).
        self._codegen_store = None
        #: Compile-cache key the driver served this program under
        #: (None without a cache).
        self.fingerprint: Optional[str] = None

    def __getstate__(self):
        # The codegen store holds a live CompileCache reference; the
        # pickled program must stand alone (it *is* a cache entry).
        state = dict(self.__dict__)
        state["_codegen_store"] = None
        return state

    # ------------------------------------------------------------ #

    def _codegen_store_for(self, mode: str):
        if mode != "jit":
            return None
        store = self._codegen_store
        if store is None:
            from ..codegen.pyjit import CodegenStore

            store = CodegenStore()
            self._codegen_store = store
        return store

    # ------------------------------------------------------------ #

    def run(self, name: str, args: Optional[List[object]] = None,
            cache: bool = True, max_steps: int = 500_000_000,
            coprocessor=None, costs=None,
            profile: bool = False,
            engine: Optional[str] = None) -> ExecutionResult:
        """Execute a function; returns value + CostReport + stdout.

        ``costs`` selects a CycleCosts profile (default: Xeon-calibrated;
        pass ``ROCKET_CYCLE_COSTS`` for the Fig. 2 FPGA baseline).
        ``engine`` picks the execution engine (:data:`ENGINES`; ``None``
        means the specializing jit): a run choice, so every engine runs
        the one compiled (and cached) program.
        ``profile=True`` runs on the legacy walker under the exact IR
        profiler, whose :class:`~repro.observability.profile.IRProfile`
        becomes ``result.profile``; values and the CostReport equal an
        unprofiled legacy run's.  The engine is the run's only choice:
        the MPFR free list follows the backend (:meth:`interpreter`).
        The unum backend runs on the UNUM machine, returned as
        ``result.machine``.  Integers cross the call as in C: each
        argument wraps to its parameter's width, and an ``unsigned``
        return value reads as unsigned."""
        backend = self.options.backend
        mode = resolve_engine(engine)
        if backend == "unum":
            machine = self.machine(cache=cache, coprocessor=coprocessor,
                                   max_steps=max_steps, costs=costs)
            with observe(f"execute:{name}", event="run",
                         backend=backend) as obs:
                func = self.module.functions.get(name)
                value = _c_result(func, machine.run(name,
                                                    _c_args(func, args)))
                report = machine.accounting.report
                report.cycles += machine.scalar_cycles + \
                    machine.coprocessor.cycles
                report.serial_cycles = \
                    report.cycles - report.parallel_cycles
                obs.attach(report, machine)
                obs.note(function=name, backend=backend, engine=None)
            result = ExecutionResult(value, report, machine.stdout)
            result.machine = machine
            return result
        if profile:
            mode = "legacy"  # the exact profiler hooks the walker
        return self._execute(
            name, args, mode, cache, max_steps, costs, profile,
            partial(observe, f"execute:{name}", event="run",
                    backend=backend))

    def run_batch(self, name: str, args: Optional[List[object]] = None,
                  lanes: int = 1, cache: bool = True,
                  max_steps: int = 500_000_000,
                  costs=None) -> BatchResult:
        """Execute a function for ``lanes`` identical requests.

        Every lane is the same program on the same arguments, so one
        jit run serves them all: its value, report and interpreter are
        returned for every lane.  mpfr backend only.
        """
        backend = self.options.backend
        if backend != "mpfr":
            raise ValueError(
                "batched execution requires the mpfr backend, "
                f"not {backend!r}")
        if lanes < 1:
            raise ValueError(f"batch needs >= 1 lane, got {lanes}")
        result = self._execute(
            name, args, "jit", cache, max_steps, costs, False,
            partial(observe, f"execute-batch:{name}",
                    event="batch_run", backend=backend, lanes=lanes),
            lanes=lanes, mode="batched")
        return BatchResult(lanes=lanes, values=[result.value] * lanes,
                           reports=[result.report] * lanes,
                           stdout=result.stdout,
                           interpreter=result.interpreter)

    def _execute(self, name: str, args, dispatch: str, cache: bool,
                 max_steps: int, costs, profile: bool, boundary,
                 **notes) -> ExecutionResult:
        """One interpreter run of ``name`` inside the observation
        ``boundary()`` opens (``notes`` join its record)."""
        backend = self.options.backend
        interpreter = self.interpreter(cache=cache, max_steps=max_steps,
                                       costs=costs, engine=dispatch)
        func = self.module.functions.get(name)
        args = _c_args(func, args)
        with boundary() as obs:
            try:
                result = exact_run(interpreter, name, args) if profile \
                    else interpreter.run(name, args)
                result.value = _c_result(func, result.value)
            finally:
                obs.arg(cycles=interpreter.accounting.report.cycles)
                if self._codegen_store is not None:
                    self._codegen_store.flush()
            result.interpreter = interpreter
            obs.attach(result.report, interpreter.mpfr.stats)
            if result.profile is not None:
                obs.attach(result.profile)
            obs.note(function=name, backend=backend, engine=dispatch,
                     **notes)
        return result

    def interpreter(self, cache: bool = True,
                    max_steps: int = 500_000_000, costs=None,
                    engine: Optional[str] = None) -> Interpreter:
        """A fresh interpreter over the compiled module (mpfr/boost/none).

        The runtime MPFR free list is on for the paper's own runtime
        (mpfr/none) and off for the Boost baseline, whose per-operation
        allocation traffic is the behavior under measurement (Fig. 1)."""
        accounting = CostAccounting(costs=costs,
                                    cache=CacheModel() if cache else None)
        mode = resolve_engine(engine)
        return Interpreter(self.module, accounting=accounting,
                           max_steps=max_steps, dispatch=mode,
                           mpfr_pool=self.options.backend != "boost",
                           codegen_store=self._codegen_store_for(mode))

    def machine(self, cache: bool = True, coprocessor=None,
                max_steps: int = 500_000_000, costs=None):
        """A fresh UNUM machine over the compiled assembly."""
        from ..runtime.unum_machine import UnumMachine

        accounting = CostAccounting(costs=costs,
                                    cache=CacheModel() if cache else None)
        return UnumMachine(self.asm, accounting=accounting,
                           coprocessor=coprocessor, max_steps=max_steps)


class CompilerDriver:
    """parse -> sema -> [polly] -> irgen -> -O3 -> backend.

    ``cache`` (a :class:`CompileCache`, a directory path, or None)
    short-circuits :meth:`compile`: a hit skips parse/sema/irgen, the
    whole -O3 pipeline, and the backend lowering, returning a program
    whose runs are bit-identical to a fresh compile.  Keys cover the
    source, the module name, the passes that run and every other
    :class:`CompileOptions` field, so no stale program can ever be
    served.  The execution engine is not a compile input: it is chosen
    per run (:meth:`CompiledProgram.run`), so engines share one entry.

    ``engine`` is deprecated and only kept for callers that still pass
    it here: it validates the name and becomes the ``engine`` default of
    the returned program's :meth:`~CompiledProgram.run`.
    """

    def __init__(self, backend: str = "mpfr", opt_level: int = 3,
                 polly: bool = False, cache=None, *,
                 engine: Optional[str] = None, **kwargs):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        self.options = CompileOptions(backend=backend, opt_level=opt_level,
                                      polly=polly, **kwargs)
        self.cache = as_compile_cache(cache)
        self._run_engine = None
        if engine is not None:
            warnings.warn("CompilerDriver(engine=) is deprecated; pass "
                          "engine= to CompiledProgram.run()",
                          DeprecationWarning, stacklevel=2)
            self._run_engine = resolve_engine(engine)

    def compile(self, source: str, name: str = "module") -> CompiledProgram:
        options = self.options
        cache = self.cache
        key = program = None
        with observe(f"compile:{name}", cat=CAT_COMPILE, event="compile",
                     backend=options.backend) as obs:
            obs.count("compile.count")
            if cache is not None:
                key = cache.fingerprint(source, options, name)
                with observe("cache.lookup", cat=CAT_CACHE) as lookup:
                    program = cache.get(key)
                    lookup.arg(hit=program is not None)
            cached = program is not None
            obs.arg(cached=cached)
            if cached:
                obs.count("compile.cache_hits")
            else:
                program = self._compile(source, name)
                if cache is not None:
                    cache.put(key, program)
            obs.note(name=name, backend=options.backend,
                     opt_level=options.opt_level, polly=options.polly,
                     fingerprint=key, cached=cached,
                     # A cached program carries the *original* compile's
                     # pass timings in its pickle; only a fresh
                     # compile's are this event's.
                     passes=None if cached else dict(program.pass_timings))
        return self._finish(program, key)

    def _finish(self, program: CompiledProgram,
                key: Optional[str] = None) -> CompiledProgram:
        """Attach driver-side state to a (possibly cached) program: the
        key it was served under and, with a cache, the codegen store
        persisting next to the pickle (read only when a run binds jit
        code)."""
        if self._run_engine is not None:
            # Every driver on a cache shares its programs: the deprecated
            # per-driver run default goes on this driver's own copy.
            program = copy.copy(program)
            program.run = partial(program.run, engine=self._run_engine)
        program.fingerprint = key
        if key is not None:
            from ..codegen.pyjit import CodegenStore

            program._codegen_store = CodegenStore(self.cache, key)
        return program

    def _compile(self, source: str, name: str = "module") -> CompiledProgram:
        options = self.options
        with observe("frontend", cat=CAT_COMPILE):
            unit = analyze(parse(source))
            tiled = 0
            if options.polly:
                tiled = optimize_unit(unit, options.polly_tile)
                if tiled:
                    unit = analyze(unit)  # re-resolve the new declarations
            module = generate_ir(unit, name)
        timings: dict = {}
        if options.passes():
            pipeline = build_o3_pipeline(options.disable_passes)
            with observe("o3-pipeline", cat=CAT_COMPILE):
                stats = pipeline.run(module)
            timings.update(stats.timings)
            verify_module(module)
        asm = None
        if options.backend != "none":
            with observe(f"lowering:{options.backend}", cat=CAT_COMPILE):
                asm = self._lower(module, timings)
        registry = current_metrics()
        if registry is not None:
            registry.inc("compile.fresh")
            absorb_pass_timings(registry, timings)
        return CompiledProgram(module, options, asm=asm, tiled_nests=tiled,
                               pass_timings=timings)

    def _lower(self, module: Module, timings: dict):
        """Run the backend; records its wall time in ``timings`` and
        returns the unum assembly (None for the MPFR backends)."""
        options = self.options
        started = time.perf_counter()
        if options.backend == "unum":
            from ..backends.unum_backend import compile_to_unum

            asm = compile_to_unum(module)
            timings["unum-codegen"] = time.perf_counter() - started
            return asm
        if options.backend == "mpfr":
            MPFRLoweringPass(
                reuse_objects=options.reuse_objects,
                specialize_scalars=options.specialize_scalars,
                in_place_stores=options.in_place_stores,
            ).run_module(module)
        else:
            BoostLoweringPass().run_module(module)
        verify_module(module)
        timings[f"{options.backend}-lowering"] = \
            time.perf_counter() - started
        return None


def compile_source(source: str, backend: str = "mpfr", cache=None,
                   **kwargs) -> CompiledProgram:
    """One-shot convenience wrapper around :class:`CompilerDriver`."""
    return CompilerDriver(backend=backend, cache=cache,
                          **kwargs).compile(source)
