"""IR interpreter: executes modules with full runtime-library support.

This is the "host execution" stand-in: it runs IR produced by codegen
(functional testing) and IR produced by the backends (MPFR-lowered code
calling ``mpfr_*``; Boost-baseline code), charging modeled cycles to a
:class:`~repro.runtime.cost_model.CostAccounting`.

Runtime semantics:

- integers wrap at their declared width; ``float`` (binary32) values are
  re-rounded through IEEE single precision after every operation;
- vpfloat SSA values are :class:`~repro.bigfloat.BigFloat`s computed at
  the precision the type's attributes resolve to *at runtime* -- constant
  or dynamic;
- ``__sizeof_vpfloat*`` validates attributes (raising
  :class:`VPRuntimeError` on out-of-range values, the paper's
  correctness-first choice) and returns the byte size;
- ``__vpfloat_check_attr`` implements the call-boundary attribute checks
  of paper Listing 3 (lines 14/17);
- the MPFR C API (``mpfr_init2``, ``mpfr_add_d``, ...) operates on
  handles stored in memory, so MPFR-lowered modules execute directly;
- ``__omp_parallel_begin/end`` bracket parallel regions for the
  bandwidth-contention model.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Dict, List, Optional

from .. import bigfloat
from ..bigfloat import BigFloat, MpfrLibrary, RNDN, arith
from ..ir import (
    AllocaInst,
    Argument,
    ArrayType,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ConstantString,
    ConstantVPFloat,
    FCmpInst,
    FloatType,
    FNegInst,
    Function,
    GEPInst,
    GlobalVariable,
    ICmpInst,
    Instruction,
    IntType,
    LoadInst,
    Module,
    PhiInst,
    PointerType,
    RetInst,
    SelectInst,
    StoreInst,
    StructType,
    UndefValue,
    UnreachableInst,
    Value,
    VPFloatType,
)
from ..ir.types import _validate_mpfr_attrs
from ..observability import (
    CAT_POOL,
    CAT_RUNTIME,
    current_ledger,
    current_metrics,
    current_tracer,
)
from ..unum import UnumConfig, UnumConfigError
from ..unum.posit import PositConfig, PositConfigError, posit_round
from .cost_model import CacheModel, CostAccounting
from .dispatch import CompiledFunction, FunctionCompiler, InterpreterProfile
from .memory import Memory


class VPRuntimeError(RuntimeError):
    """A runtime trap: failed attribute check, bad size, null deref..."""


class ExecutionLimitExceeded(RuntimeError):
    """The step budget ran out (guards against runaway loops)."""


class ExecutionResult:
    def __init__(self, value, report, stdout: List[str], profile=None):
        self.value = value
        self.report = report
        self.stdout = stdout
        #: :class:`~repro.runtime.dispatch.InterpreterProfile` when the
        #: run was profiled, else None.
        self.profile = profile


def _f32(x: float) -> float:
    """Round a Python float through IEEE binary32."""
    return struct.unpack("f", struct.pack("f", x))[0]


def _trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _mask_int(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if bits > 1 and value >> (bits - 1):
        value -= 1 << bits
    return value


class Frame:
    """Per-invocation SSA value bindings."""

    __slots__ = ("values", "function", "stack_mark")

    def __init__(self, function: Function, stack_mark: int):
        self.values: Dict[int, object] = {}
        self.function = function
        self.stack_mark = stack_mark

    def set(self, value: Value, runtime) -> None:
        self.values[id(value)] = runtime

    def get(self, value: Value) -> object:
        return self.values[id(value)]


class Interpreter:
    """Executes one module.

    ``dispatch`` selects the execution engine: ``"jit"`` compiles each
    IR function to straight-line Python source on first call
    (:mod:`repro.codegen.pyjit`), with per-function fallback to the
    fused closure tables for anything the emitter cannot prove static;
    ``"fast"`` (default) compiles each function's blocks to closure
    tables on first call (:mod:`repro.runtime.dispatch`) with
    superinstruction fusion of adjacent load+arith / arith+store /
    cmp+branch pairs; ``"legacy"`` walks the original per-instruction
    isinstance chain.  All three charge identical cycles.

    ``mpfr_pool`` enables the runtime free-list in the backing
    :class:`~repro.bigfloat.MpfrLibrary`: ``mpfr_clear`` parks handles
    for reuse by later ``mpfr_init2`` calls of the same precision,
    skipping the modeled allocator round-trip (the run-time counterpart
    of the lowering pass's static dead-object reuse, paper §III-C1).

    ``profile=True`` collects an :class:`InterpreterProfile` (per-opcode
    execution counts, per-builtin call counts and cycle attribution),
    exposed as ``self.profile`` and on each :class:`ExecutionResult`.
    """

    def __init__(self, module: Module,
                 accounting: Optional[CostAccounting] = None,
                 mpfr_library: Optional[MpfrLibrary] = None,
                 max_steps: int = 500_000_000,
                 dispatch: str = "fast",
                 profile: bool = False,
                 mpfr_pool: bool = False,
                 pool_limit: int = 1024,
                 codegen_store=None,
                 kernel_tier: str = "auto"):
        if dispatch not in ("jit", "fast", "legacy"):
            raise ValueError(f"unknown dispatch mode {dispatch!r}")
        self.module = module
        self.accounting = accounting or CostAccounting(cache=CacheModel())
        self.memory = Memory(observer=self.accounting.memory_access)
        self.mpfr = mpfr_library or MpfrLibrary(pool=mpfr_pool,
                                                pool_limit=pool_limit)
        self.max_steps = max_steps
        self.steps = 0
        self.dispatch = dispatch
        self.profile: Optional[InterpreterProfile] = \
            InterpreterProfile() if profile else None
        #: Process-global telemetry, captured at construction so every
        #: hot-path hook is a bound local (or absent entirely).  Both
        #: are None unless repro.observability.enable_telemetry ran.
        self.tracer = current_tracer()
        self.metrics = current_metrics()
        #: Kernel-tier policy (auto/generic/small) for the jit engine's
        #: precision-specialized kernels; read by pyjit at bind time.
        self.kernel_tier = kernel_tier
        #: Per-tier op/site/fallback accounting -- only constructed when
        #: some observer (metrics registry or run ledger) will consume
        #: it, so unobserved runs bind the raw kernels with zero
        #: per-call overhead.
        self.tier_stats = None
        if self.metrics is not None or current_ledger() is not None:
            from ..codegen.smallfloat import TierStats

            self.tier_stats = TierStats()
        self.stdout: List[str] = []
        self.globals: Dict[str, int] = {}
        self._builtins: Dict[str, Callable] = {}
        #: (id(constant), attrs) -> rounded BigFloat; constants are pinned
        #: by the module so ids are stable.
        self._const_cache: Dict[tuple, BigFloat] = {}
        #: (id(vptype), *runtime attrs) -> (prec, size) for
        #: dynamic-attribute vpfloat types (constant-attribute types
        #: resolve once inside their compiled closures instead).
        self._vp_config_cache: Dict[tuple, tuple] = {}
        self._posit_config_cache: Dict[tuple, PositConfig] = {}
        self._unum_config_cache: Dict[tuple, UnumConfig] = {}
        self._validated_mpfr_attrs: set = set()
        self._mpfr_cost_cache: Dict[tuple, int] = {}
        self._compiled_functions: Dict[int, CompiledFunction] = {}
        self._compiler: Optional[FunctionCompiler] = None
        #: Shared codegen artifact store (jit engine): lets warm runs of
        #: a cached program skip re-emission.  Lazily created when the
        #: jit dispatch mode first materializes a function.
        self._codegen_store = codegen_store
        self._jit_engine = None
        #: Hot-block counts dict installed by the traced call path for
        #: the duration of one jit-engine call; None when untraced.
        self._block_counts: Optional[Dict[str, int]] = None
        #: Per-instruction profiling hook (legacy walker only); set by
        #: repro.observability.profile, never by the interpreter.
        self._inst_hook = None
        self._install_builtins()
        self._init_globals()

    # ------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------ #

    def run(self, name: str, args: Optional[List[object]] = None
            ) -> ExecutionResult:
        func = self.module.get_function(name)
        value = self.call_function(func, args or [])
        report = self.accounting.finalize(self.memory)
        return ExecutionResult(value, report, self.stdout,
                               profile=self.profile)

    # ------------------------------------------------------------ #
    # Globals
    # ------------------------------------------------------------ #

    def _init_globals(self) -> None:
        for g in self.module.globals.values():
            size = self._sizeof(g.value_type, None)
            addr = self.memory.alloc_global(size)
            self.globals[g.name] = addr
            if g.initializer is not None:
                value = self._constant(g.initializer, None, g.value_type)
                self.memory.store(addr, value, size)

    # ------------------------------------------------------------ #
    # Type helpers (frame needed for dynamic vpfloat attributes)
    # ------------------------------------------------------------ #

    def _attr(self, attr: Value, frame: Optional[Frame]) -> int:
        if isinstance(attr, ConstantInt):
            return attr.value
        if frame is None:
            raise VPRuntimeError("dynamic vpfloat attribute outside a frame")
        return int(frame.get(attr))

    def vp_config(self, vptype: VPFloatType, frame: Optional[Frame]):
        """(precision_bits, size_bytes) for a vpfloat type at runtime.

        Attribute values are always read fresh (from the type's constant
        or the current frame), so a frame that mutates a dynamic
        attribute mid-loop resolves against the *current* value; only
        the derived config objects are cached, keyed by attribute value.
        """
        if vptype.format == "posit":
            config = self._posit_config(self._attr(vptype.exp_attr, frame),
                                        self._attr(vptype.prec_attr, frame))
            # Working precision for the exact intermediate; the tapered
            # rounding to the format happens per operation.
            return config.max_fraction_bits + 1, config.size_bytes
        if vptype.format == "unum":
            config = self._unum_config(vptype, frame)
            return config.precision, config.size_bytes
        exp = self._attr(vptype.exp_attr, frame)
        prec = self._attr(vptype.prec_attr, frame)
        key = (exp, prec)
        if key not in self._validated_mpfr_attrs:
            try:
                _validate_mpfr_attrs(exp, prec)
            except ValueError as e:
                raise VPRuntimeError(str(e)) from e
            self._validated_mpfr_attrs.add(key)
        return prec, 24 + bigfloat.limb_bytes(prec)

    def _posit_config(self, es: int, max_bits: int) -> PositConfig:
        key = (es, max_bits)
        config = self._posit_config_cache.get(key)
        if config is None:
            try:
                config = PositConfig(es, max_bits)
            except PositConfigError as e:
                raise VPRuntimeError(str(e)) from e
            self._posit_config_cache[key] = config
        return config

    def _unum_config(self, vptype: VPFloatType,
                     frame: Optional[Frame]) -> UnumConfig:
        ess = self._attr(vptype.exp_attr, frame)
        fss = self._attr(vptype.prec_attr, frame)
        size = (self._attr(vptype.size_attr, frame)
                if vptype.size_attr is not None else None)
        if size == 0:
            size = None
        key = (ess, fss, size)
        config = self._unum_config_cache.get(key)
        if config is None:
            try:
                config = UnumConfig(ess, fss, size)
            except UnumConfigError as e:
                raise VPRuntimeError(str(e)) from e
            self._unum_config_cache[key] = config
        return config

    def _sizeof(self, type, frame: Optional[Frame]) -> int:
        if isinstance(type, VPFloatType):
            return self.vp_config(type, frame)[1]
        if isinstance(type, ArrayType):
            return type.count * self._sizeof(type.element, frame)
        if isinstance(type, StructType):
            return max(8, sum(self._sizeof(f, frame) for f in type.fields))
        return type.size_bytes()

    def _default(self, type, frame: Optional[Frame]):
        if isinstance(type, IntType):
            return 0
        if isinstance(type, FloatType):
            return 0.0
        if isinstance(type, VPFloatType):
            prec, _ = self.vp_config(type, frame)
            return BigFloat.zero(prec)
        if isinstance(type, PointerType):
            return 0
        return 0

    # ------------------------------------------------------------ #
    # Constants
    # ------------------------------------------------------------ #

    def _constant(self, c: Constant, frame: Optional[Frame],
                  type=None) -> object:
        if isinstance(c, ConstantInt):
            return c.value
        if isinstance(c, ConstantFloat):
            return _f32(c.value) if c.type.bits == 32 else c.value
        if isinstance(c, ConstantVPFloat):
            prec, _ = self.vp_config(c.type, frame)
            key = (id(c), prec)
            cached = self._const_cache.get(key)
            if cached is not None:
                return cached
            if c.type.format == "posit":
                rounded = self._posit_round(c.value, c.type, frame)
            elif c.type.format == "unum":
                from ..unum import decode as _ud, encode as _ue

                config = self._unum_config(c.type, frame)
                rounded = _ud(_ue(c.value, config), config)
            else:
                rounded = c.value.round_to(prec)
            self._const_cache[key] = rounded
            return rounded
        if isinstance(c, ConstantPointerNull):
            return 0
        if isinstance(c, ConstantString):
            return c.text
        if isinstance(c, UndefValue):
            return self._default(c.type, frame)
        raise VPRuntimeError(f"cannot evaluate constant {c!r}")

    def _value(self, v: Value, frame: Frame) -> object:
        if isinstance(v, Constant):
            return self._constant(v, frame)
        if isinstance(v, GlobalVariable):
            return self.globals[v.name]
        if isinstance(v, Function):
            return v
        return frame.get(v)

    # ------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------ #

    def call_function(self, func: Function, args: List[object]) -> object:
        if func.is_declaration:
            return self._call_builtin(func.name, args, None, None)
        if len(args) != len(func.args):
            raise VPRuntimeError(
                f"{func.name}() takes {len(func.args)} argument(s), "
                f"got {len(args)}"
            )
        if self.tracer is not None:
            return self._call_function_traced(func, args)
        if self.dispatch == "jit" and self.profile is None:
            entry = self._jit_entry(func)
            if entry is not None:
                return entry(*args)
        if self.dispatch != "legacy":
            return self._call_compiled(func, args)
        return self._call_legacy(func, args, None)

    def _call_legacy(self, func: Function, args: List[object],
                     block_counts: Optional[Dict[str, int]]) -> object:
        costs = self.accounting.costs
        self.accounting.charge("call", costs.call_overhead)
        mark = self.memory.stack_mark()
        frame = Frame(func, mark)
        for arg, value in zip(func.args, args):
            frame.set(arg, value)
        block = func.entry
        prev_block = None
        while True:
            if block_counts is not None:
                block_counts[block.name] = \
                    block_counts.get(block.name, 0) + 1
            # Phi nodes first (values computed from the edge taken).
            phis = block.phis()
            if phis:
                staged = [(phi, self._value(phi.incoming_for_block(prev_block),
                                            frame)) for phi in phis]
                for phi, value in staged:
                    frame.set(phi, value)
            outcome = self._run_block(block, frame)
            if outcome[0] == "ret":
                self.memory.stack_release(mark)
                self.accounting.charge("ret", costs.ret)
                return outcome[1]
            prev_block, block = block, outcome[1]

    def _call_function_traced(self, func: Function,
                              args: List[object]) -> object:
        """Span-wrapped function call with hot-block attribution.

        Only reached when a tracer is installed; charges exactly what
        the untraced paths charge (spans record wall-clock, never
        modeled cycles), so reports stay bit-identical."""
        tracer = self.tracer
        report = self.accounting.report
        cycles0 = report.cycles
        instructions0 = report.instructions
        counts: Dict[str, int] = {}
        with tracer.span(f"call:{func.name}", cat=CAT_RUNTIME) as span:
            entry = None
            if self.dispatch == "jit" and self.profile is None:
                entry = self._jit_entry(func)
            if entry is not None:
                previous = self._block_counts
                self._block_counts = counts
                try:
                    value = entry(*args)
                finally:
                    self._block_counts = previous
            elif self.dispatch != "legacy":
                value = self._call_compiled_counting(func, args, counts)
            else:
                value = self._call_legacy(func, args, counts)
            span.args["cycles"] = report.cycles - cycles0
            span.args["instructions"] = report.instructions - instructions0
            if counts:
                hot = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
                span.args["hot_blocks"] = [
                    {"block": name, "executions": n} for name, n in hot
                ]
        return value

    def _call_compiled(self, func: Function, args: List[object]) -> object:
        """Fast-path execution over precompiled closure tables.

        Instruction and step counters advance in block-sized strides, so
        the execution-limit check may trip up to one block earlier than
        the legacy per-instruction check; everything else (values,
        cycles, memory traffic, error behavior) is identical.
        """
        compiled = self._compiled_functions.get(id(func))
        if compiled is None:
            compiled = self._compile_function(func)
        costs = self.accounting.costs
        self.accounting.charge("call", costs.call_overhead)
        mark = self.memory.stack_mark()
        frame = Frame(func, mark)
        values = frame.values
        for arg, value in zip(func.args, args):
            values[id(arg)] = value
        report = self.accounting.report
        max_steps = self.max_steps
        profile = self.profile
        block = compiled.entry
        prev = None
        while True:
            moves = block.phi_moves.get(prev)
            if moves is not None:
                # Stage all reads before any write (phi edge semantics).
                staged = [(key, getter(frame)) for key, getter in moves]
                for key, value in staged:
                    values[key] = value
            count = block.count
            self.steps += count
            if self.steps > max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_steps} interpreted instructions"
                )
            report.instructions += count
            if profile is not None:
                profile.count_block(block.tally)
            for step in block.steps:
                step(frame)
            outcome = block.terminator(frame)
            if outcome.__class__ is tuple:
                self.memory.stack_release(mark)
                self.accounting.charge("ret", costs.ret)
                return outcome[1]
            prev = block.bid
            block = outcome

    def _compile_function(self, func: Function) -> CompiledFunction:
        if self._compiler is None:
            self._compiler = FunctionCompiler(self)
        compiled = self._compiler.compile(func)
        self._compiled_functions[id(func)] = compiled
        return compiled

    def _jit_entry(self, func: Function):
        """The specialized callable for ``func``, or None when the
        emitter fell back (closure tables take over)."""
        engine = self._jit_engine
        if engine is None:
            from ..codegen.pyjit import JitEngine

            engine = JitEngine(self, self._codegen_store)
            self._jit_engine = engine
        return engine.entry(func)

    def _call_compiled_counting(self, func: Function, args: List[object],
                                block_counts: Dict[str, int]) -> object:
        """Tracing twin of :meth:`_call_compiled`: identical charging
        and semantics, plus per-block execution counts for hot-block
        span attribution.  Kept separate so the untraced fast path
        carries no per-block branch."""
        compiled = self._compiled_functions.get(id(func))
        if compiled is None:
            compiled = self._compile_function(func)
        costs = self.accounting.costs
        self.accounting.charge("call", costs.call_overhead)
        mark = self.memory.stack_mark()
        frame = Frame(func, mark)
        values = frame.values
        for arg, value in zip(func.args, args):
            values[id(arg)] = value
        report = self.accounting.report
        max_steps = self.max_steps
        profile = self.profile
        block = compiled.entry
        prev = None
        while True:
            moves = block.phi_moves.get(prev)
            if moves is not None:
                staged = [(key, getter(frame)) for key, getter in moves]
                for key, value in staged:
                    values[key] = value
            block_counts[block.name] = block_counts.get(block.name, 0) + 1
            count = block.count
            self.steps += count
            if self.steps > max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_steps} interpreted instructions"
                )
            report.instructions += count
            if profile is not None:
                profile.count_block(block.tally)
            for step in block.steps:
                step(frame)
            outcome = block.terminator(frame)
            if outcome.__class__ is tuple:
                self.memory.stack_release(mark)
                self.accounting.charge("ret", costs.ret)
                return outcome[1]
            prev = block.bid
            block = outcome

    def _run_block(self, block, frame: Frame):
        profile = self.profile
        hook = self._inst_hook
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                continue
            self.steps += 1
            if self.steps > self.max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_steps} interpreted instructions"
                )
            self.accounting.instruction()
            if profile is not None:
                profile.count_opcode(inst.opcode)
            if hook is not None:
                # IR profiler (observability.profile): the hook wraps
                # _execute, measuring per-instruction deltas; charges
                # are untouched, so reports stay bit-identical.
                result = hook(block, inst, frame)
            else:
                result = self._execute(inst, frame)
            if isinstance(inst, RetInst):
                return ("ret", result)
            if isinstance(inst, BranchInst):
                return ("br", result)
        raise VPRuntimeError(f"block {block.name} fell off the end")

    # ------------------------------------------------------------ #
    # Instruction dispatch
    # ------------------------------------------------------------ #

    def _execute(self, inst: Instruction, frame: Frame):
        costs = self.accounting.costs
        if isinstance(inst, BinaryInst):
            frame.set(inst, self._binary(inst, frame))
            return None
        if isinstance(inst, LoadInst):
            addr = self._value(inst.pointer, frame)
            nbytes = self._sizeof(inst.type, frame)
            default = self._default(inst.type, frame)
            value = self.memory.load(int(addr), nbytes, default)
            frame.set(inst, value)
            return None
        if isinstance(inst, StoreInst):
            addr = self._value(inst.pointer, frame)
            value = self._value(inst.value, frame)
            nbytes = self._sizeof(inst.value.type, frame)
            self.memory.store(int(addr), value, nbytes)
            return None
        if isinstance(inst, AllocaInst):
            count = 1
            if inst.count is not None:
                count = int(self._value(inst.count, frame))
                if count < 0:
                    raise VPRuntimeError("negative VLA extent")
            elem = self._sizeof(inst.allocated_type, frame)
            addr = self.memory.alloc_stack(elem * max(count, 1))
            frame.set(inst, addr)
            self.accounting.charge("alloca", costs.int_op)
            return None
        if isinstance(inst, GEPInst):
            frame.set(inst, self._gep(inst, frame))
            self.accounting.charge("addr", costs.int_op)
            return None
        if isinstance(inst, ICmpInst):
            frame.set(inst, self._icmp(inst, frame))
            self.accounting.charge("icmp", costs.int_op)
            return None
        if isinstance(inst, FCmpInst):
            frame.set(inst, self._fcmp(inst, frame))
            self.accounting.charge("fcmp", costs.f64_other)
            return None
        if isinstance(inst, CastInst):
            frame.set(inst, self._cast(inst, frame))
            self.accounting.charge("cast", costs.int_op)
            return None
        if isinstance(inst, FNegInst):
            value = self._value(inst.operands[0], frame)
            if isinstance(value, BigFloat):
                frame.set(inst, -value)
            elif inst.type.is_float and inst.type.bits == 32:
                frame.set(inst, _f32(-value))
            else:
                frame.set(inst, -value)
            self.accounting.charge("fneg", costs.f64_other)
            return None
        if isinstance(inst, SelectInst):
            cond = self._value(inst.condition, frame)
            chosen = inst.true_value if cond else inst.false_value
            frame.set(inst, self._value(chosen, frame))
            self.accounting.charge("select", costs.int_op)
            return None
        if isinstance(inst, PhiInst):
            return None
        if isinstance(inst, CallInst):
            frame.set(inst, self._call(inst, frame))
            return None
        if isinstance(inst, BranchInst):
            self.accounting.charge("branch", costs.branch)
            if inst.is_conditional:
                cond = self._value(inst.condition, frame)
                return inst.targets[0] if cond else inst.targets[1]
            return inst.targets[0]
        if isinstance(inst, RetInst):
            if inst.value is None:
                return None
            return self._value(inst.value, frame)
        if isinstance(inst, UnreachableInst):
            raise VPRuntimeError("executed unreachable instruction")
        raise VPRuntimeError(f"cannot interpret {inst.opcode}")

    # ------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------ #

    def _binary(self, inst: BinaryInst, frame: Frame):
        a = self._value(inst.lhs, frame)
        b = self._value(inst.rhs, frame)
        op = inst.opcode
        costs = self.accounting.costs
        if inst.type.is_vpfloat:
            prec, _ = self.vp_config(inst.type, frame)
            kernel = {"fadd": arith.add, "fsub": arith.sub,
                      "fmul": arith.mul, "fdiv": arith.div}.get(op)
            if kernel is None:
                raise VPRuntimeError(f"{op} unsupported on vpfloat")
            work = prec + 8 if inst.type.format == "posit" else prec
            registry = self.metrics
            if registry is not None:
                registry.observe(f"precision.op.{op}.bits", prec)
                registry.observe("precision.guard_bits", work - prec)
                registry.inc("precision.rounding." + RNDN.value)
            a = self._as_bigfloat(a, work)
            b = self._as_bigfloat(b, work)
            words = max(1, prec // 64)
            self.accounting.charge("vpfloat_native",
                                   costs.f64_other * words)
            result = kernel(a, b, work, RNDN)
            if inst.type.format == "posit":
                # Tapered rounding: round the exact result to the nearest
                # representable posit.
                result = self._posit_round(result, inst.type, frame)
            elif inst.type.format == "mpfr":
                result = self._clamp_mpfr_exponent(result, inst.type, frame)
            return result
        if inst.type.is_float:
            table = {"fadd": lambda: a + b, "fsub": lambda: a - b,
                     "fmul": lambda: a * b, "frem": lambda: math.fmod(a, b),
                     "fdiv": lambda: (a / b if b != 0.0 else
                                      math.copysign(math.inf, a)
                                      if a != 0.0 else math.nan)}
            result = table[op]()
            cost = {"fadd": costs.f64_add, "fsub": costs.f64_add,
                    "fmul": costs.f64_mul, "fdiv": costs.f64_div,
                    "frem": costs.f64_div}[op]
            self.accounting.charge("f64", cost)
            return _f32(result) if inst.type.bits == 32 else result
        # Integer ops.
        self.accounting.charge("int", costs.int_op)
        bits = inst.type.bits
        ua = a & ((1 << bits) - 1)
        ub = b & ((1 << bits) - 1)
        if op == "add":
            raw = a + b
        elif op == "sub":
            raw = a - b
        elif op == "mul":
            raw = a * b
        elif op == "sdiv":
            if b == 0:
                raise VPRuntimeError("integer division by zero")
            raw = _trunc_div(a, b)  # C truncation semantics
        elif op == "srem":
            if b == 0:
                raise VPRuntimeError("integer remainder by zero")
            raw = a - _trunc_div(a, b) * b
        elif op == "udiv":
            if ub == 0:
                raise VPRuntimeError("integer division by zero")
            raw = ua // ub
        elif op == "urem":
            if ub == 0:
                raise VPRuntimeError("integer remainder by zero")
            raw = ua % ub
        elif op == "and":
            raw = a & b
        elif op == "or":
            raw = a | b
        elif op == "xor":
            raw = a ^ b
        elif op == "shl":
            raw = a << (b & (bits - 1))
        elif op == "ashr":
            raw = a >> (b & (bits - 1))
        elif op == "lshr":
            raw = ua >> (b & (bits - 1))
        else:
            raise VPRuntimeError(f"unknown integer op {op}")
        return _mask_int(raw, bits)

    def _clamp_mpfr_exponent(self, value: BigFloat, vptype,
                             frame) -> BigFloat:
        """Enforce the declared exponent-field width (the *exp-info*
        attribute): finite results whose MPFR-style exponent exceeds the
        signed range overflow to infinity / underflow to zero, like
        mpfr_set_emin/emax would arrange."""
        if not value.is_finite() or value.is_zero():
            return value
        exp_bits = self._attr(vptype.exp_attr, frame)
        limit = 1 << (exp_bits - 1)
        exponent = value.exponent()
        if exponent > limit:
            return BigFloat.inf(value.prec, value.sign)
        if exponent < -limit:
            return BigFloat.zero(value.prec, value.sign)
        return value

    def _posit_round(self, value: BigFloat, vptype, frame) -> BigFloat:
        # Attributes are read from the frame on every call (they may be
        # dynamic and change between iterations); only the validated
        # PositConfig object is cached, keyed by attribute value.
        config = self._posit_config(self._attr(vptype.exp_attr, frame),
                                    self._attr(vptype.prec_attr, frame))
        return posit_round(value, config)

    def _as_bigfloat(self, value, prec: int) -> BigFloat:
        if isinstance(value, BigFloat):
            return value
        if isinstance(value, float):
            return BigFloat.from_float(value, max(prec, 53))
        if isinstance(value, int):
            return BigFloat.from_int(value, max(prec, 64))
        raise VPRuntimeError(f"cannot coerce {type(value).__name__} to vpfloat")

    def _icmp(self, inst: ICmpInst, frame: Frame) -> int:
        a = self._value(inst.operands[0], frame)
        b = self._value(inst.operands[1], frame)
        bits = inst.operands[0].type.bits \
            if inst.operands[0].type.is_integer else 64
        ua = a & ((1 << bits) - 1)
        ub = b & ((1 << bits) - 1)
        pred = inst.predicate
        table = {
            "eq": a == b, "ne": a != b,
            "slt": a < b, "sle": a <= b, "sgt": a > b, "sge": a >= b,
            "ult": ua < ub, "ule": ua <= ub, "ugt": ua > ub, "uge": ua >= ub,
        }
        return 1 if table[pred] else 0

    def _fcmp(self, inst: FCmpInst, frame: Frame) -> int:
        return self._fcmp_values(self._value(inst.operands[0], frame),
                                 self._value(inst.operands[1], frame),
                                 inst.predicate)

    def _fcmp_values(self, a, b, pred: str) -> int:
        if isinstance(a, BigFloat) or isinstance(b, BigFloat):
            prec = 64
            a = self._as_bigfloat(a, prec)
            b = self._as_bigfloat(b, prec)
            unordered = a.is_nan() or b.is_nan()
            cmp = 0 if unordered else a.compare(b)
        else:
            unordered = math.isnan(a) or math.isnan(b)
            cmp = 0 if unordered else (-1 if a < b else (1 if a > b else 0))
        if pred == "ord":
            return 0 if unordered else 1
        if pred == "uno":
            return 1 if unordered else 0
        ordered_result = {
            "oeq": cmp == 0, "one": cmp != 0, "olt": cmp < 0,
            "ole": cmp <= 0, "ogt": cmp > 0, "oge": cmp >= 0,
            "ueq": cmp == 0, "une": cmp != 0,
        }[pred]
        if pred.startswith("o"):
            return 0 if unordered else (1 if ordered_result else 0)
        return 1 if (unordered or ordered_result) else 0

    def _cast(self, inst: CastInst, frame: Frame):
        return self._cast_value(inst, self._value(inst.source, frame), frame)

    def _cast_value(self, inst: CastInst, value, frame: Frame):
        opcode = inst.opcode
        target = inst.type
        if opcode in ("zext", "sext", "trunc"):
            bits = target.bits
            if opcode == "zext":
                src_bits = inst.source.type.bits
                return value & ((1 << src_bits) - 1)
            return _mask_int(int(value), bits)
        if opcode == "bitcast":
            return value
        if opcode in ("ptrtoint", "inttoptr"):
            return int(value)
        if opcode in ("sitofp", "uitofp"):
            if target.is_vpfloat:
                prec, _ = self.vp_config(target, frame)
                if target.format == "posit":
                    return self._posit_round(
                        BigFloat.from_int(int(value), max(prec + 8, 64)),
                        target, frame)
                return BigFloat.from_int(int(value), prec)
            result = float(int(value))
            return _f32(result) if target.bits == 32 else result
        if opcode == "fptosi":
            if isinstance(value, BigFloat):
                if not value.is_finite():
                    raise VPRuntimeError("fptosi of non-finite vpfloat")
                return _mask_int(value.to_int(), target.bits)
            return _mask_int(int(value), target.bits)
        if opcode in ("fpext", "fptrunc"):
            return _f32(value) if target.bits == 32 else float(value)
        if opcode == "vpconv":
            if isinstance(value, int) and not isinstance(value, bool):
                raise VPRuntimeError(
                    "vpconv applied to a raw pointer/integer -- a backend "
                    "lowering left a stale conversion behind"
                )
            if target.is_vpfloat:
                prec, _ = self.vp_config(target, frame)
                if target.format == "posit":
                    return self._posit_round(
                        self._as_bigfloat(value, prec + 8), target, frame)
                return self._as_bigfloat(value, prec).round_to(prec)
            # vpfloat -> IEEE
            result = value.to_float() if isinstance(value, BigFloat) \
                else float(value)
            return _f32(result) if target.bits == 32 else result
        raise VPRuntimeError(f"unknown cast {opcode}")

    def _gep(self, inst: GEPInst, frame: Frame) -> int:
        addr = int(self._value(inst.pointer, frame))
        indices = inst.indices
        pointee = inst.pointer.type.pointee
        first = int(self._value(indices[0], frame))
        addr += first * self._sizeof(pointee, frame)
        current = pointee
        for index in indices[1:]:
            i = int(self._value(index, frame))
            if isinstance(current, ArrayType):
                addr += i * self._sizeof(current.element, frame)
                current = current.element
            elif isinstance(current, StructType):
                addr += current.field_offset(i)
                current = current.fields[i]
            else:
                raise VPRuntimeError(f"gep into scalar {current}")
        return addr

    # ------------------------------------------------------------ #
    # Calls
    # ------------------------------------------------------------ #

    def _call(self, inst: CallInst, frame: Frame):
        args = [self._value(a, frame) for a in inst.operands]
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:
            return self.call_function(callee, args)
        name = callee.name if isinstance(callee, Function) else str(callee)
        return self._call_builtin(name, args, inst, frame)

    def _call_builtin(self, name: str, args, inst, frame):
        handler = self._builtins.get(name)
        if handler is None:
            raise VPRuntimeError(f"call to unknown runtime function {name!r}")
        profile = self.profile
        if profile is not None:
            before = self.accounting.report.cycles
            result = handler(args, inst, frame)
            profile.record_builtin(name,
                                   self.accounting.report.cycles - before)
            return result
        return handler(args, inst, frame)

    # ------------------------------------------------------------ #
    # Runtime library
    # ------------------------------------------------------------ #

    def _install_builtins(self) -> None:
        b = self._builtins
        costs = self.accounting.costs

        def charge(category, cycles):
            self.accounting.charge(category, cycles)

        # ---- vpfloat runtime ------------------------------------ #

        def sizeof_vpfloat(args, inst, frame):
            ess, fss, size = (int(a) for a in args)
            charge("runtime_check", costs.call_overhead)
            try:
                config = UnumConfig(ess, fss, size if size else None)
            except UnumConfigError as e:
                raise VPRuntimeError(f"__sizeof_vpfloat: {e}") from e
            return config.size_bytes

        def sizeof_vpfloat_mpfr(args, inst, frame):
            exp, prec = int(args[0]), int(args[1])
            charge("runtime_check", costs.call_overhead)
            from ..ir.types import _validate_mpfr_attrs

            try:
                _validate_mpfr_attrs(exp, prec)
            except ValueError as e:
                raise VPRuntimeError(f"__sizeof_vpfloat_mpfr: {e}") from e
            return 24 + bigfloat.limb_bytes(prec)

        def check_attr(args, inst, frame):
            actual, expected = int(args[0]), int(args[1])
            charge("runtime_check", costs.int_op)
            if actual != expected:
                raise VPRuntimeError(
                    f"vpfloat attribute mismatch at call boundary: "
                    f"argument carries {actual}, callee requires {expected} "
                    f"(paper Listing 3 runtime check)"
                )
            return None

        b["__sizeof_vpfloat"] = sizeof_vpfloat
        b["__sizeof_vpfloat_mpfr"] = sizeof_vpfloat_mpfr
        b["__vpfloat_check_attr"] = check_attr
        b["vpfloat.attr.keepalive"] = lambda args, inst, frame: None

        # ---- OpenMP markers ------------------------------------- #

        b["__omp_parallel_begin"] = \
            lambda args, inst, frame: self.accounting.parallel_begin()
        b["__omp_parallel_end"] = \
            lambda args, inst, frame: self.accounting.parallel_end()

        def atomic_begin(args, inst, frame):
            charge("atomic", costs.atomic_section)
            return None

        b["__omp_atomic_begin"] = atomic_begin
        b["__omp_atomic_end"] = lambda args, inst, frame: None
        b["__vpfloat_mutex_lock"] = atomic_begin
        b["__vpfloat_mutex_unlock"] = lambda args, inst, frame: None

        # ---- allocation ------------------------------------------ #

        def do_malloc(args, inst, frame):
            charge("malloc", costs.malloc)
            self.accounting.report.heap_allocations += 1
            return self.memory.alloc_heap(int(args[0]))

        def do_free(args, inst, frame):
            charge("free", costs.free)
            self.memory.free_heap(int(args[0]))
            return None

        b["malloc"] = do_malloc
        b["free"] = do_free

        def do_memset(args, inst, frame):
            # Object-cell memory: zero-fill is the only pattern the
            # compiler emits (loop idiom); clear the cells in range.
            addr, _value, nbytes = int(args[0]), args[1], int(args[2])
            charge("memset", costs.int_op + int(nbytes) // 8)
            self.memory.clear_range(addr, addr + nbytes)
            self.accounting.memory_access("w", addr, nbytes)
            return None

        def do_memcpy(args, inst, frame):
            dst, src, nbytes = int(args[0]), int(args[1]), int(args[2])
            charge("memcpy", costs.int_op + int(nbytes) // 4)
            self.memory.copy_range(dst, src, nbytes)
            self.accounting.memory_access("r", src, nbytes)
            self.accounting.memory_access("w", dst, nbytes)
            return None

        b["memset"] = do_memset
        b["memcpy"] = do_memcpy

        # ---- I/O -------------------------------------------------- #

        def print_value(args, inst, frame):
            value = args[0]
            if isinstance(value, int):
                # After MPFR lowering, vpfloat prints receive an object
                # address; resolve the handle when one lives there.
                cell = self.memory.cells.get(value)
                if cell is not None and hasattr(cell[0], "prec") and \
                        hasattr(cell[0], "value"):
                    value = cell[0].value
            if isinstance(value, BigFloat):
                self.stdout.append(bigfloat.to_str(value))
            elif isinstance(value, float):
                self.stdout.append(repr(value))
            else:
                self.stdout.append(str(value))
            return None

        b["print_double"] = print_value
        b["print_int"] = print_value
        b["print_vpfloat"] = print_value

        # ---- IEEE math ------------------------------------------- #

        def ieee(fn, cost):
            def handler(args, inst, frame):
                charge("libm", cost)
                return fn(*[float(a) for a in args])

            return handler

        b["sqrt"] = ieee(math.sqrt, costs.f64_div)
        b["fabs"] = ieee(abs, costs.f64_other)
        b["exp"] = ieee(math.exp, costs.f64_div * 2)
        b["log"] = ieee(math.log, costs.f64_div * 2)
        b["pow"] = ieee(math.pow, costs.f64_div * 3)
        b["sin"] = ieee(math.sin, costs.f64_div * 2)
        b["cos"] = ieee(math.cos, costs.f64_div * 2)
        b["floor"] = ieee(math.floor, costs.f64_other)
        b["ceil"] = ieee(math.ceil, costs.f64_other)
        b["fmax"] = ieee(max, costs.f64_other)
        b["fmin"] = ieee(min, costs.f64_other)

        # ---- vpfloat math ----------------------------------------- #

        def vpmath(kernel, quadratic=True):
            def handler(args, inst, frame):
                result_type = inst.type
                is_vp = result_type.is_vpfloat
                prec, _ = self.vp_config(result_type, frame) \
                    if is_vp else (53, 8)
                operands = [self._as_bigfloat(a, prec) for a in args]
                words = max(1, prec // 64)
                charge("vp_math",
                       costs.f64_div * (words * words if quadratic else words))
                result = kernel(*operands, prec)
                return result if is_vp else result.to_float()

            return handler

        b["vp.sqrt"] = vpmath(lambda a, prec: bigfloat.sqrt(a, prec))
        b["vp.fabs"] = vpmath(lambda a, prec: abs(a).round_to(prec), False)
        b["vp.exp"] = vpmath(lambda a, prec: bigfloat.exp(a, prec))
        b["vp.log"] = vpmath(lambda a, prec: bigfloat.log(a, prec))
        b["vp.sin"] = vpmath(lambda a, prec: bigfloat.sin(a, prec))
        b["vp.cos"] = vpmath(lambda a, prec: bigfloat.cos(a, prec))
        b["vp.pow"] = vpmath(lambda a, b_, prec: bigfloat.pow(a, b_, prec))

        def vp_fused(kernel):
            def handler(args, inst, frame):
                result_type = inst.type
                is_vp = result_type.is_vpfloat
                prec, _ = self.vp_config(result_type, frame) \
                    if is_vp else (53, 8)
                work = prec + 8 if (is_vp and
                                    result_type.format == "posit") else prec
                a, bb, c = (self._as_bigfloat(v, work) for v in args)
                words = max(1, prec // 64)
                charge("vp_math", costs.f64_mul * words * words)
                result = kernel(a, bb, c, work)
                if is_vp and result_type.format == "posit":
                    result = self._posit_round(result, result_type, frame)
                return result if is_vp else result.to_float()

            return handler

        b["vp.fma"] = vp_fused(arith.fma)
        b["vp.fms"] = vp_fused(arith.fms)

        self._install_mpfr_builtins()

    # ------------------------------------------------------------ #
    # MPFR C API (used by MPFR-lowered and Boost-lowered modules)
    # ------------------------------------------------------------ #

    def _mpfr_handle(self, addr: int):
        handle = self.memory.load(int(addr), 8)
        if handle is None:
            raise VPRuntimeError(
                f"use of uninitialized MPFR object at {int(addr):#x}"
            )
        return handle

    def _install_mpfr_builtins(self) -> None:
        b = self._builtins
        costs = self.accounting.costs
        report = self.accounting.report
        charge = self.accounting.charge
        cost_cache = self._mpfr_cost_cache

        by_cat = report.by_category
        mem_load = self.memory.load
        mpfr_op_cost = costs.mpfr_op_cost
        # Telemetry is bound once at install time: handlers built with
        # registry/tracer None carry no telemetry code on their path.
        registry = self.metrics
        tracer = self.tracer

        if registry is not None:
            observe_bits = registry.observe

            def charge_mpfr(name, prec):
                report.mpfr_calls += 1
                key = (name, prec)
                cycles = cost_cache.get(key)
                if cycles is None:
                    cycles = mpfr_op_cost(name, prec)
                    cost_cache[key] = cycles
                report.cycles += cycles
                by_cat["mpfr"] += cycles
                observe_bits("precision.mpfr.bits", prec)
        else:
            def charge_mpfr(name, prec):
                report.mpfr_calls += 1
                key = (name, prec)
                cycles = cost_cache.get(key)
                if cycles is None:
                    cycles = mpfr_op_cost(name, prec)
                    cost_cache[key] = cycles
                report.cycles += cycles
                by_cat["mpfr"] += cycles

        pool_hit_cycles = costs.mpfr_call_overhead + costs.mpfr_pool_hit_extra
        pool_release_cycles = (costs.mpfr_call_overhead
                               + costs.mpfr_pool_release_extra)

        def init2(args, inst, frame):
            addr, prec = int(args[0]), int(args[1])
            exp_bits = int(args[2]) if len(args) > 2 and args[2] else None
            var, reused = self.mpfr.acquire(prec, exp_bits)
            self.memory.store(addr, var, 8)
            if reused:
                # Free-list hit: the handle and its limb block (still at
                # var.limb_addr) are recycled in place -- no allocator
                # round-trip, no new heap footprint.  This is the runtime
                # counterpart of the lowering pass's dead-object reuse.
                report.mpfr_calls += 1
                charge("mpfr", pool_hit_cycles)
                return None
            report.mpfr_allocations += 1
            report.heap_allocations += 1
            # The struct's limb array is heap memory: model its footprint
            # for the cache/bandwidth accounting.
            var.limb_addr = self.memory.alloc_heap(bigfloat.limb_bytes(prec))
            charge_mpfr("mpfr_init2", prec)
            return None

        def clear(args, inst, frame):
            var = self._mpfr_handle(args[0])
            prec = var.prec
            if self.mpfr.release(var):
                # Parked on the free list: the limb heap block stays
                # allocated for the next acquire of this precision.
                report.mpfr_calls += 1
                charge("mpfr", pool_release_cycles)
                return None
            self.memory.free_heap(var.limb_addr)
            charge_mpfr("mpfr_clear", prec)
            return None

        if tracer is not None:
            # Per-call pool spans would swamp the trace (millions of
            # events); instead emit a counter sample of the cumulative
            # pool traffic every 256 acquire/release operations.
            pool_stats = self.mpfr.stats
            pool_ops = [0]
            emit_counter = tracer.counter

            def _pool_sample():
                pool_ops[0] += 1
                if not pool_ops[0] % 256:
                    emit_counter("mpfr.pool", {
                        "hits": pool_stats.pool_hits,
                        "misses": pool_stats.pool_misses,
                        "releases": pool_stats.pool_releases,
                    })

            _plain_init2, _plain_clear = init2, clear

            def init2(args, inst, frame):
                result = _plain_init2(args, inst, frame)
                _pool_sample()
                return result

            def clear(args, inst, frame):
                result = _plain_clear(args, inst, frame)
                _pool_sample()
                return result

        b["mpfr_init2"] = init2
        b["mpfr_clear"] = clear

        STRUCT_BYTES = 24  # sizeof(__mpfr_struct)

        def array_init(args, inst, frame):
            """Equivalent of the per-element mpfr_init2 loop the real
            backend emits for vpfloat arrays (cost charged per element)."""
            base, count, prec = int(args[0]), int(args[1]), int(args[2])
            exp_bits = int(args[3]) if len(args) > 3 and args[3] else 0
            for i in range(count):
                init2([base + i * STRUCT_BYTES, prec, exp_bits], inst,
                      frame)
            return None

        def array_clear(args, inst, frame):
            base, count = int(args[0]), int(args[1])
            for i in range(count):
                addr = base + i * STRUCT_BYTES
                handle = self.memory.load(addr, 8)
                if handle is not None and getattr(handle, "alive", False):
                    clear([addr], inst, frame)
            return None

        b["__mpfr_array_init"] = array_init
        b["__mpfr_array_clear"] = array_clear

        cache_model = self.accounting.cache
        limb_bytes_cache: dict = {}

        if cache_model is not None:
            def touch_limbs(var, kind):
                prec = var.prec
                nbytes = limb_bytes_cache.get(prec)
                if nbytes is None:
                    nbytes = bigfloat.limb_bytes(prec)
                    limb_bytes_cache[prec] = nbytes
                before = cache_model.access_cycles
                cache_model.access(kind, var.limb_addr, nbytes)
                report.cycles += cache_model.access_cycles - before
        else:
            def touch_limbs(var, kind):
                return None

        # Handlers bind the MpfrLibrary method once at install time (no
        # per-call getattr), memoize per-(name, prec) cycle costs, and
        # inline the handle load + cost charge (these run once per
        # dynamic MPFR call -- the hottest path in lowered kernels).

        def _uninitialized(addr):
            return VPRuntimeError(
                f"use of uninitialized MPFR object at {int(addr):#x}")

        def unary(method_name):
            method = getattr(self.mpfr, method_name)
            call_name = f"mpfr_{method_name}"

            def handler(args, inst, frame):
                dst = mem_load(int(args[0]), 8)
                src = mem_load(int(args[1]), 8)
                if dst is None or src is None:
                    raise _uninitialized(args[0] if dst is None else args[1])
                method(dst, src)
                touch_limbs(src, "r")
                touch_limbs(dst, "w")
                charge_mpfr(call_name, dst.prec)
                return None

            return handler

        def binary(method_name):
            method = getattr(self.mpfr, method_name)
            call_name = f"mpfr_{method_name}"

            if registry is not None:
                def handler(args, inst, frame):
                    dst = mem_load(int(args[0]), 8)
                    a = mem_load(int(args[1]), 8)
                    bb = mem_load(int(args[2]), 8)
                    if dst is None or a is None or bb is None:
                        raise _uninitialized(
                            args[0] if dst is None else
                            args[1] if a is None else args[2])
                    method(dst, a, bb)
                    touch_limbs(a, "r")
                    touch_limbs(bb, "r")
                    touch_limbs(dst, "w")
                    charge_mpfr(call_name, dst.prec)
                    return None

                return handler

            def handler(args, inst, frame):
                dst = mem_load(int(args[0]), 8)
                a = mem_load(int(args[1]), 8)
                bb = mem_load(int(args[2]), 8)
                if dst is None or a is None or bb is None:
                    raise _uninitialized(
                        args[0] if dst is None else
                        args[1] if a is None else args[2])
                method(dst, a, bb)
                touch_limbs(a, "r")
                touch_limbs(bb, "r")
                touch_limbs(dst, "w")
                prec = dst.prec
                report.mpfr_calls += 1
                key = (call_name, prec)
                cycles = cost_cache.get(key)
                if cycles is None:
                    cycles = mpfr_op_cost(call_name, prec)
                    cost_cache[key] = cycles
                report.cycles += cycles
                by_cat["mpfr"] += cycles
                return None

            return handler

        def binary_scalar(method_name):
            method = getattr(self.mpfr, method_name)
            call_name = f"mpfr_{method_name}"

            def handler(args, inst, frame):
                dst = mem_load(int(args[0]), 8)
                a = mem_load(int(args[1]), 8)
                if dst is None or a is None:
                    raise _uninitialized(args[0] if dst is None else args[1])
                method(dst, a, args[2])
                touch_limbs(a, "r")
                touch_limbs(dst, "w")
                charge_mpfr(call_name, dst.prec)
                return None

            return handler

        def scalar_first(method_name):
            method = getattr(self.mpfr, method_name)
            call_name = f"mpfr_{method_name}"

            def handler(args, inst, frame):
                dst = mem_load(int(args[0]), 8)
                a = mem_load(int(args[2]), 8)
                if dst is None or a is None:
                    raise _uninitialized(args[0] if dst is None else args[2])
                method(dst, args[1], a)
                touch_limbs(a, "r")
                touch_limbs(dst, "w")
                charge_mpfr(call_name, dst.prec)
                return None

            return handler

        for op in ("add", "sub", "mul", "div", "pow"):
            b[f"mpfr_{op}"] = binary(op)
        for op in ("add", "sub", "mul", "div"):
            b[f"mpfr_{op}_d"] = binary_scalar(f"{op}_d")
            b[f"mpfr_{op}_si"] = binary_scalar(f"{op}_si")
        b["mpfr_d_sub"] = scalar_first("d_sub")
        b["mpfr_d_div"] = scalar_first("d_div")
        for op in ("neg", "abs", "sqrt", "exp", "log", "sin", "cos"):
            b[f"mpfr_{op}"] = unary(op)

        def fma_like(method_name):
            method = getattr(self.mpfr, method_name)
            call_name = f"mpfr_{method_name}"

            def handler(args, inst, frame):
                dst = self._mpfr_handle(args[0])
                a = self._mpfr_handle(args[1])
                bb = self._mpfr_handle(args[2])
                c = self._mpfr_handle(args[3])
                method(dst, a, bb, c)
                for v in (a, bb, c):
                    touch_limbs(v, "r")
                touch_limbs(dst, "w")
                charge_mpfr(call_name, dst.prec)
                return None

            return handler

        b["mpfr_fma"] = fma_like("fma")
        b["mpfr_fms"] = fma_like("fms")

        def mpfr_set(args, inst, frame):
            dst = self._mpfr_handle(args[0])
            src = self._mpfr_handle(args[1])
            self.mpfr.set(dst, src)
            touch_limbs(src, "r")
            touch_limbs(dst, "w")
            charge_mpfr("mpfr_set", dst.prec)
            return None

        def mpfr_set_scalar(method_name):
            method = getattr(self.mpfr, method_name)
            call_name = f"mpfr_{method_name}"

            def handler(args, inst, frame):
                dst = self._mpfr_handle(args[0])
                method(dst, args[1])
                touch_limbs(dst, "w")
                charge_mpfr(call_name, dst.prec)
                return None

            return handler

        def mpfr_swap(args, inst, frame):
            a = self._mpfr_handle(args[0])
            bb = self._mpfr_handle(args[1])
            self.mpfr.swap(a, bb)
            charge_mpfr("mpfr_swap", a.prec)
            return None

        b["mpfr_swap"] = mpfr_swap
        b["mpfr_set"] = mpfr_set
        b["mpfr_set_d"] = mpfr_set_scalar("set_d")
        b["mpfr_set_si"] = mpfr_set_scalar("set_si")
        b["mpfr_set_str"] = mpfr_set_scalar("set_str")

        def mpfr_set_bigfloat(args, inst, frame):
            """Internal entry used by lowered ConstantVPFloat stores."""
            dst = self._mpfr_handle(args[0])
            value = args[1]
            dst.value = value.round_to(dst.prec) if isinstance(value, BigFloat) \
                else BigFloat.from_float(float(value), dst.prec)
            touch_limbs(dst, "w")
            charge_mpfr("mpfr_set", dst.prec)
            return None

        b["__mpfr_set_literal"] = mpfr_set_bigfloat

        def mpfr_load_global(args, inst, frame):
            """Read a first-class global cell into an MPFR object."""
            dst = self._mpfr_handle(args[0])
            cell = self.memory.load(int(args[1]), 8)
            value = cell if isinstance(cell, BigFloat) \
                else BigFloat.zero(dst.prec)
            dst.value = value.round_to(dst.prec)
            touch_limbs(dst, "w")
            charge_mpfr("mpfr_set", dst.prec)
            return None

        def mpfr_store_global(args, inst, frame):
            src = self._mpfr_handle(args[1])
            self.memory.store(int(args[0]), src.value, 8)
            touch_limbs(src, "r")
            charge_mpfr("mpfr_set", src.prec)
            return None

        b["__mpfr_load_global"] = mpfr_load_global
        b["__mpfr_store_global"] = mpfr_store_global

        def mpfr_cmp(args, inst, frame):
            a = self._mpfr_handle(args[0])
            bb = self._mpfr_handle(args[1])
            charge_mpfr("mpfr_cmp", a.prec)
            return self.mpfr.cmp(a, bb)

        def mpfr_cmp_d(args, inst, frame):
            a = self._mpfr_handle(args[0])
            charge_mpfr("mpfr_cmp", a.prec)
            return self.mpfr.cmp_d(a, float(args[1]))

        def mpfr_get_d(args, inst, frame):
            a = self._mpfr_handle(args[0])
            charge_mpfr("mpfr_get_d", a.prec)
            return self.mpfr.get_d(a)

        def mpfr_get_si(args, inst, frame):
            a = self._mpfr_handle(args[0])
            charge_mpfr("mpfr_get_si", a.prec)
            return self.mpfr.get_si(a)

        b["mpfr_cmp"] = mpfr_cmp
        b["mpfr_cmp_d"] = mpfr_cmp_d
        b["mpfr_get_d"] = mpfr_get_d
        b["mpfr_get_si"] = mpfr_get_si
