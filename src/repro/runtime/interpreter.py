"""IR interpreter: executes modules with full runtime-library support.

This is the "host execution" stand-in: it runs IR produced by codegen
(functional testing) and IR produced by the backends (MPFR-lowered code
calling ``mpfr_*``; Boost-baseline code), charging modeled cycles to a
:class:`~repro.runtime.cost_model.CostAccounting`.

Runtime semantics:

- the value of each scalar op is one module-level function
  (``int_binary``, ``float_binary``, ``vp_binary``, ``icmp_value``,
  ``fcmp_value``, ``cast_value``), which constant folding, the jit and
  the UNUM machine share;
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

import functools
import math
import operator
import struct
from typing import Callable, Dict, List, NamedTuple, Optional

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
from ..unum import (UnumConfig, UnumConfigError, decode as unum_decode,
                    encode as unum_encode)
from ..unum.posit import PositConfig, posit_round
from .cost_model import CacheModel, CostAccounting
from .memory import Memory, heap_step

#: Execution engines, fastest first (see README "Execution engines").
ENGINES = ("jit", "legacy")


class VPRuntimeError(RuntimeError):
    """A runtime trap: failed attribute check, bad size, null deref..."""


class ExecutionLimitExceeded(RuntimeError):
    """The step budget ran out (guards against runaway loops)."""


class ExecutionResult:
    def __init__(self, value, report, stdout: List[str]):
        self.value = value
        self.report = report
        self.stdout = stdout
        #: The :class:`~repro.observability.profile.IRProfile` of a
        #: ``CompiledProgram.run(..., profile=True)`` run, else None.
        self.profile = None


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


# ---------------------------------------------------------------- #
# The value of each scalar IR op.  The walker resolves a type's
# attributes (and charges cycles), then calls these; constfold calls
# them on constant operands, so a folded value is the runtime's value.
# They raise VPRuntimeError where the program traps.
# ---------------------------------------------------------------- #

class VPFormat(NamedTuple):
    """A vpfloat type with its attributes resolved."""

    format: str      # "mpfr", "posit" or "unum"
    prec: int        # working precision of one value, in bits
    size: int        # bytes in memory
    exp_bits: int    # the exp-info attribute (MPFR exponent clamp)
    config: object   # the PositConfig / UnumConfig; None for mpfr


@functools.lru_cache(maxsize=None)
def vp_format(fmt: str, exp: int, prec: int,
              size: Optional[int] = None) -> VPFormat:
    """Resolve ``vpfloat<fmt, exp, prec[, size]>``; out-of-range
    attributes trap (the paper's correctness-first choice)."""
    try:
        if fmt == "posit":
            config = PositConfig(exp, prec)
            # Working precision of the exact intermediate; the tapered
            # rounding to the format happens per operation.
            return VPFormat(fmt, config.max_fraction_bits + 1,
                            config.size_bytes, exp, config)
        if fmt == "unum":
            config = UnumConfig(exp, prec, size or None)
            return VPFormat(fmt, config.precision, config.size_bytes, exp,
                            config)
        _validate_mpfr_attrs(exp, prec)
    except ValueError as e:  # PositConfigError, UnumConfigError too
        raise VPRuntimeError(str(e)) from e
    return VPFormat(fmt, prec, 24 + bigfloat.limb_bytes(prec), exp, None)


def _as_bigfloat(value, prec: int) -> BigFloat:
    if isinstance(value, BigFloat):
        return value
    if isinstance(value, float):
        return BigFloat.from_float(value, max(prec, 53))
    if isinstance(value, int):
        return BigFloat.from_int(value, max(prec, 64))
    raise VPRuntimeError(f"cannot coerce {type(value).__name__} to vpfloat")


def vp_round(value: BigFloat, fmt: VPFormat) -> BigFloat:
    """``value`` rounded into the format, as a constant is on use."""
    if fmt.format == "posit":
        return posit_round(value, fmt.config)
    if fmt.format == "unum":
        return unum_decode(unum_encode(value, fmt.config), fmt.config)
    return value.round_to(fmt.prec)


def constant_value(c: Constant, fmt: Optional[VPFormat] = None):
    """The value an integer, float or vpfloat constant has at runtime:
    a ``float`` constant rounds to binary32, and a vpfloat literal
    (stored at literal precision) into its type's format ``fmt``."""
    if isinstance(c, ConstantVPFloat):
        return vp_round(c.value, fmt)
    if isinstance(c, ConstantFloat):
        return _f32(c.value) if c.type.bits == 32 else c.value
    return c.value


def constant_of(type_, value) -> Constant:
    """The constant of scalar ``type_`` holding the runtime ``value``."""
    if type_.is_integer:
        return ConstantInt(type_, value)
    if type_.is_float:
        return ConstantFloat(type_, value)
    return ConstantVPFloat(type_, value)


#: sizeof(__mpfr_struct): the stride of a lowered vpfloat array.
MPFR_STRUCT_BYTES = 24


class MpfrLifeCosts(dict):
    """``prec -> (init_cycles, clear_cycles, limb_bytes, heap_step)``:
    the modeled price of one ``mpfr_init2`` and one ``mpfr_clear`` that
    allocate and free, the limb block's size and how far its heap
    block advances the heap pointer.  Resolved once per precision for
    one interpreter's cost table; the installed lifecycle handlers and
    the jit's lifecycle helpers read the same entries."""

    __slots__ = ("costs",)

    def __init__(self, costs):
        super().__init__()
        self.costs = costs

    def __missing__(self, prec):
        op_cost = self.costs.mpfr_op_cost
        nbytes = bigfloat.limb_bytes(prec)
        entry = self[prec] = (op_cost("mpfr_init2", prec),
                              op_cost("mpfr_clear", prec),
                              nbytes, heap_step(nbytes))
        return entry


def _attr_value(attr: Value, frame: Optional["Frame"]) -> int:
    if isinstance(attr, ConstantInt):
        return attr.value
    if frame is None:
        raise VPRuntimeError("dynamic vpfloat attribute outside a frame")
    return int(frame.get(attr))


def type_format(vptype: VPFloatType,
                frame: Optional["Frame"] = None) -> VPFormat:
    """``vptype`` resolved against its attribute values: constants, or
    the values bound in ``frame``, read fresh on every call (a frame
    that mutates a dynamic attribute mid-loop resolves against the
    *current* value); only ``vp_format`` caches, by attribute value."""
    size = vptype.size_attr
    return vp_format(vptype.format, _attr_value(vptype.exp_attr, frame),
                     _attr_value(vptype.prec_attr, frame),
                     None if size is None else _attr_value(size, frame))


def clamp_exponent(value: BigFloat, exp_bits: int) -> BigFloat:
    """Enforce the declared exponent-field width (the *exp-info*
    attribute): finite results whose MPFR-style exponent exceeds the
    signed range overflow to infinity / underflow to zero, like
    mpfr_set_emin/emax would arrange."""
    if not value.is_finite() or value.is_zero():
        return value
    limit = 1 << (exp_bits - 1)
    exponent = value.exponent()
    if exponent > limit:
        return BigFloat.inf(value.prec, value.sign)
    if exponent < -limit:
        return BigFloat.zero(value.prec, value.sign)
    return value


_VP_KERNELS = {"fadd": arith.add, "fsub": arith.sub, "fmul": arith.mul,
               "fdiv": arith.div}


def vp_binary(op: str, a, b, fmt: VPFormat) -> BigFloat:
    """vpfloat ``a op b``: posit works at ``prec + 8`` bits, then rounds
    to the nearest posit; mpfr results take the exponent clamp."""
    kernel = _VP_KERNELS.get(op)
    if kernel is None:
        raise VPRuntimeError(f"{op} unsupported on vpfloat")
    if fmt.format == "posit":
        work = fmt.prec + 8
        return posit_round(kernel(_as_bigfloat(a, work),
                                  _as_bigfloat(b, work), work, RNDN),
                           fmt.config)
    prec = fmt.prec
    result = kernel(_as_bigfloat(a, prec), _as_bigfloat(b, prec), prec, RNDN)
    if fmt.format == "mpfr":
        result = clamp_exponent(result, fmt.exp_bits)
    return result


def int_binary(op: str, a: int, b: int, bits: int) -> int:
    """C integer ``a op b`` at ``bits``: wraps, truncating division,
    shift counts modulo the width; division by zero traps."""
    mask = (1 << bits) - 1
    if op == "add":
        raw = a + b
    elif op == "sub":
        raw = a - b
    elif op == "mul":
        raw = a * b
    elif op in ("sdiv", "srem"):
        if b == 0:
            raise VPRuntimeError("integer division by zero" if op == "sdiv"
                                 else "integer remainder by zero")
        q = _trunc_div(a, b)  # C truncation semantics
        raw = q if op == "sdiv" else a - q * b
    elif op in ("udiv", "urem"):
        ua, ub = a & mask, b & mask
        if ub == 0:
            raise VPRuntimeError("integer division by zero" if op == "udiv"
                                 else "integer remainder by zero")
        raw = ua // ub if op == "udiv" else ua % ub
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
        raw = (a & mask) >> (b & (bits - 1))
    else:
        raise VPRuntimeError(f"unknown integer op {op}")
    return _mask_int(raw, bits)


def fdiv(a: float, b: float) -> float:
    """IEEE ``a / b``: ``x / ±0`` is an infinity signed by the XOR of
    the operand signs, and ``0 / 0`` and ``NaN / 0`` are NaN."""
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def frem(a: float, b: float) -> float:
    """C ``fmod``: ``x rem ±0`` and ``±inf rem y`` are NaN."""
    try:
        return math.fmod(a, b)
    except ValueError:
        return math.nan


_FLOAT_OPS = {"fadd": operator.add, "fsub": operator.sub,
              "fmul": operator.mul, "fdiv": fdiv, "frem": frem}


def float_binary(op: str, a: float, b: float, bits: int) -> float:
    """IEEE ``a op b`` in binary64, re-rounded to binary32 at 32 bits."""
    result = _FLOAT_OPS[op](a, b)
    return _f32(result) if bits == 32 else result


_ICMPS = {"eq": operator.eq, "ne": operator.ne, "slt": operator.lt,
          "sle": operator.le, "sgt": operator.gt, "sge": operator.ge,
          "ult": operator.lt, "ule": operator.le, "ugt": operator.gt,
          "uge": operator.ge}


def icmp_value(pred: str, a: int, b: int, bits: int) -> int:
    """``icmp pred`` on ``bits``-wide integers: 1 or 0."""
    if pred[0] == "u":
        mask = (1 << bits) - 1
        a &= mask
        b &= mask
    return 1 if _ICMPS[pred](a, b) else 0


#: fcmp predicate -> its value when a < b, a == b, a > b, unordered.
_FCMPS = {"oeq": (0, 1, 0, 0), "one": (1, 0, 1, 0), "olt": (1, 0, 0, 0),
          "ole": (1, 1, 0, 0), "ogt": (0, 0, 1, 0), "oge": (0, 1, 1, 0),
          "ueq": (0, 1, 0, 1), "une": (1, 0, 1, 1), "ord": (1, 1, 1, 0),
          "uno": (0, 0, 0, 1)}


def fcmp_value(a, b, pred: str) -> int:
    """``fcmp pred`` on IEEE or vpfloat operands: 1 or 0."""
    row = _FCMPS[pred]
    if isinstance(a, BigFloat) or isinstance(b, BigFloat):
        a = _as_bigfloat(a, 64)
        b = _as_bigfloat(b, 64)
        if a.is_nan() or b.is_nan():
            return row[3]
        return row[a.compare(b) + 1]
    if a != a or b != b:
        return row[3]
    return row[0] if a < b else row[2] if a > b else row[1]


def cast_value(opcode: str, value, src_bits: int, dst_bits: int,
               fmt: Optional[VPFormat] = None):
    """``opcode`` applied to ``value``: ``src_bits``/``dst_bits`` are the
    integer or IEEE widths of the source and target, ``fmt`` the
    resolved format of a vpfloat target."""
    if opcode == "zext":
        return value & ((1 << src_bits) - 1)
    if opcode in ("sext", "trunc"):
        return _mask_int(int(value), dst_bits)
    if opcode == "bitcast":
        return value
    if opcode in ("ptrtoint", "inttoptr"):
        return int(value)
    if opcode in ("sitofp", "uitofp"):
        value = int(value)
        if opcode == "uitofp":
            value &= (1 << src_bits) - 1
        if fmt is not None:
            if fmt.format == "posit":
                return posit_round(
                    BigFloat.from_int(value, max(fmt.prec + 8, 64)),
                    fmt.config)
            return BigFloat.from_int(value, fmt.prec)
        result = float(value)
        return _f32(result) if dst_bits == 32 else result
    if opcode == "fptosi":
        if isinstance(value, BigFloat):
            if not value.is_finite():
                raise VPRuntimeError("fptosi of non-finite vpfloat")
            return _mask_int(value.to_int(), dst_bits)
        return _mask_int(int(value), dst_bits)
    if opcode in ("fpext", "fptrunc"):
        return _f32(value) if dst_bits == 32 else float(value)
    if opcode == "vpconv":
        if isinstance(value, int) and not isinstance(value, bool):
            raise VPRuntimeError(
                "vpconv applied to a raw pointer/integer -- a backend "
                "lowering left a stale conversion behind"
            )
        if fmt is not None:
            if fmt.format == "posit":
                return posit_round(_as_bigfloat(value, fmt.prec + 8),
                                   fmt.config)
            return _as_bigfloat(value, fmt.prec).round_to(fmt.prec)
        # vpfloat -> IEEE
        result = value.to_float() if isinstance(value, BigFloat) \
            else float(value)
        return _f32(result) if dst_bits == 32 else result
    raise VPRuntimeError(f"unknown cast {opcode}")


#: The static cycles of each IR op, what it costs whatever its operands:
#: ``((category, CycleCosts field, multiplier), ...)``.  The walker
#: charges each instruction from it, the jit each block at its entry.
_FLOAT_FIELDS = {"fadd": "f64_add", "fsub": "f64_add", "fmul": "f64_mul",
                 "fdiv": "f64_div", "frem": "f64_div"}
_STATIC_COSTS = {cls: ((category, field, 1),) for cls, category, field in (
    (AllocaInst, "alloca", "int_op"), (GEPInst, "addr", "int_op"),
    (ICmpInst, "icmp", "int_op"), (FCmpInst, "fcmp", "f64_other"),
    (CastInst, "cast", "int_op"), (FNegInst, "fneg", "f64_other"),
    (SelectInst, "select", "int_op"), (BranchInst, "branch", "branch"))}


def static_cost(inst: Instruction, frame: Optional[Frame] = None) -> tuple:
    """The static cycles of ``inst`` (none for loads, stores, calls,
    returns and phis); a vpfloat op's are resolved against ``frame``."""
    cls = type(inst)
    if cls is BinaryInst:
        type_ = inst.type
        if isinstance(type_, VPFloatType):
            words = max(1, type_format(type_, frame).prec // 64)
            return (("vpfloat_native", "f64_other", words),)
        if isinstance(type_, FloatType):
            return (("f64", _FLOAT_FIELDS[inst.opcode], 1),)
        return (("int", "int_op", 1),)
    return _STATIC_COSTS.get(cls, ())


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

    ``dispatch`` selects the execution engine (:data:`ENGINES`):
    ``"jit"`` (default) compiles each IR function to straight-line
    Python source on first call (:mod:`repro.codegen.pyjit`), with
    per-function fallback to the legacy walker for anything the emitter
    cannot prove static; ``"legacy"`` walks the per-instruction
    isinstance chain.  Both charge identical cycles.

    ``mpfr_pool`` enables the runtime free-list in the backing
    :class:`~repro.bigfloat.MpfrLibrary`: ``mpfr_clear`` parks handles
    for reuse by later ``mpfr_init2`` calls of the same precision,
    skipping the modeled allocator round-trip (the run-time counterpart
    of the lowering pass's static dead-object reuse, paper §III-C1).

    Profiling is not the interpreter's job: the exact IR profiler
    (:mod:`repro.observability.profile`, reached through
    ``CompiledProgram.run(..., profile=True)``) installs a
    per-instruction hook on a legacy-walker interpreter.
    """

    def __init__(self, module: Module,
                 accounting: Optional[CostAccounting] = None,
                 mpfr_library: Optional[MpfrLibrary] = None,
                 max_steps: int = 500_000_000,
                 dispatch: str = "jit",
                 mpfr_pool: bool = False,
                 codegen_store=None):
        if dispatch not in ENGINES:
            raise ValueError(f"unknown dispatch mode {dispatch!r}; "
                             f"choose from {ENGINES}")
        self.module = module
        self.accounting = accounting or CostAccounting(cache=CacheModel())
        self.memory = Memory(observer=self.accounting.memory_access)
        self.mpfr = mpfr_library or MpfrLibrary(pool=mpfr_pool)
        self.max_steps = max_steps
        self.steps = 0
        self.dispatch = dispatch
        #: Process-global telemetry, captured at construction so every
        #: hot-path hook is a bound local (or absent entirely).  Both
        #: are None unless repro.observability.enable_telemetry ran.
        self.tracer = current_tracer()
        self.metrics = current_metrics()
        #: Scalar-kernel op/site/fallback accounting -- only constructed
        #: when some observer (metrics registry or run ledger) will
        #: consume it, so unobserved runs bind the raw kernels with zero
        #: per-call overhead.
        self.kernel_stats = None
        if self.metrics is not None or current_ledger() is not None:
            from ..codegen.kernels import KernelStats

            self.kernel_stats = KernelStats()
        self.stdout: List[str] = []
        self.globals: Dict[str, int] = {}
        self._builtins: Dict[str, Callable] = {}
        #: (id(constant), attrs) -> rounded BigFloat; constants are pinned
        #: by the module so ids are stable.
        self._const_cache: Dict[tuple, BigFloat] = {}
        #: ``(MPFR entry point, precision) -> cycles``, both engines'.
        self._mpfr_cycles = functools.lru_cache(maxsize=None)(
            self.accounting.costs.mpfr_op_cost)
        #: Shared codegen artifact store (jit engine): lets warm runs of
        #: a cached program skip re-emission.  Lazily created when the
        #: jit dispatch mode first materializes a function.
        self._codegen_store = codegen_store
        self._jit_engine = None
        #: Hot-block counts dict installed by the traced call path for
        #: the duration of one call; None when untraced.
        self._block_counts: Optional[Dict[str, int]] = None
        #: Per-instruction profiling hook (legacy walker only); set by
        #: repro.observability.profile, never by the interpreter.
        self._inst_hook = None
        #: Instruction class -> the method computing its value.
        self._computes = {BinaryInst: self._binary, GEPInst: self._gep,
                          ICmpInst: self._icmp, FCmpInst: self._fcmp,
                          CastInst: self._cast, CallInst: self._call,
                          FNegInst: self._fneg, SelectInst: self._select,
                          LoadInst: self._load}
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
        return ExecutionResult(value, report, self.stdout)

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

    def _sizeof(self, type, frame: Optional[Frame]) -> int:
        if isinstance(type, VPFloatType):
            return type_format(type, frame).size
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
            return BigFloat.zero(type_format(type, frame).prec)
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
            return constant_value(c)
        if isinstance(c, ConstantVPFloat):
            fmt = type_format(c.type, frame)
            key = (id(c), fmt.prec)
            cached = self._const_cache.get(key)
            if cached is not None:
                return cached
            rounded = constant_value(c, fmt)
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
        return self._call_untraced(func, args)

    def _call_untraced(self, func: Function, args: List[object]) -> object:
        """Run ``func`` on its jit code, or on the walker."""
        if self.dispatch == "jit":
            entry = self._jit_entry(func)
            if entry is not None:
                try:
                    return entry(*args)
                except Exception as error:
                    self._jit_engine.refund(func, error.__traceback__)
                    raise
        return self._call_legacy(func, args)

    def _call_legacy(self, func: Function, args: List[object]) -> object:
        block_counts = self._block_counts
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
            outcome = self._run_block(block, frame, len(phis))
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
            previous = self._block_counts
            self._block_counts = counts
            try:
                value = self._call_untraced(func, args)
            finally:
                self._block_counts = previous
            span.args["cycles"] = report.cycles - cycles0
            span.args["instructions"] = report.instructions - instructions0
            if counts:
                hot = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
                span.args["hot_blocks"] = [
                    {"block": name, "executions": n} for name, n in hot
                ]
        return value

    def _jit_entry(self, func: Function):
        """The specialized callable for ``func``, or None when the
        emitter fell back (the legacy walker takes over)."""
        engine = self._jit_engine
        if engine is None:
            from ..codegen.pyjit import JitEngine

            engine = JitEngine(self, self._codegen_store)
            self._jit_engine = engine
        return engine.entry(func)

    def _run_block(self, block, frame: Frame, phis: int):
        # The step limit is checked at block entry, as the jit does.
        body = block.instructions[phis:]
        if self.steps + len(body) > self.max_steps:
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_steps} interpreted instructions")
        hook = self._inst_hook
        report = self.accounting.report
        for inst in body:
            self.steps += 1
            report.instructions += 1
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
        for category, field, mult in static_cost(inst, frame):
            self.accounting.charge(category, getattr(costs, field) * mult)
        compute = self._computes.get(type(inst))
        if compute is not None:
            frame.set(inst, compute(inst, frame))
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
            return None
        if isinstance(inst, BranchInst):
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
        type_ = inst.type
        if type_.is_vpfloat:
            fmt = type_format(type_, frame)
            registry = self.metrics
            if registry is not None:
                registry.observe(f"precision.op.{op}.bits", fmt.prec)
                registry.observe("precision.guard_bits",
                                 8 if fmt.format == "posit" else 0)
                registry.inc("precision.rounding." + RNDN.value)
            return vp_binary(op, a, b, fmt)
        if type_.is_float:
            return float_binary(op, a, b, type_.bits)
        return int_binary(op, a, b, type_.bits)

    def _load(self, inst: LoadInst, frame: Frame):
        return self.memory.load(int(self._value(inst.pointer, frame)),
                                self._sizeof(inst.type, frame),
                                self._default(inst.type, frame))

    def _fneg(self, inst: FNegInst, frame: Frame):
        value = -self._value(inst.operands[0], frame)
        narrow = inst.type.is_float and inst.type.bits == 32
        return value if isinstance(value, BigFloat) or not narrow \
            else _f32(value)

    def _select(self, inst: SelectInst, frame: Frame):
        cond = self._value(inst.condition, frame)
        return self._value(inst.true_value if cond else inst.false_value,
                           frame)

    def _icmp(self, inst: ICmpInst, frame: Frame) -> int:
        lhs = inst.operands[0]
        return icmp_value(inst.predicate, self._value(lhs, frame),
                          self._value(inst.operands[1], frame),
                          lhs.type.bits if lhs.type.is_integer else 64)

    def _fcmp(self, inst: FCmpInst, frame: Frame) -> int:
        return fcmp_value(self._value(inst.operands[0], frame),
                          self._value(inst.operands[1], frame),
                          inst.predicate)

    def _cast(self, inst: CastInst, frame: Frame):
        return self._cast_value(inst, self._value(inst.source, frame), frame)

    def _cast_value(self, inst: CastInst, value, frame: Optional[Frame]):
        target = inst.type
        return cast_value(
            inst.opcode, value, getattr(inst.source.type, "bits", 0),
            getattr(target, "bits", 0),
            type_format(target, frame) if target.is_vpfloat else None)

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
        return handler(args, inst, frame)

    # ------------------------------------------------------------ #
    # Runtime library
    # ------------------------------------------------------------ #

    def _install_builtins(self) -> None:
        b = self._builtins
        costs = self.accounting.costs

        charge = self.accounting.charge

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
                prec = type_format(result_type, frame).prec if is_vp else 53
                operands = [_as_bigfloat(a, prec) for a in args]
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
        mpfr_cycles = self._mpfr_cycles

        by_cat = report.by_category
        mem_load = self.memory.load
        # Telemetry is bound once at install time: handlers built with
        # registry/tracer None carry no telemetry code on their path.
        registry = self.metrics
        tracer = self.tracer

        if registry is not None:
            observe_bits = registry.observe

            def charge_mpfr(name, prec):
                report.mpfr_calls += 1
                cycles = mpfr_cycles(name, prec)
                report.cycles += cycles
                by_cat["mpfr"] += cycles
                observe_bits("precision.mpfr.bits", prec)
        else:
            def charge_mpfr(name, prec):
                report.mpfr_calls += 1
                cycles = mpfr_cycles(name, prec)
                report.cycles += cycles
                by_cat["mpfr"] += cycles

        pool_hit_cycles = costs.mpfr_call_overhead + costs.mpfr_pool_hit_extra
        pool_release_cycles = (costs.mpfr_call_overhead
                               + costs.mpfr_pool_release_extra)
        library = self.mpfr
        memory = self.memory
        life = self._mpfr_life = MpfrLifeCosts(costs)

        def init_handle(addr, prec, exp_bits):
            var, reused = library.acquire(prec, exp_bits)
            memory.store(addr, var, 8)
            report.mpfr_calls += 1
            if reused:
                # Free-list hit: the handle and its limb block (still at
                # var.limb_addr) are recycled in place -- no allocator
                # round-trip, no new heap footprint.  This is the runtime
                # counterpart of the lowering pass's dead-object reuse.
                report.cycles += pool_hit_cycles
                by_cat["mpfr"] += pool_hit_cycles
                return
            cycles, _, nbytes, _ = life[prec]
            report.mpfr_allocations += 1
            report.heap_allocations += 1
            # The struct's limb array is heap memory: model its footprint
            # for the cache/bandwidth accounting.  No cell is ever
            # stored there, so clear frees it with free_footprint.
            var.limb_addr = memory.alloc_heap(nbytes)
            report.cycles += cycles
            by_cat["mpfr"] += cycles
            if registry is not None:
                registry.observe("precision.mpfr.bits", prec)

        def clear_handle(addr):
            var = self._mpfr_handle(addr)
            prec = var.prec
            if library.release(var):
                # Parked on the free list: the limb heap block stays
                # allocated for the next acquire of this precision.
                report.mpfr_calls += 1
                report.cycles += pool_release_cycles
                by_cat["mpfr"] += pool_release_cycles
                return
            memory.free_footprint(var.limb_addr)
            report.mpfr_calls += 1
            cycles = life[prec][1]
            report.cycles += cycles
            by_cat["mpfr"] += cycles
            if registry is not None:
                registry.observe("precision.mpfr.bits", prec)

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

            _plain_init, _plain_clear = init_handle, clear_handle

            def init_handle(addr, prec, exp_bits):
                _plain_init(addr, prec, exp_bits)
                _pool_sample()

            def clear_handle(addr):
                _plain_clear(addr)
                _pool_sample()

        def init2(args, inst, frame):
            exp_bits = int(args[2]) if len(args) > 2 and args[2] else None
            init_handle(int(args[0]), int(args[1]), exp_bits)
            return None

        def clear(args, inst, frame):
            clear_handle(args[0])
            return None

        b["mpfr_init2"] = init2
        b["mpfr_clear"] = clear

        def array_init(args, inst, frame):
            """Equivalent of the per-element mpfr_init2 loop the real
            backend emits for vpfloat arrays (cost charged per element)."""
            base, count, prec = int(args[0]), int(args[1]), int(args[2])
            exp_bits = int(args[3]) if len(args) > 3 and args[3] else None
            for addr in range(base, base + count * MPFR_STRUCT_BYTES,
                              MPFR_STRUCT_BYTES):
                init_handle(addr, prec, exp_bits)
            return None

        def array_clear(args, inst, frame):
            base, count = int(args[0]), int(args[1])
            load = memory.load
            for addr in range(base, base + count * MPFR_STRUCT_BYTES,
                              MPFR_STRUCT_BYTES):
                handle = load(addr, 8)
                if handle is not None and getattr(handle, "alive", False):
                    clear_handle(addr)
            return None

        b["__mpfr_array_init"] = array_init
        b["__mpfr_array_clear"] = array_clear

        cache_model = self.accounting.cache
        limb_bytes_cache: dict = {}

        if cache_model is not None:
            touch = cache_model.touch

            def touch_limbs(var, kind):
                prec = var.prec
                nbytes = limb_bytes_cache.get(prec)
                if nbytes is None:
                    nbytes = bigfloat.limb_bytes(prec)
                    limb_bytes_cache[prec] = nbytes
                report.cycles += touch(var.limb_addr, nbytes)
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
                cycles = mpfr_cycles(call_name, prec)
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
        b["mpfr_set_ui"] = mpfr_set_scalar("set_ui")
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
