"""Per-function Python-source codegen: the ``jit`` execution engine.

The legacy walker (:class:`repro.runtime.interpreter.Interpreter`) pays
an isinstance chain plus several frame-dict operations per executed IR
instruction.  This module removes both: :class:`FunctionEmitter`
translates one IR function into straight-line Python source with every
SSA value register-allocated to a Python local, constant-attribute vpfloat
precisions / rounding modes / guard bits baked into the emitted text,
every ``RNDN`` vpfloat and MPFR arithmetic op bound to the one
precision-specialized kernel family of :mod:`repro.codegen.kernels`
(whatever the precision, at bind time),
and each basic block's steps and static cycles charged at its entry
from the walker's cost table (:func:`block_charges`).

Observable semantics are bit-identical with the legacy walker for any
function the emitter accepts: the same cycles land in the same
categories, the same memory traffic reaches the cache model, runtime
builtins run through the interpreter's *installed* handlers (so MPFR
pool sampling, registry variants and error text are shared, not
re-implemented), and runtime errors keep their exact types and
messages, leaving the walker's report (:meth:`JitEngine.refund`).
Anything the emitter cannot prove static -- dynamic vpfloat
attributes, posit arithmetic, unknown builtins, dynamically-sized
element types, non-static GEPs -- raises :class:`_Unsupported` during
emission and that one *function* silently falls back to the legacy
walker; jit selection is per-function, never a hard error.

MPFR arithmetic and assignment calls (``mpfr_add``/``sub``/``mul``/
``div``, ``set``, ``set_d``/``set_si``) are one emitted line each: a
call of a flat fast-path helper (:func:`mpfr_fast_path`) with the op's
site cache (:class:`_MpfrSite`) bound in the prelude.
The site cache maps the destination handle's ``(prec, exp_bits)`` to the
op's value kernel, modeled cycles and limb-block size, resolved once per
key; the helper reads the handle cells directly and makes the call's
cache touches with an inline L1-hit path, in the walker's order.  The
object lifecycle calls (``mpfr_init2``, ``mpfr_clear`` and the array
init/clear entries) are one helper call each too, priced from the
interpreter's per-precision lifecycle table; a literal precision is
resolved in it when the function binds.

Generated source is self-contained: it defines ``_make(R)`` where ``R``
is a :class:`JitRuntime` bound to one (interpreter, function) pair, and
every constant, instruction handle, global address, builtin handler and
specialized kernel is re-resolved through ``R`` by stable IR
coordinates (block index, instruction index, operand index).  The
compiled code therefore holds no live object references: its marshalled
bytecode is persisted in the compile cache (``<key>.vpcgen`` sidecars,
see :meth:`repro.core.cache.CompileCache.put_codegen`) and re-bound in a
different process against the identical pickled program, without
emitting or compiling the source again; the block charges come from
``R.blocks()`` the same way.  Each source compiles under the filename
``<vpjit:{function}>``, so a traceback or a Python-level profile
through emitted code names its IR function.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from ..bigfloat import BigFloat, MpfrVar, RNDN, limb_bytes
from ..bigfloat.mpfr_api import nan_of
from ..ir import (
    AllocaInst,
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
    FNegInst,
    Function,
    GEPInst,
    GlobalVariable,
    ICmpInst,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    StructType,
    UndefValue,
    UnreachableInst,
    VPFloatType,
)
from ..observability import CAT_COMPILE, observe
from ..runtime.interpreter import (MPFR_STRUCT_BYTES,
                                   ExecutionLimitExceeded, VPRuntimeError,
                                   _as_bigfloat, _f32, _trunc_div,
                                   fcmp_value, fdiv, frem, static_cost,
                                   type_format)
from . import CODEGEN_VERSION
from .kernels import select_scalar_kernel

#: vpfloat binary opcodes with an inlinable specialized kernel.
_VP_OPS = {"fadd": "add", "fsub": "sub", "fmul": "mul", "fdiv": "div"}

_INT_SYMS = {"add": "+", "sub": "-", "mul": "*",
             "and": "&", "or": "|", "xor": "^"}
_FLOAT_SYMS = {"fadd": "+", "fsub": "-", "fmul": "*"}
_SIGNED_CMPS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=",
                "sgt": ">", "sge": ">="}
_UNSIGNED_CMPS = {"ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}

#: MPFR runtime builtins inlined at their call sites (name -> arity).
_MPFR_INLINE = {
    "mpfr_add": 3, "mpfr_sub": 3, "mpfr_mul": 3, "mpfr_div": 3,
    "mpfr_set": 2,
    "mpfr_set_d": 2, "mpfr_set_si": 2,
    "mpfr_init2": 3, "mpfr_clear": 1,
    "__mpfr_array_init": 4, "__mpfr_array_clear": 2,
}

#: The lifecycle helpers and the operand holding each one's precision.
_MPFR_LIFECYCLE = {"mpfr_init2": ("_mi", 1), "mpfr_clear": ("_mc", None),
                   "__mpfr_array_init": ("_mai", 2),
                   "__mpfr_array_clear": ("_mac", None)}


class _Unsupported(Exception):
    """The emitter cannot prove this function static; fall back."""


def _ends_segment(inst) -> bool:
    """True for a call of a defined function or of an OpenMP region
    builtin: its block's counters must stand at the call when it runs."""
    if not isinstance(inst, CallInst):
        return False
    callee = inst.callee
    if not isinstance(callee, Function):
        return str(callee) in ("__omp_parallel_begin", "__omp_parallel_end")
    return not callee.is_declaration or callee.name in (
        "__omp_parallel_begin", "__omp_parallel_end")


def _segments(instructions, costs) -> List[tuple]:
    """``(count, {category: static cycles})`` of each charge segment of
    ``instructions`` (phis skipped): up to each call that ends one."""
    segments = []
    count, charges = 0, {}
    for inst in instructions:
        cls = type(inst)
        if cls is PhiInst:
            continue
        count += 1
        for category, field, mult in static_cost(inst):
            charges[category] = (charges.get(category, 0)
                                 + getattr(costs, field) * mult)
        if cls is CallInst and _ends_segment(inst):
            segments.append((count, charges))
            count, charges = 0, {}
    segments.append((count, charges))
    return segments


def block_charges(interp, func: Function) -> list:
    """Per block of ``func``, a closure charging its entry, then one per
    further segment, in the emitted prelude's order.  An entry raises
    before counting anything if the block would pass the step limit; a
    segment's closure runs right after the call ending the one before.
    Traced and metered entries also count the block and observe its
    vpfloat ops, as the walker does."""
    report = interp.accounting.report
    by_category = report.by_category
    limit = interp.max_steps
    message = f"exceeded {limit} interpreted instructions"

    def charge(total, count, charges, bound=limit):
        cycles = sum(charges.values())
        charges = tuple(charges.items())

        def enter():
            steps = interp.steps
            if steps + total > bound:
                raise ExecutionLimitExceeded(message)
            interp.steps = steps + count
            report.instructions += count
            report.cycles += cycles
            for category, n in charges:
                by_category[category] += n
        return enter

    out = []
    for block in func.blocks:
        segments = _segments(block.instructions, interp.accounting.costs)
        enter = charge(sum(count for count, _ in segments), *segments[0])
        if interp.tracer is not None:
            enter = _counted(interp, block.name, enter)
        if interp.metrics is not None:
            enter = _observed(interp.metrics, block, enter)
        out.append(enter)
        # A callee may pass the step limit; the walker ends the block too.
        out.extend(charge(0, *segment, math.inf)
                   for segment in segments[1:])
    return out


def _counted(interp, name: str, enter):
    def counted():
        counts = interp._block_counts  # set by a traced call
        if counts is not None:
            counts[name] = counts.get(name, 0) + 1
        enter()
    return counted


def _observed(metrics, block, enter):
    ops = [(f"precision.op.{inst.opcode}.bits", fmt.prec,
            8 if fmt.format == "posit" else 0)
           for inst in block.instructions
           if type(inst) is BinaryInst and isinstance(inst.type, VPFloatType)
           for fmt in (type_format(inst.type),)]
    if not ops:
        return enter

    def observed():
        enter()
        for name, prec, guard in ops:
            metrics.observe(name, prec)
            metrics.observe("precision.guard_bits", guard)
            metrics.inc("precision.rounding." + RNDN.value)
    return observed


class _MpfrSite(dict):
    """``(prec, exp_bits) -> (kernel, cycles, limb_bytes)`` for one
    inlined MPFR op of one bound function.

    MPFR handle precisions are runtime values (they flow through
    ``mpfr_init2``), so the fast-path helpers key each call by its
    destination handle's precision and exponent-range clamp (the set
    ops, which do not clamp, by ``(prec, None)``); a hit is one C-level
    lookup.  A miss resolves, once per key, the op's value
    kernel (the precision-specialized RNDN kernel with the clamp folded
    in, or the ``set_d``/``set_si`` constructor; ``mpfr_set`` rounds
    inline and has none), its modeled cycle cost and the destination's
    limb-block size.  When the run is observing, the kernels are the
    counting wrappers.
    """

    _CONSTRUCTORS = {"set_d": BigFloat.from_float,
                     "set_si": BigFloat.from_int, "set": None}

    def __init__(self, op: str, interp):
        super().__init__()
        self.op = op
        self.interp = interp

    def __missing__(self, key):
        prec, exp_bits = key
        op = self.op
        interp = self.interp
        if op in self._CONSTRUCTORS:
            kernel = self._CONSTRUCTORS[op]
        else:
            kernel = select_scalar_kernel(op, prec, exp_bits,
                                          interp.kernel_stats)
        entry = self[key] = (
            kernel, interp._mpfr_cycles(f"mpfr_{op}", prec),
            limb_bytes(prec))
        return entry


class JitRuntime:
    """Make-time resolver for one (interpreter, function) pair.

    Emitted modules receive one instance as ``R`` and resolve every
    non-literal prelude binding through it by IR coordinates, so the
    same source text re-binds cleanly against any interpreter running
    the identical program.
    """

    __slots__ = ("interp", "func")

    # Shared runtime references the emitted prelude picks up; class
    # attributes so every generated module sees one set of objects.
    f32 = staticmethod(_f32)
    trunc_div = staticmethod(_trunc_div)
    as_bigfloat = staticmethod(_as_bigfloat)
    fcmp = staticmethod(fcmp_value)
    fdiv = staticmethod(fdiv)
    frem = staticmethod(frem)
    VPR = VPRuntimeError
    BigFloat = BigFloat
    RNDN = RNDN

    def __init__(self, interp, func: Function):
        self.interp = interp
        self.func = func

    def inst(self, bi: int, ii: int):
        """The live instruction object at (block, instruction) index."""
        return self.func.blocks[bi].instructions[ii]

    def const(self, bi: int, ii: int, oi: int):
        """Resolve operand ``oi`` of instruction (bi, ii) frame-free,
        with the legacy walker's operand semantics."""
        return self._resolve(self.inst(bi, ii).operands[oi])

    def default(self, bi: int, ii: int):
        """The (shared) zero value loads of this instruction produce."""
        return self.interp._default(self.inst(bi, ii).type, None)

    def function(self, name: str) -> Function:
        return self.interp.module.get_function(name)

    def builtin(self, name: str):
        handler = self.interp._builtins.get(name)
        if handler is None:
            raise KeyError(f"no runtime builtin {name!r}")
        return handler

    def kernel(self, opcode: str, prec: int, exp_bits=None):
        return select_scalar_kernel(
            _VP_OPS[opcode], prec, exp_bits,
            getattr(self.interp, "kernel_stats", None))

    def mpfr_kernels(self, op: str):
        """The site cache of one inlined MPFR op (see _MpfrSite)."""
        return _MpfrSite(op, self.interp)

    def mpfr_helpers(self, *precs: int):
        """The MPFR fast-path helpers the emitted calls go through;
        ``precs`` are the function's literal lifecycle precisions."""
        return mpfr_fast_path(self.interp, precs)

    def blocks(self):
        """The block and segment charges (:func:`block_charges`)."""
        return block_charges(self.interp, self.func)

    def _resolve(self, v):
        interp = self.interp
        if isinstance(v, ConstantInt):
            return v.value
        if isinstance(v, ConstantFloat):
            value = v.value
            return JitRuntime.f32(value) if v.type.bits == 32 else value
        if isinstance(v, ConstantPointerNull):
            return 0
        if isinstance(v, ConstantString):
            return v.text
        if isinstance(v, UndefValue):
            return interp._default(v.type, None)
        if isinstance(v, Constant):
            return interp._constant(v, None)
        if isinstance(v, GlobalVariable):
            return interp.globals[v.name]
        if isinstance(v, Function):
            return v
        raise TypeError(f"cannot resolve {type(v).__name__} at bind time")


def mpfr_fast_path(interp, precs):
    """The inlined MPFR builtins, bound to one interpreter.

    Returns ``(op3, set_, set_scalar, init2, clear, array_init,
    array_clear)``: add/sub/mul/div, ``mpfr_set``,
    ``mpfr_set_d``/``mpfr_set_si``, then the object lifecycle:
    ``mpfr_init2``, ``mpfr_clear``, ``__mpfr_array_init`` and
    ``__mpfr_array_clear``.  The arithmetic and set helpers take the
    installed handler and the call's instruction handle;
    ``op3``/``set_scalar`` then take the op's site cache
    (:class:`_MpfrSite`, bound in the emitted prelude) and its builtin
    name; then come the call's operands.  The lifecycle helpers take
    the call's operands only.  Their costs come from the interpreter's
    lifecycle table (``interp._mpfr_life``, an
    :class:`~repro.runtime.interpreter.MpfrLifeCosts` the installed
    handlers read too); ``precs``, the bound function's literal
    lifecycle precisions, are resolved in it here, at bind time.

    Each helper is one flat function that does what the installed
    handler does (interpreter._install_mpfr_builtins), in the same
    order, with the call layers removed:

    - read the handle cells straight from ``memory.cells``, without
      side effects;
    - count the handle bytes in ``memory.bytes_read`` and make the
      handle touches, committing their cycles before the kernel runs,
      so a raising kernel leaves the walker's report;
    - run the kernel from the site cache, bump the MPFR stats;
    - touch the limb blocks (reads, then the destination) and charge
      the site's cycles to ``mpfr``.

    The lifecycle helpers follow the installed handlers and
    ``MpfrLibrary.acquire``/``release`` the same way: ``init2`` writes
    the handle cell and makes its touch, then takes the pool's hit
    branch (the parked handle and its limb block, recycled) or its miss
    branch (a fresh handle and its limb block, bump allocated inline
    as :meth:`Memory.alloc_heap` would); ``clear`` loads the handle and
    parks it, or frees its limb block, which never holds a cell, with
    :meth:`Memory.free_footprint`.  The array helpers run them once per
    element; ``array_clear`` loads each element once to test it is live
    and again in ``clear``, as the walker does.

    A cache touch that stays in one L1-resident line is inlined: a line
    computation, one membership test, ``move_to_end``, with the hit
    counters and cycles added once per group; any other touch goes
    through :meth:`CacheModel.touch`.  A null, missing or cleared
    handle (or a cell that holds no handle), a null ``init2`` or array
    address and a precision below 2 call the installed handler with
    nothing done yet, so the error type and message, and what the call
    left in the report, stats and cache, are the walker's.  With a
    tracer installed the lifecycle helpers are the installed handlers,
    which sample the pool counters.
    """
    memory = interp.memory
    cells = memory.cells
    report = interp.accounting.report
    by_category = report.by_category
    stats = interp.mpfr.stats
    by_name = stats.by_name
    metrics = interp.metrics
    cache = interp.accounting.cache
    if cache is not None:
        touch = cache.touch
        l1 = cache.l1
        mte = l1.move_to_end
        hits = cache.hits
        line = cache.levels[0].line_bytes
        last8 = line - 8  # the last offset an 8-byte handle fits at
        hit_cycles = cache.levels[0].hit_cycles
    else:
        l1 = None
    set_site = _MpfrSite("set", interp)

    def op3(handler, inst, site, name, d, a, b):
        x = cells.get(d)
        y = cells.get(a)
        z = cells.get(b)
        try:
            x = x[0]
            y = y[0]
            z = z[0]
            live = x.alive and y.alive and z.alive
        except (TypeError, AttributeError):
            live = False
        if not live:
            return handler([d, a, b], inst, None)
        memory.bytes_read += 24
        if l1 is not None:
            n = charged = 0
            ln = d // line
            if ln in l1 and d % line <= last8:
                mte(ln)
                n = 1
            else:
                charged = touch(d, 8)
            ln = a // line
            if ln in l1 and a % line <= last8:
                mte(ln)
                n += 1
            else:
                charged += touch(a, 8)
            ln = b // line
            if ln in l1 and b % line <= last8:
                mte(ln)
                n += 1
            else:
                charged += touch(b, 8)
            if n:
                hits[0] += n
                n *= hit_cycles
                cache.access_cycles += n
            report.cycles += charged + n
        prec = x.prec
        kernel, cycles, nbytes = site[prec, x.exp_bits]
        x.value = kernel(y.value, z.value)
        stats.ops += 1
        by_name[name] = by_name.get(name, 0) + 1
        charged = cycles
        if l1 is not None:
            n = 0
            addr = y.limb_addr
            size = nbytes if y.prec == prec else limb_bytes(y.prec)
            ln = addr // line
            if ln in l1 and addr % line + size <= line:
                mte(ln)
                n = 1
            else:
                charged += touch(addr, size)
            addr = z.limb_addr
            size = nbytes if z.prec == prec else limb_bytes(z.prec)
            ln = addr // line
            if ln in l1 and addr % line + size <= line:
                mte(ln)
                n += 1
            else:
                charged += touch(addr, size)
            addr = x.limb_addr
            ln = addr // line
            if ln in l1 and addr % line + nbytes <= line:
                mte(ln)
                n += 1
            else:
                charged += touch(addr, nbytes)
            if n:
                hits[0] += n
                n *= hit_cycles
                cache.access_cycles += n
                charged += n
        report.mpfr_calls += 1
        report.cycles += charged
        by_category["mpfr"] += cycles
        if metrics is not None:
            metrics.observe("precision.mpfr.bits", prec)
        return None

    def set_(handler, inst, d, s):
        x = cells.get(d)
        y = cells.get(s)
        try:
            x = x[0]
            y = y[0]
            live = x.alive and y.alive
        except (TypeError, AttributeError):
            live = False
        if not live:
            return handler([d, s], inst, None)
        memory.bytes_read += 16
        if l1 is not None:
            n = charged = 0
            for addr in (d, s):
                ln = addr // line
                if ln in l1 and addr % line <= last8:
                    mte(ln)
                    n += 1
                else:
                    charged += touch(addr, 8)
            if n:
                hits[0] += n
                n *= hit_cycles
                cache.access_cycles += n
            report.cycles += charged + n
        prec = x.prec
        _, cycles, nbytes = set_site[prec, None]
        x.value = y.value.round_to(prec)
        stats.sets += 1
        by_name["mpfr_set"] = by_name.get("mpfr_set", 0) + 1
        charged = cycles
        if l1 is not None:
            n = 0
            for v in (y, x):
                addr = v.limb_addr
                size = nbytes if v.prec == prec else limb_bytes(v.prec)
                ln = addr // line
                if ln in l1 and addr % line + size <= line:
                    mte(ln)
                    n += 1
                else:
                    charged += touch(addr, size)
            if n:
                hits[0] += n
                n *= hit_cycles
                cache.access_cycles += n
                charged += n
        report.mpfr_calls += 1
        report.cycles += charged
        by_category["mpfr"] += cycles
        if metrics is not None:
            metrics.observe("precision.mpfr.bits", prec)
        return None

    def set_scalar(handler, inst, site, name, d, v):
        x = cells.get(d)
        try:
            x = x[0]
            live = x.alive
        except (TypeError, AttributeError):
            live = False
        if not live:
            return handler([d, v], inst, None)
        memory.bytes_read += 8
        if l1 is not None:
            ln = d // line
            if ln in l1 and d % line <= last8:
                mte(ln)
                hits[0] += 1
                cache.access_cycles += hit_cycles
                report.cycles += hit_cycles
            else:
                report.cycles += touch(d, 8)
        prec = x.prec
        ctor, cycles, nbytes = site[prec, None]
        x.value = ctor(v, prec)
        stats.sets += 1
        by_name[name] = by_name.get(name, 0) + 1
        charged = cycles
        if l1 is not None:
            addr = x.limb_addr
            ln = addr // line
            if ln in l1 and addr % line + nbytes <= line:
                mte(ln)
                hits[0] += 1
                cache.access_cycles += hit_cycles
                charged += hit_cycles
            else:
                charged += touch(addr, nbytes)
        report.mpfr_calls += 1
        report.cycles += charged
        by_category["mpfr"] += cycles
        if metrics is not None:
            metrics.observe("precision.mpfr.bits", prec)
        return None

    builtins = interp._builtins
    init2_handler = builtins["mpfr_init2"]
    clear_handler = builtins["mpfr_clear"]
    array_init_handler = builtins["__mpfr_array_init"]
    array_clear_handler = builtins["__mpfr_array_clear"]
    life = interp._mpfr_life
    for prec in precs:
        life[prec]  # literal precisions resolve at bind time

    if interp.tracer is not None:
        # The installed handlers sample the pool counters every 256
        # acquire/release operations; a traced run goes through them.
        def init2(d, prec, exp):
            return init2_handler([d, prec, exp], None, None)

        def clear(d):
            return clear_handler([d], None, None)

        def array_init(base, count, prec, exp):
            return array_init_handler([base, count, prec, exp], None, None)

        def array_clear(base, count):
            return array_clear_handler([base, count], None, None)

        return (op3, set_, set_scalar,
                init2, clear, array_init, array_clear)

    library = interp.mpfr
    pool = library._pool
    heap_blocks = memory.heap_blocks
    free_footprint = memory.free_footprint
    costs = interp.accounting.costs
    pool_hit_cycles = costs.mpfr_call_overhead + costs.mpfr_pool_hit_extra
    pool_release_cycles = (costs.mpfr_call_overhead
                           + costs.mpfr_pool_release_extra)

    def init2(d, prec, exp):
        if not d or prec < 2:
            return init2_handler([d, prec, exp], None, None)
        exp_bits = exp or None
        by_name["mpfr_init2"] = by_name.get("mpfr_init2", 0) + 1
        pool_on = library.pool_enabled
        bucket = pool.get(prec) if pool_on else None
        reused = bool(bucket)
        if reused:
            var = bucket.pop()
            var.alive = True
            var.exp_bits = exp_bits
            var.value = nan_of(prec)
            stats.pool_hits += 1
        else:
            if pool_on:
                stats.pool_misses += 1
            var = MpfrVar(prec, exp_bits)
            cycles, _, nbytes, step = life[prec]
            stats.inits += 1
            stats.limb_bytes_allocated += nbytes
        live = library.live_objects = library.live_objects + 1
        if live > library.peak_live_objects:
            library.peak_live_objects = live
        cells[d] = (var, 8)
        memory.bytes_written += 8
        if l1 is not None:
            ln = d // line
            if ln in l1 and d % line <= last8:
                mte(ln)
                hits[0] += 1
                cache.access_cycles += hit_cycles
                report.cycles += hit_cycles
            else:
                report.cycles += touch(d, 8)
        report.mpfr_calls += 1
        if reused:
            report.cycles += pool_hit_cycles
            by_category["mpfr"] += pool_hit_cycles
            return None
        report.mpfr_allocations += 1
        report.heap_allocations += 1
        # alloc_heap, inlined: the limb block's bump address.
        addr = var.limb_addr = memory.heap_pointer
        memory.heap_pointer = addr + step
        heap_blocks[addr] = nbytes
        report.cycles += cycles
        by_category["mpfr"] += cycles
        if metrics is not None:
            metrics.observe("precision.mpfr.bits", prec)
        return None

    def clear(d):
        x = cells.get(d)
        try:
            x = x[0]
            live = x.alive
        except (TypeError, AttributeError):
            live = False
        if not live:
            return clear_handler([d], None, None)
        memory.bytes_read += 8
        if l1 is not None:
            ln = d // line
            if ln in l1 and d % line <= last8:
                mte(ln)
                hits[0] += 1
                cache.access_cycles += hit_cycles
                report.cycles += hit_cycles
            else:
                report.cycles += touch(d, 8)
        x.alive = False
        by_name["mpfr_clear"] = by_name.get("mpfr_clear", 0) + 1
        library.live_objects -= 1
        prec = x.prec
        if library.pool_enabled:
            bucket = pool.get(prec)
            if bucket is None:
                bucket = pool[prec] = []
            if len(bucket) < library.pool_limit:
                bucket.append(x)
                stats.pool_releases += 1
                report.mpfr_calls += 1
                report.cycles += pool_release_cycles
                by_category["mpfr"] += pool_release_cycles
                return None
        stats.clears += 1
        free_footprint(x.limb_addr)
        report.mpfr_calls += 1
        cycles = life[prec][1]
        report.cycles += cycles
        by_category["mpfr"] += cycles
        if metrics is not None:
            metrics.observe("precision.mpfr.bits", prec)
        return None

    def array_init(base, count, prec, exp):
        for d in range(base, base + count * MPFR_STRUCT_BYTES,
                       MPFR_STRUCT_BYTES):
            init2(d, prec, exp)
        return None

    def array_clear(base, count):
        if not base:
            return array_clear_handler([base, count], None, None)
        for d in range(base, base + count * MPFR_STRUCT_BYTES,
                       MPFR_STRUCT_BYTES):
            # The walker loads each handle twice: here to test it is
            # live, then in mpfr_clear.
            memory.bytes_read += 8
            if l1 is not None:
                ln = d // line
                if ln in l1 and d % line <= last8:
                    mte(ln)
                    hits[0] += 1
                    cache.access_cycles += hit_cycles
                    report.cycles += hit_cycles
                else:
                    report.cycles += touch(d, 8)
            x = cells.get(d)
            if x is not None and getattr(x[0], "alive", False):
                clear(d)
        return None

    return op3, set_, set_scalar, init2, clear, array_init, array_clear


# ----------------------------------------------------------------- #
# Emitter
# ----------------------------------------------------------------- #

_PRELUDE = """\
_interp = R.interp
_acct = _interp.accounting
_rep = _acct.report
_chg = _rep.charge
_c_call = _acct.costs.call_overhead
_c_ret = _acct.costs.ret
_mem = _interp.memory
_ml = _mem.load
_ms = _mem.store
_alloc = _mem.alloc_stack
_smark = _mem.stack_mark
_srel = _mem.stack_release
_VPR = R.VPR
_BF = R.BigFloat
_AB = R.as_bigfloat
_f32 = R.f32
_fcmpv = R.fcmp
_cast = _interp._cast_value
_call = _interp.call_function
_tdiv = R.trunc_div
_fdiv = R.fdiv
_frem = R.frem
"""


class FunctionEmitter:
    """Emits one function's jit module source, or raises _Unsupported."""

    def __init__(self, interp, func: Function):
        self.interp = interp
        self.func = func
        self.names: Dict[int, str] = {}
        self.pool: Dict[int, str] = {}
        self.prelude: List[str] = []
        self._inst_refs: Dict[int, str] = {}
        self._fn_refs: Dict[str, str] = {}
        self._builtin_refs: Dict[str, str] = {}
        self._kernel_refs: Dict[Tuple[str, int, Optional[int]], str] = {}
        self._mpfr_map_refs: Dict[str, str] = {}
        #: Prelude index of the MPFR helpers binding, once one is used.
        self._mpfr_helpers_at: Optional[int] = None
        self._mpfr_precs: set = set()
        self._default_refs: Dict[int, str] = {}
        #: The block and segment charges, in block_charges' order.
        self._charge_names: List[str] = []
        #: First source line of each run of lines -> the (block,
        #: instruction) index it runs, or None.
        self.owners: Dict[int, Optional[Tuple[int, int]]] = {0: None}

    # ---- static analysis helpers --------------------------------- #

    def _static_sizeof(self, type_) -> Optional[int]:
        try:
            return self.interp._sizeof(type_, None)
        except Exception:
            return None

    def _vp_static_ok(self, type_) -> bool:
        """True if no dynamic vpfloat attribute can be reached when the
        runtime resolves this type without a frame."""
        if isinstance(type_, VPFloatType):
            attrs = [a for a in (type_.exp_attr, type_.prec_attr,
                                 getattr(type_, "size_attr", None))
                     if a is not None]
            if not all(isinstance(a, ConstantInt) for a in attrs):
                return False
            try:
                type_format(type_)
            except Exception:
                # Statically invalid attrs: fall back so the legacy
                # walker surfaces the validation error at execution.
                return False
            return True
        if isinstance(type_, ArrayType):
            return self._vp_static_ok(type_.element)
        if isinstance(type_, StructType):
            return all(self._vp_static_ok(f) for f in type_.fields)
        return True

    # ---- operand references -------------------------------------- #

    def ref(self, v, bi: int, ii: int, oi: int) -> str:
        name = self.names.get(id(v))
        if name is not None:
            return name
        if isinstance(v, ConstantInt):
            return repr(v.value)
        if isinstance(v, ConstantPointerNull):
            return "0"
        if isinstance(v, ConstantFloat):
            value = JitRuntime.f32(v.value) if v.type.bits == 32 \
                else v.value
            if math.isfinite(value):
                return repr(value)
            return self._pool(v, bi, ii, oi)
        if isinstance(v, ConstantVPFloat):
            if not self._vp_static_ok(v.type):
                raise _Unsupported("dynamic vpfloat constant")
            return self._pool(v, bi, ii, oi)
        if isinstance(v, UndefValue):
            try:
                self.interp._default(v.type, None)
            except Exception:
                raise _Unsupported("dynamic undef type") from None
            return self._pool(v, bi, ii, oi)
        if isinstance(v, (Constant, GlobalVariable, Function)):
            return self._pool(v, bi, ii, oi)
        raise _Unsupported(f"unsupported operand {type(v).__name__}")

    def _pool(self, v, bi: int, ii: int, oi: int) -> str:
        name = self.pool.get(id(v))
        if name is None:
            name = f"k{len(self.pool)}"
            self.pool[id(v)] = name
            self.prelude.append(f"{name} = R.const({bi}, {ii}, {oi})")
        return name

    def _inst_ref(self, inst, bi: int, ii: int) -> str:
        name = self._inst_refs.get(id(inst))
        if name is None:
            name = f"_i{len(self._inst_refs)}"
            self._inst_refs[id(inst)] = name
            self.prelude.append(f"{name} = R.inst({bi}, {ii})")
        return name

    def _fn_ref(self, func: Function) -> str:
        name = self._fn_refs.get(func.name)
        if name is None:
            name = f"_f{len(self._fn_refs)}"
            self._fn_refs[func.name] = name
            self.prelude.append(f"{name} = R.function({func.name!r})")
        return name

    def _builtin_ref(self, bname: str) -> str:
        name = self._builtin_refs.get(bname)
        if name is None:
            name = f"_h{len(self._builtin_refs)}"
            self._builtin_refs[bname] = name
            self.prelude.append(f"{name} = R.builtin({bname!r})")
        return name

    def _kernel_ref(self, opcode: str, prec: int,
                    exp_bits: Optional[int] = None) -> str:
        key = (opcode, prec, exp_bits)
        name = self._kernel_refs.get(key)
        if name is None:
            name = f"_k{len(self._kernel_refs)}"
            self._kernel_refs[key] = name
            self.prelude.append(
                f"{name} = R.kernel({opcode!r}, {prec}, {exp_bits})")
        return name

    def _mpfr_map_ref(self, op: str) -> str:
        name = self._mpfr_map_refs.get(op)
        if name is None:
            name = f"_mk{len(self._mpfr_map_refs)}"
            self._mpfr_map_refs[op] = name
            self.prelude.append(f"{name} = R.mpfr_kernels({op!r})")
        return name

    def _default_ref(self, inst, bi: int, ii: int) -> str:
        name = self._default_refs.get(id(inst))
        if name is None:
            name = f"_d{len(self._default_refs)}"
            self._default_refs[id(inst)] = name
            self.prelude.append(f"{name} = R.default({bi}, {ii})")
        return name

    # ---- entry point --------------------------------------------- #

    def emit(self) -> str:
        func = self.func
        blocks = list(func.blocks)
        if not blocks:
            raise _Unsupported("function has no blocks")
        self.block_index = {id(b): i for i, b in enumerate(blocks)}
        entry_index = self.block_index.get(id(func.entry))
        if entry_index is None:
            raise _Unsupported("entry block not in block list")
        for i, arg in enumerate(func.args):
            self.names[id(arg)] = f"a{i}"
        n = 0
        for block in blocks:
            for inst in block.instructions:
                self.names[id(inst)] = f"v{n}"
                n += 1

        block_chunks = [self._emit_block(block, bi, blocks)
                        for bi, block in enumerate(blocks)]
        if self._mpfr_helpers_at is not None:
            precs = ", ".join(map(str, sorted(self._mpfr_precs)))
            self.prelude[self._mpfr_helpers_at] = (
                "_mop3, _mset, _msetv, _mi, _mc, _mai, _mac = "
                f"R.mpfr_helpers({precs})")
        params = ", ".join(f"a{i}" for i in range(len(func.args)))
        out: List[str] = [
            f"# vpjit v{CODEGEN_VERSION}: function {func.name!r}, generated"
            " by repro.codegen.pyjit; do not edit.",
            "def _make(R):",
        ]
        for line in _PRELUDE.splitlines():
            out.append("    " + line)
        for line in self.prelude:
            out.append("    " + line)
        out.append(f"    {', '.join(self._charge_names)}, = R.blocks()")
        out.append("")
        out.append(f"    def _fn({params}):")
        out.append('        _chg("call", _c_call)')
        out.append("        _mark = _smark()")
        out.append(f"        _bb = {entry_index}")
        out.append("        while True:")
        for bi, lines in enumerate(block_chunks):
            kw = "if" if bi == 0 else "elif"
            out.append(f"            {kw} _bb == {bi}:")
            for ii, chunk in lines:
                self.owners[len(out) + 1] = None if ii is None else (bi, ii)
                out.extend("                " + line for line in chunk)
        out.append("            else:")
        out.append('                raise _VPR("vpjit: unknown block id")')
        out.append("")
        out.append("    return _fn")
        out.append("")
        return "\n".join(out)

    # ---- blocks -------------------------------------------------- #

    def _emit_block(self, block, bi: int, blocks
                    ) -> List[Tuple[Optional[int], List[str]]]:
        """The block's lines in runs, each with the index of the
        instruction it runs (None for the entry charge)."""
        self._charge_names.append(f"_e{bi}")
        lines = [(None, [f"_e{bi}()"])]
        term = None
        segments = 0
        for ii, inst in enumerate(block.instructions):
            if isinstance(inst, PhiInst):
                continue
            if isinstance(inst, (BranchInst, RetInst, UnreachableInst)):
                term = (inst, ii)
                continue
            out: List[str] = []
            self._emit_step(inst, bi, ii, out)
            if _ends_segment(inst):
                segments += 1
                out.append(f"_e{bi}s{segments}()")
                self._charge_names.append(f"_e{bi}s{segments}")
            lines.append((ii, out))
        lines.append((None if term is None else term[1],
                      self._emit_terminator(block, term, bi, blocks)))
        return lines

    def _phi_moves(self, cur_block, target) -> List[str]:
        tbi = self.block_index[id(target)]
        lhs: List[str] = []
        rhs: List[str] = []
        for tii, phi in enumerate(target.instructions):
            if not isinstance(phi, PhiInst):
                continue
            for j, pred in enumerate(phi.incoming_blocks):
                if pred is cur_block:
                    lhs.append(self.names[id(phi)])
                    rhs.append(self.ref(phi.operands[j], tbi, tii, j))
        if not lhs:
            return []
        return [f"{', '.join(lhs)} = {', '.join(rhs)}"]

    def _emit_terminator(self, block, term, bi: int, blocks) -> List[str]:
        if term is None:
            msg = f"block {block.name} fell off the end"
            return [f"raise _VPR({msg!r})"]
        inst, ii = term
        if isinstance(inst, RetInst):
            value = "None" if inst.value is None \
                else self.ref(inst.value, bi, ii, 0)
            return ["_srel(_mark)", '_chg("ret", _c_ret)',
                    f"return {value}"]
        if isinstance(inst, BranchInst):
            if inst.is_conditional:
                cond = self.ref(inst.condition, bi, ii, 0)
                then_i = self.block_index[id(inst.targets[0])]
                else_i = self.block_index[id(inst.targets[1])]
                lines = [f"if {cond}:"]
                for move in self._phi_moves(block, inst.targets[0]):
                    lines.append("    " + move)
                lines.append(f"    _bb = {then_i}")
                lines.append("else:")
                for move in self._phi_moves(block, inst.targets[1]):
                    lines.append("    " + move)
                lines.append(f"    _bb = {else_i}")
                lines.append("continue")
                return lines
            target_i = self.block_index[id(inst.targets[0])]
            lines = self._phi_moves(block, inst.targets[0])
            lines.append(f"_bb = {target_i}")
            lines.append("continue")
            return lines
        # UnreachableInst
        return ['raise _VPR("executed unreachable instruction")']

    # ---- steps --------------------------------------------------- #

    def _emit_step(self, inst, bi: int, ii: int, out: List[str]) -> None:
        if isinstance(inst, BinaryInst):
            self._emit_binary(inst, bi, ii, out)
        elif isinstance(inst, CallInst):
            self._emit_call(inst, bi, ii, out)
        elif isinstance(inst, LoadInst):
            self._emit_load(inst, bi, ii, out)
        elif isinstance(inst, StoreInst):
            self._emit_store(inst, bi, ii, out)
        elif isinstance(inst, GEPInst):
            self._emit_gep(inst, bi, ii, out)
        elif isinstance(inst, ICmpInst):
            self._emit_icmp(inst, bi, ii, out)
        elif isinstance(inst, FCmpInst):
            self._emit_fcmp(inst, bi, ii, out)
        elif isinstance(inst, CastInst):
            self._emit_cast(inst, bi, ii, out)
        elif isinstance(inst, AllocaInst):
            self._emit_alloca(inst, bi, ii, out)
        elif isinstance(inst, FNegInst):
            self._emit_fneg(inst, bi, ii, out)
        elif isinstance(inst, SelectInst):
            self._emit_select(inst, bi, ii, out)
        else:
            raise _Unsupported(f"unsupported instruction {inst.opcode}")

    def _emit_binary(self, inst: BinaryInst, bi, ii, out) -> None:
        a = self.ref(inst.lhs, bi, ii, 0)
        b = self.ref(inst.rhs, bi, ii, 1)
        if inst.type.is_vpfloat:
            self._emit_vp_binary(inst, a, b, out)
        elif inst.type.is_float:
            self._emit_float_binary(inst, a, b, out)
        else:
            self._emit_int_binary(inst, a, b, out)

    def _emit_vp_binary(self, inst: BinaryInst, a, b, out) -> None:
        name = self.names[id(inst)]
        op = inst.opcode
        vptype = inst.type
        if vptype.format == "posit":
            raise _Unsupported("posit vp arithmetic")
        if not self._vp_static_ok(vptype):
            raise _Unsupported("dynamic vpfloat attributes")
        if op not in _VP_OPS:
            msg = f"{op} unsupported on vpfloat"
            out.append(f"raise _VPR({msg!r})")
            return
        prec = type_format(vptype).prec
        if vptype.format == "mpfr":
            # The destination format's exponent-range clamp is folded
            # into the kernel; no per-op clamp block.
            kernel = self._kernel_ref(op, prec, vptype.exp_attr.value)
        else:  # unum: exact intermediate, no per-op re-encoding
            kernel = self._kernel_ref(op, prec)
        out.append(f"{name} = {kernel}(_AB({a}, {prec}), "
                   f"_AB({b}, {prec}))")

    def _emit_float_binary(self, inst: BinaryInst, a, b, out) -> None:
        name = self.names[id(inst)]
        op = inst.opcode
        narrow = inst.type.bits == 32
        if op in _FLOAT_SYMS:
            expr = f"{a} {_FLOAT_SYMS[op]} {b}"
        elif op == "frem":
            expr = f"_frem({a}, {b})"
        elif op == "fdiv":  # the runtime's fdiv defines division by zero
            out.append(f"_x = {a}")
            out.append(f"_y = {b}")
            expr = "_x / _y if _y != 0.0 else _fdiv(_x, _y)"
        else:
            raise _Unsupported(f"float op {op}")
        out.append(f"{name} = _f32({expr})" if narrow
                   else f"{name} = {expr}")

    def _emit_int_binary(self, inst: BinaryInst, a, b, out) -> None:
        name = self.names[id(inst)]
        op = inst.opcode
        bits = inst.type.bits
        umask = (1 << bits) - 1
        shmask = bits - 1

        def adjust():
            if bits > 1:
                out.append(f"if {name} >= {1 << (bits - 1)}:")
                out.append(f"    {name} -= {1 << bits}")

        if op in _INT_SYMS:
            out.append(f"{name} = ({a} {_INT_SYMS[op]} {b}) & {umask}")
            adjust()
        elif op in ("sdiv", "srem"):
            msg = ("integer division by zero" if op == "sdiv"
                   else "integer remainder by zero")
            out.append(f"_x = {a}")
            out.append(f"_y = {b}")
            out.append("if _y == 0:")
            out.append(f"    raise _VPR({msg!r})")
            if op == "sdiv":
                out.append(f"{name} = _tdiv(_x, _y) & {umask}")
            else:
                out.append(f"{name} = (_x - _tdiv(_x, _y) * _y) & {umask}")
            adjust()
        elif op in ("udiv", "urem"):
            msg = ("integer division by zero" if op == "udiv"
                   else "integer remainder by zero")
            out.append(f"_x = {a} & {umask}")
            out.append(f"_y = {b} & {umask}")
            out.append("if _y == 0:")
            out.append(f"    raise _VPR({msg!r})")
            out.append(f"{name} = _x {'%' if op == 'urem' else '//'} _y")
            adjust()
        elif op == "shl":
            out.append(f"{name} = ({a} << ({b} & {shmask})) & {umask}")
            adjust()
        elif op == "ashr":
            out.append(f"{name} = ({a} >> ({b} & {shmask})) & {umask}")
            adjust()
        elif op == "lshr":
            out.append(f"{name} = ({a} & {umask}) >> ({b} & {shmask})")
            adjust()
        else:
            raise _Unsupported(f"integer op {op}")

    def _emit_load(self, inst: LoadInst, bi, ii, out) -> None:
        nbytes = self._static_sizeof(inst.type)
        if nbytes is None:
            raise _Unsupported("dynamic load size")
        try:
            self.interp._default(inst.type, None)
        except Exception:
            raise _Unsupported("dynamic load default") from None
        default = self._default_ref(inst, bi, ii)
        pointer = self.ref(inst.pointer, bi, ii, 0)
        name = self.names[id(inst)]
        out.append(f"{name} = _ml(int({pointer}), {nbytes}, {default})")

    def _emit_store(self, inst: StoreInst, bi, ii, out) -> None:
        nbytes = self._static_sizeof(inst.value.type)
        if nbytes is None:
            raise _Unsupported("dynamic store size")
        value = self.ref(inst.value, bi, ii, 0)
        pointer = self.ref(inst.pointer, bi, ii, 1)
        out.append(f"_ms(int({pointer}), {value}, {nbytes})")

    def _emit_alloca(self, inst: AllocaInst, bi, ii, out) -> None:
        elem = self._static_sizeof(inst.allocated_type)
        if elem is None:
            raise _Unsupported("dynamic alloca element size")
        name = self.names[id(inst)]
        if inst.count is None:
            out.append(f"{name} = _alloc({elem})")
            return
        count = self.ref(inst.count, bi, ii, 0)
        out.append(f"_x = int({count})")
        out.append("if _x < 0:")
        out.append('    raise _VPR("negative VLA extent")')
        out.append(f"{name} = _alloc({elem} * (_x if _x > 1 else 1))")

    def _emit_gep(self, inst: GEPInst, bi, ii, out) -> None:
        pointee = inst.pointer.type.pointee
        stride0 = self._static_sizeof(pointee)
        if stride0 is None:
            raise _Unsupported("dynamic gep pointee")
        const_offset = 0
        terms: List[Tuple[str, int]] = []
        indices = inst.indices
        if isinstance(indices[0], ConstantInt):
            const_offset += indices[0].value * stride0
        else:
            terms.append((self.ref(indices[0], bi, ii, 1), stride0))
        current = pointee
        for m, index in enumerate(indices[1:], start=1):
            if isinstance(current, ArrayType):
                stride = self._static_sizeof(current.element)
                if stride is None:
                    raise _Unsupported("dynamic gep stride")
                if isinstance(index, ConstantInt):
                    const_offset += index.value * stride
                else:
                    terms.append((self.ref(index, bi, ii, 1 + m), stride))
                current = current.element
            elif isinstance(current, StructType):
                if not isinstance(index, ConstantInt):
                    raise _Unsupported("dynamic struct gep index")
                try:
                    const_offset += current.field_offset(index.value)
                except Exception:
                    raise _Unsupported("bad struct gep index") from None
                current = current.fields[index.value]
            else:
                raise _Unsupported("gep into scalar")
        pointer = self.ref(inst.pointer, bi, ii, 0)
        parts = [f"int({pointer})"]
        if const_offset:
            parts.append(repr(const_offset))
        for expr, stride in terms:
            parts.append(f"int({expr})" if stride == 1
                         else f"int({expr}) * {stride}")
        name = self.names[id(inst)]
        out.append(f"{name} = " + " + ".join(parts))

    def _emit_icmp(self, inst: ICmpInst, bi, ii, out) -> None:
        a = self.ref(inst.operands[0], bi, ii, 0)
        b = self.ref(inst.operands[1], bi, ii, 1)
        pred = inst.predicate
        if pred in _SIGNED_CMPS:
            expr = f"{a} {_SIGNED_CMPS[pred]} {b}"
        elif pred in _UNSIGNED_CMPS:
            bits = (inst.operands[0].type.bits
                    if inst.operands[0].type.is_integer else 64)
            umask = (1 << bits) - 1
            expr = (f"({a} & {umask}) {_UNSIGNED_CMPS[pred]} "
                    f"({b} & {umask})")
        else:
            raise _Unsupported(f"icmp predicate {pred}")
        name = self.names[id(inst)]
        out.append(f"{name} = 1 if {expr} else 0")

    def _emit_fcmp(self, inst: FCmpInst, bi, ii, out) -> None:
        a = self.ref(inst.operands[0], bi, ii, 0)
        b = self.ref(inst.operands[1], bi, ii, 1)
        name = self.names[id(inst)]
        out.append(f"{name} = _fcmpv({a}, {b}, {inst.predicate!r})")

    def _emit_cast(self, inst: CastInst, bi, ii, out) -> None:
        for type_ in (inst.type, inst.source.type):
            if not self._vp_static_ok(type_):
                raise _Unsupported("dynamic vpfloat cast")
        source = self.ref(inst.source, bi, ii, 0)
        name = self.names[id(inst)]
        opcode = inst.opcode
        target = inst.type
        # The simple conversions transcribe cast_value's static cases
        # directly; everything else (fptosi, vpconv, posit rounding)
        # keeps the shared runtime path.
        if opcode == "zext":
            src_bits = inst.source.type.bits
            out.append(f"{name} = {source} & {(1 << src_bits) - 1}")
            return
        if opcode in ("sext", "trunc"):
            bits = target.bits
            out.append(f"{name} = int({source}) & {(1 << bits) - 1}")
            if bits > 1:
                out.append(f"if {name} >= {1 << (bits - 1)}:")
                out.append(f"    {name} -= {1 << bits}")
            return
        if opcode == "bitcast":
            out.append(f"{name} = {source}")
            return
        if opcode in ("ptrtoint", "inttoptr"):
            out.append(f"{name} = int({source})")
            return
        if opcode in ("sitofp", "uitofp"):
            number = f"int({source})"
            if opcode == "uitofp":
                number += f" & {(1 << inst.source.type.bits) - 1}"
            if target.is_vpfloat:
                if target.format != "posit":
                    prec = type_format(target).prec
                    out.append(f"{name} = _BF.from_int({number}, {prec})")
                    return
            elif target.bits == 32:
                out.append(f"{name} = _f32(float({number}))")
                return
            else:
                out.append(f"{name} = float({number})")
                return
        elif opcode in ("fpext", "fptrunc"):
            if target.bits == 32:
                out.append(f"{name} = _f32({source})")
            else:
                out.append(f"{name} = float({source})")
            return
        handle = self._inst_ref(inst, bi, ii)
        out.append(f"{name} = _cast({handle}, {source}, None)")

    def _emit_fneg(self, inst: FNegInst, bi, ii, out) -> None:
        a = self.ref(inst.operands[0], bi, ii, 0)
        name = self.names[id(inst)]
        if inst.type.is_float and inst.type.bits == 32:
            out.append(f"_x = {a}")
            out.append(f"{name} = -_x if isinstance(_x, _BF) "
                       f"else _f32(-_x)")
        else:
            out.append(f"{name} = -{a}")

    def _emit_select(self, inst: SelectInst, bi, ii, out) -> None:
        cond = self.ref(inst.condition, bi, ii, 0)
        tv = self.ref(inst.true_value, bi, ii, 1)
        fv = self.ref(inst.false_value, bi, ii, 2)
        name = self.names[id(inst)]
        out.append(f"{name} = {tv} if {cond} else {fv}")

    def _emit_call(self, inst: CallInst, bi, ii, out) -> None:
        if not self._vp_static_ok(inst.type):
            raise _Unsupported("dynamic vpfloat call result")
        for operand in inst.operands:
            if not self._vp_static_ok(operand.type):
                raise _Unsupported("dynamic vpfloat call operand")
        args = [self.ref(a, bi, ii, i)
                for i, a in enumerate(inst.operands)]
        name = self.names[id(inst)]
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:
            fn = self._fn_ref(callee)
            out.append(f"{name} = _call({fn}, [{', '.join(args)}])")
            return
        bname = callee.name if isinstance(callee, Function) \
            else str(callee)
        if bname not in self.interp._builtins:
            raise _Unsupported(f"unknown builtin {bname}")
        if bname in _MPFR_INLINE and len(args) == _MPFR_INLINE[bname]:
            self._emit_mpfr_builtin(inst, bname, args, bi, ii, out)
            return
        handler = self._builtin_ref(bname)
        handle = self._inst_ref(inst, bi, ii)
        out.append(f"{name} = {handler}([{', '.join(args)}], "
                   f"{handle}, None)")

    # ---- inlined mpfr builtins ----------------------------------- #
    #
    # The MPFR handlers are the hottest path of lowered kernels: each
    # call site becomes one call of a flat fast-path helper (see
    # mpfr_fast_path) with the op's site cache bound in the prelude.

    def _emit_mpfr_builtin(self, inst, bname, args, bi, ii, out) -> None:
        if self._mpfr_helpers_at is None:
            # Completed in emit() with the literal precisions.
            self._mpfr_helpers_at = len(self.prelude)
            self.prelude.append("")
        name = self.names[id(inst)]
        if bname in _MPFR_LIFECYCLE:
            helper, prec_at = _MPFR_LIFECYCLE[bname]
            if prec_at is not None:
                prec = inst.operands[prec_at]
                if isinstance(prec, ConstantInt) and prec.value >= 2:
                    self._mpfr_precs.add(prec.value)
            out.append(f"{name} = {helper}({', '.join(args)})")
            return
        handler = self._builtin_ref(bname)
        handle = self._inst_ref(inst, bi, ii)
        operands = ", ".join(args)
        op = bname[5:]  # mpfr_<op>
        if op == "set":
            out.append(f"{name} = _mset({handler}, {handle}, {operands})")
            return
        helper = "_msetv" if op in ("set_d", "set_si") else "_mop3"
        kernel = self._mpfr_map_ref(op)
        out.append(f"{name} = {helper}({handler}, {handle}, {kernel}, "
                   f"{bname!r}, {operands})")


def emit_function_source(interp, func: Function
                         ) -> Tuple[Optional[str], Optional[str]]:
    """(source, None) when ``func`` is jit-able, else (None, reason)."""
    try:
        return FunctionEmitter(interp, func).emit(), None
    except _Unsupported as e:
        return None, str(e)


# ----------------------------------------------------------------- #
# Store + engine
# ----------------------------------------------------------------- #

class CodegenStore:
    """Per-program store of jit artifacts: per function, a status,
    fallback reason and compiled code object.  Kernels bind
    at bind time, so emitted code is kernel-independent.

    Backed by a :class:`~repro.core.cache.CompileCache` ``.vpcgen``
    sidecar when the program came through the compile cache, so warm
    processes skip both source emission and ``compile()``; otherwise
    purely in-memory (still shared across runs of one program object).
    New records only mark the store dirty; :meth:`flush` persists them
    with one sidecar write per program run.
    """

    def __init__(self, cache=None, key: Optional[str] = None):
        self.cache = cache
        self.key = key
        self.records: Dict[str, dict] = {}
        self.codes: Dict[str, object] = {}
        self._loaded = False
        self._dirty = False

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if self.cache is None or self.key is None:
            return
        payload = self.cache.get_codegen(self.key)
        if payload:
            for name, record in payload["functions"].items():
                self.records[name] = record
                if record["status"] == "jit":
                    self.codes[name] = record["code"]

    def lookup(self, name: str) -> Optional[dict]:
        self._load()
        return self.records.get(name)

    def record(self, name: str, status: str, reason: Optional[str] = None,
               code=None) -> dict:
        self._load()
        entry = {"status": status, "reason": reason, "code": code}
        self.records[name] = entry
        if code is not None:
            self.codes[name] = code
        self._dirty = True
        return entry

    def flush(self) -> None:
        """Write the sidecar if records were added since the last flush."""
        if self._dirty and self.cache is not None and self.key is not None:
            self.cache.put_codegen(self.key, {
                "version": CODEGEN_VERSION,
                "functions": self.records,
            })
        self._dirty = False

    def statuses(self) -> Dict[str, dict]:
        """name -> {status, reason} for everything decided so far."""
        self._load()
        return {name: {"status": r["status"], "reason": r["reason"]}
                for name, r in self.records.items()}


class JitEngine:
    """Per-interpreter jit front door: ``entry(func)`` returns the
    specialized callable, or None when the function fell back."""

    def __init__(self, interp, store: Optional[CodegenStore] = None):
        self.interp = interp
        self.store = store if store is not None else CodegenStore()
        self._entries: Dict[int, Optional[object]] = {}
        self._owners: Dict[int, dict] = {}  # id(func) -> emitter.owners

    def entry(self, func: Function):
        cached = self._entries.get(id(func), self)
        if cached is not self:
            return cached
        with observe(f"codegen:{func.name}", cat=CAT_COMPILE) as obs:
            entry, status, reason, was_cached = self._materialize(func)
            obs.arg(cached=was_cached, status=status)
            if reason:
                obs.arg(reason=reason)
            if status == "jit":
                obs.count("codegen.functions.jit")
                obs.count(f"codegen.fn.{func.name}.jit")
            else:
                slug = (reason or "unknown").replace(" ", "-")
                obs.count("codegen.functions.fallback")
                obs.count(f"codegen.fn.{func.name}.fallback.{slug}")
        self._entries[id(func)] = entry
        return entry

    def refund(self, func: Function, tb) -> None:
        """Take back what ``func``'s block charges counted past the
        instruction a fault stopped its frame at: the rest of its charge
        segment.  The frame's line in ``tb`` names it through the line
        owners of the function emitted again, off the hot path."""
        filename = f"<vpjit:{func.name}>"
        while tb is not None and tb.tb_frame.f_code.co_filename != filename:
            tb = tb.tb_next
        owners = self._owners.get(id(func))
        if owners is None:
            emitter = FunctionEmitter(self.interp, func)
            emitter.emit()
            owners = self._owners[id(func)] = emitter.owners
        at = tb and owners[max(line for line in owners
                               if line <= tb.tb_lineno)]
        if at is None:  # a block entry: none of the block is counted
            return
        instructions = func.blocks[at[0]].instructions[at[1]:]
        if _ends_segment(instructions[0]):  # the rest is not counted
            return
        accounting = self.interp.accounting
        count, charges = _segments(instructions[1:], accounting.costs)[0]
        report = accounting.report
        self.interp.steps -= count
        report.instructions -= count
        for category, cycles in charges.items():
            report.cycles -= cycles
            report.by_category[category] -= cycles
            if not report.by_category[category]:
                del report.by_category[category]

    def _materialize(self, func: Function):
        """-> (entry | None, status, reason, cached)."""
        interp = self.interp
        record = self.store.lookup(func.name)
        cached = record is not None
        if record is None:
            record = self._compile(func)
        if record["status"] == "fallback":
            return None, "fallback", record["reason"], cached
        namespace: Dict[str, object] = {}
        exec(record["code"], namespace)
        try:
            entry = namespace["_make"](JitRuntime(interp, func))
        except Exception as e:
            # Bind-time resolution failed (e.g. an invalid constant):
            # the legacy walker reproduces the error at execution.
            return (None, "fallback",
                    f"bind failed: {type(e).__name__}", cached)
        return entry, "jit", None, cached

    def _compile(self, func: Function) -> dict:
        """Emit and compile ``func`` once, recording the outcome."""
        metrics = self.interp.metrics
        store = self.store
        name = func.name
        t0 = time.perf_counter()
        try:
            source = FunctionEmitter(self.interp, func).emit()
        except _Unsupported as e:
            return store.record(name, "fallback", reason=str(e))
        finally:
            if metrics is not None:
                metrics.observe("codegen.emit_seconds",
                                time.perf_counter() - t0)
        t0 = time.perf_counter()
        try:
            code = compile(source, f"<vpjit:{name}>", "exec")
        except SyntaxError:
            return store.record(name, "fallback", reason="compile error")
        if metrics is not None:
            metrics.observe("codegen.compile_seconds",
                            time.perf_counter() - t0)
        return store.record(name, "jit", code=code)
