"""Precompiled closure-table dispatch for the IR interpreter.

The legacy interpreter walks an ``isinstance`` chain for every executed
instruction and re-resolves operands, vpfloat attributes, and builtin
handlers on every dynamic execution.  This module threads each
:class:`~repro.ir.Instruction` to a bound handler exactly once per
function: :class:`FunctionCompiler` turns every basic block into a
:class:`CompiledBlock` holding

- ``steps``: one closure per non-phi, non-terminator instruction, each
  capturing pre-resolved operand getters, cost constants, and (for
  constant-attribute vpfloat types) the resolved precision;
- ``terminator``: a closure returning either the successor
  :class:`CompiledBlock` or a ``("ret", value)`` tuple;
- ``phi_moves``: per-predecessor staged phi assignments, so the block
  header does no list comprehension over ``block.phis()`` per execution.

The compiler also peephole-fuses the dominant adjacent pairs into
single *superinstruction* closures at table-build time:

- ``load`` feeding an adjacent binary op (the loaded value skips the
  frame dict when the binary is its only user);
- a binary op feeding an adjacent ``store`` of its result;
- a comparison feeding the block's conditional branch (the i1 skips
  the frame dict when the branch is its only user).

Fusion never crosses a block boundary and only pairs *adjacent*
instructions, so no operand can be redefined between producer and
consumer; multi-user producers keep their frame write.  Per-block
instruction counts (``count``/``tally``) are computed before fusion, so
step limits, ``report.instructions`` and profiles are unchanged.

Compilation must not change observable semantics relative to the legacy
path: the same cycles are charged to the same categories in the same
order, the same memory traffic reaches the cache model, and runtime
errors (attribute validation, unknown builtins, execution limits) are
still raised at execution time, not at compile time.  Fused pairs charge
the identical cycle categories in the identical order as the unfused
sequence, so the cost model stays bit-for-bit.  Anything the compiler
cannot prove static falls back to the interpreter's legacy helper for
that one instruction.

This module is also the per-function fallback target of the ``"jit"``
engine (:mod:`repro.codegen.pyjit`): a function the source generator
cannot fully specialize (dynamic vpfloat attributes, dynamically
sized memory accesses, posit arithmetic) executes through these closure
tables instead, with identical observable behavior.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..bigfloat import BigFloat, RNDN, arith
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

_VP_KERNELS = {"fadd": arith.add, "fsub": arith.sub,
               "fmul": arith.mul, "fdiv": arith.div}


class InterpreterProfile:
    """Execution observability: what ran, and where the cycles went.

    ``opcode_counts`` tallies executed IR instructions by opcode;
    ``builtin_calls``/``builtin_cycles`` attribute runtime-library work
    (including MPFR entry points) per builtin name.  Cycle attribution
    includes the cache-model cycles incurred inside the builtin.
    """

    def __init__(self) -> None:
        self.opcode_counts: Dict[str, int] = {}
        self.builtin_calls: Dict[str, int] = {}
        self.builtin_cycles: Dict[str, int] = {}

    def count_block(self, tally: List[Tuple[str, int]]) -> None:
        counts = self.opcode_counts
        for op, n in tally:
            counts[op] = counts.get(op, 0) + n

    def count_opcode(self, opcode: str) -> None:
        self.opcode_counts[opcode] = self.opcode_counts.get(opcode, 0) + 1

    def record_builtin(self, name: str, cycles: int) -> None:
        self.builtin_calls[name] = self.builtin_calls.get(name, 0) + 1
        self.builtin_cycles[name] = self.builtin_cycles.get(name, 0) + cycles

    def hottest_opcodes(self, limit: int = 10) -> List[Tuple[str, int]]:
        ranked = sorted(self.opcode_counts.items(),
                        key=lambda kv: kv[1], reverse=True)
        return ranked[:limit]

    def hottest_builtins(self, limit: int = 10) -> List[Tuple[str, int, int]]:
        ranked = sorted(self.builtin_cycles.items(),
                        key=lambda kv: kv[1], reverse=True)
        return [(name, self.builtin_calls.get(name, 0), cycles)
                for name, cycles in ranked[:limit]]


class CompiledBlock:
    __slots__ = ("bid", "name", "steps", "terminator", "phi_moves",
                 "count", "tally")

    def __init__(self, block) -> None:
        self.bid = id(block)
        self.name = block.name
        self.steps: List[Callable] = []
        self.terminator: Optional[Callable] = None
        #: id(predecessor IR block) -> [(id(phi), value getter), ...]
        self.phi_moves: Dict[Optional[int], List[Tuple[int, Callable]]] = {}
        self.count = 0
        self.tally: List[Tuple[str, int]] = []


class CompiledFunction:
    __slots__ = ("entry", "blocks")

    def __init__(self, entry: CompiledBlock,
                 blocks: Dict[int, CompiledBlock]) -> None:
        self.entry = entry
        self.blocks = blocks


class FunctionCompiler:
    """Compiles one function's blocks into closure tables, fusing
    superinstructions (see the module docstring)."""

    def __init__(self, interp) -> None:
        # Imported here (not at module scope) to avoid a circular import
        # with .interpreter, which imports this module at load time.
        from .interpreter import VPRuntimeError, _f32, _mask_int

        self.interp = interp
        self._vpr = VPRuntimeError
        self._f32 = _f32
        self._mask = _mask_int
        self._resolvers: Dict[int, Callable] = {}

    # ------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------ #

    def compile(self, func: Function) -> CompiledFunction:
        blocks: Dict[int, CompiledBlock] = {
            id(b): CompiledBlock(b) for b in func.blocks
        }
        for block in func.blocks:
            cb = blocks[id(block)]
            tally: Dict[str, int] = {}
            body: List = []
            term_inst = None
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    for value, pred in inst.incoming:
                        cb.phi_moves.setdefault(id(pred), []).append(
                            (id(inst), self._getter(value)))
                    continue
                tally[inst.opcode] = tally.get(inst.opcode, 0) + 1
                cb.count += 1
                if isinstance(inst, (BranchInst, RetInst, UnreachableInst)):
                    term_inst = inst
                else:
                    body.append(inst)
            cb.tally = sorted(tally.items())
            fused_cmp = None
            if (body and term_inst is not None
                    and isinstance(term_inst, BranchInst)
                    and term_inst.is_conditional
                    and isinstance(body[-1], (ICmpInst, FCmpInst))
                    and term_inst.condition is body[-1]):
                fused_cmp = body.pop()
            cb.steps = self._compile_steps(body)
            if term_inst is None:
                cb.terminator = self._fell_off_end(block.name)
            elif fused_cmp is not None:
                cb.terminator = self._fuse_cmp_branch(fused_cmp, term_inst,
                                                      blocks)
            else:
                cb.terminator = self._compile_terminator(term_inst, blocks)
        return CompiledFunction(blocks[id(func.entry)], blocks)

    def _compile_steps(self, body: List) -> List[Callable]:
        steps: List[Callable] = []
        i, n = 0, len(body)
        while i < n:
            if i + 1 < n:
                fused = self._try_fuse(body[i], body[i + 1])
                if fused is not None:
                    steps.append(fused)
                    i += 2
                    continue
            steps.append(self._compile_step(body[i]))
            i += 1
        return steps

    def _fell_off_end(self, name: str) -> Callable:
        vpr = self._vpr

        def term(frame):
            raise vpr(f"block {name} fell off the end")

        return term

    # ------------------------------------------------------------ #
    # Superinstruction fusion
    # ------------------------------------------------------------ #

    def _try_fuse(self, a, b) -> Optional[Callable]:
        """Fused closure for the adjacent pair (a, b), or None."""
        if isinstance(a, LoadInst) and isinstance(b, BinaryInst) \
                and (b.lhs is a or b.rhs is a):
            return self._fuse_load_binary(a, b)
        if isinstance(a, BinaryInst) and isinstance(b, StoreInst) \
                and b.value is a:
            return self._fuse_binary_store(a, b)
        return None

    def _fuse_load_binary(self, load: LoadInst,
                          binary: BinaryInst) -> Callable:
        if len(load.users) > 1:
            # The loaded value has other readers (or feeds both operand
            # slots): keep the frame write and just glue the two
            # existing steps into one superinstruction.
            first = self._compile_load(load)
            second = self._compile_step(binary)

            def step(frame):
                first(frame)
                second(frame)

            return step
        # Single user: route the loaded value through a box cell instead
        # of the frame dict.  The box is written and consumed within one
        # step invocation, so reuse across iterations cannot go stale.
        load_value = self._load_value(load)
        box: List = [None]

        def inject(frame):
            return box[0]

        ga = inject if binary.lhs is load else self._getter(binary.lhs)
        gb = inject if binary.rhs is load else self._getter(binary.rhs)
        compute = self._binary_value(binary, ga, gb)
        bid = id(binary)

        def step(frame):
            box[0] = load_value(frame)
            frame.values[bid] = compute(frame)

        return step

    def _fuse_binary_store(self, binary: BinaryInst,
                           store: StoreInst) -> Callable:
        interp = self.interp
        compute = self._binary_value(binary, self._getter(binary.lhs),
                                     self._getter(binary.rhs))
        bid = id(binary)
        write_through = len(binary.users) > 1
        gp = self._getter(store.pointer)
        do_store = interp.memory.store
        type_ = store.value.type
        nbytes = self._static_sizeof(type_)
        if nbytes is not None:
            if write_through:
                def step(frame):
                    value = compute(frame)
                    frame.values[bid] = value
                    do_store(int(gp(frame)), value, nbytes)
            else:
                def step(frame):
                    value = compute(frame)
                    do_store(int(gp(frame)), value, nbytes)
        else:
            if write_through:
                def step(frame):
                    value = compute(frame)
                    frame.values[bid] = value
                    do_store(int(gp(frame)), value,
                             interp._sizeof(type_, frame))
            else:
                def step(frame):
                    value = compute(frame)
                    do_store(int(gp(frame)), value,
                             interp._sizeof(type_, frame))

        return step

    def _fuse_cmp_branch(self, cmp_inst, br: BranchInst,
                         blocks) -> Callable:
        interp = self.interp
        value = (self._icmp_value(cmp_inst)
                 if isinstance(cmp_inst, ICmpInst)
                 else self._fcmp_value(cmp_inst))
        charge = interp.accounting.report.charge
        branch_cost = interp.accounting.costs.branch
        then_block = blocks[id(br.targets[0])]
        else_block = blocks[id(br.targets[1])]
        cid = id(cmp_inst)
        if len(cmp_inst.users) > 1:
            def term(frame):
                result = value(frame)
                frame.values[cid] = result
                charge("branch", branch_cost)
                return then_block if result else else_block
        else:
            def term(frame):
                result = value(frame)
                charge("branch", branch_cost)
                return then_block if result else else_block

        return term

    # ------------------------------------------------------------ #
    # Operand getters
    # ------------------------------------------------------------ #

    def _getter(self, v) -> Callable:
        interp = self.interp
        if isinstance(v, ConstantInt):
            value = v.value
            return lambda frame: value
        if isinstance(v, ConstantFloat):
            value = self._f32(v.value) if v.type.bits == 32 else v.value
            return lambda frame: value
        if isinstance(v, ConstantVPFloat):
            # Depends on the (possibly dynamic) precision; the
            # interpreter memoizes per (constant, precision).
            return lambda frame: interp._constant(v, frame)
        if isinstance(v, ConstantPointerNull):
            return lambda frame: 0
        if isinstance(v, ConstantString):
            text = v.text
            return lambda frame: text
        if isinstance(v, UndefValue):
            return lambda frame: interp._default(v.type, frame)
        if isinstance(v, Constant):
            return lambda frame: interp._constant(v, frame)
        if isinstance(v, GlobalVariable):
            addr = interp.globals[v.name]
            return lambda frame: addr
        if isinstance(v, Function):
            return lambda frame: v
        vid = id(v)
        return lambda frame: frame.values[vid]

    def _vp_resolver(self, vptype: VPFloatType) -> Callable:
        """closure(frame) -> (precision_bits, size_bytes), resolved once
        for constant-attribute types and cached per runtime attribute
        tuple for dynamic ones."""
        cached = self._resolvers.get(id(vptype))
        if cached is not None:
            return cached
        interp = self.interp
        attrs = [a for a in (vptype.exp_attr, vptype.prec_attr,
                             getattr(vptype, "size_attr", None))
                 if a is not None]
        if all(isinstance(a, ConstantInt) for a in attrs):
            cell: list = []

            def resolve(frame):
                if cell:
                    return cell[0]
                # Resolved lazily so validation errors still surface at
                # execution time, exactly once.
                config = interp.vp_config(vptype, frame)
                cell.append(config)
                return config
        else:
            getters = [self._getter(a) for a in attrs]
            cache = interp._vp_config_cache
            tid = id(vptype)

            def resolve(frame):
                key = (tid,) + tuple(int(g(frame)) for g in getters)
                config = cache.get(key)
                if config is None:
                    config = interp.vp_config(vptype, frame)
                    cache[key] = config
                return config

        self._resolvers[id(vptype)] = resolve
        return resolve

    def _static_sizeof(self, type) -> Optional[int]:
        """Byte size if resolvable without a frame, else None."""
        try:
            return self.interp._sizeof(type, None)
        except Exception:
            return None

    # ------------------------------------------------------------ #
    # Terminators
    # ------------------------------------------------------------ #

    def _compile_terminator(self, inst, blocks) -> Callable:
        interp = self.interp
        charge = interp.accounting.report.charge
        costs = interp.accounting.costs
        if isinstance(inst, BranchInst):
            branch_cost = costs.branch
            if inst.is_conditional:
                gc = self._getter(inst.condition)
                then_block = blocks[id(inst.targets[0])]
                else_block = blocks[id(inst.targets[1])]

                def term(frame):
                    charge("branch", branch_cost)
                    return then_block if gc(frame) else else_block
            else:
                target = blocks[id(inst.targets[0])]

                def term(frame):
                    charge("branch", branch_cost)
                    return target

            return term
        if isinstance(inst, RetInst):
            if inst.value is None:
                return lambda frame: ("ret", None)
            gv = self._getter(inst.value)
            return lambda frame: ("ret", gv(frame))
        # UnreachableInst
        vpr = self._vpr

        def term(frame):
            raise vpr("executed unreachable instruction")

        return term

    # ------------------------------------------------------------ #
    # Steps
    # ------------------------------------------------------------ #

    def _compile_step(self, inst) -> Callable:
        if isinstance(inst, BinaryInst):
            return self._compile_binary(inst)
        if isinstance(inst, CallInst):
            return self._compile_call(inst)
        if isinstance(inst, LoadInst):
            return self._compile_load(inst)
        if isinstance(inst, StoreInst):
            return self._compile_store(inst)
        if isinstance(inst, GEPInst):
            return self._compile_gep(inst)
        if isinstance(inst, ICmpInst):
            return self._compile_icmp(inst)
        if isinstance(inst, FCmpInst):
            return self._compile_fcmp(inst)
        if isinstance(inst, CastInst):
            return self._compile_cast(inst)
        if isinstance(inst, AllocaInst):
            return self._compile_alloca(inst)
        if isinstance(inst, FNegInst):
            return self._compile_fneg(inst)
        if isinstance(inst, SelectInst):
            return self._compile_select(inst)
        # Unknown instruction kind: defer to the legacy executor so the
        # error message (or any future instruction) matches exactly.
        interp = self.interp
        return lambda frame: interp._execute(inst, frame)

    # ---- binaries ------------------------------------------------ #
    #
    # Each binary kind has a *value* factory (closure(frame) -> result,
    # charging exactly what the legacy path charges, in the same order)
    # so fused superinstructions can reuse the arithmetic with operand
    # getters swapped out; _compile_binary wraps it with the frame write.

    def _compile_binary(self, inst: BinaryInst) -> Callable:
        value = self._binary_value(inst, self._getter(inst.lhs),
                                   self._getter(inst.rhs))
        iid = id(inst)

        def step(frame):
            frame.values[iid] = value(frame)

        return step

    def _binary_value(self, inst: BinaryInst, ga: Callable,
                      gb: Callable) -> Callable:
        if inst.type.is_vpfloat:
            return self._vp_binary_value(inst, ga, gb)
        if inst.type.is_float:
            return self._float_binary_value(inst, ga, gb)
        return self._int_binary_value(inst, ga, gb)

    def _vp_binary_value(self, inst: BinaryInst, ga: Callable,
                         gb: Callable) -> Callable:
        interp = self.interp
        kernel = _VP_KERNELS.get(inst.opcode)
        if kernel is None:
            op = inst.opcode
            vpr = self._vpr

            def bad(frame):
                raise vpr(f"{op} unsupported on vpfloat")

            return bad
        vptype = inst.type
        resolve = self._vp_resolver(vptype)
        as_big = interp._as_bigfloat
        charge = interp.accounting.report.charge
        unit = interp.accounting.costs.f64_other
        if vptype.format == "posit":
            posit_round = interp._posit_round

            def value(frame):
                prec = resolve(frame)[0]
                work = prec + 8
                a = as_big(ga(frame), work)
                b = as_big(gb(frame), work)
                charge("vpfloat_native", unit * max(1, prec // 64))
                return posit_round(kernel(a, b, work, RNDN), vptype, frame)

        elif vptype.format == "mpfr":
            clamp = self._clamp_closure(vptype)

            def value(frame):
                prec = resolve(frame)[0]
                a = as_big(ga(frame), prec)
                b = as_big(gb(frame), prec)
                charge("vpfloat_native", unit * max(1, prec // 64))
                return clamp(kernel(a, b, prec, RNDN), frame)

        else:  # unum: exact intermediate, no per-op re-encoding

            def value(frame):
                prec = resolve(frame)[0]
                a = as_big(ga(frame), prec)
                b = as_big(gb(frame), prec)
                charge("vpfloat_native", unit * max(1, prec // 64))
                return kernel(a, b, prec, RNDN)

        registry = interp.metrics
        if registry is None:
            return value
        # Precision telemetry wrap, built only when a registry is
        # installed: the untraced closure above stays branch-free.
        observe = registry.observe
        inc = registry.inc
        bits_key = f"precision.op.{inst.opcode}.bits"
        rounding_key = "precision.rounding." + RNDN.value
        guard_bits = 8 if vptype.format == "posit" else 0
        plain_value = value

        def value(frame):
            observe(bits_key, resolve(frame)[0])
            observe("precision.guard_bits", guard_bits)
            inc(rounding_key)
            return plain_value(frame)

        return value

    def _clamp_closure(self, vptype: VPFloatType) -> Callable:
        """Exponent-range clamp bound to the type's *exp-info* attribute.

        The attribute is re-read from the frame on every application when
        it is dynamic, so a loop that mutates the attribute mid-iteration
        clamps against the current value, never a cached one."""
        exp_attr = vptype.exp_attr
        if isinstance(exp_attr, ConstantInt):
            limit = 1 << (exp_attr.value - 1)

            def clamp(value, frame):
                if not value.is_finite() or value.is_zero():
                    return value
                exponent = value.exponent()
                if exponent > limit:
                    return BigFloat.inf(value.prec, value.sign)
                if exponent < -limit:
                    return BigFloat.zero(value.prec, value.sign)
                return value

            return clamp
        vid = id(exp_attr)

        def clamp(value, frame):
            if not value.is_finite() or value.is_zero():
                return value
            limit = 1 << (int(frame.values[vid]) - 1)
            exponent = value.exponent()
            if exponent > limit:
                return BigFloat.inf(value.prec, value.sign)
            if exponent < -limit:
                return BigFloat.zero(value.prec, value.sign)
            return value

        return clamp

    def _float_binary_value(self, inst: BinaryInst, ga: Callable,
                            gb: Callable) -> Callable:
        interp = self.interp
        charge = interp.accounting.report.charge
        costs = interp.accounting.costs
        op = inst.opcode
        cost = {"fadd": costs.f64_add, "fsub": costs.f64_add,
                "fmul": costs.f64_mul, "fdiv": costs.f64_div,
                "frem": costs.f64_div}[op]
        narrow = inst.type.bits == 32
        f32 = self._f32
        if op == "fadd":
            def compute(a, b):
                return a + b
        elif op == "fsub":
            def compute(a, b):
                return a - b
        elif op == "fmul":
            def compute(a, b):
                return a * b
        elif op == "frem":
            import math

            def compute(a, b):
                return math.fmod(a, b)
        else:  # fdiv with C-style inf/nan on division by zero
            import math

            def compute(a, b):
                if b != 0.0:
                    return a / b
                return math.copysign(math.inf, a) if a != 0.0 else math.nan

        if narrow:
            def value(frame):
                result = compute(ga(frame), gb(frame))
                charge("f64", cost)
                return f32(result)
        else:
            def value(frame):
                result = compute(ga(frame), gb(frame))
                charge("f64", cost)
                return result

        return value

    def _int_binary_value(self, inst: BinaryInst, ga: Callable,
                          gb: Callable) -> Callable:
        interp = self.interp
        charge = interp.accounting.report.charge
        int_cost = interp.accounting.costs.int_op
        bits = inst.type.bits
        mask = self._mask
        umask = (1 << bits) - 1
        shmask = bits - 1
        op = inst.opcode
        vpr = self._vpr
        if op == "add":
            def compute(a, b):
                return a + b
        elif op == "sub":
            def compute(a, b):
                return a - b
        elif op == "mul":
            def compute(a, b):
                return a * b
        elif op in ("sdiv", "srem"):
            from .interpreter import _trunc_div
            rem = op == "srem"

            def compute(a, b):
                if b == 0:
                    raise vpr("integer division by zero" if not rem
                              else "integer remainder by zero")
                q = _trunc_div(a, b)
                return a - q * b if rem else q
        elif op in ("udiv", "urem"):
            rem = op == "urem"

            def compute(a, b):
                ua, ub = a & umask, b & umask
                if ub == 0:
                    raise vpr("integer division by zero" if not rem
                              else "integer remainder by zero")
                return ua % ub if rem else ua // ub
        elif op == "and":
            def compute(a, b):
                return a & b
        elif op == "or":
            def compute(a, b):
                return a | b
        elif op == "xor":
            def compute(a, b):
                return a ^ b
        elif op == "shl":
            def compute(a, b):
                return a << (b & shmask)
        elif op == "ashr":
            def compute(a, b):
                return a >> (b & shmask)
        elif op == "lshr":
            def compute(a, b):
                return (a & umask) >> (b & shmask)
        else:
            def compute(a, b):
                raise vpr(f"unknown integer op {op}")

        def value(frame):
            charge("int", int_cost)
            return mask(compute(ga(frame), gb(frame)), bits)

        return value

    # ---- memory -------------------------------------------------- #

    def _compile_load(self, inst: LoadInst) -> Callable:
        value = self._load_value(inst)
        iid = id(inst)

        def step(frame):
            frame.values[iid] = value(frame)

        return step

    def _load_value(self, inst: LoadInst) -> Callable:
        interp = self.interp
        gp = self._getter(inst.pointer)
        load = interp.memory.load
        type_ = inst.type
        nbytes = self._static_sizeof(type_)
        if nbytes is not None:
            default = interp._default(type_, None)

            def value(frame):
                return load(int(gp(frame)), nbytes, default)
        else:
            def value(frame):
                n = interp._sizeof(type_, frame)
                default = interp._default(type_, frame)
                return load(int(gp(frame)), n, default)

        return value

    def _compile_store(self, inst: StoreInst) -> Callable:
        interp = self.interp
        gp = self._getter(inst.pointer)
        gv = self._getter(inst.value)
        store = interp.memory.store
        type_ = inst.value.type
        nbytes = self._static_sizeof(type_)
        if nbytes is not None:
            def step(frame):
                # Match legacy evaluation order: pointer before value.
                addr = gp(frame)
                store(int(addr), gv(frame), nbytes)
        else:
            def step(frame):
                addr = gp(frame)
                value = gv(frame)
                store(int(addr), value, interp._sizeof(type_, frame))

        return step

    def _compile_alloca(self, inst: AllocaInst) -> Callable:
        interp = self.interp
        iid = id(inst)
        charge = interp.accounting.report.charge
        int_cost = interp.accounting.costs.int_op
        alloc = interp.memory.alloc_stack
        vpr = self._vpr
        elem = self._static_sizeof(inst.allocated_type)
        allocated = inst.allocated_type
        if inst.count is None:
            if elem is not None:
                def step(frame):
                    frame.values[iid] = alloc(elem)
                    charge("alloca", int_cost)
            else:
                def step(frame):
                    frame.values[iid] = alloc(
                        interp._sizeof(allocated, frame))
                    charge("alloca", int_cost)
            return step
        gc = self._getter(inst.count)

        def step(frame):
            count = int(gc(frame))
            if count < 0:
                raise vpr("negative VLA extent")
            size = elem if elem is not None \
                else interp._sizeof(allocated, frame)
            frame.values[iid] = alloc(size * max(count, 1))
            charge("alloca", int_cost)

        return step

    def _compile_gep(self, inst: GEPInst) -> Callable:
        interp = self.interp
        iid = id(inst)
        charge = interp.accounting.report.charge
        int_cost = interp.accounting.costs.int_op

        def fallback(frame):
            frame.values[iid] = interp._gep(inst, frame)
            charge("addr", int_cost)

        pointee = inst.pointer.type.pointee
        stride0 = self._static_sizeof(pointee)
        if stride0 is None:
            return fallback
        const_offset = 0
        terms: List[Tuple[Callable, int]] = []
        indices = inst.indices
        if isinstance(indices[0], ConstantInt):
            const_offset += indices[0].value * stride0
        else:
            terms.append((self._getter(indices[0]), stride0))
        current = pointee
        for index in indices[1:]:
            if isinstance(current, ArrayType):
                stride = self._static_sizeof(current.element)
                if stride is None:
                    return fallback
                if isinstance(index, ConstantInt):
                    const_offset += index.value * stride
                else:
                    terms.append((self._getter(index), stride))
                current = current.element
            elif isinstance(current, StructType):
                if not isinstance(index, ConstantInt):
                    return fallback
                try:
                    const_offset += current.field_offset(index.value)
                except Exception:
                    return fallback
                current = current.fields[index.value]
            else:
                return fallback  # gep into scalar: legacy raises

        gp = self._getter(inst.pointer)
        if not terms:
            def step(frame):
                frame.values[iid] = int(gp(frame)) + const_offset
                charge("addr", int_cost)
        elif len(terms) == 1:
            g0, s0 = terms[0]

            def step(frame):
                frame.values[iid] = (int(gp(frame)) + const_offset
                                     + int(g0(frame)) * s0)
                charge("addr", int_cost)
        else:
            def step(frame):
                addr = int(gp(frame)) + const_offset
                for g, s in terms:
                    addr += int(g(frame)) * s
                frame.values[iid] = addr
                charge("addr", int_cost)

        return step

    # ---- comparisons, casts, misc -------------------------------- #

    def _compile_icmp(self, inst: ICmpInst) -> Callable:
        value = self._icmp_value(inst)
        iid = id(inst)

        def step(frame):
            frame.values[iid] = value(frame)

        return step

    def _icmp_value(self, inst: ICmpInst) -> Callable:
        interp = self.interp
        ga = self._getter(inst.operands[0])
        gb = self._getter(inst.operands[1])
        charge = interp.accounting.report.charge
        int_cost = interp.accounting.costs.int_op
        bits = (inst.operands[0].type.bits
                if inst.operands[0].type.is_integer else 64)
        umask = (1 << bits) - 1
        pred = inst.predicate
        if pred == "eq":
            def test(a, b):
                return a == b
        elif pred == "ne":
            def test(a, b):
                return a != b
        elif pred == "slt":
            def test(a, b):
                return a < b
        elif pred == "sle":
            def test(a, b):
                return a <= b
        elif pred == "sgt":
            def test(a, b):
                return a > b
        elif pred == "sge":
            def test(a, b):
                return a >= b
        elif pred == "ult":
            def test(a, b):
                return (a & umask) < (b & umask)
        elif pred == "ule":
            def test(a, b):
                return (a & umask) <= (b & umask)
        elif pred == "ugt":
            def test(a, b):
                return (a & umask) > (b & umask)
        else:  # uge
            def test(a, b):
                return (a & umask) >= (b & umask)

        def value(frame):
            result = 1 if test(ga(frame), gb(frame)) else 0
            charge("icmp", int_cost)
            return result

        return value

    def _compile_fcmp(self, inst: FCmpInst) -> Callable:
        value = self._fcmp_value(inst)
        iid = id(inst)

        def step(frame):
            frame.values[iid] = value(frame)

        return step

    def _fcmp_value(self, inst: FCmpInst) -> Callable:
        interp = self.interp
        ga = self._getter(inst.operands[0])
        gb = self._getter(inst.operands[1])
        charge = interp.accounting.report.charge
        cost = interp.accounting.costs.f64_other
        pred = inst.predicate
        fcmp_values = interp._fcmp_values

        def value(frame):
            result = fcmp_values(ga(frame), gb(frame), pred)
            charge("fcmp", cost)
            return result

        return value

    def _compile_cast(self, inst: CastInst) -> Callable:
        interp = self.interp
        gs = self._getter(inst.source)
        iid = id(inst)
        charge = interp.accounting.report.charge
        int_cost = interp.accounting.costs.int_op

        def step(frame):
            result = interp._cast_value(inst, gs(frame), frame)
            charge("cast", int_cost)
            frame.values[iid] = result

        return step

    def _compile_fneg(self, inst: FNegInst) -> Callable:
        interp = self.interp
        gv = self._getter(inst.operands[0])
        iid = id(inst)
        charge = interp.accounting.report.charge
        cost = interp.accounting.costs.f64_other
        f32 = self._f32
        if inst.type.is_float and inst.type.bits == 32:
            def step(frame):
                value = gv(frame)
                frame.values[iid] = (-value if isinstance(value, BigFloat)
                                     else f32(-value))
                charge("fneg", cost)
        else:
            def step(frame):
                frame.values[iid] = -gv(frame)
                charge("fneg", cost)

        return step

    def _compile_select(self, inst: SelectInst) -> Callable:
        interp = self.interp
        gc = self._getter(inst.condition)
        gt = self._getter(inst.true_value)
        gf = self._getter(inst.false_value)
        iid = id(inst)
        charge = interp.accounting.report.charge
        int_cost = interp.accounting.costs.int_op

        def step(frame):
            chosen = gt(frame) if gc(frame) else gf(frame)
            charge("select", int_cost)
            frame.values[iid] = chosen

        return step

    # ---- calls --------------------------------------------------- #

    def _compile_call(self, inst: CallInst) -> Callable:
        interp = self.interp
        iid = id(inst)
        getters = [self._getter(a) for a in inst.operands]
        callee = inst.callee
        if isinstance(callee, Function) and not callee.is_declaration:
            call = interp.call_function

            def step(frame):
                frame.values[iid] = call(
                    callee, [g(frame) for g in getters])

            return step
        name = callee.name if isinstance(callee, Function) else str(callee)
        handler = interp._builtins.get(name)
        if handler is None:
            vpr = self._vpr

            def step(frame):
                raise vpr(f"call to unknown runtime function {name!r}")

            return step
        report = interp.accounting.report
        profile = interp.profile
        if profile is not None:
            record = profile.record_builtin

            def step(frame):
                args = [g(frame) for g in getters]
                before = report.cycles
                frame.values[iid] = handler(args, inst, frame)
                record(name, report.cycles - before)
        else:
            def step(frame):
                frame.values[iid] = handler(
                    [g(frame) for g in getters], inst, frame)

        return step
