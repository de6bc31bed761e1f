"""Executes UNUM-backend assembly on the coprocessor + scalar core model.

The machine pairs a simple in-order scalar core (1 cycle per ALU op,
cache-modeled memory) with the
:class:`~repro.unum.coprocessor.UnumCoprocessor` (g-layer latencies,
variable-byte loads/stores).  It is the stand-in for the paper's FPGA
Rocket + coprocessor platform (Fig. 2); reported cycles combine both
units plus cache-model access time.

Execution is decode-once.  The first call of each :class:`AsmFunction`
turns it into one tuple of *handlers* per block (:class:`_Decoder`).  A
handler is a closure over pre-resolved operands: registers are indices
into a per-call register file (a list), immediates are baked in and
branch labels are block indices.  It returns ``None`` to fall through,
a block index to jump, or :data:`_RETURN`.  Whatever depends on
coprocessor state (the WGP, the ess/fss/MBB memory geometry) is still
read when the handler runs.  A fault that decoding can already see (an
unknown opcode, a virtual register, a malformed operand) is raised only
when its instruction executes, after the cycles it charges up front.
The decoded code binds this machine's coprocessor, memory and
accounting, and lives on the machine, never on the ``AsmModule``.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, List, NamedTuple, Optional

from ..backends.unum_backend.asm import (
    AsmFunction,
    AsmModule,
    Imm,
    PReg,
    VReg,
)
from ..bigfloat import BigFloat, to_str
from ..unum import MAX_WGP, UnumConfig, UnumCoprocessor
from ..unum.format import decode as unum_decode
from ..unum.format import encode as unum_encode
from .cost_model import CacheModel, CostAccounting
from .memory import Memory


class UnumMachineError(RuntimeError):
    pass


#: Reserved register-file slots: frame base, argument list, return
#: value.  Physical registers and constants follow.
_FRAME, _ARGS, _RESULT = 0, 1, 2
#: Handler result of ``ret`` (a jump returns a block index >= 0).
_RETURN = -1

Handler = Callable[[list], Optional[int]]


class UnumMachine:
    """Interprets an :class:`AsmModule`."""

    def __init__(self, asm: AsmModule,
                 accounting: Optional[CostAccounting] = None,
                 coprocessor: Optional[UnumCoprocessor] = None,
                 max_steps: int = 500_000_000):
        self.asm = asm
        self.accounting = accounting or CostAccounting(cache=CacheModel())
        self.memory = Memory(observer=self.accounting.memory_access)
        self.coprocessor = coprocessor or UnumCoprocessor(wgp=128)
        self.max_steps = max_steps
        self.steps = 0
        self.stdout: List[str] = []
        self.scalar_cycles = 0
        self._code: Dict[str, _Code] = {}

    # ------------------------------------------------------------ #

    @property
    def cycles(self) -> int:
        return self.scalar_cycles + self.coprocessor.cycles + \
            self.accounting.report.cycles

    def run(self, name: str, args: Optional[List[object]] = None):
        result = self.call(name, args or [])
        self.accounting.finalize(self.memory)
        return result

    # ------------------------------------------------------------ #

    def call(self, name: str, args: List[object]):
        func = self.asm.functions.get(name)
        if func is None:
            raise UnumMachineError(f"unknown function {name!r}")
        code = self._code.get(name)
        if code is None or code.func is not func:
            code = self._code[name] = _Decoder(self, func).decode()
        regs = code.template[:]
        regs[_FRAME] = self.memory.alloc_stack(max(8, func.frame_slots * 8))
        regs[_ARGS] = args
        # Pre-write incoming arguments.
        for arg, value in zip(code.arg_slots, args):
            if arg is None:
                continue  # spilled: fetched by argmv
            slot, reg = arg
            if reg.cls == "g":
                if isinstance(value, float):
                    value = BigFloat.from_float(value, MAX_WGP)
            elif value is None:
                value = 0  # an unset x/f register reads as 0
            regs[slot] = value
        return self._execute(code.blocks, regs)

    def _execute(self, blocks, regs):
        max_steps = self.max_steps
        count = len(blocks)
        index = 0
        while True:
            for handler in blocks[index]:
                self.steps += 1
                if self.steps > max_steps:
                    raise UnumMachineError("instruction budget exceeded")
                target = handler(regs)
                if target is not None:
                    break
            else:
                index += 1  # fall through
                if index >= count:
                    raise UnumMachineError("fell off the end of function")
                continue
            if target == _RETURN:
                self.memory.stack_release(regs[_FRAME])
                return regs[_RESULT]
            index = target

    def _gvalue(self, value, op) -> BigFloat:
        """A g-layer operand that is not already a :class:`BigFloat`."""
        if isinstance(value, BigFloat):
            return value
        if value is None:
            raise UnumMachineError(f"read of uninitialized {op}")
        if isinstance(value, (int, float)):
            return BigFloat.from_float(float(value),
                                       self.coprocessor.glayer.wgp)
        raise UnumMachineError(f"not a g-layer value: {value!r}")


class _Code(NamedTuple):
    """One decoded function: handler tuples per block, the register
    file's initial contents, and where each argument register lives."""

    func: AsmFunction
    blocks: list
    template: list
    arg_slots: list


# ----------------------------------------------------------------- #
# The decoder
# ----------------------------------------------------------------- #

#: opcode -> builder; ``_FAMILIES`` holds the ``prefix.`` opcodes.
_BUILDERS: Dict[str, Callable] = {}
_FAMILIES: Dict[str, Callable] = {}


def _builds(*opcodes: str):
    def register(build):
        for opcode in opcodes:
            table = _FAMILIES if opcode.endswith(".") else _BUILDERS
            table[opcode] = build
        return build
    return register


class _Decoder:
    """Builds one :class:`_Code` from an :class:`AsmFunction`.

    Builders get the decoder, the machine, the operand list and the
    opcode, and resolve operands in the order the instruction reads
    them.  Hot opcodes read registers through :meth:`slot` (a list
    index); the rest use :meth:`reader`/:meth:`writer` closures."""

    def __init__(self, machine: UnumMachine, func: AsmFunction):
        self.machine = machine
        self.func = func
        self.labels = {b.label: i for i, b in enumerate(func.blocks)}
        self.template: list = [None, None, None]
        self.slots: Dict[object, int] = {}

    def decode(self) -> _Code:
        blocks = [tuple(self.instruction(inst.opcode, inst.operands)
                        for inst in block.instructions)
                  for block in self.func.blocks]
        arg_slots = [None if reg is None else (self.register(reg), reg)
                     for reg, _cls in self.func.arg_registers]
        return _Code(self.func, blocks, self.template, arg_slots)

    def instruction(self, opcode: str, ops) -> Handler:
        self.ops = ops
        self.checks = []  # (slot, g-register) read by a plain read
        self.jump_fault = None
        #: Scalar cycles the instruction charges before it reads an
        #: operand, so also before an operand fault.
        self.charge = 0
        build = _BUILDERS.get(opcode) or \
            _FAMILIES.get(opcode[:opcode.find(".") + 1])
        try:
            if build is None:
                raise UnumMachineError(f"unknown opcode {opcode!r}")
            handler = build(self, self.machine, ops, opcode)
        except Exception as exc:  # raised when the instruction executes
            return _raising(exc, self.machine, self.charge)
        if self.jump_fault is not None:
            handler = _misjump(handler, self.jump_fault)
        if self.checks:
            handler = _checked(handler, self.checks, self.machine,
                               self.charge)
        return handler

    # ---- operands ------------------------------------------------ #

    def register(self, op) -> int:
        """The register-file slot of ``op``."""
        slot = self.slots.get(op)
        if slot is None:
            slot = self.slots[op] = len(self.template)
            self.template.append(None if getattr(op, "cls", None) == "g"
                                 else 0)
        return slot

    def slot(self, i: int, g_ok: bool = False) -> int:
        """Slot operand ``i`` is read from; an immediate gets a constant
        slot.  A g-register is checked for initialization before the
        instruction runs, unless ``g_ok`` (the handler checks)."""
        op = self.ops[i]
        if isinstance(op, Imm):
            self.template.append(op.value)
            return len(self.template) - 1
        if isinstance(op, PReg):
            slot = self.register(op)
            if op.cls == "g" and not g_ok:
                self.checks.append((slot, op))
            return slot
        raise _operand_fault(op)

    def dest(self, i: int = 0) -> int:
        op = self.ops[i]
        if not isinstance(op, PReg):
            raise UnumMachineError(f"cannot write operand {op!r}")
        return self.register(op)

    def reader(self, i: int) -> Callable[[list], object]:
        """``regs -> value`` of operand ``i``; faults when it reads."""
        op = self.ops[i]
        if isinstance(op, Imm):
            value = op.value
            return lambda regs: value
        if isinstance(op, PReg):
            slot = self.register(op)
            if op.cls != "g":
                return operator.itemgetter(slot)

            def read_g(regs):
                value = regs[slot]
                if value is None:
                    raise UnumMachineError(f"read of uninitialized {op}")
                return value
            return read_g
        return _raising(_operand_fault(op))

    def greader(self, i: int) -> Callable[[list], BigFloat]:
        """``regs -> BigFloat`` of operand ``i`` (ints/floats convert at
        the current WGP)."""
        read, op, gvalue = self.reader(i), self.ops[i], self.machine._gvalue

        def gread(regs):
            value = read(regs)
            return value if value.__class__ is BigFloat else \
                gvalue(value, op)
        return gread

    def writer(self, i: int = 0,
               checked: bool = True) -> Callable[[list, object], None]:
        """``(regs, value) -> None`` storing into operand ``i``, which
        must be a physical register unless not ``checked`` (g-layer
        results, as the coprocessor writes them)."""
        op = self.ops[i]
        if checked and not isinstance(op, PReg):
            return _raising(UnumMachineError(f"cannot write operand {op!r}"))
        slot = self.register(op)
        if getattr(op, "cls", None) == "g" or not checked:
            def write(regs, value):
                regs[slot] = value
        else:
            def write(regs, value):
                regs[slot] = 0 if value is None else value
        return write

    def target(self, i: int) -> int:
        """Block index of label operand ``i``; a bad label faults when
        the branch is taken."""
        name = self.ops[i].name.lstrip(".")
        index = self.labels.get(name)
        if index is None:
            self.jump_fault = KeyError(name)
            return -2
        return index


def _operand_fault(op) -> UnumMachineError:
    if isinstance(op, VReg):
        return UnumMachineError(
            "virtual register survived allocation: run regalloc first")
    return UnumMachineError(f"cannot read operand {op!r}")


def _raising(exc: Exception, machine=None, charge: int = 0):
    """A handler (or reader/writer) that raises ``exc`` when called,
    after charging ``machine`` the instruction's up-front cycles."""
    def fault(*_args):
        if charge:
            machine.scalar_cycles += charge
        raise exc.with_traceback(None)
    return fault


def _misjump(handler: Handler, fault: Exception) -> Handler:
    def jump(regs):
        if handler(regs) is not None:
            raise fault.with_traceback(None)
    return jump


def _checked(handler: Handler, checks, machine, charge: int) -> Handler:
    """Fault on an unset g-register that a scalar instruction reads."""
    def checked(regs):
        for slot, op in checks:
            if regs[slot] is None:
                machine.scalar_cycles += charge
                raise UnumMachineError(f"read of uninitialized {op}")
        return handler(regs)
    return checked


# ----------------------------------------------------------------- #
# The instruction set
# ----------------------------------------------------------------- #

def _compute(d, m, cost, fn, *sources) -> Handler:
    """Charge ``cost`` scalar cycles, then write ``fn`` of the
    ``sources`` operands to operand 0."""
    d.charge = cost
    reads = [d.reader(i) for i in sources]
    write = d.writer()

    def compute(regs):
        m.scalar_cycles += cost
        write(regs, fn(*[read(regs) for read in reads]))
    return compute


# ---- scalar integer ------------------------------------------------ #

@_builds("li", "mv")
def _move(d, m, ops, opcode):
    d.charge = 1
    if isinstance(ops[1], Imm):
        value = ops[1].value
        rd = d.dest()

        def move_imm(regs):
            m.scalar_cycles += 1
            regs[rd] = value
        return move_imm
    rs = d.slot(1)
    rd = d.dest()

    def move(regs):
        m.scalar_cycles += 1
        regs[rd] = regs[rs]
    return move


@_builds("la")
def _la(d, m, ops, opcode):
    def la(regs):
        m.scalar_cycles += 1
        raise UnumMachineError("globals not supported by the UNUM machine")
    return la


def _tdiv(a: int, b: int) -> int:
    if b == 0:
        raise UnumMachineError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


_MASK64 = (1 << 64) - 1

_INT_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _tdiv, "rem": lambda a, b: a - _tdiv(a, b) * b,
    "divu": lambda a, b: abs(a) // abs(b) if b else 0,
    "remu": lambda a, b: abs(a) % abs(b) if b else 0,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "sll": lambda a, b: a << (b & 63), "sra": lambda a, b: a >> (b & 63),
    "srl": lambda a, b: (a & _MASK64) >> (b & 63),
}


@_builds(*_INT_OPS)
def _int_op(d, m, ops, opcode):
    cost = d.charge = 3 if opcode in ("mul", "div", "rem") else 1
    fn = _INT_OPS[opcode]
    ra = d.slot(1)
    if isinstance(ops[2], Imm):
        b = ops[2].value
        rd = d.dest()

        def int_op_imm(regs):
            m.scalar_cycles += cost
            regs[rd] = fn(regs[ra], b)
        return int_op_imm
    rb = d.slot(2)
    rd = d.dest()
    if opcode == "add":  # the hottest scalar op: no call
        def add(regs):
            m.scalar_cycles += 1
            regs[rd] = regs[ra] + regs[rb]
        return add

    def int_op(regs):
        m.scalar_cycles += cost
        regs[rd] = fn(regs[ra], regs[rb])
    return int_op


def _int_compare(pred: str, a: int, b: int) -> bool:
    ua, ub = a & _MASK64, b & _MASK64
    return {
        "eq": a == b, "ne": a != b, "slt": a < b, "sle": a <= b,
        "sgt": a > b, "sge": a >= b, "ult": ua < ub, "ule": ua <= ub,
        "ugt": ua > ub, "uge": ua >= ub,
    }[pred]


@_builds("setcc.")
def _setcc(d, m, ops, opcode):
    pred = opcode[6:]
    return _compute(d, m, 1, lambda a, b: int(_int_compare(pred, a, b)),
                    1, 2)


# ---- scalar float -------------------------------------------------- #

def _fdiv(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    return math.copysign(math.inf, a) if a else math.nan


#: opcode -> (CycleCosts field, function of the float operands)
_FLOAT_OPS = {
    "fadd.d": ("f64_add", operator.add), "fsub.d": ("f64_add", operator.sub),
    "fmul.d": ("f64_mul", operator.mul), "fdiv.d": ("f64_div", _fdiv),
    "frem.d": ("f64_div", lambda a, b: math.fmod(a, b) if b else math.nan),
}


@_builds(*_FLOAT_OPS)
def _float_op(d, m, ops, opcode):
    field, fn = _FLOAT_OPS[opcode]
    cost = getattr(m.accounting.costs, field)
    a, b, write = d.reader(1), d.reader(2), d.writer()

    def float_op(regs):
        x, y = float(a(regs)), float(b(regs))  # read before charging
        m.scalar_cycles += cost
        write(regs, fn(x, y))
    return float_op


#: opcode -> (cycles, function of the source operand)
_CONVERSIONS = {
    "fli": (1, float), "fmv": (1, float),
    "fneg.d": (1, lambda a: -float(a)),
    "fcvt.d.w": (2, lambda a: float(int(a))),
    "fcvt.w.d": (2, lambda a: int(float(a))),
}


@_builds(*_CONVERSIONS)
def _convert(d, m, ops, opcode):
    cost, fn = _CONVERSIONS[opcode]
    return _compute(d, m, cost, fn, 1)


def _float_compare(pred: str, a: float, b: float) -> bool:
    unordered = math.isnan(a) or math.isnan(b)
    base = {
        "oeq": a == b, "one": a != b, "olt": a < b, "ole": a <= b,
        "ogt": a > b, "oge": a >= b, "ueq": a == b, "une": a != b,
        "ord": not unordered, "uno": unordered,
    }[pred]
    if pred.startswith("o") and pred not in ("ord",):
        return base and not unordered
    return base


@_builds("fsetcc.")
def _fsetcc(d, m, ops, opcode):
    pred = opcode[7:]
    return _compute(
        d, m, m.accounting.costs.f64_other,
        lambda a, b: int(_float_compare(pred, float(a), float(b))), 1, 2)


_LIBM = {"sqrt": math.sqrt, "fabs": abs, "exp": math.exp, "log": math.log,
         "pow": math.pow, "sin": math.sin, "cos": math.cos,
         "floor": math.floor, "ceil": math.ceil, "fmax": max, "fmin": min}


@_builds("libm.")
def _libm(d, m, ops, opcode):
    fn = _LIBM[opcode[5:]]
    return _compute(d, m, m.accounting.costs.f64_div * 2,
                    lambda *args: fn(*map(float, args)),
                    *range(1, len(ops)))


# ---- memory -------------------------------------------------------- #

@_builds("addsp", "argmv")
def _frame(d, m, ops, opcode):
    """``addsp``: frame base + offset; ``argmv``: an incoming argument."""
    d.charge = 1
    a, write = d.reader(1), d.writer()
    frame = _FRAME if opcode == "addsp" else _ARGS

    def frame_op(regs):
        m.scalar_cycles += 1
        base, n = regs[frame], int(a(regs))
        write(regs, base + n if frame == _FRAME else base[n])
    return frame_op


@_builds("allocd")
def _allocd(d, m, ops, opcode):
    return _compute(d, m, 2, lambda n: m.memory.alloc_stack(int(n)), 1)


@_builds("alloch")
def _alloch(d, m, ops, opcode):
    cost, report = m.accounting.costs.malloc, m.accounting.report
    size, write = d.reader(1), d.writer()

    def alloch(regs):
        m.scalar_cycles += cost
        report.heap_allocations += 1  # counted before the size is read
        write(regs, m.memory.alloc_heap(int(size(regs))))
    return alloch


@_builds("freeh")
def _freeh(d, m, ops, opcode):
    cost = d.charge = m.accounting.costs.free
    a = d.reader(0)

    def freeh(regs):
        m.scalar_cycles += cost
        m.memory.free_heap(int(a(regs)))
    return freeh


@_builds("ld")
def _ld(d, m, ops, opcode):
    return _compute(d, m, 1, lambda a: m.memory.load(int(a), 8, 0), 1)


@_builds("fld")
def _fld(d, m, ops, opcode):
    def fld(a):
        value = m.memory.load(int(a), 8, 0.0)
        return float(value) if value is not None else 0.0
    return _compute(d, m, 1, fld, 1)


@_builds("sd", "fsd")
def _store(d, m, ops, opcode):
    d.charge = 1
    address, value, store = d.reader(1), d.reader(0), m.memory.store
    convert = float if opcode == "fsd" else (lambda v: v)

    def sd(regs):
        m.scalar_cycles += 1
        store(int(address(regs)), convert(value(regs)), 8)
    return sd


@_builds("memset", "memcpy")
def _block_op(d, m, ops, opcode):
    a, b, n = d.reader(0), d.reader(1), d.reader(2)
    memory, access = m.memory, m.accounting.memory_access

    def memset(regs):
        addr, _value, nbytes = int(a(regs)), b(regs), int(n(regs))
        m.scalar_cycles += 2 + nbytes // 8
        memory.clear_range(addr, addr + nbytes)
        access("w", addr, nbytes)

    def memcpy(regs):
        dst, src, nbytes = int(a(regs)), int(b(regs)), int(n(regs))
        m.scalar_cycles += 2 + nbytes // 4
        memory.copy_range(dst, src, nbytes)
        access("r", src, nbytes)
        access("w", dst, nbytes)
    return memset if opcode == "memset" else memcpy


# ---- coprocessor configuration ------------------------------------- #

@_builds("sucfg.ess", "sucfg.fss", "sucfg.wgp", "sucfg.mbb")
def _sucfg(d, m, ops, opcode):
    setter = getattr(m.coprocessor, "set_" + opcode[6:])
    a = d.reader(0)
    return lambda regs: setter(int(a(regs)))


@_builds("sucfg.wgpu")
def _sucfg_wgpu(d, m, ops, opcode):
    cop = m.coprocessor
    a = d.reader(0)
    b = d.reader(1) if len(ops) > 1 else (lambda regs: 0)

    def wgpu(regs):
        fss = int(a(regs))
        size = int(b(regs))
        config = UnumConfig(cop.ess or 4, fss, size or None)
        cop.set_wgp(min(MAX_WGP, config.precision))
    return wgpu


# ---- coprocessor data ---------------------------------------------- #

@_builds("gli")
def _gli(d, m, ops, opcode):
    value = ops[1].value
    glayer = m.coprocessor.glayer
    if not isinstance(value, BigFloat):
        value = float(value)
    rd = d.register(ops[0])
    rounded: Dict[int, BigFloat] = {}  # per WGP; BigFloats are immutable

    def gli(regs):
        wgp = glayer.wgp
        result = rounded.get(wgp)
        if result is None:
            result = value if value.__class__ is BigFloat else \
                BigFloat.from_float(value, wgp)
            result = rounded[wgp] = result.round_to(wgp)
        regs[rd] = result
        m.scalar_cycles += 2
    return gli


@_builds("gmov")
def _gmov(d, m, ops, opcode):
    glayer, gvalue, op = m.coprocessor.glayer, m._gvalue, ops[1]
    rs = d.slot(1, g_ok=True)
    rd = d.register(ops[0])

    def gmov(regs):
        value = regs[rs]
        if value.__class__ is not BigFloat:
            value = gvalue(value, op)
        regs[rd] = value.round_to(glayer.wgp)
        m.scalar_cycles += 1
    return gmov


@_builds("gadd", "gsub", "gmul", "gdiv")
def _g_binary(d, m, ops, opcode):
    cop = m.coprocessor
    kernel = getattr(cop.glayer, opcode[1:])
    bump, gvalue = cop.stats.bump, m._gvalue
    op_a, op_b = ops[1], ops[2]
    ra, rb = d.slot(1, g_ok=True), d.slot(2, g_ok=True)
    rd = d.register(ops[0])

    def g_binary(regs):
        a = regs[ra]
        if a.__class__ is not BigFloat:
            a = gvalue(a, op_a)
        b = regs[rb]
        if b.__class__ is not BigFloat:
            b = gvalue(b, op_b)
        regs[rd] = kernel(a, b)
        bump(opcode)
    return g_binary


@_builds("gfma", "gsqrt", "gabs", "gneg")
def _g_other(d, m, ops, opcode):
    cop = m.coprocessor
    glayer = cop.glayer
    kernel = {"gfma": glayer.fma, "gsqrt": glayer.sqrt, "gneg": glayer.neg,
              "gabs": lambda v: abs(v).round_to(glayer.wgp)}[opcode]
    reads = [d.greader(i) for i in range(1, 4 if opcode == "gfma" else 2)]
    rd = d.register(ops[0])

    def g_other(regs):
        regs[rd] = kernel(*[read(regs) for read in reads])
        cop.stats.bump(opcode)
    return g_other


#: conversion -> function of (source value, current WGP)
_GCVT = {
    "gcvt.d.g": lambda v, wgp: BigFloat.from_float(float(v), wgp),
    "gcvt.w.g": lambda v, wgp: BigFloat.from_int(int(v), max(64, wgp)),
    "gcvt.g.d": lambda v, wgp: v.to_float(),
    "gcvt.g.w": lambda v, wgp: v.to_int() if v.is_finite() else 0,
}


@_builds(*_GCVT)
def _gcvt(d, m, ops, opcode):
    cop, convert = m.coprocessor, _GCVT[opcode]
    cost = cop.glayer.cycle_model.cvt_cost
    to_g = opcode.endswith(".g")
    read = d.reader(1) if to_g else d.greader(1)
    write = d.writer(checked=not to_g)

    def gcvt(regs):
        write(regs, convert(read(regs), cop.glayer.wgp))
        cop.stats.bump(opcode)
        m.scalar_cycles += cost
    return gcvt


def _bigfloat_compare(pred: str, a: BigFloat, b: BigFloat) -> bool:
    unordered = a.is_nan() or b.is_nan()
    cmp = 0 if unordered else a.compare(b)
    if pred == "ord":
        return not unordered
    if pred == "uno":
        return unordered
    base = {
        "oeq": cmp == 0, "one": cmp != 0, "olt": cmp < 0, "ole": cmp <= 0,
        "ogt": cmp > 0, "oge": cmp >= 0, "ueq": cmp == 0, "une": cmp != 0,
    }[pred]
    if pred.startswith("o"):
        return base and not unordered
    return base or unordered


@_builds("gsetcc.")
def _gsetcc(d, m, ops, opcode):
    cop = m.coprocessor
    pred, cost = opcode[7:], cop.glayer.cycle_model.cmp_cost
    a, b, write = d.greader(1), d.greader(2), d.writer()

    def gsetcc(regs):
        x, y = a(regs), b(regs)
        write(regs, int(_bigfloat_compare(pred, x, y)))
        cop.stats.bump("gcmp")
        cop.add_cycles(cost)
    return gsetcc


@_builds("ldu")
def _ldu(d, m, ops, opcode):
    cop, memory = m.coprocessor, m.memory
    glayer, stats, bytes_cost = cop.glayer, cop.stats, cop.memory_model.cost
    access = m.accounting.memory_access
    ra = d.slot(1)
    rd = d.register(ops[0])

    def ldu(regs):
        address = int(regs[ra])
        config = cop.memory_config()
        nbytes = config.size_bytes
        cop._erratum_tick(nbytes)
        raw = memory.load_bytes(address, nbytes)
        regs[rd] = unum_decode(int.from_bytes(raw, "little"),
                               config).round_to(glayer.wgp)
        stats.loads += 1
        stats.bytes_loaded += nbytes
        stats.bump("ldu")
        cop.add_cycles(bytes_cost(nbytes))
        access("r", address, nbytes)
    return ldu


@_builds("stu")
def _stu(d, m, ops, opcode):
    cop, memory, gvalue = m.coprocessor, m.memory, m._gvalue
    stats, bytes_cost = cop.stats, cop.memory_model.cost
    op = ops[0]
    ra = d.slot(1)
    rs = d.slot(0, g_ok=True)

    def stu(regs):
        address = int(regs[ra])
        value = regs[rs]
        if value.__class__ is not BigFloat:
            value = gvalue(value, op)
        config = cop.memory_config()
        nbytes = config.size_bytes
        cop._erratum_tick(nbytes)
        bits = unum_encode(value, config)
        memory.store_bytes(address, bits.to_bytes(nbytes, "little"))
        stats.stores += 1
        stats.bytes_stored += nbytes
        stats.bump("stu")
        cop.add_cycles(bytes_cost(nbytes))
    return stu


# ---- control flow -------------------------------------------------- #

@_builds("j")
def _jump(d, m, ops, opcode):
    d.charge = 1
    target = d.target(0)

    def jump(regs):
        m.scalar_cycles += 1
        return target
    return jump


#: branch -> (integer test on int() operands, predicate when either
#: operand is a float; unsigned branches have none).
_BRANCHES = {
    "beq": (operator.eq, "oeq"), "bne": (operator.ne, "one"),
    "blt": (operator.lt, "olt"), "bge": (operator.ge, "oge"),
    "bltu": (lambda a, b: (a & _MASK64) < (b & _MASK64), None),
    "bgeu": (lambda a, b: (a & _MASK64) >= (b & _MASK64), None),
}


@_builds(*_BRANCHES)
def _branch(d, m, ops, opcode):
    test, float_pred = _BRANCHES[opcode]
    d.charge = 1
    ra, rb = d.slot(0), d.slot(1)
    target = d.target(2)

    def branch(regs):
        m.scalar_cycles += 1
        a, b = regs[ra], regs[rb]
        if isinstance(a, float) or isinstance(b, float):
            if float_pred is None:
                raise KeyError(opcode)
            taken = _float_compare(float_pred, float(a), float(b))
        else:
            taken = test(int(a), int(b))
        if taken:
            return target
    return branch


@_builds("ret")
def _ret(d, m, ops, opcode):
    a = d.reader(0) if ops else (lambda regs: None)

    def ret(regs):
        m.scalar_cycles += 2
        regs[_RESULT] = a(regs)
        return _RETURN
    return ret


@_builds("trap")
def _trap(d, m, ops, opcode):
    return _raising(UnumMachineError("trap executed"))


@_builds("call", "call.void")
def _call(d, m, ops, opcode):
    first = 1 if opcode == "call" else 0
    name = str(ops[first])
    args = [d.reader(i) for i in range(first + 1, len(ops))]
    write = d.writer() if opcode == "call" else (lambda regs, value: None)
    cost = m.accounting.costs.call_overhead

    def call(regs):
        result = m.call(name, [read(regs) for read in args])
        m.scalar_cycles += cost
        write(regs, result)
    return call


# ---- pseudos ------------------------------------------------------- #

@_builds("sel.")
def _select(d, m, ops, opcode):
    d.charge = 1
    cond, a, b, write = d.reader(1), d.reader(2), d.reader(3), d.writer()

    def select(regs):
        m.scalar_cycles += 1
        write(regs, a(regs) if cond(regs) else b(regs))
    return select


@_builds("sizeu")
def _sizeu(d, m, ops, opcode):
    return _compute(
        d, m, 6,
        lambda e, f, s: UnumConfig(int(e), int(f), int(s) or None).size_bytes,
        1, 2, 3)


@_builds("checkattr")
def _checkattr(d, m, ops, opcode):
    d.charge = 1
    a, b = d.reader(0), d.reader(1)

    def checkattr(regs):
        m.scalar_cycles += 1
        if int(a(regs)) != int(b(regs)):
            raise UnumMachineError(
                f"vpfloat attribute mismatch: {int(a(regs))} != "
                f"{int(b(regs))}")
    return checkattr


@_builds("omp.begin", "omp.end")
def _omp(d, m, ops, opcode):
    mark = m.accounting.parallel_begin if opcode == "omp.begin" else \
        m.accounting.parallel_end
    return lambda regs: mark()


@_builds("atomic.begin", "atomic.end", "nop")
def _fixed_cost(d, m, ops, opcode):
    cost = 1 if opcode == "nop" else m.accounting.costs.atomic_section // 2

    def fixed_cost(regs):
        m.scalar_cycles += cost
    return fixed_cost


@_builds("print")
def _print(d, m, ops, opcode):
    a = d.reader(0)

    def print_(regs):
        value = a(regs)
        m.stdout.append(to_str(value) if isinstance(value, BigFloat)
                        else str(value))
    return print_


@_builds("ldspill", "fldspill", "gldspill")
def _ldspill(d, m, ops, opcode):
    d.charge = 2
    offset, size, load = ops[1].index, ops[1].size, m.memory.load
    default = BigFloat.zero(64) if opcode[0] == "g" else 0
    write = d.writer()

    def ldspill(regs):
        m.scalar_cycles += 2
        write(regs, load(regs[_FRAME] + offset, size, default))
    return ldspill


@_builds("sdspill", "fsdspill", "gsdspill")
def _sdspill(d, m, ops, opcode):
    d.charge = 2
    offset, size, store = ops[1].index, ops[1].size, m.memory.store
    a = d.reader(0)

    def sdspill(regs):
        m.scalar_cycles += 2
        store(regs[_FRAME] + offset, a(regs), size)
    return sdspill
