"""Scalar optimizations: mem2reg, constant folding, GVN, DCE, SimplifyCFG."""

import itertools
import math
import struct

import pytest

from repro.bigfloat import BigFloat, from_str
from repro.ir import (
    F32,
    F64,
    FCMP_PREDICATES,
    I1,
    I8,
    I32,
    I64,
    ICMP_PREDICATES,
    INT_BINOPS,
    VOID,
    BinaryInst,
    CastInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantVPFloat,
    FCmpInst,
    FNegInst,
    Function,
    FunctionType,
    ICmpInst,
    IntType,
    IRBuilder,
    Module,
    PhiInst,
    RetInst,
    VPFloatType,
    verify_function,
)
from repro.passes import (
    ConstantFoldPass,
    DeadCodeEliminationPass,
    GVNPass,
    Mem2RegPass,
    SimplifyCFGPass,
    build_o3_pipeline,
    fold_instruction,
)
from repro.runtime import Interpreter, VPRuntimeError


def new_function(ret=F64, params=(F64, F64)):
    m = Module("t")
    f = m.add_function(Function("f", FunctionType(ret, list(params))))
    return m, f, IRBuilder(f.add_block("entry"))


class TestMem2Reg:
    def test_promotes_scalar(self):
        m, f, b = new_function()
        slot = b.alloca(F64, name="x")
        b.store(f.args[0], slot)
        loaded = b.load(slot)
        b.ret(loaded)
        assert Mem2RegPass().run(f) == 1
        verify_function(f)
        opcodes = [i.opcode for i in f.instructions()]
        assert "alloca" not in opcodes
        assert "load" not in opcodes
        ret = f.blocks[0].terminator
        assert ret.value is f.args[0]

    def test_phi_insertion_at_merge(self):
        m = Module("t")
        f = m.add_function(Function("f", FunctionType(F64, [I1, F64, F64])))
        entry, left, right, merge = (f.add_block(n) for n in
                                     ("entry", "l", "r", "m"))
        b = IRBuilder(entry)
        slot = b.alloca(F64)
        b.cond_br(f.args[0], left, right)
        b.set_insert_point(left)
        b.store(f.args[1], slot)
        b.br(merge)
        b.set_insert_point(right)
        b.store(f.args[2], slot)
        b.br(merge)
        b.set_insert_point(merge)
        value = b.load(slot)
        b.ret(value)
        Mem2RegPass().run(f)
        verify_function(f)
        phis = merge.phis()
        assert len(phis) == 1
        incoming = {v for v, _ in phis[0].incoming}
        assert incoming == {f.args[1], f.args[2]}

    def test_loop_carried_value(self):
        """i = 0; while (i < n) i = i + 1; return i."""
        m = Module("t")
        f = m.add_function(Function("f", FunctionType(I32, [I32])))
        entry, header, body, exit_ = (f.add_block(n) for n in
                                      ("entry", "h", "b", "e"))
        b = IRBuilder(entry)
        slot = b.alloca(I32)
        b.store(b.const_int(0), slot)
        b.br(header)
        b.set_insert_point(header)
        i1 = b.load(slot)
        cond = b.icmp("slt", i1, f.args[0])
        b.cond_br(cond, body, exit_)
        b.set_insert_point(body)
        i2 = b.load(slot)
        b.store(b.add(i2, b.const_int(1)), slot)
        b.br(header)
        b.set_insert_point(exit_)
        out = b.load(slot)
        b.ret(out)
        Mem2RegPass().run(f)
        verify_function(f)
        assert len(header.phis()) == 1

    def test_escaped_alloca_not_promoted(self):
        m, f, b = new_function(ret=VOID, params=())
        slot = b.alloca(F64, name="x")
        # Address escapes through a call.
        from repro.ir import FunctionType as FT, PointerType

        sink = m.get_or_declare("sink", FT(VOID, (PointerType(F64),)))
        b.call(sink, [slot], name="")
        b.ret()
        assert Mem2RegPass().run(f) == 0
        assert any(i.opcode == "alloca" for i in f.instructions())


class TestConstantFolding:
    def test_int_arith(self):
        inst = BinaryInst("add", ConstantInt(I32, 40), ConstantInt(I32, 2))
        folded = fold_instruction(inst)
        assert isinstance(folded, ConstantInt)
        assert folded.value == 42

    def test_wrapping(self):
        inst = BinaryInst("add", ConstantInt(I32, 2**31 - 1),
                          ConstantInt(I32, 1))
        assert fold_instruction(inst).value == -(2**31)

    def test_division_by_zero_not_folded(self):
        inst = BinaryInst("sdiv", ConstantInt(I32, 1), ConstantInt(I32, 0))
        assert fold_instruction(inst) is None

    def test_float_folding(self):
        inst = BinaryInst("fmul", ConstantFloat(F64, 2.0),
                          ConstantFloat(F64, 3.5))
        assert fold_instruction(inst).value == 7.0

    def test_vpfloat_folding_correctly_rounded(self):
        """Compile-time vpfloat arithmetic uses the same kernels as
        runtime, so folding cannot change results."""
        from repro.bigfloat import BigFloat, from_str
        from repro.ir import ConstantVPFloat

        t = VPFloatType("mpfr", ConstantInt(I32, 16), ConstantInt(I32, 100))
        a = ConstantVPFloat(t, from_str("1.3", 600))
        c = ConstantVPFloat(t, from_str("2.7", 600))
        inst = BinaryInst("fadd", a, c)
        folded = fold_instruction(inst)
        assert isinstance(folded, ConstantVPFloat)
        assert folded.value == BigFloat.from_int(4, 100)

    def test_identities(self):
        m, f, b = new_function(ret=I32, params=(I32,))
        x = f.args[0]
        added = b.add(x, b.const_int(0))
        multiplied = b.mul(added, b.const_int(1))
        b.ret(multiplied)
        ConstantFoldPass().run(f)
        ret = f.blocks[0].terminator
        assert ret.value is x

    def test_fp_identities_respect_neg_zero(self):
        inst = BinaryInst("fadd", ConstantFloat(F64, 1.5),
                          ConstantFloat(F64, -0.0))
        # x + (-0.0) == x is safe.
        assert fold_instruction(inst).value == 1.5

    def test_x_minus_x(self):
        m, f, b = new_function(ret=I32, params=(I32,))
        diff = b.sub(f.args[0], f.args[0])
        b.ret(diff)
        ConstantFoldPass().run(f)
        assert f.blocks[0].terminator.value.value == 0


# ------------------------------------------------------------------ #
# Folding agrees with the walker
# ------------------------------------------------------------------ #

def _ints(bits):
    low = -(1 << (bits - 1)) if bits > 1 else -1
    return sorted({0, 1, -1, low, low + 1, -low - 1, 7 % (1 << bits)})


_FLOATS = (0.0, -0.0, 1.0, -1.5, math.inf, -math.inf, math.nan, 1e300)
_NARROW = VPFloatType("mpfr", ConstantInt(I32, 4), ConstantInt(I32, 24))
_WIDE = VPFloatType("mpfr", ConstantInt(I32, 16), ConstantInt(I32, 100))
_POSIT = VPFloatType("posit", ConstantInt(I32, 2), ConstantInt(I32, 16))
_UNUM = VPFloatType("unum", ConstantInt(I32, 2), ConstantInt(I32, 5))


def _vps(type_):
    return [ConstantVPFloat(type_, v) for v in (
        BigFloat.zero(600), BigFloat.zero(600, 1), from_str("100", 600),
        from_str("-0.1", 600), from_str("1e20", 600), BigFloat.inf(600),
        BigFloat.nan(600))]


def _fold_cases():
    """Every (opcode, operand kind) constfold folds, over edge values:
    the instructions, unattached."""
    ints = {bits: [ConstantInt(IntType(bits), v) for v in _ints(bits)]
            for bits in (1, 8, 32, 64)}
    floats = {t.bits: [ConstantFloat(t, v) for v in _FLOATS]
              for t in (F32, F64)}
    for bits, values in ints.items():
        for a, b in itertools.product(values, values):
            for op in INT_BINOPS:
                yield BinaryInst(op, a, b)
            for pred in ICMP_PREDICATES:
                yield ICmpInst(pred, a, b)
        for a in values:
            for target in (IntType(1), I8, I32, I64):
                if target.bits < bits:
                    yield CastInst("trunc", a, target)
                elif target.bits > bits:
                    yield CastInst("sext", a, target)
                    yield CastInst("zext", a, target)
                else:
                    yield CastInst("bitcast", a, target)
            for target in (F32, F64, _NARROW, _WIDE, _POSIT, _UNUM):
                yield CastInst("sitofp", a, target)
                yield CastInst("uitofp", a, target)
    vps = {t: _vps(t) for t in (_NARROW, _WIDE, _POSIT, _UNUM)}
    for values in list(floats.values()) + list(vps.values()):
        for a, b in itertools.product(values, values):
            for op in ("fadd", "fsub", "fmul", "fdiv", "frem"):
                yield BinaryInst(op, a, b)
            for pred in FCMP_PREDICATES:
                yield FCmpInst(pred, a, b)
        for a in values:
            yield FNegInst(a)
    for bits, values in floats.items():
        for a in values:
            yield CastInst("fpext" if bits == 32 else "fptrunc", a,
                           F64 if bits == 32 else F32)
            for target in vps:
                yield CastInst("vpconv", a, target)
    for values in vps.values():
        for a in values:
            for target in (F32, F64, _NARROW, _WIDE):
                yield CastInst("vpconv", a, target)


def _token(value):
    """Equal iff two runtime values are the same number (signed zeros
    and NaNs included), whatever precision a BigFloat carries."""
    if isinstance(value, BigFloat):
        if not value.is_finite() or value.is_zero():
            return ("bf", value.kind, None if value.is_nan() else value.sign)
        mant, exp = value.mant, value.exp
        while not mant & 1:
            mant, exp = mant >> 1, exp + 1
        return ("bf", value.sign, mant, exp)
    if isinstance(value, float):
        return ("float", "nan" if value != value
                else struct.pack("<d", value).hex())
    return ("int", value)


_TRAP = object()


def _walk(values):
    """Each value run on the legacy walker as ``ret value`` (after the
    value's own instruction if it is one); ``_TRAP`` where it traps."""
    module = Module("t")
    for n, value in enumerate(values):
        f = module.add_function(Function(f"f{n}",
                                         FunctionType(value.type, [])))
        block = f.add_block("entry")
        if not isinstance(value, Constant):
            value.name = "r"
            block.append(value)
        block.append(RetInst(value))
    interp = Interpreter(module, dispatch="legacy")
    results = []
    for n in range(len(values)):
        try:
            results.append(interp.run(f"f{n}").value)
        except VPRuntimeError:
            results.append(_TRAP)
    return results


class TestFoldMatchesWalker:
    """constfold returns what the legacy walker computes on the unfolded
    instruction; it declines to fold only where the walker traps or no
    constant of the type holds the walker's value."""

    def test_every_folded_case(self):
        insts = list(_fold_cases())
        assert len(insts) > 5000
        folds = [fold_instruction(inst) for inst in insts]
        walked = _walk(insts)
        folded = iter(_walk([c for c in folds if c is not None]))
        wrong, declined = [], []
        for inst, fold, value in zip(insts, folds, walked):
            if fold is not None:
                got = next(folded)
                if value is _TRAP or _token(got) != _token(value):
                    wrong.append(f"{inst}: walker {value}, fold {got}")
            elif value is not _TRAP:
                declined.append((inst, value))
        # A declined fold of a value: no constant holds that value.
        held = _walk([ConstantVPFloat(inst.type, value)
                      for inst, value in declined if inst.type.is_vpfloat])
        for inst, value in declined:
            if not inst.type.is_vpfloat or \
                    _token(held.pop(0)) == _token(value):
                wrong.append(f"{inst}: walker {value}, not folded")
        assert not wrong, "\n".join(wrong)


class TestGVN:
    def test_cse_within_block(self):
        m, f, b = new_function()
        x1 = b.fadd(f.args[0], f.args[1])
        x2 = b.fadd(f.args[0], f.args[1])
        total = b.fmul(x1, x2)
        b.ret(total)
        removed = GVNPass().run(f)
        assert removed == 1
        assert total.operands[0] is total.operands[1]

    def test_commutative_matching(self):
        m, f, b = new_function()
        x1 = b.fadd(f.args[0], f.args[1])
        x2 = b.fadd(f.args[1], f.args[0])
        b.ret(b.fmul(x1, x2))
        assert GVNPass().run(f) == 1

    def test_loads_invalidated_by_store(self):
        from repro.ir import PointerType

        m = Module("t")
        f = m.add_function(Function("f", FunctionType(
            F64, [PointerType(F64), F64])))
        b = IRBuilder(f.add_block("entry"))
        ptr = f.args[0]
        first = b.load(ptr)
        b.store(f.args[1], ptr)
        second = b.load(ptr)
        b.ret(b.fadd(first, second))
        assert GVNPass().run(f) == 0  # the store blocks the CSE

    def test_loads_cse_without_clobber(self):
        from repro.ir import PointerType

        m = Module("t")
        f = m.add_function(Function("f", FunctionType(
            F64, [PointerType(F64)])))
        b = IRBuilder(f.add_block("entry"))
        first = b.load(f.args[0])
        second = b.load(f.args[0])
        b.ret(b.fadd(first, second))
        assert GVNPass().run(f) == 1


class TestDCE:
    def test_removes_dead_chain(self):
        m, f, b = new_function()
        dead1 = b.fadd(f.args[0], f.args[1])
        dead2 = b.fmul(dead1, dead1)
        b.ret(f.args[0])
        removed = DeadCodeEliminationPass().run(f)
        assert removed == 2

    def test_keeps_side_effecting_calls(self):
        m, f, b = new_function(ret=VOID, params=())
        sizeof = m.get_or_declare(
            "__sizeof_vpfloat",
            FunctionType(I32, (I32, I32, I32)))
        b.call(sizeof, [b.const_int(4), b.const_int(9), b.const_int(0)])
        b.ret()
        assert DeadCodeEliminationPass().run(f) == 0  # validation must stay

    def test_attribute_values_pinned(self):
        """DCE must not delete Values used as vpfloat type attributes."""
        m = Module("t")
        f = m.add_function(Function("f", FunctionType(VOID, [I32]), ["p"]))
        b = IRBuilder(f.add_block("entry"))
        doubled = b.add(f.args[0], f.args[0], name="p2")
        vptype = VPFloatType("mpfr", ConstantInt(I32, 16), doubled)
        m.register_vpfloat_type(vptype)
        slot = b.alloca(vptype)
        loaded = b.load(slot)
        b.store(loaded, slot)
        b.ret()
        DeadCodeEliminationPass().run(f)
        assert doubled.parent is not None  # still in the function


class TestSimplifyCFG:
    def test_constant_branch_folded(self):
        m = Module("t")
        f = m.add_function(Function("f", FunctionType(I32, [])))
        entry, then, other = (f.add_block(n) for n in ("entry", "t", "o"))
        b = IRBuilder(entry)
        b.cond_br(b.const_bool(True), then, other)
        b.set_insert_point(then)
        b.ret(b.const_int(1))
        b.set_insert_point(other)
        b.ret(b.const_int(2))
        SimplifyCFGPass().run(f)
        verify_function(f)
        assert len(f.blocks) == 1
        assert f.blocks[0].terminator.value.value == 1

    def test_block_merging(self):
        m = Module("t")
        f = m.add_function(Function("f", FunctionType(I32, [I32])))
        entry, second = f.add_block("entry"), f.add_block("second")
        b = IRBuilder(entry)
        doubled = b.add(f.args[0], f.args[0])
        b.br(second)
        b.set_insert_point(second)
        b.ret(doubled)
        SimplifyCFGPass().run(f)
        verify_function(f)
        assert len(f.blocks) == 1

    def test_trivial_phi_removed(self):
        m = Module("t")
        f = m.add_function(Function("f", FunctionType(I32, [I1, I32])))
        entry, left, right, merge = (f.add_block(n) for n in
                                     ("entry", "l", "r", "m"))
        b = IRBuilder(entry)
        b.cond_br(f.args[0], left, right)
        b.set_insert_point(left)
        b.br(merge)
        b.set_insert_point(right)
        b.br(merge)
        b.set_insert_point(merge)
        phi = b.phi(I32)
        phi.add_incoming(f.args[1], left)
        phi.add_incoming(f.args[1], right)
        b.ret(phi)
        SimplifyCFGPass().run(f)
        verify_function(f)
        assert f.blocks[-1].terminator.value is f.args[1] or \
            len(f.blocks) == 1


class TestO3Pipeline:
    O3 = ["inline", "mem2reg", "constfold", "simplifycfg", "gvn", "licm",
          "loop-idiom", "loop-unroll", "constfold", "gvn", "dce",
          "simplifycfg", "dce"]

    def names(self, **kwargs):
        return [pass_.name for pass_ in build_o3_pipeline(**kwargs).passes]

    def test_run_order(self):
        assert self.names() == self.O3

    def test_disable_drops_every_entry_of_a_name(self):
        assert self.names(disable=("gvn", "dce")) == \
            [name for name in self.O3 if name not in ("gvn", "dce")]
        with pytest.raises(ValueError, match="choose from"):
            build_o3_pipeline(disable=("fma-contract",))

    def test_fresh_instances_per_call(self):
        first, second = build_o3_pipeline(), build_o3_pipeline()
        assert not {id(p) for p in first.passes} & \
            {id(p) for p in second.passes}
