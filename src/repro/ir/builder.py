"""Convenience IRBuilder with an insertion point, LLVM-style."""

from __future__ import annotations

from typing import Optional, Sequence

from .instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    FNegInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from .module import BasicBlock, Function, Module
from .types import (
    F64,
    I1,
    I32,
    FloatType,
    IntType,
    IRType,
    VPFloatType,
)
from .values import ConstantFloat, ConstantInt, ConstantVPFloat, Value


class IRBuilder:
    """Creates instructions at an insertion point and names them."""

    def __init__(self, block: Optional[BasicBlock] = None):
        self.block = block

    def set_insert_point(self, block: BasicBlock) -> None:
        self.block = block

    @property
    def function(self) -> Function:
        return self.block.parent

    @property
    def module(self) -> Module:
        return self.function.parent

    def _insert(self, inst: Instruction, name: str) -> Instruction:
        if name and not inst.name:
            inst.name = self.function.unique_name(name)
        elif not inst.name and inst.type.__class__.__name__ != "VoidType":
            inst.name = self.function.unique_name(inst.opcode)
        if isinstance(inst.type, VPFloatType) and self.module is not None:
            self.module.register_vpfloat_type(inst.type)
        self.block.append(inst)
        return inst

    # ------------------------------------------------------------ #
    # Constants
    # ------------------------------------------------------------ #

    def const_int(self, value: int, type: IntType = I32) -> ConstantInt:
        return ConstantInt(type, value)

    def const_bool(self, value: bool) -> ConstantInt:
        return ConstantInt(I1, int(value))

    def const_float(self, value: float, type: FloatType = F64) -> ConstantFloat:
        return ConstantFloat(type, value)

    def const_vpfloat(self, vptype: VPFloatType, value) -> ConstantVPFloat:
        if self.module is not None:
            self.module.register_vpfloat_type(vptype)
        return ConstantVPFloat(vptype, value)

    # ------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------ #

    def alloca(self, type: IRType, count: Optional[Value] = None,
               name: str = "addr") -> AllocaInst:
        if isinstance(type, VPFloatType) and self.module is not None:
            self.module.register_vpfloat_type(type)
        return self._insert(AllocaInst(type, count), name)

    def load(self, ptr: Value, name: str = "load") -> LoadInst:
        return self._insert(LoadInst(ptr), name)

    def store(self, value: Value, ptr: Value) -> StoreInst:
        return self._insert(StoreInst(value, ptr), "")

    def gep(self, ptr: Value, indices: Sequence[Value],
            name: str = "gep") -> GEPInst:
        return self._insert(GEPInst(ptr, indices), name)

    # ------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------ #

    def binop(self, opcode: str, lhs: Value, rhs: Value,
              name: str = "") -> BinaryInst:
        return self._insert(BinaryInst(opcode, lhs, rhs), name or opcode)

    def add(self, a, b, name="add"):
        return self.binop("add", a, b, name)

    def sub(self, a, b, name="sub"):
        return self.binop("sub", a, b, name)

    def mul(self, a, b, name="mul"):
        return self.binop("mul", a, b, name)

    def sdiv(self, a, b, name="sdiv"):
        return self.binop("sdiv", a, b, name)

    def srem(self, a, b, name="srem"):
        return self.binop("srem", a, b, name)

    def fadd(self, a, b, name="fadd"):
        return self.binop("fadd", a, b, name)

    def fsub(self, a, b, name="fsub"):
        return self.binop("fsub", a, b, name)

    def fmul(self, a, b, name="fmul"):
        return self.binop("fmul", a, b, name)

    def fdiv(self, a, b, name="fdiv"):
        return self.binop("fdiv", a, b, name)

    def fneg(self, a, name="fneg"):
        return self._insert(FNegInst(a), name)

    def icmp(self, predicate: str, lhs: Value, rhs: Value,
             name: str = "cmp") -> ICmpInst:
        return self._insert(ICmpInst(predicate, lhs, rhs), name)

    def fcmp(self, predicate: str, lhs: Value, rhs: Value,
             name: str = "fcmp") -> FCmpInst:
        return self._insert(FCmpInst(predicate, lhs, rhs), name)

    def cast(self, opcode: str, value: Value, dest: IRType,
             name: str = "cast") -> CastInst:
        if isinstance(dest, VPFloatType) and self.module is not None:
            self.module.register_vpfloat_type(dest)
        return self._insert(CastInst(opcode, value, dest), name)

    def vpconv(self, value: Value, dest: IRType, name: str = "vpconv"):
        return self.cast("vpconv", value, dest, name)

    def select(self, cond: Value, a: Value, b: Value,
               name: str = "select") -> SelectInst:
        return self._insert(SelectInst(cond, a, b), name)

    # ------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------ #

    def phi(self, type: IRType, name: str = "phi") -> PhiInst:
        inst = PhiInst(type)
        inst.name = self.function.unique_name(name)
        if isinstance(type, VPFloatType) and self.module is not None:
            self.module.register_vpfloat_type(type)
        # Phis must precede non-phi instructions.
        position = 0
        for i, existing in enumerate(self.block.instructions):
            if isinstance(existing, PhiInst):
                position = i + 1
        inst.parent = self.block
        self.block.instructions.insert(position, inst)
        return inst

    def call(self, callee, args: Sequence[Value], name: str = "call",
             result_type: Optional[IRType] = None) -> CallInst:
        inst = CallInst(callee, args, result_type=result_type)
        if isinstance(inst.type, VPFloatType) and self.module is not None:
            self.module.register_vpfloat_type(inst.type)
        return self._insert(inst, name)

    def br(self, dest: BasicBlock) -> BranchInst:
        return self._insert(BranchInst([dest]), "")

    def cond_br(self, cond: Value, true_dest: BasicBlock,
                false_dest: BasicBlock) -> BranchInst:
        return self._insert(BranchInst([true_dest, false_dest], cond), "")

    def ret(self, value: Optional[Value] = None) -> RetInst:
        return self._insert(RetInst(value), "")

    def unreachable(self) -> UnreachableInst:
        return self._insert(UnreachableInst(), "")
