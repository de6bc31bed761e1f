"""Loop Idiom Recognition, extended for dynamically-sized vpfloat types.

Transforms zero-initialization loops into ``memset`` calls and
element-copy loops into ``memcpy`` calls (the two idioms the paper names
in §III-B).  The paper's two modifications are reproduced:

- when the element type is a *dynamically-sized* vpfloat, the byte count
  is computed at runtime by multiplying the trip count with a
  ``__sizeof_vpfloat`` call;
- the idiom is **disabled for mpfr vpfloat types**: an ``__mpfr_struct``
  holds a pointer to its mantissa limbs, so a raw memset/memcpy would
  corrupt or alias mantissa storage (§III-B: "Due to the requirements of
  mpfr types, this optimization can only be enabled for unum types").
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..ir import (
    BinaryInst,
    BranchInst,
    CallInst,
    ConstantFloat,
    ConstantInt,
    ConstantVPFloat,
    Function,
    FunctionType,
    GEPInst,
    I8,
    I32,
    I64,
    ICmpInst,
    LoadInst,
    Loop,
    LoopInfo,
    PhiInst,
    PointerType,
    StoreInst,
    VOID,
    Value,
    VPFloatType,
)
from .pass_manager import FunctionPass


class LoopIdiomPass(FunctionPass):
    name = "loop-idiom"

    def __init__(self, allow_unum: bool = True):
        self.allow_unum = allow_unum

    def run(self, func: Function) -> int:
        changed = 0
        loopinfo = LoopInfo(func)
        for loop in loopinfo.innermost():
            if self._try_rewrite(func, loop):
                changed += 1
        return changed

    # ------------------------------------------------------------ #

    def _try_rewrite(self, func: Function, loop: Loop) -> bool:
        shape = self._canonical_shape(loop)
        if shape is None:
            return False
        header, body, induction, bound = shape
        idiom = self._match_body(body, induction, loop)
        if idiom is None:
            return False
        kind, store, load = idiom
        element_type = store.value.type
        if isinstance(element_type, VPFloatType):
            if element_type.format == "mpfr":
                return False  # paper: mpfr structs cannot be memset/memcpy'd
            if not self.allow_unum:
                return False
        preheader = loop.preheader()
        if preheader is None:
            return False
        exits = loop.exits()
        if len(exits) != 1:
            return False
        exit_block = exits[0]
        # Exit-block phis must not depend on loop values we cannot rebuild.
        for phi in exit_block.phis():
            return False

        module = func.parent
        insert_before = preheader.instructions[-1]

        def emit(inst):
            inst.parent = preheader
            preheader.instructions.insert(
                preheader.instructions.index(insert_before), inst)
            return inst

        # Byte count = trip_count * element_size.
        trip = self._as_i64(emit, bound)
        elem_size = self._element_size(emit, module, func, element_type)
        total = emit(BinaryInst("mul", trip, elem_size))
        total.name = func.unique_name("idiom.bytes")
        if not trip.name:
            # An unnamed operand prints as an address-derived temporary.
            trip.name = func.unique_name("idiom.trip")

        base_ptr = store.pointer
        base = self._base_pointer(base_ptr)
        base = self._hoist_base(base, loop, preheader)
        if base is None:
            return False
        if kind == "memset":
            callee = module.get_or_declare(
                "memset", FunctionType(VOID, (PointerType(I8), I32, I64)))
            call = CallInst(callee, [base, ConstantInt(I32, 0), total])
        else:
            src_base = self._hoist_base(self._base_pointer(load.pointer),
                                        loop, preheader)
            if src_base is None:
                return False
            callee = module.get_or_declare(
                "memcpy",
                FunctionType(VOID, (PointerType(I8), PointerType(I8), I64)))
            call = CallInst(callee, [base, src_base, total])
        emit(call)

        # Bypass the loop entirely.
        preheader.terminator.replace_target(header, exit_block)
        return True

    # ------------------------------------------------------------ #

    def _canonical_shape(self, loop: Loop) -> Optional[Tuple]:
        """Match for(i=0; i<N; ++i) with a single body block."""
        header = loop.header
        term = header.terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            return None
        cond = term.condition
        if not isinstance(cond, ICmpInst) or cond.predicate not in (
            "slt", "ult"
        ):
            return None
        phis = header.phis()
        if len(phis) != 1:
            return None
        induction = phis[0]
        if cond.operands[0] is not induction:
            return None
        bound = cond.operands[1]
        # Induction must start at 0 and step by 1.
        start = step_add = None
        for value, block in induction.incoming:
            if block in loop.blocks:
                step_add = value
            else:
                start = value
        if not isinstance(start, ConstantInt) or start.value != 0:
            return None
        if not isinstance(step_add, BinaryInst) or step_add.opcode != "add":
            return None
        operands = step_add.operands
        if not ((operands[0] is induction and _is_one(operands[1])) or
                (operands[1] is induction and _is_one(operands[0]))):
            return None
        body_blocks = [b for b in loop.blocks if b is not header]
        if len(body_blocks) > 2:
            return None
        bound_block = getattr(bound, "parent", None)
        if bound_block is not None and bound_block in loop.blocks:
            return None  # bound not available at the preheader
        return header, body_blocks, induction, bound

    def _match_body(self, body_blocks, induction, loop):
        """The body must be exactly one store of a zero constant (memset)
        or one load+store pair (memcpy), plus address computation."""
        stores = []
        loads = []
        for block in body_blocks:
            for inst in block.instructions:
                if isinstance(inst, StoreInst):
                    stores.append(inst)
                elif isinstance(inst, LoadInst):
                    loads.append(inst)
                elif isinstance(inst, CallInst):
                    name = getattr(inst.callee, "name", "")
                    if name not in ("__sizeof_vpfloat",
                                    "__sizeof_vpfloat_mpfr"):
                        return None
                elif not isinstance(inst, (GEPInst, BinaryInst, PhiInst,
                                           BranchInst, ICmpInst)) and \
                        inst.opcode not in ("sext", "zext", "trunc"):
                    return None
        if len(stores) != 1:
            return None
        store = stores[0]
        if not self._strided_by_induction(store.pointer, induction):
            return None
        if len(loads) == 0:
            if _is_zero_constant(store.value):
                return ("memset", store, None)
            return None
        if len(loads) == 1 and store.value is loads[0]:
            if self._strided_by_induction(loads[0].pointer, induction):
                return ("memcpy", store, loads[0])
        return None

    def _strided_by_induction(self, pointer: Value, induction) -> bool:
        """pointer must be gep(base, f(i)) with a unit stride in i."""
        if not isinstance(pointer, GEPInst):
            return False
        if len(pointer.indices) != 1:
            # gep [0, i] into a fixed array is also unit-stride.
            if len(pointer.indices) == 2 and \
                    isinstance(pointer.indices[0], ConstantInt) and \
                    pointer.indices[0].value == 0:
                index = pointer.indices[1]
            else:
                return False
        else:
            index = pointer.indices[0]
        return self._is_induction_expr(index, induction)

    def _is_induction_expr(self, index: Value, induction) -> bool:
        if index is induction:
            return True
        if hasattr(index, "opcode") and index.opcode in ("sext", "zext"):
            return self._is_induction_expr(index.operands[0], induction)
        return False

    def _base_pointer(self, pointer: Value) -> Optional[Value]:
        if isinstance(pointer, GEPInst):
            return pointer.pointer
        return None

    def _hoist_base(self, base: Optional[Value], loop: Loop,
                    preheader) -> Optional[Value]:
        """Make the array base available at the preheader.  Loop-invariant
        decay GEPs (e.g. ``gep [N x T]* %A, 0, 0``) are moved out."""
        if base is None:
            return None
        if self._available_outside(base, loop):
            return base
        if isinstance(base, GEPInst) and all(
            self._available_outside(op, loop) for op in base.operands
        ):
            base.parent.instructions.remove(base)
            base.parent = preheader
            terminator = preheader.instructions[-1]
            preheader.instructions.insert(
                preheader.instructions.index(terminator), base)
            return base
        return None

    def _available_outside(self, value: Value, loop: Loop) -> bool:
        block = getattr(value, "parent", None)
        return block is None or block not in loop.blocks

    def _as_i64(self, emit, value: Value) -> Value:
        if value.type == I64:
            return value
        if isinstance(value, ConstantInt):
            return ConstantInt(I64, value.value)
        cast = emit(_sext(value))
        return cast

    def _element_size(self, emit, module, func, element_type) -> Value:
        if isinstance(element_type, VPFloatType) and not element_type.is_static:
            # Dynamically-sized: runtime __sizeof_vpfloat (paper §III-B).
            exp, prec = element_type.exp_attr, element_type.prec_attr
            size = element_type.size_attr or ConstantInt(I32, 0)
            callee = module.get_or_declare(
                "__sizeof_vpfloat", FunctionType(I64, (I32, I32, I32)))
            call = CallInst(callee, [exp, prec, size])
            call.name = func.unique_name("idiom.elemsize")
            emit(call)
            return call
        size = element_type.size_bytes() \
            if not isinstance(element_type, VPFloatType) \
            else element_type.static_geometry()[2]
        return ConstantInt(I64, size)


def _is_one(v: Value) -> bool:
    return isinstance(v, ConstantInt) and v.value == 1


def _is_zero_constant(v: Value) -> bool:
    if isinstance(v, ConstantInt):
        return v.value == 0
    if isinstance(v, ConstantFloat):
        return v.value == 0.0
    if isinstance(v, ConstantVPFloat):
        return v.value.is_zero()
    return False


def _sext(value: Value):
    from ..ir import CastInst

    return CastInst("sext", value, I64)
