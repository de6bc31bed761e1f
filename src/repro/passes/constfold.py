"""Constant folding + algebraic instruction simplification.

Folds integer/float/vpfloat constant expressions through the runtime's
op functions (``repro.runtime.interpreter``: ``int_binary``,
``float_binary``, ``vp_binary``, ``icmp_value``, ``fcmp_value``,
``cast_value``), applied to each constant's runtime value, so a folded
value is the one the program computes unoptimized.  An op is left in
place where it traps at runtime, or where no constant of its type holds
its value (a vpfloat constant is rounded into its format on use).  It
also applies identity simplifications (x+0, x*1, x*0 for integers;
branches on constants are left to SimplifyCFG).
"""

from __future__ import annotations

from typing import Optional

from ..ir import (
    I1,
    BinaryInst,
    CastInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantVPFloat,
    FCmpInst,
    FNegInst,
    Function,
    ICmpInst,
    Instruction,
    SelectInst,
    Value,
)
from ..runtime.interpreter import (
    VPRuntimeError,
    cast_value,
    constant_of,
    constant_value,
    fcmp_value,
    float_binary,
    icmp_value,
    int_binary,
    type_format,
    vp_binary,
)
from .pass_manager import FunctionPass


class ConstantFoldPass(FunctionPass):
    name = "constfold"

    def run(self, func: Function) -> int:
        changed = 0
        again = True
        while again:
            again = False
            for inst in list(func.instructions()):
                folded = fold_instruction(inst)
                if folded is not None and folded is not inst:
                    inst.replace_all_uses_with(folded)
                    if not inst.users:
                        inst.erase_from_parent()
                    changed += 1
                    again = True
        return changed


def fold_instruction(inst: Instruction) -> Optional[Value]:
    if isinstance(inst, BinaryInst):
        return _fold_binary(inst)
    if isinstance(inst, FNegInst):
        operand = inst.operands[0]
        if isinstance(operand, ConstantFloat):
            return ConstantFloat(operand.type, -operand.value)
        if isinstance(operand, ConstantVPFloat):
            negated = ConstantVPFloat(operand.type, -operand.value)
            if not operand.type.is_static:
                # Unresolvable here, but negating the literal is exact
                # and rounding to nearest commutes with negation.
                return negated
            return _evaluate(operand.type, lambda: -_runtime_value(operand),
                             negated)
        return None
    if isinstance(inst, ICmpInst):
        a, b = inst.operands
        if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
            return ConstantInt(I1, icmp_value(inst.predicate, a.value,
                                              b.value, a.type.bits))
        if a is b and inst.predicate in ("eq", "sle", "sge", "ule", "uge"):
            return ConstantInt(I1, 1)
        if a is b and inst.predicate in ("ne", "slt", "sgt", "ult", "ugt"):
            return ConstantInt(I1, 0)
        return None
    if isinstance(inst, FCmpInst):
        a, b = inst.operands
        if isinstance(a, _FP_CONSTANTS) and isinstance(b, _FP_CONSTANTS):
            return _evaluate(I1, lambda: fcmp_value(
                _runtime_value(a), _runtime_value(b), inst.predicate))
        return None
    if isinstance(inst, CastInst):
        return _fold_cast(inst)
    if isinstance(inst, SelectInst):
        cond = inst.condition
        if isinstance(cond, ConstantInt):
            return inst.true_value if cond.value else inst.false_value
        return None
    return None


_FP_CONSTANTS = (ConstantFloat, ConstantVPFloat)


def _runtime_value(c: Constant):
    """The value the runtime computes with for constant ``c``."""
    return constant_value(
        c, type_format(c.type) if isinstance(c, ConstantVPFloat) else None)


def _evaluate(type_, compute, constant=None) -> Optional[Constant]:
    """A constant of ``type_`` (default: ``compute()``'s value) whose
    runtime value is ``compute()``'s; None where ``compute`` traps (the
    trap is kept) or where the constant, rounded into its vpfloat format
    on use, would not hold that value."""
    try:
        value = compute()
    except VPRuntimeError:
        return None
    if constant is None:
        constant = constant_of(type_, value)
    if type_.is_vpfloat:
        held = constant_value(constant, type_format(type_))
        if not (held.is_nan() and value.is_nan()
                or held == value and held.sign == value.sign):
            return None
    return constant


def _fold_binary(inst: BinaryInst) -> Optional[Value]:
    a, b = inst.lhs, inst.rhs
    op = inst.opcode
    type_ = inst.type
    # Full constant folding.
    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return _evaluate(type_, lambda: int_binary(op, a.value, b.value,
                                                   type_.bits))
    if isinstance(a, ConstantFloat) and isinstance(b, ConstantFloat):
        return _evaluate(type_, lambda: float_binary(
            op, _runtime_value(a), _runtime_value(b), type_.bits))
    if isinstance(a, ConstantVPFloat) and isinstance(b, ConstantVPFloat) \
            and type_.is_vpfloat:
        return _evaluate(type_, lambda: vp_binary(
            op, _runtime_value(a), _runtime_value(b),
            type_format(type_)))
    # Identities.
    if op == "add":
        if _is_int(b, 0):
            return a
        if _is_int(a, 0):
            return b
    elif op == "sub":
        if _is_int(b, 0):
            return a
        if a is b:
            return ConstantInt(inst.type, 0)
    elif op == "mul":
        if _is_int(b, 1):
            return a
        if _is_int(a, 1):
            return b
        if _is_int(a, 0) or _is_int(b, 0):
            return ConstantInt(inst.type, 0)
    elif op in ("sdiv", "udiv"):
        if _is_int(b, 1):
            return a
    elif op in ("and",):
        if _is_int(b, 0) or _is_int(a, 0):
            return ConstantInt(inst.type, 0)
        if a is b:
            return a
    elif op in ("or", "xor"):
        if _is_int(b, 0):
            return a
        if _is_int(a, 0):
            return b
        if op == "xor" and a is b:
            return ConstantInt(inst.type, 0)
        if op == "or" and a is b:
            return a
    elif op in ("shl", "ashr", "lshr"):
        if _is_int(b, 0):
            return a
    elif op == "fadd":
        # FP identities must respect signed zeros: x + 0.0 == x only
        # because (+0) + x = x for finite x; x + (-0.0) == x always.
        if _is_float(b, 0.0) and not _float_is_negzero(b):
            return a
    elif op == "fmul":
        if _is_float(b, 1.0):
            return a
        if _is_float(a, 1.0):
            return b
    elif op == "fdiv":
        if _is_float(b, 1.0):
            return a
    elif op == "fsub":
        if _is_float(b, 0.0) and not _float_is_negzero(b):
            return a
    return None


def _is_int(v: Value, n: int) -> bool:
    return isinstance(v, ConstantInt) and v.value == n


def _is_float(v: Value, x: float) -> bool:
    return isinstance(v, ConstantFloat) and v.value == x


def _float_is_negzero(v: Value) -> bool:
    import math

    return isinstance(v, ConstantFloat) and v.value == 0.0 and \
        math.copysign(1.0, v.value) < 0


#: (cast opcode, constant source class) -> the target kinds it folds to.
_FOLDED_CASTS = {
    ("sext", ConstantInt): ("int",), ("trunc", ConstantInt): ("int",),
    ("bitcast", ConstantInt): ("int",), ("zext", ConstantInt): ("int",),
    ("sitofp", ConstantInt): ("float", "vp"),
    ("uitofp", ConstantInt): ("float", "vp"),
    ("fpext", ConstantFloat): ("float",),
    ("fptrunc", ConstantFloat): ("float",),
    ("vpconv", ConstantFloat): ("vp",),
    ("vpconv", ConstantVPFloat): ("float", "vp"),
}


def _fold_cast(inst: CastInst) -> Optional[Value]:
    source, target = inst.source, inst.type
    kind = ("int" if target.is_integer else "float" if target.is_float
            else "vp" if target.is_vpfloat else None)
    if kind not in _FOLDED_CASTS.get((inst.opcode, type(source)), ()):
        return None
    return _evaluate(target, lambda: cast_value(
        inst.opcode, _runtime_value(source), getattr(source.type, "bits", 0),
        getattr(target, "bits", 0),
        type_format(target) if kind == "vp" else None))
