"""IR instruction set (SSA, LLVM-flavoured).

Instructions are Values; operands maintain def-use edges automatically.
Floating-point opcodes (``fadd`` etc.) operate uniformly on IEEE float
types and vpfloat types -- the property the paper's design hinges on:
upstream optimizations never special-case variable precision.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .types import (
    I1,
    VOID,
    ArrayType,
    FloatType,
    FunctionType,
    IRType,
    IntType,
    PointerType,
    StructType,
    VPFloatType,
)
from .values import Value

INT_BINOPS = ("add", "sub", "mul", "sdiv", "srem", "udiv", "urem",
              "and", "or", "xor", "shl", "ashr", "lshr")
FP_BINOPS = ("fadd", "fsub", "fmul", "fdiv", "frem")
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge",
                   "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge",
                   "ueq", "une", "ord", "uno")
CAST_OPCODES = ("zext", "sext", "trunc", "bitcast", "sitofp", "fptosi",
                "uitofp", "fpext", "fptrunc", "vpconv", "ptrtoint",
                "inttoptr")


class Instruction(Value):
    """Base instruction: an SSA value with operands and a parent block."""

    opcode: str = "<abstract>"
    #: True on the three block terminators (br, ret, unreachable).
    is_terminator: bool = False

    def __init__(self, opcode: str, type: IRType,
                 operands: Sequence[Value], name: str = ""):
        super().__init__(type, name)
        self.opcode = opcode
        self.parent = None  # BasicBlock, set on insertion
        self.operands: List[Value] = []
        for op in operands:
            self._append_operand(op)

    # ------------------------------------------------------------ #
    # Operand bookkeeping
    # ------------------------------------------------------------ #

    def _append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise TypeError(f"operand of {self.opcode} must be a Value, "
                            f"got {type(value).__name__}")
        self.operands.append(value)
        value.add_user(self)

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        old.remove_user(self)
        self.operands[index] = value
        value.add_user(self)

    def replace_operand(self, old: Value, new: Value) -> None:
        for i, op in enumerate(self.operands):
            if op is old:
                self.set_operand(i, new)

    def drop_all_references(self) -> None:
        for op in self.operands:
            op.remove_user(self)
        self.operands = []

    def erase_from_parent(self) -> None:
        """Unlink and destroy; the instruction must have no remaining users."""
        if self.users:
            raise RuntimeError(
                f"cannot erase {self.opcode} %{self.name}: it still has users"
            )
        self.drop_all_references()
        if self.parent is not None:
            self.parent.instructions.remove(self)
            self.parent = None

    @property
    def function(self):
        return self.parent.parent if self.parent else None

    @property
    def module(self):
        func = self.function
        return func.parent if func else None

    def __str__(self) -> str:
        ops = ", ".join(_operand_str(o) for o in self.operands)
        if self.type == VOID:
            return f"{self.opcode} {ops}"
        return f"%{self.name} = {self.opcode} {self.type} {ops}"


def _operand_str(v: Value) -> str:
    from .values import Constant

    if isinstance(v, Constant):
        return str(v)
    name = v.name or f"t{id(v) & 0xFFFF:x}"
    prefix = "@" if getattr(v, "is_function_like", False) else "%"
    return f"{prefix}{name}"


# ----------------------------------------------------------------- #
# Memory
# ----------------------------------------------------------------- #

class AllocaInst(Instruction):
    """Stack allocation.  ``count`` (optional) supports VLAs and
    dynamically-sized vpfloat arrays; the element size of a dynamic
    vpfloat type is resolved at runtime via ``__sizeof_vpfloat``."""

    def __init__(self, allocated_type: IRType, count: Optional[Value] = None,
                 name: str = ""):
        operands = [count] if count is not None else []
        super().__init__("alloca", PointerType(allocated_type), operands, name)
        self.allocated_type = allocated_type

    @property
    def count(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def __str__(self) -> str:
        extra = f", count {_operand_str(self.count)}" if self.count else ""
        return f"%{self.name} = alloca {self.allocated_type}{extra}"


class LoadInst(Instruction):
    def __init__(self, ptr: Value, name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"load requires a pointer operand, got {ptr.type}")
        super().__init__("load", ptr.type.pointee, [ptr], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class StoreInst(Instruction):
    def __init__(self, value: Value, ptr: Value):
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"store requires a pointer operand, got {ptr.type}")
        super().__init__("store", VOID, [value, ptr])

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


class GEPInst(Instruction):
    """getelementptr: address arithmetic over arrays/structs.

    The first index scales by the pointee type; further indices step into
    aggregate types.  For pointers to dynamically-sized vpfloat elements
    the byte offset cannot be computed statically -- the UNUM backend's
    address-computation pass rewrites these (paper §III-C2, pass 2).
    """

    def __init__(self, ptr: Value, indices: Sequence[Value], name: str = ""):
        if not isinstance(ptr.type, PointerType):
            raise TypeError(f"gep requires a pointer operand, got {ptr.type}")
        result = _gep_result_type(ptr.type, indices)
        super().__init__("gep", result, [ptr, *indices], name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> List[Value]:
        return self.operands[1:]


def _gep_result_type(ptr_type: PointerType, indices: Sequence[Value]) -> IRType:
    from .values import ConstantInt

    current: IRType = ptr_type.pointee
    for index in indices[1:]:  # first index never changes the type
        if isinstance(current, ArrayType):
            current = current.element
        elif isinstance(current, StructType):
            if not isinstance(index, ConstantInt):
                raise TypeError("struct gep index must be a constant")
            current = current.fields[index.value]
        else:
            raise TypeError(f"cannot gep into scalar type {current}")
    return PointerType(current)


# ----------------------------------------------------------------- #
# Arithmetic / comparison / casts
# ----------------------------------------------------------------- #

class BinaryInst(Instruction):
    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in INT_BINOPS and opcode not in FP_BINOPS:
            raise ValueError(f"unknown binary opcode {opcode}")
        if opcode in FP_BINOPS and not lhs.type.is_fp:
            raise TypeError(f"{opcode} requires FP operands, got {lhs.type}")
        if opcode in INT_BINOPS and not lhs.type.is_integer:
            raise TypeError(f"{opcode} requires integer operands, got {lhs.type}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"{opcode} operand types differ: {lhs.type} vs {rhs.type}"
            )
        super().__init__(opcode, lhs.type, [lhs, rhs], name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class FNegInst(Instruction):
    def __init__(self, value: Value, name: str = ""):
        if not value.type.is_fp:
            raise TypeError(f"fneg requires an FP operand, got {value.type}")
        super().__init__("fneg", value.type, [value], name)


class ICmpInst(Instruction):
    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate {predicate}")
        if lhs.type != rhs.type:
            raise TypeError("icmp operand types differ")
        super().__init__("icmp", I1, [lhs, rhs], name)
        self.predicate = predicate

    def __str__(self) -> str:
        return (f"%{self.name} = icmp {self.predicate} "
                f"{_operand_str(self.operands[0])}, "
                f"{_operand_str(self.operands[1])}")


class FCmpInst(Instruction):
    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = ""):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate {predicate}")
        if lhs.type != rhs.type:
            raise TypeError(
                f"fcmp operand types differ: {lhs.type} vs {rhs.type}"
            )
        super().__init__("fcmp", I1, [lhs, rhs], name)
        self.predicate = predicate

    def __str__(self) -> str:
        return (f"%{self.name} = fcmp {self.predicate} "
                f"{_operand_str(self.operands[0])}, "
                f"{_operand_str(self.operands[1])}")


class CastInst(Instruction):
    """Casts, including ``vpconv`` between any two FP-like types.

    ``vpconv`` is the paper's explicit conversion (no implicit conversions
    exist between vpfloat types, §III-A3); it may lose precision.
    """

    def __init__(self, opcode: str, value: Value, dest_type: IRType,
                 name: str = ""):
        if opcode not in CAST_OPCODES:
            raise ValueError(f"unknown cast opcode {opcode}")
        super().__init__(opcode, dest_type, [value], name)

    @property
    def source(self) -> Value:
        return self.operands[0]

    def __str__(self) -> str:
        return (f"%{self.name} = {self.opcode} "
                f"{_operand_str(self.source)} to {self.type}")


# ----------------------------------------------------------------- #
# Control flow
# ----------------------------------------------------------------- #

class PhiInst(Instruction):
    def __init__(self, type: IRType, name: str = ""):
        super().__init__("phi", type, [], name)
        self.incoming_blocks: List = []

    def add_incoming(self, value: Value, block) -> None:
        self._append_operand(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> List[Tuple[Value, object]]:
        return list(zip(self.operands, self.incoming_blocks))

    def incoming_for_block(self, block) -> Value:
        for value, b in self.incoming:
            if b is block:
                return value
        raise KeyError(f"phi has no incoming edge from {block.name}")

    def remove_incoming(self, block) -> None:
        for i, b in enumerate(self.incoming_blocks):
            if b is block:
                self.operands[i].remove_user(self)
                del self.operands[i]
                del self.incoming_blocks[i]
                return
        raise KeyError(f"phi has no incoming edge from {block.name}")

    def replace_incoming_block(self, old, new) -> None:
        self.incoming_blocks = [new if b is old else b
                                for b in self.incoming_blocks]

    def __str__(self) -> str:
        pairs = ", ".join(
            f"[{_operand_str(v)}, %{b.name}]" for v, b in self.incoming
        )
        return f"%{self.name} = phi {self.type} {pairs}"


class SelectInst(Instruction):
    def __init__(self, cond: Value, true_value: Value, false_value: Value,
                 name: str = ""):
        if true_value.type != false_value.type:
            raise TypeError("select arm types differ")
        super().__init__("select", true_value.type,
                         [cond, true_value, false_value], name)

    @property
    def condition(self) -> Value:
        return self.operands[0]

    @property
    def true_value(self) -> Value:
        return self.operands[1]

    @property
    def false_value(self) -> Value:
        return self.operands[2]


class CallInst(Instruction):
    """Call; ``result_type`` overrides the declared return type for
    type-polymorphic runtime intrinsics (e.g. ``vp.sqrt`` whose result is
    the vpfloat type of its argument)."""

    def __init__(self, callee, args: Sequence[Value], name: str = "",
                 result_type: Optional[IRType] = None):
        if result_type is None:
            result_type = (callee.type.ret
                           if isinstance(callee.type, FunctionType) else VOID)
        super().__init__("call", result_type, list(args), name)
        self.callee = callee

    @property
    def args(self) -> List[Value]:
        return list(self.operands)

    def __str__(self) -> str:
        args = ", ".join(_operand_str(a) for a in self.operands)
        target = getattr(self.callee, "name", str(self.callee))
        if self.type == VOID:
            return f"call @{target}({args})"
        return f"%{self.name} = call {self.type} @{target}({args})"


class BranchInst(Instruction):
    """Unconditional (1 target) or conditional (2 targets) branch."""

    is_terminator = True

    def __init__(self, targets: Sequence, cond: Optional[Value] = None):
        operands = [cond] if cond is not None else []
        super().__init__("br", VOID, operands)
        self.targets = list(targets)
        if cond is not None and len(self.targets) != 2:
            raise ValueError("conditional branch requires two targets")
        if cond is None and len(self.targets) != 1:
            raise ValueError("unconditional branch requires one target")

    @property
    def condition(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    @property
    def is_conditional(self) -> bool:
        return bool(self.operands)

    def replace_target(self, old, new) -> None:
        self.targets = [new if t is old else t for t in self.targets]

    def __str__(self) -> str:
        if self.is_conditional:
            return (f"br {_operand_str(self.condition)}, "
                    f"%{self.targets[0].name}, %{self.targets[1].name}")
        return f"br %{self.targets[0].name}"


class RetInst(Instruction):
    is_terminator = True

    def __init__(self, value: Optional[Value] = None):
        operands = [value] if value is not None else []
        super().__init__("ret", VOID, operands)

    @property
    def value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    def __str__(self) -> str:
        if self.operands:
            return f"ret {_operand_str(self.operands[0])}"
        return "ret void"


class UnreachableInst(Instruction):
    is_terminator = True

    def __init__(self):
        super().__init__("unreachable", VOID, [])

    def __str__(self) -> str:
        return "unreachable"
