"""Global value numbering / dominator-scoped CSE.

Because vpfloat operations are plain ``fadd``/``fmul`` SSA instructions
(paper §III-B), redundant variable-precision computations CSE exactly like
doubles -- one of the concrete wins over Boost's opaque library calls.
Loads are value-numbered too, invalidated at stores and calls (a simple
memory generation counter per block walk).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..ir import (
    BinaryInst,
    CallInst,
    CastInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantVPFloat,
    DominatorTree,
    FCmpInst,
    FNegInst,
    Function,
    GEPInst,
    ICmpInst,
    LoadInst,
    SelectInst,
    StoreInst,
)
from .pass_manager import FunctionPass

_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


def _value_key(v) -> object:
    if isinstance(v, ConstantInt):
        return ("ci", v.type.bits, v.value)
    if isinstance(v, ConstantFloat):
        return ("cf", v.type.bits, v.value)
    if isinstance(v, ConstantVPFloat):
        return ("cvp", id(v.type), str(v.value))
    return ("v", id(v))


class GVNPass(FunctionPass):
    name = "gvn"

    def run(self, func: Function) -> int:
        domtree = DominatorTree(func)
        self.removed = 0
        # Erased instructions are pinned for the duration of the run so
        # Python cannot recycle their id()s into stale value-number keys.
        self._pinned = []

        def walk(block, table: Dict[Tuple, object], memory_gen: int):
            table = dict(table)
            for inst in list(block.instructions):
                key = self._key(inst, memory_gen)
                if isinstance(inst, (StoreInst, CallInst)):
                    if self._clobbers_memory(inst):
                        memory_gen += 1
                if key is None:
                    continue
                existing = table.get(key)
                if existing is not None:
                    inst.replace_all_uses_with(existing)
                    if not inst.users:
                        inst.erase_from_parent()
                        self._pinned.append(inst)
                        self.removed += 1
                    continue
                table[key] = inst
            for child in domtree.children.get(block, ()):
                # Memory state is control-dependent: only pass load
                # numbers down when the child has a single predecessor
                # (otherwise merges could see stale values).  GVN erases
                # no terminator, so the domtree's predecessor map stays
                # exact for the whole walk.
                if len(domtree.preds.get(child, ())) == 1:
                    walk(child, table, memory_gen)
                else:
                    pruned = {k: v for k, v in table.items()
                              if k and k[0] != "load"}
                    walk(child, pruned, memory_gen)

        if func.blocks:
            walk(func.entry, {}, 0)
        return self.removed

    def _clobbers_memory(self, inst) -> bool:
        if isinstance(inst, StoreInst):
            return True
        if isinstance(inst, CallInst):
            name = getattr(inst.callee, "name", "")
            # Marker intrinsics and checks never write user memory.
            return name not in (
                "vpfloat.attr.keepalive", "__vpfloat_check_attr",
                "__sizeof_vpfloat", "__sizeof_vpfloat_mpfr",
            )
        return False

    def _key(self, inst, memory_gen: int):
        if isinstance(inst, BinaryInst):
            a = _value_key(inst.lhs)
            b = _value_key(inst.rhs)
            if inst.opcode in _COMMUTATIVE and repr(b) < repr(a):
                a, b = b, a
            return ("bin", inst.opcode, _type_key(inst.type), a, b)
        if isinstance(inst, FNegInst):
            return ("fneg", _type_key(inst.type),
                    _value_key(inst.operands[0]))
        if isinstance(inst, ICmpInst):
            return ("icmp", inst.predicate, _value_key(inst.operands[0]),
                    _value_key(inst.operands[1]))
        if isinstance(inst, FCmpInst):
            return ("fcmp", inst.predicate, _value_key(inst.operands[0]),
                    _value_key(inst.operands[1]))
        if isinstance(inst, CastInst):
            return ("cast", inst.opcode, _type_key(inst.type),
                    _value_key(inst.source))
        if isinstance(inst, GEPInst):
            return ("gep", _value_key(inst.pointer),
                    tuple(_value_key(i) for i in inst.indices))
        if isinstance(inst, SelectInst):
            return ("select", _value_key(inst.condition),
                    _value_key(inst.true_value),
                    _value_key(inst.false_value))
        if isinstance(inst, LoadInst):
            return ("load", memory_gen, _value_key(inst.pointer),
                    _type_key(inst.type))
        if isinstance(inst, CallInst):
            name = getattr(inst.callee, "name", "")
            if name in ("__sizeof_vpfloat", "__sizeof_vpfloat_mpfr"):
                # Pure given identical attribute operands: safe to number.
                return ("sizeof", name,
                        tuple(_value_key(a) for a in inst.operands))
            return None
        return None


def _type_key(type) -> object:
    try:
        return hash(type)
    except TypeError:  # pragma: no cover - defensive
        return id(type)
