"""IR verifier: structural and SSA well-formedness checks.

Run after codegen and after every pass in the test suite.  Checks:

- every block ends in exactly one terminator, none mid-block;
- phis appear only at block heads and cover every predecessor;
- operand def-use edges are consistent (operand lists vs user lists);
- SSA dominance: every use is dominated by its definition;
- branch targets belong to the same function;
- vpfloat attribute Values are integer-typed and, for instruction/argument
  attributes, live in the same function as the types that use them.
"""

from __future__ import annotations

from typing import List

from .analysis import DominatorTree
from .instructions import AllocaInst, Instruction, PhiInst
from .module import Function, Module
from .types import ArrayType, PointerType, VPFloatType
from .values import Argument, Constant, Value


class VerificationError(Exception):
    """The IR violates a structural invariant."""


def verify_module(module: Module) -> None:
    for func in module.functions.values():
        if not func.is_declaration:
            verify_function(func)


def verify_function(func: Function) -> None:
    errors: List[str] = []
    _check_blocks(func, errors)
    if not errors:
        _check_ssa(func, errors)
    _check_vpfloat_types(func, errors)
    if errors:
        listing = "\n  - ".join(errors)
        raise VerificationError(
            f"function @{func.name} failed verification:\n  - {listing}"
        )


def _check_blocks(func: Function, errors: List[str]) -> None:
    for block in func.blocks:
        if block.parent is not func:
            errors.append(f"block {block.name}: wrong parent")
        if not block.instructions:
            errors.append(f"block {block.name}: empty block")
            continue
        term = block.instructions[-1]
        if not term.is_terminator:
            errors.append(f"block {block.name}: missing terminator")
        for inst in block.instructions[:-1]:
            if inst.is_terminator:
                errors.append(
                    f"block {block.name}: terminator {inst.opcode} mid-block"
                )
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                if seen_non_phi:
                    errors.append(
                        f"block {block.name}: phi %{inst.name} after non-phi"
                    )
            else:
                seen_non_phi = True
            if inst.parent is not block:
                errors.append(
                    f"block {block.name}: %{inst.name} has wrong parent"
                )
            _check_operand_links(inst, errors)
        # Branch targets must be blocks of this function.
        for succ in block.successors():
            if succ not in func.blocks:
                errors.append(
                    f"block {block.name}: branch to foreign block {succ.name}"
                )
    # Phi incoming edges match predecessors (reachable blocks only:
    # passes may leave detached loops for SimplifyCFG to collect).
    from .analysis import reverse_postorder

    reachable = set(reverse_postorder(func))
    pred_map = func.predecessor_map()
    for block in func.blocks:
        if block not in reachable:
            continue
        preds = set(pred_map[block])
        for phi in block.phis():
            incoming = {b for _, b in phi.incoming}
            if incoming != preds:
                errors.append(
                    f"phi %{phi.name} in {block.name}: incoming blocks "
                    f"{sorted(b.name for b in incoming)} != predecessors "
                    f"{sorted(p.name for p in preds)}"
                )


def _check_operand_links(inst: Instruction, errors: List[str]) -> None:
    for op in inst.operands:
        if inst not in op.users:
            errors.append(
                f"%{inst.name or inst.opcode}: operand {op} lacks back-edge"
            )


def _check_ssa(func: Function, errors: List[str]) -> None:
    domtree = DominatorTree(func)
    reachable = set(domtree.rpo)
    positions = {}
    for block in func.blocks:
        for i, inst in enumerate(block.instructions):
            positions[inst] = (block, i)
    for block in func.blocks:
        if block not in reachable:
            continue  # unreachable code is not subject to dominance
        for inst in block.instructions:
            operands = inst.operands
            if isinstance(inst, PhiInst):
                # A phi use must dominate the incoming edge, not the phi.
                for value, pred in inst.incoming:
                    if not _def_available(value, pred, None, domtree,
                                          positions, at_end=True):
                        errors.append(
                            f"phi %{inst.name}: incoming {value} from "
                            f"{pred.name} does not dominate the edge"
                        )
                continue
            for op in operands:
                if not _def_available(op, block, inst, domtree, positions):
                    errors.append(
                        f"%{inst.name or inst.opcode} in {block.name}: "
                        f"operand {op} does not dominate the use"
                    )


def _def_available(value: Value, block, user, domtree, positions,
                   at_end: bool = False) -> bool:
    if isinstance(value, (Constant, Argument)):
        return True
    if not isinstance(value, Instruction):
        return True  # globals, functions
    if value not in positions:
        return False  # detached instruction used as operand
    def_block, def_index = positions[value]
    if def_block not in domtree._rpo_index:
        return False
    if def_block is block:
        if at_end:
            return True
        return def_index < positions[user][1]
    return domtree.strictly_dominates(def_block, block) or domtree.dominates(
        def_block, block
    )


def _check_vpfloat_types(func: Function, errors: List[str]) -> None:
    def check_type(vptype: VPFloatType, where: str) -> None:
        for attr in vptype.attributes():
            if isinstance(attr, Constant):
                continue
            if not attr.type.is_integer:
                errors.append(
                    f"{where}: vpfloat attribute {attr} is not integer-typed"
                )
            owner = getattr(attr, "parent", None)
            owner_func = getattr(owner, "parent", owner)
            if isinstance(attr, Argument) and attr.parent is not func:
                errors.append(
                    f"{where}: vpfloat attribute argument %{attr.name} "
                    f"belongs to another function"
                )
            elif isinstance(attr, Instruction) and owner_func is not func:
                errors.append(
                    f"{where}: vpfloat attribute %{attr.name} "
                    f"defined outside this function"
                )

    def core_vpfloat(type):
        while isinstance(type, (PointerType, ArrayType)):
            type = type.pointee if isinstance(type, PointerType) \
                else type.element
        return type if isinstance(type, VPFloatType) else None

    for arg in func.args:
        vptype = core_vpfloat(arg.type)
        if vptype is not None:
            check_type(vptype, f"argument %{arg.name}")
    for inst in func.instructions():
        vptype = core_vpfloat(inst.type)
        if vptype is not None:
            check_type(vptype, f"%{inst.name or inst.opcode}")
        if isinstance(inst, AllocaInst):
            vptype = core_vpfloat(inst.allocated_type)
            if vptype is not None:
                check_type(vptype, f"%{inst.name or inst.opcode}")
