"""mem2reg: promote allocas to SSA registers.

Standard SSA construction (dominance-frontier phi placement + renaming).
Because vpfloat values are first-class scalars (paper §III-C1 footnote:
"vpfloat variables are typed as first-class scalar values, they are
modeled as stack-allocated in upstream passes"), vpfloat allocas promote
exactly like ints and doubles -- this is what lets every later pass see
through variable-precision dataflow.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir import (
    AllocaInst,
    BasicBlock,
    DominatorTree,
    Function,
    Instruction,
    LoadInst,
    PhiInst,
    StoreInst,
    UndefValue,
    Value,
)
from .pass_manager import FunctionPass


def promotable_allocas(func: Function) -> List[AllocaInst]:
    """Allocas whose address never escapes: only direct loads/stores."""
    result = []
    for inst in func.instructions():
        if not isinstance(inst, AllocaInst):
            continue
        if inst.count is not None:
            continue  # VLAs stay in memory
        ok = True
        for user in inst.users:
            if isinstance(user, LoadInst):
                continue
            if isinstance(user, StoreInst) and user.pointer is inst \
                    and user.value is not inst:
                continue
            ok = False
            break
        if ok:
            result.append(inst)
    return result


class Mem2RegPass(FunctionPass):
    name = "mem2reg"

    def run(self, func: Function) -> int:
        allocas = promotable_allocas(func)
        if not allocas:
            return 0
        domtree = DominatorTree(func)
        frontiers = domtree.frontiers()
        reachable = set(domtree.rpo)

        # Blocks are visited in function order, never set order: phi
        # placement and numbering must not depend on block addresses.
        order = {block: i for i, block in enumerate(func.blocks)}
        phi_for: Dict[PhiInst, AllocaInst] = {}
        for alloca in allocas:
            defining_blocks = {
                user.parent for user in alloca.users
                if isinstance(user, StoreInst) and user.parent in reachable
            }
            # Iterated dominance frontier.
            worklist = sorted(defining_blocks, key=order.__getitem__)
            has_phi: Set[BasicBlock] = set()
            while worklist:
                block = worklist.pop()
                for frontier_block in sorted(frontiers.get(block, ()),
                                             key=order.__getitem__):
                    if frontier_block in has_phi:
                        continue
                    has_phi.add(frontier_block)
                    phi = PhiInst(alloca.allocated_type)
                    phi.name = func.unique_name(f"{_base_name(alloca)}.phi")
                    phi.parent = frontier_block
                    frontier_block.instructions.insert(0, phi)
                    phi_for[phi] = alloca
                    if frontier_block not in defining_blocks:
                        worklist.append(frontier_block)

        # Renaming walk over the dominator tree.
        stacks: Dict[AllocaInst, List[Value]] = {a: [] for a in allocas}
        alloca_set = set(allocas)
        to_erase: List[Instruction] = []

        def current(alloca: AllocaInst) -> Value:
            stack = stacks[alloca]
            if stack:
                return stack[-1]
            return UndefValue(alloca.allocated_type)

        def rename(block: BasicBlock) -> None:
            pushed: List[AllocaInst] = []
            for inst in list(block.instructions):
                if isinstance(inst, PhiInst) and inst in phi_for:
                    stacks[phi_for[inst]].append(inst)
                    pushed.append(phi_for[inst])
                elif isinstance(inst, LoadInst) and inst.pointer in alloca_set:
                    inst.replace_all_uses_with(current(inst.pointer))
                    to_erase.append(inst)
                elif isinstance(inst, StoreInst) and inst.pointer in alloca_set:
                    stacks[inst.pointer].append(inst.value)
                    pushed.append(inst.pointer)
                    to_erase.append(inst)
            for succ in block.successors():
                for phi in succ.phis():
                    if phi in phi_for:
                        phi.add_incoming(current(phi_for[phi]), block)
            for child in domtree.children.get(block, ()):
                rename(child)
            for alloca in pushed:
                stacks[alloca].pop()

        rename(func.entry)

        for inst in to_erase:
            if not inst.users:
                inst.erase_from_parent()
        erased = 0
        for alloca in allocas:
            remaining = [u for u in alloca.users]
            if not remaining:
                alloca.erase_from_parent()
                erased += 1
        # Prune dead phis (no users) introduced over-eagerly.
        changed = True
        while changed:
            changed = False
            for block in func.blocks:
                for phi in list(block.phis()):
                    if phi in phi_for and not phi.users:
                        phi.drop_all_references()
                        block.instructions.remove(phi)
                        changed = True
        return len(allocas)


def _base_name(alloca: AllocaInst) -> str:
    name = alloca.name or "var"
    return name.split(".")[0]
