"""CFG analyses: reverse postorder, dominators, dominance frontiers, loops.

Dominators use the Cooper–Harvey–Kennedy iterative algorithm; loop
detection finds natural loops from back edges.  These feed mem2reg, LICM,
loop idiom recognition, unrolling and the polyhedral-lite optimizer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .module import BasicBlock, Function


def reverse_postorder(func: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable excluded)."""
    visited: Set[BasicBlock] = set()
    order: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(block)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    if func.blocks:
        visit(func.entry)
    order.reverse()
    return order


class DominatorTree:
    """Immediate dominators + dominance queries for one function."""

    def __init__(self, func: Function):
        self.function = func
        self.rpo = reverse_postorder(func)
        #: Predecessors of every block of ``func``, as of construction
        #: (see :meth:`Function.predecessor_map`).  A block reached from
        #: the entry but no longer in ``func.blocks`` has none.
        self.preds = func.predecessor_map()
        self._rpo_index = {b: i for i, b in enumerate(self.rpo)}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()
        self.children: Dict[BasicBlock, List[BasicBlock]] = {
            b: [] for b in self.rpo
        }
        for block, parent in self.idom.items():
            if parent is not None and parent is not block:
                self.children[parent].append(block)

    def _compute(self) -> None:
        if not self.rpo:
            return
        entry = self.rpo[0]
        self.idom = {entry: entry}
        changed = True
        while changed:
            changed = False
            for block in self.rpo[1:]:
                preds = [p for p in self.preds.get(block, ())
                         if p in self.idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = self._intersect(p, new_idom)
                if self.idom.get(block) is not new_idom:
                    self.idom[block] = new_idom
                    changed = True

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while self._rpo_index[a] > self._rpo_index[b]:
                a = self.idom[a]
            while self._rpo_index[b] > self._rpo_index[a]:
                b = self.idom[b]
        return a

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        current: Optional[BasicBlock] = b
        entry = self.rpo[0] if self.rpo else None
        while current is not None:
            if current is a:
                return True
            if current is entry:
                return False
            current = self.idom.get(current)
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def frontiers(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Dominance frontiers (Cooper-Harvey-Kennedy)."""
        df: Dict[BasicBlock, Set[BasicBlock]] = {b: set() for b in self.rpo}
        for block in self.rpo:
            preds = [p for p in self.preds.get(block, ()) if p in self.idom]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner is not self.idom[block]:
                    df[runner].add(block)
                    runner = self.idom[runner]
        return df


class Loop:
    """A natural loop: header plus body blocks."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock]):
        self.header = header
        #: The body as an ordered set (a dict keys view): O(1)
        #: membership, iteration in function block order rather than by
        #: block address, so loop passes emit the same IR under any
        #: PYTHONHASHSEED.
        self.blocks = dict.fromkeys(
            b for b in header.parent.blocks if b in blocks).keys()
        self.subloops: List["Loop"] = []
        self.parent: Optional["Loop"] = None

    @property
    def depth(self) -> int:
        depth, current = 1, self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def exits(self) -> List[BasicBlock]:
        """Blocks outside the loop reachable from inside."""
        out: List[BasicBlock] = []
        for block in self.blocks:
            for succ in block.successors():
                if succ not in self.blocks and succ not in out:
                    out.append(succ)
        return out

    def latches(self) -> List[BasicBlock]:
        return [b for b in self.blocks
                if self.header in b.successors() and b is not self.header]

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if any."""
        outside = [p for p in self.header.predecessors()
                   if p not in self.blocks]
        if len(outside) == 1 and len(outside[0].successors()) == 1:
            return outside[0]
        return None

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def __repr__(self) -> str:
        return f"<Loop header={self.header.name} blocks={len(self.blocks)}>"


class LoopInfo:
    """All natural loops of a function, nested."""

    def __init__(self, func: Function):
        self.function = func
        self.domtree = DominatorTree(func)
        self.loops: List[Loop] = []
        self._discover()

    def _discover(self) -> None:
        headers: Dict[BasicBlock, Set[BasicBlock]] = {}
        for block in self.domtree.rpo:
            for succ in block.successors():
                if self.domtree.dominates(succ, block):  # back edge
                    headers.setdefault(succ, set()).update(
                        self._natural_loop(succ, block, self.domtree.preds)
                    )
        for header, blocks in headers.items():
            self.loops.append(Loop(header, blocks))
        # Establish nesting: a loop is a subloop when its header is inside
        # another loop's body.
        for inner in self.loops:
            best: Optional[Loop] = None
            for outer in self.loops:
                if outer is inner:
                    continue
                if inner.header in outer.blocks and inner.blocks <= outer.blocks:
                    if best is None or len(outer.blocks) < len(best.blocks):
                        best = outer
            if best is not None:
                inner.parent = best
                best.subloops.append(inner)

    @staticmethod
    def _natural_loop(header: BasicBlock, latch: BasicBlock,
                      preds: Dict[BasicBlock, List[BasicBlock]]
                      ) -> Set[BasicBlock]:
        blocks = {header, latch}
        worklist = [latch]
        while worklist:
            block = worklist.pop()
            for pred in preds.get(block, ()):
                if pred not in blocks:
                    blocks.add(pred)
                    worklist.append(pred)
        return blocks

    def innermost(self) -> List[Loop]:
        return [l for l in self.loops if not l.subloops]
