"""Module / Function / BasicBlock containers and the vpfloat attribute registry.

The registry implements the paper's §III-B design decision: vpfloat IR
types are *not* linked to their attribute Values through def-use chains.
Instead the module keeps a side table from each non-constant attribute
Value to the list of types using it.  RAUW consults this table so a
replaced attribute updates every dependent type, and dead-code elimination
refuses to delete Values that still parameterize a live type (they are
pinned via the ``vpfloat.attr.keepalive`` intrinsic emitted by codegen).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .instructions import BranchInst, Instruction, PhiInst
from .types import FunctionType, IRType, VPFloatType
from .values import Argument, Constant, GlobalVariable, Value

KEEPALIVE_INTRINSIC = "vpfloat.attr.keepalive"


class VPFloatAttributeRegistry:
    """Side table: attribute Value -> vpfloat types parameterized by it."""

    def __init__(self) -> None:
        self._types_by_attr: Dict[int, List[VPFloatType]] = {}
        self._attrs_by_id: Dict[int, Value] = {}

    def register_type(self, vptype: VPFloatType) -> None:
        """Track every non-constant attribute of ``vptype``."""
        for attr in vptype.attributes():
            if isinstance(attr, Constant):
                continue  # constants never change (paper §III-B)
            bucket = self._types_by_attr.setdefault(id(attr), [])
            if vptype not in [t for t in bucket if t is vptype]:
                bucket.append(vptype)
            self._attrs_by_id[id(attr)] = attr

    def is_attribute(self, value: Value) -> bool:
        return id(value) in self._types_by_attr

    def replace_attribute(self, old: Value, new: Value) -> None:
        """An attribute Value was RAUW'd: mutate every dependent type."""
        bucket = self._types_by_attr.pop(id(old), None)
        self._attrs_by_id.pop(id(old), None)
        if not bucket:
            return
        for vptype in bucket:
            if vptype.exp_attr is old:
                vptype.exp_attr = new
            if vptype.prec_attr is old:
                vptype.prec_attr = new
            if vptype.size_attr is old:
                vptype.size_attr = new
            self.register_type(vptype)

    def attributes(self) -> Iterable[Value]:
        return list(self._attrs_by_id.values())


class BasicBlock:
    """A label plus a straight-line list of instructions."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        self.name = name
        self.parent = parent
        self.instructions: List[Instruction] = []

    # ------------------------------------------------------------ #

    def append(self, inst: Instruction) -> Instruction:
        if self.terminator is not None:
            raise RuntimeError(
                f"block {self.name} already has a terminator; "
                f"cannot append {inst.opcode}"
            )
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert_before(self, position: Instruction, inst: Instruction) -> None:
        index = self.instructions.index(position)
        inst.parent = self
        self.instructions.insert(index, inst)

    @property
    def terminator(self) -> Optional[Instruction]:
        instructions = self.instructions
        if instructions and instructions[-1].is_terminator:
            return instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        instructions = self.instructions
        if instructions and isinstance(instructions[-1], BranchInst):
            return list(instructions[-1].targets)
        return []

    def predecessors(self) -> List["BasicBlock"]:
        """This block's entry in a fresh :meth:`Function.predecessor_map`,
        for passes that edit the CFG between queries; an analysis that
        asks for many blocks builds the map once instead."""
        if self.parent is None:
            return []
        return self.parent.predecessor_map().get(self, [])

    def phis(self) -> List[PhiInst]:
        return [i for i in self.instructions if isinstance(i, PhiInst)]

    def __str__(self) -> str:
        body = "\n".join(f"  {inst}" for inst in self.instructions)
        return f"{self.name}:\n{body}"

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name}>"


class Function(Value):
    """A function definition (blocks non-empty) or declaration."""

    is_function_like = True

    def __init__(self, name: str, type: FunctionType,
                 arg_names: Optional[List[str]] = None,
                 parent: Optional["Module"] = None):
        super().__init__(type, name)
        self.parent = parent
        self.blocks: List[BasicBlock] = []
        self.args: List[Argument] = []
        names = arg_names or [f"arg{i}" for i in range(len(type.params))]
        for i, (ptype, pname) in enumerate(zip(type.params, names)):
            self.args.append(Argument(ptype, pname, self, i))
        self.attributes: set = set()  # e.g. {"noinline", "alwaysinline"}
        self._name_counter = 0
        #: For dynamically-typed signatures: maps attribute argument index
        #: checks inserted at call boundaries (paper Listing 3).
        self.dynamic_attr_checks: List[tuple] = []

    # ------------------------------------------------------------ #

    @property
    def return_type(self) -> IRType:
        return self.type.ret

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise RuntimeError(f"function {self.name} has no body")
        return self.blocks[0]

    def add_block(self, name: str, after: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(self.unique_name(name), self)
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def unique_name(self, base: str) -> str:
        self._name_counter += 1
        return f"{base}.{self._name_counter}" if base else f"v{self._name_counter}"

    def predecessor_map(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Every block's predecessors, from one scan of the branches.

        Each list is in function block order and names a predecessor
        once; a branch into a block outside the function is not
        recorded.  The map is a snapshot: nothing keeps it current when a
        branch target changes, so build one per analysis and none across
        a CFG edit.
        """
        preds: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                into = preds.get(succ)
                if into is not None and (not into or into[-1] is not block):
                    into.append(block)
        return preds

    def instructions(self) -> Iterable[Instruction]:
        for block in self.blocks:
            yield from list(block.instructions)

    @property
    def vpfloat_attributes(self) -> Optional[VPFloatAttributeRegistry]:
        return self.parent.vpfloat_attributes if self.parent else None

    def __str__(self) -> str:
        args = ", ".join(f"{a.type} %{a.name}" for a in self.args)
        header = f"define {self.return_type} @{self.name}({args})"
        if self.is_declaration:
            return f"declare {self.return_type} @{self.name}({args})"
        body = "\n\n".join(str(b) for b in self.blocks)
        return f"{header} {{\n{body}\n}}"


class Module:
    """A compilation unit: functions, globals, and the attribute registry."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.vpfloat_attributes = VPFloatAttributeRegistry()

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function @{func.name}")
        func.parent = self
        self.functions[func.name] = func
        return func

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def get_or_declare(self, name: str, type: FunctionType) -> Function:
        """Fetch an existing function or create a declaration."""
        existing = self.functions.get(name)
        if existing is not None:
            return existing
        return self.add_function(Function(name, type))

    def add_global(self, var: GlobalVariable) -> GlobalVariable:
        if var.name in self.globals:
            raise ValueError(f"duplicate global @{var.name}")
        var.parent = self
        self.globals[var.name] = var
        return var

    def register_vpfloat_type(self, vptype: VPFloatType) -> None:
        self.vpfloat_attributes.register_type(vptype)

    def __str__(self) -> str:
        parts = [f"; module {self.name}"]
        for g in self.globals.values():
            init = f" = {g.initializer}" if g.initializer else ""
            parts.append(f"@{g.name} : {g.value_type}{init}")
        for func in self.functions.values():
            parts.append(str(func))
        return "\n\n".join(parts)
