"""Assembly representation for the RISC-V + UNUM coprocessor target.

A deliberately small machine language: the scalar RISC-V subset the
kernels need (integer ALU, FP doubles, branches, loads/stores) plus the
UNUM extension of Bocco et al. [9]:

- ``sucfg.{ess,fss,wgp,mbb}`` -- write a coprocessor control register;
- ``ldu``/``stu`` -- variable-byte-size UNUM loads/stores (geometry from
  the current ess/fss/MBB configuration);
- ``gadd/gsub/gmul/gdiv/gsqrt/gfma/gneg/gmov/gcmp`` -- g-layer arithmetic;
- ``gcvt.d.g``, ``gcvt.g.d``, ``gcvt.w.g`` (``gcvt.wu.g``/``gcvt.lu.g``
  for unsigned sources) -- conversions with the scalar core.

Registers are typed: ``x`` (integer/pointer), ``f`` (IEEE double), ``g``
(g-layer).  Instruction selection produces virtual registers
(:class:`VReg`); the allocator rewrites them to physical ones
(:class:`PReg`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

#: Physical register file sizes.
NUM_X = 32
NUM_F = 32
NUM_G = 32

#: Reserved scratch registers (spill reloads).
X_SCRATCH = (5, 6, 7)
F_SCRATCH = (5, 6)
G_SCRATCH = (30, 31)

#: ABI: arguments / returns.
X_ARGS = tuple(range(10, 18))
F_ARGS = tuple(range(10, 18))
G_ARGS = tuple(range(0, 8))


@dataclass(frozen=True)
class VReg:
    """Virtual register: class 'x' | 'f' | 'g' plus an id."""

    cls: str
    index: int

    def __str__(self) -> str:
        return f"%{self.cls}{self.index}"


@dataclass(frozen=True)
class PReg:
    cls: str
    index: int

    def __str__(self) -> str:
        return f"{self.cls}{self.index}"


@dataclass(frozen=True)
class Imm:
    value: Union[int, float]

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Label:
    name: str

    def __str__(self) -> str:
        return f".{self.name}"


@dataclass(frozen=True)
class StackSlot:
    """Frame-relative slot (spills and local data)."""

    index: int
    size: int = 8

    def __str__(self) -> str:
        return f"[sp+{self.index}]"


Operand = Union[VReg, PReg, Imm, Label, StackSlot, str]


@dataclass
class AsmInst:
    opcode: str
    operands: List[Operand] = field(default_factory=list)
    #: vpfloat geometry demanded by g-instructions: (ess, fss, wgp, mbb)
    #: entries may be ints or VReg/PReg for dynamic attributes.
    config: Optional[Tuple] = None
    comment: str = ""

    def defs(self) -> List[Operand]:
        """Registers written by this instruction."""
        if self.opcode in _NO_DEF:
            return []
        if self.opcode.startswith("sucfg"):
            return []
        if not self.operands:
            return []
        first = self.operands[0]
        if isinstance(first, (VReg, PReg)):
            return [first]
        return []

    def uses(self) -> List[Operand]:
        regs = []
        start = 0 if self.opcode in _NO_DEF or self.opcode.startswith("sucfg") \
            else 1
        for op in self.operands[start:]:
            if isinstance(op, (VReg, PReg)):
                regs.append(op)
        # Config attributes may live in registers too.
        if self.config:
            for attr in self.config:
                if isinstance(attr, (VReg, PReg)):
                    regs.append(attr)
        return regs

    def __str__(self) -> str:
        text = f"{self.opcode} " + ", ".join(str(o) for o in self.operands)
        if self.comment:
            text += f"  # {self.comment}"
        return text.strip()


#: Opcodes that write no register (stores, branches, config, traps).
_NO_DEF = frozenset({
    "sd", "sw", "fsd", "stu", "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "j", "ret", "checkattr", "omp.begin", "omp.end", "atomic.begin",
    "atomic.end", "trap", "nop", "call.void",
})


@dataclass
class AsmBlock:
    label: str
    instructions: List[AsmInst] = field(default_factory=list)

    def append(self, inst: AsmInst) -> AsmInst:
        self.instructions.append(inst)
        return inst

    def __str__(self) -> str:
        body = "\n".join(f"    {i}" for i in self.instructions)
        return f"{self.label}:\n{body}"


@dataclass
class AsmFunction:
    name: str
    blocks: List[AsmBlock] = field(default_factory=list)
    frame_slots: int = 0
    #: Argument placement: list of (register, kind) in order.
    arg_registers: List[Tuple[PReg, str]] = field(default_factory=list)
    return_register: Optional[PReg] = None

    def add_block(self, label: str) -> AsmBlock:
        block = AsmBlock(label)
        self.blocks.append(block)
        return block

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def __str__(self) -> str:
        header = f"# function {self.name} (frame: {self.frame_slots} slots)"
        return header + "\n" + "\n".join(str(b) for b in self.blocks)


@dataclass
class AsmModule:
    functions: Dict[str, AsmFunction] = field(default_factory=dict)

    def add(self, func: AsmFunction) -> AsmFunction:
        self.functions[func.name] = func
        return func

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions.values())
