"""Instruction selection: IR -> RISC-V + UNUM assembly (virtual registers).

Lowers optimized IR onto the coprocessor target:

- integer / pointer SSA values live in ``x`` virtual registers, doubles
  in ``f``, UNUM vpfloat values in ``g`` (g-layer) registers -- "all
  optimization passes, including the lower level register allocation and
  instruction selection, operate on variable precision UNUM values the
  same way as on primitive IEEE data types" (paper contribution 5);
- every g-instruction carries the (ess, fss, wgp, mbb) geometry demanded
  by its vpfloat type; the FP-configuration pass turns those into
  ``sucfg`` writes (paper §III-C2 pass 1);
- GEPs over *static* unum arrays scale by the constant byte size; the
  dynamic ones were rewritten by
  :class:`~repro.backends.unum_backend.addrcomp.UnumAddressComputationPass`;
- phis become parallel copies in predecessors (temp-then-target, safe for
  cyclic permutations).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...ir import (
    AllocaInst,
    Argument,
    ArrayType,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ConstantVPFloat,
    FCmpInst,
    FloatType,
    FNegInst,
    Function,
    GEPInst,
    ICmpInst,
    Instruction,
    IntType,
    LoadInst,
    Module,
    PhiInst,
    PointerType,
    RetInst,
    SelectInst,
    StoreInst,
    UndefValue,
    UnreachableInst,
    Value,
    VPFloatType,
    reverse_postorder,
)
from ...unum import MAX_WGP, UnumConfig
from .asm import AsmBlock, AsmFunction, AsmInst, AsmModule, Imm, Label, VReg


class UnumISelError(Exception):
    """A construct the UNUM backend cannot lower."""


def _is_unum(type) -> bool:
    return isinstance(type, VPFloatType) and type.format == "unum"


def _reg_class(type) -> str:
    if _is_unum(type):
        return "g"
    if isinstance(type, VPFloatType):
        raise UnumISelError(
            f"the UNUM backend only lowers vpfloat<unum, ...> values; "
            f"{type} has no coprocessor representation (use backend="
            f"'mpfr'/'none' for other formats)"
        )
    if isinstance(type, FloatType):
        return "f"
    if isinstance(type, (IntType, PointerType)):
        return "x"
    raise UnumISelError(f"no register class for type {type}")


class InstructionSelector:
    """Per-module instruction selection."""

    def __init__(self, module: Module):
        self.module = module

    def run(self) -> AsmModule:
        asm = AsmModule()
        for func in self.module.functions.values():
            if func.is_declaration:
                continue
            asm.add(FunctionSelector(func, self.module).select())
        return asm


class FunctionSelector:
    def __init__(self, func: Function, module: Module):
        self.func = func
        self.module = module
        self.asm = AsmFunction(func.name)
        self.vreg_count = 0
        self.value_reg: Dict[int, VReg] = {}
        self.block_map: Dict[object, AsmBlock] = {}
        self.alloca_slots: Dict[int, int] = {}
        self.frame_bytes = 0
        self.current: Optional[AsmBlock] = None

    # ------------------------------------------------------------ #
    # Register helpers
    # ------------------------------------------------------------ #

    def new_vreg(self, cls: str) -> VReg:
        self.vreg_count += 1
        return VReg(cls, self.vreg_count)

    def reg_for(self, value: Value) -> VReg:
        cached = self.value_reg.get(id(value))
        if cached is not None:
            return cached
        reg = self.new_vreg(_reg_class(value.type))
        self.value_reg[id(value)] = reg
        return reg

    def operand(self, value: Value) -> object:
        """Materialize an IR value as an asm operand."""
        if isinstance(value, ConstantInt):
            return Imm(value.value)
        if isinstance(value, ConstantPointerNull):
            return Imm(0)
        if isinstance(value, ConstantFloat):
            return Imm(value.value)
        if isinstance(value, ConstantVPFloat):
            _reg_class(value.type)  # rejects non-unum formats clearly
            reg = self.new_vreg("g")
            self.emit("gli", [reg, Imm(value.value)],
                      config=self._config_of(value.type))
            return reg
        if isinstance(value, UndefValue):
            if _reg_class(value.type) == "g":
                reg = self.new_vreg("g")
                from ...bigfloat import BigFloat

                self.emit("gli", [reg, Imm(BigFloat.zero(64))],
                          config=self._config_of(value.type)
                          if _is_unum(value.type) else None)
                return reg
            return Imm(0)
        if isinstance(value, Argument):
            return self.reg_for(value)
        if isinstance(value, Instruction):
            return self.reg_for(value)
        if isinstance(value, Function):
            return value.name
        from ...ir import GlobalVariable

        if isinstance(value, GlobalVariable):
            reg = self.new_vreg("x")
            self.emit("la", [reg, value.name])
            return reg
        raise UnumISelError(f"cannot form operand for {value!r}")

    def emit(self, opcode: str, operands, config=None, comment="") -> AsmInst:
        return self.current.append(AsmInst(opcode, list(operands),
                                           config=config, comment=comment))

    # ------------------------------------------------------------ #
    # vpfloat geometry
    # ------------------------------------------------------------ #

    def _attr_operand(self, attr: Value):
        if isinstance(attr, ConstantInt):
            return attr.value
        return self.reg_for(attr)

    def _config_of(self, vptype: VPFloatType) -> Tuple:
        """(ess, fss, wgp, mbb) -- ints for static, VRegs for dynamic."""
        if vptype.is_static:
            ess = vptype.exp_attr.value
            fss = vptype.prec_attr.value
            size = vptype.size_attr.value if vptype.size_attr else None
            conf = UnumConfig(ess, fss, size)
            wgp = min(MAX_WGP, conf.precision)
            return (ess, fss, wgp, conf.size_bytes)
        ess = self._attr_operand(vptype.exp_attr)
        fss = self._attr_operand(vptype.prec_attr)
        size = self._attr_operand(vptype.size_attr) \
            if vptype.size_attr is not None else 0
        return (ess, fss, "dynamic", size)

    # ------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------ #

    def select(self) -> AsmFunction:
        # Argument registers in declaration order.
        for arg in self.func.args:
            reg = self.reg_for(arg)
            self.asm.arg_registers.append((reg, reg.cls))
        order = reverse_postorder(self.func)
        for block in order:
            self.block_map[id(block)] = self.asm.add_block(block.name)
        for block in order:
            self.current = self.block_map[id(block)]
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    self.reg_for(inst)  # reserve; filled by predecessors
                    continue
                if inst.is_terminator:
                    self._emit_phi_copies(block)
                    self._select_terminator(block, inst)
                else:
                    self._select(inst)
        self.asm.frame_slots = (self.frame_bytes + 7) // 8
        return self.asm

    # ------------------------------------------------------------ #
    # Phi resolution: parallel copies in each predecessor.
    # ------------------------------------------------------------ #

    def _emit_phi_copies(self, block) -> None:
        for succ in block.successors():
            phis = succ.phis()
            if not phis:
                continue
            temps = []
            for phi in phis:
                value = phi.incoming_for_block(block)
                source = self.operand(value)
                cls = _reg_class(phi.type)
                temp = self.new_vreg(cls)
                self._emit_copy(temp, source, cls,
                                phi.type if _is_unum(phi.type) else None)
                temps.append((phi, temp, cls))
            for phi, temp, cls in temps:
                self._emit_copy(self.reg_for(phi), temp, cls,
                                phi.type if _is_unum(phi.type) else None)

    def _emit_copy(self, dest, source, cls: str, vptype=None) -> None:
        if cls == "g":
            if isinstance(source, Imm):
                self.emit("gli", [dest, source],
                          config=self._config_of(vptype) if vptype else None)
            else:
                self.emit("gmov", [dest, source],
                          config=self._config_of(vptype) if vptype else None)
        elif cls == "f":
            self.emit("fli" if isinstance(source, Imm) else "fmv",
                      [dest, source])
        else:
            self.emit("li" if isinstance(source, Imm) else "mv",
                      [dest, source])

    # ------------------------------------------------------------ #
    # Terminators
    # ------------------------------------------------------------ #

    _ICMP_BRANCH = {"eq": "beq", "ne": "bne", "slt": "blt", "sge": "bge",
                    "ult": "bltu", "uge": "bgeu"}

    def _select_terminator(self, block, inst) -> None:
        if isinstance(inst, RetInst):
            if inst.value is not None:
                cls = _reg_class(inst.value.type)
                source = self.operand(inst.value)
                dest = VReg(cls, 0)  # conventional return vreg
                # Use dedicated return pseudo carrying the operand.
                self.emit("ret", [source] if not isinstance(source, Imm)
                          else [source])
            else:
                self.emit("ret", [])
            return
        if isinstance(inst, UnreachableInst):
            self.emit("trap", [])
            return
        assert isinstance(inst, BranchInst)
        if not inst.is_conditional:
            self.emit("j", [Label(inst.targets[0].name)])
            return
        cond = inst.condition
        true_label = Label(inst.targets[0].name)
        false_label = Label(inst.targets[1].name)
        if isinstance(cond, ICmpInst) and cond.parent is block and \
                len(cond.users) == 1 and \
                cond.predicate in self._ICMP_BRANCH:
            lhs = self.operand(cond.operands[0])
            rhs = self.operand(cond.operands[1])
            self.emit(self._ICMP_BRANCH[cond.predicate],
                      [lhs, rhs, true_label])
            self.emit("j", [false_label])
            return
        value = self.operand(cond)
        self.emit("bne", [value, Imm(0), true_label])
        self.emit("j", [false_label])

    # ------------------------------------------------------------ #
    # Straight-line instructions
    # ------------------------------------------------------------ #

    def _select(self, inst: Instruction) -> None:
        if isinstance(inst, AllocaInst):
            self._select_alloca(inst)
        elif isinstance(inst, BinaryInst):
            self._select_binary(inst)
        elif isinstance(inst, FNegInst):
            dest = self.reg_for(inst)
            src = self.operand(inst.operands[0])
            if dest.cls == "g":
                self.emit("gneg", [dest, src],
                          config=self._config_of(inst.type))
            else:
                self.emit("fneg.d", [dest, src])
        elif isinstance(inst, ICmpInst):
            if self._fused_into_branch(inst):
                return
            dest = self.reg_for(inst)
            self.emit(f"setcc.{inst.predicate}",
                      [dest, self.operand(inst.operands[0]),
                       self.operand(inst.operands[1])])
        elif isinstance(inst, FCmpInst):
            self._select_fcmp(inst)
        elif isinstance(inst, CastInst):
            self._select_cast(inst)
        elif isinstance(inst, LoadInst):
            self._select_load(inst)
        elif isinstance(inst, StoreInst):
            self._select_store(inst)
        elif isinstance(inst, GEPInst):
            self._select_gep(inst)
        elif isinstance(inst, SelectInst):
            dest = self.reg_for(inst)
            config = self._config_of(inst.type) if _is_unum(inst.type) \
                else None
            self.emit(f"sel.{dest.cls}",
                      [dest, self.operand(inst.condition),
                       self.operand(inst.true_value),
                       self.operand(inst.false_value)], config=config)
        elif isinstance(inst, CallInst):
            self._select_call(inst)
        else:
            raise UnumISelError(f"cannot select {inst.opcode}")

    def _fused_into_branch(self, inst: ICmpInst) -> bool:
        return (len(inst.users) == 1
                and isinstance(inst.users[0], BranchInst)
                and inst.users[0].parent is inst.parent
                and inst.predicate in self._ICMP_BRANCH)

    def _select_alloca(self, inst: AllocaInst) -> None:
        dest = self.reg_for(inst)
        if isinstance(inst.allocated_type, VPFloatType) and \
                not inst.allocated_type.is_static:
            # Dynamic vpfloat local: size from the sizeu pseudo.
            config = self._config_of(inst.allocated_type)
            size_reg = self.new_vreg("x")
            self.emit("sizeu", [size_reg, _cfg_op(config[0]),
                                _cfg_op(config[1]), _cfg_op(config[3])])
            self.emit("allocd", [dest, size_reg],
                      comment="dynamic stack allocation")
            return
        elem_bytes = self._static_sizeof(inst.allocated_type)
        if inst.count is not None:
            count = self.operand(inst.count)
            size_reg = self.new_vreg("x")
            if isinstance(count, Imm):
                self.emit("li", [size_reg, Imm(count.value * elem_bytes)])
            else:
                self.emit("mul", [size_reg, count, Imm(elem_bytes)])
            self.emit("allocd", [dest, size_reg])
            return
        offset = self.frame_bytes
        self.frame_bytes += elem_bytes
        self.emit("addsp", [dest, Imm(offset)],
                  comment=f"{inst.allocated_type}")

    def _static_sizeof(self, type) -> int:
        if isinstance(type, VPFloatType):
            return type.size_bytes()
        if isinstance(type, ArrayType):
            return type.count * self._static_sizeof(type.element)
        return type.size_bytes()

    _INT_OPS = {"add": "add", "sub": "sub", "mul": "mul", "sdiv": "div",
                "srem": "rem", "udiv": "divu", "urem": "remu",
                "and": "and", "or": "or", "xor": "xor", "shl": "sll",
                "ashr": "sra", "lshr": "srl"}
    _F_OPS = {"fadd": "fadd.d", "fsub": "fsub.d", "fmul": "fmul.d",
              "fdiv": "fdiv.d", "frem": "frem.d"}
    _G_OPS = {"fadd": "gadd", "fsub": "gsub", "fmul": "gmul",
              "fdiv": "gdiv"}

    def _select_binary(self, inst: BinaryInst) -> None:
        dest = self.reg_for(inst)
        lhs = self.operand(inst.lhs)
        rhs = self.operand(inst.rhs)
        if _is_unum(inst.type):
            opcode = self._G_OPS.get(inst.opcode)
            if opcode is None:
                raise UnumISelError(f"{inst.opcode} unsupported on unum")
            self.emit(opcode, [dest, lhs, rhs],
                      config=self._config_of(inst.type))
            return
        if inst.type.is_float:
            self.emit(self._F_OPS[inst.opcode], [dest, lhs, rhs])
            return
        self.emit(self._INT_OPS[inst.opcode], [dest, lhs, rhs])

    def _select_fcmp(self, inst: FCmpInst) -> None:
        dest = self.reg_for(inst)
        lhs = self.operand(inst.operands[0])
        rhs = self.operand(inst.operands[1])
        if _is_unum(inst.operands[0].type) or \
                _is_unum(inst.operands[1].type):
            config = self._config_of(
                inst.operands[0].type if _is_unum(inst.operands[0].type)
                else inst.operands[1].type)
            self.emit(f"gsetcc.{inst.predicate}", [dest, lhs, rhs],
                      config=config)
        else:
            self.emit(f"fsetcc.{inst.predicate}", [dest, lhs, rhs])

    def _select_cast(self, inst: CastInst) -> None:
        dest = self.reg_for(inst)
        source = self.operand(inst.source)
        opcode = inst.opcode
        if opcode == "zext":
            # Zero-extends from the source width.
            mask = (1 << inst.source.type.bits) - 1
            self.emit("and", [dest, source, Imm(mask)])
            return
        if opcode == "trunc":
            # Sign-extends from the target width, as RISC-V's sext.w.
            width = {8: "b", 32: "w"}.get(inst.type.bits)
            if width is None:
                raise UnumISelError(f"cannot truncate to {inst.type}")
            self.emit(f"sext.{width}", [dest, source])
            return
        if opcode in ("sext", "bitcast", "ptrtoint", "inttoptr"):
            self._emit_copy(dest, source, dest.cls)
            return
        if opcode in ("sitofp", "uitofp"):
            # uitofp reads the source unsigned, as RISC-V's fcvt.d.wu
            # (up to 32 bits) and fcvt.d.lu (64 bits) do.
            kind = "w" if opcode == "sitofp" \
                else "wu" if inst.source.type.bits <= 32 else "lu"
            if _is_unum(inst.type):
                self.emit(f"gcvt.{kind}.g", [dest, source],
                          config=self._config_of(inst.type))
            else:
                self.emit(f"fcvt.d.{kind}", [dest, source])
            return
        if opcode == "fptosi":
            if _is_unum(inst.source.type):
                self.emit("gcvt.g.w", [dest, source],
                          config=self._config_of(inst.source.type))
            else:
                self.emit("fcvt.w.d", [dest, source])
            return
        if opcode in ("fpext", "fptrunc"):
            self._emit_copy(dest, source, "f")
            return
        if opcode == "vpconv":
            src_unum = _is_unum(inst.source.type)
            dst_unum = _is_unum(inst.type)
            if src_unum and dst_unum:
                self.emit("gmov", [dest, source],
                          config=self._config_of(inst.type))
            elif dst_unum:
                self.emit("gcvt.d.g", [dest, source],
                          config=self._config_of(inst.type))
            else:
                self.emit("gcvt.g.d", [dest, source],
                          config=self._config_of(inst.source.type))
            return
        raise UnumISelError(f"cannot select cast {opcode}")

    def _select_load(self, inst: LoadInst) -> None:
        dest = self.reg_for(inst)
        address = self.operand(inst.pointer)
        if _is_unum(inst.type):
            self.emit("ldu", [dest, address],
                      config=self._config_of(inst.type))
        elif inst.type.is_float:
            self.emit("fld", [dest, address])
        else:
            self.emit("ld", [dest, address])

    def _select_store(self, inst: StoreInst) -> None:
        address = self.operand(inst.pointer)
        value = inst.value
        if _is_unum(value.type):
            source = self.operand(value)
            self.emit("stu", [source, address],
                      config=self._config_of(value.type))
        elif value.type.is_float:
            source = self.operand(value)
            if isinstance(source, Imm):
                reg = self.new_vreg("f")
                self.emit("fli", [reg, source])
                source = reg
            self.emit("fsd", [source, address])
        else:
            source = self.operand(value)
            if isinstance(source, Imm):
                reg = self.new_vreg("x")
                self.emit("li", [reg, source])
                source = reg
            self.emit("sd", [source, address])

    def _select_gep(self, inst: GEPInst) -> None:
        dest = self.reg_for(inst)
        base = self.operand(inst.pointer)
        pointee = inst.pointer.type.pointee
        # Accumulate: dest = base + idx0*sizeof(pointee) [+ ...].
        current_reg = None

        def add_term(reg_or_imm, scale: int):
            nonlocal current_reg
            if scale == 0:
                return
            term = self.new_vreg("x")
            if isinstance(reg_or_imm, Imm):
                self.emit("li", [term, Imm(reg_or_imm.value * scale)])
            elif scale == 1:
                term = reg_or_imm
            else:
                self.emit("mul", [term, reg_or_imm, Imm(scale)])
            if current_reg is None:
                current_reg = self.new_vreg("x")
                self.emit("add", [current_reg, base, term])
            else:
                next_reg = self.new_vreg("x")
                self.emit("add", [next_reg, current_reg, term])
                current_reg = next_reg

        indices = inst.indices
        add_term(self.operand(indices[0]), self._static_sizeof(pointee))
        current_type = pointee
        for index in indices[1:]:
            if isinstance(current_type, ArrayType):
                add_term(self.operand(index),
                         self._static_sizeof(current_type.element))
                current_type = current_type.element
            else:
                raise UnumISelError("struct GEP unsupported in unum backend")
        if current_reg is None:
            self._emit_copy(dest, base, "x")
        else:
            self._emit_copy(dest, current_reg, "x")

    # ------------------------------------------------------------ #
    # Calls
    # ------------------------------------------------------------ #

    _RUNTIME_PSEUDOS = {
        "__vpfloat_check_attr": "checkattr",
        "__omp_parallel_begin": "omp.begin",
        "__omp_parallel_end": "omp.end",
        "__omp_atomic_begin": "atomic.begin",
        "__omp_atomic_end": "atomic.end",
    }

    def _select_call(self, inst: CallInst) -> None:
        name = getattr(inst.callee, "name", "")
        if name == "vpfloat.attr.keepalive":
            return  # codegen marker, no machine footprint
        if name in self._RUNTIME_PSEUDOS:
            ops = [self.operand(a) for a in inst.operands]
            self.emit(self._RUNTIME_PSEUDOS[name], ops)
            return
        if name in ("__sizeof_vpfloat", "__sizeof_vpfloat_mpfr"):
            dest = self.reg_for(inst)
            ops = [self.operand(a) for a in inst.operands]
            while len(ops) < 3:
                ops.append(Imm(0))
            self.emit("sizeu", [dest] + ops)
            return
        if name == "vp.sqrt" and _is_unum(inst.type):
            dest = self.reg_for(inst)
            self.emit("gsqrt", [dest, self.operand(inst.operands[0])],
                      config=self._config_of(inst.type))
            return
        if name == "vp.fabs" and _is_unum(inst.type):
            dest = self.reg_for(inst)
            self.emit("gabs", [dest, self.operand(inst.operands[0])],
                      config=self._config_of(inst.type))
            return
        if name.startswith("vp."):
            raise UnumISelError(
                f"{name} has no coprocessor instruction (the hardware "
                f"implements +,-,*,/,sqrt; restructure the kernel)"
            )
        if name in ("sqrt", "fabs", "exp", "log", "pow", "sin", "cos",
                    "floor", "ceil", "fmax", "fmin"):
            dest = self.reg_for(inst)
            ops = [self.operand(a) for a in inst.operands]
            self.emit(f"libm.{name}", [dest] + ops)
            return
        if name in ("print_double", "print_int", "print_vpfloat"):
            self.emit("print", [self.operand(inst.operands[0])])
            return
        if name == "malloc":
            dest = self.reg_for(inst)
            self.emit("alloch", [dest, self.operand(inst.operands[0])])
            return
        if name == "free":
            self.emit("freeh", [self.operand(inst.operands[0])])
            return
        if name == "memset":
            self.emit("memset", [self.operand(a) for a in inst.operands])
            return
        if name == "memcpy":
            self.emit("memcpy", [self.operand(a) for a in inst.operands])
            return
        # User function call.
        ops = [self.operand(a) for a in inst.operands]
        if inst.type.__class__.__name__ != "VoidType":
            dest = self.reg_for(inst)
            self.emit("call", [dest, name] + ops)
        else:
            self.emit("call.void", [name] + ops)


def _cfg_op(value):
    return Imm(value) if isinstance(value, int) else value


def select_module(module: Module) -> AsmModule:
    """Run instruction selection over a whole module."""
    return InstructionSelector(module).run()
