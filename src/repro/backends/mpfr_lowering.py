"""The MPFR backend: lowers vpfloat<mpfr,...> SSA values to MPFR calls.

This is the paper's §III-C1 transformation pass.  It runs *after* the
mid-level optimizations ("at a late stage of the middle-end ... to
guarantee that the main optimizations have already been executed") and:

1. turns every vpfloat SSA value into an ``__mpfr_struct`` object with
   automatic ``mpfr_init2``/``mpfr_clear`` lifetime.  Expression
   temporaries are hoisted to the function entry and initialized ONCE,
   so loops re-use them across iterations -- the structural advantage
   over Boost, whose operator-overloading creates (and heap-allocates)
   a fresh temporary per operation per iteration;
2. converts ``fadd/fsub/fmul/fdiv`` into ``mpfr_add/sub/mul/div`` and
   selects the specialized ``_d``/``_si`` entry points when one operand
   is a primitive double/int (visible through ``vpconv``/``sitofp``);
3. rewrites loads, stores, phis, selects, geps and constants to operate
   on the struct type; stores compute **in place** when the stored value
   is an expression result with a single use (no temp, no ``mpfr_set``);
4. rewrites function signatures: vpfloat scalars become ``mpfr_ptr``,
   vpfloat returns become a StructRet-style first argument;
5. optionally **reuses MPFR objects** whose live ranges are disjoint
   (paper item 7), shrinking the number of distinct temporaries.

Arrays of vpfloat become arrays of ``__mpfr_struct`` initialized through
the ``__mpfr_array_init``/``__mpfr_array_clear`` runtime entries (the
real pass emits the equivalent inline loops; the runtime call form is
cost-identical and keeps the IR compact -- see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import (
    AllocaInst,
    Argument,
    ArrayType,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    Constant,
    ConstantInt,
    ConstantVPFloat,
    FCmpInst,
    FNegInst,
    Function,
    FunctionType,
    GEPInst,
    I32,
    I64,
    ICmpInst,
    Instruction,
    IntType,
    IRType,
    LoadInst,
    Module,
    PhiInst,
    PointerType,
    RetInst,
    SelectInst,
    StoreInst,
    StructType,
    VOID,
    Value,
    VPFloatType,
)
from ..ir import GlobalVariable
from ..passes.pass_manager import ModulePass

#: The __mpfr_struct layout of paper Listing 1.
MPFR_STRUCT = StructType(
    "__mpfr_struct", [I32, I32, I64, PointerType(I64)]
)
MPFR_PTR = PointerType(MPFR_STRUCT)

_BINOP_TO_MPFR = {"fadd": "add", "fsub": "sub", "fmul": "mul", "fdiv": "div"}
_VPMATH_TO_MPFR = {
    "vp.sqrt": "mpfr_sqrt", "vp.fabs": "mpfr_abs", "vp.exp": "mpfr_exp",
    "vp.log": "mpfr_log", "vp.sin": "mpfr_sin", "vp.cos": "mpfr_cos",
    "vp.pow": "mpfr_pow",
}


def is_mpfr_vpfloat(type: IRType) -> bool:
    return isinstance(type, VPFloatType) and type.format == "mpfr"


def _is_lowered_operand(type: IRType) -> bool:
    """vpfloat<mpfr> or an already-lowered ``__mpfr_struct*`` value
    (load aliasing rewrites operand types before their users lower)."""
    return is_mpfr_vpfloat(type) or type == MPFR_PTR


def _contains_mpfr(type: IRType) -> bool:
    if is_mpfr_vpfloat(type):
        return True
    if isinstance(type, PointerType):
        return _contains_mpfr(type.pointee)
    if isinstance(type, ArrayType):
        return _contains_mpfr(type.element)
    return False


def _map_type(type: IRType) -> IRType:
    """vpfloat<mpfr,...> value -> mpfr_ptr; aggregates map structurally."""
    if is_mpfr_vpfloat(type):
        return MPFR_PTR
    if isinstance(type, PointerType):
        inner = _map_type_storage(type.pointee)
        return PointerType(inner)
    if isinstance(type, ArrayType):
        return ArrayType(_map_type_storage(type.element), type.count)
    return type


def _map_type_storage(type: IRType) -> IRType:
    """In-memory element type: the struct itself, not a pointer to it."""
    if is_mpfr_vpfloat(type):
        return MPFR_STRUCT
    if isinstance(type, PointerType):
        return PointerType(_map_type_storage(type.pointee))
    if isinstance(type, ArrayType):
        return ArrayType(_map_type_storage(type.element), type.count)
    return type


class MPFRLoweringPass(ModulePass):
    """The vpfloat<mpfr> -> MPFR library lowering."""

    name = "mpfr-lowering"

    def __init__(self, reuse_objects: bool = True,
                 specialize_scalars: bool = True,
                 in_place_stores: bool = True):
        self.reuse_objects = reuse_objects
        self.specialize_scalars = specialize_scalars
        self.in_place_stores = in_place_stores

    # ------------------------------------------------------------ #

    def run_module(self, module: Module) -> int:
        self.module = module
        changed = 0
        for func in list(module.functions.values()):
            if func.is_declaration:
                if any(_contains_mpfr(p) for p in func.type.params) or \
                        _contains_mpfr(func.type.ret):
                    self._rewrite_signature(func)
                continue
            if self._function_touches_mpfr(func):
                self._lower_function(func)
                changed += 1
        return changed

    def _function_touches_mpfr(self, func: Function) -> bool:
        if any(_contains_mpfr(p) for p in func.type.params):
            return True
        if _contains_mpfr(func.type.ret):
            return True
        return any(
            _contains_mpfr(i.type) or
            (isinstance(i, AllocaInst) and _contains_mpfr(i.allocated_type))
            or any(_contains_mpfr(op.type) for op in i.operands)
            for i in func.instructions()
        )

    # ------------------------------------------------------------ #
    # Signature rewriting (paper item 3: clone with MPFR objects)
    # ------------------------------------------------------------ #

    def _rewrite_signature(self, func: Function) -> Optional[Argument]:
        """Returns the StructRet argument when one was added."""
        params = [_map_type(p) for p in func.type.params]
        sret_arg = None
        ret = func.type.ret
        if _contains_mpfr(ret) and is_mpfr_vpfloat(ret):
            sret_arg = Argument(MPFR_PTR, "sret", func, 0)
            params = [MPFR_PTR] + params
            ret = VOID
            func.args.insert(0, sret_arg)
            for i, arg in enumerate(func.args):
                arg.index = i
        func.type = FunctionType(ret, params)
        for arg, ptype in zip(func.args, params):
            arg.type = ptype
        return sret_arg

    # ------------------------------------------------------------ #
    # Function body lowering
    # ------------------------------------------------------------ #

    def _lower_function(self, func: Function) -> None:
        self.func = func
        self.sret = self._rewrite_signature(func)
        #: original vpfloat SSA value -> (value pin, mpfr_ptr Value).
        #: The key object is retained so Python cannot recycle its id()
        #: after the instruction is erased.
        self._pointer_map: Dict[int, Tuple[Value, Value]] = {}
        #: entry temps: (alloca, init-call); cleared at every ret.
        self.entry_temps: List[Value] = []
        self.array_clears: List[Tuple[Value, Value]] = []
        self.scalar_clears: List[Value] = []
        #: constant literal cache: key -> pointer.
        self.literal_cache: Dict[str, Value] = {}
        #: temp alloca id -> precision key (for the reuse post-pass).
        self._temp_prec_key: Dict[int, object] = {}
        #: primitive->vpfloat casts whose lowering is deferred so binops
        #: can consume the raw operand via the _d/_si entry points even
        #: when LICM hoisted the conversion out of the loop.
        self._deferred_casts: Dict[int, CastInst] = {}
        self._entry_insert_index = 0
        copied_phis = self._phis_needing_objects(func)

        # Pass A: retype pointer-typed values in place (arguments were
        # retyped by _rewrite_signature; geps/phis/selects keep their
        # instruction identity, only the type changes).
        for inst in func.instructions():
            if isinstance(inst, GEPInst):
                inst.type = _map_type(inst.type)
            elif isinstance(inst, (PhiInst, SelectInst)) and \
                    is_mpfr_vpfloat(inst.type):
                inst.type = MPFR_PTR
            elif isinstance(inst, (PhiInst, SelectInst, LoadInst)) and \
                    _contains_mpfr(inst.type) and \
                    isinstance(inst.type, PointerType):
                inst.type = _map_type(inst.type)

        # Pass B: lower instructions block by block.
        for block in list(func.blocks):
            for inst in list(block.instructions):
                self._lower_instruction(inst)

        # Deferred conversions whose every use got specialized away.
        for cast in self._deferred_casts.values():
            if cast.parent is not None and not cast.users:
                cast.erase_from_parent()

        # Pass C: vpfloat constants surviving as phi/select operands get
        # materialized literal objects (RAUW does not rewrite constants).
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, (PhiInst, SelectInst)):
                    for i, op in enumerate(list(inst.operands)):
                        if isinstance(op, ConstantVPFloat):
                            # A phi's literal must be built on the
                            # incoming edge (phis take no preceding
                            # instructions in their own block).
                            near = inst.incoming_blocks[i].terminator \
                                if isinstance(inst, PhiInst) else inst
                            inst.set_operand(
                                i, self._materialize_literal(op, near))

        if copied_phis:
            self._give_phis_objects(copied_phis)

        # Object reuse (paper item 7): coalesce temporaries with disjoint
        # single-block live ranges.
        if self.reuse_objects:
            self._coalesce_temps()

        # Insert clears before every return.
        self._insert_clears()

    # ------------------------------------------------------------ #
    # Loop-carried phis (SSA destruction's lost-copy problem)
    # ------------------------------------------------------------ #

    def _phis_needing_objects(self, func: Function) -> Dict[PhiInst,
                                                             VPFloatType]:
        """The vpfloat phis that must own an object; -> phi -> its type.

        A lowered vpfloat phi is a pointer to the object of the value
        that flowed in.  That object is written again when its defining
        instruction re-executes (or, for a phi that owns an object, by
        the copies on the edges into the phi's block).  A phi still live
        at such a write would read the new value: the rotation
        ``b = a; a = f(a, b)`` loses ``b``.  Only those phis get an
        object of their own, so loops without the hazard lower exactly
        as before.  Runs on the SSA form, before any rewriting.
        """
        phis = [inst for block in func.blocks for inst in block.instructions
                if isinstance(inst, PhiInst) and is_mpfr_vpfloat(inst.type)
                and self._attr_at_entry(inst.type.prec_attr)
                and self._attr_at_entry(inst.type.exp_attr)]
        if not phis:
            return {}
        preds: Dict[object, List] = {block: [] for block in func.blocks}
        for block in func.blocks:
            for succ in block.successors():
                if block not in preds[succ]:
                    preds[succ].append(block)
        index = {id(inst): i for block in func.blocks
                 for i, inst in enumerate(block.instructions)}
        live_out = {phi: self._live_out_blocks(phi, preds) for phi in phis}
        end = len(index) + 1  # after every instruction of a block

        def writes(phi, chosen):
            """(block, index) points writing an object ``phi`` may point
            to, and whether one is an edge copy the phi reads after."""
            points, edge_hazard = [], False
            stack, seen = [(v, b) for v, b in phi.incoming], set()
            while stack:
                value, via = stack.pop()
                if id(value) in seen:
                    continue
                seen.add(id(value))
                if value in chosen:
                    blocks = preds[value.parent]
                    points.extend((b, end) for b in blocks)
                    edge_hazard |= via in blocks
                elif isinstance(value, PhiInst):
                    stack.extend((v, via) for v in value.operands)
                elif isinstance(value, SelectInst):
                    stack.extend((v, via) for v in value.operands[1:])
                elif isinstance(value, LoadInst) and \
                        not isinstance(value.pointer, GlobalVariable) and \
                        self._alias_is_safe(value):
                    continue  # aliases its element: nothing rewrites it
                elif isinstance(value, Instruction):
                    points.append((value.parent, index[id(value)]))
            return points, edge_hazard

        def live_after(phi, block, position) -> bool:
            if block in live_out[phi]:
                return True
            return any(user.parent is block and
                       not isinstance(user, PhiInst) and
                       index[id(user)] > position for user in phi.users)

        chosen: Dict[PhiInst, VPFloatType] = {}
        changed = True
        while changed:
            changed = False
            for phi in phis:
                if phi in chosen:
                    continue
                points, edge_hazard = writes(phi, chosen)
                if edge_hazard or any(live_after(phi, block, position)
                                      for block, position in points):
                    chosen[phi] = phi.type
                    changed = True
        return chosen

    @staticmethod
    def _live_out_blocks(value: Value, preds) -> set:
        """Blocks at whose end the SSA ``value`` is live (a phi use
        counts at the end of its incoming block)."""
        live_in, live_out = set(), set()
        home = value.parent
        work = []
        for user in value.users:
            if isinstance(user, PhiInst):
                work.extend(("out", b) for v, b in user.incoming
                            if v is value)
            elif user.parent is not home:
                work.append(("in", user.parent))
        while work:
            side, block = work.pop()
            if side == "out":
                if block in live_out:
                    continue
                live_out.add(block)
                if block is not home:
                    work.append(("in", block))
            elif block not in live_in:
                live_in.add(block)
                work.extend(("out", pred) for pred in preds[block])
        return live_out

    def _give_phis_objects(self, phis: Dict[PhiInst, VPFloatType]) -> None:
        """Replace each phi by an object of its own, set on every
        incoming edge.  The copies of one edge are a parallel copy:
        sequenced so no source is overwritten before it is read."""
        objects = {phi: self._new_temp(vptype, phi)
                   for phi, vptype in phis.items()}
        setter = self._declare("mpfr_set", VOID, (MPFR_PTR, MPFR_PTR))
        by_block: Dict[object, List[PhiInst]] = {}
        for phi in phis:
            by_block.setdefault(phi.parent, []).append(phi)
        for block, group in by_block.items():
            for pred in list(dict.fromkeys(group[0].incoming_blocks)):
                copies = []
                for phi in group:
                    source = phi.incoming_for_block(pred)
                    source = objects.get(source, source)
                    if source is not objects[phi]:
                        copies.append((objects[phi], source, phis[phi]))
                position = self._edge_position(pred, block)
                while copies:
                    ready = next((c for c in copies
                                  if not any(other[1] is c[0]
                                             for other in copies)), None)
                    if ready is None:
                        # A cycle: save one destination's old value.
                        dest, _src, vptype = copies[0]
                        saved = self._new_temp(vptype, position)
                        self._insert_before(position.parent, position,
                                            CallInst(setter, [saved, dest]))
                        copies = [(d, saved if s is dest else s, t)
                                  for d, s, t in copies]
                        continue
                    copies.remove(ready)
                    self._insert_before(position.parent, position,
                                        CallInst(setter, list(ready[:2])))
        for phi, obj in objects.items():
            phi.replace_all_uses_with(obj)
            phi.erase_from_parent()

    def _edge_position(self, pred, block) -> Instruction:
        """Where copies for the edge ``pred -> block`` go: before the
        predecessor's terminator, or in a new block splitting the edge
        when the predecessor also branches elsewhere."""
        term = pred.terminator
        if all(target is block for target in term.targets):
            return term
        split = self.func.add_block("phi.copy", after=pred)
        split.append(BranchInst([block]))
        term.targets = [split if target is block else target
                        for target in term.targets]
        for phi in block.phis():
            phi.incoming_blocks = [split if b is pred else b
                                   for b in phi.incoming_blocks]
        return split.terminator

    # ------------------------------------------------------------ #
    # Object reuse (paper §III-C1 item 7)
    # ------------------------------------------------------------ #

    def _coalesce_temps(self) -> None:
        """Merge entry temporaries whose live ranges cannot overlap.

        A temp qualifies when every non-lifetime use sits in a single
        block (expression temporaries).  Within each block temps of the
        same precision are assigned linear-scan style; each merge removes
        one ``mpfr_init2``/``mpfr_clear`` pair and one stack object.
        """
        func = self.func
        entry = func.entry
        candidates = []  # (temp, block, first_index, last_index)
        for temp in list(self.scalar_clears):
            if temp.parent is not entry:
                continue
            uses = []
            ok = True
            for user in temp.users:
                name = getattr(getattr(user, "callee", None), "name", "")
                if name in ("mpfr_init2", "mpfr_clear"):
                    continue
                uses.append(user)
            if not uses:
                continue
            blocks = {u.parent for u in uses}
            if len(blocks) != 1:
                continue
            block = blocks.pop()
            if block is entry:
                continue  # literals / entry-resident values: keep
            indices = [block.instructions.index(u) for u in uses]
            first_is_write = self._first_use_writes(temp, block,
                                                    min(indices))
            if not first_is_write:
                continue
            candidates.append((temp, block, min(indices), max(indices)))

        by_block: Dict[object, List] = {}
        for item in candidates:
            by_block.setdefault(id(item[1]), []).append(item)

        merged = 0
        for items in by_block.values():
            items.sort(key=lambda it: it[2])
            active: List[Tuple[int, Value, object]] = []  # (end, rep, preckey)
            for temp, block, start, end in items:
                key = self._temp_prec_key.get(id(temp))
                rep = None
                for i, (active_end, active_rep, active_key) in \
                        enumerate(active):
                    if active_end < start and active_key == key:
                        rep = active_rep
                        active[i] = (end, active_rep, active_key)
                        break
                if rep is None:
                    active.append((end, temp, key))
                    continue
                self._merge_temp_into(temp, rep)
                merged += 1
        self.reused_temps = merged

    def _first_use_writes(self, temp, block, first_index) -> bool:
        inst = block.instructions[first_index]
        if not isinstance(inst, CallInst):
            return False
        name = getattr(inst.callee, "name", "")
        return (name.startswith("mpfr_") or name.startswith("__mpfr_")) \
            and inst.operands and inst.operands[0] is temp \
            and name not in ("mpfr_cmp", "mpfr_get_d", "mpfr_get_si")

    def _merge_temp_into(self, temp: Value, rep: Value) -> None:
        # Drop temp's lifetime calls, then RAUW everything else to rep.
        for user in list(temp.users):
            name = getattr(getattr(user, "callee", None), "name", "")
            if name in ("mpfr_init2", "mpfr_clear"):
                user.drop_all_references()
                user.parent.instructions.remove(user)
        temp.replace_all_uses_with(rep)
        if temp in self.scalar_clears:
            self.scalar_clears.remove(temp)
        if not temp.users:
            temp.erase_from_parent()

    # ------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------ #

    def _declare(self, name: str, ret: IRType, params) -> Function:
        return self.module.get_or_declare(name, FunctionType(ret, params))

    def _insert_before(self, block, position: Instruction,
                       new: Instruction, name: str = "") -> Instruction:
        if name:
            new.name = self.func.unique_name(name)
        block.insert_before(position, new)
        return new

    def _insert_at_entry(self, new: Instruction, name: str = "") -> Instruction:
        if name:
            new.name = self.func.unique_name(name)
        entry = self.func.entry
        new.parent = entry
        entry.instructions.insert(self._entry_insert_index, new)
        self._entry_insert_index += 1
        return new

    def _prec_value(self, vptype: VPFloatType) -> Value:
        return vptype.prec_attr

    def _prec_key(self, vptype: VPFloatType) -> object:
        prec = vptype.prec_attr
        if isinstance(prec, ConstantInt):
            return ("const", prec.value)
        return ("dyn", id(prec))

    def _attr_at_entry(self, attr: Value) -> bool:
        """Can this attribute value be referenced in the entry block?"""
        return isinstance(attr, (Constant, Argument))

    def _new_temp(self, vptype: VPFloatType, near: Instruction) -> Value:
        """A struct alloca + mpfr_init2, hoisted to the entry when the
        precision attribute is available there."""
        prec = self._prec_value(vptype)
        exp = vptype.exp_attr
        init2 = self._declare("mpfr_init2", VOID, (MPFR_PTR, I32, I32))
        alloca = AllocaInst(MPFR_STRUCT)
        if self._attr_at_entry(prec) and self._attr_at_entry(exp):
            self._insert_at_entry(alloca, "mpfr.tmp")
            call = CallInst(init2, [alloca, prec, exp])
            self._insert_at_entry(call)
        else:
            # Attribute only available at the use site (phi/load); the
            # stack slot still lives in the entry so it dominates the
            # clears, only the init happens late.
            self._insert_at_entry(alloca, "mpfr.tmp")
            call = CallInst(init2, [alloca, prec, exp])
            self._insert_before(near.parent, near, call)
        self.scalar_clears.append(alloca)
        return alloca

    def _acquire_temp(self, vptype: VPFloatType, inst: Instruction) -> Value:
        """A fresh destination object (coalesced later by object reuse)."""
        temp = self._new_temp(vptype, inst)
        self._temp_prec_key[id(temp)] = self._prec_key(vptype)
        return temp

    def _map_pointer(self, value: Value, pointer: Value) -> None:
        self._pointer_map[id(value)] = (value, pointer)

    def _mapped_pointer(self, value: Value):
        entry = self._pointer_map.get(id(value))
        return entry[1] if entry is not None else None

    def _lowered(self, value: Value) -> Value:
        """The mpfr_ptr for an already-lowered vpfloat operand."""
        mapped = self._mapped_pointer(value)
        if mapped is not None:
            return mapped
        if id(value) in self._deferred_casts:
            return self._materialize_deferred(value)
        if isinstance(value, ConstantVPFloat):
            return self._materialize_literal(value)
        # Arguments / phis / selects were retyped in place.
        return value

    def _materialize_literal(self, constant: ConstantVPFloat,
                             near: Optional[Instruction] = None) -> Value:
        key = f"{self._prec_key(constant.type)}:{constant.value!r}"
        cached = self.literal_cache.get(key)
        if cached is not None:
            return cached
        # Literal objects are set once at the entry (loop bodies reuse
        # them for free -- Boost re-constructs per iteration).
        prec = self._prec_value(constant.type)
        exp = constant.type.exp_attr
        prec_entry = self._attr_at_entry(prec) and self._attr_at_entry(exp)
        alloca = AllocaInst(MPFR_STRUCT)
        init2 = self._declare("mpfr_init2", VOID, (MPFR_PTR, I32, I32))
        setlit = self._declare("__mpfr_set_literal", VOID, (MPFR_PTR, VOID))
        if prec_entry:
            self._insert_at_entry(alloca, "mpfr.lit")
            self._insert_at_entry(CallInst(init2, [alloca, prec, exp]))
            self._insert_at_entry(CallInst(setlit, [alloca, constant]))
            self.literal_cache[key] = alloca
            self.scalar_clears.append(alloca)
            return alloca
        # Loop-variant precision (the attribute is a phi or a load): the
        # literal must be constructed at the use site, every execution,
        # because the precision can differ each time.  No caching.  The
        # stack slot still lives in the entry so it dominates the clears.
        if near is None:
            near = self._current_inst
        block = near.parent
        self._insert_at_entry(alloca, "mpfr.lit")
        self._insert_before(block, near, CallInst(init2, [alloca, prec, exp]))
        self._insert_before(block, near, CallInst(setlit, [alloca, constant]))
        self.scalar_clears.append(alloca)
        return alloca

    # ------------------------------------------------------------ #
    # Instruction lowering
    # ------------------------------------------------------------ #

    def _lower_instruction(self, inst: Instruction) -> None:
        if inst.parent is None:
            return  # already erased (e.g. a store fused into its op)
        self._current_inst = inst
        if isinstance(inst, BinaryInst) and inst.opcode in _BINOP_TO_MPFR \
                and is_mpfr_vpfloat(inst.type):
            self._lower_binop(inst)
        elif isinstance(inst, FNegInst) and is_mpfr_vpfloat(inst.type):
            self._lower_unary(inst, "mpfr_neg", inst.operands[0])
        elif isinstance(inst, FCmpInst) and \
                _is_lowered_operand(inst.operands[0].type):
            self._lower_fcmp(inst)
        elif isinstance(inst, CastInst):
            self._lower_cast(inst)
        elif isinstance(inst, LoadInst) and is_mpfr_vpfloat(inst.type):
            self._lower_load(inst)
        elif isinstance(inst, StoreInst) and self._is_value_store(inst):
            self._lower_store(inst)
        elif isinstance(inst, AllocaInst) and \
                _contains_mpfr(inst.allocated_type):
            self._lower_alloca(inst)
        elif isinstance(inst, CallInst):
            self._lower_call(inst)
        elif isinstance(inst, RetInst) and inst.value is not None and \
                self.sret is not None and \
                _is_lowered_operand(inst.value.type):
            self._lower_ret(inst)

    # ---- arithmetic ---------------------------------------------- #

    def _scalar_operand(self, value: Value) -> Optional[Tuple[str, Value]]:
        """Detect a primitive operand behind a conversion, for the
        specialized entry points (paper item 2)."""
        if not self.specialize_scalars:
            return None
        if isinstance(value, CastInst):
            if value.opcode == "vpconv" and value.source.type.is_float:
                return ("d", value.source)
            if value.opcode == "sitofp" and value.source.type.is_integer:
                return ("si", value.source)
        return None

    def _dest_for(self, inst: Instruction) -> Tuple[Value, Optional[StoreInst]]:
        """Choose the destination object: in-place into the stored-to
        element when legal (paper: "performs in-place operation"), else a
        fresh temporary."""
        store = self._fusable_store(inst)
        if store is not None:
            return self._lowered_pointer_elem(store.pointer), store
        return self._acquire_temp(inst.type, inst), None

    def _fusable_store(self, inst: Instruction) -> Optional[StoreInst]:
        if not self.in_place_stores or len(inst.users) != 1:
            return None
        user = inst.users[0]
        if not isinstance(user, StoreInst) or user.value is not inst or \
                user.parent is not inst.parent:
            return None
        if isinstance(user.pointer, GlobalVariable):
            return None  # globals go through __mpfr_store_global
        block = inst.parent
        inst_index = block.instructions.index(inst)
        store_index = block.instructions.index(user)
        pointer = user.pointer
        # The element pointer must be available before the op.
        if isinstance(pointer, Instruction) and pointer.parent is block \
                and block.instructions.index(pointer) > inst_index:
            return None
        # Writing early must not be observable: no reads/writes of user
        # memory between the op and the original store position.
        for other in block.instructions[inst_index + 1:store_index]:
            if isinstance(other, (LoadInst, StoreInst, CallInst)):
                return None
        return user

    def _lowered_pointer_elem(self, pointer: Value) -> Value:
        # Element pointers (geps/args) were retyped to __mpfr_struct*.
        mapped = self._mapped_pointer(pointer)
        return mapped if mapped is not None else pointer

    def _lower_binop(self, inst: BinaryInst) -> None:
        op = _BINOP_TO_MPFR[inst.opcode]
        block = inst.parent
        lhs, rhs = inst.lhs, inst.rhs
        dest, fused_store = self._dest_for(inst)

        lhs_scalar = self._scalar_operand(lhs)
        rhs_scalar = self._scalar_operand(rhs)
        if rhs_scalar is not None and lhs_scalar is None:
            suffix, raw = rhs_scalar
            name = f"mpfr_{op}_{suffix}"
            callee = self._declare(name, VOID, (MPFR_PTR, MPFR_PTR, raw.type))
            call = CallInst(callee, [dest, self._lowered(lhs), raw])
        elif lhs_scalar is not None and op in ("sub", "div") and \
                lhs_scalar[0] == "d":
            suffix, raw = lhs_scalar
            name = f"mpfr_d_{op}"
            callee = self._declare(name, VOID, (MPFR_PTR, raw.type, MPFR_PTR))
            call = CallInst(callee, [dest, raw, self._lowered(rhs)])
        elif lhs_scalar is not None and op in ("add", "mul"):
            suffix, raw = lhs_scalar
            name = f"mpfr_{op}_{suffix}"
            callee = self._declare(name, VOID, (MPFR_PTR, MPFR_PTR, raw.type))
            call = CallInst(callee, [dest, self._lowered(rhs), raw])
        else:
            callee = self._declare(f"mpfr_{op}", VOID,
                                   (MPFR_PTR, MPFR_PTR, MPFR_PTR))
            call = CallInst(callee, [dest, self._lowered(lhs),
                                     self._lowered(rhs)])
        self._insert_before(block, inst, call)
        self._map_pointer(inst, dest)
        self._replace_and_erase(inst, dest, fused_store)

    def _lower_unary(self, inst: Instruction, name: str, operand: Value) -> None:
        block = inst.parent
        dest, fused_store = self._dest_for(inst)
        callee = self._declare(name, VOID, (MPFR_PTR, MPFR_PTR))
        call = CallInst(callee, [dest, self._lowered(operand)])
        self._insert_before(block, inst, call)
        self._map_pointer(inst, dest)
        self._replace_and_erase(inst, dest, fused_store)

    def _replace_and_erase(self, inst: Instruction, dest: Value,
                           fused_store: Optional[StoreInst]) -> None:
        inst.replace_all_uses_with(dest)
        if fused_store is not None:
            # The store was fused into the op's destination.
            fused_store.drop_all_references()
            fused_store.parent.instructions.remove(fused_store)
            fused_store.parent = None
        inst.erase_from_parent()

    # ---- comparison ----------------------------------------------- #

    def _lower_fcmp(self, inst: FCmpInst) -> None:
        block = inst.parent
        callee = self._declare("mpfr_cmp", I32, (MPFR_PTR, MPFR_PTR))
        call = CallInst(callee, [self._lowered(inst.operands[0]),
                                 self._lowered(inst.operands[1])])
        self._insert_before(block, inst, call, "cmp.mpfr")
        pred = {"oeq": "eq", "one": "ne", "olt": "slt", "ole": "sle",
                "ogt": "sgt", "oge": "sge", "ueq": "eq", "une": "ne"}.get(
            inst.predicate, "eq")
        icmp = ICmpInst(pred, call, ConstantInt(I32, 0))
        self._insert_before(block, inst, icmp, "cmp")
        inst.replace_all_uses_with(icmp)
        inst.erase_from_parent()

    # ---- casts ----------------------------------------------------- #

    def _lower_cast(self, inst: CastInst) -> None:
        if inst.opcode == "bitcast" and _contains_mpfr(inst.type):
            self._lower_malloc_bitcast(inst)
            return
        source_is_mpfr = _is_lowered_operand(inst.source.type)
        target_is_mpfr = is_mpfr_vpfloat(inst.type)
        if not source_is_mpfr and not target_is_mpfr:
            return
        block = inst.parent
        if target_is_mpfr and inst.opcode in ("vpconv", "sitofp", "uitofp"):
            if source_is_mpfr:
                dest, fused = self._dest_for(inst)
                callee = self._declare("mpfr_set", VOID, (MPFR_PTR, MPFR_PTR))
                call = CallInst(callee, [dest, self._lowered(inst.source)])
                self._insert_before(block, inst, call)
                self._map_pointer(inst, dest)
                self._replace_and_erase(inst, dest, fused)
                return
            # Primitive -> vpfloat.  When every user is an arithmetic op,
            # defer: the ops consume the raw primitive through the
            # specialized _d/_si entry points (even across blocks, e.g.
            # after LICM hoisted this conversion to a preheader).
            if not inst.users:
                inst.erase_from_parent()
                return
            if self.specialize_scalars and inst.opcode != "uitofp" and all(
                isinstance(u, BinaryInst) and u.opcode in _BINOP_TO_MPFR
                for u in inst.users
            ):
                self._deferred_casts[id(inst)] = inst
                return
            dest, fused = self._dest_for(inst)
            source = inst.source
            if source.type.is_float:
                callee = self._declare("mpfr_set_d", VOID,
                                       (MPFR_PTR, source.type))
            elif inst.opcode == "uitofp":
                # mpfr_set_ui takes an unsigned long.
                if source.type.bits < 64:
                    source = self._insert_before(
                        block, inst, CastInst("zext", source, I64), "zext")
                callee = self._declare("mpfr_set_ui", VOID, (MPFR_PTR, I64))
            else:
                callee = self._declare("mpfr_set_si", VOID,
                                       (MPFR_PTR, source.type))
            call = CallInst(callee, [dest, source])
            self._insert_before(block, inst, call)
            self._map_pointer(inst, dest)
            self._replace_and_erase(inst, dest, fused)
            return
        if source_is_mpfr and inst.opcode == "vpconv" and inst.type.is_float:
            callee = self._declare("mpfr_get_d", inst.type, (MPFR_PTR,))
            call = CallInst(callee, [self._lowered(inst.source)])
            self._insert_before(block, inst, call, "get_d")
            inst.replace_all_uses_with(call)
            inst.erase_from_parent()
            return
        if source_is_mpfr and inst.opcode == "fptosi":
            callee = self._declare("mpfr_get_si", inst.type, (MPFR_PTR,))
            call = CallInst(callee, [self._lowered(inst.source)])
            self._insert_before(block, inst, call, "get_si")
            inst.replace_all_uses_with(call)
            inst.erase_from_parent()
            return
        if source_is_mpfr and inst.opcode == "vpconv" and \
                is_mpfr_vpfloat(inst.type):
            # Handled by the first branch (target_is_mpfr).
            return

    def _lower_malloc_bitcast(self, inst: CastInst) -> None:
        """``(vpfloat*)malloc(count * sizeof(vpfloat))``: the paper's pass
        "transparently manages objects created with these functions" --
        initialize the heap array's MPFR objects right after the cast."""
        element = inst.type.pointee if isinstance(inst.type, PointerType) \
            else None
        inst.type = _map_type(inst.type)
        source = inst.source
        if not (isinstance(source, CallInst)
                and getattr(source.callee, "name", "") == "malloc"):
            return
        if not is_mpfr_vpfloat(element):
            return
        block = inst.parent
        position = block.instructions[block.instructions.index(inst) + 1]
        size_value = source.operands[0]
        if element.is_static:
            elem_size: Value = ConstantInt(I64, element.static_geometry()[2])
        else:
            sizeof = self._declare("__sizeof_vpfloat_mpfr", I64, (I32, I32))
            elem_size = CallInst(sizeof, [element.exp_attr,
                                          element.prec_attr])
            self._insert_before(block, position, elem_size, "heap.elemsize")
        count = BinaryInst("udiv", size_value, elem_size)
        self._insert_before(block, position, count, "heap.count")
        init = self._declare("__mpfr_array_init", VOID,
                             (PointerType(MPFR_STRUCT), I64, I32, I32))
        self._insert_before(
            block, position,
            CallInst(init, [inst, count, self._prec_value(element),
                            element.exp_attr]))

    def _materialize_deferred(self, cast: CastInst) -> Value:
        """A deferred conversion reached a non-specializable position
        after all: emit the mpfr_set_d/_si at the cast's location."""
        dest = self._acquire_temp(cast.type, cast)
        if cast.source.type.is_float:
            callee = self._declare("mpfr_set_d", VOID,
                                   (MPFR_PTR, cast.source.type))
        else:
            callee = self._declare("mpfr_set_si", VOID,
                                   (MPFR_PTR, cast.source.type))
        self._insert_before(cast.parent, cast,
                            CallInst(callee, [dest, cast.source]))
        self._map_pointer(cast, dest)
        return dest

    # ---- memory ---------------------------------------------------- #

    def _lower_load(self, inst: LoadInst) -> None:
        """A load of a vpfloat element.

        When safe, the SSA value aliases the element pointer directly (no
        copy).  Safety: every use sits in the same block with no
        intervening store/clobbering call.  Otherwise we copy into a temp
        with ``mpfr_set`` -- the conservatism behind the paper's adi /
        deriche slowdowns.
        """
        pointer = self._lowered_pointer_elem(inst.pointer)
        if isinstance(inst.pointer, GlobalVariable):
            # Globals keep their first-class cell representation (they
            # are initialized before any function runs); reads convert
            # into a local MPFR object.
            dest = self._acquire_temp(inst.type, inst)
            loader = self._declare("__mpfr_load_global", VOID,
                                   (MPFR_PTR, inst.pointer.type))
            call = CallInst(loader, [dest, inst.pointer])
            self._insert_before(inst.parent, inst, call)
            self._map_pointer(inst, dest)
            inst.replace_all_uses_with(dest)
            inst.erase_from_parent()
            return
        if self._alias_is_safe(inst):
            self._map_pointer(inst, pointer)
            inst.replace_all_uses_with(pointer)
            inst.erase_from_parent()
            return
        dest = self._acquire_temp(inst.type, inst)
        callee = self._declare("mpfr_set", VOID, (MPFR_PTR, MPFR_PTR))
        call = CallInst(callee, [dest, pointer])
        self._insert_before(inst.parent, inst, call)
        self._map_pointer(inst, dest)
        inst.replace_all_uses_with(dest)
        inst.erase_from_parent()

    def _alias_is_safe(self, inst: LoadInst) -> bool:
        block = inst.parent
        index = block.instructions.index(inst)
        last_use = index
        for user in inst.users:
            if user.parent is not block:
                return False
            if isinstance(user, PhiInst):
                return False
            last_use = max(last_use, block.instructions.index(user))
        for other in block.instructions[index + 1:last_use + 1]:
            if isinstance(other, StoreInst):
                return False
            if isinstance(other, CallInst):
                name = getattr(other.callee, "name", "")
                # Library calls and vp.* intrinsics never write user
                # arrays; anything else might.
                if not (name.startswith("mpfr_") or name.startswith("__")
                        or name.startswith("vp.")):
                    return False
        return True

    def _is_value_store(self, inst: StoreInst) -> bool:
        """A store of a vpfloat *value* into an element slot -- as opposed
        to a store of a pointer into a pointer variable, which stays raw."""
        pointee = inst.pointer.type.pointee \
            if isinstance(inst.pointer.type, PointerType) else None
        target_is_elem = pointee == MPFR_STRUCT or is_mpfr_vpfloat(pointee)
        if not target_is_elem:
            return False
        return _is_lowered_operand(inst.value.type) or \
            isinstance(inst.value, ConstantVPFloat)

    def _lower_store(self, inst: StoreInst) -> None:
        block = inst.parent
        pointer = self._lowered_pointer_elem(inst.pointer)
        value = inst.value
        if isinstance(inst.pointer, GlobalVariable):
            storer = self._declare("__mpfr_store_global", VOID,
                                   (inst.pointer.type, MPFR_PTR))
            lowered = self._lowered(value)
            call = CallInst(storer, [inst.pointer, lowered])
            self._insert_before(block, inst, call)
            inst.drop_all_references()
            block.instructions.remove(inst)
            inst.parent = None
            return
        if isinstance(value, ConstantVPFloat):
            setlit = self._declare("__mpfr_set_literal", VOID,
                                   (MPFR_PTR, VOID))
            call = CallInst(setlit, [pointer, value])
        elif isinstance(value, CastInst):
            raise AssertionError("casts are lowered before stores")
        else:
            lowered = self._lowered(value)
            callee = self._declare("mpfr_set", VOID, (MPFR_PTR, MPFR_PTR))
            call = CallInst(callee, [pointer, lowered])
        self._insert_before(block, inst, call)
        inst.drop_all_references()
        block.instructions.remove(inst)
        inst.parent = None

    def _lower_alloca(self, inst: AllocaInst) -> None:
        old_type = inst.allocated_type
        new_type = _map_type_storage(old_type)
        inst.allocated_type = new_type
        inst.type = PointerType(new_type)
        block = inst.parent
        position = block.instructions[block.instructions.index(inst) + 1]
        if is_mpfr_vpfloat(old_type) and inst.count is None:
            # Scalar local that stayed in memory (escaped address, or
            # -O0).  The stack slot moves to the entry so it dominates
            # the clears at every return; a local declared inside a loop
            # body is then initialized once there, like a temporary.
            prec = self._prec_value(old_type)
            init2 = self._declare("mpfr_init2", VOID, (MPFR_PTR, I32, I32))
            call = CallInst(init2, [inst, prec, old_type.exp_attr])
            if block is self.func.entry:
                self._insert_before(block, position, call)
            else:
                block.instructions.remove(inst)
                self._insert_at_entry(inst)
                if self._attr_at_entry(prec) and \
                        self._attr_at_entry(old_type.exp_attr):
                    self._insert_at_entry(call)
                else:
                    self._insert_before(block, position, call)
            self.scalar_clears.append(inst)
            return
        # Array (fixed or VLA) of vpfloat elements.
        element = old_type
        count: Value = ConstantInt(I64, 1)
        if isinstance(old_type, ArrayType):
            element = old_type.element
            count = ConstantInt(I64, old_type.count)
        if inst.count is not None:
            element = old_type
            count = inst.count
        if not is_mpfr_vpfloat(element):
            return
        prec = self._prec_value(element)
        init = self._declare("__mpfr_array_init", VOID,
                             (PointerType(MPFR_STRUCT), I64, I32, I32))
        base = inst
        if isinstance(new_type, ArrayType):
            decay = GEPInst(inst, [ConstantInt(I64, 0), ConstantInt(I64, 0)])
            self._insert_before(block, position, decay, "mpfr.arr")
            base = decay
        self._insert_before(block, position,
                            CallInst(init, [base, count, prec,
                                            element.exp_attr]))
        self.array_clears.append((base, count))

    # ---- calls and returns ----------------------------------------- #

    def _lower_call(self, inst: CallInst) -> None:
        callee = inst.callee
        name = getattr(callee, "name", "")
        if name in _VPMATH_TO_MPFR and is_mpfr_vpfloat(inst.type):
            block = inst.parent
            dest, fused = self._dest_for(inst)
            mpfr_name = _VPMATH_TO_MPFR[name]
            nargs = len(inst.operands)
            params = (MPFR_PTR,) * (nargs + 1)
            lib = self._declare(mpfr_name, VOID, params)
            call = CallInst(lib, [dest] + [self._lowered(a)
                                           for a in inst.operands])
            self._insert_before(block, inst, call)
            self._map_pointer(inst, dest)
            self._replace_and_erase(inst, dest, fused)
            return
        if not isinstance(callee, Function):
            return
        # User function whose signature gets (or got) rewritten.
        needs_sret = is_mpfr_vpfloat(inst.type)
        touches = needs_sret or any(
            is_mpfr_vpfloat(a.type) or _contains_mpfr(a.type)
            for a in inst.operands
        )
        if not touches:
            return
        block = inst.parent
        args = []
        for a in inst.operands:
            if is_mpfr_vpfloat(a.type):
                args.append(self._lowered(a))
            else:
                mapped = self._mapped_pointer(a)
                args.append(mapped if mapped is not None else a)
        if needs_sret:
            dest = self._acquire_temp(inst.type, inst)
            new_call = CallInst(callee, [dest] + args, result_type=VOID)
            self._insert_before(block, inst, new_call)
            self._map_pointer(inst, dest)
            inst.replace_all_uses_with(dest)
            inst.erase_from_parent()
        else:
            new_call = CallInst(callee, args, result_type=inst.type)
            self._insert_before(block, inst, new_call,
                                inst.name or "call")
            inst.replace_all_uses_with(new_call)
            inst.erase_from_parent()

    def _lower_ret(self, inst: RetInst) -> None:
        block = inst.parent
        value = self._lowered(inst.value)
        callee = self._declare("mpfr_set", VOID, (MPFR_PTR, MPFR_PTR))
        call = CallInst(callee, [self.sret, value])
        self._insert_before(block, inst, call)
        new_ret = RetInst()
        new_ret.parent = block
        inst.drop_all_references()
        block.instructions.remove(inst)
        block.instructions.append(new_ret)

    # ------------------------------------------------------------ #
    # Lifetime: clears at returns (paper item 1)
    # ------------------------------------------------------------ #

    def _insert_clears(self) -> None:
        clear = self._declare("mpfr_clear", VOID, (MPFR_PTR,))
        array_clear = self._declare("__mpfr_array_clear", VOID,
                                    (PointerType(MPFR_STRUCT), I64))
        for block in self.func.blocks:
            term = block.terminator
            if not isinstance(term, RetInst):
                continue
            for temp in self.scalar_clears:
                if self._init_in_entry(temp):
                    self._insert_before(block, term, CallInst(clear, [temp]))
                else:
                    # Initialized inside a conditionally-executed block:
                    # use the liveness-checking clear so a never-taken
                    # path does not clear an uninitialized object.
                    self._insert_before(
                        block, term,
                        CallInst(array_clear, [temp, ConstantInt(I64, 1)]))
            for base, count in self.array_clears:
                if self._dominates_ret(base, block):
                    self._insert_before(block, term,
                                        CallInst(array_clear, [base, count]))

    def _init_in_entry(self, temp: Value) -> bool:
        entry = self.func.entry
        for user in temp.users:
            name = getattr(getattr(user, "callee", None), "name", "")
            if name == "mpfr_init2" and user.operands[0] is temp:
                return user.parent is entry
        return True

    def _dominates_ret(self, base: Value, ret_block) -> bool:
        # Conservative: only clear arrays allocated in the entry block.
        return getattr(base, "parent", None) is self.func.entry
