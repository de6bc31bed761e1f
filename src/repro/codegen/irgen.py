"""AST -> IR code generation.

Lowers the analyzed vpfloat C dialect onto the SSA IR.  Sema alone
decides C types: each expression lowers at its ``ctype`` (a comparison
at its recorded ``operand_type``, a compound assignment through its
typed ``a op b`` node), and a value changes type only through
``_convert``, which folds constant operands exactly (a double literal
that converts to a vpfloat is read from its text).  Further:

- locals become entry-block allocas (later promoted by mem2reg);
- dynamically-sized vpfloat declarations emit a ``__sizeof_vpfloat*``
  runtime call that validates the attributes and yields the byte size
  (paper §III-A5), plus ``vpfloat.attr.keepalive`` pins so optimization
  cannot delete attribute values out from under live types (§III-B);
- call sites with dynamic attribute bindings emit ``__vpfloat_check_attr``
  runtime verification calls (paper Listing 3, lines 14/17);
- ``#pragma omp parallel for`` loops are bracketed by
  ``__omp_parallel_begin/end`` markers consumed by the execution model;
  ``omp atomic`` statements by ``__omp_atomic_begin/end``;
- mixed vpfloat/primitive arithmetic keeps the primitive operand visible
  through a ``vpconv`` so the MPFR backend can select the specialized
  ``mpfr_*_d/si`` entry points.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..bigfloat import BigFloat, from_str
from ..ir import (
    F32,
    F64,
    I1,
    I8,
    I32,
    I64,
    VOID,
    ArrayType,
    BasicBlock,
    ConstantFloat,
    ConstantInt,
    ConstantPointerNull,
    ConstantVPFloat,
    FloatType,
    Function,
    FunctionType,
    GlobalVariable,
    IntType,
    IRBuilder,
    IRType,
    Module,
    PointerType,
    UndefValue,
    Value,
    VPFloatType,
    verify_module,
)
from ..lang import ast
from ..lang.ctypes import (
    ArrayT,
    AttrConst,
    AttrRef,
    CType,
    FloatT,
    IntT,
    PointerT,
    VoidT,
    VPFloatT,
    decay,
)
from ..lang.lexer import SourceError
from ..runtime.interpreter import (VPRuntimeError, cast_value, constant_of,
                                   constant_value, int_binary, type_format)

#: Precision used to materialize vpfloat literals before their final type
#: is known (paper §III-A5: constants are created at the format's maximum
#: configuration and cast at runtime).
LITERAL_PRECISION = 600

#: Runtime library signatures.
RUNTIME_SIGNATURES = {
    "__sizeof_vpfloat": FunctionType(I64, (I32, I32, I32)),
    "__sizeof_vpfloat_mpfr": FunctionType(I64, (I32, I32)),
    "__vpfloat_check_attr": FunctionType(VOID, (I32, I32)),
    "vpfloat.attr.keepalive": FunctionType(VOID, (I32,)),
    "__omp_parallel_begin": FunctionType(VOID, (I64,)),
    "__omp_parallel_end": FunctionType(VOID, ()),
    "__omp_atomic_begin": FunctionType(VOID, ()),
    "__omp_atomic_end": FunctionType(VOID, ()),
    "malloc": FunctionType(PointerType(I8), (I64,)),
    "free": FunctionType(VOID, (PointerType(I8),)),
    "print_double": FunctionType(VOID, (F64,)),
    "print_int": FunctionType(VOID, (I32,)),
    "print_vpfloat": FunctionType(VOID, (F64,)),
    "sqrt": FunctionType(F64, (F64,)),
    "fabs": FunctionType(F64, (F64,)),
    "exp": FunctionType(F64, (F64,)),
    "log": FunctionType(F64, (F64,)),
    "pow": FunctionType(F64, (F64, F64)),
    "sin": FunctionType(F64, (F64,)),
    "cos": FunctionType(F64, (F64,)),
    "floor": FunctionType(F64, (F64,)),
    "ceil": FunctionType(F64, (F64,)),
    "fmax": FunctionType(F64, (F64, F64)),
    "fmin": FunctionType(F64, (F64, F64)),
    "vp.sqrt": FunctionType(F64, (F64,)),
    "vp.fabs": FunctionType(F64, (F64,)),
    "vp.exp": FunctionType(F64, (F64,)),
    "vp.log": FunctionType(F64, (F64,)),
    "vp.sin": FunctionType(F64, (F64,)),
    "vp.cos": FunctionType(F64, (F64,)),
    "vp.pow": FunctionType(F64, (F64, F64)),
    "memset": FunctionType(VOID, (PointerType(I8), I32, I64)),
    "memcpy": FunctionType(VOID, (PointerType(I8), PointerType(I8), I64)),
}

_VP_BUILTIN_MAP = {
    "vp_sqrt": "vp.sqrt", "vp_fabs": "vp.fabs", "vp_exp": "vp.exp",
    "vp_log": "vp.log", "vp_sin": "vp.sin", "vp_cos": "vp.cos",
    "vp_pow": "vp.pow",
}


class CodegenError(SourceError):
    """Lowering failure (usually an unsupported construct)."""


class IRGenerator:
    """One-shot translator from an analyzed AST to an IR module."""

    def __init__(self, unit: ast.TranslationUnit, name: str = "module"):
        self.unit = unit
        self.module = Module(name)
        self.builder = IRBuilder()
        self.func: Optional[Function] = None
        #: AST decl -> pointer Value (alloca / global / byref param slot).
        self.slots: Dict[int, Value] = {}
        #: AST decl -> CType as declared.
        self.decl_types: Dict[int, CType] = {}
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []
        #: Name -> slot for the *current* function's locals and params,
        #: so attribute references resolve against the innermost binding.
        self.local_slot_names: Dict[str, Value] = {}
        self.func_decls: Dict[str, ast.FunctionDecl] = {}

    # ------------------------------------------------------------ #
    # Types
    # ------------------------------------------------------------ #

    def ir_type(self, ctype: CType) -> IRType:
        if isinstance(ctype, VoidT):
            return VOID
        if isinstance(ctype, IntT):
            return IntType(ctype.bits)
        if isinstance(ctype, FloatT):
            return FloatType(ctype.bits)
        if isinstance(ctype, PointerT):
            return PointerType(self.ir_type(ctype.pointee))
        if isinstance(ctype, ArrayT):
            if ctype.is_vla:
                # VLAs lower to pointers; extent handled at the alloca.
                return PointerType(self.ir_type(ctype.element))
            return ArrayType(self.ir_type(ctype.element), ctype.size)
        if isinstance(ctype, VPFloatT):
            vptype = VPFloatType(
                ctype.format,
                self._attr_value(ctype.exp),
                self._attr_value(ctype.prec),
                self._attr_value(ctype.size) if ctype.size else None,
            )
            self.module.register_vpfloat_type(vptype)
            return vptype
        raise TypeError(f"cannot lower type {ctype}")

    def _attr_value(self, attr) -> Value:
        if isinstance(attr, AttrConst):
            return ConstantInt(I32, attr.value)
        assert isinstance(attr, AttrRef)
        # Signature context (no insert point): parameter attributes
        # resolve directly to the entry argument values.
        if self.builder.block is None:
            if self.func is not None:
                for arg, param in zip(self.func.args,
                                      self._current_params()):
                    if param.name == attr.name:
                        return self._coerce_to_i32(arg)
            raise TypeError(f"unresolved vpfloat attribute {attr.name!r}")
        # Body context: re-read the named variable at every use site so a
        # declaration's type sees the variable's *current* value — a loop
        # that mutates an attribute variable (e.g. shrinking `p`) changes
        # the precision of later declarations.  mem2reg rewires these
        # loads to the reaching SSA definition (the attribute registry
        # keeps the types in sync through RAUW), so -O3 IR carries no
        # extra memory traffic.
        slot = self._lookup_slot_by_name(attr.name)
        if slot is None:
            raise TypeError(f"unresolved vpfloat attribute {attr.name!r}")
        loaded = self.builder.load(slot, name=f"{attr.name}.attr")
        return self._coerce_to_i32(loaded)

    def _coerce_to_i32(self, value: Value) -> Value:
        if value.type == I32:
            return value
        if value.type.is_integer:
            opcode = "trunc" if value.type.bits > 32 else "sext"
            return self.builder.cast(opcode, value, I32, name="attr.i32")
        raise TypeError("vpfloat attribute must be integer-typed")

    def _current_params(self) -> List[ast.ParamDecl]:
        return self._params_by_func.get(self.func.name, [])

    def _lookup_slot_by_name(self, name: str) -> Optional[Value]:
        local = self.local_slot_names.get(name)
        if local is not None:
            return local
        return self.module.globals.get(name)

    # ------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------ #

    def generate(self) -> Module:
        self._decl_by_id: Dict[int, ast.Node] = {}
        self._params_by_func: Dict[str, List[ast.ParamDecl]] = {}
        for decl in self.unit.globals():
            self._emit_global(decl)
        # Declare all functions first so forward calls resolve.
        for func_decl in self.unit.functions():
            self._declare_function(func_decl)
        for func_decl in self.unit.functions():
            if func_decl.body is not None:
                self._emit_function(func_decl)
        verify_module(self.module)
        return self.module

    # ------------------------------------------------------------ #
    # Globals and declarations
    # ------------------------------------------------------------ #

    def _emit_global(self, decl: ast.VarDecl) -> None:
        value_type = self.ir_type(decl.type)
        initializer = None
        if decl.init is not None:
            initializer = self._const_initializer(decl.init, value_type)
        var = GlobalVariable(value_type, decl.name, initializer)
        self.module.add_global(var)
        self.slots[id(decl)] = var
        self.decl_types[id(decl)] = decl.type
        self._decl_by_id[id(decl)] = decl

    def _const_initializer(self, expr: ast.Expr, type: IRType):
        """A global's initializer: the (negated) literal ``expr`` at its
        own sema type, converted to ``type`` by the runtime's cast."""
        negated = isinstance(expr, ast.Unary) and expr.op == "-"
        literal = expr.operand if negated else expr
        if isinstance(literal, ast.FloatLit) and type.is_vpfloat:
            # Read exactly from its text, like a local's literal.
            text = "-" + literal.text if negated else literal.text
            return ConstantVPFloat(type, from_str(text, LITERAL_PRECISION))
        if not isinstance(literal, (ast.IntLit, ast.FloatLit)):
            raise CodegenError("global initializer must be a literal",
                               expr.line, expr.column)
        source = self.ir_type(expr.ctype)
        value = constant_value(self._emit_expr(literal))
        if negated:
            value = int_binary("sub", 0, value, source.bits) \
                if source.is_integer else -value
        if source == type:
            return constant_of(type, value)
        opcode = _cast_opcode(source, type,
                              not getattr(expr.ctype, "signed", True))
        try:
            fmt = type_format(type) if type.is_vpfloat else None
            value = cast_value(opcode, value, source.bits,
                               getattr(type, "bits", 0), fmt)
        except VPRuntimeError as e:
            raise CodegenError(str(e), expr.line, expr.column) from None
        return constant_of(type, value)

    def _declare_function(self, decl: ast.FunctionDecl) -> None:
        if decl.name in self.module.functions:
            self._params_by_func.setdefault(decl.name, decl.params)
            return
        self.func_decls[decl.name] = decl
        self._params_by_func[decl.name] = decl.params
        # Parameters with dependent vpfloat types need their attribute
        # arguments resolved while building the signature: construct the
        # Function first with placeholder types, then patch.
        func = Function(decl.name,
                        FunctionType(VOID, [VOID] * len(decl.params)),
                        [p.name for p in decl.params])
        self.module.add_function(func)
        self.func, saved_slots = func, self.local_slot_names
        self.local_slot_names = {}
        try:
            param_types = []
            for param in decl.params:
                ptype = self.ir_type(decay(param.type))
                param_types.append(ptype)
                func.args[param.index].type = ptype
            ret_type = self.ir_type(decay(decl.return_type)) \
                if not isinstance(decl.return_type, VoidT) else VOID
            func.type = FunctionType(ret_type, param_types)
            if isinstance(decl.return_type, IntT) \
                    and not decl.return_type.signed:
                func.unsigned_return = True
        finally:
            self.func = None
            self.local_slot_names = saved_slots

    # ------------------------------------------------------------ #
    # Function bodies
    # ------------------------------------------------------------ #

    def _emit_function(self, decl: ast.FunctionDecl) -> None:
        func = self.module.get_function(decl.name)
        self.func = func
        self.local_slot_names = {}
        entry = func.add_block("entry")
        self.builder.set_insert_point(entry)

        # Parameter slots: store each argument into an alloca so the body
        # can take addresses / reassign; mem2reg cleans this up.
        for param, arg in zip(decl.params, func.args):
            slot = self.builder.alloca(arg.type, name=f"{param.name}.addr")
            self.builder.store(arg, slot)
            self.slots[id(param)] = slot
            self.local_slot_names[param.name] = slot
            self.decl_types[id(param)] = decay(param.type)
            self._decl_by_id[id(param)] = param
            # Pin arguments used as type attributes (paper §III-B).
            if self._is_attribute_param(decl, param):
                keepalive = self._runtime("vpfloat.attr.keepalive")
                self.builder.call(keepalive,
                                  [self._coerce_to_i32(arg)], name="")

        self._emit_block(decl.body)

        # Implicit return for void functions / fallthrough.
        if self.builder.block.terminator is None:
            if isinstance(decl.return_type, VoidT):
                self.builder.ret()
            else:
                self.builder.ret(UndefValue(func.return_type))
        self.func = None

    def _is_attribute_param(self, func_decl: ast.FunctionDecl,
                            param: ast.ParamDecl) -> bool:
        def mentions(ctype: CType) -> bool:
            core = ctype
            while isinstance(core, (PointerT, ArrayT)):
                core = core.pointee if isinstance(core, PointerT) \
                    else core.element
            if not isinstance(core, VPFloatT):
                return False
            return any(isinstance(a, AttrRef) and a.name == param.name
                       for a in core.attributes())

        return any(mentions(p.type) for p in func_decl.params) or \
            mentions(func_decl.return_type)

    def _runtime(self, name: str) -> Function:
        return self.module.get_or_declare(name, RUNTIME_SIGNATURES[name])

    # ------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------ #

    def _emit_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            if self.builder.block.terminator is not None:
                break  # unreachable code after return/break
            self._emit_stmt(stmt)

    def _emit_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._emit_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._emit_local_decl(decl)
        elif isinstance(stmt, ast.ExprStmt):
            self._emit_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._emit_if(stmt)
        elif isinstance(stmt, ast.While):
            self._emit_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._emit_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._emit_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._emit_return(stmt)
        elif isinstance(stmt, ast.Break):
            self.builder.br(self.break_targets[-1])
        elif isinstance(stmt, ast.Continue):
            self.builder.br(self.continue_targets[-1])
        elif isinstance(stmt, ast.Pragma):
            if stmt.text == "omp atomic" and stmt.statement is not None:
                self.builder.call(self._runtime("__omp_atomic_begin"), [],
                                  name="")
                self._emit_stmt(stmt.statement)
                self.builder.call(self._runtime("__omp_atomic_end"), [],
                                  name="")
            elif stmt.statement is not None:
                self._emit_stmt(stmt.statement)
        else:
            raise CodegenError(f"unsupported statement {type(stmt).__name__}",
                               stmt.line, stmt.column)

    def _emit_local_decl(self, decl: ast.VarDecl) -> None:
        ctype = decl.type
        self._decl_by_id[id(decl)] = decl
        if isinstance(ctype, ArrayT):
            element_ir = self.ir_type(ctype.element)
            if ctype.is_vla:
                extent = self._rvalue_as(decl.type.vla_extent, I64)
                self._emit_dynamic_size_check(ctype.element)
                slot = self.builder.alloca(element_ir, count=extent,
                                           name=decl.name)
            else:
                self._emit_dynamic_size_check(ctype.element)
                slot = self.builder.alloca(ArrayType(element_ir, ctype.size),
                                           name=decl.name)
        else:
            self._emit_dynamic_size_check(ctype)
            slot = self.builder.alloca(self.ir_type(ctype), name=decl.name)
        self.slots[id(decl)] = slot
        self.local_slot_names[decl.name] = slot
        self.decl_types[id(decl)] = ctype
        if decl.init is not None:
            self.builder.store(
                self._rvalue_as(decl.init, slot.type.pointee), slot)

    def _emit_dynamic_size_check(self, ctype: CType) -> None:
        """Every dynamically-sized declaration calls ``__sizeof_vpfloat``
        to validate attributes and obtain the allocation size (§III-A5)."""
        if not isinstance(ctype, VPFloatT) or ctype.is_static:
            return
        self._emit_sizeof_call(ctype)

    def _emit_sizeof_call(self, ctype: VPFloatT) -> Value:
        exp = self._attr_value(ctype.exp)
        prec = self._attr_value(ctype.prec)
        if ctype.format == "unum":
            size = self._attr_value(ctype.size) if ctype.size \
                else ConstantInt(I32, 0)
            return self.builder.call(
                self._runtime("__sizeof_vpfloat"), [exp, prec, size],
                name="vpsize",
            )
        return self.builder.call(
            self._runtime("__sizeof_vpfloat_mpfr"), [exp, prec],
            name="vpsize",
        )

    def _emit_if(self, stmt: ast.If) -> None:
        cond = self._emit_condition(stmt.cond)
        then_block = self.func.add_block("if.then")
        merge_block = self.func.add_block("if.end")
        else_block = merge_block
        if stmt.else_body is not None:
            else_block = self.func.add_block("if.else")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.set_insert_point(then_block)
        self._emit_stmt(stmt.then_body)
        if self.builder.block.terminator is None:
            self.builder.br(merge_block)

        if stmt.else_body is not None:
            self.builder.set_insert_point(else_block)
            self._emit_stmt(stmt.else_body)
            if self.builder.block.terminator is None:
                self.builder.br(merge_block)

        self.builder.set_insert_point(merge_block)

    def _emit_while(self, stmt: ast.While) -> None:
        header = self.func.add_block("while.cond")
        body = self.func.add_block("while.body")
        exit_block = self.func.add_block("while.end")
        self.builder.br(header)
        self.builder.set_insert_point(header)
        cond = self._emit_condition(stmt.cond)
        self.builder.cond_br(cond, body, exit_block)
        self.builder.set_insert_point(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(header)
        self._emit_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.builder.block.terminator is None:
            self.builder.br(header)
        self.builder.set_insert_point(exit_block)

    def _emit_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.func.add_block("do.body")
        cond_block = self.func.add_block("do.cond")
        exit_block = self.func.add_block("do.end")
        self.builder.br(body)
        self.builder.set_insert_point(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(cond_block)
        self._emit_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.builder.block.terminator is None:
            self.builder.br(cond_block)
        self.builder.set_insert_point(cond_block)
        cond = self._emit_condition(stmt.cond)
        self.builder.cond_br(cond, body, exit_block)
        self.builder.set_insert_point(exit_block)

    def _emit_for(self, stmt: ast.For) -> None:
        if stmt.omp_parallel:
            trip = self._estimate_trip_count(stmt)
            self.builder.call(self._runtime("__omp_parallel_begin"),
                              [trip], name="")
        if stmt.init is not None:
            self._emit_stmt(stmt.init)
        header = self.func.add_block("for.cond")
        body = self.func.add_block("for.body")
        step_block = self.func.add_block("for.inc")
        exit_block = self.func.add_block("for.end")
        self.builder.br(header)
        self.builder.set_insert_point(header)
        if stmt.cond is not None:
            cond = self._emit_condition(stmt.cond)
            self.builder.cond_br(cond, body, exit_block)
        else:
            self.builder.br(body)
        self.builder.set_insert_point(body)
        self.break_targets.append(exit_block)
        self.continue_targets.append(step_block)
        self._emit_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.builder.block.terminator is None:
            self.builder.br(step_block)
        self.builder.set_insert_point(step_block)
        if stmt.step is not None:
            self._emit_expr(stmt.step)
        self.builder.br(header)
        self.builder.set_insert_point(exit_block)
        if stmt.omp_parallel:
            self.builder.call(self._runtime("__omp_parallel_end"), [],
                              name="")

    def _estimate_trip_count(self, stmt: ast.For) -> Value:
        """Best-effort trip count for the parallel-for marker (cost model)."""
        if isinstance(stmt.cond, ast.Binary) and stmt.cond.op in ("<", "<="):
            bound = stmt.cond.rhs
            try:
                value = self._rvalue_as(bound, I64)
                return value
            except Exception:  # pragma: no cover - conservative fallback
                pass
        return ConstantInt(I64, 0)

    def _emit_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self.builder.ret()
            return
        self.builder.ret(self._rvalue_as(stmt.value, self.func.return_type))

    # ------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------ #

    def _emit_condition(self, expr: ast.Expr) -> Value:
        value = self._emit_expr(expr)
        return self._to_bool(value)

    def _to_bool(self, value: Value) -> Value:
        if value.type == I1:
            return value
        if value.type.is_integer:
            zero = ConstantInt(value.type, 0)
            return self.builder.icmp("ne", value, zero)
        # A float is true unless it equals zero, so NaN is true: the
        # unordered ``une``, as clang emits.
        if value.type.is_float:
            zero = ConstantFloat(value.type, 0.0)
            return self.builder.fcmp("une", value, zero)
        if value.type.is_vpfloat:
            zero = self.builder.const_vpfloat(
                value.type, BigFloat.zero(LITERAL_PRECISION))
            return self.builder.fcmp("une", value, zero)
        if value.type.is_pointer:
            return self.builder.icmp(
                "ne",
                self.builder.cast("ptrtoint", value, I64),
                ConstantInt(I64, 0),
            )
        raise TypeError(f"cannot convert {value.type} to boolean")

    def _emit_expr(self, expr: ast.Expr) -> Value:
        """``expr`` lowered at its sema type, ``expr.ctype``."""
        return getattr(self, f"_gen_{type(expr).__name__}")(expr)

    # ---- literals ------------------------------------------------ #

    def _gen_IntLit(self, expr: ast.IntLit) -> Value:
        return ConstantInt(self.ir_type(expr.ctype), expr.value)

    def _gen_FloatLit(self, expr: ast.FloatLit) -> Value:
        if expr.suffix == "f":
            rounded = struct.unpack("f", struct.pack("f", float(expr.text)))
            return ConstantFloat(F32, rounded[0])
        return _double_literal(expr.text)

    def _gen_StringLit(self, expr: ast.StringLit) -> Value:
        from ..ir import ConstantString

        return ConstantString(PointerType(I8), expr.value)

    # ---- lvalues -------------------------------------------------- #

    def _lvalue(self, expr: ast.Expr) -> Tuple[Value, IRType]:
        """Returns (pointer, pointee IR type)."""
        if isinstance(expr, ast.Ident):
            slot = self.slots.get(id(expr.decl))
            if slot is None:
                raise CodegenError(f"no storage for {expr.name!r}",
                                   expr.line, expr.column)
            return slot, slot.type.pointee
        if isinstance(expr, ast.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.Deref):
            pointer = self._emit_expr(expr.operand)
            return pointer, pointer.type.pointee
        raise CodegenError("expression is not an lvalue",
                           expr.line, expr.column)

    def _index_lvalue(self, expr: ast.Index) -> Tuple[Value, IRType]:
        base_ct = decay(expr.base.ctype)
        index = self._rvalue_as(expr.index, I64)
        base = self._emit_expr(expr.base)
        if isinstance(base.type, PointerType) and \
                isinstance(base.type.pointee, ArrayType):
            ptr = self.builder.gep(base, [ConstantInt(I64, 0), index])
        else:
            ptr = self.builder.gep(base, [index])
        return ptr, ptr.type.pointee

    # ---- expressions ---------------------------------------------- #

    def _gen_Ident(self, expr: ast.Ident) -> Value:
        declared = self.decl_types.get(id(expr.decl))
        if isinstance(declared, ArrayT) and declared.is_vla:
            # A VLA's storage slot *is* the decayed element pointer.
            return self.slots[id(expr.decl)]
        slot, pointee = self._lvalue(expr)
        if isinstance(pointee, ArrayType):
            # Array-to-pointer decay: &array[0].
            return self.builder.gep(
                slot, [ConstantInt(I64, 0), ConstantInt(I64, 0)],
                name=f"{expr.name}.decay",
            )
        return self.builder.load(slot, name=expr.name)

    def _gen_Index(self, expr: ast.Index) -> Value:
        ptr, pointee = self._index_lvalue(expr)
        if isinstance(pointee, ArrayType):
            return self.builder.gep(
                ptr, [ConstantInt(I64, 0), ConstantInt(I64, 0)],
                name="decay",
            )
        return self.builder.load(ptr)

    def _gen_Deref(self, expr: ast.Deref) -> Value:
        pointer = self._emit_expr(expr.operand)
        return self.builder.load(pointer)

    def _gen_AddressOf(self, expr: ast.AddressOf) -> Value:
        pointer, _ = self._lvalue(expr.operand)
        return pointer

    def _gen_Binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op == ",":
            self._emit_expr(expr.lhs)
            return self._emit_expr(expr.rhs)
        if op in ("&&", "||"):
            return self._gen_short_circuit(expr)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._gen_comparison(expr)
        return self._arith(expr, self._emit_expr(expr.lhs),
                           self.ir_type(expr.ctype))

    def _arith(self, expr: ast.Binary, lhs: Value,
               result_type: IRType) -> Value:
        """``lhs op rhs`` in ``result_type``, the IR type of
        ``expr.ctype``, with ``lhs`` the already lowered ``expr.lhs``;
        compound assignments share it."""
        lhs_ct = decay(expr.lhs.ctype)
        rhs_ct = decay(expr.rhs.ctype)
        if isinstance(lhs_ct, PointerT) or isinstance(rhs_ct, PointerT):
            return self._pointer_arith(expr, lhs, lhs_ct, rhs_ct)
        rhs = self._emit_expr(expr.rhs)
        lhs = self._convert(lhs, result_type, expr.lhs)
        rhs = self._convert(rhs, result_type, expr.rhs)
        if result_type.is_fp:
            opcode = {"+": "fadd", "-": "fsub", "*": "fmul",
                      "/": "fdiv"}[expr.op]
        else:
            signed = expr.ctype.signed
            opcode = {
                "+": "add", "-": "sub", "*": "mul",
                "/": "sdiv" if signed else "udiv",
                "%": "srem" if signed else "urem",
                "&": "and", "|": "or", "^": "xor",
                "<<": "shl", ">>": "ashr" if signed else "lshr",
            }[expr.op]
        return self.builder.binop(opcode, lhs, rhs)

    def _gen_comparison(self, expr: ast.Binary) -> Value:
        common_ct = expr.operand_type
        common = self.ir_type(common_ct)
        lhs = self._rvalue_as(expr.lhs, common)
        rhs = self._rvalue_as(expr.rhs, common)
        if common.is_fp:
            # C's != is true when either operand is NaN: ``une``.
            pred = {"==": "oeq", "!=": "une", "<": "olt", "<=": "ole",
                    ">": "ogt", ">=": "oge"}[expr.op]
            return self.builder.fcmp(pred, lhs, rhs)
        if common_ct.signed:
            pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                    ">": "sgt", ">=": "sge"}[expr.op]
        else:
            pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                    ">": "ugt", ">=": "uge"}[expr.op]
        return self.builder.icmp(pred, lhs, rhs)

    def _pointer_arith(self, expr: ast.Binary, lhs: Value, lhs_ct,
                       rhs_ct) -> Value:
        if isinstance(lhs_ct, PointerT) and isinstance(rhs_ct, PointerT):
            lhs = self.builder.cast("ptrtoint", lhs, I64)
            rhs = self.builder.cast("ptrtoint", self._emit_expr(expr.rhs), I64)
            diff = self.builder.sub(lhs, rhs)
            elem = self.ir_type(lhs_ct.pointee)
            return self.builder.sdiv(
                diff, ConstantInt(I64, elem.size_bytes()))
        if isinstance(lhs_ct, PointerT):
            offset = self._rvalue_as(expr.rhs, I64)
            if expr.op == "-":
                offset = self.builder.sub(ConstantInt(I64, 0), offset)
            return self.builder.gep(lhs, [offset])
        base = self._emit_expr(expr.rhs)
        return self.builder.gep(base, [self._convert(lhs, I64, expr.lhs)])

    def _gen_short_circuit(self, expr: ast.Binary) -> Value:
        lhs = self._emit_condition(expr.lhs)
        lhs_block = self.builder.block
        rhs_block = self.func.add_block("sc.rhs")
        merge = self.func.add_block("sc.end")
        if expr.op == "&&":
            self.builder.cond_br(lhs, rhs_block, merge)
        else:
            self.builder.cond_br(lhs, merge, rhs_block)
        self.builder.set_insert_point(rhs_block)
        rhs = self._emit_condition(expr.rhs)
        rhs_exit = self.builder.block
        self.builder.br(merge)
        self.builder.set_insert_point(merge)
        phi = self.builder.phi(I1, name="sc")
        phi.add_incoming(ConstantInt(I1, 0 if expr.op == "&&" else 1),
                         lhs_block)
        phi.add_incoming(rhs, rhs_exit)
        return phi

    def _gen_Unary(self, expr: ast.Unary) -> Value:
        if expr.op in ("++", "--"):
            ptr, pointee = self._lvalue(expr.operand)
            old = self.builder.load(ptr)
            if pointee.is_pointer:
                step = ConstantInt(I64, 1 if expr.op == "++" else -1)
                new = self.builder.gep(old, [step])
            else:
                one = ConstantInt(pointee, 1)
                new = (self.builder.add(old, one) if expr.op == "++"
                       else self.builder.sub(old, one))
            self.builder.store(new, ptr)
            return old if expr.postfix else new
        if expr.op == "!":
            return self.builder.binop(
                "xor", self._emit_condition(expr.operand),
                ConstantInt(I1, 1))
        operand = self._emit_expr(expr.operand)
        if operand.type.is_integer:
            operand = self._convert(operand, self.ir_type(expr.ctype),
                                    expr.operand)
        if expr.op == "+":
            return operand
        if expr.op == "~":
            return self.builder.binop(
                "xor", operand, ConstantInt(operand.type, -1))
        # Negation.  A negated double literal stays a literal, so a
        # vpfloat context still reads it exactly from its text.
        text = getattr(operand, "literal_text", None)
        if text is not None:
            return _double_literal(text[1:] if text.startswith("-")
                                   else "-" + text)
        if operand.type.is_fp:
            return self.builder.fneg(operand)
        return self.builder.sub(ConstantInt(operand.type, 0), operand)

    def _gen_Assign(self, expr: ast.Assign) -> Value:
        ptr, pointee = self._lvalue(expr.target)
        binary = expr.binary
        if binary is None:
            value = self._rvalue_as(expr.value, pointee)
        else:
            # 'a op= b' of a's own C type computes in a's IR type, so a
            # dynamic vpfloat keeps the attributes its declaration
            # captured instead of re-reading them.
            result_type = pointee if binary.ctype == decay(expr.target.ctype) \
                else self.ir_type(binary.ctype)
            value = self._convert(
                self._arith(binary, self.builder.load(ptr), result_type),
                pointee, binary)
        self.builder.store(value, ptr)
        return value

    def _gen_Ternary(self, expr: ast.Ternary) -> Value:
        result_type = self.ir_type(expr.ctype)
        cond = self._emit_condition(expr.cond)
        then_block = self.func.add_block("sel.then")
        else_block = self.func.add_block("sel.else")
        merge = self.func.add_block("sel.end")
        self.builder.cond_br(cond, then_block, else_block)
        self.builder.set_insert_point(then_block)
        tval = self._rvalue_as(expr.true_expr, result_type)
        then_exit = self.builder.block
        self.builder.br(merge)
        self.builder.set_insert_point(else_block)
        fval = self._rvalue_as(expr.false_expr, result_type)
        else_exit = self.builder.block
        self.builder.br(merge)
        self.builder.set_insert_point(merge)
        phi = self.builder.phi(result_type, name="cond")
        phi.add_incoming(tval, then_exit)
        phi.add_incoming(fval, else_exit)
        return phi

    def _gen_Call(self, expr: ast.Call) -> Value:
        mapped = _VP_BUILTIN_MAP.get(expr.name)
        if mapped is not None:
            args = [self._emit_expr(a) for a in expr.args]
            result_type = args[0].type
            return self.builder.call(self._runtime(mapped), args,
                                     name=expr.name,
                                     result_type=result_type)
        if expr.decl is None:
            # Library builtin with a concrete signature.
            callee = self._runtime(expr.name)
            args = [self._rvalue_as(arg, ptype)
                    for arg, ptype in zip(expr.args, callee.type.params)]
            return self.builder.call(callee, args, name=expr.name)
        callee = self.module.get_function(expr.name)
        args = []
        for arg, ptype in zip(expr.args, callee.type.params):
            if _mentions_foreign_vpfloat(ptype, self.func):
                # Dependent parameter type: the argument already satisfies
                # it (attribute equality is enforced by the runtime checks
                # below); no conversion is possible or needed.
                args.append(self._emit_expr(arg))
                continue
            args.append(self._rvalue_as(arg, ptype))
        # Runtime attribute-consistency checks (paper Listing 3).
        for check in getattr(expr, "runtime_attr_checks", []):
            self._emit_attr_check(expr, check, callee, args)
        # Dependent return types are rebound to caller-side attributes
        # (sema already substituted them into expr.ctype).
        result_type = None
        if _mentions_foreign_vpfloat(callee.return_type, self.func):
            result_type = self.ir_type(expr.ctype)
        return self.builder.call(callee, args, name=expr.name,
                                 result_type=result_type)

    def _emit_attr_check(self, expr: ast.Call, check, callee, args) -> None:
        name, against = check
        actual = self._call_attr_value(expr, name, callee, args)
        if actual is None:
            return
        if isinstance(against, int):
            expected_value: Value = ConstantInt(I32, against)
        else:
            # The comparison is against the attribute value *captured in
            # the argument's declared type* (paper Listing 3 line 17:
            # "++p" invalidates the previously-created types), so pull it
            # out of the vpfloat argument's IR type rather than
            # re-reading the caller variable at the call site.
            expected_value = self._declared_attr_capture(expr, name, args)
            if expected_value is None:
                try:
                    expected_value = self._attr_value(AttrRef(against))
                except TypeError:
                    expected_value = self._call_attr_value(expr, against,
                                                           callee, args)
            if expected_value is None:
                return
        self.builder.call(self._runtime("__vpfloat_check_attr"),
                          [actual, expected_value], name="")

    def _declared_attr_capture(self, expr: ast.Call, attr_name: str,
                               args) -> Optional[Value]:
        """The attribute Value captured in a vpfloat argument's type.

        ``attr_name`` names an attribute of a callee parameter's dependent
        type; the matching argument's IR type carries the caller-side
        Value that was captured when the argument was *declared* — the
        value the runtime check must compare against.
        """
        params = self._params_by_func.get(expr.name, [])
        for i, param in enumerate(params):
            if i >= len(args):
                break
            ctype = decay(param.type)
            while isinstance(ctype, (PointerT, ArrayT)):
                ctype = ctype.pointee if isinstance(ctype, PointerT) \
                    else ctype.element
            if not isinstance(ctype, VPFloatT):
                continue
            ir_ty = args[i].type
            while True:
                inner = getattr(ir_ty, "pointee",
                                getattr(ir_ty, "element", None))
                if inner is None:
                    break
                ir_ty = inner
            if not isinstance(ir_ty, VPFloatType):
                continue
            for attr_ast, attr_ir in zip(
                (ctype.exp, ctype.prec, ctype.size),
                (ir_ty.exp_attr, ir_ty.prec_attr, ir_ty.size_attr),
            ):
                if isinstance(attr_ast, AttrRef) and \
                        attr_ast.name == attr_name and attr_ir is not None:
                    return self._coerce_to_i32(attr_ir)
        return None

    def _call_attr_value(self, expr: ast.Call, name: str, callee,
                         args) -> Optional[Value]:
        """The i32 value bound to callee parameter ``name`` at this call."""
        params = self._params_by_func.get(expr.name, [])
        for i, param in enumerate(params):
            if param.name == name and i < len(args):
                value = args[i]
                if value.type.is_integer:
                    return self._coerce_to_i32(value)
        # Not a parameter: caller-scope variable.
        try:
            return self._attr_value(AttrRef(name))
        except TypeError:
            return None

    def _gen_Cast(self, expr: ast.Cast) -> Value:
        target = self.ir_type(decay(expr.target_type))
        return self._convert(self._emit_expr(expr.expr), target, expr.expr,
                             explicit=True)

    def _gen_SizeofType(self, expr: ast.SizeofType) -> Value:
        queried = expr.queried_type
        if isinstance(queried, VPFloatT) and not queried.is_static:
            return self._emit_sizeof_call(queried)
        return ConstantInt(I64, self.ir_type(queried).size_bytes())

    def _gen_SizeofExpr(self, expr: ast.SizeofExpr) -> Value:
        ctype = expr.operand.ctype
        if isinstance(ctype, VPFloatT) and not ctype.is_static:
            return self._emit_sizeof_call(ctype)
        return ConstantInt(I64, self.ir_type(decay(ctype)).size_bytes())

    # ------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------ #

    def _rvalue_as(self, expr: ast.Expr, type: IRType) -> Value:
        return self._convert(self._emit_expr(expr), type, expr)

    def _convert(self, value: Value, target: IRType, origin: ast.Expr,
                 explicit: bool = False) -> Value:
        source = value.type
        if source == target:
            return value
        # An unsigned C source converts by its unsigned value: widened
        # with zext, and to floating point with uitofp.
        unsigned = source.is_integer \
            and not getattr(origin.ctype, "signed", True)
        # Constant folding of literal conversions.
        if isinstance(value, ConstantFloat) and target.is_vpfloat:
            text = getattr(value, "literal_text", None)
            if text is not None:
                return self.builder.const_vpfloat(
                    target, from_str(text, LITERAL_PRECISION))
            return self.builder.const_vpfloat(
                target, BigFloat.from_float(value.value, LITERAL_PRECISION))
        opcode = _cast_opcode(source, target, unsigned)
        if isinstance(value, ConstantInt):
            if target.is_vpfloat:
                number = value.value % (1 << source.bits) if unsigned \
                    else value.value
                return self.builder.const_vpfloat(
                    target, BigFloat.from_int(number, LITERAL_PRECISION))
            if target.is_float or target.is_integer:
                return constant_of(target, cast_value(
                    opcode, value.value, source.bits, target.bits))
        if opcode is None:
            raise CodegenError(
                f"cannot convert {source} to {target}",
                origin.line, origin.column,
            )
        if opcode == "vpconv":
            return self.builder.vpconv(value, target)
        return self.builder.cast(opcode, value, target)


def _cast_opcode(source: IRType, target: IRType,
                 unsigned: bool) -> Optional[str]:
    """The cast converting ``source`` to ``target`` (an ``unsigned`` C
    integer widens with zext and converts with uitofp); None if none."""
    if source.is_integer and target.is_integer:
        if target.bits > source.bits:
            return "zext" if unsigned else "sext"
        return "trunc" if target.bits < source.bits else "bitcast"
    if source.is_integer and target.is_fp:
        return "uitofp" if unsigned else "sitofp"
    if source.is_float and target.is_integer:
        return "fptosi"
    if source.is_float and target.is_float:
        return "fpext" if target.bits > source.bits else "fptrunc"
    # vpfloat conversions are always explicit vpconv instructions;
    # sema restricted the implicit ones to plain assignment already.
    if source.is_fp and target.is_fp:
        return "vpconv"
    if source.is_vpfloat and target.is_integer:
        return "fptosi"
    if source.is_pointer and target.is_pointer:
        return "bitcast"
    if source.is_pointer and target.is_integer:
        return "ptrtoint"
    if source.is_integer and target.is_pointer:
        return "inttoptr"
    return None


def _double_literal(text: str) -> ConstantFloat:
    constant = ConstantFloat(F64, float(text))
    constant.literal_text = text  # kept for exact vpfloat retyping
    return constant


def _mentions_foreign_vpfloat(type: IRType, current_func) -> bool:
    """True when ``type`` contains a vpfloat whose attributes are Values
    owned by a different function (a dependent callee signature type)."""
    core = type
    while isinstance(core, (PointerType, ArrayType)):
        core = core.pointee if isinstance(core, PointerType) else core.element
    if not isinstance(core, VPFloatType):
        return False
    from ..ir import Constant

    return any(not isinstance(a, Constant) for a in core.attributes())


def generate_ir(unit: ast.TranslationUnit, name: str = "module") -> Module:
    """Lower an analyzed translation unit to a verified IR module."""
    return IRGenerator(unit, name).generate()
