"""Semantic analysis for the vpfloat C dialect.

Implements the paper's type-system rules:

- vpfloat attributes are well-formed: integer literals within the format's
  limits, or identifiers resolving to in-scope integer declarations
  (§III-A2).  A parameter's attributes may only reference *previously
  declared* parameters; a return type's attributes may reference any
  parameter (§III-A5, Listing 3's ``example_dyn_type_return``).
- Strict type equality: two vpfloat types are equal only with identical
  attributes; no subtyping, no implicit conversion *except plain variable
  assignment* (§III-A3).  Mixed vpfloat/primitive arithmetic is allowed
  (Listing 2 multiplies ``double`` by vpfloat) and later lowered to the
  specialized ``mpfr_*_d/si`` entry points.
- Call-site attribute checking: constant-vs-constant mismatches are
  compile-time errors (Listing 3 line 10); dynamic attributes produce
  runtime verification calls recorded on the Call node (lines 14/17).
- Dynamically-sized types follow VLA rules: locals and parameters only,
  never globals (§III-A5).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import ast
from .ctypes import (
    ArrayT,
    AttrConst,
    AttrRef,
    BOOL,
    CType,
    DOUBLE,
    FloatT,
    INT,
    IntT,
    PointerT,
    VoidT,
    VPFloatT,
    decay,
)
from .lexer import SourceError

#: Builtin functions visible without declaration: name -> (ret, [params]).
#: ``None`` in params means "any arithmetic"; varargs marked with "...".
_BUILTINS: Dict[str, tuple] = {
    "sqrt": (DOUBLE, [DOUBLE]),
    "fabs": (DOUBLE, [DOUBLE]),
    "exp": (DOUBLE, [DOUBLE]),
    "log": (DOUBLE, [DOUBLE]),
    "pow": (DOUBLE, [DOUBLE, DOUBLE]),
    "sin": (DOUBLE, [DOUBLE]),
    "cos": (DOUBLE, [DOUBLE]),
    "floor": (DOUBLE, [DOUBLE]),
    "ceil": (DOUBLE, [DOUBLE]),
    "fmax": (DOUBLE, [DOUBLE, DOUBLE]),
    "fmin": (DOUBLE, [DOUBLE, DOUBLE]),
    # vpfloat math builtins: polymorphic over the vpfloat argument type.
    "vp_sqrt": (None, [None]),
    "vp_fabs": (None, [None]),
    "vp_exp": (None, [None]),
    "vp_log": (None, [None]),
    "vp_sin": (None, [None]),
    "vp_cos": (None, [None]),
    "vp_pow": (None, [None, None]),
    # I/O helpers for examples.
    "print_double": (VoidT(), [DOUBLE]),
    "print_int": (VoidT(), [INT]),
    "print_vpfloat": (VoidT(), [None]),
    "malloc": (PointerT(IntT(8, True)), [IntT(64, True)]),
    "free": (VoidT(), [PointerT(IntT(8, True))]),
}


class SemanticError(SourceError):
    """A violation of the dialect's typing rules."""


class Scope:
    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.symbols: Dict[str, ast.Node] = {}

    def declare(self, name: str, decl: ast.Node, node: ast.Node) -> None:
        if name in self.symbols:
            raise SemanticError(f"redeclaration of {name!r}",
                                node.line, node.column)
        self.symbols[name] = decl

    def lookup(self, name: str) -> Optional[ast.Node]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class Sema:
    """Type checker / resolver; annotates the AST in place."""

    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.global_scope = Scope()
        self.functions: Dict[str, ast.FunctionDecl] = {}
        self.current_function: Optional[ast.FunctionDecl] = None
        self.loop_depth = 0

    # ------------------------------------------------------------ #

    def run(self) -> ast.TranslationUnit:
        for decl in self.unit.declarations:
            if isinstance(decl, ast.FunctionDecl):
                self._register_function(decl)
            else:
                self._check_global(decl)
        for decl in self.unit.functions():
            if decl.body is not None:
                self._check_function(decl)
        return self.unit

    # ------------------------------------------------------------ #
    # Declarations
    # ------------------------------------------------------------ #

    def _register_function(self, func: ast.FunctionDecl) -> None:
        existing = self.functions.get(func.name)
        if existing is not None:
            if existing.body is not None and func.body is not None:
                raise SemanticError(f"redefinition of function {func.name!r}",
                                    func.line, func.column)
            if len(existing.params) != len(func.params):
                raise SemanticError(
                    f"conflicting declaration of {func.name!r}",
                    func.line, func.column,
                )
            if func.body is not None:
                self.functions[func.name] = func
                self.global_scope.symbols[func.name] = func
            return
        self.functions[func.name] = func
        self.global_scope.declare(func.name, func, func)
        self._check_signature(func)

    def _check_signature(self, func: ast.FunctionDecl) -> None:
        param_names = {}
        for param in func.params:
            self._check_type(param.type, scope_params=param_names,
                             node=param, context=f"parameter {param.name!r}")
            if param.name:
                param_names[param.name] = param
        # Return types may reference ANY parameter (checked after all
        # params are processed -- paper: "Our compiler checks and builds a
        # function's return type after all arguments are processed").
        self._check_type(func.return_type, scope_params=param_names,
                         node=func, context="return type")
        if isinstance(func.return_type, ArrayT):
            raise SemanticError("functions cannot return arrays",
                                func.line, func.column)

    def _check_type(self, ctype: CType, scope_params: Dict[str, ast.Node],
                    node: ast.Node, context: str,
                    local_scope: Optional[Scope] = None) -> None:
        """Validate vpfloat attribute references inside ``ctype``."""
        if isinstance(ctype, PointerT):
            self._check_type(ctype.pointee, scope_params, node, context,
                             local_scope)
            return
        if isinstance(ctype, ArrayT):
            self._check_type(ctype.element, scope_params, node, context,
                             local_scope)
            return
        if not isinstance(ctype, VPFloatT):
            return
        for attr in ctype.attributes():
            if isinstance(attr, AttrConst):
                self._check_const_attr(ctype, attr, node)
                continue
            decl = scope_params.get(attr.name)
            if decl is None and local_scope is not None:
                decl = local_scope.lookup(attr.name)
            if decl is None:
                decl = self.global_scope.lookup(attr.name)
            if decl is None or isinstance(decl, ast.FunctionDecl):
                raise SemanticError(
                    f"{context}: vpfloat attribute {attr.name!r} does not "
                    f"name an in-scope integer declaration",
                    node.line, node.column,
                )
            decl_type = decl.type
            if not decl_type.is_integer:
                raise SemanticError(
                    f"{context}: vpfloat attribute {attr.name!r} must have "
                    f"integer type, found {decl_type}",
                    node.line, node.column,
                )

    def _check_const_attr(self, ctype: VPFloatT, attr: AttrConst,
                          node: ast.Node) -> None:
        """Range-check constant attributes at compile time."""
        from ..unum import ESS_MAX, ESS_MIN, FSS_MAX, FSS_MIN, SIZE_MAX, SIZE_MIN

        if ctype.format == "posit":
            if attr is ctype.exp and not 0 <= attr.value <= 4:
                raise SemanticError(
                    f"posit es must be in 0..4, got {attr.value}",
                    node.line, node.column)
            if attr is ctype.prec and not 3 <= attr.value <= 64:
                raise SemanticError(
                    f"posit nbits must be in 3..64, got {attr.value}",
                    node.line, node.column)
            return
        if ctype.format == "unum":
            if attr is ctype.exp and not ESS_MIN <= attr.value <= ESS_MAX:
                raise SemanticError(
                    f"unum ess must be in {ESS_MIN}..{ESS_MAX}, "
                    f"got {attr.value}", node.line, node.column)
            if attr is ctype.prec and not FSS_MIN <= attr.value <= FSS_MAX:
                raise SemanticError(
                    f"unum fss must be in {FSS_MIN}..{FSS_MAX}, "
                    f"got {attr.value}", node.line, node.column)
            if attr is ctype.size and not SIZE_MIN <= attr.value <= SIZE_MAX:
                raise SemanticError(
                    f"unum size must be in {SIZE_MIN}..{SIZE_MAX} bytes, "
                    f"got {attr.value}", node.line, node.column)
        else:
            from ..ir.types import MPFR_MAX_EXP_BITS, MPFR_MAX_PREC, MPFR_MIN_PREC

            if attr is ctype.exp and not 1 <= attr.value <= MPFR_MAX_EXP_BITS:
                raise SemanticError(
                    f"mpfr exponent width must be in 1..{MPFR_MAX_EXP_BITS}, "
                    f"got {attr.value}", node.line, node.column)
            if attr is ctype.prec and not \
                    MPFR_MIN_PREC <= attr.value <= MPFR_MAX_PREC:
                raise SemanticError(
                    f"mpfr precision must be in {MPFR_MIN_PREC}.."
                    f"{MPFR_MAX_PREC}, got {attr.value}",
                    node.line, node.column)

    def _check_global(self, decl: ast.VarDecl) -> None:
        if _contains_dynamic_vpfloat(decl.type):
            raise SemanticError(
                f"global {decl.name!r}: dynamically-sized vpfloat types may "
                f"only be declared as local variables and function "
                f"parameters (VLA rule)", decl.line, decl.column,
            )
        if isinstance(decl.type, ArrayT) and decl.type.is_vla:
            raise SemanticError(
                f"global {decl.name!r} cannot be a variable length array",
                decl.line, decl.column,
            )
        self._check_type(decl.type, {}, decl, f"global {decl.name!r}")
        self.global_scope.declare(decl.name, decl, decl)
        if decl.init is not None:
            self._check_expr(decl.init, Scope(self.global_scope))
            self._check_initializer(decl, decl.init)

    # ------------------------------------------------------------ #
    # Function bodies
    # ------------------------------------------------------------ #

    def _check_function(self, func: ast.FunctionDecl) -> None:
        self.current_function = func
        scope = Scope(self.global_scope)
        for param in func.params:
            if not param.name:
                raise SemanticError("parameter of a definition must be named",
                                    func.line, func.column)
            scope.declare(param.name, param, param)
        self._check_block(func.body, scope)
        self.current_function = None

    def _check_block(self, block: ast.Block, parent: Scope) -> None:
        scope = Scope(parent)
        for stmt in block.statements:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._check_local_decl(decl, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.If):
            self._check_condition(stmt.cond, scope)
            self._check_stmt(stmt.then_body, scope)
            if stmt.else_body is not None:
                self._check_stmt(stmt.else_body, scope)
        elif isinstance(stmt, ast.While):
            self._check_condition(stmt.cond, scope)
            self._in_loop(stmt.body, scope)
        elif isinstance(stmt, ast.DoWhile):
            self._in_loop(stmt.body, scope)
            self._check_condition(stmt.cond, scope)
        elif isinstance(stmt, ast.For):
            inner = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_condition(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner)
            self._in_loop(stmt.body, inner)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt, scope)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self.loop_depth == 0:
                kind = "break" if isinstance(stmt, ast.Break) else "continue"
                raise SemanticError(f"{kind!r} outside of a loop",
                                    stmt.line, stmt.column)
        elif isinstance(stmt, ast.Pragma):
            if stmt.statement is not None:
                self._check_stmt(stmt.statement, scope)
        else:
            raise SemanticError(f"unhandled statement {type(stmt).__name__}",
                                stmt.line, stmt.column)

    def _in_loop(self, body: ast.Stmt, scope: Scope) -> None:
        self.loop_depth += 1
        try:
            self._check_stmt(body, scope)
        finally:
            self.loop_depth -= 1

    def _check_local_decl(self, decl: ast.VarDecl, scope: Scope) -> None:
        params = {p.name: p for p in self.current_function.params}
        self._check_type(decl.type, params, decl,
                         f"declaration of {decl.name!r}", local_scope=scope)
        if isinstance(decl.type, ArrayT) and decl.type.is_vla:
            extent = decl.type.vla_extent
            self._check_expr(extent, scope)
            if not decay(extent.ctype).is_integer:
                raise SemanticError(
                    f"VLA extent of {decl.name!r} must be an integer",
                    decl.line, decl.column,
                )
        scope.declare(decl.name, decl, decl)
        if decl.init is not None:
            self._check_expr(decl.init, scope)
            self._check_initializer(decl, decl.init)

    def _check_initializer(self, decl: ast.VarDecl, init: ast.Expr) -> None:
        target = decay(decl.type)
        source = decay(init.ctype)
        if not _assignable(target, source):
            raise SemanticError(
                f"cannot initialize {decl.name!r} of type {decl.type} "
                f"from {init.ctype}", decl.line, decl.column,
            )

    def _check_return(self, stmt: ast.Return, scope: Scope) -> None:
        expected = self.current_function.return_type
        if stmt.value is None:
            if not isinstance(expected, VoidT):
                raise SemanticError(
                    f"non-void function {self.current_function.name!r} must "
                    f"return a value", stmt.line, stmt.column,
                )
            return
        if isinstance(expected, VoidT):
            raise SemanticError(
                f"void function {self.current_function.name!r} cannot "
                f"return a value", stmt.line, stmt.column,
            )
        self._check_expr(stmt.value, scope)
        if not _assignable(decay(expected), decay(stmt.value.ctype)):
            raise SemanticError(
                f"return type mismatch: expected {expected}, "
                f"got {stmt.value.ctype}", stmt.line, stmt.column,
            )

    def _check_condition(self, cond: ast.Expr, scope: Scope) -> None:
        self._check_expr(cond, scope)
        ctype = decay(cond.ctype)
        if not (ctype.is_arithmetic or isinstance(ctype, PointerT)):
            raise SemanticError(f"condition has non-scalar type {cond.ctype}",
                                cond.line, cond.column)

    # ------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------ #

    def _check_expr(self, expr: ast.Expr, scope: Scope) -> CType:
        method = getattr(self, f"_expr_{type(expr).__name__}", None)
        if method is None:
            raise SemanticError(f"unhandled expression {type(expr).__name__}",
                                expr.line, expr.column)
        expr.ctype = method(expr, scope)
        return expr.ctype

    def _expr_IntLit(self, expr: ast.IntLit, scope: Scope) -> CType:
        # C11 6.4.4.1p5: the first type of the literal's list that can
        # represent its value.  Hex and octal literals may also take
        # the unsigned type of each width.
        value = expr.value
        for bits in ((64,) if expr.long else (32, 64)):
            if not expr.unsigned and value < 1 << (bits - 1):
                return IntT(bits, True)
            if (expr.unsigned or not expr.decimal) and value < 1 << bits:
                return IntT(bits, False)
        # A decimal literal above LONG_MAX has no standard type; like
        # gcc, type it unsigned long.
        return IntT(64, False)

    def _expr_FloatLit(self, expr: ast.FloatLit, scope: Scope) -> CType:
        # Unsuffixed and vpfloat-suffixed ('v', 'y') literals are double.
        # A double literal converted to a vpfloat is read exactly from
        # its text, so it loses nothing to the double rounding.
        return FloatT(32) if expr.suffix == "f" else FloatT(64)

    def _expr_StringLit(self, expr: ast.StringLit, scope: Scope) -> CType:
        return PointerT(IntT(8, True))

    def _expr_Ident(self, expr: ast.Ident, scope: Scope) -> CType:
        decl = scope.lookup(expr.name)
        if decl is None:
            raise SemanticError(f"use of undeclared identifier {expr.name!r}",
                                expr.line, expr.column)
        if isinstance(decl, ast.FunctionDecl):
            raise SemanticError(
                f"function {expr.name!r} used as a value", expr.line,
                expr.column,
            )
        expr.decl = decl
        return decl.type

    def _expr_Binary(self, expr: ast.Binary, scope: Scope) -> CType:
        lhs = decay(self._check_expr(expr.lhs, scope))
        rhs = decay(self._check_expr(expr.rhs, scope))
        op = expr.op
        if op == ",":
            return rhs
        if op in ("&&", "||"):
            return BOOL
        if op in ("==", "!=", "<", "<=", ">", ">="):
            expr.operand_type = self._comparison_type(expr, lhs, rhs)
            return BOOL
        if op in ("%", "<<", ">>", "&", "|", "^"):
            if not (lhs.is_integer and rhs.is_integer):
                raise SemanticError(
                    f"operator {op!r} requires integer operands, "
                    f"got {lhs} and {rhs}", expr.line, expr.column,
                )
            if op in ("<<", ">>"):
                # C11 6.5.7p3: a shift has its promoted left operand's type.
                return _int_promote(lhs, lhs)
            return _int_promote(lhs, rhs)
        # + - * / : arithmetic or pointer arithmetic.
        if isinstance(lhs, PointerT) and rhs.is_integer and op in ("+", "-"):
            return lhs
        if lhs.is_integer and isinstance(rhs, PointerT) and op == "+":
            return rhs
        if isinstance(lhs, PointerT) and isinstance(rhs, PointerT) and op == "-":
            return IntT(64, True)
        return self._arithmetic_result(expr, lhs, rhs)

    def _comparison_type(self, expr, lhs: CType, rhs: CType) -> CType:
        """The type a comparison converts both operands to: addresses
        compare as unsigned long."""
        if isinstance(lhs, PointerT) or isinstance(rhs, PointerT):
            return IntT(64, False)
        return self._arithmetic_result(expr, lhs, rhs)

    def _arithmetic_result(self, expr, lhs: CType, rhs: CType) -> CType:
        """Usual arithmetic conversions, extended for vpfloat.

        vpfloat (x) primitive is allowed -> vpfloat (lowered to the
        specialized MPFR entry points); vpfloat (x) vpfloat requires the
        exact same type, otherwise the user must cast (paper §III-A3).
        """
        if isinstance(lhs, VPFloatT) and isinstance(rhs, VPFloatT):
            if lhs != rhs:
                raise SemanticError(
                    f"operands have different vpfloat types {lhs} and {rhs}; "
                    f"insert an explicit cast (no implicit conversions, "
                    f"paper §III-A3)", expr.line, expr.column,
                )
            return lhs
        if isinstance(lhs, VPFloatT):
            if not rhs.is_arithmetic:
                raise SemanticError(f"invalid operand type {rhs}",
                                    expr.line, expr.column)
            return lhs
        if isinstance(rhs, VPFloatT):
            if not lhs.is_arithmetic:
                raise SemanticError(f"invalid operand type {lhs}",
                                    expr.line, expr.column)
            return rhs
        if not (lhs.is_arithmetic and rhs.is_arithmetic):
            raise SemanticError(
                f"invalid operands {lhs} and {rhs}", expr.line, expr.column
            )
        if isinstance(lhs, FloatT) or isinstance(rhs, FloatT):
            bits = max(
                lhs.bits if isinstance(lhs, FloatT) else 0,
                rhs.bits if isinstance(rhs, FloatT) else 0,
            )
            return FloatT(bits)
        return _int_promote(lhs, rhs)

    def _expr_Unary(self, expr: ast.Unary, scope: Scope) -> CType:
        operand = decay(self._check_expr(expr.operand, scope))
        if expr.op in ("++", "--"):
            self._require_lvalue(expr.operand)
            if not (operand.is_integer or isinstance(operand, PointerT)):
                raise SemanticError(
                    f"{expr.op} requires an integer or pointer operand",
                    expr.line, expr.column,
                )
            return operand
        if expr.op == "!":
            return BOOL
        if expr.op == "~" and not operand.is_integer:
            raise SemanticError("~ requires an integer operand",
                                expr.line, expr.column)
        if not operand.is_arithmetic:
            raise SemanticError(f"unary {expr.op} on non-arithmetic type",
                                expr.line, expr.column)
        # C11 6.5.3.3: -, + and ~ promote an integer operand.
        return _int_promote(operand, operand) if operand.is_integer \
            else operand

    def _expr_Assign(self, expr: ast.Assign, scope: Scope) -> CType:
        if expr.op == "=":
            target = self._check_expr(expr.target, scope)
            value = decay(self._check_expr(expr.value, scope))
        else:
            # Compound assignment: 'a op= b' types like 'a = a op b',
            # and irgen lowers the kept 'a op b' node.
            expr.binary = ast.Binary(op=expr.op[:-1], lhs=expr.target,
                                     rhs=expr.value, line=expr.line,
                                     column=expr.column)
            value = decay(self._check_expr(expr.binary, scope))
            target = expr.target.ctype
        self._require_lvalue(expr.target)
        if not _assignable(decay(target), value):
            raise SemanticError(f"cannot assign {value} to {target}",
                                expr.line, expr.column)
        return target

    def _require_lvalue(self, expr: ast.Expr) -> None:
        if isinstance(expr, (ast.Ident, ast.Index, ast.Deref)):
            return
        raise SemanticError("expression is not assignable",
                            expr.line, expr.column)

    def _expr_Ternary(self, expr: ast.Ternary, scope: Scope) -> CType:
        self._check_condition(expr.cond, scope)
        t = decay(self._check_expr(expr.true_expr, scope))
        f = decay(self._check_expr(expr.false_expr, scope))
        if t == f:
            return t
        if t.is_arithmetic and f.is_arithmetic:
            return self._arithmetic_result(expr, t, f)
        raise SemanticError(f"incompatible ternary arms {t} and {f}",
                            expr.line, expr.column)

    def _expr_Call(self, expr: ast.Call, scope: Scope) -> CType:
        func = self.functions.get(expr.name)
        if func is None:
            return self._check_builtin_call(expr, scope)
        expr.decl = func
        if len(expr.args) != len(func.params):
            raise SemanticError(
                f"call to {expr.name!r}: expected {len(func.params)} "
                f"arguments, got {len(expr.args)}", expr.line, expr.column,
            )
        #: Bind attribute-parameter names to the actual argument exprs so
        #: dependent types can be compared (paper §III-A5).
        bindings: Dict[str, ast.Expr] = {}
        runtime_checks: List[tuple] = []
        for param, arg in zip(func.params, expr.args):
            self._check_expr(arg, scope)
            if param.name:
                bindings[param.name] = arg
        for param, arg in zip(func.params, expr.args):
            self._check_call_arg(expr, param, arg, bindings, runtime_checks)
        expr.runtime_attr_checks = runtime_checks
        return _substitute_return_type(func.return_type, bindings)

    def _check_call_arg(self, call: ast.Call, param: ast.ParamDecl,
                        arg: ast.Expr, bindings: Dict[str, ast.Expr],
                        runtime_checks: List[tuple]) -> None:
        expected = decay(param.type)
        actual = decay(arg.ctype)
        exp_vp, act_vp = _vpfloat_core(expected), _vpfloat_core(actual)
        if exp_vp is not None and act_vp is not None:
            if exp_vp.format != act_vp.format:
                raise SemanticError(
                    f"call to {call.name!r}: parameter {param.name!r} "
                    f"expects format {exp_vp.format}, got {act_vp.format}",
                    call.line, call.column,
                )
            pairs = list(zip(exp_vp.attributes(), act_vp.attributes()))
            if len(exp_vp.attributes()) != len(act_vp.attributes()):
                raise SemanticError(
                    f"call to {call.name!r}: attribute count mismatch for "
                    f"parameter {param.name!r}", call.line, call.column,
                )
            for expected_attr, actual_attr in pairs:
                self._check_attr_binding(call, param, expected_attr,
                                         actual_attr, bindings,
                                         runtime_checks,
                                         is_pointer=expected is not exp_vp
                                         or actual is not act_vp)
            return
        if (exp_vp is None) != (act_vp is None):
            # Scalar vpfloat params accept primitives via plain-assignment
            # conversion; pointers never convert.
            if isinstance(expected, PointerT) or isinstance(actual, PointerT):
                raise SemanticError(
                    f"call to {call.name!r}: cannot pass {arg.ctype} for "
                    f"parameter of type {param.type}", call.line, call.column,
                )
            if not _assignable(expected, actual):
                raise SemanticError(
                    f"call to {call.name!r}: cannot convert {arg.ctype} to "
                    f"{param.type}", call.line, call.column,
                )
            return
        if not _assignable(expected, actual) and not (
            isinstance(expected, PointerT) and isinstance(actual, PointerT)
            and expected == actual
        ):
            if expected != actual:
                raise SemanticError(
                    f"call to {call.name!r}: cannot convert {arg.ctype} to "
                    f"{param.type} for parameter {param.name!r}",
                    call.line, call.column,
                )

    def _check_attr_binding(self, call, param, expected_attr, actual_attr,
                            bindings, runtime_checks, is_pointer) -> None:
        """Compare one attribute of a callee type with the caller's type."""
        if isinstance(expected_attr, AttrConst):
            if isinstance(actual_attr, AttrConst):
                if expected_attr.value != actual_attr.value:
                    raise SemanticError(
                        f"call to {call.name!r}: parameter {param.name!r} "
                        f"requires attribute {expected_attr.value}, the "
                        f"argument has {actual_attr.value} "
                        f"(compile-time mismatch, paper Listing 3)",
                        call.line, call.column,
                    )
                return
            # Dynamic argument attribute vs constant parameter: runtime check.
            runtime_checks.append((actual_attr.name, expected_attr.value))
            return
        # Parameter attribute is dynamic: it binds to a caller expression.
        bound = bindings.get(expected_attr.name)
        if bound is None:
            # Bound to a non-argument (global): compare names directly.
            if isinstance(actual_attr, AttrRef) and \
                    actual_attr.name == expected_attr.name:
                return
            runtime_checks.append(
                (expected_attr.name,
                 actual_attr.value if isinstance(actual_attr, AttrConst)
                 else actual_attr.name)
            )
            return
        if isinstance(actual_attr, AttrConst):
            if isinstance(bound, ast.IntLit):
                if bound.value != actual_attr.value:
                    raise SemanticError(
                        f"call to {call.name!r}: attribute bound to "
                        f"{expected_attr.name!r} is {bound.value} but the "
                        f"argument type carries {actual_attr.value} "
                        f"(compile-time mismatch, paper Listing 3 line 10)",
                        call.line, call.column,
                    )
                return
            runtime_checks.append((expected_attr.name, actual_attr.value))
            return
        # Both dynamic: runtime equality check between the bound argument
        # expression and the attribute variable's current value (paper
        # Listing 3 lines 14 and 17).
        runtime_checks.append((expected_attr.name, actual_attr.name))

    def _check_builtin_call(self, expr: ast.Call, scope: Scope) -> CType:
        signature = _BUILTINS.get(expr.name)
        if signature is None:
            raise SemanticError(f"call to undeclared function {expr.name!r}",
                                expr.line, expr.column)
        ret, params = signature
        if len(expr.args) != len(params):
            raise SemanticError(
                f"builtin {expr.name!r} expects {len(params)} arguments",
                expr.line, expr.column,
            )
        arg_types = [decay(self._check_expr(a, scope)) for a in expr.args]
        for declared, actual in zip(params, arg_types):
            if declared is None:
                if not actual.is_arithmetic:
                    raise SemanticError(
                        f"builtin {expr.name!r}: argument must be arithmetic",
                        expr.line, expr.column,
                    )
            elif not _assignable(declared, actual):
                raise SemanticError(
                    f"builtin {expr.name!r}: cannot convert {actual} "
                    f"to {declared}", expr.line, expr.column,
                )
        if ret is None:
            # Polymorphic: result type follows the (first) vpfloat argument.
            for t in arg_types:
                if isinstance(t, VPFloatT):
                    return t
            return arg_types[0]
        return ret

    def _expr_Index(self, expr: ast.Index, scope: Scope) -> CType:
        base = decay(self._check_expr(expr.base, scope))
        index = decay(self._check_expr(expr.index, scope))
        if not isinstance(base, PointerT):
            raise SemanticError(f"subscripted value has type {expr.base.ctype}, "
                                f"not an array or pointer",
                                expr.line, expr.column)
        if not index.is_integer:
            raise SemanticError("array subscript must be an integer",
                                expr.line, expr.column)
        return base.pointee

    def _expr_Cast(self, expr: ast.Cast, scope: Scope) -> CType:
        self._check_expr(expr.expr, scope)
        params = {p.name: p for p in self.current_function.params} \
            if self.current_function else {}
        self._check_type(expr.target_type, params, expr, "cast",
                         local_scope=scope)
        source = decay(expr.expr.ctype)
        target = expr.target_type
        if isinstance(target, PointerT) and not (
            isinstance(source, PointerT) or source.is_integer
        ):
            raise SemanticError(f"cannot cast {source} to pointer",
                                expr.line, expr.column)
        return target

    def _expr_SizeofExpr(self, expr: ast.SizeofExpr, scope: Scope) -> CType:
        self._check_expr(expr.operand, scope)
        return IntT(64, False)

    def _expr_SizeofType(self, expr: ast.SizeofType, scope: Scope) -> CType:
        params = {p.name: p for p in self.current_function.params} \
            if self.current_function else {}
        self._check_type(expr.queried_type, params, expr, "sizeof",
                         local_scope=scope)
        return IntT(64, False)

    def _expr_AddressOf(self, expr: ast.AddressOf, scope: Scope) -> CType:
        self._check_expr(expr.operand, scope)
        self._require_lvalue(expr.operand)
        return PointerT(expr.operand.ctype)

    def _expr_Deref(self, expr: ast.Deref, scope: Scope) -> CType:
        operand = decay(self._check_expr(expr.operand, scope))
        if not isinstance(operand, PointerT):
            raise SemanticError(f"cannot dereference {expr.operand.ctype}",
                                expr.line, expr.column)
        return operand.pointee


# ----------------------------------------------------------------- #
# Helpers
# ----------------------------------------------------------------- #

def _int_promote(a: IntT, b: IntT) -> IntT:
    """Usual arithmetic conversions of two integer types (C11 6.3.1.8).

    Each operand first promotes to int if it is narrower.  Of two types
    with the same signedness the wider wins; a signed type wider than
    the unsigned one holds all its values and wins (long with unsigned
    int is long); otherwise the result is the unsigned type.
    """
    a, b = (IntT(32, True) if t.bits < 32 else t for t in (a, b))
    if a.signed == b.signed:
        return IntT(max(a.bits, b.bits), a.signed)
    signed, unsigned = (a, b) if a.signed else (b, a)
    return signed if signed.bits > unsigned.bits else unsigned


def _assignable(target: CType, source: CType) -> bool:
    """Plain-assignment compatibility (the only implicit conversion)."""
    if target == source:
        return True
    if target.is_arithmetic and source.is_arithmetic:
        return True  # includes vpfloat <-> vpfloat and vpfloat <-> IEEE
    if isinstance(target, PointerT) and isinstance(source, PointerT):
        return target == source or isinstance(source.pointee, IntT) \
            or isinstance(target.pointee, IntT)
    return False


def _vpfloat_core(ctype: CType) -> Optional[VPFloatT]:
    """The vpfloat type inside a scalar/pointer/array type, if any."""
    current = ctype
    while isinstance(current, (PointerT, ArrayT)):
        current = current.pointee if isinstance(current, PointerT) \
            else current.element
    return current if isinstance(current, VPFloatT) else None


def _contains_dynamic_vpfloat(ctype: CType) -> bool:
    core = _vpfloat_core(ctype)
    return core is not None and not core.is_static


def _substitute_return_type(ret: CType, bindings: Dict[str, ast.Expr]) -> CType:
    """Resolve a dependent return type against the call's arguments.

    ``vpfloat<mpfr, 16, prec>`` returned from a function whose ``prec``
    argument was passed a literal or a variable becomes the corresponding
    caller-side type.
    """
    if isinstance(ret, VPFloatT) and not ret.is_static:
        def subst(attr):
            if isinstance(attr, AttrRef):
                bound = bindings.get(attr.name)
                if isinstance(bound, ast.IntLit):
                    return AttrConst(bound.value)
                if isinstance(bound, ast.Ident):
                    return AttrRef(bound.name)
            return attr

        return VPFloatT(ret.format, subst(ret.exp), subst(ret.prec),
                        subst(ret.size) if ret.size else None)
    return ret


def analyze(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Run semantic analysis; returns the annotated unit."""
    return Sema(unit).run()
