"""Abstract syntax tree for the vpfloat C dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .ctypes import CType


@dataclass
class Node:
    line: int = field(default=0, kw_only=True)
    column: int = field(default=0, kw_only=True)


# ----------------------------------------------------------------- #
# Expressions
# ----------------------------------------------------------------- #

@dataclass
class Expr(Node):
    #: Filled by semantic analysis.
    ctype: Optional[CType] = field(default=None, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int = 0
    unsigned: bool = False
    long: bool = False
    #: Written in decimal (hex and octal literals may also take the
    #: unsigned type of each width, C11 6.4.4.1p5).
    decimal: bool = True


@dataclass
class FloatLit(Expr):
    text: str = "0.0"
    #: '' = double, 'f' = float, 'v' = unum literal, 'y' = mpfr literal.
    suffix: str = ""


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""
    #: Resolved declaration (VarDecl/ParamDecl), set by sema.
    decl: object = field(default=None, kw_only=True)


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr = None
    rhs: Expr = None
    #: A comparison's operands convert to this type; set by sema.
    operand_type: Optional[CType] = field(default=None, kw_only=True)


@dataclass
class Unary(Expr):
    """Prefix ops: -, +, !, ~, ++, --; postfix ++/-- use postfix=True."""

    op: str = ""
    operand: Expr = None
    postfix: bool = False


@dataclass
class Assign(Expr):
    """op is '=' or a compound operator: '+=', '-=', '*=', '/=', '%=',
    '<<=', '>>=', '&=', '|=', '^='."""

    op: str = "="
    target: Expr = None
    value: Expr = None
    #: A compound assignment's typed ``target op value``; set by sema.
    binary: Optional[Binary] = field(default=None, kw_only=True)


@dataclass
class Ternary(Expr):
    cond: Expr = None
    true_expr: Expr = None
    false_expr: Expr = None


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)
    #: Resolved FunctionDecl, set by sema.
    decl: object = field(default=None, kw_only=True)


@dataclass
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass
class Cast(Expr):
    target_type: CType = None
    expr: Expr = None


@dataclass
class SizeofExpr(Expr):
    operand: Expr = None


@dataclass
class SizeofType(Expr):
    queried_type: CType = None


@dataclass
class AddressOf(Expr):
    operand: Expr = None


@dataclass
class Deref(Expr):
    operand: Expr = None


# ----------------------------------------------------------------- #
# Statements
# ----------------------------------------------------------------- #

@dataclass
class Stmt(Node):
    pass


@dataclass
class VarDecl(Node):
    name: str = ""
    type: CType = None
    init: Optional[Expr] = None
    is_global: bool = False


@dataclass
class DeclStmt(Stmt):
    decls: List[VarDecl] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None
    then_body: Stmt = None
    else_body: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None  # DeclStmt or ExprStmt
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None
    #: Set when '#pragma omp parallel for' precedes the loop.
    omp_parallel: bool = False
    #: Set for 'omp atomic' regions inside (tracked per assignment).


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Pragma(Stmt):
    """A pragma attached as a standalone statement (e.g. 'omp atomic')."""

    text: str = ""
    statement: Optional[Stmt] = None


# ----------------------------------------------------------------- #
# Declarations
# ----------------------------------------------------------------- #

@dataclass
class ParamDecl(Node):
    name: str = ""
    type: CType = None
    index: int = 0


@dataclass
class FunctionDecl(Node):
    name: str = ""
    return_type: CType = None
    params: List[ParamDecl] = field(default_factory=list)
    body: Optional[Block] = None
    is_static: bool = False


@dataclass
class TranslationUnit(Node):
    declarations: List[Node] = field(default_factory=list)  # funcs + globals

    def functions(self) -> List[FunctionDecl]:
        return [d for d in self.declarations if isinstance(d, FunctionDecl)]

    def globals(self) -> List[VarDecl]:
        return [d for d in self.declarations if isinstance(d, VarDecl)]
