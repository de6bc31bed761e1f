"""Recursive-descent parser for the vpfloat C dialect."""

from __future__ import annotations

import re
from typing import List, Optional

from . import ast
from .ctypes import (
    ArrayT,
    AttrConst,
    AttrRef,
    CHAR,
    CType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    PointerT,
    UNSIGNED,
    VOID,
    VPFloatT,
)
from .lexer import SourceError, Token, TokenKind, VPFLOAT_FORMATS, tokenize

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

#: C integer constants (C11 6.4.4.1): hexadecimal, octal (a leading
#: ``0``, so ``08`` is malformed) and decimal.  The lexer's digits are
#: ``\d``; a non-ASCII decimal digit reads as its ASCII kin first.
_INT_LITERAL = re.compile(
    r"0[xX](?P<hex>[0-9a-fA-F]+)|0(?P<oct>[0-7]*)|(?P<dec>[1-9][0-9]*)")

#: The largest value of the widest integer type (unsigned long).
_INT_LITERAL_MAX = 2**64 - 1

_TYPE_START_KEYWORDS = frozenset({
    "void", "char", "int", "unsigned", "long", "float", "double",
    "vpfloat", "const", "static", "extern",
})


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # ------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------ #

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> SourceError:
        token = token or self.current
        return SourceError(message, token.line, token.column)

    def expect_punct(self, text: str) -> Token:
        if not self.current.is_punct(text):
            raise self.error(f"expected {text!r}, found {self.current.text!r}")
        return self.advance()

    def accept_punct(self, text: str) -> bool:
        if self.current.is_punct(text):
            self.advance()
            return True
        return False

    def expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise self.error(
                f"expected identifier, found {self.current.text!r}"
            )
        return self.advance()

    def at_type_start(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        return (token.kind is TokenKind.KEYWORD
                and token.text in _TYPE_START_KEYWORDS)

    # ------------------------------------------------------------ #
    # Types
    # ------------------------------------------------------------ #

    def parse_type_specifier(self) -> CType:
        is_static = False
        while self.current.kind is TokenKind.KEYWORD and self.current.text in (
            "const", "static", "extern"
        ):
            self.advance()

        token = self.current
        if token.is_keyword("void"):
            self.advance()
            return VOID
        if token.is_keyword("char"):
            self.advance()
            return CHAR
        if token.is_keyword("float"):
            self.advance()
            return FLOAT
        if token.is_keyword("double"):
            self.advance()
            return DOUBLE
        if token.is_keyword("vpfloat"):
            return self.parse_vpfloat_type()
        if token.kind is TokenKind.KEYWORD and token.text in (
            "int", "unsigned", "long"
        ):
            signed = True
            bits = 32
            while self.current.kind is TokenKind.KEYWORD and \
                    self.current.text in ("int", "unsigned", "long"):
                word = self.advance().text
                if word == "unsigned":
                    signed = False
                elif word == "long":
                    bits = 64
            from .ctypes import IntT

            return IntT(bits, signed)
        raise self.error(f"expected a type, found {token.text!r}")

    def parse_vpfloat_type(self) -> VPFloatT:
        start = self.advance()  # 'vpfloat'
        self.expect_punct("<")
        fmt_token = self.expect_ident()
        fmt = fmt_token.text
        if fmt not in VPFLOAT_FORMATS:
            raise self.error(
                f"unknown vpfloat format {fmt!r} "
                f"(supported: {', '.join(VPFLOAT_FORMATS)})", fmt_token
            )
        if fmt not in ("mpfr", "unum", "posit"):
            raise self.error(
                f"vpfloat format {fmt!r} is declared in the grammar but has "
                f"no backend in this toolchain", fmt_token
            )
        attrs = []
        while self.accept_punct(","):
            attrs.append(self.parse_attr())
        self.expect_punct(">")
        if fmt == "mpfr" and len(attrs) != 2:
            raise self.error(
                f"vpfloat<mpfr, ...> takes exponent and precision attributes, "
                f"got {len(attrs)}", start
            )
        if fmt == "posit" and len(attrs) != 2:
            raise self.error(
                f"vpfloat<posit, ...> takes es and nbits attributes, "
                f"got {len(attrs)}", start
            )
        if fmt == "unum" and len(attrs) not in (2, 3):
            raise self.error(
                f"vpfloat<unum, ...> takes ess, fss and optional size, "
                f"got {len(attrs)}", start
            )
        size = attrs[2] if len(attrs) == 3 else None
        return VPFloatT(fmt, attrs[0], attrs[1], size)

    def int_literal(self, token: Token) -> int:
        """The value of an INT_LIT token under C's rules, or a
        SourceError at the literal."""
        text = token.text
        if not text.isascii():
            text = "".join(str(int(c)) if c.isdecimal() else c for c in text)
        match = _INT_LITERAL.fullmatch(text)
        if match is None:
            raise self.error(f"malformed integer literal {token.text!r}",
                             token)
        hex_digits, oct_digits, dec_digits = match.group("hex", "oct", "dec")
        if hex_digits is not None:
            value = int(hex_digits, 16)
        elif oct_digits is not None:
            value = int(oct_digits or "0", 8)
        else:
            value = int(dec_digits)
        if value > _INT_LITERAL_MAX:
            # C11 6.4.4.1p6: a literal no integer type can represent
            # has no type.
            raise self.error(f"integer literal {token.text!r} is too large "
                             f"for any integer type", token)
        return value

    def parse_attr(self):
        token = self.current
        if token.kind is TokenKind.INT_LIT:
            self.advance()
            return AttrConst(self.int_literal(token))
        if token.kind is TokenKind.IDENT:
            self.advance()
            return AttrRef(token.text)
        raise self.error(
            "vpfloat attribute must be an integer literal or identifier"
        )

    def parse_pointers(self, base: CType) -> CType:
        while self.accept_punct("*"):
            base = PointerT(base)
        return base

    def parse_array_suffixes(self, base: CType) -> CType:
        """Parse trailing [N] / [expr] and build (possibly VLA) array types."""
        extents = []
        while self.accept_punct("["):
            if self.current.is_punct("]"):
                extents.append(None)  # unsized: decays to pointer
            else:
                extents.append(self.parse_expression())
            self.expect_punct("]")
        for extent in reversed(extents):
            if extent is None:
                base = PointerT(base)
            elif isinstance(extent, ast.IntLit):
                base = ArrayT(base, extent.value)
            else:
                base = ArrayT(base, None, vla_extent=extent)
        return base

    # ------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------ #

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.current.kind is not TokenKind.EOF:
            if self.current.kind is TokenKind.PRAGMA:
                self.advance()  # file-scope pragmas are ignored
                continue
            unit.declarations.extend(self.parse_external_declaration())
        return unit

    def parse_external_declaration(self) -> List[ast.Node]:
        base = self.parse_type_specifier()
        decl_type = self.parse_pointers(base)
        name_token = self.expect_ident()
        if self.current.is_punct("("):
            return [self.parse_function_rest(decl_type, name_token)]
        return self.parse_global_rest(decl_type, name_token, base)

    def parse_function_rest(self, return_type: CType,
                            name_token: Token) -> ast.FunctionDecl:
        func = ast.FunctionDecl(
            name=name_token.text, return_type=return_type,
            line=name_token.line, column=name_token.column,
        )
        self.expect_punct("(")
        if not self.current.is_punct(")"):
            if self.current.is_keyword("void") and self.peek(1).is_punct(")"):
                self.advance()
            else:
                index = 0
                while True:
                    param = self.parse_param(index)
                    func.params.append(param)
                    index += 1
                    if not self.accept_punct(","):
                        break
        self.expect_punct(")")
        if self.accept_punct(";"):
            func.body = None
        else:
            func.body = self.parse_block()
        return func

    def parse_param(self, index: int) -> ast.ParamDecl:
        base = self.parse_type_specifier()
        ptype = self.parse_pointers(base)
        name = ""
        line = col = 0
        if self.current.kind is TokenKind.IDENT:
            token = self.expect_ident()
            name, line, col = token.text, token.line, token.column
        ptype = self.parse_array_suffixes(ptype)
        from .ctypes import decay

        return ast.ParamDecl(name=name, type=decay(ptype), index=index,
                             line=line, column=col)

    def parse_global_rest(self, first_type: CType, name_token: Token,
                          base: CType) -> List[ast.Node]:
        decls: List[ast.Node] = []
        decl_type = self.parse_array_suffixes(first_type)
        # Initializers bind tighter than the declarator comma.
        init = self.parse_assignment() if self.accept_punct("=") else None
        decls.append(ast.VarDecl(
            name=name_token.text, type=decl_type, init=init, is_global=True,
            line=name_token.line, column=name_token.column,
        ))
        while self.accept_punct(","):
            next_type = self.parse_pointers(base)
            token = self.expect_ident()
            next_type = self.parse_array_suffixes(next_type)
            init = self.parse_assignment() if self.accept_punct("=") else None
            decls.append(ast.VarDecl(
                name=token.text, type=next_type, init=init, is_global=True,
                line=token.line, column=token.column,
            ))
        self.expect_punct(";")
        return decls

    # ------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------ #

    def parse_block(self) -> ast.Block:
        open_token = self.expect_punct("{")
        block = ast.Block(line=open_token.line, column=open_token.column)
        while not self.current.is_punct("}"):
            if self.current.kind is TokenKind.EOF:
                raise self.error("unterminated block", open_token)
            block.statements.append(self.parse_statement())
        self.expect_punct("}")
        return block

    def parse_statement(self) -> ast.Stmt:
        token = self.current
        if token.kind is TokenKind.PRAGMA:
            return self.parse_pragma_statement()
        if token.is_punct("{"):
            return self.parse_block()
        if token.is_keyword("if"):
            return self.parse_if()
        if token.is_keyword("while"):
            return self.parse_while()
        if token.is_keyword("do"):
            return self.parse_do_while()
        if token.is_keyword("for"):
            return self.parse_for()
        if token.is_keyword("return"):
            self.advance()
            value = None
            if not self.current.is_punct(";"):
                value = self.parse_expression()
            self.expect_punct(";")
            return ast.Return(value=value, line=token.line, column=token.column)
        if token.is_keyword("break"):
            self.advance()
            self.expect_punct(";")
            return ast.Break(line=token.line, column=token.column)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_punct(";")
            return ast.Continue(line=token.line, column=token.column)
        if self.at_type_start():
            return self.parse_declaration_statement()
        if token.is_punct(";"):
            self.advance()
            return ast.Block(line=token.line, column=token.column)
        expr = self.parse_expression()
        self.expect_punct(";")
        return ast.ExprStmt(expr=expr, line=token.line, column=token.column)

    def parse_pragma_statement(self) -> ast.Stmt:
        token = self.advance()
        text = token.text
        if text.replace(" ", "").startswith("ompparallelfor"):
            stmt = self.parse_statement()
            if not isinstance(stmt, ast.For):
                raise self.error(
                    "'#pragma omp parallel for' must precede a for loop", token
                )
            stmt.omp_parallel = True
            return stmt
        if text.replace(" ", "").startswith("ompatomic"):
            stmt = self.parse_statement()
            return ast.Pragma(text="omp atomic", statement=stmt,
                              line=token.line, column=token.column)
        # Unknown pragmas attach to the next statement transparently.
        stmt = self.parse_statement()
        return ast.Pragma(text=text, statement=stmt,
                          line=token.line, column=token.column)

    def parse_declaration_statement(self) -> ast.DeclStmt:
        start = self.current
        base = self.parse_type_specifier()
        decls = []
        while True:
            decl_type = self.parse_pointers(base)
            token = self.expect_ident()
            decl_type = self.parse_array_suffixes(decl_type)
            init = self.parse_assignment() if self.accept_punct("=") else None
            decls.append(ast.VarDecl(
                name=token.text, type=decl_type, init=init,
                line=token.line, column=token.column,
            ))
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        return ast.DeclStmt(decls=decls, line=start.line, column=start.column)

    def parse_if(self) -> ast.If:
        token = self.advance()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then_body = self.parse_statement()
        else_body = None
        if self.current.is_keyword("else"):
            self.advance()
            else_body = self.parse_statement()
        return ast.If(cond=cond, then_body=then_body, else_body=else_body,
                      line=token.line, column=token.column)

    def parse_while(self) -> ast.While:
        token = self.advance()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.While(cond=cond, body=body,
                         line=token.line, column=token.column)

    def parse_do_while(self) -> ast.DoWhile:
        token = self.advance()
        body = self.parse_statement()
        if not self.current.is_keyword("while"):
            raise self.error("expected 'while' after do body")
        self.advance()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.DoWhile(body=body, cond=cond,
                           line=token.line, column=token.column)

    def parse_for(self) -> ast.For:
        token = self.advance()
        self.expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self.current.is_punct(";"):
            if self.at_type_start():
                init = self.parse_declaration_statement()
            else:
                expr = self.parse_expression()
                self.expect_punct(";")
                init = ast.ExprStmt(expr=expr)
        else:
            self.advance()
        cond = None
        if not self.current.is_punct(";"):
            cond = self.parse_expression()
        self.expect_punct(";")
        step = None
        if not self.current.is_punct(")"):
            step = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body,
                       line=token.line, column=token.column)

    # ------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------ #

    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        while self.accept_punct(","):
            # Comma expression: evaluate both, yield the right side.
            rhs = self.parse_assignment()
            expr = ast.Binary(op=",", lhs=expr, rhs=rhs,
                              line=rhs.line, column=rhs.column)
        return expr

    def parse_assignment(self) -> ast.Expr:
        lhs = self.parse_ternary()
        token = self.current
        if token.kind is TokenKind.PUNCT and token.text in (
            "=", "+=", "-=", "*=", "/=", "%="
        ):
            self.advance()
            rhs = self.parse_assignment()
            return ast.Assign(op=token.text, target=lhs, value=rhs,
                              line=token.line, column=token.column)
        return lhs

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.accept_punct("?"):
            true_expr = self.parse_assignment()
            self.expect_punct(":")
            false_expr = self.parse_assignment()
            return ast.Ternary(cond=cond, true_expr=true_expr,
                               false_expr=false_expr,
                               line=cond.line, column=cond.column)
        return cond

    def parse_binary(self, min_precedence: int) -> ast.Expr:
        lhs = self.parse_unary()
        while True:
            token = self.current
            if token.kind is not TokenKind.PUNCT:
                return lhs
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                return lhs
            self.advance()
            rhs = self.parse_binary(precedence + 1)
            lhs = ast.Binary(op=token.text, lhs=lhs, rhs=rhs,
                             line=token.line, column=token.column)

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.PUNCT and token.text in (
            "-", "+", "!", "~", "++", "--", "&", "*"
        ):
            self.advance()
            operand = self.parse_unary()
            if token.text == "&":
                return ast.AddressOf(operand=operand,
                                     line=token.line, column=token.column)
            if token.text == "*":
                return ast.Deref(operand=operand,
                                 line=token.line, column=token.column)
            return ast.Unary(op=token.text, operand=operand,
                             line=token.line, column=token.column)
        if token.is_keyword("sizeof"):
            self.advance()
            if self.current.is_punct("(") and self.at_type_start(1):
                self.expect_punct("(")
                queried = self.parse_type_specifier()
                queried = self.parse_pointers(queried)
                self.expect_punct(")")
                return ast.SizeofType(queried_type=queried,
                                      line=token.line, column=token.column)
            operand = self.parse_unary()
            return ast.SizeofExpr(operand=operand,
                                  line=token.line, column=token.column)
        if token.is_punct("(") and self.at_type_start(1):
            self.expect_punct("(")
            target = self.parse_type_specifier()
            target = self.parse_pointers(target)
            self.expect_punct(")")
            expr = self.parse_unary()
            return ast.Cast(target_type=target, expr=expr,
                            line=token.line, column=token.column)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.current
            if token.is_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expr = ast.Index(base=expr, index=index,
                                 line=token.line, column=token.column)
            elif token.is_punct("(") and isinstance(expr, ast.Ident):
                self.advance()
                args = []
                if not self.current.is_punct(")"):
                    args.append(self.parse_assignment())
                    while self.accept_punct(","):
                        args.append(self.parse_assignment())
                self.expect_punct(")")
                expr = ast.Call(name=expr.name, args=args,
                                line=token.line, column=token.column)
            elif token.kind is TokenKind.PUNCT and token.text in ("++", "--"):
                self.advance()
                expr = ast.Unary(op=token.text, operand=expr, postfix=True,
                                 line=token.line, column=token.column)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.INT_LIT:
            self.advance()
            return ast.IntLit(value=self.int_literal(token),
                              unsigned=token.suffix == "u",
                              long=token.suffix == "l",
                              line=token.line, column=token.column)
        if token.kind is TokenKind.FLOAT_LIT:
            self.advance()
            return ast.FloatLit(text=token.text, suffix=token.suffix,
                                line=token.line, column=token.column)
        if token.kind is TokenKind.STRING_LIT:
            self.advance()
            return ast.StringLit(value=token.text,
                                 line=token.line, column=token.column)
        if token.kind is TokenKind.IDENT:
            self.advance()
            return ast.Ident(name=token.text,
                             line=token.line, column=token.column)
        if token.is_punct("("):
            self.advance()
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        raise self.error(f"unexpected token {token.text!r} in expression")


def parse(source: str) -> ast.TranslationUnit:
    """Parse a full translation unit."""
    return Parser(source).parse_translation_unit()
