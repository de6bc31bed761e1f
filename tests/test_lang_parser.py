"""Parser: declarations, vpfloat types, statements, expressions."""

import pytest

from repro.lang import SourceError, ast, parse
from repro.lang.ctypes import (
    ArrayT,
    AttrConst,
    AttrRef,
    DOUBLE,
    FloatT,
    IntT,
    PointerT,
    VPFloatT,
)


def parse_one(source):
    unit = parse(source)
    assert len(unit.declarations) == 1
    return unit.declarations[0]


class TestVPFloatTypes:
    def test_mpfr_constant_attrs(self):
        func = parse_one("void f(vpfloat<mpfr, 16, 256> x) {}")
        ptype = func.params[0].type
        assert isinstance(ptype, VPFloatT)
        assert ptype.format == "mpfr"
        assert ptype.exp == AttrConst(16)
        assert ptype.prec == AttrConst(256)
        assert ptype.size is None
        assert ptype.is_static

    def test_unum_with_size(self):
        func = parse_one("void f(vpfloat<unum, 3, 6, 6> x) {}")
        ptype = func.params[0].type
        assert ptype.format == "unum"
        assert ptype.size == AttrConst(6)

    def test_dynamic_attribute(self):
        func = parse_one(
            "void f(unsigned prec, vpfloat<mpfr, 16, prec> x) {}")
        ptype = func.params[1].type
        assert ptype.prec == AttrRef("prec")
        assert not ptype.is_static

    def test_pointer_to_vpfloat(self):
        func = parse_one("void f(vpfloat<mpfr, 16, 128> *x) {}")
        assert isinstance(func.params[0].type, PointerT)
        assert isinstance(func.params[0].type.pointee, VPFloatT)

    def test_posit_accepted(self):
        """posit joined mpfr/unum as a supported format (DESIGN.md §5)."""
        func = parse_one("void f(vpfloat<posit, 2, 16> x) {}")
        assert func.params[0].type.format == "posit"

    def test_bfloat16_reports_no_backend(self):
        """The grammar admits bfloat16 (paper's syntax), but the
        toolchain reports the missing backend."""
        with pytest.raises(SourceError, match="no backend"):
            parse("void f(vpfloat<bfloat16, 8, 8> x) {}")

    def test_unknown_format(self):
        with pytest.raises(SourceError, match="unknown vpfloat format"):
            parse("void f(vpfloat<ieee754, 8, 23> x) {}")

    def test_wrong_attr_count(self):
        with pytest.raises(SourceError):
            parse("void f(vpfloat<mpfr, 16> x) {}")
        with pytest.raises(SourceError):
            parse("void f(vpfloat<unum, 4, 9, 20, 1> x) {}")


class TestDeclarations:
    def test_function_with_body(self):
        func = parse_one("int add(int a, int b) { return a + b; }")
        assert func.name == "add"
        assert len(func.params) == 2
        assert isinstance(func.body, ast.Block)

    def test_function_declaration_only(self):
        func = parse_one("double f(double x);")
        assert func.body is None

    def test_void_param_list(self):
        func = parse_one("int f(void) { return 0; }")
        assert func.params == []

    def test_global_variable(self):
        decl = parse_one("int limit = 10;")
        assert isinstance(decl, ast.VarDecl)
        assert decl.is_global
        assert decl.init.value == 10

    def test_multiple_declarators(self):
        unit = parse("int a, b = 2, c;")
        assert [d.name for d in unit.declarations] == ["a", "b", "c"]

    def test_fixed_array(self):
        func = parse_one("void f() { double A[10]; }")
        decl = func.body.statements[0].decls[0]
        assert isinstance(decl.type, ArrayT)
        assert decl.type.size == 10

    def test_vla(self):
        func = parse_one("void f(int n) { double A[n*n]; }")
        decl = func.body.statements[0].decls[0]
        assert isinstance(decl.type, ArrayT)
        assert decl.type.is_vla

    def test_unsigned_long(self):
        func = parse_one("void f(unsigned long x) {}")
        assert func.params[0].type == IntT(64, False)


class TestStatements:
    def test_for_loop(self):
        func = parse_one(
            "void f(int n) { for (int i = 0; i < n; i++) n = n; }")
        loop = func.body.statements[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.DeclStmt)
        assert loop.cond.op == "<"

    def test_omp_parallel_for(self):
        source = """
        void f(int n, double *x) {
          #pragma omp parallel for
          for (int i = 0; i < n; i++) x[i] = 0.0;
        }
        """
        func = parse(source).declarations[0]
        assert func.body.statements[0].omp_parallel

    def test_omp_pragma_requires_for(self):
        with pytest.raises(SourceError):
            parse("void f() {\n#pragma omp parallel for\nint x;\n}")

    def test_if_else_chain(self):
        func = parse_one(
            "int f(int x) { if (x > 0) return 1; else if (x < 0) "
            "return -1; else return 0; }")
        stmt = func.body.statements[0]
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.else_body, ast.If)

    def test_do_while(self):
        func = parse_one("void f(int n) { do { n = n - 1; } while (n); }")
        assert isinstance(func.body.statements[0], ast.DoWhile)

    def test_break_continue(self):
        func = parse_one(
            "void f() { while (1) { if (1) break; continue; } }")
        body = func.body.statements[0].body
        assert isinstance(body.statements[0].then_body, ast.Break)
        assert isinstance(body.statements[1], ast.Continue)


class TestExpressions:
    def _expr(self, text):
        func = parse_one(f"void f(int a, int b, int c) {{ a = {text}; }}")
        return func.body.statements[0].expr.value

    def test_precedence(self):
        expr = self._expr("a + b * c")
        assert expr.op == "+"
        assert expr.rhs.op == "*"

    def test_left_associativity(self):
        expr = self._expr("a - b - c")
        assert expr.op == "-"
        assert expr.lhs.op == "-"

    def test_comparison_vs_logical(self):
        expr = self._expr("a < b && b < c")
        assert expr.op == "&&"

    def test_ternary(self):
        expr = self._expr("a ? b : c")
        assert isinstance(expr, ast.Ternary)

    def test_cast_vs_paren(self):
        expr = self._expr("(double)b")
        assert isinstance(expr, ast.Cast)
        assert expr.target_type == DOUBLE
        grouped = self._expr("(b)")
        assert isinstance(grouped, ast.Ident)

    def test_cast_to_vpfloat(self):
        expr = self._expr("(vpfloat<mpfr, 16, 100>)b")
        assert isinstance(expr, ast.Cast)
        assert isinstance(expr.target_type, VPFloatT)

    def test_sizeof_type_and_expr(self):
        expr = self._expr("sizeof(double)")
        assert isinstance(expr, ast.SizeofType)
        expr = self._expr("sizeof b")
        assert isinstance(expr, ast.SizeofExpr)

    def test_index_chain(self):
        func = parse_one("void f(double *A, int i) { A[i] = A[i+1]; }")
        target = func.body.statements[0].expr.target
        assert isinstance(target, ast.Index)

    def test_unary_chain(self):
        expr = self._expr("-b")
        assert isinstance(expr, ast.Unary)
        expr = self._expr("*(&b)")
        assert isinstance(expr, ast.Deref)
        assert isinstance(expr.operand, ast.AddressOf)

    def test_call_with_args(self):
        expr = self._expr("g(b, c + 1)")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 2

    def test_compound_assignment(self):
        func = parse_one("void f(int a) { a += 2; }")
        assert func.body.statements[0].expr.op == "+="

    @pytest.mark.parametrize("op", ["<<=", ">>=", "&=", "|=", "^="])
    def test_shift_and_bitwise_compound_assignment(self, op):
        func = parse_one(f"void f(int a) {{ a {op} 2; }}")
        expr = func.body.statements[0].expr
        assert isinstance(expr, ast.Assign)
        assert expr.op == op

    def test_vpfloat_literal_suffix(self):
        func = parse_one(
            "void f() { vpfloat<mpfr,16,100> x = 1.3y; }")
        init = func.body.statements[0].decls[0].init
        assert isinstance(init, ast.FloatLit)
        assert init.suffix == "y"

    def test_error_messages_carry_position(self):
        with pytest.raises(SourceError) as excinfo:
            parse("void f() { int x = ; }")
        assert excinfo.value.line == 1


class TestIntegerLiterals:
    """C integer constants (C11 6.4.4.1), at both literal sites."""

    def value(self, text):
        func = parse_one(f"long f() {{ return {text}; }}")
        return func.body.statements[0].value.value

    def test_decimal_hex_and_zero(self):
        assert self.value("42") == 42
        assert self.value("0x1F") == 31
        assert self.value("0") == 0

    def test_leading_zero_is_octal(self):
        assert self.value("010") == 8
        assert self.value("0777") == 511

    @pytest.mark.parametrize("text", ["08", "09", "0x"])
    def test_malformed_at_the_literal(self, text):
        with pytest.raises(SourceError) as excinfo:
            parse(f"long f() {{\n  return {text}; }}")
        error = excinfo.value
        assert error.message == f"malformed integer literal {text!r}"
        assert (error.line, error.column) == (2, 10)

    def test_non_ascii_decimal_digits_read_as_ascii(self):
        """The lexer's digits are ``\\d``; the value follows the same C
        rules as the ASCII spelling."""
        assert self.value("٣٤") == 34
        assert self.value("٠١٠") == 8
        with pytest.raises(SourceError) as excinfo:
            parse("long f() { return ٠٨; }")
        assert excinfo.value.message == "malformed integer literal '٠٨'"

    def test_largest_unsigned_long_accepted(self):
        assert self.value("18446744073709551615") == 2**64 - 1
        assert self.value("0xffffffffffffffff") == 2**64 - 1

    @pytest.mark.parametrize("text", ["18446744073709551616",
                                      "99999999999999999999999",
                                      "0x1ffffffffffffffff"])
    def test_too_large_for_any_type(self, text):
        with pytest.raises(SourceError) as excinfo:
            parse(f"long f() {{ return {text}; }}")
        error = excinfo.value
        assert error.message == (f"integer literal {text!r} is too large "
                                 f"for any integer type")
        assert (error.line, error.column) == (1, 19)

    def test_attribute_literal_is_octal(self):
        func = parse_one("void f(vpfloat<mpfr, 16, 0200> x) {}")
        assert func.params[0].type.prec == AttrConst(128)

    def test_malformed_attribute_literal_is_a_source_error(self):
        with pytest.raises(SourceError) as excinfo:
            parse("void f(vpfloat<mpfr, 16, 0x> x) {}")
        error = excinfo.value
        assert error.message == "malformed integer literal '0x'"
        assert (error.line, error.column) == (1, 26)
