"""Semantic analysis: the paper's typing rules (§III-A)."""

import pytest

from repro.lang import SemanticError, analyze, parse
from repro.lang.ctypes import FloatT, IntT, VPFloatT


def check(source):
    return analyze(parse(source))


def expect_error(source, pattern):
    with pytest.raises(SemanticError, match=pattern):
        check(source)


class TestAttributeRules:
    def test_attr_must_be_in_scope(self):
        expect_error(
            "void f(vpfloat<mpfr, 16, prec> x) {}",
            "does not name an in-scope integer",
        )

    def test_attr_must_precede_parameter(self):
        """Paper: a parameter's attributes reference *previously declared*
        parameters."""
        expect_error(
            "void f(vpfloat<mpfr, 16, prec> x, unsigned prec) {}",
            "does not name an in-scope integer",
        )

    def test_return_type_may_use_any_parameter(self):
        """Paper Listing 3: example_dyn_type_return is legal."""
        check("""
        vpfloat<mpfr, 16, prec> make(unsigned prec) {
          vpfloat<mpfr, 16, prec> a = 1.3y;
          return a;
        }
        """)

    def test_return_type_unknown_attr_rejected(self):
        """Paper Listing 3: example_dyn_type_return_error is caught."""
        expect_error("""
        vpfloat<mpfr, 16, prec> make(unsigned p) {
          vpfloat<mpfr, 16, p> a = 1.3y;
          return a;
        }
        """, "does not name an in-scope integer")

    def test_attr_must_be_integer(self):
        expect_error(
            "void f(double prec, vpfloat<mpfr, 16, prec> x) {}",
            "must have integer type",
        )

    def test_local_attr_from_local_variable(self):
        check("""
        void f() {
          int p = 100;
          vpfloat<mpfr, 16, p> x = 0.0;
        }
        """)

    def test_constant_attr_range_checked(self):
        expect_error("void f(vpfloat<unum, 7, 5> x) {}", "ess must be in")
        expect_error("void f(vpfloat<unum, 4, 12> x) {}", "fss must be in")
        expect_error("void f(vpfloat<unum, 4, 9, 70> x) {}",
                     "size must be in")
        expect_error("void f(vpfloat<mpfr, 32, 128> x) {}",
                     "exponent width")
        expect_error("void f(vpfloat<mpfr, 16, 1> x) {}", "precision")

    def test_dynamic_vpfloat_global_rejected(self):
        """VLA rule: dynamically-sized types are locals/parameters only."""
        expect_error(
            "int p = 100; vpfloat<mpfr, 16, p> g;",
            "only be declared as local variables",
        )


class TestTypeEquality:
    def test_mixed_vpfloat_arithmetic_rejected(self):
        """No implicit conversions between distinct vpfloat types."""
        expect_error("""
        void f(vpfloat<mpfr, 16, 100> a, vpfloat<mpfr, 16, 200> b) {
          a = a + b;
        }
        """, "different vpfloat types")

    def test_explicit_cast_heals_it(self):
        check("""
        void f(vpfloat<mpfr, 16, 100> a, vpfloat<mpfr, 16, 200> b) {
          a = a + (vpfloat<mpfr, 16, 100>)b;
        }
        """)

    def test_plain_assignment_converts(self):
        """Assignment is the one implicit conversion (paper §III-A3)."""
        check("""
        void f(vpfloat<mpfr, 16, 100> a, vpfloat<mpfr, 16, 200> b,
               double d) {
          a = b;
          d = a;
          b = d;
        }
        """)

    def test_primitive_mixing_allowed(self):
        """Listing 2 multiplies double elements by vpfloat values."""
        check("""
        void f(int n, double *A, vpfloat<mpfr, 16, 100> *X) {
          for (int i = 0; i < n; i++)
            X[i] = A[i] * X[i] + 1.0;
        }
        """)

    def test_unum_and_mpfr_never_mix(self):
        expect_error("""
        void f(vpfloat<mpfr, 16, 100> a, vpfloat<unum, 4, 7> b) {
          a = a + b;
        }
        """, "different vpfloat types")


class TestCallChecking:
    HEADER = """
    void vaxpy(unsigned p, int n, vpfloat<mpfr,16,p> a,
               vpfloat<mpfr,16,p> *X) {}
    """

    def test_constant_mismatch_compile_error(self):
        """Paper Listing 3 line 10."""
        expect_error(self.HEADER + """
        void caller() {
          vpfloat<mpfr,16,200> a;
          vpfloat<mpfr,16,200> X[4];
          vaxpy(100, 4, a, X);
        }
        """, "compile-time mismatch")

    def test_matching_constant_ok(self):
        check(self.HEADER + """
        void caller() {
          vpfloat<mpfr,16,200> a;
          vpfloat<mpfr,16,200> X[4];
          vaxpy(200, 4, a, X);
        }
        """)

    def test_dynamic_binding_generates_runtime_checks(self):
        unit = check(self.HEADER + """
        void caller(unsigned p) {
          vpfloat<mpfr,16,p> a;
          vpfloat<mpfr,16,p> X[4];
          vaxpy(p, 4, a, X);
        }
        """)
        caller = unit.functions()[1]
        call = caller.body.statements[2].expr
        assert getattr(call, "runtime_attr_checks", [])

    def test_format_mismatch_rejected(self):
        expect_error(self.HEADER + """
        void caller() {
          vpfloat<unum,4,7> a;
          vpfloat<unum,4,7> X[4];
          vaxpy(200, 4, a, X);
        }
        """, "expects format")

    def test_arity_mismatch(self):
        expect_error(self.HEADER + "void g() { vaxpy(1, 2); }",
                     "expected 4 arguments")

    def test_unknown_function(self):
        expect_error("void f() { mystery(1); }", "undeclared function")

    def test_dependent_return_type_substitution(self):
        unit = check("""
        vpfloat<mpfr, 16, prec> one(unsigned prec) {
          vpfloat<mpfr, 16, prec> a = 1.0;
          return a;
        }
        void caller() {
          vpfloat<mpfr, 16, 300> x;
          x = one(300);
        }
        """)
        caller = unit.functions()[1]
        call = caller.body.statements[1].expr.value
        assert isinstance(call.ctype, VPFloatT)
        # The dependent return type resolved to the literal binding.
        from repro.lang.ctypes import AttrConst

        assert call.ctype.prec == AttrConst(300)


class TestGeneralChecks:
    def test_undeclared_identifier(self):
        expect_error("void f() { x = 1; }", "undeclared identifier")

    def test_redeclaration(self):
        expect_error("void f() { int x; int x; }", "redeclaration")

    def test_break_outside_loop(self):
        expect_error("void f() { break; }", "outside of a loop")

    def test_return_type_checked(self):
        expect_error("int f() { return; }", "must return a value")
        expect_error("void f() { return 1; }", "cannot return a value")

    def test_subscript_non_pointer(self):
        expect_error("void f(int x) { x[0] = 1; }", "subscripted value")

    def test_vla_extent_must_be_integer(self):
        expect_error("void f(double d) { int A[d]; }",
                     "must be an integer")

    def test_assign_to_rvalue(self):
        expect_error("void f(int a, int b) { (a + b) = 1; }",
                     "not assignable")

    def test_redefinition_of_function(self):
        expect_error("void f() {} void f() {}", "redefinition")

    def test_decl_then_definition_merges(self):
        check("void f(int x); void f(int x) {}")


class TestExpressionTypes:
    """Sema decides every C type; irgen only lowers what it records."""

    def _body(self, source):
        return check(source).functions()[0].body.statements

    def test_comparison_records_its_operand_type(self):
        stmts = self._body(
            "int f(int a, unsigned b, double d, long *p) {"
            " return (a < b) + (a < d) + (p == 0); }")
        total = stmts[0].value
        lt_u, lt_d, eq_p = total.lhs.lhs, total.lhs.rhs, total.rhs
        assert lt_u.ctype == IntT(1, True)
        assert lt_u.operand_type == IntT(32, False)
        assert lt_d.operand_type == FloatT(64)
        # Addresses compare as unsigned long.
        assert eq_p.operand_type == IntT(64, False)

    def test_compound_assignment_keeps_its_typed_binary(self):
        stmts = self._body("void f(int x, unsigned long u) {"
                           " x *= 2.5; u /= 2; }")
        mul, div = stmts[0].expr, stmts[1].expr
        assert mul.ctype == IntT(32, True)
        assert mul.binary.op == "*"
        assert mul.binary.lhs is mul.target
        assert mul.binary.rhs is mul.value
        assert mul.binary.ctype == FloatT(64)
        assert div.binary.ctype == IntT(64, False)
        assert self._body("void f(int x) { x = 1; }")[0].expr.binary is None

    def test_shift_has_its_promoted_left_operand_type(self):
        stmts = self._body("long f(int a, unsigned b) {"
                           " return (a << 1L) + (a >> b) + (b << a); }")
        total = stmts[0].value
        assert total.lhs.lhs.ctype == IntT(32, True)
        assert total.lhs.rhs.ctype == IntT(32, True)
        assert total.rhs.ctype == IntT(32, False)

    def test_compound_assignment_result_must_be_assignable(self):
        expect_error("void f(int x, int *p) { x += p; }", "cannot assign")

    def test_usual_conversions_of_mixed_signedness(self):
        # C11 6.3.1.8: a long holds every unsigned int, so their mix is
        # long; with unsigned long, or at equal width, unsigned wins.
        stmts = self._body(
            "long f(long l, unsigned u, unsigned long ul, int i, char c) {"
            " return (l / u) + (l < u) + (ul / i) + (i / u) + (c / u); }")
        total = stmts[0].value
        c_u, i_u = total.rhs, total.lhs.rhs
        ul_i, l_lt_u = total.lhs.lhs.rhs, total.lhs.lhs.lhs.rhs
        l_u = total.lhs.lhs.lhs.lhs
        assert l_u.ctype == IntT(64, True)
        assert l_lt_u.operand_type == IntT(64, True)
        assert ul_i.ctype == IntT(64, False)
        assert i_u.ctype == IntT(32, False)
        assert c_u.ctype == IntT(32, False)
