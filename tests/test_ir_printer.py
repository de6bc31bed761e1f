"""IR textual rendering: stable, readable dumps (used by --emit-ir)."""

import pytest

from repro import compile_source
from repro.codegen import generate_ir
from repro.lang import analyze, parse


def ir_text(source, **kwargs):
    program = compile_source(source, backend=kwargs.pop("backend", "none"),
                             **kwargs)
    return str(program.module)


class TestPrinting:
    def test_function_header_and_types(self):
        text = ir_text("""
        vpfloat<mpfr, 16, 200> f(unsigned p, vpfloat<mpfr, 16, p> x,
                                 double d) {
          vpfloat<mpfr, 16, 200> y = d;
          return y;
        }
        """, opt_level=0)
        assert "define vpfloat<mpfr, 16, 200> @f(" in text
        assert "vpfloat<mpfr, 16, %p> %x" in text
        assert "double %d" in text

    def test_block_labels_and_branches(self):
        text = ir_text("""
        int f(int n) {
          int s = 0;
          for (int i = 0; i < n; i++) s = s + i;
          return s;
        }
        """)
        assert "for.cond" in text
        assert "br %cmp" in text
        assert "phi i32" in text

    def test_vpfloat_literals_carry_suffix(self):
        text = ir_text("""
        double f() {
          vpfloat<mpfr, 16, 100> a = 1.5;
          vpfloat<unum, 3, 6> b = 2.5;
          return (double)a + (double)b;
        }
        """, opt_level=0)
        assert "y" in text  # mpfr literal suffix
        assert "1.5" in text

    def test_lowered_module_shows_mpfr_calls(self):
        text = ir_text("""
        double f(int n, vpfloat<mpfr, 16, 128> *X) {
          vpfloat<mpfr, 16, 128> s = 0.0;
          for (int i = 0; i < n; i++) s = s + X[i] * X[i];
          return (double)s;
        }
        """, backend="mpfr")
        assert "call @mpfr_init2" in text
        assert "call @mpfr_mul" in text
        assert "call @mpfr_clear" in text
        assert "%__mpfr_struct" in text

    def test_in_place_store_needs_no_object(self):
        """x[i] = x[i]*x[i] lowers to a single in-place call: no temp, no
        init -- worth pinning as a golden behaviour."""
        text = ir_text("""
        void f(int n, vpfloat<mpfr, 16, 128> *X) {
          for (int i = 0; i < n; i++) X[i] = X[i] * X[i];
        }
        """, backend="mpfr")
        assert "call @mpfr_init2" not in text
        assert text.count("call @mpfr_mul") == 1

    def test_declarations_rendered(self):
        text = ir_text("""
        double helper(double x);
        double f(double x) { return helper(x); }
        """, disable_passes=("inline",))
        assert "declare double @helper(double" in text

    def test_memset_shown_after_idiom(self):
        text = ir_text("""
        void f(int n, vpfloat<unum, 3, 6> *X) {
          for (int i = 0; i < n; i++) X[i] = 0.0;
        }
        """)
        assert "call @memset" in text

    def test_module_header(self):
        module = generate_ir(analyze(parse("int f() { return 1; }")),
                             name="demo")
        assert str(module).startswith("; module demo")

    def test_rendering_is_deterministic(self):
        source = """
        double f(int n) {
          vpfloat<mpfr, 16, 128> s = 0.0;
          for (int i = 0; i < n; i++) s = s + 1.0;
          return (double)s;
        }
        """
        assert ir_text(source) == ir_text(source)
