"""Fused multiply-add: one rounding where a compiled a*b+c rounds twice."""

from repro import compile_source
from repro.bigfloat import add, fma, from_str, mul


class TestSemantics:
    def test_single_rounding_differs_from_double_rounding(self):
        """fma(a,b,c) != (a*b)+c when the product needs the extra bits --
        the defining property of a fused operation.  The compiler never
        fuses, so the program rounds the product before adding c."""
        source = """
        double f() {
          vpfloat<mpfr, 16, 53> a = 1.0000000001y;
          vpfloat<mpfr, 16, 53> b = 1.0000000001y;
          vpfloat<mpfr, 16, 53> c = -1.0000000002y;
          return (double)(a * b + c);
        }
        """
        plain = compile_source(source, backend="none") \
            .run("f", [], cache=False).value
        a = from_str("1.0000000001", 53)
        c = from_str("-1.0000000002", 53)
        fused = fma(a, a, c, 53).to_float()
        # The exact a*a+c of the 53-bit inputs is ~1e-20; the rounded
        # product cancels against c to 0.0.
        true_value = add(mul(a, a, 200), c, 200).to_float()
        assert fused == true_value != 0.0
        assert plain == 0.0
