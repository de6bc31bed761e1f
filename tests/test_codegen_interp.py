"""End-to-end: dialect source -> IR -> interpreter, across features."""

import pytest

from repro import compile_source
from repro.runtime import Interpreter, VPRuntimeError


def run(source, fn="main", args=None, backend="none", **kwargs):
    program = compile_source(source, backend=backend, **kwargs)
    return program.run(fn, args or [], cache=False)


class TestScalarPrograms:
    def test_arithmetic_and_control_flow(self):
        source = """
        int collatz_steps(int n) {
          int steps = 0;
          while (n != 1) {
            if (n % 2 == 0) n = n / 2;
            else n = 3 * n + 1;
            steps++;
          }
          return steps;
        }
        """
        assert run(source, "collatz_steps", [6]).value == 8
        assert run(source, "collatz_steps", [27]).value == 111

    def test_recursion(self):
        source = """
        int fib(int n) {
          if (n < 2) return n;
          return fib(n - 1) + fib(n - 2);
        }
        """
        assert run(source, "fib", [15],
                   disable_passes=("inline",)).value == 610

    def test_float_vs_double_rounding(self):
        source = """
        double f() {
          float x = 0.1f;
          double y = 0.1;
          return (double)x - y;
        }
        """
        result = run(source, "f")
        assert result.value != 0.0  # float(0.1) != double(0.1)
        assert abs(result.value) < 1e-8

    def test_short_circuit_evaluation(self):
        source = """
        int guard(int n) {
          int hits = 0;
          for (int i = -2; i < 3; i++)
            if (i != 0 && 10 / i > 1) hits++;
          return hits;
        }
        """
        # Division by zero must never execute thanks to &&.
        assert run(source, "guard", [0]).value == 2  # i=1 and i=2

    def test_ternary_and_logical_or(self):
        source = """
        int f(int a, int b) {
          return (a > b || a == 0) ? a : b;
        }
        """
        assert run(source, "f", [5, 3]).value == 5
        assert run(source, "f", [0, 3]).value == 0
        assert run(source, "f", [2, 3]).value == 3

    def test_do_while_and_break(self):
        source = """
        int f(int n) {
          int i = 0;
          do {
            i++;
            if (i > 10) break;
          } while (i < n);
          return i;
        }
        """
        assert run(source, "f", [5]).value == 5
        assert run(source, "f", [100]).value == 11

    def test_globals(self):
        source = """
        int counter = 7;
        double scale = 2.5;
        double f() {
          counter = counter + 1;
          return counter * scale;
        }
        """
        assert run(source, "f").value == 20.0

    def test_pointer_arithmetic(self):
        source = """
        double f(int n) {
          double A[8];
          for (int i = 0; i < 8; i++) A[i] = i * 1.0;
          double *p = A;
          p = p + n;
          return *p + p[1];
        }
        """
        assert run(source, "f", [2]).value == 5.0

    def test_sizeof(self):
        source = """
        long f() {
          return sizeof(double) + sizeof(int)
                 + sizeof(vpfloat<unum, 3, 6>);
        }
        """
        assert run(source, "f").value == 8 + 4 + 11

    @pytest.mark.parametrize("source,fn,args,want", [
        ("unsigned f() { return 4294967295u; }", "f", [], 4294967295),
        ("unsigned long f() { return 18446744073709551615u; }", "f", [],
         18446744073709551615),
        ("int f(int x) { return x; }", "f", [4294967295], -1),
        ("unsigned g(unsigned x) { return x + 0u; }", "g", [-1],
         4294967295),
        ("long f(long x) { return x; }", "f", [-5], -5),
    ], ids=["unsigned-ret", "unsigned-long-ret", "int-arg-wraps",
            "unsigned-arg-wraps", "signed-long"])
    @pytest.mark.parametrize("backend,engine", [
        ("none", "jit"), ("none", "legacy"), ("mpfr", "jit"),
        ("unum", None)])
    def test_run_boundary_integers(self, source, fn, args, want,
                                   backend, engine):
        # A run passes each integer argument as a C call would (wrapped
        # to the parameter's width) and reads an unsigned result as
        # unsigned, on every engine and on the UNUM machine.
        program = compile_source(source, backend=backend)
        assert program.run(fn, args, engine=engine).value == want

    def test_unsigned_return_leaves_printed_ir_alone(self):
        unsigned = compile_source("unsigned f() { return 7u; }",
                                  backend="none")
        signed = compile_source("int f() { return 7; }", backend="none")
        assert unsigned.module.functions["f"].unsigned_return
        assert not signed.module.functions["f"].unsigned_return
        assert str(unsigned.module) == str(signed.module)


class TestVPFloatPrograms:
    def test_precision_actually_matters(self):
        source = """
        double diff(int reps) {
          FTYPE tiny = 1.0;
          for (int i = 0; i < 60; i++) tiny = tiny / 2.0;
          FTYPE acc = 1.0;
          for (int i = 0; i < reps; i++) acc = acc + tiny;
          return (double)(acc - 1.0);
        }
        """
        # At 40 bits, 2**-60 vanishes against 1.0.
        low = run(source.replace("FTYPE", "vpfloat<mpfr, 16, 40>"),
                  "diff", [4])
        assert low.value == 0.0
        # At 100 bits the additions are exact.
        high = run(source.replace("FTYPE", "vpfloat<mpfr, 16, 100>"),
                   "diff", [4])
        assert high.value == 4 * 2.0**-60

    def test_literal_suffixes(self):
        source = """
        double f() {
          vpfloat<mpfr, 16, 200> a = 1.3y;
          vpfloat<unum, 4, 7> b = 1.3v;
          return (double)a - (double)b;
        }
        """
        assert abs(run(source, "f").value) < 1e-15

    def test_dynamic_precision_function(self):
        source = """
        double eval(unsigned p) {
          vpfloat<mpfr, 16, p> tiny = 1.0;
          for (int i = 0; i < 70; i++) tiny = tiny / 2.0;
          vpfloat<mpfr, 16, p> acc = 1.0;
          acc = acc + tiny;
          return (double)(acc - 1.0);
        }
        """
        # 2**-70 vanishes at 60 bits, survives at 100.
        assert run(source, "eval", [60]).value == 0.0
        assert run(source, "eval", [100]).value == 2.0 ** -70

    def test_compound_assignment_keeps_declared_attributes(self):
        """'x += y' on a dynamic vpfloat computes in x's own IR type:
        only y and the returned value convert.  Re-reading p for the
        sum would also convert x and the stored result."""
        source = """
        double f(int p) {
          vpfloat<mpfr, 16, p> x = 1.5;
          vpfloat<mpfr, 16, p> y = 0.25;
          x += y;
          return (double)x;
        }
        """
        program = compile_source(source, backend="none", opt_level=0)
        assert str(program.module).count(" vpconv ") == 2
        assert program.run("f", [100]).value == 1.75

    def test_runtime_attr_check_fires(self):
        """Paper Listing 3 line 17: attribute changed before the call."""
        source = """
        void use(unsigned p, vpfloat<mpfr, 16, p> *X) {}
        void driver(unsigned p) {
          vpfloat<mpfr, 16, p> X[4];
          unsigned q = p + 1;
          use(q, X);
        }
        """
        with pytest.raises(VPRuntimeError, match="attribute mismatch"):
            run(source, "driver", [100])

    def test_runtime_attr_check_passes_when_equal(self):
        source = """
        void use(unsigned p, vpfloat<mpfr, 16, p> *X) { X[0] = 1.0; }
        double driver(unsigned p) {
          vpfloat<mpfr, 16, p> X[4];
          use(p, X);
          return (double)X[0];
        }
        """
        assert run(source, "driver", [100]).value == 1.0

    def test_sizeof_vpfloat_validation(self):
        """Out-of-range runtime attributes trap (paper §III-A5:
        'err on the side of correctness')."""
        source = """
        void f(unsigned fss) {
          vpfloat<unum, 4, fss> x = 0.0;
        }
        """
        run(source, "f", [9])  # legal upper bound
        with pytest.raises(VPRuntimeError, match="fss"):
            run(source, "f", [12])

    def test_sizeof_dynamic_type(self):
        source = """
        long f(unsigned fss) {
          vpfloat<unum, 4, fss> x = 0.0;
          return (long)sizeof(x);
        }
        """
        assert run(source, "f", [6]).value == 12  # 2+16+4+9+64+1r bits
        assert run(source, "f", [9]).value == 68

    def test_mixed_double_vpfloat_expression(self):
        source = """
        double f(int n, double *A) {
          vpfloat<mpfr, 16, 200> acc = 0.0;
          for (int i = 0; i < n; i++)
            acc = acc + A[i] * 2.0;
          return (double)acc;
        }
        """
        program = compile_source(source, backend="none")
        interp = program.interpreter(cache=False)
        base = interp.memory.alloc_heap(64)
        for i in range(8):
            interp.memory.store(base + 8 * i, float(i), 8)
        assert interp.run("f", [8, base]).value == 56.0

    def test_vp_math_builtins(self):
        source = """
        double f() {
          vpfloat<mpfr, 16, 200> two = 2.0;
          vpfloat<mpfr, 16, 200> r = vp_sqrt(two);
          return (double)(r * r);
        }
        """
        assert abs(run(source, "f").value - 2.0) < 1e-15

    def test_explicit_cast_between_vpfloat_types(self):
        source = """
        double f() {
          vpfloat<mpfr, 16, 300> pi = 3.14159265358979323846y;
          vpfloat<mpfr, 16, 20> rough = (vpfloat<mpfr, 16, 20>)pi;
          return (double)pi - (double)rough;
        }
        """
        value = run(source, "f").value
        assert value != 0.0
        assert abs(value) < 1e-5


class TestOpenMPMarkers:
    def test_parallel_region_tracked(self):
        source = """
        double f(int n) {
          double A[64];
          #pragma omp parallel for
          for (int i = 0; i < n; i++) A[i] = i * 2.0;
          double s = 0.0;
          for (int i = 0; i < n; i++) s = s + A[i];
          return s;
        }
        """
        result = run(source, "f", [64])
        assert result.value == sum(2.0 * i for i in range(64))
        assert result.report.parallel_cycles > 0
        assert result.report.serial_cycles > 0
        # The kernel region itself must scale (fork/join overhead makes
        # the whole-program time a wash for a region this tiny).
        assert result.report.kernel_time(16) < \
            result.report.parallel_cycles + 4096

    def test_atomic_section_charged(self):
        source = """
        double f(int n) {
          double dot = 0.0;
          #pragma omp parallel for
          for (int i = 0; i < n; i++) {
            #pragma omp atomic
            dot = dot + 1.0;
          }
          return dot;
        }
        """
        result = run(source, "f", [16])
        assert result.value == 16.0
        assert result.report.by_category.get("atomic", 0) > 0


class TestBackendsAgree:
    SOURCE = """
    double f(int n) {
      vpfloat<mpfr, 16, 160> A[16];
      vpfloat<mpfr, 16, 160> s = 0.0;
      for (int i = 0; i < n; i++) A[i] = (double)i / 3.0;
      for (int i = 0; i < n; i++) s = s + A[i] * A[i];
      return (double)s;
    }
    """

    def test_none_mpfr_boost_same_value(self):
        values = {b: run(self.SOURCE, "f", [16], backend=b).value
                  for b in ("none", "mpfr", "boost")}
        assert values["none"] == values["mpfr"] == values["boost"]

    def test_mpfr_balanced_inits_and_clears(self):
        # No free list: this checks the *lowering's* init/clear balance,
        # so every clear must actually free (not park on the free list).
        program = compile_source(self.SOURCE, backend="mpfr")
        interp = Interpreter(program.module, mpfr_pool=False)
        interp.run("f", [16])
        stats = interp.mpfr.stats
        assert stats.inits == stats.clears
        assert interp.mpfr.live_objects == 0

    def test_mpfr_pooled_run_balances_calls_and_leaves_nothing_live(self):
        """With the runtime pool on, the *call* balance still holds and
        no object stays logically alive; clears park instead of free."""
        program = compile_source(self.SOURCE, backend="mpfr")
        interp = program.interpreter(cache=False)  # mpfr: pool on
        interp.run("f", [16])
        stats = interp.mpfr.stats
        assert stats.by_name["mpfr_init2"] == stats.by_name["mpfr_clear"]
        assert interp.mpfr.live_objects == 0
        assert interp.mpfr.pooled_objects() == stats.pool_releases


class TestVPFloatGlobals:
    """Constant-size vpfloat globals (paper §III-A4: 'can be declared as
    global'), consistent across all lowerings."""

    SOURCE = """
    vpfloat<mpfr, 16, 128> scale = 2.5;
    double f(int n) {
      vpfloat<mpfr, 16, 128> s = 0.0;
      for (int i = 0; i < n; i++) s = s + scale;
      scale = scale + 1.0;
      return (double)s;
    }
    """

    def test_globals_across_backends(self):
        values = {}
        for backend in ("none", "mpfr", "boost"):
            program = compile_source(self.SOURCE, backend=backend)
            interp = program.interpreter(cache=False)
            first = interp.run("f", [4]).value
            second = interp.run("f", [4]).value  # sees the mutation
            values[backend] = (first, second)
        assert len(set(values.values())) == 1
        assert values["none"] == (10.0, 14.0)

    def test_unum_global(self):
        source = self.SOURCE.replace("mpfr, 16, 128", "unum, 4, 7")
        program = compile_source(source, backend="none")
        assert program.run("f", [4], cache=False).value == 10.0
