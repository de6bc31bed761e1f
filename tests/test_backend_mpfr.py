"""MPFR backend: lowering structure, specialization, reuse, lifetimes."""

import runpy
from pathlib import Path

import pytest

from repro import compile_source
from repro.backends import MPFRLoweringPass
from repro.codegen import generate_ir
from repro.ir import CallInst, verify_module
from repro.lang import analyze, parse
from repro.passes import build_o3_pipeline


def lower(source, **kwargs):
    module = generate_ir(analyze(parse(source)))
    build_o3_pipeline().run(module)
    MPFRLoweringPass(**kwargs).run_module(module)
    verify_module(module)
    return module


def call_names(func):
    return [getattr(i.callee, "name", "") for i in func.instructions()
            if isinstance(i, CallInst)]


AXPY = """
void axpy(int n, vpfloat<mpfr, 16, 256> a,
          vpfloat<mpfr, 16, 256> *X, vpfloat<mpfr, 16, 256> *Y) {
  for (int i = 0; i < n; i++)
    Y[i] = a * X[i] + Y[i];
}
"""


class TestLoweringStructure:
    def test_no_vpfloat_ops_remain(self):
        module = lower(AXPY)
        f = module.get_function("axpy")
        for inst in f.instructions():
            assert inst.opcode not in ("fadd", "fsub", "fmul", "fdiv"), \
                f"unlowered {inst.opcode}"

    def test_arith_becomes_mpfr_calls(self):
        module = lower(AXPY)
        names = call_names(module.get_function("axpy"))
        assert "mpfr_mul" in names
        assert "mpfr_add" in names

    def test_temp_inits_hoisted_to_entry(self):
        """Temporaries initialize once at the entry, not per iteration --
        the structural advantage over Boost."""
        module = lower(AXPY)
        f = module.get_function("axpy")
        entry = f.entry
        for inst in f.instructions():
            if isinstance(inst, CallInst) and \
                    getattr(inst.callee, "name", "") == "mpfr_init2":
                assert inst.parent is entry

    def test_clears_balance_inits_on_every_path(self):
        source = """
        double f(int c) {
          vpfloat<mpfr, 16, 128> x = 2.0;
          if (c) return (double)(x * x);
          return (double)x;
        }
        """
        program = compile_source(source, backend="mpfr")
        for arg in (0, 1):
            interp = program.interpreter(cache=False)
            interp.run("f", [arg])
            assert interp.mpfr.live_objects == 0

    def test_signature_rewritten_to_pointers(self):
        from repro.backends import MPFR_PTR

        module = lower(AXPY)
        f = module.get_function("axpy")
        assert f.args[1].type == MPFR_PTR  # scalar vpfloat -> mpfr_ptr

    def test_sret_for_vpfloat_return(self):
        source = """
        vpfloat<mpfr, 16, 128> twice(vpfloat<mpfr, 16, 128> x) {
          return x + x;
        }
        """
        from repro.backends import MPFR_PTR
        from repro.ir import VOID

        module = lower(source)
        f = module.get_function("twice")
        assert f.return_type == VOID
        assert f.args[0].name == "sret"
        assert f.args[0].type == MPFR_PTR


class TestSpecialization:
    SOURCE = """
    void scale(int n, double d, vpfloat<mpfr, 16, 128> *X) {
      for (int i = 0; i < n; i++)
        X[i] = X[i] * d + 1.0;
    }
    """

    def test_double_operand_uses_mul_d(self):
        names = call_names(lower(self.SOURCE).get_function("scale"))
        assert "mpfr_mul_d" in names
        assert "mpfr_mul" not in names

    def test_disabled_ablation(self):
        names = call_names(lower(self.SOURCE, specialize_scalars=False)
                           .get_function("scale"))
        assert "mpfr_mul_d" not in names
        assert "mpfr_mul" in names

    def test_int_operand_uses_si(self):
        source = """
        void f(int n, int k, vpfloat<mpfr, 16, 128> *X) {
          for (int i = 0; i < n; i++)
            X[i] = X[i] + k;
        }
        """
        names = call_names(lower(source).get_function("f"))
        assert "mpfr_add_si" in names

    def test_values_identical_with_and_without(self):
        source = """
        double f(int n) {
          vpfloat<mpfr, 16, 160> x = 0.7;
          for (int i = 0; i < n; i++)
            x = x * 1.000244140625 + 0.5;
          return (double)x;
        }
        """
        a = compile_source(source, backend="mpfr").run("f", [30]).value
        b = compile_source(source, backend="mpfr",
                           specialize_scalars=False).run("f", [30]).value
        assert a == b


class TestInPlaceStores:
    def test_store_fused_into_op(self):
        """Y[i] = expr writes the element directly (no temp + set)."""
        module = lower(AXPY)
        names = call_names(module.get_function("axpy"))
        assert "mpfr_set" not in names  # everything computes in place

    def test_disabled_ablation_adds_sets(self):
        module = lower(AXPY, in_place_stores=False)
        names = call_names(module.get_function("axpy"))
        assert "mpfr_set" in names

    def test_values_identical(self):
        source = """
        double f(int n) {
          vpfloat<mpfr, 16, 128> A[8];
          for (int i = 0; i < n; i++) A[i] = i * 0.25;
          vpfloat<mpfr, 16, 128> s = 0.0;
          for (int i = 0; i < n; i++) s = s + A[i] * A[i];
          return (double)s;
        }
        """
        a = compile_source(source, backend="mpfr").run("f", [8]).value
        b = compile_source(source, backend="mpfr",
                           in_place_stores=False).run("f", [8]).value
        assert a == b


class TestObjectReuse:
    SOURCE = """
    double many_temps(int n, double *A) {
      vpfloat<mpfr, 16, 128> s = 0.0;
      for (int i = 0; i < n; i++) {
        vpfloat<mpfr, 16, 128> t1 = A[i] * 2.0;
        vpfloat<mpfr, 16, 128> t2 = t1 + 1.0;
        vpfloat<mpfr, 16, 128> t3 = t2 * t2;
        vpfloat<mpfr, 16, 128> t4 = t3 - t1;
        s = s + t4;
      }
      return (double)s;
    }
    """

    def _init_count(self, **kwargs):
        program = compile_source(self.SOURCE, backend="mpfr", **kwargs)
        interp = program.interpreter(cache=False)
        base = interp.memory.alloc_heap(80)
        for i in range(10):
            interp.memory.store(base + 8 * i, float(i), 8)
        result = interp.run("many_temps", [10, base])
        return result.value, interp.mpfr.stats.inits

    def test_reuse_reduces_object_count(self):
        value_on, inits_on = self._init_count()
        value_off, inits_off = self._init_count(reuse_objects=False)
        assert value_on == value_off  # semantics preserved
        assert inits_on < inits_off  # fewer MPFR objects (paper item 7)


@pytest.fixture(scope="module")
def ablations():
    """The measurements behind ``results/bench_ablations.json``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / \
        "bench_ablations.py"
    return runpy.run_path(str(path))


class TestAblationRows:
    """Each row of the ablation artifact shows its option at work."""

    def test_object_reuse(self, ablations):
        row = ablations["ablate_reuse"]()
        assert row["cycles_on"] < row["cycles_off"]
        assert row["mpfr_allocations_on"] < row["mpfr_allocations_off"]

    def test_scalar_specialization(self, ablations):
        row = ablations["ablate_specialize"]()
        assert row["cycles_on"] < row["cycles_off"]

    def test_in_place_stores(self, ablations):
        row = ablations["ablate_in_place"]()
        assert row["cycles_on"] < row["cycles_off"]

    def test_loop_idiom(self, ablations):
        row = ablations["ablate_loop_idiom"]()
        # idiom may be neutral on this kernel
        assert row["cycles_on"] <= row["cycles_off"] * 1.02

    def test_polly_tiling(self, ablations):
        row = ablations["ablate_polly"]()
        # Tiling keeps gemm's working set in L1.
        assert row["l1_misses_polly"] <= row["l1_misses_plain"] * 0.5


class TestHeapArrays:
    def test_malloc_arrays_transparently_managed(self):
        """Paper item 1: objects created through malloc are managed."""
        source = """
        double f(int n) {
          vpfloat<mpfr, 16, 128> *X =
              (vpfloat<mpfr, 16, 128>*)malloc(n * sizeof(vpfloat<mpfr, 16, 128>));
          for (int i = 0; i < n; i++) X[i] = i * 1.5;
          double s = 0.0;
          for (int i = 0; i < n; i++) s = s + (double)X[i];
          return s;
        }
        """
        result = compile_source(source, backend="mpfr").run("f", [8])
        assert result.value == sum(1.5 * i for i in range(8))


class TestDynamicPrecisionLowering:
    def test_init_uses_runtime_precision(self):
        source = """
        double f(unsigned p) {
          vpfloat<mpfr, 16, p> tiny = 1.0;
          for (int i = 0; i < 70; i++) tiny = tiny / 2.0;
          vpfloat<mpfr, 16, p> one = 1.0;
          return (double)((one + tiny) - one);
        }
        """
        program = compile_source(source, backend="mpfr")
        assert program.run("f", [60]).value == 0.0
        assert program.run("f", [120]).value == 2.0 ** -70

    def test_vblas_listing4_compiles_and_runs(self):
        """The paper's Listing 4 BLAS interface through the MPFR backend."""
        from repro.blas import VBLAS_DIALECT_SOURCE

        driver = VBLAS_DIALECT_SOURCE + """
        double run_blas(unsigned p, int n) {
          vpfloat<mpfr, 16, p> X[16];
          vpfloat<mpfr, 16, p> Y[16];
          vpfloat<mpfr, 16, p> alpha = 3.0;
          for (int i = 0; i < n; i++) { X[i] = i; Y[i] = 1.0; }
          vaxpy(p, n, alpha, X, Y);
          vpfloat<mpfr, 16, p> d = vdot(p, n, Y, Y);
          return (double)d;
        }
        """
        program = compile_source(driver, backend="mpfr")
        got = program.run("run_blas", [200, 16]).value
        expect = sum((1.0 + 3.0 * i) ** 2 for i in range(16))
        assert got == expect


class TestLoopCarriedValues:
    """A lowered vpfloat phi points at the object of the value that
    flowed in; a rotation (``ym2 = ym1; ym1 = y``) must copy, or ``ym2``
    reads the next iteration's ``y`` (SSA destruction's lost copy)."""

    ROTATION = """
    double f(int n) {
      vpfloat<mpfr, 16, 128> y = 0.0;
      vpfloat<mpfr, 16, 128> ym1 = 0.0;
      vpfloat<mpfr, 16, 128> ym2 = 0.0;
      vpfloat<mpfr, 16, 128> s = 0.0;
      for (int i = 0; i < n; i = i + 1) {
        vpfloat<mpfr, 16, 128> t = ym1;  /* a local inside the loop */
        y = 2.0 * t + ym2 + 1.0;
        s = s + y;
        ym2 = ym1;
        ym1 = y;
      }
      return (double)s;
    }
    """

    @pytest.mark.parametrize("backend", ["mpfr", "boost"])
    @pytest.mark.parametrize("opt_level", [0, 3])
    def test_rotation_matches_reference(self, backend, opt_level):
        reference = compile_source(self.ROTATION, backend="none",
                                   opt_level=opt_level).run("f", [5])
        assert reference.value == 81.0
        got = compile_source(self.ROTATION, backend=backend,
                             opt_level=opt_level).run("f", [5])
        assert got.value == reference.value

    def test_reduction_gets_no_copies(self):
        """A reduction reads its phi before the next value overwrites
        the phi's object: no copy, so its cycles are unchanged."""
        source = """
        double sum(int n, vpfloat<mpfr, 16, 128> *X) {
          vpfloat<mpfr, 16, 128> s = 0.0;
          for (int i = 0; i < n; i++) s = s + X[i];
          return (double)s;
        }
        """
        assert "mpfr_set" not in call_names(lower(source).get_function("sum"))
