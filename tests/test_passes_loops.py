"""Loop passes: LICM, loop idiom recognition, unrolling, inlining."""

import pytest

from repro import compile_source
from repro.ir import CallInst, verify_module
from repro.lang import analyze, parse
from repro.codegen import generate_ir
from repro.passes import (
    DeadCodeEliminationPass,
    ConstantFoldPass,
    GVNPass,
    InliningPass,
    LICMPass,
    LoopIdiomPass,
    LoopUnrollPass,
    Mem2RegPass,
    PassManager,
    SimplifyCFGPass,
)
from repro.runtime import Interpreter


def compile_ir(source, *passes):
    module = generate_ir(analyze(parse(source)))
    pm = PassManager(verify_each=True)
    for p in passes:
        pm.add(p)
    stats = pm.run(module)
    verify_module(module)
    return module, stats


def run(module, name, args):
    return Interpreter(module).run(name, args).value


class TestLICM:
    def test_invariant_hoisted(self):
        source = """
        double f(int n, double a, double b) {
          double s = 0.0;
          for (int i = 0; i < n; i++)
            s = s + a * b;
          return s;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LICMPass())
        assert stats.changes["licm"] >= 1
        assert run(module, "f", [10, 2.0, 3.0]) == 60.0
        # The multiply must now live outside the loop body blocks.
        f = module.get_function("f")
        from repro.ir import LoopInfo

        info = LoopInfo(f)
        loop = info.loops[0]
        muls = [i for i in f.instructions() if i.opcode == "fmul"]
        assert muls and all(m.parent not in loop.blocks for m in muls)

    def test_load_not_hoisted_past_store(self):
        source = """
        double f(int n, double *p) {
          double s = 0.0;
          for (int i = 0; i < n; i++) {
            s = s + p[0];
            p[0] = s;
          }
          return s;
        }
        """
        module, _ = compile_ir(source, Mem2RegPass(), SimplifyCFGPass(),
                               LICMPass())
        program_value = run(module, "f", None) if False else None
        # Functional check through the full pipeline instead:
        p = compile_source(source, backend="none")
        interp = p.interpreter(cache=False)
        base = interp.memory.alloc_heap(8)
        interp.memory.store(base, 1.0, 8)
        result = interp.run("f", [3, base])
        assert result.value == 4.0  # s: 1, 2, 4 (reads see stores)

    def test_sizeof_call_hoisted(self):
        """The paper's gemm_unum example: __sizeof_vpfloat leaves the
        loop."""
        source = """
        void f(unsigned prec, int n, vpfloat<unum, 4, prec> *X) {
          for (int i = 0; i < n; i++) {
            vpfloat<unum, 4, prec> t = 0.0;
            X[i] = t;
          }
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LICMPass())
        f = module.get_function("f")
        from repro.ir import LoopInfo

        info = LoopInfo(f)
        sizeofs = [i for i in f.instructions()
                   if isinstance(i, CallInst)
                   and getattr(i.callee, "name", "") == "__sizeof_vpfloat"]
        assert sizeofs
        loop = info.loops[0]
        assert all(c.parent not in loop.blocks for c in sizeofs)


class TestLoopIdiom:
    def test_memset_for_zero_init(self):
        source = """
        double f(int n, int k) {
          double A[200];
          for (int i = 0; i < n; i++) A[i] = 0.0;
          return A[k];
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopIdiomPass(),
                                   SimplifyCFGPass())
        assert stats.changes["loop-idiom"] == 1
        names = [getattr(i.callee, "name", "") for i in
                 module.get_function("f").instructions()
                 if isinstance(i, CallInst)]
        assert "memset" in names
        assert run(module, "f", [200, 5]) == 0.0

    def test_memcpy_for_copy_loop(self):
        source = """
        double f(int n, int k, double *src) {
          double A[100];
          for (int i = 0; i < n; i++) A[i] = src[i];
          return A[k];
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopIdiomPass(),
                                   SimplifyCFGPass())
        assert stats.changes["loop-idiom"] == 1
        interp = Interpreter(module)
        base = interp.memory.alloc_heap(800)
        for i in range(100):
            interp.memory.store(base + 8 * i, float(i), 8)
        assert interp.run("f", [100, 7, base]).value == 7.0

    def test_disabled_for_mpfr_types(self):
        """Paper §III-B: mpfr structs hold a mantissa pointer; raw memset
        would corrupt it."""
        source = """
        void f(int n, vpfloat<mpfr, 16, 128> *X) {
          for (int i = 0; i < n; i++) X[i] = 0.0;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopIdiomPass())
        assert stats.changes["loop-idiom"] == 0

    def test_enabled_for_unum_with_dynamic_size(self):
        """The dynamically-sized extension: byte count comes from
        __sizeof_vpfloat at runtime."""
        source = """
        void f(unsigned fss, int n, vpfloat<unum, 4, fss> *X) {
          for (int i = 0; i < n; i++) X[i] = 0.0;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopIdiomPass())
        assert stats.changes["loop-idiom"] == 1
        f = module.get_function("f")
        names = [getattr(i.callee, "name", "") for i in f.instructions()
                 if isinstance(i, CallInst)]
        assert "memset" in names
        assert "__sizeof_vpfloat" in names

    def test_nonzero_value_not_converted(self):
        source = """
        void f(int n, double *X) {
          for (int i = 0; i < n; i++) X[i] = 1.0;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopIdiomPass())
        assert stats.changes["loop-idiom"] == 0


class TestLoopUnroll:
    def test_full_unroll_constant_trip(self):
        source = """
        int f(int x) {
          int s = 0;
          for (int i = 0; i < 4; i++) s = s + x;
          return s;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopUnrollPass(),
                                   ConstantFoldPass(), SimplifyCFGPass(),
                                   DeadCodeEliminationPass())
        assert stats.changes["loop-unroll"] == 1
        assert run(module, "f", [5]) == 20
        # No loop remains.
        from repro.ir import LoopInfo

        assert not LoopInfo(module.get_function("f")).loops

    def test_large_trip_not_unrolled(self):
        source = """
        int f(int x) {
          int s = 0;
          for (int i = 0; i < 1000; i++) s = s + x;
          return s;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopUnrollPass())
        assert stats.changes["loop-unroll"] == 0

    def test_runtime_trip_not_unrolled(self):
        source = """
        int f(int n) {
          int s = 0;
          for (int i = 0; i < n; i++) s = s + 1;
          return s;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopUnrollPass())
        assert stats.changes["loop-unroll"] == 0
        assert run(module, "f", [7]) == 7

    def test_unroll_preserves_vpfloat_semantics(self):
        source = """
        double f() {
          vpfloat<mpfr, 16, 200> s = 0.0;
          for (int i = 0; i < 3; i++) s = s + 1.25;
          return (double)s;
        }
        """
        module, stats = compile_ir(source, Mem2RegPass(),
                                   SimplifyCFGPass(), LoopUnrollPass(),
                                   ConstantFoldPass(),
                                   SimplifyCFGPass(),
                                   DeadCodeEliminationPass())
        assert run(module, "f", []) == 3.75


class TestInlining:
    def test_simple_inline(self):
        source = """
        double helper(double x) { return x * 2.0; }
        double f(double a) { return helper(a) + helper(a); }
        """
        module, stats = compile_ir(source, InliningPass(), Mem2RegPass(),
                                   SimplifyCFGPass(), GVNPass())
        assert stats.changes["inline"] == 2
        assert run(module, "f", [3.0]) == 12.0
        # No calls to helper remain in f.
        f = module.get_function("f")
        calls = [i for i in f.instructions() if isinstance(i, CallInst)
                 and getattr(i.callee, "name", "") == "helper"]
        assert not calls

    def test_dynamic_type_mutation(self):
        """Paper §III-B: inlined values with dynamically-sized types have
        their types mutated to reference the caller's values."""
        source = """
        vpfloat<mpfr, 16, p> twice(unsigned p, vpfloat<mpfr, 16, p> x) {
          vpfloat<mpfr, 16, p> t = x + x;
          return t;
        }
        double f(unsigned q) {
          vpfloat<mpfr, 16, q> a = 1.5;
          vpfloat<mpfr, 16, q> r = twice(q, a);
          return (double)r;
        }
        """
        module, stats = compile_ir(source, InliningPass(), Mem2RegPass(),
                                   SimplifyCFGPass())
        assert stats.changes["inline"] >= 1
        f = module.get_function("f")
        callee = module.get_function("twice")
        callee_args = set(map(id, callee.args))
        # Every vpfloat type appearing in f must reference f-local values,
        # never the callee's arguments.
        for inst in f.instructions():
            if inst.type.is_vpfloat:
                for attr in inst.type.attributes():
                    assert id(attr) not in callee_args
        assert run(module, "f", [150]) == 3.0

    def test_conditional_return_inline(self):
        source = """
        int pick(int c, int a, int b) {
          if (c) return a;
          return b;
        }
        int f(int c) { return pick(c, 10, 20); }
        """
        module, stats = compile_ir(source, InliningPass(), Mem2RegPass(),
                                   SimplifyCFGPass())
        assert run(module, "f", [1]) == 10
        assert run(module, "f", [0]) == 20

    def test_noinline_attribute_respected(self):
        source = """
        double helper(double x) { return x * 2.0; }
        double f(double a) { return helper(a); }
        """
        module = generate_ir(analyze(parse(source)))
        module.get_function("helper").attributes.add("noinline")
        pm = PassManager().add(InliningPass())
        stats = pm.run(module)
        assert stats.changes["inline"] == 0

    def test_recursion_not_inlined(self):
        source = """
        int fact(int n) {
          if (n <= 1) return 1;
          return n * fact(n - 1);
        }
        """
        module, stats = compile_ir(source, InliningPass())
        assert run(module, "fact", [6]) == 720


def test_o3_output_independent_of_hash_seed():
    """-O3 walks loop bodies and dominance frontiers in function block
    order, so the optimized IR text is the same under any
    PYTHONHASHSEED (adi used to reorder hoisted instructions and
    renumber phis between seeds).  Checked on every PolyBench kernel,
    on mpfr and on unum (IR and coprocessor asm), one process per
    seed."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    script = (
        "from repro import compile_source\n"
        "from repro.backends.unum_backend import UnumISelError\n"
        "from repro.workloads.polybench import KERNELS, source_for, "
        "vpfloat_mpfr_type, vpfloat_unum_type\n"
        "for backend, ftype in (('mpfr', vpfloat_mpfr_type(128)), "
        "('unum', vpfloat_unum_type())):\n"
        "    for kernel in KERNELS:\n"
        "        print('==', kernel, backend)\n"
        "        try:\n"
        "            program = compile_source(source_for(kernel, ftype), "
        "backend=backend, cache=None)\n"
        "        except UnumISelError as exc:\n"
        "            print(type(exc).__name__, exc)\n"
        "            continue\n"
        "        print(program.module)\n"
        "        print(program.asm)\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    texts = []
    for seed in ("1", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        texts.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert texts[0].count("== ") == 58
    assert texts[0] == texts[1]
