"""The jit engine's equivalence with the legacy walker + profiling."""

from repro import compile_source
from repro.observability import telemetry_session
from repro.workloads.polybench import source_for


def _run_both(source, func, args, backend, n_or_args=None):
    program = compile_source(source, backend=backend)
    legacy = program.run(func, args, engine="legacy")
    jit = program.run(func, args, engine="jit")
    return legacy, jit


class TestDispatchEquivalence:
    """The jit must charge the same cycles to the same categories and
    produce the same values as the legacy isinstance walker."""

    def assert_equivalent(self, source, func, args, backend):
        legacy, jit = _run_both(source, func, args, backend)
        assert jit.value == legacy.value
        assert jit.report.cycles == legacy.report.cycles
        assert jit.report.instructions == legacy.report.instructions
        assert dict(jit.report.by_category) == \
            dict(legacy.report.by_category)
        assert jit.report.mpfr_calls == legacy.report.mpfr_calls
        assert jit.report.heap_allocations == legacy.report.heap_allocations

    def test_gemm_all_interpreter_backends(self):
        source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
        for backend in ("none", "mpfr", "boost"):
            self.assert_equivalent(source, "run", [5], backend)

    def test_control_flow_heavy(self):
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
        self.assert_equivalent(source, "collatz_steps", [27], "none")

    def test_float_and_select_paths(self):
        source = """
        double f(int n) {
          float acc = 0.0;
          for (int i = 1; i <= n; i++) {
            float x = (float)i / 3.0;
            acc = acc + (i % 2 == 0 ? x : -x);
          }
          return (double)acc;
        }
        """
        self.assert_equivalent(source, "f", [37], "none")

    def test_dynamic_precision_kernel(self):
        source = """
        double f(unsigned p) {
          vpfloat<mpfr, 16, p> tiny = 1.0;
          for (int i = 0; i < 70; i++) tiny = tiny / 2.0;
          vpfloat<mpfr, 16, p> one = 1.0;
          return (double)((one + tiny) - one);
        }
        """
        for backend in ("none", "mpfr"):
            self.assert_equivalent(source, "f", [120], backend)

    def test_error_still_raised_at_execution_time(self):
        import pytest

        from repro.runtime import VPRuntimeError

        source = """
        int f(int n) { return 10 / n; }
        """
        program = compile_source(source, backend="none")
        # Emitting the jit source must not raise; execution must.
        assert program.run("f", [5]).value == 2
        with pytest.raises(VPRuntimeError):
            program.run("f", [0])


class TestSuperinstructionFusion:
    """Adjacent producer/consumer pairs (load+arith, arith+store,
    cmp+branch) the old closure tables fused: the jit and the legacy
    walker must agree on outputs and every cycle category, bit for
    bit."""

    def _run_all(self, source, func, args, backend, n_points=0):
        program = compile_source(source, backend=backend)
        results = {}
        for engine in ("legacy", "jit"):
            r = program.run(func, args, engine=engine)
            results[engine] = (
                r.value, r.report.cycles, r.report.instructions,
                dict(r.report.by_category), r.report.mpfr_calls,
                r.report.heap_allocations)
        assert results["jit"] == results["legacy"]
        return results["jit"]

    def test_gemm_all_engines(self):
        for backend in ("none", "mpfr", "boost"):
            source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
            self._run_all(source, "run", [5], backend)

    def test_jacobi_all_engines(self):
        for backend in ("none", "mpfr"):
            source = source_for("jacobi-1d", "vpfloat<mpfr, 16, 128>")
            self._run_all(source, "run", [8], backend)

    def test_multi_user_producers_write_through(self):
        """A loaded/computed value consumed by the next instruction AND
        a later one must still land in the frame (write-through), in
        every engine."""
        source = """
        double f(int n) {
          double buf[4];
          buf[0] = 1.5;
          double acc = 0.0;
          for (int i = 0; i < n; i++) {
            double x = buf[0] * 2.0;   /* load feeds fmul */
            buf[1] = x + 1.0;          /* fadd feeds store */
            acc = acc + x + buf[1];    /* x and buf[1] reused */
          }
          return acc;
        }
        """
        self._run_all(source, "f", [7], "none")

    def test_cmp_branch_fusion_with_reused_condition(self):
        source = """
        int f(int n) {
          int taken = 0;
          int last = 0;
          for (int i = 0; i < n; i++) {
            int c = i % 3 == 0;
            if (c) taken++;
            last = c;                  /* condition reused after branch */
          }
          return taken * 10 + last;
        }
        """
        self._run_all(source, "f", [10], "none")

    def test_unfused_mode_rejected_values(self):
        import pytest

        from repro.runtime.interpreter import Interpreter

        program = compile_source("int f() { return 1; }", backend="none")
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            Interpreter(program.module, dispatch="fused")


class TestRuntimePrecisionFreshness:
    def test_shrinking_precision_loop_not_stale(self):
        """A dynamic-precision loop that lowers ``p`` mid-function: each
        iteration must see the *current* precision, not the cached
        config of the first.  At p=200 and p=130, 1 + 2^-70 is
        representable (diff 2^-70 each); at p=60 it rounds away
        (diff 0).  A stale 200-bit config would yield 3 * 2^-70."""
        source = """
        double f(int p) {
          double acc = 0.0;
          while (p >= 60) {
            vpfloat<mpfr, 16, p> tiny = 1.0;
            for (int i = 0; i < 70; i++) tiny = tiny / 2.0;
            vpfloat<mpfr, 16, p> one = 1.0;
            acc = acc + (double)((one + tiny) - one);
            p = p - 70;
          }
          return acc;
        }
        """
        for backend in ("none", "mpfr"):
            program = compile_source(source, backend=backend)
            for engine in ("jit", "legacy"):
                result = program.run("f", [200], engine=engine)
                assert result.value == 2.0 ** -69, (backend, engine)

    def test_vp_config_cache_across_runs(self):
        """One interpreter, different runtime attrs: the per-config cache
        must key on the attribute values, not resolve once."""
        source = """
        double f(unsigned p) {
          vpfloat<mpfr, 16, p> tiny = 1.0;
          for (int i = 0; i < 70; i++) tiny = tiny / 2.0;
          vpfloat<mpfr, 16, p> one = 1.0;
          return (double)((one + tiny) - one);
        }
        """
        program = compile_source(source, backend="mpfr")
        interp = program.interpreter()
        assert interp.run("f", [60]).value == 0.0
        assert interp.run("f", [120]).value == 2.0 ** -70
        assert interp.run("f", [60]).value == 0.0  # cached config reused


class TestProfile:
    def test_profile_counts_opcodes_and_builtins(self):
        source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
        program = compile_source(source, backend="mpfr")
        result = program.run("run", [5], profile=True)
        profile = result.profile
        assert profile is not None
        assert profile.opcode_counts["br"] > 0
        assert sum(profile.opcode_counts.values()) == \
            result.report.instructions
        assert profile.builtin_calls["mpfr_mul"] > 0
        assert profile.builtin_cycles["mpfr_mul"] > 0
        top_ops = profile.hottest_opcodes(3)
        assert len(top_ops) == 3
        assert top_ops[0][1] >= top_ops[1][1] >= top_ops[2][1]
        name, calls, cycles = profile.hottest_builtins(1)[0]
        assert calls > 0 and cycles > 0

    def test_profile_matches_between_dispatch_modes(self):
        source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
        program = compile_source(source, backend="mpfr")
        jit = program.run("run", [4], profile=True, engine="jit")
        legacy = program.run("run", [4], profile=True, engine="legacy")
        assert jit.profile.opcode_counts == legacy.profile.opcode_counts
        assert jit.profile.builtin_calls == legacy.profile.builtin_calls

    def test_gemm_profile_pinned(self):
        """gemm (mpfr, n=4) under profile=True: the counts and builtin
        cycles the closure-table engine reported before profiled runs
        moved to the legacy walker."""
        source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
        result = compile_source(source, backend="mpfr").run(
            "run", [4], profile=True)
        profile = result.profile
        assert profile.opcode_counts == {
            "add": 348, "alloca": 8, "bitcast": 1, "br": 344, "call": 309,
            "fdiv": 48, "gep": 240, "icmp": 172, "mul": 78,
            "ptrtoint": 1, "ret": 2, "sext": 193, "sitofp": 49,
            "srem": 48, "udiv": 1}
        assert profile.builtin_calls == {
            "__mpfr_array_clear": 3, "__mpfr_array_init": 4,
            "__mpfr_set_literal": 2, "malloc": 1, "mpfr_add": 64,
            "mpfr_clear": 5, "mpfr_init2": 5, "mpfr_mul": 144,
            "mpfr_set": 32, "mpfr_set_d": 48}
        assert profile.builtin_cycles == {
            "__mpfr_array_clear": 2736, "__mpfr_array_init": 15076,
            "__mpfr_set_literal": 318, "malloc": 80, "mpfr_add": 5696,
            "mpfr_clear": 265, "mpfr_init2": 1187, "mpfr_mul": 18392,
            "mpfr_set": 2992, "mpfr_set_d": 5084}
        assert result.report.cycles == 54293
        assert result.report.instructions == 1842
        assert profile.attributed_cycles() == result.report.cycles
        program = compile_source(source, backend="mpfr")
        legacy = program.run("run", [4], engine="legacy")
        assert result.value == legacy.value
        assert result.report == legacy.report

    def test_profile_feeds_metrics(self):
        source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
        program = compile_source(source, backend="mpfr")
        with telemetry_session(metrics=True) as (_, registry):
            result = program.run("run", [4], profile=True)
        counters = registry.counters
        opcodes = {name: count for name, count in counters.items()
                   if name.startswith("runtime.opcode.")}
        assert sum(opcodes.values()) == result.report.instructions
        assert counters["runtime.builtin.mpfr_mul.calls"] == \
            result.profile.builtin_calls["mpfr_mul"]

    def test_profile_off_by_default(self):
        result = compile_source("int f() { return 1; }",
                                backend="none").run("f", [])
        assert result.profile is None


class TestPassTimings:
    def test_compile_records_pipeline_and_lowering_times(self):
        source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
        program = compile_source(source, backend="mpfr")
        assert "mem2reg" in program.pass_timings
        assert "mpfr-lowering" in program.pass_timings
        assert all(t >= 0.0 for t in program.pass_timings.values())
