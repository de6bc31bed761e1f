"""Batched SoA execution engine: kernels, runtime, plumbing.

Locks the batched engine's contract at every layer:

* the fused N-lane arithmetic kernels are bit-identical per lane to
  ``repro.bigfloat.arith`` (and hence to the scalar specialized
  kernels) across precisions, rounding modes, exponent clamps, and
  special values -- including the ZERO-operand fast paths;
* :class:`~repro.runtime.batch.VPBatch` semantics (broadcast, lanes,
  uniform guards, SoA interchange);
* end-to-end ``run_batch`` on real kernels: per-lane values and cycle
  reports bit-identical to serial jit runs, serial bailout for
  non-jittable programs;
* the ``serial↔batched`` transition: TRANSITIONS registry, evaluation
  harness certification, fuzzer cross-check, CLI path;
* compile-cache keying of batch-mode codegen sidecars.
"""

import pytest

from repro.bigfloat import BigFloat, arith
from repro.bigfloat.number import Kind
from repro.bigfloat.rounding import RNDA, RNDD, RNDN, RNDU, RNDZ
from repro.codegen.batch_kernels import (
    BATCH_KERNEL_OPS,
    batch_kernel_factory,
)
from repro.core import CompilerDriver
from repro.runtime.batch import (
    BatchContext,
    BatchDivergence,
    VPBatch,
    lane_view,
)

ALL_MODES = (RNDN, RNDZ, RNDU, RNDD, RNDA)

_ORACLES = {
    "add": arith.add, "sub": arith.sub, "mul": arith.mul,
    "div": arith.div, "fma": arith.fma, "fms": arith.fms,
    "sqrt": arith.sqrt,
}


def _clamped(value, exp_bits):
    """The destination exponent clamp (MpfrLibrary._clamp, per-lane)."""
    if exp_bits is None or not value.is_finite() or value.is_zero():
        return value
    limit = 1 << (exp_bits - 1)
    exponent = value.exponent()
    if exponent > limit:
        return BigFloat.inf(value.prec, value.sign)
    if exponent < -limit:
        return BigFloat.zero(value.prec, value.sign)
    return value


def _token(v):
    return (v.kind, v.sign, v.mant, v.exp, v.prec)


def _lane_values(prec):
    """Operand lanes covering the fast paths and every fallback class:
    normals, exact cancellations, signed zeros, huge/tiny magnitudes,
    negatives (sqrt fallback), and the non-finite specials."""
    f = lambda x: BigFloat.from_float(x, prec)
    return [
        f(1.5), f(-2.25), f(3.0), f(3.0), f(0.1),
        f(0.0), -f(0.0), f(1e300), f(1e-300), f(-7.0),
        BigFloat.inf(prec), BigFloat.inf(prec, 1), BigFloat.nan(prec),
        BigFloat.zero(prec), f(2.0),
    ]


class TestBatchKernelsBitExact:
    @pytest.mark.parametrize("op", BATCH_KERNEL_OPS)
    @pytest.mark.parametrize("prec", (24, 53, 128))
    def test_matches_arith_all_modes(self, op, prec):
        self._check(op, prec, exp_bits=None)

    @pytest.mark.parametrize("op", BATCH_KERNEL_OPS)
    def test_matches_arith_clamped(self, op):
        # A narrow exponent field so the huge/tiny lanes actually
        # overflow/underflow through the folded clamp.
        self._check(op, 53, exp_bits=10)

    @staticmethod
    def _check(op, prec, exp_bits):
        lanes_a = _lane_values(prec)
        n = len(lanes_a)
        lanes_b = list(reversed(lanes_a))
        lanes_c = lanes_a[n // 2:] + lanes_a[:n // 2]
        oracle = _ORACLES[op]
        for rm in ALL_MODES:
            ctx = BatchContext(n)
            kernel = batch_kernel_factory(op, prec, rm, exp_bits)(ctx)
            if op == "sqrt":
                batch = kernel(VPBatch.from_lanes(lanes_a))
                expected = [oracle(a, prec, rm) for a in lanes_a]
            elif op in ("fma", "fms"):
                batch = kernel(VPBatch.from_lanes(lanes_a),
                               VPBatch.from_lanes(lanes_b),
                               VPBatch.from_lanes(lanes_c))
                expected = [oracle(a, b, c, prec, rm) for a, b, c
                            in zip(lanes_a, lanes_b, lanes_c)]
            else:
                batch = kernel(VPBatch.from_lanes(lanes_a),
                               VPBatch.from_lanes(lanes_b))
                expected = [oracle(a, b, prec, rm) for a, b
                            in zip(lanes_a, lanes_b)]
            got = [_token(batch.lane(i)) for i in range(n)]
            want = [_token(_clamped(v, exp_bits)) for v in expected]
            assert got == want, f"{op} prec={prec} rm={rm.value}"

    def test_zero_operands_stay_on_fast_path(self):
        """The gemm-shaped case: zero accumulators/operands must not
        fall back to the per-lane library routine."""
        prec = 128
        zero = BigFloat.zero(prec)
        x = BigFloat.from_float(1.5, prec)
        for op, operands in (("add", (zero, x)), ("sub", (x, zero)),
                             ("mul", (zero, x)), ("div", (zero, x)),
                             ("sqrt", (zero,))):
            ctx = BatchContext(4)
            kernel = batch_kernel_factory(op, prec, RNDN, None)(ctx)
            kernel(*(VPBatch.broadcast(v, 4) for v in operands))
            assert ctx.scalar_fallbacks == 0, op
        ctx = BatchContext(4)
        kernel = batch_kernel_factory("fma", prec, RNDN, None)(ctx)
        kernel(VPBatch.broadcast(zero, 4), VPBatch.broadcast(x, 4),
               VPBatch.broadcast(x, 4))
        assert ctx.scalar_fallbacks == 0

    def test_specials_take_scalar_fallback(self):
        prec = 64
        ctx = BatchContext(3)
        kernel = batch_kernel_factory("add", prec, RNDN, None)(ctx)
        a = VPBatch.from_lanes([BigFloat.nan(prec), BigFloat.inf(prec),
                                BigFloat.from_float(1.0, prec)])
        b = VPBatch.broadcast(BigFloat.from_float(2.0, prec), 3)
        result = kernel(a, b)
        assert ctx.scalar_fallbacks == 2  # NaN and Inf lanes only
        assert result.lane(0).is_nan()
        assert result.lane(1).kind is Kind.INF
        assert _token(result.lane(2)) == _token(
            arith.add(a.lane(2), b.lane(2), prec, RNDN))


class TestVPBatch:
    def test_broadcast_and_lanes(self):
        v = BigFloat.from_float(2.5, 64)
        batch = VPBatch.broadcast(v, 3)
        assert len(batch) == 3
        assert [_token(x) for x in batch.lanes()] == [_token(v)] * 3
        assert _token(batch.uniform_lane()) == _token(v)

    def test_from_lanes_rejects_mixed_precision(self):
        with pytest.raises(ValueError):
            VPBatch.from_lanes([BigFloat.from_float(1.0, 64),
                                BigFloat.from_float(1.0, 128)])

    def test_uniform_lane_raises_on_divergence(self):
        batch = VPBatch.from_lanes([BigFloat.from_float(1.0, 64),
                                    BigFloat.from_float(2.0, 64)])
        with pytest.raises(BatchDivergence):
            batch.uniform_lane()

    def test_round_to(self):
        batch = VPBatch.broadcast(BigFloat.from_float(1.0 / 3.0, 128), 2)
        rounded = batch.round_to(24)
        assert rounded.prec == 24
        assert _token(rounded.lane(1)) == _token(
            batch.lane(1).round_to(24))

    def test_soa_round_trip(self):
        numpy = pytest.importorskip("numpy")
        lanes = [BigFloat.from_float(x, 192)
                 for x in (1.5, -0.25, 3e10, 0.0)]
        lanes[-1] = BigFloat.nan(192)
        batch = VPBatch.from_lanes(lanes)
        soa = batch.to_soa()
        assert soa["limbs"].shape == (4, 3)  # 192 bits -> 3 limbs
        assert soa["limbs"].dtype == numpy.uint64
        back = VPBatch.from_soa(soa)
        assert [_token(v) for v in back.lanes()] == \
            [_token(v) for v in batch.lanes()]

    def test_lane_view_passthrough(self):
        assert lane_view(7, 1) == 7
        batch = VPBatch.from_lanes([BigFloat.from_float(1.0, 64),
                                    BigFloat.from_float(2.0, 64)])
        assert _token(lane_view(batch, 1)) == _token(batch.lane(1))


GEMM_SOURCE = None  # filled lazily from the workload templates


def _gemm_program(**kwargs):
    from repro.workloads.polybench import source_for

    source = source_for("gemm", "vpfloat<mpfr, 16, 128>")
    return CompilerDriver(backend="mpfr", **kwargs).compile(
        source, name="gemm")


def _report_token(report):
    return (report.cycles, report.instructions, report.mpfr_calls,
            report.parallel_cycles, report.bytes_read,
            report.bytes_written, dict(report.by_category))


class TestRunBatch:
    def test_lanes_and_report_bit_identical_to_serial(self):
        program = _gemm_program()
        serial = program.run("run", [4], engine="jit")
        batch = program.run_batch("run", [4], lanes=3)
        assert batch.mode == "batched"
        assert batch.values == [serial.value] * 3
        assert [_report_token(r) for r in batch.reports] == \
            [_report_token(serial.report)] * 3

    def test_non_mpfr_backend_rejected(self):
        from repro.core import compile_source

        program = compile_source("int f() { return 1; }", backend="none")
        with pytest.raises(ValueError, match="mpfr backend"):
            program.run_batch("f", [], lanes=2)

    def test_non_jittable_program_falls_back_to_serial(self):
        # A runtime precision attribute keeps the function off the jit
        # path, so the batch must bail out to per-lane serial runs --
        # still correct, mode reported.
        from repro.core import compile_source

        source = """
        double f(unsigned prec) {
          vpfloat<mpfr, 16, prec> x = 1.5;
          vpfloat<mpfr, 16, prec> y = x * x + x;
          return (double)(y);
        }
        """
        program = compile_source(source, backend="mpfr", engine="jit")
        serial = program.run("f", [96], engine="jit")
        batch = program.run_batch("f", [96], lanes=2)
        assert batch.mode == "serial"
        assert batch.fallback_reason
        assert batch.values == [serial.value] * 2

    def test_serial_fallback_keeps_kernel_tier(self):
        # The per-lane fallback runs must run at the batch's tier, or a
        # generic-tier batch that bails out compares the tiered kernel
        # with itself.
        from repro.core import compile_source

        source = """
        double g(unsigned prec) {
          vpfloat<mpfr, 16, prec> x = 1.5;
          return (double)(x * x + x);
        }
        double f(unsigned prec) {
          double y = 2.0;
          return y * g(prec);
        }
        """
        program = compile_source(source, backend="mpfr", engine="jit")
        batch = program.run_batch("f", [96], lanes=2,
                                  kernel_tier="generic")
        assert batch.mode == "serial"
        assert batch.interpreter.kernel_tier == "generic"


class TestTransitions:
    def test_registry_names_serial_batched_exact(self):
        from repro.validation import STRICTNESS, TRANSITIONS

        assert TRANSITIONS["serial↔batched"] == "exact"
        assert set(TRANSITIONS.values()) <= set(STRICTNESS)


class TestHarnessBatch:
    def test_run_kernel_batched_matches_serial(self):
        from repro.evaluation.harness import run_kernel

        ftype = "vpfloat<mpfr, 16, 128>"
        serial = run_kernel("gemm", ftype, 4, backend="mpfr",
                            compile_cache=None)
        batched = run_kernel("gemm", ftype, 4, backend="mpfr",
                             compile_cache=None, batch=3)
        assert batched.batch == 3
        assert batched.batch_mode == "batched"
        assert [_token(v) for v in batched.outputs] == \
            [_token(v) for v in serial.outputs]
        assert _report_token(batched.report) == \
            _report_token(serial.report)

    def test_run_kernel_batched_validate_certifies(self):
        from repro.evaluation.harness import run_kernel

        outcome = run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 4,
                             backend="mpfr", compile_cache=None,
                             batch=2, validate=True)
        certificate = outcome.certificate
        assert certificate is not None and certificate.passed
        labels = [check.label for check in certificate.checks]
        assert labels == ["batch2.lane0", "batch2.lane1",
                          "tier.generic.lane0", "tier.generic.lane1"]
        assert all(check.strictness == "exact"
                   for check in certificate.checks)

    def test_run_kernel_batch_rejects_other_engines(self):
        from repro.evaluation.harness import run_kernel

        with pytest.raises(ValueError, match="jit engine"):
            run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 4,
                       backend="mpfr", compile_cache=None, batch=2,
                       engine="legacy")
        with pytest.raises(ValueError, match="mpfr"):
            run_kernel("gemm", "double", 4, backend="none",
                       compile_cache=None, batch=2)


class TestFuzzerBatch:
    def test_cross_check_batched_passes_on_pinned_programs(self):
        import random

        from repro.validation import cross_check_batched, generate_program

        rng = random.Random(7)
        for _ in range(3):
            program = generate_program(rng, max_ops=6)
            assert cross_check_batched(program, lanes=(2,)) is None

    def test_cross_check_batched_flags_a_bad_lane(self, monkeypatch):
        """A simulated miscompile (one lane value perturbed) must come
        back as a 'batch'-stage mismatch."""
        import random

        from repro.validation import fuzzer

        program = fuzzer.generate_program(random.Random(3), max_ops=5)

        from repro.core import CompiledProgram

        real_run_batch = CompiledProgram.run_batch

        def run_batch(self, name, args, lanes=1, **kwargs):
            result = real_run_batch(self, name, args, lanes=lanes,
                                    **kwargs)
            result.values[-1] = -1234.5  # perturb the last lane
            return result

        monkeypatch.setattr(CompiledProgram, "run_batch", run_batch)
        mismatch = fuzzer.cross_check_batched(program, lanes=(2,))
        assert mismatch is not None
        assert mismatch.stage == "batch"
        assert "lane1" in mismatch.label


class TestCLIBatch:
    def test_cli_batch_validate(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.polybench import source_for

        source = tmp_path / "gemm.c"
        source.write_text(source_for("gemm", "vpfloat<mpfr, 16, 128>"))
        assert main([str(source), "--backend", "mpfr", "--run", "run",
                     "--args", "4", "--batch", "3", "--report",
                     "--validate", "--no-compile-cache"]) == 0
        out = capsys.readouterr().out
        assert "[3 lanes, batched]" in out
        assert "batch3.lane2" in out
        assert "PASS" in out

    def test_cli_batch_requires_mpfr(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "k.c"
        source.write_text("int f() { return 1; }")
        assert main([str(source), "--backend", "none", "--run", "f",
                     "--batch", "2", "--no-compile-cache"]) == 1
        assert "--backend mpfr" in capsys.readouterr().err
