"""``run_batch``: one run served to every lane.

Every lane of a ``run_batch`` is the same program on the same
arguments, so one jit run serves them all.  Locks that contract at
every layer: values and cycle reports equal a serial jit run, numpy is
never imported, the kernel tier applies, and the evaluation harness,
the validation certificates and the CLI all see the one run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import CompilerDriver


def _token(v):
    return (v.kind, v.sign, v.mant, v.exp, v.prec)


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
        # path; the one run falls back to the walker, still correct.
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
        assert batch.values == [serial.value] * 2

    def test_rejects_no_lanes(self):
        with pytest.raises(ValueError, match=">= 1 lane"):
            _gemm_program().run_batch("run", [4], lanes=0)

    def test_one_run_for_many_lanes_without_numpy(self):
        # 128 lanes at 53 bits: one serial run serves them all, and
        # numpy never loads.
        script = """
import sys
from repro.core import CompilerDriver
from repro.workloads.polybench import source_for

source = source_for("gemm", "vpfloat<mpfr, 16, 53>")
program = CompilerDriver(backend="mpfr").compile(source, name="gemm")
batch = program.run_batch("run", [4], lanes=128)
serial = program.run("run", [4])
assert "numpy" not in sys.modules, "numpy was imported"
assert batch.values == [serial.value] * 128
assert [r.cycles for r in batch.reports] == [serial.report.cycles] * 128
print("ok")
"""
        src = str(Path(repro.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_generic_tier_applies(self):
        from repro.observability import telemetry_session

        program = _gemm_program()
        with telemetry_session(metrics=True) as (_, registry):
            program.run_batch("run", [4], lanes=2, kernel_tier="generic")
        assert registry.counters.get("kernel.tier.generic.ops", 0) > 0


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
        # The one underlying run, certified as a serial point is.
        labels = [check.label for check in certificate.checks]
        assert labels == ["engine.legacy", "pool.off", "tier.generic"]

    def test_run_kernel_batch_rejects_other_engines(self):
        from repro.evaluation.harness import run_kernel

        with pytest.raises(ValueError, match="jit engine"):
            run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 4,
                       backend="mpfr", compile_cache=None, batch=2,
                       engine="legacy")
        with pytest.raises(ValueError, match="mpfr"):
            run_kernel("gemm", "double", 4, backend="none",
                       compile_cache=None, batch=2)


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
        # The one run is certified as without --batch.
        assert "engine.legacy" in out and "tier.generic" in out
        assert "batch3" not in out
        assert "PASS" in out

    def test_cli_batch_requires_mpfr(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "k.c"
        source.write_text("int f() { return 1; }")
        assert main([str(source), "--backend", "none", "--run", "f",
                     "--batch", "2", "--no-compile-cache"]) == 1
        assert "--backend mpfr" in capsys.readouterr().err
