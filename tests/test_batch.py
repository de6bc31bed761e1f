"""``run_batch``: one run served to every lane.

Every lane of a ``run_batch`` is the same program on the same
arguments, so one jit run serves them all.  Locks that contract:
values and cycle reports equal a serial jit run, and numpy is never
imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import CompilerDriver


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
        program = compile_source(source, backend="mpfr")
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
