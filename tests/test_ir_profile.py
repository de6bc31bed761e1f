"""IR-level profiler tests: exact attribution, flamegraphs, divergence.

The exact profiler's contract is conservation: per-instruction model
cycles, summed over every record (including the ``<overhead>``
pseudo-record for outermost call/return costs), equal the run's
CostReport total *exactly* -- and hooking the interpreter must not
perturb the modeled execution at all.
"""

import pytest

from repro.core import CompilerDriver
from repro.observability.profile import OVERHEAD, divergence
from repro.workloads.polybench import source_for

MPFR = "vpfloat<mpfr, 16, 128>"


def _compile(kernel):
    driver = CompilerDriver(backend="mpfr")
    return driver.compile(source_for(kernel, MPFR),
                          name=f"{kernel}-profile")


def _profile(kernel, n):
    return _compile(kernel).run("run", [n], profile=True).profile


@pytest.mark.parametrize("kernel,n", [("gemm", 6), ("jacobi-1d", 12)])
def test_exact_attribution_sums_to_report_total(kernel, n):
    program = _compile(kernel)
    reference = program.run("run", [n], engine="legacy")
    result = program.run("run", [n], profile=True)
    profile = result.profile
    # Conservation: every modeled cycle lands on exactly one record.
    assert profile.attributed_cycles() == profile.total_cycles
    # ... and hooking did not perturb the model.
    assert profile.total_cycles == reference.report.cycles
    assert int(result.value) == int(reference.value)


def test_exact_profile_attributes_real_opcodes():
    profile = _profile("gemm", 6)
    by_opcode = profile.by_opcode()
    assert OVERHEAD in by_opcode
    assert len(by_opcode) > 3  # real instruction mix, not one bucket
    total = sum(cycles for _, cycles, _ in by_opcode.values())
    assert total == profile.total_cycles


def test_exact_profile_rows_and_render():
    profile = _profile("gemm", 4)
    rows = profile.rows(limit=5)
    assert 0 < len(rows) <= 5
    # Rows are heaviest-first by cycles for the exact profiler.
    cycles = [row[5] for row in rows]
    assert cycles == sorted(cycles, reverse=True)
    assert profile.render(limit=5)


def test_collapsed_stacks_write_and_weights(tmp_path):
    profile = _profile("gemm", 6)
    path = tmp_path / "gemm.collapsed"
    profile.write_collapsed(path)
    lines = path.read_text().strip().splitlines()
    assert lines
    total = 0
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack and ";" in stack or stack  # func;...;block:opcode
        total += int(weight)
    # Collapsed-stack weights are the same conserved cycle total.
    assert total == profile.total_cycles


def test_divergence_report_shapes():
    model = _profile("gemm", 4)
    rows = divergence(model, threshold=0.0, min_share=0.0)
    assert isinstance(rows, list)
    for row in rows:
        assert row.factor >= 0.0
        assert isinstance(row.render(), str)

