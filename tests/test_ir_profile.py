"""IR-level profiler tests: exact attribution, sampling, flamegraphs.

The exact profiler's contract is conservation: per-instruction model
cycles, summed over every record (including the ``<overhead>``
pseudo-record for outermost call/return costs), equal the run's
CostReport total *exactly* -- and hooking the interpreter must not
perturb the modeled execution at all.
"""

import pytest

from repro.core import CompilerDriver
from repro.observability.profile import (
    OVERHEAD,
    divergence,
    sample_jit_run,
)
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
    rows = divergence(model, wall=None, threshold=0.0, min_share=0.0)
    assert isinstance(rows, list)
    for row in rows:
        assert row.factor >= 0.0
        assert isinstance(row.render(), str)


def test_sampled_jit_profiler_runs_and_maps_lines():
    program = _compile("gemm")
    profile = sample_jit_run(program, "run", [8], interval=0.0001)
    assert profile.kind == "sampled"
    assert int(profile.result.value) == \
        int(program.run("run", [8], engine="jit").value)
    # Exact hot-block counts come from the jit's block-count hook even
    # when the wall sampler caught nothing (tiny run, slow box).
    assert profile.block_counts


def test_jit_line_maps_registered():
    from repro.codegen.pyjit import LINE_MAPS

    program = _compile("gemm")
    program.run("run", [4], engine="jit")
    filename, entry = LINE_MAPS.get("kernel_gemm", (None, None))
    assert entry, f"no jit line map registered: {sorted(LINE_MAPS)}"
    assert filename.startswith("<vpjit:kernel_gemm:")
    assert all(isinstance(k, int) for k in entry)
    assert all(len(loc) == 3 for loc in entry.values())


def test_jit_line_maps_do_not_collide_across_programs():
    """Two programs with a ``run`` each resolve against their own line
    map, including one whose code was memoized before the other
    program materialized."""
    from repro.observability.profile import jit_location

    gemm, atax = _compile("gemm"), _compile("atax")
    gemm.run("run", [4], engine="jit")
    atax.run("run", [4], engine="jit")  # registered last
    filenames = {}
    for program in (gemm, atax):
        sample_jit_run(program, "run", [4], interval=0.001)
        store = program._codegen_store
        filename = store.codes["run"].co_filename
        own = {int(line): tuple(loc) for line, loc
               in store.records["run"]["line_map"].items()}
        assert all(jit_location(filename, line) == ("run", loc)
                   for line, loc in own.items())
        filenames[program] = (filename, next(iter(own)))
    assert filenames[gemm][0] != filenames[atax][0]
    # gemm's code no longer resolves against the map atax registered.
    assert jit_location(*filenames[gemm]) == \
        ("run", ("<unmapped>", None, None))
