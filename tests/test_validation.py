"""Translation validation: certificates, harness, fuzzer, minimizer.

The acceptance bar for the validation subsystem: ``--validate`` runs on
real kernels produce passing certificates and leave the primary run
bit-identical; the fuzzer's differential agrees across every
engine/optimization configuration; a seeded miscompile shrinks to a
tiny deterministic reproducer that persists and replays.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.bigfloat import RNDN, RNDZ, BigFloat, arith
from repro.evaluation.harness import run_kernel
from repro.observability import telemetry_session
from repro.passes.pass_manager import droppable_passes, o3_pipeline
from repro.runtime.cost_model import CostReport
from repro.runtime.memory import Memory
from repro.validation import (
    Certificate,
    CertificateError,
    FuzzOp,
    FuzzProgram,
    Mismatch,
    REGISTRY,
    certify,
    compare_reports,
    cross_check,
    finish_certificate,
    fuzz_programs,
    generate_program,
    load_reproducer,
    make_check,
    minimize,
    replay,
    report_snapshot,
    save_reproducer,
    value_token,
)
from repro.validation.fuzzer import REFERENCE_KERNELS, eval_reference
from repro.validation.harness import observe_run

#: The single-pass drop labels, one per distinct -O3 pipeline pass.
PASS_DROPS = [f"pass.no-{name}" for name in droppable_passes()]

SOURCE = """
double f(int n) {
  vpfloat<mpfr, 16, 96> acc = 0.25;
  vpfloat<mpfr, 16, 96> step = 1.5;
  for (int i = 0; i < n; i = i + 1) {
    acc = acc * step + 0.125;
  }
  return acc;
}
"""


# ----------------------------------------------------------------- #
# Certificate primitives
# ----------------------------------------------------------------- #

class TestValueToken:
    def test_bigfloat_bit_identity(self):
        a = BigFloat.from_float(1.5, 64)
        b = BigFloat.from_float(1.5, 64)
        assert value_token(a) == value_token(b)
        assert value_token(a) != value_token(BigFloat.from_float(1.5, 65))

    def test_signed_zero_distinct(self):
        assert value_token(BigFloat.zero(53, 0)) != \
            value_token(BigFloat.zero(53, 1))
        assert value_token(0.0) != value_token(-0.0)

    def test_nan_equals_nan(self):
        assert value_token(BigFloat.nan(53)) == \
            value_token(BigFloat.nan(53))
        assert value_token(float("nan")) == value_token(float("nan"))

    def test_float_vs_bigfloat_distinct(self):
        assert value_token(1.5) != value_token(BigFloat.from_float(1.5, 53))


class TestCompareReports:
    REF = {"cycles": 100, "instructions": 40, "mpfr_calls": 10,
           "mpfr_allocations": 2, "heap_allocations": 2, "llc_misses": 1,
           "dram_bytes": 64, "parallel_cycles": 0,
           "by_category": {"arith": 90}}

    def test_exact_catches_any_field(self):
        candidate = dict(self.REF)
        candidate["cycles"] = 101
        assert compare_reports(self.REF, self.REF, "exact") is None
        assert compare_reports(self.REF, candidate, "exact") is not None

    def test_sane_only_wants_positive_work(self):
        assert compare_reports(self.REF, dict(self.REF, cycles=5,
                                              instructions=1),
                               "sane") is None
        assert compare_reports(self.REF, dict(self.REF, cycles=0),
                               "sane") is not None

    def test_unknown_strictness_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(self.REF, self.REF, "fuzzy")

    def test_exact_compares_every_report_field(self):
        # A miscounted cache hit or byte diverges like a cycle does, and
        # the snapshot survives a JSON round trip.
        report = CostReport(cycles=10, cache_hits=(3, 2, 1))
        reference = report_snapshot(report)
        assert json.loads(json.dumps(reference)) == reference
        for field in dataclasses.fields(CostReport):
            if field.name == "by_category":
                continue
            changed = CostReport(cycles=10, cache_hits=(3, 2, 1))
            setattr(changed, field.name, (3, 2, 2)
                    if field.name == "cache_hits" else 11)
            message = compare_reports(reference, report_snapshot(changed),
                                      "exact")
            assert message is not None and repr(field.name) in message


class TestCertificateObject:
    def _cert(self, passed: bool) -> Certificate:
        check = make_check("engine.legacy", "exact", (1,),
                           (1,) if passed else (2,),
                           TestCompareReports.REF, TestCompareReports.REF)
        return Certificate(kind="engines", subject="t",
                           reference="engine.jit", checks=[check],
                           witness={})

    def test_render_mentions_outcome(self):
        assert "PASS" in self._cert(True).render()
        assert "FAIL" in self._cert(False).render()

    def test_round_trips_through_dict(self):
        cert = self._cert(True)
        again = Certificate.from_dict(json.loads(
            json.dumps(cert.to_dict())))
        assert again.passed and again.subject == cert.subject
        assert len(again.checks) == len(cert.checks)

    def test_strict_failure_raises(self):
        with pytest.raises(CertificateError):
            finish_certificate(self._cert(False), strict=True)
        assert finish_certificate(self._cert(False), strict=False) \
            .passed is False


# ----------------------------------------------------------------- #
# The run observation
# ----------------------------------------------------------------- #

def _finished_run(values, garbage):
    """A finished run's return value and memory: ``garbage`` bytes of
    heap first, then an output array holding ``values`` whose base is
    returned and kept in a global."""
    memory = Memory()
    if garbage:
        memory.alloc_heap(garbage)
    base = memory.alloc_heap(8 * len(values))
    for i, value in enumerate(values):
        memory.store(base + 8 * i, value, 8)
    memory.store(memory.alloc_global(8), base, 8)
    return base, memory


class TestObserveRun:
    VALUES = [BigFloat.from_float(x, 64) for x in (0.5, -1.25, 3.0)]

    def test_heap_placement_is_not_observed(self):
        here = observe_run(*_finished_run(self.VALUES, 0))
        there = observe_run(*_finished_run(self.VALUES, 48))
        assert here == there
        # The returned base, the global holding it, then the array.
        assert here == (("address",), ("address",),
                        *(value_token(v) for v in self.VALUES))

    def test_one_changed_element_is_observed(self):
        changed = list(self.VALUES)
        changed[1] = arith.neg(changed[1], 64, RNDN)
        assert observe_run(*_finished_run(self.VALUES, 0)) != \
            observe_run(*_finished_run(changed, 48))

    def test_freed_and_stack_cells_are_not_observed(self):
        base, memory = _finished_run(self.VALUES, 0)
        before = observe_run(base, memory)
        freed = memory.alloc_heap(8)
        memory.store(freed, 1.0, 8)
        memory.free_heap(freed)
        memory.store(memory.alloc_stack(8), 2.0, 8)
        assert observe_run(base, memory) == before


# ----------------------------------------------------------------- #
# Harness: engine + pass certificates on real sources
# ----------------------------------------------------------------- #

def _certify_source(args, backend="mpfr", **kwargs):
    return certify("program", "f", args, source=SOURCE,
                   options={"backend": backend, "cache": None}, **kwargs)


class TestValidateHarness:
    def test_engines_certificate_passes(self):
        cert = _certify_source((12,), strict=True)
        assert cert.passed
        labels = {check.label for check in cert.checks}
        # jit is the reference; the walker is the one candidate.
        assert labels == {"engine.legacy"}

    def test_passes_certificate_passes(self):
        cert = _certify_source((12,), kind="pass", only=("opt", "pass"),
                               strict=True)
        assert cert.passed
        labels = [check.label for check in cert.checks]
        assert labels == ["opt.O0", *PASS_DROPS, "pass.polly"]

    def test_unum_rejected(self):
        with pytest.raises(ValueError):
            _certify_source((4,), backend="unum")

    def test_counters_emitted(self):
        with telemetry_session(metrics=True) as (_tracer, registry):
            _certify_source((4,), strict=True)
            counters = registry.to_dict()["counters"]
        assert counters.get("validate.certificates") == 1
        assert counters.get("validate.passed") == 1
        assert not counters.get("validate.failed")

    def test_registry_rules(self):
        from repro.validation import TRANSITIONS

        def labels(engine="jit", **options):
            return [t.label for t in REGISTRY
                    if t.applies({"backend": "mpfr", **options}, engine)]

        assert labels() == ["engine.legacy", "opt.O0", *PASS_DROPS,
                            "pass.polly"]
        assert labels(engine="legacy")[0] == "engine.jit"
        assert labels(backend="boost") == labels()
        # Single-pass drops start from the full -O3, Polly from an
        # untiled reference.
        assert labels(disable_passes=("gvn",)) == \
            ["engine.legacy", "opt.O0", "pass.polly"]
        assert labels(polly=True) == ["engine.legacy", "opt.O0",
                                      *PASS_DROPS]
        assert all(t.strictness == TRANSITIONS[t.edge] for t in REGISTRY)

    def test_one_drop_row_per_pipeline_pass(self):
        names = {name for name, _ in o3_pipeline()}
        assert len(names) == 9
        assert sorted(PASS_DROPS) == sorted(f"pass.no-{name}"
                                            for name in names)

    @pytest.mark.parametrize("kernel", ["gemm", "jacobi-2d", "syrk"])
    def test_polly_tiles_certify(self, kernel):
        from repro.core import compile_source
        from repro.workloads.polybench import source_for

        source = source_for(kernel, "vpfloat<mpfr, 16, 64>")
        for tile in (1, 2, 3, 7, 16, 64):
            assert compile_source(source, polly=True,
                                  polly_tile=tile).tiled_nests > 0
            cert = certify(kernel, "run", [6], kind="pass", source=source,
                           options={"polly_tile": tile, "cache": None},
                           only=("pass.polly",), strict=True)
            assert [check.label for check in cert.checks] == \
                ["pass.polly"]

    def test_rajaperf_points_carry_tier_check(self):
        from repro.evaluation.fig1 import run_fig1_rajaperf

        with telemetry_session(metrics=True) as (_tracer, registry):
            run_fig1_rajaperf(kernels=["DAXPY"], n=8, validate=True,
                              compile_cache=False)
            counters = registry.to_dict()["counters"]
        # Six variants x (mpfr, boost), all on the jit: every point
        # gains the engine.legacy check, which is also the kernel check
        # (the jit's scalar kernels against the walker's library).
        assert counters.get("validate.certificates") == 12
        assert counters.get("validate.check.engine.legacy.passed") == 12
        assert not counters.get("validate.failed")


class TestRunKernelValidate:
    FTYPE = "vpfloat<mpfr, 16, 128>"

    @pytest.mark.parametrize("kernel,n", [("gemm", 5), ("jacobi-1d", 8)])
    @pytest.mark.parametrize("engine", ["jit", "legacy"])
    def test_certificate_passes_and_primary_untouched(self, kernel, n,
                                                      engine):
        plain = run_kernel(kernel, self.FTYPE, n, backend="mpfr",
                           engine=engine, compile_cache=None)
        checked = run_kernel(kernel, self.FTYPE, n, backend="mpfr",
                             engine=engine, compile_cache=None,
                             validate=True)
        assert checked.certificate is not None
        assert checked.certificate.passed
        # The primary observation is bit-identical to a plain run.
        assert value_token(checked.value) == value_token(plain.value)
        assert [value_token(v) for v in checked.outputs] == \
            [value_token(v) for v in plain.outputs]
        assert checked.report.cycles == plain.report.cycles
        assert checked.report.instructions == plain.report.instructions
        assert checked.report.mpfr_calls == plain.report.mpfr_calls

    def test_validate_off_attaches_nothing(self):
        outcome = run_kernel("gemm", self.FTYPE, 4, backend="mpfr",
                             compile_cache=None)
        assert outcome.certificate is None


# ----------------------------------------------------------------- #
# Fuzzer
# ----------------------------------------------------------------- #

class TestFuzzer:
    def test_generation_is_deterministic(self):
        import random

        a = generate_program(random.Random(7))
        b = generate_program(random.Random(7))
        assert a == b and a.digest() == b.digest()

    def test_renders_compilable_source(self):
        import random

        from repro.core import compile_source

        program = generate_program(random.Random(1))
        compiled = compile_source(program.render_source(), backend="mpfr")
        compiled.run("f", [], cache=False)

    def test_random_programs_cross_check_clean(self):
        import random

        for seed in (0, 1, 2):
            program = generate_program(random.Random(seed), max_ops=8)
            mismatch = cross_check(program, engines=(seed == 0))
            assert mismatch is None, mismatch.describe()

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_programs(max_ops=6))
    def test_rounding_differential_property(self, program):
        from repro.validation import cross_check_rounding

        mismatch = cross_check_rounding(program)
        assert mismatch is None, mismatch.describe()

    def test_rotation_checks_clean_across_evaluators_and_engines(self):
        from repro.validation import cross_check_engines, \
            cross_check_rounding

        # 9 trips: past the unroller, so -O3 keeps the loop-carried phis.
        program = FuzzProgram(128, (FuzzOp("lit", ("1.5",)),
                                    FuzzOp("lit", ("0.25",)),
                                    FuzzOp("rotate", (9, 0, 1, 0))))
        assert "r2 = v2; v2 = t;" in program.render_source()
        assert cross_check_rounding(program) is None
        mismatch = cross_check_engines(program)
        assert mismatch is None, mismatch.describe()

    def test_report_only_engine_divergence_flagged(self, monkeypatch):
        """An engine whose values agree but whose cycle report does not
        must fail the engine stage (the ``exact`` invariant)."""
        from repro.core import CompiledProgram
        from repro.validation import cross_check_engines

        real_run = CompiledProgram.run

        def run(self, *args, **kwargs):
            result = real_run(self, *args, **kwargs)
            if kwargs.get("engine") == "legacy":
                result.report.cycles += 1
            return result

        monkeypatch.setattr(CompiledProgram, "run", run)
        program = FuzzProgram(96, (FuzzOp("lit", ("1.5",)),
                                   FuzzOp("mul", (0, 0))))
        mismatch = cross_check_engines(program)
        assert mismatch is not None
        assert mismatch.stage == "engine"
        assert mismatch.label == "none.engine.legacy"
        assert mismatch.reference == "none.engine.jit"
        assert "'cycles'" in mismatch.describe()

    def test_corpus_reproducers_replay_clean(self):
        from pathlib import Path

        corpus = Path(__file__).resolve().parent.parent / "results" / \
            "fuzz-corpus"
        paths = sorted(corpus.glob("vpfuzz-*.json"))
        assert paths
        for path in paths:
            mismatch = replay(str(path))
            assert mismatch is None, (path.name, mismatch.describe())

    def test_json_round_trip(self):
        import random

        program = generate_program(random.Random(5))
        again = FuzzProgram.from_json(json.loads(
            json.dumps(program.to_json())))
        assert again == program


# ----------------------------------------------------------------- #
# Minimizer: a seeded miscompile shrinks to a tiny reproducer
# ----------------------------------------------------------------- #

def _broken_kernels():
    """A deliberately miscompiled ``mul``: nearest rounding silently
    degrades to truncation (a classic one-ulp bug)."""
    kernels = dict(REFERENCE_KERNELS)

    def bad_mul(a, b, prec, rm):
        return arith.mul(a, b, prec, RNDZ if rm is RNDN else rm)

    kernels["mul"] = bad_mul
    return kernels


def _miscompiled(program: FuzzProgram) -> bool:
    broken = value_token(eval_reference(program, RNDN,
                                        kernels=_broken_kernels()))
    good = value_token(eval_reference(program, RNDN))
    return broken != good


SEEDED = FuzzProgram(prec=64, ops=(
    FuzzOp("lit", ("1.1",)),
    FuzzOp("lit", ("1.7",)),
    FuzzOp("lit", ("2.0",)),
    FuzzOp("add", (0, 2)),
    FuzzOp("neg", (3,)),
    FuzzOp("mul", (0, 1)),      # 1.1 * 1.7 rounds up under RNDN at 64b
    FuzzOp("abs", (5,)),
    FuzzOp("lit", ("0.0",)),
    FuzzOp("add", (6, 7)),
    FuzzOp("loop", (2, 8, 2, 7)),
))


class TestMinimizer:
    def test_seeded_miscompile_shrinks_small_and_deterministic(self):
        assert _miscompiled(SEEDED)
        first = minimize(SEEDED, _miscompiled)
        second = minimize(SEEDED, _miscompiled)
        assert first == second  # deterministic replay
        assert len(first) <= 5
        assert _miscompiled(first)

    def test_healthy_program_rejected(self):
        healthy = FuzzProgram(prec=64, ops=(FuzzOp("lit", ("1.5",)),))
        with pytest.raises(ValueError):
            minimize(healthy, _miscompiled)

    def test_counters_emitted(self):
        with telemetry_session(metrics=True) as (_tracer, registry):
            minimize(SEEDED, _miscompiled)
            counters = registry.to_dict()["counters"]
        assert counters.get("validate.minimize.runs") == 1
        assert counters.get("validate.minimize.evaluations", 0) > 0


# ----------------------------------------------------------------- #
# Corpus persistence + replay
# ----------------------------------------------------------------- #

class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        program = minimize(SEEDED, _miscompiled)
        mismatch = Mismatch("rounding", "mpfr_api", "arith",
                            "expected-token", "got-token",
                            rounding="RNDN")
        path = save_reproducer(program, mismatch, str(tmp_path))
        loaded, info = load_reproducer(path)
        assert loaded == program
        assert info["label"] == "mpfr_api"
        assert program.digest() in path

    def test_replay_of_healthy_reproducer_passes(self, tmp_path):
        # The arithmetic itself is sound, so replaying any saved
        # program against the real kernels finds no divergence.
        program = FuzzProgram(prec=64, ops=(
            FuzzOp("lit", ("1.25",)), FuzzOp("lit", ("3.0",)),
            FuzzOp("div", (0, 1))))
        mismatch = Mismatch("rounding", "x", "arith", "a", "b")
        path = save_reproducer(program, mismatch, str(tmp_path))
        assert replay(path) is None

    def test_corpus_dir_env_override(self, tmp_path, monkeypatch):
        from repro.validation import corpus_dir

        monkeypatch.setenv("VPFLOAT_FUZZ_CORPUS", str(tmp_path / "c"))
        assert corpus_dir() == str(tmp_path / "c")


# ----------------------------------------------------------------- #
# CLI entry points
# ----------------------------------------------------------------- #

class TestCli:
    def test_vpfloat_cc_validate_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "k.c"
        source.write_text(SOURCE)
        status = main([str(source), "--backend", "mpfr", "--run", "f",
                       "--args", "6", "--validate",
                       "--no-compile-cache"])
        captured = capsys.readouterr()
        assert status == 0
        assert "PASS" in captured.out

    @staticmethod
    def _validate(tmp_path, kernel, backend, n):
        """``vpfloat-cc --validate`` on a PolyBench or RAJAPerf kernel."""
        from repro.cli import main
        from repro.workloads.polybench import KERNELS, source_for
        from repro.workloads.rajaperf import raja_source

        ftype = "vpfloat<mpfr, 16, 64>"
        source = tmp_path / f"{kernel}.c"
        source.write_text(source_for(kernel, ftype) if kernel in KERNELS
                          else raja_source(kernel, ftype))
        return main([str(source), "--backend", backend, "--run", "run",
                     "--args", str(n), "--validate",
                     "--no-compile-cache"])

    @pytest.mark.parametrize("kernel,backend,n", [
        ("fdtd-2d", "boost", 5), ("DAXPY", "mpfr", 16)])
    def test_validate_ignores_where_outputs_land(self, tmp_path, capsys,
                                                 kernel, backend, n):
        # Dropping a pass moves these outputs (boost temporaries,
        # pooled MPFR limb blocks); their values do not change.
        status = self._validate(tmp_path, kernel, backend, n)
        assert status == 0, capsys.readouterr().out

    def test_validate_catches_array_only_miscompile(self, tmp_path,
                                                    capsys, monkeypatch):
        # Polly stops every partial tile one iteration short: gemm's
        # run still returns its output base, but the array is wrong.
        from repro.lang import ast
        from repro.passes.polly import tiling

        real_tile_nest = tiling._tile_nest

        def short_tiles(nest, tile):
            loop = stmt = real_tile_nest(nest, tile)
            while isinstance(loop, ast.For):
                bound = loop.cond.rhs
                if isinstance(bound, ast.Ternary):
                    bound.false_expr = ast.Binary(
                        op="-", lhs=bound.false_expr,
                        rhs=ast.IntLit(value=1))
                loop = loop.body
            return stmt

        monkeypatch.setattr(tiling, "_tile_nest", short_tiles)
        status = self._validate(tmp_path, "gemm", "mpfr", 6)
        out = capsys.readouterr().out
        assert status == 3
        failed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("  ") and " FAIL " in line]
        assert failed == ["pass.polly"]

    def test_fuzz_module_bounded_run(self, tmp_path, capsys):
        from repro.validation.__main__ import main

        status = main(["fuzz", "--budget", "2", "--seed", "0",
                       "--max-ops", "6", "--no-engines",
                       "--corpus-dir", str(tmp_path)])
        assert status == 0

    def test_stats_renders_validation_summary(self, capsys):
        from repro.observability.stats import render_validation_summary

        text = render_validation_summary({"counters": {
            "validate.certificates": 2, "validate.passed": 2,
            "validate.failed": 0,
            "validate.check.engine.legacy.passed": 2,
            "validate.fuzz.programs": 3}})
        assert "2 certificate(s)" in text
        assert "engine.legacy" in text
        assert render_validation_summary({"counters": {}}) == ""
