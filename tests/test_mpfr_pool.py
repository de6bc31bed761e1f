"""Runtime MPFR object pool: reuse semantics, statistics, bit-exactness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.bigfloat.mpfr_api import MpfrLibrary
from repro.evaluation.harness import read_lane_outputs, run_kernel
from repro.runtime import Interpreter
from repro.workloads.polybench import source_for


class TestPoolMechanics:
    def test_acquire_miss_then_hit(self):
        lib = MpfrLibrary(pool=True)
        a, reused = lib.acquire(128)
        assert not reused
        assert lib.release(a) is True  # parked, not freed
        b, reused = lib.acquire(128)
        assert reused
        assert b is a  # the very handle comes back
        assert b.alive and b.value.is_nan()  # re-init leaves NaN
        assert lib.stats.pool_hits == 1
        assert lib.stats.pool_misses == 1
        assert lib.stats.pool_releases == 1

    def test_pool_buckets_by_precision(self):
        lib = MpfrLibrary(pool=True)
        a, _ = lib.acquire(128)
        lib.release(a)
        b, reused = lib.acquire(256)  # different precision: no reuse
        assert not reused
        assert lib.pooled_objects() == 1
        c, reused = lib.acquire(128)
        assert reused and c is a
        assert lib.pooled_objects() == 0
        assert b.prec == 256 and c.prec == 128

    def test_pool_limit_caps_parked_handles(self):
        lib = MpfrLibrary(pool=True, pool_limit=2)
        vars_ = [lib.acquire(64)[0] for _ in range(4)]
        parked = [lib.release(v) for v in vars_]
        assert parked == [True, True, False, False]
        assert lib.pooled_objects() == 2
        assert lib.stats.clears == 2  # only the overflow actually freed

    def test_pool_disabled_by_default(self):
        lib = MpfrLibrary()
        a = lib.init2(128)
        lib.clear(a)
        b = lib.init2(128)
        assert b is not a
        assert lib.stats.pool_hits == 0
        assert lib.pooled_objects() == 0

    def test_hit_rate(self):
        lib = MpfrLibrary(pool=True)
        assert lib.stats.pool_hit_rate() == 0.0
        a, _ = lib.acquire(64)
        lib.release(a)
        lib.acquire(64)
        assert lib.stats.pool_hit_rate() == 0.5

    def test_exp_bits_reset_on_reuse(self):
        lib = MpfrLibrary(pool=True)
        a, _ = lib.acquire(64, exp_bits=8)
        lib.release(a)
        b, reused = lib.acquire(64, exp_bits=12)
        assert reused and b.exp_bits == 12


# --------------------------------------------------------------------- #
# Pooled arithmetic is bit-identical to unpooled
# --------------------------------------------------------------------- #

# Small grammar of interleaved init/compute/clear programs: each step
# either allocates a fresh object from a literal, combines two live
# objects, or clears one (making its handle eligible for reuse).
_ops = st.sampled_from(["add", "sub", "mul", "div"])
_steps = st.lists(
    st.tuples(st.sampled_from(["new", "op", "drop"]),
              st.integers(0, 7), st.integers(0, 7), _ops,
              st.floats(min_value=-1e6, max_value=1e6,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=40)


def _run_program(lib, steps, prec):
    """Interpret the step list against one library; return result bits."""
    live = []
    trace = []
    for kind, i, j, op, literal in steps:
        if kind == "new" or not live:
            var = lib.init2(prec)
            lib.set_d(var, literal)
            live.append(var)
        elif kind == "op" and len(live) >= 2:
            dst = live[i % len(live)]
            a = live[j % len(live)]
            b = live[(i + j) % len(live)]
            getattr(lib, op)(dst, a, b)
        else:  # drop
            victim = live.pop(i % len(live))
            trace.append(None)
            lib.clear(victim)
        trace.extend((v.value.kind, v.value.sign, v.value.mant,
                      v.value.exp) for v in live)
    for v in live:
        lib.clear(v)
    return trace


class TestPooledBitExactness:
    @settings(max_examples=60, deadline=None)
    @given(_steps, st.sampled_from([24, 53, 128]))
    def test_pooled_matches_unpooled(self, steps, prec):
        pooled = _run_program(MpfrLibrary(pool=True), steps, prec)
        plain = _run_program(MpfrLibrary(pool=False), steps, prec)
        assert pooled == plain


# --------------------------------------------------------------------- #
# End-to-end: the pool eliminates allocations across repeated runs
# --------------------------------------------------------------------- #

class TestPoolOnKernels:
    def test_gemm_fresh_inits_strictly_drop_across_runs(self):
        program = compile_source(
            source_for("gemm", "vpfloat<mpfr, 16, 128>"), backend="mpfr")
        unpooled = Interpreter(program.module, mpfr_pool=False)
        unpooled.run("run", [6])
        unpooled_inits = unpooled.mpfr.stats.inits
        assert unpooled_inits > 0

        interp = program.interpreter()  # mpfr: pool on
        interp.run("run", [6])
        first_run_inits = interp.mpfr.stats.inits
        interp.run("run", [6])
        second_run_inits = interp.mpfr.stats.inits - first_run_inits
        # Run 1 allocates like the unpooled baseline; run 2 recycles.
        assert first_run_inits == unpooled_inits
        assert second_run_inits < first_run_inits
        assert interp.mpfr.stats.pool_hits > 0

    def test_pooled_gemm_outputs_bit_identical(self):
        ftype = "vpfloat<mpfr, 16, 128>"
        pooled = run_kernel("gemm", ftype, 5, backend="mpfr")
        assert pooled.mpfr_stats.pool_releases > 0  # mpfr: pool on
        program = compile_source(source_for("gemm", ftype), backend="mpfr")
        unpooled = Interpreter(program.module, mpfr_pool=False)
        plain = unpooled.run("run", [5])
        plain_outputs = read_lane_outputs(
            unpooled, int(plain.value), len(pooled.outputs), ftype, "mpfr")

        def bits(outputs):
            return [(v.kind, v.sign, v.mant, v.exp) for v in outputs]

        assert bits(pooled.outputs) == bits(plain_outputs)
        assert pooled.report.instructions == plain.report.instructions

    def test_boost_backend_stays_unpooled_by_default(self):
        outcome = run_kernel("gemm", "vpfloat<mpfr, 16, 128>", 4,
                             backend="boost", read_outputs=False)
        assert outcome.mpfr_stats.pool_hits == 0
        assert outcome.mpfr_stats.pool_releases == 0
