"""Tests for the jit's precision-specialized scalar kernels.

Four layers, matching the feature's own structure:

* the *inlined rounding blocks* the emitter folds into its kernels must
  match :func:`round_significand` bit-for-bit across all five rounding
  modes, both signs, and the sticky/exact boundaries at precisions
  1..600 (hypothesis, with the tie/exact edges enumerated);
* the *compiled kernels* must be bit-identical to the ``arith.<op>``
  library on finite, special, and mixed-precision operands (the latter
  exercising the fallback hooks), with and without the destination
  clamp, including add/sub operands further apart than ``prec + 3``;
* the *binding and plumbing*: one kernel family for every precision,
  KernelStats accounting and metrics counters;
* the *certificate*: ``engine.legacy`` compares a jit run's kernels
  against the walker's library arithmetic, so a broken kernel fails
  validation.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigfloat.arith import add as lib_add
from repro.bigfloat.number import BigFloat, Kind
from repro.bigfloat.rounding import (
    RNDA,
    RNDD,
    RNDN,
    RNDU,
    RNDZ,
    round_significand,
)
from repro.codegen import kernels
from repro.codegen.kernels import (
    KernelStats,
    _exact_round_lines,
    _window_round_lines,
    clamped_fallback,
    kernel_code,
    scalar_kernel,
    select_scalar_kernel,
)
from repro.codegen.kernels import _LIBRARY as SCALAR_LIBRARY
from repro.core import CompilerDriver
from repro.evaluation.harness import run_kernel
from repro.validation import CertificateError
from repro.validation.certificate import value_token

ALL_MODES = (RNDN, RNDZ, RNDU, RNDD, RNDA)

#: Precisions every kernel strategy samples besides a free draw: the
#: one- and two-limb edges and multi-limb sizes on either side of a
#: limb boundary.
EDGE_PRECISIONS = (1, 2, 7, 24, 53, 63, 64, 65, 100, 127, 128,
                   129, 192, 256, 257, 512)
MAX_DRAWN_PREC = 600


def precisions():
    return st.one_of(st.sampled_from(EDGE_PRECISIONS),
                     st.integers(1, MAX_DRAWN_PREC))


SOURCE = """
vpfloat<mpfr, 16, 53> out;
int run(int n) {
    vpfloat<mpfr, 16, 53> acc = 0.0;
    vpfloat<mpfr, 16, 53> step = 1.25;
    for (int i = 0; i < n; i = i + 1) { acc = acc + step * step; }
    out = acc;
    return n;
}
"""


# ----------------------------------------------------------------- #
# Inlined rounding blocks vs round_significand
# ----------------------------------------------------------------- #

def _compile_rounder(lines, params):
    source = "\n".join([f"def _f({params}):"] + lines
                       + ["    return _q, _e"])
    namespace = {}
    exec(source, namespace)
    return namespace["_f"]


def exact_rounder(prec, rm):
    """The emitter's exact-operand rounding block as a function of
    ``(_s, _m, _e) -> (_q, _e)``."""
    return _compile_rounder(_exact_round_lines(prec, rm, "    "),
                            "_s, _m, _e")


def window_rounder(prec, rm):
    """The emitter's sticky-window rounding block as a function of
    ``(_s, _t, _e, _st) -> (_q, _e)``."""
    return _compile_rounder(_window_round_lines(prec, rm, "    "),
                            "_s, _t, _e, _st")


@st.composite
def rounding_cases(draw, sticky_window=False):
    """(prec, rm, sign, mant, exp[, sticky]) with the discarded-bits
    boundaries (exact, just-below-half, half, just-above, all-ones)
    explicitly enumerated alongside fully random windows."""
    prec = draw(precisions())
    rm = draw(st.sampled_from(ALL_MODES))
    sign = draw(st.integers(0, 1))
    exp = draw(st.integers(-2000, 2000))
    min_shift = 1 if sticky_window else 0
    shift = draw(st.integers(min_shift, 80))
    quotient = draw(st.integers(1 << (prec - 1), (1 << prec) - 1)) \
        if prec > 1 else 1
    if shift == 0:
        low = 0
    else:
        half = 1 << (shift - 1)
        mask = (1 << shift) - 1
        low = draw(st.one_of(
            st.sampled_from(sorted({0, max(half - 1, 0), half,
                                    min(half + 1, mask), mask})),
            st.integers(0, mask)))
    mant = (quotient << shift) | low
    if not sticky_window:
        return prec, rm, sign, mant, exp
    return prec, rm, sign, mant, exp, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(rounding_cases())
def test_exact_round_block_matches_round_significand(case):
    prec, rm, sign, mant, exp, = case
    got = exact_rounder(prec, rm)(sign, mant, exp)
    want = round_significand(sign, mant, exp, prec, rm)[:2]
    assert got == want, (prec, rm, sign, mant, exp)


@settings(max_examples=400, deadline=None)
@given(rounding_cases(sticky_window=True))
def test_window_round_block_matches_round_significand(case):
    prec, rm, sign, mant, exp, sticky = case
    got = window_rounder(prec, rm)(sign, mant, exp, sticky)
    want = round_significand(sign, mant, exp, prec, rm,
                             sticky=sticky)[:2]
    assert got == want, (prec, rm, sign, mant, exp, sticky)


def test_exact_round_block_cancellation_widens():
    # Fewer bits than prec (post-cancellation shape): widen, no round.
    for rm in ALL_MODES:
        assert exact_rounder(8, rm)(0, 0b101, 3) \
            == round_significand(0, 0b101, 3, 8, rm)[:2]


# ----------------------------------------------------------------- #
# Compiled kernels vs the arith library
# ----------------------------------------------------------------- #

def _mant(draw, prec):
    return draw(st.integers(1 << (prec - 1), (1 << prec) - 1)) \
        if prec > 1 else 1


def _finite(draw, prec):
    sign = draw(st.integers(0, 1))
    exp = draw(st.integers(-300, 300))
    return BigFloat(Kind.FINITE, sign, _mant(draw, prec), exp, prec)


@st.composite
def operand(draw, prec):
    kind = draw(st.sampled_from(["finite", "finite", "finite",
                                 "zero", "inf", "nan"]))
    if kind == "finite":
        return _finite(draw, prec)
    if kind == "zero":
        return BigFloat.zero(prec, draw(st.integers(0, 1)))
    if kind == "inf":
        return BigFloat.inf(prec, draw(st.integers(0, 1)))
    return BigFloat.nan(prec)


@st.composite
def _partner(draw, a):
    """A finite operand placed relative to the finite ``a``: at the
    add/sub alignment edges (the ``prec + 3`` cap, the cap plus a whole
    significand) or anywhere up to three significands away, or with a
    near-equal significand at the same exponent (cancellation)."""
    prec = a.prec
    sign = draw(st.integers(0, 1))
    if draw(st.booleans()):
        delta = draw(st.integers(-3, 3))
        mant = min(max(a.mant + delta, 1 << (prec - 1)), (1 << prec) - 1)
        return BigFloat(Kind.FINITE, sign, mant, a.exp, prec)
    cap = prec + 3
    gap = draw(st.one_of(
        st.sampled_from((0, 1, prec - 1, prec, cap - 1, cap, cap + 1,
                         cap + prec - 1, cap + prec, cap + prec + 1)),
        st.integers(0, 3 * prec + 8)))
    exp = a.exp + gap * draw(st.sampled_from((1, -1)))
    return BigFloat(Kind.FINITE, sign, _mant(draw, prec), exp, prec)


@st.composite
def kernel_cases(draw):
    prec = draw(precisions())
    op = draw(st.sampled_from(("add", "sub", "mul", "div", "sqrt")))
    rm = draw(st.sampled_from(ALL_MODES))
    arity = 1 if op == "sqrt" else 2
    args = [draw(operand(prec)) for _ in range(arity)]
    if arity > 1 and args[0].kind is Kind.FINITE and draw(st.booleans()):
        args[-1] = draw(_partner(args[0]))
    return op, prec, rm, tuple(args)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_tiered_kernels_match_library(case):
    op, prec, rm, args = case
    got = scalar_kernel(op, prec, rm)(*args)
    want = SCALAR_LIBRARY[op](*args, prec, rm)
    assert value_token(got) == value_token(want), (op, prec, rm, args)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_tiered_kernels_match_library_with_clamp(case):
    op, prec, rm, args = case
    got = scalar_kernel(op, prec, rm, exp_bits=8)(*args)
    library = SCALAR_LIBRARY[op]
    want = clamped_fallback(lambda *xs: library(*xs, prec, rm),
                            prec, 8)(*args)
    assert value_token(got) == value_token(want), (op, prec, rm, args)


@pytest.mark.parametrize("prec", (1, 2, 24, 53, 64, 65, 128, 129, 256,
                                  257, 512, 600))
def test_addsub_alignment_edges_match_library(prec):
    # Every alignment edge of the capped add/sub path, exhaustively:
    # exponent gaps around the prec + 3 cap and around cap + prec (where
    # the smaller operand is all sticky), either operand ahead, every
    # sign pair and mode, significands at both ends of the range.
    rng = random.Random(prec)
    low, top = 1 << (prec - 1), (1 << prec) - 1
    mants = sorted({low, top, rng.randint(low, top)})
    cap = prec + 3
    gaps = {0, 1, prec - 1, prec, cap - 1, cap, cap + 1,
            cap + prec - 1, cap + prec, cap + prec + 1, 3 * prec + 8}
    for op, rm in itertools.product(("add", "sub"), ALL_MODES):
        kernel = scalar_kernel(op, prec, rm)
        for gap, direction, ma, mb, sa, sb in itertools.product(
                sorted(gaps), (1, -1), mants, mants, (0, 1), (0, 1)):
            a = BigFloat(Kind.FINITE, sa, ma, 0, prec)
            b = BigFloat(Kind.FINITE, sb, mb, direction * gap, prec)
            want = SCALAR_LIBRARY[op](a, b, prec, rm)
            assert value_token(kernel(a, b)) == value_token(want), \
                (op, rm, a, b)


def test_mixed_precision_falls_back_with_note():
    notes_stats = KernelStats()
    kernel = scalar_kernel("add", 24, RNDN, notes=notes_stats.notes())
    a = BigFloat.from_float(1.5, 24)
    b = BigFloat.from_float(2.5, 53)  # operand precision mismatch
    got = kernel(a, b)
    assert value_token(got) == value_token(lib_add(a, b, 24, RNDN))
    assert notes_stats.fallbacks["prec"] == 1
    assert notes_stats.fallbacks["special"] == 0


def test_special_operand_falls_back_with_note():
    notes_stats = KernelStats()
    kernel = scalar_kernel("add", 24, RNDN, notes=notes_stats.notes())
    kernel(BigFloat.nan(24), BigFloat.from_float(1.0, 24))
    assert notes_stats.fallbacks["special"] == 1


def test_bad_precision_and_unknown_op_raise():
    for prec in (0, -1):
        with pytest.raises(ValueError, match="precision"):
            kernel_code("add", prec)
        with pytest.raises(ValueError, match="precision"):
            scalar_kernel("add", prec)
    with pytest.raises(ValueError, match="bogus"):
        kernel_code("bogus", 24)
    # No upper bound: any precision gets the same kernel shape.
    assert "4096" in kernel_code("add", 4096)


# ----------------------------------------------------------------- #
# Binding, plumbing, and telemetry
# ----------------------------------------------------------------- #

def test_select_scalar_kernel_policies():
    # One kernel family for every precision: unobserved binds get the
    # memoized kernel itself, observed ones a counting wrapper.
    stats = KernelStats()
    for prec in (24, 100, 256, 600):
        assert select_scalar_kernel("add", prec, 16) \
            is scalar_kernel("add", prec, RNDN, 16)
        select_scalar_kernel("add", prec, 16, stats)
    assert stats.sites == 4


def test_counting_wrapper_and_merge():
    stats = KernelStats()
    kernel = stats.counting(scalar_kernel("add", 24, RNDN))
    a = BigFloat.from_float(1.0, 24)
    kernel(a, a)
    kernel(a, a)
    assert stats.ops == 2
    other = KernelStats()
    other.ops = 3
    other.sites = 1
    other.fallbacks["prec"] = 2
    stats.merge(other)
    assert stats.as_dict() == {"ops": 5, "sites": 1,
                               "fallbacks": {"prec": 2, "special": 0}}


def test_run_rejects_unknown_policy():
    # A run takes no kernel choice: one family serves every precision.
    program = CompilerDriver(backend="mpfr").compile(SOURCE, name="k")
    with pytest.raises(TypeError, match="kernels"):
        program.run("run", [4], kernels="generic")


def test_per_run_override_is_bit_identical():
    # The engine is the per-run override: the jit binds the scalar
    # kernels (test_metrics_carry_tier_counters), the legacy walker the
    # library arithmetic.
    program = CompilerDriver(backend="mpfr").compile(
        SOURCE, name="k")
    runs = {engine: program.run("run", [40], engine=engine)
            for engine in ("jit", "legacy")}
    tokens = {engine: value_token(r.value) for engine, r in runs.items()}
    assert len(set(tokens.values())) == 1
    cycles = {r.report.cycles for r in runs.values()}
    assert len(cycles) == 1  # the kernels are not a cost-model change


def test_metrics_carry_tier_counters():
    from repro.observability import telemetry_session
    with telemetry_session(metrics=True) as (_, registry):
        program = CompilerDriver(backend="mpfr").compile(
            SOURCE, name="k")
        program.run("run", [10])
    counters = registry.counters
    assert counters.get("kernel.ops", 0) > 0
    assert counters.get("kernel.sites", 0) > 0
    assert not any(name.startswith("kernel.tier") for name in counters)


def test_unobserved_runs_skip_tier_stats():
    program = CompilerDriver(backend="mpfr").compile(
        SOURCE, name="k")
    interp = program.interpreter()
    assert interp.kernel_stats is None  # raw kernels, no counting


def test_engine_certificate_catches_broken_tier_kernel(monkeypatch):
    # A mul that doubles its result, at one- and four-limb precisions:
    # the jit binds it, the legacy walker's library arithmetic does not.
    real_kernel = kernels.scalar_kernel

    def broken_kernel(op, prec, *args, **kwargs):
        kernel = real_kernel(op, prec, *args, **kwargs)
        if op != "mul" or prec not in (53, 256):
            return kernel

        def doubled(*operands):
            value = kernel(*operands)
            return lib_add(value, value, prec, RNDN)

        return doubled

    monkeypatch.setattr(kernels, "scalar_kernel", broken_kernel)
    for prec in (53, 256):
        with pytest.raises(CertificateError, match="engine.legacy"):
            run_kernel("gemm", f"vpfloat<mpfr, 16, {prec}>", 4,
                       backend="mpfr", compile_cache=None, validate=True)
