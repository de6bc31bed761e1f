"""Tests for the precision-specialized kernel tier.

Four layers, matching the feature's own structure:

* the *inlined rounding blocks* the smallfloat emitter folds into its
  kernels must match :func:`round_significand` bit-for-bit across all
  five rounding modes, both signs, and the sticky/exact boundaries at
  precisions 1..128 (hypothesis, with the tie/exact edges enumerated);
* the *compiled tiered kernels* must be bit-identical to the
  ``arith.<op>`` library on finite, special, and mixed-precision
  operands (the latter exercising the fallback hooks);
* the *selection and plumbing*: precision-driven tier selection,
  TierStats accounting and metrics counters;
* the *certificate*: ``engine.legacy`` compares a jit run's tiered
  kernels against the walker's library arithmetic, so a broken tier
  kernel fails validation.
"""

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
from repro.codegen import smallfloat
from repro.codegen.smallfloat import (
    SMALLFLOAT_MAX_PREC,
    TierStats,
    _exact_round_lines,
    _window_round_lines,
    kernel_tier,
    select_scalar_kernel,
    smallfloat_kernel,
    smallfloat_source,
    tier_label,
)
from repro.codegen.smallfloat import _LIBRARY as SCALAR_LIBRARY
from repro.core import CompilerDriver
from repro.evaluation.harness import run_kernel
from repro.validation import CertificateError
from repro.validation.certificate import value_token

ALL_MODES = (RNDN, RNDZ, RNDU, RNDD, RNDA)

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
    prec = draw(st.integers(1, SMALLFLOAT_MAX_PREC))
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
# Compiled tiered kernels vs the arith library
# ----------------------------------------------------------------- #

def _finite(draw, prec):
    sign = draw(st.integers(0, 1))
    mant = draw(st.integers(1 << (prec - 1), (1 << prec) - 1)) \
        if prec > 1 else 1
    exp = draw(st.integers(-300, 300))
    return BigFloat(Kind.FINITE, sign, mant, exp, prec)


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
def kernel_cases(draw):
    prec = draw(st.sampled_from((1, 2, 7, 24, 53, 63, 64,
                                 65, 100, 127, 128)))
    op = draw(st.sampled_from(("add", "sub", "mul", "div",
                               "fma", "fms", "sqrt")))
    rm = draw(st.sampled_from(ALL_MODES))
    arity = 1 if op == "sqrt" else (3 if op in ("fma", "fms") else 2)
    args = tuple(draw(operand(prec)) for _ in range(arity))
    return op, prec, rm, args


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_tiered_kernels_match_library(case):
    op, prec, rm, args = case
    got = smallfloat_kernel(op, prec, rm)(*args)
    want = SCALAR_LIBRARY[op](*args, prec, rm)
    assert value_token(got) == value_token(want), (op, prec, rm, args)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_tiered_kernels_match_library_with_clamp(case):
    op, prec, rm, args = case
    from repro.codegen.kernels import specialized_kernel
    got = smallfloat_kernel(op, prec, rm, exp_bits=8)(*args)
    want = specialized_kernel(op, prec, rm, exp_bits=8)(*args)
    assert value_token(got) == value_token(want), (op, prec, rm, args)


def test_mixed_precision_falls_back_with_note():
    notes_stats = TierStats()
    kernel = smallfloat_kernel("add", 24, RNDN,
                               notes=notes_stats.notes())
    a = BigFloat.from_float(1.5, 24)
    b = BigFloat.from_float(2.5, 53)  # operand precision mismatch
    got = kernel(a, b)
    assert value_token(got) == value_token(lib_add(a, b, 24, RNDN))
    assert notes_stats.fallbacks["prec"] == 1
    assert notes_stats.fallbacks["special"] == 0


def test_special_operand_falls_back_with_note():
    notes_stats = TierStats()
    kernel = smallfloat_kernel("add", 24, RNDN,
                               notes=notes_stats.notes())
    kernel(BigFloat.nan(24), BigFloat.from_float(1.0, 24))
    assert notes_stats.fallbacks["special"] == 1


def test_tier_boundaries():
    assert kernel_tier(1) == 1
    assert kernel_tier(64) == 1
    assert kernel_tier(65) == 2
    assert kernel_tier(128) == 2
    assert kernel_tier(129) == 0
    assert tier_label(24) == "tier1"
    assert tier_label(100) == "tier2"
    assert tier_label(256) == "generic"
    with pytest.raises(ValueError):
        smallfloat_source("add", 129)
    with pytest.raises(ValueError):
        smallfloat_source("bogus", 24)


# ----------------------------------------------------------------- #
# Selection, plumbing, and telemetry
# ----------------------------------------------------------------- #

def test_select_scalar_kernel_policies():
    # The precision alone picks the tier.
    stats = TierStats()
    select_scalar_kernel("add", 24, None, stats)
    assert stats.sites["tier1"] == 1
    select_scalar_kernel("add", 100, None, stats)
    assert stats.sites["tier2"] == 1
    select_scalar_kernel("add", 256, None, stats)
    assert stats.sites["generic"] == 1


def test_counting_wrapper_and_merge():
    stats = TierStats()
    kernel = stats.counting(
        "tier1", smallfloat_kernel("add", 24, RNDN))
    a = BigFloat.from_float(1.0, 24)
    kernel(a, a)
    kernel(a, a)
    assert stats.ops["tier1"] == 2
    other = TierStats()
    other.ops["generic"] = 3
    stats.merge(other)
    assert stats.total_ops() == 5
    snap = stats.as_dict()
    assert snap["ops"]["tier1"] == 2 and snap["ops"]["generic"] == 3


def test_run_rejects_unknown_policy():
    # The tier follows the precision: a run takes no tier policy at all.
    program = CompilerDriver(backend="mpfr").compile(SOURCE, name="k")
    with pytest.raises(TypeError, match="kernel_tier"):
        program.run("run", [4], kernel_tier="fast")


def test_per_run_override_is_bit_identical():
    # The engine is the per-run override: the jit binds the tier-1
    # kernels (test_metrics_carry_tier_counters), the legacy walker the
    # library arithmetic.
    program = CompilerDriver(backend="mpfr").compile(
        SOURCE, name="k")
    runs = {engine: program.run("run", [40], engine=engine)
            for engine in ("jit", "legacy")}
    tokens = {engine: value_token(r.value) for engine, r in runs.items()}
    assert len(set(tokens.values())) == 1
    cycles = {r.report.cycles for r in runs.values()}
    assert len(cycles) == 1  # the tier is not a cost-model change


def test_metrics_carry_tier_counters():
    from repro.observability import telemetry_session
    with telemetry_session(metrics=True) as (_, registry):
        program = CompilerDriver(backend="mpfr").compile(
            SOURCE, name="k")
        program.run("run", [10])
    tiered = {k: v for k, v in registry.counters.items()
              if k.startswith("kernel.tier.")}
    assert tiered.get("kernel.tier.tier1.ops", 0) > 0
    assert tiered.get("kernel.tier.tier1.sites", 0) > 0


def test_unobserved_runs_skip_tier_stats():
    program = CompilerDriver(backend="mpfr").compile(
        SOURCE, name="k")
    interp = program.interpreter()
    assert interp.tier_stats is None  # raw kernels, no counting


def test_service_whitelists_kernel_tier():
    # The service whitelist no longer carries a tier option, so a run
    # request naming one is refused before it reaches a worker.
    from repro.service.protocol import RUN_OPTION_KEYS, ProtocolError, \
        request, validate_request
    assert "kernel_tier" not in RUN_OPTION_KEYS
    message = request("run", 1, kernel="gemm",
                      options={"kernel_tier": "generic"})
    with pytest.raises(ProtocolError, match="kernel_tier"):
        validate_request(message)


def test_engine_certificate_catches_broken_tier_kernel(monkeypatch):
    # A tier-1 mul that doubles its result: the jit binds it, the
    # legacy walker's library arithmetic does not.
    real_kernel = smallfloat.smallfloat_kernel

    def broken_kernel(op, prec, *args, **kwargs):
        kernel = real_kernel(op, prec, *args, **kwargs)
        if op != "mul" or prec != 53:
            return kernel

        def doubled(*operands):
            value = kernel(*operands)
            return lib_add(value, value, prec, RNDN)

        return doubled

    monkeypatch.setattr(smallfloat, "smallfloat_kernel", broken_kernel)
    with pytest.raises(CertificateError, match="engine.legacy"):
        run_kernel("gemm", "vpfloat<mpfr, 16, 53>", 4, backend="mpfr",
                   compile_cache=None, validate=True)
