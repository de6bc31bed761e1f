"""Program fuzzer: random IR programs cross-checked across the stack.

Generalizes the ad-hoc ``random_program`` strategy of
``tests/test_differential.py`` into a first-class generator over a small
SSA-shaped IR (:class:`FuzzProgram`): each :class:`FuzzOp` defines one
value from literals and earlier values (add/sub/mul/div, neg/abs/sqrt,
a bounded ``acc = acc * m + a`` loop, and a loop-carried rotation
``t = a * m + b; b = a; a = t``).  One program drives two
independent differentials:

* :func:`cross_check_rounding` -- evaluate the program directly through
  :mod:`repro.bigfloat.arith` and again through the
  :class:`~repro.bigfloat.mpfr_api.MpfrLibrary` object layer (pool on
  and off), at the program's precision under **all five rounding
  modes**; results must be bit-identical BigFloats.
* :func:`cross_check_engines` -- render the program to dialect source,
  compile it through the real frontend/optimizer, and certify it
  (:func:`~repro.validation.harness.certify`) per backend
  (none/mpfr/boost) across -O0, each -O3 pass, Polly and the execution
  engines -- values and each transition's report invariant -- then
  compare the backends' returned doubles bit for bit.  The mpfr row's
  ``engine.legacy`` check is also the scalar-kernel check: the jit binds
  the precision-specialized kernels, the legacy walker the library
  arithmetic, at every precision the generator draws (24--512 bits).

:func:`cross_check` composes them; a divergence comes back as a
:class:`Mismatch` which the delta-debugging minimizer
(:mod:`repro.validation.minimize`) can shrink to a minimal reproducer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bigfloat import BigFloat, arith, convert
from ..bigfloat.mpfr_api import MpfrLibrary
from ..bigfloat.rounding import RNDA, RNDD, RNDN, RNDU, RNDZ, RoundingMode
from ..observability import current_metrics
from .certificate import value_token
from .harness import certify

FUZZ_FORMAT_VERSION = 1

#: All five MPFR rounding modes, in a stable order.
ALL_ROUNDING_MODES = (RNDN, RNDZ, RNDU, RNDD, RNDA)

#: Precision range the fuzzer sweeps (bits of significand).
MIN_PRECISION = 24
MAX_PRECISION = 512

#: Operations over earlier values.  ``lit`` introduces a literal;
#: ``loop`` runs ``acc = acc * m + a`` for a bounded trip count;
#: ``rotate`` runs ``t = a * m + b; b = a; a = t`` (two loop-carried
#: values, one copied into the other: SSA destruction's lost-copy shape).
BINARY_OPS = ("add", "sub", "mul", "div")
UNARY_OPS = ("neg", "abs", "sqrt")
LOOP_OPS = ("loop", "rotate")
ALL_OPS = ("lit",) + BINARY_OPS + UNARY_OPS + LOOP_OPS

#: Trip-count bound per loop op.  Rotations may run past the -O3
#: unroller's full-unroll limit (8), so their loop-carried phis can
#: survive to the backends.
_MAX_TRIPS = {"loop": 5, "rotate": 12}

_SOURCE_BINOP = {"add": "+", "sub": "-", "mul": "*", "div": "/"}

#: Dialect spellings for literals the lexer has no token for (the
#: divisions fold/evaluate to the same special under every engine).
_SOURCE_SPECIALS = {
    "inf": "(1.0 / 0.0)", "-inf": "(-1.0 / 0.0)",
    "nan": "(0.0 / 0.0)",
}


@dataclass(frozen=True)
class FuzzOp:
    """One instruction: defines value ``v<i>`` from earlier values.

    ``args`` holds value indexes for arithmetic ops, the literal text
    for ``lit``, ``(trips, acc, m, a)`` for ``loop`` and
    ``(trips, a, b, m)`` for ``rotate``.
    """

    op: str
    args: Tuple

    def references(self) -> Tuple[int, ...]:
        """Indexes of earlier values this op reads."""
        if self.op == "lit":
            return ()
        if self.op in LOOP_OPS:
            return tuple(self.args[1:])
        return tuple(self.args)

    def to_json(self) -> list:
        return [self.op, list(self.args)]

    @classmethod
    def from_json(cls, data) -> "FuzzOp":
        op, args = data
        return cls(op, tuple(args))


@dataclass(frozen=True)
class FuzzProgram:
    """An SSA-shaped straight-line/loop program at one precision.

    ``ops[i]`` defines value ``v<i>``; the program's result is the last
    value.  Programs are immutable and hashable so the minimizer can
    memoize predicate evaluations.
    """

    prec: int
    ops: Tuple[FuzzOp, ...]

    def __post_init__(self):
        if not self.ops:
            raise ValueError("a FuzzProgram needs at least one op")
        for i, op in enumerate(self.ops):
            if op.op not in ALL_OPS:
                raise ValueError(f"op #{i}: unknown opcode {op.op!r}")
            for ref in op.references():
                if not 0 <= ref < i:
                    raise ValueError(
                        f"op #{i} ({op.op}) references v{ref}, which is "
                        f"not an earlier value")
        if self.ops[0].op != "lit":
            raise ValueError("the first op must be a literal")

    def __len__(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------ #

    def render_source(self) -> str:
        """The program as vpfloat dialect source (function ``f``)."""
        ftype = f"vpfloat<mpfr, 16, {self.prec}>"
        lines: List[str] = []
        for i, op in enumerate(self.ops):
            if op.op == "lit":
                rhs = _SOURCE_SPECIALS.get(op.args[0], op.args[0])
            elif op.op in BINARY_OPS:
                a, b = op.args
                rhs = f"v{a} {_SOURCE_BINOP[op.op]} v{b}"
            elif op.op == "neg":
                rhs = f"-v{op.args[0]}"
            elif op.op == "abs":
                rhs = f"vp_fabs(v{op.args[0]})"
            elif op.op == "sqrt":
                rhs = f"vp_sqrt(v{op.args[0]})"
            elif op.op == "loop":
                trips, acc, m, a = op.args
                lines.append(f"  {ftype} v{i} = v{acc};")
                lines.append(f"  for (int i = 0; i < {trips}; i++) "
                             f"v{i} = v{i} * v{m} + v{a};")
                continue
            elif op.op == "rotate":
                trips, a, b, m = op.args
                lines.append(f"  {ftype} v{i} = v{a};")
                lines.append(f"  {ftype} r{i} = v{b};")
                lines.append(f"  for (int i = 0; i < {trips}; i++) {{ "
                             f"{ftype} t = v{i} * v{m} + r{i}; "
                             f"r{i} = v{i}; v{i} = t; }}")
                continue
            else:  # pragma: no cover - __post_init__ rejects these
                raise AssertionError(op.op)
            lines.append(f"  {ftype} v{i} = {rhs};")
        body = "\n".join(lines)
        result = len(self.ops) - 1
        return (f"double f() {{\n{body}\n"
                f"  return (double)(v{result});\n}}\n")

    def digest(self) -> str:
        import hashlib

        blob = repr((self.prec, tuple(op.to_json() for op in self.ops)))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {"version": FUZZ_FORMAT_VERSION, "precision": self.prec,
                "ops": [op.to_json() for op in self.ops]}

    @classmethod
    def from_json(cls, data: dict) -> "FuzzProgram":
        if not isinstance(data, dict) or "ops" not in data:
            raise ValueError("not a fuzz-program document")
        return cls(int(data["precision"]),
                   tuple(FuzzOp.from_json(op) for op in data["ops"]))


# ----------------------------------------------------------------- #
# Direct evaluators (no compiler involved)
# ----------------------------------------------------------------- #

#: Kernel table the reference evaluator consults; a test can pass a
#: mutated copy to simulate a miscompile for minimizer self-checks.
REFERENCE_KERNELS: Dict[str, Callable] = {
    "add": arith.add, "sub": arith.sub, "mul": arith.mul,
    "div": arith.div, "neg": arith.neg, "abs": arith.abs_,
    "sqrt": arith.sqrt,
}


def eval_reference(program: FuzzProgram,
                   rm: RoundingMode = RNDN,
                   kernels: Optional[Dict[str, Callable]] = None
                   ) -> BigFloat:
    """Evaluate directly over BigFloats via :mod:`repro.bigfloat.arith`."""
    table = kernels or REFERENCE_KERNELS
    prec = program.prec
    values: List[BigFloat] = []
    for op in program.ops:
        if op.op == "lit":
            values.append(convert.from_str(op.args[0], prec, rm))
        elif op.op in BINARY_OPS:
            a, b = op.args
            values.append(table[op.op](values[a], values[b], prec, rm))
        elif op.op in UNARY_OPS:
            values.append(table[op.op](values[op.args[0]], prec, rm))
        elif op.op == "loop":
            trips, acc, m, a = op.args
            current = values[acc]
            for _ in range(trips):
                current = table["add"](
                    table["mul"](current, values[m], prec, rm),
                    values[a], prec, rm)
            values.append(current)
        else:  # rotate
            trips, a, b, m = op.args
            current, previous = values[a], values[b]
            for _ in range(trips):
                current, previous = table["add"](
                    table["mul"](current, values[m], prec, rm),
                    previous, prec, rm), current
            values.append(current)
    return values[-1]


def eval_mpfr_api(program: FuzzProgram, rm: RoundingMode = RNDN,
                  pool: bool = False) -> BigFloat:
    """Evaluate through the C-style MPFR object layer (handles,
    init/clear lifetime, optional free-list pool) -- an independent
    path over the same arithmetic."""
    lib = MpfrLibrary(pool=pool)
    prec = max(program.prec, 2)
    handles = []

    def fresh():
        handles.append(lib.init2(prec))
        return handles[-1]

    for op in program.ops:
        dst = fresh()
        if op.op == "lit":
            lib.set_str(dst, op.args[0], rm)
        elif op.op == "add":
            lib.add(dst, handles[op.args[0]], handles[op.args[1]], rm)
        elif op.op == "sub":
            lib.sub(dst, handles[op.args[0]], handles[op.args[1]], rm)
        elif op.op == "mul":
            lib.mul(dst, handles[op.args[0]], handles[op.args[1]], rm)
        elif op.op == "div":
            lib.div(dst, handles[op.args[0]], handles[op.args[1]], rm)
        elif op.op == "neg":
            lib.neg(dst, handles[op.args[0]], rm)
        elif op.op == "abs":
            lib.abs(dst, handles[op.args[0]], rm)
        elif op.op == "sqrt":
            lib.sqrt(dst, handles[op.args[0]], rm)
        elif op.op == "loop":
            trips, acc, m, a = op.args
            lib.set(dst, handles[acc], rm)
            scratch = lib.init2(prec)
            for _ in range(trips):
                lib.mul(scratch, dst, handles[m], rm)
                lib.add(dst, scratch, handles[a], rm)
            lib.clear(scratch)
        else:  # rotate
            trips, a, b, m = op.args
            lib.set(dst, handles[a], rm)
            previous, scratch = lib.init2(prec), lib.init2(prec)
            lib.set(previous, handles[b], rm)
            for _ in range(trips):
                lib.mul(scratch, dst, handles[m], rm)
                lib.add(scratch, scratch, previous, rm)
                lib.set(previous, dst, rm)
                lib.set(dst, scratch, rm)
            lib.clear(previous)
            lib.clear(scratch)
    result = handles[-1].value
    for handle in handles:
        lib.clear(handle)
    return result


# ----------------------------------------------------------------- #
# Cross-checks
# ----------------------------------------------------------------- #

@dataclass
class Mismatch:
    """The first divergence a cross-check found."""

    stage: str          # "rounding" | "engine"
    label: str          # candidate configuration
    reference: str      # reference configuration
    expected: str       # token repr of the reference value
    got: str            # token repr of the candidate value
    rounding: Optional[str] = None

    def to_dict(self) -> dict:
        return {"stage": self.stage, "label": self.label,
                "reference": self.reference, "expected": self.expected,
                "got": self.got, "rounding": self.rounding}

    def describe(self) -> str:
        where = f" [{self.rounding}]" if self.rounding else ""
        # A failed certificate check carries its divergence in ``got``.
        what = f"{self.got} != {self.expected}" if self.expected \
            else self.got
        return (f"{self.stage}{where}: {self.label} diverged from "
                f"{self.reference}: {what}")


def cross_check_rounding(program: FuzzProgram,
                         modes: Sequence[RoundingMode]
                         = ALL_ROUNDING_MODES) -> Optional[Mismatch]:
    """Direct-evaluator differential at every rounding mode."""
    for rm in modes:
        reference = value_token(eval_reference(program, rm))
        for label, pool in (("mpfr_api", False), ("mpfr_api.pool", True)):
            candidate = value_token(eval_mpfr_api(program, rm, pool))
            if candidate != reference:
                return Mismatch("rounding", label, "arith",
                                repr(reference), repr(candidate),
                                rounding=rm.value)
    return None


#: The compiled differential's rows: per backend, the transitions its
#: default-engine -O3 reference is certified across (registry label
#: prefixes).  The backends' reference values are then compared.
ENGINE_CONFIGS: Dict[str, Tuple[str, ...]] = {
    "none": ("opt.O0", "engine.legacy", "pass"),
    "mpfr": ("engine.legacy", "pass"),
    "boost": ("pass",),
}


def cross_check_engines(program: FuzzProgram) -> Optional[Mismatch]:
    """Certify every :data:`ENGINE_CONFIGS` row (values and report
    invariant), then diff the backends' reference observations, read
    from their certificates."""
    reference = None
    for backend, only in ENGINE_CONFIGS.items():
        # Not strict: the first failed check (value or report
        # invariant) comes back as a Mismatch.
        certificate = certify(
            f"vpfuzz-{program.digest()}", "f", kind="fuzz",
            source=program.render_source(),
            options={"backend": backend}, only=only,
            run_options={"cache": False}, strict=False)
        label = f"{backend}.{certificate.reference}"
        for check in certificate.failures:
            return Mismatch("engine", f"{backend}.{check.label}", label,
                            "", check.detail)
        observation = certificate.observation
        if reference is None:
            reference = (label, observation)
        elif observation != reference[1]:
            return Mismatch("engine", label, reference[0],
                            repr(reference[1]), repr(observation))
    return None


def cross_check(program: FuzzProgram,
                engines: bool = True) -> Optional[Mismatch]:
    """Full differential: rounding-mode sweep, then the compiled
    engine/optimization sweep.  None when everything agrees."""
    registry = current_metrics()
    if registry is not None:
        registry.inc("validate.fuzz.programs")
    mismatch = cross_check_rounding(program)
    if mismatch is None and engines:
        mismatch = cross_check_engines(program)
    if registry is not None:
        registry.inc("validate.fuzz.failures" if mismatch
                     else "validate.fuzz.passed")
    return mismatch


# ----------------------------------------------------------------- #
# Generation
# ----------------------------------------------------------------- #

#: Literal shapes the generator draws from: plain decimals, signed
#: zeros, sub-one magnitudes, huge/tiny exponents (subnormal-range for
#: small formats), and special values.
_SPECIAL_LITERALS = ("0.0", "-0.0", "inf", "-inf", "nan")


def _random_literal(rng: random.Random) -> str:
    shape = rng.random()
    if shape < 0.05:
        return rng.choice(_SPECIAL_LITERALS)
    whole = rng.randint(-60, 60)
    frac = rng.choice(("0", "25", "5", "125", "333", "9999"))
    if shape < 0.25:
        exp = rng.randint(-40, 40)
        return f"{whole}.{frac}e{exp:+d}"
    return f"{whole}.{frac}"


def generate_program(rng: random.Random,
                     prec: Optional[int] = None,
                     max_ops: int = 14) -> FuzzProgram:
    """One random program (the CLI fuzz driver's and, through
    :func:`fuzz_programs`, the property tests' generator)."""
    if prec is None:
        prec = rng.randint(MIN_PRECISION, MAX_PRECISION)
    n_lits = rng.randint(1, 3)
    ops: List[FuzzOp] = [FuzzOp("lit", (_random_literal(rng),))
                         for _ in range(n_lits)]
    n_body = rng.randint(1, max(1, max_ops - n_lits))
    for _ in range(n_body):
        kind = rng.random()
        idx = len(ops)
        if kind < 0.15:
            ops.append(FuzzOp("lit", (_random_literal(rng),)))
        elif kind < 0.70:
            op = rng.choice(BINARY_OPS)
            ops.append(FuzzOp(op, (rng.randrange(idx),
                                   rng.randrange(idx))))
        elif kind < 0.90:
            op = rng.choice(UNARY_OPS)
            ops.append(FuzzOp(op, (rng.randrange(idx),)))
        else:
            op = rng.choice(LOOP_OPS)
            ops.append(FuzzOp(op, (rng.randint(1, _MAX_TRIPS[op]),
                                   rng.randrange(idx),
                                   rng.randrange(idx),
                                   rng.randrange(idx))))
    return FuzzProgram(prec, tuple(ops))


def fuzz_programs(max_ops: int = 10,
                  precisions: Optional[Sequence[int]] = None):
    """A hypothesis strategy over :class:`FuzzProgram`:
    :func:`generate_program` driven by a hypothesis-controlled random
    source, so failures shrink (test-suite entry point; imports
    hypothesis lazily so the fuzz CLI does not depend on it)."""
    from hypothesis import strategies as st

    precision_strategy = (st.sampled_from(tuple(precisions))
                          if precisions else
                          st.integers(MIN_PRECISION, MAX_PRECISION))
    return st.builds(generate_program, st.randoms(), precision_strategy,
                     st.just(max_ops))
