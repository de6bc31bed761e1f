"""Randomized cross-check of the jit's precision-specialized scalar
kernels (:mod:`repro.codegen.kernels`) against :mod:`repro.bigfloat.arith`.

The jit engine binds ``scalar_kernel(op, prec, rm)`` at every vpfloat
and inlined MPFR call site, whatever the precision; every kernel must
produce results bit-identical to the library entry it replaces --
across precisions, rounding modes, and special values -- or jit runs
would silently diverge from the other engines.
"""

import random

import pytest

from repro.bigfloat import BigFloat, RNDA, RNDD, RNDN, RNDU, RNDZ, arith
from repro.codegen.kernels import KERNEL_OPS, kernel_code, scalar_kernel

PRECISIONS = (24, 53, 64, 113, 160, 256, 512)
ROUNDING_MODES = (RNDN, RNDZ, RNDU, RNDD, RNDA)
SAMPLES_PER_CONFIG = 12

LIBRARY = {
    "add": arith.add, "sub": arith.sub, "mul": arith.mul,
    "div": arith.div, "sqrt": arith.sqrt,
}
ARITY = {"add": 2, "sub": 2, "mul": 2, "div": 2, "sqrt": 1}


def _key(x: BigFloat):
    return (x.kind, x.sign, x.mant, x.exp, x.prec)


def _random_value(rng: random.Random, prec: int) -> BigFloat:
    magnitude = rng.uniform(-40.0, 40.0)
    mantissa = rng.uniform(1.0, 2.0) * (-1 if rng.random() < 0.5 else 1)
    value = BigFloat.from_float(mantissa * (2.0 ** int(magnitude)),
                                max(prec, 53))
    # Shift the exponent around so limbs beyond float53 participate.
    extra = BigFloat.from_int(rng.randrange(1, 1 << min(prec, 200)),
                              prec)
    return arith.mul(value, extra, prec)


def _specials(prec: int):
    return (
        BigFloat.zero(prec), BigFloat.zero(prec, sign=1),
        BigFloat.inf(prec), BigFloat.inf(prec, sign=1),
        BigFloat.nan(prec),
        BigFloat.from_int(1, prec), BigFloat.from_int(-3, prec),
    )


class TestKernelEquivalence:
    @pytest.mark.parametrize("op", KERNEL_OPS)
    @pytest.mark.parametrize("prec", PRECISIONS)
    def test_random_inputs_all_rounding_modes(self, op, prec):
        rng = random.Random(0xC0FFEE ^ prec ^ hash(op))
        arity = ARITY[op]
        reference = LIBRARY[op]
        for rm in ROUNDING_MODES:
            kernel = scalar_kernel(op, prec, rm)
            for _ in range(SAMPLES_PER_CONFIG):
                args = [_random_value(rng, prec) for _ in range(arity)]
                expected = reference(*args, prec, rm)
                got = kernel(*args)
                assert _key(got) == _key(expected), \
                    f"{op} prec={prec} rm={rm} args={args}"

    @pytest.mark.parametrize("op", KERNEL_OPS)
    def test_special_values(self, op):
        # The full special-value cross product, at one and four limbs.
        arity = ARITY[op]
        reference = LIBRARY[op]

        def cases(pools):
            if len(pools) == 1:
                for v in pools[0]:
                    yield (v,)
                return
            for v in pools[0]:
                for rest in cases(pools[1:]):
                    yield (v,) + rest

        for prec in (64, 256):
            kernel = scalar_kernel(op, prec, RNDN)
            for args in cases([_specials(prec)] * arity):
                expected = reference(*args, prec, RNDN)
                got = kernel(*args)
                assert _key(got) == _key(expected), \
                    f"{op} prec={prec} args={args}"

    def test_kernels_are_memoized(self):
        a = scalar_kernel("add", 128, RNDN)
        b = scalar_kernel("add", 128, RNDN)
        assert a is b
        c = scalar_kernel("add", 256, RNDN)
        assert a is not c
        # Kernels with fallback hooks are rebound per caller over the
        # same compiled code.
        hooked = scalar_kernel("add", 256, RNDN,
                               notes=(lambda: None, lambda: None))
        assert hooked is not c and hooked.__code__ is c.__code__

    def test_kernel_code_mentions_op_and_precision(self):
        source = kernel_code("div", 192, RNDN)
        assert "192" in source

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            kernel_code("pow", 64, RNDN)
