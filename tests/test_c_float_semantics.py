"""IEEE float edge cases at -O0 and -O3 against C and, when present, gcc.

The toolchain's own certificates compare one engine or opt level with
another, so a value that constant folding and the runtime both get
wrong, or that only a fold gets wrong, can pass them.  These probes pin
what C gives: division by a signed zero takes the XOR of the operand
signs, and NaN stays NaN (IEEE 754 §7.3 and Annex F of C11).  Their
operands are constants, which -O3 folds and -O0 computes at run time,
or values only known at run time.  Each probe returns a class of its
result, not the result itself (gcc prints a NaN as ``-nan``):
``-1`` for negative infinity, ``1`` for positive infinity, ``2`` for
NaN, ``0`` for anything else.
"""

import math
from typing import NamedTuple

import pytest
from gcc_oracle import gcc_stdout, requires_gcc

from repro import compile_source

#: NaN is tested as ``!(r == r)``, so the classification does not lean
#: on ``!=``, which the NaN probes below test.
_CLASSIFY = ("return !(r == r) ? 2 : r < -1.7976931348623157e308 ? -1"
             " : r > 1.7976931348623157e308 ? 1 : 0;")


class Probe(NamedTuple):
    name: str
    source: str  # statements computing ``double r`` from ``double a``
    expected: int
    gcc: bool = True  # False when the probe's type has no C equivalent


PROBES = [
    Probe("constant_by_negative_zero",
          "double x = 1.0; double z = -0.0; double r = x / z;", -1),
    Probe("runtime_by_negative_zero",
          "double z = -0.0; double r = a / z;", -1),
    Probe("negated_constant_by_zero",
          "double x = 1.0; double r = (-x) / 0.0;", -1),
    Probe("negated_runtime_by_zero", "double r = (-a) / 0.0;", -1),
    Probe("constant_nan_by_zero",
          "double z = 0.0; double n = z / z; double r = n / 0.0;", 2),
    Probe("runtime_nan_by_runtime_zero",
          "double z = a - a; double n = z / z; double r = n / z;", 2),
    # C's != and a float's truth value are true on NaN (``fcmp une``).
    Probe("runtime_nan_not_equal_to_itself",
          "double z = a - a; double n = z / z;"
          " double r = n != n ? a / z : 0.0;", 1),
    Probe("runtime_nan_is_true",
          "double z = a - a; double n = z / z;"
          " double r = 0.0; if (n) r = a / z;", 1),
    Probe("constant_nan_is_true",
          "double z = 0.0; double n = z / z;"
          " double r = 0.0; if (n) r = a / z;", 1),
    # The exp-info attribute bounds the exponent: 4 bits hold 2^8 at
    # most, so 100 * 100 overflows whether folded or computed.
    Probe("narrow_exponent_product_overflows",
          "vpfloat<mpfr, 4, 24> x = 100.0, y = 100.0;"
          " vpfloat<mpfr, 4, 24> z = x * y; double r = (double)z;", 1,
          gcc=False),
]

_IDS = [p.name for p in PROBES]


def _source(probe: Probe) -> str:
    return f"long f(double a) {{ {probe.source} {_CLASSIFY} }}\n"


@pytest.mark.parametrize("opt_level", [0, 3])
@pytest.mark.parametrize("backend", ["none", "mpfr", "boost"])
@pytest.mark.parametrize("probe", PROBES, ids=_IDS)
def test_probe_gives_c_value(probe, backend, opt_level):
    program = compile_source(_source(probe), backend=backend,
                             opt_level=opt_level)
    for engine in ("jit", "legacy"):
        value = program.run("f", [1.0], engine=engine).value
        assert value == probe.expected, engine


@pytest.mark.parametrize("opt_level", [0, 3])
@pytest.mark.parametrize("probe", [p for p in PROBES if p.gcc],
                         ids=[p.name for p in PROBES if p.gcc])
def test_probe_gives_c_value_on_unum(probe, opt_level):
    program = compile_source(_source(probe), backend="unum",
                             opt_level=opt_level)
    assert program.run("f", [1.0]).value == probe.expected


@requires_gcc
@pytest.mark.parametrize("probe", [p for p in PROBES if p.gcc],
                         ids=[p.name for p in PROBES if p.gcc])
def test_probe_matches_gcc(probe, tmp_path):
    main = ('#include <stdio.h>\nint main(void) { '
            'printf("%ld\\n", f(1.0)); return 0; }\n')
    printed = gcc_stdout(_source(probe) + main, tmp_path)
    assert printed.strip() == str(probe.expected)


def test_runtime_float_ops_follow_ieee():
    """The walker, the jit, the UNUM machine and constfold all evaluate
    through these, including the predicates C never emits."""
    from repro.runtime.interpreter import fcmp_value, fdiv, frem

    assert fdiv(1.0, -0.0) == fdiv(-1.0, 0.0) == -math.inf
    assert fdiv(-1.0, -0.0) == math.inf
    for a, b in ((math.nan, 0.0), (0.0, -0.0), (math.nan, 1.0)):
        assert math.isnan(fdiv(a, b))
    for a, b in ((1.0, 0.0), (math.inf, 2.0), (math.nan, 2.0)):
        assert math.isnan(frem(a, b))
    assert frem(-7.0, 2.0) == -1.0
    assert [fcmp_value(math.nan, 1.0, p) for p in
            ("ueq", "une", "uno", "oeq", "one", "ord")] == [1, 1, 1, 0, 0, 0]
