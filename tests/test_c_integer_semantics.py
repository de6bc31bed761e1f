"""C integer semantics against the C standard and, when present, gcc.

Every other certificate compares the toolchain with itself, so an
error shared by sema, irgen and every engine passes them all.  These
one-function probes pin the value C11 gives: integer literal types
(6.4.4.1), widening and narrowing an integer (6.3.1.3) and converting
it to floating point (6.3.1.4), the usual arithmetic conversions of
mixed signedness (6.3.1.8), the types of unary minus (6.5.3.3), a
shift (6.5.7), a compound assignment (6.5.16.2) and a global's
initializer (6.7.9), next to their signed neighbours.  Each
probe runs on every backend and engine, the UNUM machine included
(where the 32-bit wrap probe is a known failure, and which has no
globals); when ``gcc`` is on
PATH, each is also built with ``gcc -O0`` and its printed result
compared with the same pinned value.
"""

from typing import NamedTuple, Tuple

import pytest
from gcc_oracle import gcc_stdout, requires_gcc

from repro import compile_source
from repro.workloads.polybench import vpfloat_unum_type

#: The vpfloat type of the probes that convert into one; gcc builds
#: them at ``double``, where each probe's result is exact as well.
VP = "vpfloat<mpfr, 16, 100>"

#: printf format of each probe return type.
_FORMATS = {"long": "%ld", "unsigned long": "%lu", "double": "%.17g"}


class Probe(NamedTuple):
    name: str
    returns: str
    source: str  # the body of ``f``, with ``{vp}`` for the vpfloat type
    params: str
    args: Tuple[int, ...]
    expected: str
    globals: str = ""  # declarations before ``f``


PROBES = [
    # An unsuffixed decimal literal above INT_MAX is a long.
    Probe("decimal_literal_above_int_is_long", "long",
          "return a * 3000000000;", "int a", (3,), "9000000000"),
    # A u literal above UINT_MAX is an unsigned long.
    Probe("u_literal_above_uint_is_unsigned_long", "unsigned long",
          "return 9223372036854775808u / 2;", "int a", (0,),
          "4611686018427387904"),
    # Literal sizes: int, long, unsigned, unsigned (hex), long (hex).
    Probe("literal_types_by_sizeof", "long",
          "return sizeof(2147483647) + 10 * sizeof(2147483648)"
          " + 100 * sizeof(4294967295u) + 1000 * sizeof(0xffffffff)"
          " + 10000 * sizeof(0x100000000);", "int a", (0,), "84484"),
    # 0xffffffff is unsigned int, so -1 compares unsigned against it;
    # 4294967295 is long, so the comparison stays signed.
    Probe("hex_literal_takes_unsigned_int", "long",
          "return (a < 0xffffffff) + 2 * (a < 4294967295);", "int a",
          (-1,), "2"),
    Probe("unsigned_param_widens_with_zero_extension", "unsigned long",
          "return x;", "unsigned x", (4294967295,), "4294967295"),
    Probe("unsigned_local_widens_with_zero_extension", "long",
          "unsigned u = a; return u;", "int a", (-1,), "4294967295"),
    Probe("signed_widening_sign_extends", "long",
          "long w = a; return w + 1;", "int a", (-5,), "-4"),
    Probe("unsigned_long_to_double", "double",
          "return (double)x;", "unsigned long x", (2**64 - 1,),
          "1.8446744073709552e+19"),
    Probe("signed_long_to_double", "double",
          "return (double)x;", "long x", (-(2**63 - 1),),
          "-9.2233720368547758e+18"),
    Probe("unsigned_long_to_vpfloat", "double",
          "{vp} y = x; return (double)y;", "unsigned long x",
          (2**64 - 1,), "1.8446744073709552e+19"),
    Probe("unsigned_vpfloat_operand", "double",
          "{vp} one = 1.0; {vp} r = one + x; return (double)r;",
          "unsigned x", (4294967295,), "4294967296"),
    Probe("signed_to_vpfloat", "double",
          "{vp} y = x; return (double)y;", "int x", (-7,), "-7"),
    # -1u is an unsigned int, so it widens to long by zero extension.
    Probe("negated_unsigned_literal_widens_with_zero_extension", "long",
          "long y = -1u; return y + a;", "int a", (0,), "4294967295"),
    # 'a op= b' is 'a = a op b': unsigned operands divide unsigned, and
    # an int times a double is a double, truncated when stored.
    Probe("unsigned_compound_division", "unsigned long",
          "x /= 2; return x;", "unsigned long x", (2**64 - 2,),
          "9223372036854775807"),
    Probe("unsigned_compound_remainder", "unsigned long",
          "x %= 10; return x;", "unsigned long x", (2**64 - 2,), "4"),
    Probe("int_compound_multiply_by_double", "long",
          "int x = a; x *= 2.5; return x;", "int a", (3,), "7"),
    # A shift has its promoted left operand's type, whatever the count's.
    Probe("shift_by_unsigned_count_stays_signed", "long",
          "return a >> 1u;", "int a", (-8,), "-4"),
    Probe("shift_by_long_count_is_int", "long",
          "return sizeof(a << 1L);", "int a", (0,), "4"),
    Probe("shift_assign_by_unsigned_count", "long",
          "int x = a; x >>= 1u; return x;", "int a", (-8,), "-4"),
    Probe("bitwise_compound_assignments", "long",
          "int x = a; x <<= 3; x |= 1; x ^= 2; x &= 13; return x;",
          "int a", (5,), "9"),
    # A long holds every unsigned int, so long with unsigned int is
    # long (C11 6.3.1.8): the division, remainder and comparison stay
    # signed.
    Probe("long_compound_division_by_unsigned", "long",
          "long x = a; x /= 2u; return x;", "long a", (-4,), "-2"),
    Probe("long_compound_remainder_by_unsigned", "long",
          "long x = a; x %= 3u; return x;", "long a", (-4,), "-1"),
    Probe("long_divided_by_unsigned", "long",
          "return a / 2u;", "long a", (-4,), "-2"),
    Probe("long_compares_signed_with_unsigned", "long",
          "return a < 1u;", "long a", (-1,), "1"),
    # Unary minus promotes a char to int (C11 6.5.3.3).
    Probe("unary_minus_promotes_char", "long",
          "char c = a; return -c + 1000 * sizeof(-c);", "int a", (-128,),
          "4128"),
    # Narrowing keeps the low word, read signed (gcc's choice).
    Probe("int_cast_of_long_above_int_max", "long",
          "return (int)x;", "long x", (4294967295,), "-1"),
    # Unsigned int arithmetic wraps modulo 2^32.
    Probe("unsigned_product_wraps_at_32_bits", "long",
          "unsigned b = a * 65536u; return b >> 16;", "unsigned a",
          (65537,), "1"),
    # A global's initializer has its own type, then converts (6.7.9).
    Probe("global_negated_unsigned_literal_widens_with_zero_extension",
          "long", "return g + a;", "int a", (0,), "4294967295",
          "long g = -1u;"),
    Probe("global_double_of_negated_unsigned_literal", "double",
          "return g + a;", "int a", (0,), "4294967295", "double g = -1u;"),
]


def _source(probe: Probe, vp: str) -> str:
    body = probe.source.format(vp=vp)
    return (f"{probe.globals}\n"
            f"{probe.returns} f({probe.params}) {{ {body} }}\n")


def _printed(value) -> str:
    """``value`` as the probe's printf format prints it."""
    return "%.17g" % value if isinstance(value, float) else str(value)


@pytest.mark.parametrize("backend", ["none", "mpfr", "boost"])
@pytest.mark.parametrize("probe", PROBES, ids=[p.name for p in PROBES])
def test_probe_gives_c_value(probe, backend):
    program = compile_source(_source(probe, VP), backend=backend)
    for engine in ("jit", "legacy"):
        value = program.run("f", list(probe.args), engine=engine).value
        assert _printed(value) == probe.expected, (backend, engine)


#: The UNUM machine keeps a 32-bit result in a 64-bit register without
#: wrapping it, so an unsigned int product overflows into the shift.
_UNUM_NO_WRAP = pytest.mark.xfail(
    strict=True, reason="UNUM 32-bit arithmetic does not wrap")


#: The UNUM machine has no global variables.
_UNUM_PROBES = [p for p in PROBES if not p.globals]


@pytest.mark.parametrize("probe", [
    pytest.param(p, marks=_UNUM_NO_WRAP)
    if p.name == "unsigned_product_wraps_at_32_bits" else p
    for p in _UNUM_PROBES], ids=[p.name for p in _UNUM_PROBES])
def test_probe_gives_c_value_on_unum(probe):
    program = compile_source(_source(probe, vpfloat_unum_type(4, 9)),
                             backend="unum")
    value = program.run("f", list(probe.args)).value
    assert _printed(value) == probe.expected


@requires_gcc
@pytest.mark.parametrize("probe", PROBES, ids=[p.name for p in PROBES])
def test_probe_matches_gcc(probe, tmp_path):
    args = ", ".join(f"{a}UL" if a >= 2**63 else str(a) for a in probe.args)
    main = (f'#include <stdio.h>\nint main(void) {{ printf('
            f'"{_FORMATS[probe.returns]}\\n", f({args})); return 0; }}\n')
    printed = gcc_stdout(_source(probe, "double") + main, tmp_path)
    assert printed.strip() == probe.expected
