"""C integer semantics against the C standard and, when present, gcc.

Every other certificate compares the toolchain with itself, so an
error shared by sema, irgen and every engine passes them all.  These
one-function probes pin the value C11 gives: integer literal types
(6.4.4.1), widening an unsigned value (6.3.1.3) and converting it to
floating point (6.3.1.4), next to their signed neighbours.  Each probe
runs on every backend and engine, the UNUM machine included (where the
two unsigned widening probes are known failures); when ``gcc`` is on
PATH, each is also built with ``gcc -O0`` and its printed result
compared with the same pinned value.
"""

import shutil
import subprocess
from typing import NamedTuple, Tuple

import pytest

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
]


def _source(probe: Probe, vp: str) -> str:
    body = probe.source.format(vp=vp)
    return f"{probe.returns} f({probe.params}) {{ {body} }}\n"


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


#: UNUM isel selects zext and sext as register copies, so the UNUM
#: machine widens an unsigned value by its signed bit pattern.
_UNUM_WIDENING = pytest.mark.xfail(
    strict=True, reason="UNUM isel copies zext: no zero extension")


@pytest.mark.parametrize("probe", [
    pytest.param(p, marks=_UNUM_WIDENING)
    if p.name.endswith("_widens_with_zero_extension") else p
    for p in PROBES], ids=[p.name for p in PROBES])
def test_probe_gives_c_value_on_unum(probe):
    program = compile_source(_source(probe, vpfloat_unum_type(4, 9)),
                             backend="unum")
    value = program.run("f", list(probe.args)).value
    assert _printed(value) == probe.expected


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")
@pytest.mark.parametrize("probe", PROBES, ids=[p.name for p in PROBES])
def test_probe_matches_gcc(probe, tmp_path):
    args = ", ".join(f"{a}UL" if a >= 2**63 else str(a) for a in probe.args)
    main = (f'#include <stdio.h>\nint main(void) {{ printf('
            f'"{_FORMATS[probe.returns]}\\n", f({args})); return 0; }}\n')
    path = tmp_path / "probe.c"
    path.write_text(_source(probe, "double") + main)
    exe = tmp_path / "probe"
    subprocess.run(["gcc", "-O0", "-std=gnu11", "-w", "-ffp-contract=off",
                    str(path), "-o", str(exe)], check=True)
    printed = subprocess.run([str(exe)], check=True, capture_output=True,
                             text=True).stdout.strip()
    assert printed == probe.expected
