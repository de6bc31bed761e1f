"""Every PolyBench kernel against gcc, bit for bit at binary64.

The reference is each kernel's ``double`` source built with
``gcc -O0 -ffp-contract=off -lm`` and a ``main`` that prints the
outputs of ``run(n)`` with ``%a``.  Each kernel then runs through the
toolchain at ``double`` on ``none`` and at ``vpfloat<mpfr, 11, 53>``
(binary64's precision and exponent width) on ``mpfr``; every output
must equal gcc's.  Unlike the engine, pass and backend certificates,
this reference shares no code with sema, irgen or the bigfloat library.
"""

import pytest
from gcc_oracle import gcc_stdout, requires_gcc

from repro.evaluation.harness import run_kernel
from repro.workloads.polybench import KERNELS, source_for

N = 6

CONFIGS = [("double", "none"), ("vpfloat<mpfr, 11, 53>", "mpfr")]


def _gcc_outputs(kernel: str, tmp_path) -> list:
    main = (f"int main(void) {{\n"
            f"  double *out = (double *)run({N});\n"
            f"  for (int i = 0; i < {KERNELS[kernel].outputs(N)}; i++)\n"
            f'    printf("%a\\n", out[i]);\n'
            f"  return 0;\n}}\n")
    source = ("#include <math.h>\n#include <stdio.h>\n#include <stdlib.h>\n"
              + source_for(kernel, "double") + main)
    return [float.fromhex(token).hex()
            for token in gcc_stdout(source, tmp_path).split()]


@requires_gcc
@pytest.mark.parametrize("ftype,backend", CONFIGS,
                         ids=[backend for _ftype, backend in CONFIGS])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_matches_gcc(kernel, ftype, backend, tmp_path):
    expected = _gcc_outputs(kernel, tmp_path)
    outcome = run_kernel(kernel, ftype, N, backend=backend, cache=False,
                         compile_cache=None)
    got = [float(value).hex() for value in outcome.outputs]
    assert len(expected) == KERNELS[kernel].outputs(N)
    mismatches = [(i, g, e) for i, (g, e) in enumerate(zip(got, expected))
                  if g != e]
    assert not mismatches, mismatches[:5]
