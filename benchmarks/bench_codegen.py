"""Before/after benchmark for the specializing jit codegen engine.

Measures host wall-clock time for the PolyBench ``gemm`` and
``jacobi-1d`` kernels on a ``vpfloat<mpfr, 16, 256>`` element type,
comparing:

* **legacy** -- the reference walker (one isinstance dispatch per
  executed IR instruction);
* **jit** -- the specializing Python-source codegen engine
  (:mod:`repro.codegen.pyjit`): straight-line source per IR function,
  SSA values in locals, constant precisions and inlined MPFR kernels
  baked in at emit time.

Runs are interleaved and scored best-of-N to shield the comparison from
machine noise.  Verifies bit-identical numeric outputs and identical
modeled cycle reports between both engines, the speedup floor on gemm
(>= 3.0x full mode, >= 1.0x quick), and that a warm compile cache skips
re-emission (observed through ``codegen:`` tracer spans).

Usage::

    PYTHONPATH=src python benchmarks/bench_codegen.py
    PYTHONPATH=src python benchmarks/bench_codegen.py --quick
    PYTHONPATH=src python benchmarks/bench_codegen.py --dump-dir out/
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from repro.codegen.pyjit import emit_function_source
from repro.core import CompilerDriver
from repro.evaluation.harness import element_stride
from repro.observability import telemetry_session
from repro.workloads.polybench import KERNELS, source_for

FTYPE = "vpfloat<mpfr, 16, 256>"
GEMM_FLOOR_FULL = 3.0
GEMM_FLOOR_QUICK = 1.0


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


def _report_bits(report):
    return (report.cycles, report.instructions, report.mpfr_calls,
            report.heap_allocations, dict(report.by_category))


def bench_kernel(kernel: str, n: int, reps: int, failures, dump_dir=None):
    """Best-of-N interleaved jit-vs-legacy timing over one program."""
    source = source_for(kernel, FTYPE)
    program = CompilerDriver(backend="mpfr").compile(source, name=kernel)
    count = KERNELS[kernel].outputs(n)

    walls = {"jit": [], "legacy": []}
    outputs = {}
    reports = {}
    for _ in range(reps):
        for engine in ("jit", "legacy"):
            started = time.perf_counter()
            result = program.run("run", [n], engine=engine)
            walls[engine].append(time.perf_counter() - started)
            outputs[engine] = _output_bits(result.interpreter,
                                           int(result.value), count)
            reports[engine] = _report_bits(result.report)

    jit_wall, legacy_wall = min(walls["jit"]), min(walls["legacy"])
    speedup = legacy_wall / jit_wall if jit_wall else float("inf")
    print(f"kernel={kernel} ftype={FTYPE} n={n} reps={reps}")
    print(f"legacy (reference walker):     {legacy_wall:8.3f} s")
    print(f"jit    (specializing codegen): {jit_wall:8.3f} s")
    print(f"speedup:                       {speedup:8.2f}x")

    if outputs["jit"] != outputs["legacy"]:
        failures.append(f"{kernel}: outputs differ between jit and legacy")
    if reports["jit"] != reports["legacy"]:
        failures.append(f"{kernel}: cycle reports differ between jit "
                        f"and legacy")
    statuses = program._codegen_store.statuses()
    jitted = [f for f, r in statuses.items() if r["status"] == "jit"]
    if not jitted:
        failures.append(f"{kernel}: no function was jit-specialized")
    if dump_dir is not None:
        # The store keeps bytecode only; re-emit the source to dump it.
        interp = program.interpreter(engine="jit")
        for name in jitted:
            func = program.module.get_function(name)
            emitted, _reason = emit_function_source(interp, func)
            path = os.path.join(dump_dir, f"{kernel}-{name}.py")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(emitted)
            print(f"emitted source written to {path}")
    return speedup


def check_warm_cache(kernel: str, n: int, failures) -> None:
    """Two fresh drivers over one disk cache: the second run's
    ``codegen:`` spans must all report cached=True (no re-emission)."""
    source = source_for(kernel, FTYPE)
    with tempfile.TemporaryDirectory() as cache_dir:
        observed = []
        for _ in range(2):
            with telemetry_session(trace=True) as (tracer, _):
                driver = CompilerDriver(backend="mpfr", cache=cache_dir)
                program = driver.compile(source, name=kernel)
                program.run("run", [n])
            observed.append([
                e["args"].get("cached") for e in tracer.events
                if e.get("name", "").startswith("codegen:")
            ])
    cold, warm = observed
    if not cold or any(cold):
        failures.append(f"{kernel}: cold run unexpectedly served from "
                        f"codegen cache")
    if not warm or not all(warm):
        failures.append(f"{kernel}: warm run re-emitted instead of "
                        f"loading the codegen sidecar")
    state = "OK" if cold and warm and all(warm) and not any(cold) else "FAIL"
    print(f"warm-cache ({kernel}): cold spans={cold} warm spans={warm} "
          f"[{state}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes, relaxed speedup floor "
                             "(CI smoke mode)")
    parser.add_argument("-n", type=int, default=None,
                        help="gemm problem size (default 14, quick 6)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per engine (default 6, quick 2)")
    parser.add_argument("--dump-dir", default=None,
                        help="write the emitted jit sources here "
                             "(CI artifact)")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (6 if args.quick else 14)
    reps = args.reps if args.reps is not None else (2 if args.quick else 6)
    jacobi_n = 16 if args.quick else 40
    if args.dump_dir is not None:
        os.makedirs(args.dump_dir, exist_ok=True)

    failures = []
    gemm_speedup = bench_kernel("gemm", n, reps, failures,
                                dump_dir=args.dump_dir)
    print()
    bench_kernel("jacobi-1d", jacobi_n, reps, failures,
                 dump_dir=args.dump_dir)
    print()
    check_warm_cache("jacobi-1d", jacobi_n, failures)

    floor = GEMM_FLOOR_QUICK if args.quick else GEMM_FLOOR_FULL
    if gemm_speedup < floor:
        failures.append(f"gemm speedup {gemm_speedup:.2f}x below the "
                        f"{floor:.1f}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: outputs and reports bit-identical, warm cache skips "
              "re-emission, speedup floor met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
