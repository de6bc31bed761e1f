"""Benchmark for the parallel sharded evaluation engine + compile cache.

Three claims are measured against the serial, cache-less baseline the
seed harness used:

* **wall-clock** -- one sweep invocation through the engine
  (``--jobs`` worker processes, deterministic sharding, persistent
  compile cache) beats the same grid evaluated serially with no cache.
  The engine is timed twice: a *cold* pass that populates the cache,
  and a *warm* pass -- the steady state of the evaluation drivers,
  which re-run identical grids across benchmark sessions.  The speedup
  floor applies to the warm pass; on a multi-core host the cold pass
  clears it too, on a single-core host the compile cache alone carries
  it.
* **compile phase** -- a warm persistent cache returns a compiled
  program far faster than the parse -> sema -> -O3 -> backend pipeline.
* **equivalence** -- per-point modeled cycles, cycle categories, and
  exact output bits (BigFloat fields) are identical between the
  engine's runs and the serial uncached baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_eval.py
    PYTHONPATH=src python benchmarks/bench_parallel_eval.py --quick --jobs 2
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.core import CompileCache, CompilerDriver
from repro.evaluation.parallel import GridPoint, run_grid
from repro.workloads.polybench import source_for

#: (kernel, precision, n, polly) sweep.  Every (kernel, precision,
#: polly) combination is a distinct compilation; sweeping ``n`` inside
#: each combination is what the compile cache collapses.
FULL_GRID = [
    (kernel, f"vpfloat<mpfr, 16, {prec}>", n, polly)
    for kernel in ("gemm", "nussinov", "ludcmp", "adi")
    for prec in (128, 256)
    for n in (4, 5)
    for polly in (False, True)
]
QUICK_GRID = [
    ("gemm", "vpfloat<mpfr, 16, 128>", n, polly)
    for n in (4, 5)
    for polly in (False, True)
]


def _points(grid):
    return [GridPoint.make(kernel, ftype, n, backend="mpfr", polly=polly)
            for kernel, ftype, n, polly in grid]


def _outcome_key(outcome):
    """Cycles + categories + exact output bits for one sweep point."""
    from repro.bigfloat import BigFloat

    outputs = tuple(
        (v.kind, v.sign, v.mant, v.exp, v.prec)
        if isinstance(v, BigFloat) else v
        for v in outcome.outputs)
    return (outcome.report.cycles, outcome.report.instructions,
            tuple(sorted(outcome.report.by_category.items())), outputs)


def bench_wall(grid, jobs: int, cache_dir: str):
    points = _points(grid)
    started = time.perf_counter()
    serial = run_grid(points, jobs=1, compile_cache=False)
    serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    cold = run_grid(points, jobs=jobs, cache_dir=cache_dir)
    cold_wall = time.perf_counter() - started

    started = time.perf_counter()
    warm = run_grid(points, jobs=jobs, cache_dir=cache_dir)
    warm_wall = time.perf_counter() - started
    return (serial, serial_wall), (cold, cold_wall), (warm, warm_wall)


COMPILE_PRECISIONS = (128, 256, 512)


def bench_compile(cache_dir: str):
    """Cold (miss + store) vs warm (fresh process's disk hit) compile."""
    sources = [(f"gemm-{prec}",
                source_for("gemm", f"vpfloat<mpfr, 16, {prec}>"))
               for prec in COMPILE_PRECISIONS]

    cold_cache = CompileCache(cache_dir)
    driver = CompilerDriver(backend="mpfr", cache=cold_cache)
    started = time.perf_counter()
    for name, source in sources:
        driver.compile(source, name=name)
    cold = time.perf_counter() - started

    # A fresh cache object over the same directory: empty LRU, so every
    # lookup exercises the disk tier -- the cross-process shape.
    warm_cache = CompileCache(cache_dir)
    driver = CompilerDriver(backend="mpfr", cache=warm_cache)
    started = time.perf_counter()
    for name, source in sources:
        driver.compile(source, name=name)
    warm = time.perf_counter() - started
    assert warm_cache.stats.disk_hits == len(sources), \
        "warm pass was expected to be served from disk"
    return cold, warm


def bench(jobs: int, quick: bool, cache_dir=None) -> int:
    grid = QUICK_GRID if quick else FULL_GRID
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="vpfloat-bench-cache-")

    (serial, serial_wall), (cold_res, cold_wall), (warm_res, warm_wall) = \
        bench_wall(grid, jobs, cache_dir)
    cold_speedup = serial_wall / cold_wall if cold_wall else float("inf")
    warm_speedup = serial_wall / warm_wall if warm_wall else float("inf")

    compile_cold, compile_warm = bench_compile(cache_dir)
    compile_speedup = compile_cold / compile_warm if compile_warm \
        else float("inf")

    print(f"grid: {len(grid)} points "
          f"({'quick' if quick else 'full'}), jobs={jobs}")
    print(f"serial, no compile cache:       {serial_wall:8.3f} s")
    print(f"engine cold ({jobs} jobs, empty cache): {cold_wall:8.3f} s "
          f"({cold_speedup:.2f}x)")
    print(f"engine warm ({jobs} jobs, steady state): {warm_wall:8.3f} s "
          f"({warm_speedup:.2f}x)")
    print(f"compile phase cold:             {compile_cold * 1e3:8.1f} ms "
          f"({len(COMPILE_PRECISIONS)} programs)")
    print(f"compile phase warm (disk):      {compile_warm * 1e3:8.1f} ms")
    print(f"compile speedup:                {compile_speedup:8.2f}x")

    failures = []
    serial_keys = [_outcome_key(o) for o in serial]
    for label, outcomes in (("cold", cold_res), ("warm", warm_res)):
        if [_outcome_key(o) for o in outcomes] != serial_keys:
            failures.append(f"{label} engine results are not "
                            f"bit-identical to the serial uncached "
                            f"baseline")
    wall_floor = 1.0 if quick else 1.5
    if warm_speedup < wall_floor:
        failures.append(f"steady-state speedup {warm_speedup:.2f}x below "
                        f"the {wall_floor:.1f}x floor")
    compile_floor = 2.0 if quick else 5.0
    if compile_speedup < compile_floor:
        failures.append(f"compile speedup {compile_speedup:.2f}x below "
                        f"the {compile_floor:.1f}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: bit-identical outputs/cycles, wall-clock and "
              "compile-phase floors met")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", "-j", type=int, default=4,
                        help="worker processes (default 4)")
    parser.add_argument("--quick", action="store_true",
                        help="small grid, relaxed floors (CI smoke mode)")
    parser.add_argument("--cache-dir", default=None,
                        help="compile-cache directory (default: a fresh "
                             "temporary directory)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    return bench(args.jobs, args.quick, args.cache_dir)


if __name__ == "__main__":
    sys.exit(main())
