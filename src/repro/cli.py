"""``vpfloat-cc``: command-line driver for the vpfloat toolchain.

Compile a dialect source file, inspect the IR or UNUM assembly, or run a
function on the modeled machine::

    vpfloat-cc kernel.c --emit-ir
    vpfloat-cc kernel.c --backend unum --emit-asm
    vpfloat-cc kernel.c --backend mpfr --run main --args 64 --report
    vpfloat-cc kernel.c --polly --run run --args 16

(equivalently ``python -m repro.cli ...``).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from typing import List

from .core import BACKENDS, CompileCache, CompilerDriver, ENGINES, \
    default_cache_dir
from .observability import ledger_session, telemetry_session


def _parse_run_args(raw: List[str]) -> List[object]:
    values: List[object] = []
    for token in raw:
        try:
            values.append(int(token, 0))
            continue
        except ValueError:
            pass
        try:
            values.append(float(token))
            continue
        except ValueError:
            pass
        raise SystemExit(f"--args values must be numbers, got {token!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfloat-cc",
        description="Compiler driver for the vpfloat C dialect "
                    "(CGO 2021 reproduction).",
    )
    parser.add_argument("source", help="input source file ('-' for stdin)")
    parser.add_argument("--backend", choices=BACKENDS, default="mpfr")
    parser.add_argument("-O", dest="opt_level", type=int, default=3,
                        choices=(0, 1, 2, 3), help="optimization level")
    parser.add_argument("--polly", action="store_true",
                        help="enable Polly-lite loop nest tiling")
    parser.add_argument("--polly-tile", type=int, default=16)
    parser.add_argument("--no-reuse", action="store_true",
                        help="disable MPFR object reuse (ablation)")
    parser.add_argument("--no-specialize", action="store_true",
                        help="disable mpfr_*_d/_si specialization")
    parser.add_argument("--no-in-place", action="store_true",
                        help="disable in-place stores")
    parser.add_argument("--emit-ir", action="store_true",
                        help="print the final IR module")
    parser.add_argument("--emit-asm", action="store_true",
                        help="print UNUM assembly (backend=unum)")
    parser.add_argument("--run", metavar="FUNC",
                        help="execute FUNC after compiling")
    parser.add_argument("--args", nargs="*", default=None,
                        help="numeric arguments for --run")
    parser.add_argument("--report", action="store_true",
                        help="print the performance report after --run")
    parser.add_argument("--profile", action="store_true",
                        help="print opcode/builtin/pool/pass-time profile "
                             "after --run")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="execution engine (default: 'jit', which "
                             "compiles IR functions to specialized Python "
                             "source; 'legacy' is the reference tree "
                             "walker, also used by --profile); a run "
                             "choice, so every engine shares one "
                             "compile-cache entry")
    parser.add_argument("--validate", action="store_true",
                        help="after --run, emit translation-validation "
                             "certificates: re-run FUNC on every other "
                             "execution engine (bit-identical values "
                             "and cycle reports; on the jit this also "
                             "checks its precision-specialized "
                             "kernels against the walker's library "
                             "arithmetic), and at -O0, without each "
                             "-O3 pass and with Polly (bit-identical "
                             "return value and global/heap cells, "
                             "heap addresses aside); exit 3 if any "
                             "check fails")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent compile-cache directory (default: "
                             "$VPFLOAT_CACHE_DIR or ~/.cache/vpfloat-repro; "
                             "created on first use)")
    parser.add_argument("--no-compile-cache", dest="compile_cache",
                        action="store_false",
                        help="always compile from scratch")
    parser.add_argument("--threads", type=int, default=1,
                        help="model OpenMP regions at this thread count "
                             "(>= 1)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the "
                             "compile + run (view in Perfetto)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the metrics registry (compiler, "
                             "runtime, cache, pool, precision "
                             "telemetry) as JSON")
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help="append compile/run records to this JSONL "
                             "run ledger (compare runs with "
                             "'vpfloat-stats compare')")
    return parser


def _print_cache_stats(cache) -> None:
    if cache is None:
        return
    stats = cache.stats
    total = stats.hits + stats.misses
    if not total and not stats.stores:
        return
    print(f"compile cache:     {stats.hits}/{total} hits "
          f"({100.0 * stats.hit_rate():.1f}%): "
          f"{stats.memory_hits} memory, {stats.disk_hits} disk; "
          f"{stats.stores} stored, {stats.errors} errors")


def _print_profile(result, program) -> None:
    profile = result.profile
    if profile is not None:
        print("hottest opcodes:")
        for opcode, count in profile.hottest_opcodes(10):
            print(f"  {opcode:<16} {count}")
        if profile.builtin_calls:
            print("hottest builtins (by modeled cycles):")
            for name, calls, cycles in profile.hottest_builtins(10):
                print(f"  {name:<24} {calls:>10} calls  {cycles:>12} cycles")
    interpreter = getattr(result, "interpreter", None)
    if interpreter is not None:
        stats = interpreter.mpfr.stats
        attempts = stats.pool_hits + stats.pool_misses
        if attempts:
            print(f"mpfr pool:         {stats.pool_hits}/{attempts} hits "
                  f"({100.0 * stats.pool_hit_rate():.1f}%), "
                  f"{stats.pool_releases} released")
    if program.pass_timings:
        print("pass wall time:")
        for name, seconds in program.pass_timings.items():
            print(f"  {name:<24} {seconds * 1e3:8.3f} ms")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.run is None:
        for flag in ("validate", "report", "profile", "args"):
            if getattr(args, flag) not in (False, None):
                parser.error(f"--{flag} requires --run")
    if args.polly_tile < 1:
        parser.error(f"--polly-tile must be >= 1, got {args.polly_tile}")
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if args.cache_dir is not None:
        expanded = os.path.expanduser(args.cache_dir)
        if os.path.exists(expanded) and not os.path.isdir(expanded):
            parser.error(f"--cache-dir {args.cache_dir!r} exists and is "
                         f"not a directory")
    if args.ledger is not None:
        with ledger_session(args.ledger):
            return _telemetry_run(args)
    return _telemetry_run(args)


def _telemetry_run(args) -> int:
    if args.trace is None and args.metrics_out is None:
        return _run(args)
    with telemetry_session(trace=args.trace is not None,
                           metrics=args.metrics_out is not None) \
            as (tracer, registry):
        try:
            return _run(args)
        finally:
            if tracer is not None:
                tracer.export(args.trace)
                print(f"trace written to {args.trace}", file=sys.stderr)
            if registry is not None:
                registry.save(args.metrics_out)
                print(f"metrics written to {args.metrics_out}",
                      file=sys.stderr)


def _run(args) -> int:
    if args.source == "-":
        source = sys.stdin.read()
    else:
        with open(args.source) as handle:
            source = handle.read()

    driver = CompilerDriver(
        backend=args.backend,
        opt_level=args.opt_level,
        polly=args.polly,
        polly_tile=args.polly_tile,
        reuse_objects=not args.no_reuse,
        specialize_scalars=not args.no_specialize,
        in_place_stores=not args.no_in_place,
        cache=CompileCache(args.cache_dir or default_cache_dir())
        if args.compile_cache else None,
    )
    try:
        program = driver.compile(source, name=args.source)
    except Exception as error:  # diagnostics carry positions already
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.polly and program.tiled_nests:
        print(f"; polly-lite: tiled {program.tiled_nests} loop nest(s)",
              file=sys.stderr)
    if args.emit_ir:
        print(program.module)
    if args.emit_asm:
        if program.asm is None:
            print("error: --emit-asm requires --backend unum",
                  file=sys.stderr)
            return 1
        print(program.asm)

    if args.run:
        run_args = _parse_run_args(args.args or [])
        try:
            result = program.run(args.run, run_args,
                                 engine=args.engine,
                                 profile=args.profile)
        except Exception as error:
            print(f"runtime error: {error}", file=sys.stderr)
            return 2
        print(f"{args.run}(...) = {result.value}")
        if args.report:
            report = result.report
            print(f"cycles:            {report.cycles}")
            print(f"instructions:      {report.instructions}")
            print(f"mpfr calls:        {report.mpfr_calls}")
            print(f"heap allocations:  {report.heap_allocations}")
            print(f"LLC misses:        {report.llc_misses}")
            if report.parallel_cycles:
                time = report.parallel_time(args.threads)
                print(f"parallel cycles:   {report.parallel_cycles}")
                print(f"t({args.threads} threads):      {time:.0f}")
        if args.profile:
            _print_profile(result, program)
            _print_cache_stats(driver.cache)
        if args.validate:
            return _validate(args, run_args, program, source,
                             driver.cache)
    return 0


def _validate(args, run_args, program, source, cache) -> int:
    """Print certificates for the function just run; 3 if any fails:
    the engine transitions and the pass transitions."""
    if args.backend == "unum":
        print("error: --validate requires an interpreter backend "
              "(none/mpfr/boost)", file=sys.stderr)
        return 1
    from .validation import certify

    common = dict(strict=False, engine=args.engine)
    # The pass transitions are certified against the full -O3.
    options = {**asdict(program.options), "opt_level": 3, "cache": cache}
    certificates = [
        certify(args.source, args.run, run_args, program=program,
                **common),
        certify(args.source, args.run, run_args, kind="pass",
                source=source, options=options,
                only=("opt", "pass"), **common),
    ]
    for certificate in certificates:
        print(certificate.render())
    return 0 if all(c.passed for c in certificates) else 3


if __name__ == "__main__":
    sys.exit(main())
