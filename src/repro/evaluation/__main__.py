"""CLI for the evaluation drivers: ``python -m repro.evaluation <exp>``.

The compute-heavy experiments accept ``--jobs N`` to fan their sweep
grids out over the parallel evaluation engine
(:mod:`repro.evaluation.parallel`) and share a persistent compile cache
(``--cache-dir``, created on first use; ``--no-compile-cache`` to
disable).
"""

from __future__ import annotations

import argparse
import os
import sys

from ..core import ENGINES
from ..observability import telemetry_session
from . import fig1, fig2, fig3, table1, table2, table3

#: ``--quick`` shrinks table1 to a CI-sized grid that still exercises
#: the parallel engine, both vpfloat rows, and the compile cache.
QUICK_TABLE1_KERNELS = ("gemm", "covariance")
QUICK_TABLE1_DATASETS = ("mini",)


def _table1_main(args):
    if args.quick:
        return table1.main(jobs=args.jobs, cache_dir=args.cache_dir,
                           compile_cache=args.compile_cache,
                           kernels=QUICK_TABLE1_KERNELS,
                           datasets=QUICK_TABLE1_DATASETS,
                           engine=args.engine, validate=args.validate)
    return table1.main(jobs=args.jobs, cache_dir=args.cache_dir,
                       compile_cache=args.compile_cache,
                       engine=args.engine, validate=args.validate)


EXPERIMENTS = {
    "table1": _table1_main,
    "table2": lambda args: table2.main(),
    "table3": lambda args: table3.main(),
    "fig1": lambda args: fig1.main(dataset=args.dataset,
                                   raja_n=args.raja_n, jobs=args.jobs,
                                   cache_dir=args.cache_dir,
                                   compile_cache=args.compile_cache,
                                   engine=args.engine,
                                   validate=args.validate),
    "fig2": lambda args: fig2.main(dataset=args.dataset, jobs=args.jobs,
                                   cache_dir=args.cache_dir,
                                   compile_cache=args.compile_cache,
                                   engine=args.engine,
                                   validate=args.validate),
    "fig3": lambda args: fig3.main(n=args.cg_n, jobs=args.jobs),
}


def validate_engine_args(parser: argparse.ArgumentParser, jobs: int,
                         cache_dir) -> None:
    """Reject bad ``--jobs``/``--cache-dir`` values with a clean
    diagnostic instead of a traceback from deep inside the engine."""
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    if cache_dir is not None:
        expanded = os.path.expanduser(cache_dir)
        if os.path.exists(expanded) and not os.path.isdir(expanded):
            parser.error(f"--cache-dir {cache_dir!r} exists and is not "
                         f"a directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"])
    parser.add_argument("--dataset", default="mini",
                        help="PolyBench dataset class (default: mini)")
    parser.add_argument("--raja-n", type=int, default=256,
                        help="RAJAPerf vector length (default: 256)")
    parser.add_argument("--cg-n", type=int, default=64,
                        help="CG matrix size (default: 64)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for the sweep grids "
                             "(default: 1 = serial)")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="execution engine for every sweep point "
                             "(default: 'jit'; 'legacy' is the reference "
                             "tree walker); worker shards inherit it")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent compile-cache directory "
                             "(default: $VPFLOAT_CACHE_DIR or "
                             "~/.cache/vpfloat-repro; created on "
                             "first use)")
    parser.add_argument("--no-compile-cache", dest="compile_cache",
                        action="store_false",
                        help="recompile every sweep point from scratch")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of the "
                             "run (view in Perfetto)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the merged metrics registry "
                             "(compiler, runtime, cache, pool, "
                             "precision telemetry) as JSON")
    parser.add_argument("--validate", action="store_true",
                        help="translation-validate every sweep point "
                             "through the one transition registry: "
                             "re-run it on every other execution engine "
                             "(from a jit reference, this checks the "
                             "precision-specialized kernels "
                             "against the walker's library "
                             "arithmetic); values and cycle reports "
                             "must be bit-identical, or the sweep "
                             "aborts with a failed certificate "
                             "(table1, fig1, fig2)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized grids (table1: gemm+covariance "
                             "on the mini dataset)")
    args = parser.parse_args(argv)
    validate_engine_args(parser, args.jobs, args.cache_dir)

    def dispatch():
        if args.experiment == "all":
            for name in ("table1", "table2", "table3", "fig1", "fig2",
                         "fig3"):
                print(f"\n=== {name} ===\n")
                EXPERIMENTS[name](args)
        else:
            EXPERIMENTS[args.experiment](args)

    if args.trace is None and args.metrics_out is None:
        dispatch()
        return 0
    with telemetry_session(trace=args.trace is not None,
                           metrics=args.metrics_out is not None) \
            as (tracer, registry):
        try:
            dispatch()
        finally:
            # Export even on failure: a partial trace of a crashed
            # sweep is exactly what one wants to look at.
            if tracer is not None:
                tracer.export(args.trace)
                print(f"trace written to {args.trace}", file=sys.stderr)
            if registry is not None:
                registry.save(args.metrics_out)
                print(f"metrics written to {args.metrics_out}",
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
