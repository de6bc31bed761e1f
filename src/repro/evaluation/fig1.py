"""Figure 1: vpfloat<mpfr,...> speedup over Boost.Multiprecision.

Part (1): PolyBench, sequential, -O3 with and without Polly -- "the
execution time reference for each application is the best of both" (paper
§IV-A), at two precisions.  Part (2): RAJAPerf with the three sequential
variants and the three OpenMP variants on 16 modeled threads.

Speedups are ratios of modeled cycles (DESIGN.md performance-model
substitution); paper averages for comparison: PolyBench 1.80x, RAJAPerf
sequential 1.74/1.61/1.65x, OpenMP 7.98/7.16/7.72x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core import CompilerDriver
from ..workloads.polybench import FIG1_KERNELS, KERNELS
from ..workloads.rajaperf import (
    DEFAULT_N,
    OMP_VARIANTS,
    PAPER_THREADS,
    RAJA_KERNELS,
    VARIANTS,
    raja_source,
)
from .harness import geomean, run_kernel

#: The two precisions swept (the paper plots several; lower/higher).
PRECISIONS = (128, 512)


@dataclass
class Fig1Point:
    kernel: str
    precision: int
    vpfloat_cycles: float
    boost_cycles: float
    vpfloat_polly_cycles: Optional[float] = None
    boost_polly_cycles: Optional[float] = None

    @property
    def best_vpfloat(self) -> float:
        candidates = [self.vpfloat_cycles]
        if self.vpfloat_polly_cycles is not None:
            candidates.append(self.vpfloat_polly_cycles)
        return min(candidates)

    @property
    def best_boost(self) -> float:
        candidates = [self.boost_cycles]
        if self.boost_polly_cycles is not None:
            candidates.append(self.boost_polly_cycles)
        return min(candidates)

    @property
    def speedup(self) -> float:
        return self.best_boost / self.best_vpfloat


def _polybench_point(kernel: str, n: int, prec: int, with_polly: bool,
                     max_steps: int, engine=None,
                     validate: bool = False) -> Fig1Point:
    ftype = f"vpfloat<mpfr, 16, {prec}>"
    vp = run_kernel(kernel, ftype, n, backend="mpfr",
                    read_outputs=False, max_steps=max_steps,
                    engine=engine, validate=validate)
    boost = run_kernel(kernel, ftype, n, backend="boost",
                       read_outputs=False, max_steps=max_steps,
                       engine=engine, validate=validate)
    vp_polly = boost_polly = None
    if with_polly:
        vp_polly = run_kernel(kernel, ftype, n, backend="mpfr",
                              polly=True, read_outputs=False,
                              max_steps=max_steps, engine=engine,
                              validate=validate).report.cycles
        boost_polly = run_kernel(kernel, ftype, n, backend="boost",
                                 polly=True, read_outputs=False,
                                 max_steps=max_steps, engine=engine,
                                 validate=validate).report.cycles
    return Fig1Point(kernel, prec, vp.report.cycles,
                     boost.report.cycles, vp_polly, boost_polly)


def run_fig1_polybench(kernels: Sequence[str] = FIG1_KERNELS,
                       dataset: str = "small",
                       precisions: Sequence[int] = PRECISIONS,
                       with_polly: bool = True,
                       max_steps: int = 2_000_000_000, jobs: int = 1,
                       cache_dir=None, compile_cache: bool = True,
                       engine=None,
                       validate: bool = False) -> List[Fig1Point]:
    from .parallel import parallel_map

    tasks = [(kernel, KERNELS[kernel].size_for(dataset), prec,
              with_polly, max_steps, engine, validate)
             for kernel in kernels for prec in precisions]
    return parallel_map(_polybench_point, tasks, jobs=jobs,
                        cache_dir=cache_dir, compile_cache=compile_cache)


@dataclass
class RajaPoint:
    kernel: str
    variant: str
    precision: int
    openmp: bool
    vpfloat_time: float
    boost_time: float

    @property
    def speedup(self) -> float:
        return self.boost_time / self.vpfloat_time


def _raja_point(kernel: str, variant: str, kwargs: dict, openmp: bool,
                n: int, precision: int, threads: int,
                max_steps: int, engine=None,
                validate: bool = False) -> RajaPoint:
    from .harness import get_compile_cache

    ftype = f"vpfloat<mpfr, 16, {precision}>"
    source = raja_source(kernel, ftype, openmp=openmp)
    times = {}
    for backend in ("mpfr", "boost"):
        program = CompilerDriver(backend=backend,
                                 cache=get_compile_cache(),
                                 **kwargs).compile(source)
        result = program.run("run", [n], max_steps=max_steps,
                             engine=engine)
        if validate:
            from ..validation import certify

            certify(f"{kernel}-{backend}", "run", [n], program=program,
                    engine=engine, run_options={"max_steps": max_steps},
                    witness={"kernel": kernel, "n": n})
        if openmp:
            # RAJAPerf times the kernel region itself.
            times[backend] = result.report.kernel_time(threads)
        else:
            times[backend] = float(result.report.cycles)
    return RajaPoint(kernel, variant, precision, openmp,
                     times["mpfr"], times["boost"])


def run_fig1_rajaperf(kernels: Optional[Sequence[str]] = None,
                      n: int = DEFAULT_N,
                      precision: int = 256,
                      threads: int = PAPER_THREADS,
                      max_steps: int = 2_000_000_000, jobs: int = 1,
                      cache_dir=None, compile_cache: bool = True,
                      engine=None,
                      validate: bool = False) -> List[RajaPoint]:
    from .parallel import parallel_map

    kernels = list(kernels or RAJA_KERNELS)
    tasks = [
        (kernel, variant, kwargs, openmp, n, precision, threads,
         max_steps, engine, validate)
        for openmp, variant_map in ((False, VARIANTS), (True, OMP_VARIANTS))
        for variant, kwargs in variant_map.items()
        for kernel in kernels
    ]
    return parallel_map(_raja_point, tasks, jobs=jobs,
                        cache_dir=cache_dir, compile_cache=compile_cache)


def summarize_fig1(polybench: List[Fig1Point],
                   rajaperf: List[RajaPoint]) -> Dict[str, float]:
    summary: Dict[str, float] = {}
    summary["polybench_avg"] = geomean([p.speedup for p in polybench])
    for variant in list(VARIANTS) + list(OMP_VARIANTS):
        values = [p.speedup for p in rajaperf if p.variant == variant]
        if values:
            summary[variant] = geomean(values)
    return summary


def format_fig1(polybench: List[Fig1Point],
                rajaperf: List[RajaPoint]) -> str:
    lines = ["Figure 1 (1) -- PolyBench: vpfloat speedup over Boost "
             "(best of +/-Polly)", ""]
    header = f"{'kernel':<14}{'prec':>6}{'vpfloat':>12}{'boost':>12}{'speedup':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for p in polybench:
        lines.append(f"{p.kernel:<14}{p.precision:>6}"
                     f"{p.best_vpfloat:>12.0f}{p.best_boost:>12.0f}"
                     f"{p.speedup:>8.2f}x")
    summary = summarize_fig1(polybench, rajaperf)
    lines.append("")
    lines.append(f"PolyBench average speedup: "
                 f"{summary.get('polybench_avg', 0):.2f}x "
                 f"(paper: 1.80x)")
    lines.append("")
    lines.append("Figure 1 (2) -- RAJAPerf variants")
    header = f"{'kernel':<14}{'variant':<16}{'speedup':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for p in rajaperf:
        lines.append(f"{p.kernel:<14}{p.variant:<16}{p.speedup:>8.2f}x")
    paper = {"Base_Seq": 1.74, "Lambda_Seq": 1.61, "RAJA_Seq": 1.65,
             "Base_OpenMP": 7.98, "Lambda_OpenMP": 7.16,
             "RAJA_OpenMP": 7.72}
    lines.append("")
    for variant, value in summary.items():
        if variant == "polybench_avg":
            continue
        lines.append(f"{variant:<16} average {value:>6.2f}x "
                     f"(paper: {paper.get(variant, float('nan')):.2f}x)")
    return "\n".join(lines)


def main(dataset: str = "mini", raja_n: int = 256, jobs: int = 1,
         cache_dir=None, compile_cache: bool = True, engine=None,
         validate: bool = False) -> str:
    polybench = run_fig1_polybench(dataset=dataset, jobs=jobs,
                                   cache_dir=cache_dir,
                                   compile_cache=compile_cache,
                                   engine=engine, validate=validate)
    rajaperf = run_fig1_rajaperf(n=raja_n, jobs=jobs, cache_dir=cache_dir,
                                 compile_cache=compile_cache,
                                 engine=engine, validate=validate)
    text = format_fig1(polybench, rajaperf)
    print(text)
    return text
