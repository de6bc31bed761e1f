"""Figure 3: Conjugate Gradient iterations and runtime vs precision.

CG on the bcsstk20 stand-in (DESIGN.md substitution: same SPD stiffness
structure and ~1e12 condition number, scaled down).  Reproduced claims:

- higher precision -> fewer iterations (monotone, as in the paper);
- execution time drops rapidly at first (fewer iterations dominate),
  reaches a plateau/minimum, then *slowly increases* as per-iteration
  cost keeps growing while iterations stop improving;
- vpfloat outperforms Boost by ~1.5x at the same precision and a
  Julia-style dynamically-typed implementation by >9x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..solvers import SweepPoint, bcsstk20_like, precision_sweep, rhs_for
from .parallel import parallel_map

DEFAULT_PRECISIONS = (60, 80, 100, 140, 200, 300, 400, 500, 700, 900, 1100)


@dataclass
class Fig3Result:
    points: List[SweepPoint]
    matrix_size: int
    condition: float

    @property
    def plateau_precision(self) -> int:
        """Precision with minimum modeled vpfloat time."""
        best = min(self.points, key=lambda p: p.cycles_vpfloat)
        return best.precision

    def boost_ratio_at(self, precision: int) -> Optional[float]:
        for p in self.points:
            if p.precision == precision:
                return p.cycles_boost / p.cycles_vpfloat
        return None

    def julia_ratio_at(self, precision: int) -> Optional[float]:
        for p in self.points:
            if p.precision == precision:
                return p.cycles_julia / p.cycles_vpfloat
        return None


def _sweep_point(n: int, condition: float, precision: int,
                 tolerance: float, max_iterations: int) -> SweepPoint:
    """One precision of the CG sweep.  The matrix build is
    deterministic (seeded), so every worker reconstructs the same
    system rather than shipping it across the process boundary."""
    matrix = bcsstk20_like(n=n, condition=condition)
    b = rhs_for(matrix)
    return precision_sweep(matrix, b, (precision,), tolerance,
                           max_iterations)[0]


def run_fig3(n: int = 64, condition: float = 3.9e12,
             precisions: Sequence[int] = DEFAULT_PRECISIONS,
             tolerance: float = 1e-12,
             max_iterations: int = 4000, jobs: int = 1) -> Fig3Result:
    tasks = [(n, condition, prec, tolerance, max_iterations)
             for prec in precisions]
    # CG compiles nothing (it runs on the BLAS layer directly), so the
    # engine is used purely for sharding; jobs=1 runs in-process.
    points = parallel_map(_sweep_point, tasks, jobs=jobs,
                          compile_cache=False)
    return Fig3Result(points=points, matrix_size=n, condition=condition)


def format_fig3(result: Fig3Result) -> str:
    lines = [f"Figure 3 -- CG on bcsstk20 stand-in "
             f"(n={result.matrix_size}, cond~{result.condition:.1e})", ""]
    header = (f"{'prec(bits)':>10}{'iterations':>12}{'converged':>11}"
              f"{'t_vpfloat':>12}{'t_boost':>12}{'t_julia':>12}")
    lines.append(header)
    lines.append("-" * len(header))
    for p in result.points:
        lines.append(
            f"{p.precision:>10}{p.iterations:>12}"
            f"{'yes' if p.converged else 'no':>11}"
            f"{p.cycles_vpfloat:>12.3g}{p.cycles_boost:>12.3g}"
            f"{p.cycles_julia:>12.3g}"
        )
    lines.append("")
    lines.append(f"runtime minimum at {result.plateau_precision} bits "
                 f"(paper: plateau around 700 bits on the full-size "
                 f"bcsstk20)")
    plateau = result.plateau_precision
    boost = result.boost_ratio_at(plateau)
    julia = result.julia_ratio_at(plateau)
    if boost:
        lines.append(f"Boost/vpfloat at the plateau: {boost:.2f}x "
                     f"(paper: 1.51x)")
    if julia:
        lines.append(f"Julia/vpfloat at the plateau: {julia:.2f}x "
                     f"(paper: >9x)")
    return "\n".join(lines)


def main(n: int = 64, jobs: int = 1) -> str:
    text = format_fig3(run_fig3(n=n, jobs=jobs))
    print(text)
    return text
