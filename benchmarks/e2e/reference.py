"""Generate ``expected.json``: reference digests and pinned cycles.

Every grid point any seed can draw gets two runs:

* the **reference**: ``backend="none"``, ``opt_level=0``,
  ``engine="legacy"``.  It skips -O3, every lowering, unum isel and the
  machine, the jit, the kernel tiers, the batch engine and the compile
  cache, so it shares no code with the toolchain paths under test
  beyond the frontend, irgen and the arithmetic library;
* the **front-door** request the benchmark times (-O3, the point's
  backend, default engine, a fresh compile cache), whose modeled cycles
  are pinned.

An mpfr or boost point is expected to reproduce the reference digest
exactly.  The unum coprocessor rounds in its own working precision, so
a unum point pins its machine digest and records how many bits it
agrees with the reference to; it must agree to within 8 bits of the
format's precision.  Points that raise, or whose outputs miss the
reference, are recorded as findings and are never drawn by a workload.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from repro.core import CompileCache, CompilerDriver
from repro.evaluation import harness
from repro.validation.certificate import values_digest
from repro.workloads.polybench import KERNELS

from workloads import EXPECTED_PATH, Point, all_grid_points, \
    compile_point, execute

#: Bits below the format's precision a unum output may lose against the
#: reference before the point counts as wrong.
UNUM_SLACK_BITS = 8

REFERENCE = "backend=none opt_level=0 engine=legacy"


def reference_outputs(point: Point) -> list:
    program = CompilerDriver(backend="none", opt_level=0,
                             engine="legacy").compile(point.source(),
                                                      name=point.name)
    result = program.run("run", [point.n])
    return harness.read_lane_outputs(
        result.interpreter, int(result.value),
        KERNELS[point.kernel].outputs(point.n), point.ftype, "none")


def _exact(value) -> Fraction:
    if getattr(value, "kind", None) is not None:
        if not value.is_finite() or value.is_zero():
            return Fraction(0)
        return Fraction((-1) ** value.sign * value.mant) * \
            Fraction(2) ** value.exp
    return Fraction(value)


def agreement_bits(outputs: list, reference: list) -> int:
    """-log2 of max |x - ref| / max(1, max |ref|), capped at 1024."""
    scale = max([Fraction(1)] + [abs(_exact(r)) for r in reference])
    worst = max(abs(_exact(x) - _exact(r))
                for x, r in zip(outputs, reference))
    if worst == 0:
        return 1024
    return min(1024, math.floor(-math.log2(worst / scale)))


def generate(path: Path = EXPECTED_PATH, log=sys.stderr) -> dict:
    points: dict = {}
    findings: dict = {}
    references: dict = {}
    grid = all_grid_points()
    with tempfile.TemporaryDirectory(dir=path.parent) as workdir:
        for index, point in enumerate(grid):
            ref_key = (point.kernel, point.ftype, point.n)
            if ref_key not in references:
                references[ref_key] = reference_outputs(point)
            reference = references[ref_key]
            cache = CompileCache(str(Path(workdir) / f"p{index}"))
            try:
                outcome = execute(point, compile_point(point, point.source(),
                                                       cache))
            except Exception as exc:
                findings[point.key] = \
                    f"raises {type(exc).__name__}: {str(exc)[:120]}"
                continue
            outputs = outcome.outputs[0]
            digest = values_digest(outputs)
            entry = {"digest": digest, "cycles": outcome.report.cycles}
            if any(values_digest(lane) != digest
                   for lane in outcome.outputs[1:]):
                findings[point.key] = "batch lanes differ from lane 0"
            elif point.backend == "unum":
                bits = agreement_bits(outputs, reference)
                precision = outputs[0].prec if outputs else 0
                entry["ref_bits"] = bits
                if bits < min(precision, 1024) - UNUM_SLACK_BITS:
                    findings[point.key] = (f"agrees with the reference to "
                                           f"{bits} of {precision} bits")
            elif digest != values_digest(reference):
                differ = sum(values_digest([a]) != values_digest([b])
                             for a, b in zip(outputs, reference))
                findings[point.key] = (f"{differ}/{len(reference)} outputs "
                                       "differ from the reference")
            if point.key not in findings:
                points[point.key] = entry
            if log is not None and (index + 1) % 50 == 0:
                print(f"  {index + 1}/{len(grid)} grid points, "
                      f"{len(findings)} findings", file=log, flush=True)
    data = {"format": 1, "reference": REFERENCE, "points": points,
            "findings": findings}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return data
