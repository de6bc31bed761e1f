"""Speedup benchmark for the precision-specialized kernel tier.

Measures the tiered smallfloat kernels (fixed-width-int significands,
inlined rounding; tier-1 <= 64 bits, tier-2 <= 128 bits) against the
generic specialized kernels on the *actual operand streams* a jit gemm
run feeds them: the streams are recorded from one instrumented run per
precision, then replayed through both kernel families under the timer.

Verifies bit-identity while it measures -- three digest assertions per
configuration:

* the gemm run's value + output array on the jit (which binds the
  tiered kernels) must equal the ``engine="legacy"`` run (the library
  arithmetic) exactly;
* both runs' CostReport snapshots must be identical (the tier is a
  strength reduction, not a cost-model change);
* every replayed op must produce bit-identical results across the two
  kernel families.

Asserts the per-op speedup floors (>= 2x at 24--64-bit, >= 1.5x at
128-bit; both scaled by ``$VPFLOAT_BENCH_FLOOR_SCALE``) and emits a
JSON document next to the other bench artifacts.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_tiers.py
    PYTHONPATH=src python benchmarks/bench_kernel_tiers.py --quick
    PYTHONPATH=src python benchmarks/bench_kernel_tiers.py --json-out out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bigfloat.rounding import RNDN
from repro.codegen import pyjit
from repro.codegen.kernels import specialized_kernel
from repro.codegen.smallfloat import smallfloat_kernel
from repro.evaluation.harness import run_kernel
from repro.observability import bench_floor_scale, \
    reproducibility_envelope
from repro.validation.certificate import report_snapshot, value_token, \
    values_digest

BENCH_FORMAT_VERSION = 4  # v4: the digest check's reference is legacy
KERNEL = "gemm"
PRECISIONS = (24, 53, 64, 128)
SCALAR_FLOORS = {24: 2.0, 53: 2.0, 64: 2.0, 128: 1.5}


# ----------------------------------------------------------------- #
# Operand-stream recording (one instrumented gemm run per precision)
# ----------------------------------------------------------------- #

def record_streams(prec: int, n: int):
    """Run gemm once under the tiered kernels with every scalar kernel
    call recorded; -> {(op, exp_bits): [args, ...]}."""
    streams: dict = {}
    original = pyjit.select_scalar_kernel

    def recording(op, kp, exp_bits, *extra, **kwargs):
        kernel = original(op, kp, exp_bits, *extra, **kwargs)
        if kp != prec:
            return kernel
        stream = streams.setdefault((op, exp_bits), [])

        def recorded(*args, _k=kernel, _s=stream):
            _s.append(args)
            return _k(*args)

        return recorded

    pyjit.select_scalar_kernel = recording
    try:
        run_kernel(KERNEL, f"vpfloat<mpfr, 16, {prec}>", n,
                   backend="mpfr", engine="jit", read_outputs=False)
    finally:
        pyjit.select_scalar_kernel = original
    return streams


def replay_seconds(kernel, stream, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        for args in stream:
            kernel(*args)
        best = min(best, time.perf_counter() - started)
    return best


def bench_scalar(prec: int, n: int, reps: int, failures) -> dict:
    """Digest-check gemm's jit run against the legacy walker, then
    replay its recorded operand streams through both kernel families;
    -> the JSON row."""
    ftype = f"vpfloat<mpfr, 16, {prec}>"
    outcomes = {
        engine: run_kernel(KERNEL, ftype, n, backend="mpfr", engine=engine)
        for engine in ("jit", "legacy")
    }
    digests = {engine: values_digest([o.value] + list(o.outputs))
               for engine, o in outcomes.items()}
    if digests["jit"] != digests["legacy"]:
        failures.append(f"gemm@{prec}: tiered jit outputs diverge from "
                        f"the legacy walker ({digests['jit']} != "
                        f"{digests['legacy']})")
    reports = {engine: report_snapshot(o.report)
               for engine, o in outcomes.items()}
    if reports["jit"] != reports["legacy"]:
        failures.append(f"gemm@{prec}: tiered jit CostReport differs "
                        f"from the legacy walker")

    streams = record_streams(prec, n)
    ops = {}
    tiered_total = generic_total = 0.0
    for (op, exp_bits), stream in sorted(streams.items()):
        tiered = smallfloat_kernel(op, prec, RNDN, exp_bits)
        generic = specialized_kernel(op, prec, RNDN, exp_bits)
        mismatches = sum(
            value_token(tiered(*args)) != value_token(generic(*args))
            for args in stream)
        if mismatches:
            failures.append(f"gemm@{prec} {op}: {mismatches} replayed "
                            f"op(s) diverge between tiers")
        t_tiered = replay_seconds(tiered, stream, reps)
        t_generic = replay_seconds(generic, stream, reps)
        tiered_total += t_tiered
        generic_total += t_generic
        ops[op] = {"count": len(stream),
                   "tiered_seconds": t_tiered,
                   "generic_seconds": t_generic,
                   "speedup": t_generic / t_tiered if t_tiered
                   else float("inf")}
    speedup = generic_total / tiered_total if tiered_total \
        else float("inf")
    floor = SCALAR_FLOORS[prec] * bench_floor_scale()
    total = sum(row["count"] for row in ops.values())
    print(f"gemm@{prec:>3}: {total:>6} recorded op(s)  "
          f"per-op speedup {speedup:5.2f}x  (floor {floor:.2f}x)  "
          f"digest {digests['jit']}")
    for op, row in sorted(ops.items()):
        print(f"    {op:<4} x{row['count']:<6} "
              f"{row['speedup']:5.2f}x")
    if speedup < floor:
        failures.append(f"gemm@{prec}: per-op speedup {speedup:.2f}x "
                        f"below the {floor:.2f}x floor")
    return {"prec": prec, "n": n, "ops": ops,
            "speedup_vs_generic": speedup, "floor": floor,
            "digest": digests["jit"],
            "cycles": reports["jit"]["cycles"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller gemm, fewer reps "
                             "(CI smoke mode; the floors still apply)")
    parser.add_argument("--reps", type=int, default=None,
                        help="replay repetitions per kernel "
                             "(default 5, quick 3)")
    parser.add_argument("--json-out", metavar="FILE", default=None,
                        help="write the sweep results as JSON "
                             "(CI artifact)")
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (3 if args.quick
                                                    else 5)
    gemm_n = 6 if args.quick else 8

    failures: list = []
    document = {"version": BENCH_FORMAT_VERSION, "kernel": KERNEL,
                "quick": args.quick, "reps": reps,
                "floor_scale": bench_floor_scale(),
                "meta": reproducibility_envelope(),
                "scalar": []}
    print(f"bench_kernel_tiers: {KERNEL} n={gemm_n}, {reps} rep(s)")
    for prec in PRECISIONS:
        document["scalar"].append(bench_scalar(prec, gemm_n, reps,
                                               failures))

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"results written to {args.json_out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: tiered jit outputs and CostReports bit-identical to "
              "the legacy walker, replayed ops bit-identical across "
              "kernel families, speedup floors met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
