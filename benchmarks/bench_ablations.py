"""Ablation benches for the design choices DESIGN.md calls out.

Each toggles one optimization of the MPFR backend (or the Polly-lite /
loop-idiom machinery) and quantifies its contribution on a
representative kernel.  Run standalone, it prints one row per
ablation and writes the v2 reproducibility-envelope JSON artifact the
other benches produce::

    PYTHONPATH=src python benchmarks/bench_ablations.py --json-out out.json

``tests/test_backend_mpfr.py`` runs the same measurements and asserts
each row's invariant.
"""

import argparse
import json
import sys

from repro.evaluation.harness import run_kernel
from repro.observability import reproducibility_envelope

BENCH_FORMAT_VERSION = 2  # v2: carries the reproducibility envelope


def _report(kernel, n=8, prec=128, **kwargs):
    return run_kernel(kernel, f"vpfloat<mpfr, 16, {prec}>", n,
                      backend="mpfr", read_outputs=False,
                      **kwargs).report


def _cycles(kernel, n=8, prec=128, **kwargs):
    return _report(kernel, n, prec, **kwargs).cycles


# ----------------------------------------------------------------- #
# Ablation measurements (shared by the tests and the JSON artifact)
# ----------------------------------------------------------------- #

def ablate_reuse() -> dict:
    """Paper §III-C1 item 7: reuse of dead MPFR objects.

    On heat-3d reuse saves both MPFR allocations and cycles; on many
    kernels (durbin among them) it changes neither."""
    on = _report("heat-3d", n=6)
    off = _report("heat-3d", n=6, reuse_objects=False)
    return {"cycles_on": on.cycles, "cycles_off": off.cycles,
            "mpfr_allocations_on": on.mpfr_allocations,
            "mpfr_allocations_off": off.mpfr_allocations,
            "gain": round(off.cycles / on.cycles, 3)}


def ablate_specialize() -> dict:
    """Paper item 2: mpfr_*_d / _si specialized entry points.

    deriche's filter coefficients are *runtime* doubles (built from
    exp()), exactly the case the _d entry points cover; compile-time
    double literals are hoisted as MPFR constants instead and are
    specialization-neutral."""
    on = _cycles("deriche", n=10)
    off = _cycles("deriche", n=10, specialize_scalars=False)
    return {"cycles_on": on, "cycles_off": off,
            "gain": round(off / on, 3)}


def ablate_in_place() -> dict:
    """Paper: 'performs in-place operation' -- dest aliases the element."""
    on = _cycles("gemm", n=8)
    off = _cycles("gemm", n=8, in_place_stores=False)
    return {"cycles_on": on, "cycles_off": off,
            "gain": round(off / on, 3)}


def ablate_loop_idiom() -> dict:
    """Paper §III-B: memset/memcpy recognition (unum types only)."""
    kwargs = {"backend": "unum", "read_outputs": False}
    on = run_kernel("jacobi-1d", "vpfloat<unum, 3, 6>", 48,
                    **kwargs).report.cycles
    off = run_kernel("jacobi-1d", "vpfloat<unum, 3, 6>", 48,
                     disable_passes=("loop-idiom",),
                     **kwargs).report.cycles
    return {"cycles_on": on, "cycles_off": off}


def ablate_polly() -> dict:
    """The +/-Polly axis of Figs. 1-2: tiling a large-working-set gemm.

    At n=64 double gemm's rows outgrow the modeled L1, so tiling shows
    as fewer L1 misses (accesses L2 serves, ``cache_hits[1]``).  The
    LLC misses are cold misses either way: the whole problem fits in
    the modeled L3."""
    off = run_kernel("gemm", "double", 64, backend="none",
                     read_outputs=False).report
    on = run_kernel("gemm", "double", 64, backend="none",
                    polly=True, read_outputs=False).report
    return {"l1_misses_polly": on.cache_hits[1],
            "l1_misses_plain": off.cache_hits[1],
            "llc_miss_polly": on.llc_misses,
            "llc_miss_plain": off.llc_misses,
            "cycles_polly": on.cycles,
            "cycles_plain": off.cycles}


# ----------------------------------------------------------------- #
# Standalone JSON artifact
# ----------------------------------------------------------------- #

ABLATIONS = {
    "object_reuse": ablate_reuse,
    "scalar_specialization": ablate_specialize,
    "in_place_stores": ablate_in_place,
    "loop_idiom": ablate_loop_idiom,
    "polly_tiling": ablate_polly,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json-out", metavar="FILE", default=None,
                        help="write the ablation rows as JSON "
                             "(CI artifact)")
    args = parser.parse_args(argv)
    document = {"version": BENCH_FORMAT_VERSION,
                "meta": reproducibility_envelope(), "ablations": {}}
    for name, measure in ABLATIONS.items():
        row = measure()
        document["ablations"][name] = row
        shape = ", ".join(f"{k}={v}" for k, v in sorted(row.items()))
        print(f"{name:<22} {shape}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"results written to {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
