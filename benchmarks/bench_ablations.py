"""Ablation benches for the design choices DESIGN.md calls out.

Each toggles one optimization of the MPFR backend (or the Polly-lite /
loop-idiom machinery) and quantifies its contribution on a
representative kernel.  The module
runs two ways:

* under pytest-benchmark (the perf-gate path): each ablation is one
  test asserting its invariant;
* standalone, emitting the v2 reproducibility-envelope JSON artifact
  the other benches produce::

      PYTHONPATH=src python benchmarks/bench_ablations.py --json-out out.json
"""

import argparse
import json
import sys

from repro.evaluation.harness import run_kernel
from repro.observability import reproducibility_envelope

BENCH_FORMAT_VERSION = 2  # v2: carries the reproducibility envelope


def _cycles(kernel, n=8, prec=128, **kwargs):
    return run_kernel(kernel, f"vpfloat<mpfr, 16, {prec}>", n,
                      backend="mpfr", read_outputs=False,
                      **kwargs).report.cycles


# ----------------------------------------------------------------- #
# Ablation measurements (shared by the tests and the JSON artifact)
# ----------------------------------------------------------------- #

def ablate_reuse() -> dict:
    """Paper §III-C1 item 7: reuse of dead MPFR objects."""
    on = _cycles("durbin", n=12)
    off = _cycles("durbin", n=12, reuse_objects=False)
    return {"cycles_on": on, "cycles_off": off,
            "gain": round(off / on, 3)}


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
    """The +/-Polly axis of Figs. 1-2: tiling a large-working-set gemm."""
    off = run_kernel("gemm", "double", 40, backend="none",
                     read_outputs=False).report
    on = run_kernel("gemm", "double", 40, backend="none",
                    polly=True, read_outputs=False).report
    return {"l1_hits_polly": on.cache_hits[0],
            "l1_hits_plain": off.cache_hits[0],
            "llc_miss_polly": on.llc_misses,
            "llc_miss_plain": off.llc_misses}


# ----------------------------------------------------------------- #
# pytest-benchmark entry points (the perf-gate path)
# ----------------------------------------------------------------- #

class TestObjectReuseAblation:
    def test_reuse_on_vs_off(self, benchmark):
        row = benchmark.pedantic(ablate_reuse, rounds=1, iterations=1)
        assert row["cycles_on"] <= row["cycles_off"]  # reuse never hurts
        benchmark.extra_info.update(row)


class TestSpecializationAblation:
    def test_specialize_on_vs_off(self, benchmark):
        row = benchmark.pedantic(ablate_specialize, rounds=1,
                                 iterations=1)
        assert row["cycles_on"] < row["cycles_off"]
        benchmark.extra_info.update(row)


class TestInPlaceStoresAblation:
    def test_in_place_on_vs_off(self, benchmark):
        row = benchmark.pedantic(ablate_in_place, rounds=1, iterations=1)
        assert row["cycles_on"] < row["cycles_off"]
        benchmark.extra_info.update(row)


class TestLoopIdiomAblation:
    def test_idiom_on_vs_off(self, benchmark):
        row = benchmark.pedantic(ablate_loop_idiom, rounds=1,
                                 iterations=1)
        # idiom may be neutral on this kernel
        assert row["cycles_on"] <= row["cycles_off"] * 1.02
        benchmark.extra_info.update(row)


class TestPollyAblation:
    def test_polly_on_vs_off(self, benchmark):
        row = benchmark.pedantic(ablate_polly, rounds=1, iterations=1)
        # Tiling must not lose L1 locality; report both hit counts.
        assert row["llc_miss_polly"] <= row["llc_miss_plain"] * 1.5
        benchmark.extra_info.update(row)


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
