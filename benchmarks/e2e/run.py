#!/usr/bin/env python3
"""End-to-end compile+run benchmark of the vpfloat toolchain.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/e2e/run.py --seed 1                  # all workloads
    python3 benchmarks/e2e/run.py --workload sweep-cold --seed 1 \\
        --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --trace-out t.json
    python3 benchmarks/e2e/run.py --seed 1 --repeat 5 --json-out a.json
    python3 benchmarks/e2e/run.py compare a.json b.json
    python3 benchmarks/e2e/run.py --write-expected

Each workload runs in fresh subprocesses, one after another: set-up
probes for ``setup_s``, then one process that sets up and measures a
closed loop (one client, one request at a time, one thread) for
``--seconds``.  Times are CPU seconds of the worker, scaled to the
reference host by the run's own calibrations (``workloads.calibrate``).
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures a third of the time untraced, replays the same
requests once untraced and once with layer spans installed, and
reports the per-layer metrics.  Every output is checked against
``expected.json``.  After each workload run, the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKDIR = HERE / ".work"

#: Set-ups per workload run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Calibrations after each set-up, to scale ``setup_s``.
SETUP_CALIBRATIONS = 9
#: Units of times, scaled down by the host slowdown, and of rates,
#: scaled up by it; counts, ratios and memory are not scaled.
TIME_UNITS = ("ms", "s", "s/request", "ns")
RATE_UNITS = ("requests/s",)


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def import_toolchain() -> None:
    """Put ``src/`` on the path; fail unless the toolchain is there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no toolchain sources at {SRC}; run from "
                         "a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))


def p90(values) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


# ----------------------------------------------------------------- #
# Worker: one fresh process per phase
# ----------------------------------------------------------------- #

def worker_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py worker")
    parser.add_argument("--phase", choices=("fill", "setup", "measure"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--expected", type=Path)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    import_toolchain()
    import workloads

    expected = workloads.load_expected(args.expected or
                                       workloads.EXPECTED_PATH)
    workload = workloads.make_workload(args.workload, args.seed, expected,
                                       args.workdir, args.limit)
    if args.phase == "fill":
        workload.fill()
        result = {}
    else:
        workload.setup()
        # CPU seconds since the process started: interpreter start-up,
        # imports, point lists and the set-up requests.
        setup_s = time.process_time()
        slowdown = workloads.host_slowdown(
            [workloads.calibrate() for _ in range(SETUP_CALIBRATIONS)])
        result = {"setup_s": setup_s, "setup_slowdown": slowdown}
        if args.phase == "measure":
            measure = measure_traced if args.trace else measure_untraced
            result.update(measure(workload, args))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def tally(samples) -> dict:
    errors = [s.error for s in samples if s.error is not None]
    wrong = [s.wrong for s in samples if s.wrong is not None]
    return {"attempted": len(samples), "errors": len(errors),
            "wrong": len(wrong), "failed": len(errors) + len(wrong),
            "problems": (errors + wrong)[:5]}


def measure_untraced(workload, args) -> dict:
    """Raw end-to-end metrics (CPU times, before host scaling)."""
    from workloads import host_slowdown, measure

    run = measure(workload, args.seconds)
    requests = [s.request_s for s in run.samples]
    ok = [s for s in run.samples if s.error is None]
    compiles = [s.compile_s for s in ok if s.compile_s is not None]
    if not workload.compiles:  # exec-large: its between-round compiles
        compiles = [statistics.median(times)
                    for times in workload.compile_s.values()]
    tail = p90(requests)
    metrics = {
        "points_per_s": len(requests) / sum(requests),
        "request_ms_p50": 1e3 * statistics.median(requests),
        "request_ms_p90": 1e3 * tail,
        "compile_ms_p50": 1e3 * statistics.median(compiles or [0.0]),
        "run_ms_p50": 1e3 * statistics.median([s.run_s for s in ok]
                                              or [0.0]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"raw_metrics": metrics,
            "slowdown": host_slowdown(run.calibrations),
            "calibrations": len(run.calibrations),
            "p90_beyond": sum(r > tail for r in requests),
            **tally(run.samples)}


def measure_traced(workload, args) -> dict:
    """Raw per-layer metrics of a traced replay."""
    from layers import Trace, install, layer_metrics
    from workloads import host_slowdown, measure

    # A first untraced pass pays the process's first-use costs, so the
    # untraced and traced replays of its requests compare like for like.
    first = measure(workload, args.seconds / 3)
    count = len(first.samples)
    untraced = measure(workload, float("inf"), count=count)
    trace = Trace()
    install(trace)
    try:
        traced = measure(workload, float("inf"), count=count, trace=trace)
    finally:
        trace.uninstall()
    metrics = layer_metrics(trace, count)
    # Each replay scaled by its own calibrations, so host drift between
    # the two does not read as tracing overhead.
    metrics["trace.overhead"] = (
        trace.request_time() / host_slowdown(traced.calibrations)) / (
        sum(s.request_s for s in untraced.samples)
        / host_slowdown(untraced.calibrations))
    metrics["runtime.cache_model.s"] = \
        workload.cache_model_cost() if workload.name == "exec-large" else 0.0
    if args.trace_out is not None:
        trace.write_chrome(args.trace_out)
    calibrations = first.calibrations + untraced.calibrations + \
        traced.calibrations
    return {"raw_metrics": metrics, "fallbacks": dict(trace.fallbacks),
            "slowdown": host_slowdown(calibrations),
            "calibrations": len(calibrations),
            **tally(first.samples + untraced.samples + traced.samples)}


def scaled(value: float, unit: str, slowdown: float) -> float:
    """A raw measurement as it would read on the reference host."""
    if unit in TIME_UNITS:
        return value / slowdown
    if unit in RATE_UNITS:
        return value * slowdown
    return value


# ----------------------------------------------------------------- #
# Parent: one workload run = fill / set-up probes / measure processes
# ----------------------------------------------------------------- #

class WorkerFailed(RuntimeError):
    pass


def spawn(phase: str, args, workload: str, workdir: Path,
          trace_out=None) -> dict:
    result = workdir / f"{phase}-{time.monotonic_ns()}.json"
    command = [sys.executable, str(HERE / "run.py"), "worker",
               "--phase", phase, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--result", str(result)]
    for flag, value in (("--limit", args.limit),
                        ("--expected", args.expected),
                        ("--trace-out", trace_out)):
        if value is not None:
            command += [flag, str(value)]
    try:
        completed = subprocess.run(command, stdout=sys.stderr,
                                   timeout=2 * args.seconds + 150)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {phase}: timed out") from exc
    if completed.returncode != 0 or not result.is_file():
        raise WorkerFailed(f"{workload} {phase}: worker exited with "
                           f"code {completed.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(args, workload: str, declared: list,
                 trace_out=None) -> dict:
    """One run: its processes, then raw measurements scaled to the
    reference host by the run's own calibrations."""
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORKDIR))
    try:
        if workload == "sweep-warm":
            spawn("fill", args, workload, workdir)
        setups = []
        if not args.trace:
            setups = [spawn("setup", args, workload, workdir)
                      for _ in range(SETUP_SAMPLES - 1)]
        result = spawn("measure", args, workload, workdir, trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()  # unless another run still uses it
        except OSError:
            pass
    result.update(workload=workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds)
    units = {m["name"]: m["unit"] for m in declared}
    result["metrics"] = {
        name: scaled(value, units[name], result["slowdown"])
        for name, value in result["raw_metrics"].items()}
    if not args.trace:
        setups.append(result)
        result["setup_samples"] = [s["setup_s"] / s["setup_slowdown"]
                                   for s in setups]
        result["metrics"]["setup_s"] = \
            statistics.median(result["setup_samples"])
    return result


def result_line(result: dict, declared: list) -> dict:
    """The result line of a run; fails unless the run produced
    exactly the metrics ``BENCHMARK.json`` declares."""
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(names))} differ between "
            "the run and BENCHMARK.json")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in declared}}


def print_report(result: dict, declared: list) -> None:
    print(f"{result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  requests={result['attempted']}  "
          f"errors={result['errors']}  wrong={result['wrong']}")
    for m in declared:
        value = result["metrics"][m["name"]]
        note = ""
        if m["name"] == "request_ms_p90":
            note = (f"  ({result['p90_beyond']} of {result['attempted']} "
                    "samples beyond)")
        elif m["name"] == "setup_s":
            note = "  (median of " + ", ".join(
                f"{s:.3f}" for s in result["setup_samples"]) + ")"
        print(f"  {m['name']:<32} {value:>14.6g} {m['unit']}{note}")
    print(f"  host slowdown {result['slowdown']:.4f} (median of "
          f"{result['calibrations']} calibrations): CPU times were "
          "divided by it, rates multiplied")
    attempted = max(1, result["attempted"])
    if not result["trace"]:
        print(f"  {'error_rate':<32} {result['errors'] / attempted:>14.6g}"
              " raised/attempted")
        print(f"  {'wrong_rate':<32} {result['wrong'] / attempted:>14.6g}"
              " wrong/attempted")
    for reason, count in sorted(result.get("fallbacks", {}).items()):
        print(f"  pyjit.fallbacks[{reason}] = {count}")
    for problem in result["problems"]:
        print(f"  ! {problem}")


def envelope() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_rev": rev,
            "machine": platform.machine()}


def main(argv) -> int:
    # Turn SIGTERM into SystemExit so a running worker is killed and
    # reaped, and the work directory removed, before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv[:1] == ["worker"]:
        return worker_main(argv[1:])
    if argv[:1] == ["compare"]:
        from compare import compare_main
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="End-to-end compile+run benchmark (see README.md).")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path,
                        help="Chrome trace-event file of a --trace 1 run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload")
    parser.add_argument("--json-out", type=Path,
                        help="write every run, with a host envelope")
    parser.add_argument("--limit", type=int,
                        help="only the first N points (smoke runs)")
    parser.add_argument("--expected", type=Path,
                        help="reference file (default: expected.json)")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json over the full grid")
    args = parser.parse_args(argv)
    import_toolchain()
    if args.write_expected:
        from reference import generate
        data = generate()
        print(f"expected.json: {len(data['points'])} points, "
              f"{len(data['findings'])} findings")
        for key, finding in sorted(data["findings"].items()):
            print(f"  {key}: {finding}")
        return 0
    from workloads import WORKLOADS

    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    runs = []
    try:
        for _ in range(args.repeat):
            for workload in names:
                trace_out = args.trace_out
                if trace_out is not None and len(names) > 1:
                    trace_out = trace_out.with_name(
                        f"{trace_out.stem}-{workload}{trace_out.suffix}")
                result = run_workload(args, workload, declared, trace_out)
                runs.append(result)
                print_report(result, declared)
                print(json.dumps(result_line(result, declared)),
                      flush=True)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.json_out is not None and runs:
            args.json_out.write_text(json.dumps(
                {"envelope": envelope(), "runs": runs}, indent=1) + "\n",
                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
