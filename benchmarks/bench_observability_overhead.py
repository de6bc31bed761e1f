"""Telemetry overhead benchmark: disabled must be (near) free.

The observability layer's contract is that with no tracer/registry
installed, the hot paths carry no telemetry work: the interpreter and
the jit never consult a sink, and the layer boundaries' ``observe()``
returns a shared no-op, so the disabled configuration executes the
same code as before the subsystem existed.
This benchmark measures that on the jit ``gemm`` pipeline (specialized
source + MPFR pool, one interpreter reused across repetitions -- the
steady-state evaluation-harness shape):

* **control** -- disabled-mode runs in a fresh process state;
* **disabled** -- disabled-mode runs *after* a telemetry session has
  been installed and torn down (proves no residue is left behind);
* **enabled** -- runs inside a trace+metrics session, reported for
  information (the driver boundary's spans and counters may cost
  something).

Both disabled samples interleave with the control and use min-of-reps
timing, so scheduler noise cancels; the assertion is that the disabled
mode stays within the noise floor (<2%) of the control.

Usage::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py
    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from repro.core import CompilerDriver
from repro.observability import install_telemetry, ledger_session, \
    telemetry_session
from repro.workloads.polybench import source_for

FTYPE = "vpfloat<mpfr, 16, 256>"

#: Disabled overhead floor asserted by this benchmark (fraction).
OVERHEAD_LIMIT = 0.02


def _timed_run(interp, n: int) -> float:
    started = time.perf_counter()
    interp.run("run", [n])
    return time.perf_counter() - started


def bench(n: int, reps: int, quick: bool) -> int:
    source = source_for("gemm", FTYPE)
    program = CompilerDriver(backend="mpfr").compile(source, name="gemm")

    # One jit interpreter per mode (mpfr: free list on), warmed
    # before timing.
    control_interp = program.interpreter(engine="jit")
    control_interp.run("run", [n])

    # Install + tear down a real telemetry session (and a run-ledger
    # session -- its hook lives on the driver's run path), then build
    # the "disabled" interpreter: the teardown must leave no residue
    # on the run path.
    with tempfile.TemporaryDirectory() as tmp:
        with telemetry_session(trace=True, metrics=True):
            with ledger_session(os.path.join(tmp, "ledger.jsonl")):
                program.run("run", [n], engine="jit")
    disabled_interp = program.interpreter(engine="jit")
    disabled_interp.run("run", [n])

    control = []
    disabled = []
    for _ in range(reps):
        # Interleave A/B so drift hits both samples equally.
        control.append(_timed_run(control_interp, n))
        disabled.append(_timed_run(disabled_interp, n))

    # Driver-level pair: ``program.run`` is where the run-ledger hook
    # lives (one ``current_ledger()`` consult per execution, a record
    # append when enabled).  Interleaved min-of-reps like above.
    def _timed_program_run():
        started = time.perf_counter()
        program.run("run", [n], engine="jit")
        return time.perf_counter() - started

    ledger_off = []
    ledger_on = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        _timed_program_run()  # warm
        for _ in range(reps):
            ledger_off.append(_timed_program_run())
            with ledger_session(path):
                ledger_on.append(_timed_program_run())
        ledger_records = sum(1 for line in open(path) if line.strip())

    with telemetry_session(trace=True, metrics=True) as (tracer, registry):
        enabled_interp = program.interpreter(engine="jit")
        enabled_interp.run("run", [n])
        enabled = [_timed_run(enabled_interp, n) for _ in range(reps)]
        # The driver's observe() boundary feeds the sinks.
        program.run("run", [n], engine="jit")
        spans = sum(1 for e in tracer.events if e["ph"] == "X")

    best_control = min(control)
    best_disabled = min(disabled)
    best_enabled = min(enabled)
    best_ledger_off = min(ledger_off)
    best_ledger_on = min(ledger_on)
    overhead = best_disabled / best_control - 1.0
    enabled_overhead = best_enabled / best_control - 1.0
    ledger_overhead = best_ledger_on / best_ledger_off - 1.0

    print(f"kernel=gemm ftype={FTYPE} n={n} reps={reps} (min-of-reps)")
    print(f"control  (never installed):   {best_control * 1e3:9.3f} ms")
    print(f"disabled (after teardown):    {best_disabled * 1e3:9.3f} ms "
          f"({overhead:+.2%})")
    print(f"enabled  (trace + metrics):   {best_enabled * 1e3:9.3f} ms "
          f"({enabled_overhead:+.2%}, {spans} spans, "
          f"{len(registry.counters)} counters)")
    print(f"driver, ledger disabled:      {best_ledger_off * 1e3:9.3f} ms")
    print(f"driver, ledger enabled:       {best_ledger_on * 1e3:9.3f} ms "
          f"({ledger_overhead:+.2%}, {ledger_records} records)")

    failures = []
    if spans <= 0:
        failures.append("enabled session recorded no spans")
    if registry.counter("runtime.mpfr_calls") <= 0:
        failures.append("enabled session recorded no runtime metrics")
    if ledger_records < reps:
        failures.append(f"ledger session recorded {ledger_records} "
                        f"record(s), expected >= {reps}")
    limit = OVERHEAD_LIMIT * (3.0 if quick else 1.0)
    if overhead > limit:
        failures.append(f"disabled-mode overhead {overhead:.2%} exceeds "
                        f"the {limit:.0%} floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"OK: disabled overhead {overhead:+.2%} within "
              f"{limit:.0%}; telemetry recorded when enabled")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem size, relaxed noise floor "
                             "(CI smoke mode)")
    parser.add_argument("-n", type=int, default=None,
                        help="gemm problem size (default 12, quick 6)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per mode (default 7, quick 3)")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (6 if args.quick else 12)
    reps = args.reps if args.reps is not None else (3 if args.quick else 7)
    return bench(n, reps, args.quick)


if __name__ == "__main__":
    sys.exit(main())
