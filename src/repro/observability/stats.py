"""``vpfloat-stats``: render and validate saved telemetry artifacts.

Pretty-print a metrics file produced by ``--metrics-out``::

    vpfloat-stats m.json

Summarize a Chrome trace produced by ``--trace``::

    vpfloat-stats t.json           # file kind is auto-detected

Validate artifact schemas (CI uses this; exits non-zero on failure)::

    vpfloat-stats --validate t.json m.json

(equivalently ``python -m repro.observability.stats ...``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .metrics import MetricsRegistry

#: Chrome trace phases this stack emits (span, instant, counter, meta).
_TRACE_PHASES = {"X", "i", "C", "M"}


class ValidationError(ValueError):
    """A telemetry artifact failed schema validation."""


# ----------------------------------------------------------------- #
# Schema validation
# ----------------------------------------------------------------- #

def validate_metrics_document(data) -> None:
    """Raise :class:`ValidationError` unless ``data`` is a well-formed
    metrics document (the ``--metrics-out`` schema).

    Partial documents are valid: a section that is absent reads as
    empty (a run may legitimately record no histograms, and pruned or
    hand-built files drop whole sections); only a section of the wrong
    shape is an error.
    """
    if not isinstance(data, dict):
        raise ValidationError("metrics document must be a JSON object")
    data = {**{"counters": {}, "gauges": {}, "histograms": {}}, **data}
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(data[section], dict):
            raise ValidationError(f"metrics section {section!r} must be "
                                  f"an object")
    for name, value in data["counters"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"counter {name!r} is not numeric")
    for name, value in data["gauges"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"gauge {name!r} is not numeric")
    for name, hist in data["histograms"].items():
        if not isinstance(hist, dict):
            raise ValidationError(f"histogram {name!r} must be an object")
        for bucket, count in hist.items():
            try:
                float(bucket)
            except ValueError:
                raise ValidationError(
                    f"histogram {name!r} bucket {bucket!r} is not numeric"
                ) from None
            if not isinstance(count, int) or count < 0:
                raise ValidationError(
                    f"histogram {name!r} count for {bucket!r} must be a "
                    f"non-negative integer")


def validate_trace_document(data) -> None:
    """Raise :class:`ValidationError` unless ``data`` is a well-formed
    Chrome trace-event document with sanely nested spans."""
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValidationError("trace document must be an object with a "
                              "'traceEvents' list")
    events = data["traceEvents"]
    if not isinstance(events, list):
        raise ValidationError("'traceEvents' must be a list")
    spans = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValidationError(f"event #{i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValidationError(f"event #{i} missing {key!r}")
        ph = event["ph"]
        if ph not in _TRACE_PHASES:
            raise ValidationError(f"event #{i} has unknown phase {ph!r}")
        if ph != "M" and "ts" not in event:
            raise ValidationError(f"event #{i} ({ph}) missing 'ts'")
        if ph == "X":
            if "dur" not in event or event["dur"] < 0:
                raise ValidationError(
                    f"span #{i} ({event['name']!r}) missing or negative "
                    f"'dur'")
            if event["ts"] < 0:
                raise ValidationError(
                    f"span #{i} ({event['name']!r}) has negative 'ts'")
            spans.append(event)
    _validate_nesting(spans)


def _validate_nesting(spans: List[dict]) -> None:
    """Complete events on one (pid, tid) track must nest or be disjoint;
    partial overlap means broken begin/end pairing."""
    tracks = {}
    for span in spans:
        tracks.setdefault((span["pid"], span["tid"]), []).append(span)
    for (pid, tid), track in tracks.items():
        # Sort by start time, longest-first on ties (parents first).
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[dict] = []
        for span in track:
            while stack and span["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                parent = stack[-1]
                # Tolerate sub-microsecond clock jitter at the edges.
                if span["ts"] + span["dur"] > \
                        parent["ts"] + parent["dur"] + 1.0:
                    raise ValidationError(
                        f"span {span['name']!r} overlaps parent "
                        f"{parent['name']!r} without nesting "
                        f"(pid={pid}, tid={tid})")
            stack.append(span)


# ----------------------------------------------------------------- #
# Rendering
# ----------------------------------------------------------------- #

def render_trace_summary(data: dict) -> str:
    """A text digest of a trace: span counts and total time per
    (category, name), hottest first."""
    events = data.get("traceEvents", [])
    totals = {}
    counts = {}
    pids = set()
    for event in events:
        if event.get("ph") != "X":
            continue
        pids.add(event["pid"])
        key = (event.get("cat", "?"), event["name"])
        totals[key] = totals.get(key, 0.0) + event["dur"]
        counts[key] = counts.get(key, 0) + 1
    lines = [f"trace: {len(events)} events, "
             f"{sum(counts.values())} spans, {len(pids)} process(es)"]
    header = f"  {'category':<10} {'span':<36} {'count':>7} {'total ms':>10}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for key in sorted(totals, key=lambda k: -totals[k]):
        cat, name = key
        lines.append(f"  {cat:<10} {name:<36} {counts[key]:>7} "
                     f"{totals[key] / 1e3:>10.3f}")
    return "\n".join(lines)


def render_codegen_summary(data: dict) -> str:
    """Per-function jit-codegen status, derived from the
    ``codegen.fn.<name>.jit`` / ``codegen.fn.<name>.fallback.<reason>``
    counters. Empty string when the run never touched the jit engine."""
    counters = data.get("counters", {})
    rows = {}
    for name, value in counters.items():
        if not name.startswith("codegen.fn."):
            continue
        parts = name[len("codegen.fn."):].split(".")
        if len(parts) < 2:
            continue
        func = parts[0]
        if parts[1] == "jit":
            rows[func] = ("jit", int(value), "")
        elif parts[1] == "fallback":
            reason = ".".join(parts[2:]) or "?"
            rows[func] = ("fallback", int(value), reason)
    if not rows:
        return ""
    jitted = sum(1 for status, _, _ in rows.values() if status == "jit")
    lines = [f"codegen (jit engine): {len(rows)} function(s), "
             f"{jitted} specialized, {len(rows) - jitted} fell back"]
    header = f"  {'function':<24} {'status':<10} {'calls':>7}  reason"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for func in sorted(rows, key=lambda f: (rows[f][0] != "fallback", f)):
        status, calls, reason = rows[func]
        lines.append(f"  {func:<24} {status:<10} {calls:>7}  "
                     f"{reason}".rstrip())
    return "\n".join(lines)


def render_validation_summary(data: dict) -> str:
    """Translation-validation outcomes, derived from the ``validate.*``
    counters the harness emits (certificates by kind, per-check
    pass/fail, fuzzer and minimizer traffic).  Empty string when the
    run performed no validation."""
    counters = data.get("counters", {})
    certificates = int(counters.get("validate.certificates", 0))
    fuzzed = int(counters.get("validate.fuzz.programs", 0))
    if not certificates and not fuzzed:
        return ""
    passed = int(counters.get("validate.passed", 0))
    failed = int(counters.get("validate.failed", 0))
    lines = [f"validation: {certificates} certificate(s), "
             f"{passed} passed, {failed} failed"]
    checks = {}
    for name, value in counters.items():
        if not name.startswith("validate.check."):
            continue
        parts = name[len("validate.check."):].rsplit(".", 1)
        if len(parts) != 2 or parts[1] not in ("passed", "failed"):
            continue
        label = parts[0]
        ok, bad = checks.get(label, (0, 0))
        if parts[1] == "passed":
            checks[label] = (ok + int(value), bad)
        else:
            checks[label] = (ok, bad + int(value))
    if checks:
        header = f"  {'check':<28} {'passed':>8} {'failed':>8}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for label in sorted(checks):
            ok, bad = checks[label]
            lines.append(f"  {label:<28} {ok:>8} {bad:>8}")
    if fuzzed:
        lines.append(f"  fuzzer: {fuzzed} program(s) cross-checked, "
                     f"{int(counters.get('validate.fuzz.failures', 0))} "
                     f"failure(s)")
    minimized = int(counters.get("validate.minimize.runs", 0))
    if minimized:
        lines.append(f"  minimizer: {minimized} run(s), "
                     f"{int(counters.get('validate.minimize.ops_removed', 0))} "
                     f"op(s) removed, "
                     f"{int(counters.get('validate.minimize.evaluations', 0))} "
                     f"predicate evaluation(s)")
    return "\n".join(lines)


def render_kernel_summary(data: dict) -> str:
    """Scalar-kernel telemetry, derived from the ``kernel.*`` counters
    (ops served, bind sites and per-call fallbacks out of a kernel).
    Empty string when no run bound a kernel."""
    counters = data.get("counters", {})
    if "kernel.ops" not in counters and "kernel.sites" not in counters:
        return ""
    lines = [f"kernels: {int(counters.get('kernel.ops', 0))} scalar "
             f"op(s) over {int(counters.get('kernel.sites', 0))} "
             f"bind site(s)"]
    fallbacks = {name[len("kernel.fallback."):]: int(value)
                 for name, value in counters.items()
                 if name.startswith("kernel.fallback.")}
    if fallbacks:
        shape = ", ".join(f"{reason}: {count}"
                          for reason, count in sorted(fallbacks.items()))
        lines.append(f"  fallbacks to the library: {shape}")
    return "\n".join(lines)


def render_unum_summary(data: dict) -> str:
    """Unum coprocessor telemetry, derived from the ``unum.*`` counters
    :func:`~repro.observability.metrics.absorb_unum_stats` emits (split
    cycle model, dynamic instruction counts, memory traffic, per-opcode
    g-layer ops).  Empty string when the run never used the unum
    backend."""
    counters = data.get("counters", {})
    instructions = int(counters.get("unum.instructions", 0))
    scalar = int(counters.get("unum.scalar_cycles", 0))
    coproc = int(counters.get("unum.coprocessor_cycles", 0))
    if not instructions and not scalar and not coproc:
        return ""
    lines = [f"unum coprocessor: {instructions} instruction(s), "
             f"{scalar} scalar + {coproc} coprocessor cycle(s)"]
    loads = int(counters.get("unum.loads", 0))
    stores = int(counters.get("unum.stores", 0))
    if loads or stores:
        lines.append(
            f"  memory: {loads} load(s) / "
            f"{int(counters.get('unum.bytes_loaded', 0))} B in, "
            f"{stores} store(s) / "
            f"{int(counters.get('unum.bytes_stored', 0))} B out")
    config = int(counters.get("unum.config_writes", 0))
    if config:
        lines.append(f"  g-layer config writes: {config}")
    ops = {name[len("unum.op."):]: int(value)
           for name, value in counters.items()
           if name.startswith("unum.op.")}
    if ops:
        header = f"  {'opcode':<12} {'count':>9}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for opcode in sorted(ops, key=lambda o: (-ops[o], o)):
            lines.append(f"  {opcode:<12} {ops[opcode]:>9}")
    return "\n".join(lines)


def render_ledger_summary(path: str) -> str:
    """A digest of a run-ledger file: record counts per event kind and
    the distinct benchmark keys recorded."""
    from .ledger import comparison_key, read_ledger

    records, problems = read_ledger(path)
    if not records:
        text = "ledger: no data (empty file)" if not problems else \
            f"ledger: no data ({len(problems)} unparsable line(s))"
        return "\n".join([text] + [f"  SKIPPED {p}" for p in problems])
    by_event: dict = {}
    keys = set()
    for record in records:
        event = record.get("event", "?")
        by_event[event] = by_event.get(event, 0) + 1
        key = comparison_key(record)
        if key is not None:
            keys.add(key)
    shape = ", ".join(f"{count} {event}"
                      for event, count in sorted(by_event.items()))
    lines = [f"ledger: {len(records)} record(s) ({shape})"]
    for key in sorted(keys, key=str):
        label = "/".join(str(part) for part in key if part is not None)
        lines.append(f"  {label}")
    for problem in problems:
        lines.append(f"  SKIPPED {problem}")
    return "\n".join(lines)


def _load(path: str):
    with open(path) as handle:
        return json.load(handle)


def _kind(data) -> str:
    if isinstance(data, dict) and "traceEvents" in data:
        return "trace"
    if isinstance(data, dict) and "schema" in data and "event" in data:
        return "ledger"
    if isinstance(data, dict) and ("counters" in data
                                   or "gauges" in data
                                   or "histograms" in data
                                   or "format" in data
                                   or not data):
        # An empty object is a metrics dump that recorded nothing.
        return "metrics"
    raise ValidationError("unrecognized telemetry artifact (expected a "
                          "metrics, Chrome trace, or run-ledger JSON "
                          "document)")


# ----------------------------------------------------------------- #
# CLI
# ----------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfloat-stats",
        description="Render or validate saved vpfloat telemetry "
                    "artifacts (--metrics-out / --trace files and "
                    "run-ledger JSONL files). "
                    "'vpfloat-stats compare A B' gates a candidate "
                    "ledger against a baseline (exit 3 on regression).",
    )
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="metrics, trace, or run-ledger file(s)")
    parser.add_argument("--validate", action="store_true",
                        help="validate schemas only (exit 1 on failure)")
    parser.add_argument("--json", action="store_true",
                        help="echo the parsed document instead of the "
                             "text report")
    return parser


def build_compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfloat-stats compare",
        description="Noise-aware A/B comparison of two run ledgers. "
                    "Deterministic model metrics (cycles, instructions, "
                    "traffic) gate exactly; wall-clock gates on "
                    "median-of-k with a MAD allowance, and only when "
                    "both ledgers came from the same host. Exits 3 on "
                    "regression, 1 on unusable input, else 0.",
    )
    parser.add_argument("baseline", help="baseline ledger (JSONL)")
    parser.add_argument("candidate", help="candidate ledger (JSONL)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable comparison report")
    parser.add_argument("--wall-mad-factor", type=float, default=5.0,
                        help="wall allowance: this many baseline MADs "
                             "above the baseline median (default 5)")
    parser.add_argument("--wall-rel-floor", type=float, default=0.10,
                        help="minimum relative wall allowance "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--det-rel-tol", type=float, default=0.0,
                        help="relative slack on deterministic metrics "
                             "(default 0: the model is bit-exact)")
    parser.add_argument("--gate-wall", choices=("auto", "on", "off"),
                        default="auto",
                        help="gate wall metrics: auto = only when both "
                             "ledgers share a hostname (default)")
    parser.add_argument("--require-overlap", action="store_true",
                        help="fail (exit 1) when the ledgers share no "
                             "comparable benchmark keys -- CI uses this "
                             "so an empty baseline cannot silently pass")
    return parser


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into head/less that exited early: not an error.
        return 0


def _compare_main(argv: List[str]) -> int:
    from .ledger import LedgerError, compare_ledgers, read_ledger

    args = build_compare_parser().parse_args(argv)
    loaded = {}
    for path in (args.baseline, args.candidate):
        try:
            records, problems = read_ledger(path)
        except (OSError, UnicodeDecodeError) as error:
            print(f"{path}: {error}", file=sys.stderr)
            return 1
        for problem in problems:
            print(f"{path}: skipped {problem}", file=sys.stderr)
        loaded[path] = records
    gate_wall = {"auto": None, "on": True, "off": False}[args.gate_wall]
    try:
        regressions, improvements, compared, skipped = compare_ledgers(
            loaded[args.baseline], loaded[args.candidate],
            wall_mad_factor=args.wall_mad_factor,
            wall_rel_floor=args.wall_rel_floor,
            deterministic_rel_tol=args.det_rel_tol,
            gate_wall=gate_wall)
    except LedgerError as error:
        print(str(error), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "baseline": args.baseline,
            "candidate": args.candidate,
            "compared": compared,
            "regressions": [{
                "key": list(r.key), "metric": r.metric,
                "baseline": r.baseline, "candidate": r.candidate,
                "threshold": r.threshold, "kind": r.kind,
            } for r in regressions],
            "improvements": [{
                "key": list(r.key), "metric": r.metric,
                "baseline": r.baseline, "candidate": r.candidate,
            } for r in improvements],
            "unmatched_keys": [list(key) for key in skipped],
        }, indent=2, sort_keys=True))
    else:
        print(f"compared {compared} metric(s) across ledgers: "
              f"{len(regressions)} regression(s), "
              f"{len(improvements)} improvement(s), "
              f"{len(skipped)} unmatched key(s)")
        for regression in regressions:
            print(f"  REGRESSION {regression.render()}")
        for improvement in improvements:
            print(f"  improved   {improvement.render()}")
        for key in skipped:
            label = "/".join(str(p) for p in key if p is not None)
            print(f"  unmatched  {label}")
    if args.require_overlap and compared == 0:
        print("no comparable benchmark keys between the two ledgers",
              file=sys.stderr)
        return 1
    return 3 if regressions else 0


def _main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand dispatch by peeking, so the original positional-files
    # usage ('vpfloat-stats m.json t.json') keeps working unchanged.
    if argv and argv[0] == "compare":
        return _compare_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    status = 0
    for path in args.files:
        try:
            try:
                data = _load(path)
                kind = _kind(data)
            except json.JSONDecodeError:
                # Multi-line file: not a JSON document, maybe a JSONL
                # run ledger -- the strict read below decides.
                data, kind = None, "ledger"
            if kind == "trace":
                validate_trace_document(data)
            elif kind == "metrics":
                validate_metrics_document(data)
            else:
                from .ledger import LedgerError, read_ledger

                if args.validate:
                    # Validation is strict; the render path below is
                    # lenient (a crashed writer's torn line must not
                    # hide the rest of the history).
                    try:
                        read_ledger(path, strict=True)
                    except LedgerError as error:
                        raise ValidationError(str(error)) from None
                else:
                    read_ledger(path)  # surfaces OSError only
        except (OSError, json.JSONDecodeError, ValidationError) as error:
            print(f"{path}: INVALID: {error}", file=sys.stderr)
            status = 1
            continue
        if args.validate:
            print(f"{path}: OK ({kind})")
            continue
        if len(args.files) > 1:
            print(f"== {path} ==")
        if args.json:
            if kind == "ledger":
                from .ledger import read_ledger

                records, _ = read_ledger(path)
                print(json.dumps(records, indent=2, sort_keys=True))
            else:
                print(json.dumps(data, indent=2, sort_keys=True))
        elif kind == "trace":
            print(render_trace_summary(data))
        elif kind == "ledger":
            print(render_ledger_summary(path))
        else:
            registry = MetricsRegistry.from_dict(data)
            if not (registry.counters or registry.gauges
                    or registry.histograms):
                print("metrics: no data (empty document)")
                continue
            print(registry.render())
            for section in (render_codegen_summary(data),
                            render_kernel_summary(data),
                            render_validation_summary(data),
                            render_unum_summary(data)):
                if section:
                    print()
                    print(section)
    return status


if __name__ == "__main__":
    sys.exit(main())
