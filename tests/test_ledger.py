"""Run-ledger tests: record shape, cross-process integrity, compare.

The ledger's contract is an append-only JSONL file that any number of
processes may share -- each record is one ``O_APPEND`` write of a whole
line, so concurrent writers never tear each other's records -- plus a
noise-aware comparator (``compare_ledgers`` / ``vpfloat-stats
compare``) that gates model metrics exactly and wall time on
median-of-k with a MAD allowance.
"""

import json
import os

import pytest

from repro.core import CompilerDriver
from repro.evaluation.harness import run_kernel
from repro.evaluation.parallel import GridPoint, run_grid
from repro.observability import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    RunLedger,
    compare_ledgers,
    current_ledger,
    install_ledger,
    ledger_session,
    read_ledger,
    validate_record,
)
from repro.observability.ledger import comparison_key
from repro.workloads.polybench import source_for

MPFR = "vpfloat<mpfr, 16, 128>"


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch):
    """Tests must not inherit a ledger from the environment."""
    monkeypatch.delenv("VPFLOAT_LEDGER", raising=False)
    previous = install_ledger(None)
    yield
    install_ledger(previous)


# ----------------------------------------------------------------- #
# Record shape / writer
# ----------------------------------------------------------------- #

def test_record_shape_and_validation(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    entry = ledger.record("run", function="run", backend="mpfr",
                          engine="jit", cycles=123, instructions=45,
                          wall_seconds=0.5)
    ledger.close()
    assert entry["schema"] == LEDGER_SCHEMA_VERSION
    assert entry["host"]["pid"] == os.getpid()
    records, problems = read_ledger(path)
    assert problems == []
    assert len(records) == 1
    validate_record(records[0])
    assert records[0]["cycles"] == 123


def test_unknown_event_rejected(tmp_path, capsys):
    from repro.observability.stats import main as stats_main

    ledger = RunLedger(tmp_path / "ledger.jsonl")
    with pytest.raises(LedgerError):
        ledger.record("frobnicate", cycles=1)
    # A kind outside the schema fails `vpfloat-stats --validate` too.
    ledger.record("run", cycles=1)
    path = tmp_path / "ledger.jsonl"
    assert stats_main(["--validate", str(path)]) == 0
    record = json.loads(path.read_text())
    path.write_text(json.dumps(dict(record, event="service")) + "\n")
    assert stats_main(["--validate", str(path)]) == 1
    assert "'service'" in capsys.readouterr().err


def test_validate_record_rejects_malformed():
    with pytest.raises(LedgerError):
        validate_record([])
    with pytest.raises(LedgerError):
        validate_record({"event": "run"})  # no schema
    with pytest.raises(LedgerError):
        validate_record({"schema": LEDGER_SCHEMA_VERSION,
                         "event": "nonsense", "ts": 1.0, "host": {}})
    with pytest.raises(LedgerError):
        validate_record({"schema": LEDGER_SCHEMA_VERSION, "event": "run",
                         "ts": 1.0, "host": {}, "cycles": "many"})


def test_read_ledger_skips_torn_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with ledger_session(path) as ledger:
        ledger.record("run", function="f", cycles=1)
        ledger.record("run", function="g", cycles=2)
    with open(path, "a") as handle:
        handle.write('{"schema": 1, "event": "run", "truncat\n')
        handle.write("not json at all\n")
    records, problems = read_ledger(path)
    assert [r["function"] for r in records] == ["f", "g"]
    assert len(problems) == 2
    with pytest.raises(LedgerError):
        read_ledger(path, strict=True)


def test_read_missing_and_empty_files(tmp_path):
    with pytest.raises(OSError):
        read_ledger(tmp_path / "absent.jsonl")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    records, problems = read_ledger(empty)
    assert records == [] and problems == []


def test_env_var_installs_ledger(tmp_path, monkeypatch):
    import repro.observability.ledger as mod

    path = tmp_path / "env.jsonl"
    monkeypatch.setenv("VPFLOAT_LEDGER", str(path))
    monkeypatch.setattr(mod, "_LEDGER", None)
    monkeypatch.setattr(mod, "_ENV_CHECKED", False)
    ledger = current_ledger()
    try:
        assert ledger is not None and ledger.path == str(path)
        ledger.record("run", function="f", cycles=1)
    finally:
        install_ledger(None)
    records, problems = read_ledger(path)
    assert len(records) == 1 and problems == []


def test_ledger_session_restores_previous(tmp_path):
    assert current_ledger() is None
    with ledger_session(tmp_path / "a.jsonl") as ledger:
        assert current_ledger() is ledger
    assert current_ledger() is None


# ----------------------------------------------------------------- #
# Automatic recording through the stack
# ----------------------------------------------------------------- #

def test_run_records_compile_run_eval_point(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with ledger_session(path):
        outcome = run_kernel("gemm", MPFR, 4, backend="mpfr")
    records, problems = read_ledger(path)
    assert problems == []
    events = [r["event"] for r in records]
    assert events == ["compile", "run", "eval_point"]
    for record in records:
        validate_record(record)
    point = records[-1]
    assert point["kernel"] == "gemm" and point["n"] == 4
    assert point["cycles"] == outcome.report.cycles
    assert point["wall_seconds"] > 0


def test_batch_run_records_lanes(tmp_path):
    path = tmp_path / "ledger.jsonl"
    program = CompilerDriver(backend="mpfr").compile(
        source_for("gemm", MPFR), name="gemm-mpfr")
    with ledger_session(path):
        program.run_batch("run", [4], lanes=3)
    records, _ = read_ledger(path)
    batch = [r for r in records if r["event"] == "batch_run"]
    assert len(batch) == 1 and batch[0]["lanes"] == 3


def test_cross_process_grid_integrity(tmp_path):
    """run_grid with jobs=2 must leave exactly one well-formed
    eval_point record per task and no torn lines, even with two
    worker processes appending to one file."""
    path = tmp_path / "ledger.jsonl"
    points = [GridPoint.make("gemm", MPFR, n, "mpfr") for n in (4, 5)] \
        + [GridPoint.make("jacobi-1d", MPFR, n, "mpfr") for n in (8, 10)]
    with ledger_session(path):
        outcomes = run_grid(points, jobs=2,
                            cache_dir=str(tmp_path / "cache"))
    assert len(outcomes) == len(points)
    # Every line parses and validates -- no torn or interleaved writes.
    with open(path) as handle:
        for line in handle:
            validate_record(json.loads(line))
    records, problems = read_ledger(path)
    assert problems == []
    eval_points = [(r["kernel"], r["n"]) for r in records
                   if r["event"] == "eval_point"]
    assert sorted(eval_points) == sorted(
        (p.kernel, p.n) for p in points)


# ----------------------------------------------------------------- #
# Comparison / regression gating
# ----------------------------------------------------------------- #

def _bench_record(cycles, wall, n=6, kernel="gemm"):
    return {"schema": LEDGER_SCHEMA_VERSION, "event": "bench",
            "ts": 0.0, "host": {"hostname": "h", "pid": 1},
            "kernel": kernel, "ftype": MPFR, "n": n, "backend": "mpfr",
            "engine": "jit", "lanes": None, "cycles": cycles,
            "instructions": cycles // 2, "wall_seconds": wall}


def test_compare_identical_ledgers_is_clean():
    records = [_bench_record(1000, 0.01) for _ in range(3)]
    regressions, improvements, compared, skipped = compare_ledgers(
        records, records)
    assert regressions == [] and improvements == []
    assert compared > 0


def test_compare_flags_deterministic_regression():
    base = [_bench_record(1000, 0.01)]
    cand = [_bench_record(1100, 0.01)]
    regressions, _, _, _ = compare_ledgers(base, cand)
    assert any(r.metric == "cycles" for r in regressions)
    # ... and improvements are not regressions.
    _, improvements, _, _ = compare_ledgers(cand, base)
    assert any(r.metric == "cycles" for r in improvements)


def test_compare_wall_noise_tolerated_cycles_not():
    base = [_bench_record(1000, 0.010 + 0.001 * i) for i in range(5)]
    cand = [_bench_record(1000, 0.0105 + 0.001 * i) for i in range(5)]
    regressions, _, _, _ = compare_ledgers(base, cand)
    assert regressions == []  # within the MAD/floor allowance


def test_compare_gate_wall_requires_same_host():
    base = [_bench_record(1000, 0.010)]
    cand = [dict(_bench_record(1000, 0.100),
                 host={"hostname": "other", "pid": 2})]
    regressions, _, compared_auto, _ = compare_ledgers(base, cand)
    assert regressions == []  # cross-host wall deltas are not gated
    regressions, _, compared_on, _ = compare_ledgers(base, cand,
                                                     gate_wall=True)
    assert compared_on > compared_auto  # wall only examined when gated
    assert any(r.metric == "wall_seconds" for r in regressions)
    assert any(r.metric == "wall_seconds" for r in regressions)


def test_comparison_key_groups_by_configuration():
    a = _bench_record(1, 0.1, n=6)
    b = _bench_record(1, 0.1, n=8)
    assert comparison_key(a) != comparison_key(b)
    assert comparison_key(a) == comparison_key(_bench_record(2, 0.2, n=6))


def test_self_compare_of_real_bench_ledger(tmp_path):
    """vpfloat-bench --quick round-trips through compare cleanly."""
    from repro.observability.bench import main as bench_main

    path = tmp_path / "bench.jsonl"
    assert bench_main(["--quick", "--reps", "1",
                       "--ledger", str(path),
                       "--cache-dir", str(tmp_path / "cache")]) == 0
    records, problems = read_ledger(path)
    assert problems == []
    assert any(r["event"] == "bench" and r["kernel"] == "gemm"
               for r in records)
    regressions, _, compared, _ = compare_ledgers(records, records)
    assert regressions == [] and compared > 0
    # ... and through the CLI spelling with its exit codes.
    from repro.observability.stats import main as stats_main

    assert stats_main(["compare", str(path), str(path)]) == 0


def test_compare_cli_exit_codes(tmp_path):
    from repro.observability.stats import main as stats_main

    base = tmp_path / "base.jsonl"
    cand = tmp_path / "cand.jsonl"
    with open(base, "w") as handle:
        handle.write(json.dumps(_bench_record(1000, 0.01)) + "\n")
    with open(cand, "w") as handle:
        handle.write(json.dumps(_bench_record(2000, 0.01)) + "\n")
    assert stats_main(["compare", str(base), str(base)]) == 0
    assert stats_main(["compare", str(base), str(cand)]) == 3
    assert stats_main(["compare", str(base),
                       str(tmp_path / "absent.jsonl")]) == 1
