"""Smoke tests of the e2e benchmark: ``pytest benchmarks/e2e``.

Runs go through ``run.py`` on a ``--limit`` slice of each point list,
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_point_lists_follow_the_seed(workload, expected):
    findings = expected["findings"]
    first = workloads.draw_points(workload, 1, findings)
    assert first == workloads.draw_points(workload, 1, findings)
    assert first != workloads.draw_points(workload, 2, findings)
    workloads.require_expected(first, expected)
    assert not [p for p in first if p.key in findings]


def test_point_counts(expected):
    findings = expected["findings"]
    counts = {w: len(workloads.draw_points(w, 3, findings))
              for w in workloads.WORKLOADS}
    # 29 kernels x 2 backends x 4 bands, less the adi/boost and
    # deriche/mpfr findings; unum has no correlation (no vp.sqrt).
    assert counts == {"sweep-cold": 224, "sweep-warm": 224,
                      "exec-large": 6, "unum": 112}


def test_every_metric_is_printed_with_its_unit():
    done = run_bench("--workload", "sweep-cold", "--seed", "1",
                     "--seconds", "1", "--limit", "3")
    assert done.returncode == 0, done.stderr
    line = last_json(done.stdout)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared.update(error_rate="raised/attempted",
                    wrong_rate="wrong/attempted")
    rows = {row.split()[0]: row.split() for row in done.stdout.splitlines()
            if row.startswith("  ")}
    assert {name: rows[name][2] for name in declared} == declared
    del declared["error_rate"], declared["wrong_rate"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_corrupted_digest_counts_as_wrong(tmp_path, expected):
    point = workloads.draw_points("sweep-cold", 1, expected["findings"])[1]
    corrupted = json.loads(json.dumps(expected))
    corrupted["points"][point.key]["digest"] = "0" * 16
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(corrupted), encoding="utf-8")
    done = run_bench("--workload", "sweep-cold", "--seed", "1",
                     "--seconds", "1", "--limit", "2",
                     "--expected", str(path))
    assert done.returncode == 0, done.stderr
    line = last_json(done.stdout)
    assert not line["correct"] and line["failed"] >= 1
    rate = next(row for row in done.stdout.splitlines()
                if row.strip().startswith("wrong_rate"))
    assert float(rate.split()[1]) > 0


def test_missing_point_is_a_hard_error(tmp_path, expected):
    point = workloads.draw_points("unum", 1, expected["findings"])[1]
    partial = json.loads(json.dumps(expected))
    del partial["points"][point.key]
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(partial), encoding="utf-8")
    done = run_bench("--workload", "unum", "--seed", "1", "--seconds", "1",
                     "--limit", "2", "--expected", str(path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert "missing from expected.json" in done.stderr


@pytest.mark.parametrize("workload", ["sweep-cold", "exec-large", "unum"])
def test_traced_self_times_sum_to_request_time(workload, tmp_path):
    chrome = tmp_path / "trace.json"
    done = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--limit", "2", "--trace", "1",
                     "--trace-out", str(chrome))
    assert done.returncode == 0, done.stderr
    line = last_json(done.stdout)
    assert line["correct"]
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    layer_times = [m["name"] for m in BENCHMARK["per_layer"]
                   if m["unit"] == "s/request"
                   and m["name"] not in ("trace.request_s",
                                         "runtime.cache_model.s")]
    total = sum(metrics[name] for name in layer_times)
    assert total == pytest.approx(metrics["trace.request_s"], rel=1e-9)
    assert metrics["trace.overhead"] > 0
    events = json.loads(chrome.read_text(encoding="utf-8"))["traceEvents"]
    assert {e["name"] for e in events} >= {"request", "harness.read_outputs"}


def test_fails_without_the_toolchain(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(BENCHMARK["command"] + [
        "--workload", "unum", "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_verdicts():
    metric = {"name": "points_per_s", "better": "higher", "bound": 0.1}
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(metric, base, [v * 0.8 for v in base])[-1] \
        == "REGRESSION"
    assert compare.verdict(metric, base, [v * 1.2 for v in base])[-1] \
        == "gain"
    assert compare.verdict(metric, base, base)[-1] == "ok"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 10.0, 9.0, 11.0]
    assert compare.verdict(metric, base, noisy)[-1] == "unresolved"
