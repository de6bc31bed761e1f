"""``run.py compare BASE.json CAND.json [...]``: read run sets against
the bounds in ``BENCHMARK.json``.

For every workload and end-to-end metric it prints each side's median
and quartiles, the change of the candidate's median against the base
(positive = worse), the pairwise win fraction (runs paired in file
order, ties counting for neither side), and a verdict:

``REGRESSION``  the candidate's median is worse than the base's by more
                than the bound;
``unresolved``  a side's quartile spread exceeds the bound, so the runs
                cannot tell a change of that size from noise (unless
                every candidate run beats every base run: ``better``);
``gain``        the candidate wins at least 9 of 10 pairs and the
                medians differ by more than the base's quartile spread;
``ok``          none of these.

Exits 1 when any verdict is ``REGRESSION`` or a candidate run failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def load_runs(path: Path) -> dict:
    """workload -> list of untraced runs, in file order."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    runs: dict = {}
    for run in data["runs"]:
        if not run["trace"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def verdict(metric: dict, base, cand) -> tuple:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(cand)
    worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    spread = max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed)

    def better(c, b):
        return c < b if lower else c > b

    pairs = list(zip(base, cand))
    wins = sum(better(c, b) for b, c in pairs) / len(pairs)
    if spread > bound:
        every = all(better(c, b) for c in cand for b in base)
        label = "better" if every else "unresolved"
    elif worse > bound:
        label = "REGRESSION"
    elif wins >= 0.9 and abs(cmed - bmed) > bq3 - bq1:
        label = "gain"
    else:
        label = "ok"
    return (bq1, bmed, bq3), (cq1, cmed, cq3), worse, spread, wins, label


def compare(base_path: Path, cand_path: Path, declared: list) -> bool:
    """Print one table; True when nothing regressed or failed."""
    base_runs = load_runs(base_path)
    cand_runs = load_runs(cand_path)
    print(f"base {base_path}  vs  candidate {cand_path}")
    print(f"{'workload':<11} {'metric':<15} {'base q1/med/q3':>26} "
          f"{'cand q1/med/q3':>26} {'worse':>7} {'spread':>7} "
          f"{'bound':>6} {'wins':>5}  verdict")
    clean = True
    for workload, base in base_runs.items():
        cand = cand_runs.get(workload)
        if not cand:
            print(f"{workload:<11} (no candidate runs)")
            continue
        failed = sum(run["failed"] for run in cand)
        if failed:
            clean = False
            print(f"{workload:<11} FAILED: {failed} candidate requests "
                  "raised or were wrong")
        for metric in declared:
            name = metric["name"]
            b, c, worse, spread, wins, label = verdict(
                metric, [run["metrics"][name] for run in base],
                [run["metrics"][name] for run in cand])
            clean = clean and label != "REGRESSION"
            print(f"{workload:<11} {name:<15} "
                  f"{b[0]:>8.4g}/{b[1]:>8.4g}/{b[2]:>8.4g} "
                  f"{c[0]:>8.4g}/{c[1]:>8.4g}/{c[2]:>8.4g} "
                  f"{worse:>+7.1%} {spread:>7.1%} {metric['bound']:>6.0%} "
                  f"{wins:>5.0%}  {label}")
    return clean


def compare_main(argv) -> int:
    if len(argv) < 2:
        print("usage: run.py compare BASE.json CAND.json [CAND2.json ...]",
              file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text(
        encoding="utf-8"))["end_to_end"]
    base, *candidates = (Path(p) for p in argv)
    clean = True
    for cand in candidates:
        clean = compare(base, cand, declared) and clean
    return 0 if clean else 1
