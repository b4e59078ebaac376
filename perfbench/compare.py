"""Summarise one set of benchmark runs, or compare two, one row per workload
and metric.

    python3 perfbench/compare.py RESULTS
    python3 perfbench/compare.py BASE CHANGE

With one set, each row gives the metric's unit, median, quartiles and run
count, and ``failed_ratio`` (failed jobs over jobs attempted) has a row too.

BASE and CHANGE are directories (or files) of run records as written by
``run.py`` under ``perfbench/out/results/``.  Only untraced runs count.  Each
row gives both sides' median and quartiles, how many pairs the change wins
(runs are paired by seed, else by order) and a verdict under the rule the
benchmark fixes in BENCHMARK.json:

* ``unresolved``: either side's quartile spread exceeds the metric's bound,
  unless every change run is better (``better``) or worse (``worse``) than
  every base run;
* ``worse``: the change's median is worse than the base median by more than
  the bound;
* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the base runs' quartile spread;
* ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, sorted by seed."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for f in files:
        record = json.loads(f.read_text())
        if record.get("trace") == 0 and "metrics" in record:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    by_seed = {r["seed"]: r for r in change}
    if {r["seed"] for r in base} == set(by_seed):
        matched = [(r, by_seed[r["seed"]]) for r in base]
    else:
        matched = list(zip(base, change))
    return [(a["metrics"][metric]["value"], b["metrics"][metric]["value"]) for a, b in matched]


def verdict(base: list[float], change: list[float], matched, bound: float, higher: bool) -> str:
    def improves(new: float, old: float) -> bool:
        return new > old if higher else new < old

    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    if (b3 - b1) / bm > bound or (c3 - c1) / cm > bound:
        if all(improves(c, b) for c in change for b in base):
            return "better"
        if all(improves(b, c) for c in change for b in base):
            return "worse"
        return "unresolved"
    worse_by = (bm - cm) / bm if higher else (cm - bm) / bm
    if worse_by > bound:
        return "worse"
    wins = sum(1 for old, new in matched if improves(new, old))
    if improves(cm, bm) and wins >= 0.9 * len(matched) and abs(cm - bm) > b3 - b1:
        return "better"
    return "same"


def summary(runs, bench: dict) -> list[list[str]]:
    rows = [["workload", "metric", "unit", "median [q1, q3]"]]
    metrics = [(spec["name"], spec["unit"]) for spec in bench["end_to_end"]]
    for workload in sorted(runs):
        records = runs[workload]
        for name, unit in metrics + [("failed_ratio", "ratio")]:
            values = [r["metrics"][name]["value"] if name in r["metrics"] else r[name]
                      for r in records]
            q1, med, q3 = quartiles(values)
            rows.append([workload, name, unit, f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"])
    return rows


def compare(base_runs, change_runs, bench: dict) -> list[list[str]]:
    rows = [["workload", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
             "wins", "change", "verdict"]]
    for workload in sorted(base_runs.keys() & change_runs.keys()):
        base, change = base_runs[workload], change_runs[workload]
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in base]
            b = [r["metrics"][name]["value"] for r in change]
            matched = pairs(base, change, name)
            higher = spec["better"] == "higher"
            wins = sum(1 for old, new in matched if (new > old if higher else new < old))
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            rows.append([
                workload, name, spec["unit"],
                f"{am:.4g} [{a1:.4g}, {a3:.4g}] n={len(a)}",
                f"{bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(b)}",
                f"{wins}/{len(matched)}",
                f"{(bm - am) / am:+.1%}",
                verdict(a, b, matched, spec["bound"], higher),
            ])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Summarise or compare sets of benchmark runs.")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--bench", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.bench.read_text())
    if args.change is None:
        rows = summary(load_runs(args.base), bench)
    else:
        rows = compare(load_runs(args.base), load_runs(args.change), bench)
    if len(rows) == 1:
        print("no untraced runs to report", file=sys.stderr)
        return 1
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
