#!/usr/bin/env python3
"""Summarize one result set, or compare a parent's result set with a change's.

    python3 bench/compare.py RESULTS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON-lines file that ``run.py --record`` (or sweep.py)
appends to.  With one file, every end-to-end metric of every workload is
printed with its median, quartiles and spread: the distance between the
quartiles as a share of the median, next to the bound BENCHMARK.json fixes.

With two files, runs are paired by (workload, seed) and each workload x
end-to-end metric gets one row: each side's median and quartiles, the
change's share of paired runs won (ties count for neither) and a verdict:

* improved   -- the change wins at least 9/10 of at least 10 pairs and the
                medians differ, in its favour, by more than the parent's
                quartile distance;
* regressed  -- the change's median is worse than the parent's by more than
                the metric's bound;
* unresolved -- otherwise, when either side's spread is wider than the bound
                and not every change run reads better than every parent run;
* unchanged  -- otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _series(records, workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in records if r["workload"] == workload
            and not r["trace"] and metric in r["result"]["metrics"]}


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _workloads(records) -> list[str]:
    return list(dict.fromkeys(r["workload"] for r in records))


def _machine(records) -> str:
    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    return "; ".join(sorted(machines))


def summarize(records, spec: dict) -> None:
    print(f"machine: {_machine(records)}")
    print(f"{'workload':<16} {'metric':<20} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload in _workloads(records):
        runs = [r for r in records if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        wrong = sum(not r["result"]["correct"] for r in runs)
        codes = Counter(f"{cmd} {code}" for r in runs
                        for p in r.get("pipelines", [])
                        for cmd, code in p["exit"].items() if code != "0")
        print(f"{workload}: {len(runs)} runs, failed_frac "
              f"{failed}/{attempted}, {wrong} runs with wrong output, "
              f"nonzero exits {dict(codes)}")
        for metric in spec["end_to_end"]:
            values = list(_series(records, workload, metric["name"]).values())
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            print(f"{workload:<16} {metric['name']:<20} {len(values):>3} "
                  f"{med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread(values):>8.4f} {metric['bound']:>6}")


def verdict(parent: dict[int, float], change: dict[int, float],
            better: str, bound: float) -> tuple[str, float]:
    """(verdict, change's win share over paired runs)."""
    sign = 1.0 if better == "lower" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (parent[s] - change[s]) > 0 for s in seeds)
    share = wins / len(seeds) if seeds else 0.0
    p, c = list(parent.values()), list(change.values())
    p1, pmed, p3 = _quartiles(p)
    cmed = statistics.median(c)
    gain = sign * (pmed - cmed)
    if len(seeds) >= MIN_PAIRS and share >= WIN_SHARE and gain > p3 - p1:
        return "improved", share
    if -gain > bound * abs(pmed):
        return "regressed", share
    all_better = all(sign * (x - y) > 0 for x in p for y in c)
    if max(spread(p), spread(c)) > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(parent_records, change_records, spec: dict) -> None:
    print(f"parent machine: {_machine(parent_records)}")
    print(f"change machine: {_machine(change_records)}")
    print(f"{'workload':<16} {'metric':<20} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'wins':>5}  verdict")
    for workload in _workloads(parent_records):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = _series(parent_records, workload, name)
            change = _series(change_records, workload, name)
            if not parent or not change:
                print(f"{workload:<16} {name:<20} missing on one side")
                continue
            cells = []
            for side in (parent, change):
                q1, med, q3 = _quartiles(list(side.values()))
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            result, share = verdict(parent, change, metric["better"],
                                    metric["bound"])
            print(f"{workload:<16} {name:<20} {cells[0]:>36} {cells[1]:>36} "
                  f"{share:>5.2f}  {result}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        summarize(load(argv[0]), spec)
    else:
        compare(load(argv[0]), load(argv[1]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
