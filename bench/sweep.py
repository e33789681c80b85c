#!/usr/bin/env python3
"""Run the benchmark over several seeds and append the runs to a result set.

    python3 bench/sweep.py --out RESULTS.jsonl [--workloads NAME ...]
                           [--seeds 1 2 ...] [--trace 0|1] [--seconds S]

Runs one ``run.py`` process at a time, so runs never share the CPUs, and
then prints the spread of every metric (see compare.py).  Without
``--seconds`` each run lasts BENCHMARK.json's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import workloads

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=workloads.NAMES,
                        choices=workloads.NAMES)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace), "--record",
                 str(args.out)], check=True, stdout=subprocess.DEVNULL)
            print(f"done {workload} seed {seed}", flush=True)
    compare.summarize(compare.load(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
