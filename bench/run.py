#!/usr/bin/env python3
"""stabilab benchmark: ``bounds``, ``simulate`` and ``verify`` through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--record RESULTS.jsonl]

One run builds the workload's config from the seed and calls
``stabilab.cli.main`` for bounds, then simulate, then verify, in this one
process and with ``STABILAB_THREADS`` unset, as many times as fit in
``--seconds`` (at least twice).  It checks every command's outputs and prints
each metric by name and unit, then one JSON result as the last line.

``--trace 0`` reports the end-to-end metrics: set-up time (median wall time
of fresh interpreters that import ``stabilab.cli`` and load the config),
median simulate, verify and pipeline time in reference seconds (wall time
scaled by the host's speed, see speed.py), replica-steps per second, the
share of commands that succeeded, and peak RSS.  The unscaled wall times are
printed too.

``--trace 1`` alternates untraced and traced pipelines and reports per-layer
self time and counts from the traced ones (see tracer.py), the tracing
overhead, and the kernel microbenchmarks (see kernels.py).  Spans are
written to ``bench/out/<workload>.spans.npz``.

``--record`` appends the result, with the machine it ran on, to a JSON-lines
result set that sweep.py and compare.py read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import kernels
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

COMMANDS = ("bounds", "simulate", "verify")
# 0 success, 2 inadmissible step size, 3 certificate failure
DOCUMENTED_EXITS = (0, 2, 3)
PRODUCER = {"bounds.json": "bounds", "estimates.csv": "simulate",
            "run_summary.json": "simulate", "certificates.jsonl": "verify"}
MIN_PIPELINES = 2
SETUP_REPEATS = 5
SETUP_SNIPPET = ("import sys\n"
                 "import stabilab.cli\n"
                 "from stabilab.harness import load_config\n"
                 "load_config(sys.argv[1])\n")
ASSIGNMENT_SLACK = 1e-12

END_TO_END = [("setup_s", "s"), ("simulate_s", "s"), ("verify_s", "s"),
              ("pipeline_s", "s"), ("replica_steps_per_s", "1/s"),
              ("ok_frac", "frac"), ("peak_rss_mb", "MB")]

# per-layer metrics read from the span totals: <module>.<function>.<stat>
SPAN_METRICS = [
    ("dynamics.run_coupled_pair.calls", "count"),
    ("dynamics.run_coupled_pair.s", "s"),
    ("dynamics.step.calls", "count"),
    ("dynamics.step.s", "s"),
    ("model.grad_batch.calls", "count"),
    ("model.grad_batch.s", "s"),
    ("dynamics.run_contraction_pair.s", "s"),
    ("transport.wasserstein_assignment.s", "s"),
    ("transport.wasserstein_assignment.calls", "count"),
    ("transport.coupled_upper_bound.s", "s"),
    ("bounds.rho_quadratic.s", "s"),
    ("bounds.expected_q_norm.s", "s"),
    ("bounds.eta_hat_gaussian_log.s", "s"),
    ("model.empirical_minimizer.s", "s"),
    ("model.derive_constants.calls", "count"),
    ("verify.check_minorization_gaussian.s", "s"),
    ("verify.check_drift.s", "s"),
    ("verify.check_kernel_gap.s", "s"),
    ("verify.check_contraction.s", "s"),
    ("verify.check_bound_dominates.s", "s"),
    ("harness.cmd_bounds.s", "s"),
    ("harness.cmd_bounds.total_s", "s"),
    ("harness.build_dataset.calls", "count"),
    ("harness.evaluate_bound.calls", "count"),
    ("harness.load_config.s", "s"),
    ("cli.main.s", "s"),
]
# per-layer values derived from spans, probes or outputs
DERIVED_METRICS = [
    ("dynamics.replica_steps", "count"),
    ("dynamics.us_per_replica_step", "us"),
    ("dynamics.diverged_replicas", "count"),
    ("transport.wasserstein_assignment.max_n", "count"),
    ("bounds.rho_quadratic.minibatches", "count"),
    ("verify.minorization.density_evals", "count"),
    ("verify.certs_passed", "count"),
    ("verify.certs_attempted", "count"),
    ("harness.output_bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
]
PER_LAYER = SPAN_METRICS + DERIVED_METRICS + kernels.metric_names()
COUNT_UNITS = ("count", "bytes")


class Pipeline:
    """One bounds -> simulate -> verify pass and what each command did."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.seconds: dict[str, float] = {}   # wall clock
        self.scaled: dict[str, float] = {}    # reference seconds
        self.codes: dict[str, object] = {}    # exit code, or what was raised
        self.errors: dict[str, str] = {}
        self.run_ids: list[int] = []

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def outputs(self) -> dict[str, bytes]:
        if not self.out_dir.is_dir():
            return {}
        return {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}


def run_pipeline(cli, cfg_path: Path, out_dir: Path, clock=None,
                 tracer=None) -> Pipeline:
    pipe = Pipeline(out_dir)
    for command in COMMANDS:
        if tracer is not None:
            tracer.run_id += 1
            pipe.run_ids.append(tracer.run_id)
        sink = io.StringIO()
        argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]

        def call():
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    pipe.codes[command] = cli.main(argv)
            except SystemExit as exc:
                pipe.codes[command] = exc.code
            except Exception as exc:  # a raise is measured, not fatal
                pipe.codes[command] = f"raised {type(exc).__name__}: {exc}"

        if clock is None:
            start = time.perf_counter()
            call()
            pipe.seconds[command] = time.perf_counter() - start
        else:
            pipe.seconds[command], pipe.scaled[command] = clock.time(call)
        if pipe.codes[command] not in DOCUMENTED_EXITS:
            tail = sink.getvalue().strip().splitlines()[-1:]
            pipe.errors[command] = \
                f"exit {pipe.codes[command]} {' '.join(tail)}".strip()
    return pipe


def check_estimates(pipe: Pipeline) -> str | None:
    """The assignment estimate may not exceed the coupled one."""
    path = pipe.out_dir / "estimates.csv"
    if not path.exists():
        return None
    values: dict[tuple, float] = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["value"]:
                values[row["k"], row["estimator"]] = float(row["value"])
    for (k, est), value in values.items():
        coupled = values.get((k, "coupled"))
        if est == "assignment" and coupled is not None \
                and value > coupled + ASSIGNMENT_SLACK:
            return (f"assignment {value!r} > coupled {coupled!r} "
                    f"at k={k}")
    return None


def check_pipelines(pipes: list[Pipeline]) -> tuple[int, int, list[str]]:
    """(attempted, failed, wrong-output messages) over all pipelines.

    A command fails when it raises or exits with an undocumented code, or
    when its outputs fail a check: every output file byte-identical to the
    first pipeline's, and assignment <= coupled at every checkpoint.
    """
    failed: set[tuple[int, str]] = set()
    wrong: list[str] = []
    reference = pipes[0].outputs()
    for i, pipe in enumerate(pipes):
        failed.update((i, cmd) for cmd in pipe.errors)
        problems = []
        estimate_msg = check_estimates(pipe)
        if estimate_msg:
            problems.append(("simulate", estimate_msg))
        outputs = pipe.outputs()
        for name in sorted(set(reference) | set(outputs)):
            if reference.get(name) != outputs.get(name):
                problems.append((PRODUCER.get(name, "verify"),
                                 f"{name} differs from pipeline 0"))
        for cmd, msg in problems:
            failed.add((i, cmd))
            wrong.append(f"pipeline {i} {cmd}: {msg}")
    return len(pipes) * len(COMMANDS), len(failed), wrong


def measure_setup(cfg_path: Path) -> list[float]:
    """Wall seconds of fresh interpreters that import the CLI and load cfg."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(cfg_path)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def run_until(deadline: float, make_pipeline) -> list[Pipeline]:
    """Run pipelines until the next one would likely end after deadline."""
    pipes = [make_pipeline(0)]
    while (len(pipes) < MIN_PIPELINES
           or time.perf_counter() + pipes[-1].total <= deadline):
        pipes.append(make_pipeline(len(pipes)))
    return pipes


def end_to_end(cli, cfg: dict, cfg_path: Path, work: Path,
               seconds: float) -> tuple[dict, dict, list[Pipeline]]:
    """(metrics, the same metrics in wall seconds, pipelines run).

    Command times are in reference seconds (see speed.py).  Set-up time is
    wall clock in both: the reference loop does not track import time.
    """
    deadline = time.perf_counter() + seconds
    setup = statistics.median(measure_setup(cfg_path))
    clock = speed.ScaledClock()
    pipes = run_until(deadline, lambda i: run_pipeline(
        cli, cfg_path, work / f"p{i}", clock))
    steps = workloads.replica_steps(cfg)
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = []
    for key in ("scaled", "seconds"):
        times = [getattr(p, key) for p in pipes]
        out.append({
            "setup_s": setup,
            "simulate_s": statistics.median(t["simulate"] for t in times),
            "verify_s": statistics.median(t["verify"] for t in times),
            "pipeline_s": statistics.median(sum(t.values()) for t in times),
            "replica_steps_per_s": statistics.median(
                steps / t["simulate"] for t in times),
            "peak_rss_mb": rss,
        })
    out[1]["reference_s"] = statistics.median(clock.references)
    return out[0], out[1], pipes


def per_layer(cli, workload: str, cfg: dict, cfg_path: Path, work: Path,
              seconds: float, seed: int
              ) -> tuple[dict, list[Pipeline], list[str]]:
    from tracer import MODULES, Tracer

    deadline = time.perf_counter() + seconds
    tracer = Tracer([importlib.import_module(f"stabilab.{m}")
                     for m in MODULES])
    metrics = kernels.run(cfg, seed)
    plain: list[Pipeline] = []
    traced: list[Pipeline] = []
    while True:  # untraced and traced pipelines in pairs, at least one pair
        start = time.perf_counter()
        plain.append(run_pipeline(cli, cfg_path, work / f"p{len(plain)}"))
        with tracer.installed():
            traced.append(run_pipeline(cli, cfg_path,
                                       work / f"t{len(traced)}",
                                       tracer=tracer))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    tracer.save(OUT / f"{workload}.spans.npz")

    samples = [layer_sample(tracer, pipe) for pipe in traced]
    problems = []
    for name, unit in SPAN_METRICS + DERIVED_METRICS:
        if name == "trace.overhead_frac":
            continue
        values = [s[name] for s in samples]
        if unit in COUNT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced pipelines: "
                                f"{values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.total for p in traced)
        / statistics.median(p.total for p in plain) - 1.0)
    return metrics, plain + traced, problems


def layer_sample(tracer, pipe: Pipeline) -> dict:
    """Per-layer values of one traced pipeline."""
    totals = tracer.layer_totals(pipe.run_ids)
    counters = tracer.counters_for(pipe.run_ids)
    empty = {"calls": 0, "s": 0.0, "total_s": 0.0}
    sample = {}
    for name, _ in SPAN_METRICS:
        function, stat = name.rsplit(".", 1)
        sample[name] = totals.get(function, empty)[stat]
    steps = tracer.calls_under("dynamics.run_coupled_pair", "dynamics.step",
                               pipe.run_ids) // 2
    ensemble_s = totals.get("dynamics.run_ensemble", empty)["total_s"]
    sample["dynamics.replica_steps"] = steps
    sample["dynamics.us_per_replica_step"] = \
        ensemble_s / steps * 1e6 if steps else 0.0
    sample["harness.output_bytes"] = sum(map(len, pipe.outputs().values()))
    for name, _ in DERIVED_METRICS:
        if name not in sample and name != "trace.overhead_frac":
            sample[name] = int(counters.get(name, 0))
    return sample


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "STABILAB_THREADS": os.environ.get("STABILAB_THREADS")}


def print_metrics(metrics: dict, spec: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in spec)
    for name, unit in spec:
        print(f"{name:<{width}}  {metrics[name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "stabilab" / "cli.py").is_file():
        print(f"stabilab sources not found under {SRC}", file=sys.stderr)
        return 2
    # the measured configuration is serial: the thread pool is slower
    os.environ.pop("STABILAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    from stabilab import cli

    cfg = workloads.config(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        if args.trace:
            metrics, pipes, problems = per_layer(
                cli, args.workload, cfg, cfg_path, work, args.seconds,
                args.seed)
            wall, spec = {}, PER_LAYER
        else:
            metrics, wall, pipes = end_to_end(cli, cfg, cfg_path, work,
                                              args.seconds)
            problems, spec = [], END_TO_END
        attempted, failed, wrong = check_pipelines(pipes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    for i, pipe in enumerate(pipes):
        codes = " ".join(f"{cmd} {pipe.codes[cmd]}" for cmd in COMMANDS)
        print(f"pipeline {i} exit codes: {codes}")
        for cmd, msg in pipe.errors.items():
            print(f"failed: pipeline {i} {cmd}: {msg}")
    for msg in wrong + problems:
        print(f"wrong: {msg}")
    print(f"workload {args.workload} seed {args.seed}: {len(pipes)} "
          f"pipelines, {failed}/{attempted} commands failed "
          f"(failed_frac {failed / attempted:.4g})")
    print_metrics(metrics, spec)
    if wall:
        print("unscaled wall clock:")
        print_metrics(wall, [(name, unit) for name, unit in END_TO_END
                             if name in wall] + [("reference_s", "s")])
    result = {"correct": not (wrong or problems), "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in spec}}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace,
                                 "seconds": args.seconds,
                                 "machine": machine(), "wall": wall,
                                 "pipelines": [
                                     {"exit": {c: str(v) for c, v
                                               in p.codes.items()},
                                      "wall": p.seconds, "scaled": p.scaled}
                                     for p in pipes],
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
