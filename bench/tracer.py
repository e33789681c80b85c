"""Spans around every call into stabilab's public module functions.

The tracer replaces each public function of the package modules with a
wrapper, in every module namespace that binds it (``verify`` imports ``step``
from ``dynamics``, ``dynamics`` imports ``grad_batch`` from ``model``, ...),
so no call slips past it.  Each call records a span (name, start, end,
parent, run id) into flat arrays kept in memory; :meth:`Tracer.save` writes
them when the run ends.  Self time is a span's duration minus the part its
child spans cover.

A few low-frequency functions also have a *probe* that reads a count from
the call's arguments and result (minibatches enumerated, density
evaluations, certificates passed, replicas diverged).  Probes never run on hot functions, so the
per-call cost of those stays one wrapper frame and five array appends.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "stabilab"
MODULES = ("model", "dynamics", "transport", "bounds", "verify", "harness",
           "cli")


def _rho_quadratic(args, result):
    n, b = args["dataset"].n, args["b"]
    mode = args.get("mode", "exact")
    return {"bounds.rho_quadratic.minibatches":
            math.comb(n, b) if mode == "exact" else args.get("n_mc", 10000)}


def _minorization(args, cert):
    d = cert.details
    per_point = math.comb(args["dataset"].n, args["b"])
    return {"verify.minorization.density_evals":
            (d["n_theta"] * d["n_theta1"] + d["n_theta1"]) * per_point}


def _certificate(args, cert):
    return {"verify.certs_attempted": 1,
            "verify.certs_passed": int(bool(cert.passed))}


def _ensemble(args, ensemble):
    return {"dynamics.diverged_replicas":
            sum(r.diverged for r in ensemble.replicas)}


def _assignment(args, est):
    return {"transport.wasserstein_assignment.max_n": est.n_samples}


PROBES = {
    "bounds.rho_quadratic": [_rho_quadratic],
    "verify.check_minorization_gaussian": [_minorization, _certificate],
    "verify.check_contraction": [_certificate],
    "verify.check_drift": [_certificate],
    "verify.check_kernel_gap": [_certificate],
    "verify.check_bound_dominates": [_certificate],
    "transport.wasserstein_assignment": [_assignment],
    "dynamics.run_ensemble": [_ensemble],
}
# probe outputs combined with max instead of sum
MAX_COUNTERS = {"transport.wasserstein_assignment.max_n"}


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self, modules):
        self.modules = modules
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        # probe counts per run id
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack = [-1]

    def _wrap(self, fn, name: str):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        span_name, parent, run = self.span_name, self.parent, self.run
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        probes = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(math.nan)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probes:
                self._probe(fn, probes, args, kwargs, result)
            return result

        return traced

    def _probe(self, fn, probes, args, kwargs, result) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        counters = self.counters[self.run_id]
        for probe in probes:
            for key, value in probe(bound, result).items():
                if key in MAX_COUNTERS:
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] += value

    @contextmanager
    def installed(self):
        """Wrap every public package function in every module binding it."""
        wrappers = {}
        patches = []
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(PACKAGE + ".")):
                    continue
                if id(value) not in wrappers:
                    layer = value.__module__.removeprefix(PACKAGE + ".")
                    wrappers[id(value)] = self._wrap(
                        value, f"{layer}.{value.__name__}")
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for module, attr, value in patches:
                setattr(module, attr, value)

    def spans(self) -> dict:
        return {"name": np.array(self.span_name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "run": np.array(self.run, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def layer_totals(self, run_ids) -> dict:
        """Per span name: calls, self seconds and total seconds over runs."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        keep = np.isin(s["run"], list(run_ids))
        size = len(self.names)
        names = s["name"][keep]
        calls = np.bincount(names, minlength=size)
        self_s = np.bincount(names, weights=(dur - child)[keep],
                             minlength=size)
        total_s = np.bincount(names, weights=dur[keep], minlength=size)
        return {name: {"calls": int(calls[i]), "s": float(self_s[i]),
                       "total_s": float(total_s[i])}
                for i, name in enumerate(self.names)}

    def counters_for(self, run_ids) -> dict[str, float]:
        """Probe counts summed (or maxed) over the given runs."""
        out: dict[str, float] = defaultdict(float)
        for run_id in run_ids:
            for key, value in self.counters.get(run_id, {}).items():
                out[key] = max(out[key], value) if key in MAX_COUNTERS \
                    else out[key] + value
        return out

    def calls_under(self, parent_name: str, child_name: str, run_ids) -> int:
        """Calls of child_name made directly by a parent_name span."""
        if parent_name not in self.name_ids or child_name not in self.name_ids:
            return 0
        s = self.spans()
        has_parent = s["parent"] >= 0
        parent_name_of = np.full(len(s["name"]), -1)
        parent_name_of[has_parent] = s["name"][s["parent"][has_parent]]
        return int(np.count_nonzero(
            (s["name"] == self.name_ids[child_name])
            & (parent_name_of == self.name_ids[parent_name])
            & np.isin(s["run"], list(run_ids))))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
