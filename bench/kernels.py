"""Microbenchmarks of single layer operations, all through public functions.

They isolate what the CLI workloads mix together: one gradient, one
minibatch row, one noise draw, one coupled step, the ensemble's cost per
replica-step over a fixed (R, d) grid, and each transport estimator at the
assignment cap.  Per-call kernels use the workload's own loss, dataset and
batch size; the ensemble grid and the transport clouds are the same on every
workload.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

ENSEMBLE_GRID = [(R, d) for R in (64, 1024) for d in (1, 2, 16)]
# replica-steps timed per ensemble grid point
ENSEMBLE_STEPS = 8192
TRANSPORT_N = 1024


def metric_names() -> list[tuple[str, str]]:
    names = [("kernel.grad_batch.us", "us"),
             ("kernel.minibatch_row.us", "us"),
             ("kernel.noise_draw.us", "us"),
             ("kernel.step.us", "us")]
    names += [(f"kernel.run_ensemble.R{R}.d{d}.us_per_replica_step", "us")
              for R, d in ENSEMBLE_GRID]
    names += [(f"kernel.wasserstein_exact_1d.N{TRANSPORT_N}.us", "us"),
              (f"kernel.wasserstein_assignment.N{TRANSPORT_N}.ms", "ms")]
    return names


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean seconds per call."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _ensemble_us(dynamics, model, R: int, d: int, seed: int) -> float:
    loss = model.LossModel("RegularizedSine", m0=2.0, s=0.01)
    data = model.make_synthetic_dataset(
        {"n": 32, "d": d, "generator": "gaussian_clipped", "radius_D": 0.1,
         "label_range": 0.05}, seed)
    pair = model.make_neighbor(data, 0, seed + 1)
    k_max = ENSEMBLE_STEPS // R
    sgd = dynamics.SGDConfig(eta=0.2, batch_b=4, k_max=k_max,
                             theta0=np.zeros(d), master_seed=seed)
    noise = dynamics.NoiseModel("gaussian_diag", (math.sqrt(0.5),) * d)
    start = time.perf_counter()
    dynamics.run_ensemble(loss, pair, sgd, noise, R, [k_max])
    return (time.perf_counter() - start) / (R * k_max) * 1e6


def run(cfg: dict, seed: int) -> dict:
    """Kernel timings for workload config ``cfg``; values in the named units."""
    from stabilab import dynamics, harness, model, transport

    loss = harness.build_loss(cfg)
    data = harness.build_dataset(cfg)
    sgd = harness.build_sgd(cfg)
    d, b = data.dim_d, sgd.batch_b
    noise = dynamics.NoiseModel("gaussian_diag", (math.sqrt(0.5),) * d)
    rng = np.random.default_rng(seed)
    omega = rng.choice(data.n, size=b, replace=False)
    theta = rng.standard_normal(d)
    A, Y = data.features[omega], data.labels[omega]
    xi = noise.draw(rng)
    rows = 2000

    out = {
        "kernel.grad_batch.us": _per_call(
            lambda: model.grad_batch(loss, theta, A, Y), 2000) * 1e6,
        "kernel.minibatch_row.us": _per_call(
            lambda: dynamics.minibatch_sequence(data.n, b, rows, seed, 0),
            1, repeats=3) / rows * 1e6,
        "kernel.noise_draw.us": _per_call(lambda: noise.draw(rng),
                                          2000) * 1e6,
        "kernel.step.us": _per_call(
            lambda: dynamics.step(loss, data, theta, omega, sgd.eta, xi),
            2000) * 1e6,
    }
    for R, dim in ENSEMBLE_GRID:
        out[f"kernel.run_ensemble.R{R}.d{dim}.us_per_replica_step"] = \
            _ensemble_us(dynamics, model, R, dim, seed)
    a1, b1 = rng.standard_normal(TRANSPORT_N), rng.standard_normal(TRANSPORT_N)
    out[f"kernel.wasserstein_exact_1d.N{TRANSPORT_N}.us"] = _per_call(
        lambda: transport.wasserstein_exact_1d(1.0, a1, b1), 200) * 1e6
    A2 = rng.standard_normal((TRANSPORT_N, 2))
    B2 = rng.standard_normal((TRANSPORT_N, 2))
    out[f"kernel.wasserstein_assignment.N{TRANSPORT_N}.ms"] = _per_call(
        lambda: transport.wasserstein_assignment(1.0, A2, B2), 1,
        repeats=3) * 1e3
    return out
