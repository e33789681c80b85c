"""The benchmark's workloads: one stabilab config per workload, built from a seed.

The benchmark seed derives the master seed, which keys every replica's
minibatch and noise streams and every certificate's sampling.  The dataset
and its neighbor are the same for every seed (dataset seed 0, neighbor index
0 and neighbor seed 1, the harness defaults): the assignment solver's time
on wide-quadratic varies threefold with the size of the neighbor's
perturbation, and that would swamp the changes this benchmark must resolve.
Each workload stresses a different layer (see NOTES.md).
"""

from __future__ import annotations

import math

import numpy as np

NAMES = ("wide-quadratic", "deep-noisy", "certify-grid")


DATASET_SEED = 0
NEIGHBOR_SEED = 1


def _master_seed(name: str, seed: int) -> int:
    entropy = [int(seed), NAMES.index(name)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def wide_quadratic(data_seed: int, neighbor_seed: int, master: int) -> dict:
    return {
        "schema_version": 1, "regime": "Quadratic",
        "loss": {"family": "Quadratic"},
        "dataset": {"n": 16, "d": 2, "generator": "gaussian_clipped",
                    "radius_D": 1.0, "seed": data_seed},
        "neighbor": {"index": 0, "seed": neighbor_seed},
        "sgd": {"eta": 0.5, "batch_b": 8, "k_max": 100,
                "theta0": [0.0, 0.0], "master_seed": master},
        "bound": {"k": 100, "rho_mode": "exact"},
        "replicas": 1024,
        "checkpoints": [25, 50, 100],
        "estimators": ["coupled", "assignment"],
        "certificates": [
            {"kind": "contraction", "claimed_rate": 0.95, "k_max": 100,
             "R": 256},
            {"kind": "dominance", "R": 1024, "k": 100,
             "estimator": "assignment"},
        ],
    }


def _noisy_sine(n: int, d: int, b: int, data_seed: int, neighbor_seed: int,
                master: int, k_max: int, bound_k) -> dict:
    return {
        "schema_version": 1, "regime": "NonconvexNoisy",
        "loss": {"family": "RegularizedSine", "m0": 2.0, "s": 0.01},
        "dataset": {"n": n, "d": d, "generator": "gaussian_clipped",
                    "radius_D": 0.1, "label_range": 0.05, "seed": data_seed},
        "neighbor": {"index": 0, "seed": neighbor_seed},
        "sgd": {"eta": 0.2, "batch_b": b, "k_max": k_max,
                "theta0": [0.0] * d, "master_seed": master},
        "noise": {"kind": "gaussian_diag", "scale": [math.sqrt(0.5)] * d},
        "bound": {"k": bound_k},
    }


def deep_noisy(data_seed: int, neighbor_seed: int, master: int) -> dict:
    d = 16
    return _noisy_sine(32, d, 4, data_seed, neighbor_seed, master,
                       k_max=10000, bound_k="inf") | {
        "replicas": 16,
        "checkpoints": [1000, 5000, 10000],
        "estimators": ["coupled", "assignment"],
        "certificates": [
            {"kind": "contraction", "claimed_rate": 0.9, "k_max": 2000,
             "R": 16, "theta0_a": [1.0] * d, "theta0_b": [0.0] * d},
        ],
    }


def certify_grid(data_seed: int, neighbor_seed: int, master: int) -> dict:
    return _noisy_sine(8, 2, 4, data_seed, neighbor_seed, master,
                       k_max=500, bound_k=500) | {
        "replicas": 64,
        "checkpoints": [500],
        "estimators": ["coupled"],
        "certificates": [
            {"kind": "minorization", "M": 1.0, "n_grid": 9},
            {"kind": "drift", "mode": "monte_carlo", "n_mc": 2000,
             "claimed_delta": 0.7, "claimed_L": 0.5,
             "theta_grid": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                            [-1.0, -1.0]]},
            {"kind": "kernel_gap", "claimed_gamma": 0.1, "R": 1000,
             "theta_grid": [[0.0, 0.0], [1.0, 1.0]]},
            {"kind": "contraction", "claimed_rate": 0.9, "k_max": 50,
             "R": 64},
            {"kind": "dominance", "R": 64, "k": 500},
        ],
    }


_BUILDERS = {"wide-quadratic": wide_quadratic, "deep-noisy": deep_noisy,
             "certify-grid": certify_grid}


def config(name: str, seed: int) -> dict:
    """The stabilab config of workload ``name`` for benchmark seed ``seed``."""
    return _BUILDERS[name](DATASET_SEED, NEIGHBOR_SEED,
                           _master_seed(name, seed))


def replica_steps(cfg: dict) -> int:
    """R * k_max of the simulate ensemble."""
    return int(cfg["replicas"]) * int(cfg["sgd"]["k_max"])
