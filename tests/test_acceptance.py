"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL line,
and enforces the criterion's wall-clock budget.  All parameters are pinned
so reruns are deterministic.
"""

import json
import math
import time

import numpy as np
import pytest
from lane_oracle import record_lanes

from stabilab import model, transport
from stabilab.bounds import (bound_nonconvex_noisy, bound_nonconvex_plain,
                             bound_strongly_convex, dissipative_radius,
                             eta_hat_gaussian_log, k0_constant,
                             rho_quadratic)
from stabilab.dynamics import NoiseModel, SGDConfig, run_ensemble
from stabilab.harness import cmd_bounds, cmd_simulate, cmd_verify, \
    evaluate_bound, validate_config
from stabilab.model import AssumptionConstants
from stabilab.verify import (check_bound_dominates, check_contraction,
                             check_drift)

LOG_ETA_HAT_FROZEN = -2746.1971327097285


class _Budget:
    """Context manager: report PASS/FAIL and enforce the runtime budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds \
            else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s "
              f"of {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.1f}s)"
        return False


def coupled_w1(loss, pair, cfg, noise, R, checkpoints, p=1.0):
    ens = run_ensemble(loss, pair, cfg, noise, R, checkpoints)
    assert not ens.any_diverged()
    return {k: transport.coupled_upper_bound(p, *ens.clouds_at(k))
            for k in checkpoints}


def subset_pair(base, perturbed_point, n):
    """First-n-rows subset of a dataset and its one-point perturbation
    (features, label)."""
    sub = model.Dataset(base.features[:n].copy(), base.labels[:n].copy(),
                        base.radius_D, base.generator_spec)
    pert = model.Dataset(sub.features.copy(), sub.labels.copy(),
                         sub.radius_D, sub.generator_spec)
    pert.features[0], pert.labels[0] = perturbed_point
    return model.NeighborPair(sub, pert, 0)


def test_01_exact_contraction():
    with _Budget("01 exact contraction", 1.0):
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 1, "generator": "unit_fixed"}, 0)
        cfg = SGDConfig(0.1, 4, 50, np.zeros(1), 0)
        dist = record_lanes(model.LossModel("Quadratic"), (ds, ds),
                            (np.array([1.0]), np.array([0.0])), cfg,
                            NoiseModel(), [0]).distances[0]
        expect = 0.9 ** np.arange(51)
        assert np.max(np.abs(dist - expect)) <= 1e-12


def test_02_quadratic_worked_bound(tmp_path):
    with _Budget("02 quadratic worked bound", 1.0):
        cfg = {
            "schema_version": 1, "regime": "Quadratic",
            "loss": {"family": "Quadratic"},
            "dataset": {"n": 10, "d": 1, "generator": "unit_fixed",
                        "seed": 0},
            "sgd": {"eta": 0.1, "batch_b": 1, "k_max": 100,
                    "theta0": [0.0], "master_seed": 42},
            "bound": {"k": "inf"},
        }
        assert cmd_bounds(cfg, tmp_path) == 0
        rep = json.loads((tmp_path / "bounds.json").read_text())
        assert rep["value"] == pytest.approx(0.8, rel=1e-12)


def test_03_one_over_n_scaling():
    with _Budget("03 O(1/n) scaling", 60.0):
        loss = model.LossModel("RidgeQuadratic", mu0=1.0)
        base = model.make_synthetic_dataset(
            {"n": 256, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 0.5}, 7)
        perturbed = model.make_neighbor(base, 0, 11).perturbed
        repl = perturbed.features[0], perturbed.labels[0]
        ns = [32, 64, 128, 256]
        values = []
        for n in ns:
            pair = subset_pair(base, repl, n)
            cfg = SGDConfig(0.01, 1, 500, np.zeros(2), 300 + n)
            w1 = coupled_w1(loss, pair, cfg, NoiseModel(), 256, [500])
            values.append(w1[500].value)
        slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
        assert -1.3 <= slope <= -0.7, f"slope {slope}"


def test_04_time_uniformity():
    with _Budget("04 time-uniformity", 120.0):
        loss = model.LossModel("RidgeQuadratic", mu0=1.0)
        ds = model.make_synthetic_dataset(
            {"n": 64, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 0.5}, 164)
        pair = model.make_neighbor(ds, 0, 264)
        cfg = SGDConfig(0.01, 1, 2500, np.zeros(2), 364)
        w1 = coupled_w1(loss, pair, cfg, NoiseModel(), 256, [250, 2500])
        short, long = w1[250].value, w1[2500].value
        rel = abs(long - short) / max(short, long)
        assert rel < 0.20, f"relative difference {rel}"
        constants = model.derive_constants(loss, ds)
        for k, emp in ((250, short), (2500, long)):
            bound = bound_strongly_convex(constants, 0.01, 64, 0.0, k)
            assert emp <= bound.value


def test_05_dominance_sweep():
    with _Budget("05 dominance sweep", 60.0):
        rng = np.random.default_rng(2024)
        found = trial = 0
        while found < 20:
            trial += 1
            n = int(rng.integers(8, 17))
            d = int(rng.integers(1, 3))
            eta = float(rng.uniform(0.05, 0.3))
            b = int(rng.integers(1, 3))
            k = int(rng.integers(50, 201))
            ds = model.make_synthetic_dataset(
                {"n": n, "d": d, "generator": "gaussian_clipped",
                 "radius_D": 1.0}, trial)
            if rho_quadratic(ds, eta, b)["rho"] >= 1.0 - 1e-9:
                continue
            cfg = {
                "schema_version": 1, "regime": "Quadratic",
                "loss": {"family": "Quadratic"},
                "dataset": {"n": n, "d": d,
                            "generator": "gaussian_clipped",
                            "radius_D": 1.0, "seed": trial},
                "neighbor": {"index": 0, "seed": 1000 + trial},
                "sgd": {"eta": eta, "batch_b": b, "k_max": k,
                        "theta0": [0.0] * d,
                        "master_seed": 2000 + trial},
                "bound": {"k": k},
            }
            bound = evaluate_bound(validate_config(cfg))
            loss = model.LossModel("Quadratic")
            dataset = model.make_synthetic_dataset(cfg["dataset"],
                                                   trial)
            pair = model.make_neighbor(dataset, 0, 1000 + trial)
            sgd = SGDConfig(eta, b, k, np.zeros(d), 2000 + trial)
            ens = run_ensemble(loss, pair, sgd, NoiseModel(), 64, [k])
            emp = transport.wasserstein_assignment(1.0, *ens.clouds_at(k))
            cert = check_bound_dominates(emp, bound)
            assert cert.passed, f"trial {trial}: margin {cert.margin}"
            found += 1
        assert found == 20


SINE_DATASET = {"n": 8, "d": 1, "generator": "gaussian_clipped",
                "radius_D": 0.1, "label_range": 0.05}


def test_06_noisy_nonconvex():
    with _Budget("06 noisy non-convex", 120.0):
        # the closed-form minorization level at the reference parameters
        # stays representable in log-space
        eh = eta_hat_gaussian_log([0.5], eta=0.1, m=1.0, K0=2.44,
                                  epsilon=0.5, K1=1.0, grad_at_star_sup=1.0,
                                  M_grid=[1.0])
        assert math.isfinite(eh["log_eta_hat"])
        assert eh["log_eta_hat"] == pytest.approx(LOG_ETA_HAT_FROZEN,
                                                  rel=1e-9)

        loss = model.LossModel("RegularizedSine", m0=2.0, s=0.01)
        ds = model.make_synthetic_dataset(SINE_DATASET, 21)
        pair = model.make_neighbor(ds, 0, 22)
        noise = NoiseModel("gaussian_diag", (math.sqrt(0.5),))
        cfg = SGDConfig(0.2, 4, 5000, np.zeros(1), 77)
        w1 = coupled_w1(loss, pair, cfg, noise, 128, [500, 5000])
        short, long = w1[500].value, w1[5000].value
        rel = abs(long - short) / max(short, long)
        assert rel < 0.25, f"plateau relative difference {rel}"

        constants = model.derive_constants(loss, ds)
        Q = dissipative_radius(constants.m, constants.K, constants.E)
        K0 = k0_constant(constants.m, 0.2, constants.K1, constants.K2,
                         constants.D, Q ** 2, constants.K, noise.sigma2)
        theta_star = model.empirical_minimizer(loss, ds)
        grad_sup = model.max_grad_norm(loss, ds, theta_star)
        eh_run = eta_hat_gaussian_log([0.5], 0.2, constants.m, K0, 0.5,
                                      constants.K1, grad_sup)
        assert math.isfinite(eh_run["log_eta_hat"])
        bound = bound_nonconvex_noisy(constants, 0.2, noise.sigma2, 4,
                                      ds.n, 0.0, math.inf, K0,
                                      eh_run["log_eta_hat"], 0.5)
        assert math.isfinite(bound.value) and bound.value > 0
        assert long <= bound.value


def test_07_persistent_term():
    with _Budget("07 persistent term", 120.0):
        worked = AssumptionConstants(K1=1.0, K2=1.0, mu=0.0, m=1.0, K=1.0,
                                     p=2.0, D=1.0, E=0.0)
        huge_n = bound_nonconvex_plain(worked, 0.01, 1, 10 ** 6, 0.0,
                                       math.inf)
        assert huge_n.value == pytest.approx(2.0, abs=0.05)
        ref = bound_nonconvex_plain(worked, 0.01, 1, 100, 0.0, math.inf)
        assert ref.value == pytest.approx(4.942728, rel=1e-9)

        loss = model.LossModel("RegularizedSine", m0=2.0, s=0.01)
        ds = model.make_synthetic_dataset(SINE_DATASET, 21)
        pair = model.make_neighbor(ds, 0, 22)
        cfg = SGDConfig(0.2, 4, 2000, np.zeros(1), 78)
        w2 = coupled_w1(loss, pair, cfg, NoiseModel(), 128,
                        [500, 2000], p=2.0)
        plateau = w2[2000].power_mean
        assert plateau > 0
        constants = model.derive_constants(loss, ds)
        bound = bound_nonconvex_plain(constants, 0.2, 4, ds.n, 0.0,
                                      math.inf)
        assert plateau <= bound.value


def test_08_transport_oracle():
    with _Budget("08 transport oracle", 30.0):
        rng = np.random.default_rng(888)
        for _ in range(100):
            N = int(rng.integers(2, 65))
            a = rng.standard_normal(N)
            b = rng.standard_normal(N)
            p = float(rng.choice([1.0, 1.5, 2.0]))
            exact = transport.wasserstein_exact_1d(p, a, b)
            assign = transport.wasserstein_assignment(p, a[:, None],
                                                      b[:, None])
            assert abs(exact.value - assign.value) <= 1e-12
        for _ in range(100):
            N = int(rng.integers(2, 65))
            d = int(rng.integers(1, 4))
            A = rng.standard_normal((N, d))
            B = A + 0.2 * rng.standard_normal((N, d))
            p = float(rng.choice([1.0, 1.5, 2.0]))
            assign = transport.wasserstein_assignment(p, A, B)
            coupled = transport.coupled_upper_bound(p, A, B)
            assert assign.value <= coupled.value + 1e-12


def test_09_drift_equality_point():
    with _Budget("09 drift equality point", 1.0):
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 1, "generator": "unit_fixed"}, 0)
        cert = check_drift(model.LossModel("Quadratic"), ds, 0.1, 1,
                           "one_plus_norm", claimed_delta=0.9, claimed_L=0.2,
                           theta_grid=[[0.0]])
        assert cert.passed
        assert abs(cert.margin) <= 1e-9
        assert cert.details["measured"] == pytest.approx(1.1, abs=1e-12)


def test_10_gradient_and_assumption_suites():
    with _Budget("10 gradient and assumption suites", 30.0):
        losses = [model.LossModel("Quadratic"),
                  model.LossModel("RidgeQuadratic", mu0=1.0),
                  model.LossModel("RegularizedSine", m0=2.0, s=0.5),
                  model.LossModel("ScalarPower", p=1.5, mu=1.0)]
        rng = np.random.default_rng(1010)
        h = 1e-5
        for loss in losses:
            d = 1 if loss.family == "ScalarPower" else 2
            for _ in range(50):
                z = rng.standard_normal(d + 1)
                z /= max(np.linalg.norm(z), 1.0)
                a, y = z[:d], float(z[d])
                theta = rng.standard_normal(d)
                if loss.family == "ScalarPower":
                    while abs(theta[0] - y) < 1e-2:
                        theta = rng.standard_normal(1)
                g = model.grad_batch(loss, theta, a[None], [y])
                fd = np.empty(d)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    fd[j] = (_value(loss, theta + e, a, y)
                             - _value(loss, theta - e, a, y)) / (2 * h)
                rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0)
                assert rel <= 1e-6
            ds = model.make_synthetic_dataset(
                {"n": 16, "d": d, "generator": "gaussian_clipped",
                 "radius_D": 1.0}, 1010)
            constants = model.derive_constants(loss, ds)
            report = model.check_assumptions(loss, ds, constants, 5000,
                                             seed=1010)
            assert report["violations"] == 0, loss.family


def _value(loss, theta, a, y):
    if loss.family == "Quadratic":
        return 0.5 * (a @ theta - y) ** 2
    if loss.family == "RidgeQuadratic":
        return 0.5 * (a @ theta - y) ** 2 + 0.5 * loss.mu0 * theta @ theta
    if loss.family == "RegularizedSine":
        return 0.5 * loss.m0 * theta @ theta + loss.s * np.sin(a @ theta - y)
    return loss.mu / loss.p * abs(theta[0] - y) ** loss.p


def test_11_determinism(tmp_path):
    with _Budget("11 determinism", 60.0):
        cfg = {
            "schema_version": 1, "regime": "Quadratic",
            "loss": {"family": "Quadratic"},
            "dataset": {"n": 10, "d": 1, "generator": "unit_fixed",
                        "seed": 0},
            "sgd": {"eta": 0.1, "batch_b": 1, "k_max": 100,
                    "theta0": [0.0], "master_seed": 42},
            "bound": {"k": "inf"},
            "replicas": 16,
            "checkpoints": [50, 100],
            "estimators": ["coupled", "exact_1d"],
            "certificates": [
                {"kind": "contraction", "claimed_rate": 0.9, "k_max": 20,
                 "R": 8},
                {"kind": "dominance", "R": 16, "k": 100},
            ],
        }
        for run in ("a", "b"):
            out = tmp_path / run
            assert cmd_bounds(cfg, out) == 0
            assert cmd_simulate(cfg, out) == 0
            assert cmd_verify(cfg, out) == 0
        for name in ("bounds.json", "estimates.csv", "run_summary.json",
                     "certificates.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name


def test_12_contraction_false_fail_rate():
    # d = 1 Quadratic with eta = 0.5 / max a_i^2: every factor 1 - eta h_Omega
    # is positive, so E|Delta_k| = r^k exactly with r = 1 - eta mean(a_i^2)
    # = 0.79724.  Claiming exactly r, each of the 50 points fails w.p. about
    # 0.00135 (one-sided 3 SE), so at most 300 * 50 * 0.00135 = 20.25 of 300
    # seeds fail by the union bound; 4 do.
    with _Budget("12 contraction false-fail rate", 10.0):
        ds = model.make_synthetic_dataset(
            {"n": 16, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 0)
        a2 = ds.features[:, 0] ** 2
        eta = 0.5 / a2.max()
        rate = 1.0 - eta * a2.mean()
        assert rate == pytest.approx(0.79724, abs=1e-5)
        certs = [check_contraction(model.LossModel("Quadratic"), ds, eta, 4,
                                   rate, k_max=50, R=64, seed=seed)
                 for seed in range(300)]
        assert all(c.details["points"] == 50 for c in certs)
        fails = sum(not c.passed for c in certs)
        print(f"false fails: {fails} of 300")
        assert fails <= 20
