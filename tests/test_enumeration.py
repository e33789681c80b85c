"""Differential tests of the enumeration and density kernels against the
scalar references they replaced.

* ``dynamics.minibatches`` against ``itertools.combinations``;
* ``rho_quadratic`` (exact, and its E||q_hat|| for a neighbor pair)
  against one spectral or Euclidean norm per minibatch, and its one pass
  for a neighbor pair (rho, rho_hat and E||q_hat||) against the separate
  calls and the per-minibatch loops;
* the minorization log-density-ratio grid against the per-point mixture
  density, element by element, in d = 1 and d = 2, with equal and (in
  d = 2) distinct noise variances, and at any block budget;
* the drift (exact and Monte-Carlo, with and without noise) and kernel-gap
  certificates against per-sample ``dynamics.step`` loops on the same
  random streams (stream layout v3: one ``stream_oracle.floyd_row`` per
  sample on the minibatch stream, one ``NoiseModel.draw`` per sample on the
  noise stream);
* ``dynamics.MinibatchSource``: its Monte-Carlo blocks against one
  ``floyd_row`` per row, its exact blocks against ``dynamics.minibatches``;
* the assumption audit ``model.check_assumptions`` against the per-sample
  loop with three one-row gradients per sample (report dicts equal), and
  ``model.max_grad_norm`` against one gradient per point.

Every kernel performs the same floating-point operations per element as its
reference, in the same order, so the results are asserted bit-equal; the
1e-12 relative comparison runs first so that a failure shows its size.
"""

import ast
import inspect
import math
import re
import time
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest
from scipy.special import logsumexp
from stream_oracle import floyd_row

from stabilab import bounds, dynamics, model, verify
from stabilab.bounds import rho_quadratic
from stabilab.dynamics import (EXACT_ENUMERATION_CAP, MinibatchSource,
                               NoiseModel, minibatches, step)
from stabilab.model import grad_batch
from stabilab.verify import (check_drift, check_kernel_gap,
                             check_minorization_gaussian)

RTOL = 1e-12


def assert_same(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0)
    assert np.array_equal(actual, expected)


def dataset(n, d, seed=3, **spec):
    return model.make_synthetic_dataset(
        {"n": n, "d": d, "generator": "gaussian_clipped", "radius_D": 1.0}
        | spec, seed)


# scalar references ---------------------------------------------------------

def log_mixture_density(loss, ds, eta, Sigma, theta, theta1, omegas):
    """log p(theta, theta1) for the Gaussian-noise one-step kernel, as an
    exact mixture over the enumerated minibatches, one component at a time."""
    d = ds.dim_d
    var = eta ** 2 * Sigma
    log_norm = -0.5 * (d * math.log(2.0 * math.pi) + np.sum(np.log(var)))
    logs = np.empty(len(omegas))
    for idx, om in enumerate(omegas):
        om = np.asarray(om, dtype=np.int64)
        mean = theta - eta * grad_batch(loss, theta, ds.features[om],
                                        ds.labels[om])
        logs[idx] = log_norm - 0.5 * np.sum((theta1 - mean) ** 2 / var)
    return float(logsumexp(logs) - math.log(len(omegas)))


def rho_loop(ds, eta, b):
    eye = np.eye(ds.dim_d)
    vals = []
    for om in combinations(range(ds.n), b):
        A = ds.features[list(om)]
        vals.append(float(np.linalg.norm(eye - eta * (A.T @ A / b), 2)))
    return float(np.mean(vals))


def q_norm_loop(ds, b, omegas=None):
    """E||sum_{i in Omega} a_i y_i|| over ``omegas``, by default every
    minibatch."""
    q = ds.features * ds.labels[:, None]
    if omegas is None:
        omegas = combinations(range(ds.n), b)
    return float(np.mean([np.linalg.norm(q[list(om)].sum(axis=0))
                          for om in omegas]))


def eq1_norm(ds, eta, b, **kw):
    """``rho_quadratic``'s E||q_hat|| for the neighbor of ``ds`` at index 0,
    with that neighbor."""
    pair = model.make_neighbor(ds, 0, 5)
    return rho_quadratic(ds, eta, b, pair=pair, **kw)["Eq1_norm"], pair


def lyapunov(kind, loss, ds):
    if kind == "one_plus_norm":
        return lambda t: 1.0 + np.linalg.norm(t)
    theta_star = model.empirical_minimizer(loss, ds)
    return lambda t: 1.0 + float(np.sum((t - theta_star) ** 2))


def drift_loop(loss, ds, eta, b, kind, delta, L, grid, mode, n_mc, seed,
               noise):
    """(margin, worst point) of the drift check, one step per sample."""
    V = lyapunov(kind, loss, ds)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    noise_rng = dynamics._stream(seed, 0, dynamics._STREAM_NOISE)
    worst_margin, worst = math.inf, {}
    for theta in np.asarray(grid, dtype=float):
        if mode == "exact":
            vals = [V(step(loss, ds, theta, np.array(om), eta))
                    for om in combinations(range(ds.n), b)]
            se = 0.0
        else:
            vals = []
            for _ in range(n_mc):
                om = floyd_row(rng, ds.n, b)
                vals.append(V(step(loss, ds, theta, om, eta,
                                   noise.draw(noise_rng))))
            se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
        pv = float(np.mean(vals))
        claim = delta * V(theta) + L
        margin = (claim - pv) + 3.0 * se + 1e-12 * abs(claim)
        if margin < worst_margin:
            worst_margin = margin
            worst = {"worst": theta.tolist(), "measured": pv,
                     "claim": claim, "stderr": se}
    return worst_margin, worst


def kernel_gap_loop(loss, pair, eta, b, kind, gamma, grid, R, seed):
    """(margin, worst point) of the kernel-gap check, one step pair per
    sample."""
    V = lyapunov(kind, loss, pair.perturbed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst_margin, worst = math.inf, {}
    for theta in np.asarray(grid, dtype=float):
        dists = np.empty(R)
        for r in range(R):
            omega = floyd_row(rng, pair.base.n, b)
            dists[r] = np.linalg.norm(
                step(loss, pair.base, theta, omega, eta)
                - step(loss, pair.perturbed, theta, omega, eta))
        ratio = float(np.mean(dists)) / V(theta)
        se = float(np.std(dists, ddof=1) / np.sqrt(R)) / V(theta)
        margin = (gamma - ratio) + 3.0 * se + 1e-12 * abs(gamma)
        if margin < worst_margin:
            worst_margin = margin
            worst = {"worst": theta.tolist(), "measured": ratio,
                     "claim": gamma, "stderr": se}
    return worst_margin, worst


def assumptions_loop(loss, ds, constants, n_samples, seed):
    """The assumption audit, one sample at a time with three one-row
    gradients per sample."""
    def grad(t, i):
        return grad_batch(loss, t, ds.features[i][None], [ds.labels[i]])

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    d = ds.dim_d
    worst = np.inf
    violations = 0
    checked = 0
    tol = 1e-9
    for _ in range(n_samples):
        t1 = rng.standard_normal(d)
        t1 *= model.ASSUMPTION_BALL_RADIUS * rng.random() ** (1 / d) \
            / np.linalg.norm(t1)
        t2 = rng.standard_normal(d)
        t2 *= model.ASSUMPTION_BALL_RADIUS * rng.random() ** (1 / d) \
            / np.linalg.norm(t2)
        i, j = int(rng.integers(ds.n)), int(rng.integers(ds.n))
        sep = np.linalg.norm(t1 - t2)
        if constants.p < 2.0 and sep < model.POWER_SEPARATION_FLOOR:
            continue
        g1x, g2x, g2xh = grad(t1, i), grad(t2, i), grad(t2, j)
        dx = np.linalg.norm(np.concatenate(
            [ds.features[i] - ds.features[j],
             [float(ds.labels[i]) - float(ds.labels[j])]]))
        margins = []
        theta_exp = constants.p / 2.0 if constants.p < 2.0 else 1.0
        data_exp = constants.p - 1.0 if constants.p < 2.0 else 1.0
        lhs = np.linalg.norm(g1x - g2xh)
        rhs = constants.K1 * sep ** theta_exp + constants.K2 * dx * (
            np.linalg.norm(t1) ** data_exp
            + np.linalg.norm(t2) ** data_exp + 1.0)
        margins.append(rhs - lhs)
        inner = float((g1x - g2x) @ (t1 - t2))
        if constants.p == 2.0 and constants.mu > 0:
            margins.append(inner - constants.mu * sep ** 2)
        if constants.m > 0:
            margins.append(inner - (constants.m * sep ** 2 - constants.K))
        if constants.p < 2.0:
            margins.append(inner - constants.mu * sep ** constants.p)
        m = min(margins)
        checked += 1
        worst = min(worst, m)
        if m < -tol:
            violations += 1
    return {"violations": violations, "worst_margin": float(worst),
            "checked": checked}


# tests ---------------------------------------------------------------------

class TestMinibatches:
    @pytest.mark.parametrize("n,b", [(1, 1), (5, 1), (5, 5), (6, 3),
                                     (8, 4), (16, 8), (10, 9)])
    def test_equals_combinations(self, n, b):
        omegas = minibatches(n, b)
        assert omegas.dtype == np.int64
        assert omegas.shape == (math.comb(n, b), b)
        assert omegas.tolist() == [list(c)
                                   for c in combinations(range(n), b)]

    def test_cap_is_inclusive(self):
        # C(20000, 1) equals the cap; C(201, 2) = 20100 exceeds it
        assert len(minibatches(EXACT_ENUMERATION_CAP, 1)) \
            == EXACT_ENUMERATION_CAP
        with pytest.raises(ValueError,
                           match=r"C\(201,2\) minibatches .* cap 20000"):
            minibatches(201, 2)

    def test_enumerable_matches_the_cap(self):
        for n in range(45):
            for b in range(n + 1):
                assert dynamics.enumerable(n, b) \
                    == (math.comb(n, b) <= EXACT_ENUMERATION_CAP), (n, b)
        assert dynamics.enumerable(EXACT_ENUMERATION_CAP, 1)
        assert not dynamics.enumerable(EXACT_ENUMERATION_CAP + 1, 1)

    def test_cap_check_is_cheap(self):
        # math.comb(10 ** 6, 5 * 10 ** 5) alone takes about 12 s
        start = time.perf_counter()
        for call in (lambda: minibatches(10 ** 6, 5 * 10 ** 5),
                     lambda: MinibatchSource(10 ** 6, 5 * 10 ** 5, "exact")):
            with pytest.raises(ValueError, match="exceed the exact-enum"):
                call()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("call", [
        lambda ds: rho_quadratic(ds, 0.1, 2),
        lambda ds: eq1_norm(ds, 0.1, 2),
        lambda ds: check_drift(model.LossModel("Quadratic"), ds, 0.1, 2,
                               "one_plus_norm", 0.9, 1.0, [[0.0]]),
        lambda ds: check_minorization_gaussian(
            model.LossModel("RidgeQuadratic", mu0=1.0), ds, 0.1, 2, [0.5],
            1.0, 2.44, 0.5, 1.0, n_grid=3)])
    def test_every_exact_caller_enforces_the_cap(self, call):
        with pytest.raises(ValueError, match="exceed the exact-enumeration"):
            call(dataset(201, 1))


class TestBoundsEnumeration:
    @pytest.mark.parametrize("n,d,b", [(7, 2, 1), (7, 2, 3), (7, 2, 7),
                                       (9, 3, 4), (16, 2, 8), (12, 1, 9)])
    def test_rho_quadratic_exact(self, n, d, b):
        ds = dataset(n, d)
        res = rho_quadratic(ds, 0.5, b)
        assert_same(res["rho"], rho_loop(ds, 0.5, b))
        assert res["stderr"] == 0.0

    # d = 1 and b >= 8 sum each minibatch pairwise, d >= 2 one row at a time
    @pytest.mark.parametrize("n,d,b", [(7, 2, 1), (7, 2, 3), (7, 2, 7),
                                       (9, 3, 4), (16, 2, 8), (12, 1, 9)])
    def test_expected_q_norm_exact(self, n, d, b):
        value, pair = eq1_norm(dataset(n, d), 0.5, b)
        assert_same(value, q_norm_loop(pair.perturbed, b))

    @pytest.mark.parametrize("budget", [1, 50])
    def test_block_budget_changes_no_value(self, budget, monkeypatch):
        ds = dataset(9, 3)
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        assert_same(rho_quadratic(ds, 0.5, 4)["rho"], rho_loop(ds, 0.5, 4))
        value, pair = eq1_norm(ds, 0.5, 4)
        assert_same(value, q_norm_loop(pair.perturbed, 4))

    def test_monte_carlo_streams_unchanged(self):
        ds = dataset(12, 2)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
        oms = [floyd_row(rng, 12, 3) for _ in range(50)]
        eye = np.eye(2)
        vals = [np.linalg.norm(eye - 0.2 * (ds.features[om].T
                                            @ ds.features[om] / 3), 2)
                for om in oms]
        res = rho_quadratic(ds, 0.2, 3, mode="monte_carlo", n_mc=50, seed=4)
        assert_same(res["rho"], float(np.mean(vals)))
        assert_same(res["stderr"],
                    float(np.std(vals, ddof=1) / np.sqrt(50)))
        value, pair = eq1_norm(ds, 0.2, 3, mode="monte_carlo", n_mc=50,
                               seed=4)
        assert_same(value, q_norm_loop(pair.perturbed, 3, oms))

    # the differing index first, inside and last; b = 1 (at d = 1, where
    # rho is not 1), b = n - 1 and d = 3; blocks of one minibatch at
    # budget 50
    @pytest.mark.parametrize("n,d,b,index", [(7, 1, 1, 0), (9, 3, 4, 4),
                                             (16, 2, 8, 15), (12, 2, 11, 3)])
    @pytest.mark.parametrize("budget", [None, 50])
    def test_pair_terms_equal_separate_calls(self, n, d, b, index, budget,
                                             monkeypatch):
        ds = dataset(n, d)
        pair = model.make_neighbor(ds, index, 5)
        if budget is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        for kw in ({}, {"mode": "monte_carlo", "n_mc": 300, "seed": 4}):
            res = rho_quadratic(ds, 0.5, b, pair=pair, **kw)
            alone = rho_quadratic(ds, 0.5, b, **kw)
            hat = rho_quadratic(pair.perturbed, 0.5, b, **kw)
            assert_same(res["rho"], alone["rho"])
            assert_same(res["stderr"], alone["stderr"])
            assert_same(res["rho_hat"], hat["rho"])
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(4)))
            assert_same(res["Eq1_norm"], q_norm_loop(
                pair.perturbed, b, [floyd_row(rng, n, b) for _ in range(300)]
                if kw else None))
        assert res["rho_hat"] != res["rho"]

    def test_pair_must_share_the_base(self):
        ds = dataset(7, 2)
        pair = model.make_neighbor(dataset(7, 2), 0, 5)
        with pytest.raises(ValueError, match="base must be the dataset"):
            rho_quadratic(ds, 0.5, 2, pair=pair)

    def test_quadratic_bound_enumerates_once(self, monkeypatch):
        calls, enumerate_all = [], dynamics.minibatches

        def counting(n, b):
            calls.append((n, b))
            return enumerate_all(n, b)

        monkeypatch.setattr(dynamics, "minibatches", counting)
        ds = dataset(16, 2)
        pair = model.make_neighbor(ds, 0, 1)
        exp = bounds.Experiment(
            model.LossModel("Quadratic"), ds, pair,
            dynamics.SGDConfig(0.5, 8, 100, np.zeros(2), 3), NoiseModel())
        sb = bounds.REGIMES["Quadratic"].evaluate(
            exp, {"rho_mode": "exact", "rho_seed": 0, "k": 100})
        assert calls == [(16, 8)]
        used = sb.constants_used
        assert_same(used["rho"], rho_loop(ds, 0.5, 8))
        assert_same(used["rho_hat"], rho_loop(pair.perturbed, 0.5, 8))
        assert_same(used["Eq1_norm"], q_norm_loop(pair.perturbed, 8))


def minorization_case(d):
    ds = dataset(6 if d == 2 else 5, d, seed=6, radius_D=0.5,
                 label_range=0.5)
    loss = model.LossModel("RegularizedSine", m0=2.0, s=0.3) if d == 2 \
        else model.LossModel("RidgeQuadratic", mu0=1.0)
    return loss, ds


def grid(d, radius, size, center):
    axes = np.meshgrid(*[np.linspace(-radius, radius, size)] * d,
                       indexing="ij")
    return np.stack([ax.ravel() for ax in axes], axis=1) + center


# noise covariances of the grid tests: equal per coordinate, and in d = 2
# distinct, so that each coordinate must be divided by its own variance
SIGMAS = {1: [np.full(1, 0.4)],
          2: [np.full(2, 0.4), np.array([0.3, 0.5])]}


class TestMinorizationGrid:
    @pytest.mark.parametrize("d,b", [(1, 1), (1, 2), (1, 5), (2, 1), (2, 3),
                                     (2, 6)])
    def test_every_ratio_equals_pointwise_density(self, d, b):
        loss, ds = minorization_case(d)
        eta = 0.2
        star = model.empirical_minimizer(loss, ds)
        thetas, theta1s = grid(d, 1.5, 7, star), grid(d, 1.0, 5, star)
        omegas = minibatches(ds.n, b)
        for Sigma in SIGMAS[d]:
            var = eta ** 2 * Sigma
            at_star = verify._log_densities(loss, ds, eta, var, star[None],
                                            theta1s, omegas)[0]
            ratios = verify._log_densities(loss, ds, eta, var, thetas,
                                           theta1s, omegas) - at_star
            ref_star = np.array([log_mixture_density(loss, ds, eta, Sigma,
                                                     star, t1, omegas)
                                 for t1 in theta1s])
            ref = np.array([[log_mixture_density(loss, ds, eta, Sigma, t, t1,
                                                 omegas) - ref_star[j]
                             for j, t1 in enumerate(theta1s)]
                            for t in thetas])
            assert_same(at_star, ref_star)
            assert_same(ratios, ref)

    @pytest.mark.parametrize("budget", [1, 7, 64, 999])
    def test_block_budget_changes_no_value(self, budget, monkeypatch):
        loss, ds = minorization_case(2)
        star = model.empirical_minimizer(loss, ds)
        thetas, theta1s = grid(2, 1.5, 9, star), grid(2, 1.0, 7, star)
        omegas = minibatches(ds.n, 3)
        Sigma = SIGMAS[2][1]
        variances = [np.full(2, 0.02), 0.2 ** 2 * Sigma]
        wide = [verify._log_densities(loss, ds, 0.2, var, thetas, theta1s,
                                      omegas) for var in variances]
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        for var, want in zip(variances, wide):
            narrow = verify._log_densities(loss, ds, 0.2, var, thetas,
                                           theta1s, omegas)
            assert np.array_equal(want, narrow)
        # distinct variances: each coordinate divided by its own, at two
        # corners of the grid
        for t, j in ((0, 0), (-1, -1)):
            assert wide[1][t, j] == log_mixture_density(
                loss, ds, 0.2, Sigma, thetas[t], theta1s[j], omegas)

    def test_certificate_reports_its_worst_point(self):
        loss, ds = minorization_case(2)
        cert = check_minorization_gaussian(loss, ds, 0.2, 3, [0.4, 0.4],
                                           m=2.0, K0=4.0, epsilon=0.5, M=1.0,
                                           n_grid=7)
        d = cert.details
        omegas = list(combinations(range(ds.n), 3))
        Sigma = np.array([0.4, 0.4])
        star = model.empirical_minimizer(loss, ds)
        theta, theta1 = map(np.array, d["worst"])
        at_star = log_mixture_density(loss, ds, 0.2, Sigma, star, theta1,
                                      omegas)
        worst = log_mixture_density(loss, ds, 0.2, Sigma, theta, theta1,
                                    omegas)
        assert d["log_density_at_star"] == at_star
        assert d["measured"] == worst - at_star
        assert d["claim"] == 0.5 * d["log_eta_hat"]
        assert d["stderr"] == 0.0
        assert d["points"] == d["n_theta"] * d["n_theta1"]
        assert cert.margin == (d["measured"] - d["claim"]) \
            + 1e-12 * abs(d["claim"])
        assert np.linalg.norm(theta1 - star) <= 1.0 + 1e-12

    def test_empty_grid_rejected(self):
        # n_grid = 2 in d = 2 puts every grid point at a corner, outside
        # the ball; an empty grid must not pass vacuously
        loss, ds = minorization_case(2)
        with pytest.raises(ValueError):
            check_minorization_gaussian(loss, ds, 0.2, 3, [0.4, 0.4], 2.0,
                                        4.0, 0.5, 1.0, n_grid=2)

    def test_fine_grid_2d_within_budget(self):
        # n_grid = 33: 797 x 797 grid points x C(6, 3) = 20 components;
        # well under 1 s on a 2-CPU Xeon, against an extrapolated 15-20
        # minutes point by point
        loss, ds = minorization_case(2)
        start = time.perf_counter()
        cert = check_minorization_gaussian(loss, ds, 0.2, 3, [0.4, 0.4],
                                           m=2.0, K0=4.0, epsilon=0.5, M=1.0,
                                           n_grid=33)
        elapsed = time.perf_counter() - start
        assert cert.details["n_theta"] == cert.details["n_theta1"] == 797
        assert elapsed < 20.0


def sine_pair(n=6, d=2):
    return model.make_neighbor(dataset(n, d, seed=2, label_range=0.5), 0, 1)


class TestStepKernels:
    GRID = [[0.0, 0.0], [1.0, -0.5], [-2.0, 0.3]]

    @pytest.mark.parametrize("kind", ["one_plus_norm",
                                      "one_plus_sq_dist_to_min"])
    @pytest.mark.parametrize("b", [1, 3, 6])
    def test_drift_exact(self, kind, b):
        loss = model.LossModel("RegularizedSine", m0=1.0, s=0.5)
        ds = dataset(6, 2)
        cert = check_drift(loss, ds, 0.3, b, kind, 0.9, 1.0, self.GRID)
        margin, worst = drift_loop(loss, ds, 0.3, b, kind, 0.9, 1.0,
                                   self.GRID, "exact", 0, 0, NoiseModel())
        assert_same(cert.margin, margin)
        assert {k: cert.details[k] for k in worst} == worst

    @pytest.mark.parametrize("noise", [NoiseModel(),
                                       NoiseModel("gaussian_diag", (0.3, 0.7)),
                                       NoiseModel("laplace", (0.5, 0.5))])
    @pytest.mark.parametrize("kind", ["one_plus_norm",
                                      "one_plus_sq_dist_to_min"])
    def test_drift_monte_carlo(self, noise, kind):
        loss, ds = model.LossModel("RidgeQuadratic", mu0=0.5), dataset(9, 2)
        cert = check_drift(loss, ds, 0.2, 3, kind, 0.9, 1.0, self.GRID,
                           mode="monte_carlo", n_mc=300, seed=11,
                           noise=noise)
        margin, worst = drift_loop(loss, ds, 0.2, 3, kind, 0.9, 1.0,
                                   self.GRID, "monte_carlo", 300, 11, noise)
        assert_same(cert.margin, margin)
        assert {k: cert.details[k] for k in worst} == worst
        assert cert.details["stream_version"] == 3

    # b = 2 at d = 2 takes 4 numbers a minibatch: blocks of 1, 3, 16 and
    # 16384 rows, so n_mc = 301 ends on a partial block of 1, 13 and 301
    # rows at every budget but the first
    @pytest.mark.parametrize("budget", [1, 12, 64, dynamics._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("noise", [NoiseModel(),
                                       NoiseModel("gaussian_diag", (0.3, 0.7))])
    def test_drift_monte_carlo_block_budget(self, budget, noise, monkeypatch):
        loss, ds = model.LossModel("RidgeQuadratic", mu0=0.5), dataset(9, 2)
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        cert = check_drift(loss, ds, 0.2, 2, "one_plus_norm", 0.9, 1.0,
                           self.GRID, mode="monte_carlo", n_mc=301, seed=4,
                           noise=noise)
        margin, worst = drift_loop(loss, ds, 0.2, 2, "one_plus_norm", 0.9,
                                   1.0, self.GRID, "monte_carlo", 301, 4,
                                   noise)
        assert_same(cert.margin, margin)
        assert {k: cert.details[k] for k in worst} == worst

    @pytest.mark.parametrize("family", ["Quadratic", "RegularizedSine"])
    @pytest.mark.parametrize("b", [1, 4, 6])
    def test_kernel_gap(self, family, b):
        loss = model.LossModel("Quadratic") if family == "Quadratic" \
            else model.LossModel("RegularizedSine", m0=1.0, s=0.5)
        pair = sine_pair()
        cert = check_kernel_gap(loss, pair, 0.3, b, "one_plus_norm", 0.5,
                                self.GRID, R=500, seed=5)
        margin, worst = kernel_gap_loop(loss, pair, 0.3, b, "one_plus_norm",
                                        0.5, self.GRID, 500, 5)
        assert_same(cert.margin, margin)
        assert {k: cert.details[k] for k in worst} == worst

    # b = 4 at d = 2 takes 8 numbers a minibatch: blocks of 1 and 8 rows,
    # so R = 301 ends on a partial block of 5 rows at budget 64
    @pytest.mark.parametrize("budget", [7, 64])
    def test_kernel_gap_block_budget(self, budget, monkeypatch):
        loss = model.LossModel("RegularizedSine", m0=1.0, s=0.5)
        pair = sine_pair()
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        cert = check_kernel_gap(loss, pair, 0.3, 4, "one_plus_norm", 0.5,
                                self.GRID, R=301, seed=5)
        margin, worst = kernel_gap_loop(loss, pair, 0.3, 4, "one_plus_norm",
                                        0.5, self.GRID, 301, 5)
        assert_same(cert.margin, margin)
        assert {k: cert.details[k] for k in worst} == worst

    def test_kernel_gap_scalar_power(self):
        base = model.make_synthetic_dataset(
            {"n": 5, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 4)
        pair = model.make_neighbor(base, 2, 9)
        loss = model.LossModel("ScalarPower", p=1.5, mu=1.0)
        grid = [[0.0], [0.7]]
        cert = check_kernel_gap(loss, pair, 0.2, 2, "one_plus_sq_dist_to_min",
                                0.5, grid, R=200, seed=1)
        margin, worst = kernel_gap_loop(loss, pair, 0.2, 2,
                                        "one_plus_sq_dist_to_min", 0.5, grid,
                                        200, 1)
        assert_same(cert.margin, margin)
        assert {k: cert.details[k] for k in worst} == worst


class TestMinibatchSource:
    @pytest.mark.parametrize("n,b", [(16, 8), (8, 4), (100, 3), (50, 50),
                                     (20000, 1000)])
    @pytest.mark.parametrize("budget", [7, dynamics._BLOCK_ELEMENTS])
    def test_monte_carlo_equals_one_choice_per_row(self, n, b, budget,
                                                   monkeypatch):
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
        expected = np.array([floyd_row(ref, n, b) for _ in range(42)])
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        source = MinibatchSource(n, b, "monte_carlo", seed=8)

        def rows(count):
            blocks = list(source.blocks(count, b))
            assert all(noise is None for _, noise in blocks)
            return [omegas for omegas, _ in blocks]

        # each call carries on where the last one stopped
        first, none, rest = rows(37), rows(0), rows(5)
        assert none == []
        assert np.array_equal(np.concatenate(first + rest), expected)
        assert dynamics.minibatch_sequence(n, b, 0, 8, 0).shape == (0, b)

    @pytest.mark.parametrize("n,b", [(6, 3), (9, 4), (16, 8)])
    def test_exact_blocks_concatenate_to_every_minibatch(self, n, b,
                                                         monkeypatch):
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 7 * b)
        source = MinibatchSource(n, b, "exact")
        for count in (0, 5):    # every call, whatever the count
            blocks = list(source.blocks(count, b))
            assert len(blocks) == -(-math.comb(n, b) // 7)
            assert all(noise is None for _, noise in blocks)
            assert np.array_equal(
                np.concatenate([omegas for omegas, _ in blocks]),
                minibatches(n, b))

    def test_rejected_arguments(self):
        with pytest.raises(ValueError, match="noiseless"):
            MinibatchSource(6, 3, "exact",
                            noise=NoiseModel("gaussian_diag", (0.5,)))
        with pytest.raises(ValueError, match="unknown mode"):
            MinibatchSource(6, 3, "sampled")
        for mode in ("exact", "monte_carlo"):
            with pytest.raises(ValueError, match="exceeds dataset size"):
                MinibatchSource(3, 4, mode)


@pytest.mark.parametrize("module", [verify, bounds])
def test_stream_layout_stays_in_dynamics(module):
    """Which stream, tag and replay draws a minibatch is known to
    ``dynamics`` alone: ``verify`` and ``bounds`` import none of its stream
    privates and build no generator."""
    source = inspect.getsource(module)
    assert not re.search(r"_stream|_STREAM_|_IndexStreams|Philox|SeedSequence",
                         source)
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom)
                and node.module == "dynamics" for alias in node.names}
    assert {name for name in imported if name.startswith("_")} \
        <= {"_block_rows"}


AUDIT_LOSSES = {"Quadratic": model.LossModel("Quadratic"),
                "RidgeQuadratic": model.LossModel("RidgeQuadratic", mu0=1.0),
                "RegularizedSine": model.LossModel("RegularizedSine", m0=2.0,
                                                   s=0.5),
                "ScalarPower": model.LossModel("ScalarPower", p=1.5, mu=1.0)}


class TestAssumptionAudit:
    @pytest.mark.parametrize("family,d", [
        ("Quadratic", 2), ("Quadratic", 16), ("RidgeQuadratic", 2),
        ("RidgeQuadratic", 16), ("RegularizedSine", 2),
        ("RegularizedSine", 16), ("ScalarPower", 1)])
    def test_report_equals_per_sample_loop(self, family, d):
        loss, ds = AUDIT_LOSSES[family], dataset(16, d, 11)
        c = model.derive_constants(loss, ds)
        report = model.check_assumptions(loss, ds, c, 4000, seed=123)
        assert report == assumptions_loop(loss, ds, c, 4000, 123)
        assert report["checked"] == 4000

    def test_inflated_modulus_report(self):
        loss, ds = AUDIT_LOSSES["RidgeQuadratic"], dataset(16, 2, 11)
        c = model.derive_constants(loss, ds)
        inflated = model.AssumptionConstants(
            **(asdict(c) | {"mu": 10 * c.mu}))
        report = model.check_assumptions(loss, ds, inflated, 10_000, seed=123)
        assert report == assumptions_loop(loss, ds, inflated, 10_000, 123)
        assert report["violations"] > 0

    def test_skipped_pairs(self, monkeypatch):
        loss, ds = AUDIT_LOSSES["ScalarPower"], dataset(16, 1, 11)
        c = model.derive_constants(loss, ds)
        monkeypatch.setattr(model, "POWER_SEPARATION_FLOOR", 5.0)
        report = model.check_assumptions(loss, ds, c, 2000, seed=5)
        assert report == assumptions_loop(loss, ds, c, 2000, 5)
        assert 0 < report["checked"] < 2000

    def test_needs_a_sample(self):
        loss, ds = AUDIT_LOSSES["Quadratic"], dataset(16, 2, 11)
        c = model.derive_constants(loss, ds)
        with pytest.raises(ValueError):
            model.check_assumptions(loss, ds, c, 0, seed=1)


class TestMaxGradNorm:
    # ScalarPower is defined in d = 1 only
    @pytest.mark.parametrize("family,d", [
        (family, d) for family in AUDIT_LOSSES for d in (1, 2, 3, 16)
        if family != "ScalarPower" or d == 1])
    @pytest.mark.parametrize("generator", ["gaussian_clipped",
                                           "sphere_uniform"])
    def test_equals_per_point_loop(self, family, d, generator):
        loss = AUDIT_LOSSES[family]
        for seed in range(5):
            ds = dataset(12, d, seed, generator=generator)
            theta = np.random.default_rng(seed).standard_normal(d)
            for t in (np.zeros(d), theta):
                loop = max(float(np.linalg.norm(grad_batch(
                    loss, t, ds.features[i][None], [ds.labels[i]])))
                    for i in range(ds.n))
                assert model.max_grad_norm(loss, ds, t) == loop
            assert model.derive_constants(loss, ds).E == max(
                float(np.linalg.norm(grad_batch(
                    loss, np.zeros(d), ds.features[i][None],
                    [ds.labels[i]]))) for i in range(ds.n))
