import math

import numpy as np
import pytest
from scipy.special import logsumexp

from stabilab import model, verify
from stabilab.bounds import StabilityBound
from stabilab.transport import TransportEstimate
from stabilab.verify import (Certificate, check_bound_dominates,
                             check_contraction, check_drift,
                             check_kernel_gap, check_minorization_gaussian,
                             write_certificates_jsonl)


def unit_dataset(n=4):
    return model.make_synthetic_dataset(
        {"n": n, "d": 1, "generator": "unit_fixed"}, 0)


def flip_pair(n=4):
    base = unit_dataset(n)
    pert = model.Dataset(base.features.copy(), base.labels.copy(),
                         base.radius_D, base.generator_spec)
    pert.labels[0] = -1.0
    return model.NeighborPair(base, pert, 0)


class TestContraction:
    def test_exact_rate_passes_with_zero_margin(self):
        # full batch on unit data contracts at exactly 0.9 per step, so
        # the claimed rate is met with machine-precision slack
        ds = unit_dataset()
        cert = check_contraction(model.LossModel("Quadratic"), ds, eta=0.1,
                                 b=4, claimed_rate=0.9, k_max=10, R=4, seed=0)
        assert cert.passed
        assert abs(cert.margin) <= 1e-12

    def test_too_small_rate_fails(self):
        ds = unit_dataset()
        cert = check_contraction(model.LossModel("Quadratic"), ds, eta=0.1,
                                 b=4, claimed_rate=0.5, k_max=10, R=4, seed=0)
        assert not cert.passed
        assert cert.margin < 0

    def test_identical_starts_trivially_pass(self):
        ds = unit_dataset()
        cert = check_contraction(model.LossModel("Quadratic"), ds, eta=0.1,
                                 b=2, claimed_rate=0.9, k_max=5, R=4, seed=0,
                                 theta0_a=[0.5], theta0_b=[0.5])
        assert cert.passed
        assert cert.details["points"] == 0

    def test_margin_reproducible(self):
        ds = model.make_synthetic_dataset(
            {"n": 8, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 3)
        loss = model.LossModel("RidgeQuadratic", mu0=1.0)
        a = check_contraction(loss, ds, 0.05, 2, 0.999, 50, 16, seed=5)
        b = check_contraction(loss, ds, 0.05, 2, 0.999, 50, 16, seed=5)
        assert a.margin == b.margin

    def test_equal_distances_pass_despite_rounding(self):
        # k = 0, where Delta_0 = delta_0 is deterministic, is not tested, so
        # k_max = 0 leaves no point; test_exact_rate_passes_with_zero_margin
        # covers the rounding term at k >= 1
        ds = model.make_synthetic_dataset(
            {"n": 8, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 3)
        cert = check_contraction(model.LossModel("Quadratic"), ds, 0.5, 4,
                                 0.95, k_max=0, R=256, seed=1,
                                 theta0_a=[1.0, 0.0], theta0_b=[0.0, 1.0])
        assert cert.passed
        assert cert.details["points"] == 0
        assert cert.margin == math.inf

    def test_claim_violated_by_1e9_relative_fails(self):
        # full batch contracts at exactly 0.9 per step
        rate = 0.9 * (1.0 - 1e-9)
        cert = check_contraction(model.LossModel("Quadratic"), unit_dataset(),
                                 eta=0.1, b=4, claimed_rate=rate, k_max=10,
                                 R=4, seed=0)
        assert not cert.passed
        assert cert.margin < 0

    def test_diverged_replicas_fail_with_margin_zero(self):
        # on unit data (a = 1, y = 1) eta = 3 maps theta - 1 to -2 (theta - 1):
        # the chain from 0 first passes the guard 1e12 at step 40 (2^40 - 1)
        cert = check_contraction(model.LossModel("Quadratic"),
                                 unit_dataset(10), eta=3.0, b=1,
                                 claimed_rate=0.9, k_max=40, R=4, seed=0)
        assert not cert.passed
        assert cert.margin == 0.0
        assert cert.details["diverged_replicas"] == 4
        assert cert.details["first_diverged_k"] == 40
        assert "diverged" in cert.confidence

    def test_no_replicas_rejected(self):
        with pytest.raises(ValueError, match="R >= 2"):
            check_contraction(model.LossModel("Quadratic"), unit_dataset(),
                              0.1, 2, 0.9, 5, R=0, seed=0)

    def test_one_replica_rejected(self):
        # one replica would pass with a standard error of 0
        with pytest.raises(ValueError, match="R = 1: .* R >= 2"):
            check_contraction(model.LossModel("Quadratic"), unit_dataset(),
                              0.1, 2, 0.9, 5, R=1, seed=0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            check_contraction(model.LossModel("Quadratic"), unit_dataset(),
                              0.1, 1, 1.0, 5, 2, 0)


class TestDrift:
    def test_exact_equality_margin_zero(self):
        # on unit data with V = 1 + |theta|, one noiseless step from 0
        # lands at eta exactly, so delta = 1 - eta and L = 2 eta - eta^2
        # give PV = delta V + L with equality ... simpler: pick the drift
        # pair that makes the inequality tight at theta = 0
        ds = unit_dataset(4)
        eta = 0.1
        # step from 0: theta' = eta, V' = 1 + eta; claim 0.9 * 1 + 0.2
        cert = check_drift(model.LossModel("Quadratic"), ds, eta, 1,
                           "one_plus_norm", claimed_delta=0.9, claimed_L=0.2,
                           theta_grid=[[0.0]])
        assert cert.passed
        assert cert.margin == pytest.approx(0.9 + 0.2 - 1.1 + 1.1e-12,
                                            abs=1e-12)

    def test_undersized_L_fails(self):
        ds = unit_dataset(4)
        cert = check_drift(model.LossModel("Quadratic"), ds, 0.1, 1,
                           "one_plus_norm", claimed_delta=0.9, claimed_L=0.05,
                           theta_grid=[[0.0]])
        assert not cert.passed

    def test_eta_zero_identity_kernel(self):
        ds = unit_dataset(4)
        cert = check_drift(model.LossModel("Quadratic"), ds, 0.0, 1,
                           "one_plus_norm", claimed_delta=0.99, claimed_L=0.02,
                           theta_grid=[[1.0]])
        # PV = V = 2 <= 0.99*2 + 0.02
        assert cert.passed

    def test_monte_carlo_mode_agrees(self):
        ds = model.make_synthetic_dataset(
            {"n": 8, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 2)
        loss = model.LossModel("RidgeQuadratic", mu0=1.0)
        grid = [[-1.0], [0.0], [2.0]]
        exact = check_drift(loss, ds, 0.05, 2, "one_plus_sq_dist_to_min",
                            0.95, 1.0, grid)
        mc = check_drift(loss, ds, 0.05, 2, "one_plus_sq_dist_to_min",
                         0.95, 1.0, grid, mode="monte_carlo", n_mc=4000,
                         seed=9)
        assert exact.passed == mc.passed

    def test_nan_at_a_grid_point_fails(self):
        # one step from inf lands at inf - inf = NaN: the point's margin is
        # NaN, which must fail the certificate, not be skipped
        with np.errstate(invalid="ignore"):
            cert = check_drift(model.LossModel("Quadratic"), unit_dataset(4),
                               0.1, 1, "one_plus_norm", claimed_delta=0.9,
                               claimed_L=0.2, theta_grid=[[0.0], [math.inf]])
        assert not cert.passed
        assert cert.details["worst"] == [math.inf]

    def test_single_monte_carlo_sample_rejected(self):
        # one sample has no standard error; the 3 SE margin would be NaN
        # and the check would pass vacuously
        with pytest.raises(ValueError, match="n_mc"):
            check_drift(model.LossModel("Quadratic"), unit_dataset(), 0.1, 1,
                        "one_plus_norm", 0.9, 0.2, [[0.0]],
                        mode="monte_carlo", n_mc=1)

    def test_noise_rejected_in_exact_mode(self):
        from stabilab.dynamics import NoiseModel
        with pytest.raises(ValueError):
            check_drift(model.LossModel("Quadratic"), unit_dataset(), 0.1, 1,
                        "one_plus_norm", 0.9, 0.2, [[0.0]],
                        noise=NoiseModel("gaussian_diag", (0.5,)))


class TestKernelGap:
    def test_identical_pair_zero_gap(self):
        ds = unit_dataset()
        pair = model.NeighborPair(ds, ds, 0)
        cert = check_kernel_gap(model.LossModel("Quadratic"), pair, 0.1, 2,
                                "one_plus_norm", claimed_gamma=1e-12,
                                theta_grid=[[0.0], [1.0]], R=32, seed=0)
        assert cert.passed

    def test_zero_claim_fails_for_real_pair(self):
        cert = check_kernel_gap(model.LossModel("Quadratic"), flip_pair(), 0.1,
                                2, "one_plus_norm", claimed_gamma=0.0,
                                theta_grid=[[0.0]], R=32, seed=0)
        assert not cert.passed

    def test_full_batch_closed_form_gap(self):
        # full batch: the one-step difference is exactly (eta/n) * a_1 *
        # (y_1 - y_1_hat) = 0.1/4 * 2 = 0.05, V(0) = 1
        cert = check_kernel_gap(model.LossModel("Quadratic"), flip_pair(4),
                                0.1, 4, "one_plus_norm", claimed_gamma=0.05,
                                theta_grid=[[0.0]], R=8, seed=0)
        assert cert.passed
        assert cert.margin == pytest.approx(0.0, abs=1e-12)

    def test_one_replica_rejected(self):
        with pytest.raises(ValueError, match="R = 1: .* R >= 2"):
            check_kernel_gap(model.LossModel("Quadratic"), flip_pair(), 0.1, 2,
                             "one_plus_norm", 0.5, [[0.0]], R=1, seed=0)

    def test_reproducible(self):
        a = check_kernel_gap(model.LossModel("Quadratic"), flip_pair(), 0.1, 2,
                             "one_plus_norm", 0.5, [[0.0], [1.0]], 16, 7)
        b = check_kernel_gap(model.LossModel("Quadratic"), flip_pair(), 0.1, 2,
                             "one_plus_norm", 0.5, [[0.0], [1.0]], 16, 7)
        assert a.margin == b.margin


class TestMinorization:
    def test_worked_parameters_pass(self):
        # the closed-form minorization level is astronomically conservative,
        # so the exact grid densities clear it with a huge log margin
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0, "label_range": 0.5}, 6)
        loss = model.LossModel("RidgeQuadratic", mu0=1.0)
        cert = check_minorization_gaussian(
            loss, ds, eta=0.1, b=1, Sigma=[0.5], m=1.0, K0=2.44,
            epsilon=0.5, M=1.0, n_grid=9)
        assert cert.passed
        assert cert.margin > 100.0

    @pytest.mark.parametrize("n_grid", [1, 2])
    def test_empty_2d_grid_rejected(self, n_grid):
        # n_grid 1 and 2 put every 2-D grid point on a corner, outside
        # the ball
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 6)
        with pytest.raises(ValueError, match="n_grid"):
            check_minorization_gaussian(
                model.LossModel("RidgeQuadratic", mu0=1.0), ds, 0.1, 1,
                [0.5, 0.5], 1.0, 2.44, 0.5, 1.0, n_grid=n_grid)

    @pytest.mark.parametrize("Sigma", [0.5, [0.5], [0.5, 0.5, 0.5]])
    def test_sigma_needs_one_variance_a_coordinate(self, Sigma):
        # the grid divides coordinate k by its own variance Sigma[k]
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 6)
        with pytest.raises(ValueError, match="Sigma must have d = 2"):
            check_minorization_gaussian(
                model.LossModel("RidgeQuadratic", mu0=1.0), ds, 0.1, 1,
                Sigma, 1.0, 2.44, 0.5, 1.0, n_grid=9)

    def test_dimension_guard(self):
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 3, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 6)
        with pytest.raises(ValueError):
            check_minorization_gaussian(model.LossModel("Quadratic"), ds, 0.1,
                                        1, [0.5, 0.5, 0.5], 1.0, 2.44, 0.5,
                                        1.0, n_grid=9)


def logsumexp_cases(length, scale, seed):
    """Rows of one length at one scale: plain, with ties of the maximum,
    with -inf entries, all -inf, and with a +inf or a NaN."""
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal((6, 5, length))
    ties = np.round(a / scale) * scale       # the maximum tied in most rows
    ties[:, 0, -1] = ties[:, 0].max(axis=-1)
    holes = a.copy()
    holes[..., ::2] = -np.inf
    holes[0, 0] = -np.inf                   # a row of -inf
    blown = a.copy()
    blown[1, 2, 0], blown[2, 3, -1] = np.inf, np.nan
    return [a, ties, holes, blown, a[0, 0], np.full(length, -np.inf)]


class TestLogSumExp:
    """``verify._logsumexp`` against ``scipy.special.logsumexp``, the
    minorization check's former call, bit for bit."""

    @pytest.mark.parametrize("length", [1, 3, 70, 200])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2, 1e5])
    def test_equals_scipy(self, length, scale):
        for a in logsumexp_cases(length, scale, length):
            ours, theirs = verify._logsumexp(a), logsumexp(a, axis=-1)
            assert np.shape(ours) == np.shape(theirs)
            assert np.array_equal(ours, theirs, equal_nan=True)

    def test_ties_are_counted(self):
        # three tied maxima and nothing else: log(3) + max, exactly
        a = np.array([[2.0, 2.0, 2.0], [-np.inf, 5.0, -np.inf]])
        assert np.array_equal(verify._logsumexp(a),
                              [np.log(3.0) + 2.0, 5.0])


class TestDominance:
    @staticmethod
    def sb(value, regime="Quadratic", constants=None):
        return StabilityBound(regime, value, math.inf, constants or {})

    @staticmethod
    def est(value, p=1.0, method="assignment", stderr=0.0):
        return TransportEstimate(value=value, p=p, method=method,
                                 n_samples=100, stderr=stderr,
                                 power_mean=value ** p)

    def test_pass_with_margin(self):
        cert = check_bound_dominates(self.est(0.05), self.sb(0.8))
        assert cert.passed
        assert cert.margin == pytest.approx(0.75)

    def test_fail(self):
        cert = check_bound_dominates(self.est(0.9, stderr=0.01), self.sb(0.8))
        assert not cert.passed

    def test_zero_empirical_passes(self):
        assert check_bound_dominates(self.est(0.0), self.sb(0.8)).passed

    def test_coupled_gets_no_margin(self):
        # three standard errors would pass it at margin +0.02
        cert = check_bound_dominates(
            self.est(0.81, method="coupled", stderr=0.01), self.sb(0.8))
        assert not cert.passed
        assert cert.margin == pytest.approx(0.8 - 0.81)

    def test_squared_regime_compares_power_mean(self):
        emp = self.est(1.4, p=2.0)      # power mean 1.96
        cert = check_bound_dominates(emp, self.sb(2.0, "NonconvexPlain"))
        assert cert.passed
        assert cert.details["measured"] == pytest.approx(1.96)

    def test_mismatched_order_rejected(self):
        with pytest.raises(ValueError):
            check_bound_dominates(self.est(0.1, p=2.0), self.sb(0.8))

    def test_fixed_margin_rule(self):
        cert = check_bound_dominates(self.est(0.81), self.sb(0.8),
                                     margin_rule="fixed", fixed_rel=0.05)
        assert cert.passed


class TestSerialization:
    def test_every_kind_round_trips(self, tmp_path):
        import json
        ds = unit_dataset()
        sine = model.make_synthetic_dataset(
            {"n": 4, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0, "label_range": 0.5}, 6)
        certs = [
            check_contraction(model.LossModel("Quadratic"), ds, 0.1, 4, 0.9, 5,
                              4, 0),
            check_drift(model.LossModel("Quadratic"), ds, 0.1, 1,
                        "one_plus_norm", 0.9, 0.2, [[0.0]]),
            check_kernel_gap(model.LossModel("Quadratic"), flip_pair(), 0.1, 2,
                             "one_plus_norm", 0.5, [[0.0]], 8, 0),
            check_minorization_gaussian(
                model.LossModel("RidgeQuadratic", mu0=1.0), sine, eta=0.1, b=1,
                Sigma=[0.5], m=1.0, K0=2.44, epsilon=0.5, M=1.0, n_grid=3),
            check_bound_dominates(
                TransportEstimate(value=0.1, p=1.0, method="coupled",
                                  n_samples=4, stderr=0.0, power_mean=0.1),
                StabilityBound("Quadratic", 0.8, math.inf, {})),
        ]
        path = tmp_path / "certs.jsonl"
        write_certificates_jsonl(certs, path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["kind"] for r in records] == [
            "contraction", "drift", "kernel_gap", "minorization",
            "dominance"]
        for cert, rec in zip(certs, records):
            assert type(cert.passed) is bool
            assert rec["passed"] is cert.passed
            assert rec["margin"] == cert.margin
            assert {"points", "worst", "measured", "stderr", "claim"} \
                <= rec["details"].keys()
            assert rec["details"]["points"] >= 1

    def test_jsonl_is_strict_json(self, tmp_path):
        import json
        certs = [Certificate("contraction", False, math.nan,
                             {"worst": [math.inf, 1.0], "log": -math.inf})]
        path = tmp_path / "certs.jsonl"
        write_certificates_jsonl(certs, path)
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        rec = json.loads(text)
        assert rec["margin"] is None
        assert rec["details"] == {"worst": [None, 1.0], "log": None}

    def test_jsonl_round_trip(self, tmp_path):
        import json
        certs = [Certificate("contraction", True, 0.5, {"R": 4}),
                 Certificate("dominance", False, -0.1)]
        path = tmp_path / "certs.jsonl"
        write_certificates_jsonl(certs, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["kind"] == "contraction"
        assert rec["passed"] is True
