import numpy as np
import pytest
from lane_oracle import record_lanes

from stabilab import model
from stabilab.dynamics import (NoiseModel, SGDConfig, minibatch_sequence,
                               run_ensemble, step)

NO_NOISE = NoiseModel()


def coupled(loss, pair, config, noise, checkpoints=None):
    """A one-replica ensemble."""
    return run_ensemble(loss, pair, config, noise, 1, checkpoints)


def contraction(loss, dataset, config, theta0_a, theta0_b, replica_id=0):
    """Noiseless distances of one replica's chains from two starts."""
    return record_lanes(loss, (dataset, dataset), (theta0_a, theta0_b),
                        config, NO_NOISE, [replica_id]).distances[0]


def unit_dataset(n=4):
    return model.make_synthetic_dataset(
        {"n": n, "d": 1, "generator": "unit_fixed"}, 0)


def flip_pair(n=4, new_label=-1.0):
    """Neighbor pair built by hand: flip the label of point 0."""
    base = unit_dataset(n)
    pert = model.Dataset(base.features.copy(),
                         base.labels.copy(), base.radius_D,
                         base.generator_spec)
    pert.labels[0] = new_label
    return model.NeighborPair(base, pert, 0)


class TestStep:
    def test_fixed_point(self):
        ds = unit_dataset()
        out = step(model.LossModel("Quadratic"), ds, np.array([1.0]),
                   np.array([0]), 0.1)
        assert out[0] == pytest.approx(1.0)

    def test_one_step_from_zero(self):
        ds = unit_dataset()
        out = step(model.LossModel("Quadratic"), ds, np.array([0.0]),
                   np.array([0]), 0.1)
        assert out[0] == pytest.approx(0.1)

    def test_zero_rate_is_identity(self):
        ds = unit_dataset()
        theta = np.array([0.3])
        out = step(model.LossModel("Quadratic"), ds, theta, np.array([0, 1]),
                   0.0)
        assert np.array_equal(out, theta)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            step(model.LossModel("Quadratic"), unit_dataset(), np.array([0.0]),
                 np.array([], dtype=int), 0.1)

    def test_noise_enters_scaled_by_rate(self):
        ds = unit_dataset()
        out = step(model.LossModel("Quadratic"), ds, np.array([0.0]),
                   np.array([0]), 0.1, xi=np.array([2.0]))
        assert out[0] == pytest.approx(0.1 + 0.1 * 2.0)


class TestConfigValidation:
    def test_bad_eta(self):
        with pytest.raises(ValueError):
            SGDConfig(-0.1, 1, 10, np.zeros(1), 0)

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            SGDConfig(0.1, 0, 10, np.zeros(1), 0)

    def test_bad_noise_kind(self):
        with pytest.raises(ValueError):
            NoiseModel("cauchy", (1.0,))

    def test_sigma2(self):
        assert NoiseModel().sigma2 == 0.0
        assert NoiseModel("gaussian_diag", (1.0, 2.0)).sigma2 == 5.0
        assert NoiseModel("laplace", (1.0,)).sigma2 == 2.0


class TestCoupledPair:
    def test_identical_datasets_stay_glued(self):
        ds = unit_dataset()
        pair = model.NeighborPair(ds, ds, 0)
        cfg = SGDConfig(0.1, 2, 50, np.zeros(1), 5)
        ens = coupled(model.LossModel("Quadratic"), pair, cfg, NO_NOISE)
        assert np.array_equal(ens.states[0, 0, 0], ens.states[0, 0, 1])

    def test_k_max_zero(self):
        pair = flip_pair()
        cfg = SGDConfig(0.1, 1, 0, np.array([0.7]), 5)
        ens = coupled(model.LossModel("Quadratic"), pair, cfg, NO_NOISE,
                      checkpoints=[0])
        assert ens.states[0, 0, 0, 0] == 0.7
        assert ens.states[0, 0, 1, 0] == 0.7

    def test_full_batch_closed_form(self):
        # full-batch gradient on unit_fixed is theta - mean(y); with a
        # flipped label the two chains separate by a deterministic amount
        n, eta, k = 4, 0.1, 20
        pair = flip_pair(n)
        cfg = SGDConfig(eta, n, k, np.zeros(1), 3)
        ens = coupled(model.LossModel("Quadratic"), pair, cfg, NO_NOISE)
        ybar = pair.base.labels.mean()
        ybar_hat = pair.perturbed.labels.mean()
        expect = (ybar - ybar_hat) * (1.0 - (1.0 - eta) ** k)
        got = ens.states[0, 0, 0, 0] - ens.states[0, 0, 1, 0]
        assert got == pytest.approx(expect, abs=1e-12)

    def test_divergence_guard(self):
        # eta = 3 on the unit quadratic gives |1 - eta| = 2, which blows up
        pair = flip_pair()
        cfg = SGDConfig(3.0, 4, 200, np.array([1.0]), 3)
        ens = coupled(model.LossModel("Quadratic"), pair, cfg, NO_NOISE)
        assert ens.replicas[0].diverged

    def test_checkpoint_beyond_k_max_rejected(self):
        pair = flip_pair()
        cfg = SGDConfig(0.1, 1, 10, np.zeros(1), 3)
        with pytest.raises(ValueError):
            coupled(model.LossModel("Quadratic"), pair, cfg, NO_NOISE,
                    checkpoints=[11])


class TestEnsemble:
    def make(self, R, master_seed=9):
        pair = flip_pair(8)
        cfg = SGDConfig(0.1, 2, 30, np.zeros(1), master_seed)
        noise = NoiseModel("gaussian_diag", (0.5,))
        return run_ensemble(model.LossModel("Quadratic"), pair, cfg, noise, R,
                            checkpoints=[30])

    def test_deterministic(self):
        a = self.make(8)
        b = self.make(8)
        assert np.array_equal(a.states, b.states)

    def test_single_replica_matches_direct_run(self):
        ens = self.make(1)
        pair = flip_pair(8)
        cfg = SGDConfig(0.1, 2, 30, np.zeros(1), 9)
        direct = record_lanes(model.LossModel("Quadratic"),
                              (pair.base, pair.perturbed),
                              (cfg.theta0, cfg.theta0), cfg,
                              NoiseModel("gaussian_diag", (0.5,)), [0], [30])
        assert np.array_equal(ens.states, direct.states)

    def test_replicas_are_independent_streams(self):
        mb0 = minibatch_sequence(8, 2, 10, 9, 0)
        mb1 = minibatch_sequence(8, 2, 10, 9, 1)
        assert not np.array_equal(mb0, mb1)
        # and reproducible
        assert np.array_equal(mb0, minibatch_sequence(8, 2, 10, 9, 0))


class TestContraction:
    def test_unit_quadratic_exact_rate(self):
        # full batch on unit_fixed contracts by exactly (1 - eta) per step
        ds = unit_dataset()
        cfg = SGDConfig(0.1, 4, 10, np.zeros(1), 0)
        dist = contraction(model.LossModel("Quadratic"), ds, cfg,
                           np.array([1.0]), np.array([0.0]))
        assert dist[10] == pytest.approx(0.9 ** 10, rel=1e-12)

    def test_identical_starts(self):
        ds = unit_dataset()
        cfg = SGDConfig(0.1, 2, 10, np.zeros(1), 0)
        dist = contraction(model.LossModel("Quadratic"), ds, cfg,
                           np.array([0.5]), np.array([0.5]))
        assert np.all(dist == 0.0)

    def test_ridge_contraction_rate_holds_empirically(self):
        # ridge with modulus mu contracts at least like (1 - eta*mu/2)
        # per step for small eta, uniformly over minibatch draws
        ds = model.make_synthetic_dataset(
            {"n": 16, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 13)
        loss = model.LossModel("RidgeQuadratic", mu0=1.0)
        eta, k = 0.05, 100
        rate = 1.0 - eta * 1.0 / 2.0
        t0a, t0b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        d0 = np.linalg.norm(t0a - t0b)
        for r in range(64):
            cfg = SGDConfig(eta, 4, k, np.zeros(2), 100)
            dist = contraction(loss, ds, cfg, t0a, t0b, replica_id=r)
            assert np.all(dist <= d0 * rate ** np.arange(k + 1) + 1e-12)
