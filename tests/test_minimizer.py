"""``model.empirical_minimizer`` on the families without a closed form:
gradient descent at step 1/L for RegularizedSine and bisection of the
derivative for ScalarPower, against the stationarity they stop on and
against scipy's public L-BFGS-B as the slow reference."""

import numpy as np
import pytest
from scipy.optimize import minimize
from test_harness import REGIME_BOUNDS

from stabilab import harness, model
from stabilab.model import LossModel, grad_batch, make_synthetic_dataset

SINE = LossModel("RegularizedSine", m0=0.5, s=1.0)
POWER = LossModel("ScalarPower", p=1.5, mu=1.0)


def public_minimizer(loss, ds):
    """scipy's ``minimize(..., method="L-BFGS-B", tol=1e-14)``."""
    A, Y = ds.features, ds.labels

    def objective(theta):
        if loss.family == "RegularizedSine":
            return 0.5 * loss.m0 * theta @ theta + \
                loss.s * np.mean(np.sin(A @ theta - Y))
        return np.mean(loss.mu / loss.p * np.abs(theta[0] - Y) ** loss.p)

    return minimize(objective, np.zeros(ds.dim_d),
                    jac=lambda t: grad_batch(loss, t, A, Y),
                    method="L-BFGS-B", tol=1e-14)


def grid_cases():
    for n in (8, 13, 32, 50):
        for radius in (0.1, 1.0, 3.0):
            for generator in ("gaussian_clipped", "sphere_uniform"):
                yield POWER, n, 1, radius, generator
                for d in (1, 2, 5, 16):
                    yield SINE, n, d, radius, generator


def dataset(n, d, radius, generator, seed=None):
    return make_synthetic_dataset({"n": n, "d": d, "generator": generator,
                                   "radius_D": radius},
                                  n + d if seed is None else seed)


def descent_step(loss, ds):
    """One gradient step at 1/L, L = m0 + s max_i ||a_i||^2."""
    A, Y = ds.features, ds.labels
    L = loss.m0 + loss.s * np.max(np.sum(A * A, axis=1))
    return lambda theta: theta - grad_batch(loss, theta, A, Y) / L


def period(step, theta, limit=8):
    """The least k <= limit with step^k(theta) == theta, or None."""
    point = theta
    for k in range(1, limit + 1):
        point = step(point)
        if np.array_equal(point, theta):
            return k
    return None


def derivative(loss, ds, theta):
    return grad_batch(loss, [theta], ds.features, ds.labels)[0]


@pytest.mark.parametrize("loss, n, d, radius, generator", list(grid_cases()))
def test_minimizer_is_stationary(loss, n, d, radius, generator):
    ds = dataset(n, d, radius, generator)
    theta = model.empirical_minimizer(loss, ds)
    if loss.family == "RegularizedSine":
        # a fixed point, or a 2-cycle point (n = 8, d = 5, radius 3), on
        # the SkylakeX kernels; two d = 16 cases end on cycles of period 3
        # and 4 under Haswell's
        assert period(descent_step(loss, ds), theta) is not None
        assert np.linalg.norm(
            grad_batch(loss, theta, ds.features, ds.labels)) <= 1e-12
    else:
        # the derivative changes sign between theta* and the float below it
        assert derivative(loss, ds, np.nextafter(theta[0], -np.inf)) < 0
        assert derivative(loss, ds, theta[0]) >= 0
    assert np.max(np.abs(theta - public_minimizer(loss, ds).x)) <= 1e-6


@pytest.mark.parametrize("length", [1, 2, 3])
def test_descent_stops_where_it_cycles(monkeypatch, length):
    # at L = 1 the step walks 0 -> 1 -> ... -> length - 1 -> 0 exactly: the
    # descent stops when a step returns to a visited point, at the last new
    # one, not at the step cap
    calls = []

    def cycling(loss, theta, A, Y):
        calls.append(theta[0])
        return theta - (theta + 1) % length

    monkeypatch.setattr(model, "grad_batch", cycling)
    unit = LossModel("RegularizedSine", m0=1.0, s=0.0)
    theta = model.empirical_minimizer(unit, dataset(8, 1, 1.0,
                                                    "sphere_uniform"))
    assert calls == list(range(length))
    assert theta[0] == length - 1


def test_stationary_where_lbfgsb_stops_short():
    # scipy stops on its relative reduction of f with ||grad|| = 5.8e-9
    loss = LossModel("RegularizedSine", m0=2.0, s=0.5)
    ds = dataset(30, 3, 1.0, "gaussian_clipped", seed=1)
    public = public_minimizer(loss, ds)
    assert public.message.startswith("CONVERGENCE: RELATIVE REDUCTION OF F")
    A, Y = ds.features, ds.labels
    assert np.linalg.norm(grad_batch(loss, public.x, A, Y)) > 1e-9
    theta = model.empirical_minimizer(loss, ds)
    assert np.linalg.norm(grad_batch(loss, theta, A, Y)) <= 1e-12


def test_power_with_one_label_value_returns_it():
    # min y == max y: the bracket is one point and no midpoint is taken
    ds = model.Dataset(np.zeros((5, 1)), np.full(5, 0.3), 1.0)
    theta = model.empirical_minimizer(POWER, ds)
    assert theta.tolist() == [0.3]
    assert derivative(POWER, ds, theta[0]) == 0.0


def test_descent_stops_after_15000_steps(monkeypatch):
    # a gradient that never vanishes: every step moves theta by 1/L
    calls = []

    def constant(loss, theta, A, Y):
        calls.append(1)
        return np.ones_like(theta)

    monkeypatch.setattr(model, "grad_batch", constant)
    ds = dataset(8, 2, 1.0, "sphere_uniform")
    theta = model.empirical_minimizer(SINE, ds)
    assert len(calls) == 15000
    L = SINE.m0 + SINE.s * np.max(np.sum(ds.features ** 2, axis=1))
    assert theta == pytest.approx(-15000 / L * np.ones(2), rel=1e-12)


def test_noisy_regime_anchor():
    # test_harness' NonconvexNoisy config (d = 1): theta* is the upper end
    # of a 200-step bisection bracket of the derivative
    cfg = harness.validate_config(REGIME_BOUNDS["NonconvexNoisy"][0])
    exp = harness.build_experiment(cfg)
    theta = model.empirical_minimizer(exp.loss, exp.dataset)
    assert theta[0] == -0.00015375247852843975
    lo, hi = -1.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if derivative(exp.loss, exp.dataset, mid) < 0:
            lo = mid
        else:
            hi = mid
    assert (np.nextafter(hi, -np.inf), hi) == (lo, theta[0])
    assert derivative(exp.loss, exp.dataset, theta[0]) == 0.0

