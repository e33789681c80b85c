"""Property-based tests for the closed-form pieces (hypothesis-driven)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab.bounds import _perturbation_bound, bound_quadratic, eta_bar
from stabilab.transport import wasserstein_exact_1d


@settings(max_examples=200, deadline=None)
@given(m=st.floats(0.1, 5.0),
       eta_frac=st.floats(1e-3, 1.0, exclude_max=True),
       epsilon=st.floats(0.01, 0.99),
       eta_hat=st.floats(1e-6, 1.0 - 1e-6))
def test_eta_bar_in_unit_interval(m, eta_frac, epsilon, eta_hat):
    eta = eta_frac * min(1.0, 1.0 / m)
    out = eta_bar(m, eta, epsilon, math.log(eta_hat), 1.0)
    assert 0.0 < out["eta_bar"] < 1.0
    assert out["log_one_minus_eta_bar"] < 0.0


@settings(max_examples=200, deadline=None)
@given(rho=st.floats(0.0, 1.0, exclude_max=True),
       gamma=st.floats(0.0, 1.0),
       delta=st.floats(0.0, 0.99),
       L=st.floats(0.0, 1.0),
       v0=st.floats(1.0, 10.0),
       log_C=st.floats(-5.0, 5.0),
       k=st.integers(0, 1000))
def test_perturbation_bound_nondecreasing_in_k_and_gamma(rho, gamma, delta,
                                                         L, v0, log_C, k):
    def bound(k, gamma):
        log_gamma = math.log(gamma) if gamma > 0 else -math.inf
        return _perturbation_bound("P", k, math.log1p(-rho), log_C,
                                   log_gamma, v0, L / (1.0 - delta),
                                   {}).value

    lo = bound(k, gamma)
    assert lo >= 0.0
    assert lo <= bound(k + 1, gamma) * (1 + 1e-12)
    assert bound(k + 1, gamma) <= bound(math.inf, gamma) * (1 + 1e-12)
    assert lo <= bound(k, gamma + 0.5) * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(rho=st.floats(0.0, 0.99),
       rho_hat=st.floats(0.0, 0.99),
       eq1=st.floats(0.0, 5.0),
       theta0=st.floats(0.0, 5.0),
       k=st.integers(0, 500))
def test_quadratic_bound_nondecreasing_in_k(rho, rho_hat, eq1, theta0, k):
    lo = bound_quadratic(rho, rho_hat, eq1, 1.0, 0.1, 1, 10, theta0, k)
    hi = bound_quadratic(rho, rho_hat, eq1, 1.0, 0.1, 1, 10, theta0, k + 1)
    inf = bound_quadratic(rho, rho_hat, eq1, 1.0, 0.1, 1, 10, theta0,
                          math.inf)
    assert lo.value <= hi.value * (1 + 1e-12) + 1e-300
    assert hi.value <= inf.value * (1 + 1e-12) + 1e-300


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=32),
       st.floats(1.0, 2.0))
def test_exact_1d_identity_and_symmetry(values, p):
    a = np.array(values)
    rng = np.random.default_rng(0)
    b = a + rng.standard_normal(a.size)
    assert wasserstein_exact_1d(p, a, a).value == 0.0
    ab = wasserstein_exact_1d(p, a, b).value
    ba = wasserstein_exact_1d(p, b, a).value
    assert ab == pytest.approx(ba, rel=1e-12, abs=1e-12)
