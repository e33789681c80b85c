"""Differential test of the k-dependent bounds against 60-digit mpmath.

The references evaluate each theorem's closed form from the same float
inputs, with 1 - rate^k as -expm1(k log1p(-(1 - rate))) so that rates
within 1e-1000 of 1 stay exact.  Finite values must agree to rel 1e-13;
values that overflow float range are compared through ``log_value``.
"""

import math

import pytest
from mpmath import mp, mpf

from stabilab.bounds import (bound_nonconvex_noisy, bound_nonconvex_plain,
                             bound_quadratic, bound_strongly_convex)
from stabilab.model import AssumptionConstants

mp.dps = 60

KS = (0, 1, 3, 9, 100, 400, 10 ** 4, math.inf)


def const(**kw):
    base = dict(K1=1.0, K2=1.0, mu=0.0, m=0.0, K=0.0, p=2.0, D=1.0, E=0.0)
    base.update(kw)
    return AssumptionConstants(**base)


def one_minus_pow(x, k):
    """1 - (1 - x)^k for x = 1 - rate in [0, 1], with the k = inf limit."""
    if k == 0 or x == 0:
        return mpf(0)
    if math.isinf(k):
        return mpf(1)
    return -mp.expm1(k * mp.log1p(-x))


def assert_close(sb, ref):
    if ref == 0:
        assert sb.value == 0.0 and sb.log_value == -math.inf
        return
    log_ref = float(mp.log(ref))
    if math.isinf(sb.value):
        assert abs(sb.log_value - log_ref) <= 1e-12 * max(1.0, abs(log_ref))
    else:
        assert abs(sb.value - ref) <= 1e-13 * ref


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0 - 1e-14])
@pytest.mark.parametrize("rho_hat", [0.3, 0.99])
def test_quadratic(rho, rho_hat, k):
    D, eta, b, n, eq1, theta0 = math.sqrt(2.0), 0.1, 2, 10, 1.7, 0.4
    sb = bound_quadratic(rho, rho_hat, eq1, D, eta, b, n, theta0, k)
    x = 1 - mpf(rho)
    kappa = max(1 + mpf(theta0),
                (1 - mpf(rho_hat) + mpf(eta) / b * mpf(eq1))
                / (1 - mpf(rho_hat)))
    assert_close(sb, one_minus_pow(x, k) / x * 2 * mpf(eta) * mpf(D) ** 2
                 / n * kappa)


# eta mu / 2 from 5e-3 down to 2e-15, where k q is about 5e-13 at k = 250
@pytest.mark.parametrize("k", KS + (5, 250))
@pytest.mark.parametrize("eta", [0.01, 2e-6, 2e-7, 1.8e-7, 2e-13, 4e-15, 0.0])
def test_strongly_convex(eta, k):
    c = const(mu=1.0, E=1.0, K1=0.5, D=0.8)
    n, theta0 = 100, 0.3
    sb = bound_strongly_convex(c, eta, n, theta0, k)
    mu, K1, K2, D, E, eta_ = (mpf(c.mu), mpf(c.K1), mpf(c.K2), mpf(c.D),
                              mpf(c.E), mpf(eta))
    lyap = max(1 + 2 * mpf(theta0) ** 2 + 2 * E ** 2 / mu ** 2,
               2 - eta_ / mu * K1 ** 2 - 56 * eta_ / mu * D ** 2 * K2 ** 2
               + 64 * eta_ / mu ** 3 * D ** 2 * K2 ** 2 * E ** 2)
    assert_close(sb, 8 * D * K2 * one_minus_pow(eta_ * mu / 2, k) / (n * mu)
                 * (2 * E / mu + 1) * lyap)


def noisy_reference(c, eta, sigma2, b, n, theta0, k, K0, log_eta_hat,
                    epsilon):
    m, K1, K2, D, E, K = (mpf(c.m), mpf(c.K1), mpf(c.K2), mpf(c.D),
                          mpf(c.E), mpf(c.K))
    eta, sigma2, eps, K0 = mpf(eta), mpf(sigma2), mpf(epsilon), mpf(K0)
    eh = mp.exp(mpf(log_eta_hat))
    x = m * eta * eps * (1 + eps) * eh / (4 * m + 2 * (1 + eps) * eh)
    psi = eh / (2 * eta * K0)
    Q = (E + mp.sqrt(E ** 2 + 4 * m * K)) / (2 * m)
    gap = mpf(2 * b) / n * max(
        psi * (4 + 8 * eta ** 2 * K1 ** 2),
        1 + psi * (1 + eta ** 2 * sigma2 + 16 * (1 + 2 * eta ** 2 * K1 ** 2)
                   * Q ** 2 + 4 * eta ** 2 * (2 * E ** 2
                                              + 2 * K1 ** 2 * Q ** 2)))
    lyap = max(1 + 2 * mpf(theta0) ** 2 + 2 * Q ** 2,
               2 - eta / m * K1 ** 2 - 56 * eta / m * D ** 2 * K2 ** 2
               + 64 * eta / m * D ** 2 * K2 ** 2 * Q ** 2 + 2 * K / m
               + eta / m * sigma2)
    return one_minus_pow(x, k) / (2 * mp.sqrt(psi * (1 + psi)) * x) \
        * gap * lyap


# log(eta_hat) = -23.65 and -27.57 put 1 - eta_bar at 1e-13 and 2e-15
# (k q about 5e-13 at k = 5 and 250); -714 puts it below the smallest
# normal float; -2746.2 is the closed-form level of the worked example
@pytest.mark.parametrize("k", KS + (5, 250))
@pytest.mark.parametrize("log_eta_hat", [math.log(0.25), -5.0, -23.65,
                                         -27.57, -714.0, -2746.1971327097285])
def test_nonconvex_noisy(log_eta_hat, k):
    c = const(m=1.0, K=0.5, K1=0.8, E=0.3)
    args = (c, 0.01, 1.0, 2, 100, 0.4, k, 2.44, log_eta_hat, 0.5)
    assert_close(bound_nonconvex_noisy(*args), noisy_reference(*args))


@pytest.mark.parametrize("k", KS + (5, 250))
@pytest.mark.parametrize("eta", [0.01, 1.8e-7, 1e-13, 2e-15, 0.0])
def test_nonconvex_plain_factor(eta, k):
    c = const(m=1.0, K=1.0)
    sb = bound_nonconvex_plain(c, eta, 1, 100, 0.0, k)
    ref = one_minus_pow(mpf(eta) * mpf(c.m), k)
    assert abs(sb.constants_used["geometric_factor"] - ref) <= 1e-13 * ref


@pytest.mark.parametrize("k", [1, 100, math.inf])
def test_eta_zero_is_positive_zero(k):
    for sb in (bound_strongly_convex(const(mu=1.0, E=1.0), 0.0, 100, 0.0, k),
               bound_nonconvex_plain(const(m=1.0, K=1.0), 0.0, 1, 100, 0.0,
                                     k)):
        assert sb.value == 0.0 and math.copysign(1.0, sb.value) == 1.0
        assert sb.log_value == -math.inf
