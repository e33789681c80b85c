"""Closed-form stability bounds and the one perturbation combinator.

One bound per regime (Quadratic, StronglyConvex, NonconvexNoisy,
NonconvexPlain, SubConvexStationary), one :class:`Regime` record each in
``REGIMES``, and the shared ingredients: the quadratic contraction factor,
the drift constant K0, the Gaussian minorization level eta_hat (in
log-space; its exponents reach -10^3), the contraction factor eta_bar it
implies, and the dissipative radius.

The three k-dependent W1 bounds are instances of the perturbation theorem
of Rudolf & Schweizer (Bernoulli 2018):

    W1 <= C (1 - rate^k) / (1 - rate) * gamma * max{V0, L / (1 - delta)}

for P contracting at ``rate`` in a metric that is C times W1, the kernel
gap gamma = sup_theta W1(delta_theta P, delta_theta P_hat) / V_hat(theta),
the V_hat-mass V0 of the initial law and the drift (delta, L) of P_hat.
:func:`_perturbation_bound` alone assembles it, in log-space:

* Quadratic: C = 1, rate rho (log1p(-rho)), gamma = 2 eta D^2 / n,
  V0 = 1 + ||theta0||, drift (rho_hat, 1 - rho_hat + (eta/b) E||q1||).
* StronglyConvex: C = 1, rate 1 - eta mu/2 (log(eta mu/2)), gamma = 4 eta
  D K2 (2E/mu + 1) / n, i.e. the theorem's 8 D K2 (2E/mu + 1) / (n mu)
  times 1 - rate; V0 and L / (1 - delta) are the two terms of its max.
* NonconvexNoisy: in Hairer & Mattingly's weighted metric, C = 1 / (2
  sqrt(psi (1 + psi))) and rate eta_bar (:func:`eta_bar`); gamma = (2b/n)
  max{...}; V0 and L / (1 - delta) are the two terms of its Lyapunov max.

NonconvexPlain (W2^2, persistent 2K/m) keeps its closed form, with
1 - (1 - eta m)^k from the same log-space power; SubConvexStationary is
stationary.

Conventions:

* ``k`` may be ``math.inf``; the geometric factor then uses its limit.
* Every bound returns a :class:`StabilityBound` whose ``constants_used``
  gives its terms (the combinator adds ``log_C``, ``log_one_minus_rate``,
  ``log_gamma``, ``V0``, ``drift`` and ``kappa``) and whose ``log_value``
  stays finite when ``value`` overflows.
* Inadmissible step sizes raise :class:`InadmissibleError` naming the
  violated constraint.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import MinibatchSource, NoiseModel, SGDConfig
from .model import (AssumptionConstants, Dataset, LossModel, NeighborPair,
                    _norms, derive_constants, empirical_minimizer,
                    max_grad_norm)


class InadmissibleError(ValueError):
    """A bound's step-size (or rate) condition is violated."""


@dataclass(frozen=True)
class StabilityBound:
    regime: str
    value: float            # W1, W2^2, or W_p^p depending on the regime
    k: float
    constants_used: dict
    log_value: float = -math.inf   # finite even when value overflows

    def as_dict(self) -> dict:
        return {"regime": self.regime, "value": self.value,
                "log_value": self.log_value,
                "k": "inf" if math.isinf(self.k) else int(self.k),
                "admissible": True,
                "constants_used": self.constants_used}


@dataclass(frozen=True)
class Experiment:
    """One configured experiment; every command builds it once."""

    loss: LossModel
    dataset: Dataset
    pair: NeighborPair
    sgd: SGDConfig
    noise: NoiseModel

    @cached_property
    def constants(self) -> AssumptionConstants:
        return derive_constants(self.loss, self.dataset)

    @cached_property
    def K0(self) -> float:
        """Drift constant, ||theta*|| replaced by its dissipativity bound Q."""
        c = self.constants
        Q = dissipative_radius(c.m, c.K, c.E)
        return k0_constant(c.m, self.sgd.eta, c.K1, c.K2, c.D, Q ** 2, c.K,
                           self.noise.sigma2)


def rho_quadratic(dataset: Dataset, eta: float, b: int,
                  mode: str = "exact", n_mc: int = 10000, seed: int = 0,
                  pair: NeighborPair | None = None) -> dict:
    """E||I - (eta/b) sum_{i in Omega} a_i a_i^T|| over minibatches.

    Exact mode enumerates all C(n, b) minibatches (cap 20000); Monte-Carlo
    mode samples n_mc minibatches and reports a standard error.  With a
    neighbor ``pair`` whose base is ``dataset``, the same minibatches also
    give the perturbed dataset's ``rho_hat`` and ``Eq1_norm`` =
    E||sum_{i in Omega} a_i y_i||, rho_hat equal to the separate call bit
    for bit: a minibatch without the differing index has the same norm on
    both datasets, so only the others are taken again.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if pair is not None and pair.base is not dataset:
        raise ValueError("the pair's base must be the dataset")
    d, eye = dataset.dim_d, np.eye(dataset.dim_d)

    def norms(features, omegas):
        A = features[omegas]
        H = A.swapaxes(-1, -2) @ A / b
        return np.linalg.norm(eye - eta * H, 2, axis=(-2, -1))

    source, width = MinibatchSource(dataset.n, b, mode, seed), b * d + d * d
    if pair is None:
        rho, stderr = source.average(
            lambda omegas, _: norms(dataset.features, omegas), n_mc, width)
        return {"rho": rho, "stderr": stderr}
    q_hat = pair.perturbed.features * pair.perturbed.labels[:, None]

    def terms(omegas, _):
        rho = norms(dataset.features, omegas)
        hit = (omegas == pair.differing_index).any(axis=1)
        rho_hat = rho.copy()
        rho_hat[hit] = norms(pair.perturbed.features, omegas[hit])
        return rho, rho_hat, _norms(q_hat[omegas].sum(axis=1))

    (rho, stderr), (rho_hat, _), (eq1, _) = source.averages(terms, n_mc,
                                                            width)
    return {"rho": rho, "stderr": stderr, "rho_hat": rho_hat,
            "Eq1_norm": eq1}


def _log(x: float) -> float:
    """log(x), with log(0) = -inf."""
    return math.log(x) if x > 0 else -math.inf


def _log_one_minus_pow(l1m: float, k: float) -> float:
    """log(1 - rate^k) given l1m = log(1 - rate) <= 0, with the k = 0 and
    k = inf limits; rate 1 (l1m = -inf) gives -inf for every k."""
    if k == 0 or l1m == -math.inf:
        return -math.inf
    if math.isinf(k):
        return 0.0
    q = math.exp(l1m)
    if q < sys.float_info.min:
        # q = 1 - rate is subnormal or 0 and has lost its low bits, while
        # rate^k = 1 - k q holds to far below float precision
        return math.log(k) + l1m
    # log(rate) from whichever of q and 1 - q is exact
    log_rate = math.log1p(-q) if q < 0.5 else _log(-math.expm1(l1m))
    return math.log(-math.expm1(k * log_rate))


def _perturbation_bound(regime: str, k: float, l1m: float, log_C: float,
                        log_gamma: float, V0: float, drift: float,
                        constants_used: dict) -> StabilityBound:
    """C (1 - rate^k) / (1 - rate) * gamma * max{V0, drift}, in log-space.

    ``l1m`` is log(1 - rate) and ``drift`` the drift ratio L / (1 - delta).
    The bound is 0 at k = 0 and for identical kernels (gamma = 0, the only
    case in which rate 1 is admissible); ``value`` is inf where
    ``log_value`` overflows.
    """
    if not (l1m <= 0.0 and (l1m > -math.inf or log_gamma == -math.inf)):
        raise InadmissibleError(
            f"{regime}: log(1 - rate) = {l1m} gives no contraction")
    kappa = max(V0, drift)
    log_num = _log_one_minus_pow(l1m, k)
    if log_num == -math.inf or log_gamma == -math.inf:
        log_value = -math.inf
    else:
        log_value = (log_num - l1m) + log_gamma + log_C + math.log(kappa)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    cu = constants_used | {"log_C": log_C, "log_one_minus_rate": l1m,
                           "log_gamma": log_gamma, "V0": V0, "drift": drift,
                           "kappa": kappa}
    return StabilityBound(regime, value, k, cu, log_value=log_value)


def dissipative_radius(m: float, K: float, E: float) -> float:
    """Q = (E + sqrt(E^2 + 4mK)) / (2m), the dissipativity bound on the
    empirical minimizer norm."""
    if m <= 0:
        raise InadmissibleError(
            f"m = {m} violates m > 0: the dissipative radius needs a "
            "dissipative loss")
    return (E + math.sqrt(E ** 2 + 4.0 * m * K)) / (2.0 * m)


def bound_quadratic(rho: float, rho_hat: float, Eq1_norm: float, D: float,
                    eta: float, b: int, n: int, theta0_norm: float,
                    k: float) -> StabilityBound:
    """W1 bound for the pure quadratic loss.

    W1 <= ((1-rho^k)/(1-rho)) * (2 eta D^2 / n)
          * max{1 + ||theta0||, (1 - rho_hat + (eta/b) E||q1||) / (1 - rho_hat)}
    """
    if rho >= 1:
        raise InadmissibleError(f"rho = {rho} violates rho < 1")
    if rho_hat >= 1:
        raise InadmissibleError(f"rho_hat = {rho_hat} violates rho_hat < 1")
    return _perturbation_bound(
        "Quadratic", k, math.log1p(-rho), 0.0, _log(2.0 * eta * D ** 2 / n),
        1.0 + theta0_norm,
        (1.0 - rho_hat + eta / b * Eq1_norm) / (1.0 - rho_hat),
        {"rho": rho, "rho_hat": rho_hat, "Eq1_norm": Eq1_norm, "D": D,
         "eta": eta, "b": b, "n": n, "theta0_norm": theta0_norm})


def _check_step_size(constants: AssumptionConstants, eta: float,
                     curvature: str) -> None:
    """c > 0 and eta < min(1/c, c/(K1^2 + 64 D^2 K2^2)) for c = mu or m."""
    c = getattr(constants, curvature)
    if c <= 0:
        raise InadmissibleError(f"the regime needs {curvature} > 0")
    limit = min(1.0 / c, c / (constants.K1 ** 2
                              + 64.0 * constants.D ** 2 * constants.K2 ** 2))
    if eta >= limit:
        raise InadmissibleError(
            f"eta = {eta} violates eta < min(1/{curvature}, {curvature}/(K1^2"
            f" + 64 D^2 K2^2)) = {limit}")


def bound_strongly_convex(constants: AssumptionConstants, eta: float, n: int,
                          theta0_norm: float, k: float) -> StabilityBound:
    """W1 bound for mu-strongly convex losses:
    8 D K2 (1 - (1 - eta mu/2)^k) / (n mu) * (2E/mu + 1) * max{...}."""
    _check_step_size(constants, eta, "mu")
    mu, K1, K2, D, E = (constants.mu, constants.K1, constants.K2,
                        constants.D, constants.E)
    return _perturbation_bound(
        "StronglyConvex", k, _log(eta * mu / 2.0), 0.0,
        _log(4.0 * eta * D * K2 * (2.0 * E / mu + 1.0) / n),
        1.0 + 2.0 * theta0_norm ** 2 + 2.0 * E ** 2 / mu ** 2,
        2.0 - eta / mu * K1 ** 2 - 56.0 * eta / mu * D ** 2 * K2 ** 2
        + 64.0 * eta / mu ** 3 * D ** 2 * K2 ** 2 * E ** 2,
        asdict(constants) | {"eta": eta, "n": n, "theta0_norm": theta0_norm})


def k0_constant(m: float, eta: float, K1: float, K2: float, D: float,
                theta_star_norm2: float, K: float, sigma2: float) -> float:
    """Drift constant K0 = 2m - eta K1^2 - 56 eta D^2 K2^2
    + 64 eta D^2 K2^2 ||theta*||^2 + 2K + eta sigma^2."""
    val = (2.0 * m - eta * K1 ** 2 - 56.0 * eta * D ** 2 * K2 ** 2
           + 64.0 * eta * D ** 2 * K2 ** 2 * theta_star_norm2
           + 2.0 * K + eta * sigma2)
    if val <= 0:
        raise InadmissibleError(
            f"K0 = {val} <= 0; the drift constant must be positive")
    return val


def eta_hat_gaussian_log(Sigma, eta: float, m: float, K0: float,
                         epsilon: float, K1: float, grad_at_star_sup: float,
                         M_grid=None) -> dict:
    """Log of the minorization level eta_hat for diagonal Gaussian noise.

    For each M the two branches of the lower bound are evaluated in
    log-space (the concentration branch log1p(-exp(.)) and the density-ratio
    branch, whose exponent carries 1/(2 eta^2) and routinely reaches -10^3);
    eta_hat is the square of the best min over the grid.
    """
    if eta <= 0:
        raise InadmissibleError(f"eta = {eta} violates eta > 0")
    Sigma = np.atleast_1d(np.asarray(Sigma, dtype=float))
    if np.any(Sigma <= 0) or np.any(Sigma >= 1):
        raise InadmissibleError("Sigma must satisfy 0 < Sigma < I (diagonal)")
    S2 = 2.0 * K0 / m * (1.0 + epsilon) - 1.0
    if S2 < 0:
        raise InadmissibleError(
            "2 K0 (1+epsilon)/m < 1: the sublevel set radius is undefined")
    S = math.sqrt(S2)
    sigma_inv_norm = 1.0 / float(np.min(Sigma))
    half_logdet = 0.5 * float(np.sum(np.log1p(-Sigma)))
    if M_grid is None:
        M_grid = np.geomspace(max(eta * grad_at_star_sup, 1e-8),
                              max(1e3 * eta * grad_at_star_sup, 1.0), 32)
    M_grid = np.atleast_1d(np.asarray(M_grid, dtype=float))
    if np.any(M_grid < eta * grad_at_star_sup - 1e-15):
        raise InadmissibleError(
            "every M must satisfy M >= eta * grad_at_star_sup")
    best = -math.inf
    best_M = float(M_grid[0])
    rows = []
    for M in M_grid:
        t = -0.5 * (M / eta - grad_at_star_sup) ** 2 - half_logdet
        b1 = math.log1p(-math.exp(t)) if t < 0 else -math.inf
        b2 = -((1.0 + K1 * eta) * S / (2.0 * eta ** 2)) * sigma_inv_norm \
            * ((1.0 + K1 * eta) * S + 2.0 * (M + eta * grad_at_star_sup))
        cur = min(b1, b2)
        rows.append({"M": float(M), "log_branch_mass": b1,
                     "log_branch_ratio": b2})
        if cur > best:
            best, best_M = cur, float(M)
    if not math.isfinite(best):
        raise InadmissibleError("eta_hat lower bound is zero on this grid")
    return {"log_eta_hat": 2.0 * best, "argmax_M": best_M, "S": S,
            "branches": rows}


def eta_bar(m: float, eta: float, epsilon: float, log_eta_hat: float,
            K0: float) -> dict:
    """Contraction factor eta_bar = 1 - m eta eps (1+eps) eta_hat
    / (4m + 2 (1+eps) eta_hat), plus the weight psi = eta_hat / (2 eta K0),
    from log(eta_hat).

    Returns log(1 - eta_bar) and log(psi) alongside, since eta_bar rounds to
    1.0 and psi to 0.0 when eta_hat is astronomically small.
    """
    if eta <= 0:
        raise InadmissibleError(f"eta = {eta} violates eta > 0")
    if eta > 1.0:
        raise InadmissibleError(f"eta = {eta} violates eta <= 1")
    if not (0 < epsilon < 1):
        raise InadmissibleError("epsilon must lie in (0, 1)")
    if log_eta_hat >= 0:
        raise InadmissibleError("eta_hat must lie in (0, 1)")
    l1m = float(math.log(m * eta * epsilon) + math.log1p(epsilon)
                + log_eta_hat
                - np.logaddexp(math.log(4.0 * m), math.log(2.0)
                               + math.log1p(epsilon) + log_eta_hat))
    log_psi = log_eta_hat - math.log(2.0 * eta * K0)
    return {"eta_bar": 1.0 - math.exp(l1m), "log_one_minus_eta_bar": l1m,
            "log_psi": log_psi, "psi": math.exp(log_psi)}


def bound_nonconvex_noisy(constants: AssumptionConstants, eta: float,
                          sigma2: float, b: int, n: int, theta0_norm: float,
                          k: float, K0: float, log_eta_hat: float,
                          epsilon: float) -> StabilityBound:
    """W1 bound for dissipative losses with additive noise.

    (1-eta_bar^k)/(2 sqrt(psi(1+psi)) (1-eta_bar)) * (2b/n) max{...}
    * max{...}, evaluated in log-space because 1/(1-eta_bar) can be
    e^{1000} or more.  eta_bar and psi are the weighted-metric constants of
    Hairer & Mattingly's Harris theorem, from the drift constant K0 and the
    minorization level eta_hat (see :func:`eta_bar`).  The minimizer norms
    are replaced by the dissipative radius Q (:func:`dissipative_radius`).
    """
    m, K1, K2, D, E, K = (constants.m, constants.K1, constants.K2,
                          constants.D, constants.E, constants.K)
    eb = eta_bar(m, eta, epsilon, log_eta_hat, K0)
    _check_step_size(constants, eta, "m")
    psi, log_psi = eb["psi"], eb["log_psi"]
    Q = dissipative_radius(m, K, E)
    log_gap_a = log_psi + math.log(4.0 + 8.0 * eta ** 2 * K1 ** 2)
    gap_b_inner = psi * (1.0 + eta ** 2 * sigma2
                         + 16.0 * (1.0 + 2.0 * eta ** 2 * K1 ** 2) * Q ** 2
                         + 4.0 * eta ** 2 * (2.0 * E ** 2
                                             + 2.0 * K1 ** 2 * Q ** 2))
    return _perturbation_bound(
        "NonconvexNoisy", k, eb["log_one_minus_eta_bar"],
        -math.log(2.0) - 0.5 * (log_psi + math.log1p(psi)),
        math.log(2.0 * b / n) + max(log_gap_a, math.log1p(gap_b_inner)),
        1.0 + 2.0 * theta0_norm ** 2 + 2.0 * Q ** 2,
        2.0 - eta / m * K1 ** 2 - 56.0 * eta / m * D ** 2 * K2 ** 2
        + 64.0 * eta / m * D ** 2 * K2 ** 2 * Q ** 2
        + 2.0 * K / m + eta / m * sigma2,
        asdict(constants) | {
            "eta": eta, "sigma2": sigma2, "b": b, "n": n,
            "theta0_norm": theta0_norm, "Q": Q, "K0": K0,
            "log_eta_hat": log_eta_hat, "epsilon": epsilon,
            "log_psi": log_psi})


def bound_nonconvex_plain(constants: AssumptionConstants, eta: float, b: int,
                          n: int, theta0_norm: float, k: float
                          ) -> StabilityBound:
    """W2^2 bound for dissipative losses without noise (persistent 2K/m)."""
    _check_step_size(constants, eta, "m")
    m, K1, K2, D, E, K = (constants.m, constants.K1, constants.K2,
                          constants.D, constants.E, constants.K)
    Q = dissipative_radius(m, K, E)
    B = (4.0 * theta0_norm ** 2 + 4.0 * Q ** 2 + 4.0
         - 2.0 * eta / m * K1 ** 2 - 112.0 * eta / m * D ** 2 * K2 ** 2
         + 128.0 * eta / m * D ** 2 * K2 ** 2 * Q ** 2
         + 4.0 * K / m + 2.0 * Q ** 2)
    factor = math.exp(_log_one_minus_pow(_log(eta * m), k))
    term1 = 4.0 * D ** 2 * K2 ** 2 * eta * (8.0 * B + 2.0) / (b * n * m)
    term2 = 4.0 * K2 * D * (1.0 + K1 * eta) * (1.0 + 5.0 * B) / (n * m)
    term3 = 2.0 * K / m
    value = factor * (term1 + term2 + term3)
    cu = asdict(constants) | {
        "eta": eta, "b": b, "n": n, "theta0_norm": theta0_norm, "Q": Q,
        "B": B, "geometric_factor": factor, "term_batch": term1,
        "term_data": term2, "term_persistent": term3}
    return StabilityBound("NonconvexPlain", value, k, cu,
                          log_value=_log(value))


def bound_subconvex(constants: AssumptionConstants, eta: float, b: int,
                    n: int) -> StabilityBound:
    """Stationary W_p^p bound for the sub-quadratic curvature regime.

    Evaluates the proof-display form C2/(b n mu) + C3/n; the theorem
    statement's C2/(b n) reading is recorded in constants_used as well.
    """
    p, mu, K1, K2, D, E = (constants.p, constants.mu, constants.K1,
                           constants.K2, constants.D, constants.E)
    if not (1.0 < p < 2.0):
        raise InadmissibleError("sub-quadratic regime needs p in (1, 2)")
    if mu <= 0:
        raise InadmissibleError("sub-quadratic regime needs mu > 0")
    limit = mu / (K1 ** 2 + 2.0 ** (p + 4.0) * D ** 2 * K2 ** 2)
    if eta > limit * (1 + 1e-12):
        raise InadmissibleError(
            f"eta = {eta} violates eta <= mu/(K1^2 + 2^(p+4) D^2 K2^2)"
            f" = {limit}")
    ep = (E / mu) ** (p / (p - 1.0))
    C2 = 4.0 * D ** 2 * K2 ** 2 * eta / mu * (
        2.0 ** (p + 2.0) * (8.0 * eta / mu * D ** 2 * K2 ** 2
                            * (2.0 ** (p + 1.0) * ep + 5.0))
        + 2.0 ** (p + 2.0) * ep + 10.0)
    C3 = (32.0 * D ** 3 * K2 ** 3 * eta / mu ** 2 * (1.0 + K1 * eta)
          * 10.0 * 2.0 ** (p - 1.0) * (2.0 ** (p + 1.0) * ep + 5.0)
          + 4.0 * D * K2 / mu * (1.0 + K1 * eta)
          * (10.0 * 2.0 ** (p - 1.0) * ep + 5.0))
    value = C2 / (b * n * mu) + C3 / n
    cu = asdict(constants) | {
        "eta": eta, "b": b, "n": n, "C2": C2, "C3": C3,
        "value_proof_display": value,
        "value_statement_reading": C2 / (b * n) + C3 / n}
    return StabilityBound("SubConvexStationary", value, math.inf, cu,
                          log_value=_log(value))


def _bound_k(cfg: dict) -> float:
    return math.inf if cfg["k"] == "inf" else cfg["k"]


def _theta0_norm(exp: Experiment) -> float:
    return float(np.linalg.norm(exp.sgd.theta0))


def _quadratic(exp: Experiment, cfg: dict) -> StabilityBound:
    sgd, data = exp.sgd, exp.dataset
    rho = rho_quadratic(data, sgd.eta, sgd.batch_b, cfg["rho_mode"],
                        seed=cfg["rho_seed"], pair=exp.pair)
    return bound_quadratic(rho["rho"], rho["rho_hat"], rho["Eq1_norm"],
                           data.radius_D, sgd.eta, sgd.batch_b, data.n,
                           _theta0_norm(exp), _bound_k(cfg))


def _noisy(exp: Experiment, cfg: dict) -> StabilityBound:
    c, sgd, data = exp.constants, exp.sgd, exp.dataset
    epsilon, eh_cfg = cfg["epsilon"], cfg["eta_hat"]
    if eh_cfg["mode"] == "fixed":
        log_eta_hat = eh_cfg["log_eta_hat"]
    else:
        theta_star = empirical_minimizer(exp.loss, data)
        grad_sup = max_grad_norm(exp.loss, data, theta_star)
        log_eta_hat = eta_hat_gaussian_log(
            np.array(exp.noise.scale) ** 2, sgd.eta, c.m, exp.K0, epsilon,
            c.K1, grad_sup, M_grid=eh_cfg["M_grid"])["log_eta_hat"]
    return bound_nonconvex_noisy(c, sgd.eta, exp.noise.sigma2, sgd.batch_b,
                                 data.n, _theta0_norm(exp), _bound_k(cfg),
                                 exp.K0, log_eta_hat, epsilon)


class Regime(NamedTuple):
    families: tuple          # loss families the regime accepts
    noise: str | None        # noise kind it requires, if any
    p: float | None          # order of its distance; None: constants_used["p"]
    # the bound from the experiment and the filled ``bound`` config section
    evaluate: Callable[[Experiment, dict], StabilityBound]


_DISSIPATIVE = ("RidgeQuadratic", "RegularizedSine")
REGIMES = {
    "Quadratic": Regime(("Quadratic",), None, 1.0, _quadratic),
    "StronglyConvex": Regime(
        ("RidgeQuadratic",), None, 1.0,
        lambda exp, cfg: bound_strongly_convex(
            exp.constants, exp.sgd.eta, exp.dataset.n, _theta0_norm(exp),
            _bound_k(cfg))),
    "NonconvexNoisy": Regime(_DISSIPATIVE, "gaussian_diag", 1.0, _noisy),
    "NonconvexPlain": Regime(
        _DISSIPATIVE, None, 2.0,
        lambda exp, cfg: bound_nonconvex_plain(
            exp.constants, exp.sgd.eta, exp.sgd.batch_b, exp.dataset.n,
            _theta0_norm(exp), _bound_k(cfg))),
    "SubConvexStationary": Regime(
        ("ScalarPower",), None, None,
        lambda exp, cfg: bound_subconvex(
            exp.constants, exp.sgd.eta, exp.sgd.batch_b, exp.dataset.n)),
}
