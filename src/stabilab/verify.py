"""Empirical certificates for the bound machinery.

Each check audits one ingredient of the stability analysis (contraction
rate, Lyapunov drift, kernel perturbation gap, Gaussian minorization) or the
end-to-end dominance of a theoretical bound over an empirical estimate.
Grid- and sample-based checks are necessary-condition audits: a failure
refutes the claimed constant, a pass supports it.  The statistical margin is
three standard errors unless stated otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import REGIMES, StabilityBound, eta_hat_gaussian_log
from .dynamics import (STREAM_VERSION, MinibatchSource, NoiseModel, SGDConfig,
                       _block_rows, minibatches, run_lanes, step)
from .model import (Dataset, LossModel, NeighborPair, _mean_stderr, _norms,
                    derive_constants, empirical_minimizer, grad_batch,
                    max_grad_norm)
from .transport import TransportEstimate

THREE_SIGMA = "three standard errors of the Monte-Carlo mean"

# relative floating-point slack on a contraction claim: averaging R equal
# distances can land a few ulps above the claim they equal
CONTRACTION_ROUNDING_REL = 1e-12

LYAPUNOV_KINDS = ("one_plus_norm", "one_plus_sq_dist_to_min")
DRIFT_MODES = ("exact", "monte_carlo")
MARGIN_RULES = ("three_sigma", "fixed")


@dataclass
class Certificate:
    kind: str
    passed: bool
    margin: float          # signed slack, positive = satisfied
    details: dict = field(default_factory=dict)
    confidence: str = THREE_SIGMA

    def __post_init__(self):
        # checks compute passed from numpy scalars; JSON needs a bool
        self.passed = bool(self.passed)


def finite_or_null(obj):
    """``obj`` with each non-finite float replaced by None, for strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_or_null(value) for value in obj]
    return obj


def write_certificates_jsonl(certs, path) -> None:
    with open(path, "w") as fh:
        for cert in certs:
            fh.write(json.dumps(finite_or_null(asdict(cert)), sort_keys=True,
                                allow_nan=False) + "\n")


def _lyapunov(kind: str, loss: LossModel, dataset: Dataset):
    """V acting on the last axis of its argument."""
    if kind == "one_plus_norm":
        return lambda t: 1.0 + _norms(t)
    if kind == "one_plus_sq_dist_to_min":
        theta_star = empirical_minimizer(loss, dataset)
        return lambda t: 1.0 + np.sum((t - theta_star) ** 2, axis=-1)
    raise ValueError(f"unknown Lyapunov kind {kind!r}")


def _grid(theta_grid) -> list:
    """``theta_grid`` as a nonempty list of float vectors."""
    grid = [np.atleast_1d(np.asarray(t, dtype=float)) for t in theta_grid]
    if not grid:
        raise ValueError("theta_grid must be nonempty")
    return grid


def check_contraction(loss: LossModel, dataset: Dataset, eta: float, b: int,
                      claimed_rate: float, k_max: int, R: int, seed: int,
                      theta0_a=None, theta0_b=None,
                      noise: NoiseModel = NoiseModel()) -> Certificate:
    """Mean coupled distance from two starts vs claimed_rate^k * ||delta0||;
    a diverged replica fails it with margin 0, as in check_bound_dominates."""
    if not (0 < claimed_rate < 1):
        raise ValueError("claimed_rate must lie in (0, 1)")
    if R < 2:
        raise ValueError(f"R = {R}: the standard error needs R >= 2")
    d = dataset.dim_d
    if theta0_a is None:
        theta0_a = np.ones(d)
    if theta0_b is None:
        theta0_b = np.zeros(d)
    theta0_a = np.asarray(theta0_a, dtype=float)
    theta0_b = np.asarray(theta0_b, dtype=float)
    config = SGDConfig(eta=eta, batch_b=b, k_max=k_max,
                       theta0=theta0_a, master_seed=seed)
    run = run_lanes(loss, (dataset, dataset), (theta0_a, theta0_b), config,
                    noise, range(R), distances=True)
    diverged = run.diverged_at <= k_max
    if diverged.any():
        return Certificate("contraction", False, 0.0, {
            "claimed_rate": claimed_rate,
            "diverged_replicas": int(diverged.sum()),
            "first_diverged_k": int(run.diverged_at.min()),
            "R": R, "k_max": k_max, "seed": seed},
            "inconclusive: replicas diverged")
    mean, se = _mean_stderr(run.distances)
    delta0 = np.linalg.norm(theta0_a - theta0_b)
    ks = np.arange(k_max + 1)
    claim = claimed_rate ** ks * delta0
    margins = claim + CONTRACTION_ROUNDING_REL * claim + 3.0 * se - mean
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    return Certificate(
        kind="contraction", passed=margin >= 0, margin=margin,
        details={"claimed_rate": claimed_rate, "worst_k": worst,
                 "mean_at_worst_k": float(mean[worst]),
                 "claim_at_worst_k": float(claim[worst]),
                 "stderr_at_worst_k": float(se[worst]),
                 "rounding_rel": CONTRACTION_ROUNDING_REL,
                 "R": R, "k_max": k_max, "seed": seed})


def check_drift(loss: LossModel, dataset_hat: Dataset, eta: float, b: int,
                lyapunov: str, claimed_delta: float, claimed_L: float,
                theta_grid, mode: str = "exact", n_mc: int = 2000,
                seed: int = 0, noise: NoiseModel = NoiseModel()
                ) -> Certificate:
    """One-step Lyapunov drift: (P V)(theta) <= delta V(theta) + L on a grid.

    Exact mode enumerates minibatches (noiseless kernel only); Monte-Carlo
    mode samples n_mc >= 2 minibatches and noise and adds a 3 SE margin.
    Both run over one ``dynamics.MinibatchSource`` (stream layout v3).
    """
    if not (0 < claimed_delta < 1):
        raise ValueError("claimed_delta must lie in (0, 1)")
    if mode == "monte_carlo" and n_mc < 2:
        raise ValueError(f"n_mc = {n_mc}: the standard error needs n_mc >= 2")
    V = _lyapunov(lyapunov, loss, dataset_hat)
    source = MinibatchSource(dataset_hat.n, b, mode, seed, noise)
    worst_margin = math.inf
    worst = {}
    for theta in _grid(theta_grid):
        pv, se = source.average(
            lambda omegas, xis: V(step(loss, dataset_hat, theta, omegas, eta,
                                       xis)), n_mc, b * len(theta))
        v = float(V(theta))
        margin = claimed_delta * v + claimed_L + 3.0 * se - pv
        if margin < worst_margin:
            worst_margin = margin
            worst = {"theta": theta.tolist(), "PV": pv, "V": v,
                     "stderr": se}
    return Certificate(
        kind="drift", passed=worst_margin >= -1e-12, margin=float(worst_margin),
        details={"claimed_delta": claimed_delta, "claimed_L": claimed_L,
                 "lyapunov": lyapunov, "mode": mode, "seed": seed,
                 "stream_version": STREAM_VERSION} | worst,
        confidence="exact enumeration" if mode == "exact" else THREE_SIGMA)


def check_kernel_gap(loss: LossModel, pair: NeighborPair, eta: float, b: int,
                     lyapunov: str, claimed_gamma: float, theta_grid,
                     R: int, seed: int) -> Certificate:
    """One-step coupled kernel gap vs the claimed gamma.

    The coupled mean distance upper-bounds W1 between the two one-step
    kernels, so a pass certifies consistency of the claimed gap, not
    tightness.
    """
    if R < 2:
        raise ValueError(f"R = {R}: the standard error needs R >= 2")
    V = _lyapunov(lyapunov, loss, pair.perturbed)
    source = MinibatchSource(pair.base.n, b, "monte_carlo", seed)
    worst_ratio = -math.inf
    worst = {}
    for theta in _grid(theta_grid):
        gap, se = source.average(
            lambda omegas, _: _norms(
                step(loss, pair.base, theta, omegas, eta)
                - step(loss, pair.perturbed, theta, omegas, eta)),
            R, b * len(theta))
        v = float(V(theta))
        ratio, se = gap / v, se / v
        if ratio - 3.0 * se > worst_ratio:
            worst_ratio = ratio - 3.0 * se
            worst = {"theta": theta.tolist(), "measured_gap": ratio,
                     "stderr": se}
    margin = claimed_gamma - worst_ratio
    return Certificate(
        kind="kernel_gap", passed=margin >= 0, margin=float(margin),
        details={"claimed_gamma": claimed_gamma, "lyapunov": lyapunov,
                 "R": R, "seed": seed} | worst)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, bit for bit what scipy 1.17's
    special-function ``logsumexp(a, axis=-1)`` returns for real ``a``: the
    row maximum and its ties are taken out, the rest summed as exp(a - max)
    and divided by the tie count, and log1p of that added to log(count) +
    max; where that is not finite (a row of -inf, an inf or a NaN),
    log(sum(exp)) is returned instead."""
    top = np.max(a, axis=-1, keepdims=True)
    ties = a == top
    count = np.sum(ties, axis=-1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - top), axis=-1,
                   keepdims=True)
        out = (np.log1p(np.where(s == 0, s, s / count)) + np.log(count)
               + top)[..., 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=-1))
    return out


def _log_densities(loss: LossModel, dataset: Dataset, eta: float,
                   var: np.ndarray, thetas: np.ndarray, theta1s: np.ndarray,
                   omegas: np.ndarray) -> np.ndarray:
    """log p(theta, theta1), shape (len(thetas), len(theta1s)), of the
    Gaussian-noise one-step kernel: an exact mixture over ``omegas``.

    Works on blocks of about ``dynamics._BLOCK_ELEMENTS`` elements (one
    gradient per block of thetas); no value depends on the blocking.
    """
    C, b = omegas.shape
    d = thetas.shape[-1]
    log_norm = -0.5 * (d * math.log(2.0 * math.pi) + np.sum(np.log(var)))
    A, Y = dataset.features[omegas], dataset.labels[omegas]
    out = np.empty((len(thetas), len(theta1s)))
    tc = _block_rows(C, max(b, d))
    for t in range(0, len(thetas), tc):
        ts = thetas[t:t + tc, None, :]
        means = (ts - eta * grad_batch(loss, ts, A, Y))[:, None]
        jc = _block_rows(len(ts) * C, d)
        for j in range(0, len(theta1s), jc):
            diff = theta1s[j:j + jc, None, :] - means    # (tc, jc, C, d)
            comps = log_norm - 0.5 * np.sum(diff ** 2 / var, axis=-1)
            out[t:t + tc, j:j + jc] = _logsumexp(comps) - math.log(C)
    return out


def check_minorization_gaussian(loss: LossModel, dataset: Dataset, eta: float,
                                b: int, Sigma, m: float, K0: float,
                                epsilon: float, M: float, n_grid: int,
                                K1: float = None) -> Certificate:
    """Density-ratio minorization audit for diagonal Gaussian noise, d <= 2.

    Checks inf p(theta, theta1) / p(theta*, theta1) >= sqrt(eta_hat) over
    the grid {V(theta) <= R} x {||theta1 - theta*|| <= M}, with eta_hat from
    the closed-form lower bound.  Margins are reported in log-space, with
    the grid point where the ratio is smallest.  The cost is
    n_theta * n_theta1 * C(n, b) Gaussian components, as array work.
    """
    d = dataset.dim_d
    if d > 2:
        raise ValueError("minorization grid check supports d <= 2 only")
    Sigma = np.atleast_1d(np.asarray(Sigma, dtype=float))
    omegas = minibatches(dataset.n, b)
    theta_star = empirical_minimizer(loss, dataset)
    grad_sup = max_grad_norm(loss, dataset, theta_star)
    if K1 is None:
        K1 = derive_constants(loss, dataset).K1
    eh = eta_hat_gaussian_log(Sigma, eta, m, K0, epsilon, K1, grad_sup,
                              M_grid=[max(M, eta * grad_sup)])
    R = 2.0 * K0 / m * (1.0 + epsilon)
    r_theta = math.sqrt(max(R - 1.0, 0.0))

    def ball_grid(center, radius):
        axes = [np.linspace(-radius, radius, n_grid)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([ax.ravel() for ax in mesh], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]
        return pts + np.asarray(center)

    thetas = ball_grid(theta_star, r_theta)
    theta1s = ball_grid(theta_star, M)
    if not (len(thetas) and len(theta1s)):
        raise ValueError(f"n_grid = {n_grid} puts no grid point in the ball")
    logs = _log_densities(loss, dataset, eta, eta ** 2 * Sigma,
                          np.vstack([theta_star, thetas]), theta1s, omegas)
    ratios = logs[1:] - logs[0]
    t, j = np.unravel_index(np.argmin(ratios), ratios.shape)
    min_log_ratio = float(ratios[t, j])
    margin = min_log_ratio - 0.5 * eh["log_eta_hat"]
    return Certificate(
        kind="minorization", passed=margin >= 0, margin=float(margin),
        details={"log_eta_hat": eh["log_eta_hat"], "M": M, "R": R,
                 "min_log_density_ratio": min_log_ratio,
                 "n_theta": len(thetas), "n_theta1": len(theta1s),
                 "grad_at_star_sup": grad_sup,
                 "worst_theta": thetas[t].tolist(),
                 "worst_theta1": theta1s[j].tolist(),
                 "log_density_at_star": float(logs[0, j])},
        confidence="exact densities on a finite grid; margin in log-space")


def check_bound_dominates(empirical: TransportEstimate | None,
                          theoretical: StabilityBound,
                          margin_rule: str = "three_sigma",
                          fixed_rel: float = 0.0,
                          diverged_replicas: int = 0) -> Certificate:
    """Empirical estimate vs theoretical bound.

    Coupled estimates upper-bound the true distance, so they get no
    statistical margin (empirical <= theory is the conservative direction);
    assignment/order-statistics estimates use the stated margin rule.  Any
    diverged replica fails the check with margin 0: an estimate over the
    surviving replicas alone does not bound the full-law distance.
    """
    if diverged_replicas:
        return Certificate("dominance", False, 0.0, {
            "diverged_replicas": diverged_replicas,
            "regime": theoretical.regime}, "inconclusive: replicas diverged")
    expected_p = getattr(REGIMES.get(theoretical.regime), "p", None) \
        or theoretical.constants_used.get("p")
    if expected_p is not None and abs(empirical.p - expected_p) > 1e-12:
        raise ValueError(
            f"estimator order p = {empirical.p} does not match the "
            f"{theoretical.regime} regime (p = {expected_p})")
    # regimes stated in W2^2 / W_p^p compare against the p-th-power mean
    emp_value = empirical.value if expected_p == 1.0 \
        else empirical.power_mean
    if empirical.method == "coupled":
        margin_abs = 0.0
        rule = "coupled upper bound, no margin"
    elif margin_rule == "three_sigma":
        margin_abs = 3.0 * empirical.stderr
        rule = THREE_SIGMA
    elif margin_rule == "fixed":
        margin_abs = fixed_rel * theoretical.value
        rule = f"fixed relative margin {fixed_rel}"
    else:
        raise ValueError(f"unknown margin rule {margin_rule!r}")
    margin = theoretical.value + margin_abs - emp_value
    return Certificate(
        kind="dominance", passed=margin >= 0, margin=float(margin),
        details={"empirical": emp_value, "estimator": empirical.method,
                 "theoretical": theoretical.value,
                 "regime": theoretical.regime, "margin_abs": margin_abs},
        confidence=rule)
