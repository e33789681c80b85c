"""Empirical certificates for the bound machinery.

Each check audits one ingredient of the stability analysis (contraction
rate, Lyapunov drift, kernel perturbation gap, Gaussian minorization) or the
dominance of a bound over an estimate: a failure refutes the claim, a pass
supports it.  At each point (k, theta, (theta, theta1) or a checkpoint) a
check has a measured value, its standard error and a claim, and keeps the
point of least margin ±(claim - measured) + z stderr + ROUNDING_REL |claim|
(- for the lower minorization claim), passing at margin >= 0.  z = 3 unless
stated.  ``details`` always has ``points`` (the number tested), ``worst``,
and the ``measured``, ``stderr`` and ``claim`` there.  Contraction tests
k = 1..k_max, skipping k = 0 (Delta_0 is deterministic) and each k where
every pair has merged; with none left it passes at ``points`` 0, margin
+inf.  Its run stops once every pair left has merged bit for bit, so
divergence is seen only up to that step: a merged pair whose common chain
would diverge later keeps distance 0, and ``first_diverged_k`` names a step
that ran.  A true claim fails each point w.p. about 0.00135, so a pass at m
points is a test at family-wise level at most 0.00135 m.
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

# relative floating-point slack on every claim: averaging R equal distances
# can land a few ulps above the claim they equal
ROUNDING_REL = 1e-12

LYAPUNOV_KINDS = ("one_plus_norm", "one_plus_sq_dist_to_min")
DRIFT_MODES = ("exact", "monte_carlo")
MARGIN_RULES = ("three_sigma", "fixed")
# the details every certificate but a diverged one has, at its worst point
WORST_KEYS = ("points", "worst", "measured", "stderr", "claim")


@dataclass
class Certificate:
    kind: str
    passed: bool
    margin: float          # signed slack, positive = satisfied
    details: dict = field(default_factory=dict)
    confidence: str = THREE_SIGMA

    # what stdout says of the run beside the margin, never written out
    note = ""

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


def _worst(kind: str, points, measured, stderr, claim, details: dict, *,
           lower: bool = False, z: float = 3.0, confidence: str = THREE_SIGMA,
           at_worst: dict = None) -> Certificate:
    """The certificate at the point of least margin.  ``points`` has one
    axis per axis of ``measured``; ``stderr``, ``claim`` and the arrays of
    ``at_worst`` (added to ``details`` at the worst point) broadcast."""
    measured, stderr, claim = np.broadcast_arrays(measured, stderr, claim)
    margins = (measured - claim if lower else claim - measured) \
        + z * stderr + ROUNDING_REL * np.abs(claim)
    if not margins.size:
        return Certificate(kind, True, math.inf, details
                           | dict.fromkeys(WORST_KEYS) | {"points": 0},
                           confidence)
    i = np.unravel_index(np.argmin(margins), margins.shape)
    worst = [np.asarray(axis[j]).tolist() for axis, j in zip(points, i)]
    return Certificate(kind, margins[i] >= 0, float(margins[i]), details | {
        "points": margins.size, "worst": worst[0] if len(i) == 1 else worst,
        "measured": float(measured[i]), "stderr": float(stderr[i]),
        "claim": float(claim[i])} | {
        key: float(np.broadcast_to(value, margins.shape)[i])
        for key, value in (at_worst or {}).items()}, confidence)


def _diverged(kind: str, count: int, details: dict) -> Certificate:
    """Failed with margin 0: the surviving replicas alone do not bound the
    full law."""
    return Certificate(kind, False, 0.0,
                       details | {"diverged_replicas": count},
                       "inconclusive: replicas diverged")


def _lyapunov(kind: str, loss: LossModel, dataset: Dataset):
    """V acting on the last axis of its argument."""
    if kind == "one_plus_norm":
        return lambda t: 1.0 + _norms(t)
    if kind == "one_plus_sq_dist_to_min":
        theta_star = empirical_minimizer(loss, dataset)
        return lambda t: 1.0 + np.sum((t - theta_star) ** 2, axis=-1)
    raise ValueError(f"unknown Lyapunov kind {kind!r}")


def _over_grid(theta_grid, V, average) -> tuple:
    """(grid, mean, stderr, V) at each point of the nonempty ``theta_grid``,
    one ``average(theta)`` a point, in grid order."""
    grid = [np.atleast_1d(np.asarray(t, dtype=float)) for t in theta_grid]
    if not grid:
        raise ValueError("theta_grid must be nonempty")
    mean, se, v = np.array([(*average(t), float(V(t))) for t in grid]).T
    return grid, mean, se, v


def check_contraction(loss: LossModel, dataset: Dataset, eta: float, b: int,
                      claimed_rate: float, k_max: int, R: int, seed: int,
                      theta0_a=None, theta0_b=None,
                      noise: NoiseModel = NoiseModel()) -> Certificate:
    """Mean coupled distance from two starts vs claimed_rate^k * ||delta0||
    at each k in 1..k_max where some pair has not merged."""
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
    details = {"claimed_rate": claimed_rate, "R": R, "k_max": k_max,
               "seed": seed}
    diverged = run.diverged_at <= k_max
    if diverged.any():
        cert = _diverged("contraction", int(diverged.sum()), details | {
            "first_diverged_k": int(run.diverged_at.min())})
    else:
        mean, se = _mean_stderr(run.distances)
        ks = np.flatnonzero(mean[1:] > 0) + 1
        claim = claimed_rate ** ks * np.linalg.norm(theta0_a - theta0_b)
        cert = _worst("contraction", (ks,), mean[ks], se[ks], claim, details)
    cert.note = f", {run.steps} of {k_max} steps" + (
        ", every lane coalesced" if (run.distances[:, -1] == 0).all() else "")
    return cert


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
    grid, pv, se, v = _over_grid(theta_grid, V, lambda theta: source.average(
        lambda omegas, xis: V(step(loss, dataset_hat, theta, omegas, eta,
                                   xis)), n_mc, b * len(theta)))
    return _worst(
        "drift", (grid,), pv, se, claimed_delta * v + claimed_L,
        {"claimed_delta": claimed_delta, "claimed_L": claimed_L,
         "lyapunov": lyapunov, "mode": mode, "seed": seed,
         "stream_version": STREAM_VERSION},
        confidence="exact enumeration" if mode == "exact" else THREE_SIGMA)


def check_kernel_gap(loss: LossModel, pair: NeighborPair, eta: float, b: int,
                     lyapunov: str, claimed_gamma: float, theta_grid,
                     R: int, seed: int) -> Certificate:
    """One-step coupled kernel gap over V vs the claimed gamma.

    The coupled mean distance upper-bounds W1 between the two one-step
    kernels, so a pass certifies consistency of the claimed gap, not
    tightness.
    """
    if R < 2:
        raise ValueError(f"R = {R}: the standard error needs R >= 2")
    V = _lyapunov(lyapunov, loss, pair.perturbed)
    source = MinibatchSource(pair.base.n, b, "monte_carlo", seed)
    grid, gap, se, v = _over_grid(theta_grid, V, lambda theta: source.average(
        lambda omegas, _: _norms(
            step(loss, pair.base, theta, omegas, eta)
            - step(loss, pair.perturbed, theta, omegas, eta)),
        R, b * len(theta)))
    return _worst("kernel_gap", (grid,), gap / v, se / v, claimed_gamma,
                  {"claimed_gamma": claimed_gamma, "lyapunov": lyapunov,
                   "R": R, "seed": seed})


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
    the closed-form lower bound: a lower claim on exact values (z = 0),
    in log-space, whose worst point is the pair [theta, theta1].  The cost
    is n_theta * n_theta1 * C(n, b) Gaussian components, as array work.
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
    return _worst(
        "minorization", (thetas, theta1s), logs[1:] - logs[0], 0.0,
        0.5 * eh["log_eta_hat"],
        {"log_eta_hat": eh["log_eta_hat"], "M": M, "R": R,
         "n_theta": len(thetas), "n_theta1": len(theta1s),
         "grad_at_star_sup": grad_sup}, lower=True, z=0.0,
        confidence="exact densities on a finite grid; margin in log-space",
        at_worst={"log_density_at_star": logs[0]})


def check_bound_dominates(empirical: TransportEstimate | None,
                          theoretical: StabilityBound,
                          margin_rule: str = "three_sigma",
                          fixed_rel: float = 0.0,
                          diverged_replicas: int = 0,
                          k: int = None) -> Certificate:
    """Empirical estimate at checkpoint ``k`` vs the theoretical bound.

    Coupled estimates upper-bound the true distance, so they get no
    statistical margin (empirical <= theory is the conservative direction);
    assignment/order-statistics estimates use the stated margin rule: three
    standard errors, or a claim of bound * (1 + fixed_rel).  Any diverged
    replica fails the check with margin 0.
    """
    if diverged_replicas:
        return _diverged("dominance", diverged_replicas,
                         {"regime": theoretical.regime})
    expected_p = getattr(REGIMES.get(theoretical.regime), "p", None) \
        or theoretical.constants_used.get("p")
    if expected_p is not None and abs(empirical.p - expected_p) > 1e-12:
        raise ValueError(
            f"estimator order p = {empirical.p} does not match the "
            f"{theoretical.regime} regime (p = {expected_p})")
    # regimes stated in W2^2 / W_p^p compare against the p-th-power mean
    measured = empirical.value if expected_p == 1.0 else empirical.power_mean
    claim, z = theoretical.value, 0.0
    if empirical.method == "coupled":
        rule = "coupled upper bound, no margin"
    elif margin_rule == "three_sigma":
        z, rule = 3.0, THREE_SIGMA
    elif margin_rule == "fixed":
        claim *= 1.0 + fixed_rel
        rule = f"fixed relative margin {fixed_rel}"
    else:
        raise ValueError(f"unknown margin rule {margin_rule!r}")
    return _worst("dominance", ([k],), [measured], empirical.stderr, claim,
                  {"estimator": empirical.method,
                   "regime": theoretical.regime}, z=z, confidence=rule)
