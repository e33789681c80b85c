"""Experiment orchestration: config parsing, pipelines, and persistence.

A single JSON config (with a versioned schema) drives three commands:

* ``bounds``    evaluates the configured regime's theoretical bound,
* ``simulate``  runs the coupled ensemble and writes empirical estimates,
* ``verify``    runs the configured certificate suite.

Outputs: CSV for per-iteration series, JSON for scalar reports, JSON-lines
for certificates.  All outputs are deterministic functions of the config
(timing is reported on stdout, never in files, so reruns are byte-identical).

Exit-code contract: 0 success / 1 usage or config error / 2 inadmissible
step size / 3 certificate failure.
"""

from __future__ import annotations

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import model, transport, verify
from .bounds import InadmissibleError, StabilityBound
from .dynamics import STREAM_VERSION, NoiseModel, SGDConfig, run_ensemble

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_CERT_FAILURE = 3

REGIMES = ("Quadratic", "StronglyConvex", "NonconvexNoisy",
           "NonconvexPlain", "SubConvexStationary")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {where}.{key}")
    return cfg[key]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}")
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    version = _require(cfg, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {version} unsupported (expected {SCHEMA_VERSION})")
    regime = _require(cfg, "regime", "config")
    if regime not in REGIMES:
        raise ConfigError(f"config.regime must be one of {REGIMES}")
    loss = _require(cfg, "loss", "config")
    family = _require(loss, "family", "config.loss")
    if regime == "SubConvexStationary" and family != "ScalarPower":
        raise ConfigError(
            "config.regime SubConvexStationary requires the ScalarPower loss")
    if regime == "StronglyConvex" and family not in ("RidgeQuadratic",):
        raise ConfigError(
            "config.regime StronglyConvex requires the RidgeQuadratic loss")
    dataset = _require(cfg, "dataset", "config")
    for key in ("n", "d", "generator", "seed"):
        _require(dataset, key, "config.dataset")
    sgd = _require(cfg, "sgd", "config")
    for key in ("eta", "batch_b", "k_max", "theta0", "master_seed"):
        _require(sgd, key, "config.sgd")


def build_loss(cfg: dict) -> model.LossModel:
    spec = dict(cfg["loss"])
    family = spec.pop("family")
    return model.LossModel(family, **spec)


def build_dataset(cfg: dict) -> model.Dataset:
    spec = dict(cfg["dataset"])
    seed = spec.pop("seed")
    return model.make_synthetic_dataset(spec, seed)


def build_pair(cfg: dict, dataset: model.Dataset) -> model.NeighborPair:
    nb = cfg.get("neighbor", {})
    return model.make_neighbor(dataset, int(nb.get("index", 0)),
                               int(nb.get("seed", 1)))


def build_sgd(cfg: dict) -> SGDConfig:
    sgd = cfg["sgd"]
    return SGDConfig(eta=float(sgd["eta"]), batch_b=int(sgd["batch_b"]),
                     k_max=int(sgd["k_max"]),
                     theta0=np.asarray(sgd["theta0"], dtype=float),
                     master_seed=int(sgd["master_seed"]))


def build_noise(cfg: dict) -> NoiseModel:
    noise = cfg.get("noise", {"kind": "none"})
    return NoiseModel(kind=noise.get("kind", "none"),
                      scale=tuple(noise.get("scale", ())))


def _bound_k(cfg: dict) -> float:
    k = cfg.get("bound", {}).get("k", "inf")
    return math.inf if k in ("inf", None) else float(int(k))


def evaluate_bound(cfg: dict) -> StabilityBound:
    """Evaluate the configured regime's bound from first principles."""
    regime = cfg["regime"]
    loss = build_loss(cfg)
    dataset = build_dataset(cfg)
    pair = build_pair(cfg, dataset)
    sgd = build_sgd(cfg)
    noise = build_noise(cfg)
    bound_cfg = cfg.get("bound", {})
    k = _bound_k(cfg)
    theta0_norm = float(np.linalg.norm(sgd.theta0))
    constants = model.derive_constants(loss, dataset)
    n = dataset.n
    if regime == "Quadratic":
        mode = bound_cfg.get("rho_mode", "exact")
        rho = bnd.rho_quadratic(dataset, sgd.eta, sgd.batch_b, mode=mode,
                                seed=int(bound_cfg.get("rho_seed", 0)))
        rho_hat = bnd.rho_quadratic(pair.perturbed, sgd.eta, sgd.batch_b,
                                    mode=mode,
                                    seed=int(bound_cfg.get("rho_seed", 0)))
        eq1 = bnd.expected_q_norm(pair.perturbed, sgd.batch_b, mode=mode,
                                  seed=int(bound_cfg.get("rho_seed", 0)))
        return bnd.bound_quadratic(rho["rho"], rho_hat["rho"], eq1,
                                   dataset.radius_D, sgd.eta, sgd.batch_b,
                                   n, theta0_norm, k)
    if regime == "StronglyConvex":
        return bnd.bound_strongly_convex(constants, sgd.eta, n,
                                         theta0_norm, k)
    if regime == "NonconvexPlain":
        return bnd.bound_nonconvex_plain(constants, sgd.eta, sgd.batch_b,
                                         n, theta0_norm, k)
    if regime == "SubConvexStationary":
        return bnd.bound_subconvex(constants, sgd.eta, sgd.batch_b, n)
    # NonconvexNoisy
    if noise.kind != "gaussian_diag":
        raise ConfigError(
            "config.regime NonconvexNoisy requires gaussian_diag noise")
    sigma2 = noise.sigma2
    Q = bnd.minimizer_norm_bound("dissipative", m=constants.m,
                                 K=constants.K, E=constants.E)
    K0 = bnd.k0_constant(constants.m, sgd.eta, constants.K1, constants.K2,
                         constants.D, Q ** 2, constants.K, sigma2)
    epsilon = float(bound_cfg.get("epsilon", 0.5))
    eh_cfg = bound_cfg.get("eta_hat", {"mode": "corollary"})
    variances = np.array(noise.scale) ** 2
    if eh_cfg.get("mode", "corollary") == "fixed":
        log_eta_hat = float(eh_cfg["log_eta_hat"])
        argmax_M = float(eh_cfg.get("M", 0.0))
    else:
        theta_star = model.empirical_minimizer(loss, dataset)
        grad_sup = float(model._norms(model.grad_batch(
            loss, theta_star, dataset.features[:, None, :],
            dataset.labels[:, None])).max())
        eh = bnd.eta_hat_gaussian_log(variances, sgd.eta, constants.m, K0,
                                      epsilon, constants.K1, grad_sup,
                                      M_grid=eh_cfg.get("M_grid"))
        log_eta_hat, argmax_M = eh["log_eta_hat"], eh["argmax_M"]
    noisy = bnd.noisy_regime_constants(constants.m, sgd.eta, epsilon, K0,
                                       log_eta_hat, M=argmax_M)
    return bnd.bound_nonconvex_noisy(constants, sgd.eta, sigma2, sgd.batch_b,
                                     n, theta0_norm, k, noisy)


def cmd_bounds(cfg: dict, out_dir) -> int:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        bound = evaluate_bound(cfg)
    except InadmissibleError as exc:
        print(f"inadmissible configuration: {exc}")
        report = {"regime": cfg["regime"], "admissible": False,
                  "reason": str(exc)}
        _write_json(out_dir / "bounds.json", report)
        return EXIT_INADMISSIBLE
    report = bound.as_dict() | {
        "n": cfg["dataset"]["n"], "b": cfg["sgd"]["batch_b"],
        "eta": cfg["sgd"]["eta"]}
    _write_json(out_dir / "bounds.json", report)
    print(f"{cfg['regime']} bound at k={report['k']}: {bound.value}")
    return EXIT_OK


def _estimates_rows(cfg: dict, ensemble, p: float) -> list:
    estimators = cfg.get("estimators", ["coupled"])
    rows = []
    diverged = sum(r.diverged for r in ensemble.replicas)
    for k in ensemble.checkpoints:
        pairs = ensemble.pairs_at(k)
        for est in estimators:
            if not pairs:
                rows.append([k, est, p, "", "", "diverged"])
                continue
            if est == "coupled":
                res = transport.coupled_upper_bound(p, pairs)
            elif est == "assignment":
                if len(pairs) < 2:
                    raise ConfigError(
                        "assignment estimator needs at least 2 replicas")
                A = np.array([a for a, _ in pairs])
                B = np.array([b for _, b in pairs])
                res = transport.wasserstein_assignment(p, A, B)
            elif est == "exact_1d":
                A = np.array([a for a, _ in pairs])
                B = np.array([b for _, b in pairs])
                res = transport.wasserstein_exact_1d(p, A, B)
            else:
                raise ConfigError(f"unknown estimator {est!r}")
            status = "ok" if diverged == 0 else "partial_divergence"
            rows.append([k, est, p, repr(res.value), repr(res.stderr),
                         status])
    return rows


def cmd_simulate(cfg: dict, out_dir) -> int:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    loss = build_loss(cfg)
    dataset = build_dataset(cfg)
    pair = build_pair(cfg, dataset)
    sgd = build_sgd(cfg)
    noise = build_noise(cfg)
    R = int(cfg.get("replicas", 1))
    p = float(cfg.get("p", 1.0))
    checkpoints = cfg.get("checkpoints", [sgd.k_max])
    if "assignment" in cfg.get("estimators", ["coupled"]) and R < 2:
        raise ConfigError("assignment estimator needs replicas >= 2")
    start = time.perf_counter()
    ensemble = run_ensemble(loss, pair, sgd, noise, R, checkpoints)
    elapsed = time.perf_counter() - start
    rows = _estimates_rows(cfg, ensemble, p)
    with open(out_dir / "estimates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "estimator", "p", "value", "stderr", "status"])
        writer.writerows(rows)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "stream_version": STREAM_VERSION,
        "regime": cfg["regime"],
        "master_seed": cfg["sgd"]["master_seed"],
        "replicas": R,
        "checkpoints": list(checkpoints),
        "diverged_replicas": sum(r.diverged for r in ensemble.replicas),
        "config": cfg,
    }
    _write_json(out_dir / "run_summary.json", summary)
    print(f"simulated {R} replicas to k={sgd.k_max} in {elapsed:.2f}s")
    return EXIT_OK


def _run_certificate(cfg: dict, spec: dict) -> verify.Certificate:
    loss = build_loss(cfg)
    dataset = build_dataset(cfg)
    pair = build_pair(cfg, dataset)
    sgd = build_sgd(cfg)
    kind = _require(spec, "kind", "certificate")
    seed = int(spec.get("seed", cfg["sgd"]["master_seed"]))
    if kind == "contraction":
        return verify.check_contraction(
            loss, dataset, sgd.eta, sgd.batch_b,
            float(_require(spec, "claimed_rate", "certificate")),
            int(spec.get("k_max", sgd.k_max)), int(spec.get("R", 64)), seed,
            theta0_a=spec.get("theta0_a"), theta0_b=spec.get("theta0_b"),
            noise=build_noise(cfg))
    if kind == "drift":
        mode, noise = spec.get("mode", "exact"), build_noise(cfg)
        if mode == "exact" and noise.kind != "none":
            raise ConfigError("certificate.mode exact enumerates the "
                              "noiseless kernel; use monte_carlo with noise")
        return verify.check_drift(
            loss, pair.perturbed, sgd.eta, sgd.batch_b,
            spec.get("lyapunov", "one_plus_norm"),
            float(_require(spec, "claimed_delta", "certificate")),
            float(_require(spec, "claimed_L", "certificate")),
            spec.get("theta_grid", [[0.0] * dataset.dim_d]), mode=mode,
            n_mc=int(spec.get("n_mc", 2000)), seed=seed, noise=noise)
    if kind == "kernel_gap":
        return verify.check_kernel_gap(
            loss, pair, sgd.eta, sgd.batch_b,
            spec.get("lyapunov", "one_plus_norm"),
            float(_require(spec, "claimed_gamma", "certificate")),
            spec.get("theta_grid", [[0.0] * dataset.dim_d]),
            int(spec.get("R", 256)), seed)
    if kind == "minorization":
        noise = build_noise(cfg)
        if noise.kind != "gaussian_diag":
            raise ConfigError("minorization needs gaussian_diag noise")
        constants = model.derive_constants(loss, dataset)
        Q = bnd.minimizer_norm_bound("dissipative", m=constants.m,
                                     K=constants.K, E=constants.E)
        K0 = bnd.k0_constant(constants.m, sgd.eta, constants.K1,
                             constants.K2, constants.D, Q ** 2,
                             constants.K, noise.sigma2)
        return verify.check_minorization_gaussian(
            loss, dataset, sgd.eta, sgd.batch_b,
            np.array(noise.scale) ** 2, constants.m, K0,
            float(spec.get("epsilon", 0.5)),
            float(_require(spec, "M", "certificate")),
            n_grid=int(spec.get("n_grid", 9)), seed=seed,
            K1=constants.K1)
    if kind == "dominance":
        bound = evaluate_bound(cfg)
        noise = build_noise(cfg)
        R = int(spec.get("R", cfg.get("replicas", 64)))
        k = int(spec.get("k", sgd.k_max))
        ensemble = run_ensemble(loss, pair, sgd, noise, R, [k])
        p = float(cfg.get("p", 1.0))
        estimator = spec.get("estimator", "coupled")
        pairs = ensemble.pairs_at(k)
        if estimator == "coupled":
            emp = transport.coupled_upper_bound(p, pairs)
        else:
            emp = transport.wasserstein_assignment(
                p, np.array([a for a, _ in pairs]),
                np.array([b for _, b in pairs]))
        return verify.check_bound_dominates(
            emp, bound, margin_rule=spec.get("margin_rule", "three_sigma"),
            fixed_rel=float(spec.get("fixed_rel", 0.0)))
    raise ConfigError(f"unknown certificate kind {kind!r}")


def cmd_verify(cfg: dict, out_dir) -> int:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = cfg.get("certificates", [])
    if not specs:
        raise ConfigError("nothing to verify: config.certificates is empty")
    certs = []
    try:
        for spec in specs:
            start = time.perf_counter()
            cert = _run_certificate(cfg, spec)
            print(f"{'PASS' if cert.passed else 'FAIL'} {cert.kind}: margin "
                  f"{cert.margin:.6g} ({time.perf_counter() - start:.2f} s)")
            certs.append(cert)
    except InadmissibleError as exc:
        print(f"inadmissible configuration: {exc}")
        return EXIT_INADMISSIBLE
    verify.write_certificates_jsonl(certs, out_dir / "certificates.jsonl")
    return EXIT_OK if all(c.passed for c in certs) else EXIT_CERT_FAILURE


def cmd_report(in_dir) -> int:
    in_dir = Path(in_dir)
    lines = ["# stabilab report", ""]
    bounds_path = in_dir / "bounds.json"
    if bounds_path.exists():
        rep = json.loads(bounds_path.read_text())
        lines += ["## Theoretical bound", "",
                  "| regime | k | value | admissible |",
                  "| --- | --- | --- | --- |",
                  f"| {rep.get('regime')} | {rep.get('k')} "
                  f"| {rep.get('value')} | {rep.get('admissible')} |", ""]
    est_path = in_dir / "estimates.csv"
    if est_path.exists():
        with open(est_path) as fh:
            rows = list(csv.reader(fh))
        lines += ["## Empirical estimates", "",
                  "| " + " | ".join(rows[0]) + " |",
                  "|" + " --- |" * len(rows[0])]
        lines += ["| " + " | ".join(r) + " |" for r in rows[1:]]
        lines.append("")
    cert_path = in_dir / "certificates.jsonl"
    if cert_path.exists():
        lines += ["## Certificates", "",
                  "| kind | passed | margin |", "| --- | --- | --- |"]
        with open(cert_path) as fh:
            for line in fh:
                c = json.loads(line)
                lines.append(
                    f"| {c['kind']} | {c['passed']} | {c['margin']} |")
        lines.append("")
    if len(lines) <= 2:
        print(f"no stabilab outputs found in {in_dir}")
        return EXIT_USAGE
    report_path = in_dir / "report.md"
    report_path.write_text("\n".join(lines))
    print(f"wrote {report_path}")
    return EXIT_OK


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
