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

ESTIMATORS = ("coupled", "assignment", "exact_1d")
RHO_MODES = ("exact", "monte_carlo")
ETA_HAT_MODES = ("corollary", "fixed")

# the constants each certificate kind requires
CERTIFICATE_CLAIMS = {
    "contraction": ("claimed_rate",),
    "drift": ("claimed_delta", "claimed_L"),
    "kernel_gap": ("claimed_gamma",),
    "minorization": ("M",),
    "dominance": (),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _require(cfg: dict, key: str, where: str):
    _check(key in cfg, f"missing field {where}.{key}")
    return cfg[key]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


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
    """Reject a malformed config from the dict alone, before any work."""
    version = _require(cfg, "schema_version", "config")
    _check(version == SCHEMA_VERSION, f"schema_version {version} "
           f"unsupported (expected {SCHEMA_VERSION})")
    name = _require(cfg, "regime", "config")
    _check(name in bnd.REGIMES,
           f"config.regime must be one of {tuple(bnd.REGIMES)}")
    regime = bnd.REGIMES[name]
    loss = _object(_require(cfg, "loss", "config"), "config.loss")
    family = _require(loss, "family", "config.loss")
    _check(family in regime.families, f"config.loss.family: regime {name} "
           f"requires the {' or '.join(regime.families)} loss")
    for key in sorted(set(loss) - {"family"}):
        _check(math.isfinite(_number(loss[key], f"config.loss.{key}")),
               f"config.loss.{key} must be finite")
    noise = _section(cfg, "noise")
    noise_kind = noise.get("kind", "none")
    _check(regime.noise in (None, noise_kind),
           f"config.noise.kind: regime {name} requires {regime.noise} noise")
    dataset = _object(_require(cfg, "dataset", "config"), "config.dataset")
    for key in ("n", "d", "generator", "seed"):
        _require(dataset, key, "config.dataset")
    n = _integer(dataset["n"], "config.dataset.n")
    d = _integer(dataset["d"], "config.dataset.d")
    _check(n >= 1 and d >= 1, "config.dataset.n and d must be >= 1")
    _check(_integer(dataset["seed"], "config.dataset.seed") >= 0,
           "config.dataset.seed must be >= 0")
    _check(dataset["generator"] in model.GENERATORS,
           f"config.dataset.generator {dataset['generator']!r}: one of "
           f"{model.GENERATORS}")
    if "radius_D" in dataset:
        _check(0 < _number(dataset["radius_D"], "config.dataset.radius_D")
               < math.inf, "config.dataset.radius_D must be finite and > 0")
    _check(math.isfinite(_number(dataset.get("label_range", 1.0),
                                 "config.dataset.label_range")),
           "config.dataset.label_range must be finite")
    neighbor = _section(cfg, "neighbor")
    _check(0 <= _integer(neighbor.get("index", 0), "config.neighbor.index")
           < n, f"config.neighbor.index must lie in [0, n = {n})")
    _check(_integer(neighbor.get("seed", 1), "config.neighbor.seed") >= 0,
           "config.neighbor.seed must be >= 0")
    sgd = _object(_require(cfg, "sgd", "config"), "config.sgd")
    for key in ("eta", "batch_b", "k_max", "theta0", "master_seed"):
        _require(sgd, key, "config.sgd")
    _check(0 <= _number(sgd["eta"], "config.sgd.eta") < math.inf,
           "config.sgd.eta must be finite and >= 0")
    # also the default seed of every certificate
    _check(_integer(sgd["master_seed"], "config.sgd.master_seed") >= 0,
           "config.sgd.master_seed must be >= 0")
    k_max = _integer(sgd["k_max"], "config.sgd.k_max")
    _check(1 <= _integer(sgd["batch_b"], "config.sgd.batch_b") <= n,
           f"config.sgd.batch_b must lie in [1, n = {n}]")
    _vector(sgd["theta0"], d, "config.sgd.theta0")
    unknown = sorted(set(noise) - {"kind", "scale"})
    _check(not unknown, f"config.noise: unknown fields {unknown}")
    if noise_kind != "none":
        _vector(noise.get("scale", []), d, "config.noise.scale")
    _check(all(0 <= _integer(k, "config.checkpoints") <= k_max
               for k in cfg.get("checkpoints", [])),
           f"config.checkpoints must lie in [0, k_max = {k_max}]")
    replicas = _integer(cfg.get("replicas", 1), "config.replicas")
    _check(replicas >= 1, "config.replicas must be >= 1")
    _check(1 <= _number(cfg.get("p", 1.0), "config.p") < math.inf,
           "config.p must be a finite number >= 1")
    for est in cfg.get("estimators", ["coupled"]):
        _check_estimator(est, d, replicas, "config.estimators",
                         "config.replicas")
    _check_bound(_section(cfg, "bound"))
    certificates = cfg.get("certificates", [])
    _check(isinstance(certificates, list), "config.certificates must be a list")
    for spec in certificates:
        _check_certificate(cfg, spec, d, k_max, noise)
        if spec["kind"] == "dominance":
            _check(regime.p in (None, float(cfg.get("p", 1.0))),
                   f"config.p must be {regime.p} for a {name} dominance")


def _check_bound(bound: dict) -> None:
    """Reject a bound section that ``bounds`` would refuse or misread."""
    k = bound.get("k", "inf")
    _check(k in ("inf", None) or _integer(k, "config.bound.k") >= 0,
           'config.bound.k must be an integer >= 0 or "inf"')
    mode = bound.get("rho_mode", "exact")
    _check(mode in RHO_MODES,
           f"config.bound.rho_mode {mode!r}: one of {RHO_MODES}")
    _check(_integer(bound.get("rho_seed", 0), "config.bound.rho_seed") >= 0,
           "config.bound.rho_seed must be >= 0")
    _number(bound.get("epsilon", 0.5), "config.bound.epsilon")
    eta_hat = _section(bound, "eta_hat", "config.bound")
    mode = eta_hat.get("mode", "corollary")
    _check(mode in ETA_HAT_MODES,
           f"config.bound.eta_hat.mode {mode!r}: one of {ETA_HAT_MODES}")
    if mode == "fixed":
        _number(_require(eta_hat, "log_eta_hat", "config.bound.eta_hat"),
                "config.bound.eta_hat.log_eta_hat")
    grid = eta_hat.get("M_grid")    # null: the default grid
    _check(grid is None or isinstance(grid, list) and grid,
           "config.bound.eta_hat.M_grid must be a nonempty list")
    for M in grid or []:
        _number(M, "config.bound.eta_hat.M_grid")


def _check_certificate(cfg: dict, spec: dict, d: int, k_max: int,
                       noise: dict) -> None:
    """Reject a certificate spec that its check would refuse mid-run."""
    noise_kind = noise.get("kind", "none")
    _check(isinstance(spec, dict), "config.certificates entries must be "
           "objects")
    kind = _require(spec, "kind", "certificate")
    _check(kind in tuple(CERTIFICATE_CLAIMS), f"certificate.kind {kind!r}: "
           f"one of {tuple(CERTIFICATE_CLAIMS)}")
    for key in CERTIFICATE_CLAIMS[kind]:
        value = _number(_require(spec, key, "certificate"),
                        f"certificate.{key}")
        _check(math.isfinite(value), f"certificate.{key} must be finite")
        _check(key not in ("claimed_rate", "claimed_delta") or 0 < value < 1,
               f"certificate.{key} must lie in (0, 1)")
        _check(key not in ("claimed_gamma", "M") or value >= 0,
               f"certificate.{key} must be >= 0")
    for key in ("epsilon", "fixed_rel"):
        if key in spec:
            _number(spec[key], f"certificate.{key}")
    for key, low in (("R", 1), ("k_max", 0), ("seed", 0)):
        if key in spec:
            _check(_integer(spec[key], f"certificate.{key}") >= low,
                   f"certificate.{key} must be >= {low}")
    for key, known in (("lyapunov", verify.LYAPUNOV_KINDS),
                       ("margin_rule", verify.MARGIN_RULES)):
        _check(spec.get(key, known[0]) in known,
               f"certificate.{key} {spec.get(key)!r}: one of {known}")
    grid = spec.get("theta_grid", [[0.0] * d])
    _check(isinstance(grid, list) and grid,
           "certificate.theta_grid must be a nonempty list")
    for theta in grid:
        _vector(theta, d, "certificate.theta_grid entry")
    for key in ("theta0_a", "theta0_b"):
        if key in spec:
            _vector(spec[key], d, f"certificate.{key}")
    if kind == "drift":
        mode = spec.get("mode", "exact")
        _check(mode in verify.DRIFT_MODES,
               f"certificate.mode {mode!r}: one of {verify.DRIFT_MODES}")
        _check(mode != "exact" or noise_kind == "none",
               "certificate.mode exact enumerates the noiseless kernel; use "
               "monte_carlo with noise")
        _check(mode != "monte_carlo"
               or _integer(spec.get("n_mc", 2000), "certificate.n_mc") >= 2,
               "certificate.n_mc must be >= 2")
    if kind == "minorization":
        _check(noise_kind == "gaussian_diag",
               "certificate.kind minorization needs gaussian_diag noise")
        _check(all(s < 1 for s in noise["scale"]),
               "certificate.kind minorization needs config.noise.scale "
               "entries < 1 (Sigma < I)")
        _check(d <= 2, f"certificate.kind minorization needs d <= 2, got "
               f"d = {d}")
        _check(_integer(spec.get("n_grid", 9), "certificate.n_grid")
               >= 2 * d - 1,
               f"certificate.n_grid < {2 * d - 1} leaves the {d}-D grid empty")
    if kind == "dominance":
        _check_estimator(spec.get("estimator", "coupled"), d,
                         _dominance_replicas(cfg, spec),
                         "certificate.estimator",
                         "certificate.R" if "R" in spec else "config.replicas")
        _check(0 <= _integer(spec.get("k", 0), "certificate.k") <= k_max,
               f"certificate.k must lie in [0, k_max = {k_max}]")


def _section(cfg: dict, key: str, where: str = "config") -> dict:
    return _object(cfg.get(key, {}), f"{where}.{key}")


def _object(value, field: str) -> dict:
    _check(isinstance(value, dict), f"{field} must be an object")
    return value


def _number(value, field: str) -> float:
    _check(isinstance(value, (int, float)) and not isinstance(value, bool),
           f"{field} must be a number, got {value!r}")
    return value


def _integer(value, field: str) -> int:
    _check(isinstance(value, int) and not isinstance(value, bool),
           f"{field} must be an integer, got {value!r}")
    return value


def _vector(value, d: int, field: str) -> None:
    _check(isinstance(value, list) and len(value) == d,
           f"{field} must have d = {d} entries")
    for entry in value:
        _number(entry, field)


def _check_estimator(est: str, d: int, replicas: int, where: str,
                     replicas_field: str) -> None:
    _check(est in ESTIMATORS and (est != "exact_1d" or d == 1),
           f"{where} {est!r}: one of {ESTIMATORS}, exact_1d only in d = 1")
    cap = transport.ASSIGNMENT_CAP
    _check(est != "assignment" or 2 <= replicas <= cap,
           f"{replicas_field} must lie in [2, {cap}] for the assignment "
           f"estimator")


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
    return model.make_neighbor(dataset, nb.get("index", 0), nb.get("seed", 1))


def build_sgd(cfg: dict) -> SGDConfig:
    sgd = cfg["sgd"]
    return SGDConfig(eta=float(sgd["eta"]), batch_b=int(sgd["batch_b"]),
                     k_max=int(sgd["k_max"]),
                     theta0=np.asarray(sgd["theta0"], dtype=float),
                     master_seed=int(sgd["master_seed"]))


def build_experiment(cfg: dict) -> bnd.Experiment:
    """Everything a command needs from ``cfg``, built once per command."""
    try:
        dataset = build_dataset(cfg)
        return bnd.Experiment(
            build_loss(cfg), dataset, build_pair(cfg, dataset),
            build_sgd(cfg), NoiseModel(**cfg.get("noise", {})))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def evaluate_bound(cfg: dict, exp: bnd.Experiment = None) -> StabilityBound:
    """Evaluate the configured regime's bound from first principles."""
    exp = exp or build_experiment(cfg)
    return bnd.REGIMES[cfg["regime"]].evaluate(exp, cfg.get("bound", {}))


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


def _estimate(est: str, p: float, A, B) -> transport.TransportEstimate:
    """The ``est`` estimate of W_p between coupled clouds A and B."""
    if est == "coupled":
        return transport.coupled_upper_bound(p, A, B)
    if est == "assignment":
        return transport.wasserstein_assignment(p, A, B)
    return transport.wasserstein_exact_1d(p, A, B)


def _estimates_rows(cfg: dict, ensemble, p: float) -> list:
    status = "partial_divergence" if ensemble.any_diverged() else "ok"
    rows = []
    for k in ensemble.checkpoints:
        A, B = ensemble.clouds_at(k)
        for est in cfg.get("estimators", ["coupled"]):
            if not len(A):
                rows.append([k, est, p, "", "", "diverged"])
                continue
            res = _estimate(est, p, A, B)
            rows.append([k, est, p, repr(res.value), repr(res.stderr),
                         status])
    return rows


def cmd_simulate(cfg: dict, out_dir) -> int:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    R = int(cfg.get("replicas", 1))
    exp = build_experiment(cfg)
    checkpoints = cfg.get("checkpoints", [exp.sgd.k_max])
    start = time.perf_counter()
    ensemble = run_ensemble(exp.loss, exp.pair, exp.sgd, exp.noise, R,
                            checkpoints)
    elapsed = time.perf_counter() - start
    diverged = [r.diverged_at for r in ensemble.replicas if r.diverged]
    rows = _estimates_rows(cfg, ensemble, float(cfg.get("p", 1.0)))
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
        "diverged_replicas": len(diverged),
        "config": cfg,
    }
    _write_json(out_dir / "run_summary.json", summary)
    print(f"simulated {R} replicas to k={exp.sgd.k_max} in {elapsed:.2f}s; "
          f"{len(diverged)} diverged"
          + (f", the first at step {min(diverged)}" if diverged else ""))
    return EXIT_OK


def _dominance_replicas(cfg: dict, spec: dict) -> int:
    return int(spec.get("R", cfg.get("replicas", 64)))


def _run_certificate(cfg: dict, exp: bnd.Experiment,
                     spec: dict) -> verify.Certificate:
    sgd = exp.sgd
    kind = _require(spec, "kind", "certificate")
    seed = int(spec.get("seed", sgd.master_seed))
    if kind == "contraction":
        return verify.check_contraction(
            exp.loss, exp.dataset, sgd.eta, sgd.batch_b,
            float(_require(spec, "claimed_rate", "certificate")),
            int(spec.get("k_max", sgd.k_max)), int(spec.get("R", 64)), seed,
            theta0_a=spec.get("theta0_a"), theta0_b=spec.get("theta0_b"),
            noise=exp.noise)
    if kind == "drift":
        return verify.check_drift(
            exp.loss, exp.pair.perturbed, sgd.eta, sgd.batch_b,
            spec.get("lyapunov", "one_plus_norm"),
            float(_require(spec, "claimed_delta", "certificate")),
            float(_require(spec, "claimed_L", "certificate")),
            spec.get("theta_grid", [[0.0] * exp.dataset.dim_d]),
            mode=spec.get("mode", "exact"),
            n_mc=int(spec.get("n_mc", 2000)), seed=seed, noise=exp.noise)
    if kind == "kernel_gap":
        return verify.check_kernel_gap(
            exp.loss, exp.pair, sgd.eta, sgd.batch_b,
            spec.get("lyapunov", "one_plus_norm"),
            float(_require(spec, "claimed_gamma", "certificate")),
            spec.get("theta_grid", [[0.0] * exp.dataset.dim_d]),
            int(spec.get("R", 256)), seed)
    if kind == "minorization":
        return verify.check_minorization_gaussian(
            exp.loss, exp.dataset, sgd.eta, sgd.batch_b,
            np.array(exp.noise.scale) ** 2, exp.constants.m, exp.K0,
            float(spec.get("epsilon", 0.5)),
            float(_require(spec, "M", "certificate")),
            n_grid=int(spec.get("n_grid", 9)), K1=exp.constants.K1)
    if kind != "dominance":
        raise ConfigError(f"unknown certificate kind {kind!r}")
    bound = evaluate_bound(cfg, exp)
    R = _dominance_replicas(cfg, spec)
    k = int(spec.get("k", sgd.k_max))
    ensemble = run_ensemble(exp.loss, exp.pair, sgd, exp.noise, R, [k])
    diverged = sum(r.diverged for r in ensemble.replicas)
    emp = None if diverged else _estimate(spec.get("estimator", "coupled"),
                                          float(cfg.get("p", 1.0)),
                                          *ensemble.clouds_at(k))
    return verify.check_bound_dominates(
        emp, bound, margin_rule=spec.get("margin_rule", "three_sigma"),
        fixed_rel=float(spec.get("fixed_rel", 0.0)),
        diverged_replicas=diverged)


def cmd_verify(cfg: dict, out_dir) -> int:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = cfg.get("certificates", [])
    _check(specs, "nothing to verify: config.certificates is empty")
    exp = build_experiment(cfg)
    certs = []
    for spec in specs:
        start = time.perf_counter()
        cert = _run_certificate(cfg, exp, spec)
        print(f"{'PASS' if cert.passed else 'FAIL'} {cert.kind}: margin "
              f"{cert.margin:.6g} ({time.perf_counter() - start:.2f} s)")
        certs.append(cert)
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
