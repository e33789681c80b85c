"""Experiment orchestration: config parsing, pipelines, and persistence.

A single JSON config, checked and filled in from one table of fields
(``FIELDS``), drives three commands:

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
import sys
import time
from dataclasses import fields
from functools import cache, lru_cache, reduce
from operator import getitem
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import model, transport, verify
from .bounds import InadmissibleError, StabilityBound
from .dynamics import (EXACT_ENUMERATION_CAP, NOISE_KINDS, STREAM_VERSION,
                       NoiseModel, SGDConfig, enumerable, run_ensemble)
from .verify import DRIFT_MODES, LYAPUNOV_KINDS, MARGIN_RULES

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_CERT_FAILURE = 3

ESTIMATORS = {"coupled": "coupled_upper_bound",    # function in transport
              "assignment": "wasserstein_assignment",
              "exact_1d": "wasserstein_exact_1d"}
REQUIRED = "required"
FINITE = "(-inf, inf)"
_K_MAX = lambda c: c["sgd"]["k_max"]                  # noqa: E731

# Every config field: path, type, range, default; README.md explains the
# types.  A range bounds each number of the value, and an end may name a
# field above it; so may a callable default.  A None default also takes
# null.  certificates[kinds].key rows are the keyword arguments of a check.
FIELDS = (
    ("schema_version", "int", f"[{SCHEMA_VERSION}, {SCHEMA_VERSION}]",
     REQUIRED),
    ("regime", "enum", tuple(bnd.REGIMES), REQUIRED),
    ("loss", "object", None, REQUIRED),
    ("loss.family", "enum", model.FAMILIES, REQUIRED),
    *((f"loss.{f.name}", "number", FINITE, f.default)    # LossModel's
      for f in fields(model.LossModel)[1:]),
    ("dataset", "object", None, REQUIRED),
    ("dataset.n", "int", "[1, inf)", REQUIRED),
    ("dataset.d", "int", "[1, inf)", REQUIRED),
    ("dataset.generator", "enum", model.GENERATORS, REQUIRED),
    ("dataset.seed", "int", "[0, inf)", REQUIRED),
    ("dataset.radius_D", "number", "(0, inf)", None),    # the generator's
    ("dataset.label_range", "number", FINITE, None),
    ("neighbor", "object", None, {}),
    ("neighbor.index", "int", "[0, dataset.n)", 0),
    ("neighbor.seed", "int", "[0, inf)", 1),
    ("sgd", "object", None, REQUIRED),
    ("sgd.eta", "number", "[0, inf)", REQUIRED),
    ("sgd.batch_b", "int", "[1, dataset.n]", REQUIRED),
    ("sgd.k_max", "int", "[0, inf)", REQUIRED),
    ("sgd.theta0", "vector", FINITE, REQUIRED),
    ("sgd.master_seed", "int", "[0, inf)", REQUIRED),
    ("noise", "object", None, {}),
    ("noise.kind", "enum", NOISE_KINDS, "none"),
    ("noise.scale", "vector", "(0, inf)", ()),
    ("replicas", "int", "[1, inf)", 1),
    ("checkpoints", "ints", "[0, sgd.k_max]", lambda c: [c["sgd"]["k_max"]]),
    ("p", "number", "[1, inf)", 1.0),
    ("estimators", "enums", tuple(ESTIMATORS), ("coupled",)),
    ("bound", "object", None, {}),
    ("bound.k", "horizon", f"[0, {sys.float_info.max}]", "inf"),
    ("bound.rho_mode", "enum", ("exact", "monte_carlo"), "exact"),
    ("bound.rho_seed", "int", "[0, inf)", 0),
    ("bound.epsilon", "number", FINITE, 0.5),
    ("bound.eta_hat", "object", None, {}),
    ("bound.eta_hat.mode", "enum", ("corollary", "fixed"), "corollary"),
    ("bound.eta_hat.log_eta_hat", "number", FINITE, None),
    ("bound.eta_hat.M_grid", "numbers", FINITE, None),   # None: the default
    ("certificates", "list", None, ()),
    ("certificates[].kind", "enum", ("contraction", "drift", "kernel_gap",
                                     "minorization", "dominance"), REQUIRED),
    ("certificates[contraction].claimed_rate", "number", "(0, 1)", REQUIRED),
    ("certificates[contraction].k_max", "int", "[0, inf)", _K_MAX),
    ("certificates[contraction].R", "int", "[2, inf)", 64),
    ("certificates[contraction].theta0_a", "vector", FINITE, None),
    ("certificates[contraction].theta0_b", "vector", FINITE, None),
    ("certificates[drift].claimed_delta", "number", "(0, 1)", REQUIRED),
    ("certificates[drift].claimed_L", "number", FINITE, REQUIRED),
    ("certificates[drift,kernel_gap].lyapunov", "enum", LYAPUNOV_KINDS,
     LYAPUNOV_KINDS[0]),
    ("certificates[drift,kernel_gap].theta_grid", "grid", FINITE,
     lambda c: [[0.0] * c["dataset"]["d"]]),
    ("certificates[drift].mode", "enum", DRIFT_MODES, "exact"),
    ("certificates[drift].n_mc", "int", "[2, inf)", 2000),
    ("certificates[kernel_gap].claimed_gamma", "number", "[0, inf)", REQUIRED),
    ("certificates[kernel_gap].R", "int", "[2, inf)", 256),
    ("certificates[contraction,drift,kernel_gap].seed", "int", "[0, inf)",
     lambda c: c["sgd"]["master_seed"]),
    ("certificates[minorization].M", "number", "[0, inf)", REQUIRED),
    ("certificates[minorization].epsilon", "number", FINITE, 0.5),
    ("certificates[minorization].n_grid", "int", "[1, inf)", 9),
    ("certificates[dominance].estimator", "enum", tuple(ESTIMATORS),
     "coupled"),
    ("certificates[dominance].R", "int", "[1, inf)", lambda c: c["replicas"]),
    ("certificates[dominance].k", "int", "[0, sgd.k_max]", _K_MAX),
    ("certificates[dominance].margin_rule", "enum", MARGIN_RULES,
     MARGIN_RULES[0]),
    ("certificates[dominance].fixed_rel", "number", FINITE, 0.0),
)
# the entry type of each list type
_ENTRY = {"vector": "number", "ints": "int", "enums": "enum",
          "numbers": "number", "grid": "vector", "list": "object"}
_SECTIONS = {}    # section path: {key: row}; certificates[a,b] is a and b
for _row in FIELDS:
    _head, _, _key = _row[0].rpartition(".")
    for _section in ([f"certificates[{k}]" for k in _head[13:-1].split(",")]
                     if _head.startswith("certificates[") else [_head]):
        _SECTIONS.setdefault(_section, {})[_key] = _row


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def load_config(path) -> dict:
    """The config at ``path``, as given; the commands validate it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:    # also an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def validate_config(cfg: dict, bound: bool = False) -> dict:
    """A copy of ``cfg`` with every default filled in, checked against
    FIELDS and the cross-field rules; ConfigError names the field.
    ``bound``: the command evaluates the bound."""
    _check(isinstance(cfg, dict), "config must be an object")
    filled = _fill("", cfg, "config", None)
    _check_rules(filled, bound)
    return filled


def _fill(section: str, given: dict, where: str, root: dict | None) -> dict:
    """``given`` checked against the rows of ``section``, defaults filled in;
    ``root`` is the filled config so far (None: this is the root)."""
    rows = _SECTIONS[section]
    for key in given:
        if key not in rows:
            raise ConfigError(f"unknown field {where}.{key}")
    out = {}
    root = out if root is None else root
    for key, (path, kind, rng, default) in rows.items():
        field = f"{where}.{key}"
        if key in given and not (given[key] is None and default is None):
            value = _value(given[key], kind, rng, field, root)
        elif default is REQUIRED:
            raise ConfigError(f"missing field {field}")
        else:
            value = default(root) if callable(default) else default
        if kind == "object":
            value = _fill(path, value, field, root)
        elif kind == "list":
            value = [_certificate(spec, root) for spec in value]
        out[key] = value
    return out


def _certificate(spec: dict, root: dict) -> dict:
    head = {key: value for key, value in spec.items() if key == "kind"}
    kind = _fill("certificates[]", head, "certificate", root)["kind"]
    rest = {key: value for key, value in spec.items() if key != "kind"}
    return head | _fill(f"certificates[{kind}]", rest, "certificate", root)


def _value(value, kind: str, rng, field: str, root: dict):
    """``value`` checked against its type and range; numbers as floats."""
    if kind == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"{field} must be an object")
        return value
    if kind in _ENTRY:
        nonempty = kind in ("numbers", "grid")
        if not isinstance(value, list) or nonempty and not value:
            raise ConfigError(f"{field} must be a {'nonempty ' * nonempty}list")
        if kind == "vector" and len(value) != root["dataset"]["d"]:
            raise ConfigError(f"{field} must have d = "
                              f"{root['dataset']['d']} entries")
        return [_value(v, _ENTRY[kind], rng, f"{field}[{i}]", root)
                for i, v in enumerate(value)]
    if kind == "enum":
        if value not in rng:
            raise ConfigError(f"{field} {value!r}: one of {rng}")
        return value
    if kind == "horizon" and value in ("inf", None):
        return "inf"
    number = kind == "number"
    if isinstance(value, bool) or not isinstance(
            value, (int, float) if number else int):
        raise ConfigError(f"{field} must be "
                          f"{'a number' if number else 'an integer'}, "
                          f"got {value!r}")
    if number:
        try:
            value = float(value)
        except OverflowError:    # an integer beyond float range
            value = math.inf if value > 0 else -math.inf
    ends = _ends(rng)
    lo, hi = (reduce(getitem, end, root) if isinstance(end, tuple) else end
              for end in ends)
    if not ((lo < value if rng[0] == "(" else lo <= value)
            and (value < hi if rng[-1] == ")" else value <= hi)):
        for end, at in zip(ends, (lo, hi)):
            if isinstance(end, tuple):
                rng = rng.replace(".".join(end), f"{'.'.join(end)} = {at}")
        raise ConfigError(f"{field} must lie in {rng}, got {value!r}")
    return value


@lru_cache(maxsize=None)
def _ends(rng: str) -> tuple:
    """The ends of range "[lo, hi)": numbers, or the keys of a field."""
    return tuple(tuple(end.split(".")) if end[0].isalpha() and "." in end
                 else float(end) for end in rng[1:-1].split(", "))


def _check_rules(cfg: dict, bound: bool = False) -> None:
    """The cross-field rules; ``bound``: the command evaluates the bound."""
    name, d, noise = cfg["regime"], cfg["dataset"]["d"], cfg["noise"]
    regime, cap = bnd.REGIMES[name], transport.ASSIGNMENT_CAP
    _check(cfg["loss"]["family"] in regime.families, f"config.loss.family: "
           f"regime {name} requires the {' or '.join(regime.families)} loss")
    _check(regime.noise in (None, noise["kind"]),
           f"config.noise.kind: regime {name} requires {regime.noise} noise")
    _check(noise["kind"] == "none" or len(noise["scale"]) == d,
           f"config.noise.scale must have d = {d} entries")
    eta_hat = cfg["bound"]["eta_hat"]
    _check(eta_hat["mode"] != "fixed" or eta_hat["log_eta_hat"] is not None,
           "missing field config.bound.eta_hat.log_eta_hat")
    # what enumerates every minibatch; the bound only where it is evaluated
    bound = bound or any(s["kind"] == "dominance" for s in cfg["certificates"])
    enumerated = ["config.bound.rho_mode exact"] if bound and name == \
        "Quadratic" and cfg["bound"]["rho_mode"] == "exact" else []
    uses = [(est, cfg["replicas"], "config.estimators", "config.replicas")
            for est in cfg["estimators"]]
    for spec in cfg["certificates"]:
        kind = spec["kind"]
        if kind == "contraction":
            # its R x (k_max + 1) distance matrix of float64
            _check(spec["R"] * (spec["k_max"] + 1) * 8
                   <= np.iinfo(np.intp).max,
                   f"certificate.k_max (default: config.sgd.k_max) = "
                   f"{spec['k_max']}: an R = {spec['R']} x (k_max + 1) "
                   f"distance matrix is beyond numpy's addressable size")
        if kind == "drift" and spec["mode"] == "exact":
            _check(noise["kind"] == "none", "certificate.mode exact "
                   "enumerates the noiseless kernel; use monte_carlo with "
                   "noise")
            enumerated.append("certificate.mode exact")
        if kind == "minorization":
            enumerated.append("certificate.kind minorization")
            _check(noise["kind"] == "gaussian_diag" and max(noise["scale"])
                   < 1, "certificate.kind minorization needs gaussian_diag "
                   "noise with config.noise.scale entries < 1 (Sigma < I)")
            _check(d <= 2, f"certificate.kind minorization needs d <= 2, got "
                   f"d = {d}")
            _check(spec["n_grid"] >= 2 * d - 1, f"certificate.n_grid < "
                   f"{2 * d - 1} leaves the {d}-D grid empty")
        if kind == "dominance":
            p = cfg["loss"]["p"] if regime.p is None else regime.p
            _check(cfg["p"] == p, f"config.p must be {p} for a {name} "
                   "dominance")
            uses.append((spec["estimator"], spec["R"], "certificate.estimator",
                         "certificate.R (default: config.replicas)"))
    for est, replicas, where, replicas_field in uses:
        _check(est != "exact_1d" or d == 1, f"{where} exact_1d needs d = 1")
        _check(est != "assignment" or 2 <= replicas <= cap,
               f"{replicas_field} must lie in [2, {cap}] for the assignment "
               f"estimator")
    n, b = cfg["dataset"]["n"], cfg["sgd"]["batch_b"]
    _check(not enumerated or enumerable(n, b),
           f"{', '.join(dict.fromkeys(enumerated))}: C({n},{b}) minibatches "
           f"exceed the exact-enumeration cap {EXACT_ENUMERATION_CAP}")


def build_loss(cfg: dict) -> model.LossModel:
    return model.LossModel(**cfg["loss"])


def build_dataset(cfg: dict) -> model.Dataset:
    return model.make_synthetic_dataset(cfg["dataset"], cfg["dataset"]["seed"])


def build_pair(cfg: dict, dataset: model.Dataset) -> model.NeighborPair:
    return model.make_neighbor(dataset, cfg["neighbor"]["index"],
                               cfg["neighbor"]["seed"])


def build_sgd(cfg: dict) -> SGDConfig:
    return SGDConfig(**cfg["sgd"])


def build_experiment(cfg: dict) -> bnd.Experiment:
    """Everything a command needs from the filled ``cfg``, built once."""
    try:
        dataset = build_dataset(cfg)
        return bnd.Experiment(
            build_loss(cfg), dataset, build_pair(cfg, dataset),
            build_sgd(cfg), NoiseModel(**cfg["noise"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def evaluate_bound(cfg: dict, exp: bnd.Experiment = None) -> StabilityBound:
    """Evaluate the filled ``cfg``'s regime bound from first principles."""
    exp = exp or build_experiment(cfg)
    return bnd.REGIMES[cfg["regime"]].evaluate(exp, cfg["bound"])


def _stamp(given: dict) -> dict:
    """The keys that tie a written record to the config ``given``."""
    return {"schema_version": SCHEMA_VERSION,
            "stream_version": STREAM_VERSION, "config": given}


def _stamped(path: Path, given: dict):
    """The JSON record at ``path`` if a command wrote it for the config
    ``given`` under this schema and stream version, else None."""
    try:
        record = json.loads(path.read_text())
        stamped = {key: record[key] for key in _stamp(given)} == _stamp(given)
    except (OSError, ValueError, LookupError, TypeError):
        return None    # missing, unreadable, malformed or unstamped
    return record if stamped else None


def cmd_bounds(given: dict, out_dir) -> int:
    cfg = validate_config(given, bound=True)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        bound = evaluate_bound(cfg)
    except InadmissibleError as exc:
        print(f"inadmissible configuration: {exc}", file=sys.stderr)
        _write_json(out_dir / "bounds.json", _stamp(given) | {
            "regime": cfg["regime"], "admissible": False, "reason": str(exc)})
        return EXIT_INADMISSIBLE
    report = bound.as_dict() | _stamp(given) | {
        "n": cfg["dataset"]["n"], "b": cfg["sgd"]["batch_b"],
        "eta": cfg["sgd"]["eta"]}
    _write_json(out_dir / "bounds.json", report)
    line = f"{cfg['regime']} bound at k={report['k']}: {bound.value}"
    if math.isinf(bound.value) and math.isfinite(bound.log_value):
        line += f" (log_value {bound.log_value})"    # overflowed
    print(line)
    return EXIT_OK


def _estimate(est: str, p: float, A, B) -> transport.TransportEstimate:
    """The ``est`` estimate of W_p between coupled clouds A and B."""
    return getattr(transport, ESTIMATORS[est])(p, A, B)


def _estimates_rows(cfg: dict, ensemble):
    status = "partial_divergence" if ensemble.any_diverged() else "ok"
    for k in ensemble.checkpoints:
        A, B = ensemble.clouds_at(k)
        for est in cfg["estimators"]:
            res = _estimate(est, cfg["p"], A, B) if len(A) else None
            yield [k, est, cfg["p"], *(("", "", "diverged") if res is None
                   else (repr(res.value), repr(res.stderr), status))]


def cmd_simulate(given: dict, out_dir) -> int:
    cfg = validate_config(given)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    R, checkpoints = cfg["replicas"], cfg["checkpoints"]
    exp = build_experiment(cfg)
    start = time.perf_counter()
    ensemble = run_ensemble(exp.loss, exp.pair, exp.sgd, exp.noise, R,
                            checkpoints)
    elapsed = time.perf_counter() - start
    diverged = [r.diverged_at for r in ensemble.replicas if r.diverged]
    rows = list(_estimates_rows(cfg, ensemble))
    estimated = time.perf_counter() - start - elapsed
    # a run_summary.json beside a half-written estimates.csv would vouch
    # for it (see _simulated_estimate)
    (out_dir / "run_summary.json").unlink(missing_ok=True)
    with open(out_dir / "estimates.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([
            ["k", "estimator", "p", "value", "stderr", "status"], *rows])
    _write_json(out_dir / "run_summary.json", _stamp(given) | {
        "regime": cfg["regime"], "master_seed": cfg["sgd"]["master_seed"],
        "replicas": R, "checkpoints": checkpoints,
        "diverged_replicas": len(diverged)})
    print(f"simulated {R} replicas to k={exp.sgd.k_max} in {elapsed:.2f}s, "
          f"estimated in {estimated:.2f}s; {len(diverged)} diverged"
          + (f", the first at step {min(diverged)}" if diverged else ""))
    return EXIT_OK


def _simulated_estimate(given: dict, cfg: dict, spec: dict, out_dir: Path):
    """(estimate, diverged replicas) of the dominance ``spec`` as ``simulate``
    wrote them to ``out_dir``: the very numbers its own ensemble would give.
    None unless out_dir holds simulate's run of this config, the run has
    spec's R, k and estimator, and p = 1 (at p != 1 the certificate compares
    power_mean, which estimates.csv does not hold)."""
    if not (spec["R"] == cfg["replicas"] and spec["k"] in cfg["checkpoints"]
            and spec["estimator"] in cfg["estimators"] and cfg["p"] == 1.0):
        return None
    try:
        diverged = _stamped(out_dir / "run_summary.json",
                            given)["diverged_replicas"]
        if type(diverged) is not int or diverged < 0:
            return None
        if diverged:
            return None, diverged
        with open(out_dir / "estimates.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if (row["k"], row["estimator"], row["status"]) == (
                        str(spec["k"]), spec["estimator"], "ok"):
                    value = float(row["value"])
                    return transport.TransportEstimate(
                        value, 1.0, spec["estimator"], spec["R"],
                        float(row["stderr"]), value), 0
    except (OSError, ValueError, LookupError, TypeError):
        pass    # unreadable or malformed: the ensemble is run again
    return None


def _dominance_bound(given: dict, cfg: dict, exp: bnd.Experiment,
                     out_dir: Path) -> tuple:
    """(The bound, where it came from): the one ``bounds`` wrote to
    ``out_dir`` for this config if it is admissible, else evaluated.
    bounds.json writes inf and NaN alike as null: a null beside a finite
    ``log_value`` whose exp overflows is +inf, the one pair that
    ``bounds._perturbation_bound`` writes, and any other null is evaluated."""
    rep = _stamped(out_dir / "bounds.json", given) or {}
    value, used = rep.get("value"), rep.get("constants_used")
    k, log_value = rep.get("k"), rep.get("log_value")
    if value is None and type(log_value) is float and log_value < math.inf:
        try:
            math.exp(log_value)
        except OverflowError:
            value = math.inf
    if rep.get("admissible") is True and rep.get("regime") == cfg["regime"] \
            and type(value) is float and not math.isnan(value) \
            and type(used) is dict:
        return StabilityBound(
            cfg["regime"], value, math.inf if k == "inf" else k, used,
            -math.inf if log_value is None else log_value), "from bounds.json"
    return evaluate_bound(cfg, exp), "evaluated"


def _run_certificate(given: dict, cfg: dict, exp: bnd.Experiment,
                     spec: dict, out_dir: Path, bound) -> tuple:
    """``spec``'s certificate and what stdout adds to its line: where a
    dominance certificate's estimate and bound came from, a contraction
    certificate's ``note``, "" for the other kinds; ``bound()`` gives the
    (bound, its source)."""
    sgd, kind = exp.sgd, spec["kind"]
    args = {key: value for key, value in spec.items() if key != "kind"}
    if kind == "contraction":
        cert = verify.check_contraction(exp.loss, exp.dataset, sgd.eta,
                                        sgd.batch_b, noise=exp.noise, **args)
        return cert, cert.note
    if kind == "drift":
        return verify.check_drift(exp.loss, exp.pair.perturbed, sgd.eta,
                                  sgd.batch_b, noise=exp.noise, **args), ""
    if kind == "kernel_gap":
        return verify.check_kernel_gap(exp.loss, exp.pair, sgd.eta,
                                       sgd.batch_b, **args), ""
    if kind == "minorization":
        return verify.check_minorization_gaussian(
            exp.loss, exp.dataset, sgd.eta, sgd.batch_b,
            np.array(exp.noise.scale) ** 2, exp.constants.m, exp.K0,
            K1=exp.constants.K1, **args), ""
    bound, bound_source = bound()
    reused = _simulated_estimate(given, cfg, spec, out_dir)
    if reused is not None:
        (emp, diverged), source = reused, "simulate's estimates.csv"
    else:
        ensemble = run_ensemble(exp.loss, exp.pair, sgd, exp.noise,
                                spec["R"], [spec["k"]])
        diverged = sum(r.diverged for r in ensemble.replicas)
        emp = None if diverged else _estimate(
            spec["estimator"], cfg["p"], *ensemble.clouds_at(spec["k"]))
        source = f"its own {spec['R']}-replica run"
    return verify.check_bound_dominates(
        emp, bound, margin_rule=spec["margin_rule"],
        fixed_rel=spec["fixed_rel"], diverged_replicas=diverged,
        k=spec["k"]), f", bound {bound_source}, estimate from {source}"


def cmd_verify(given: dict, out_dir) -> int:
    cfg = validate_config(given)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check(cfg["certificates"],
           "nothing to verify: config.certificates is empty")
    exp = build_experiment(cfg)
    # for the first dominance certificate, then kept
    bound = cache(lambda: _dominance_bound(given, cfg, exp, out_dir))
    certs = []
    for spec in cfg["certificates"]:
        start = time.perf_counter()
        cert, source = _run_certificate(given, cfg, exp, spec, out_dir, bound)
        print(f"{'PASS' if cert.passed else 'FAIL'} {cert.kind}: margin "
              f"{cert.margin:.6g} ({time.perf_counter() - start:.2f} s"
              f"{source})")
        certs.append(cert)
    verify.write_certificates_jsonl(certs, out_dir / "certificates.jsonl")
    return EXIT_OK if all(c.passed for c in certs) else EXIT_CERT_FAILURE


def cmd_report(in_dir) -> int:
    in_dir = Path(in_dir)
    lines = ["# stabilab report", ""]
    if (in_dir / "bounds.json").exists():
        rep = json.loads((in_dir / "bounds.json").read_text())
        value = rep.get("value")
        if value is None and rep.get("log_value") is not None:
            value = f"exp({rep['log_value']})"    # overflowed to null
        lines += _table("Theoretical bound", [
            ("regime", "k", "value", "admissible"),
            (rep.get("regime"), rep.get("k"), value, rep.get("admissible"))])
    if (in_dir / "estimates.csv").exists():
        with open(in_dir / "estimates.csv") as fh:
            lines += _table("Empirical estimates", list(csv.reader(fh)))
    if (in_dir / "certificates.jsonl").exists():
        with open(in_dir / "certificates.jsonl") as fh:
            certs = [json.loads(line) for line in fh]
        keys = (*verify.WORST_KEYS, "diverged_replicas")
        lines += _table("Certificates", [("kind", "passed", "margin", *keys)]
                        + [(c["kind"], c["passed"], c["margin"],
                            *(c["details"].get(key, "") for key in keys))
                           for c in certs])
    if len(lines) <= 2:
        print(f"no stabilab outputs found in {in_dir}")
        return EXIT_USAGE
    (in_dir / "report.md").write_text("\n".join(lines))
    print(f"wrote {in_dir / 'report.md'}")
    return EXIT_OK


def _table(title: str, rows: list) -> list:
    """A markdown section: ``title``, then a table headed by rows[0]."""
    cells = ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return [f"## {title}", "", cells[0], "|" + " --- |" * len(rows[0]),
            *cells[1:], ""]


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(verify.finite_or_null(payload), fh, indent=2,
                  sort_keys=True, allow_nan=False)
        fh.write("\n")
