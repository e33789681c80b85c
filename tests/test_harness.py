import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab import cli, harness, verify
from stabilab.dynamics import NoiseModel, run_ensemble
from stabilab.harness import (EXIT_CERT_FAILURE, EXIT_INADMISSIBLE, EXIT_OK,
                              ConfigError, cmd_bounds, cmd_report,
                              cmd_simulate, cmd_verify, evaluate_bound,
                              load_config, validate_config)


def quadratic_config(**overrides):
    cfg = {
        "schema_version": 1,
        "regime": "Quadratic",
        "loss": {"family": "Quadratic"},
        "dataset": {"n": 10, "d": 1, "generator": "unit_fixed", "seed": 0},
        "sgd": {"eta": 0.1, "batch_b": 1, "k_max": 100, "theta0": [0.0],
                "master_seed": 42},
        "bound": {"k": "inf"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = quadratic_config()
        assert load_config(write_config(tmp_path, cfg)) == cfg

    def test_missing_field_named(self):
        cfg = quadratic_config()
        del cfg["sgd"]["eta"]
        with pytest.raises(ConfigError, match="config.sgd.eta"):
            validate_config(cfg)

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config(quadratic_config(schema_version=99))

    def test_bad_regime(self):
        with pytest.raises(ConfigError, match="regime"):
            validate_config(quadratic_config(regime="Magic"))

    def test_regime_loss_compatibility(self):
        cfg = quadratic_config(regime="StronglyConvex")
        with pytest.raises(ConfigError, match="RidgeQuadratic"):
            validate_config(cfg)

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)


class TestBoundsCommand:
    def test_worked_quadratic_value(self, tmp_path):
        rc = cmd_bounds(quadratic_config(), tmp_path)
        assert rc == EXIT_OK
        rep = json.loads((tmp_path / "bounds.json").read_text())
        assert rep["regime"] == "Quadratic"
        assert rep["k"] == "inf"
        assert rep["value"] == pytest.approx(0.8, rel=1e-12)
        assert rep["admissible"] is True

    def test_k_zero(self, tmp_path):
        cfg = quadratic_config(bound={"k": 0})
        cmd_bounds(cfg, tmp_path)
        rep = json.loads((tmp_path / "bounds.json").read_text())
        assert rep["value"] == 0.0

    def test_inadmissible_exits_2(self, tmp_path):
        cfg = quadratic_config()
        cfg["sgd"]["eta"] = 2.5   # rho = 1.5 >= 1 on unit data
        rc = cmd_bounds(cfg, tmp_path)
        assert rc == EXIT_INADMISSIBLE
        rep = json.loads((tmp_path / "bounds.json").read_text())
        assert rep["admissible"] is False
        assert "rho" in rep["reason"]

    def test_evaluate_bound_matches_direct(self):
        sb = evaluate_bound(validate_config(quadratic_config()))
        assert sb.value == pytest.approx(0.8, rel=1e-12)

    def test_overflowed_bound_prints_its_log_value(self, tmp_path, capsys):
        # deep-noisy's bound overflows; stdout names log_value, and
        # bounds.json stays the stored one
        golden = Path(__file__).parent / "golden" / "deep-noisy"
        cfg = json.loads((golden / "config.json").read_text())
        assert cmd_bounds(cfg, tmp_path) == EXIT_OK
        rep = json.loads((tmp_path / "bounds.json").read_text())
        assert capsys.readouterr().out == (
            f"NonconvexNoisy bound at k=inf: inf "
            f"(log_value {rep['log_value']})\n")
        assert round(rep["log_value"], 1) == 1525.2
        assert ((tmp_path / "bounds.json").read_bytes()
                == (golden / "bounds.json").read_bytes())

    def test_finite_bound_prints_its_value_alone(self, tmp_path, capsys):
        assert cmd_bounds(quadratic_config(), tmp_path) == EXIT_OK
        rep = json.loads((tmp_path / "bounds.json").read_text())
        assert capsys.readouterr().out == (
            f"Quadratic bound at k=inf: {rep['value']}\n")


class TestSimulateCommand:
    CFG = dict(replicas=8, checkpoints=[50, 100],
               estimators=["coupled", "exact_1d"])

    def test_outputs_and_golden_header(self, tmp_path):
        cfg = quadratic_config(**self.CFG)
        assert cmd_simulate(cfg, tmp_path) == EXIT_OK
        lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert lines[0] == "k,estimator,p,value,stderr,status"
        assert len(lines) == 1 + 2 * 2   # two checkpoints x two estimators
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["stream_version"] == 3
        assert summary["replicas"] == 8
        assert summary["diverged_replicas"] == 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = quadratic_config(**self.CFG)
        cmd_simulate(cfg, tmp_path / "a")
        cmd_simulate(cfg, tmp_path / "b")
        for name in ("estimates.csv", "run_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_stdout_names_diverged_replicas(self, tmp_path, capsys):
        # eta = 10 on b = 1 multiplies theta - y_i/a_i by 1 - 10 a_i^2 per
        # step, so replicas leave the guard at different steps
        cfg = quadratic_config(replicas=16, checkpoints=[5, 100])
        cfg["dataset"].update(generator="gaussian_clipped")
        cfg["sgd"]["eta"] = 10.0
        exp = harness.build_experiment(validate_config(cfg))
        ens = run_ensemble(exp.loss, exp.pair, exp.sgd, exp.noise, 16,
                           [5, 100])
        steps = [r.diverged_at for r in ens.replicas if r.diverged]
        assert 1 < len(steps) and len(set(steps)) > 1
        assert cmd_simulate(cfg, tmp_path / "a") == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.endswith(f"; {len(steps)} diverged, the first at step "
                             f"{min(steps)}")
        cmd_simulate(cfg, tmp_path / "b")
        summary = json.loads((tmp_path / "a" / "run_summary.json").read_text())
        assert summary["diverged_replicas"] == len(steps)
        assert set(summary) == {"schema_version", "stream_version", "regime",
                                "master_seed", "replicas", "checkpoints",
                                "diverged_replicas", "config"}
        for name in ("estimates.csv", "run_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_stdout_without_divergence(self, tmp_path, capsys):
        assert cmd_simulate(quadratic_config(**self.CFG), tmp_path) == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line.endswith("s; 0 diverged")
        # the ensemble's time and the estimators' time
        assert re.search(r" in \d+\.\d\ds, estimated in \d+\.\d\ds;", line)

    def test_assignment_needs_two_replicas(self):
        cfg = quadratic_config(replicas=1, estimators=["assignment"])
        with pytest.raises(ConfigError, match="assignment"):
            validate_config(cfg)


class TestVerifyCommand:
    def test_passing_suite_exits_0(self, tmp_path):
        cfg = quadratic_config(certificates=[
            {"kind": "contraction", "claimed_rate": 0.9, "k_max": 20,
             "R": 8},
            {"kind": "dominance", "R": 32, "k": 100},
        ])
        assert cmd_verify(cfg, tmp_path) == EXIT_OK
        lines = (tmp_path / "certificates.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(ln)["passed"] for ln in lines)

    def test_failing_certificate_exits_3(self, tmp_path):
        cfg = quadratic_config(certificates=[
            {"kind": "contraction", "claimed_rate": 0.5, "k_max": 20,
             "R": 8}])
        assert cmd_verify(cfg, tmp_path) == EXIT_CERT_FAILURE
        rec = json.loads(
            (tmp_path / "certificates.jsonl").read_text().splitlines()[0])
        assert rec["passed"] is False

    def test_empty_suite_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="nothing to verify"):
            cmd_verify(quadratic_config(), tmp_path)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = quadratic_config(certificates=[
            {"kind": "contraction", "claimed_rate": 0.9, "k_max": 20,
             "R": 8}])
        cmd_verify(cfg, tmp_path / "a")
        cmd_verify(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "certificates.jsonl").read_bytes() == \
            (tmp_path / "b" / "certificates.jsonl").read_bytes()

    def test_prints_each_certificate_time(self, tmp_path, capsys):
        cfg = quadratic_config(certificates=[
            {"kind": "contraction", "claimed_rate": 0.9, "k_max": 20,
             "R": 8}])
        cmd_verify(cfg, tmp_path)
        assert re.fullmatch(
            r"PASS contraction: margin \S+ \(\d+\.\d\d s, 20 of 20 steps\)\n",
            capsys.readouterr().out)
        assert " s)" not in (tmp_path / "certificates.jsonl").read_text()

    def test_drift_certificate_sees_the_noise(self, tmp_path):
        noise = {"kind": "gaussian_diag", "scale": [0.5]}
        spec = {"kind": "drift", "mode": "monte_carlo", "n_mc": 200,
                "claimed_delta": 0.95, "claimed_L": 1.0,
                "theta_grid": [[0.0], [2.0]]}
        cfg = quadratic_config(noise=noise, certificates=[spec])
        assert cmd_verify(cfg, tmp_path) == EXIT_OK
        rec = json.loads((tmp_path / "certificates.jsonl").read_text())
        filled = validate_config(cfg)
        pair = harness.build_pair(filled, harness.build_dataset(filled))
        args = (harness.build_loss(filled), pair.perturbed, 0.1, 1,
                "one_plus_norm", 0.95, 1.0, [[0.0], [2.0]])
        noisy = verify.check_drift(*args, mode="monte_carlo", n_mc=200,
                                   seed=42, noise=NoiseModel("gaussian_diag",
                                                             (0.5,)))
        plain = verify.check_drift(*args, mode="monte_carlo", n_mc=200,
                                   seed=42)
        assert rec["margin"] == noisy.margin != plain.margin

    def test_exact_drift_with_noise_is_config_error(self, tmp_path, capsys):
        cfg = quadratic_config(
            noise={"kind": "gaussian_diag", "scale": [0.5]},
            certificates=[{"kind": "drift", "claimed_delta": 0.9,
                           "claimed_L": 1.0}])
        path = write_config(tmp_path, cfg)
        assert cli.main(["verify", "--config", str(path),
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: certificate.mode")
        assert err.count("\n") == 1


    def test_dominance_uses_the_configured_estimator(self, tmp_path):
        cfg = quadratic_config(certificates=[
            {"kind": "dominance", "R": 16, "k": 100,
             "estimator": "exact_1d"}])
        assert cmd_verify(cfg, tmp_path) == EXIT_OK
        rec = json.loads((tmp_path / "certificates.jsonl").read_text())
        assert rec["details"]["estimator"] == "exact_1d"

    def test_diverged_replicas_fail_dominance(self, tmp_path):
        # every replica leaves the divergence guard at k = 0; a mean over
        # the survivors would not bound the full-law distance
        cfg = quadratic_config(certificates=[{"kind": "dominance", "R": 8}])
        cfg["sgd"]["theta0"] = [2e12]
        assert cmd_verify(cfg, tmp_path) == EXIT_CERT_FAILURE
        rec = json.loads((tmp_path / "certificates.jsonl").read_text())
        assert rec["passed"] is False
        assert rec["details"]["diverged_replicas"] == 8
        assert rec["margin"] == 0.0

    def test_one_experiment_build_per_command(self, tmp_path, monkeypatch):
        builds = []
        build = harness.build_dataset
        monkeypatch.setattr(harness, "build_dataset",
                            lambda cfg: builds.append(1) or build(cfg))
        cfg = quadratic_config(replicas=4, certificates=[
            {"kind": "contraction", "claimed_rate": 0.9, "k_max": 10,
             "R": 4},
            {"kind": "drift", "claimed_delta": 0.95, "claimed_L": 1.0},
            {"kind": "kernel_gap", "claimed_gamma": 1.0, "R": 8},
            {"kind": "dominance", "R": 8}])
        for command in (cmd_bounds, cmd_simulate, cmd_verify):
            builds.clear()
            command(cfg, tmp_path)
            assert len(builds) == 1, command.__name__


SINE = {"family": "RegularizedSine", "m0": 2.0, "s": 0.01}


def _minorization_grid(cfg, n_grid):
    cfg.update(regime="NonconvexNoisy", loss=dict(SINE),
               noise={"kind": "gaussian_diag", "scale": [0.7, 0.7]},
               certificates=[{"kind": "minorization", "M": 1.0,
                              "n_grid": n_grid}])
    cfg["dataset"].update(d=2, generator="gaussian_clipped", radius_D=0.1)
    cfg["sgd"]["theta0"] = [0.0, 0.0]


def _noise_scale_short(cfg):
    cfg["dataset"]["d"] = 2
    cfg["sgd"]["theta0"] = [0.0, 0.0]
    cfg["noise"] = {"kind": "gaussian_diag", "scale": [0.5]}


def _minorization_3d(cfg):
    _minorization_grid(cfg, 9)
    cfg["dataset"]["d"] = 3
    cfg["sgd"]["theta0"] = [0.0] * 3
    cfg["noise"]["scale"] = [0.7] * 3


def _drift_grid_short(cfg):
    cfg["dataset"]["d"] = 2
    cfg["sgd"]["theta0"] = [0.0, 0.0]
    cfg["certificates"] = [{"kind": "drift", "claimed_delta": 0.9,
                            "claimed_L": 1.0,
                            "theta_grid": [[0.0, 0.0], [1.0]]}]


def _certificate(**spec):
    return lambda c: c.update(certificates=[spec])


def _contraction(**fields):
    return lambda c: c["certificates"][0].update(fields)


def _bound(**fields):
    return lambda c: c["bound"].update(fields)


def _over_cap(cfg):
    cfg["dataset"].update(n=40, generator="gaussian_clipped")
    cfg["sgd"]["batch_b"] = 20


# (mutation of the worked config, the field its error must name)
CONFIG_ERRORS = {
    "family": (lambda c: c.update(loss=dict(SINE)), "config.loss.family"),
    "noise": (lambda c: c.update(regime="NonconvexNoisy", loss=dict(SINE)),
              "config.noise.kind"),
    "loss-key": (lambda c: c["loss"].update(mu_0=1.0), "mu_0"),
    "mu0": (lambda c: c.update(regime="StronglyConvex",
                               loss={"family": "RidgeQuadratic"}), "mu0"),
    "generator": (lambda c: c["dataset"].update(generator="nope"),
                  "generator"),
    "batch-b": (lambda c: c["sgd"].update(batch_b=11), "config.sgd.batch_b"),
    "theta0": (lambda c: c["sgd"].update(theta0=[0.0, 0.0]),
               "config.sgd.theta0"),
    "checkpoint": (lambda c: c.update(checkpoints=[50, 101]),
                   "config.checkpoints"),
    "estimator": (lambda c: c.update(certificates=[
        {"kind": "dominance", "R": 4, "estimator": "exact1d"}]),
        "certificate.estimator"),
    "n-mc": (lambda c: c.update(certificates=[
        {"kind": "drift", "mode": "monte_carlo", "n_mc": 1,
         "claimed_delta": 0.9, "claimed_L": 1.0}]), "certificate.n_mc"),
    "n-grid": (lambda c: _minorization_grid(c, 2), "certificate.n_grid"),
    "dominance-p": (lambda c: c.update(p=2.0, certificates=[
        {"kind": "dominance", "R": 4}]), "config.p"),
    "noise-key": (lambda c: c.update(noise={"kind": "gaussian_diag",
                                            "sigma": [0.5]}), "sigma"),
    "p-zero": (lambda c: c.update(p=0), "config.p"),
    "p-negative": (lambda c: c.update(p=-1), "config.p"),
    "p-string": (lambda c: c.update(p="x"), "config.p"),
    "scale-long": (lambda c: c.update(noise={"kind": "gaussian_diag",
                                             "scale": [0.5, 0.5]}),
                   "config.noise.scale"),
    "scale-short": (_noise_scale_short, "config.noise.scale"),
    "batch-b-string": (lambda c: c["sgd"].update(batch_b="x"),
                       "config.sgd.batch_b"),
    "n-string": (lambda c: c["dataset"].update(n="x"), "config.dataset.n"),
    "d-string": (lambda c: c["dataset"].update(d="x"), "config.dataset.d"),
    "k-max-string": (lambda c: c["sgd"].update(k_max="x"),
                     "config.sgd.k_max"),
    "eta-string": (lambda c: c["sgd"].update(eta="abc"), "config.sgd.eta"),
    "n-mc-string": (lambda c: c.update(certificates=[
        {"kind": "drift", "mode": "monte_carlo", "n_mc": "x",
         "claimed_delta": 0.9, "claimed_L": 1.0}]), "certificate.n_mc"),
    "k-string": (lambda c: c.update(certificates=[
        {"kind": "dominance", "R": 4, "k": "x"}]), "certificate.k"),
    "replicas-zero": (lambda c: c.update(replicas=0), "config.replicas"),
    "master-seed-negative": (lambda c: c["sgd"].update(master_seed=-1),
                             "config.sgd.master_seed"),
    "dataset-seed-negative": (lambda c: c["dataset"].update(seed=-3),
                              "config.dataset.seed"),
    "kind-unknown": (lambda c: c["certificates"].append({"kind": "bogus"}),
                     "certificate.kind"),
    "kind-missing": (_certificate(claimed_rate=0.9), "certificate.kind"),
    "claimed-rate-range": (_contraction(claimed_rate=1.5),
                           "certificate.claimed_rate"),
    "claimed-rate-missing": (_certificate(kind="contraction"),
                             "certificate.claimed_rate"),
    "claimed-delta-string": (_certificate(kind="drift", claimed_delta="x",
                                          claimed_L=1.0),
                             "certificate.claimed_delta"),
    "claimed-delta-range": (_certificate(kind="drift", claimed_delta=0.0,
                                         claimed_L=1.0),
                            "certificate.claimed_delta"),
    "claimed-L-missing": (_certificate(kind="drift", claimed_delta=0.9),
                          "certificate.claimed_L"),
    "claimed-gamma-negative": (_certificate(kind="kernel_gap",
                                            claimed_gamma=-0.1),
                               "certificate.claimed_gamma"),
    "R-string": (_contraction(R="x"), "certificate.R"),
    "R-zero": (_contraction(R=0), "certificate.R"),
    # one replica has no standard error for the three-sigma margin
    "R-one": (_contraction(R=1), "certificate.R"),
    "kernel-gap-R-one": (_certificate(kind="kernel_gap", claimed_gamma=1.0,
                                      R=1), "certificate.R"),
    "k-max-negative": (_contraction(k_max=-1), "certificate.k_max"),
    # beyond the 2^62 steps a run may take
    "k-max-unaddressable": (_contraction(k_max=10 ** 20),
                            "certificate.k_max"),
    "sgd-k-max-huge": (lambda c: c["sgd"].update(k_max=10 ** 20),
                       "config.sgd.k_max"),
    "seed-negative": (_contraction(seed=-1), "certificate.seed"),
    "theta0-a-length": (_contraction(theta0_a=[1.0, 1.0]),
                        "certificate.theta0_a"),
    "lyapunov": (_certificate(kind="drift", claimed_delta=0.9, claimed_L=1.0,
                              lyapunov="nope"), "certificate.lyapunov"),
    "drift-mode": (_certificate(kind="drift", claimed_delta=0.9,
                                claimed_L=1.0, mode="mc"), "certificate.mode"),
    "theta-grid-entry": (_drift_grid_short, "certificate.theta_grid"),
    "theta-grid-empty": (_certificate(kind="kernel_gap", claimed_gamma=1.0,
                                      theta_grid=[]),
                         "certificate.theta_grid"),
    "margin-rule": (_certificate(kind="dominance", R=4,
                                 estimator="assignment", margin_rule="x"),
                    "certificate.margin_rule"),
    "minorization-3d": (_minorization_3d, "certificate.kind"),
    "minorization-sigma": (lambda c: (_minorization_grid(c, 9),
                                      c["noise"].update(scale=[1.0, 0.5])),
                           "config.noise.scale"),
    "bound-k-string": (_bound(k="x"), "config.bound.k"),
    "bound-k-negative": (_bound(k=-5), "config.bound.k"),
    "bound-k-fraction": (_bound(k=2.5), "config.bound.k"),
    # an integer no float holds, which the bound's log-space needs
    "bound-k-huge": (_bound(k=10 ** 400), "config.bound.k"),
    "bound-k-huge-dominance": (lambda c: (_bound(k=10 ** 400)(c),
                                          c["certificates"].append(
                                              {"kind": "dominance", "R": 4})),
                               "config.bound.k"),
    "rho-mode": (_bound(rho_mode="x"), "config.bound.rho_mode"),
    "rho-seed": (_bound(rho_seed="x"), "config.bound.rho_seed"),
    "bound-list": (lambda c: c.update(bound=[1]), "config.bound"),
    "noise-list": (lambda c: c.update(noise=[1]), "config.noise"),
    "epsilon": (_bound(epsilon="x"), "config.bound.epsilon"),
    "eta-hat-list": (_bound(eta_hat=[1]), "config.bound.eta_hat"),
    "eta-hat-mode": (_bound(eta_hat={"mode": "x"}),
                     "config.bound.eta_hat.mode"),
    "eta-hat-fixed": (_bound(eta_hat={"mode": "fixed"}),
                      "config.bound.eta_hat.log_eta_hat"),
    "M-grid-string": (_bound(eta_hat={"M_grid": "x"}),
                      "config.bound.eta_hat.M_grid"),
    "M-grid-empty": (_bound(eta_hat={"M_grid": []}),
                     "config.bound.eta_hat.M_grid"),
    "M-grid-entry": (_bound(eta_hat={"M_grid": [1.0, "x"]}),
                     "config.bound.eta_hat.M_grid"),
    "eta-nan": (lambda c: c["sgd"].update(eta=math.nan), "config.sgd.eta"),
    "eta-negative": (lambda c: c["sgd"].update(eta=-0.1), "config.sgd.eta"),
    "neighbor-list": (lambda c: c.update(neighbor=[1]), "config.neighbor"),
    "neighbor-index-string": (lambda c: c.update(neighbor={"index": "x"}),
                              "config.neighbor.index"),
    "neighbor-index-range": (lambda c: c.update(neighbor={"index": 99}),
                             "config.neighbor.index"),
    "neighbor-seed-negative": (lambda c: c.update(neighbor={"seed": -1}),
                               "config.neighbor.seed"),
    "radius-D-string": (lambda c: c["dataset"].update(radius_D="x"),
                        "config.dataset.radius_D"),
    "radius-D-zero": (lambda c: c["dataset"].update(radius_D=0.0),
                      "config.dataset.radius_D"),
    "label-range-string": (lambda c: c["dataset"].update(label_range="x"),
                           "config.dataset.label_range"),
    "n-zero": (lambda c: c["dataset"].update(n=0), "config.dataset.n"),
    "loss-param-string": (lambda c: c["loss"].update(m0="x"),
                          "config.loss.m0"),
    # strings that hold the section's key names, so `key in section` holds
    "loss-string": (lambda c: c.update(loss="family"), "config.loss"),
    "dataset-string": (lambda c: c.update(dataset="n d generator seed"),
                       "config.dataset"),
    "sgd-string": (lambda c: c.update(sgd="eta batch_b k_max theta0 "
                                          "master_seed"), "config.sgd"),
    # the assignment estimator matches 2 to ASSIGNMENT_CAP replicas
    "assignment-one-replica": (
        lambda c: c.update(replicas=1, estimators=["assignment"]),
        "config.replicas"),
    "assignment-over-cap": (
        lambda c: c.update(replicas=1025, estimators=["assignment"]),
        "config.replicas"),
    "dominance-assignment-R": (
        lambda c: c["certificates"].append(
            {"kind": "dominance", "estimator": "assignment", "R": 2000}),
        "certificate.R"),
    "dominance-assignment-replicas": (
        lambda c: c.update(replicas=1, certificates=[
            {"kind": "dominance", "estimator": "assignment"}]),
        "config.replicas"),
    # a misspelled key is named, not ignored in favour of the default
    "replica": (lambda c: c.update(replica=1024),
                "unknown field config.replica"),
    "n-grd": (lambda c: (_minorization_grid(c, 9),
                         c["certificates"][0].update(n_grd=5)),
              "unknown field certificate.n_grd"),
    "eta-hat-M": (_bound(eta_hat={"M": 1.0}),
                  "unknown field config.bound.eta_hat.M"),
    # C(40, 20) = 137846528820 minibatches, above the enumeration cap; a
    # dominance certificate evaluates the bound in every command's config
    "rho-mode-cap": (lambda c: (_over_cap(c), c["certificates"].append(
        {"kind": "dominance", "R": 4})), "config.bound.rho_mode exact"),
    "drift-cap": (lambda c: (_over_cap(c), _certificate(
        kind="drift", claimed_delta=0.9, claimed_L=1.0)(c)),
                  "certificate.mode"),
    "minorization-cap": (lambda c: (_minorization_grid(c, 9), _over_cap(c)),
                         "certificate.kind minorization"),
    # ScalarPower p = 1.5 fixes a SubConvexStationary dominance's order
    "dominance-p-subconvex": (lambda c: c.update(
        regime="SubConvexStationary",
        loss={"family": "ScalarPower", "p": 1.5, "mu": 1.0},
        dataset={"n": 10, "d": 1, "generator": "gaussian_clipped",
                 "seed": 0},
        certificates=[{"kind": "dominance", "R": 4}]), "config.p"),
}


@pytest.mark.parametrize("command", ["bounds", "simulate", "verify"])
@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_error_is_one_line_naming_the_field(tmp_path, capsys, case,
                                                   command):
    mutate, field = CONFIG_ERRORS[case]
    cfg = quadratic_config(replicas=4, certificates=[
        {"kind": "contraction", "claimed_rate": 0.9, "k_max": 10, "R": 4}])
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("config error: ")
    assert field in out.err
    assert out.err.count("\n") == 1
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("command,code", [("bounds", 1), ("simulate", 0),
                                          ("verify", 0)])
def test_rho_mode_cap_only_where_the_bound_is_evaluated(tmp_path, capsys,
                                                        command, code):
    # simulate never evaluates the bound, nor does verify without a
    # dominance certificate
    cfg = quadratic_config(replicas=4, certificates=[
        {"kind": "contraction", "claimed_rate": 0.99, "k_max": 10, "R": 4}])
    _over_cap(cfg)
    assert cli.main([command, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "config error: config.bound.rho_mode"
                   " exact: C(40,20) minibatches exceed the exact-enumeration"
                   " cap 20000\n")


def test_enumeration_cap_check_is_cheap():
    # math.comb(10 ** 6, 5 * 10 ** 5) alone takes about 12 s
    cfg = quadratic_config(certificates=[{"kind": "dominance"}])
    cfg["dataset"].update(n=10 ** 6, generator="gaussian_clipped")
    cfg["sgd"]["batch_b"] = 5 * 10 ** 5
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="config.bound.rho_mode exact"):
        validate_config(cfg)
    assert time.perf_counter() - start < 1.0


def test_certificate_specs_checked_before_any_runs(tmp_path, capsys):
    cfg = quadratic_config(certificates=[
        {"kind": "contraction", "claimed_rate": 0.9, "k_max": 10, "R": 4},
        {"kind": "bogus"}])
    assert cli.main(["verify", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out == ""


# a small valid config with every section and one certificate of each kind,
# so that each row of harness.FIELDS has a field to mutate
FUZZ_BASE = {
    "schema_version": 1, "regime": "NonconvexNoisy",
    "loss": {"family": "RegularizedSine", "m0": 2.0, "s": 0.01},
    "dataset": {"n": 6, "d": 1, "generator": "gaussian_clipped",
                "radius_D": 0.1, "label_range": 0.05, "seed": 0},
    "neighbor": {"index": 0, "seed": 1},
    "sgd": {"eta": 0.2, "batch_b": 2, "k_max": 5, "theta0": [0.0],
            "master_seed": 3},
    "noise": {"kind": "gaussian_diag", "scale": [0.7]},
    "replicas": 2, "checkpoints": [5], "p": 1.0,
    "estimators": ["coupled", "assignment", "exact_1d"],
    "bound": {"k": 5, "rho_mode": "exact", "rho_seed": 0, "epsilon": 0.5,
              "eta_hat": {"mode": "corollary", "M_grid": [1.0]}},
    "certificates": [
        {"kind": "contraction", "claimed_rate": 0.9, "k_max": 3, "R": 2},
        {"kind": "drift", "mode": "monte_carlo", "n_mc": 4,
         "claimed_delta": 0.9, "claimed_L": 1.0, "theta_grid": [[0.0]]},
        {"kind": "kernel_gap", "claimed_gamma": 1.0, "R": 4},
        {"kind": "minorization", "M": 1.0, "n_grid": 3},
        {"kind": "dominance", "R": 2, "k": 5}],
}
RETYPED = ["x", None, True, [], {}, 0.5, [0.5]]


def _holder(cfg, path):
    """The dict of ``cfg`` that holds the field at table path ``path``."""
    section, _, key = path.rpartition(".")
    if section.startswith("certificates["):
        kind = section[len("certificates["):-1]
        return next(s for s in cfg["certificates"]
                    if not kind or s["kind"] in kind.split(",")), key
    holder = cfg
    for part in filter(None, section.split(".")):
        holder = holder[part]
    return holder, key


def _out_of_range(row, cfg):
    """Values just outside the range of table row ``row``."""
    path, kind, rng, _ = row
    if not isinstance(rng, str):
        return ["bogus"]    # an enum, object or list
    lo, hi = rng[1:-1].split(", ")
    bad = [math.nan]
    for end, is_open, step in ((lo, rng[0] == "(", -1),
                               (hi, rng[-1] == ")", 1)):
        try:
            value = float(end)
        except ValueError:
            holder, key = _holder(cfg, end)
            value = holder[key]
        if math.isfinite(value) and kind in ("int", "ints", "horizon"):
            value = int(value)
        bad.append(value if is_open or not math.isfinite(value)
                   else value + step)
    d = cfg["dataset"]["d"]
    shape = {"vector": lambda v: [v] * d, "grid": lambda v: [[v] * d],
             "ints": lambda v: [v], "numbers": lambda v: [v]}
    return [shape.get(kind, lambda v: v)(v) for v in bad]


@settings(max_examples=80, deadline=None)
@given(row=st.sampled_from(harness.FIELDS),
       how=st.sampled_from(["drop", "retype", "range", "unknown"]),
       command=st.sampled_from(["bounds", "simulate", "verify"]),
       data=st.data())
def test_cli_survives_one_mutated_field(row, how, command, data):
    cfg = copy.deepcopy(FUZZ_BASE)
    holder, key = _holder(cfg, row[0])
    if how == "drop":
        holder.pop(key, None)
    elif how == "retype":
        holder[key] = data.draw(st.sampled_from(RETYPED))
    elif how == "range":
        holder[key] = data.draw(st.sampled_from(_out_of_range(row, cfg)))
    else:
        holder[f"{key}_typo"] = 1
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path),
                             "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()


def test_fuzz_base_config_passes_every_command(tmp_path):
    path = write_config(tmp_path, FUZZ_BASE)
    for command in ("bounds", "simulate", "verify"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0, command


def test_readme_field_table_matches_the_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([a-z]+) \|", section, flags=re.M)
    assert rows == [row[:2] for row in harness.FIELDS]


def test_minorization_grid_of_three_is_admissible(tmp_path):
    cfg = quadratic_config()
    _minorization_grid(cfg, 3)
    assert cli.main(["verify", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path)]) == 0


def _regime(regime, loss, eta, b, k, noise=None, dataset=None):
    cfg = quadratic_config(regime=regime, loss=loss, bound={"k": k})
    cfg["dataset"] = dataset or {"n": 10, "d": 1,
                                 "generator": "gaussian_clipped",
                                 "radius_D": 0.1, "label_range": 0.05,
                                 "seed": 3}
    cfg["sgd"].update(eta=eta, batch_b=b, k_max=50, theta0=[0.5],
                      master_seed=7)
    if noise:
        cfg["noise"] = noise
    return cfg


# one admissible config per regime, and its bound value and log_value
REGIME_BOUNDS = {
    "Quadratic": (quadratic_config(), 0.8000000000000007,
                  -0.22314355131420888),
    "StronglyConvex": (
        _regime("StronglyConvex", {"family": "RidgeQuadratic", "mu0": 1.0},
                0.01, 2, 200), 0.020234243490391216, -3.9003788875458647),
    "NonconvexNoisy": (
        _regime("NonconvexNoisy", SINE, 0.2, 4, 500,
                noise={"kind": "gaussian_diag", "scale": [0.5 ** 0.5]}),
        3.5044677549489723e+74, 171.64533553743348),
    "NonconvexPlain": (_regime("NonconvexPlain", SINE, 0.2, 4, 100),
                       0.011090349406752402, -4.501679971646171),
    # eta = 1e-9 is below this data set's step-size limit of 2.4e-8
    "SubConvexStationary": (
        _regime("SubConvexStationary",
                {"family": "ScalarPower", "p": 1.5, "mu": 1.0}, 1e-9, 2,
                "inf", dataset={"n": 10, "d": 1,
                                "generator": "gaussian_clipped",
                                "radius_D": 1.0, "seed": 0}),
        3.1684611997559e+17, 40.29719262498614),
}


@pytest.mark.parametrize("regime", REGIME_BOUNDS)
def test_every_regime_through_the_cli(tmp_path, regime):
    cfg, value, log_value = REGIME_BOUNDS[regime]
    path = write_config(tmp_path, cfg)
    assert cli.main(["bounds", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "bounds.json").read_text())
    assert rep["regime"] == regime
    assert rep["value"] == pytest.approx(value, rel=1e-12)
    assert rep["log_value"] == pytest.approx(log_value, rel=1e-12)


# eta = 0 passes validate_config; the noisy regime's eta_bar and eta_hat
# need eta > 0
def test_minorization_on_a_loss_with_m_zero_is_inadmissible(tmp_path,
                                                            capsys):
    # the Quadratic loss is not dissipative (m = 0), so the minorization
    # certificate's drift constant K0 has no dissipative radius
    cfg = quadratic_config(noise={"kind": "gaussian_diag",
                                  "scale": [0.5, 0.5]},
                           certificates=[{"kind": "minorization", "M": 1.0,
                                          "n_grid": 3}])
    cfg["dataset"]["d"] = 2
    cfg["sgd"]["theta0"] = [0.0, 0.0]
    assert cli.main(["verify", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == EXIT_INADMISSIBLE
    out = capsys.readouterr()
    assert out.err == ("inadmissible configuration: m = 0.0 violates m > 0: "
                       "the dissipative radius needs a dissipative loss\n")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("command, eta_hat", [
    ("bounds", {"mode": "corollary"}),
    ("bounds", {"mode": "fixed", "log_eta_hat": -10.0}),
    ("verify", {"mode": "corollary"})])
def test_noisy_eta_zero_is_inadmissible(tmp_path, capsys, command, eta_hat):
    cfg = _regime("NonconvexNoisy", SINE, 0.0, 4, 500,
                  noise={"kind": "gaussian_diag", "scale": [0.5 ** 0.5]})
    cfg["bound"]["eta_hat"] = eta_hat
    cfg["certificates"] = [{"kind": "minorization", "M": 1.0, "n_grid": 3}]
    assert cli.main([command, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / "out")]) == EXIT_INADMISSIBLE
    out = capsys.readouterr()
    assert out.err.startswith("inadmissible configuration: eta = 0.0 violates "
                              "eta > 0")
    assert out.err.count("\n") == 1
    assert "Traceback" not in out.out + out.err
    if command == "bounds":
        rep = json.loads((tmp_path / "out" / "bounds.json").read_text())
        assert rep["admissible"] is False


class TestReportCommand:
    def test_composes_all_outputs(self, tmp_path):
        cfg = quadratic_config(
            replicas=8,
            certificates=[{"kind": "contraction", "claimed_rate": 0.9,
                           "k_max": 20, "R": 8}])
        cmd_bounds(cfg, tmp_path)
        cmd_simulate(cfg, tmp_path)
        cmd_verify(cfg, tmp_path)
        assert cmd_report(tmp_path) == EXIT_OK
        text = (tmp_path / "report.md").read_text()
        assert "Theoretical bound" in text
        assert "Empirical estimates" in text
        assert "Certificates" in text
        assert "0.8" in text

    def test_overflowed_bound_shows_its_log_value(self, tmp_path):
        # bounds.json writes an overflowed value as null beside log_value
        (tmp_path / "bounds.json").write_text(json.dumps(
            {"regime": "NonconvexNoisy", "k": "inf", "value": None,
             "log_value": 1525.25, "admissible": True}))
        assert cmd_report(tmp_path) == EXIT_OK
        assert "| exp(1525.25) |" in (tmp_path / "report.md").read_text()

    def test_failing_contraction_shows_its_worst_k(self, tmp_path):
        # full batch on unit data contracts at exactly 0.9 per step, so a
        # claimed rate of 0.5 fails worst at k = 3: 0.9^3 against 0.5^3
        cfg = quadratic_config(
            dataset={"n": 4, "d": 1, "generator": "unit_fixed", "seed": 0},
            sgd={"eta": 0.1, "batch_b": 4, "k_max": 10, "theta0": [0.0],
                 "master_seed": 42},
            certificates=[{"kind": "contraction", "claimed_rate": 0.5,
                           "k_max": 10, "R": 4, "seed": 0}])
        assert cmd_verify(cfg, tmp_path) == EXIT_CERT_FAILURE
        assert cmd_report(tmp_path) == EXIT_OK
        text = (tmp_path / "report.md").read_text()
        assert text == (
            "# stabilab report\n\n## Certificates\n\n"
            "| kind | passed | margin | points | worst | measured | stderr "
            "| claim | diverged_replicas |\n"
            "| --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
            "| contraction | False | -0.603999999999875 | 10 | 3 | 0.729 "
            "| 0.0 | 0.125 |  |\n")
        row = text.splitlines()[-1].strip("| ").split(" | ")
        assert float(row[5]) > float(row[7])    # measured > claim

    def test_diverged_certificate_shows_its_count(self, tmp_path):
        verify.write_certificates_jsonl([verify.Certificate(
            "dominance", False, 0.0,
            {"diverged_replicas": 3, "regime": "Quadratic"},
            "inconclusive: replicas diverged")],
            tmp_path / "certificates.jsonl")
        assert cmd_report(tmp_path) == EXIT_OK
        assert "| dominance | False | 0.0 |  |  |  |  |  | 3 |" \
            in (tmp_path / "report.md").read_text()

    def test_empty_directory_is_usage_error(self, tmp_path, capsys):
        # one line on stderr, as on every other exit-1 path
        assert cmd_report(tmp_path) == harness.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: no stabilab outputs found in {tmp_path}\n"
        assert not (tmp_path / "report.md").exists()

    @pytest.mark.parametrize("name, text", [
        ("bounds.json", '{"regime": "Quadratic", "k": 10, "val'),
        ("bounds.json", '[1, 2]'),
        ("certificates.jsonl", '{"kind": "contraction", "margin": 0.1, '
                               '"details": {}}\n')],
        ids=["truncated", "list", "no-passed"])
    def test_malformed_output_is_one_error_line(self, tmp_path, capsys,
                                                name, text):
        (tmp_path / name).write_text(text)
        assert cli.main(["report", "--in", str(tmp_path)]) \
            == harness.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / name}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        assert not (tmp_path / "report.md").exists()


class TestCli:
    def test_end_to_end(self, tmp_path):
        cfg_path = write_config(tmp_path, quadratic_config(
            replicas=4,
            certificates=[{"kind": "contraction", "claimed_rate": 0.9,
                           "k_max": 10, "R": 4}]))
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert cli.main(["verify", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert cli.main(["report", "--in", str(out)]) == 0
        assert (out / "report.md").exists()

    def test_overlong_integer_is_a_config_error(self, tmp_path, capsys):
        # beyond Python's 4300-digit limit on converting a string to int
        path = tmp_path / "config.json"
        path.write_text(json.dumps(quadratic_config()).replace(
            '"seed": 0', '"seed": ' + "9" * 5000))
        assert cli.main(["bounds", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON")
        assert err.count("\n") == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert cli.main(["bounds", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 1

    # a config path that is a directory; an output path that is a file
    @pytest.mark.parametrize("config,out", [(".", "out"),
                                            ("config.json", "config.json")])
    def test_os_error_exits_1(self, tmp_path, capsys, config, out):
        write_config(tmp_path, quadratic_config())
        assert cli.main(["bounds", "--config", str(tmp_path / config),
                         "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_config_error_exits_1(self, tmp_path):
        cfg = quadratic_config(regime="Magic")
        path = write_config(tmp_path, cfg)
        assert cli.main(["bounds", "--config", str(path),
                         "--out", str(tmp_path)]) == 1

    def test_inadmissible_via_cli_exits_2(self, tmp_path):
        cfg = quadratic_config()
        cfg["sgd"]["eta"] = 2.5
        path = write_config(tmp_path, cfg)
        assert cli.main(["bounds", "--config", str(path),
                         "--out", str(tmp_path)]) == 2

    def test_importing_the_cli_loads_no_scipy(self):
        # scipy.optimize alone takes about 0.6 s to import; the modules that
        # need scipy import it inside the function that uses it
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, stabilab.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_importing_the_cli_loads_no_numpy_random(self, tmp_path):
        # numpy.random takes about 15 ms to import; model defines the seed
        # sequence its batched streams need on first use.  Nor does it load
        # concurrent.futures, which loads logging: run_lanes imports its
        # executor only when a third noise block is to come
        path = write_config(tmp_path, quadratic_config())
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys, stabilab.cli\n"
                "from stabilab.harness import load_config\n"
                "load_config(sys.argv[1])\n"
                "print(sorted(m for m in sys.modules if m.startswith(("
                "'numpy.random', 'concurrent.futures', 'logging'))))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code, str(path)],
                             env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("field", ["sgd", "certificate"])
@pytest.mark.parametrize("k_max, ok", [(2 ** 62, True), (2 ** 62 + 1, False)])
def test_k_max_at_its_range_end(field, k_max, ok):
    # 2^62 is an exact float, so the range check holds at the integer; the
    # end is accepted and never run here
    cfg = quadratic_config(certificates=[
        {"kind": "contraction", "claimed_rate": 0.9, "R": 4}])
    holder = cfg["sgd"] if field == "sgd" else cfg["certificates"][0]
    holder["k_max"] = k_max
    if field == "certificate":
        cfg["sgd"]["k_max"] = 10
    if ok:
        assert validate_config(cfg)["certificates"][0]["k_max"] == k_max
        return
    with pytest.raises(ConfigError, match=f"{field}.k_max must lie in "
                       r"\[0, 4611686018427387904\], got "
                       f"{k_max}$"):
        validate_config(cfg)


GOLDEN = Path(__file__).parent / "golden"
# a Quadratic run with an admissible bound that partly diverges: from
# theta0 = 0.9e12 a step with eta a_i^2 > 2 leaves the guard
DIVERGING = quadratic_config(replicas=16, checkpoints=[50, 100],
                             certificates=[{"kind": "dominance"}])
DIVERGING["dataset"].update(generator="gaussian_clipped", radius_D=2.0)
DIVERGING["sgd"].update(eta=0.7, theta0=[0.9e12])
PIPELINES = {p.name: json.loads((p / "config.json").read_text())
             for p in sorted(GOLDEN.iterdir()) if p.is_dir()} | {
                 "diverging": DIVERGING}
# dominance ensembles that verify runs after simulate in the same --out;
# readme's certificate has R = 32 against 64 replicas
RERUNS_AFTER_SIMULATE = {"certify-grid": 0, "deep-noisy": 0, "diverging": 0,
                         "readme": 1, "wide-quadratic": 0}


def _count_ensembles(monkeypatch) -> list:
    """The list that every later harness.run_ensemble call appends to."""
    calls, run = [], harness.run_ensemble
    monkeypatch.setattr(harness, "run_ensemble",
                        lambda *args: calls.append(1) or run(*args))
    return calls


def _cli(command, path, out):
    return cli.main([command, "--config", str(path), "--out", str(out)])


@pytest.mark.parametrize("name", PIPELINES)
def test_dominance_after_simulate_matches_its_own_run(tmp_path, monkeypatch,
                                                      capsys, name):
    cfg = PIPELINES[name]
    path = write_config(tmp_path, cfg)
    calls = _count_ensembles(monkeypatch)
    assert _cli("simulate", path, tmp_path / "after") == EXIT_OK
    calls.clear()
    capsys.readouterr()
    code = _cli("verify", path, tmp_path / "after")
    after, out = len(calls), capsys.readouterr().out
    calls.clear()
    assert _cli("verify", path, tmp_path / "alone") == code
    alone = capsys.readouterr().out
    dominance = [s for s in cfg.get("certificates", [])
                 if s["kind"] == "dominance"]
    assert (after, len(calls)) == (RERUNS_AFTER_SIMULATE[name],
                                   len(dominance))
    certs = (tmp_path / "after" / "certificates.jsonl").read_bytes()
    assert certs == (tmp_path / "alone" / "certificates.jsonl").read_bytes()
    # stdout, and only stdout, names where each estimate came from
    assert out.count("estimate from simulate's estimates.csv") \
        == len(dominance) - after
    assert alone.count("-replica run)") == len(dominance)
    assert b"estimate from" not in certs
    diverged = json.loads((tmp_path / "after" / "run_summary.json")
                          .read_text())["diverged_replicas"]
    assert (diverged > 0) == (name == "diverging")
    if diverged:
        assert code == EXIT_CERT_FAILURE
        assert json.loads(certs)["details"]["diverged_replicas"] == diverged


def _seeded(cfg, seed):
    return cfg | {"sgd": cfg["sgd"] | {"master_seed": seed}}


def _edit(name, edit):
    """A change to ``name`` in --out after simulate: text to text."""
    def change(out, cfg):
        (out / name).write_text(edit((out / name).read_text()))
    return change


def _drop_row(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("100,coupled,"))


def _summary(**fields):
    return _edit("run_summary.json",
                 lambda text: json.dumps(json.loads(text) | fields))


def _simulate_stopped(out, cfg):
    """Another seed's simulate, stopped before run_summary.json."""
    with mock.patch.object(harness, "_write_json", side_effect=OSError), \
            pytest.raises(OSError):
        cmd_simulate(_seeded(cfg, 43), out)


# a config whose dominance estimate verify takes from simulate
REUSABLE = quadratic_config(replicas=16, checkpoints=[50, 100],
                            estimators=["coupled", "exact_1d"],
                            certificates=[{"kind": "dominance"}])
REUSABLE["dataset"]["generator"] = "gaussian_clipped"
# (change to the config, change to --out after simulate): each makes
# verify run the dominance ensemble itself
RERUNS = {
    "master-seed": (None, lambda out, cfg: cmd_simulate(_seeded(cfg, 43),
                                                        out)),
    "simulate-stopped": (None, _simulate_stopped),
    "stream-version-2": (None, _summary(stream_version=2)),
    "diverged-not-a-count": (None, _summary(diverged_replicas="0")),
    "R": (lambda c: c["certificates"][0].update(R=8), None),
    "k": (lambda c: c["certificates"][0].update(k=75), None),
    "estimator": (lambda c: c["certificates"][0].update(
        estimator="assignment"), None),
    # W_2^2: the certificate compares power_mean, not in estimates.csv
    "nonconvex-plain-p2": (lambda c: c.update(
        _regime("NonconvexPlain", SINE, 0.2, 4, 100), p=2.0, replicas=16,
        checkpoints=[50], certificates=[{"kind": "dominance"}]), None),
    "csv-missing": (None, lambda out, cfg: (out / "estimates.csv").unlink()),
    # cut within the row's stderr: the stub still parses as a number, and
    # only the missing status shows the cut
    "csv-truncated": (None, _edit("estimates.csv", lambda text: text[
        :text.index("\n", text.index("100,coupled,")) - 6])),
    "csv-row-missing": (None, _edit("estimates.csv", _drop_row)),
    "csv-non-numeric": (None, _edit("estimates.csv", lambda text: re.sub(
        r"^(100,coupled,1\.0,)[^,]+", r"\1x", text, flags=re.M))),
    "summary-not-json": (None, _edit("run_summary.json",
                                     lambda text: text[:-5])),
}


@pytest.mark.parametrize("case", ["reused", *RERUNS])
def test_dominance_reruns_unless_simulate_wrote_its_estimate(
        tmp_path, monkeypatch, capsys, case):
    config_change, out_change = RERUNS.get(case, (None, None))
    cfg = copy.deepcopy(REUSABLE)
    if config_change:
        config_change(cfg)
    path = write_config(tmp_path, cfg)
    after = tmp_path / "after"
    assert _cli("simulate", path, after) == EXIT_OK
    if out_change:
        out_change(after, cfg)
    calls = _count_ensembles(monkeypatch)
    code = _cli("verify", path, after)
    assert len(calls) == (case != "reused")
    assert _cli("verify", path, tmp_path / "alone") == code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (after / "certificates.jsonl").read_bytes() == \
        (tmp_path / "alone" / "certificates.jsonl").read_bytes()


def _count_bounds(monkeypatch) -> list:
    """The list that every later harness.evaluate_bound call appends to."""
    calls, evaluate = [], harness.evaluate_bound
    monkeypatch.setattr(harness, "evaluate_bound",
                        lambda *args: calls.append(1) or evaluate(*args))
    return calls


@pytest.mark.parametrize("name", PIPELINES)
def test_verify_after_bounds_matches_verify_alone(tmp_path, monkeypatch,
                                                  capsys, name):
    cfg = PIPELINES[name]
    path = write_config(tmp_path, cfg)
    after = tmp_path / "after"
    assert _cli("bounds", path, after) == EXIT_OK
    assert _cli("simulate", path, after) == EXIT_OK
    capsys.readouterr()
    calls = _count_bounds(monkeypatch)
    code = _cli("verify", path, after)
    evaluated, out = len(calls), capsys.readouterr().out
    calls.clear()
    assert _cli("verify", path, tmp_path / "alone") == code
    alone = capsys.readouterr().out
    dominance = sum(s["kind"] == "dominance"
                    for s in cfg.get("certificates", []))
    assert (evaluated, len(calls)) == (0, min(dominance, 1))
    certs = (after / "certificates.jsonl").read_bytes()
    assert certs == (tmp_path / "alone" / "certificates.jsonl").read_bytes()
    # stdout, and only stdout, names where each bound came from
    assert out.count(", bound from bounds.json,") == dominance
    assert alone.count(", bound evaluated,") == dominance
    assert b"bound from" not in certs and b"bound evaluated" not in certs


# a Quadratic config with two dominance certificates of one bound
TWO_DOMINANCE = quadratic_config(
    replicas=16, certificates=[{"kind": "dominance"},
                               {"kind": "dominance", "k": 50,
                                "estimator": "exact_1d"}])
TWO_DOMINANCE["dataset"]["generator"] = "gaussian_clipped"


@pytest.mark.parametrize("bounds_first", [False, True])
def test_verify_gets_the_bound_at_most_once(tmp_path, monkeypatch, capsys,
                                            bounds_first):
    path = write_config(tmp_path, TWO_DOMINANCE)
    if bounds_first:
        assert _cli("bounds", path, tmp_path / "out") == EXIT_OK
    calls = _count_bounds(monkeypatch)
    assert _cli("verify", path, tmp_path / "out") == EXIT_OK
    assert len(calls) == (not bounds_first)
    assert capsys.readouterr().out.count(
        ", bound from bounds.json," if bounds_first
        else ", bound evaluated,") == 2
    golden = tmp_path / "golden"
    with mock.patch.object(harness, "_dominance_bound",
                           side_effect=lambda given, cfg, exp, out: (
                               evaluate_bound(cfg, exp), "evaluated")):
        assert _cli("verify", path, golden) == EXIT_OK
    assert (tmp_path / "out" / "certificates.jsonl").read_bytes() == \
        (golden / "certificates.jsonl").read_bytes()


def _bounds_of(change):
    """bounds.json of the config after ``change``, in place of its own."""
    def write(out, cfg):
        other = copy.deepcopy(cfg)
        change(other)
        assert cmd_bounds(other, out) == EXIT_OK
    return write


def _report(**fields):
    return _edit("bounds.json",
                 lambda text: json.dumps(json.loads(text) | fields))


def _unstamped(text):
    rep = json.loads(text)
    for key in ("config", "schema_version", "stream_version"):
        del rep[key]
    return json.dumps(rep)


MONTE_CARLO = copy.deepcopy(REUSABLE)
MONTE_CARLO["bound"].update(rho_mode="monte_carlo")
# (config, change to --out after bounds): each makes verify evaluate the
# bound itself
EVALUATES = {
    "eta": (REUSABLE, _bounds_of(lambda c: c["sgd"].update(eta=0.05))),
    "rho-seed": (MONTE_CARLO, _bounds_of(
        lambda c: c["bound"].update(rho_seed=1))),
    "stream-version-2": (REUSABLE, _report(stream_version=2)),
    "schema-version-0": (REUSABLE, _report(schema_version=0)),
    "missing": (REUSABLE, lambda out, cfg: (out / "bounds.json").unlink()),
    "truncated": (REUSABLE, _edit("bounds.json",
                                  lambda text: text[:len(text) // 2])),
    "not-json": (REUSABLE, _edit("bounds.json", lambda text: "bounds\n")),
    "unstamped": (REUSABLE, _edit("bounds.json", _unstamped)),
    "not-admissible": (REUSABLE, _report(admissible=False)),
    "other-regime": (REUSABLE, _report(regime="StronglyConvex")),
    "value-null": (REUSABLE, _report(value=None)),
    "value-string": (REUSABLE, _report(value="x")),
    # Python's json reads the non-standard NaN: never a passing bound
    "value-nan": (REUSABLE, _edit("bounds.json", lambda text: re.sub(
        r'"value": [^,\n]+', '"value": NaN', text))),
}


@pytest.mark.parametrize("case", ["read", *EVALUATES])
def test_dominance_evaluates_unless_bounds_wrote_its_bound(
        tmp_path, monkeypatch, capsys, case):
    cfg, out_change = EVALUATES.get(case, (REUSABLE, None))
    path = write_config(tmp_path, cfg)
    after = tmp_path / "after"
    assert _cli("bounds", path, after) == EXIT_OK
    if out_change:
        out_change(after, cfg)
    calls = _count_bounds(monkeypatch)
    code = _cli("verify", path, after)
    assert len(calls) == (case != "read")
    assert _cli("verify", path, tmp_path / "alone") == code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (after / "certificates.jsonl").read_bytes() == \
        (tmp_path / "alone" / "certificates.jsonl").read_bytes()


def test_inadmissible_record_is_evaluated_again(tmp_path, monkeypatch,
                                                capsys):
    cfg = quadratic_config(certificates=[{"kind": "dominance"}])
    cfg["sgd"]["eta"] = 2.5   # rho = 1.5 >= 1 on unit data
    path = write_config(tmp_path, cfg)
    assert _cli("bounds", path, tmp_path / "after") == EXIT_INADMISSIBLE
    rep = json.loads((tmp_path / "after" / "bounds.json").read_text())
    assert (rep["admissible"], rep["config"]) == (False, cfg)
    capsys.readouterr()
    calls = _count_bounds(monkeypatch)
    errs = []
    for out in ("after", "alone"):
        calls.clear()
        assert _cli("verify", path, tmp_path / out) == EXIT_INADMISSIBLE
        assert len(calls) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("inadmissible configuration: ")
    assert errs[0].count("\n") == 1


def test_overflowed_bound_is_read_as_inf(tmp_path, monkeypatch, capsys):
    # deep-noisy's bound overflows: bounds.json holds value null beside a
    # finite log_value, which only an overflowed exp writes, so verify reads
    # it as +inf and writes the certificates it writes without bounds.json
    cfg = copy.deepcopy(PIPELINES["deep-noisy"])
    cfg["certificates"] = [{"kind": "dominance", "k": 100}]
    path = write_config(tmp_path, cfg)
    assert _cli("bounds", path, tmp_path / "after") == EXIT_OK
    rep = json.loads((tmp_path / "after" / "bounds.json").read_text())
    assert rep["value"] is None and math.isfinite(rep["log_value"])
    calls = _count_bounds(monkeypatch)
    outs = []
    for out, evaluated in (("after", 0), ("alone", 1)):
        calls.clear()
        assert _cli("verify", path, tmp_path / out) == EXIT_OK
        assert len(calls) == evaluated
        outs.append(capsys.readouterr().out)
    assert ", bound from bounds.json," in outs[0]
    assert ", bound evaluated," in outs[1]
    assert (tmp_path / "after" / "certificates.jsonl").read_bytes() == \
        (tmp_path / "alone" / "certificates.jsonl").read_bytes()


class TestOutputsReplaced:
    """Every output file is unlinked and created anew, never truncated, so
    a hard link to an old output keeps the old bytes."""

    @staticmethod
    def pipeline(cfg, out):
        cmd_bounds(cfg, out)
        cmd_simulate(cfg, out)
        cmd_verify(cfg, out)
        assert cmd_report(out) == EXIT_OK

    def test_link_to_old_bounds_keeps_its_bytes(self, tmp_path):
        cmd_bounds(quadratic_config(), tmp_path)
        old = (tmp_path / "bounds.json").read_bytes()
        os.link(tmp_path / "bounds.json", tmp_path / "old.json")
        cmd_bounds(quadratic_config(bound={"k": 5}), tmp_path)
        new = (tmp_path / "bounds.json").read_bytes()
        assert new != old and json.loads(new)["k"] == 5
        assert (tmp_path / "old.json").read_bytes() == old

    def test_rerun_replaces_all_five_outputs(self, tmp_path):
        names = ("bounds.json", "estimates.csv", "run_summary.json",
                 "certificates.jsonl", "report.md")
        certs = [{"kind": "contraction", "claimed_rate": 0.9, "k_max": 20,
                  "R": 8}]
        first = quadratic_config(replicas=8, certificates=certs)
        second = quadratic_config(
            replicas=8, certificates=certs,
            sgd={"eta": 0.2, "batch_b": 1, "k_max": 60, "theta0": [0.5],
                 "master_seed": 7})
        self.pipeline(first, tmp_path / "out")
        old = {}
        for name in names:
            old[name] = (tmp_path / "out" / name).read_bytes()
            os.link(tmp_path / "out" / name, tmp_path / f"old-{name}")
        self.pipeline(second, tmp_path / "out")
        self.pipeline(second, tmp_path / "fresh")
        for name in names:
            assert (tmp_path / f"old-{name}").read_bytes() == old[name], name
            new = (tmp_path / "out" / name).read_bytes()
            assert new != old[name], name
            assert new == (tmp_path / "fresh" / name).read_bytes(), name
