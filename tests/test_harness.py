import json
import re

import pytest

from stabilab import cli, harness, verify
from stabilab.dynamics import NoiseModel
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
        sb = evaluate_bound(quadratic_config())
        assert sb.value == pytest.approx(0.8, rel=1e-12)


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
        assert summary["stream_version"] == 1
        assert summary["replicas"] == 8
        assert summary["diverged_replicas"] == 0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = quadratic_config(**self.CFG)
        cmd_simulate(cfg, tmp_path / "a")
        cmd_simulate(cfg, tmp_path / "b")
        for name in ("estimates.csv", "run_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        cfg = quadratic_config(**self.CFG)
        monkeypatch.setenv("STABILAB_THREADS", "1")
        cmd_simulate(cfg, tmp_path / "serial")
        monkeypatch.setenv("STABILAB_THREADS", "4")
        cmd_simulate(cfg, tmp_path / "threaded")
        assert (tmp_path / "serial" / "estimates.csv").read_bytes() == \
            (tmp_path / "threaded" / "estimates.csv").read_bytes()

    def test_assignment_needs_two_replicas(self, tmp_path):
        cfg = quadratic_config(replicas=1, estimators=["assignment"])
        with pytest.raises(ConfigError, match="assignment"):
            cmd_simulate(cfg, tmp_path)


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
        assert re.fullmatch(r"PASS contraction: margin \S+ \(\d+\.\d\d s\)\n",
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
        pair = harness.build_pair(cfg, harness.build_dataset(cfg))
        args = (harness.build_loss(cfg), pair.perturbed, 0.1, 1,
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

    def test_empty_directory_is_usage_error(self, tmp_path):
        assert cmd_report(tmp_path) == harness.EXIT_USAGE


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

    def test_missing_config_exits_1(self, tmp_path):
        assert cli.main(["bounds", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 1

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
