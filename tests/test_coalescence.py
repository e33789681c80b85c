"""Differential tests of ``run_lanes``' stop on coalescence.

When both chains read one dataset object, ``run_lanes`` stops stepping once
no checkpoint lies ahead and every live lane's two chains are equal bit for
bit.  The reference is the same run on an equal but distinct copy of the
dataset, which never stops that way: states, divergence steps and distances
must equal it bit for bit (NaN where diverged).  Also here:

* the stop waits for the last lane, for the last checkpoint, and for -0.0
  and 0.0 to become one bit pattern, and never happens on two datasets;
* lanes that diverge next to lanes that coalesce;
* the property the stop rests on: in the reference run, a lane whose
  distance reaches 0 stays at 0;
* the gradient-kernel calls of each golden contraction certificate, and the
  steps ``verify`` prints for it.
"""

import copy
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabilab import dynamics, harness, model, verify
from stabilab.dynamics import NoiseModel, SGDConfig, run_lanes

GOLDEN = Path(__file__).resolve().parent / "golden"

LOSSES = {
    "Quadratic": model.LossModel("Quadratic"),
    "RidgeQuadratic": model.LossModel("RidgeQuadratic", mu0=0.5),
    "RegularizedSine": model.LossModel("RegularizedSine", m0=1.0, s=0.7),
    "ScalarPower": model.LossModel("ScalarPower", p=1.5, mu=1.0),
}
SHAPES = [(family, d) for family in LOSSES
          for d in ((1,) if family == "ScalarPower" else (1, 2, 16))]
NOISE_KINDS = ("none", "gaussian_diag", "laplace")


def noise_model(kind, d):
    return NoiseModel() if kind == "none" else NoiseModel(kind, (0.3,) * d)


def dataset(d, seed=4):
    return model.make_synthetic_dataset(
        {"n": 8, "d": d, "generator": "gaussian_clipped", "radius_D": 1.0},
        seed)


def stop_and_reference(loss, ds, starts, config, noise, lanes,
                       checkpoints=()):
    """The run on (ds, ds), which may stop, and on (ds, a copy of ds)."""
    return [run_lanes(loss, datasets, starts, config, noise, lanes,
                      checkpoints, distances=True)
            for datasets in ((ds, ds), (ds, copy.copy(ds)))]


def assert_equal_runs(got, ref):
    for field in ("states", "diverged_at", "distances"):
        assert np.array_equal(getattr(got, field), getattr(ref, field),
                              equal_nan=True), field


class TestStopAgainstCopy:
    # budget 150 makes blocks of 1 to 9 steps in sub-blocks of 1 to 75, so
    # k_max = 203 is a multiple of none of them, and stops fall inside
    # blocks and at their ends
    @pytest.mark.parametrize("lanes", [1, 16])
    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("family, d", SHAPES)
    def test_matches_run_on_a_copy(self, monkeypatch, family, d, kind, b,
                                   lanes):
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 150)
        starts = (np.full(d, 1.0), np.full(d, -0.5))
        config = SGDConfig(1.0, b, 203, starts[0], 17)
        got, ref = stop_and_reference(LOSSES[family], dataset(d), starts,
                                      config, noise_model(kind, d),
                                      range(lanes), [0, 7])
        assert_equal_runs(got, ref)
        assert ref.steps == 203
        # eight points leave 8 of 16 directions of a plain Quadratic
        # uncontracted; every other case merges within about 90 steps
        if family == "Quadratic" and d == 16:
            assert got.steps == 203
        else:
            assert 7 <= got.steps < 203
            assert np.all(ref.distances[:, got.steps:] == 0)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("family", ["RidgeQuadratic", "RegularizedSine"])
    def test_default_blocks_deep_noisy_shape(self, family, kind):
        # 16 lanes at d = 16 and b = 4 make blocks of 256 steps in
        # sub-blocks of 32, so k_max = 1001 ends in a short block
        ds = model.make_synthetic_dataset(
            {"n": 32, "d": 16, "generator": "gaussian_clipped",
             "radius_D": 0.1, "label_range": 0.05}, 0)
        starts = (np.ones(16), np.zeros(16))
        config = SGDConfig(0.2, 4, 1001, starts[0], 3)
        got, ref = stop_and_reference(LOSSES[family], ds, starts, config,
                                      noise_model(kind, 16), range(16))
        assert_equal_runs(got, ref)
        assert got.steps % 32 == 0 and got.steps < 1001

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("lanes", [1, 16])
    def test_identical_starts_stop_at_once(self, lanes, kind):
        starts = (np.full(2, 0.3), np.full(2, 0.3))
        config = SGDConfig(0.5, 2, 50, starts[0], 9)
        got, ref = stop_and_reference(LOSSES["RegularizedSine"], dataset(2),
                                      starts, config, noise_model(kind, 2),
                                      range(lanes), [0])
        assert_equal_runs(got, ref)
        assert got.steps == 0 and ref.steps == 50
        assert np.all(got.distances == 0)


def dyadic_dataset(features):
    """d = 1 points whose labels put every point's minimizer at 0.25, so
    that with eta = 1 and b = 1 a point of feature 1 sends any theta to
    0.25 exactly, one of 0.5 contracts theta towards it, and one of 1e7
    sends theta near 1 past the guard but keeps 0.25 at 0.25."""
    features = np.asarray(features, dtype=float)
    return model.Dataset(features[:, None], 0.25 * features,
                         2.0 * float(features.max()))


DYADIC_STARTS = (np.array([1.0]), np.array([-0.5]))


def dyadic_run(monkeypatch, features, checkpoints=(), starts=DYADIC_STARTS,
               budget=48):
    """Quadratic, eta = 1, b = 1, 16 lanes and k_max = 300, at budget 48 in
    blocks of 3 steps and sub-blocks of 1, so the stop rule is checked at
    every step; at budget 16 in blocks of 1 step."""
    monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
    config = SGDConfig(1.0, 1, 300, starts[0], 5)
    return stop_and_reference(model.LossModel("Quadratic"),
                              dyadic_dataset(features), starts, config,
                              NoiseModel(), range(16), checkpoints)


def first_zero(run):
    return np.argmax(run.distances == 0, axis=1)


class TestStopRule:
    # one point of feature 1 among 15 of 0.5: each lane merges at its first
    # draw of point 0, about 16 steps apart
    WAITING = [1.0] + [0.5] * 15

    def test_waits_for_the_last_lane(self, monkeypatch):
        got, ref = dyadic_run(monkeypatch, self.WAITING)
        assert_equal_runs(got, ref)
        merged = first_zero(ref)
        assert np.all(ref.distances[np.arange(301) >= merged[:, None]] == 0)
        assert merged.min() < merged.max() == got.steps < 300

    def test_waits_for_the_last_checkpoint(self, monkeypatch):
        got, ref = dyadic_run(monkeypatch, self.WAITING, [0, 250])
        assert_equal_runs(got, ref)
        assert first_zero(ref).max() < 250 == got.steps

    def test_never_on_two_datasets(self, monkeypatch):
        # identical starts on two datasets that differ in one point
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 48)
        base = dyadic_dataset(self.WAITING)
        moved = dyadic_dataset([1.0] + [0.5] * 14 + [0.75])
        starts = (np.array([1.0]),) * 2
        run = run_lanes(model.LossModel("Quadratic"), (base, moved), starts,
                        SGDConfig(1.0, 1, 300, starts[0], 5), NoiseModel(),
                        range(16), distances=True)
        assert run.steps == 300
        assert np.all(run.distances[:, 0] == 0)

    def test_signed_zeros_are_not_coalesced(self, monkeypatch):
        # 0.0 and -0.0 are at distance 0 but differ in their bits; one step
        # takes both to the same value
        got, ref = dyadic_run(monkeypatch, self.WAITING,
                              starts=(np.array([0.0]), np.array([-0.0])))
        assert_equal_runs(got, ref)
        assert np.all(ref.distances == 0)
        assert got.steps == 1

    @pytest.mark.parametrize("budget", [48, 16])
    def test_diverged_lanes_beside_coalesced_ones(self, monkeypatch, budget):
        # a lane whose first draw is point 3 diverges at step 1; any other
        # merges there, at 0.25, which point 3 then leaves alone.  In blocks
        # of one step the diverged lanes are frozen at their unequal starts
        # when the rule is checked, and the run stops after step 1
        got, ref = dyadic_run(monkeypatch, [1.0, 1.0, 1.0, 1e7],
                              budget=budget)
        assert_equal_runs(got, ref)
        diverged = got.diverged_at == 1
        assert 0 < diverged.sum() < 16
        assert np.all(got.diverged_at[~diverged] == 301)
        assert np.all(np.isnan(got.distances[diverged, 1:]))
        assert np.all(got.distances[~diverged, 1:] == 0)
        assert got.steps == 1 if budget == 16 else got.steps < 300


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(LOSSES)),
       kind=st.sampled_from(NOISE_KINDS), d=st.sampled_from([1, 2, 5]),
       b=st.sampled_from([1, 2, 4]), lanes=st.sampled_from([1, 3, 8]),
       eta=st.sampled_from([0.25, 0.5, 1.0]), seed=st.integers(0, 2 ** 32))
def test_a_zero_distance_stays_zero(family, kind, d, b, lanes, eta, seed):
    """What the stop rests on: in the never-stopping reference, a lane
    whose chains reach distance 0 keeps it at every later step."""
    if family == "ScalarPower":
        d = 1
    ds = dataset(d, seed % 1000)
    starts = (np.full(d, 1.0), np.full(d, -0.5))
    ref = run_lanes(LOSSES[family], (ds, copy.copy(ds)), starts,
                    SGDConfig(eta, b, 150, starts[0], seed),
                    noise_model(kind, d), range(lanes), distances=True)
    merged = (ref.distances == 0).any(axis=1)
    after = np.arange(151) >= first_zero(ref)[:, None]
    assert np.all(ref.distances[merged[:, None] & after] == 0)


def golden_contraction(name):
    """The experiment and contraction certificate spec of golden ``name``."""
    cfg = harness.validate_config(
        json.loads((GOLDEN / name / "config.json").read_text()))
    spec = next(dict(s) for s in cfg["certificates"]
                if s["kind"] == "contraction")
    del spec["kind"]
    return harness.build_experiment(cfg), spec


class TestGoldenSteps:
    """Gradient-kernel calls of each workload's contraction certificate:
    one a step, for both chains of every lane."""

    def count_kernel_calls(self, monkeypatch):
        calls = []

        def bind(*args):
            kernel = model.grad_kernel(*args)

            def counted(*step):
                calls.append(1)
                return kernel(*step)

            return counted

        monkeypatch.setattr(dynamics, "grad_kernel", bind)
        return calls

    # deep-noisy's 16 lanes merge by step 83, so the check after the third
    # sub-block of 32 steps stops the run; wide-quadratic's 256 lanes
    # (Quadratic) and certify-grid's 64 lanes do not merge within k_max
    @pytest.mark.parametrize("name, steps, note", [
        ("deep-noisy", 96, ", 96 of 2000 steps, every lane coalesced"),
        ("wide-quadratic", 100, ", 100 of 100 steps"),
        ("certify-grid", 50, ", 50 of 50 steps")])
    def test_steps_stepped(self, monkeypatch, name, steps, note):
        exp, spec = golden_contraction(name)
        calls = self.count_kernel_calls(monkeypatch)
        cert = verify.check_contraction(exp.loss, exp.dataset, exp.sgd.eta,
                                        exp.sgd.batch_b, noise=exp.noise,
                                        **spec)
        assert len(calls) == steps
        assert cert.note == note
        # the certificate is the golden's line, bit for bit
        line = json.dumps(verify.finite_or_null(asdict(cert)),
                          sort_keys=True, allow_nan=False)
        assert line in (GOLDEN / name / "certificates.jsonl").read_text() \
            .splitlines()

    def test_verify_prints_the_steps(self, tmp_path, capsys):
        config = json.loads((GOLDEN / "deep-noisy" / "config.json")
                            .read_text())
        assert harness.cmd_verify(config, tmp_path) == harness.EXIT_OK
        line, = capsys.readouterr().out.splitlines()
        assert line.startswith("PASS contraction: margin ")
        assert line.endswith(" s, 96 of 2000 steps, every lane coalesced)")
        written = (tmp_path / "certificates.jsonl").read_text()
        assert "steps" not in written and "coalesced" not in written
