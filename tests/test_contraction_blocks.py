"""The contraction certificate reduced block by block.

``verify.check_contraction`` folds each block of steps that ``run_lanes``
hands it into a running worst point.  Its oracle here is the whole-matrix
path it replaced: every lane's distance at every step in one
(R, k_max + 1) matrix (``lane_oracle.record_lanes``), its column means and
standard errors, and one ``verify._worst`` over all k > 0 with a mean > 0.
The certificate must equal it bit for bit, over lane counts, block sizes
down to one step and blocks that k_max does not divide, tied margins,
k_max = 0, identical starts, runs that coalesce and runs that diverge.

Its tracemalloc peak must not grow with k_max, even at a k_max whose
matrix would not fit in memory.
"""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from lane_oracle import record_lanes

from stabilab import dynamics, model, verify
from stabilab.dynamics import NoiseModel, SGDConfig


def contraction_by_matrix(loss, dataset, eta, b, claimed_rate, k_max, R,
                          seed, theta0_a, theta0_b, noise=NoiseModel()):
    """Oracle: ``check_contraction`` over the whole distance matrix."""
    config = SGDConfig(eta, b, k_max, theta0_a, seed)
    run = record_lanes(loss, (dataset, dataset), (theta0_a, theta0_b),
                       config, noise, range(R))
    details = {"claimed_rate": claimed_rate, "R": R, "k_max": k_max,
               "seed": seed}
    diverged = run.diverged_at <= k_max
    if diverged.any():
        cert = verify._diverged("contraction", int(diverged.sum()), details | {
            "first_diverged_k": int(run.diverged_at.min())})
    else:
        mean, se = model._mean_stderr(run.distances)
        ks = np.flatnonzero(mean[1:] > 0) + 1
        claim = claimed_rate ** ks * np.linalg.norm(theta0_a - theta0_b)
        cert = verify._worst("contraction", (ks,), mean[ks], se[ks], claim,
                             details)
    cert.note = f", {run.steps} of {k_max} steps" + (
        ", every lane coalesced" if (run.distances[:, -1] == 0).all() else "")
    return cert


def small_dataset(d, generator="gaussian_clipped"):
    return model.make_synthetic_dataset(
        {"n": 8, "d": d, "generator": generator, "radius_D": 1.0}, 4)


# name: (loss, dataset, eta, b, claimed_rate, k_max, starts, noise)
CASES = {
    # noisy chains that stay apart to k_max
    "apart": (model.LossModel("RidgeQuadratic", mu0=0.5), small_dataset(2),
              0.05, 2, 0.999, 60, (np.ones(2), np.zeros(2)),
              NoiseModel("gaussian_diag", (0.3, 0.3))),
    # every lane merges bit for bit within about 90 steps
    "coalesces": (model.LossModel("RegularizedSine", m0=1.0, s=0.7),
                  small_dataset(2), 1.0, 4, 0.9, 203,
                  (np.full(2, 1.0), np.full(2, -0.5)),
                  NoiseModel("laplace", (0.3, 0.3))),
    # eta = 3 on unit data doubles the distance to 1 every step
    "diverges": (model.LossModel("Quadratic"),
                 model.make_synthetic_dataset(
                     {"n": 4, "d": 1, "generator": "unit_fixed"}, 0),
                 3.0, 4, 0.9, 60, (np.ones(1), np.zeros(1)), NoiseModel()),
    # eta = 0 keeps every distance at ||delta0||, and the claim
    # 1e-200^k ||delta0|| is below its ulp: every k ties at margin
    # -||delta0||, and the first is the worst
    "ties": (model.LossModel("Quadratic"), small_dataset(2), 0.0, 2, 1e-200,
             40, (np.ones(2), np.zeros(2)),
             NoiseModel("gaussian_diag", (0.3, 0.3))),
    "k-max-zero": (model.LossModel("Quadratic"), small_dataset(2), 0.1, 2,
                   0.9, 0, (np.ones(2), np.zeros(2)), NoiseModel()),
    "identical-starts": (model.LossModel("Quadratic"), small_dataset(2), 0.1,
                         2, 0.9, 30, (np.full(2, 0.3), np.full(2, 0.3)),
                         NoiseModel()),
}


@pytest.mark.parametrize("steps", [None, 1, 7])
@pytest.mark.parametrize("R", [2, 16, 256])
@pytest.mark.parametrize("case", CASES)
def test_blocks_match_whole_matrix(monkeypatch, case, R, steps):
    loss, ds, eta, b, rate, k_max, (a, z), noise = CASES[case]
    if steps is not None:
        # blocks of ``steps`` steps: of 1, or of 7, which no k_max here
        # but 0 is a multiple of
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS",
                            steps * R * max(b, ds.dim_d))
    args = (loss, ds, eta, b, rate, k_max, R, 11)
    got = verify.check_contraction(*args, theta0_a=a, theta0_b=z,
                                   noise=noise)
    want = contraction_by_matrix(*args, a, z, noise)
    assert json.dumps(asdict(got), sort_keys=True) == json.dumps(
        asdict(want), sort_keys=True)
    assert got.note == want.note
    if case == "coalesces":
        assert got.note.endswith("every lane coalesced")
        assert got.passed and 0 < got.details["points"] < k_max
    elif case == "diverges":
        assert got.details["diverged_replicas"] == R
    elif case == "ties":
        assert got.details["worst"] == 1 and got.details["points"] == 40
    elif case == "apart":
        assert got.details["points"] == k_max
    else:
        assert got.details["points"] == 0 and got.margin == np.inf


class Stop(Exception):
    pass


def contraction_peak(monkeypatch, k_max, blocks=None):
    """tracemalloc peak of a 64-lane Quadratic contraction certificate at
    certify-grid's n = 8, d = 2 and b = 4, in blocks of 256 steps and
    minibatch refills of 1,024; with ``blocks``, its run stops after that
    many blocks past step 0."""
    run_lanes = dynamics.run_lanes

    def stopping(*args):
        seen = []

        def observe(first, block):
            args[-1](first, block)
            seen.append(first)
            if len(seen) > blocks:
                raise Stop

        return run_lanes(*args[:-1], observe)

    if blocks is not None:
        monkeypatch.setattr(verify, "run_lanes", stopping)
    tracemalloc.start()
    try:
        try:
            verify.check_contraction(model.LossModel("Quadratic"),
                                     small_dataset(2), 0.05, 4, 0.999, k_max,
                                     64, 3)
            assert blocks is None
        except Stop:
            assert blocks is not None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()


class TestContractionMemory:
    def test_peak_does_not_grow_with_k_max(self, monkeypatch):
        # the (64, k_max + 1) matrix this replaced took the peak from 6.6
        # to 40 MiB; the running worst point keeps it near 5.8 MiB
        peaks = [contraction_peak(monkeypatch, k_max)
                 for k_max in (2000, 40000)]
        assert peaks[1] <= peaks[0] + 2 ** 18
        assert peaks[1] < 8 * 2 ** 20

    def test_first_blocks_of_an_unstorable_horizon(self, monkeypatch):
        # the matrix at k_max = 10^8 would be 51 GB; its first three blocks
        # take no more than a whole 2,000-step run
        assert contraction_peak(monkeypatch, 10 ** 8, 3) \
            <= contraction_peak(monkeypatch, 2000)
