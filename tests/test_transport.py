import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.optimize
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from stabilab import transport
from stabilab.transport import (coupled_upper_bound, wasserstein_assignment,
                                wasserstein_exact_1d)


class TestExact1D:
    def test_point_masses(self):
        est = wasserstein_exact_1d(1.0, [0.0], [1.0])
        assert est.value == pytest.approx(1.0)

    def test_sorted_matching(self):
        # optimal 1-d coupling matches order statistics
        est = wasserstein_exact_1d(1.0, [0.0, 1.0], [1.0, 0.0])
        assert est.value == pytest.approx(0.0)

    def test_quadratic_value(self):
        est = wasserstein_exact_1d(2.0, [0.0, 0.0], [1.0, 1.0])
        assert est.value == pytest.approx(1.0)
        assert est.power_mean == pytest.approx(1.0)

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(20)
        assert wasserstein_exact_1d(1.5, a, a).value == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            wasserstein_exact_1d(1.0, [0.0], [0.0, 1.0])


class TestAssignment:
    def test_matches_exact_in_1d(self):
        rng = np.random.default_rng(3)
        for p in (1.0, 1.5, 2.0):
            a = rng.standard_normal(50)
            b = rng.standard_normal(50)
            exact = wasserstein_exact_1d(p, a, b)
            assign = wasserstein_assignment(p, a[:, None], b[:, None])
            assert assign.value == pytest.approx(exact.value, abs=1e-12)

    def test_metric_axioms(self):
        rng = np.random.default_rng(4)
        for p in (1.0, 1.5, 2.0):
            A = rng.standard_normal((30, 2))
            B = rng.standard_normal((30, 2))
            C = rng.standard_normal((30, 2))
            ab = wasserstein_assignment(p, A, B).value
            ba = wasserstein_assignment(p, B, A).value
            ac = wasserstein_assignment(p, A, C).value
            cb = wasserstein_assignment(p, C, B).value
            assert ab == pytest.approx(ba, rel=1e-12)
            assert wasserstein_assignment(p, A, A).value == 0.0
            assert ab <= ac + cb + 1e-12

    def test_dominated_by_coupled_bound(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 3))
        B = A + 0.1 * rng.standard_normal((40, 3))
        for p in (1.0, 1.5, 2.0):
            opt = wasserstein_assignment(p, A, B).value
            coupled = coupled_upper_bound(p, A, B).value
            assert opt <= coupled + 1e-12

    def test_monotone_in_p_for_small_clouds(self):
        # on clouds inside the unit ball, W_p is nondecreasing in p after
        # the 1/p root, by Jensen on the optimal coupling
        rng = np.random.default_rng(6)
        A = rng.uniform(-0.5, 0.5, (25, 2))
        B = rng.uniform(-0.5, 0.5, (25, 2))
        w1 = wasserstein_assignment(1.0, A, B).value
        w15 = wasserstein_assignment(1.5, A, B).value
        w2 = wasserstein_assignment(2.0, A, B).value
        assert w1 <= w15 + 1e-12
        assert w15 <= w2 + 1e-12

    def test_cap_enforced(self):
        A = np.zeros((2000, 1))
        with pytest.raises(ValueError):
            wasserstein_assignment(1.0, A, A)


def reference_assignment(p, A, B):
    """Reference path: the matching of the unreduced cost, built as one
    (N, N, d) norm, and its matched costs: (cols, value, stderr)."""
    cost = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2) ** p
    rows, cols = linear_sum_assignment(cost)
    matched = cost[rows, cols]
    N = len(A)
    power_mean = float(matched.sum() / N)
    stderr = float(np.std(matched, ddof=1) / np.sqrt(N))
    return cols, power_mean ** (1.0 / p), stderr


@pytest.fixture
def solver_calls(monkeypatch):
    """Record the cost matrix and matching of every solver call."""
    calls = []

    def spy(cost):
        rows, cols = linear_sum_assignment(cost)
        calls.append((cost.copy(), cols))
        return rows, cols

    monkeypatch.setattr(transport, "_lsap", spy)
    return calls


def coupled_clouds(N, d, seed):
    # synchronously coupled chains: B is A moved by one shift, plus a little
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((N, d))
    shift = rng.uniform(0.2, 0.5, d)
    return A, A + shift + 0.05 * rng.standard_normal((N, d))


class TestAssignmentPotential:
    """The shift potential against the unreduced reference matching."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("N, d", [(1024, 2), (256, 16)])
    def test_coupled_clouds_bit_equal(self, solver_calls, p, N, d):
        A, B = coupled_clouds(N, d, seed=int(10 * p) + d)
        cols, value, stderr = reference_assignment(p, A, B)
        est = wasserstein_assignment(p, A, B)
        (cost, new_cols), = solver_calls
        assert not np.array_equal(cost, cdist(A, B) ** p)  # potential used
        assert np.array_equal(new_cols, cols)
        assert (est.value, est.stderr) == (value, stderr)

    def test_identical_clouds_use_no_potential(self, solver_calls):
        A = np.random.default_rng(7).standard_normal((64, 2))
        est = wasserstein_assignment(1.0, A, A)
        (cost, cols), = solver_calls
        assert np.array_equal(cost, cdist(A, A))
        assert np.array_equal(cols, np.arange(64))
        assert (est.value, est.stderr) == (0.0, 0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_independent_clouds_use_no_potential(self, solver_calls, p):
        # |mean(B - A)| is a few per cent of the row pairing's mean distance;
        # at p = 1 the unit-slope potential made the solver about 1.5x slower
        rng = np.random.default_rng(8)
        A, B = rng.standard_normal((1024, 2)), rng.standard_normal((1024, 2))
        cols, value, stderr = reference_assignment(p, A, B)
        est = wasserstein_assignment(p, A, B)
        (cost, new_cols), = solver_calls
        assert np.array_equal(cost, cdist(A, B) ** p)
        assert np.array_equal(new_cols, cols)
        assert (est.value, est.stderr) == (value, stderr)

    def test_one_dimensional_ties(self):
        # at p = 1 every matching that moves each point rightwards costs
        # sum(B) - sum(A): the reduced costs tie and the solver may pick a
        # different optimal matching, equal in value up to rounding
        A = np.repeat(np.arange(32.0), 4)[:, None]
        B = A + 40.0 + np.tile([0.0, 0.25, 0.5, 0.75], 32)[:, None]
        _, value, _ = reference_assignment(1.0, A, B)
        assert wasserstein_assignment(1.0, A, B).value == pytest.approx(
            value, rel=1e-12, abs=0)


class TestDistanceCost:
    """The numpy cost matrix against scipy's cdist, the former path."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 16, 17, 40])
    def test_equals_cdist(self, d, p):
        rng = np.random.default_rng(d)
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            A = scale * rng.standard_normal((97, d))
            B = A[::-1] + scale * rng.standard_normal((97, d))
            assert np.array_equal(transport._distance_cost(p, A, B),
                                  cdist(A, B) ** p), scale

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 9])
    @pytest.mark.parametrize("N", [1, 63, 64, 65, 1000, 1024])
    def test_equals_cdist_across_blocks(self, N, d, p):
        # against the cap's 1024 points a block is 64 rows: N = 63 is less
        # than one block, 64 one block, 65 one row over, 1000 ends in a
        # ragged block of 40 rows and 1024 is 16 blocks; N points against N
        # points is the assignment's own shape
        assert transport._BLOCK_ELEMENTS // transport.ASSIGNMENT_CAP == 64
        rng = np.random.default_rng([N, d])
        A = rng.standard_normal((N, d))
        B = rng.standard_normal((transport.ASSIGNMENT_CAP, d))
        assert np.array_equal(transport._distance_cost(p, A, B),
                              cdist(A, B) ** p)
        B = A[::-1] + rng.standard_normal((N, d))
        assert np.array_equal(transport._distance_cost(p, A, B),
                              cdist(A, B) ** p)


class TestAssignmentMemory:
    def test_holds_one_cost_matrix(self):
        # the (N, N) cost takes 8 MB at the cap; its one block of scratch
        # (0.5 MB) and the potential's vectors stay under 1.5 MB more
        N = transport.ASSIGNMENT_CAP
        rng = np.random.default_rng(5)
        A = rng.standard_normal((N, 2))
        B = A + [0.5, -0.25] + 0.01 * rng.standard_normal((N, 2))
        moves = B - A
        # the shift potential runs on these clouds
        assert (2 * np.linalg.norm(moves.mean(axis=0))
                >= np.linalg.norm(moves, axis=1).mean())
        wasserstein_assignment(1.0, A[:2], B[:2])   # loads the solver
        tracemalloc.start()
        try:
            wasserstein_assignment(1.0, A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < N * N * 8 + 1.5 * 2 ** 20


LSAP_FILE = next((Path(scipy.__file__).parent / "optimize" / f"_lsap{s}"
                  for s in transport.EXTENSION_SUFFIXES
                  if (Path(scipy.__file__).parent / "optimize"
                      / f"_lsap{s}").is_file()), None)
needs_extension = pytest.mark.skipif(
    LSAP_FILE is None, reason="this scipy ships _lsap as Python")


class FailingLoader:
    def __init__(self, name, path):
        raise ImportError(f"cannot load {path}")


@pytest.fixture
def unloaded(monkeypatch):
    """No solver cached and no _lsap module imported, as in a fresh process
    (restored afterwards)."""
    monkeypatch.setattr(transport, "_lsap", None)
    monkeypatch.delitem(sys.modules, transport._LSAP, raising=False)
    return monkeypatch


def assignment_with(monkeypatch, solver, p, A, B):
    """(cols, value, stderr) of wasserstein_assignment run on ``solver``."""
    calls = []

    def spy(cost):
        rows, cols = solver(cost)
        calls.append(cols)
        return rows, cols

    monkeypatch.setattr(transport, "_lsap", spy)
    est = wasserstein_assignment(p, A, B)
    (cols,) = calls
    return cols, est.value, est.stderr


class TestSolverLoad:
    """The directly loaded extension against the public import."""

    @needs_extension
    def test_direct_load_reads_the_extension_file(self, unloaded):
        loads = []

        class RecordingLoader(transport.ExtensionFileLoader):
            def __init__(self, name, path):
                loads.append((name, path))
                super().__init__(name, path)

        unloaded.setattr(transport, "ExtensionFileLoader", RecordingLoader)
        solver = transport._load_lsap()
        assert loads == [(transport._LSAP, str(LSAP_FILE))]
        # left unregistered, so that scipy.optimize binds its own _lsap
        assert transport._LSAP not in sys.modules
        assert scipy.optimize._lsap.linear_sum_assignment is solver

    def test_reuses_an_imported_module(self, unloaded):
        # once scipy.optimize is imported (by a caller of stabilab, say),
        # its _lsap module is used as it is, and no file is loaded
        def solver(cost):
            return linear_sum_assignment(cost)

        module = types.ModuleType(transport._LSAP)
        module.linear_sum_assignment = solver
        unloaded.setitem(sys.modules, transport._LSAP, module)
        unloaded.setattr(transport, "ExtensionFileLoader", FailingLoader)
        assert transport._load_lsap() is solver

    def test_loaded_once_on_first_matching(self, unloaded):
        A = np.random.default_rng(9).standard_normal((8, 2))
        wasserstein_assignment(2.0, A, A[::-1])
        solver = transport._lsap
        assert solver is not None
        wasserstein_assignment(2.0, A, A)
        assert transport._lsap is solver

    @pytest.mark.parametrize("failure", ["missing", "raises"])
    def test_falls_back_to_public_import(self, unloaded, failure):
        if failure == "missing":
            unloaded.setattr(transport, "EXTENSION_SUFFIXES", [".missing"])
        else:
            unloaded.setattr(transport, "ExtensionFileLoader", FailingLoader)
        assert transport._load_lsap() is scipy.optimize.linear_sum_assignment

    def test_module_without_the_solver_falls_back(self, unloaded):
        # a loaded _lsap that has no linear_sum_assignment is not used
        unloaded.setitem(sys.modules, transport._LSAP,
                         types.ModuleType(transport._LSAP))
        unloaded.setattr(transport, "ExtensionFileLoader", FailingLoader)
        assert transport._load_lsap() is scipy.optimize.linear_sum_assignment

    @needs_extension
    @pytest.mark.parametrize("failure", ["missing", "raises"])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("clouds", ["coupled", "independent"])
    def test_both_paths_agree(self, unloaded, failure, p, clouds):
        if clouds == "coupled":
            A, B = coupled_clouds(512, 2, seed=11)
        else:
            rng = np.random.default_rng(12)
            A, B = rng.standard_normal((512, 2)), rng.standard_normal((512, 2))
        direct = transport._load_lsap()
        if failure == "missing":
            unloaded.setattr(transport, "EXTENSION_SUFFIXES", [".missing"])
        else:
            unloaded.setattr(transport, "ExtensionFileLoader", FailingLoader)
        public = transport._load_lsap()
        assert public is scipy.optimize.linear_sum_assignment
        cols, value, stderr = assignment_with(unloaded, direct, p, A, B)
        public_cols, public_value, public_stderr = assignment_with(
            unloaded, public, p, A, B)
        assert np.array_equal(cols, public_cols)
        assert (value, stderr) == (public_value, public_stderr)


FRESH_RUN = """
import json, pathlib, sys, tempfile
import numpy as np
from stabilab import cli, transport
cfg = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as out:
    path = pathlib.Path(out) / "config.json"
    path.write_text(json.dumps(cfg))
    codes = [cli.main([command, "--config", str(path), "--out", out])
             for command in ("simulate", "verify")]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
cost = np.random.default_rng(0).random((64, 64))
ours = transport._lsap(cost)[1]
import scipy.optimize
print(json.dumps({
    "codes": codes, "loaded": loaded,
    "reused": scipy.optimize._lsap.linear_sum_assignment is transport._lsap,
    "same": bool(np.array_equal(
        ours, scipy.optimize.linear_sum_assignment(cost)[1]))}))
"""


@needs_extension
def test_fresh_process_matching_loads_no_scipy_optimize():
    # a small wide-quadratic: the assignment estimator and a dominance
    # certificate that estimates with the assignment
    cfg = {
        "schema_version": 1,
        "regime": "Quadratic",
        "loss": {"family": "Quadratic"},
        "dataset": {"n": 8, "d": 2, "generator": "gaussian_clipped",
                    "radius_D": 1.0, "seed": 0},
        "sgd": {"eta": 0.5, "batch_b": 4, "k_max": 20, "theta0": [0.0, 0.0],
                "master_seed": 3},
        "bound": {"k": 20},
        "replicas": 64,
        "checkpoints": [10, 20],
        "estimators": ["coupled", "assignment"],
        "certificates": [{"kind": "dominance", "R": 64, "k": 20,
                          "estimator": "assignment"}],
    }
    src = str(Path(transport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(cfg)],
                         env=env, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0]
    for package in ("scipy.optimize", "scipy.linalg", "scipy.spatial"):
        assert package not in result["loaded"]
        assert not [m for m in result["loaded"]
                    if m.startswith(package + ".")], package
    # the matching ran on the directly loaded solver, which a later
    # import of scipy.optimize binds as its own
    assert result["reused"]
    assert result["same"]


FRESH_NOISY = """
import json, pathlib, sys, tempfile
import numpy as np
from stabilab import cli, harness, model
cfg = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as out:
    path = pathlib.Path(out) / "config.json"
    path.write_text(json.dumps(cfg))
    codes = [cli.main([command, "--config", str(path), "--out", out])
             for command in ("bounds", "simulate", "verify")]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
exp = harness.build_experiment(harness.validate_config(cfg))
A, Y, loss = exp.dataset.features, exp.dataset.labels, exp.loss
theta = model.empirical_minimizer(loss, exp.dataset)
print(json.dumps({
    "codes": codes, "loaded": loaded,
    "grad": float(np.linalg.norm(model.grad_batch(loss, theta, A, Y)))}))
"""


def test_fresh_process_noisy_pipeline_loads_no_scipy():
    # a small certify-grid: a NonconvexNoisy bound from the minimizer, a
    # coupled estimate and the minorization check's Gaussian-mixture
    # densities
    cfg = {
        "schema_version": 1,
        "regime": "NonconvexNoisy",
        "loss": {"family": "RegularizedSine", "m0": 2.0, "s": 0.01},
        "dataset": {"n": 6, "d": 2, "generator": "gaussian_clipped",
                    "radius_D": 0.1, "label_range": 0.05, "seed": 0},
        "sgd": {"eta": 0.2, "batch_b": 2, "k_max": 20, "theta0": [0.0, 0.0],
                "master_seed": 3},
        "noise": {"kind": "gaussian_diag", "scale": [0.7, 0.7]},
        "bound": {"k": 20},
        "replicas": 8,
        "checkpoints": [20],
        "estimators": ["coupled"],
        "certificates": [
            {"kind": "minorization", "M": 1.0, "n_grid": 5},
            {"kind": "drift", "mode": "monte_carlo", "n_mc": 50,
             "claimed_delta": 0.7, "claimed_L": 0.5,
             "theta_grid": [[0.0, 0.0], [1.0, 0.0]]}],
    }
    src = str(Path(transport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", FRESH_NOISY, json.dumps(cfg)],
                         env=env, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    # theta* is stationary: the bound's grad_sup is taken at the minimizer
    assert result["grad"] <= 1e-12


def coupled_loop(p, A, B):
    """Reference: the coupled bound from one np.linalg.norm per row pair,
    as (value, stderr, power_mean)."""
    dists = np.array([np.linalg.norm(a - b) for a, b in zip(A, B)])
    powers = dists ** p
    power_mean = float(np.mean(powers))
    n = len(dists)
    stderr = float(np.std(powers, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return power_mean ** (1.0 / p), stderr, power_mean


class TestCoupledBound:
    def test_simple_mean(self):
        est = coupled_upper_bound(1.0, [[0.0], [0.0]], [[1.0], [3.0]])
        assert est.value == pytest.approx(2.0)
        assert est.n_samples == 2

    def test_power_mean_and_value(self):
        est = coupled_upper_bound(2.0, [[0.0]], [[2.0]])
        assert est.power_mean == pytest.approx(4.0)
        assert est.value == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coupled_upper_bound(1.0, np.empty((0, 2)), np.empty((0, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coupled_upper_bound(1.0, np.zeros((3, 2)), np.zeros((3, 1)))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_matches_per_pair_loop(self, d, p):
        rng = np.random.default_rng(100 * d + int(10 * p))
        for N in (1, 2, 7, 64, 1024):
            scale = 10.0 ** rng.uniform(-6, 6)
            A = scale * rng.standard_normal((N, d))
            B = A + scale * rng.uniform(0.01, 2.0) * rng.standard_normal(
                (N, d))
            est = coupled_upper_bound(p, A, B)
            assert (est.value, est.stderr, est.power_mean) == \
                coupled_loop(p, A, B), N
            assert est.n_samples == N
