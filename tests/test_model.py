import ast
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from stabilab import harness, model
from stabilab.model import (AssumptionConstants, NeighborPair,
                            POWER_SEPARATION_FLOOR, check_assumptions,
                            derive_constants, grad_batch, make_neighbor,
                            make_synthetic_dataset)

ALL_LOSSES = [
    model.LossModel("Quadratic"),
    model.LossModel("RidgeQuadratic", mu0=1.0),
    model.LossModel("RegularizedSine", m0=2.0, s=0.5),
    model.LossModel("ScalarPower", p=1.5, mu=1.0),
]


def random_point(rng, d, loss):
    if loss.family == "ScalarPower":
        d = 1
    z = rng.standard_normal(d + 1)
    norm = np.linalg.norm(z)
    if norm > 1.0:
        z /= norm
    return z[:d], float(z[d])


class TestGrad:
    def test_quadratic_direct(self):
        g = grad_batch(model.LossModel("Quadratic"), np.array([2.0, 0.0]),
                       np.array([[1.0, 0.0]]), [1.0])
        assert np.allclose(g, [1.0, 0.0])

    def test_ridge_stationary_at_origin(self):
        g = grad_batch(model.LossModel("RidgeQuadratic", mu0=1.0), np.zeros(2),
                       np.array([[1.0, 0.0]]), [0.0])
        assert np.allclose(g, [0.0, 0.0])

    def test_sine_at_origin(self):
        g = grad_batch(model.LossModel("RegularizedSine", m0=2.0, s=0.5),
                       np.zeros(1), np.array([[1.0]]), [0.0])
        assert np.allclose(g, [0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grad_batch(model.LossModel("Quadratic"), np.zeros(3),
                       np.array([[1.0, 0.0]]), [1.0])

    def test_scalar_power_kink_is_zero(self):
        g = grad_batch(model.LossModel("ScalarPower", p=1.5, mu=1.0),
                       np.array([2.0]), np.array([[0.0]]), [2.0])
        assert g[0] == 0.0

    @pytest.mark.parametrize("loss", ALL_LOSSES,
                             ids=lambda l: l.family)
    def test_finite_differences(self, loss):
        # central differences at step 1e-5, relative error <= 1e-6
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(100):
            d = 1 if loss.family == "ScalarPower" else 2
            a, y = random_point(rng, d, loss)
            theta = rng.standard_normal(d)
            if loss.family == "ScalarPower":
                # keep away from the kink where f is not C^2
                while abs(theta[0] - y) < 1e-2:
                    theta = rng.standard_normal(1)
            g = grad_batch(loss, theta, a[None], [y])
            fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (_loss_value(loss, theta + e, a, y)
                         - _loss_value(loss, theta - e, a, y)) / (2 * h)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0)
            assert rel <= 1e-6


def _loss_value(loss, theta, a, y):
    if loss.family == "Quadratic":
        return 0.5 * (a @ theta - y) ** 2
    if loss.family == "RidgeQuadratic":
        return 0.5 * (a @ theta - y) ** 2 + 0.5 * loss.mu0 * theta @ theta
    if loss.family == "RegularizedSine":
        return 0.5 * loss.m0 * theta @ theta + loss.s * np.sin(a @ theta - y)
    return loss.mu / loss.p * abs(theta[0] - y) ** loss.p


def grad_reference(loss, theta, A, Y):
    """Oracle: each family's mean gradient as one numpy expression on fresh
    arrays, the form the gradient kernels must reproduce bit for bit."""
    b = A.shape[-2]
    At = A.swapaxes(-1, -2)
    if loss.family in ("Quadratic", "RidgeQuadratic"):
        residual = (A @ theta[..., None])[..., 0] - Y
        g = (At @ residual[..., None])[..., 0] / b
        if loss.family == "RidgeQuadratic":
            g = g + loss.mu0 * theta
        return g
    if loss.family == "RegularizedSine":
        phase = np.cos((A @ theta[..., None])[..., 0] - Y)
        return loss.m0 * theta + loss.s * (At @ phase[..., None])[..., 0] / b
    u = theta[..., :1] - Y
    g = loss.mu * np.sign(u) * np.abs(u) ** (loss.p - 1.0)
    return np.mean(g, axis=-1, keepdims=True)


KERNEL_LOSSES = ALL_LOSSES + [model.LossModel("ScalarPower", p=1.3, mu=2.0)]
# ScalarPower is one-dimensional
KERNEL_CASES = [pytest.param(loss, d, id=f"{loss.family}-{loss.p}-d{d}")
                for loss in KERNEL_LOSSES
                for d in ([1] if loss.family == "ScalarPower" else [1, 2, 16])]


class TestGradKernel:
    """``grad_kernel`` against ``grad_batch`` and the expression oracle,
    under ==, with its buffers and its argument views reused across calls
    as ``run_lanes`` reuses them."""

    @pytest.mark.parametrize("loss, d", KERNEL_CASES)
    @pytest.mark.parametrize("lead", [(), (5,), (16, 2)])
    def test_kernel_equals_grad_batch(self, loss, d, lead):
        rng = np.random.default_rng(d)
        b = 4
        kernel = model.grad_kernel(loss, lead, b, d)
        # step-major stacks, and their per-step views built once, like the
        # engine's buffers
        A = rng.standard_normal((3,) + lead + (b, d))
        Y = rng.standard_normal((3,) + lead + (b,))
        theta = 3.0 * rng.standard_normal((3,) + lead + (d,))
        views = list(zip(theta, theta[..., None], A, A.swapaxes(-1, -2), Y))
        for _ in range(2):
            theta[0].flat[0] = Y[0].flat[0]     # a ScalarPower kink
            for step_views in views:
                th, _, a, _, y = step_views
                got = kernel(*step_views).copy()
                want = grad_batch(loss, th, a, y)
                assert got.shape == want.shape == lead + (d,)
                assert np.array_equal(got, want)
                assert np.array_equal(got, grad_reference(loss, th, a, y))
            # new values under the same views, as the engine overwrites its
            # buffers in place
            A += 0.5
            Y *= -1.0
            theta += rng.standard_normal(theta.shape)

    @pytest.mark.parametrize("loss", KERNEL_LOSSES,
                             ids=lambda l: f"{l.family}-{l.p}")
    def test_grad_batch_broadcasts_like_the_oracle(self, loss):
        # one theta against n one-row lanes, as max_grad_norm calls it
        rng = np.random.default_rng(7)
        d = 1 if loss.family == "ScalarPower" else 3
        theta = rng.standard_normal(d)
        A = rng.standard_normal((6, 1, d))
        Y = rng.standard_normal((6, 1))
        assert np.array_equal(grad_batch(loss, theta, A, Y),
                              grad_reference(loss, theta, A, Y))


class TestDatasets:
    def test_unit_fixed_points(self):
        ds = make_synthetic_dataset({"n": 4, "d": 1,
                                     "generator": "unit_fixed"}, 0)
        assert np.all(ds.features == 1.0)
        assert np.all(ds.labels == 1.0)
        assert ds.radius_D == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("generator",
                             ["sphere_uniform", "gaussian_clipped"])
    def test_radius_invariant(self, generator):
        ds = make_synthetic_dataset(
            {"n": 100, "d": 3, "generator": generator, "radius_D": 2.0}, 7)
        assert ds.n == 100
        assert np.all(model.point_norms(ds) <= 2.0 + 1e-12)

    def test_determinism_bitwise(self):
        spec = {"n": 50, "d": 3, "generator": "gaussian_clipped",
                "radius_D": 2.0}
        a = make_synthetic_dataset(spec, 7)
        b = make_synthetic_dataset(spec, 7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset({"n": 0, "d": 1,
                                    "generator": "unit_fixed"}, 0)
        with pytest.raises(ValueError):
            make_synthetic_dataset({"n": 4, "d": 1,
                                    "generator": "nope"}, 0)


class TestNeighbor:
    def test_differs_only_at_index(self):
        ds = make_synthetic_dataset(
            {"n": 8, "d": 2, "generator": "gaussian_clipped"}, 1)
        pair = make_neighbor(ds, 2, 99)
        assert pair.differing_index == 2
        for i in range(8):
            if i == 2:
                continue
            assert np.array_equal(pair.base.features[i],
                                  pair.perturbed.features[i])
            assert pair.base.labels[i] == pair.perturbed.labels[i]

    def test_degenerate_equal_datasets_allowed(self):
        ds = make_synthetic_dataset({"n": 4, "d": 1,
                                     "generator": "unit_fixed"}, 0)
        pair = NeighborPair(ds, ds, 1)
        assert pair.differing_index == 1

    def test_index_out_of_range(self):
        ds = make_synthetic_dataset({"n": 4, "d": 1,
                                     "generator": "unit_fixed"}, 0)
        with pytest.raises(ValueError):
            make_neighbor(ds, 4, 0)


def draw_point_reference(generator, d, radius_D, label_range, rng):
    """The per-point draw that ``model._points`` replaced, kept as its
    oracle: one ``standard_normal(d + 1)`` and one ``np.linalg.norm`` a
    point."""
    if generator == "unit_fixed":
        a = np.zeros(d)
        a[0] = 1.0
        return a, 1.0
    z = rng.standard_normal(d + 1)
    if generator == "sphere_uniform":
        z /= np.linalg.norm(z)
        z *= radius_D
    else:
        z[d] *= label_range
        norm = np.linalg.norm(z)
        if norm > radius_D:
            z *= radius_D / norm
    return z[:d], float(z[d])


def reference_stream(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestPoints:
    @pytest.mark.parametrize("generator", model.GENERATORS)
    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_block_draw_equals_per_point_draws(self, generator, d, n):
        # radius sqrt(d + 1) clips about half the gaussian_clipped points
        spec = {"n": n, "d": d, "generator": generator, "label_range": 0.5,
                "radius_D": None if generator == "unit_fixed"
                else np.sqrt(d + 1.0)}
        ds = make_synthetic_dataset(spec, 11)
        rng = reference_stream(11)
        want = [draw_point_reference(generator, d, ds.radius_D, 0.5, rng)
                for _ in range(n)]
        assert np.array_equal(ds.features, np.array([a for a, _ in want]))
        assert np.array_equal(ds.labels, np.array([y for _, y in want]))

    @pytest.mark.parametrize("generator", model.GENERATORS)
    def test_neighbor_point_equals_per_point_draw(self, generator):
        ds = make_synthetic_dataset({"n": 7, "d": 2, "generator": generator,
                                     "label_range": 0.5}, 3)
        pair = make_neighbor(ds, 4, 5)
        a, y = draw_point_reference(generator, 2, ds.radius_D, 0.5,
                                    reference_stream(5))
        assert np.array_equal(pair.perturbed.features[4], a)
        assert pair.perturbed.labels[4] == y


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["wide-quadratic", "deep-noisy",
                                  "certify-grid"])
def test_strided_views_give_the_contiguous_minimizer(name):
    # certify-grid's theta* moved by 2.7e-20 when Dataset kept the views
    cfg = harness.validate_config(
        json.loads((GOLDEN / name / "config.json").read_text()))
    ds, loss = harness.build_dataset(cfg), harness.build_loss(cfg)
    z, d = np.column_stack([ds.features, ds.labels]), ds.dim_d
    views = model.Dataset(z[:, :d], z[:, d], ds.radius_D)
    copies = model.Dataset(z[:, :d].copy(), z[:, d].copy(), ds.radius_D)
    assert views.features.flags.c_contiguous
    assert views.labels.flags.c_contiguous
    assert np.array_equal(model.empirical_minimizer(loss, views),
                          model.empirical_minimizer(loss, copies))


def _generator_calls(node, where=()):
    """(enclosing definitions, name) of every Philox or SeedSequence call
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = where + (child.name,) if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else where
        if isinstance(child, ast.Call):
            name = getattr(child.func, "attr", getattr(child.func, "id", None))
            if name in ("Philox", "SeedSequence"):
                yield where, name
        yield from _generator_calls(child, inner)


def test_every_generator_is_built_by_stream():
    # _streams builds the generators of _stream from precomputed keys
    calls = {(path.name, where, name)
             for path in Path(model.__file__).parent.glob("*.py")
             for where, name in _generator_calls(ast.parse(path.read_text()))}
    assert calls == {("model.py", ("_stream",), "Philox"),
                     ("model.py", ("_stream",), "SeedSequence"),
                     ("model.py", ("_streams",), "Philox")}


class TestBatchedStreams:
    """``_streams`` against one ``_stream`` per lane: Philox key, counter
    and whole state, and the first draws."""

    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 127 + 3]
    IDS = [0, 1, 1023, 2 ** 31, 2 ** 32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", [0, 1])
    def test_equal_to_one_stream_per_lane(self, seed, tag):
        for got, want in zip(model._streams(seed, self.IDS, tag),
                             [model._stream(seed, i, tag) for i in self.IDS],
                             strict=True):
            got_state = got.bit_generator.state
            want_state = want.bit_generator.state
            for part in ("key", "counter"):
                assert np.array_equal(got_state["state"][part],
                                      want_state["state"][part])
            assert np.array_equal(got_state["buffer"], want_state["buffer"])
            assert [got_state[k] for k in ("buffer_pos", "has_uint32",
                                           "uinteger")] == \
                [want_state[k] for k in ("buffer_pos", "has_uint32",
                                         "uinteger")]
            assert np.array_equal(got.bit_generator.random_raw(5),
                                  want.bit_generator.random_raw(5))
            assert np.array_equal(got.integers(0, 1000, 7),
                                  want.integers(0, 1000, 7))
            assert np.array_equal(got.standard_normal(3),
                                  want.standard_normal(3))

    def test_keys_of_every_id_at_once(self):
        keys = model._stream_keys(2 ** 64 + 5, range(300), 1)
        assert keys.shape == (300, 2) and keys.dtype == np.uint64
        assert np.array_equal(keys[123], np.random.SeedSequence(
            2 ** 64 + 5, spawn_key=(123, 1)).generate_state(2, np.uint64))
        assert model._streams(3, [], 0) == []

    def test_negative_seed_raises_as_seed_sequence_does(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1, spawn_key=(0, 0))
        with pytest.raises(ValueError):
            model._streams(-1, [0], 0)

    @pytest.mark.parametrize("bad", [2 ** 32, 2 ** 40, 2 ** 64, -1])
    def test_id_beyond_one_word_raises(self, bad):
        with pytest.raises(ValueError, match="32-bit word"):
            model._streams(3, [0, bad], 0)


class TestConstants:
    def test_sine_dissipativity_constants(self):
        ds = make_synthetic_dataset(
            {"n": 16, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 5)
        c = derive_constants(model.LossModel("RegularizedSine", m0=2.0, s=0.5),
                             ds)
        assert c.m == pytest.approx(1.0)
        assert c.K == pytest.approx(0.25)

    def test_ridge_modulus(self):
        ds = make_synthetic_dataset(
            {"n": 16, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 5)
        c = derive_constants(model.LossModel("RidgeQuadratic", mu0=1.0), ds)
        assert c.mu == 1.0
        assert c.K1 == pytest.approx(2.0)

    def test_quadratic_has_no_modulus(self):
        ds = make_synthetic_dataset(
            {"n": 16, "d": 1, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 5)
        c = derive_constants(model.LossModel("Quadratic"), ds)
        assert c.mu == 0.0

    @pytest.mark.parametrize("loss", ALL_LOSSES, ids=lambda l: l.family)
    def test_zero_violations(self, loss):
        ds = make_synthetic_dataset(
            {"n": 16, "d": 1 if loss.family == "ScalarPower" else 2,
             "generator": "gaussian_clipped", "radius_D": 1.0}, 11)
        c = derive_constants(loss, ds)
        report = check_assumptions(loss, ds, c, 10_000, seed=123)
        assert report["violations"] == 0
        assert report["worst_margin"] >= -1e-9

    def test_inflated_modulus_fails(self):
        ds = make_synthetic_dataset(
            {"n": 16, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 11)
        loss = model.LossModel("RidgeQuadratic", mu0=1.0)
        c = derive_constants(loss, ds)
        inflated = AssumptionConstants(**(asdict(c) | {"mu": 10 * c.mu}))
        report = check_assumptions(loss, ds, inflated, 10_000, seed=123)
        assert report["violations"] > 0


class TestScalarPowerInequality:
    """The power-gradient curvature inequality, on its certified region.

    The unrestricted form <phi(u)-phi(v), u-v> >= (p-1)|u-v|^p is false for
    nearby same-sign pairs (the exponent-p lower bound degenerates at the
    diagonal), so the modulus is certified with a separation floor; the
    magnitude-weighted form holds everywhere.
    """

    P = 1.5

    @staticmethod
    def _phi(u, p):
        return np.sign(u) * np.abs(u) ** (p - 1.0)

    def test_magnitude_weighted_form_everywhere(self):
        rng = np.random.default_rng(8)
        p = self.P
        u = rng.uniform(-10, 10, 10_000)
        v = rng.uniform(-10, 10, 10_000)
        lhs = (self._phi(u, p) - self._phi(v, p)) * (u - v)
        rhs = (p - 1.0) * np.abs(u - v) ** 2 \
            * (u ** 2 + v ** 2) ** ((p - 2.0) / 2.0)
        mask = u != v
        assert np.all(lhs[mask] >= rhs[mask] * (1 - 1e-12))

    def test_power_form_on_certified_region(self):
        rng = np.random.default_rng(8)
        p = self.P
        U = 10.0
        u = rng.uniform(-U, U, 10_000)
        v = rng.uniform(-U, U, 10_000)
        sep = np.abs(u - v)
        keep = sep >= POWER_SEPARATION_FLOOR
        modulus = (p - 1.0) * (POWER_SEPARATION_FLOOR / (2.0 * U)) ** (2.0 - p)
        lhs = (self._phi(u, p) - self._phi(v, p)) * (u - v)
        assert np.all(lhs[keep] >= modulus * sep[keep] ** p * (1 - 1e-9))

    def test_unrestricted_power_form_has_counterexamples(self):
        # sanity: the separation floor is necessary
        p = self.P
        u, v = 1.0, 0.99
        lhs = (self._phi(u, p) - self._phi(v, p)) * (u - v)
        assert lhs < (p - 1.0) * abs(u - v) ** p
