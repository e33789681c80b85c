"""Loss families, bounded synthetic datasets, neighboring pairs, and the
constants under which the stability assumptions hold.

Four loss families are supported:

* ``Quadratic``:        f(theta, (a, y)) = (a.theta - y)^2 / 2
* ``RidgeQuadratic``:   quadratic plus (mu0/2)||theta||^2
* ``RegularizedSine``:  (m0/2)||theta||^2 + s*sin(a.theta - y)
* ``ScalarPower``:      (mu/p)|theta - y|^p with d = 1 and p in (1, 2)

Every dataset is bounded: ||x_i|| <= radius_D for the concatenated point
x_i = (a_i, y_i).  ``derive_constants`` returns constants under which the
regularity/curvature assumptions hold on the sampled domain, and
``check_assumptions`` is the random-sample audit of those claims.

``grad_batch`` is the one gradient; a single point is the one-row batch
``(a[None], [y])``, and ``max_grad_norm`` and the audit stack their points
and parameters as lanes of one call.  It validates its arguments and calls
``grad_kernel``, where each family's formula is written once; the SGD
engine binds that kernel once per run and calls it every step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .solvers import load_optimize

FAMILIES = ("Quadratic", "RidgeQuadratic", "RegularizedSine", "ScalarPower")
GENERATORS = ("unit_fixed", "sphere_uniform", "gaussian_clipped")

# Smallest parameter separation for which the ScalarPower Hoelder and
# sub-quadratic curvature constants are certified.  The power gradient is not
# globally Hoelder-p/2 nor power-p monotone near the diagonal, so constants
# are derived for separations at or above this floor.
POWER_SEPARATION_FLOOR = 1e-6

# Radius of the parameter ball sampled by check_assumptions; constants for the
# ScalarPower family are certified over this ball.
ASSUMPTION_BALL_RADIUS = 10.0

_LBFGSB = "scipy.optimize._lbfgsb"
# the compiled L-BFGS-B step of scipy 1.15 on, as its docstring opens
_SETULB = ("setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,"
           "dsave,maxls,ln_task)")
_setulb = None   # (setulb, True) or (scipy.optimize.minimize, False)


@dataclass(frozen=True)
class LossModel:
    """A loss family plus its parameters.

    Only the parameters relevant to ``family`` are meaningful; the rest stay
    at their defaults.
    """

    family: str
    mu0: float = 0.0   # RidgeQuadratic ridge weight
    m0: float = 0.0    # RegularizedSine base curvature
    s: float = 0.0     # RegularizedSine amplitude
    p: float = 2.0     # ScalarPower exponent
    mu: float = 0.0    # ScalarPower scale

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.family == "RidgeQuadratic" and self.mu0 <= 0:
            raise ValueError("RidgeQuadratic requires mu0 > 0")
        if self.family == "RegularizedSine":
            if self.m0 <= 0 or self.s < 0:
                raise ValueError("RegularizedSine requires m0 > 0 and s >= 0")
        if self.family == "ScalarPower":
            if not (1.0 < self.p < 2.0):
                raise ValueError("ScalarPower requires p in (1, 2)")
            if self.mu <= 0:
                raise ValueError("ScalarPower requires mu > 0")


@dataclass
class Dataset:
    """An ordered, bounded collection of n points x_i = (a_i, y_i)."""

    features: np.ndarray        # shape (n, d)
    labels: np.ndarray          # shape (n,)
    radius_D: float
    generator_spec: dict = field(default_factory=dict)

    def __post_init__(self):
        # C-contiguous, as a strided view moves theta* in its last bit
        self.features = np.atleast_2d(
            np.ascontiguousarray(self.features, dtype=float))
        self.labels = np.ascontiguousarray(self.labels, dtype=float)
        if self.n < 1:
            raise ValueError("dataset needs n >= 1")
        if self.radius_D <= 0:
            raise ValueError("radius_D must be positive")
        norms = point_norms(self)
        if np.any(norms > self.radius_D * (1 + 1e-12)):
            raise ValueError("a point violates ||x|| <= radius_D")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim_d(self) -> int:
        return self.features.shape[1]


@dataclass
class NeighborPair:
    """Two equal-size datasets that agree everywhere except one index."""

    base: Dataset
    perturbed: Dataset
    differing_index: int

    def __post_init__(self):
        b, p = self.base, self.perturbed
        if b.n != p.n or b.dim_d != p.dim_d or b.radius_D != p.radius_D:
            raise ValueError("base and perturbed datasets are incompatible")
        if not (0 <= self.differing_index < b.n):
            raise ValueError("differing_index out of range")
        mask = np.ones(b.n, dtype=bool)
        mask[self.differing_index] = False
        same = np.array_equal(b.features[mask], p.features[mask]) and \
            np.array_equal(b.labels[mask], p.labels[mask])
        if not same:
            raise ValueError("datasets differ away from differing_index")


@dataclass(frozen=True)
class AssumptionConstants:
    """Constants realizing the regularity/curvature assumptions.

    ``p = 2`` denotes the quadratic / strongly convex / dissipative regimes;
    ``p in (1, 2)`` the sub-quadratic curvature regime.
    """

    K1: float
    K2: float
    mu: float
    m: float
    K: float
    p: float
    D: float
    E: float


def point_norms(dataset: Dataset) -> np.ndarray:
    """Norms of the concatenated (features, label) vectors."""
    return np.sqrt(
        np.sum(dataset.features ** 2, axis=1) + dataset.labels ** 2)


def grad_batch(loss: LossModel, theta: np.ndarray, A: np.ndarray,
               Y: np.ndarray) -> np.ndarray:
    """Mean analytic gradient over the rows of (A, Y).

    Leading lane axes broadcast: theta (..., d), A (..., b, d) and Y (..., b)
    give one mean gradient per lane, shape (..., d).  Every lane runs the
    same matrix-vector products as a single call, so a lane's result does
    not depend on how many lanes share the call.  This is the validating
    wrapper of :func:`grad_kernel`, bound afresh for each call.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Y = np.asarray(Y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b, d = A.shape[-2:]
    if theta.ndim < 1 or theta.shape[-1] != d:
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    if loss.family == "ScalarPower" and d != 1:
        raise ValueError("ScalarPower requires d = 1")
    lead = theta.shape[:-1]
    if not lead == A.shape[:-2] == Y.shape[:-1]:
        lead = np.broadcast_shapes(lead, A.shape[:-2], Y.shape[:-1])
    return grad_kernel(loss, lead, b, d)(theta, theta[..., None], A,
                                         A.swapaxes(-1, -2), Y)


def grad_kernel(loss: LossModel, lead: tuple, b: int, d: int):
    """``loss``'s mean gradient bound to buffers for lanes of shape ``lead``.

    Returns ``kernel(theta, column, A, At, Y)`` for theta (*lead, d), A
    (*lead, b, d) and Y (*lead, b), all float, and the views ``column =
    theta[..., None]`` and ``At = A.swapaxes(-1, -2)``, which a caller
    stepping over fixed buffers builds once.  It checks nothing, allocates
    nothing, and returns the gradient (*lead, d) as a view of its own
    buffer, which the next call overwrites; the caller may scale that view
    in place.  Each family's formula is written here once.  Its operations
    run in the order of the formula's plain numpy expression, on buffers
    laid out as numpy would allocate them there, so the result is bit-equal
    to that expression (``tests/test_model.py`` keeps it as the oracle).
    """
    lead = tuple(lead)
    out = np.empty(lead + (d, 1))       # At @ column, as matmul allocates
    g = out[..., 0]
    rows = np.empty(lead + (b, 1))      # A @ theta, as matmul allocates
    r = rows[..., 0]
    if loss.family == "ScalarPower":
        # d = 1: mu*sign(theta - y)|theta - y|^{p-1}, 0 at the kink
        signs, mu, power = np.empty(lead + (b,)), loss.mu, loss.p - 1.0

        def kernel(theta, column, A, At, Y):
            u, t = r, signs
            np.subtract(theta, Y, out=u)
            np.sign(u, out=t)
            t *= mu
            np.abs(u, out=u)
            u **= power     # the operator: x ** 0.5 is np.sqrt(x)
            t *= u
            return np.mean(t, axis=-1, keepdims=True, out=g)

        return kernel
    # Quadratic and RidgeQuadratic: A^T (A theta - y) / b + mu0 theta;
    # RegularizedSine: m0 theta + s A^T cos(A theta - y) / b
    sine = loss.family == "RegularizedSine"
    base = loss.m0 if sine else loss.mu0
    weighted = np.empty(lead + (d,)) if base else None
    residual = r[..., None]     # a stride-0 column, as the expression has

    def kernel(theta, column, A, At, Y):
        np.matmul(A, column, out=rows)
        np.subtract(r, Y, out=r)
        if sine:
            np.cos(r, out=r)
        np.matmul(At, residual, out=out)
        if sine:
            np.multiply(g, loss.s, out=g)
        np.divide(g, b, out=g)
        if weighted is not None:
            np.add(g, np.multiply(base, theta, out=weighted), out=g)
        return g

    return kernel


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, bit-equal to np.linalg.norm of
    each 1-D vector."""
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _mean_stderr(x: np.ndarray, sampled: bool = True) -> tuple:
    """The mean of ``x`` over its first axis and its standard error
    std(ddof=1) / sqrt(N), 0 for N = 1 or an exact (not ``sampled``) mean."""
    return np.mean(x, axis=0), np.std(x, axis=0, ddof=1) / np.sqrt(len(x)) \
        if sampled and len(x) > 1 else np.zeros(x.shape[1:])


def _scalar_pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e through the float64 scalar power, element by element: numpy's
    SIMD array power rounds some elements differently (seen on AVX-512)."""
    return np.array([v ** e for v in x])


def max_grad_norm(loss: LossModel, dataset: Dataset,
                  theta: np.ndarray) -> float:
    """max_i ||grad f(theta, x_i)|| over the points of the dataset, one
    gradient lane per point."""
    return float(_norms(grad_batch(
        loss, theta, dataset.features[:, None, :],
        dataset.labels[:, None])).max())


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The Philox generator of ``seed`` and spawn key ``key``, the reference
    that :func:`_streams` equals; key ``()`` is the plain
    ``SeedSequence(seed)``."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(int(seed), spawn_key=key)))


def _stream_keys(seed: int, ids, tag: int) -> np.ndarray:
    """Each id's ``SeedSequence(seed, spawn_key=(id, tag)).generate_state(2,
    np.uint64)``, shape (len(ids), 2), by numpy's mixing hash
    (``numpy/random/bit_generator.pyx``): the seed's words, the same for
    every lane, are mixed once in Python ints, the ids in one uint32 pass."""
    seed, ids = int(seed), np.asarray(ids)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if ids.size and not 0 <= ids.min() <= ids.max() < 2 ** 32:
        raise ValueError("a stream id must fit one 32-bit word")
    mask, const = 0xFFFFFFFF, [0x43b0d7e5]     # advanced by every hashmix

    def hashmix(value, mult=0x931e8875):
        value = value ^ const[0]
        const[0] = const[0] * mult & mask
        value = value * const[0] & mask
        return value ^ value >> 16

    def mix(x, y):
        value = ((0xca01f9dd * x & mask) - (0x4973f715 * y & mask)) & mask
        return value ^ value >> 16

    words = [seed >> s & mask for s in range(0, max(seed.bit_length(), 1),
                                             32)]
    words += [0] * (4 - len(words))     # a spawn key pads them to the pool
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:] + [ids.astype(np.uint32), tag]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const[0] = 0x8b51f9dd
    state = np.stack([hashmix(v, 0x58f38ded) for v in pool], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _keyed() -> type:
    """The seed sequence that hands Philox a precomputed key, defined on
    first use, so that importing stabilab loads no ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class Keyed(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key     # Philox asks for its two uint64 key words
    return Keyed


def _streams(seed: int, ids, tag: int) -> list:
    """``[_stream(seed, id, tag) for id in ids]``, equal in key, counter and
    draws, with every key from one :func:`_stream_keys`; ids below 2**32."""
    keyed = _keyed()
    return [np.random.Generator(np.random.Philox(keyed(key)))
            for key in _stream_keys(seed, ids, tag)]


def _points(spec: dict, count: int, rng: np.random.Generator) -> tuple:
    """``count`` points of the generator ``spec`` as views (features,
    labels) of one (count, d + 1) array, from one ``standard_normal`` draw:
    the same values as ``count`` draws of one point."""
    d, radius_D, generator = spec["d"], spec["radius_D"], spec["generator"]
    if generator == "unit_fixed":                       # (e1, 1)
        z = np.zeros((count, d + 1))
        z[:, [0, d]] = 1.0
    else:
        z = rng.standard_normal((count, d + 1))
    if generator == "sphere_uniform":
        z /= _norms(z)[:, None]
        z *= radius_D
    elif generator == "gaussian_clipped":     # x * 1.0 is x, bit for bit
        z[:, d] *= spec["label_range"]
        z *= np.minimum(1.0, radius_D / _norms(z))[:, None]
    return z[:, :d], z[:, d]


def make_synthetic_dataset(spec: dict, seed: int) -> Dataset:
    """Deterministically generate a bounded dataset from a generator spec.

    ``spec`` keys: n, d, generator, radius_D (absent or None: 1.0, and
    sqrt(2) for unit_fixed), label_range (gaussian_clipped label scale;
    absent or None: 1.0).
    """
    n = int(spec["n"])
    d = int(spec["d"])
    generator = spec.get("generator", "gaussian_clipped")
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    # unit_fixed points are (e1, 1) with norm sqrt(2) exactly
    radius_D = spec.get("radius_D")
    if radius_D is None:
        radius_D = np.sqrt(2.0) if generator == "unit_fixed" else 1.0
    radius_D = float(radius_D)
    if radius_D <= 0:
        raise ValueError("radius_D must be positive")
    if generator == "unit_fixed" and radius_D < np.sqrt(2.0) - 1e-12:
        raise ValueError("unit_fixed points have norm sqrt(2) > radius_D")
    label_range = spec.get("label_range")
    label_range = 1.0 if label_range is None else float(label_range)
    full_spec = {"n": n, "d": d, "generator": generator,
                 "radius_D": radius_D, "label_range": label_range,
                 "seed": int(seed)}
    return Dataset(*_points(full_spec, n, _stream(seed)), radius_D,
                   full_spec)


def make_neighbor(base: Dataset, index: int, seed: int) -> NeighborPair:
    """Replace one point of ``base`` with a fresh draw from its generator."""
    if not (0 <= index < base.n):
        raise ValueError(f"index {index} out of range [0, {base.n})")
    spec = base.generator_spec
    if not spec:
        raise ValueError("base dataset carries no generator spec")
    a, y = _points(spec, 1, _stream(seed))
    features = base.features.copy()
    labels = base.labels.copy()
    features[index] = a[0]
    labels[index] = y[0]
    perturbed = Dataset(features, labels, base.radius_D, dict(spec))
    return NeighborPair(base, perturbed, index)


def empirical_minimizer(loss: LossModel, dataset: Dataset) -> np.ndarray:
    """Minimizer of the empirical loss (closed form where available)."""
    A, Y = dataset.features, dataset.labels
    n, d = A.shape
    if loss.family in ("Quadratic", "RidgeQuadratic"):
        H = A.T @ A / n + loss.mu0 * np.eye(d)
        rhs = A.T @ Y / n
        return np.linalg.lstsq(H, rhs, rcond=None)[0]

    def objective(theta):
        if loss.family == "RegularizedSine":
            vals = 0.5 * loss.m0 * theta @ theta + \
                loss.s * np.mean(np.sin(A @ theta - Y))
        else:
            vals = np.mean(
                loss.mu / loss.p * np.abs(theta[0] - Y) ** loss.p)
        return vals

    return _lbfgsb(objective, lambda t: grad_batch(loss, t, A, Y),
                   np.zeros(d))


def _lbfgsb(fun, jac, x0: np.ndarray) -> np.ndarray:
    """``scipy.optimize.minimize(fun, x0, jac=jac, method="L-BFGS-B",
    tol=1e-14).x``, bit for bit, without importing ``scipy.optimize``.

    Drives scipy's compiled ``setulb`` as scipy 1.17's ``_minimize_lbfgsb``
    does: 10 corrections, 20 line-search steps, no bounds, f and g evaluated
    on a copy of x once per new point (the first at x0, before the loop),
    and a stop after 15000 iterations or evaluations.  Where the compiled
    ``setulb`` is missing or has another signature (the Fortran one before
    scipy 1.15), the public ``minimize`` runs.
    """
    global _setulb
    if _setulb is None:
        _setulb = load_optimize(
            _LBFGSB, "setulb", "minimize",
            lambda f: (f.__doc__ or "").partition("\n")[0] == _SETULB)
    setulb, compiled = _setulb
    if not compiled:
        return setulb(fun, x0, jac=jac, method="L-BFGS-B", tol=1e-14).x

    def evaluate(point):                 # on copies, as scipy's wrappers do
        return point.copy(), fun(point.copy()), np.atleast_1d(
            jac(point.copy()))

    n, m = len(x0), 10
    x = np.array(x0, dtype=np.float64)
    at, fx, gx = evaluate(x)
    f, g, evaluations, iterations = np.array(0.0), np.zeros(n), 1, 0
    lower, upper = np.zeros(n), np.zeros(n)
    nbd, iwa, task, ln_task, lsave, isave = (
        np.zeros(k, np.int32) for k in (n, 3 * n, 2, 2, 4, 44))
    wa, dsave = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(29)
    factr = 1e-14 / np.finfo(float).eps
    while True:
        g = g.astype(np.float64)
        setulb(m, x, lower, upper, nbd, f, g, factr, 1e-14, wa, iwa, task,
               lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:                     # f and g wanted at x
            if not np.array_equal(x, at):
                at, fx, gx = evaluate(x)
                evaluations += 1
            f, g = fx, gx
        elif task[0] == 1:                   # a new iteration
            iterations += 1
            if iterations >= 15000:
                task[:] = 5, 504
            elif evaluations > 15000:
                task[:] = 5, 502
        else:
            return x


def derive_constants(loss: LossModel, dataset: Dataset) -> AssumptionConstants:
    """Conservative constants realizing the assumptions for this pair.

    The supremum over the data space is replaced by the exact maximum over
    the realized dataset (constants are certified per-dataset).  Formulas are
    conservative, not tight; each carries a one-line derivation.
    """
    D, Y = dataset.radius_D, dataset.labels
    E = max_grad_norm(loss, dataset, np.zeros(dataset.dim_d))
    if loss.family in ("Quadratic", "RidgeQuadratic"):
        mu0 = loss.mu0 if loss.family == "RidgeQuadratic" else 0.0
        # Hessian a a^T + mu0 I has norm <= D^2 + mu0
        K1 = D ** 2 + mu0
        # ||(aa^T - bb^T)t - (ay - by')|| <= 2D||x - x'||(||t|| + 1)
        K2 = 2.0 * D
        return AssumptionConstants(K1=K1, K2=K2, mu=mu0, m=mu0,
                                   K=0.0, p=2.0, D=D, E=E)
    if loss.family == "RegularizedSine":
        m0, s = loss.m0, loss.s
        # gradient Jacobian m0 I - s sin(.) a a^T has norm <= m0 + s D^2
        K1 = m0 + s * D ** 2
        # s|cos(u)a - cos(u')a'| <= s(D + 1)||x - x'||(||t|| + 1)
        K2 = s * (D + 1.0)
        # <grad diff, dt> >= m0||dt||^2 - 2sD||dt|| >= (m0/2)||dt||^2 - 2s^2D^2/m0
        m = m0 / 2.0
        K = 2.0 * s ** 2 * D ** 2 / m0
        return AssumptionConstants(K1=K1, K2=K2, mu=0.0, m=m,
                                   K=K, p=2.0, D=D, E=E)
    # ScalarPower: constants certified for parameter separations >= the floor
    # inside the assumption ball, and over the realized label set.
    p, mu = loss.p, loss.mu
    d0 = POWER_SEPARATION_FLOOR
    # |phi(u)-phi(v)| <= 2^{2-p}|u-v|^{p-1} <= 2^{2-p} d0^{(p-2)/2} |u-v|^{p/2}
    # for |u-v| >= d0 (exponent p-1 < p/2 needs the separation floor)
    K1 = mu * 2.0 ** (2.0 - p) * d0 ** ((p - 2.0) / 2.0)
    # label change: |phi(t-y)-phi(t-y')| <= mu 2^{2-p}|y-y'|^{p-1}; divide by
    # the smallest distinct label gap zeta to land on K2||x-x'||
    gaps = np.abs(Y[:, None] - Y[None, :])
    distinct = gaps[gaps > 0]
    zeta = float(np.min(distinct)) if distinct.size else 1.0
    K2 = mu * 2.0 ** (2.0 - p) * max(1.0, zeta ** (p - 2.0))
    # (phi(u)-phi(v))(u-v) >= (p-1)|u-v|^2 (u^2+v^2)^{(p-2)/2}; on the ball
    # |u|,|v| <= U with |u-v| >= d0 this gives modulus (p-1)(d0/2U)^{2-p}
    U = ASSUMPTION_BALL_RADIUS + float(np.max(np.abs(Y)))
    mu_eff = (p - 1.0) * mu * min(1.0, (d0 / (2.0 * U)) ** (2.0 - p))
    return AssumptionConstants(K1=K1, K2=K2, mu=mu_eff, m=0.0,
                               K=0.0, p=p, D=D, E=E)


def check_assumptions(loss: LossModel, dataset: Dataset,
                      constants: AssumptionConstants, n_samples: int,
                      seed: int) -> dict:
    """Random-sample audit of the assumption inequalities.

    Samples theta_1, theta_2 from a ball of radius 10 and x, x_hat from the
    dataset, evaluates every inequality the family's regime claims, and
    reports the violation count plus the worst signed margin (positive =
    satisfied).  For ScalarPower, pairs closer than the certified separation
    floor are skipped (constants are certified away from the diagonal).

    Each sample draws standard_normal(d), random(), standard_normal(d),
    random(), integers(n), integers(n) on one Philox stream; all
    3 * n_samples gradients are lanes of one ``grad_batch`` call.
    """
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    rng = _stream(seed)
    d, n = dataset.dim_d, dataset.n
    thetas, radii = np.empty((n_samples, 2, d)), np.empty((n_samples, 2))
    ij = np.empty((n_samples, 2), dtype=np.int64)
    for s in range(n_samples):
        for c in range(2):
            thetas[s, c] = rng.standard_normal(d)
            radii[s, c] = ASSUMPTION_BALL_RADIUS * rng.random() ** (1 / d)
        ij[s] = rng.integers(n), rng.integers(n)
    thetas *= (radii / _norms(thetas))[..., None]
    t1, t2 = thetas[:, 0], thetas[:, 1]
    rows = ij[:, [0, 0, 1]]
    g = grad_batch(loss, thetas[:, [0, 1, 1]],
                   dataset.features[rows][..., None, :],
                   dataset.labels[rows][..., None])
    g1x, g2x, g2xh = g[:, 0], g[:, 1], g[:, 2]
    points = np.column_stack([dataset.features, dataset.labels])
    dx = _norms(points[ij[:, 0]] - points[ij[:, 1]])
    sep = _norms(t1 - t2)
    p, mu, m = constants.p, constants.mu, constants.m
    theta_exp, data_exp = (p / 2.0, p - 1.0) if p < 2.0 else (1.0, 1.0)
    # pseudo-Lipschitz / Hoelder gradient bound
    lhs = _norms(g1x - g2xh)
    rhs = constants.K1 * _scalar_pow(sep, theta_exp) + constants.K2 * dx * (
        _scalar_pow(_norms(t1), data_exp)
        + _scalar_pow(_norms(t2), data_exp) + 1.0)
    margins = [rhs - lhs]
    inner = ((g1x - g2x)[:, None, :] @ (t1 - t2)[:, :, None])[:, 0, 0]
    if p == 2.0 and mu > 0:
        margins.append(inner - mu * _scalar_pow(sep, 2))
    if m > 0:
        margins.append(inner - (m * _scalar_pow(sep, 2) - constants.K))
    if p < 2.0:
        margins.append(inner - mu * _scalar_pow(sep, p))
    worst = np.min(margins, axis=0)[~((p < 2.0)
                                      & (sep < POWER_SEPARATION_FLOOR))]
    tol = 1e-9  # floating-point slack on inequalities expected to be tight
    return {"violations": int(np.count_nonzero(worst < -tol)),
            "worst_margin": float(np.min(worst, initial=np.inf)),
            "checked": int(worst.size)}
