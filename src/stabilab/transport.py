"""Empirical Wasserstein estimators between equal-size sample clouds.

Three estimators: the exact order-statistics formula in one dimension, an
exact minimum-cost perfect matching for general dimension, and the
coupled-pair upper bound (any coupling upper-bounds the infimum, so the
pathwise mean of the coupled chains dominates the true distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _BLOCK_ELEMENTS
from .model import _mean_stderr, _norms
from .solvers import load_optimize

ASSIGNMENT_CAP = 1024

_LSAP = "scipy.optimize._lsap"
_lsap = None   # scipy's linear_sum_assignment, loaded on the first matching


@dataclass(frozen=True)
class TransportEstimate:
    value: float
    p: float
    method: str            # exact_1d | assignment | coupled
    n_samples: int
    stderr: float = 0.0    # standard error of the p-th-power mean (coupled)
    power_mean: float = 0.0  # mean of the p-th powers (W_p^p plug-in)


def _clouds(A, B) -> tuple:
    """A and B as float (N, d) clouds, a 1-D cloud as one column; they must
    have equal shapes, N >= 1 and finite points."""
    A, B = (np.asarray(c, dtype=float) for c in (A, B))
    A, B = (c[:, None] if c.ndim == 1 else c for c in (A, B))
    if A.shape != B.shape:
        raise ValueError("clouds must have equal shapes")
    if len(A) < 1:
        raise ValueError("empty sample cloud")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("sample cloud contains non-finite points")
    return A, B


def _estimate(method: str, p: float, powers: np.ndarray) -> TransportEstimate:
    """(mean)^{1/p} of per-sample p-th powers, with the plug-in standard
    error of the mean: the statistical margin of dominance checks."""
    power_mean, stderr = map(float, _mean_stderr(powers))
    return TransportEstimate(value=power_mean ** (1.0 / p), p=p,
                             method=method, n_samples=len(powers),
                             stderr=stderr, power_mean=power_mean)


def wasserstein_exact_1d(p: float, A, B) -> TransportEstimate:
    """Exact W_p between equal-size 1-D clouds via sorted samples."""
    A, B = _clouds(A, B)
    if A.shape[1] != 1:
        raise ValueError("exact_1d requires d = 1")
    diffs = np.abs(np.sort(A[:, 0]) - np.sort(B[:, 0]))
    return _estimate("exact_1d", p, diffs ** p)


def _load_lsap():
    """scipy's compiled ``linear_sum_assignment``, or the public one where
    its extension file is missing or does not load."""
    return load_optimize(_LSAP, "linear_sum_assignment",
                         "linear_sum_assignment")[0]


def _distance_cost(p: float, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^p for every pair, bit for bit ``cdist(A, B) ** p``: the
    squared coordinate differences summed left to right, then the root.
    Fills the one (N, N) cost in blocks of ``_BLOCK_ELEMENTS // N`` rows
    with one block of scratch: 8 MB plus 0.5 MB at the assignment cap."""
    N, d = A.shape
    cost = np.empty((N, len(B)))
    rows = max(1, _BLOCK_ELEMENTS // len(B))
    diff = np.empty((min(rows, N), len(B)))
    for lo in range(0, N, rows):
        block = cost[lo:lo + rows]
        scratch = diff[:len(block)]
        np.subtract.outer(A[lo:lo + rows, 0], B[:, 0], out=block)
        block *= block
        for j in range(1, d):
            np.subtract.outer(A[lo:lo + rows, j], B[:, j], out=scratch)
            scratch *= scratch
            block += scratch
        np.sqrt(block, out=block)
        if p != 1:
            block **= p
    return cost


def wasserstein_assignment(p: float, A, B) -> TransportEstimate:
    """Exact W_p between equal-size clouds via minimum-cost perfect matching.

    Before matching, the cost |a_i - b_j|^p is reduced by the linear
    Kantorovich potential of the mean shift t = mean(b - a):
    u_i + v_j = <g, b_j - a_i> with g = p |t|^(p-1) t / |t|, the gradient
    of |x|^p at t.  Every perfect matching's total moves by the same
    constant, so the optimal matching does not change.  For p >= 1 the
    potential is dual-feasible up to a constant, by convexity of |x|^p, and
    it is optimal when B is a translate of A; on synchronously coupled
    clouds, where B is close to A + t, the solver's shortest augmenting
    paths end sooner.  It is used only when |t|, a lower bound on W_1, is
    at least half the row pairing's mean distance mean_i |b_i - a_i|, an
    upper bound on W_1: the shift then carries most of the transport.  On
    independent clouds |t| is a few per cent of that distance, and at
    p = 1 the potential's slope |g| = 1, whatever |t|, slows the solver.
    """
    global _lsap
    A, B = _clouds(A, B)
    N = A.shape[0]
    if N > ASSIGNMENT_CAP:
        raise ValueError(
            f"cloud size {N} exceeds the assignment cap {ASSIGNMENT_CAP}; "
            "subsample before calling")
    cost = _distance_cost(p, A, B)
    moves = B - A
    shift = moves.mean(axis=0)
    size = float(np.linalg.norm(shift))
    if size > 0 and 2.0 * size >= np.linalg.norm(moves, axis=1).mean():
        g = p * size ** (p - 1) * shift / size
        cost += (A @ g)[:, None]
        cost -= B @ g
    if _lsap is None:
        _lsap = _load_lsap()
    rows, cols = _lsap(cost)
    # the matched costs are recomputed pair by pair: the cost matrix sums
    # the coordinates left to right, np.linalg.norm pairwise from d = 8 on,
    # and the reduced costs hold the potential
    return _estimate("assignment", p,
                     np.linalg.norm(A[rows] - B[cols], axis=1) ** p)


def coupled_upper_bound(p: float, A, B) -> TransportEstimate:
    """Upper bound on W_p from coupled clouds, row i of A coupled with row i
    of B: (mean ||a_i - b_i||^p)^{1/p}.

    Also reports the Monte-Carlo standard error of the p-th-power mean.
    """
    A, B = _clouds(A, B)
    return _estimate("coupled", p, _norms(A - B) ** p)
