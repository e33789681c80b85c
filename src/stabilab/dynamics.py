"""SGD and noisy-SGD recursions with synchronous coupling.

The coupled pair runs both chains (base and perturbed dataset) with
identical minibatch index sequences and identical noise draws at every
step, so the pathwise distance upper-bounds the Wasserstein distance
between the two iterate laws.

One engine, :func:`run_lanes`, runs every multi-step simulation.  It
advances L coupled pairs ("lanes", one per replica) as a single
``(L, 2, d)`` state array with one lane-vectorized gradient per step, for
both pairings: two datasets from one start (:func:`run_ensemble`) and one
dataset from two starts (``verify.check_contraction``).  The scalar
:func:`step` is the reference path the engine is tested against.  On one
dataset, chains that reach one state coalesce (Propp & Wilson, *Exact
sampling with coupled Markov chains*, 1996): the engine stops once every
live lane's have and no checkpoint lies ahead.

The engine's cost is a fixed handful of small numpy calls per step, so
everything that can be done once is.  The loss's gradient kernel
(``model.grad_kernel``) is bound once per run to buffers for the
``(L, 2)`` lanes.  Every lane's minibatches are drawn a few times per run
(see :class:`_IndexStreams`), and per block of steps its noise is drawn
into a step-major ``(rows, L, 1, d)`` buffer scaled by eta in place.  Per
sub-block, the minibatches' features and labels are gathered with
``np.take`` into fixed step-major buffers.  Every view a step touches is
built once per run (theta_s, theta_{s+1}, theta_s's column, eta * xi_s,
and each sub-block row's A_j, A_j^T and Y_j), so a step is one kernel call
and three in-place ufunc calls, ``g *= eta``, ``theta_{s+1} = theta_s - g``
and ``theta_{s+1} += eta * xi_s``, with no indexing, checks or temporaries.

Stream layout v3 (``STREAM_VERSION``)
-------------------------------------
Randomness is counter-based: every generator is ``model._stream(seed,
*key)``, Philox keyed by a seed and a spawn key, so replicas are
independent and order-independent by construction, and both chains of a
pair consume the same streams structurally rather than incidentally.
:func:`run_lanes` builds its lanes' streams with ``model._streams``, the
same generators from one vectorized hash of their keys.  Keys:

* ``(replica_id, 0)`` and ``(replica_id, 1)``: a replica's minibatches and
  noise in :func:`run_lanes`, under ``sgd.master_seed`` or a contraction
  certificate's seed;
* ``()`` and ``(0, 1)``: a :class:`MinibatchSource`'s minibatches and
  noise, under ``bound.rho_seed`` or a drift or kernel-gap certificate's;
* ``()``: ``model``'s dataset points, neighbour point and assumption audit,
  under ``dataset.seed``, ``neighbor.seed`` and the audit's seed.

Each stream yields the same values however its steps are split into draws:

* Minibatch s of a stream is the values of one ``integers(0, highs)``
  with ``highs = [n-b+1, ..., n]`` and n <= 2**32, so its draw t is
  uniform on [0, n-b+t], followed by Floyd's selection (Bentley & Floyd,
  *Programming pearls: a sample of brilliance*, CACM 1987): a draw already
  picked in its row becomes n-b+t.  Each row is a uniform b-subset of
  range(n), in the order picked.  The engine calls no ``integers``: it
  reads the stream's 32-bit words from ``random_raw``, the low half of each
  64-bit word first, and maps word w to (w * high) >> 32 by Lemire's
  multiply-shift (Lemire, *Fast random integer generation in an interval*,
  ACM TOMACS 2019), taking the next word where the product's low half is
  below (2**32 - high) % high; a bound of 1 reads no word.  That is how
  numpy's ``integers`` maps the same words, so the values are the ones it
  returns, and a word left over at the end of a refill opens the next.
* Noise for a block of c steps is ``standard_normal((c, d)) * scale`` or
  ``laplace(0, scale, (c, d))``, equal to c per-step draws.

A block holds about ``_BLOCK_ELEMENTS`` draws across all lanes (in
:func:`run_lanes` at most k_max and ``_BLOCK_STEPS`` steps).  A refill of
the minibatch buffer holds the rows the caller will still read, at most
about ``_BLOCK_ELEMENTS`` indices across all lanes, but at least
``_LANE_DRAW_INDICES`` a lane (a lane's refill costs a few numpy calls
whatever its size), and never more than ``_DRAW_INDICES`` in all.  At R =
16 and b = 4 that is 1,024 rows a lane, so deep-noisy's ensemble makes 10
calls a lane; wide-quadratic's R = 1024, k_max = 100 and certify-grid's R
= 64, k_max = 500 make one.  A refill holds the buffer being read, the new
one and ``_floyd``'s column-major copy of it, so the transient memory does
not grow with k_max: tracemalloc measured peaks of 3.3 MiB at R = 16, d =
16 and b = 4 for k_max from 2,000 to 40,000, 4.4 MiB at R = 64, k_max =
500 and b = 4, and 9.3 MiB at R = 1024, k_max = 100 and b = 8.  Many lanes
still reach the ``_DRAW_INDICES`` cap (4 MiB of int32): 16.3 MiB at R =
1024 and k_max = 1000.

Every average over the minibatch law outside the engine (the contraction
factor and E||q|| of ``bounds``, the drift and kernel-gap certificates of
``verify``) runs over one :class:`MinibatchSource`.  In Monte-Carlo mode it
reads consecutive minibatches in the same blocks, and one
:meth:`NoiseModel.draw_block` of noise per block.

Earlier layouts: v2 replayed numpy's ``choice(n, b, replace=False)`` word
for word (Floyd's selection then a Fisher-Yates shuffle, or a shuffle of
``arange(n)`` for n > 10000 and b > n // 50), so every ensemble and every
Monte-Carlo average changed value from v2 to v3, while the noise did not.
v1 drew each Monte-Carlo drift sample's noise from the minibatch stream,
right after its minibatch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (Dataset, LossModel, NeighborPair, _mean_stderr, _norms,
                    _stream, _streams, grad_batch, grad_kernel)

# version of the random-stream layout described in the module docstring
STREAM_VERSION = 3

# stream tags for the counter-based generators
_STREAM_MINIBATCH = 0
_STREAM_NOISE = 1

# a lane diverges once an iterate norm is not <= this (NaN included)
DIVERGENCE_GUARD = 1e12

EXACT_ENUMERATION_CAP = 20000

# draws held per block across all lanes
_BLOCK_ELEMENTS = 1 << 16
# steps per run_lanes block at most: its views take about 0.5 KB a step
_BLOCK_STEPS = 1 << 12
# minibatch indices one refill draws at most across all lanes, 4 MB at
# int32: one refill a run for an R = 1024, k = 100 ensemble at b = 8
_DRAW_INDICES = 1 << 20
# minibatch indices one lane's random_raw call draws at least, within that
# cap, where a block's worth across all lanes would be fewer
_LANE_DRAW_INDICES = 1 << 12
# words a rejected lane's replay maps per pass
_REPLAY_WORDS = 1 << 10

NOISE_KINDS = ("none", "gaussian_diag", "laplace")


@dataclass(frozen=True)
class SGDConfig:
    eta: float
    batch_b: int
    k_max: int
    theta0: np.ndarray
    master_seed: int

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.batch_b < 1:
            raise ValueError("batch_b must be >= 1")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        object.__setattr__(
            self, "theta0", np.asarray(self.theta0, dtype=float))


@dataclass(frozen=True)
class NoiseModel:
    """Additive per-step noise: none, diagonal Gaussian, or Laplace."""

    kind: str = "none"                      # none | gaussian_diag | laplace
    scale: tuple = ()                       # per-coordinate std / scale

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        object.__setattr__(self, "scale", tuple(float(s) for s in self.scale))
        if self.kind != "none" and any(s <= 0 for s in self.scale):
            raise ValueError("noise scales must be positive")
        object.__setattr__(self, "_scales", np.array(self.scale))

    @property
    def sigma2(self) -> float:
        """E||xi||^2, the trace of the noise covariance."""
        # Laplace(scale b) has variance 2 b^2 per coordinate
        per = {"none": 0.0, "gaussian_diag": 1.0, "laplace": 2.0}[self.kind]
        return float(sum(per * s ** 2 for s in self.scale))

    def draw(self, rng: np.random.Generator) -> np.ndarray | None:
        block = self.draw_block(rng, 1)
        return None if block is None else block[0]

    def draw_block(self, rng: np.random.Generator, rows: int
                   ) -> np.ndarray | None:
        """Noise of ``rows`` consecutive steps, shape (rows, d): the same
        values as ``rows`` calls of :meth:`draw`."""
        if self.kind == "none":
            return None
        scale = self._scales
        if self.kind == "gaussian_diag":
            return rng.standard_normal((rows, len(scale))) * scale
        return rng.laplace(0.0, scale, (rows, len(scale)))


@dataclass
class ReplicaResult:
    diverged_at: int | None = None    # first diverged step, None if none

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


@dataclass
class CoupledEnsemble:
    states: np.ndarray        # (R, len(checkpoints), 2, d), from run_lanes
    checkpoints: list
    replicas: list            # ReplicaResult, ordered by replica id

    def clouds_at(self, k: int) -> tuple:
        """(A, B), each (R', d): the base and perturbed iterates at
        checkpoint k of the R' replicas that never diverged."""
        live = [not r.diverged for r in self.replicas]
        i = self.checkpoints.index(k)
        return self.states[live, i, 0], self.states[live, i, 1]

    def any_diverged(self) -> bool:
        return any(r.diverged for r in self.replicas)


def _block_rows(lanes: int, width: int) -> int:
    """Steps per block, so a block holds about _BLOCK_ELEMENTS draws."""
    return max(1, _BLOCK_ELEMENTS // max(lanes * width, 1))


def _blocks(k_max: int, rows: int):
    """Sizes of the consecutive blocks that cover k_max steps."""
    for start in range(0, k_max, rows):
        yield min(rows, k_max - start)


def _floyd(draws: np.ndarray, n: int):
    """Floyd's selection on every row of ``draws`` (rows, b), in place.

    Draw t of a row is uniform on [0, n - b + t]; one already picked in its
    row becomes n - b + t, so every row ends a uniform b-subset of range(n).
    The rows run side by side on a column-major copy: column t is compared
    with the row's t earlier picks, so the cost is quadratic in b and does
    not depend on n.
    """
    b = draws.shape[1]
    cols = draws.T.copy()
    for t in range(1, b):
        cols[t][(cols[:t] == cols[t]).any(axis=0)] = n - b + t
    draws[:] = cols.T


class _IndexStreams:
    """The minibatch streams of several replicas, read block by block.

    The lanes stay in step: one ``(L, rows, b)`` buffer holds every lane's
    drawn minibatches, read from one position.  A block that runs past its
    end refills it with one ``random_raw`` call per lane, sized to the rows
    the caller said it will still read (:meth:`expect`) and capped at about
    ``_BLOCK_ELEMENTS`` indices across all lanes, or ``_LANE_DRAW_INDICES``
    a lane where that is more, and at ``_DRAW_INDICES`` in all.  The
    generators must be fresh: their draws are this object's alone.
    """

    def __init__(self, rngs: list, n: int, b: int):
        if b > n:
            raise ValueError("batch size exceeds dataset size")
        if n > 2 ** 32:
            raise ValueError("a minibatch draw reads one 32-bit word, so the "
                             "dataset size must be at most 2**32")
        self.rngs, self.n, self.b = rngs, n, b
        self.highs = np.arange(n - b + 1, n + 1, dtype=np.uint64)
        # Lemire's rejection threshold of each bound; a bound of 1, the
        # first at b = n, reads no word, and maps a 0 to 0
        self.floor = ((2 ** 32 - self.highs) % self.highs).astype(np.uint32)
        self.skip = int(n == b)
        self.buf = np.empty((len(rngs), 0, b),
                            dtype=np.int32 if n < 2 ** 31 else np.int64)
        # each lane's words drawn and not yet read, copied out of their draw
        self.carry = [np.empty(0, np.uint32)] * len(rngs)
        self.pos = 0
        self.ahead = 0      # rows the caller will still read

    def expect(self, rows: int):
        """Size refills for ``rows`` more rows of every lane."""
        self.ahead = rows

    def _refill(self, rows: int):
        """``rows`` new rows of every lane: its next words in the new
        buffer's own memory, :meth:`_lemire`, then Floyd's selection."""
        b, need = self.b, rows * (self.b - self.skip)
        self.buf = np.empty((len(self.rngs), rows, b), dtype=self.buf.dtype)
        self.buf[..., :self.skip] = 0
        words = self.buf.view(f"u{self.buf.itemsize}")
        for lane, rng in enumerate(self.rngs):
            held = self.carry[lane]
            held = np.concatenate((held, _words(rng, need - len(held))))
            words[lane, :, self.skip:] = held[:need].reshape(rows, -1)
            self.carry[lane] = held[need:].copy()
        self._lemire(words, rows)
        _floyd(self.buf.reshape(-1, b), self.n)

    def _lemire(self, words, rows: int):
        """Map every lane's words (L, rows, b) in place by Lemire's
        multiply-shift, a quarter of ``_BLOCK_ELEMENTS`` at a time (13 bytes
        an element of temporaries), then :meth:`_replay` each lane from its
        first rejected word."""
        replays, width = {}, self.b - self.skip
        flat = words.reshape(-1, self.b)
        step = max(1, _BLOCK_ELEMENTS // 4 // self.b)
        for start in range(0, len(flat), step):
            part = flat[start:start + step]
            m = part.astype(np.uint64)
            m *= self.highs
            bad = m.astype(np.uint32) < self.floor
            for r in np.flatnonzero(bad.any(axis=1)) if bad.any() else ():
                lane, row = divmod(start + r, rows)
                if lane not in replays:     # copy its words while unmapped
                    at = row * width + int(bad[r].argmax()) - self.skip
                    replays[lane] = at, np.concatenate((words[
                        lane, :, self.skip:].reshape(-1)[at + 1:],
                        self.carry[lane]))
            m >>= 32
            part[:] = m
        for lane, (at, held) in replays.items():
            self.carry[lane] = self._replay(words[lane].reshape(-1), at, held,
                                            self.rngs[lane])

    def _replay(self, out, at: int, held, rng) -> np.ndarray:
        """Lemire's rule on a lane's rows ``out`` (flat) from word position
        ``at``, whose word was rejected, on ``held``, the words after it,
        and more drawn as rejections need; returns the words left over."""
        width = self.b - self.skip
        end = len(out) // self.b * width
        while at < end:
            pos = np.arange(at, min(end, at + _REPLAY_WORDS))
            if len(held) < len(pos):
                held = np.concatenate((held, _words(rng, len(pos) -
                                                    len(held))))
            col = self.skip + pos % width
            m = held[:len(pos)].astype(np.uint64) * self.highs[col]
            bad = m.astype(np.uint32) < self.floor[col]
            ok = int(bad.argmax()) if bad.any() else len(pos)
            out[(pos // width * self.b + col)[:ok]] = m[:ok] >> 32
            at += ok
            held = held[ok + (ok < len(pos)):]
        return held.copy()

    def next_rows(self, rows: int) -> np.ndarray:
        """The next ``rows`` minibatches of every lane, shape (L, rows, b)."""
        held = self.buf[:, self.pos:self.pos + rows]
        self.pos += rows
        self.ahead -= rows
        short = rows - held.shape[1]
        if short:
            lanes = max(len(self.rngs), 1)
            cap = max(1, min(_DRAW_INDICES // (lanes * self.b),
                             max(_LANE_DRAW_INDICES // self.b,
                                 _block_rows(lanes, self.b))))
            self._refill(max(short, min(short + self.ahead, cap)))
            self.pos = short
            fresh = self.buf[:, :short]
            held = np.concatenate([held, fresh], axis=1) \
                if held.shape[1] else fresh
        return held


def _words(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``rng``, or one more, from one
    ``random_raw``: the low half of each 64-bit word first, as numpy's
    bounded ``integers`` reads them."""
    return rng.bit_generator.random_raw(max(0, count + 1) // 2).astype(
        "<u8", copy=False).view("<u4")


def minibatch_sequence(n: int, b: int, k_max: int, master_seed: int,
                       replica_id: int) -> np.ndarray:
    """The per-step index sets Omega_k, shape (k_max, b), without replacement."""
    return _IndexStreams([_stream(master_seed, replica_id, _STREAM_MINIBATCH)],
                         n, b).next_rows(k_max)[0]


def enumerable(n: int, b: int) -> bool:
    """Whether C(n, b) <= EXACT_ENUMERATION_CAP; C(n, b) >= 2^min(b, n - b)
    decides huge n and b before math.comb, which takes seconds there."""
    return (min(b, n - b) < EXACT_ENUMERATION_CAP.bit_length()
            and math.comb(n, b) <= EXACT_ENUMERATION_CAP)


def minibatches(n: int, b: int) -> np.ndarray:
    """All minibatches of range(n), shape (C(n, b), b), in the order of
    ``itertools.combinations``; ValueError above EXACT_ENUMERATION_CAP."""
    if b > n:
        raise ValueError("batch size exceeds dataset size")
    if not enumerable(n, b):
        raise ValueError(f"C({n},{b}) minibatches exceed the exact-"
                         f"enumeration cap {EXACT_ENUMERATION_CAP}; use "
                         "monte_carlo mode")
    total = math.comb(n, b)
    return np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), b)), dtype=np.int64,
        count=total * b).reshape(total, b)


class MinibatchSource:
    """The minibatches that averages over the minibatch law run over.

    ``exact`` mode: every minibatch (:func:`minibatches`) for every average,
    without noise.  ``monte_carlo`` mode: consecutive minibatches of
    ``_stream(seed)``, each one bounded draw per index and Floyd's
    selection, and noise from ``_stream(seed, 0, _STREAM_NOISE)`` (stream
    layout v3), carrying on from one average to the next.
    Blocking changes no value: the streams are block-invariant, and a
    lane's gradient does not depend on the other lanes in its call.
    """

    def __init__(self, n: int, b: int, mode: str, seed: int = 0,
                 noise: NoiseModel = NoiseModel()):
        if mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "exact" and noise.kind != "none":
            raise ValueError("exact mode enumerates the noiseless kernel")
        self.exact = minibatches(n, b) if mode == "exact" else None
        if self.exact is None:
            self.index = _IndexStreams([_stream(seed)], n, b)
            self.noise, self.noise_rng = noise, _stream(seed, 0, _STREAM_NOISE)

    def blocks(self, count: int, width: int):
        """One average's (minibatches, noise or None), in blocks of about
        ``_BLOCK_ELEMENTS`` numbers at ``width`` a minibatch: the next
        ``count`` rows, or in exact mode every minibatch."""
        rows = _block_rows(1, width)
        if self.exact is not None:
            for start in range(0, len(self.exact), rows):
                yield self.exact[start:start + rows], None
            return
        self.index.expect(count)
        for size in _blocks(count, rows):
            yield (self.index.next_rows(size)[0],
                   self.noise.draw_block(self.noise_rng, size))

    def average(self, f, count: int, width: int) -> tuple:
        """(mean, standard error) of ``f(rows, noise)``, one value per
        minibatch, over :meth:`blocks`; the error is 0 in exact mode."""
        return self.averages(lambda rows, xis: (f(rows, xis),), count,
                             width)[0]

    def averages(self, f, count: int, width: int) -> list:
        """:meth:`average` of each of the arrays that ``f(rows, noise)``
        returns, over one pass of :meth:`blocks`."""
        return [tuple(map(float, _mean_stderr(np.concatenate(vals),
                                              self.exact is None)))
                for vals in zip(*(f(rows, xis) for rows, xis
                                  in self.blocks(count, width)))]


def step(loss: LossModel, dataset: Dataset, theta: np.ndarray,
         omega: np.ndarray, eta: float, xi: np.ndarray | None = None
         ) -> np.ndarray:
    """One recursion step: theta - (eta/b) sum_{i in omega} grad f (+ eta*xi);
    leading axes of omega (..., b) and xi (..., d) step many lanes at once."""
    omega = np.asarray(omega, dtype=np.int64)
    if omega.size == 0:
        raise ValueError("omega must be nonempty")
    g = grad_batch(loss, np.asarray(theta, dtype=float),
                   dataset.features[omega], dataset.labels[omega])
    out = theta - eta * g
    if xi is not None:
        out = out + eta * np.asarray(xi, dtype=float)
    return out


class LaneRun(NamedTuple):
    states: np.ndarray        # (L, len(checkpoints), 2, d)
    diverged_at: np.ndarray   # (L,) first diverged step, k_max + 1 if none
    distances: np.ndarray | None   # (L, k_max + 1), NaN once diverged
    steps: int                # steps run, k_max unless stepping stopped


def run_lanes(loss: LossModel, datasets, starts, config: SGDConfig,
              noise: NoiseModel, replica_ids, checkpoints=(),
              distances: bool = False) -> LaneRun:
    """Advance one coupled pair per replica id as one (L, 2, d) state array.

    Chain c of every lane runs on ``datasets[c]`` from ``starts[c]``; both
    chains of a lane share that replica's minibatch and noise streams.
    ``states[:, i]`` holds the lanes at step ``checkpoints[i]``.  A
    lane diverges at the first step where either chain's norm is not
    <= DIVERGENCE_GUARD (NaN included); it is frozen from then on and its
    states at later checkpoints are meaningless.  With ``distances`` the
    chain distance ||theta_k - theta_tilde_k|| is kept at every step.
    Stepping stops once every lane has diverged, or, with one dataset object
    for both chains and no checkpoint ahead, once every live lane's chains
    are equal bit for bit (as uint64: -0.0 is not 0.0), checked before each
    block and after each sub-block.  Such chains get the same rows, noise and
    operations, so every later distance is 0; whether their common chain
    would later diverge is not observed.

    The guard is checked once per block of steps: every lane runs the block
    unguarded into a buffer, then one vectorized check finds each lane's
    first failing step and rolls the lane back to its last good state from
    that step on.  States, divergence steps and distances are the same as
    with a check after every step.
    """
    replica_ids = list(replica_ids)
    lanes, k_max, eta = len(replica_ids), config.k_max, config.eta
    n = datasets[0].n
    # both chains' data stacked, so one index gathers a lane's two minibatches
    features = np.concatenate([ds.features for ds in datasets])
    labels = np.concatenate([ds.labels for ds in datasets])
    chain_offset = n * np.arange(2)[:, None]
    start = np.array(starts, dtype=float)[None].repeat(lanes, axis=0)
    index = _IndexStreams(_streams(config.master_seed, replica_ids,
                                   _STREAM_MINIBATCH), n, config.batch_b)
    index.expect(k_max)
    noise_rngs = [] if noise.kind == "none" else _streams(
        config.master_seed, replica_ids, _STREAM_NOISE)
    checkpoints = np.array(list(checkpoints), dtype=np.int64)
    saved = np.full((lanes, len(checkpoints)) + start.shape[1:], np.nan)
    dist = np.full((lanes, k_max + 1), np.nan) if distances else None
    diverged_at = np.full(lanes, k_max + 1)
    # the first step at which stepping may stop on coalescence
    settle = checkpoints.max(initial=0) if datasets[0] is datasets[1] \
        else k_max + 1

    def coalesced(state, at):
        """Whether stepping may stop at step ``at`` on ``state`` (L, 2, d)."""
        if at < settle:
            return False
        bits = state.view(np.uint64)
        return bool((bits[live, 0] == bits[live, 1]).all())

    def record(block, first):
        """Keep the checkpoints and distances of steps first, first + 1, ..."""
        hit = (checkpoints >= first) & (checkpoints < first + len(block))
        saved[:, hit] = block[checkpoints[hit] - first].swapaxes(0, 1)
        if dist is not None:
            dist[:, first:first + len(block)] = _norms(
                block[:, :, 0] - block[:, :, 1]).T

    b, d = config.batch_b, start.shape[-1]
    rows = min(_block_rows(lanes, max(b, d)), max(k_max, 1),
               _BLOCK_STEPS)
    # steps per sub-block, whose gathered minibatches (both chains' b rows
    # of d features per lane and step) hold about _BLOCK_ELEMENTS numbers
    sub = min(rows, _block_rows(lanes, 2 * b * d))
    grad = grad_kernel(loss, (lanes, 2), b, d)
    A = np.empty((sub, lanes, 2, b, d))
    Y = np.empty((sub, lanes, 2, b))
    # eta * xi of every step and lane, the products a step would take
    kicks = np.empty((rows, lanes, 1, d)) if noise_rngs else None
    # row 0 holds the state before the block, row s + 1 the state after its
    # step s
    steps = np.empty((rows + 1,) + start.shape)
    steps[0] = start
    # every view a step touches, built once: theta_s and its column, eta *
    # xi_s (None without noise), and a sub-block row's A_j, A_j^T and Y_j
    thetas = list(zip(steps, steps[..., None]))
    kick_at = [None] * rows if kicks is None else list(kicks)
    in_sub = list(zip(A, A.swapaxes(-1, -2), Y))
    with np.errstate(over="ignore", invalid="ignore"):
        live = (_norms(start) <= DIVERGENCE_GUARD).all(axis=-1)
        diverged_at[~live] = 0
        record(steps[:1], 0)
        k = 0
        for size in _blocks(k_max, rows):
            if not live.any() or coalesced(steps[0], k):
                break
            # (step, lane, chain, b) indices into the stacked data
            rows_at = index.next_rows(size).swapaxes(0, 1)[:, :, None, :] \
                + chain_offset
            if kicks is not None:
                for lane, rng in enumerate(noise_rngs):
                    kicks[:size, lane, 0] = noise.draw_block(rng, size)
                kicks[:size] *= eta
            # a failed lane steps on (to inf or NaN, quietly) until the
            # block ends and it is rolled back
            for lo in range(0, size, sub):
                part = rows_at[lo:lo + sub]
                # in range by construction; "clip" gathers without the
                # bounds-checked copy that "raise" makes through out=
                np.take(features, part, axis=0, out=A[:len(part)],
                        mode="clip")
                np.take(labels, part, out=Y[:len(part)], mode="clip")
                for (theta, column), (after, _), kick, (a, at, y) in zip(
                        thetas[lo:], thetas[lo + 1:], kick_at[lo:],
                        in_sub[:len(part)]):
                    g = grad(theta, column, a, at, y)
                    g *= eta
                    np.subtract(theta, g, out=after)
                    if kick is not None:
                        np.add(after, kick, out=after)
                end = lo + len(part)
                if end < size and coalesced(steps[end], k + end):
                    size = end      # guarded below; the next check stops
                    break
            block = steps[1:size + 1]
            ok = (_norms(block) <= DIVERGENCE_GUARD).all(axis=-1)
            failed = live & ~ok.all(axis=0)
            first = np.argmin(ok, axis=0)
            diverged_at[failed] = k + 1 + first[failed]
            # each lane's last good row: the one before its first failing
            # step, row 0 for a lane frozen before the block
            good = np.where(failed, first, np.where(live, size, 0))
            live &= ~failed
            held = np.flatnonzero(good < size)
            if held.size:
                at = np.minimum(np.arange(size + 1)[:, None], good[held])
                steps[:size + 1, held] = steps[at, held]
            record(block, k + 1)
            steps[0] = steps[size]
            k += size
    # every lane is frozen once the loop ends early
    saved[:, checkpoints > k] = steps[0][:, None]
    if dist is not None:
        dist[:, k + 1:] = 0     # past k, every live lane has coalesced
        dist[np.arange(k_max + 1) >= diverged_at[:, None]] = np.nan
    return LaneRun(saved, diverged_at, dist, k)


def run_ensemble(loss: LossModel, pair: NeighborPair, config: SGDConfig,
                 noise: NoiseModel, R: int, checkpoints=None
                 ) -> CoupledEnsemble:
    """R independent coupled pairs, replica ids 0..R-1, both chains from
    ``config.theta0``; deterministic given master_seed."""
    if R < 1:
        raise ValueError("R >= 1 required")
    checkpoints = sorted(set(
        checkpoints if checkpoints is not None else [config.k_max]))
    if checkpoints and checkpoints[-1] > config.k_max:
        raise ValueError("checkpoint beyond k_max")
    run = run_lanes(loss, (pair.base, pair.perturbed),
                    (config.theta0, config.theta0), config, noise, range(R),
                    checkpoints)
    return CoupledEnsemble(run.states, checkpoints, [
        ReplicaResult(int(end) if end <= config.k_max else None)
        for end in run.diverged_at])
