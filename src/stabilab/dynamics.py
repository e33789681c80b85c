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
:func:`step` is the reference path the engine is tested against.

The engine's cost is a fixed handful of small numpy calls per step, so
everything that can be done once is.  The loss's gradient kernel
(``model.grad_kernel``) is bound once per run to buffers for the
``(L, 2)`` lanes.  Per block of steps, every lane's minibatches are
replayed at once (column-major, see :func:`_floyd_shuffle`), and its noise
is drawn into a step-major ``(rows, L, 1, d)`` buffer scaled by eta in
place.  Per sub-block, the minibatches' features and labels are gathered
with ``np.take`` into fixed step-major buffers.  Every view a step touches
is built once per run (theta_s, theta_{s+1}, theta_s's column, eta * xi_s,
and each sub-block row's A_j, A_j^T and Y_j), so a step is one kernel call
and three in-place ufunc calls, ``g *= eta``, ``theta_{s+1} = theta_s - g``
and ``theta_{s+1} += eta * xi_s``, with no indexing, checks or temporaries.

Stream layout v2 (``STREAM_VERSION``)
-------------------------------------
Randomness is counter-based: every stream is a Philox generator keyed by
(master_seed, replica_id, stream_tag), tag 0 for minibatch indices and tag 1
for noise, so replicas are independent and order-independent by
construction, and both chains of a pair consume the same streams
structurally rather than incidentally.  The engine draws each stream in
blocks of steps and reproduces, bit for bit, one
``Generator.choice(n, b, replace=False)`` and one :meth:`NoiseModel.draw`
per step:

* Minibatches come from each replica's ``bit_generator.random_raw``
  words.  Each 64-bit word splits into two 32-bit words, low half first,
  and the words are consumed in order, each once, whatever the blocks.
  They wait in a buffer per replica, which a few ``random_raw`` calls per
  run refill (see :class:`_IndexStreams`); the buffer changes no word and
  no order, so the layout is the same as with one call per block.
  Every row replays numpy's algorithm on those words: Floyd's selection
  (for j = n-b .. n-1 a Lemire-bounded draw on [0, j], taking j itself on a
  duplicate; j = 0 draws nothing), then a Lemire Fisher-Yates shuffle of
  the b picks (draws on [0, i] for i = b-1 .. 1).  A block in which a Lemire
  draw is rejected is replayed word by word for that replica.  For (n, b)
  where numpy shuffles the tail of ``arange(n)`` instead (n > 10000 and
  b > n // 50) or needs draws wider than 32 bits, the rows are drawn with
  ``Generator.choice`` itself.
* Noise for a block of c steps is ``standard_normal((c, d)) * scale`` or
  ``laplace(0, scale, (c, d))``, equal to c per-step draws.

A block holds about ``_BLOCK_ELEMENTS`` draws across all lanes (in
:func:`run_lanes` at most k_max and ``_BLOCK_STEPS`` steps), and the
minibatch buffers at most ``_REFILL_WORDS`` words plus a block's, so the
transient memory stays near a few MB whatever R and k_max are.

Every average over the minibatch law outside the engine (the contraction
factor and E||q|| of ``bounds``, the drift and kernel-gap certificates of
``verify``) runs over one :class:`MinibatchSource`.  In Monte-Carlo mode it
replays consecutive ``choice(n, b, replace=False)`` rows of one
``Philox(SeedSequence(seed))`` stream in the same blocks, and draws noise
from a second stream, ``_stream(seed, 0, _STREAM_NOISE)``, one
:meth:`NoiseModel.draw_block` per block.

v2 differs from v1 only in where that noise comes from: v1 drew each drift
sample's minibatch and then its noise from the one minibatch stream.  So
noisy Monte-Carlo drift certificates changed value from v1 to v2, while
noiseless ones (which drew no noise words), the ensemble and every other
certificate are unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (Dataset, LossModel, NeighborPair, _mean_stderr, _norms,
                    grad_batch, grad_kernel)

# version of the random-stream layout described in the module docstring
STREAM_VERSION = 2

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
# 32-bit minibatch words one refill draws at most across all lanes: 2^18
# 64-bit draws, 2 MB
_REFILL_WORDS = 8 * _BLOCK_ELEMENTS

_MASK32 = np.uint64(0xFFFFFFFF)

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


def _stream(master_seed: int, replica_id: int, tag: int) -> np.random.Generator:
    ss = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=(int(replica_id), int(tag)))
    return np.random.Generator(np.random.Philox(ss))


def _block_rows(lanes: int, width: int) -> int:
    """Steps per block, so a block holds about _BLOCK_ELEMENTS draws."""
    return max(1, _BLOCK_ELEMENTS // max(lanes * width, 1))


def _blocks(k_max: int, rows: int):
    """Sizes of the consecutive blocks that cover k_max steps."""
    for start in range(0, k_max, rows):
        yield min(rows, k_max - start)


def _lemire(next_word, bound: int) -> int:
    """numpy's Lemire draw on [0, bound] from 32-bit words (bound < 2**32-1)."""
    if bound == 0:
        return 0
    excl = bound + 1
    m = next_word() * excl
    if (m & 0xFFFFFFFF) < excl:
        threshold = (2 ** 32 - excl) % excl
        while (m & 0xFFFFFFFF) < threshold:
            m = next_word() * excl
    return m >> 32


def _floyd_shuffle(vals: np.ndarray, n: int, b: int) -> np.ndarray:
    """Rows of choice(n, b, replace=False) from their accepted Lemire draws.

    ``vals`` (..., T) holds each row's draws in the order numpy consumes
    them: Floyd's draws for j = n-b .. n-1 (none for j = 0), then the
    shuffle's draws for i = b-1 .. 1.  Returns shape (..., b).

    The work is column-major: draw t of every row is one contiguous row of
    a (T, count) array, and so is pick t of a (b, count) array, so each
    duplicate test and each Fisher-Yates swap is one pass over contiguous
    memory (the swaps through flat take/put).
    """
    lead, T = vals.shape[:-1], vals.shape[-1]
    count = math.prod(lead)
    draws = np.ascontiguousarray(vals.reshape(count, T).T, dtype=np.int64)
    picks = np.empty((b, count), dtype=np.int64)
    col = 0
    for t, j in enumerate(range(n - b, n)):
        if j == 0:
            picks[t] = 0
            continue
        v = draws[col]
        col += 1
        duplicate = (picks[:t] == v).any(axis=0)
        picks[t] = np.where(duplicate, j, v)
    flat = picks.reshape(-1)
    lanes = np.arange(count)
    for i in range(b - 1, 0, -1):
        at = draws[col] * count + lanes
        col += 1
        swapped = flat.take(at)
        flat.put(at, picks[i])
        picks[i] = swapped
    return picks.T.reshape(*lead, b)


class _IndexStreams:
    """The minibatch streams of several replicas, replayed block by block.

    Each lane's drawn 32-bit words wait in one buffer, row ``lane`` of
    ``buf``, from column ``pos[lane]`` up to ``end[lane]``.  A lane that runs
    short is refilled by one ``random_raw`` call, sized to the words the
    caller said it will still read (:meth:`expect`) and capped by
    ``_REFILL_WORDS`` across all lanes.  A refill moves every lane's words
    to column 0, so the lanes read one slice per block until a rejection
    replay moves one of them ahead; until the next refill each lane is then
    gathered from its own column.
    """

    def __init__(self, rngs: list, n: int, b: int):
        if b > n:
            raise ValueError("batch size exceeds dataset size")
        self.rngs, self.n, self.b = rngs, n, b
        # inclusive bounds of one row's draws, in consumption order
        bounds = [j for j in range(n - b, n) if j] + list(range(b - 1, 0, -1))
        self.excl = np.array(bounds, dtype=np.uint64) + np.uint64(1)
        self.threshold = (np.uint64(2 ** 32) - self.excl) % self.excl
        self.replay = n < 2 ** 32 and (n <= 10000 or b <= n // 50)
        self.buf = np.empty((len(rngs), 0), dtype="<u4")
        self.pos = np.zeros(len(rngs), dtype=np.int64)
        self.end = np.zeros(len(rngs), dtype=np.int64)
        self.ahead = 0      # words per lane the caller will still read

    @property
    def width(self) -> int:
        """Words one row consumes when no draw is rejected."""
        return len(self.excl)

    def expect(self, rows: int):
        """Size refills for ``rows`` more rows of every lane."""
        self.ahead = rows * self.width

    def _peek(self, lanes: np.ndarray, count: int) -> np.ndarray:
        """Columns pos .. pos + count - 1 of each lane's buffer row (past a
        lane's end the words are meaningless)."""
        pos = self.pos[lanes]
        if (pos == pos[0]).all():
            p = int(pos[0])
            rows = slice(None) if len(lanes) == len(self.rngs) else lanes
            return self.buf[rows, p:p + count]
        cols = np.minimum(pos[:, None] + np.arange(count),
                          self.buf.shape[1] - 1)
        return self.buf[lanes[:, None], cols]

    def _refill(self, short: np.ndarray, count: int):
        """Top up every lane in ``short`` to at least ``count`` words."""
        lanes = np.arange(len(self.rngs))
        left = self.end - self.pos
        cap = max(1, _REFILL_WORDS // len(lanes))
        fresh = np.maximum(count - left[short],
                           np.minimum(self.ahead - left[short], cap))
        raws = (fresh + 1) // 2
        end = left.copy()
        end[short] += 2 * raws
        keep = self._peek(lanes, int(left.max()))
        width = int(end.max())
        if self.buf.shape[1] < width:
            if self.ahead > width:
                # room for the later refills: a block's leftover plus cap
                width = max(width, cap + count + 1)
            self.buf = np.empty((len(lanes), width), dtype="<u4")
        self.buf[:, :keep.shape[1]] = keep
        for lane, raw in zip(short.tolist(), raws.tolist()):
            # each 64-bit word splits low half first
            self.buf[lane, left[lane]:end[lane]] = \
                self.rngs[lane].bit_generator.random_raw(raw).view("<u4")
        self.pos[:], self.end[:] = 0, end

    def _words(self, lanes: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words of each lane, shape (lanes, count),
        for ``lanes`` ascending: a view of the buffer, valid until the next
        call."""
        if not count or not len(lanes):
            return np.empty((len(lanes), count), dtype="<u4")
        short = lanes[self.end[lanes] - self.pos[lanes] < count]
        if short.size:
            self._refill(short, count)
        words = self._peek(lanes, count)
        self.pos[lanes] += count
        return words

    def _replay_exact(self, lane: int, words: np.ndarray, rows: int
                      ) -> np.ndarray:
        """One lane's block word by word, honouring Lemire rejections."""
        more = iter(lambda: int(self._words(np.array([lane]), 1)[0, 0]), None)
        next_word = itertools.chain(words.tolist(), more).__next__
        out = np.empty((rows, self.b), dtype=np.int64)
        for row in out:
            picks = []
            for j in range(self.n - self.b, self.n):
                v = _lemire(next_word, j)
                picks.append(j if v in picks else v)
            for i in range(self.b - 1, 0, -1):
                k = _lemire(next_word, i)
                picks[i], picks[k] = picks[k], picks[i]
            row[:] = picks
        return out

    def next_rows(self, rows: int) -> np.ndarray:
        """The next ``rows`` minibatches of every lane, shape (L, rows, b)."""
        if not self.replay:
            return np.array([[rng.choice(self.n, size=self.b, replace=False)
                              for _ in range(rows)] for rng in self.rngs],
                            dtype=np.int64).reshape(len(self.rngs), rows,
                                                    self.b)
        lanes = np.arange(len(self.rngs))
        words = self._words(lanes, rows * self.width).reshape(
            len(lanes), rows, self.width)
        self.ahead -= rows * self.width
        m = words * self.excl
        picks = _floyd_shuffle(m >> np.uint64(32), self.n, self.b)
        rejected = np.flatnonzero(
            ((m & _MASK32) < self.threshold).any(axis=(1, 2)))
        # copied out first: a replay's refill overwrites the buffer
        for lane, block in zip(rejected, words[rejected]):
            picks[lane] = self._replay_exact(lane, block.ravel(), rows)
        return picks


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
    without noise.  ``monte_carlo`` mode: consecutive ``choice(n, b,
    replace=False)`` rows of the seed's stream and noise from the second
    stream (stream layout v2), carrying on from one average to the next.
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
            self.index = _IndexStreams([np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed)))], n, b)
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
        vals = np.concatenate([f(rows, xis)
                               for rows, xis in self.blocks(count, width)])
        return tuple(map(float, _mean_stderr(vals, self.exact is None)))


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
    Stepping stops once every lane has diverged.

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
    index = _IndexStreams([_stream(config.master_seed, r, _STREAM_MINIBATCH)
                           for r in replica_ids], n, config.batch_b)
    index.expect(k_max)
    noise_rngs = [] if noise.kind == "none" else [
        _stream(config.master_seed, r, _STREAM_NOISE) for r in replica_ids]
    checkpoints = np.array(list(checkpoints), dtype=np.int64)
    saved = np.full((lanes, len(checkpoints)) + start.shape[1:], np.nan)
    dist = np.full((lanes, k_max + 1), np.nan) if distances else None
    diverged_at = np.full(lanes, k_max + 1)

    def record(block, first):
        """Keep the checkpoints and distances of steps first, first + 1, ..."""
        hit = (checkpoints >= first) & (checkpoints < first + len(block))
        saved[:, hit] = block[checkpoints[hit] - first].swapaxes(0, 1)
        if dist is not None:
            dist[:, first:first + len(block)] = _norms(
                block[:, :, 0] - block[:, :, 1]).T

    b, d = config.batch_b, start.shape[-1]
    rows = min(_block_rows(lanes, max(index.width, d)), max(k_max, 1),
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
            if not live.any():
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
        dist[np.arange(k_max + 1) >= diverged_at[:, None]] = np.nan
    return LaneRun(saved, diverged_at, dist)


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
