"""Differential tests of the replica-batched engine against slow references.

* the minibatch streams against ``stream_oracle.floyd_row``, one
  ``integers`` call and one pick at a time, over several blocks, with and
  without numpy's rejection of a word and at n = 2**32; their uniformity
  and their rows' ranges; the block noise against per-step draws;
* the column-major Floyd selection against ``floyd_pick`` row by row, and
  the draws that the engine reads against Lemire's map of the mask and
  shift split of ``random_raw``;
* the per-run minibatch buffer against the references, with refills inside
  blocks and runs, lane subsets and a word rejection between refills, and
  its ``random_raw`` calls and held indices counted, at each workload's
  ensemble shape;
* refills of about one block across the lanes against the same run, or
  Monte-Carlo averages, forced to one refill, bit for bit; the ensemble's
  tracemalloc peak against k_max, and at wide-quadratic's shape;
* the engine against a loop of scalar ``step`` calls, for every loss family,
  noise kind and chain pairing;
* a replica's result against the size of the ensemble it runs in;
* the block-checked divergence guard against the per-step guard it
  replaced (``run_lanes_per_step``), for lanes that diverge at step 0, at
  step 1, at the first and last step of a block and at a checkpoint, at
  several block budgets;
* the noise worker: a noisy run of many blocks, whose noise a worker thread
  draws one block ahead, against the same run as one block and against the
  per-step guard, bit for bit; ``NoiseModel.fill`` against ``draw_block``;
  the runs that start no thread, and in a fresh interpreter the runs that
  load no ``concurrent.futures``; the worker joined on every exit, an error
  from the observer or from a fill raised unchanged; concurrent runs under a
  short switch interval.
"""

import copy
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from lane_oracle import Recorded, record_lanes
from stream_oracle import floyd_pick, floyd_row

from stabilab import dynamics, model, verify
from stabilab.dynamics import (CoupledEnsemble, NoiseModel, SGDConfig,
                               minibatch_sequence, run_ensemble, run_lanes,
                               step)

MASK32 = (1 << 32) - 1


def reference_rows(n, b, rows, seed, replica_id):
    """Reference: one ``floyd_row`` per row on the replica's stream."""
    rng = dynamics._stream(seed, replica_id, dynamics._STREAM_MINIBATCH)
    return np.array([floyd_row(rng, n, b)
                     for _ in range(rows)]).reshape(rows, b)


def index_streams(n, b, seed, replica_ids):
    return dynamics._IndexStreams(
        [dynamics._stream(seed, r, dynamics._STREAM_MINIBATCH)
         for r in replica_ids], n, b)


def split_words(rng, count):
    """Oracle: ``count`` 32-bit words of a fresh stream, each 64-bit draw
    split by mask and shift, low half first."""
    raw = rng.bit_generator.random_raw((count + 1) // 2)
    words = np.stack([raw & np.uint64(MASK32), raw >> np.uint64(32)], axis=1)
    return words.ravel()[:count]


def lemire_rows(n, b, rows, seed, replica_id, floors=None):
    """Oracle: the replica's first ``rows`` rows of ``integers(0, highs)``,
    highs = [n-b+1, ..., n] at most 2**32, and whether a word was rejected.

    Each draw maps the next word of ``split_words`` as numpy does: Lemire's
    multiply-shift, which rejects a word whose product's low half falls
    below (2**32 - high) % high, or below ``floors[t]`` for draw t where
    given; a bound of 1 reads no word.
    """
    rng = dynamics._stream(seed, replica_id, dynamics._STREAM_MINIBATCH)
    words = iter(split_words(rng, 8 * rows * b + 64).tolist())
    draws, rejected = [], False
    for _ in range(rows):
        for t, high in enumerate(range(n - b + 1, n + 1)):
            if high == 1:
                draws.append(0)
                continue
            floor = (MASK32 + 1 - high) % high if floors is None \
                else floors[t]
            m = next(words) * high
            while (m & MASK32) < floor:
                rejected = True
                m = next(words) * high
            draws.append(m >> 32)
    return np.array(draws).reshape(rows, b), rejected


def rejects(n, b, rows, seed, replica_id) -> bool:
    """Whether numpy rejects a word in the replica's first ``rows`` rows."""
    return lemire_rows(n, b, rows, seed, replica_id)[1]


# (n, b): b = 1, b = n, b = n - 1, n >= 1000, n > 10000 with small and
# large b
GRID = [(1, 1), (2, 1), (10, 1), (256, 1), (8, 8), (16, 16), (8, 7),
        (16, 15), (16, 8), (32, 4), (1000, 1), (1000, 37), (1000, 999),
        (1000, 1000), (50000, 10), (12000, 300)]
# irregular block sizes, so refills fall inside blocks at small budgets
BLOCKS = (1, 3, 2, 5, 4)


class TestMinibatchReplay:
    """The engine's minibatch streams replay ``reference_rows``."""

    @pytest.mark.parametrize("n,b", GRID)
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_blocks_match_choice(self, n, b, seed):
        replica_ids = [0, 3, 7]
        streams = index_streams(n, b, seed, replica_ids)
        got = np.concatenate([streams.next_rows(c) for c in BLOCKS], axis=1)
        for lane, r in enumerate(replica_ids):
            assert np.array_equal(got[lane],
                                  reference_rows(n, b, sum(BLOCKS), seed, r))

    @pytest.mark.parametrize("n,b", [(16, 8), (1000, 37)])
    def test_sequence_spans_budget_blocks(self, n, b):
        rows = 3 * dynamics._block_rows(1, b) + 5
        assert np.array_equal(minibatch_sequence(n, b, rows, 11, 2),
                              reference_rows(n, b, rows, 11, 2))

    def test_searched_seed_reaches_rejection(self):
        # seed 112 was found by searching seeds 0..199: numpy's first word
        # rejection at n = 10000 falls in replica 1's row 30, and replica 0
        # has none in 100 rows
        n, b, rows = 10000, 200, 100
        assert rejects(n, b, rows, 112, 1)
        assert not rejects(n, b, rows, 112, 0)
        streams = index_streams(n, b, 112, [0, 1])
        got = np.concatenate([streams.next_rows(c) for c in (20, 33, 47)],
                             axis=1)
        assert np.array_equal(got[1], reference_rows(n, b, rows, 112, 1))
        assert np.array_equal(got[0], reference_rows(n, b, rows, 112, 0))

    def test_frequent_rejections(self):
        # bounds near 3 * 2**30 reject about a quarter of all words, and a
        # selection that took memory in proportion to n would need 3 GiB
        n, b = 3 * 2 ** 30, 3
        assert rejects(n, b, 4, 5, 0)
        assert np.array_equal(minibatch_sequence(n, b, 40, 5, 0),
                              reference_rows(n, b, 40, 5, 0))

    def test_uniform_over_subsets(self):
        # all C(5, 2) = 10 subsets, chi-square below its 0.999 quantile on
        # 9 degrees of freedom
        rows = np.sort(minibatch_sequence(5, 2, 100_000, 0, 0), axis=1)
        _, counts = np.unique(rows[:, 0] * 5 + rows[:, 1],
                              return_counts=True)
        assert len(counts) == 10
        assert np.sum((counts - 10_000) ** 2 / 10_000) < 27.88

    # the largest n, b = n and n = b = 1
    @pytest.mark.parametrize("n,b", [(20000, 1000), (50, 50), (1, 1)])
    def test_rows_distinct_and_in_range(self, n, b):
        rows = np.sort(minibatch_sequence(n, b, 300, 6, 1), axis=1)
        assert rows.min() >= 0 and rows.max() < n
        assert np.all(np.diff(rows, axis=1) > 0)
        if b == n:
            assert np.array_equal(rows, np.broadcast_to(np.arange(n),
                                                        rows.shape))

    def test_batch_larger_than_dataset_rejected(self):
        with pytest.raises(ValueError):
            minibatch_sequence(4, 5, 3, 0, 0)

    def test_bound_of_two_to_the_32_returns_the_raw_word(self, monkeypatch):
        # at n = 2**32 the last draw's bound is 2**32: the word itself
        n, b, rows = 2 ** 32, 3, 40
        assert not rejects(n, b, rows, 5, 0)
        assert np.array_equal(minibatch_sequence(n, b, rows, 5, 0),
                              reference_rows(n, b, rows, 5, 0))
        monkeypatch.setattr(dynamics, "_floyd", lambda draws, n: None)
        rng = dynamics._stream(5, 0, dynamics._STREAM_MINIBATCH)
        assert np.array_equal(minibatch_sequence(n, b, rows, 5, 0)[:, 2],
                              split_words(rng, b * rows)[2::3])

    def test_dataset_above_two_to_the_32_rejected(self):
        index_streams(2 ** 32, 3, 5, [0])
        with pytest.raises(ValueError, match="at most 2"):
            index_streams(2 ** 32 + 1, 3, 5, [0])


class TestColumnMajorReplay:
    """The column-major Floyd selection (every row at once, one column at a
    time) against ``floyd_pick`` row by row, and the draws it selects from
    against ``lemire_rows``."""

    # b = n (its first draw has bound 1), b = 1, b = n - 1, n = 10,000
    # with small and large b, a large n (50,000), n above int32
    # (3 * 2**30) and a large b (256)
    @pytest.mark.parametrize("n,b", [(1, 1), (8, 8), (16, 16), (16, 1),
                                     (256, 1), (16, 15), (16, 8), (32, 4),
                                     (10000, 1), (10000, 37), (10000, 200),
                                     (50000, 10), (3 * 2 ** 30, 3),
                                     (4096, 256)])
    @pytest.mark.parametrize("lead", [(1,), (257,), (3, 50)])
    def test_floyd_equals_row_major(self, n, b, lead):
        rng = np.random.default_rng(n * 31 + b)
        draws = rng.integers(0, np.arange(n - b + 1, n + 1),
                             size=lead + (b,)).reshape(-1, b)
        want = np.array([floyd_pick(row, n) for row in draws])
        # every row at once, one column at a time, in the engine's dtype
        got = draws.astype(np.int32 if n < 2 ** 31 else np.int64)
        dynamics._floyd(got, n)
        assert np.array_equal(got, want)
        # every row is a set of b distinct indices below n
        rows = np.sort(got, axis=1)
        assert rows.min() >= 0 and rows.max() < n
        assert np.all(np.diff(rows, axis=1) > 0)

    @pytest.mark.parametrize("counts", [(1, 1, 1), (3, 4, 5, 2),
                                        (7, 1, 0, 6), (2, 9, 3)])
    def test_words_equal_mask_and_shift(self, monkeypatch, counts):
        # without the selection the buffer holds the raw draws; refills of
        # 2 rows a lane fall inside the blocks, and at n = 3 * 2**30 about
        # a quarter of the words are rejected
        monkeypatch.setattr(dynamics, "_floyd", lambda draws, n: None)
        replica_ids = [0, 4, 9]
        for n, b in ((16, 8), (3 * 2 ** 30, 3)):
            monkeypatch.setattr(dynamics, "_DRAW_INDICES",
                                2 * len(replica_ids) * b)
            streams = index_streams(n, b, 5, replica_ids)
            streams.expect(sum(counts))
            got = np.concatenate([streams.next_rows(c) for c in counts],
                                 axis=1)
            for lane, r in enumerate(replica_ids):
                want, _ = lemire_rows(n, b, sum(counts), 5, r)
                assert np.array_equal(got[lane], want)

    # b = n (a bound of 1 reads no word), b = n - 1 and one index a row,
    # refills of 1 and 3 rows a lane and one refill
    @pytest.mark.parametrize("n,b", [(8, 8), (8, 7), (2, 1), (1, 1)])
    @pytest.mark.parametrize("cap", [1, 3, 1000])
    def test_replays_at_raised_floors(self, monkeypatch, n, b, cap):
        # floors of 2**31 reject half of all words, so most lanes replay
        # from their first rejection in every refill, across the words a
        # refill leaves over
        monkeypatch.setattr(dynamics, "_floyd", lambda draws, n: None)
        replica_ids, counts = [0, 4, 9], (3, 4, 1, 9, 2)
        monkeypatch.setattr(dynamics, "_DRAW_INDICES",
                            cap * len(replica_ids) * b)
        streams = index_streams(n, b, 5, replica_ids)
        streams.floor[streams.highs > 1] = 2 ** 31
        streams.expect(sum(counts))
        got = np.concatenate([streams.next_rows(c) for c in counts], axis=1)
        for lane, r in enumerate(replica_ids):
            want, _ = lemire_rows(n, b, sum(counts), 5, r,
                                  streams.floor.tolist())
            assert np.array_equal(got[lane], want)
        assert all(len(words) <= 1 for words in streams.carry)


class CountingStream:
    """A generator whose bit generator counts its ``random_raw`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0
        self.bit_generator = self

    def random_raw(self, *args, **kwargs):
        self.calls += 1
        return self.rng.bit_generator.random_raw(*args, **kwargs)


def count_raw_calls(monkeypatch) -> list:
    """The CountingStream of every minibatch stream ``dynamics._streams``
    builds from now on, in the order built."""
    counters, streams = [], dynamics._streams

    def counting_streams(master_seed, replica_ids, tag):
        rngs = streams(master_seed, replica_ids, tag)
        if tag != dynamics._STREAM_MINIBATCH:
            return rngs
        rngs = [CountingStream(rng) for rng in rngs]
        counters.extend(rngs)
        return rngs

    monkeypatch.setattr(dynamics, "_streams", counting_streams)
    return counters


def deep_noisy_case():
    """(loss, pair, noise) of the deep-noisy workload: n = 32, d = 16,
    Gaussian noise."""
    base = model.make_synthetic_dataset(
        {"n": 32, "d": 16, "generator": "gaussian_clipped",
         "radius_D": 0.1, "label_range": 0.05}, 0)
    return (model.LossModel("RegularizedSine", m0=2.0, s=0.01),
            model.make_neighbor(base, 0, 1),
            NoiseModel("gaussian_diag", (math.sqrt(0.5),) * 16))


class TestWordBuffer:
    """The per-run buffer of drawn minibatches against ``reference_rows``,
    with refills inside blocks and runs (``_DRAW_INDICES`` shrunk to a few
    rows a lane), for lane subsets and across a word rejection, and its
    ``random_raw`` calls and held indices counted."""

    # caps of 1, 3 and 7 rows a lane against blocks of 1 to 5 rows: a
    # refill per block, and blocks that open on held rows and refill
    @pytest.mark.parametrize("cap", [1, 3, 7])
    @pytest.mark.parametrize("n,b", [(16, 1), (16, 8), (1000, 37)])
    def test_refills_inside_blocks(self, monkeypatch, cap, n, b):
        replica_ids = [0, 3]
        monkeypatch.setattr(dynamics, "_DRAW_INDICES",
                            cap * len(replica_ids) * b)
        streams = index_streams(n, b, 9, replica_ids)
        streams.expect(sum(BLOCKS))
        got = np.concatenate([streams.next_rows(c) for c in BLOCKS], axis=1)
        for lane, r in enumerate(replica_ids):
            assert np.array_equal(got[lane],
                                  reference_rows(n, b, sum(BLOCKS), 9, r))

    # budgets of 1, 3, 7 and 40 rows for all lanes together, so the
    # refills of four lanes, of two and of one fall at different rows
    @pytest.mark.parametrize("budget", [1, 3, 7, 40])
    def test_lane_subsets_across_refills(self, monkeypatch, budget):
        monkeypatch.setattr(dynamics, "_DRAW_INDICES", budget * 8)
        blocks = (4, 3, 7, 2, 9, 5, 6)
        want = {r: reference_rows(16, 8, sum(blocks), 5, r)
                for r in (0, 4, 9, 11)}
        for replica_ids in ([0, 4, 9, 11], [4], [0, 9], [11, 0, 4]):
            streams = index_streams(16, 8, 5, replica_ids)
            streams.expect(sum(blocks))
            got = np.concatenate([streams.next_rows(c) for c in blocks],
                                 axis=1)
            for lane, r in enumerate(replica_ids):
                assert np.array_equal(got[lane], want[r])

    # refills of 19 rows a lane (7980 indices over 2 lanes of b = 200) and
    # of just the rows each block needs (3 indices)
    @pytest.mark.parametrize("budget", [7980, 3])
    def test_rejection_between_refills(self, monkeypatch, budget):
        # replica 1's rejection falls in row 30 (see
        # TestMinibatchReplay.test_searched_seed_reaches_rejection): its
        # refill reads an odd number of words, so the refills after it
        # open on the half word carried on the lane's queue
        monkeypatch.setattr(dynamics, "_DRAW_INDICES", budget)
        n, b, rows = 10000, 200, 100
        streams = index_streams(n, b, 112, [0, 1])
        streams.expect(rows)
        blocks, half = [], []
        for c in (7,) * 14 + (2,):
            blocks.append(streams.next_rows(c))
            half.append([len(words) for words in streams.carry])
        got = np.concatenate(blocks, axis=1)
        assert np.array_equal(got[1], reference_rows(n, b, rows, 112, 1))
        assert np.array_equal(got[0], reference_rows(n, b, rows, 112, 0))
        assert not any(lane0 for lane0, _ in half)
        held = [lane1 for _, lane1 in half]
        first = held.index(1)
        assert 2 <= first < len(held) - 1 and all(held[first:])

    # three lanes at b = 3 and d = 2 in blocks of 7 steps: caps of 1 row a
    # lane (a refill per block) and of 11 rows (blocks that open on held
    # rows)
    @pytest.mark.parametrize("budget", [1, 100])
    def test_engine_refills_inside_run(self, monkeypatch, budget):
        monkeypatch.setattr(dynamics, "_DRAW_INDICES", budget)
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 64)
        base = model.make_synthetic_dataset(
            {"n": 8, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 4)
        pair = model.make_neighbor(base, 2, 5)
        starts = (np.full(2, 0.3), np.full(2, 0.3))
        assert_matches_scalar_loop(
            LOSSES["RegularizedSine"], (pair.base, pair.perturbed), starts,
            SGDConfig(0.1, 3, 40, starts[0], 17),
            NoiseModel("gaussian_diag", (0.3, 0.3)), [0, 5, 2])

    def test_few_raw_calls_per_lane(self, monkeypatch):
        # wide-quadratic's ensemble: 800 indices a lane, against a cap of
        # 1,024 a lane (2^20 over 1,024 lanes): one random_raw call each
        counters = count_raw_calls(monkeypatch)
        base = model.make_synthetic_dataset(
            {"n": 16, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 0)
        config = SGDConfig(0.5, 8, 100, np.zeros(2), 3)
        run_ensemble(model.LossModel("Quadratic"),
                     model.make_neighbor(base, 0, 1), config, NoiseModel(),
                     1024)
        assert [c.calls for c in counters] == [1] * 1024

    def test_certify_grid_one_call_per_lane(self, monkeypatch):
        # certify-grid's ensemble: 2,000 indices a lane, against a cap of
        # 4,096 a lane (_LANE_DRAW_INDICES, above 2^16 over 64 lanes)
        counters = count_raw_calls(monkeypatch)
        base = model.make_synthetic_dataset(
            {"n": 8, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 0.1, "label_range": 0.05}, 0)
        config = SGDConfig(0.2, 4, 500, np.zeros(2), 3)
        run_ensemble(model.LossModel("RegularizedSine", m0=2.0, s=0.01),
                     model.make_neighbor(base, 0, 1), config,
                     NoiseModel("gaussian_diag", (math.sqrt(0.5),) * 2), 64)
        assert [c.calls for c in counters] == [1] * 64

    def test_deep_noisy_refills_every_1024_rows(self, monkeypatch):
        # deep-noisy's ensemble: 2^16 indices over 16 lanes at b = 4 make
        # 1,024 rows a refill, ten over 10,000 steps
        counters = count_raw_calls(monkeypatch)
        loss, pair, noise = deep_noisy_case()
        run_ensemble(loss, pair, SGDConfig(0.2, 4, 10000, np.zeros(16), 3),
                     noise, 16)
        assert [c.calls for c in counters] == [10] * 16

    @pytest.mark.parametrize("count", [1, 5, 300, 2000, 40000])
    def test_one_lane_source_holds_count_plus_one_block(self, count):
        source = dynamics.MinibatchSource(16, 8, "monte_carlo", seed=4)
        width = 8 * 2     # b * d, as the verify averages pass it
        rows = dynamics._block_rows(1, width)
        held = 0
        for _ in source.blocks(count, width):
            held = max(held, source.index.buf.size)
        assert held <= (count + rows) * 8


class TestRefillSize:
    """Refills of about one block of indices across the lanes, at least
    ``_LANE_DRAW_INDICES`` a lane, against the same calls forced to one
    refill per run or average, bit for bit."""

    @staticmethod
    def one_refill_per_run(monkeypatch):
        monkeypatch.setattr(dynamics, "_DRAW_INDICES", 1 << 40)
        monkeypatch.setattr(dynamics, "_LANE_DRAW_INDICES", 1 << 40)

    def test_deep_noisy_run_across_refills(self, monkeypatch):
        # 16 lanes at b = 4 refill every 1,024 steps (four blocks of 256):
        # four refills, checkpoints on both sides of the first refill
        # boundary and on the next two
        loss, pair, noise = deep_noisy_case()
        k_max = 3 * 1024 + 100
        args = (loss, (pair.base, pair.perturbed),
                (np.zeros(16), np.full(16, 0.5)),
                SGDConfig(0.2, 4, k_max, np.zeros(16), 3), noise, range(16),
                [1, 1023, 1024, 1025, 2048, 3072, k_max])
        counters = count_raw_calls(monkeypatch)
        run = record_lanes(*args)
        assert [c.calls for c in counters] == [4] * 16
        self.one_refill_per_run(monkeypatch)
        counters.clear()
        whole = record_lanes(*args)
        assert [c.calls for c in counters] == [1] * 16
        assert np.all(run.diverged_at == k_max + 1)
        for got, want in zip(run, whole):
            assert np.array_equal(got, want)

    def test_monte_carlo_averages_across_refills(self, monkeypatch):
        # one lane at b = 4 refills every 16,384 rows: three refills for
        # 40,000 rows, then one for the next average's 5,000
        noise = NoiseModel("gaussian_diag", (0.5, 2.0))
        weights = np.array([1.0, 2.0, 3.0, 4.0])

        def averages():
            source = dynamics.MinibatchSource(32, 4, "monte_carlo", seed=7,
                                              noise=noise)
            counter = CountingStream(source.index.rngs[0])
            source.index.rngs = [counter]
            blocks = [list(source.blocks(count, 8))
                      for count in (40000, 5000)]
            means = [source.average(
                lambda rows, xis: rows @ weights + xis[:, 0] * xis[:, 1],
                count, 8) for count in (40000, 5000)]
            return blocks, means, counter.calls

        blocks, means, calls = averages()
        assert calls == 8
        self.one_refill_per_run(monkeypatch)
        whole, whole_means, calls = averages()
        assert calls == 4
        assert means == whole_means
        for got, want in zip(blocks, whole):
            got_rows, got_noise = map(np.concatenate, zip(*got))
            want_rows, want_noise = map(np.concatenate, zip(*want))
            assert np.array_equal(got_rows, want_rows)
            assert np.array_equal(got_noise, want_noise)


class TestRefillMemory:
    def test_ensemble_peak_does_not_grow_with_k_max(self):
        # deep-noisy's shape: each refill holds 1,024 rows a lane, so the
        # tracemalloc peak (about 3.3 MiB) stays flat where sizing refills
        # to the rest of the run took it from 3.3 to 15.5 MiB
        loss, pair, noise = deep_noisy_case()
        peaks = []
        for k_max in (2000, 40000):
            config = SGDConfig(0.2, 4, k_max, np.zeros(16), 3)
            tracemalloc.start()
            try:
                run_ensemble(loss, pair, config, noise, 16)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 ** 18
        assert peaks[1] < 5 * 2 ** 20

    def test_wide_quadratic_peak(self):
        # 1,024 lanes each copy their leftover words out of their draw:
        # about 9.25 MiB, where keeping them as views of the draws held
        # every lane's draw alive (12.48 MiB)
        base = model.make_synthetic_dataset(
            {"n": 16, "d": 2, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 0)
        args = (model.LossModel("Quadratic"), model.make_neighbor(base, 0, 1),
                SGDConfig(0.5, 8, 100, np.zeros(2), 3), NoiseModel(), 1024)
        tracemalloc.start()
        try:
            run_ensemble(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9.5 * 2 ** 20


class TestNoiseBlocks:
    @pytest.mark.parametrize("kind", ["gaussian_diag", "laplace"])
    def test_blocks_equal_per_step_draws(self, kind):
        noise = NoiseModel(kind, (0.5, 2.0, 1.0))
        rng = np.random.default_rng(3)
        per_step = np.array([noise.draw(rng) for _ in range(9)])
        rng = np.random.default_rng(3)
        blocks = np.concatenate([noise.draw_block(rng, c) for c in (2, 1, 6)])
        assert np.array_equal(blocks, per_step)

    def test_none_draws_nothing(self):
        assert NoiseModel().draw_block(np.random.default_rng(0), 4) is None


LOSSES = {
    "Quadratic": model.LossModel("Quadratic"),
    "RidgeQuadratic": model.LossModel("RidgeQuadratic", mu0=0.5),
    "RegularizedSine": model.LossModel("RegularizedSine", m0=1.0, s=0.7),
    "ScalarPower": model.LossModel("ScalarPower", p=1.5, mu=1.0),
}


def noise_model(kind, d):
    return NoiseModel() if kind == "none" else NoiseModel(kind, (0.3,) * d)


def scalar_reference(loss, datasets, starts, config, noise, replica_id):
    """Both chains as a loop of scalar steps: states (k_max + 1, 2, d)."""
    mb = dynamics._stream(config.master_seed, replica_id,
                          dynamics._STREAM_MINIBATCH)
    nz = dynamics._stream(config.master_seed, replica_id,
                          dynamics._STREAM_NOISE)
    chains = [np.asarray(s, dtype=float).copy() for s in starts]
    out = [np.array(chains)]
    for _ in range(config.k_max):
        omega = floyd_row(mb, datasets[0].n, config.batch_b)
        xi = noise.draw(nz)
        chains = [step(loss, ds, theta, omega, config.eta, xi)
                  for ds, theta in zip(datasets, chains)]
        out.append(np.array(chains))
    return np.array(out)


def assert_matches_scalar_loop(loss, datasets, starts, config, noise,
                               replica_ids):
    checkpoints = list(range(config.k_max + 1))
    run = record_lanes(loss, datasets, starts, config, noise, replica_ids,
                       checkpoints)
    assert np.all(run.diverged_at == config.k_max + 1)
    for lane, r in enumerate(replica_ids):
        ref = scalar_reference(loss, datasets, starts, config, noise, r)
        # bit-identical with numpy 2.4, where both paths reach the same
        # BLAS calls; 1e-12 relative is the contract
        np.testing.assert_allclose(run.states[lane], ref, rtol=1e-12, atol=0)
        ref_dist = [np.linalg.norm(a - b) for a, b in ref]
        np.testing.assert_allclose(run.distances[lane], ref_dist,
                                   rtol=1e-12, atol=0)


class TestEngineAgainstScalarSteps:
    """At the default block budget 40 steps fit in one block and one
    sub-block.  Budget 64 makes blocks of 4 steps in sub-blocks of 1 step
    (of 3 and 1 at d = 1); budget 150 blocks of 10 steps in sub-blocks of
    4, 4 and 2 (8 and 2 at d = 1), so steps cross both boundaries."""

    @pytest.mark.parametrize("budget", [None, 64, 150])
    @pytest.mark.parametrize("family", list(LOSSES))
    @pytest.mark.parametrize("kind", ["none", "gaussian_diag", "laplace"])
    @pytest.mark.parametrize("pairing", ["two_datasets", "two_starts"])
    def test_matches_scalar_loop(self, monkeypatch, family, kind, pairing,
                                 budget):
        d = 1 if family == "ScalarPower" else 2
        base = model.make_synthetic_dataset(
            {"n": 8, "d": d, "generator": "gaussian_clipped",
             "radius_D": 1.0}, 4)
        pair = model.make_neighbor(base, 2, 5)
        if pairing == "two_datasets":
            datasets = (pair.base, pair.perturbed)
            starts = (np.full(d, 0.3), np.full(d, 0.3))
        else:
            datasets = (base, base)
            starts = (np.full(d, 1.0), np.full(d, -0.5))
        if budget is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        assert_matches_scalar_loop(
            LOSSES[family], datasets, starts, SGDConfig(0.1, 3, 40, starts[0],
                                                        17),
            noise_model(kind, d), [0, 5, 2])

    @pytest.mark.parametrize("budget", [None, 64, 1024])
    def test_deep_noisy_shape(self, monkeypatch, budget):
        """d = 16, b = 4, n = 32, Gaussian noise, two datasets, as in the
        deep-noisy workload.  Budget 64 makes blocks of 2 steps in
        sub-blocks of 1; budget 1024 blocks of 32 steps in sub-blocks of 4,
        as deep-noisy's blocks of 256 steps hold sub-blocks of 32."""
        loss, pair, noise = deep_noisy_case()
        if budget is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        assert_matches_scalar_loop(
            loss, (pair.base, pair.perturbed), (np.zeros(16), np.zeros(16)),
            SGDConfig(0.2, 4, 40, np.zeros(16), 3), noise, [0, 9])


def sine_pair(d=3):
    base = model.make_synthetic_dataset(
        {"n": 12, "d": d, "generator": "gaussian_clipped", "radius_D": 1.0},
        8)
    return model.make_neighbor(base, 0, 9)


class TestLaneIndependence:
    def test_replica_same_alone_and_in_ensemble(self):
        pair = sine_pair()
        loss = model.LossModel("RegularizedSine", m0=1.0, s=0.5)
        config = SGDConfig(0.2, 4, 60, np.zeros(3), 123)
        noise = NoiseModel("gaussian_diag", (0.4,) * 3)
        ens = run_ensemble(loss, pair, config, noise, 64, [30, 60])
        for r in (0, 17, 63):
            alone = record_lanes(loss, (pair.base, pair.perturbed),
                                 (config.theta0, config.theta0), config,
                                 noise, [r], [30, 60])
            assert np.array_equal(ens.states[r], alone.states[0])

    def test_block_budget_does_not_change_results(self, monkeypatch):
        pair = sine_pair()
        loss = model.LossModel("RegularizedSine", m0=1.0, s=0.5)
        config = SGDConfig(0.2, 4, 50, np.zeros(3), 7)
        noise = NoiseModel("laplace", (0.4,) * 3)
        wide = run_ensemble(loss, pair, config, noise, 8, [50])
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 50)
        narrow = run_ensemble(loss, pair, config, noise, 8, [50])
        assert np.array_equal(wide.states, narrow.states)


class TestDivergenceGuard:
    def test_nan_start_is_diverged_and_excluded(self):
        pair = sine_pair(1)
        loss = model.LossModel("RegularizedSine", m0=1.0, s=0.5)
        noise = NoiseModel()
        good = SGDConfig(0.1, 2, 20, np.zeros(1), 3)
        bad = SGDConfig(0.1, 2, 20, np.array([np.nan]), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nan_ens = run_ensemble(loss, pair, bad, noise, 1, [0, 20])
        assert nan_ens.replicas[0].diverged_at == 0
        assert [len(c) for c in nan_ens.clouds_at(0)] == [0, 0]
        ok_ens = run_ensemble(loss, pair, good, noise, 2, [0, 20])
        assert not ok_ens.replicas[1].diverged
        ens = CoupledEnsemble(
            np.concatenate([nan_ens.states, ok_ens.states[1:]]), [0, 20],
            nan_ens.replicas + ok_ens.replicas[1:])
        assert ens.any_diverged()
        A, B = ens.clouds_at(20)
        assert np.array_equal(A, ok_ens.states[1:, 1, 0])
        assert np.array_equal(B, ok_ens.states[1:, 1, 1])

    def test_overflow_is_quiet_and_keeps_earlier_checkpoints(self):
        # eta = 3 on unit data multiplies the distance to 1 by -2 per step
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 1, "generator": "unit_fixed"}, 0)
        pair = model.NeighborPair(ds, ds, 0)
        config = SGDConfig(3.0, 4, 2000, np.array([2.0]), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = run_ensemble(model.LossModel("Quadratic"), pair, config,
                               NoiseModel(), 1, [10, 2000])
        assert 10 < ens.replicas[0].diverged_at <= 2000
        assert ens.states[0, 0, 0, 0] == pytest.approx(1.0 + 2.0 ** 10)
        assert ens.states[0, 0, 1, 0] == pytest.approx(1.0 + 2.0 ** 10)

    def test_contraction_distances_stop_at_divergence(self):
        ds = model.make_synthetic_dataset(
            {"n": 4, "d": 1, "generator": "unit_fixed"}, 0)
        config = SGDConfig(3.0, 4, 60, np.zeros(1), 0)
        dist = record_lanes(model.LossModel("Quadratic"), (ds, ds),
                            (np.array([1.0]), np.array([0.0])), config,
                            NoiseModel(), [0]).distances[0]
        first = int(np.argmax(np.isnan(dist)))
        assert first > 0 and np.all(np.isnan(dist[first:]))
        assert np.all(np.isfinite(dist[:first]))


def run_lanes_per_step(loss, datasets, starts, config, noise, replica_ids,
                       checkpoints=()):
    """Reference: ``lane_oracle.record_lanes`` with the divergence guard
    checked, and the checkpoints and distances recorded, after every step;
    it never stops early."""
    _norms, guard = model._norms, dynamics.DIVERGENCE_GUARD
    replica_ids = list(replica_ids)
    lanes, k_max, eta = len(replica_ids), config.k_max, config.eta
    n = datasets[0].n
    features = np.concatenate([ds.features for ds in datasets])
    labels = np.concatenate([ds.labels for ds in datasets])
    chain_offset = n * np.arange(2)[:, None]
    state = np.array(starts, dtype=float)[None].repeat(lanes, axis=0)
    index = dynamics._IndexStreams(
        [dynamics._stream(config.master_seed, r, dynamics._STREAM_MINIBATCH)
         for r in replica_ids], n, config.batch_b)
    noise_rngs = [] if noise.kind == "none" else [
        dynamics._stream(config.master_seed, r, dynamics._STREAM_NOISE)
        for r in replica_ids]
    checkpoints = list(checkpoints)
    slot = {k: i for i, k in enumerate(checkpoints)}
    saved = np.full((lanes, len(checkpoints)) + state.shape[1:], np.nan)
    dist = np.full((lanes, k_max + 1), np.nan)
    diverged_at = np.full(lanes, k_max + 1)

    def record(k):
        if k in slot:
            saved[:, slot[k]] = state
        dist[:, k] = _norms(state[:, 0] - state[:, 1])

    rows = dynamics._block_rows(lanes, max(config.batch_b, state.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        live = (_norms(state) <= guard).all(axis=-1)
        diverged_at[~live] = 0
        record(0)
        k = 0
        for size in dynamics._blocks(k_max, rows):
            rows_at = index.next_rows(size)[:, :, None, :] + chain_offset
            xis = np.array([noise.draw_block(rng, size)
                            for rng in noise_rngs]) if noise_rngs else None
            for s in range(size):
                k += 1
                idx = rows_at[:, s]
                g = model.grad_batch(loss, state, features[idx], labels[idx])
                new = state - eta * g
                if xis is not None:
                    new = new + eta * xis[:, None, s, :]
                ok = (_norms(new) <= guard).all(axis=-1)
                fresh = live & ~ok
                if fresh.any():
                    diverged_at[fresh] = k
                    live &= ok
                if not live.all():
                    new[~live] = state[~live]
                state = new
                record(k)
    dist[np.arange(k_max + 1) >= diverged_at[:, None]] = np.nan
    return Recorded(saved, diverged_at, dist, k_max,
                    np.array(checkpoints, dtype=np.int64))


# With eta = 1e13 the first step whose minibatch holds point HOT sends
# theta past the guard: that point's gradient is (theta_0, 0), and the other
# points only pull theta gently (a_i of norm ~1e-7) towards TARGET, so
# |theta_0| stays near 1 and a lane diverges at its first draw of HOT.
HOT, TARGET, ETA_HOT = 15, np.array([1.5, 0.5]), 1e13
GUARD_KMAX, GUARD_CHECKPOINTS = 24, [0, 7, 12, 24]


def explosive_datasets(pairing):
    rng = np.random.default_rng(0)
    features = 1e-7 * np.column_stack(
        [rng.uniform(0.5, 1.0, 16), rng.uniform(-0.1, 0.1, 16)])
    features[HOT] = (1.0, 0.0)
    base = model.Dataset(features, features @ TARGET * (np.arange(16) != HOT),
                         1.0)
    if pairing == "two_starts":
        return (base, base), (np.array([1.0, 1.0]), np.array([2.0, 0.0]))
    moved = features.copy()
    moved[0] = 1e-7 * np.array([0.6, -0.1])
    perturbed = model.Dataset(moved, moved @ TARGET * (np.arange(16) != HOT),
                              1.0)
    return (base, perturbed), (np.array([1.0, 1.0]),) * 2


def pick_lanes(pool, rows, k_max, checkpoints):
    """Replica ids from ``pool`` (id -> diverged_at) whose lanes diverge at
    step 1, at a block's first and last step, at a checkpoint, and never."""
    firsts = [k for k in range(2, k_max + 1) if (k - 1) % rows == 0] or [1]
    lasts = [k for k in range(1, k_max + 1) if k % rows == 0 or k == k_max]
    wanted = [[1], firsts, lasts, [c for c in checkpoints if 0 < c < k_max],
              [k_max + 1], [k_max + 1]]
    chosen = []
    for steps in wanted:
        found = [r for r, at in pool.items() if at in steps
                 and r not in chosen]
        assert found, f"no lane of the pool diverges at {steps}"
        chosen.append(found[0])
    return chosen


class TestBlockGuardAgainstPerStepGuard:
    @pytest.mark.parametrize("budget", [1, 7, 64, None])
    @pytest.mark.parametrize("kind", ["none", "gaussian_diag", "laplace"])
    @pytest.mark.parametrize("pairing", ["two_datasets", "two_starts"])
    def test_matches_per_step_guard(self, monkeypatch, pairing, kind, budget):
        datasets, starts = explosive_datasets(pairing)
        loss = model.LossModel("Quadratic")
        config = SGDConfig(ETA_HOT, 1, GUARD_KMAX, starts[0], 5)
        # kicks of eta * 1e-15 ~ 0.01 per step leave |theta_0| near 1
        noise = NoiseModel() if kind == "none" else NoiseModel(kind,
                                                               (1e-15,) * 2)
        pool = run_lanes_per_step(loss, datasets, starts, config, noise,
                                  range(400)).diverged_at
        if budget is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        rows = dynamics._block_rows(6, 2)
        lanes = pick_lanes(dict(enumerate(pool)), rows, GUARD_KMAX,
                           GUARD_CHECKPOINTS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = record_lanes(loss, datasets, starts, config, noise, lanes,
                               GUARD_CHECKPOINTS)
        ref = run_lanes_per_step(loss, datasets, starts, config, noise,
                                 lanes, GUARD_CHECKPOINTS)
        assert np.array_equal(got.diverged_at, pool[lanes])
        for field in ("states", "diverged_at", "distances"):
            assert np.array_equal(getattr(got, field), getattr(ref, field),
                                  equal_nan=True), field

    @pytest.mark.parametrize("budget", [1, 7, None])
    @pytest.mark.parametrize("pairing", ["two_datasets", "two_starts"])
    def test_nan_start_matches_per_step_guard(self, monkeypatch, pairing,
                                              budget):
        datasets, starts = explosive_datasets(pairing)
        starts = (starts[0], np.array([np.nan, 1.0]))
        config = SGDConfig(ETA_HOT, 1, GUARD_KMAX, starts[0], 5)
        noise = NoiseModel("gaussian_diag", (1e-15,) * 2)
        if budget is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        args = (model.LossModel("Quadratic"), datasets, starts, config, noise,
                [0, 3], GUARD_CHECKPOINTS)
        got = record_lanes(*args)
        ref = run_lanes_per_step(*args)
        assert np.all(got.diverged_at == 0)
        for field in ("states", "diverged_at", "distances"):
            assert np.array_equal(getattr(got, field), getattr(ref, field),
                                  equal_nan=True), field


class TestStopOnceAllDiverged:
    """The block loop ends once no lane is live; later checkpoints hold the
    frozen states, as if the lanes had been stepped to k_max."""

    def lanes(self, k_max):
        base = model.make_synthetic_dataset(
            {"n": 10, "d": 1, "generator": "unit_fixed"}, 0)
        pair = model.make_neighbor(base, 0, 1)
        # eta = 3 doubles the distance to the fixed point at every step
        config = SGDConfig(3.0, 1, k_max, np.zeros(1), 42)
        return (model.LossModel("Quadratic"), (pair.base, pair.perturbed),
                (config.theta0, config.theta0), config, NoiseModel(),
                range(16), [0, 10, k_max // 2, k_max])

    def count_grad_calls(self, monkeypatch):
        """Calls of the gradient kernel that ``run_lanes`` binds per run."""
        calls = []

        def bind(*args):
            kernel = model.grad_kernel(*args)

            def counted(*step):
                calls.append(1)
                return kernel(*step)

            return counted

        monkeypatch.setattr(dynamics, "grad_kernel", bind)
        return calls

    @pytest.mark.parametrize("budget", [64, None])
    def test_matches_per_step_guard(self, monkeypatch, budget):
        args = self.lanes(10000)
        ref = run_lanes_per_step(*args)
        assert np.all(ref.diverged_at <= 100)
        if budget is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
        rows = dynamics._block_rows(16, 1)
        calls = self.count_grad_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = record_lanes(*args)
        for field in ("states", "diverged_at", "distances"):
            assert np.array_equal(getattr(got, field), getattr(ref, field),
                                  equal_nan=True), field
        last = int(ref.diverged_at.max())
        assert len(calls) == rows * -(-last // rows) < 10000

    def test_a_live_lane_runs_to_k_max(self, monkeypatch):
        args = list(self.lanes(300))
        args[3] = SGDConfig(0.1, 1, 300, np.zeros(1), 42)
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 64)
        calls = self.count_grad_calls(monkeypatch)
        assert np.all(record_lanes(*args).diverged_at == 301)
        assert len(calls) == 300


class TestBlockSteps:
    def test_one_lane_views_stay_small(self):
        # one lane at d = 1 and b = 1 would make blocks of 2^16 steps, whose
        # per-step views take about 37 MB; at most _BLOCK_STEPS steps keep
        # them near 2 MB
        base = model.make_synthetic_dataset(
            {"n": 10, "d": 1, "generator": "unit_fixed"}, 0)
        config = SGDConfig(0.1, 1, 3 * dynamics._BLOCK_STEPS, np.zeros(1), 3)
        assert dynamics._block_rows(1, 1) > 8 * dynamics._BLOCK_STEPS
        tracemalloc.start()
        try:
            run = run_lanes(model.LossModel("Quadratic"), (base, base),
                            (np.zeros(1), np.ones(1)), config,
                            NoiseModel("laplace", (0.1,)), [0],
                            lambda first, block: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.diverged_at[0] == config.k_max + 1
        assert peak < 8 * 2 ** 20


def count_thread_starts(monkeypatch) -> list:
    """Every thread started from now on (``threading.Thread.start``)."""
    started, start = [], threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def one_block(monkeypatch):
    """Make every run below one block."""
    monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 1 << 30)
    monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 1 << 40)


def assert_equal_records(got, want):
    for field in Recorded._fields:
        assert np.array_equal(getattr(got, field), getattr(want, field),
                              equal_nan=True), field


# deep-noisy's ensemble blocks: 16 lanes at d = 16 make 256 steps a block
DEEP_ROWS = 256


def deep_noisy_lanes(k_max, noise=None):
    """run_lanes' arguments, but the observer, for deep-noisy's ensemble."""
    loss, pair, deep_noise = deep_noisy_case()
    return (loss, (pair.base, pair.perturbed), (np.zeros(16),) * 2,
            SGDConfig(0.2, 4, k_max, np.zeros(16), 3),
            deep_noise if noise is None else noise, range(16))


class TestNoiseWorker:
    """From a run's second block on, while a third is to come, a worker
    thread draws the next block's noise as this one is stepped: no value
    changes, and the thread is joined however the run ends."""

    @pytest.mark.parametrize("kind", ["gaussian_diag", "laplace"])
    @pytest.mark.parametrize("pairing", ["two_datasets", "two_starts"])
    def test_many_blocks_equal_one_block(self, monkeypatch, pairing, kind):
        datasets, starts = explosive_datasets(pairing)
        loss = model.LossModel("Quadratic")
        config = SGDConfig(ETA_HOT, 1, GUARD_KMAX, starts[0], 5)
        noise = NoiseModel(kind, (1e-15,) * 2)
        pool = run_lanes_per_step(loss, datasets, starts, config, noise,
                                  range(400)).diverged_at
        # blocks of 5 steps: the worker draws blocks 2 to 4
        monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 5)
        lanes = pick_lanes(dict(enumerate(pool)), 5, GUARD_KMAX,
                           GUARD_CHECKPOINTS)
        lanes += [next(r for r, at in enumerate(pool) if r not in lanes
                       and 10 < at < GUARD_KMAX and (at - 1) % 5 in (1, 2))]
        args = (loss, datasets, starts, config, noise, lanes,
                GUARD_CHECKPOINTS)
        started = count_thread_starts(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many = record_lanes(*args)
        assert len(started) == 1 and not started[0].is_alive()
        assert (many.diverged_at <= GUARD_KMAX).sum() == 5
        one_block(monkeypatch)
        one = record_lanes(*args)
        assert len(started) == 1
        assert_equal_records(many, one)
        assert_equal_records(many, run_lanes_per_step(*args))

    @pytest.mark.parametrize("pairing", ["two_datasets", "two_starts"])
    def test_deep_noisy_shape_across_many_blocks(self, monkeypatch, pairing):
        loss, datasets, starts, config, noise, _ = deep_noisy_lanes(120)
        if pairing == "two_starts":
            # two objects of one dataset: no stop on coalescence
            datasets = (datasets[0], copy.copy(datasets[0]))
            starts = (np.ones(16), starts[1])
        args = (loss, datasets, starts, config, noise, [0, 5, 9],
                [0, 40, 77, 120])
        monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 8)
        started = count_thread_starts(monkeypatch)
        many = record_lanes(*args)
        assert len(started) == 1 and many.steps == 120
        one_block(monkeypatch)
        assert_equal_records(many, record_lanes(*args))
        assert_equal_records(many, run_lanes_per_step(*args))

    @pytest.mark.parametrize("kind", ["gaussian_diag", "laplace"])
    def test_fill_equals_draw_block(self, kind):
        noise = NoiseModel(kind, (0.5, 2.0, 1.0))
        seeds = (3, 4)
        whole = [noise.draw_block(np.random.default_rng(s), 9)
                 for s in seeds]
        rngs = [np.random.default_rng(s) for s in seeds]
        out, lo = np.full((2, 9, 3), np.nan), 0
        for rows in (2, 1, 6):
            noise.fill(rngs, out[:, lo:lo + rows])
            lo += rows
        assert np.array_equal(out, whole)

    def test_gaussian_fill_holds_no_block(self):
        # deep-noisy's block: 16 lanes of 256 steps at d = 16, 512 KiB; the
        # one allocation is numpy's 64 KiB ufunc buffer for ``*= scale``
        noise = deep_noisy_case()[2]
        rngs = [np.random.default_rng(s) for s in range(16)]
        out = np.empty((16, DEEP_ROWS, 16))
        tracemalloc.start()
        try:
            noise.fill(rngs, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 17

    @pytest.mark.parametrize("k_max, threads", [
        (DEEP_ROWS, 0), (DEEP_ROWS + 1, 0), (2 * DEEP_ROWS, 0),
        (2 * DEEP_ROWS + 1, 1)])
    def test_a_third_block_starts_the_worker(self, monkeypatch, k_max,
                                             threads):
        assert dynamics._block_rows(16, 16) == DEEP_ROWS
        started = count_thread_starts(monkeypatch)
        run = run_lanes(*deep_noisy_lanes(k_max), lambda first, block: None)
        assert run.steps == k_max and len(started) == threads

    def test_a_third_block_loads_concurrent_futures(self):
        # in a fresh interpreter, after each run in turn: no noise over ten
        # blocks, noise over two blocks, then noise over three blocks
        code = (
            "import copy, sys\n"
            "import numpy as np\n"
            "from stabilab import dynamics, model\n"
            "dynamics._BLOCK_STEPS = 4\n"
            "ds = model.make_synthetic_dataset({'n': 8, 'd': 2, "
            "'generator': 'gaussian_clipped', 'radius_D': 1.0}, 0)\n"
            "for noise, k_max in ((dynamics.NoiseModel(), 40),\n"
            "        (dynamics.NoiseModel('gaussian_diag', (0.5, 0.5)), 8),\n"
            "        (dynamics.NoiseModel('gaussian_diag', (0.5, 0.5)), 9)):\n"
            "    run = dynamics.run_lanes(\n"
            "        model.LossModel('Quadratic'), (ds, copy.copy(ds)),\n"
            "        (np.zeros(2), np.ones(2)),\n"
            "        dynamics.SGDConfig(0.1, 2, k_max, np.zeros(2), 1),\n"
            "        noise, range(3), lambda first, block: None)\n"
            "    print(run.steps, 'concurrent.futures' in sys.modules,\n"
            "          'logging' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "40 False False", "8 False False", "9 True True"]

    def test_no_noise_starts_no_thread(self, monkeypatch):
        started = count_thread_starts(monkeypatch)
        run = run_lanes(*deep_noisy_lanes(5 * DEEP_ROWS, NoiseModel()),
                        lambda first, block: None)
        assert run.steps == 5 * DEEP_ROWS and not started

    def test_stop_in_the_first_block_starts_no_thread(self, monkeypatch):
        # deep-noisy's contraction certificate: its chains coalesce well
        # inside the first block of 256 steps
        loss, pair, noise = deep_noisy_case()
        started = count_thread_starts(monkeypatch)
        cert = verify.check_contraction(loss, pair.base, 0.2, 4, 0.9, 2000,
                                        16, 3, np.ones(16), np.zeros(16),
                                        noise)
        steps = int(cert.note.split()[1])
        assert steps < DEEP_ROWS and "every lane coalesced" in cert.note
        assert not started

    def test_coalescence_stop_joins_the_worker(self, monkeypatch):
        loss, pair, noise = deep_noisy_case()
        args = (loss, pair.base, 0.2, 4, 0.9, 2000, 16, 3, np.ones(16),
                np.zeros(16), noise)
        one = verify.check_contraction(*args)
        monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 8)
        started = count_thread_starts(monkeypatch)
        many = verify.check_contraction(*args)
        assert len(started) == 1 and not started[0].is_alive()
        assert int(many.note.split()[1]) > 2 * 8
        assert many.margin == one.margin and many.details == one.details

    def test_every_lane_diverged_joins_the_worker(self, monkeypatch):
        datasets, starts = explosive_datasets("two_datasets")
        loss = model.LossModel("Quadratic")
        config = SGDConfig(ETA_HOT, 1, GUARD_KMAX, starts[0], 5)
        noise = NoiseModel("gaussian_diag", (1e-15,) * 2)
        pool = run_lanes_per_step(loss, datasets, starts, config, noise,
                                  range(200)).diverged_at
        lanes = [r for r, at in enumerate(pool) if 10 < at < 16][:4]
        monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 3)
        started = count_thread_starts(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = run_lanes(loss, datasets, starts, config, noise, lanes,
                            lambda first, block: None)
        assert run.steps < GUARD_KMAX and np.all(run.diverged_at < 16)
        assert len(started) == 1 and not started[0].is_alive()

    def test_observer_error_in_block_3_propagates(self, monkeypatch):
        error = RuntimeError("observer failed")

        def observe(first, block):
            if first == 3 * DEEP_ROWS + 1:
                raise error

        before = threading.active_count()
        started = count_thread_starts(monkeypatch)
        with pytest.raises(RuntimeError) as raised:
            run_lanes(*deep_noisy_lanes(10 * DEEP_ROWS), observe)
        assert raised.value is error
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    # KeyboardInterrupt is a BaseException that is not an Exception
    @pytest.mark.parametrize("error", [MemoryError("fill failed"),
                                       KeyboardInterrupt("fill stopped")],
                             ids=lambda e: type(e).__name__)
    def test_fill_error_propagates(self, monkeypatch, error):
        fill, calls = NoiseModel.fill, []

        def failing(self, rngs, out):
            calls.append(threading.current_thread())
            if len(calls) == 4:     # block 3, drawn by the worker
                raise error
            fill(self, rngs, out)

        monkeypatch.setattr(NoiseModel, "fill", failing)
        before = threading.active_count()
        started = count_thread_starts(monkeypatch)
        with pytest.raises(type(error)) as raised:
            run_lanes(*deep_noisy_lanes(10 * DEEP_ROWS),
                      lambda first, block: None)
        assert raised.value is error
        assert calls[3] is started[0] is not threading.main_thread()
        assert not started[0].is_alive()
        assert threading.active_count() == before

    def test_concurrent_runs_under_a_short_switch_interval(self,
                                                           monkeypatch):
        # three runs on their own threads, each with a worker: six threads
        # on however few cores, switching every microsecond
        loss, pair, noise = deep_noisy_case()
        config = SGDConfig(0.2, 4, 60, np.zeros(16), 3)

        def run(i):
            return record_lanes(loss, (pair.base, pair.perturbed),
                                (np.zeros(16),) * 2, config, noise,
                                range(4 * i, 4 * i + 4), [0, 30, 60])

        want = [run(i) for i in range(3)]
        monkeypatch.setattr(dynamics, "_BLOCK_STEPS", 4)
        got = {}
        threads = [threading.Thread(target=lambda i=i: got.update({i: run(i)}))
                   for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(3):
            assert_equal_records(got[i], want[i])
