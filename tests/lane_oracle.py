"""A ``run_lanes`` run recorded whole, for tests that compare runs.

``run_lanes`` keeps no trajectory: it hands each block of states to an
observer.  :func:`record_lanes` observes every block and keeps what a test
compares: the lanes' states at a list of checkpoints and every step's
chain distance.
"""

from typing import NamedTuple

import numpy as np

from stabilab.dynamics import run_lanes
from stabilab.model import _norms


class Recorded(NamedTuple):
    states: np.ndarray        # (L, len(checkpoints), 2, d)
    diverged_at: np.ndarray   # (L,) first diverged step, k_max + 1 if none
    distances: np.ndarray     # (L, k_max + 1), NaN once diverged
    steps: int                # steps run, k_max unless stepping stopped
    checkpoints: np.ndarray   # the steps of ``states``


def record_lanes(loss, datasets, starts, config, noise, replica_ids,
                 checkpoints=()) -> Recorded:
    """``run_lanes`` with an observer that records every block it is shown.

    A checkpoint after the last step run holds the final state, as if every
    lane had stayed frozen; a distance after it is 0, as if every live lane
    had coalesced; a distance from a lane's divergence step on is NaN."""
    replica_ids, k_max = list(replica_ids), config.k_max
    at = np.array(list(checkpoints), dtype=np.int64)
    states = np.full((len(replica_ids), len(at), 2) + np.shape(starts[0]),
                     np.nan)
    distances = np.full((len(replica_ids), k_max + 1), np.nan)

    def observe(first, block):
        hit = (at >= first) & (at < first + len(block))
        states[:, hit] = block[at[hit] - first].swapaxes(0, 1)
        distances[:, first:first + len(block)] = _norms(
            block[:, :, 0] - block[:, :, 1]).T

    run = run_lanes(loss, datasets, starts, config, noise, replica_ids,
                    observe)
    states[:, at > run.steps] = run.state[:, None]
    distances[:, run.steps + 1:] = 0
    distances[np.arange(k_max + 1) >= run.diverged_at[:, None]] = np.nan
    return Recorded(states, run.diverged_at, distances, run.steps, at)
