"""Reference for stream layout v3, one minibatch at a time.

The engine draws many minibatches per ``Generator.integers`` call and runs
Floyd's selection on all of them at once; this draws one row per call and
picks one index at a time, as Bentley and Floyd wrote it.
"""

import numpy as np


def floyd_pick(draws, n):
    """Floyd's selection on one row of draws, draw t on [0, n - b + t]:
    each is taken as it is unless already picked, else n - b + t."""
    b, picks = len(draws), []
    for t, v in enumerate(np.asarray(draws).tolist()):
        picks.append(n - b + t if v in picks else v)
    return np.array(picks, dtype=np.int64)


def floyd_row(rng, n, b):
    """One minibatch of ``rng``: one ``integers`` draw per index, then
    :func:`floyd_pick`."""
    return floyd_pick(rng.integers(0, np.arange(n - b + 1, n + 1)), n)
