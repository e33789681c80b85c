"""Checks that hold for every test.

* Every test fails once it has run for ``TEST_LIMIT_S`` seconds.  The
  slowest test takes a few seconds, so a run that never stops stepping fails
  with a message naming the test instead of stalling the suite.  The limit
  is a SIGALRM timer, so it holds on POSIX only.
* Every test fails that leaves a thread running which was not running
  before it, such as a noise worker of ``dynamics.run_lanes`` that was
  never joined.
"""

import signal
import threading

import pytest

TEST_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran for more than "
                    f"{TEST_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_thread_left(request):
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate()
            if thread not in before and thread.is_alive()]
    if left:
        pytest.fail(f"{request.node.nodeid} left threads running: {left}",
                    pytrace=False)
