"""A wall-clock limit on every test, so that a fault which makes a loop
run forever fails its test instead of stopping the suite."""

import signal

import pytest

# seconds per test; the slowest test takes about 2 s
TIME_LIMIT_S = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expired(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the limit of {TIME_LIMIT_S} s per test", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
