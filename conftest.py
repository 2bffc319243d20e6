"""Repo-level pytest configuration: a per-test wall-clock watchdog.

``pytest-timeout`` is deliberately not a dependency — the watchdog below
covers the one failure mode we care about (a test hanging forever on a
stuck worker pipe, a deadlocked queue, or an unserved asyncio future, which
the fault-injection and governance suites could produce if a bug escaped)
with stdlib ``SIGALRM`` only:

* the budget is generous (default 600 s — tier-1 tests run in milliseconds
  to seconds, so only a genuine hang can hit it) and the alarm fires a
  plain ``Failed`` with the elapsed budget, so a hang turns into a readable
  failure instead of a killed CI job with no traceback;
* ``REPRO_TEST_TIMEOUT`` overrides the budget in seconds, ``0`` disables;
* the guard arms only on platforms where ``SIGALRM`` exists (not Windows)
  and only in the main thread (xdist workers and embedded runs skip it
  silently), and always restores the previous handler — ``pytest-benchmark``
  and subprocess-spawning tests run undisturbed beneath it.

It also registers the hypothesis profile CI runs under: ``ci`` is
``derandomize=True`` (a property suite draws the same examples on every run,
so a red build is a regression, not a lucky draw) with no per-example
deadline; ``HYPOTHESIS_PROFILE=ci`` selects it, anything else — local runs
— keeps hypothesis's randomized default.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from hypothesis import settings

DEFAULT_TIMEOUT_SECONDS = 600.0

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def _budget() -> float:
    raw = os.environ.get("REPRO_TEST_TIMEOUT")
    if raw is None:
        return DEFAULT_TIMEOUT_SECONDS
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_TIMEOUT_SECONDS


def _can_arm() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@pytest.fixture(autouse=True)
def _test_watchdog(request):
    """Fail any test that outlives its wall-clock budget instead of hanging."""
    seconds = _budget()
    if seconds <= 0 or not _can_arm():
        yield
        return

    def _expired(signum, frame):
        pytest.fail(
            f"watchdog: {request.node.nodeid} exceeded {seconds:.0f}s "
            "(likely a hung worker pipe or an unserved future); set "
            "REPRO_TEST_TIMEOUT to adjust or 0 to disable",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    # setitimer supports float budgets and, unlike alarm(), cancels cleanly.
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
