"""Test-suite root conftest: shared helpers importable, hangs bounded.

The suite uses pytest's rootdir-based (no ``__init__.py``) layout, where
only each test file's own directory lands on ``sys.path``; adding this
directory explicitly lets every suite import shared helpers such as
``stat_helpers`` without packaging the tests.
"""

import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Suites whose tests start worker processes (or serve through engines
#: that do).  A regression back to a hang there must fail one test in
#: bounded time instead of stalling the lane; requirements-ci.txt has no
#: pytest-timeout, so the guard is a plain ``signal.alarm``.
_GUARDED_SUITES = {"parallel", "dist", "serve"}
HANG_LIMIT_SECONDS = 120


@pytest.fixture(autouse=True)
def hang_guard(request):
    """Raise ``TimeoutError`` in a guarded test that outlives the limit."""
    if request.node.path.parent.name not in _GUARDED_SUITES:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"{request.node.nodeid} still running after {HANG_LIMIT_SECONDS}s"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HANG_LIMIT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
