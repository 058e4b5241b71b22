import time
from pathlib import Path

import pytest
from hypothesis import settings

from apsums.verification import IDENTITIES, MAX_DEPTH

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def identity():
    """Assert one registry entry, by its ``suite: name`` label, at MAX_DEPTH.

    MAX_DEPTH is the depth at which every suite's size cap binds.  Each entry
    runs once per session, however many tests name it, and must finish
    within 10 s.
    """
    entries = {entry.label: entry for entry in IDENTITIES}
    timed = {}

    def check(label):
        if label not in timed:
            start = time.perf_counter()
            result = entries[label].run(MAX_DEPTH)
            timed[label] = (result, time.perf_counter() - start)
        result, seconds = timed[label]
        assert result.status != "FAIL", f"{label}: {result.detail}"
        assert seconds < 10, f"{label} exceeded its 10 s budget: {seconds:.1f}s"

    return check


@pytest.fixture
def src_dir():
    """The checkout's ``src`` directory: ``python -m apsums`` run from it finds the package."""
    return Path(__file__).resolve().parents[1] / "src"
