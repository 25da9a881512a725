from __future__ import annotations

import time

import pytest

from posetrep.derive import verify_tables


@pytest.fixture(scope="session")
def verify_report():
    """One run of verify_tables() over the bundled corpus, shared by the
    tests that inspect it: (report, seconds it took)."""
    start = time.monotonic()
    report = verify_tables()
    return report, time.monotonic() - start
