"""Session-wide fixtures shared by the test packages."""

import glob

import pytest


@pytest.fixture(scope="session", autouse=True)
def shm_segments_at_start() -> frozenset[str]:
    """Artifact-plane segments already in /dev/shm when the session began.

    /dev/shm is machine-wide, so the leak checks compare against this
    snapshot: a segment that any test of this session leaves behind
    fails them, one that an earlier, unrelated process left does not.
    """
    return frozenset(glob.glob("/dev/shm/rp*"))
