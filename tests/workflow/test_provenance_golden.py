"""Golden provenance parity: the store reads back exactly as recorded.

``provenance_golden.json`` was recorded by ``provenance_golden.py`` before
the run journal became the run loop's only write path. Routing every
activation row through the journal must not change a single query
result, PROV export entry, artifact/extract/dependency row or journal
event — exactly for the virtual-time runs, and in every non-time column
for the threads-backend runs.
"""

import json
from pathlib import Path

import pytest

from tests.workflow import provenance_golden

GOLDEN = json.loads(
    (Path(__file__).parent / "provenance_golden.json").read_text()
)


@pytest.fixture(scope="module")
def fresh() -> dict:
    return provenance_golden.all_snapshots()


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_snapshot_matches_golden(fresh, run):
    expected, got = GOLDEN[run], fresh[run]
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected)
        for section in expected:
            assert got[section] == expected[section], (run, section)
    else:
        assert got == expected, run
