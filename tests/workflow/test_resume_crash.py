"""Chaos harness: SIGKILL the coordinator mid-pipeline, resume from journal.

The acceptance case for the run journal. A child process runs a real
processes-backend pipeline against a file-backed store whose batched
write path never flushes on its own (see ``_crash_resume_child``); the
parent waits until the journal shows final-stage completions, SIGKILLs
the whole child process group, reopens the store, and asserts that
``LocalEngine.resume`` finishes the run with **zero re-execution of any
tuple the crashed run durably completed** and strictly monotonic journal
sequence numbers in both runs.

Killing the whole group also kills the child's multiprocessing resource
tracker, so the named POSIX semaphores of its process pools are never
unlinked; the test unlinks the ones the group created and checks that
it leaves none behind.
"""

import glob
import importlib.util
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

from repro.provenance.store import ProvenanceStore
from repro.workflow.engine import LocalEngine
from repro.workflow.journal import replay_journal

_HERE = Path(__file__).resolve().parent
CHILD = _HERE / "_crash_resume_child.py"
SRC = _HERE.parents[1] / "src"

_spec = importlib.util.spec_from_file_location("_crash_resume_child", CHILD)
child = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(child)

#: Final-stage index of the child's two-activity workflow.
LAST_STAGE = 1

#: Where Linux keeps multiprocessing's named semaphores.
SEMAPHORES = "/dev/shm/sem.mp-*"


def _semaphores() -> set[str]:
    return set(glob.glob(SEMAPHORES))


def _unlink_new_semaphores(before: set[str]) -> None:
    """Unlink the named semaphores created since ``before`` was taken."""
    for path in _semaphores() - before:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def _completed_last_stage(db: Path) -> int:
    """Durably journaled final-stage completions, read concurrently (WAL)."""
    try:
        con = sqlite3.connect(db, timeout=2.0)
    except sqlite3.Error:
        return 0
    try:
        row = con.execute(
            "SELECT COUNT(*) FROM hjournal WHERE event = 'completed'"
            " AND stage = ?",
            (LAST_STAGE,),
        ).fetchone()
        return int(row[0])
    except sqlite3.Error:
        return 0
    finally:
        con.close()


def _wait_for_completions(db: Path, proc, want: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out, err = proc.communicate()
            raise AssertionError(
                "child exited before the kill (the gate should have "
                f"pinned it): rc={proc.returncode}\n{err.decode()}"
            )
        if _completed_last_stage(db) >= want:
            return
        time.sleep(0.1)
    raise AssertionError(
        f"timed out waiting for {want} journaled completions "
        f"(saw {_completed_last_stage(db)})"
    )


def test_sigkill_coordinator_then_resume_with_zero_recomputation(tmp_path):
    db = tmp_path / "prov.db"
    gate = tmp_path / "gate"
    gate.write_text("hold")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    semaphores_before = _semaphores()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(db), str(gate)],
        env=env,
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        # Wait until at least two tuples have durably completed the
        # final stage, then kill coordinator + workers, no warning.
        _wait_for_completions(db, proc, want=2, timeout=60.0)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10.0)
        _unlink_new_semaphores(semaphores_before)
    gate.unlink()

    with ProvenanceStore(db) as store:
        wkfid = store.sql(
            "SELECT wkfid FROM hworkflow ORDER BY wkfid DESC LIMIT 1"
        )[0]["wkfid"]
        crashed = replay_journal(store, wkfid)  # validates seq monotonic
        assert not crashed.finished
        done_last = [k for (s, k) in crashed.completed if s == LAST_STAGE]
        assert len(done_last) >= 2
        # The gated tuple can't have finished before the kill.
        assert (LAST_STAGE, "slow-x") not in crashed.terminal

        engine = LocalEngine(store, workers=2, backend="threads")
        report = engine.resume(wkfid, child.build_workflow())

        assert sorted(t["key"] for t in report.output) == sorted(child.KEYS)
        assert report.replayed == len(crashed.completed)

        # Zero re-execution: nothing the crashed run durably completed
        # got an activation row in the resumed run.
        tags = [a.tag for a in child.build_workflow().activities]
        executed = {
            (r["tag"], r["tuple_key"])
            for r in store.sql(
                "SELECT a.tag, t.tuple_key FROM hactivation t"
                " JOIN hactivity a ON t.actid = a.actid WHERE a.wkfid = ?",
                (report.wkfid,),
            )
        }
        replayed_pairs = {(tags[s], k) for (s, k) in crashed.completed}
        assert executed.isdisjoint(replayed_pairs)
        # ...while the work the crash interrupted really re-ran.
        assert (tags[LAST_STAGE], "slow-x") in executed

        # Journal seq strictly monotonic in both the crashed run and
        # the resume (replay_journal raises otherwise — assert anyway).
        for run in (wkfid, report.wkfid):
            seqs = [r["seq"] for r in store.journal_events(run)]
            assert all(b > a for a, b in zip(seqs, seqs[1:]))
        assert replay_journal(store, report.wkfid).resumed_from == wkfid
    # No named semaphore of the killed group outlives the test.
    assert not _semaphores() - semaphores_before
