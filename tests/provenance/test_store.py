"""Unit tests for the provenance store and the paper's queries."""

import pytest

from repro.provenance.prov_model import export_prov_document, to_prov_n
from repro.provenance.queries import (
    activation_durations,
    activity_history_statistics,
    query1_activity_statistics,
    query1_sql,
    query2_files,
    workflow_tet,
)
from repro.provenance.store import ActivationStatus, ProvenanceStore


@pytest.fixture()
def store():
    with ProvenanceStore() as s:
        yield s


@pytest.fixture()
def populated(store):
    """A tiny SciDock-shaped run: 2 activities x 2 activations each."""
    wkfid = store.begin_workflow(
        "SciDock", "Docking", "scidock", "/root/scidock/", starttime=0.0
    )
    babel = store.register_activity(wkfid, "babel")
    ad4 = store.register_activity(wkfid, "autodock4")
    t = 0.0
    for actid, durations in ((babel, [2.0, 3.0]), (ad4, [100.0, 140.0])):
        for k, dur in enumerate(durations):
            tid = store.begin_activation(
                actid, f"pair-{k}", starttime=t, vm_id="i-1", core_index=0
            )
            store.end_activation(tid, endtime=t + dur)
            if actid == ad4:
                store.record_file(
                    tid, f"LIG_{k}.dlg", 65740, f"/root/exp_SciDock/autodock4/{k}/"
                )
                store.record_extracts(tid, {"feb": -5.2 - k, "rmsd": 9.5})
            t += dur
    store.end_workflow(wkfid, endtime=t)
    return wkfid


class TestLifecycle:
    def test_begin_end_workflow(self, store):
        wkfid = store.begin_workflow("W", starttime=1.0)
        store.end_workflow(wkfid, endtime=11.0)
        assert workflow_tet(store, wkfid) == pytest.approx(10.0)

    def test_unfinished_workflow_tet_raises(self, store):
        wkfid = store.begin_workflow("W")
        with pytest.raises(ValueError):
            workflow_tet(store, wkfid)

    def test_unknown_workflow_raises(self, store):
        with pytest.raises(KeyError):
            store.workflow_row(99)

    def test_activation_statuses(self, store):
        wkfid = store.begin_workflow("W")
        act = store.register_activity(wkfid, "a")
        ok = store.begin_activation(act, "t1", 0.0)
        store.end_activation(ok, 1.0)
        bad = store.begin_activation(act, "t2", 0.0)
        store.end_activation(bad, 2.0, ActivationStatus.FAILED, 1, "boom")
        counts = store.counts_by_status(wkfid)
        assert counts == {"FINISHED": 1, "FAILED": 1}

    def test_failed_activations_query(self, store):
        wkfid = store.begin_workflow("W")
        act = store.register_activity(wkfid, "a")
        tid = store.begin_activation(act, "t1", 0.0)
        store.end_activation(tid, 1.0, ActivationStatus.FAILED, 1, "err")
        failed = store.failed_activations(wkfid)
        assert len(failed) == 1
        assert failed[0]["errormsg"] == "err"

    def test_blocked_records(self, store):
        wkfid = store.begin_workflow("W")
        act = store.register_activity(wkfid, "prep")
        store.record_blocked(act, "1CS8-042", 5.0, "Hg present in receptor")
        counts = store.counts_by_status(wkfid)
        assert counts == {"BLOCKED": 1}

    def test_attempt_tracking(self, store):
        wkfid = store.begin_workflow("W")
        act = store.register_activity(wkfid, "a")
        t1 = store.begin_activation(act, "k", 0.0, attempt=0)
        store.end_activation(t1, 1.0, ActivationStatus.FAILED)
        t2 = store.begin_activation(act, "k", 1.0, attempt=1)
        store.end_activation(t2, 2.0)
        rows = store.activations(wkfid)
        assert [r["attempt"] for r in rows] == [0, 1]


class TestQuery1:
    def test_statistics_per_activity(self, store, populated):
        stats = {s.tag: s for s in query1_activity_statistics(store, populated)}
        assert stats["babel"].min == pytest.approx(2.0)
        assert stats["babel"].max == pytest.approx(3.0)
        assert stats["babel"].sum == pytest.approx(5.0)
        assert stats["babel"].avg == pytest.approx(2.5)
        assert stats["autodock4"].avg == pytest.approx(120.0)

    def test_raw_sql_matches_helper(self, store, populated):
        rows = store.sql(query1_sql(), (populated,))
        helper = query1_activity_statistics(store, populated)
        assert len(rows) == len(helper)
        by_tag = {r["tag"]: r for r in rows}
        for s in helper:
            assert by_tag[s.tag]["avg"] == pytest.approx(s.avg)

    def test_stddev_population_moments(self, store, populated):
        stats = {s.tag: s for s in query1_activity_statistics(store, populated)}
        # babel [2, 3]: population stddev 0.5; autodock4 [100, 140]: 20.
        assert stats["babel"].stddev == pytest.approx(0.5)
        assert stats["autodock4"].stddev == pytest.approx(20.0)

    def test_history_aggregates_across_runs(self, store, populated):
        # A second run of babel shifts the all-runs aggregate while the
        # per-run Query-1 view of the first run stays put.
        wkfid2 = store.begin_workflow("SciDock", starttime=1000.0)
        babel2 = store.register_activity(wkfid2, "babel")
        tid = store.begin_activation(babel2, "pair-x", starttime=1000.0)
        store.end_activation(tid, endtime=1007.0)
        store.end_workflow(wkfid2, endtime=1007.0)

        history = {s.tag: s for s in activity_history_statistics(store)}
        assert history["babel"].count == 3
        assert history["babel"].avg == pytest.approx((2.0 + 3.0 + 7.0) / 3)
        per_run = {s.tag: s for s in query1_activity_statistics(store, populated)}
        assert per_run["babel"].count == 2
        assert per_run["babel"].avg == pytest.approx(2.5)

    def test_only_finished_counted(self, store):
        wkfid = store.begin_workflow("W")
        act = store.register_activity(wkfid, "a")
        t1 = store.begin_activation(act, "x", 0.0)
        store.end_activation(t1, 5.0)
        t2 = store.begin_activation(act, "y", 0.0)
        store.end_activation(t2, 500.0, ActivationStatus.FAILED)
        stats = query1_activity_statistics(store, wkfid)
        assert stats[0].count == 1


class TestQuery2:
    def test_finds_dlg_files(self, store, populated):
        files = query2_files(store, populated, ".dlg")
        assert len(files) == 2
        assert files[0].workflow_tag == "SciDock"
        assert files[0].activity_tag == "autodock4"
        assert files[0].fname.endswith(".dlg")
        assert files[0].fsize == 65740
        assert "/root/exp_SciDock/autodock4/" in files[0].fdir

    def test_extension_filter(self, store, populated):
        assert query2_files(store, populated, ".pdbqt") == []


class TestExtracts:
    def test_extract_roundtrip(self, store, populated):
        rows = store.extracts(populated, "feb")
        values = sorted(float(r["value"]) for r in rows)
        assert values == [-6.2, -5.2]

    def test_single_extract(self, store):
        wkfid = store.begin_workflow("W")
        act = store.register_activity(wkfid, "a")
        tid = store.begin_activation(act, "k", 0.0)
        store.end_activation(tid, 1.0)
        store.record_extract(tid, "energy", -7.25)
        rows = store.extracts(wkfid, "energy")
        assert float(rows[0]["value"]) == -7.25


class TestDurations:
    def test_histogram_data(self, store, populated):
        durations = activation_durations(store, populated)
        assert sorted(durations) == [2.0, 3.0, 100.0, 140.0]


class TestProvExport:
    def test_document_structure(self, store, populated):
        doc = export_prov_document(store, populated)
        assert doc["workflow"]["tag"] == "SciDock"
        assert len(doc["activity"]) == 4
        assert len(doc["entity"]) == 2
        assert "vm:i-1" in doc["agent"]
        assert len(doc["wasGeneratedBy"]) == 2
        assert len(doc["wasAssociatedWith"]) == 4

    def test_prov_n_rendering(self, store, populated):
        text = to_prov_n(export_prov_document(store, populated))
        assert text.startswith("document")
        assert text.rstrip().endswith("endDocument")
        assert "wasGeneratedBy(file:" in text
        assert "agent(vm:i-1" in text

    def test_file_backed_store(self, tmp_path):
        path = tmp_path / "prov.db"
        with ProvenanceStore(path) as s:
            wkfid = s.begin_workflow("W", starttime=0.0)
            s.end_workflow(wkfid, 5.0)
        with ProvenanceStore(path) as s2:
            assert s2.workflow_row(wkfid)["tag"] == "W"


class TestWriteBatching:
    def test_buffered_records_visible_through_sql(self):
        s = ProvenanceStore(buffer_size=1000)
        wkfid = s.begin_workflow("W", starttime=0.0)
        actid = s.register_activity(wkfid, "dock")
        tids = [s.begin_activation(actid, f"k{i}", float(i)) for i in range(10)]
        for t in tids:
            s.end_activation(t, 99.0)
        s.record_file(tids[0], "out.dlg", 128, "/tmp")
        s.record_extracts(tids[0], {"feb": -7.5, "rmsd": 0.9})
        # Nothing has been committed yet...
        assert s._pending_count > 0
        # ...but steering queries flush first and see everything.
        assert s.counts_by_status(wkfid) == {"FINISHED": 10}
        assert s._pending_count == 0
        assert len(s.extracts(wkfid, "feb")) == 1
        s.close()

    def test_end_after_flush_queues_update(self):
        s = ProvenanceStore(buffer_size=1000)
        wkfid = s.begin_workflow("W", starttime=0.0)
        actid = s.register_activity(wkfid, "dock")
        tid = s.begin_activation(actid, "k", 1.0)
        s.flush()
        s.end_activation(tid, 2.0, ActivationStatus.FAILED, 1, "boom")
        rows = s.activations(wkfid, ActivationStatus.FAILED)
        assert len(rows) == 1
        assert rows[0]["errormsg"] == "boom"
        s.close()

    def test_flush_threshold_triggers_commit(self):
        s = ProvenanceStore(buffer_size=3)
        wkfid = s.begin_workflow("W", starttime=0.0)
        actid = s.register_activity(wkfid, "dock")
        for i in range(3):
            s.begin_activation(actid, f"k{i}", float(i))
        # Third write crossed the threshold and drained the buffer.
        assert s._pending_count == 0
        s.close()

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "prov.db"
        with ProvenanceStore(path, buffer_size=1000) as s:
            wkfid = s.begin_workflow("W", starttime=0.0)
            actid = s.register_activity(wkfid, "dock")
            tid = s.begin_activation(actid, "k", 1.0)
            s.end_activation(tid, 2.0)
        with ProvenanceStore(path) as s2:
            assert s2.counts_by_status(wkfid) == {"FINISHED": 1}

    def test_taskids_resume_across_reopen(self, tmp_path):
        path = tmp_path / "prov.db"
        with ProvenanceStore(path, buffer_size=8) as s:
            wkfid = s.begin_workflow("W", starttime=0.0)
            actid = s.register_activity(wkfid, "dock")
            first = [s.begin_activation(actid, f"k{i}", 0.0) for i in range(4)]
        with ProvenanceStore(path, buffer_size=8) as s2:
            nxt = s2.begin_activation(actid, "k-new", 0.0)
        assert nxt == max(first) + 1

    def test_file_backed_uses_wal(self, tmp_path):
        with ProvenanceStore(tmp_path / "prov.db") as s:
            assert s.sql("PRAGMA journal_mode")[0][0] == "wal"

    def test_invalid_buffer_params(self):
        with pytest.raises(ValueError):
            ProvenanceStore(buffer_size=0)
        with pytest.raises(ValueError):
            ProvenanceStore(flush_interval=0.0)

    def test_barrier_event_commits_buffered_attempt_row(self, tmp_path):
        # One durability rule: an attempt row is buffered while it runs
        # and when it ends, and commits with the next journal barrier
        # event. Another connection (another process, in a real crash)
        # sees it from then on, whatever buffer_size says.
        import sqlite3

        path = tmp_path / "prov.db"
        s = ProvenanceStore(path, buffer_size=1000, flush_interval=3600.0)
        wkfid = s.begin_workflow("W", starttime=0.0)
        actid = s.register_activity(wkfid, "dock")
        tid = s.record_journal_event(
            wkfid, 0, "attempt-start", 0, "k", 0.0,
            activation={"actid": actid, "tuple_key": "k", "starttime": 0.0},
        )
        s.end_activation(tid, 1.0)
        reader = sqlite3.connect(path)
        try:
            query = "SELECT taskid, status FROM hactivation"
            assert reader.execute(query).fetchall() == []
            s.record_journal_event(wkfid, 1, "completed", 0, "k", 1.0,
                                   barrier=True)
            assert reader.execute(query).fetchall() == [(tid, "FINISHED")]
            events = reader.execute(
                "SELECT event FROM hjournal ORDER BY seq"
            ).fetchall()
            assert events == [("attempt-start",), ("completed",)]
        finally:
            reader.close()
            s.close()

    def test_blocked_event_commits_its_blocked_row(self, tmp_path):
        # An item retired before dispatch writes its BLOCKED row with
        # the journal's ``blocked`` barrier event: both are durable the
        # moment the call returns, whatever buffer_size says.
        import sqlite3

        from repro.workflow.journal import RunJournal

        path = tmp_path / "prov.db"
        s = ProvenanceStore(path, buffer_size=1000, flush_interval=3600.0)
        wkfid = s.begin_workflow("W", starttime=0.0)
        actid = s.register_activity(wkfid, "prep")
        journal = RunJournal(s, wkfid, clock=lambda: 5.0)
        tid = journal.blocked(0, "1CS8-042", "Hg present in receptor",
                              actid=actid)
        assert s._pending_count == 0
        reader = sqlite3.connect(path)
        try:
            rows = reader.execute(
                "SELECT taskid, tuple_key, status, errormsg FROM hactivation"
            ).fetchall()
            assert rows == [
                (tid, "1CS8-042", "BLOCKED", "Hg present in receptor")
            ]
            events = reader.execute(
                "SELECT event, tuple_key FROM hjournal"
            ).fetchall()
            assert events == [("blocked", "1CS8-042")]
        finally:
            reader.close()
            s.close()

    def test_concurrent_writers_stress(self):
        """Many threads hammering one buffered store: no lost records.

        Exercises the documented locking contract (buffer lock for
        appends, connection lock for flushes and reads), so concurrent
        begin/end/extract traffic (with reads mixed in, forcing flushes
        mid-stream) must never drop or duplicate a record.
        """
        import threading

        s = ProvenanceStore(buffer_size=17)
        wkfid = s.begin_workflow("W", starttime=0.0)
        actid = s.register_activity(wkfid, "dock")
        n_threads, per_thread = 8, 50
        errors = []

        def writer(worker: int) -> None:
            try:
                for i in range(per_thread):
                    tid = s.begin_activation(actid, f"w{worker}-{i}", float(i))
                    s.record_extract(tid, "worker", worker)
                    s.end_activation(tid, float(i) + 1.0)
                    if i % 10 == 0:  # steering read mid-stream
                        s.counts_by_status(wkfid)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = n_threads * per_thread
        assert s.counts_by_status(wkfid) == {"FINISHED": total}
        rows = s.sql("SELECT COUNT(DISTINCT taskid) AS n FROM hactivation")
        assert rows[0]["n"] == total
        assert len(s.sql("SELECT * FROM hextract")) == total
        s.close()


    def test_barrier_flushes_race_appenders_without_lost_updates(self):
        """Appenders take only the buffer lock while flushes write SQLite:
        with a coordinator thread flushing barrier events nonstop and the
        appenders' own size-triggered flushes racing it, no row may be
        lost or duplicated, and no end-of-attempt UPDATE may overtake its
        row's INSERT (which would leave it RUNNING)."""
        import itertools
        import sys
        import threading

        s = ProvenanceStore(buffer_size=7, flush_interval=3600.0)
        wkfid = s.begin_workflow("W", starttime=0.0)
        actid = s.register_activity(wkfid, "dock")
        seqs = itertools.count()
        n_threads, per_thread = 8, 60
        errors = []
        stop = threading.Event()

        def attempts(worker: int) -> None:
            try:
                for i in range(per_thread):
                    tid = s.record_journal_event(
                        wkfid, next(seqs), "attempt-start",
                        activation={
                            "actid": actid,
                            "tuple_key": f"w{worker}-{i}",
                            "starttime": 0.0,
                        },
                    )
                    s.end_activation(tid, 1.0)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def barriers() -> None:
            while not stop.is_set():
                s.record_journal_event(
                    wkfid, next(seqs), "completed", barrier=True
                )

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            coordinator = threading.Thread(target=barriers)
            workers = [
                threading.Thread(target=attempts, args=(w,))
                for w in range(n_threads)
            ]
            coordinator.start()
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
            stop.set()
            coordinator.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not coordinator.is_alive()
        assert not any(t.is_alive() for t in workers)
        assert not errors
        total = n_threads * per_thread
        assert s.counts_by_status(wkfid) == {"FINISHED": total}
        rows = s.sql("SELECT COUNT(DISTINCT taskid) AS n FROM hactivation")
        assert rows[0]["n"] == total
        s.close()


class TestCrashDurability:
    """SIGKILL a buffered writer mid-batch: no FINISHED row may vanish."""

    CHILD = """\
import os, sys
from repro.provenance.store import ProvenanceStore

s = ProvenanceStore(sys.argv[1], buffer_size=1000, flush_interval=3600.0)
wkfid = s.begin_workflow("W", starttime=0.0)
actid = s.register_activity(wkfid, "dock")
for i in range(20):
    tid = s.begin_activation(actid, f"k{i}", 0.0)
    s.end_activation(tid, 1.0)
    # The run loop's terminal journal event: the durability barrier.
    s.record_journal_event(wkfid, i, "completed", 0, f"k{i}", barrier=True)
# Buffered post-terminal noise that never flushes before the kill.
for i in range(5):
    s.begin_activation(actid, f"pending{i}", 0.0)
os.kill(os.getpid(), 9)
"""

    def test_finished_rows_survive_writer_sigkill(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        db = tmp_path / "prov.db"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, str(db)],
            env=env, capture_output=True, timeout=60.0,
        )
        assert proc.returncode == -9, proc.stderr.decode()
        with ProvenanceStore(db) as s:
            counts = s.counts_by_status(1)
            # Every row a barrier event followed survived the kill; the
            # never-flushed trailing begins are the only acceptable loss.
            assert counts.get("FINISHED") == 20


class TestJournalRows:
    def test_roundtrip_ordered_by_seq(self, store):
        wkfid = store.begin_workflow("W", starttime=0.0)
        store.record_journal_event(wkfid, 1, "scheduled", 0, "k", 0.5, b"x")
        store.record_journal_event(wkfid, 0, "run-started")
        rows = store.journal_events(wkfid)
        assert [r["seq"] for r in rows] == [0, 1]
        assert rows[1]["event"] == "scheduled"
        assert rows[1]["tuple_key"] == "k"
        assert rows[1]["ts"] == 0.5
        assert rows[1]["payload"] == b"x"
        # Other runs' events stay invisible.
        other = store.begin_workflow("W2", starttime=0.0)
        assert store.journal_events(other) == []

    def test_barrier_event_drains_write_buffer(self):
        s = ProvenanceStore(buffer_size=1000, flush_interval=3600.0)
        wkfid = s.begin_workflow("W", starttime=0.0)
        s.record_journal_event(wkfid, 0, "scheduled")
        assert s._pending_count > 0
        s.record_journal_event(wkfid, 1, "completed", barrier=True)
        assert s._pending_count == 0
        s.close()

    def test_eventids_resume_across_reopen(self, tmp_path):
        path = tmp_path / "prov.db"
        with ProvenanceStore(path) as s:
            wkfid = s.begin_workflow("W", starttime=0.0)
            first = s.record_journal_event(wkfid, 0, "run-started")
        with ProvenanceStore(path) as s2:
            nxt = s2.record_journal_event(wkfid, 1, "scheduled")
        assert nxt == first + 1
