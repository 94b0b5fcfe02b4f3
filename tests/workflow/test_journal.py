"""Unit tests for the event-sourced run journal and journal-based resume."""

import threading

import pytest

from repro.provenance.store import ProvenanceStore
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import LocalEngine
from repro.workflow.fault import RetryPolicy
from repro.workflow.journal import (
    JournalError,
    JournalEventType,
    RunJournal,
    has_journal,
    journal_safe_context,
    recover_context,
    replay_journal,
)
from repro.workflow.relation import Relation


def identity(t, c):
    return [dict(t)]


def two_stage(fail_keys=(), fail_once_keys=()):
    """A 2-activity workflow whose second stage fails for chosen keys."""
    attempts: dict[str, int] = {}

    def stage2(t, c):
        k = t["key"]
        attempts[k] = attempts.get(k, 0) + 1
        if k in fail_keys:
            raise RuntimeError("permanent")
        if k in fail_once_keys and attempts[k] == 1:
            raise RuntimeError("transient")
        return [{"key": k, "out": k.upper()}]

    return Workflow(
        "W",
        [
            Activity("stage1", Operator.MAP, fn=identity),
            Activity("stage2", Operator.MAP, fn=stage2),
        ],
    )


def rel(*keys):
    return Relation("in", [{"key": k} for k in keys])


def assert_strictly_monotonic(seqs):
    assert seqs, "journal is empty"
    assert all(b > a for a, b in zip(seqs, seqs[1:])), seqs


FAST = RetryPolicy(max_attempts=1, base_delay=0.01)


class TestRunJournalWriter:
    def test_seq_strictly_monotonic(self):
        store = ProvenanceStore()
        wkfid = store.begin_workflow("W", starttime=0.0)
        actid = store.register_activity(wkfid, "stage1")
        j = RunJournal(store, wkfid)
        j.run_started("W", pipeline=True, context=None, relation_size=2)
        j.scheduled(0, "a", {"key": "a"}, None)
        j.dispatched(0, "a")
        tid = j.attempt_started("a", "stage1", 0, actid=actid)
        j.attempt_ended(tid, 1.0)
        j.completed(0, "a", [{"key": "a"}])
        j.run_finished()
        rows = store.journal_events(wkfid)
        assert [r["seq"] for r in rows] == list(range(6))
        assert [r["event"] for r in rows] == [
            "run-started", "scheduled", "dispatched", "attempt-start",
            "completed", "run-finished",
        ]

    def test_terminal_event_is_a_flush_barrier(self):
        # Non-terminal events ride the write buffer; a completed event
        # must drain it synchronously — the crash-durability guarantee.
        s = ProvenanceStore(buffer_size=1000, flush_interval=3600.0)
        wkfid = s.begin_workflow("W", starttime=0.0)
        j = RunJournal(s, wkfid)
        j.scheduled(0, "a", {"key": "a"}, None)
        j.dispatched(0, "a")
        assert s._pending_count > 0
        j.completed(0, "a", [{"key": "a"}])
        assert s._pending_count == 0
        s.close()

    def test_unpicklable_payload_degrades_to_reexecution(self):
        # A completed event whose outputs can't pickle is still terminal
        # but not replayable: resume re-runs it instead of crashing.
        store = ProvenanceStore()
        wkfid = store.begin_workflow("W", starttime=0.0)
        j = RunJournal(store, wkfid)
        j.completed(0, "a", [{"key": "a", "lock": threading.Lock()}])
        replay = replay_journal(store, wkfid)
        assert (0, "a") in replay.terminal
        assert replay.outputs_for(0, "a") is None

    def test_journal_safe_context_filters(self):
        ctx = {
            "kernel": "tables",
            "etable_points": 512,
            "steering": "live-object-by-convention",   # unjournaled key
            "wkfid": 7,                                # unjournaled key
            "lock": threading.Lock(),                  # unpicklable value
        }
        assert journal_safe_context(ctx) == {
            "kernel": "tables", "etable_points": 512,
        }
        assert journal_safe_context(None) == {}


class TestEngineJournaling:
    def test_run_writes_full_taxonomy(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=2)
        report = engine.run(two_stage(), rel("a", "b", "c"))
        rows = store.journal_events(report.wkfid)
        names = [r["event"] for r in rows]
        assert names[0] == "run-started"
        assert names[-1] == "run-finished"
        # 3 tuples x 2 stages, one event of each kind per item.
        for kind in ("scheduled", "dispatched", "attempt-start", "completed"):
            assert names.count(kind) == 6, kind
        assert_strictly_monotonic([r["seq"] for r in rows])

    def test_failed_item_journals_failed_terminal(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=FAST)
        report = engine.run(two_stage(fail_keys=("b",)), rel("a", "b"))
        rows = store.journal_events(report.wkfid)
        failed = [r for r in rows if r["event"] == "failed"]
        assert [(r["stage"], r["tuple_key"]) for r in failed] == [(1, "b")]
        # The failure never produced a completed event for that item.
        completed = {
            (r["stage"], r["tuple_key"])
            for r in rows
            if r["event"] == "completed"
        }
        assert (1, "b") not in completed

    def test_has_journal_and_recover_context(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1)
        report = engine.run(
            two_stage(), rel("a"), context={"kernel": "tables"}
        )
        assert has_journal(store, report.wkfid)
        ctx = recover_context(store, report.wkfid)
        assert ctx["kernel"] == "tables"
        # Coordinator-owned keys the engine injects never round-trip.
        assert "wkfid" not in ctx
        # Pre-journal (or foreign) runs have nothing to recover.
        bare = store.begin_workflow("OLD", starttime=0.0)
        assert not has_journal(store, bare)
        assert recover_context(store, bare) is None


class TestReplay:
    def test_replay_unjournaled_run_raises(self):
        store = ProvenanceStore()
        bare = store.begin_workflow("OLD", starttime=0.0)
        with pytest.raises(JournalError):
            replay_journal(store, bare)

    def test_replay_folds_a_clean_run(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1)
        report = engine.run(two_stage(), rel("a", "b", "c"))
        replay = replay_journal(store, report.wkfid)
        assert replay.workflow_tag == "W"
        assert replay.pipeline is True
        assert replay.finished
        assert replay.resumed_from is None
        assert len(replay.completed) == 6
        assert replay.frontier() == []
        assert replay.outputs_for(1, "a") == [{"key": "a", "out": "A"}]
        seeded = replay.seed_relation()
        assert [t["key"] for t in seeded] == ["a", "b", "c"]

    def test_non_monotonic_seq_rejected(self):
        store = ProvenanceStore()
        wkfid = store.begin_workflow("W", starttime=0.0)
        store.record_journal_event(wkfid, 0, "run-started")
        store.record_journal_event(wkfid, 0, "completed", 0, "a")
        with pytest.raises(JournalError, match="monotonic"):
            replay_journal(store, wkfid)

    def test_seed_relation_requires_replayable_seeds(self):
        store = ProvenanceStore()
        wkfid = store.begin_workflow("W", starttime=0.0)
        j = RunJournal(store, wkfid)
        j.run_started("W", pipeline=True, context=None, relation_size=1)
        j.scheduled(0, "a", {"key": "a", "lock": threading.Lock()}, None)
        replay = replay_journal(store, wkfid)
        with pytest.raises(JournalError, match="pass the relation"):
            replay.seed_relation()


class TestResume:
    def test_resume_replays_finished_items_without_reexecution(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=FAST)
        r1 = engine.run(two_stage(fail_keys=("b",)), rel("a", "b", "c"))
        assert sorted(t["key"] for t in r1.output) == ["a", "c"]

        r2 = engine.resume(r1.wkfid, two_stage())
        # stage1 of a/b/c and stage2 of a/c replay; only stage2 of b runs.
        assert r2.replayed == 5
        assert sorted(t["key"] for t in r2.output) == ["a", "b", "c"]
        executed = store.activations(r2.wkfid)
        assert [(r["tuple_key"]) for r in executed] == ["b"]
        # The resumed run's journal is self-contained: every item — the
        # 5 replayed and the 1 re-run — re-journals a completed event.
        rows = store.journal_events(r2.wkfid)
        names = [r["event"] for r in rows]
        assert names.count("replayed") == 5
        assert names.count("completed") == 6
        assert_strictly_monotonic([r["seq"] for r in rows])
        assert replay_journal(store, r2.wkfid).resumed_from == r1.wkfid

    def test_resume_runs_under_journaled_context(self):
        store = ProvenanceStore()
        calls: dict[str, int] = {}

        def work(t, c):
            k = t["key"]
            calls[k] = calls.get(k, 0) + 1
            if k == "b" and calls[k] == 1:
                raise RuntimeError("boom")
            return [{"key": k, "mode": c.get("kernel", "MISSING")}]

        wf = Workflow("W", [Activity("work", Operator.MAP, fn=work)])
        engine = LocalEngine(store, workers=1, retry=FAST)
        r1 = engine.run(wf, rel("a", "b"), context={"kernel": "tables"})
        assert [t["key"] for t in r1.output] == ["a"]
        r2 = engine.resume(r1.wkfid, wf)
        assert r2.replayed == 1
        modes = {t["key"]: t["mode"] for t in r2.output}
        # The re-executed tuple saw the recovered context, and the
        # replayed tuple's logged output carries the original's.
        assert modes == {"a": "tables", "b": "tables"}

    def test_resume_chains_through_repeated_crashes(self):
        # A resumed run that fails again is itself resumable, because
        # replayed completions are re-journaled into the new run.
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=FAST)
        r1 = engine.run(two_stage(fail_keys=("b",)), rel("a", "b", "c"))
        r2 = engine.resume(r1.wkfid, two_stage(fail_keys=("b",)))
        assert sorted(t["key"] for t in r2.output) == ["a", "b", "c"][::2]
        r3 = engine.resume(r2.wkfid, two_stage())
        assert r3.replayed == 5
        assert sorted(t["key"] for t in r3.output) == ["a", "b", "c"]
        assert replay_journal(store, r3.wkfid).resumed_from == r2.wkfid

    def test_resume_explicit_relation_and_context_override(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=FAST)
        r1 = engine.run(
            two_stage(fail_keys=("b",)), rel("a", "b"),
            context={"kernel": "tables"},
        )
        r2 = engine.resume(
            r1.wkfid, two_stage(), relation=rel("a", "b"),
            context={"kernel": "analytic"},
        )
        assert sorted(t["key"] for t in r2.output) == ["a", "b"]
        # The override wins over the journaled value in the new header.
        assert recover_context(store, r2.wkfid)["kernel"] == "analytic"


class TestSimulatedEngineJournal:
    def test_sim_run_journals_events(self):
        from repro.cloud.cluster import VirtualCluster
        from repro.cloud.provider import CloudProvider
        from repro.cloud.simclock import SimClock
        from repro.workflow.engine import SimulatedEngine

        store = ProvenanceStore()
        cluster = VirtualCluster(CloudProvider(SimClock()))
        cluster.scale_to(2)
        wf = Workflow("W", [Activity("s", Operator.MAP, cost_fn=lambda t: 3.0)])
        report = SimulatedEngine(store, cluster).run(wf, rel("a", "b", "c"))
        rows = store.journal_events(report.wkfid)
        names = [r["event"] for r in rows]
        assert names[0] == "run-started"
        assert names[-1] == "run-finished"
        assert names.count("completed") == 3
        assert_strictly_monotonic([r["seq"] for r in rows])

    def test_sim_run_with_failures_replays(self):
        from repro.cloud.cluster import VirtualCluster
        from repro.cloud.failures import ActivityFailureModel
        from repro.cloud.provider import CloudProvider
        from repro.cloud.simclock import SimClock
        from repro.workflow.engine import SimulatedEngine

        class FailKey:
            """``b`` always fails; ``a`` fails on its first attempt."""

            def fails(self, key, attempt=0):
                return key == "s:b" or (key == "s:a" and attempt == 0)

        store = ProvenanceStore()
        cluster = VirtualCluster(CloudProvider(SimClock()))
        cluster.scale_to(2)
        wf = Workflow("W", [Activity("s", Operator.MAP, cost_fn=lambda t: 3.0)])
        report = SimulatedEngine(
            store, cluster, failure_model=FailKey(),
            retry=RetryPolicy(max_attempts=2, retry_delay=0.5),
        ).run(wf, rel("a", "b", "c"))
        assert report.retried == 2
        replay = replay_journal(store, report.wkfid)
        assert replay.finished
        assert replay.terminal == {
            (0, "a"): "completed", (0, "b"): "failed", (0, "c"): "completed",
        }
        assert replay.outputs_for(0, "a") == [{"key": "a"}]
        assert replay.outputs_for(0, "b") is None
        assert replay.frontier() == []
        assert [t["key"] for t in replay.seed_relation()] == ["a", "b", "c"]
        # Journal timestamps are virtual seconds since the run started.
        rows = store.journal_events(report.wkfid)
        assert rows[-1]["ts"] == pytest.approx(report.tet_seconds)


def _global_call(module: str, name: str, arg: str) -> bytes:
    """A protocol-4 pickle that calls ``module.name(arg)`` when loaded."""

    def short(text: str) -> bytes:
        raw = text.encode()
        return b"\x8c" + bytes([len(raw)]) + raw

    return (
        b"\x80\x04" + short(module) + short(name) + b"\x93"
        + short(arg) + b"\x85R."
    )


class TestPayloadsFailClosed:
    """Resume trusts the journal alone, so its payloads are decoded with
    a restricted unpickler: builtin containers and scalars, plus
    ``repro.`` classes — never a function or a foreign class."""

    def test_reduce_to_os_system_is_refused_and_never_runs(self, tmp_path):
        import os
        import pickle

        from repro.workflow.journal import decode_payload

        marker = tmp_path / "ran"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {marker}",))

        blob = pickle.dumps(Evil(), protocol=pickle.HIGHEST_PROTOCOL)
        assert decode_payload(blob) is None
        assert not marker.exists()
        # The same call spelled as a raw global is refused too.
        raw = _global_call("os", "system", f"touch {marker}")
        assert decode_payload(raw) is None
        assert not marker.exists()

    def test_foreign_objects_reached_through_repro_are_refused(self):
        from repro.workflow.journal import decode_payload

        # A function, and a class defined outside repro, both reachable
        # as attributes of a repro module.
        assert decode_payload(
            _global_call("repro.workflow.journal", "pickle.loads", "x")
        ) is None
        assert decode_payload(
            _global_call("repro.workflow.journal", "io.StringIO", "x")
        ) is None

    def test_builtins_and_repro_classes_round_trip(self):
        from repro.cloud.failures import ActivityFailureModel
        from repro.workflow.journal import decode_payload, encode_payload

        payload = {
            "tup": {"key": "a", "n": 3, "x": 1.5, "z": 1 + 2j, "b": b"\x00"},
            "sets": (frozenset({1}), {2, 3}),
            "model": ActivityFailureModel(rate=0.25, seed=7),
            "status": JournalEventType.COMPLETED,
        }
        back = decode_payload(encode_payload(payload))
        assert back["tup"] == payload["tup"]
        assert back["sets"] == payload["sets"]
        assert back["model"].rate == 0.25 and back["model"].seed == 7
        assert back["status"] is JournalEventType.COMPLETED

    def test_refused_item_payload_degrades_to_reexecution(self):
        store = ProvenanceStore()
        wkfid = store.begin_workflow("W", starttime=0.0)
        j = RunJournal(store, wkfid)
        j.run_started("W", pipeline=True, context=None, relation_size=1)
        store.record_journal_event(
            wkfid, 1, "completed", 0, "a",
            payload=_global_call("os", "getenv", "HOME"),
        )
        replay = replay_journal(store, wkfid)
        assert (0, "a") in replay.terminal
        assert replay.outputs_for(0, "a") is None

    def test_refused_run_started_header_blocks_resume(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=FAST)
        r1 = engine.run(two_stage(fail_keys=("b",)), rel("a", "b"))
        store.sql(
            "UPDATE hjournal SET payload = ? WHERE wkfid = ? AND event = ?",
            (_global_call("os", "getenv", "HOME"), r1.wkfid, "run-started"),
        )
        with pytest.raises(JournalError, match="run-started header"):
            replay_journal(store, r1.wkfid)
        runs_before = store.sql("SELECT COUNT(*) AS n FROM hworkflow")[0]["n"]
        with pytest.raises(JournalError, match="run-started header"):
            engine.resume(r1.wkfid, two_stage())
        # Nothing ran under a default context.
        runs_after = store.sql("SELECT COUNT(*) AS n FROM hworkflow")[0]["n"]
        assert runs_after == runs_before
