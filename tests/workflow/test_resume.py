"""Journal replay is the only resume path: every recovery case it covers.

Each test runs a workflow, then ``LocalEngine.resume`` on the journal it
left, and checks which items replayed from logged outputs and which
reached a worker again: only failed, timed-out or never-seen items may
execute; blocked items and predicate-known loopers are retired again at
decision time; completed items — including ones won by a speculative
twin — never re-execute.
"""

import time

import pytest

from repro.provenance.store import ProvenanceStore
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import LocalEngine
from repro.workflow.fault import RetryPolicy, Watchdog
from repro.workflow.journal import JournalError, replay_journal
from repro.workflow.relation import Relation


def two_stage_workflow(fail_keys=(), fail_once_keys=(), calls=None):
    """A 2-activity workflow whose second stage fails for chosen keys.

    ``calls`` (a list) records every ``(stage tag, key)`` that reached
    an activation callable.
    """
    attempts: dict[str, int] = {}
    seen = calls if calls is not None else []

    def stage1(t, c):
        seen.append(("stage1", t["key"]))
        return [dict(t)]

    def stage2(t, c):
        k = t["key"]
        seen.append(("stage2", k))
        attempts[k] = attempts.get(k, 0) + 1
        if k in fail_keys:
            raise RuntimeError("permanent")
        if k in fail_once_keys and attempts[k] == 1:
            raise RuntimeError("transient")
        return [{"key": k, "out": k.upper()}]

    return Workflow(
        "W",
        [
            Activity("stage1", Operator.MAP, fn=stage1),
            Activity("stage2", Operator.MAP, fn=stage2),
        ],
    )


REL = Relation("in", [{"key": k} for k in ("a", "b", "c")])
ONE_TRY = RetryPolicy(max_attempts=1, base_delay=0.01)


def executed(store, wkfid):
    """``(tag, key)`` of every activation row a run wrote."""
    return sorted(
        (r["tag"], r["tuple_key"])
        for r in store.sql(
            "SELECT a.tag, t.tuple_key FROM hactivation t"
            " JOIN hactivity a ON t.actid = a.actid WHERE a.wkfid = ?",
            (wkfid,),
        )
    )


def attempt_keys(store, wkfid):
    return sorted(
        r["tuple_key"]
        for r in store.journal_events(wkfid)
        if r["event"] == "attempt-start"
    )


class TestResumeCases:
    def test_failed_item_reexecutes_alone(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=ONE_TRY)
        wf = two_stage_workflow(fail_keys=("b",))
        r1 = engine.run(wf, REL.copy())
        assert replay_journal(store, r1.wkfid).terminal[(1, "b")] == "failed"
        # Same (still failing) workflow: b's stage2 is the only work.
        r2 = engine.resume(r1.wkfid, wf)
        assert r2.replayed == 5
        assert executed(store, r2.wkfid) == [("stage2", "b")]
        assert sorted(t["key"] for t in r2.output) == ["a", "c"]

    def test_healed_workflow_reruns_only_the_failure(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=ONE_TRY)
        r1 = engine.run(two_stage_workflow(fail_keys=("b",)), REL.copy())
        calls: list = []
        r2 = engine.resume(r1.wkfid, two_stage_workflow(calls=calls))
        assert r2.replayed == 5
        assert calls == [("stage2", "b")]
        assert sorted(t["key"] for t in r2.output) == ["a", "b", "c"]
        assert [t["out"] for t in r2.output if t["key"] == "b"] == ["B"]

    def test_clean_run_resume_executes_nothing(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1)
        r1 = engine.run(two_stage_workflow(), REL.copy())
        calls: list = []
        r2 = engine.resume(r1.wkfid, two_stage_workflow(calls=calls))
        assert r2.replayed == 6
        assert calls == []
        assert executed(store, r2.wkfid) == []
        assert sorted(t["key"] for t in r2.output) == ["a", "b", "c"]

    def test_clean_run_journal_leaves_nothing_to_rerun(self):
        # The journal of a clean run is the resume plan: every scheduled
        # item ended completed, with its outputs logged.
        store = ProvenanceStore()
        r1 = LocalEngine(store, workers=1).run(two_stage_workflow(), REL.copy())
        replay = replay_journal(store, r1.wkfid)
        assert replay.finished
        assert sorted(replay.seed_keys) == ["a", "b", "c"]
        assert set(replay.terminal) == set(replay.scheduled)
        assert set(replay.terminal.values()) == {"completed"}
        assert set(replay.completed) == set(replay.scheduled)
        assert len(replay.scheduled) == 6

    def test_retry_success_replays(self):
        # A transient failure that a retry healed leaves a completed
        # item: the resume has nothing to re-run.
        store = ProvenanceStore()
        engine = LocalEngine(
            store,
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        )
        r1 = engine.run(two_stage_workflow(fail_once_keys=("a",)), REL.copy())
        assert r1.retried == 1
        calls: list = []
        r2 = engine.resume(r1.wkfid, two_stage_workflow(calls=calls))
        assert r2.replayed == 6
        assert calls == []

    def test_larger_relation_runs_only_new_keys(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1)
        r1 = engine.run(two_stage_workflow(), Relation("in", [{"key": "a"}]))
        calls: list = []
        r2 = engine.resume(
            r1.wkfid, two_stage_workflow(calls=calls), relation=REL.copy()
        )
        assert r2.replayed == 2
        assert sorted(calls) == [
            ("stage1", "b"), ("stage1", "c"), ("stage2", "b"), ("stage2", "c"),
        ]
        assert sorted(t["key"] for t in r2.output) == ["a", "b", "c"]

    def test_watchdog_timed_out_item_reexecutes(self):
        store = ProvenanceStore()
        hang = {"b"}

        def maybe_hang(t, c):
            if t["key"] in hang:
                time.sleep(1.0)
            return [dict(t)]

        wf = Workflow(
            "W",
            [
                Activity(
                    "work", Operator.MAP, fn=maybe_hang, cost_fn=lambda t: 0.0
                )
            ],
        )
        engine = LocalEngine(
            store,
            workers=1,
            watchdog=Watchdog(timeout=0.2, multiplier=1.5, grace=0.05),
        )
        r1 = engine.run(wf, REL.copy())
        assert r1.timeouts == 1
        assert replay_journal(store, r1.wkfid).terminal[(0, "b")] == "aborted"
        hang.clear()
        r2 = engine.resume(r1.wkfid, wf)
        assert r2.replayed == 2
        assert executed(store, r2.wkfid) == [("work", "b")]
        assert sorted(t["key"] for t in r2.output) == ["a", "b", "c"]

    def test_blocked_item_never_reaches_a_worker(self):
        store = ProvenanceStore()
        calls: list = []
        wf = two_stage_workflow(calls=calls)
        wf.activities[0].looping_predicate = lambda t: t["key"] == "c"
        engine = LocalEngine(store, workers=1)
        r1 = engine.run(wf, REL.copy())
        assert r1.blocked == 1
        calls.clear()
        r2 = engine.resume(r1.wkfid, wf)
        assert r2.blocked == 1
        assert r2.replayed == 4
        assert calls == []
        assert "c" not in attempt_keys(store, r2.wkfid)
        assert store.counts_by_status(r2.wkfid) == {"BLOCKED": 1}

    def test_predicate_abort_never_reaches_a_worker(self):
        # Hg routine off: a predicate-known looper is aborted at decision
        # time, in the resumed run as in the original.
        store = ProvenanceStore()
        calls: list = []
        wf = two_stage_workflow(calls=calls)
        wf.activities[0].looping_predicate = lambda t: t["key"] == "c"
        engine = LocalEngine(store, workers=1, block_known_loopers=False)
        r1 = engine.run(wf, REL.copy())
        assert r1.aborted == 1
        calls.clear()
        r2 = engine.resume(r1.wkfid, wf)
        assert r2.aborted == 1
        assert r2.replayed == 4
        assert calls == []
        assert "c" not in attempt_keys(store, r2.wkfid)
        assert store.counts_by_status(r2.wkfid) == {"ABORTED": 1}

    def test_resume_keeps_history_in_same_store(self):
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, retry=ONE_TRY)
        r1 = engine.run(two_stage_workflow(fail_keys=("b",)), REL.copy())
        r2 = engine.resume(r1.wkfid, two_stage_workflow())
        assert r2.wkfid != r1.wkfid
        # Both runs visible in the store.
        assert store.workflow_row(r1.wkfid)["tag"] == "W"
        assert store.workflow_row(r2.wkfid)["tag"] == "W"
        assert store.counts_by_status(r1.wkfid)["FAILED"] == 1

    def _context_workflow(self):
        calls: dict[str, int] = {}

        def work(t, c):
            k = t["key"]
            calls[k] = calls.get(k, 0) + 1
            if k == "b" and calls[k] == 1:
                raise RuntimeError("boom")
            return [{"key": k, "mode": c.get("kernel", "MISSING")}]

        return Workflow("W", [Activity("work", Operator.MAP, fn=work)])

    def test_resume_recovers_original_context_from_journal(self):
        store = ProvenanceStore()
        wf = self._context_workflow()
        engine = LocalEngine(store, workers=1, retry=ONE_TRY)
        r1 = engine.run(wf, REL.copy(), context={"kernel": "tables"})
        r2 = engine.resume(r1.wkfid, wf)
        assert executed(store, r2.wkfid) == [("work", "b")]
        assert {t["key"]: t["mode"] for t in r2.output}["b"] == "tables"

    def test_resume_explicit_context_still_wins(self):
        store = ProvenanceStore()
        wf = self._context_workflow()
        engine = LocalEngine(store, workers=1, retry=ONE_TRY)
        r1 = engine.run(wf, REL.copy(), context={"kernel": "tables"})
        r2 = engine.resume(r1.wkfid, wf, context={"kernel": "analytic"})
        assert executed(store, r2.wkfid) == [("work", "b")]
        assert {t["key"]: t["mode"] for t in r2.output}["b"] == "analytic"

    def test_store_without_journal_cannot_resume(self):
        store = ProvenanceStore()
        wkfid = store.begin_workflow("W", starttime=0.0)
        actid = store.register_activity(wkfid, "stage1")
        tid = store.begin_activation(actid, "a", 0.0)
        store.end_activation(tid, 1.0)
        with pytest.raises(JournalError, match="no run journal"):
            LocalEngine(store, workers=1).resume(wkfid, two_stage_workflow())
