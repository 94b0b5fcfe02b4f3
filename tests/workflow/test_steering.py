"""Unit tests for runtime steering."""

import pytest

from repro.provenance.store import ActivationStatus, ProvenanceStore
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import LocalEngine
from repro.workflow.relation import Relation
from repro.workflow.steering import SteeringControl, SteeringMonitor


def two_stage_workflow(fail_keys=(), fail_once_keys=()):
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
            Activity("stage1", Operator.MAP, fn=lambda t, c: [dict(t)]),
            Activity("stage2", Operator.MAP, fn=stage2),
        ],
    )


REL = Relation("in", [{"key": k} for k in ("a", "b", "c")])


class TestSteeringControl:
    def test_abort_tuple(self):
        c = SteeringControl()
        c.abort_tuple("x")
        assert c.should_abort("any_activity", "x")
        assert not c.should_abort("any_activity", "y")

    def test_abort_activation_scoped(self):
        c = SteeringControl()
        c.abort_activation("docking", "x")
        assert c.should_abort("docking", "x")
        assert not c.should_abort("babel", "x")

    def test_rules_count(self):
        c = SteeringControl()
        c.abort_tuple("x")
        c.abort_activation("a", "y")
        assert c.rules == 2


class TestEngineSteeringIntegration:
    def test_local_engine_blocks_steered_tuples(self):
        store = ProvenanceStore()
        control = SteeringControl()
        control.abort_tuple("b")
        wf = two_stage_workflow()
        report = LocalEngine(store, workers=1).run(
            wf, REL.copy(), context={"steering": control}
        )
        assert report.blocked >= 1
        assert {t["key"] for t in report.output} == {"a", "c"}
        blocked = store.activations(report.wkfid, ActivationStatus.BLOCKED)
        assert any("steering" in r["errormsg"] for r in blocked)

    def test_simulated_engine_blocks_steered_tuples(self):
        from repro.cloud.cluster import VirtualCluster
        from repro.cloud.provider import CloudProvider
        from repro.cloud.simclock import SimClock
        from repro.workflow.engine import SimulatedEngine

        store = ProvenanceStore()
        control = SteeringControl()
        control.abort_tuple("a")
        cluster = VirtualCluster(CloudProvider(SimClock()))
        cluster.scale_to(4)
        wf = Workflow(
            "W", [Activity("s", Operator.MAP, cost_fn=lambda t: 3.0)]
        )
        report = SimulatedEngine(store, cluster).run(
            wf, REL.copy(), context={"steering": control}
        )
        assert report.blocked == 1
        assert len(report.output) == 2


class TestSteeringMonitor:
    def _running_store(self):
        store = ProvenanceStore()
        wkfid = store.begin_workflow("W", starttime=0.0)
        act = store.register_activity(wkfid, "docking")
        # Two finished (avg 10 s), one still running since t=0.
        for k, dur in (("a", 8.0), ("b", 12.0)):
            tid = store.begin_activation(act, k, 0.0)
            store.end_activation(tid, dur)
        store.begin_activation(act, "stuck", 0.0)
        return store, wkfid

    def test_progress(self):
        store, wkfid = self._running_store()
        m = SteeringMonitor(store, wkfid)
        assert m.progress() == {"FINISHED": 2, "RUNNING": 1}

    def test_abnormal_detection(self):
        store, wkfid = self._running_store()
        m = SteeringMonitor(store, wkfid)
        # At t=200 the running activation is 20x the 10 s average.
        flagged = m.abnormal_activations(now=200.0, threshold=10.0)
        assert len(flagged) == 1
        assert flagged[0].tuple_key == "stuck"
        # At t=50 (5x) nothing is flagged yet.
        assert m.abnormal_activations(now=50.0, threshold=10.0) == []

    def test_abnormal_threshold_validation(self):
        store, wkfid = self._running_store()
        with pytest.raises(ValueError):
            SteeringMonitor(store, wkfid).abnormal_activations(1.0, threshold=1.0)

    def test_abort_abnormal_installs_rule(self):
        store, wkfid = self._running_store()
        m = SteeringMonitor(store, wkfid)
        flagged = m.abort_abnormal(now=200.0)
        assert flagged
        assert m.control.should_abort("anything", "stuck")

    def test_anticipated_results(self):
        store, wkfid = self._running_store()
        rows = store.activations(wkfid)
        store.record_extract(rows[0]["taskid"], "feb", -7.5)
        store.record_extract(rows[1]["taskid"], "feb", -3.0)
        m = SteeringMonitor(store, wkfid)
        best = m.anticipated_results("feb", limit=1)
        assert best == [("a", -7.5)]
