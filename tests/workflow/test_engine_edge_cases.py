"""Edge-case tests for both engines: empty inputs, REDUCE placement,
provenance timing invariants, failure storms."""

import pytest

from repro.cloud.cluster import VirtualCluster
from repro.cloud.failures import ActivityFailureModel
from repro.cloud.provider import CloudProvider
from repro.cloud.simclock import SimClock
from repro.provenance.store import ActivationStatus, ProvenanceStore
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import LocalEngine, SimulatedEngine
from repro.workflow.fault import RetryPolicy
from repro.workflow.relation import Relation


def sim_engine(cores=4, **kw):
    cluster = VirtualCluster(CloudProvider(SimClock()))
    cluster.scale_to(cores)
    return SimulatedEngine(ProvenanceStore(), cluster, **kw)


class TestEmptyInputs:
    def test_local_empty_relation(self):
        wf = Workflow("W", [Activity("a", Operator.MAP, fn=lambda t, c: [dict(t)])])
        report = LocalEngine(ProvenanceStore(), workers=1).run(wf, Relation("in"))
        assert len(report.output) == 0
        assert report.total_activations == 0
        assert report.succeeded

    def test_sim_empty_relation(self):
        wf = Workflow("W", [Activity("a", Operator.MAP, cost_fn=lambda t: 1.0)])
        report = sim_engine().run(wf, Relation("in"))
        assert len(report.output) == 0
        assert report.tet_seconds == 0.0


class TestReducePlacement:
    def test_reduce_midway_in_pipeline(self):
        wf = Workflow(
            "W",
            [
                Activity("dbl", Operator.MAP, fn=lambda t, c: [{"x": t["x"] * 2}],
                         cost_fn=lambda t: 1.0),
                Activity(
                    "sum", Operator.REDUCE,
                    fn=lambda t, c: [{"total": sum(u["x"] for u in t["__tuples__"])}],
                    cost_fn=lambda t: 1.0,
                ),
                Activity("inc", Operator.MAP, fn=lambda t, c: [{"total": t["total"] + 1}],
                         cost_fn=lambda t: 1.0),
            ],
        )
        rel = Relation("in", [{"x": i} for i in range(4)])
        local = LocalEngine(ProvenanceStore(), workers=2).run(wf, rel.copy())
        sim = sim_engine().run(wf, rel.copy())
        assert local.output[0]["total"] == 13  # (0+2+4+6)+1
        assert sim.output[0]["total"] == 13

    def test_reduce_sees_filtered_stream(self):
        wf = Workflow(
            "W",
            [
                Activity("keep_odd", Operator.FILTER,
                         fn=lambda t, c: [t] if t["x"] % 2 else [],
                         cost_fn=lambda t: 1.0),
                Activity(
                    "count", Operator.REDUCE,
                    fn=lambda t, c: [{"n": len(t["__tuples__"])}],
                    cost_fn=lambda t: 1.0,
                ),
            ],
        )
        rel = Relation("in", [{"x": i} for i in range(10)])
        local = LocalEngine(ProvenanceStore(), workers=2).run(wf, rel.copy())
        sim = sim_engine().run(wf, rel.copy())
        assert local.output[0]["n"] == 5
        assert sim.output[0]["n"] == 5


class TestProvenanceTimingInvariants:
    @staticmethod
    def _assert_disjoint_per_core(rows) -> None:
        # start < end everywhere.
        assert all(r["starttime"] < r["endtime"] for r in rows)
        # No two activations overlap on the same core.
        by_core: dict = {}
        for r in rows:
            by_core.setdefault((r["vm_id"], r["core_index"]), []).append(
                (r["starttime"], r["endtime"])
            )
        for spans in by_core.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9

    def test_sim_activation_times_ordered_and_disjoint_per_core(self):
        store = ProvenanceStore()
        cluster = VirtualCluster(CloudProvider(SimClock()))
        cluster.scale_to(4)
        wf = Workflow("W", [Activity("a", Operator.MAP, cost_fn=lambda t: 7.0)])
        rel = Relation("in", [{"x": i} for i in range(20)])
        report = SimulatedEngine(store, cluster).run(wf, rel)
        rows = store.activations(report.wkfid, ActivationStatus.FINISHED)
        self._assert_disjoint_per_core(rows)

    def test_sim_attempts_disjoint_per_core_with_retries(self):
        store = ProvenanceStore()
        cluster = VirtualCluster(CloudProvider(SimClock()))
        cluster.scale_to(4)
        wf = Workflow("W", [Activity("a", Operator.MAP, cost_fn=lambda t: 7.0)])
        rel = Relation("in", [{"x": i} for i in range(20)])
        report = SimulatedEngine(
            store, cluster,
            failure_model=ActivityFailureModel(rate=0.3, seed=4),
            retry=RetryPolicy(max_attempts=6),
        ).run(wf, rel)
        assert report.retried > 0
        # Every attempt, failed ones included.
        rows = store.activations(report.wkfid)
        assert len(rows) == 20 + report.retried
        self._assert_disjoint_per_core(rows)

    def test_sim_tet_spans_all_activations(self):
        store = ProvenanceStore()
        cluster = VirtualCluster(CloudProvider(SimClock()))
        cluster.scale_to(4)
        wf = Workflow("W", [Activity("a", Operator.MAP, cost_fn=lambda t: 3.0)])
        report = SimulatedEngine(store, cluster).run(
            wf, Relation("in", [{"x": i} for i in range(10)])
        )
        rows = store.activations(report.wkfid)
        last_end = max(r["endtime"] for r in rows)
        wf_row = store.workflow_row(report.wkfid)
        assert wf_row["endtime"] == pytest.approx(last_end)


class TestFailureStorms:
    def test_high_failure_rate_still_completes(self):
        engine = sim_engine(
            failure_model=ActivityFailureModel(rate=0.6, seed=11),
            retry=RetryPolicy(max_attempts=15),
        )
        wf = Workflow("W", [Activity("a", Operator.MAP, cost_fn=lambda t: 1.0)])
        rel = Relation("in", [{"x": i} for i in range(10)])
        report = engine.run(wf, rel)
        assert len(report.output) == 10
        assert report.retried > 0

    def test_exhausted_retries_drop_tuples(self):
        # rate ~1 is not allowed; use a key-targeted always-fail model.
        class AlwaysFail:
            def fails(self, key, attempt=0):
                return True

        engine = sim_engine(
            failure_model=AlwaysFail(), retry=RetryPolicy(max_attempts=2)
        )
        wf = Workflow("W", [Activity("a", Operator.MAP, cost_fn=lambda t: 1.0)])
        report = engine.run(wf, Relation("in", [{"x": 1}]))
        assert len(report.output) == 0
        assert report.counts.get("FAILED", 0) == 2  # both attempts recorded

    def test_local_engine_mixed_failures_deterministic_outputs(self):
        def flaky(t, c):
            if t["x"] == 3:
                raise RuntimeError("always bad")
            return [dict(t)]

        wf = Workflow("W", [Activity("a", Operator.MAP, fn=flaky)])
        rel = Relation("in", [{"x": i} for i in range(5)])
        engine = LocalEngine(ProvenanceStore(), workers=3, retry=RetryPolicy(max_attempts=2))
        report = engine.run(wf, rel)
        assert sorted(t["x"] for t in report.output) == [0, 1, 2, 4]
        assert not report.succeeded
