"""Integration tests for LocalEngine and SimulatedEngine."""

import pytest

from repro.cloud.cluster import VirtualCluster
from repro.cloud.failures import ActivityFailureModel
from repro.cloud.provider import CloudProvider
from repro.cloud.simclock import SimClock
from repro.provenance.queries import query1_activity_statistics
from repro.provenance.store import ActivationStatus, ProvenanceStore
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.adaptive import AdaptiveElasticityPolicy, StaticPolicy
from repro.workflow.engine import EngineError, LocalEngine, SimulatedEngine
from repro.workflow.extractor import JsonExtractor
from repro.workflow.fault import RetryPolicy, Watchdog
from repro.workflow.relation import Relation
from repro.workflow.scheduler import GreedyCostScheduler, RoundRobinScheduler


def pipeline_workflow() -> Workflow:
    return Workflow(
        "toy",
        [
            Activity(
                "double", Operator.MAP,
                fn=lambda t, c: [{"x": t["x"] * 2}], cost_fn=lambda t: 5.0,
            ),
            Activity(
                "fanout", Operator.SPLIT_MAP,
                fn=lambda t, c: [{"x": t["x"]}, {"x": t["x"] + 1}],
                cost_fn=lambda t: 2.0,
            ),
            Activity(
                "positive", Operator.FILTER,
                fn=lambda t, c: [t] if t["x"] > 2 else [], cost_fn=lambda t: 1.0,
            ),
            Activity(
                "sum", Operator.REDUCE,
                fn=lambda t, c: [
                    {"total": sum(u["x"] for u in t["__tuples__"])}
                ],
                cost_fn=lambda t: 3.0,
            ),
        ],
    )


def make_sim_engine(cores=4, **kw):
    clock = SimClock()
    cluster = VirtualCluster(CloudProvider(clock))
    cluster.scale_to(cores)
    return SimulatedEngine(ProvenanceStore(), cluster, **kw)


INPUT = Relation("in", [{"x": i} for i in range(5)])
EXPECTED_TOTAL = 42  # doubles fanned out, filtered > 2, summed


class TestLocalEngine:
    def test_dataflow_result(self):
        engine = LocalEngine(ProvenanceStore(), workers=3)
        report = engine.run(pipeline_workflow(), INPUT.copy())
        assert report.output[0]["total"] == EXPECTED_TOTAL
        assert report.succeeded

    def test_provenance_recorded(self):
        store = ProvenanceStore()
        report = LocalEngine(store, workers=2).run(pipeline_workflow(), INPUT.copy())
        stats = {s.tag: s for s in query1_activity_statistics(store, report.wkfid)}
        assert stats["double"].count == 5
        assert stats["sum"].count == 1

    def test_worker_validation(self):
        with pytest.raises(EngineError):
            LocalEngine(ProvenanceStore(), workers=0)

    def test_failure_retry(self):
        calls = {}

        def flaky(t, c):
            k = t["x"]
            calls[k] = calls.get(k, 0) + 1
            if calls[k] == 1:
                raise RuntimeError("transient")
            return [{"x": t["x"]}]

        wf = Workflow("w", [Activity("flaky", Operator.MAP, fn=flaky)])
        store = ProvenanceStore()
        report = LocalEngine(store, workers=1, retry=RetryPolicy(max_attempts=2)).run(
            wf, Relation("in", [{"x": 1}])
        )
        assert len(report.output) == 1
        assert report.retried == 1
        counts = store.counts_by_status(report.wkfid)
        assert counts == {"FAILED": 1, "FINISHED": 1}

    def test_failure_exhausts_retries(self):
        def broken(t, c):
            raise RuntimeError("permanent")

        wf = Workflow("w", [Activity("broken", Operator.MAP, fn=broken)])
        store = ProvenanceStore()
        report = LocalEngine(store, workers=1, retry=RetryPolicy(max_attempts=2)).run(
            wf, Relation("in", [{"x": 1}])
        )
        assert len(report.output) == 0
        assert not report.succeeded
        failed = store.failed_activations(report.wkfid)
        assert len(failed) == 2
        assert "permanent" in failed[0]["errormsg"]

    def test_looping_blocked_by_routine(self):
        wf = Workflow(
            "w",
            [
                Activity(
                    "prep", Operator.MAP,
                    fn=lambda t, c: [dict(t)],
                    looping_predicate=lambda t: t.get("hg", False),
                )
            ],
        )
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=1, block_known_loopers=True)
        report = engine.run(wf, Relation("in", [{"hg": True}, {"hg": False}]))
        assert report.blocked == 1
        assert len(report.output) == 1

    def test_looping_watchdog_abort(self):
        wf = Workflow(
            "w",
            [
                Activity(
                    "prep", Operator.MAP,
                    fn=lambda t, c: [dict(t)],
                    cost_fn=lambda t: 10.0,
                    looping_predicate=lambda t: t.get("hg", False),
                )
            ],
        )
        store = ProvenanceStore()
        engine = LocalEngine(
            store, workers=1, block_known_loopers=False, watchdog=Watchdog(timeout=50)
        )
        report = engine.run(wf, Relation("in", [{"hg": True}]))
        assert report.aborted == 1
        rows = store.activations(report.wkfid, ActivationStatus.ABORTED)
        # Predicate-known loopers are aborted at decision time — the
        # record carries the real wall clock, not a fabricated
        # start + deadline; the unspent deadline lives in errormsg.
        assert rows[0]["endtime"] - rows[0]["starttime"] < 50
        assert "deadline 100.000s" in rows[0]["errormsg"]
        # A predicate abort is not a wall-clock timeout.
        assert report.timeouts == 0

    def test_files_and_extracts_recorded(self):
        def fn(t, c):
            return [
                {
                    "x": t["x"],
                    "_files": [("out.dlg", 123, "/root/exp/")],
                    "_extract_payload": '{"feb": -6.5}',
                }
            ]

        wf = Workflow(
            "w",
            [
                Activity(
                    "dock", Operator.MAP, fn=fn,
                    extractors=[JsonExtractor(keys=("feb",))],
                )
            ],
        )
        store = ProvenanceStore()
        report = LocalEngine(store, workers=1).run(wf, Relation("in", [{"x": 1}]))
        # Reserved fields stripped from the flowing tuple.
        assert set(report.output[0]) == {"x"}
        from repro.provenance.queries import query2_files

        files = query2_files(store, report.wkfid, ".dlg")
        assert files[0].fname == "out.dlg"
        extracts = store.extracts(report.wkfid, "feb")
        assert float(extracts[0]["value"]) == -6.5


class TestSimulatedEngine:
    def test_dataflow_matches_local(self):
        report = make_sim_engine().run(pipeline_workflow(), INPUT.copy())
        assert report.output[0]["total"] == EXPECTED_TOTAL

    def test_deterministic(self):
        a = make_sim_engine().run(pipeline_workflow(), INPUT.copy())
        b = make_sim_engine().run(pipeline_workflow(), INPUT.copy())
        assert a.tet_seconds == b.tet_seconds

    def test_more_cores_faster(self):
        big = Relation("in", [{"x": i} for i in range(64)])
        slow = make_sim_engine(cores=2, core_limit=2).run(pipeline_workflow(), big.copy())
        fast = make_sim_engine(cores=16).run(pipeline_workflow(), big.copy())
        assert fast.tet_seconds < slow.tet_seconds

    def test_core_limit_respected(self):
        limited = make_sim_engine(cores=8, core_limit=2).run(
            pipeline_workflow(), Relation("in", [{"x": i} for i in range(32)])
        )
        full = make_sim_engine(cores=8).run(
            pipeline_workflow(), Relation("in", [{"x": i} for i in range(32)])
        )
        assert limited.tet_seconds > full.tet_seconds

    def test_core_limit_validation(self):
        with pytest.raises(EngineError):
            make_sim_engine(cores=4, core_limit=0)

    def test_failure_injection_and_retry(self):
        engine = make_sim_engine(
            failure_model=ActivityFailureModel(rate=0.3, seed=7),
            retry=RetryPolicy(max_attempts=5),
        )
        report = engine.run(pipeline_workflow(), INPUT.copy())
        assert report.retried > 0
        assert report.output[0]["total"] == EXPECTED_TOTAL
        assert report.counts.get("FAILED", 0) == report.retried

    def test_failures_lengthen_tet(self):
        clean = make_sim_engine().run(pipeline_workflow(), INPUT.copy())
        faulty = make_sim_engine(
            failure_model=ActivityFailureModel(rate=0.4, seed=3),
            retry=RetryPolicy(max_attempts=6),
        ).run(pipeline_workflow(), INPUT.copy())
        assert faulty.tet_seconds > clean.tet_seconds

    def test_looping_blocked(self):
        wf = Workflow(
            "w",
            [
                Activity(
                    "prep", Operator.MAP, cost_fn=lambda t: 5.0,
                    looping_predicate=lambda t: t.get("hg", False),
                )
            ],
        )
        rel = Relation("in", [{"hg": True}, {"hg": False}])
        report = make_sim_engine().run(wf, rel)
        assert report.blocked == 1
        assert len(report.output) == 1

    def test_looping_watchdog(self):
        wf = Workflow(
            "w",
            [
                Activity(
                    "prep", Operator.MAP, cost_fn=lambda t: 5.0,
                    looping_predicate=lambda t: t.get("hg", False),
                )
            ],
        )
        rel = Relation("in", [{"hg": True}, {"hg": False}])
        engine = make_sim_engine(block_known_loopers=False, watchdog=Watchdog(timeout=100))
        report = engine.run(wf, rel)
        assert report.aborted == 1
        # The watchdog kill consumed at least the timeout of virtual time.
        assert report.tet_seconds >= 100

    def test_greedy_beats_round_robin_on_heterogeneous_load(self):
        # Mixed short/long activations on mixed-speed cores: greedy places
        # long jobs on fast cores and should win.
        wf = Workflow(
            "w",
            [
                Activity(
                    "work", Operator.MAP,
                    cost_fn=lambda t: 200.0 if t["x"] % 5 == 0 else 5.0,
                )
            ],
        )
        rel = Relation("in", [{"x": i} for i in range(40)])
        greedy = make_sim_engine(cores=12, scheduler=GreedyCostScheduler()).run(
            wf, rel.copy()
        )
        rr = make_sim_engine(cores=12, scheduler=RoundRobinScheduler()).run(
            wf, rel.copy()
        )
        assert greedy.tet_seconds <= rr.tet_seconds * 1.05

    def test_elasticity_scales_up(self):
        wf = Workflow("w", [Activity("work", Operator.MAP, cost_fn=lambda t: 100.0)])
        rel = Relation("in", [{"x": i} for i in range(64)])
        clock = SimClock()
        cluster = VirtualCluster(CloudProvider(clock))
        cluster.scale_to(4)
        engine = SimulatedEngine(
            ProvenanceStore(), cluster,
            elasticity=AdaptiveElasticityPolicy(min_cores=4, max_cores=64, drain_horizon=100.0),
        )
        report = engine.run(wf, rel)
        assert report.peak_cores > 4

    def test_static_policy_grows_past_starting_cluster(self):
        # A virtual cluster has no pool ceiling: a policy without
        # ``max_cores`` still scales to whatever it asks for.
        wf = Workflow("w", [Activity("work", Operator.MAP, cost_fn=lambda t: 100.0)])
        rel = Relation("in", [{"x": i} for i in range(64)])
        report = make_sim_engine(
            cores=4, elasticity=StaticPolicy(32)
        ).run(wf, rel)
        assert report.peak_cores == 32

    def test_provenance_has_vm_assignments(self):
        store = ProvenanceStore()
        clock = SimClock()
        cluster = VirtualCluster(CloudProvider(clock))
        cluster.scale_to(4)
        engine = SimulatedEngine(store, cluster)
        report = engine.run(pipeline_workflow(), INPUT.copy())
        rows = store.activations(report.wkfid, ActivationStatus.FINISHED)
        assert all(r["vm_id"].startswith("i-") for r in rows)

    def test_cost_reported(self):
        report = make_sim_engine().run(pipeline_workflow(), INPUT.copy())
        assert report.cost_usd > 0

    def test_elasticity_releases_idle_vms(self):
        wf = Workflow("w", [Activity("work", Operator.MAP, cost_fn=lambda t: 50.0)])
        rel = Relation("in", [{"x": i} for i in range(48)])
        clock = SimClock()
        cluster = VirtualCluster(CloudProvider(clock))
        cluster.scale_to(32)
        engine = SimulatedEngine(
            ProvenanceStore(), cluster,
            elasticity=AdaptiveElasticityPolicy(min_cores=4, max_cores=32, drain_horizon=120.0),
        )
        report = engine.run(wf, rel)
        # As the backlog drained, idle VMs were terminated.
        assert cluster.total_cores < 32
        assert len(report.output) == 48


class _NoWallClock:
    """Stand-in ``time`` module: any wall-clock read or sleep fails."""

    def __getattr__(self, name):
        raise AssertionError(f"simulated run touched time.{name}")


class TestVirtualTime:
    """The shared run loop reads only the injected SimClock."""

    @staticmethod
    def _run():
        from repro.workflow.steering import SteeringControl

        wf = Workflow(
            "w",
            [
                Activity(
                    "prep", Operator.MAP, cost_fn=lambda t: 40.0,
                    looping_predicate=lambda t: t["x"] == 3,
                ),
                Activity("dock", Operator.MAP, cost_fn=lambda t: 25.0),
            ],
        )
        control = SteeringControl()
        control.abort_tuple("k5")
        rel = Relation("in", [{"x": i, "key": f"k{i}"} for i in range(24)])
        engine = make_sim_engine(
            cores=4,
            failure_model=ActivityFailureModel(rate=0.3, seed=2),
            retry=RetryPolicy(max_attempts=6),
            watchdog=Watchdog(timeout=500),
            block_known_loopers=False,
            elasticity=AdaptiveElasticityPolicy(
                min_cores=4, max_cores=16, drain_horizon=100.0
            ),
        )
        return engine.run(wf, rel, context={"steering": control})

    def test_no_wall_clock_and_deterministic(self, monkeypatch):
        import repro.workflow.coordinator as coordinator_mod
        import repro.workflow.dispatch as dispatch_mod
        import repro.workflow.engine as engine_mod
        import repro.workflow.planes as planes_mod

        for mod in (coordinator_mod, dispatch_mod, engine_mod, planes_mod):
            monkeypatch.setattr(mod, "time", _NoWallClock(), raising=False)
        first, second = self._run(), self._run()
        assert first.retried > 0
        assert first.blocked == 1  # the steered tuple
        assert first.aborted == first.timeouts == 1  # the looper
        assert first.pool_resizes > 0 and first.peak_cores > 4
        assert len(first.output) == 22
        # The looper spent its whole deadline in virtual time.
        assert first.tet_seconds >= 500
        assert first.tet_seconds == second.tet_seconds
        assert first.counts == second.counts


class TestBufferedProvenanceParity:
    """The buffered provenance path must change nothing observable."""

    def test_buffered_store_matches_write_through(self):
        from repro.provenance.queries import query2_files

        outputs, tables, q1, q2 = {}, {}, {}, {}
        for name, store in (
            ("direct", ProvenanceStore()),  # buffer_size=1: legacy behavior
            ("buffered", ProvenanceStore(buffer_size=512, flush_interval=60.0)),
        ):
            report = LocalEngine(store, workers=2).run(
                pipeline_workflow(), INPUT.copy()
            )
            # Identical synthetic artifact on each run's first activation
            # so Query 2 has something to compare.
            tid = store.sql("SELECT MIN(taskid) AS t FROM hactivation")[0]["t"]
            store.record_file(tid, "042_1AEC.dlg", 64, "/exp/")
            store.flush()
            outputs[name] = report.output[0]
            tables[name] = {
                table: store.sql(f"SELECT COUNT(*) AS n FROM {table}")[0]["n"]
                for table in ("hworkflow", "hactivity", "hactivation", "hfile")
            }
            q1[name] = {
                s.tag: s.count
                for s in query1_activity_statistics(store, report.wkfid)
            }
            q2[name] = [
                (f.activity_tag, f.fname, f.fsize, f.fdir)
                for f in query2_files(store, report.wkfid, ".dlg")
            ]
            store.close()

        assert outputs["buffered"] == outputs["direct"]
        assert tables["buffered"] == tables["direct"]
        assert q1["buffered"] == q1["direct"]
        assert q2["buffered"] == q2["direct"]
        assert q2["direct"]  # the comparison was not vacuous
