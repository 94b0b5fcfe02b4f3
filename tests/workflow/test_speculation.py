"""Straggler speculation lifecycle and live elastic pool resizing.

Covers the ISSUE-6 acceptance points on the real engine: winner/loser
provenance records, loser cancellation on both backends, no speculation
on a cold distribution, determinism with the quantile at 1.0, a resume
replaying a speculation-won run without executing anything, and the
adaptive policy actually resizing the live pool mid-run.
"""

from __future__ import annotations

import os
import threading
import time

from repro.perf.online_cost import OnlineCostService
from repro.provenance.store import ProvenanceStore
from repro.workflow import (
    Activity,
    LocalEngine,
    Operator,
    Relation,
    SPECULATION_ERRMSG_PREFIX,
    Workflow,
)
from repro.workflow.adaptive import AdaptiveElasticityPolicy

_LOCK = threading.Lock()
_CALLS: dict[str, int] = {}


def _reset_calls() -> None:
    with _LOCK:
        _CALLS.clear()


def _straggle_once(tup: dict, context: dict) -> list[dict]:
    """First attempt on the ``slow`` key hangs; every other run is fast.

    The hang sleeps on the run's cancellation token, so the losing twin
    is released the moment the engine aborts it (threads backend).
    """
    key = tup["key"]
    with _LOCK:
        n = _CALLS.get(key, 0)
        _CALLS[key] = n + 1
    if tup.get("slow") and n == 0:
        context["cancel_token"].sleep(10.0)
    else:
        time.sleep(0.02)
    return [{"key": key, "slow": tup.get("slow", False)}]


def _spawn_dock(tup: dict, context: dict) -> list[dict]:
    """Processes-backend variant: marker file picks the one straggler.

    The first process to claim the marker sleeps uninterruptibly (only
    SIGKILL stops it); the duplicate attempt finds the marker taken and
    takes the fast path.
    """
    if tup.get("slow"):
        marker = os.path.join(tup["scratch"], "straggler.marker")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            time.sleep(15.0)
        except FileExistsError:
            time.sleep(0.05)
    else:
        time.sleep(0.05)
    return [{"key": tup["key"]}]


def _relation(n: int, slow_key: str | None = None, **extra) -> Relation:
    rel = Relation("in")
    for i in range(n):
        rel.append(
            {"key": f"k{i}", "slow": slow_key == f"k{i}", **extra}
        )
    return rel


def _workflow(fn) -> Workflow:
    wf = Workflow(tag="spec-test")
    wf.add(Activity("dock", Operator.MAP, fn=fn))
    return wf


def _warm_service(quantile: float = 0.95) -> OnlineCostService:
    svc = OnlineCostService(speculation_quantile=quantile)
    for _ in range(20):
        svc.observe("dock", {"key": "warm"}, 0.02)
    return svc


class TestSpeculationThreads:
    def test_winner_loser_lifecycle(self):
        _reset_calls()
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=2, cost_service=_warm_service())
        t0 = time.perf_counter()
        report = engine.run(_workflow(_straggle_once), _relation(6, "k0"))
        tet = time.perf_counter() - t0

        assert report.speculative_launched == 1
        assert report.speculative_won == 1
        assert len(report.output) == 6
        assert report.counts.get("FINISHED") == 6
        # The tuple finished via the duplicate, not the 10 s hang.
        assert tet < 5.0

        rows = store.sql(
            "SELECT status, speculative, errormsg FROM hactivation"
            " WHERE tuple_key = 'k0' ORDER BY taskid"
        )
        assert [r["status"] for r in rows] == ["ABORTED", "FINISHED"]
        loser, winner = rows
        assert loser["speculative"] == 0
        assert loser["errormsg"].startswith(SPECULATION_ERRMSG_PREFIX)
        assert winner["speculative"] == 1

    def test_cold_service_never_speculates(self):
        _reset_calls()
        store = ProvenanceStore()
        # Enabled quantile but zero observations: thresholds stay None.
        svc = OnlineCostService(speculation_quantile=0.95)
        engine = LocalEngine(store, workers=2, cost_service=svc)
        report = engine.run(_workflow(_straggle_once), _relation(4))
        assert report.speculative_launched == 0
        assert report.speculative_won == 0
        assert report.counts.get("FINISHED") == 4
        assert report.cost_samples == 4

    def test_quantile_one_is_deterministically_off(self):
        for _ in range(2):
            _reset_calls()
            store = ProvenanceStore()
            svc = _warm_service(quantile=1.0)
            engine = LocalEngine(store, workers=2, cost_service=svc)
            report = engine.run(_workflow(_straggle_once), _relation(4))
            assert not svc.speculation_enabled
            assert report.speculative_launched == 0
            assert report.speculative_won == 0
            assert report.counts == {"FINISHED": 4}
            assert len(report.output) == 4

    def test_recovery_ignores_speculation_rows(self):
        _reset_calls()
        store = ProvenanceStore()
        engine = LocalEngine(store, workers=2, cost_service=_warm_service())
        workflow = _workflow(_straggle_once)
        relation = _relation(6, "k0")
        report = engine.run(workflow, relation)
        assert report.speculative_won == 1

        _reset_calls()
        resumed = engine.resume(report.wkfid, workflow)
        # The superseded primary's ABORTED row and the winning duplicate
        # must not read as work lost: every tuple replays, none executes.
        assert resumed.replayed == 6
        assert _CALLS == {}
        assert store.counts_by_status(resumed.wkfid) == {}
        assert sorted(t["key"] for t in resumed.output) == [
            f"k{i}" for i in range(6)
        ]


class TestSpeculationProcesses:
    def test_loser_worker_killed_and_twin_wins(self, tmp_path):
        store = ProvenanceStore()
        engine = LocalEngine(
            store, workers=2, backend="processes",
            cost_service=_warm_service(),
        )
        t0 = time.perf_counter()
        report = engine.run(
            _workflow(_spawn_dock),
            _relation(4, "k0", scratch=str(tmp_path)),
        )
        tet = time.perf_counter() - t0

        assert report.speculative_launched >= 1
        assert report.speculative_won == 1
        assert report.counts.get("FINISHED") == 4
        assert len(report.output) == 4
        # The 15 s hang was SIGKILLed, not waited out.
        assert tet < 12.0

        rows = store.sql(
            "SELECT status, speculative, errormsg FROM hactivation"
            " WHERE tuple_key = 'k0' ORDER BY taskid"
        )
        statuses = {r["status"] for r in rows}
        assert "FINISHED" in statuses
        assert any(
            r["status"] == "ABORTED"
            and r["errormsg"].startswith(SPECULATION_ERRMSG_PREFIX)
            for r in rows
        )
        assert any(
            r["speculative"] == 1 and r["status"] == "FINISHED" for r in rows
        )


class TestElasticPool:
    def test_policy_resizes_live_thread_pool(self):
        store = ProvenanceStore()

        def nap(tup, context):
            time.sleep(0.05)
            return [dict(tup)]

        wf = Workflow(tag="elastic-test")
        wf.add(Activity("nap", Operator.MAP, fn=nap))
        rel = Relation("in")
        for i in range(12):
            rel.append({"key": f"k{i}"})

        engine = LocalEngine(
            store, workers=2,
            elasticity=AdaptiveElasticityPolicy(min_cores=1, max_cores=4),
        )
        report = engine.run(wf, rel)
        assert report.counts == {"FINISHED": 12}
        # The backlog demanded more than the configured 2 workers, and
        # the engine actually dispatched beyond them.
        assert report.pool_resizes >= 1
        assert report.peak_cores > 2

    def test_without_policy_report_counters_stay_zero(self):
        store = ProvenanceStore()

        def quick(tup, context):
            return [dict(tup)]

        wf = Workflow(tag="static-test")
        wf.add(Activity("quick", Operator.MAP, fn=quick))
        rel = Relation("in")
        for i in range(4):
            rel.append({"key": f"k{i}"})

        report = LocalEngine(store, workers=2).run(wf, rel)
        assert report.pool_resizes == 0
        assert report.speculative_launched == 0
        assert report.cost_samples == 0
