"""Integration tests for the SciDock workflow (real execution)."""

import json

import pytest

from repro.core.activities import docking_filter, receptor_would_loop
from repro.core.analysis import (
    collect_outcomes,
    compute_table3,
    format_table3,
    outcomes_from_json,
    top_interactions,
    total_favorable,
)
from repro.core.datasets import pair_relation
from repro.core.scidock import (
    SciDockConfig,
    build_scidock_sim_workflow,
    build_scidock_workflow,
    resume_scidock,
    run_scidock,
)
from repro.core.spec import scidock_xml
from repro.chem.generate import receptor_contains_mercury, receptor_size_class
from repro.perf.cost_model import ActivityCostModel
from repro.provenance.queries import query1_activity_statistics, query2_files
from repro.provenance.store import ProvenanceStore
from repro.workflow.journal import RunJournal
from repro.workflow.spec import parse_workflow_xml

ACTIVITY_TAGS = [
    "babel",
    "prepare_ligand",
    "prepare_receptor",
    "prepare_gpf",
    "autogrid",
    "docking_filter",
    "prepare_docking",
    "docking",
]


@pytest.fixture(scope="module")
def small_run():
    """One real 4-pair adaptive run shared by the read-only tests."""
    pairs = pair_relation(receptors=["2HHN", "1S4V"], ligands=["0E6", "0D6"])
    report, store = run_scidock(pairs, SciDockConfig(workers=4, seed=1))
    return report, store


class TestWorkflowShape:
    def test_eight_activities(self):
        wf = build_scidock_workflow()
        assert [a.tag for a in wf.activities] == ACTIVITY_TAGS

    def test_templates_attached(self):
        wf = build_scidock_workflow()
        assert "babel" in wf.activity("babel").template.command
        assert wf.activity("docking").extractors

    def test_looping_predicate_on_receptor_prep(self):
        wf = build_scidock_workflow()
        act = wf.activity("prepare_receptor")
        assert act.looping_predicate is receptor_would_loop

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SciDockConfig(scenario="bogus")

    def test_xml_spec_roundtrips(self):
        text = scidock_xml()
        wf, db = parse_workflow_xml(text)
        assert [a.tag for a in wf.activities] == ACTIVITY_TAGS
        assert db.server.startswith("ec2-")


class TestDockingFilter:
    def test_adaptive_routing_follows_size(self):
        for rec in ("2HHN", "1S4V", "3BC3", "4PAD"):
            out = docking_filter(
                {"receptor_id": rec, "ligand_id": "042"}, {"scenario": "adaptive"}
            )[0]
            expected = "vina" if receptor_size_class(rec) == "large" else "autodock4"
            assert out["engine"] == expected

    def test_scenario_overrides(self):
        tup = {"receptor_id": "2HHN", "ligand_id": "042"}
        assert docking_filter(tup, {"scenario": "ad4"})[0]["engine"] == "autodock4"
        assert docking_filter(tup, {"scenario": "vina"})[0]["engine"] == "vina"

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            docking_filter({"receptor_id": "X", "ligand_id": "Y"}, {"scenario": "zz"})


class TestRealRun:
    def test_all_activations_finish(self, small_run):
        report, _ = small_run
        assert report.succeeded
        # 4 pairs x 8 activities.
        assert report.counts.get("FINISHED", 0) == 32

    def test_outcomes_recorded(self, small_run):
        report, store = small_run
        outcomes = collect_outcomes(store, report.wkfid)
        assert len(outcomes) == 4
        assert {o.ligand for o in outcomes} == {"0E6", "0D6"}
        assert all(o.engine in ("autodock4", "vina") for o in outcomes)

    def test_docking_is_real(self, small_run):
        report, store = small_run
        outcomes = collect_outcomes(store, report.wkfid)
        # Energies are finite floats; most synthetic pockets bind weakly.
        assert all(abs(o.feb) < 100 for o in outcomes)

    def test_query1_covers_all_activities(self, small_run):
        report, store = small_run
        stats = {s.tag for s in query1_activity_statistics(store, report.wkfid)}
        assert stats == set(ACTIVITY_TAGS)

    def test_query2_finds_logs(self, small_run):
        report, store = small_run
        dlgs = query2_files(store, report.wkfid, ".dlg")
        logs = query2_files(store, report.wkfid, ".log")
        assert len(dlgs) + len(logs) == 4
        for f in dlgs:
            assert f.activity_tag == "docking"
            assert "/autodock4/" in f.fdir

    def test_deterministic_outcomes(self):
        pairs = pair_relation(receptors=["1HUC"], ligands=["042"])
        r1, s1 = run_scidock(pairs, SciDockConfig(workers=1, seed=5))
        r2, s2 = run_scidock(pairs.copy(), SciDockConfig(workers=1, seed=5))
        o1 = collect_outcomes(s1, r1.wkfid)
        o2 = collect_outcomes(s2, r2.wkfid)
        assert o1[0].feb == o2[0].feb

    def test_mercury_receptor_blocked(self):
        # Find a mercury receptor among the dataset and run one pair.
        from repro.core.datasets import CL0125_RECEPTORS

        hg = next(r for r in CL0125_RECEPTORS if receptor_contains_mercury(r))
        pairs = pair_relation(receptors=[hg], ligands=["042"])
        report, store = run_scidock(pairs, SciDockConfig(workers=1))
        assert report.blocked == 1
        # The pair never reaches docking.
        assert collect_outcomes(store, report.wkfid) == []


class TestAnalysis:
    def _outcomes(self):
        payloads = [
            json.dumps(
                {
                    "receptor": r, "ligand": l, "engine": e, "feb": feb,
                    "rmsd": rmsd, "in_pocket": conv, "converged": conv,
                }
            )
            for (r, l, e, feb, rmsd, conv) in [
                ("2HHN", "0E6", "autodock4", -6.0, 55.0, True),
                ("1S4V", "0E6", "autodock4", 1.0, 60.0, False),
                ("2HHN", "0E6", "vina", -5.0, 9.0, True),
                ("1S4V", "0E6", "vina", -4.0, 10.0, True),
            ]
        ]
        return outcomes_from_json(payloads)

    def test_table3_counts(self):
        rows = compute_table3(self._outcomes())
        by = {(r.engine, r.ligand): r for r in rows}
        assert by[("autodock4", "0E6")].feb_negative_count == 1
        assert by[("vina", "0E6")].feb_negative_count == 2
        assert by[("vina", "0E6")].avg_feb_negative == pytest.approx(-4.5)
        assert by[("autodock4", "0E6")].avg_rmsd == pytest.approx(57.5)

    def test_total_favorable(self):
        rows = compute_table3(self._outcomes())
        assert total_favorable(rows, "vina") == 2
        assert total_favorable(rows, "autodock4") == 1

    def test_top_interactions_sorted(self):
        top = top_interactions(self._outcomes(), n=2)
        assert [o.feb for o in top] == [-6.0, -5.0]

    def test_format_table3(self):
        text = format_table3(compute_table3(self._outcomes()))
        assert "0E6" in text and "autodock4" in text


class TestSimWorkflow:
    def test_sim_workflow_shape(self):
        wf = build_scidock_sim_workflow(ActivityCostModel())
        assert [a.tag for a in wf.activities] == ACTIVITY_TAGS
        assert all(a.cost_fn is not None for a in wf.activities)

    def test_sim_filter_routes(self):
        wf = build_scidock_sim_workflow(ActivityCostModel(), scenario="vina")
        out = wf.activity("docking_filter").run(
            {"receptor_id": "2HHN", "ligand_id": "042"}, {}
        )
        assert out[0]["engine"] == "vina"


class TestResumeRefusesTablesJournal:
    """A run journaled under the removed energy tables fails closed."""

    def _tables_journal(self) -> tuple[ProvenanceStore, int]:
        # What a run started with ``--etables`` journaled before the
        # table kernels were removed: the kernel keys in the run-started
        # context and one docked tuple carrying a table-kernel energy.
        store = ProvenanceStore()
        wkfid = store.begin_workflow("SciDock", starttime=0.0)
        journal = RunJournal(store, wkfid)
        journal.run_started(
            "SciDock",
            pipeline=True,
            context={
                "scenario": "ad4",
                "seed": 0,
                "grid_spacing": 0.6,
                "kernel": "tables",
                "etable_dr": 0.005,
                "etable_rmax": 8.0,
            },
            relation_size=2,
        )
        key = "2HHN|0E6"
        journal.scheduled(7, key, {"receptor_id": "2HHN"}, None)
        journal.completed(
            7, key, [{"receptor": "2HHN", "ligand": "0E6", "feb": -6.123}]
        )
        return store, wkfid

    def test_resume_raises_before_executing_anything(self):
        store, wkfid = self._tables_journal()
        runs_before = store.sql("SELECT COUNT(*) AS n FROM hworkflow")[0]["n"]
        with pytest.raises(ValueError, match="table-driven energy kernels"):
            resume_scidock(wkfid, store, SciDockConfig(scenario="ad4", workers=1))
        runs_after = store.sql("SELECT COUNT(*) AS n FROM hworkflow")[0]["n"]
        assert runs_after == runs_before
