"""Backend parity: threads vs processes produce identical screens, and
the artifact plane leaves nothing behind — even after a worker crash."""

from __future__ import annotations

import glob

import pytest

from repro.core import activities as acts
from repro.core.analysis import collect_outcomes
from repro.core.datasets import pair_relation
from repro.core.scidock import SciDockConfig, run_scidock
from repro.docking.autodock import AD4Parameters
from repro.docking.ga import GAConfig
from repro.docking.mc import ILSConfig
from repro.docking.vina import VinaParameters
from repro.provenance.store import ProvenanceStore
from repro.workflow.activity import Activity, Operator, Workflow
from repro.workflow.engine import LocalEngine
from repro.workflow.fault import RetryPolicy, crash_activation
from repro.workflow.relation import Relation

#: Micro search budgets: enough to exercise every code path, small
#: enough for a spawn-heavy parity matrix.
MICRO_AD4 = AD4Parameters(
    ga_runs=1,
    ga=GAConfig(population_size=8, generations=2, local_search_steps=4),
    final_refine_steps=10,
)
MICRO_VINA = VinaParameters(
    exhaustiveness=1,
    ils=ILSConfig(restarts=1, steps_per_restart=2, bfgs_iterations=3),
)

RECEPTORS = ["2HHN", "1S4V"]
LIGANDS = ["0E6", "0D6"]


def _screen(backend: str, **overrides):
    config = SciDockConfig(
        workers=2,
        backend=backend,
        ad4_params=MICRO_AD4,
        vina_params=MICRO_VINA,
        **overrides,
    )
    pairs = pair_relation(receptors=RECEPTORS, ligands=LIGANDS)
    report, store = run_scidock(pairs, config)
    outcomes = sorted(
        (o.receptor, o.ligand, o.engine, o.feb, o.rmsd)
        for o in collect_outcomes(store, report.wkfid)
    )
    return report, outcomes


def _no_plane_segments(at_start: frozenset[str]) -> bool:
    """No artifact-plane segment beyond those /dev/shm held when the
    test session began (see ``tests/conftest.py``)."""
    return not set(glob.glob("/dev/shm/rp*")) - at_start


class TestBackendParity:
    @pytest.fixture(scope="class")
    def runs(self):
        threads_report, threads_out = _screen("threads")
        proc_report, proc_out = _screen("processes")
        return threads_report, threads_out, proc_report, proc_out

    def test_identical_output_relation(self, runs):
        _, threads_out, _, proc_out = runs
        assert threads_out == proc_out
        assert len(proc_out) == len(RECEPTORS) * len(LIGANDS)

    def test_both_backends_succeed(self, runs):
        threads_report, _, proc_report, _ = runs
        assert threads_report.succeeded and proc_report.succeeded

    def test_maps_built_once_per_receptor_across_workers(self, runs):
        _, _, proc_report, _ = runs
        stats = proc_report.artifact_stats
        builds = stats["builds_by_artifact"]
        assert builds, "processes backend must run with an artifact plane"
        assert max(builds.values()) == 1
        # The adaptive scenario sends every receptor through AutoGrid.
        ad4_builds = {k for k in builds if k.startswith("ad4maps:")}
        assert len(ad4_builds) == len(RECEPTORS)

    def test_no_segments_survive_shutdown(self, runs, shm_segments_at_start):
        assert _no_plane_segments(shm_segments_at_start)

    def test_shared_maps_opt_out(self, shm_segments_at_start):
        report, outcomes = _screen("processes", shared_maps=False)
        assert report.artifact_stats == {}
        _, baseline = _screen("threads")
        assert outcomes == baseline
        assert _no_plane_segments(shm_segments_at_start)


class TestMapCachePersistence:
    def test_second_run_hits_disk_not_autogrid(self, tmp_path):
        cache_dir = str(tmp_path / "mapcache")
        report1, out1 = _screen("processes", map_cache=cache_dir)
        assert report1.artifact_stats["builds"] > 0
        report2, out2 = _screen("processes", map_cache=cache_dir)
        assert out1 == out2
        assert report2.artifact_stats["builds"] == 0
        assert report2.artifact_stats["disk_hits"] > 0

    def test_threads_backend_uses_disk_cache_directly(self, tmp_path):
        cache_dir = str(tmp_path / "mapcache")
        acts.reset_map_counters()
        _, out1 = _screen("threads", map_cache=cache_dir)
        assert sum(acts.MAP_BUILDS.values()) > 0
        first_builds = dict(acts.MAP_BUILDS)
        acts.reset_map_counters()
        _, out2 = _screen("threads", map_cache=cache_dir)
        assert out1 == out2
        assert sum(acts.MAP_BUILDS.values()) == 0
        assert acts.MAP_CACHE_HITS["disk"] >= len(first_builds)
        acts.reset_map_counters()


class TestWorkerCrashCleanup:
    def test_crash_after_publish_leaks_nothing(self, shm_segments_at_start):
        # Build maps into the plane, then kill the worker outright: the
        # engine must fail the run gracefully and still unlink segments.
        wf = Workflow(
            "crashy",
            [
                Activity("autogrid", Operator.MAP, fn=acts.autogrid_activity),
                Activity("crash", Operator.MAP, fn=crash_activation),
            ],
        )
        engine = LocalEngine(
            ProvenanceStore(),
            workers=1,
            backend="processes",
            retry=RetryPolicy(max_attempts=1),
        )
        relation = Relation(
            "in", [{"receptor_id": "2HHN", "ligand_id": "0E6"}]
        )
        report = engine.run(
            wf, relation, context={"grid_spacing": 1.2, "scenario": "ad4"}
        )
        assert not report.succeeded
        assert report.artifact_stats["builds"] == 1
        assert report.artifact_stats["segments"]
        assert _no_plane_segments(shm_segments_at_start)


class TestRunStateCleanup:
    def test_engine_broadcasts_cache_drop(self):
        engine = LocalEngine(ProvenanceStore(), workers=2, backend="processes")
        wf = Workflow(
            "tiny", [Activity("babel", Operator.MAP, fn=acts.babel)]
        )
        relation = Relation(
            "in",
            [
                {"receptor_id": r, "ligand_id": lig}
                for r in RECEPTORS
                for lig in LIGANDS
            ],
        )
        report = engine.run(wf, relation, context={})
        assert report.succeeded
        # Every worker answered the cleanup broadcast, and at least one
        # actually held (and dropped) run state for the cache token.
        assert len(engine.last_cache_cleanup) == 2
        assert not any(
            isinstance(r, Exception) for r in engine.last_cache_cleanup
        )
        assert any(r is True for r in engine.last_cache_cleanup)
