"""Cache-effectiveness smoke: the CI gate for the artifact plane.

A tiny multi-receptor screen on the process backend must build each
receptor's grid maps exactly once across *all* workers — the acceptance
criterion of the shared-artifact-plane work. Run directly by the
``cache-smoke`` CI job; small enough for a shared runner.
"""

from __future__ import annotations

import glob

from repro.core.analysis import collect_outcomes
from repro.core.datasets import pair_relation
from repro.core.scidock import SciDockConfig, run_scidock
from repro.docking.autodock import AD4Parameters
from repro.docking.ga import GAConfig
from repro.docking.mc import ILSConfig
from repro.docking.vina import VinaParameters

RECEPTORS = ["2HHN", "1S4V"]
LIGANDS = ["0E6", "0D6", "042"]

SMOKE_AD4 = AD4Parameters(
    ga_runs=1,
    ga=GAConfig(population_size=8, generations=2, local_search_steps=4),
    final_refine_steps=10,
)
SMOKE_VINA = VinaParameters(
    exhaustiveness=1,
    ils=ILSConfig(restarts=1, steps_per_restart=2, bfgs_iterations=3),
)


def test_processes_screen_builds_each_receptor_once(shm_segments_at_start):
    pairs = pair_relation(receptors=RECEPTORS, ligands=LIGANDS)
    config = SciDockConfig(
        workers=2,
        backend="processes",
        ad4_params=SMOKE_AD4,
        vina_params=SMOKE_VINA,
    )
    report, store = run_scidock(pairs, config)

    assert report.succeeded
    outcomes = list(collect_outcomes(store, report.wkfid))
    assert len(outcomes) == len(RECEPTORS) * len(LIGANDS)

    stats = report.artifact_stats
    builds = stats["builds_by_artifact"]
    assert builds, "process backend must run with an artifact plane"
    # The gate: no receptor's map bundle was ever built twice, anywhere.
    assert max(builds.values()) == 1, f"rebuilt artifacts: {builds}"
    assert stats["builds"] >= len(RECEPTORS)
    assert stats["shm_hits"] > 0
    # The plane tears down with the run: nothing left in /dev/shm.
    # (Segments /dev/shm held before the session are not this run's.)
    assert not set(glob.glob("/dev/shm/rp*")) - shm_segments_at_start
