"""AutoDock 4 engine: Lamarckian GA over the AD4 grid-based score.

Mirrors ``autodock4``'s run loop: for each of ``ga_runs`` independent GA
runs the best individual becomes a docked conformation; poses are then
clustered by RMSD and written to a DLG log. The runs share nothing but
the objective, so they advance in lockstep, one batched scorer call per
round, each on its own RNG stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.chem.geometry import rmsd
from repro.docking.autogrid import GridMaps
from repro.docking.clustering import DEFAULT_TOLERANCE, cluster_poses
from repro.docking.conformation import Conformation, DockingResult, Pose
from repro.docking.ga import GAConfig, LamarckianGA
from repro.docking.local_search import solis_wets_steps
from repro.docking.objective import PoseEnergyObjective, run_lockstep
from repro.docking.prepare import LigandPreparation
from repro.docking.scoring_ad4 import AD4Scorer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docking.etables import EtableSet


@dataclass
class AD4Parameters:
    """Engine-level knobs (the DPF subset our engine honors)."""

    ga_runs: int = 4
    ga: GAConfig = field(default_factory=GAConfig)
    cluster_tolerance: float = DEFAULT_TOLERANCE
    final_refine_steps: int = 150

    def __post_init__(self) -> None:
        if self.ga_runs < 1:
            raise ValueError("ga_runs must be >= 1")


class AutoDock4:
    """The AD4 docking engine bound to a set of grid maps."""

    name = "autodock4"

    def __init__(
        self,
        maps: GridMaps,
        params: AD4Parameters | None = None,
        etables: "EtableSet | None" = None,
    ) -> None:
        self.maps = maps
        self.params = params or AD4Parameters()
        self.etables = etables
        #: Kernel mode the engine's scorers will run ("analytic"|"tables").
        self.kernel = "tables" if etables is not None else "analytic"

    def dock(
        self,
        ligand: LigandPreparation,
        seed: int = 0,
    ) -> DockingResult:
        """Dock a prepared ligand; deterministic for a given seed."""
        started = time.perf_counter()
        scorer = AD4Scorer(self.maps, ligand.molecule, etables=self.etables)
        tree = ligand.tree
        reference = tree.reference

        # Vectorized objective: each round scores every run's pending
        # batch (a generation, a Solis-Wets probe pair) through one
        # batched pose + grid gather.
        objective = PoseEnergyObjective(
            tree, scorer.docking_energy_batch, kernel=scorer.kernel
        )

        # The GA searches translations around the box center relative to
        # the ligand's root reference position.
        center_offset = self.maps.box.center - reference[tree.root]
        extent = float(min(self.maps.box.dimensions) / 2.0)

        # Initialize inside the pocket half of the box: AD4 samples the
        # whole box, but most of it is the repulsive receptor wall. Copy
        # the config: self.params.ga may be shared across concurrently
        # docking receptors, whose boxes differ.
        ga_config = replace(self.params.ga, translation_extent=max(1.0, extent * 0.5))

        def search(run: int):
            rng = np.random.default_rng((seed, run))
            ga = LamarckianGA(objective, tree.n_torsions, ga_config)
            result = yield from ga.steps(rng, center=center_offset)
            # Final deep local search on the run's champion (AD4 refines
            # the best individual before reporting it).
            refined = yield from solis_wets_steps(
                result.best.vector,
                rng,
                max_steps=self.params.final_refine_steps,
            )
            return result, refined

        outcomes = run_lockstep(
            objective, [search(run) for run in range(self.params.ga_runs)]
        )
        poses: list[Pose] = []
        total_evals = 0
        for result, refined in outcomes:
            total_evals += result.evaluations + refined.evaluations
            if refined.energy < result.best_energy:
                conf = Conformation(refined.vector).normalized()
            else:
                conf = result.best
            coords = conf.coords(tree)
            terms = scorer.score(coords)
            poses.append(
                Pose(
                    conformation=conf,
                    coords=coords,
                    energy=terms.total,
                    intermolecular=terms.intermolecular,
                    intramolecular=terms.intramolecular,
                    torsional=terms.torsional,
                    rmsd_from_input=rmsd(coords, reference),
                )
            )
        clusters = cluster_poses(poses, self.params.cluster_tolerance)
        return DockingResult(
            receptor_name=self.maps.receptor_name,
            ligand_name=ligand.molecule.name,
            engine=self.name,
            poses=sorted(poses),
            clusters=clusters,
            evaluations=total_evals,
            runtime_seconds=time.perf_counter() - started,
            seed=seed,
        )
