"""AutoDock Vina engine: iterated local search over the Vina score.

Mirrors ``vina --config``: exhaustiveness controls the number of
independent search runs, ``num_modes``/``energy_range`` filter the pose
set reported, and the output is the ranked mode table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.chem.geometry import rmsd
from repro.chem.molecule import Molecule
from repro.chem.torsions import TorsionTree
from repro.docking.box import GridBox
from repro.docking.clustering import cluster_poses
from repro.docking.conformation import Conformation, DockingResult, Pose
from repro.docking.mc import ILSConfig, IteratedLocalSearch
from repro.docking.objective import PoseEnergyObjective
from repro.docking.prepare import LigandPreparation, ReceptorPreparation
from repro.docking.scoring_vina import VinaScorer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docking.etables import EtableSet
    from repro.docking.scoring_vina import VinaMaps


@dataclass
class VinaParameters:
    """Vina CLI-equivalent knobs."""

    exhaustiveness: int = 4
    num_modes: int = 9
    energy_range: float = 3.0
    ils: ILSConfig = field(default_factory=ILSConfig)
    rmsd_filter: float = 1.0  # min RMSD between reported modes

    def __post_init__(self) -> None:
        if self.exhaustiveness < 1:
            raise ValueError("exhaustiveness must be >= 1")
        if self.num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        if self.energy_range < 0:
            raise ValueError("energy_range must be non-negative")


class Vina:
    """The Vina docking engine."""

    name = "vina"

    def __init__(
        self,
        receptor: ReceptorPreparation | Molecule,
        box: GridBox,
        params: VinaParameters | None = None,
        *,
        use_grid: bool = True,
        maps: "VinaMaps | None" = None,
        etables: "EtableSet | None" = None,
    ) -> None:
        self.receptor = (
            receptor.molecule if isinstance(receptor, ReceptorPreparation) else receptor
        )
        self.box = box
        self.params = params or VinaParameters()
        self.etables = etables
        #: Kernel mode the engine's scorers will run ("analytic"|"tables").
        self.kernel = "tables" if etables is not None else "analytic"
        if maps is not None:
            self.maps = maps
        elif use_grid:
            from repro.docking.scoring_vina import build_vina_maps

            self.maps = build_vina_maps(self.receptor, box, etables=etables)
        else:
            self.maps = None

    def dock(self, ligand: LigandPreparation, seed: int = 0) -> DockingResult:
        """Dock a prepared ligand; deterministic for a given seed."""
        started = time.perf_counter()
        scorer = VinaScorer(
            self.receptor,
            ligand.molecule,
            self.box,
            maps=self.maps,
            etables=self.etables,
        )
        tree = ligand.tree

        # BFGS scores each finite-difference gradient as one batch.
        objective = PoseEnergyObjective(
            tree, scorer.search_energy_batch, kernel=scorer.kernel
        )

        center_offset = self.box.center - tree.reference[tree.root]
        extent = float(min(self.box.dimensions) / 2.0)

        # Copy the config: self.params.ils may be shared across
        # concurrently docking receptors, whose boxes differ.
        ils_config = replace(
            self.params.ils, translation_extent=max(1.0, extent * 0.8)
        )

        candidates: list[tuple[Conformation, float]] = []
        total_evals = 0
        for run in range(self.params.exhaustiveness):
            rng = np.random.default_rng((seed, run, 7919))
            ils = IteratedLocalSearch(objective, tree.n_torsions, ils_config)
            result = ils.run(rng, center=center_offset)
            total_evals += result.evaluations
            candidates.extend(result.minima)

        scored = rank_minima(scorer, tree, [conf for conf, _ in candidates])
        # Mode filtering: keep poses separated by rmsd_filter, within
        # energy_range of the best, up to num_modes.
        modes: list[Pose] = []
        for pose in scored:
            if len(modes) >= self.params.num_modes:
                break
            if modes and pose.energy - modes[0].energy > self.params.energy_range:
                break
            if all(
                rmsd(pose.coords, m.coords) >= self.params.rmsd_filter for m in modes
            ):
                modes.append(pose)
        if not modes and scored:
            modes = [scored[0]]
        clusters = cluster_poses(modes)
        return DockingResult(
            receptor_name=self.receptor.name,
            ligand_name=ligand.molecule.name,
            engine=self.name,
            poses=modes,
            clusters=clusters,
            evaluations=total_evals,
            runtime_seconds=time.perf_counter() - started,
            seed=seed,
        )


def rank_minima(
    scorer: VinaScorer, tree: TorsionTree, minima: list[Conformation]
) -> list[Pose]:
    """Poses for the search minima, ranked by the *reported* affinity
    (normalized intermolecular part); one batched call per score term."""
    coords = [conf.coords(tree) for conf in minima]
    stacked = np.stack(coords)
    affinities = scorer.total_batch(stacked).tolist()
    intra = scorer.intramolecular_batch(stacked).tolist()
    return sorted(
        Pose(
            conformation=conf,
            coords=xyz,
            energy=affinity,
            intermolecular=affinity,
            intramolecular=e_intra,
            rmsd_from_input=rmsd(xyz, tree.reference),
        )
        for conf, xyz, affinity, e_intra in zip(minima, coords, affinities, intra)
    )
