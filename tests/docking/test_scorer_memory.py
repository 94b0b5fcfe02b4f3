"""Memory guard: a scorer's setup stays O(ligand), whatever the grid.

The scorers read the receptor's maps in place, so building one for a
dock must allocate nothing that scales with grid points. The guard
uses the campaigns' 31^3 grid and the largest CP ligand; the per-atom
stacks the scorers used to build would take 2 x 42 x 29,791 x 8 B
(about 19 MiB) for AD4 alone, which the oracle scorer still shows.
"""

import tracemalloc

import numpy as np
import pytest

from repro.chem.generate import generate_ligand, generate_receptor
from repro.core.activities import STANDARD_MAP_TYPES
from repro.core.datasets import CP_LIGANDS
from repro.docking.autogrid import GridMaps
from repro.docking.box import GridBox
from repro.docking.prepare import prepare_ligand, prepare_receptor
from repro.docking.scoring_ad4 import AD4Scorer
from repro.docking.scoring_vina import STANDARD_CLASSES, VinaMaps, VinaScorer

from . import search_oracle as oracle

BOUND_BYTES = 2**20


@pytest.fixture(scope="module")
def largest_ligand():
    preps = [prepare_ligand(generate_ligand(name)) for name in CP_LIGANDS]
    return max(preps, key=lambda p: len(p.molecule.atoms)).molecule


@pytest.fixture(scope="module")
def box():
    box = GridBox(center=np.zeros(3), npts=(30, 30, 30), spacing=0.6)
    assert int(np.prod(box.shape)) == 29_791
    return box


def _peak_bytes(build) -> int:
    """tracemalloc peak of one ``build()``, after one untraced warm-up."""
    build()  # process-wide memos (pair tables, topology) are not per dock
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ad4_scorer_setup_is_o_ligand(box, largest_ligand):
    planes = np.zeros((int(np.prod(box.shape)), len(STANDARD_MAP_TYPES) + 2))
    maps = GridMaps(box=box, planes=planes, map_types=STANDARD_MAP_TYPES)
    assert len(largest_ligand.atoms) >= 40
    assert _peak_bytes(lambda: AD4Scorer(maps, largest_ligand)) < BOUND_BYTES
    # The guard sees the per-atom copies it exists to keep out.
    stacked = _peak_bytes(lambda: oracle.OracleAD4Scorer(maps, largest_ligand))
    assert stacked > 10 * BOUND_BYTES


def test_vina_scorer_setup_is_o_ligand(box, largest_ligand):
    planes = np.zeros((int(np.prod(box.shape)), len(STANDARD_CLASSES)))
    maps = VinaMaps(box=box, planes=planes, classes=STANDARD_CLASSES)
    receptor = prepare_receptor(generate_receptor("1KHQ")).molecule

    def build():
        return VinaScorer(receptor, largest_ligand, box, maps=maps)

    assert _peak_bytes(build) < BOUND_BYTES
