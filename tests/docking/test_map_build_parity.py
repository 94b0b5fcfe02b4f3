"""Bit parity of the lattice-pruned map builds with the dense sweep.

The analytic AutoGrid and Vina builders enumerate only the in-cutoff
``(grid point, receptor atom)`` pairs (``neighbors.lattice_pairs``) and
share per-chunk terms across ligand types and probe classes. Their maps
must equal the dense ``(P x N x 3)`` sweep in :mod:`.dense_maps` exactly
— ``np.array_equal``, not a tolerance — so map caches keyed on the
unchanged force-field fingerprints stay valid.
"""

import numpy as np
import pytest

from repro.chem.atom import Atom
from repro.chem.generate import generate_receptor
from repro.chem.molecule import Molecule
from repro.core.activities import STANDARD_MAP_TYPES
from repro.docking.autogrid import AutoGrid
from repro.docking.box import GridBox
from repro.docking.prepare import prepare_receptor
from repro.docking.scoring_vina import build_vina_maps

from .dense_maps import DenseAutoGrid, dense_build_vina_maps

#: Table 2 receptors at both ends of the size range the campaigns use.
SMALL, LARGE = "1CSB", "1KHQ"


def assert_ad4_parity(receptor, box, chunk_atoms=256, types=STANDARD_MAP_TYPES):
    dense = DenseAutoGrid(chunk_atoms=chunk_atoms).run(receptor, box, types)
    pruned = AutoGrid(chunk_atoms=chunk_atoms).run(receptor, box, types)
    assert list(pruned.affinity) == list(dense.affinity)
    for t in types:
        assert np.array_equal(pruned.affinity[t], dense.affinity[t]), t
    assert np.array_equal(pruned.electrostatic, dense.electrostatic)
    assert np.array_equal(pruned.desolvation, dense.desolvation)
    return pruned


def assert_vina_parity(receptor, box, chunk_atoms=256):
    dense = dense_build_vina_maps(receptor, box, chunk_atoms=chunk_atoms)
    pruned = build_vina_maps(receptor, box, chunk_atoms=chunk_atoms)
    assert list(pruned.grids) == list(dense.grids)
    for cls, grid in dense.grids.items():
        assert np.array_equal(pruned.grids[cls], grid), cls
    return pruned


@pytest.fixture(scope="module")
def table2():
    """Prepared Table 2 receptors plus their campaign pocket boxes."""
    out = {}
    for rec_id in (SMALL, LARGE):
        receptor = generate_receptor(rec_id)
        box = GridBox.around_pocket(
            np.array(receptor.metadata["pocket_center"]),
            receptor.metadata["pocket_radius"],
            spacing=0.6,
        )
        out[rec_id] = (prepare_receptor(receptor).molecule, box)
    return out


def synthetic_receptor(coords, types, charges=None):
    mol = Molecule("SYN")
    if charges is None:
        charges = np.linspace(-0.5, 0.5, len(coords))
    for k, (xyz, adtype, q) in enumerate(zip(coords, types, charges), start=1):
        atom = Atom(k, f"X{k}", "C", xyz, charge=float(q))
        atom.autodock_type = adtype
        mol.add_atom(atom)
    return mol


class TestTable2Receptors:
    @pytest.mark.parametrize("rec_id", [SMALL, LARGE])
    def test_ad4_maps_bit_identical(self, table2, rec_id):
        assert_ad4_parity(*table2[rec_id])

    @pytest.mark.parametrize("rec_id", [SMALL, LARGE])
    def test_vina_grids_bit_identical(self, table2, rec_id):
        assert_vina_parity(*table2[rec_id])


class TestBoxGeometry:
    @pytest.mark.parametrize(
        "spacing, npts",
        [(0.375, (22, 30, 16)), (0.6, (16, 24, 10)), (0.9, (12, 8, 18))],
    )
    def test_non_cubic_boxes(self, table2, spacing, npts):
        receptor, pocket = table2[SMALL]
        box = GridBox(center=pocket.center, npts=npts, spacing=spacing)
        assert_ad4_parity(receptor, box)
        assert_vina_parity(receptor, box)

    def test_atoms_outside_box_within_cutoff(self):
        box = GridBox(center=[1.0, -2.0, 0.5], npts=(10, 14, 8), spacing=0.5)
        rng = np.random.default_rng(7)
        # Atoms beyond every face, edge and corner, up to ~cutoff away.
        directions = rng.normal(size=(60, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        half = box.dimensions / 2.0
        coords = box.center + directions * (half + rng.uniform(0.1, 7.9, (60, 1)))
        types = rng.choice(["C", "A", "OA", "NA", "HD", "N", "SA"], size=60)
        receptor = synthetic_receptor(coords, types)
        outside = ~box.contains(coords)
        kept, _, _ = AutoGrid()._relevant_atoms(receptor, box)
        assert outside.sum() >= 50 and len(kept) >= 50
        maps = assert_ad4_parity(receptor, box)
        assert np.count_nonzero(maps.electrostatic) > 0
        vmaps = assert_vina_parity(receptor, box)
        assert all(np.count_nonzero(g) > 0 for g in vmaps.grids.values())

    def test_point_exactly_at_cutoff_is_included(self):
        # Grid points sit on exact multiples of 0.5 from the origin; the
        # atom is exactly 8.0 A (the cutoff) from the point (4, 2, 1.5)
        # along +x and farther from every other point.
        box = GridBox(center=[2.0, 2.0, 2.0], npts=(8, 8, 8), spacing=0.5)
        receptor = synthetic_receptor([[12.0, 2.0, 1.5]], ["OA"], [-0.4])
        maps = assert_ad4_parity(receptor, box, types=("C", "HD"))
        boundary = (8, 4, 3)
        for grid in (maps.electrostatic, maps.desolvation, maps.affinity["C"]):
            assert np.count_nonzero(grid) == 1 and grid[boundary] != 0.0
        vmaps = assert_vina_parity(receptor, box)
        for grid in vmaps.grids.values():
            assert np.count_nonzero(grid) == 1 and grid[boundary] != 0.0

    def test_no_atoms_in_range(self):
        box = GridBox(center=[0.0, 0.0, 0.0], npts=(10, 10, 10), spacing=0.6)
        corner = box.maximum
        # One atom far away, one inside the per-axis cutoff slab but more
        # than the cutoff from the nearest box corner.
        receptor = synthetic_receptor(
            [[100.0, 100.0, 100.0], corner + 6.0], ["C", "OA"]
        )
        kept, _, _ = AutoGrid()._relevant_atoms(receptor, box)
        assert len(kept) == 1
        maps = assert_ad4_parity(receptor, box)
        assert not np.any(maps.electrostatic)
        vmaps = assert_vina_parity(receptor, box)
        assert not any(np.any(g) for g in vmaps.grids.values())


class TestChunking:
    @pytest.fixture(scope="class")
    def coarse(self, table2):
        receptor, pocket = table2[SMALL]
        return receptor, GridBox(center=pocket.center, npts=(14, 12, 16), spacing=0.9)

    def test_one_atom_chunks(self, coarse):
        assert_ad4_parity(*coarse, chunk_atoms=1)
        assert_vina_parity(*coarse, chunk_atoms=1)

    def test_chunk_splits_a_type_group(self, coarse):
        receptor, box = coarse
        chunk = 37
        kept = AutoGrid()._relevant_atoms(receptor, box)[1]
        largest = max(kept.count(t) for t in set(kept))
        assert largest > chunk and largest % chunk != 0
        assert_ad4_parity(receptor, box, chunk_atoms=chunk)
        assert_vina_parity(receptor, box, chunk_atoms=chunk)
