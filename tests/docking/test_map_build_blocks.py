"""Block-streamed map builds: parity at block seams, and a memory bound.

``AutoGrid.run`` and ``build_vina_maps`` evaluate their terms on one
``neighbors.ATOMS_PER_BLOCK``-atom block of pairs at a time and add each
block into per-chunk accumulators with ``np.add.at``. The maps must stay
``np.array_equal`` to the dense oracle wherever a chunk and the block
grid disagree, and one build's traced peak must stay a small multiple
of its result instead of a chunk-wide pair list.
"""

import tracemalloc

import numpy as np
import pytest

from repro.chem.generate import generate_receptor
from repro.core.activities import STANDARD_MAP_TYPES
from repro.docking.autogrid import AutoGrid
from repro.docking.box import GridBox
from repro.docking.neighbors import ATOMS_PER_BLOCK, lattice_blocks
from repro.docking.prepare import prepare_receptor
from repro.docking.scoring_vina import CUTOFF, build_vina_maps

from .test_map_build_parity import (
    assert_ad4_parity,
    assert_vina_parity,
    synthetic_receptor,
)

#: Traced peak of one map build on 1KHQ at the campaign's 0.6 A spacing
#: (29,791 points, nine AD4 types or the standard Vina classes): about
#: 20 MiB streamed, about 100 MiB with chunk-wide pair lists.
PEAK_BOUND_MIB = 40


def _pocket(rec_id, spacing=0.6):
    receptor = generate_receptor(rec_id)
    box = GridBox.around_pocket(
        np.array(receptor.metadata["pocket_center"]),
        receptor.metadata["pocket_radius"],
        spacing=spacing,
    )
    return prepare_receptor(receptor).molecule, box


@pytest.fixture(scope="module")
def coarse():
    receptor, pocket = _pocket("1CSB")
    return receptor, GridBox(center=pocket.center, npts=(14, 12, 16), spacing=0.9)


class TestBlockSeams:
    @pytest.mark.parametrize("chunk_atoms", [7, 17, 300])
    def test_chunks_off_the_block_grid(self, coarse, chunk_atoms):
        assert chunk_atoms % ATOMS_PER_BLOCK != 0
        assert_ad4_parity(*coarse, chunk_atoms=chunk_atoms)
        assert_vina_parity(*coarse, chunk_atoms=chunk_atoms)

    def test_blocks_that_never_reach_the_box(self):
        """Whole blocks, and a whole chunk, whose atoms miss every point.

        The far atoms sit past a box corner: inside the builders' per-axis
        cutoff slab, but more than the cutoff from every grid point. They
        alternate with near atoms in runs of one block, so empty and
        full blocks interleave within a chunk.
        """
        box = GridBox(center=[0.0, 0.0, 0.0], npts=(9, 11, 7), spacing=0.7)
        rng = np.random.default_rng(3)
        far = box.maximum + rng.uniform(6.0, 7.5, (2 * ATOMS_PER_BLOCK, 3))
        near = rng.uniform(box.minimum, box.maximum, (2 * ATOMS_PER_BLOCK, 3))
        n = ATOMS_PER_BLOCK
        coords = np.concatenate([far[:n], near[:n], far[n:], near[n:]])
        receptor = synthetic_receptor(coords, ["C"] * len(coords))
        blocks = list(lattice_blocks(box, coords, CUTOFF))
        assert [int(ai[0]) // n for _, ai, _ in blocks] == [1, 3]
        for chunk_atoms in (n, 2 * n, 3 * n, 256):
            maps = assert_ad4_parity(receptor, box, chunk_atoms=chunk_atoms)
            assert np.count_nonzero(maps.electrostatic) > 0
            assert_vina_parity(receptor, box, chunk_atoms=chunk_atoms)

    def test_single_atom_type_groups(self):
        """Every receptor type group has one atom: one one-atom block each."""
        box = GridBox(center=[1.0, 0.5, -1.0], npts=(10, 8, 12), spacing=0.6)
        types = ["C", "A", "N", "NA", "OA", "SA", "S", "HD", "H", "F"]
        rng = np.random.default_rng(11)
        coords = rng.uniform(box.minimum - 3.0, box.maximum + 3.0, (len(types), 3))
        receptor = synthetic_receptor(coords, types)
        assert_ad4_parity(receptor, box)
        assert_vina_parity(receptor, box)


class TestTracedPeak:
    @pytest.fixture(scope="class")
    def large(self):
        return _pocket("1KHQ")

    @staticmethod
    def _peak_mib(build):
        build()  # warm lazy imports and caches outside the trace
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_ad4_build_peak(self, large):
        receptor, box = large
        peak = self._peak_mib(
            lambda: AutoGrid().run(receptor, box, STANDARD_MAP_TYPES)
        )
        assert peak < PEAK_BOUND_MIB, f"AD4 build traced peak {peak:.1f} MiB"

    def test_vina_build_peak(self, large):
        receptor, box = large
        peak = self._peak_mib(lambda: build_vina_maps(receptor, box))
        assert peak < PEAK_BOUND_MIB, f"Vina build traced peak {peak:.1f} MiB"
