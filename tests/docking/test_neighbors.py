"""Pair-enumerator correctness: exact pair-set equality with brute force.

The lattice enumerator is a pruning structure, not an approximation —
on any input it must return exactly the ``(grid point, atom)`` pairs a
dense ``r <= cutoff`` scan finds, with the same distances.
"""

import numpy as np
import pytest

from repro.docking.box import GridBox
from repro.docking.neighbors import (
    ATOMS_PER_BLOCK,
    brute_force_query,
    lattice_blocks,
    lattice_pairs,
)


class TestLatticePairs:
    """The map builders' enumerator: brute-force pairs, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_boxes_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        box = GridBox(
            center=rng.uniform(-5.0, 5.0, 3),
            npts=tuple(int(n) for n in rng.integers(2, 24, 3)),
            spacing=float(rng.uniform(0.3, 1.2)),
        )
        cutoff = float(rng.uniform(1.0, 9.0))
        n_atoms = int(rng.integers(1, 120))
        coords = rng.uniform(
            box.minimum - cutoff - 2.0, box.maximum + cutoff + 2.0, (n_atoms, 3)
        )
        pi, ai, r = lattice_pairs(box, coords, cutoff)
        assert np.all(np.diff(ai) >= 0)  # atom-major
        bpi, bai, br = brute_force_query(box.points(), coords, cutoff)
        order = np.lexsort((pi, ai))
        border = np.lexsort((bpi, bai))
        assert np.array_equal(pi[order], bpi[border])
        assert np.array_equal(ai[order], bai[border])
        assert np.array_equal(r[order], br[border])

    def test_empty_and_out_of_range(self):
        box = GridBox(center=[0.0, 0.0, 0.0], npts=(4, 4, 4), spacing=0.5)
        pi, ai, r = lattice_pairs(box, np.empty((0, 3)), 8.0)
        assert pi.size == ai.size == r.size == 0
        pi, ai, r = lattice_pairs(box, np.array([[50.0, 0.0, 0.0]]), 8.0)
        assert pi.size == 0


class TestLatticeBlocks:
    """The block stream concatenates to the pair list, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_concatenate_to_pairs_and_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        box = GridBox(
            center=rng.uniform(-3.0, 3.0, 3),
            npts=tuple(int(n) for n in rng.integers(3, 20, 3)),
            spacing=float(rng.uniform(0.4, 1.0)),
        )
        cutoff = float(rng.uniform(2.0, 8.0))
        # Off the block grid, with some atoms that reach no point.
        n_atoms = 3 * ATOMS_PER_BLOCK + int(rng.integers(1, ATOMS_PER_BLOCK))
        coords = rng.uniform(
            box.minimum - cutoff - 3.0, box.maximum + cutoff + 3.0, (n_atoms, 3)
        )
        blocks = list(lattice_blocks(box, coords, cutoff))
        assert len(blocks) >= 2
        for pi, ai, r in blocks:
            assert pi.size > 0 and pi.size == ai.size == r.size
            # One block's atoms all come from one ATOMS_PER_BLOCK window.
            assert ai[0] // ATOMS_PER_BLOCK == ai[-1] // ATOMS_PER_BLOCK
        firsts = [ai[0] for _, ai, _ in blocks]
        assert firsts == sorted(firsts)
        pi, ai, r = (np.concatenate(part) for part in zip(*blocks))
        lpi, lai, lr = lattice_pairs(box, coords, cutoff)
        assert np.array_equal(pi, lpi)
        assert np.array_equal(ai, lai)
        assert np.array_equal(r, lr)
        assert np.all(np.diff(ai) >= 0)
        bpi, bai, br = brute_force_query(box.points(), coords, cutoff)
        order = np.lexsort((pi, ai))
        border = np.lexsort((bpi, bai))
        assert np.array_equal(pi[order], bpi[border])
        assert np.array_equal(ai[order], bai[border])
        assert np.array_equal(r[order], br[border])

    def test_no_pairs_no_blocks(self):
        box = GridBox(center=[0.0, 0.0, 0.0], npts=(4, 4, 4), spacing=0.5)
        assert list(lattice_blocks(box, np.empty((0, 3)), 8.0)) == []
        far = np.full((2 * ATOMS_PER_BLOCK, 3), 50.0)
        assert list(lattice_blocks(box, far, 8.0)) == []
