"""Pair-enumerator correctness: exact pair-set equality with brute force.

The cell list and the lattice enumerator are pruning structures, not
approximations — on any input they must return exactly the
``(point, atom)`` pairs a dense ``r <= cutoff`` scan finds.
"""

import numpy as np
import pytest

from repro.docking.autogrid import AutoGrid
from repro.docking.box import GridBox
from repro.docking.etables import shared_etables
from repro.docking.neighbors import (
    CellList,
    brute_force_query,
    lattice_pairs,
)
from repro.docking.scoring_vina import build_vina_maps


def _pair_set(pi, ai):
    return set(zip(pi.tolist(), ai.tolist()))


class TestCellListEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_clouds_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_atoms = int(rng.integers(1, 400))
        n_points = int(rng.integers(1, 300))
        scale = float(rng.uniform(5.0, 40.0))
        coords = rng.uniform(-scale, scale, size=(n_atoms, 3))
        points = rng.uniform(-scale * 1.2, scale * 1.2, size=(n_points, 3))
        cutoff = float(rng.uniform(2.0, 10.0))
        cell_size = float(rng.uniform(1.0, cutoff * 1.5))
        cells = CellList(coords, cell_size=cell_size)
        pi, ai, r = cells.query(points, cutoff)
        bpi, bai, br = brute_force_query(points, coords, cutoff)
        assert _pair_set(pi, ai) == _pair_set(bpi, bai)
        order = np.lexsort((ai, pi))
        border = np.lexsort((bai, bpi))
        assert np.allclose(r[order], br[border])

    def test_degenerate_all_atoms_one_cell(self):
        coords = np.zeros((5, 3))
        cells = CellList(coords, cell_size=8.0)
        pi, ai, r = cells.query(np.zeros((2, 3)), 1.0)
        assert len(pi) == 10
        assert np.allclose(r, 0.0)

    def test_empty_inputs(self):
        cells = CellList(np.empty((0, 3)), cell_size=8.0)
        pi, ai, r = cells.query(np.zeros((3, 3)), 5.0)
        assert pi.size == ai.size == r.size == 0
        cells = CellList(np.zeros((4, 3)), cell_size=8.0)
        pi, ai, r = cells.query(np.empty((0, 3)), 5.0)
        assert pi.size == 0

    def test_boundary_inclusive(self):
        coords = np.array([[5.0, 0.0, 0.0]])
        cells = CellList(coords, cell_size=2.0)
        pi, ai, r = cells.query(np.zeros((1, 3)), 5.0)
        assert len(pi) == 1 and r[0] == pytest.approx(5.0)

    def test_chunked_iteration_is_global(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(-20, 20, size=(200, 3))
        points = rng.uniform(-20, 20, size=(500, 3))
        cells = CellList(coords, cell_size=8.0)
        chunked = [
            b for b in cells.iter_query(points, 8.0, chunk_points=64)
        ]
        pi = np.concatenate([b[0] for b in chunked])
        bpi, bai, _ = brute_force_query(points, coords, 8.0)
        assert _pair_set(pi, np.concatenate([b[1] for b in chunked])) == (
            _pair_set(bpi, bai)
        )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            CellList(np.zeros((1, 3)), cell_size=0.0)
        cells = CellList(np.zeros((1, 3)), cell_size=1.0)
        with pytest.raises(ValueError):
            list(cells.iter_query(np.zeros((1, 3)), 0.0))


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


class TestPrunedMapBuilds:
    """The cell-list table builds stay close to the analytic maps."""

    def test_autogrid_tables_close_to_analytic(self, prepared_receptor):
        box = GridBox(
            center=prepared_receptor.molecule.coords.mean(axis=0),
            npts=(14, 14, 14),
            spacing=0.9,
        )
        et = shared_etables()
        analytic = AutoGrid().run(
            prepared_receptor.molecule, box, ("C", "OA", "HD")
        )
        tables = AutoGrid(etables=et).run(
            prepared_receptor.molecule, box, ("C", "OA", "HD")
        )
        assert "kernel: tables" in tables.log
        for t in analytic.affinity:
            a, b = analytic.affinity[t], tables.affinity[t]
            assert (np.abs(a - b) <= 2e-2 + 2e-2 * np.abs(a)).all(), t
        e_err = np.abs(analytic.electrostatic - tables.electrostatic)
        assert (
            e_err <= 2e-2 + 2e-2 * np.abs(analytic.electrostatic)
        ).all()
        assert np.abs(analytic.desolvation - tables.desolvation).max() < 1e-4

    def test_vina_maps_tables_close_to_analytic(self, prepared_receptor, pocket_box):
        et = shared_etables()
        analytic = build_vina_maps(prepared_receptor.molecule, pocket_box)
        tables = build_vina_maps(
            prepared_receptor.molecule, pocket_box, etables=et
        )
        assert set(analytic.grids) == set(tables.grids)
        for cls, grid in analytic.grids.items():
            assert np.abs(grid - tables.grids[cls]).max() < 2e-3, cls
