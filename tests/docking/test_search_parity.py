"""Bit parity of the search hot path with the original per-call kernels.

Posing (``TorsionTree.pose_batch`` on a compiled branch plan, the
outer-product Rodrigues matrices) and the grid gather (one
``StackGather`` shared by AD4 and Vina) must equal the originals kept
in :mod:`.search_oracle` exactly — ``np.array_equal``, never a
tolerance — so FEB, RMSD and evaluation counts of every dock stay
where they were.
"""

import numpy as np
import pytest

from repro.chem.generate import generate_ligand
from repro.chem.geometry import (
    quaternion_to_matrix_batch,
    rotation_about_axis_batch,
)
from repro.chem.torsions import TorsionTree
from repro.core.scidock import FAST_AD4, FAST_VINA
from repro.docking import forcefield as ff
from repro.docking.autodock import AutoDock4
from repro.docking.autogrid import StackGather
from repro.docking.prepare import prepare_ligand
from repro.docking.scoring_ad4 import AD4Scorer
from repro.docking.scoring_vina import (
    VinaScorer,
    atom_class_for,
    build_vina_maps,
)
from repro.docking.vina import Vina

from . import search_oracle as oracle

BATCH_SIZES = (1, 2, 3, 24, 64)
LIGANDS = ("042", "074", "0D6", "0E6")


@pytest.fixture(scope="module")
def trees():
    return {name: prepare_ligand(generate_ligand(name)).tree for name in LIGANDS}


@pytest.fixture(scope="module")
def vina_maps(prepared_receptor, pocket_box):
    return build_vina_maps(prepared_receptor.molecule, pocket_box)


def _genotypes(tree, P, rng, rows):
    """Translations, quaternions and torsions for ``P`` poses.

    ``rows`` picks which rows turn their branches: ``"active"`` (every
    torsion non-zero), ``"inactive"`` (all zero) or ``"mixed"`` (zero
    rows, zero entries and angles straddling the 1e-12 cut).
    """
    T = tree.n_torsions
    translations = rng.normal(0.0, 3.0, size=(P, 3))
    quaternions = rng.normal(size=(P, 4))
    torsions = rng.uniform(-np.pi, np.pi, size=(P, T))
    if rows == "inactive":
        torsions[:] = 0.0
    elif rows == "mixed":
        torsions[::2] = 0.0
        torsions[rng.random((P, T)) < 0.3] = 0.0
        edge = rng.random((P, T)) < 0.1
        torsions[edge] = rng.choice([1e-12, -1e-12, 0.99e-12], size=int(edge.sum()))
    return translations, quaternions, torsions


class TestRotationMatrices:
    @pytest.mark.parametrize("K", BATCH_SIZES)
    def test_matches_oracle(self, K):
        rng = np.random.default_rng(K)
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-6, 3, size=(K, 1))
            axes = rng.normal(size=(K, 3)) * scale
            angles = rng.uniform(-4 * np.pi, 4 * np.pi, size=K)
            angles[rng.random(K) < 0.2] = rng.choice([0.0, np.pi, -np.pi, 1e-300])
            new = rotation_about_axis_batch(axes, angles)
            old = oracle.rotation_about_axis_batch(axes, angles)
            assert new.shape == (K, 3, 3) and new.flags.c_contiguous
            assert np.array_equal(new, old)

    def test_zero_axis_still_rejected(self):
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            rotation_about_axis_batch(axes, np.ones(2))

    @pytest.mark.parametrize("K", BATCH_SIZES)
    def test_quaternions_match_oracle(self, K):
        rng = np.random.default_rng(100 + K)
        for _ in range(50):
            q = rng.normal(size=(K, 4)) * 10.0 ** rng.uniform(-5, 3, size=(K, 1))
            q[rng.random((K, 4)) < 0.15] = 0.0
            q[np.all(q == 0.0, axis=1), 0] = 1.0
            new = quaternion_to_matrix_batch(q)
            assert new.shape == (K, 3, 3) and new.flags.c_contiguous
            assert np.array_equal(new, oracle.quaternion_to_matrix_batch(q))

    def test_zero_quaternion_still_rejected(self):
        with pytest.raises(ValueError):
            quaternion_to_matrix_batch(np.zeros((2, 4)))


class TestPoseBatch:
    @pytest.mark.parametrize("rows", ["active", "mixed", "inactive"])
    @pytest.mark.parametrize("P", BATCH_SIZES)
    def test_matches_oracle(self, trees, P, rows):
        rng = np.random.default_rng(P)
        for name, tree in trees.items():
            for _ in range(4):
                args = _genotypes(tree, P, rng, rows)
                new = tree.pose_batch(*args)
                old = oracle.pose_batch(tree, *args)
                assert np.array_equal(new, old), (name, P, rows)

    def test_scalar_pose_matches_oracle(self, trees):
        rng = np.random.default_rng(7)
        for tree in trees.values():
            t, q, tors = _genotypes(tree, 1, rng, "active")
            assert np.array_equal(
                tree.pose(t[0], q[0], tors[0]), oracle.pose_batch(tree, t, q, tors)[0]
            )

    @pytest.mark.parametrize("P", BATCH_SIZES)
    def test_zero_torsion_ligand(self, P):
        mol = prepare_ligand(generate_ligand("042")).molecule
        tree = TorsionTree(mol, rotatable=[])
        assert tree.n_torsions == 0
        args = _genotypes(tree, P, np.random.default_rng(P), "active")
        assert np.array_equal(tree.pose_batch(*args), oracle.pose_batch(tree, *args))

    def test_degenerate_axis_rows_stay_put(self, trees):
        # A branch whose axis atoms coincide never turns, on any row.
        base = trees["0E6"]
        tree = TorsionTree(base.mol)
        tree.reference = tree.reference.copy()
        br = tree.branches[0]
        tree.reference[br.axis_to] = tree.reference[br.axis_from]
        rng = np.random.default_rng(3)
        for rows in ("active", "mixed"):
            args = _genotypes(tree, 24, rng, rows)
            assert np.array_equal(
                tree.pose_batch(*args), oracle.pose_batch(tree, *args)
            )

    def test_plan_is_compiled_once_in_branch_order(self, trees):
        tree = trees["0E6"]
        tree.pose_batch(*_genotypes(tree, 2, np.random.default_rng(0), "active"))
        plan = tree._plan
        assert plan is tree._plan
        assert [(f, t) for f, t, _ in plan] == [
            (br.axis_from, br.axis_to) for br in tree.branches
        ]
        for (_, _, moved), br in zip(plan, tree.branches):
            assert moved.dtype == np.intp and np.array_equal(moved, br.moved)


def _pose_cloud(box, n_atoms, P, rng):
    """Pose batches scattered in and around the box: some atoms clip."""
    lo, hi = box.minimum, box.maximum
    span = hi - lo
    coords = rng.uniform(lo - 0.3 * span, hi + 0.3 * span, size=(P, n_atoms, 3))
    # Exact corners of the box too.
    coords[0, 0] = lo
    coords[-1, -1] = hi
    return coords


def _ad4_stacks(maps, scorer):
    """The per-atom stacks exactly as ``AD4Scorer`` used to build them."""
    n = len(scorer.types)
    affinity = np.empty((n, *maps.box.shape))
    elec = np.empty((n, *maps.box.shape))
    for i, (t, q, aq) in enumerate(
        zip(scorer.types, scorer.charges, scorer.abs_charges)
    ):
        affinity[i] = maps.affinity[t] + aq * maps.desolvation
        elec[i] = ff.FE_COEFF_ESTAT * q * maps.electrostatic
    return affinity, elec


class TestStackGather:
    @pytest.mark.parametrize("P", BATCH_SIZES)
    def test_ad4_stacks_match_oracle(self, grid_maps, prepared_ligand, P):
        scorer = AD4Scorer(grid_maps, prepared_ligand.molecule)
        affinity, elec = _ad4_stacks(grid_maps, scorer)
        rng = np.random.default_rng(P)
        box = grid_maps.box
        for _ in range(5):
            coords = _pose_cloud(box, affinity.shape[0], P, rng)
            new = scorer._grid(coords)
            assert new.shape == (2, P)
            assert np.array_equal(new[0], oracle.ad4_gather_batch(box, affinity, coords))
            assert np.array_equal(new[1], oracle.ad4_gather_batch(box, elec, coords))

    @pytest.mark.parametrize("P", BATCH_SIZES)
    def test_vina_stack_matches_oracle(
        self, prepared_receptor, prepared_ligand, pocket_box, vina_maps, P
    ):
        lig = prepared_ligand.molecule
        scorer = VinaScorer(prepared_receptor.molecule, lig, pocket_box, maps=vina_maps)
        stack = np.stack(
            [vina_maps.grids[atom_class_for(a.autodock_type)] for a in lig.atoms]
        )
        rng = np.random.default_rng(P)
        for _ in range(5):
            coords = _pose_cloud(pocket_box, len(lig.atoms), P, rng)
            old = oracle.vina_gather_batch(pocket_box, stack, coords)
            assert np.array_equal(scorer._grid(coords)[0], old)
            assert np.array_equal(scorer.intermolecular_batch(coords), old)

    def test_single_atom_ligand_stack(self, grid_maps):
        box = grid_maps.box
        stack = grid_maps.electrostatic[None]
        rng = np.random.default_rng(1)
        coords = _pose_cloud(box, 1, 24, rng)
        new = StackGather(box, stack[None])(coords)[0]
        assert np.array_equal(new, oracle.vina_gather_batch(box, stack, coords))

    def test_rejects_stacks_off_the_box(self, grid_maps):
        with pytest.raises(ValueError):
            StackGather(grid_maps.box, grid_maps.electrostatic[None, None, 1:])

    def test_ad4_scorer_entry_points_match_oracle(
        self, grid_maps, prepared_ligand, monkeypatch
    ):
        lig = prepared_ligand.molecule
        new = AD4Scorer(grid_maps, lig)
        monkeypatch.setattr(
            "repro.docking.scoring_ad4.StackGather", oracle.OracleStackGather
        )
        old = AD4Scorer(grid_maps, lig)
        rng = np.random.default_rng(5)
        coords = _pose_cloud(grid_maps.box, len(lig.atoms), 24, rng)
        assert np.array_equal(
            new.docking_energy_batch(coords), old.docking_energy_batch(coords)
        )
        for a, b in zip(new.intermolecular_batch(coords), old.intermolecular_batch(coords)):
            assert np.array_equal(a, b)
        for pose in coords[:4]:
            assert new.docking_energy(pose) == old.docking_energy(pose)
            assert new.score(pose) == old.score(pose)


def _assert_same_dock(a, b):
    assert a.evaluations == b.evaluations
    assert len(a.poses) == len(b.poses)
    for pa, pb in zip(a.poses, b.poses):
        assert pa.energy == pb.energy
        assert pa.rmsd_from_input == pb.rmsd_from_input
        assert np.array_equal(pa.coords, pb.coords)


def _patch_oracle(monkeypatch):
    monkeypatch.setattr(TorsionTree, "pose_batch", oracle.pose_batch)
    monkeypatch.setattr(
        "repro.docking.scoring_ad4.StackGather", oracle.OracleStackGather
    )
    monkeypatch.setattr(
        "repro.docking.scoring_vina.StackGather", oracle.OracleStackGather
    )


class TestFullDocks:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_fast_ad4_dock_identical(
        self, grid_maps, prepared_ligand, monkeypatch, seed
    ):
        new = AutoDock4(grid_maps, FAST_AD4).dock(prepared_ligand, seed=seed)
        _patch_oracle(monkeypatch)
        old = AutoDock4(grid_maps, FAST_AD4).dock(prepared_ligand, seed=seed)
        _assert_same_dock(new, old)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_fast_vina_dock_identical(
        self, prepared_receptor, pocket_box, prepared_ligand, vina_maps,
        monkeypatch, seed,
    ):
        def dock():
            engine = Vina(prepared_receptor, pocket_box, FAST_VINA, maps=vina_maps)
            return engine.dock(prepared_ligand, seed=seed)

        new = dock()
        _patch_oracle(monkeypatch)
        old = dock()
        _assert_same_dock(new, old)
