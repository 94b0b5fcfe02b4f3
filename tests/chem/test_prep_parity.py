"""Bit parity of ligand/receptor preparation with the pre-rewrite helpers.

PEOE parameter keys now come from one pass over the bonds, the ring
test from the shared cut-bond search, and the torsion-tree root from one
pair of BFS sides per rotatable bond. All must reproduce the helpers
kept in :mod:`.prep_oracle` exactly: the same keys, rotatable bonds,
charges (``np.array_equal``), PDBQT text — and so the same
content-addressed map-cache keys, which hash the receptor PDBQT — and the
same root and branches (order and ``moved`` atoms).

Row-blocked bond perception must find the oracle's bonds in the
oracle's order.
"""

import numpy as np
import pytest

from repro.chem import charges, torsions
from repro.chem.atom import Atom
from repro.chem.generate import generate_ligand, generate_receptor
from repro.chem.molecule import BOND_ROWS_PER_BLOCK, Molecule
from repro.chem.torsions import TorsionTree, find_rotatable_bonds
from repro.core.datasets import CP_LIGANDS
from repro.docking.prepare import prepare_ligand, prepare_receptor

from . import prep_oracle as oracle

#: The four largest receptors of the campaign sweeps, two mid-size ones,
#: and two mercury carriers (fixed-charge metal outside the PEOE sweep).
RECEPTORS = ("3O1G", "1KHQ", "1AEC", "1ME4", "2P7U", "2HHN", "2ACT", "3S3R")


def _on_oracle(monkeypatch, build):
    """Run ``build()`` with the old key lookup, ring test and root search."""
    with monkeypatch.context() as m:
        m.setattr(charges, "_param_keys", oracle.param_keys)
        m.setattr(torsions, "find_rotatable_bonds", oracle.find_rotatable_bonds)
        m.setattr(TorsionTree, "_pick_root", oracle._pick_root)
        return build()


def _charges(mol: Molecule) -> np.ndarray:
    return np.array([a.charge for a in mol.atoms])


def _assert_same_tree(new: TorsionTree, old: TorsionTree) -> None:
    assert new.root == old.root
    assert [(b.axis_from, b.axis_to) for b in new.branches] == [
        (b.axis_from, b.axis_to) for b in old.branches
    ]
    for a, b in zip(new.branches, old.branches):
        assert np.array_equal(a.moved, b.moved)


def _chain(mol: Molecule, elements, start, orders=None) -> list[int]:
    """Append a bonded chain of atoms along x; returns their indices."""
    first = len(mol.atoms)
    for k, el in enumerate(elements):
        pos = np.array(start, dtype=float) + [1.5 * k, 0.3 * (k % 2), 0.0]
        mol.add_atom(Atom(first + k + 1, f"{el}{first + k + 1}", el, pos))
    for k in range(len(elements) - 1):
        order = orders[k] if orders else 1
        mol.add_bond(first + k, first + k + 1, order)
    return list(range(first, first + len(elements)))


class TestParamKeys:
    def test_every_bond_order(self, monkeypatch):
        """Single, double, triple and aromatic neighbors on C, N, O, S."""
        m = Molecule(name="MIX")
        _chain(m, ["C", "C", "N"], [0, 0, 0], orders=[1, 3])  # nitrile
        _chain(m, ["C", "C", "C"], [0, 3, 0], orders=[2, 1])  # alkene
        _chain(m, ["C", "O", "H"], [0, 6, 0])  # hydroxyl
        _chain(m, ["C", "N", "C"], [0, 7.5, 0])  # amine
        _chain(m, ["C", "O"], [0, 9, 0], orders=[2])  # carbonyl
        _chain(m, ["N", "C", "S", "P", "CL"], [0, 12, 0], orders=[2, 1, 1, 1])
        ring = _chain(m, ["C", "N", "C"], [0, 15, 0])
        for idx in ring:
            m.atoms[idx].aromatic = True
        m.add_atom(Atom(len(m.atoms) + 1, "ZN1", "ZN", [9.0, 9.0, 9.0]))
        keys = charges._param_keys(m)
        assert keys == oracle.param_keys(m)
        assert {"C.2", "C.3", "N.2", "N.3", "N.ar", "C.ar", "O.2", "O.3"} <= set(keys)
        new = charges.assign_gasteiger_charges(m)
        old = _on_oracle(monkeypatch, lambda: charges.assign_gasteiger_charges(m))
        assert np.array_equal(new, old)

    @pytest.mark.parametrize("lig_id", CP_LIGANDS)
    def test_ligand_keys(self, lig_id):
        mol = generate_ligand(lig_id)
        assert charges._param_keys(mol) == oracle.param_keys(mol)


class TestLigandPrep:
    @pytest.mark.parametrize("lig_id", CP_LIGANDS)
    def test_ligand_identical(self, monkeypatch, lig_id):
        mol = generate_ligand(lig_id)
        new = prepare_ligand(mol)
        old = _on_oracle(monkeypatch, lambda: prepare_ligand(mol))
        assert np.array_equal(_charges(new.molecule), _charges(old.molecule))
        assert new.pdbqt == old.pdbqt
        _assert_same_tree(new.tree, old.tree)

    @pytest.mark.parametrize("lig_id", CP_LIGANDS)
    def test_rotatable_bonds(self, lig_id):
        raw = generate_ligand(lig_id)
        for mol in (raw, prepare_ligand(raw).molecule):
            assert find_rotatable_bonds(mol) == oracle.find_rotatable_bonds(mol)

    @pytest.mark.parametrize("lig_id", CP_LIGANDS)
    def test_ring_bonds_passed_explicitly(self, monkeypatch, lig_id):
        """Every heavy-heavy bond, ring bonds included, as a torsion."""
        mol = prepare_ligand(generate_ligand(lig_id)).molecule
        bonds = [
            (b.i, b.j)
            for b in mol.bonds
            if mol.atoms[b.i].is_heavy and mol.atoms[b.j].is_heavy
        ]
        assert len(bonds) > len(find_rotatable_bonds(mol))
        new = TorsionTree(mol, rotatable=bonds)
        old = _on_oracle(monkeypatch, lambda: TorsionTree(mol, rotatable=bonds))
        _assert_same_tree(new, old)


class TestReceptorPrep:
    @pytest.mark.parametrize("pdb_id", RECEPTORS)
    def test_receptor_identical(self, monkeypatch, pdb_id):
        mol = generate_receptor(pdb_id)
        new = prepare_receptor(mol)
        old = _on_oracle(monkeypatch, lambda: prepare_receptor(mol))
        assert np.array_equal(_charges(new.molecule), _charges(old.molecule))
        assert new.pdbqt == old.pdbqt

    def test_mercury_receptor_is_covered(self):
        elements = {a.element for a in generate_receptor("2ACT").atoms}
        assert "HG" in elements


def _perceive(mol: Molecule, perceive, keep_bonds: int = 0):
    """Run ``perceive`` on a copy keeping the first ``keep_bonds`` bonds."""
    work = Molecule(mol.name, (a.copy() for a in mol.atoms), mol.bonds[:keep_bonds])
    added = perceive(work)
    return added, [(b.i, b.j, b.order, b.aromatic) for b in work.bonds]


class TestBondPerception:
    @pytest.mark.parametrize("pdb_id", ("1CSB",) + RECEPTORS)
    def test_receptor_bonds_identical(self, pdb_id):
        mol = generate_receptor(pdb_id)
        assert not mol.bonds
        new = _perceive(mol, Molecule.perceive_bonds)
        assert new == _perceive(mol, oracle.perceive_bonds)
        # Longer than one row block, so the block seams are crossed.
        assert len(mol.atoms) > 2 * BOND_ROWS_PER_BLOCK and new[0] > len(mol.atoms) / 2

    @pytest.mark.parametrize("lig_id", CP_LIGANDS)
    def test_ligand_bonds_identical(self, lig_id):
        mol = generate_ligand(lig_id)
        new = _perceive(mol, Molecule.perceive_bonds)
        assert new == _perceive(mol, oracle.perceive_bonds)
        assert new[0] > 0

    def test_existing_bonds_kept(self):
        mol = generate_ligand(CP_LIGANDS[0])
        new = _perceive(mol, Molecule.perceive_bonds, keep_bonds=5)
        assert new == _perceive(mol, oracle.perceive_bonds, keep_bonds=5)
        assert new[1][:5] == [(b.i, b.j, b.order, b.aromatic) for b in mol.bonds[:5]]

    @pytest.mark.parametrize(
        "n_atoms", [1, 2, BOND_ROWS_PER_BLOCK, BOND_ROWS_PER_BLOCK + 1, 150]
    )
    def test_random_clouds(self, n_atoms):
        """Overlapping atoms, block seams and dense clusters."""
        rng = np.random.default_rng(n_atoms)
        mol = Molecule(name="CLOUD")
        elements = rng.choice(["C", "N", "O", "H", "S", "HG"], size=n_atoms)
        coords = rng.uniform(0.0, 0.6 * n_atoms ** (1 / 3), (n_atoms, 3))
        if n_atoms > 2:
            coords[1] = coords[0] + 0.2  # closer than 0.4 A: no bond
        for k, (el, xyz) in enumerate(zip(elements, coords), start=1):
            mol.add_atom(Atom(k, f"{el}{k}", str(el), xyz))
        assert _perceive(mol, Molecule.perceive_bonds) == _perceive(
            mol, oracle.perceive_bonds
        )


class TestTreeEdgeCases:
    def test_explicit_ring_bond(self, monkeypatch):
        """A ring bond splits nothing: both its ends share one side."""
        m = Molecule(name="RING")
        ring = _chain(m, ["C"] * 6, [0, 0, 0])
        m.add_bond(ring[-1], ring[0])
        tail = _chain(m, ["C", "C", "O"], [0, 4, 0])
        m.add_bond(ring[2], tail[0])
        assert find_rotatable_bonds(m) == oracle.find_rotatable_bonds(m)
        rotatable = find_rotatable_bonds(m) + [(ring[0], ring[1])]
        new = TorsionTree(m, rotatable=rotatable)
        old = _on_oracle(monkeypatch, lambda: TorsionTree(m, rotatable=rotatable))
        _assert_same_tree(new, old)
        assert (ring[0], ring[1]) in new.rotatable

    @pytest.mark.parametrize("first", [3, 6])
    def test_two_components(self, monkeypatch, first):
        """Candidates in the other fragment see the cut leave it whole."""
        m = Molecule(name="PAIR")
        _chain(m, ["C"] * first, [0, 0, 0])
        _chain(m, ["C", "C", "C", "C", "N"], [0, 5, 0])
        assert len(m.connected_components()) == 2
        new = TorsionTree(m)
        assert len(new.rotatable) >= 2
        old = _on_oracle(monkeypatch, lambda: TorsionTree(m))
        _assert_same_tree(new, old)
