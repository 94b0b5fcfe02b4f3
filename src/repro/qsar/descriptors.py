"""2D/3D molecular descriptors.

Classic, easily interpreted descriptors computed directly from the
:class:`~repro.chem.molecule.Molecule` representation: size, flexibility,
hydrogen bonding capacity, lipophilicity (a Crippen-style atomic
contribution estimate), polar surface area (Ertl-style group
contributions, simplified) and simple 3D shape measures.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.chem.molecule import Molecule
from repro.chem.torsions import find_rotatable_bonds

#: Crippen-flavoured atomic logP contributions (coarse, by element/env).
_LOGP_CONTRIB = {
    "C_aromatic": 0.29,
    "C_aliphatic": 0.14,
    "N": -0.60,
    "O": -0.55,
    "S": 0.25,
    "P": -0.45,
    "F": 0.22,
    "CL": 0.65,
    "BR": 0.86,
    "I": 1.11,
    "H_polar": -0.35,
    "H_apolar": 0.12,
}

#: Ertl-style TPSA group contributions (A^2), simplified to element+H.
_TPSA_CONTRIB = {
    ("N", 0): 12.36,
    ("N", 1): 20.31,  # N-H
    ("O", 0): 17.07,
    ("O", 1): 20.23,  # O-H
    ("S", 0): 25.30,
}


@dataclass
class MolecularDescriptors:
    """One ligand's descriptor vector."""

    molecular_weight: float
    n_heavy_atoms: int
    n_rotatable_bonds: int
    h_bond_donors: int
    h_bond_acceptors: int
    n_aromatic_atoms: int
    n_rings: int
    clogp: float
    tpsa: float
    radius_of_gyration: float
    asphericity: float

    def vector(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)


DESCRIPTOR_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(MolecularDescriptors)
)


def _count_rings(mol: Molecule) -> int:
    """Cycle-space dimension per connected component (|E| - |V| + C)."""
    comps = mol.connected_components()
    return max(0, len(mol.bonds) - len(mol.atoms) + len(comps))


def compute_descriptors(mol: Molecule) -> MolecularDescriptors:
    """Compute the full descriptor vector for one molecule."""
    if len(mol.atoms) == 0:
        raise ValueError("cannot compute descriptors of an empty molecule")
    if not mol.bonds:
        mol = mol.copy()
        mol.perceive_bonds()

    donors = 0
    acceptors = 0
    clogp = 0.0
    tpsa = 0.0
    n_aromatic = 0
    for i, a in enumerate(mol.atoms):
        h_neighbors = sum(1 for j in mol.neighbors(i) if mol.atoms[j].element == "H")
        if a.element in ("N", "O"):
            acceptors += 1
            if h_neighbors:
                donors += 1
            tpsa += _TPSA_CONTRIB.get((a.element, min(h_neighbors, 1)), 15.0)
        elif a.element == "S":
            tpsa += _TPSA_CONTRIB[("S", 0)]
        if a.aromatic:
            n_aromatic += 1
        # logP contribution.
        if a.element == "C":
            clogp += _LOGP_CONTRIB["C_aromatic" if a.aromatic else "C_aliphatic"]
        elif a.element == "H":
            heavy = [j for j in mol.neighbors(i) if mol.atoms[j].is_heavy]
            polar = any(mol.atoms[j].element in ("N", "O", "S") for j in heavy)
            clogp += _LOGP_CONTRIB["H_polar" if polar else "H_apolar"]
        else:
            clogp += _LOGP_CONTRIB.get(a.element, 0.0)

    coords = mol.coords
    center = coords.mean(axis=0)
    centered = coords - center
    gyration_tensor = centered.T @ centered / len(mol.atoms)
    eigvals = np.sort(np.linalg.eigvalsh(gyration_tensor))[::-1]
    rg = float(np.sqrt(eigvals.sum()))
    # Asphericity in [0, 1]: 0 = sphere, 1 = rod.
    denom = eigvals.sum() ** 2
    asphericity = float(
        ((eigvals[0] - eigvals[1]) ** 2
         + (eigvals[1] - eigvals[2]) ** 2
         + (eigvals[0] - eigvals[2]) ** 2) / (2 * denom)
    ) if denom > 0 else 0.0

    return MolecularDescriptors(
        molecular_weight=mol.molecular_weight,
        n_heavy_atoms=sum(1 for a in mol.atoms if a.is_heavy),
        n_rotatable_bonds=len(find_rotatable_bonds(mol)),
        h_bond_donors=donors,
        h_bond_acceptors=acceptors,
        n_aromatic_atoms=n_aromatic,
        n_rings=_count_rings(mol),
        clogp=clogp,
        tpsa=tpsa,
        radius_of_gyration=rg,
        asphericity=asphericity,
    )
