"""Gasteiger-Marsili partial-charge assignment (PEOE).

``prepare_ligand4.py``/``prepare_receptor4.py`` add Gasteiger charges
before writing PDBQT; this module implements the classic iterative
partial equalization of orbital electronegativity. Parameters (a, b, c)
follow Gasteiger & Marsili, Tetrahedron 36 (1980), with generic fallbacks
for elements outside the original set.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule

# (a, b, c) electronegativity polynomial coefficients chi(Q) = a + b*Q + c*Q^2
# keyed by (element, rough hybridization bucket).
_PEOE_PARAMS: dict[str, tuple[float, float, float]] = {
    "H": (7.17, 6.24, -0.56),
    "C.3": (7.98, 9.18, 1.88),
    "C.2": (8.79, 9.32, 1.51),
    "C.ar": (8.79, 9.32, 1.51),
    "N.3": (11.54, 10.82, 1.36),
    "N.2": (12.87, 11.15, 0.85),
    "N.ar": (12.87, 11.15, 0.85),
    "O.3": (14.18, 12.92, 1.39),
    "O.2": (17.07, 13.79, 0.47),
    "S.3": (10.14, 9.13, 1.38),
    "F": (14.66, 13.85, 2.31),
    "CL": (11.00, 9.69, 1.35),
    "BR": (10.08, 8.47, 1.16),
    "I": (9.90, 7.96, 0.96),
    "P": (8.90, 8.24, 0.96),
}

# Cations that PEOE does not handle; they keep a fixed formal charge.
_FIXED_METAL_CHARGES = {
    "ZN": 2.0,
    "MG": 2.0,
    "CA": 2.0,
    "FE": 2.0,
    "MN": 2.0,
    "HG": 2.0,
    "NA": 1.0,
    "K": 1.0,
    "CU": 2.0,
    "NI": 2.0,
    "CO": 2.0,
}

_DAMPING = 0.5  # Gasteiger's (1/2)^n damping factor per iteration


def _param_keys(mol: Molecule) -> list[str]:
    """PEOE parameter key per atom, from one pass over the bonds."""
    max_order = [0] * len(mol.atoms)
    has_double = [False] * len(mol.atoms)
    for b in mol.bonds:
        for k in (b.i, b.j):
            max_order[k] = max(max_order[k], b.order)
            has_double[k] = has_double[k] or b.order == 2
    keys = []
    for atom, order, double in zip(mol.atoms, max_order, has_double):
        el = atom.element
        if el in ("C", "N"):
            hybrid = "ar" if atom.aromatic else "2" if order >= 2 else "3"
            el = f"{el}.{hybrid}"
        elif el == "O":
            el = "O.2" if double else "O.3"
        elif el == "S":
            el = "S.3"
        keys.append(el)
    return keys


def assign_gasteiger_charges(
    mol: Molecule, iterations: int = 6
) -> np.ndarray:
    """Assign PEOE charges in-place; returns the charge vector.

    Runs ``iterations`` damped charge-transfer sweeps (6 is the classic
    choice — convergence is geometric). Metals take fixed formal charges
    and are excluded from the equalization.
    """
    n = len(mol.atoms)
    if n == 0:
        return np.zeros(0)
    charges = np.zeros(n, dtype=np.float64)
    keys = _param_keys(mol)
    a = np.empty(n)
    b = np.empty(n)
    c = np.empty(n)
    active = np.ones(n, dtype=bool)
    for i, key in enumerate(keys):
        el = mol.atoms[i].element
        if el in _FIXED_METAL_CHARGES:
            charges[i] = _FIXED_METAL_CHARGES[el]
            active[i] = False
            a[i], b[i], c[i] = 0.0, 0.0, 0.0
            continue
        # Generic fallback: interpolate from Pauling electronegativity.
        from repro.chem.elements import element_info

        params = _PEOE_PARAMS.get(key)
        if params is None:
            en = element_info(el).electronegativity
            params = (en * 3.0, en * 2.7, 1.0)
        a[i], b[i], c[i] = params

    if not mol.bonds:
        mol_charges_to_atoms(mol, charges)
        return charges

    edges = np.array([[bond.i, bond.j] for bond in mol.bonds], dtype=np.intp)
    # chi+ for hydrogen uses the cation electronegativity 20.02 (Gasteiger).
    chi_plus = a + b + c
    for i, atom in enumerate(mol.atoms):
        if atom.element == "H":
            chi_plus[i] = 20.02

    damp = 1.0
    for _ in range(iterations):
        damp *= _DAMPING
        chi = a + b * charges + c * charges**2
        ci, cj = edges[:, 0], edges[:, 1]
        both_active = active[ci] & active[cj]
        chi_i, chi_j = chi[ci], chi[cj]
        # Transfer from the less to the more electronegative end, scaled
        # by the donor's cation electronegativity.
        denom = np.where(chi_i < chi_j, chi_plus[ci], chi_plus[cj])
        denom = np.where(np.abs(denom) < 1e-9, 1.0, denom)
        dq = (chi_j - chi_i) / denom * damp
        dq = np.where(both_active, dq, 0.0)
        np.add.at(charges, ci, dq)
        np.subtract.at(charges, cj, dq)
    mol_charges_to_atoms(mol, charges)
    return charges


def mol_charges_to_atoms(mol: Molecule, charges: np.ndarray) -> None:
    """Copy a charge vector onto the molecule's atoms."""
    if len(charges) != len(mol.atoms):
        raise ValueError("charge vector length mismatch")
    for atom, q in zip(mol.atoms, charges):
        atom.charge = float(q)


def total_charge(mol: Molecule) -> float:
    """Sum of atomic partial charges."""
    return float(sum(a.charge for a in mol.atoms))
