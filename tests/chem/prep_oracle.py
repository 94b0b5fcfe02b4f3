"""Ligand/receptor prep helpers as they were before the linear-time rewrite.

The bit-parity oracle for first-touch preparation: the per-atom PEOE
parameter lookup ``_param_key`` (one scan over every bond per C/N/O
atom), ``find_rotatable_bonds`` with its own ``_in_ring`` search, and
``TorsionTree._pick_root`` with its ``_distal_set`` helper (one BFS per
candidate root and rotatable bond). They are kept verbatim apart from
``self`` becoming an argument; the production versions must reproduce
them exactly.
"""

from __future__ import annotations

from repro.chem.molecule import Molecule
from repro.chem.torsions import TorsionTree, _is_amide


def _param_key(mol: Molecule, idx: int) -> str:
    atom = mol.atoms[idx]
    el = atom.element
    if el in ("H", "F", "CL", "BR", "I", "P"):
        return el
    if el in ("C", "N"):
        if atom.aromatic:
            return f"{el}.ar"
        has_multiple = any(
            b.order >= 2 and idx in (b.i, b.j) for b in mol.bonds
        )
        return f"{el}.2" if has_multiple else f"{el}.3"
    if el == "O":
        has_double = any(b.order == 2 and idx in (b.i, b.j) for b in mol.bonds)
        return "O.2" if has_double else "O.3"
    if el == "S":
        return "S.3"
    return el


def param_keys(mol: Molecule) -> list[str]:
    """Drop-in for ``repro.chem.charges._param_keys`` on the old lookup."""
    return [_param_key(mol, i) for i in range(len(mol.atoms))]


def _in_ring(mol: Molecule, i: int, j: int) -> bool:
    """True when edge (i, j) lies on a cycle (removal keeps i-j connected)."""
    adj = mol.adjacency
    seen = {i}
    stack = [i]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if v == i and w == j:
                continue  # skip the bond itself
            if (v, w) == (i, j) or (v, w) == (j, i):
                continue
            if w == j:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def find_rotatable_bonds(mol: Molecule) -> list[tuple[int, int]]:
    """Rotatable bonds per the AutoDockTools rules.

    A bond is rotatable when it is a single, non-aromatic, acyclic bond
    whose two ends each have at least one additional heavy-atom neighbor
    (terminal bonds such as C-H or C-CH3-with-only-H are skipped; amide
    C-N bonds are excluded).
    """
    rotatable: list[tuple[int, int]] = []
    for b in mol.bonds:
        if b.order != 1 or b.aromatic:
            continue
        ai, aj = mol.atoms[b.i], mol.atoms[b.j]
        if ai.is_hydrogen or aj.is_hydrogen:
            continue
        # Each endpoint needs a heavy neighbor besides the other endpoint.
        heavy_i = [
            k for k in mol.neighbors(b.i) if k != b.j and mol.atoms[k].is_heavy
        ]
        heavy_j = [
            k for k in mol.neighbors(b.j) if k != b.i and mol.atoms[k].is_heavy
        ]
        if not heavy_i or not heavy_j:
            continue
        if _is_amide(mol, b.i, b.j) or _is_amide(mol, b.j, b.i):
            continue
        if _in_ring(mol, b.i, b.j):
            continue
        rotatable.append((b.i, b.j))
    return rotatable


def _pick_root(self: TorsionTree) -> int:
    heavy = [i for i, a in enumerate(self.mol.atoms) if a.is_heavy]
    candidates = heavy or list(range(len(self.mol.atoms)))
    if not self.rotatable:
        return candidates[0]
    best, best_cost = candidates[0], float("inf")
    for cand in candidates:
        cost = max(
            (len(_distal_set(self, i, j, cand)) for i, j in self.rotatable),
            default=0,
        )
        if cost < best_cost:
            best, best_cost = cand, cost
    return best


def _distal_set(self: TorsionTree, i: int, j: int, root: int) -> set[int]:
    """Atoms on the far side of bond (i, j) as seen from ``root``."""
    adj = self.mol.adjacency
    # BFS from root avoiding the (i, j) edge; unreachable atoms move.
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if {v, w} == {i, j}:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return set(range(len(self.mol.atoms))) - seen
