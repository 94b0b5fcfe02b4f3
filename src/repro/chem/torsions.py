"""Rotatable-bond detection and the ligand torsion tree.

``prepare_ligand4.py`` picks a root atom, detects rotatable bonds and
writes the ROOT/BRANCH hierarchy into the ligand PDBQT. The docking
engines then treat the ligand as a rigid root plus branches rotated about
their parent bonds. :class:`TorsionTree` provides exactly that pose
machinery, vectorized over atom blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.chem.geometry import quaternion_to_matrix_batch, rodrigues_batch
from repro.chem.molecule import Molecule


def _reachable(mol: Molecule, start: int, cut: tuple[int, ...] = ()) -> set[int]:
    """Atoms connected to ``start`` once bond ``cut`` is removed."""
    adj = mol.adjacency
    cut_edge = set(cut)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if {v, w} == cut_edge:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


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
        if b.j in _reachable(mol, b.i, (b.i, b.j)):
            continue  # ring bond
        rotatable.append((b.i, b.j))
    return rotatable


def _is_amide(mol: Molecule, c_idx: int, n_idx: int) -> bool:
    """C-N where the carbon also carries a double-bonded oxygen."""
    if mol.atoms[c_idx].element != "C" or mol.atoms[n_idx].element != "N":
        return False
    for b in mol.bonds:
        if b.order == 2 and c_idx in (b.i, b.j):
            other = b.other(c_idx)
            if mol.atoms[other].element == "O":
                return True
    return False


@dataclass
class Branch:
    """One rotatable bond and the atom set it moves.

    ``axis_from``/``axis_to`` are atom indices defining the rotation axis;
    ``moved`` is the array of atom indices on the distal side. Branches
    are stored in tree (pre-)order, so applying them sequentially composes
    parent-before-child rotations correctly.
    """

    axis_from: int
    axis_to: int
    moved: np.ndarray


class TorsionTree:
    """Rigid-root-plus-branches model of a flexible ligand.

    Construction picks the root as the atom that minimizes the size of the
    largest branch (AutoDockTools' "best root" heuristic), then records,
    for every rotatable bond, which atoms rotate with it.

    :meth:`pose` maps a conformation vector — translation (3), orientation
    quaternion (4), torsion angles (T) — onto fresh coordinates without
    mutating the molecule, which keeps the GA/MC loops allocation-light.
    """

    def __init__(self, mol: Molecule, rotatable: list[tuple[int, int]] | None = None):
        if len(mol.atoms) == 0:
            raise ValueError("cannot build a torsion tree over an empty molecule")
        self.mol = mol
        self.reference = mol.coords  # (N, 3) snapshot
        self.rotatable = (
            list(rotatable) if rotatable is not None else find_rotatable_bonds(mol)
        )
        self.root = self._pick_root()
        self.branches = self._build_branches()

    # -- construction --------------------------------------------------------
    def _pick_root(self) -> int:
        heavy = [i for i, a in enumerate(self.mol.atoms) if a.is_heavy]
        candidates = heavy or list(range(len(self.mol.atoms)))
        if not self.rotatable:
            return candidates[0]
        # Cutting bond (i, j) leaves the side holding i and the side
        # holding j (one and the same set for a ring bond). A candidate
        # keeps its side and sees the rest as distal; a candidate on
        # neither side lies in another fragment, which the cut leaves whole.
        cuts = []
        for i, j in self.rotatable:
            near = _reachable(self.mol, i, (i, j))
            far = near if j in near else _reachable(self.mol, j, (i, j))
            cuts.append((near, far))
        n = len(self.mol.atoms)
        best, best_cost = candidates[0], float("inf")
        for cand in candidates:
            cost = n - min(
                len(near if cand in near else far if cand in far
                    else _reachable(self.mol, cand))
                for near, far in cuts
            )
            if cost < best_cost:
                best, best_cost = cand, cost
        return best

    def _distal_set(self, i: int, j: int, root: int) -> set[int]:
        """Atoms on the far side of bond (i, j) as seen from ``root``."""
        return set(range(len(self.mol.atoms))) - _reachable(self.mol, root, (i, j))

    def _build_branches(self) -> list[Branch]:
        branches: list[Branch] = []
        for i, j in self.rotatable:
            moved = self._distal_set(i, j, self.root)
            # Orient the axis so axis_from is on the root side.
            if i in moved and j not in moved:
                i, j = j, i
            elif j in moved and i in moved:
                # Disconnected fragment oddity; skip.
                continue
            distal = np.array(sorted(moved - {i, j}), dtype=np.intp)
            if distal.size == 0:
                continue
            branches.append(Branch(axis_from=i, axis_to=j, moved=distal))
        # Pre-order: branches whose axis atoms move under another branch
        # must come after it. Sort by depth = number of branches moving
        # this branch's axis_to atom.
        def depth(br: Branch) -> int:
            return sum(
                1 for other in branches if br.axis_to in other.moved
            )

        branches.sort(key=depth)
        return branches

    # -- posing ---------------------------------------------------------------
    @cached_property
    def _plan(self) -> tuple[tuple[int, int, np.ndarray], ...]:
        """The branches flattened to ``(axis_from, axis_to, moved)`` in
        application order, with contiguous ``intp`` atom indices."""
        return tuple(
            (br.axis_from, br.axis_to, np.ascontiguousarray(br.moved, dtype=np.intp))
            for br in self.branches
        )

    @property
    def n_torsions(self) -> int:
        return len(self.branches)

    @property
    def dof(self) -> int:
        """Total degrees of freedom: 3 translation + 3 rotation + torsions."""
        return 6 + self.n_torsions

    def pose(
        self,
        translation: np.ndarray,
        quaternion: np.ndarray,
        torsions: np.ndarray,
    ) -> np.ndarray:
        """Coordinates for the given conformation vector.

        Torsions are applied innermost-last in tree order on the reference
        geometry, then the whole ligand is rotated about its root atom by
        ``quaternion`` and translated so the root lands at
        ``reference[root] + translation``.

        A batch of one: the single implementation is :meth:`pose_batch`,
        which keeps per-pose and population-at-once evaluation
        bit-for-bit identical.
        """
        torsions = np.asarray(torsions, dtype=np.float64)
        if torsions.shape != (self.n_torsions,):
            raise ValueError(
                f"expected {self.n_torsions} torsion angles, got {torsions.shape}"
            )
        return self.pose_batch(
            np.asarray(translation, dtype=np.float64)[None],
            np.asarray(quaternion, dtype=np.float64)[None],
            torsions[None],
        )[0]

    def pose_batch(
        self,
        translations: np.ndarray,
        quaternions: np.ndarray,
        torsions: np.ndarray,
    ) -> np.ndarray:
        """Coordinates for ``P`` conformations at once: ``(P, N, 3)``.

        Branch rotations are applied in tree order (as in :meth:`pose`)
        but vectorized across the pose axis, so scoring a whole GA
        population costs a handful of numpy calls instead of ``P`` Python
        round-trips. Each pose's arithmetic is identical to the scalar
        path — per-pose ``(M, 3) @ (3, 3)`` matmuls — so results match
        pose-by-pose evaluation exactly.

        The branches run from :attr:`_plan`, compiled on first use. When
        every pose of a batch turns a branch (the normal case) the whole
        batch rotates with one ``take`` and one slice assignment; only
        batches with a zero torsion or a degenerate axis on some rows
        select the turning rows first.
        """
        translations = np.asarray(translations, dtype=np.float64)
        quaternions = np.asarray(quaternions, dtype=np.float64)
        torsions = np.asarray(torsions, dtype=np.float64)
        P = translations.shape[0]
        if translations.shape != (P, 3) or quaternions.shape != (P, 4):
            raise ValueError(
                "expected (P, 3) translations and (P, 4) quaternions, got "
                f"{translations.shape} and {quaternions.shape}"
            )
        if torsions.shape != (P, self.n_torsions):
            raise ValueError(
                f"expected (P, {self.n_torsions}) torsion angles, got "
                f"{torsions.shape}"
            )
        coords = np.repeat(self.reference[None, :, :], P, axis=0)
        # One contiguous row of angles per branch: cos/sin see the same
        # contiguous input whether a branch turns all rows or some.
        angle_rows = np.ascontiguousarray(torsions.T)
        live = np.abs(angle_rows) >= 1e-12
        for (axis_from, axis_to, moved), angles, live_k in zip(
            self._plan, angle_rows, live
        ):
            origin = coords[:, axis_from]  # (P, 3)
            axis = coords[:, axis_to] - origin
            norm = np.sqrt((axis * axis).sum(axis=1))
            active = live_k & (norm >= 1e-9)
            if active.all():
                # The normal case: rotate every pose, no row selection.
                R = rodrigues_batch(axis, norm, angles)
                o = origin[:, None, :]
                coords[:, moved] = (
                    coords.take(moved, axis=1) - o
                ) @ R.transpose(0, 2, 1) + o
                continue
            if not active.any():
                continue
            # Zero torsion or degenerate axis on some rows: those poses
            # keep their coordinates untouched.
            idx = np.nonzero(active)[0]
            R = rodrigues_batch(axis[idx], norm[idx], angles[idx])
            o = origin[idx][:, None, :]
            rows = np.ix_(idx, moved)
            coords[rows] = (coords[rows] - o) @ R.transpose(0, 2, 1) + o
        root_pos = coords[:, self.root][:, None, :]  # (P, 1, 3)
        R = quaternion_to_matrix_batch(quaternions)
        coords = (coords - root_pos) @ R.transpose(0, 2, 1) + root_pos
        return coords + translations[:, None, :]

    def identity_conformation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The conformation that reproduces the reference coordinates."""
        return (
            np.zeros(3),
            np.array([1.0, 0.0, 0.0, 0.0]),
            np.zeros(self.n_torsions),
        )

    def to_pdbqt_records(self) -> list[tuple]:
        """ROOT/BRANCH record stream for :func:`write_pdbqt`.

        Atoms are emitted root-fragment first, then each branch's atoms
        after its BRANCH record, with ENDBRANCH closers — the layout AD4
        expects.
        """
        in_branch: dict[int, int] = {}
        for bi, br in enumerate(self.branches):
            for idx in br.moved.tolist():
                # innermost branch wins (later branches are deeper)
                in_branch[idx] = bi
        records: list[tuple] = [("ROOT",)]
        root_atoms = [
            i for i in range(len(self.mol.atoms)) if i not in in_branch
        ]
        for idx in root_atoms:
            records.append(("ATOM", idx))
        records.append(("ENDROOT",))
        for bi, br in enumerate(self.branches):
            records.append(("BRANCH", br.axis_from + 1, br.axis_to + 1))
            for idx in br.moved.tolist():
                if in_branch[idx] == bi:
                    records.append(("ATOM", idx))
            records.append(("ENDBRANCH", br.axis_from + 1, br.axis_to + 1))
        return records
