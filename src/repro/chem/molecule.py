"""Molecule container: atoms, bonds, and topology queries.

A :class:`Molecule` represents either a receptor (protein) or a ligand
(small molecule). Bond perception is distance-based when a format (PDB)
does not carry explicit bonds; SDF/MOL2 supply explicit bond blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.chem.atom import Atom
from repro.chem.elements import COVALENT_RADII

# Tolerance added to the sum of covalent radii during distance-based bond
# perception; the conventional value used by Open Babel is ~0.45 A.
BOND_TOLERANCE = 0.45

#: Rows of the pairwise distance test evaluated together in
#: :meth:`Molecule.perceive_bonds`: ~1.7 MB of differences for a
#: 1,100-atom receptor. 16-256 rows measured about equally fast.
BOND_ROWS_PER_BLOCK = 64


@dataclass(frozen=True)
class Bond:
    """An undirected bond between two atom indices (0-based)."""

    i: int
    j: int
    order: int = 1
    aromatic: bool = False

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("bond endpoints must differ")
        if self.i > self.j:
            # Canonical ordering so Bond(2, 1) == Bond(1, 2).
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)

    def other(self, idx: int) -> int:
        if idx == self.i:
            return self.j
        if idx == self.j:
            return self.i
        raise ValueError(f"atom {idx} not part of bond ({self.i}, {self.j})")


def _canonical_bond(i: int, j: int, order: int = 1, aromatic: bool = False) -> Bond:
    if i > j:
        i, j = j, i
    return Bond(i, j, order, aromatic)


class Molecule:
    """An ordered collection of atoms with an optional bond graph.

    The class is intentionally lightweight: heavy numeric work (scoring,
    grid generation) pulls out the coordinate matrix once via
    :attr:`coords` and operates on numpy arrays, per the vectorization
    guidance for HPC Python.
    """

    def __init__(
        self,
        name: str = "",
        atoms: Iterable[Atom] | None = None,
        bonds: Iterable[Bond] | None = None,
    ) -> None:
        self.name = name
        self.atoms: list[Atom] = list(atoms or [])
        self.bonds: list[Bond] = []
        self._adjacency: dict[int, set[int]] | None = None
        for b in bonds or []:
            self.add_bond(b.i, b.j, b.order, b.aromatic)
        self.metadata: dict = {}

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __getitem__(self, idx: int) -> Atom:
        return self.atoms[idx]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Molecule({self.name!r}, {len(self.atoms)} atoms, {len(self.bonds)} bonds)"

    # -- construction --------------------------------------------------------
    def add_atom(self, atom: Atom) -> int:
        """Append an atom; returns its 0-based index."""
        self.atoms.append(atom)
        self._adjacency = None
        return len(self.atoms) - 1

    def add_bond(
        self, i: int, j: int, order: int = 1, aromatic: bool = False
    ) -> Bond:
        n = len(self.atoms)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"bond ({i}, {j}) out of range for {n} atoms")
        bond = _canonical_bond(i, j, order, aromatic)
        self.bonds.append(bond)
        self._adjacency = None
        return bond

    # -- geometry ------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """(N, 3) float64 coordinate matrix (a copy)."""
        if not self.atoms:
            return np.zeros((0, 3))
        return np.array([a.coords for a in self.atoms], dtype=np.float64)

    def set_coords(self, coords: np.ndarray) -> None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (len(self.atoms), 3):
            raise ValueError(
                f"expected coords of shape ({len(self.atoms)}, 3), got {coords.shape}"
            )
        for atom, xyz in zip(self.atoms, coords):
            atom.coords = xyz.copy()

    def centroid(self) -> np.ndarray:
        if not self.atoms:
            raise ValueError("empty molecule has no centroid")
        return self.coords.mean(axis=0)

    def translate(self, delta: np.ndarray) -> None:
        delta = np.asarray(delta, dtype=np.float64)
        for atom in self.atoms:
            atom.coords = atom.coords + delta

    def bounding_box(self, padding: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned (min, max) corners, optionally padded."""
        c = self.coords
        if c.size == 0:
            raise ValueError("empty molecule has no bounding box")
        return c.min(axis=0) - padding, c.max(axis=0) + padding

    def radius_of_gyration(self) -> float:
        c = self.coords
        center = c.mean(axis=0)
        return float(np.sqrt(((c - center) ** 2).sum(axis=1).mean()))

    # -- composition ---------------------------------------------------------
    @property
    def elements(self) -> list[str]:
        return [a.element for a in self.atoms]

    @property
    def formula(self) -> str:
        """Hill-system molecular formula (C first, H second, then others)."""
        counts: dict[str, int] = {}
        for a in self.atoms:
            counts[a.element.capitalize()] = counts.get(a.element.capitalize(), 0) + 1
        parts: list[str] = []
        for el in ("C", "H"):
            if el in counts:
                n = counts.pop(el)
                parts.append(el if n == 1 else f"{el}{n}")
        for el in sorted(counts):
            n = counts[el]
            parts.append(el if n == 1 else f"{el}{n}")
        return "".join(parts)

    @property
    def molecular_weight(self) -> float:
        return float(sum(a.mass for a in self.atoms))

    def heavy_atoms(self) -> list[int]:
        return [i for i, a in enumerate(self.atoms) if a.is_heavy]

    def contains_element(self, symbol: str) -> bool:
        symbol = symbol.strip().upper()
        return any(a.element == symbol for a in self.atoms)

    def residues(self) -> dict[tuple[str, int], list[int]]:
        """Group atom indices by (chain, residue_seq)."""
        out: dict[tuple[str, int], list[int]] = {}
        for i, a in enumerate(self.atoms):
            out.setdefault((a.chain_id, a.residue_seq), []).append(i)
        return out

    # -- topology ------------------------------------------------------------
    @property
    def adjacency(self) -> dict[int, set[int]]:
        if self._adjacency is None:
            adj: dict[int, set[int]] = {i: set() for i in range(len(self.atoms))}
            for b in self.bonds:
                adj[b.i].add(b.j)
                adj[b.j].add(b.i)
            self._adjacency = adj
        return self._adjacency

    def neighbors(self, idx: int) -> set[int]:
        return self.adjacency[idx]

    def degree(self, idx: int) -> int:
        return len(self.adjacency[idx])

    def has_bond(self, i: int, j: int) -> bool:
        return j in self.adjacency.get(i, set())

    def perceive_bonds(self, tolerance: float = BOND_TOLERANCE) -> int:
        """Distance-based bond perception (Open Babel style).

        Two atoms are bonded when their distance is below the sum of
        covalent radii plus ``tolerance``. Existing bonds are kept; the
        number of *new* bonds is returned, appended in row-major
        ``(i, j)`` order. The distance test runs on blocks of
        ``BOND_ROWS_PER_BLOCK`` rows of the upper triangle, so the
        working set stays a few MiB instead of an ``(n, n, 3)`` tensor;
        every pair's squared distance and cutoff are the same ``einsum``
        and arithmetic as on the dense matrix.
        """
        n = len(self.atoms)
        if n < 2:
            return 0
        coords = self.coords
        radii = np.array(
            [COVALENT_RADII[a.element] for a in self.atoms], dtype=np.float64
        )
        added = 0
        existing = {(b.i, b.j) for b in self.bonds}
        for i0 in range(0, n - 1, BOND_ROWS_PER_BLOCK):
            i1 = min(i0 + BOND_ROWS_PER_BLOCK, n - 1)
            # Rows i0..i1-1 against columns i0..n-1; triu drops j <= i.
            diff = coords[i0:i1, None, :] - coords[None, i0:, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            cutoff = (radii[i0:i1, None] + radii[None, i0:] + tolerance) ** 2
            mask = (d2 < cutoff) & (d2 > 0.16)  # >0.4 A: reject overlapping atoms
            ii, jj = np.nonzero(np.triu(mask, k=1))
            for i, j in zip((ii + i0).tolist(), (jj + i0).tolist()):
                if (i, j) not in existing:
                    self.bonds.append(_canonical_bond(i, j))
                    added += 1
        if added:
            self._adjacency = None
        return added

    def connected_components(self) -> list[list[int]]:
        """Connected components of the bond graph (list of atom indices)."""
        seen: set[int] = set()
        comps: list[list[int]] = []
        adj = self.adjacency
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def copy(self) -> "Molecule":
        m = Molecule(self.name, (a.copy() for a in self.atoms), self.bonds)
        m.metadata = dict(self.metadata)
        return m

    # -- convenience ---------------------------------------------------------
    def renumber(self) -> None:
        """Reassign 1-based serials in storage order."""
        for i, a in enumerate(self.atoms, start=1):
            a.serial = i


@dataclass
class ResidueTemplate:
    """Geometry-free description of one residue used by the generator."""

    name: str
    atom_names: list[str]
    elements: list[str]
    bonds: list[tuple[int, int]] = field(default_factory=list)
