"""AD4 empirical free-energy scoring.

The intermolecular part reads the AutoGrid maps in place. A pose
evaluation is one vectorized trilinear gather over all ligand atoms —
the hot path of the Lamarckian GA: each atom reads its type's affinity
map ``A``, the electrostatic map ``E`` and the desolvation map ``D`` at
the eight corners of its cell, and each corner is combined into the
atom's two map values before the blends::

    A + |q_i| * D        (vdW/H-bond + desolvation)
    (W_estat * q_i) * E  (electrostatics, kept apart for the breakdown)

The intramolecular part is a flat pair table (1-4 and beyond) evaluated
in one expression.

The reported FEB follows AD4.2's default ``unbound_model = bound``:
intermolecular + torsional; the internal-energy *change* only steers the
search (``docking_energy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.chem.molecule import Molecule
from repro.docking import forcefield as ff
from repro.docking.autogrid import GridMaps, StackGather
from repro.docking.neighbors import bond_separation_pairs


class ScoringError(ValueError):
    """Raised for un-scoreable inputs."""


@dataclass
class AD4Terms:
    """Energy breakdown in kcal/mol."""

    vdw_hb_desolv: float
    electrostatic: float
    intramolecular: float
    torsional: float

    @property
    def intermolecular(self) -> float:
        return self.vdw_hb_desolv + self.electrostatic

    @property
    def total(self) -> float:
        """Reported FEB.

        AD4.2's default ``unbound_model = bound`` makes the internal-energy
        contribution cancel exactly in the reported free energy, so the
        estimate is intermolecular + torsional. The intramolecular delta
        still steers the search via :attr:`docking_energy`.
        """
        return self.intermolecular + self.torsional

    @property
    def docking_energy(self) -> float:
        """Search objective: includes the internal-energy change."""
        return self.intermolecular + self.intramolecular + self.torsional


def _combine_corners(
    abs_q: np.ndarray, w_q: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Corner values ``(A, E, D)`` -> ``(A + |q| D, (w q) E)``, in place.

    Per corner, the values the per-atom maps ``A + |q| D`` and
    ``(w q) E`` would hold there, rounded the same way.
    """
    affinity, elec, desolv = v
    desolv *= abs_q
    affinity += desolv
    elec *= w_q
    return v[:2]


class AD4Scorer:
    """Grid-based AD4 scorer bound to one (receptor maps, ligand) pair."""

    def __init__(self, maps: GridMaps, ligand: Molecule) -> None:
        self.maps = maps
        self.ligand = ligand
        self.types: list[str] = []
        for a in ligand.atoms:
            if a.autodock_type is None:
                raise ScoringError(
                    f"ligand atom {a.name} has no AutoDock type; run "
                    "prepare_ligand first"
                )
            if a.autodock_type not in maps.affinity:
                raise ScoringError(
                    f"grid maps lack type {a.autodock_type!r} "
                    f"(have {maps.atom_types})"
                )
            self.types.append(a.autodock_type)
        self.charges = np.array([a.charge for a in ligand.atoms])
        self.abs_charges = np.abs(self.charges)
        self.torsdof = int(ligand.metadata.get("torsdof", 0))

        # Each atom reads its type's affinity column, e and d in place.
        n = len(ligand.atoms)
        n_types = len(maps.map_types)
        column = {t: k for k, t in enumerate(maps.map_types)}
        columns = np.empty((3, n), dtype=np.intp)
        columns[0] = [column[t] for t in self.types]
        columns[1] = n_types  # electrostatic
        columns[2] = n_types + 1  # desolvation
        combine = partial(
            _combine_corners, self.abs_charges, ff.FE_COEFF_ESTAT * self.charges
        )
        self._grid = StackGather(maps.box, maps.planes, columns, combine)

        # Flat intramolecular pair tables, looked up by type index.
        pairs = self._nonbonded_pairs(ligand)
        self._pair_i = pairs[:, 0]
        self._pair_j = pairs[:, 1]
        index = ff.type_index()
        ti = np.array([index[t] for t in self.types], dtype=np.intp)
        a, b = ti[self._pair_i], ti[self._pair_j]
        cA, cB, n_exp, hbond, _ = ff.coefficient_matrices()
        self._pair_cA, self._pair_cB = cA[a, b], cB[a, b]
        self._pair_is10 = n_exp[a, b] == 10
        self._pair_w = np.where(hbond[a, b], ff.FE_COEFF_HBOND, ff.FE_COEFF_VDW)
        self._pair_req = ff.req_matrix()[a, b]
        self._pair_qq = self.charges[self._pair_i] * self.charges[self._pair_j]

        # AD4's FEB is a bound-minus-unbound difference: the unbound
        # reference internal energy (input geometry) is subtracted so the
        # intramolecular term reports only the conformational *change*.
        self._intra_reference = 0.0
        self._intra_reference = self._intra_raw(ligand.coords)

    @staticmethod
    def _nonbonded_pairs(mol: Molecule) -> np.ndarray:
        """Ligand atom pairs >= 3 bonds apart (1-4 and beyond).

        Served from the process-wide topology memo: rebuilding scorers
        per activation no longer redoes the O(n^2) BFS walk.
        """
        return bond_separation_pairs(mol, 3)

    # -- term evaluation ------------------------------------------------------
    def intermolecular(self, coords: np.ndarray) -> tuple[float, float]:
        """(vdw+hb+desolv, electrostatic) from the grids, with wall penalty."""
        coords = np.asarray(coords, dtype=np.float64)
        affinity, elec = self._grid(coords[None])[:, 0].tolist()
        wall = float(self.maps.outside_penalty(coords).sum())
        return affinity + wall, elec

    def intramolecular(self, coords: np.ndarray) -> float:
        """Internal energy change relative to the unbound input geometry."""
        return self._intra_raw(coords) - self._intra_reference

    def intramolecular_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched internal-energy change: ``(P, n_atoms, 3) -> (P,)``."""
        return self._intra_raw_batch(coords) - self._intra_reference

    def _intra_raw(self, coords: np.ndarray) -> float:
        """Softened internal energy over 1-4+ pairs (absolute)."""
        return float(self._intra_raw_batch(coords[None])[0])

    def _intra_raw_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched absolute internal energy over the flat pair table."""
        if self._pair_i.size == 0:
            return np.zeros(coords.shape[0])
        # Fancy indexing on axis 1 yields a transposed-layout array; force
        # C order so reduction order (and hence the float result) does not
        # depend on the batch size.
        diff = np.ascontiguousarray(
            coords[:, self._pair_i] - coords[:, self._pair_j]
        )
        r = np.maximum(np.sqrt((diff * diff).sum(axis=-1)), 0.01)
        # AutoGrid-style potential smoothing (see forcefield.vdw_energy).
        s = ff.SMOOTH_RADIUS
        req = self._pair_req
        r_lj = np.where(r < req - s, r + s, np.where(r > req + s, r - s, req))
        inv6 = r_lj**-6
        inv_n = np.where(self._pair_is10, inv6 * r_lj**-4, inv6)
        lj = np.minimum(
            self._pair_cA * inv6 * inv6 - self._pair_cB * inv_n, ff.EINTCLAMP
        )
        eps = ff.mehler_solmajer_dielectric(r)
        coul = np.clip(
            332.06363 * self._pair_qq / (eps * r), -ff.ESTAT_CLAMP, ff.ESTAT_CLAMP
        )
        return (lj * self._pair_w).sum(axis=1) + ff.FE_COEFF_ESTAT * coul.sum(axis=1)

    def torsional(self) -> float:
        return ff.FE_COEFF_TORS * self.torsdof

    def score(self, coords: np.ndarray) -> AD4Terms:
        """Full AD4 free-energy estimate for a set of ligand coordinates."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (len(self.ligand.atoms), 3):
            raise ScoringError(
                f"expected coords shape ({len(self.ligand.atoms)}, 3), "
                f"got {coords.shape}"
            )
        vdw, elec = self.intermolecular(coords)
        return AD4Terms(
            vdw_hb_desolv=vdw,
            electrostatic=elec,
            intramolecular=self.intramolecular(coords),
            torsional=self.torsional(),
        )

    def total(self, coords: np.ndarray) -> float:
        """Reported FEB for these coordinates."""
        return self.score(coords).total

    def docking_energy(self, coords: np.ndarray) -> float:
        """Search objective (adds the internal-energy change).

        Hot path: inlined to avoid building the term dataclass per call.
        """
        coords = np.asarray(coords, dtype=np.float64)
        affinity, elec = self._grid(coords[None])[:, 0].tolist()
        wall = float(self.maps.outside_penalty(coords).sum())
        return affinity + elec + wall + self.intramolecular(coords) + self.torsional()

    # -- batched evaluation ----------------------------------------------------
    def _coerce_batch(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.float64)
        n = len(self.ligand.atoms)
        if coords.ndim != 3 or coords.shape[1:] != (n, 3):
            raise ScoringError(
                f"expected coords batch of shape (P, {n}, 3), got {coords.shape}"
            )
        return coords

    def intermolecular_batch(
        self, coords: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched grid terms: ``(vdw+hb+desolv (P,), electrostatic (P,))``."""
        coords = self._coerce_batch(coords)
        affinity, elec = self._grid(coords)
        wall = self.maps.outside_penalty(coords).sum(axis=1)
        return affinity + wall, elec

    def docking_energy_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched search objective: ``(P, n_atoms, 3) -> (P,)`` energies.

        Evaluates a whole GA population / probe set in a handful of numpy
        calls; each pose's value matches :meth:`docking_energy` exactly.
        """
        coords = self._coerce_batch(coords)
        affinity, elec = self._grid(coords)
        wall = self.maps.outside_penalty(coords).sum(axis=1)
        return (
            affinity + elec + wall + self.intramolecular_batch(coords)
            + self.torsional()
        )

    def total_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched reported FEB: intermolecular + torsional, ``(P,)``."""
        vdw, elec = self.intermolecular_batch(coords)
        return vdw + elec + self.torsional()

    def score_batch(self, coords: np.ndarray) -> list[AD4Terms]:
        """Full term breakdown for a pose batch (one AD4Terms per pose)."""
        coords = self._coerce_batch(coords)
        vdw, elec = self.intermolecular_batch(coords)
        intra = self.intramolecular_batch(coords)
        tors = self.torsional()
        return [
            AD4Terms(
                vdw_hb_desolv=float(v),
                electrostatic=float(e),
                intramolecular=float(i),
                torsional=tors,
            )
            for v, e, i in zip(vdw, elec, intra)
        ]
