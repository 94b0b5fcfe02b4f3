"""AD4 empirical free-energy scoring.

The intermolecular part reads the AutoGrid maps. For speed the scorer
collapses, per ligand atom, the three relevant grids into one *per-atom
map stack*::

    M_i = affinity[type_i] + W_estat * q_i * E + |q_i| * D

so a pose evaluation is a single vectorized trilinear gather over all
ligand atoms — the hot path of the Lamarckian GA. The intramolecular
part is a flat pair table (1-4 and beyond) evaluated in one expression.

The reported FEB follows AD4.2's default ``unbound_model = bound``:
intermolecular + torsional; the internal-energy *change* only steers the
search (``docking_energy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.chem.molecule import Molecule
from repro.docking import forcefield as ff
from repro.docking.autogrid import GridMaps, StackGather
from repro.docking.neighbors import bond_separation_pairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docking.etables import EtableSet


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


class AD4Scorer:
    """Grid-based AD4 scorer bound to one (receptor maps, ligand) pair.

    ``etables`` switches the intramolecular kernel from the analytic
    12-6/12-10 + Mehler-Solmajer expressions to precomputed lookup rows
    (see :mod:`repro.docking.etables`). The analytic path is the
    bit-exact reference; table mode matches it within the documented
    tolerance and applies the nonbonded cutoff to intramolecular pairs
    (as real AD4's internal-energy tables do).
    """

    def __init__(
        self,
        maps: GridMaps,
        ligand: Molecule,
        etables: "EtableSet | None" = None,
    ) -> None:
        self.maps = maps
        self.ligand = ligand
        self._etables = etables
        #: Kernel mode label surfaced in provenance: "analytic"|"tables".
        self.kernel = "tables" if etables is not None else "analytic"
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

        # Per-atom collapsed map stacks; electrostatics separate only so
        # the term breakdown stays reportable. Both are read by one gather.
        n = len(ligand.atoms)
        stacks = np.empty((2, n, *maps.box.shape))
        for i, (t, q, aq) in enumerate(zip(self.types, self.charges, self.abs_charges)):
            stacks[0, i] = maps.affinity[t] + aq * maps.desolvation
            stacks[1, i] = ff.FE_COEFF_ESTAT * q * maps.electrostatic
        self._grid = StackGather(maps.box, stacks)

        # Flat intramolecular pair tables.
        pairs = self._nonbonded_pairs(ligand)
        self._pair_i = pairs[:, 0]
        self._pair_j = pairs[:, 1]
        cA = np.empty(len(pairs))
        cB = np.empty(len(pairs))
        is10 = np.zeros(len(pairs), dtype=bool)
        w = np.empty(len(pairs))
        req = np.empty(len(pairs))
        for k, (a, b) in enumerate(pairs):
            p = ff.pair_params(self.types[a], self.types[b])
            cA[k], cB[k] = p.cA, p.cB
            is10[k] = p.n == 10
            w[k] = ff.FE_COEFF_HBOND if p.is_hbond else ff.FE_COEFF_VDW
            req[k] = p.req
        self._pair_cA, self._pair_cB = cA, cB
        self._pair_is10, self._pair_w = is10, w
        self._pair_req = req
        self._pair_qq = self.charges[self._pair_i] * self.charges[self._pair_j]

        # Table kernel: one lookup-row index per intramolecular pair.
        if etables is not None:
            ad4t = etables.ad4
            self._pair_rows = np.array(
                [ad4t.vdw_row(self.types[a], self.types[b]) for a, b in pairs],
                dtype=np.intp,
            )

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
        if self._etables is not None:
            return self._intra_raw_batch_tables(coords)
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

    def _intra_raw_batch_tables(self, coords: np.ndarray) -> np.ndarray:
        """Table-kernel internal energy: two interpolation gathers.

        The LJ/H-bond rows carry smoothing, EINTCLAMP and the FE weight;
        the shared Coulomb factor row is multiplied by the pair charge
        product and magnitude-clamped, matching the analytic kernel.
        Both are zero beyond the table cutoff.
        """
        ad4t = self._etables.ad4
        diff = np.ascontiguousarray(
            coords[:, self._pair_i] - coords[:, self._pair_j]
        )
        r = np.sqrt((diff * diff).sum(axis=-1))
        lj = ad4t.eval_rows(self._pair_rows, r)
        coul = ad4t.eval_estat(self._pair_qq, r)
        return lj.sum(axis=1) + ff.FE_COEFF_ESTAT * coul.sum(axis=1)

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
