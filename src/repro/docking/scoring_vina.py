"""AutoDock Vina scoring function.

Vina scores a pose either by the exact pairwise sum over the receptor
neighborhood pre-pruned to the box, or by a trilinear gather from
per-probe-class grids (:func:`build_vina_maps`, Vina's grid cache). The
grid build streams the in-cutoff ``(grid point, receptor atom)`` pairs
a few atoms at a time and is bit-identical to a dense
``(points x atoms)`` sweep. Terms operate on the *surface distance*
``d = r - R_i - R_j`` where R are Vina atom radii:

* gauss1:      exp(-(d / 0.5)^2)
* gauss2:      exp(-((d - 3) / 2)^2)
* repulsion:   d^2 if d < 0 else 0
* hydrophobic: 1 if d < 0.5, 0 if d > 1.5, linear ramp between
               (both atoms hydrophobic)
* hbond:       1 if d < -0.7, 0 if d > 0, linear ramp between
               (donor-acceptor pairs)

The inter-molecular sum is divided by ``1 + w_rot * N_rot`` — Vina's
conformational-entropy normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chem.elements import AUTODOCK_TYPES
from repro.chem.molecule import Molecule
from repro.docking.autogrid import MAP_LAYOUT, StackGather, check_layout
from repro.docking.box import GridBox
from repro.docking.neighbors import bond_separation_pairs, lattice_blocks

#: Vina weights (Trott & Olson 2010, Table 1).
W_GAUSS1 = -0.035579
W_GAUSS2 = -0.005156
W_REPULSION = 0.840245
W_HYDROPHOBIC = -0.035069
W_HBOND = -0.587439
W_ROT = 0.05846

#: Pairwise interaction cutoff (Angstrom).
CUTOFF = 8.0

#: Vina's per-type radii (xs radii); fall back to half of AD4 Rii.
_XS_RADII = {
    "C": 1.9,
    "A": 1.9,
    "N": 1.8,
    "NA": 1.8,
    "NS": 1.8,
    "O": 1.7,
    "OA": 1.7,
    "OS": 1.7,
    "S": 2.0,
    "SA": 2.0,
    "P": 2.1,
    "F": 1.5,
    "Cl": 1.8,
    "Br": 2.0,
    "I": 2.2,
    "H": 0.0,
    "HD": 0.0,
    "HS": 0.0,
}


class VinaScoringError(ValueError):
    """Raised for un-scoreable inputs."""


def xs_radius(adtype: str) -> float:
    r = _XS_RADII.get(adtype)
    if r is not None:
        return r
    try:
        return AUTODOCK_TYPES[adtype].rii / 2.0
    except KeyError:
        raise VinaScoringError(f"unknown AutoDock type {adtype!r}") from None


def _type_vectors(mol: Molecule) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(radii, hydrophobic, donor, acceptor) arrays for a typed molecule."""
    radii = np.empty(len(mol.atoms))
    hydro = np.zeros(len(mol.atoms), dtype=bool)
    donor = np.zeros(len(mol.atoms), dtype=bool)
    acceptor = np.zeros(len(mol.atoms), dtype=bool)
    for k, a in enumerate(mol.atoms):
        t = a.autodock_type
        if t is None:
            raise VinaScoringError(
                f"atom {a.name} has no AutoDock type; run prepare first"
            )
        radii[k] = xs_radius(t)
        info = AUTODOCK_TYPES.get(t)
        if info is not None:
            hydro[k] = info.is_hydrophobic
            donor[k] = info.is_donor
            acceptor[k] = info.is_acceptor
    return radii, hydro, donor, acceptor


def base_terms(d: np.ndarray) -> np.ndarray:
    """Weighted gauss1 + gauss2 + repulsion: the radius-dependent terms.

    A function of the surface distance alone, so every probe class with
    the same xs radius shares it.
    """
    g1 = np.exp(-((d / 0.5) ** 2))
    g2 = np.exp(-(((d - 3.0) / 2.0) ** 2))
    rep = np.where(d < 0.0, d * d, 0.0)
    return W_GAUSS1 * g1 + W_GAUSS2 * g2 + W_REPULSION * rep


def add_ramp_terms(
    base: np.ndarray,
    d: np.ndarray,
    hydro_pair: np.ndarray,
    hbond_pair: np.ndarray,
) -> np.ndarray:
    """``base`` plus the weighted hydrophobic and H-bond ramps."""
    hyd = np.clip(1.5 - d, 0.0, 1.0) * hydro_pair
    hb = np.clip(-d / 0.7, 0.0, 1.0) * hbond_pair
    return base + W_HYDROPHOBIC * hyd + W_HBOND * hb


def pairwise_terms(
    d: np.ndarray,
    hydro_pair: np.ndarray,
    hbond_pair: np.ndarray,
) -> np.ndarray:
    """Weighted Vina energy per pair given surface distances ``d``."""
    return add_ramp_terms(base_terms(d), d, hydro_pair, hbond_pair)


@dataclass(frozen=True)
class VinaAtomClass:
    """Everything the Vina terms need to know about a ligand atom."""

    radius: float
    hydrophobic: bool
    donor: bool
    acceptor: bool


def atom_class_for(adtype: str) -> VinaAtomClass:
    """Interaction class of one AutoDock type under the Vina terms."""
    info = AUTODOCK_TYPES.get(adtype)
    return VinaAtomClass(
        radius=round(xs_radius(adtype), 3),
        hydrophobic=bool(info and info.is_hydrophobic),
        donor=bool(info and info.is_donor),
        acceptor=bool(info and info.is_acceptor),
    )


#: Classes covering every organic ligand our generator emits; used to
#: precompute receptor maps once and reuse them across all 42 ligands.
STANDARD_CLASSES: tuple[VinaAtomClass, ...] = tuple(
    dict.fromkeys(
        atom_class_for(t)
        for t in ("C", "A", "N", "NA", "OA", "SA", "S", "HD", "H", "F", "Cl", "Br", "I", "P")
    )
)


#: Scoring-function fingerprint for content-addressed map caches: any
#: change to the weights or cutoff must invalidate persisted Vina maps.
VINA_FF_VERSION = (
    f"vina-1.1.2/g1={W_GAUSS1}/g2={W_GAUSS2}/rep={W_REPULSION}"
    f"/hyd={W_HYDROPHOBIC}/hb={W_HBOND}/rot={W_ROT}/cut={CUTOFF}"
)


@dataclass
class VinaMaps:
    """Precomputed Vina interaction grids (Vina's internal grid cache).

    ``planes`` is the one ``(points, K)`` array (see
    :data:`~repro.docking.autogrid.MAP_LAYOUT`) whose column ``k`` holds,
    at each box point, the summed weighted Vina terms between a probe
    atom of ``classes[k]`` and every receptor atom — so pose evaluation
    becomes a trilinear gather exactly like AD4's. ``grids[cls]`` is
    that column as a ``box.shape`` view.
    """

    box: GridBox
    planes: np.ndarray
    classes: tuple[VinaAtomClass, ...]
    receptor_name: str = ""
    grids: dict[VinaAtomClass, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.classes = tuple(self.classes)
        expected = (int(np.prod(self.box.shape)), len(self.classes))
        if self.planes.shape != expected:
            raise VinaScoringError(
                f"expected planes of shape {expected}, got {self.planes.shape}"
            )
        grids = self.planes.reshape(*self.box.shape, len(self.classes))
        self.grids = {cls: grids[..., k] for k, cls in enumerate(self.classes)}


def vina_maps_to_arrays(maps: VinaMaps) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten a :class:`VinaMaps` into a (meta, named-arrays) bundle."""
    meta = {
        "layout": MAP_LAYOUT,
        "box": maps.box.to_dict(),
        "receptor_name": maps.receptor_name,
        "classes": [
            {
                "radius": cls.radius,
                "hydrophobic": cls.hydrophobic,
                "donor": cls.donor,
                "acceptor": cls.acceptor,
            }
            for cls in maps.classes
        ],
    }
    return meta, {"planes": maps.planes}


def vina_maps_from_arrays(meta: dict, arrays: dict[str, np.ndarray]) -> VinaMaps:
    """Rebuild a :class:`VinaMaps` from a plane bundle (the array kept as-is)."""
    check_layout(meta)
    classes = tuple(
        VinaAtomClass(
            radius=float(doc["radius"]),
            hydrophobic=bool(doc["hydrophobic"]),
            donor=bool(doc["donor"]),
            acceptor=bool(doc["acceptor"]),
        )
        for doc in meta["classes"]
    )
    return VinaMaps(
        box=GridBox.from_dict(meta["box"]),
        planes=arrays["planes"],
        classes=classes,
        receptor_name=meta.get("receptor_name", ""),
    )


def build_vina_maps(
    receptor: Molecule,
    box: GridBox,
    classes: tuple[VinaAtomClass, ...] = STANDARD_CLASSES,
    chunk_atoms: int = 256,
) -> VinaMaps:
    """Build per-class Vina grids over ``box`` (amortized per receptor).

    The build streams the in-cutoff pairs a few atoms at a time with
    :func:`~repro.docking.neighbors.lattice_blocks`, evaluates the exact
    Vina terms on each block and adds them with ``np.add.at`` into
    per-chunk accumulators, which are then added to the grids. The
    per-point add order is that of one ``np.bincount`` per
    ``chunk_atoms`` chunk, so the grids are bit-identical to a dense
    ``(points x atoms)`` sweep.
    """
    P = int(np.prod(box.shape))
    rad, hyd, don, acc = _type_vectors(receptor)
    rec_coords = receptor.coords
    lo = box.minimum - CUTOFF
    hi = box.maximum + CUTOFF
    keep = np.all((rec_coords >= lo) & (rec_coords <= hi), axis=1)
    rec_coords = rec_coords[keep]
    rad, hyd, don, acc = rad[keep], hyd[keep], don[keep], acc[keep]
    classes = tuple(dict.fromkeys(classes))
    column = {cls: k for k, cls in enumerate(classes)}
    planes = np.zeros((P, len(classes)))
    # Classes of one xs radius share d and the gauss/repulsion base;
    # a class without ramp flags would only add -0.0 ramps to it.
    by_radius: dict[float, list[VinaAtomClass]] = {}
    for cls in classes:
        by_radius.setdefault(cls.radius, []).append(cls)
    for start in range(0, rec_coords.shape[0], chunk_atoms):
        stop = start + chunk_atoms
        # Per-chunk sums, one row per class, added to in stream
        # (ascending atom) order and then to the grids: the association
        # of the dense oracle's one bincount per chunk.
        chunk = np.zeros((len(classes), P))
        # In-cutoff (point, atom) pairs only, one cache-sized block at a
        # time, every term evaluated on the block.
        for pi, ci, rv in lattice_blocks(box, rec_coords[start:stop], CUTOFF):
            rad_c = rad[start:stop][ci]
            hyd_c = hyd[start:stop][ci]
            don_c = don[start:stop][ci]
            acc_c = acc[start:stop][ci]
            for radius, members in by_radius.items():
                d = rv - radius - rad_c
                base = base_terms(d)
                for cls in members:
                    e = base
                    if cls.hydrophobic or cls.donor or cls.acceptor:
                        hydro_pair = cls.hydrophobic & hyd_c
                        hbond_pair = (cls.donor & acc_c) | (cls.acceptor & don_c)
                        e = add_ramp_terms(base, d, hydro_pair, hbond_pair)
                    np.add.at(chunk[column[cls]], pi, e)
        # A chunk without pairs adds +0.0, which changes no sum that
        # started at +0.0.
        planes += chunk.T
    return VinaMaps(
        box=box, planes=planes, classes=classes, receptor_name=receptor.name
    )


class VinaScorer:
    """Vina scorer bound to one (receptor, ligand, box) triple.

    When ``maps`` (a :class:`VinaMaps` cache) is supplied, intermolecular
    evaluation is a per-atom trilinear gather read in place from the
    maps, and the receptor is not consulted; otherwise the exact
    pairwise sum over the pre-pruned receptor neighborhood is used.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        box: GridBox,
        maps: VinaMaps | None = None,
    ) -> None:
        self.box = box
        self.ligand = ligand
        (
            self.lig_radii,
            self.lig_hydro,
            self.lig_donor,
            self.lig_acceptor,
        ) = _type_vectors(ligand)
        self.n_rot = int(ligand.metadata.get("torsdof", 0))
        self._entropy_norm = 1.0 + W_ROT * self.n_rot
        self._intra_pairs = self._intra_pair_table(ligand)
        ii, jj = self._intra_pairs[:, 0], self._intra_pairs[:, 1]
        self._intra_hydro = self.lig_hydro[ii] & self.lig_hydro[jj]
        self._intra_hbond = (self.lig_donor[ii] & self.lig_acceptor[jj]) | (
            self.lig_acceptor[ii] & self.lig_donor[jj]
        )
        self._intra_rsum = self.lig_radii[ii] + self.lig_radii[jj]
        self._grid: StackGather | None = None
        if maps is not None:
            self._grid = self._map_gather(maps)
            return
        rec_coords = receptor.coords
        rad, hyd, don, acc = _type_vectors(receptor)
        lo = box.minimum - CUTOFF
        hi = box.maximum + CUTOFF
        keep = np.all((rec_coords >= lo) & (rec_coords <= hi), axis=1)
        #: Original receptor indices of the pruned rows (used by the
        #: flexible-receptor extension to update side-chain coordinates).
        self.rec_index = np.nonzero(keep)[0]
        self.rec_coords = rec_coords[keep]
        self.rec_radii = rad[keep]
        self.rec_hydro = hyd[keep]
        self.rec_donor = don[keep]
        self.rec_acceptor = acc[keep]
        # Pair masks and radius sums of the pairwise sum (hot-path
        # constants, ligand x receptor).
        self._inter_hydro = self.lig_hydro[:, None] & self.rec_hydro[None, :]
        self._inter_hbond = (
            self.lig_donor[:, None] & self.rec_acceptor[None, :]
        ) | (self.lig_acceptor[:, None] & self.rec_donor[None, :])
        self._inter_rsum = self.lig_radii[:, None] + self.rec_radii[None, :]

    def _map_gather(self, maps: VinaMaps) -> StackGather:
        """The grid term: each atom reads its class's column in place."""
        box = self.box
        if maps.box is not box and not (
            np.allclose(maps.box.center, box.center)
            and maps.box.npts == box.npts
            and maps.box.spacing == box.spacing
        ):
            raise VinaScoringError("VinaMaps box does not match the docking box")
        column = {cls: k for k, cls in enumerate(maps.classes)}
        columns = []
        for a in self.ligand.atoms:
            cls = atom_class_for(a.autodock_type)
            if cls not in column:
                raise VinaScoringError(
                    f"VinaMaps missing class {cls} for atom {a.name}"
                )
            columns.append(column[cls])
        return StackGather(box, maps.planes, [columns])

    @staticmethod
    def _intra_pair_table(mol: Molecule) -> np.ndarray:
        """Ligand pairs separated by >= 4 bonds (Vina's 1-4 exclusion).

        Memoized per molecular topology — see
        :func:`repro.docking.neighbors.bond_separation_pairs`.
        """
        return bond_separation_pairs(mol, 4)

    # -- scoring ---------------------------------------------------------------
    def _coerce_batch(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.float64)
        n = len(self.ligand.atoms)
        if coords.ndim != 3 or coords.shape[1:] != (n, 3):
            raise VinaScoringError(
                f"expected coords batch of shape (P, {n}, 3), got {coords.shape}"
            )
        return coords

    def intermolecular(self, coords: np.ndarray) -> float:
        """Ligand-receptor energy (pre-normalization).

        A batch of one: the single implementation is
        :meth:`intermolecular_batch`, keeping per-pose and population
        evaluation bit-for-bit identical.
        """
        coords = np.asarray(coords, dtype=np.float64)
        return float(self.intermolecular_batch(coords[None])[0])

    def intermolecular_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched ligand-receptor energy: ``(P, n_atoms, 3) -> (P,)``.

        With a :class:`VinaMaps` cache this is one trilinear gather over
        the whole pose batch. The exact pairwise fallback is chunked over
        poses so the ``(chunk, L, R)`` distance tensor stays within a
        bounded working set.
        """
        coords = self._coerce_batch(coords)
        if self._grid is not None:
            return self._grid(coords)[0]
        P = coords.shape[0]
        R = self.rec_coords.shape[0]
        if R == 0:
            return np.zeros(P)
        out = np.empty(P)
        L = coords.shape[1]
        chunk = max(1, 2_000_000 // max(1, L * R))
        for start in range(0, P, chunk):
            block = coords[start : start + chunk]
            diff = block[:, :, None, :] - self.rec_coords[None, None, :, :]
            r = np.sqrt((diff * diff).sum(axis=-1))
            within = r <= CUTOFF
            d = r - self._inter_rsum
            e = pairwise_terms(d, self._inter_hydro, self._inter_hbond)
            out[start : start + chunk] = np.where(within, e, 0.0).sum(axis=(1, 2))
        return out

    def intramolecular(self, coords: np.ndarray) -> float:
        coords = np.asarray(coords, dtype=np.float64)
        return float(self.intramolecular_batch(coords[None])[0])

    def intramolecular_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched ligand internal energy: ``(P, n_atoms, 3) -> (P,)``."""
        coords = self._coerce_batch(coords)
        if self._intra_pairs.size == 0:
            return np.zeros(coords.shape[0])
        ii, jj = self._intra_pairs[:, 0], self._intra_pairs[:, 1]
        # C order keeps reduction order independent of the batch size (the
        # axis-1 fancy index yields a transposed-layout array).
        diff = np.ascontiguousarray(coords[:, ii] - coords[:, jj])
        r = np.sqrt((diff * diff).sum(axis=-1))
        d = r - self._intra_rsum
        e = pairwise_terms(d, self._intra_hydro, self._intra_hbond)
        return np.where(r <= CUTOFF, e, 0.0).sum(axis=1)

    def outside_penalty(self, coords: np.ndarray) -> float:
        coords = np.atleast_2d(coords)
        return float(self.outside_penalty_batch(coords[None])[0])

    def outside_penalty_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched box-wall penalty: ``(P, n_atoms, 3) -> (P,)``."""
        lo, hi = self.box.minimum, self.box.maximum
        under = np.clip(lo - coords, 0.0, None)
        over = np.clip(coords - hi, 0.0, None)
        return 10.0 * (
            (under**2).sum(axis=(1, 2)) + (over**2).sum(axis=(1, 2))
        )

    def total(self, coords: np.ndarray) -> float:
        """Vina's reported binding affinity estimate (kcal/mol)."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (len(self.ligand.atoms), 3):
            raise VinaScoringError(
                f"expected coords shape ({len(self.ligand.atoms)}, 3), "
                f"got {coords.shape}"
            )
        inter = self.intermolecular(coords)
        penalty = self.outside_penalty(coords)
        # Vina reports inter / (1 + w N_rot); intra only steers the search.
        return (inter + penalty) / self._entropy_norm

    def total_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched reported affinity: ``(P, n_atoms, 3) -> (P,)``."""
        coords = self._coerce_batch(coords)
        inter = self.intermolecular_batch(coords)
        penalty = self.outside_penalty_batch(coords)
        return (inter + penalty) / self._entropy_norm

    def score_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched scoring entry point (alias of :meth:`total_batch`).

        Mirrors ``AD4Scorer.score_batch``: one reported affinity per pose,
        bit-identical to calling :meth:`total` pose by pose.
        """
        return self.total_batch(coords)

    def search_energy(self, coords: np.ndarray) -> float:
        """Objective used during optimization (adds intramolecular)."""
        return self.total(coords) + self.intramolecular(coords)

    def search_energy_batch(self, coords: np.ndarray) -> np.ndarray:
        """Batched search objective: ``(P, n_atoms, 3) -> (P,)``.

        Per-pose values match :meth:`search_energy` exactly (the scalar
        path is a batch of one).
        """
        coords = self._coerce_batch(coords)
        return self.total_batch(coords) + self.intramolecular_batch(coords)
