"""Dense-sweep map builders: the bit-parity oracle for the pruned builds.

These are the original analytic AutoGrid and Vina map loops, kept
verbatim: every ``(grid point, receptor atom)`` distance is computed
from a ``(P points x C atoms x 3)`` broadcast and the in-cutoff pairs are
accumulated per ``(type group, chunk_atoms)`` block with ``np.bincount``.
The production builders must reproduce these maps bit for bit. Only the
packaging follows the production one: the finished maps are stacked
into the ``(points, K)`` planes array the map bundles carry.
"""

from __future__ import annotations

import time

import numpy as np

from repro.chem.molecule import Molecule
from repro.docking import forcefield as ff
from repro.docking.autogrid import AutoGrid, GridMaps
from repro.docking.box import GridBox
from repro.docking.scoring_vina import (
    STANDARD_CLASSES,
    W_GAUSS1,
    W_GAUSS2,
    W_HBOND,
    W_HYDROPHOBIC,
    W_REPULSION,
    CUTOFF,
    VinaAtomClass,
    VinaMaps,
    _type_vectors,
)


def dense_pairwise_terms(
    d: np.ndarray,
    hydro_pair: np.ndarray,
    hbond_pair: np.ndarray,
) -> np.ndarray:
    """Weighted Vina energy per pair given surface distances ``d``."""
    g1 = np.exp(-((d / 0.5) ** 2))
    g2 = np.exp(-(((d - 3.0) / 2.0) ** 2))
    rep = np.where(d < 0.0, d * d, 0.0)
    hyd = np.clip(1.5 - d, 0.0, 1.0) * hydro_pair
    hb = np.clip(-d / 0.7, 0.0, 1.0) * hbond_pair
    return (
        W_GAUSS1 * g1
        + W_GAUSS2 * g2
        + W_REPULSION * rep
        + W_HYDROPHOBIC * hyd
        + W_HBOND * hb
    )


class DenseAutoGrid(AutoGrid):
    """:class:`AutoGrid` whose analytic build is the full dense sweep."""

    def run(
        self,
        receptor: Molecule,
        box: GridBox,
        ligand_types: tuple[str, ...] | list[str],
    ) -> GridMaps:
        started = time.perf_counter()
        points = box.points()  # (P, 3)
        P = points.shape[0]
        rec_coords, rec_types, rec_charges = self._relevant_atoms(receptor, box)
        N = rec_coords.shape[0]

        affinity = {t: np.zeros(P) for t in dict.fromkeys(ligand_types)}
        electro = np.zeros(P)
        desolv = np.zeros(P)

        # Group receptor atoms by AutoDock type: pair parameters are then
        # constant per (ligand type, group), so the whole group broadcasts
        # in one vector expression.
        by_type: dict[str, np.ndarray] = {}
        rec_types_arr = np.array(rec_types)
        for rt in dict.fromkeys(rec_types):
            by_type[rt] = np.nonzero(rec_types_arr == rt)[0]

        for rt, group_idx in by_type.items():
            rt_vol = ff.AUTODOCK_TYPES[rt].vol
            for start in range(0, len(group_idx), self.chunk_atoms):
                sel = group_idx[start : start + self.chunk_atoms]
                chunk = rec_coords[sel]  # (C, 3)
                qchunk = rec_charges[sel]
                diff = points[:, None, :] - chunk[None, :, :]
                r2 = np.einsum("pcx,pcx->pc", diff, diff)
                # Sparsify: most grid-point/atom pairs exceed the cutoff,
                # so gather the within-cutoff pairs once and accumulate
                # with bincount instead of dense where-sums.
                pi, ci = np.nonzero(r2 <= self.cutoff**2)
                if pi.size == 0:
                    continue
                rv = np.maximum(np.sqrt(r2[pi, ci]), 0.01)
                qv = qchunk[ci]
                # Electrostatic map: potential per unit probe charge,
                # per-pair clamped like the pairwise Coulomb kernel.
                eps = ff.mehler_solmajer_dielectric(rv)
                e_pair = np.clip(
                    332.06363 * qv / (eps * rv),
                    -ff.ESTAT_CLAMP,
                    ff.ESTAT_CLAMP,
                )
                electro += np.bincount(pi, weights=e_pair, minlength=P)
                # Desolvation envelope weighted by receptor atom volume;
                # the scorer multiplies by |q_ligand|, so the charge-based
                # solvation parameter and the FE weight live in the map.
                envelope = np.exp(-(rv**2) / (2.0 * ff.DESOLV_SIGMA**2))
                desolv += np.bincount(
                    pi,
                    weights=ff.FE_COEFF_DESOLV * envelope * rt_vol * 0.01097,
                    minlength=P,
                )
                # Per-ligand-type affinity maps (vdW/H-bond + pair desolv).
                for lt, grid in affinity.items():
                    p = ff.pair_params(lt, rt)
                    weight = ff.FE_COEFF_HBOND if p.is_hbond else ff.FE_COEFF_VDW
                    e = ff.vdw_energy(rv, p) * weight
                    e += ff.FE_COEFF_DESOLV * ff.desolvation_energy(
                        rv, lt, rt, 0.0, qv
                    )
                    grid += np.bincount(pi, weights=e, minlength=P)

        planes = np.stack([*affinity.values(), electro, desolv], axis=1)
        return self._package(box, receptor, tuple(affinity), planes, N, started)


def dense_build_vina_maps(
    receptor: Molecule,
    box: GridBox,
    classes: tuple[VinaAtomClass, ...] = STANDARD_CLASSES,
    chunk_atoms: int = 256,
) -> VinaMaps:
    """Analytic per-class Vina grids from the full dense sweep."""
    points = box.points()
    P = points.shape[0]
    rad, hyd, don, acc = _type_vectors(receptor)
    rec_coords = receptor.coords
    cutoff = CUTOFF
    lo = box.minimum - cutoff
    hi = box.maximum + cutoff
    keep = np.all((rec_coords >= lo) & (rec_coords <= hi), axis=1)
    rec_coords = rec_coords[keep]
    rad, hyd, don, acc = rad[keep], hyd[keep], don[keep], acc[keep]
    grids = {cls: np.zeros(P) for cls in classes}
    for start in range(0, rec_coords.shape[0], chunk_atoms):
        stop = start + chunk_atoms
        chunk = rec_coords[start:stop]
        diff = points[:, None, :] - chunk[None, :, :]
        r2 = np.einsum("pcx,pcx->pc", diff, diff)
        pi, ci = np.nonzero(r2 <= CUTOFF**2)
        if pi.size == 0:
            continue
        rv = np.sqrt(r2[pi, ci])
        rad_c = rad[start:stop][ci]
        hyd_c = hyd[start:stop][ci]
        don_c = don[start:stop][ci]
        acc_c = acc[start:stop][ci]
        for cls, grid in grids.items():
            d = rv - cls.radius - rad_c
            hydro_pair = cls.hydrophobic & hyd_c
            hbond_pair = (cls.donor & acc_c) | (cls.acceptor & don_c)
            e = dense_pairwise_terms(d, hydro_pair, hbond_pair)
            grid += np.bincount(pi, weights=e, minlength=P)
    return VinaMaps(
        box=box,
        planes=np.stack(list(grids.values()), axis=1),
        classes=tuple(grids),
        receptor_name=receptor.name,
    )
