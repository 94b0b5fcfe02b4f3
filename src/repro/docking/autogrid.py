"""AutoGrid: precomputed affinity maps over the docking box.

For every ligand atom type AutoGrid tabulates, at each grid point, the
interaction energy with the whole (rigid) receptor; docking then scores a
pose by trilinear interpolation instead of summing receptor pairs. This
module reproduces that pipeline: one map per requested atom type, plus the
electrostatic and desolvation maps, the ``.fld`` grid-field metadata and
the ``.glg`` log.

The analytic build only visits the ``(grid point, receptor atom)``
pairs within the cutoff (:func:`~repro.docking.neighbors.lattice_pairs`)
and accumulates them per ``(receptor type, atom chunk)`` block with
``np.bincount``; the maps are bit-identical to a dense
``(P points x N atoms)`` sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from repro.chem.molecule import Molecule
from repro.docking.box import GridBox
from repro.docking import forcefield as ff
from repro.docking.neighbors import CellList, lattice_pairs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docking.etables import EtableSet


class GridError(ValueError):
    """Raised for invalid grid-generation requests."""


@dataclass
class GridMaps:
    """The artifact bundle AutoGrid produces.

    ``affinity[t]`` is the per-type map with shape ``box.shape``;
    ``electrostatic`` holds the potential per unit charge; ``desolvation``
    the charge-independent desolvation field. ``log`` mirrors the ``.glg``
    run log.
    """

    box: GridBox
    affinity: dict[str, np.ndarray]
    electrostatic: np.ndarray
    desolvation: np.ndarray
    receptor_name: str = ""
    log: str = ""

    @property
    def atom_types(self) -> tuple[str, ...]:
        return tuple(sorted(self.affinity))

    def interpolate(self, map_name: str, coords: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of one map at arbitrary coordinates.

        ``coords`` may be a single point ``(3,)``, a pose ``(N, 3)`` or a
        pose batch ``(P, N, 3)`` — any leading shape is preserved in the
        returned value array. Coordinates outside the box are clamped to
        the boundary and additionally charged a steep quadratic wall
        penalty by callers (see the engines) — here we only interpolate.
        """
        if map_name == "e":
            grid = self.electrostatic
        elif map_name == "d":
            grid = self.desolvation
        else:
            try:
                grid = self.affinity[map_name]
            except KeyError:
                raise GridError(
                    f"no affinity map for type {map_name!r}; have {self.atom_types}"
                ) from None
        return trilinear(grid, self.box, coords)

    def outside_penalty(self, coords: np.ndarray, weight: float = 10.0) -> np.ndarray:
        """Quadratic wall penalty (kcal/mol) for atoms leaving the box.

        Accepts any ``(..., 3)`` coordinate array; the per-atom penalty
        keeps the leading shape, so a ``(P, N, 3)`` pose batch yields a
        ``(P, N)`` penalty array.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        lo, hi = self.box.minimum, self.box.maximum
        under = np.clip(lo - coords, 0.0, None)
        over = np.clip(coords - hi, 0.0, None)
        return weight * ((under**2).sum(axis=-1) + (over**2).sum(axis=-1))


def trilinear(grid: np.ndarray, box: GridBox, coords: np.ndarray) -> np.ndarray:
    """Vectorized trilinear interpolation with boundary clamping.

    ``coords`` may carry any leading shape ``(..., 3)`` — e.g. a
    ``(P, N, 3)`` batch of P poses of an N-atom ligand — and the values
    come back with that leading shape ``(...)``. The flattened evaluation
    is element-for-element identical to interpolating each pose
    separately.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    lead_shape = coords.shape[:-1]
    coords = coords.reshape(-1, 3)
    f = box.fractional_index(coords)
    shape = np.array(box.shape)
    f = np.clip(f, 0.0, shape - 1.000001)
    i0 = np.floor(f).astype(np.intp)
    i1 = np.minimum(i0 + 1, shape - 1)
    t = f - i0
    x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
    x1, y1, z1 = i1[:, 0], i1[:, 1], i1[:, 2]
    tx, ty, tz = t[:, 0], t[:, 1], t[:, 2]
    c000 = grid[x0, y0, z0]
    c100 = grid[x1, y0, z0]
    c010 = grid[x0, y1, z0]
    c110 = grid[x1, y1, z0]
    c001 = grid[x0, y0, z1]
    c101 = grid[x1, y0, z1]
    c011 = grid[x0, y1, z1]
    c111 = grid[x1, y1, z1]
    c00 = c000 * (1 - tx) + c100 * tx
    c10 = c010 * (1 - tx) + c110 * tx
    c01 = c001 * (1 - tx) + c101 * tx
    c11 = c011 * (1 - tx) + c111 * tx
    c0 = c00 * (1 - ty) + c10 * ty
    c1 = c01 * (1 - ty) + c11 * ty
    return (c0 * (1 - tz) + c1 * tz).reshape(lead_shape)


class StackGather:
    """Trilinear gather over per-atom map stacks, summed over atoms.

    The scorers' grid term: ``stacks`` is ``(S, n_atoms, *box.shape)``,
    ``S`` stacks of one map per ligand atom over one box, and a call
    maps a ``(P, n_atoms, 3)`` pose batch to the ``(S, P)`` per-stack
    sums. The fractional index, the trilinear weights and the flat
    offsets of the eight corners are computed once per batch and shared
    by every stack; the values come from one ``take`` on the raveled
    stacks. Box origin, spacing and clip bound are fixed at
    construction.

    Per element the arithmetic and its order are those of a per-corner
    fancy-indexing gather run stack by stack (x, then y, then z blends;
    each stack's sum runs over C-ordered rows of ``n_atoms`` values), so
    results are bit-identical to it (``tests/docking/search_oracle.py``)
    and independent of the batch size.
    """

    def __init__(self, box: GridBox, stacks: np.ndarray) -> None:
        if stacks.ndim != 5 or stacks.shape[2:] != box.shape:
            raise GridError(
                f"expected stacks of shape (S, n_atoms, *{box.shape}), "
                f"got {stacks.shape}"
            )
        n_stacks, n_atoms, nx, ny, nz = stacks.shape
        self._flat = np.ascontiguousarray(stacks).reshape(-1)
        self._minimum = box.minimum
        self._spacing = box.spacing
        self._upper = np.array(box.shape) - 1.000001
        self._strides = np.array([ny * nz, nz, 1])
        # Corner c = 4 dx + 2 dz + dy, so the x blend pairs the two
        # halves, the y blend pairs neighbours and the z blend comes last.
        dx, dz, dy = np.indices((2, 2, 2)).reshape(3, 8)
        corners = dx * ny * nz + dy * nz + dz
        maps = np.arange(n_stacks * n_atoms).reshape(n_stacks, 1, n_atoms, 1)
        self._offsets = maps * (nx * ny * nz) + corners  # (S, 1, n_atoms, 8)

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        """``(P, n_atoms, 3)`` coordinates -> ``(S, P)`` summed values."""
        f = (coords - self._minimum) / self._spacing
        f = np.clip(f, 0.0, self._upper)
        i0 = f.astype(np.intp)
        t = f - i0
        s = 1 - t
        base = (i0 @ self._strides)[None, :, :, None]
        v = self._flat.take(base + self._offsets)  # (S, P, n_atoms, 8)
        cx = v[..., :4] * s[..., 0, None] + v[..., 4:] * t[..., 0, None]
        cy = cx[..., ::2] * s[..., 1, None] + cx[..., 1::2] * t[..., 1, None]
        return (cy[..., 0] * s[..., 2] + cy[..., 1] * t[..., 2]).sum(axis=-1)


class AutoGrid:
    """Map generator (the fifth SciDock activity).

    Parameters
    ----------
    chunk_atoms:
        Receptor atoms of one type are accumulated in chunks of this
        size: each chunk's in-cutoff pairs are gathered, evaluated and
        added to the maps as one block.
    cutoff:
        Nonbonded cutoff (inclusive). Receptor atoms farther than this
        from the box faces along any axis are skipped entirely; the
        rest only contribute to grid points within the cutoff.
    etables:
        Optional :class:`~repro.docking.etables.EtableSet`. When given,
        the build runs the table-driven kernel over a receptor cell
        list: each grid point only visits atoms within the cutoff and
        all pair energies come from row interpolation. The cutoff is
        then the table extent (``etables.config.r_max``).
    """

    def __init__(
        self,
        chunk_atoms: int = 256,
        cutoff: float = ff.NB_CUTOFF,
        etables: "EtableSet | None" = None,
    ) -> None:
        if chunk_atoms < 1:
            raise GridError("chunk_atoms must be >= 1")
        self.chunk_atoms = chunk_atoms
        self.etables = etables
        self.cutoff = etables.config.r_max if etables is not None else cutoff
        #: Kernel mode label surfaced in logs/provenance.
        self.kernel = "tables" if etables is not None else "analytic"

    def _relevant_atoms(
        self, receptor: Molecule, box: GridBox
    ) -> tuple[np.ndarray, list[str], np.ndarray]:
        coords = receptor.coords
        types: list[str] = []
        for a in receptor.atoms:
            if a.autodock_type is None:
                raise GridError(
                    f"receptor atom {a.name} has no AutoDock type; run "
                    "prepare_receptor first"
                )
            types.append(a.autodock_type)
        charges = np.array([a.charge for a in receptor.atoms])
        # Keep atoms within cutoff of the box volume.
        lo = box.minimum - self.cutoff
        hi = box.maximum + self.cutoff
        mask = np.all((coords >= lo) & (coords <= hi), axis=1)
        idx = np.nonzero(mask)[0]
        return coords[idx], [types[i] for i in idx], charges[idx]

    def run(
        self,
        receptor: Molecule,
        box: GridBox,
        ligand_types: tuple[str, ...] | list[str],
    ) -> GridMaps:
        """Generate all maps; the counterpart of running ``autogrid4``."""
        if not ligand_types:
            raise GridError("at least one ligand atom type is required")
        started = time.perf_counter()
        P = int(np.prod(box.shape))
        rec_coords, rec_types, rec_charges = self._relevant_atoms(receptor, box)
        N = rec_coords.shape[0]

        affinity = {t: np.zeros(P) for t in dict.fromkeys(ligand_types)}
        electro = np.zeros(P)
        desolv = np.zeros(P)

        if self.etables is not None:
            self._run_tables(
                box.points(), rec_coords, rec_types, rec_charges,
                affinity, electro, desolv,
            )
            return self._package(
                box, receptor, affinity, electro, desolv, N, started
            )

        # Group receptor atoms by AutoDock type: pair parameters are then
        # constant per (ligand type, group), so the whole group broadcasts
        # in one vector expression.
        by_type: dict[str, np.ndarray] = {}
        rec_types_arr = np.array(rec_types)
        for rt in dict.fromkeys(rec_types):
            by_type[rt] = np.nonzero(rec_types_arr == rt)[0]
        lig_solv = {lt: ff.solvation_parameter(lt) for lt in affinity}

        for rt, group_idx in by_type.items():
            rt_vol = ff.AUTODOCK_TYPES[rt].vol
            for start in range(0, len(group_idx), self.chunk_atoms):
                sel = group_idx[start : start + self.chunk_atoms]
                # In-cutoff (point, atom) pairs only, atom-major: each
                # point's bincount sum runs in ascending atom order, as
                # it would over the full points x atoms sweep.
                pi, ci, r = lattice_pairs(box, rec_coords[sel], self.cutoff)
                if pi.size == 0:
                    continue
                rv = np.maximum(r, 0.01)
                qv = rec_charges[sel][ci]
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
                envelope = ff.desolvation_envelope(rv)
                desolv += np.bincount(
                    pi,
                    weights=ff.FE_COEFF_DESOLV * envelope * rt_vol * 0.01097,
                    minlength=P,
                )
                # Per-ligand-type affinity maps (vdW/H-bond + pair desolv).
                # The envelope and the receptor-charge solvation term are
                # shared by every type, the vdW row by every type with the
                # same pair parameters (C and A).
                rec_solv = ff.solvation_parameter(rt, qv)
                by_params: dict[ff.PairParams, list[str]] = {}
                for lt in affinity:
                    by_params.setdefault(ff.pair_params(lt, rt), []).append(lt)
                for p, lts in by_params.items():
                    weight = ff.FE_COEFF_HBOND if p.is_hbond else ff.FE_COEFF_VDW
                    vdw = ff.vdw_energy(rv, p) * weight
                    for lt in lts:
                        e = vdw + ff.FE_COEFF_DESOLV * ff.pair_desolvation(
                            lt, rt, lig_solv[lt], rec_solv, envelope
                        )
                        affinity[lt] += np.bincount(pi, weights=e, minlength=P)

        return self._package(
            box, receptor, affinity, electro, desolv, N, started
        )

    def _run_tables(
        self,
        points: np.ndarray,
        rec_coords: np.ndarray,
        rec_types: list[str],
        rec_charges: np.ndarray,
        affinity: dict[str, np.ndarray],
        electro: np.ndarray,
        desolv: np.ndarray,
    ) -> None:
        """Cell-list + lookup-table map build (accumulates in place).

        Per in-cutoff ``(point, atom)`` pair the affinity maps interpolate
        a combined row (weighted vdW/H-bond + charge-independent pair
        desolvation) and add the receptor-charge desolvation as
        ``FE_DESOLV * qsolpar * vol_lt * |q| * envelope(r)``; the e and d
        maps reuse the shared factor/envelope rows.
        """
        from repro.docking.etables import QSOLPAR

        ad4t = self.etables.ad4
        P = points.shape[0]
        if rec_coords.shape[0] == 0:
            return
        rt_names = list(dict.fromkeys(rec_types))
        rt_index = {rt: k for k, rt in enumerate(rt_names)}
        atom_rt = np.array([rt_index[t] for t in rec_types], dtype=np.intp)
        vols = np.array([ff.AUTODOCK_TYPES[t].vol for t in rec_types])
        abs_q = np.abs(rec_charges)
        rows_per_lt = {
            lt: np.array(
                [ad4t.grid_row(lt, rt) for rt in rt_names], dtype=np.intp
            )
            for lt in affinity
        }
        qcoef = {
            lt: ff.FE_COEFF_DESOLV * QSOLPAR * ff.AUTODOCK_TYPES[lt].vol
            for lt in affinity
        }
        cells = CellList(rec_coords, cell_size=self.cutoff)
        for pi, ai, r in cells.iter_query(points, self.cutoff):
            env = ad4t.eval_envelope(r)
            electro += np.bincount(
                pi, weights=ad4t.eval_estat(rec_charges[ai], r), minlength=P
            )
            desolv += np.bincount(
                pi,
                weights=ff.FE_COEFF_DESOLV * QSOLPAR * env * vols[ai],
                minlength=P,
            )
            for lt, grid in affinity.items():
                e = ad4t.eval_rows(rows_per_lt[lt][atom_rt[ai]], r)
                e += qcoef[lt] * abs_q[ai] * env
                grid += np.bincount(pi, weights=e, minlength=P)

    def _package(
        self,
        box: GridBox,
        receptor: Molecule,
        affinity: dict[str, np.ndarray],
        electro: np.ndarray,
        desolv: np.ndarray,
        n_atoms: int,
        started: float,
    ) -> GridMaps:
        shape = box.shape
        elapsed = time.perf_counter() - started
        log = "\n".join(
            [
                "autogrid4: successful completion",
                f"kernel: {self.kernel} (cutoff {self.cutoff:.2f} A)",
                f"receptor: {receptor.name} ({n_atoms} atoms within cutoff)",
                f"grid: {shape[0]}x{shape[1]}x{shape[2]} points, "
                f"spacing {box.spacing:.3f} A",
                f"maps: {', '.join(sorted(affinity))} + e + d",
                f"elapsed: {elapsed:.3f} s",
            ]
        )
        return GridMaps(
            box=box,
            affinity={t: g.reshape(shape) for t, g in affinity.items()},
            electrostatic=electro.reshape(shape),
            desolvation=desolv.reshape(shape),
            receptor_name=receptor.name,
            log=log,
        )


def grid_maps_to_arrays(maps: GridMaps) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten a :class:`GridMaps` into a (meta, named-arrays) bundle.

    The artifact plane ships bundles of this shape through shared memory
    and the on-disk cache; :func:`grid_maps_from_arrays` restores the
    dataclass (the run log is not carried — it documents the build, not
    the artifact).
    """
    meta = {
        "box": maps.box.to_dict(),
        "receptor_name": maps.receptor_name,
        "atom_types": list(maps.atom_types),
    }
    arrays: dict[str, np.ndarray] = {
        f"affinity/{t}": maps.affinity[t] for t in maps.atom_types
    }
    arrays["electrostatic"] = maps.electrostatic
    arrays["desolvation"] = maps.desolvation
    return meta, arrays


def grid_maps_from_arrays(meta: dict, arrays: dict[str, np.ndarray]) -> GridMaps:
    """Rebuild a :class:`GridMaps` from a plane bundle (views kept as-is)."""
    return GridMaps(
        box=GridBox.from_dict(meta["box"]),
        affinity={t: arrays[f"affinity/{t}"] for t in meta["atom_types"]},
        electrostatic=arrays["electrostatic"],
        desolvation=arrays["desolvation"],
        receptor_name=meta.get("receptor_name", ""),
        log="",
    )


def write_map_file(maps: GridMaps, map_name: str) -> str:
    """Serialize one map in AutoGrid's .map text format."""
    if map_name == "e":
        grid = maps.electrostatic
    elif map_name == "d":
        grid = maps.desolvation
    else:
        grid = maps.affinity[map_name]
    box = maps.box
    header = [
        "GRID_PARAMETER_FILE grid.gpf",
        f"GRID_DATA_FILE {maps.receptor_name}.maps.fld",
        f"MACROMOLECULE {maps.receptor_name}.pdbqt",
        f"SPACING {box.spacing:.3f}",
        f"NELEMENTS {box.npts[0]} {box.npts[1]} {box.npts[2]}",
        f"CENTER {box.center[0]:.3f} {box.center[1]:.3f} {box.center[2]:.3f}",
    ]
    # AutoGrid writes z-fastest? Historically x fastest; keep x-fastest
    # ordering consistent with GridBox.points().
    values = [f"{v:.3f}" for v in grid.ravel()]
    return "\n".join(header + values) + "\n"


def parse_map_file(text: str) -> tuple[GridBox, np.ndarray]:
    """Parse a .map file back into (box, grid) — AutoDock's reader."""
    lines = text.splitlines()
    spacing = None
    npts = None
    center = None
    data_start = 0
    for i, line in enumerate(lines):
        fields = line.split()
        if not fields:
            continue
        key = fields[0].upper()
        if key == "SPACING":
            spacing = float(fields[1])
        elif key == "NELEMENTS":
            npts = (int(fields[1]), int(fields[2]), int(fields[3]))
        elif key == "CENTER":
            center = np.array([float(f) for f in fields[1:4]])
        elif key in ("GRID_PARAMETER_FILE", "GRID_DATA_FILE", "MACROMOLECULE"):
            continue
        else:
            data_start = i
            break
    if spacing is None or npts is None or center is None:
        raise GridError("map file missing SPACING/NELEMENTS/CENTER header")
    box = GridBox(center=center, npts=npts, spacing=spacing)
    values = np.array([float(l) for l in lines[data_start:] if l.strip()])
    expected = int(np.prod(box.shape))
    if values.size != expected:
        raise GridError(
            f"map file has {values.size} values, grid needs {expected}"
        )
    return box, values.reshape(box.shape)


def write_fld_file(maps: GridMaps) -> str:
    """Serialize the .maps.fld AVS field header."""
    box = maps.box
    lines = [
        "# AVS field file: AutoDock Atomic Affinity and Electrostatic Grids",
        f"ndim=3",
        f"dim1={box.shape[0]}",
        f"dim2={box.shape[1]}",
        f"dim3={box.shape[2]}",
        "nspace=3",
        f"veclen={len(maps.affinity) + 2}",
        "data=float",
        "field=uniform",
    ]
    for i, t in enumerate(maps.atom_types, start=1):
        lines.append(f"variable {i} file={maps.receptor_name}.{t}.map filetype=ascii")
    lines.append(
        f"variable {len(maps.atom_types) + 1} file={maps.receptor_name}.e.map filetype=ascii"
    )
    lines.append(
        f"variable {len(maps.atom_types) + 2} file={maps.receptor_name}.d.map filetype=ascii"
    )
    return "\n".join(lines) + "\n"
