"""AutoGrid: precomputed affinity maps over the docking box.

For every ligand atom type AutoGrid tabulates, at each grid point, the
interaction energy with the whole (rigid) receptor; docking then scores a
pose by trilinear interpolation instead of summing receptor pairs. This
module reproduces that pipeline: one map per requested atom type, plus the
electrostatic and desolvation maps, the ``.fld`` grid-field metadata and
the ``.glg`` log.

The analytic build only visits the ``(grid point, receptor atom)``
pairs within the cutoff, streamed a few atoms at a time
(:func:`~repro.docking.neighbors.lattice_blocks`). Every term is
evaluated on one such block while it is in cache and added with
``np.add.at`` into accumulators of one ``(receptor type, atom chunk)``;
each chunk's sums are then added to the maps. ``np.add.at`` adds in
pair order, as one ``np.bincount`` over the chunk's pairs would, so the
maps are bit-identical to a dense ``(P points x N atoms)`` sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.chem.molecule import Molecule
from repro.docking.box import GridBox
from repro.docking import forcefield as ff
from repro.docking.neighbors import lattice_blocks


class GridError(ValueError):
    """Raised for invalid grid-generation requests."""


#: Layout of the one array that holds a receptor's maps: ``(points, K)``
#: float64, point-major (the K map values of one grid point adjacent),
#: points in z-fastest flat order ``(ix * ny + iy) * nz + iz``. Every map
#: bundle key hashes it, so a bundle written in another layout is
#: rebuilt, never read as this one.
MAP_LAYOUT = "planes/point-major/v1"


@dataclass
class GridMaps:
    """The artifact bundle AutoGrid produces.

    ``planes`` is the one ``(points, K)`` array (see :data:`MAP_LAYOUT`)
    holding every map: column ``k`` is the affinity map of
    ``map_types[k]``, then come the electrostatic and the desolvation
    map. ``affinity[t]``, ``electrostatic`` and ``desolvation`` are
    views of it with shape ``box.shape``: ``electrostatic`` holds the
    potential per unit charge, ``desolvation`` the charge-independent
    desolvation field. ``log`` mirrors the ``.glg`` run log.
    """

    box: GridBox
    planes: np.ndarray
    map_types: tuple[str, ...]
    receptor_name: str = ""
    log: str = ""
    affinity: dict[str, np.ndarray] = field(init=False, repr=False)
    electrostatic: np.ndarray = field(init=False, repr=False)
    desolvation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.map_types = tuple(self.map_types)
        n_maps = len(self.map_types) + 2
        expected = (int(np.prod(self.box.shape)), n_maps)
        if self.planes.shape != expected:
            raise GridError(
                f"expected planes of shape {expected}, got {self.planes.shape}"
            )
        grids = self.planes.reshape(*self.box.shape, n_maps)
        self.affinity = {t: grids[..., k] for k, t in enumerate(self.map_types)}
        self.electrostatic = grids[..., n_maps - 2]
        self.desolvation = grids[..., n_maps - 1]

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
    """Trilinear gather of per-atom map columns, summed over atoms.

    The scorers' grid term, read in place from a receptor's maps:
    ``planes`` is the ``(points, K)`` map array (:data:`MAP_LAYOUT`) and
    ``columns`` is ``(C, n_atoms)``, the column each ligand atom reads
    in each of ``C`` gathers. A call maps a ``(P, n_atoms, 3)`` pose
    batch to the ``(S, P)`` per-stack sums. The eight corner values of
    every atom's ``C`` columns come from one ``take`` on the raveled
    planes; ``combine``, when given, turns those ``(C, 8, P, n_atoms)``
    corner values into the corner values of ``S`` per-atom maps
    (overwriting its input), otherwise ``S = C``. The fractional index,
    the trilinear weights and the flat offsets of the eight corners are
    computed once per batch and shared by every stack. Box origin,
    spacing and clip bound are fixed at construction.

    Per element the arithmetic and its order are those of a per-corner
    fancy-indexing gather from per-atom map stacks, run stack by stack
    (x, then y, then z blends; each stack's sum runs over C-ordered rows
    of ``n_atoms`` values). When ``combine`` computes each corner value
    the way such a stack stored it, results are bit-identical to that
    gather (``tests/docking/search_oracle.py``) and independent of the
    batch size.
    """

    def __init__(
        self,
        box: GridBox,
        planes: np.ndarray,
        columns: np.ndarray,
        combine: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        n_points = int(np.prod(box.shape))
        if planes.ndim != 2 or planes.shape[0] != n_points:
            raise GridError(
                f"expected planes of shape ({n_points}, K), got {planes.shape}"
            )
        if not planes.flags.c_contiguous:
            raise GridError("map planes must be C-contiguous (read in place)")
        columns = np.asarray(columns, dtype=np.intp)
        n_maps = planes.shape[1]
        if columns.ndim != 2 or columns.size and not (
            0 <= columns.min() and columns.max() < n_maps
        ):
            raise GridError(
                f"expected (C, n_atoms) columns in [0, {n_maps}), got "
                f"{columns.shape} from {columns.min(initial=0)} to "
                f"{columns.max(initial=0)}"
            )
        _, ny, nz = box.shape
        self._flat = planes.reshape(-1)
        self._combine = combine
        self._minimum = box.minimum
        self._spacing = box.spacing
        self._upper = np.array(box.shape) - 1.000001
        self._strides = np.array([ny * nz, nz, 1]) * n_maps
        # Corner c = 4 dx + 2 dz + dy, so the x blend pairs the two
        # halves, the y blend pairs neighbours and the z blend comes
        # last. Corners lead the atoms so every blend runs over whole
        # (P, n_atoms) blocks.
        dx, dz, dy = np.indices((2, 2, 2)).reshape(3, 8)
        corners = (dx * ny * nz + dy * nz + dz) * n_maps
        # (C, 8, 1, n_atoms)
        self._offsets = corners[:, None, None] + columns[:, None, None, :]

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        """``(P, n_atoms, 3)`` coordinates -> ``(S, P)`` summed values."""
        f = coords - self._minimum
        f /= self._spacing
        # np.clip's result, without its per-call overhead.
        np.maximum(f, 0.0, out=f)
        np.minimum(f, self._upper, out=f)
        i0 = f.astype(np.intp)
        t = f - i0
        s = 1 - t
        v = self._flat.take(i0 @ self._strides + self._offsets)
        if self._combine is not None:
            v = self._combine(v)  # (S, 8, P, n_atoms)
        cx = v[:, :4] * s[..., 0] + v[:, 4:] * t[..., 0]
        cy = cx[:, ::2] * s[..., 1] + cx[:, 1::2] * t[..., 1]
        return (cy[:, 0] * s[..., 2] + cy[:, 1] * t[..., 2]).sum(axis=-1)


class AutoGrid:
    """Map generator (the fifth SciDock activity).

    Parameters
    ----------
    chunk_atoms:
        Receptor atoms of one type are accumulated in chunks of this
        size: each chunk's in-cutoff pairs are summed per grid point,
        and the chunk's sums are added to the maps. It fixes the
        association of every point's float sum, not the working set.
    cutoff:
        Nonbonded cutoff (inclusive). Receptor atoms farther than this
        from the box faces along any axis are skipped entirely; the
        rest only contribute to grid points within the cutoff.
    """

    def __init__(
        self, chunk_atoms: int = 256, cutoff: float = ff.NB_CUTOFF
    ) -> None:
        if chunk_atoms < 1:
            raise GridError("chunk_atoms must be >= 1")
        self.chunk_atoms = chunk_atoms
        self.cutoff = cutoff

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

        # Every map is a column of one (points, K) array: the affinity
        # maps in request order, then e, then d.
        map_types = tuple(dict.fromkeys(ligand_types))
        column = {lt: k for k, lt in enumerate(map_types)}
        k_elec, k_desolv = len(map_types), len(map_types) + 1
        planes = np.zeros((P, len(map_types) + 2))

        # Group receptor atoms by AutoDock type: pair parameters are then
        # constant per (ligand type, group), so the whole group broadcasts
        # in one vector expression.
        by_type: dict[str, np.ndarray] = {}
        rec_types_arr = np.array(rec_types)
        for rt in dict.fromkeys(rec_types):
            by_type[rt] = np.nonzero(rec_types_arr == rt)[0]
        lig_solv = {lt: ff.solvation_parameter(lt) for lt in map_types}

        for rt, group_idx in by_type.items():
            rt_vol = ff.AUTODOCK_TYPES[rt].vol
            # The vdW row is shared by every ligand type with the same
            # pair parameters (C and A).
            by_params: dict[ff.PairParams, list[str]] = {}
            for lt in map_types:
                by_params.setdefault(ff.pair_params(lt, rt), []).append(lt)
            for start in range(0, len(group_idx), self.chunk_atoms):
                sel = group_idx[start : start + self.chunk_atoms]
                sel_charges = rec_charges[sel]
                # Per-chunk sums, one row per map, added to in stream
                # (ascending atom) order and then to the maps: the
                # association of the dense oracle's one bincount per
                # chunk.
                chunk = np.zeros((planes.shape[1], P))
                # In-cutoff (point, atom) pairs only, one cache-sized
                # block at a time, every term evaluated on the block.
                for pi, ci, r in lattice_blocks(box, rec_coords[sel], self.cutoff):
                    rv = np.maximum(r, 0.01)
                    qv = sel_charges[ci]
                    # Electrostatic map: potential per unit probe charge,
                    # per-pair clamped like the pairwise Coulomb kernel.
                    eps = ff.mehler_solmajer_dielectric(rv)
                    e_pair = np.clip(
                        332.06363 * qv / (eps * rv),
                        -ff.ESTAT_CLAMP,
                        ff.ESTAT_CLAMP,
                    )
                    np.add.at(chunk[k_elec], pi, e_pair)
                    # Desolvation envelope weighted by receptor atom
                    # volume; the scorer multiplies by |q_ligand|, so the
                    # charge-based solvation parameter and the FE weight
                    # live in the map.
                    envelope = ff.desolvation_envelope(rv)
                    np.add.at(
                        chunk[k_desolv],
                        pi,
                        ff.FE_COEFF_DESOLV * envelope * rt_vol * 0.01097,
                    )
                    # Per-ligand-type affinity maps (vdW/H-bond + pair
                    # desolv). The envelope and the receptor-charge
                    # solvation term are shared by every type.
                    rec_solv = ff.solvation_parameter(rt, qv)
                    for p, lts in by_params.items():
                        weight = ff.FE_COEFF_HBOND if p.is_hbond else ff.FE_COEFF_VDW
                        vdw = ff.vdw_energy(rv, p) * weight
                        for lt in lts:
                            e = vdw + ff.FE_COEFF_DESOLV * ff.pair_desolvation(
                                lt, rt, lig_solv[lt], rec_solv, envelope
                            )
                            np.add.at(chunk[column[lt]], pi, e)
                # A chunk without pairs adds +0.0, which changes no sum
                # that started at +0.0.
                planes += chunk.T

        return self._package(box, receptor, map_types, planes, N, started)

    def _package(
        self,
        box: GridBox,
        receptor: Molecule,
        map_types: tuple[str, ...],
        planes: np.ndarray,
        n_atoms: int,
        started: float,
    ) -> GridMaps:
        shape = box.shape
        elapsed = time.perf_counter() - started
        log = "\n".join(
            [
                "autogrid4: successful completion",
                f"cutoff: {self.cutoff:.2f} A",
                f"receptor: {receptor.name} ({n_atoms} atoms within cutoff)",
                f"grid: {shape[0]}x{shape[1]}x{shape[2]} points, "
                f"spacing {box.spacing:.3f} A",
                f"maps: {', '.join(sorted(map_types))} + e + d",
                f"elapsed: {elapsed:.3f} s",
            ]
        )
        return GridMaps(
            box=box,
            planes=planes,
            map_types=map_types,
            receptor_name=receptor.name,
            log=log,
        )


def grid_maps_to_arrays(maps: GridMaps) -> tuple[dict, dict[str, np.ndarray]]:
    """Flatten a :class:`GridMaps` into a (meta, named-arrays) bundle.

    The bundle carries the one ``planes`` array as it is, so the
    artifact plane ships it through shared memory, the on-disk cache
    and the exchange without a second copy; :func:`grid_maps_from_arrays`
    restores the dataclass (the run log is not carried — it documents
    the build, not the artifact).
    """
    meta = {
        "layout": MAP_LAYOUT,
        "box": maps.box.to_dict(),
        "receptor_name": maps.receptor_name,
        "map_types": list(maps.map_types),
    }
    return meta, {"planes": maps.planes}


def check_layout(meta: dict) -> None:
    """Refuse a map bundle written in another layout than :data:`MAP_LAYOUT`."""
    if meta.get("layout") != MAP_LAYOUT:
        raise GridError(
            f"map bundle layout {meta.get('layout')!r} is not {MAP_LAYOUT!r}; "
            "rebuild the maps"
        )


def grid_maps_from_arrays(meta: dict, arrays: dict[str, np.ndarray]) -> GridMaps:
    """Rebuild a :class:`GridMaps` from a plane bundle (the array kept as-is)."""
    check_layout(meta)
    return GridMaps(
        box=GridBox.from_dict(meta["box"]),
        planes=arrays["planes"],
        map_types=tuple(meta["map_types"]),
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
    # z-fastest, the flat order of GridBox.points() and of the planes.
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
