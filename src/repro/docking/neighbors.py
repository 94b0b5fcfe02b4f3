"""Cutoff-aware neighbor pruning for the docking kernels.

Two pruning layers live here:

* **Spatial** — two enumerators of the ``(point, atom)`` pairs within
  the nonbonded cutoff, replacing the ``O(points x receptor_atoms)``
  dense distance sweep. :func:`lattice_pairs` serves the analytic
  AutoGrid and Vina map builds: each atom walks the grid rows of its
  cutoff sphere, and pairs come out atom-major so the maps keep the
  dense sweep's summation order. :class:`CellList`, a uniform cell
  list over a static point set (receptor atoms), serves the table-mode
  map builds and the map-free Vina scorer with an
  ``O(points x local_atoms)`` gather over the 27-cell neighborhood.
* **Topological** — :func:`bond_separation_pairs`, the memoized
  bond-graph BFS behind the AD4/Vina intramolecular pair tables.
  Scorers are rebuilt per activation (and per worker process), but the
  1-4+ pair table is a pure function of the molecular topology, so
  identical walks are served from a process-wide memo.

Both layers are exact: the enumerators return precisely the pairs a
brute-force ``r <= cutoff`` scan would (order aside), and the memo
returns the same arrays the per-scorer BFS used to build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docking.box import GridBox


class CellList:
    """Uniform cell list over a fixed set of 3D points.

    Points are binned into cubic cells of edge ``cell_size`` and stored
    in CSR layout (one ``argsort`` at construction). A query point only
    inspects the ``(2k+1)^3`` cells that can contain neighbors within
    ``cutoff`` (``k = ceil(cutoff / cell_size)``), so query cost scales
    with local density instead of the total atom count.
    """

    def __init__(self, coords: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
        self.coords = coords
        self.cell_size = float(cell_size)
        self.n_points = coords.shape[0]
        if self.n_points == 0:
            self.origin = np.zeros(3)
            self.dims = np.ones(3, dtype=np.intp)
            self._order = np.empty(0, dtype=np.intp)
            self._starts = np.zeros(2, dtype=np.intp)
            self._counts = np.zeros(1, dtype=np.intp)
            return
        self.origin = coords.min(axis=0)
        span = coords.max(axis=0) - self.origin
        self.dims = np.floor(span / self.cell_size).astype(np.intp) + 1
        idx3 = np.floor((coords - self.origin) / self.cell_size).astype(np.intp)
        # Atoms exactly on the max face land one past the last cell.
        idx3 = np.minimum(idx3, self.dims - 1)
        lin = self._linearize(idx3)
        self._order = np.argsort(lin, kind="stable")
        n_cells = int(np.prod(self.dims))
        self._counts = np.bincount(lin, minlength=n_cells).astype(np.intp)
        self._starts = np.concatenate(
            [np.zeros(1, dtype=np.intp), np.cumsum(self._counts)]
        )

    def _linearize(self, idx3: np.ndarray) -> np.ndarray:
        d = self.dims
        return (idx3[..., 0] * d[1] + idx3[..., 1]) * d[2] + idx3[..., 2]

    def query(
        self, points: np.ndarray, cutoff: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ``(point, atom)`` pairs within ``cutoff``.

        Returns ``(pi, ai, r)``: query-point indices, atom indices and
        their distances, with ``r <= cutoff`` inclusive — exactly the
        pair set a brute-force ``r2 <= cutoff**2`` scan produces.
        """
        blocks = list(self.iter_query(points, cutoff))
        if not blocks:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.copy(), np.empty(0)
        pi = np.concatenate([b[0] for b in blocks])
        ai = np.concatenate([b[1] for b in blocks])
        r = np.concatenate([b[2] for b in blocks])
        return pi, ai, r

    def iter_query(
        self, points: np.ndarray, cutoff: float, chunk_points: int = 8192
    ):
        """Chunked :meth:`query`: yields ``(pi, ai, r)`` blocks.

        ``pi`` holds *global* indices into ``points``; chunking only
        bounds the candidate-pair working set, never changes the result.
        """
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if self.n_points == 0 or points.shape[0] == 0:
            return
        reach = int(np.ceil(cutoff / self.cell_size))
        offsets = np.array(
            [
                (dx, dy, dz)
                for dx in range(-reach, reach + 1)
                for dy in range(-reach, reach + 1)
                for dz in range(-reach, reach + 1)
            ],
            dtype=np.intp,
        )
        cut2 = float(cutoff) ** 2
        for start in range(0, points.shape[0], chunk_points):
            block = points[start : start + chunk_points]
            pcell = np.floor((block - self.origin) / self.cell_size).astype(np.intp)
            pi_parts: list[np.ndarray] = []
            ai_parts: list[np.ndarray] = []
            r_parts: list[np.ndarray] = []
            for off in offsets:
                ncell = pcell + off
                valid = np.all((ncell >= 0) & (ncell < self.dims), axis=1)
                if not valid.any():
                    continue
                vp = np.nonzero(valid)[0]
                nlin = self._linearize(ncell[vp])
                cnt = self._counts[nlin]
                occupied = cnt > 0
                if not occupied.any():
                    continue
                vp, nlin, cnt = vp[occupied], nlin[occupied], cnt[occupied]
                total = int(cnt.sum())
                rep_pt = np.repeat(vp, cnt)
                # Per-pair offset inside its cell's CSR slice.
                ends = np.cumsum(cnt)
                within = np.arange(total, dtype=np.intp) - np.repeat(
                    ends - cnt, cnt
                )
                atoms = self._order[np.repeat(self._starts[nlin], cnt) + within]
                diff = block[rep_pt] - self.coords[atoms]
                r2 = np.einsum("ij,ij->i", diff, diff)
                hit = r2 <= cut2
                if not hit.any():
                    continue
                pi_parts.append(rep_pt[hit] + start)
                ai_parts.append(atoms[hit])
                r_parts.append(np.sqrt(r2[hit]))
            if pi_parts:
                yield (
                    np.concatenate(pi_parts),
                    np.concatenate(ai_parts),
                    np.concatenate(r_parts),
                )


#: Atoms whose lattice candidates are enumerated together; bounds the
#: candidate working set at ~``ATOMS_PER_BLOCK`` cutoff spheres.
ATOMS_PER_BLOCK = 16


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0..n-1`` within each of consecutive runs of the given lengths."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def lattice_pairs(
    box: "GridBox", coords: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ``(grid point, atom)`` pairs of ``box`` within ``cutoff``.

    The map builders' pair enumerator. Each atom only visits the grid
    indices of its cutoff sphere: per lattice row ``(ix, iy)`` of its
    sub-cube, the ``iz`` span the sphere can reach, padded by one index
    on each side, so rounding in the span never drops a pair. The
    ``r2 <= cutoff**2`` test on the candidates is the same
    ``einsum`` over ``(point - atom)`` differences the dense
    ``(P x N x 3)`` sweep evaluates, so the pair set and every
    distance are bit-identical to it.

    Returns ``(pi, ai, r)`` — flat grid-point indices (``box.points()``
    order), atom indices and distances — *atom-major*: atom indices
    ascend. ``np.bincount(pi, weights)`` therefore adds each point's
    terms in ascending atom order, exactly as it does over the dense
    sweep's point-major pairs.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    axes = box.axes()
    shape = np.array(box.shape, dtype=np.intp)
    origin = np.array([ax[0] for ax in axes])
    spacing = float(box.spacing)
    cut2 = float(cutoff) ** 2
    reach = cutoff / spacing
    pi_parts: list[np.ndarray] = []
    ai_parts: list[np.ndarray] = []
    r_parts: list[np.ndarray] = []
    for start in range(0, coords.shape[0], ATOMS_PER_BLOCK):
        atoms = coords[start : start + ATOMS_PER_BLOCK]
        frac = (atoms - origin) / spacing
        lo = np.maximum(np.ceil(frac - reach).astype(np.intp) - 1, 0)
        hi = np.minimum(np.floor(frac + reach).astype(np.intp) + 1, shape - 1)
        span = np.maximum(hi - lo + 1, 0)
        # Lattice rows (ix, iy) of every atom's sub-cube, atom-major.
        n_rows = span[:, 0] * span[:, 1]
        row_atom = np.repeat(np.arange(atoms.shape[0]), n_rows)
        if row_atom.size == 0:
            continue
        k = _ranks(n_rows)
        ny = span[row_atom, 1]
        ix = lo[row_atom, 0] + k // ny
        iy = lo[row_atom, 1] + k % ny
        dx = axes[0][ix] - atoms[row_atom, 0]
        dy = axes[1][iy] - atoms[row_atom, 1]
        # The z half-chord of the sphere in this row (rows that miss it
        # keep a zero chord; the padded span still covers rounding).
        chord = np.sqrt(np.maximum(cut2 - dx * dx - dy * dy, 0.0)) / spacing
        zf = frac[row_atom, 2]
        z0 = np.maximum(np.ceil(zf - chord).astype(np.intp) - 1, lo[row_atom, 2])
        z1 = np.minimum(np.floor(zf + chord).astype(np.intp) + 1, hi[row_atom, 2])
        nz = np.maximum(z1 - z0 + 1, 0)
        cand_row = np.repeat(np.arange(row_atom.size), nz)
        iz = z0[cand_row] + _ranks(nz)
        diff = np.empty((cand_row.size, 3))
        diff[:, 0] = dx[cand_row]
        diff[:, 1] = dy[cand_row]
        diff[:, 2] = axes[2][iz] - atoms[row_atom[cand_row], 2]
        r2 = np.einsum("ij,ij->i", diff, diff)
        hit = np.nonzero(r2 <= cut2)[0]
        if hit.size == 0:
            continue
        row = cand_row[hit]
        pi_parts.append((ix[row] * shape[1] + iy[row]) * shape[2] + iz[hit])
        ai_parts.append(row_atom[row] + start)
        r_parts.append(np.sqrt(r2[hit]))
    if not pi_parts:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), np.empty(0)
    return (
        np.concatenate(pi_parts),
        np.concatenate(ai_parts),
        np.concatenate(r_parts),
    )


def brute_force_query(
    points: np.ndarray, coords: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference ``O(P x N)`` neighbor scan (tests and small inputs)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    if points.shape[0] == 0 or coords.shape[0] == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), np.empty(0)
    diff = points[:, None, :] - coords[None, :, :]
    r2 = np.einsum("pnx,pnx->pn", diff, diff)
    pi, ai = np.nonzero(r2 <= float(cutoff) ** 2)
    return pi, ai, np.sqrt(r2[pi, ai])


# -- topological pruning ------------------------------------------------------

_PAIR_MEMO: OrderedDict = OrderedDict()
_PAIR_MEMO_LOCK = threading.Lock()
_PAIR_MEMO_MAX = 512
_PAIR_MEMO_HITS = 0
_PAIR_MEMO_MISSES = 0


def pair_memo_stats() -> dict:
    """Hit/miss counters of the pair-table memo (for tests/telemetry)."""
    with _PAIR_MEMO_LOCK:
        return {
            "hits": _PAIR_MEMO_HITS,
            "misses": _PAIR_MEMO_MISSES,
            "entries": len(_PAIR_MEMO),
        }


def reset_pair_memo() -> None:
    global _PAIR_MEMO_HITS, _PAIR_MEMO_MISSES
    with _PAIR_MEMO_LOCK:
        _PAIR_MEMO.clear()
        _PAIR_MEMO_HITS = 0
        _PAIR_MEMO_MISSES = 0


def _bfs_pairs(mol, min_separation: int) -> np.ndarray:
    """Atom pairs >= ``min_separation`` bonds apart (or disconnected)."""
    n = len(mol.atoms)
    INF = 99
    dist = np.full((n, n), INF, dtype=np.int16)
    np.fill_diagonal(dist, 0)
    adj = mol.adjacency
    for src in range(n):
        frontier = [src]
        seen = {src}
        d = 0
        while frontier and d < min_separation:
            d += 1
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        dist[src, w] = min(dist[src, w], d)
                        nxt.append(w)
            frontier = nxt
    ii, jj = np.triu_indices(n, k=1)
    mask = dist[ii, jj] >= min_separation
    return np.stack([ii[mask], jj[mask]], axis=1).reshape(-1, 2)


def bond_separation_pairs(mol, min_separation: int) -> np.ndarray:
    """Memoized nonbonded pair table of one molecule.

    The key is the molecular *topology* (name, atom count, bond list) —
    coordinates don't matter — so every scorer rebuilt for the same
    ligand across activations, GA runs and worker processes shares one
    BFS. The returned array is marked read-only; callers only index it.
    """
    global _PAIR_MEMO_HITS, _PAIR_MEMO_MISSES
    bonds = tuple(
        sorted((b.i, b.j) if b.i < b.j else (b.j, b.i) for b in mol.bonds)
    )
    key = (mol.name, len(mol.atoms), bonds, int(min_separation))
    with _PAIR_MEMO_LOCK:
        cached = _PAIR_MEMO.get(key)
        if cached is not None:
            _PAIR_MEMO.move_to_end(key)
            _PAIR_MEMO_HITS += 1
            return cached
    pairs = _bfs_pairs(mol, int(min_separation))
    pairs.flags.writeable = False
    with _PAIR_MEMO_LOCK:
        _PAIR_MEMO_MISSES += 1
        _PAIR_MEMO[key] = pairs
        while len(_PAIR_MEMO) > _PAIR_MEMO_MAX:
            _PAIR_MEMO.popitem(last=False)
    return pairs
