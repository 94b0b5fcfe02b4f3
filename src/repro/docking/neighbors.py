"""Cutoff-aware neighbor pruning for the docking kernels.

Two pruning layers live here:

* **Spatial** — :func:`lattice_blocks`, the stream of the
  ``(grid point, atom)`` pairs within the nonbonded cutoff that replaces
  the ``O(points x receptor_atoms)`` dense distance sweep of the
  AutoGrid and Vina map builds: each atom walks the grid rows of its
  cutoff sphere, the pairs of ``ATOMS_PER_BLOCK`` atoms are yielded
  together so a builder evaluates its terms on one cache-sized block,
  and pairs come out atom-major so the maps keep the dense sweep's
  summation order. :func:`lattice_pairs` is the stream concatenated.
* **Topological** — :func:`bond_separation_pairs`, the memoized
  bond-graph BFS behind the AD4/Vina intramolecular pair tables.
  Scorers are rebuilt per activation (and per worker process), but the
  1-4+ pair table is a pure function of the molecular topology, so
  identical walks are served from a process-wide memo.

Both layers are exact: the enumerator returns precisely the pairs a
brute-force ``r <= cutoff`` scan would (order aside), and the memo
returns the same arrays the per-scorer BFS used to build.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.docking.box import GridBox


#: Atoms whose lattice pairs are enumerated and yielded together. At the
#: campaigns' 0.6 A spacing and 8 A cutoff a block is up to ~160k pairs
#: (~1.3 MB per float64 term), so a builder's per-block temporaries stay
#: a few MiB. 16 and 32 built 1ME4/2P7U maps equally fast on 2 vCPU;
#: 16 has the smaller peak, 4 and 64 were slower.
ATOMS_PER_BLOCK = 16


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0..n-1`` within each of consecutive runs of the given lengths."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def lattice_blocks(
    box: "GridBox", coords: np.ndarray, cutoff: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stream the ``(grid point, atom)`` pairs of ``box`` within ``cutoff``.

    The map builders' pair enumerator. Atoms are taken
    ``ATOMS_PER_BLOCK`` at a time, and each block's pairs are yielded as
    ``(pi, ai, r)`` — flat grid-point indices (``box.points()`` order),
    atom indices into ``coords`` and distances — so a builder evaluates
    its terms on one cache-sized block instead of on the pair list of a
    whole chunk. Blocks without a pair are skipped.

    Each atom only visits the grid indices of its cutoff sphere: per
    lattice row ``(ix, iy)`` of its sub-cube, the ``iz`` span the sphere
    can reach, padded by one index on each side, so rounding in the span
    never drops a pair. The ``r2 <= cutoff**2`` test on the candidates
    is the same ``einsum`` over ``(point - atom)`` differences the dense
    ``(P x N x 3)`` sweep evaluates, so the pair set and every distance
    are bit-identical to it.

    Pairs come out *atom-major*: atom indices ascend within a block and
    from block to block. Adding each pair's term into a point's sum in
    stream order (``np.add.at`` per block, or one ``np.bincount`` over
    the concatenation) therefore runs in ascending atom order, exactly
    as over the dense sweep's point-major pairs.
    """
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    axes = box.axes()
    shape = np.array(box.shape, dtype=np.intp)
    origin = np.array([ax[0] for ax in axes])
    spacing = float(box.spacing)
    cut2 = float(cutoff) ** 2
    reach = cutoff / spacing
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
        yield (
            (ix[row] * shape[1] + iy[row]) * shape[2] + iz[hit],
            row_atom[row] + start,
            np.sqrt(r2[hit]),
        )


def lattice_pairs(
    box: "GridBox", coords: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All of :func:`lattice_blocks`' pairs as one ``(pi, ai, r)`` triple."""
    blocks = list(lattice_blocks(box, coords, cutoff))
    if not blocks:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty.copy(), np.empty(0)
    pi, ai, r = zip(*blocks)
    return np.concatenate(pi), np.concatenate(ai), np.concatenate(r)


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
