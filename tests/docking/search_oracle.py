"""Per-call search kernels as they were before the overhead cuts.

The bit-parity oracle for the docking search hot path. These are the
original ``rotation_about_axis_batch`` and
``quaternion_to_matrix_batch`` (one ufunc chain per matrix entry),
``TorsionTree.pose_batch`` (``nonzero`` + ``np.ix_`` row
selection on every branch) and the AD4 and Vina ``_gather_batch``
bodies (per-corner fancy indexing, one call per stack), kept verbatim
apart from ``self`` becoming an argument. The production kernels must
reproduce them bit for bit.

:class:`OracleStackGather` puts the two gather bodies behind the
``StackGather`` interface so a whole dock can run on the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.chem.torsions import TorsionTree
from repro.docking.box import GridBox


def rotation_about_axis_batch(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotation matrices for ``(K, 3)`` axes / ``(K,)`` angles.

    Per-row arithmetic matches :func:`rotation_about_axis` exactly, so a
    batched pose evaluation reproduces the scalar one bit-for-bit.
    """
    axes = np.asarray(axes, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    norms = np.sqrt((axes * axes).sum(axis=1))
    if np.any(norms < 1e-12):
        raise ValueError("rotation axis must be non-zero")
    x, y, z = (axes / norms[:, None]).T
    c, s = np.cos(angles), np.sin(angles)
    C = 1.0 - c
    R = np.empty((axes.shape[0], 3, 3))
    R[:, 0, 0] = x * x * C + c
    R[:, 0, 1] = x * y * C - z * s
    R[:, 0, 2] = x * z * C + y * s
    R[:, 1, 0] = y * x * C + z * s
    R[:, 1, 1] = y * y * C + c
    R[:, 1, 2] = y * z * C - x * s
    R[:, 2, 0] = z * x * C - y * s
    R[:, 2, 1] = z * y * C + x * s
    R[:, 2, 2] = z * z * C + c
    return R


def quaternion_to_matrix_batch(q: np.ndarray) -> np.ndarray:
    """Unit quaternions ``(K, 4)`` to rotation matrices ``(K, 3, 3)``.

    Same arithmetic as :func:`quaternion_to_matrix`, vectorized over the
    leading axis.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError("quaternion batch must have shape (K, 4)")
    n = np.sqrt((q * q).sum(axis=1))
    if np.any(n < 1e-12):
        raise ValueError("zero quaternion has no orientation")
    w, x, y, z = (q / n[:, None]).T
    R = np.empty((q.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def pose_batch(
    self: TorsionTree,
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
    for k, br in enumerate(self.branches):
        angles = torsions[:, k]
        origin = coords[:, br.axis_from]  # (P, 3)
        axis = coords[:, br.axis_to] - origin
        norm = np.sqrt((axis * axis).sum(axis=1))
        active = (np.abs(angles) >= 1e-12) & (norm >= 1e-9)
        if not active.any():
            continue
        idx = np.nonzero(active)[0]
        R = rotation_about_axis_batch(axis[idx], angles[idx])
        o = origin[idx][:, None, :]
        moved = coords[np.ix_(idx, br.moved)]
        coords[np.ix_(idx, br.moved)] = (moved - o) @ R.transpose(0, 2, 1) + o
    root_pos = coords[:, self.root][:, None, :]  # (P, 1, 3)
    R = quaternion_to_matrix_batch(quaternions)
    coords = (coords - root_pos) @ R.transpose(0, 2, 1) + root_pos
    return coords + translations[:, None, :]


def ad4_gather_batch(
    box: GridBox, stack: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """``AD4Scorer._gather_batch``: ``(P, n_atoms, 3) -> (P,)`` summed map values.

    ``box`` stands for ``self.maps.box``; ``self._shape`` was
    ``np.array(box.shape)``.
    """
    _shape = np.array(box.shape)
    f = (coords - box.minimum) / box.spacing
    f = np.clip(f, 0.0, _shape - 1.000001)
    i0 = f.astype(np.intp)
    t = f - i0
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    x1, y1, z1 = x0 + 1, y0 + 1, z0 + 1
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    n = np.arange(stack.shape[0])[None, :]
    c00 = stack[n, x0, y0, z0] * (1 - tx) + stack[n, x1, y0, z0] * tx
    c10 = stack[n, x0, y1, z0] * (1 - tx) + stack[n, x1, y1, z0] * tx
    c01 = stack[n, x0, y0, z1] * (1 - tx) + stack[n, x1, y0, z1] * tx
    c11 = stack[n, x0, y1, z1] * (1 - tx) + stack[n, x1, y1, z1] * tx
    c0 = c00 * (1 - ty) + c10 * ty
    c1 = c01 * (1 - ty) + c11 * ty
    return (c0 * (1 - tz) + c1 * tz).sum(axis=1)


def vina_gather_batch(
    box: GridBox, stack: np.ndarray, coords: np.ndarray
) -> np.ndarray:
    """``VinaScorer._gather_batch``: ``(P, n_atoms, 3) -> (P,)`` summed values.

    ``box`` is ``self.box`` and ``stack`` is ``self._stack``.
    """
    _shape = np.array(box.shape)
    f = (coords - box.minimum) / box.spacing
    f = np.clip(f, 0.0, _shape - 1.000001)
    i0 = f.astype(np.intp)
    t = f - i0
    x0, y0, z0 = i0[..., 0], i0[..., 1], i0[..., 2]
    x1, y1, z1 = x0 + 1, y0 + 1, z0 + 1
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    s = stack
    n = np.arange(s.shape[0])[None, :]
    c00 = s[n, x0, y0, z0] * (1 - tx) + s[n, x1, y0, z0] * tx
    c10 = s[n, x0, y1, z0] * (1 - tx) + s[n, x1, y1, z0] * tx
    c01 = s[n, x0, y0, z1] * (1 - tx) + s[n, x1, y0, z1] * tx
    c11 = s[n, x0, y1, z1] * (1 - tx) + s[n, x1, y1, z1] * tx
    c0 = c00 * (1 - ty) + c10 * ty
    c1 = c01 * (1 - ty) + c11 * ty
    return (c0 * (1 - tz) + c1 * tz).sum(axis=1)


class OracleStackGather:
    """The ``StackGather`` interface over the original gather bodies.

    A two-stack set is an AD4 scorer (affinity, electrostatic stacks),
    a one-stack set a Vina scorer; each stack is gathered by its own
    original body, one call per stack as before.
    """

    def __init__(self, box: GridBox, stacks: np.ndarray) -> None:
        self.box = box
        self.stacks = stacks
        self.body = ad4_gather_batch if stacks.shape[0] == 2 else vina_gather_batch

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.body(self.box, stack, coords) for stack in self.stacks]
        )
