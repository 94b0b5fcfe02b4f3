"""Rigid-body geometry: rotations, alignment, RMSD.

All routines operate on ``(N, 3)`` float64 arrays and are fully
vectorized; they sit on the hot path of the docking search (every GA
individual / MC step re-poses the ligand).
"""

from __future__ import annotations

import numpy as np


def centroid(coords: np.ndarray) -> np.ndarray:
    """Mean position of a coordinate set."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] == 0:
        raise ValueError(f"expected non-empty (N, 3) array, got {coords.shape}")
    return coords.mean(axis=0)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation of ``angle`` radians about ``axis``.

    Rodrigues' formula; ``axis`` need not be normalized.
    """
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise ValueError("rotation axis must be non-zero")
    x, y, z = axis / norm
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [x * x * C + c, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, y * y * C + c, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, z * z * C + c],
        ]
    )


#: Rodrigues' constant term ``c I + s [u]_x`` as a pick from the row
#: ``(c, xs, ys, zs, -xs, -ys, -zs)``, row-major over the 3x3 matrix.
_RODRIGUES_PICK = np.array([0, 6, 2, 3, 0, 4, 5, 1, 0])


def rotation_about_axis_batch(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotation matrices for ``(K, 3)`` axes / ``(K,)`` angles.

    Per-row arithmetic matches :func:`rotation_about_axis` exactly, so a
    batched pose evaluation reproduces the scalar one bit-for-bit.
    """
    axes = np.asarray(axes, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    norms = np.sqrt((axes * axes).sum(axis=1))
    if (norms < 1e-12).any():
        raise ValueError("rotation axis must be non-zero")
    return rodrigues_batch(axes, norms, angles)


def rodrigues_batch(
    axes: np.ndarray, norms: np.ndarray, angles: np.ndarray
) -> np.ndarray:
    """:func:`rotation_about_axis_batch` for callers holding the norms.

    ``norms`` must be ``sqrt((axes * axes).sum(axis=1))``, all non-zero;
    :meth:`TorsionTree.pose_batch` has just computed them to decide
    which rows turn. The matrices are ``(u u^T) C + (c I + s [u]_x)``
    with ``u = axes / norms`` and ``C = 1 - c``: a dozen array
    operations instead of one chain per matrix entry, which is what a
    two-pose Solis-Wets batch pays for. Entry by entry this is the
    arithmetic of :func:`rotation_about_axis` (``y*x == x*y`` and
    ``a + (-b) == a - b`` hold exactly in IEEE 754).
    """
    u = axes / norms[:, None]
    c, s = np.cos(angles), np.sin(angles)
    su = u * s[:, None]
    terms = np.concatenate((c[:, None], su, -su), axis=1)
    R = (u[:, :, None] * u[:, None, :]) * (1.0 - c)[:, None, None]
    R += terms.take(_RODRIGUES_PICK, axis=1).reshape(-1, 3, 3)
    return R


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) to a 3x3 rotation matrix."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise ValueError("quaternion must have shape (4,)")
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("zero quaternion has no orientation")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


#: Quaternion matrix entries as ``first + sign * second`` over the
#: products ``u_a u_b`` of the unit quaternion (w, x, y, z) = u_0..u_3,
#: flattened to ``4 a + b``; the diagonal is ``1 - 2 (...)``, the rest
#: ``2 (...)``, row-major over the 3x3 matrix.
_QUAT_FIRST = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5])  # yy xy xz xy xx yz xz yz xx
_QUAT_SECOND = np.array([15, 3, 2, 3, 15, 1, 2, 1, 10])  # zz wz wy wz zz wx wy wx yy
_QUAT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_DIAGONAL = np.array([0, 4, 8])


def quaternion_to_matrix_batch(q: np.ndarray) -> np.ndarray:
    """Unit quaternions ``(K, 4)`` to rotation matrices ``(K, 3, 3)``.

    Same arithmetic as :func:`quaternion_to_matrix`, vectorized over the
    leading axis: every entry is read from the 4x4 product table of the
    normalized quaternion in a few array operations, which is what one
    pose batch pays for (``a + (-b) == a - b`` holds exactly).
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError("quaternion batch must have shape (K, 4)")
    n = np.sqrt((q * q).sum(axis=1))
    if (n < 1e-12).any():
        raise ValueError("zero quaternion has no orientation")
    u = q / n[:, None]
    products = (u[:, :, None] * u[:, None, :]).reshape(-1, 16)
    R = 2 * (
        products.take(_QUAT_FIRST, axis=1)
        + products.take(_QUAT_SECOND, axis=1) * _QUAT_SIGN
    )
    R[:, _DIAGONAL] = 1 - R[:, _DIAGONAL]
    return R.reshape(-1, 3, 3)


def random_rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation (via a random unit quaternion)."""
    q = rng.normal(size=4)
    return quaternion_to_matrix(q)


def random_unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def apply_rotation(
    coords: np.ndarray, rotation: np.ndarray, origin: np.ndarray | None = None
) -> np.ndarray:
    """Rotate ``coords`` about ``origin`` (default: their centroid)."""
    coords = np.asarray(coords, dtype=np.float64)
    if origin is None:
        origin = centroid(coords)
    return (coords - origin) @ rotation.T + origin


def rmsd(a: np.ndarray, b: np.ndarray) -> float:
    """Plain (identity-mapping) root-mean-square deviation in Angstrom.

    This is what AutoDock reports in its RMSD tables: atoms are compared
    in input order, with no optimal superposition.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        raise ValueError("cannot compute RMSD of empty coordinate sets")
    return float(np.sqrt(((a - b) ** 2).sum(axis=1).mean()))


def symmetric_rmsd(a: np.ndarray, b: np.ndarray) -> float:
    """Nearest-atom-mapping RMSD, tolerant to atom-order permutations.

    For each atom in ``a`` the closest atom in ``b`` is used (and vice
    versa, taking the max of the two directions so it stays symmetric).
    Vina uses a comparable symmetry-corrected measure.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 3 or b.shape[1] != 3:
        raise ValueError("expected (N, 3) coordinate arrays")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("cannot compute RMSD of empty coordinate sets")
    diff = a[:, None, :] - b[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    ab = float(np.sqrt(d2.min(axis=1).mean()))
    ba = float(np.sqrt(d2.min(axis=0).mean()))
    return max(ab, ba)


def kabsch_align(mobile: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal superposition of ``mobile`` onto ``target`` (Kabsch).

    Returns the transformed mobile coordinates and the post-alignment
    RMSD. Used by the clustering step and by analysis utilities.
    """
    mobile = np.asarray(mobile, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if mobile.shape != target.shape:
        raise ValueError(f"shape mismatch {mobile.shape} vs {target.shape}")
    mc, tc = centroid(mobile), centroid(target)
    P = mobile - mc
    Q = target - tc
    H = P.T @ Q
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    aligned = P @ R.T + tc
    return aligned, rmsd(aligned, target)


def dihedral_angle(
    p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray
) -> float:
    """Signed dihedral angle p0-p1-p2-p3 in radians."""
    b0 = np.asarray(p1, dtype=np.float64) - np.asarray(p0, dtype=np.float64)
    b1 = np.asarray(p2, dtype=np.float64) - np.asarray(p1, dtype=np.float64)
    b2 = np.asarray(p3, dtype=np.float64) - np.asarray(p2, dtype=np.float64)
    n1 = np.cross(b0, b1)
    n2 = np.cross(b1, b2)
    b1n = b1 / np.linalg.norm(b1)
    m1 = np.cross(n1, b1n)
    x = n1 @ n2
    y = m1 @ n2
    return float(np.arctan2(y, x))
