"""The docking grid box (AutoGrid's npts/spacing/gridcenter)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: AutoGrid's default grid spacing in Angstrom.
DEFAULT_SPACING = 0.375


@dataclass
class GridBox:
    """An axis-aligned grid of points centred on the binding site.

    ``npts`` counts grid *intervals* per dimension like AutoGrid does, so
    the number of points per axis is ``npts + 1`` and must be even in
    AutoGrid convention (we only require positivity).
    """

    center: np.ndarray
    npts: tuple[int, int, int] = (24, 24, 24)
    spacing: float = DEFAULT_SPACING

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64)
        if self.center.shape != (3,):
            raise ValueError("grid center must be a 3-vector")
        if any(n <= 0 for n in self.npts):
            raise ValueError(f"npts must be positive, got {self.npts}")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Points per axis (npts + 1)."""
        return tuple(n + 1 for n in self.npts)

    @property
    def dimensions(self) -> np.ndarray:
        """Physical edge lengths in Angstrom."""
        return np.array(self.npts, dtype=np.float64) * self.spacing

    @property
    def minimum(self) -> np.ndarray:
        return self.center - self.dimensions / 2.0

    @property
    def maximum(self) -> np.ndarray:
        return self.center + self.dimensions / 2.0

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis coordinate vectors of the grid points."""
        lo = self.minimum
        return tuple(
            lo[d] + np.arange(self.shape[d]) * self.spacing for d in range(3)
        )

    def points(self) -> np.ndarray:
        """All grid points as a (P, 3) array in z-fastest order.

        Point ``(ix, iy, iz)`` is row ``(ix * ny + iy) * nz + iz``, the
        flat order of the map planes and of ``.map`` files.
        """
        ax, ay, az = self.axes()
        X, Y, Z = np.meshgrid(ax, ay, az, indexing="ij")
        return np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def contains(self, coords: np.ndarray) -> np.ndarray:
        """Boolean mask of which coordinates fall inside the box."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        lo, hi = self.minimum, self.maximum
        return np.all((coords >= lo) & (coords <= hi), axis=1)

    def fractional_index(self, coords: np.ndarray) -> np.ndarray:
        """Continuous grid indices of coordinates (for interpolation)."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
        return (coords - self.minimum) / self.spacing

    def to_dict(self) -> dict:
        """JSON-safe representation (exact float round-trip via repr)."""
        return {
            "center": [float(c) for c in self.center],
            "npts": list(self.npts),
            "spacing": float(self.spacing),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GridBox":
        return cls(
            center=np.asarray(doc["center"], dtype=np.float64),
            npts=tuple(int(n) for n in doc["npts"]),
            spacing=float(doc["spacing"]),
        )

    @classmethod
    def around_pocket(
        cls,
        pocket_center: np.ndarray,
        pocket_radius: float,
        spacing: float = DEFAULT_SPACING,
        padding: float = 3.0,
    ) -> "GridBox":
        """Box sized to cover a spherical pocket plus padding."""
        if pocket_radius <= 0:
            raise ValueError("pocket radius must be positive")
        edge = 2.0 * (pocket_radius + padding)
        n = int(np.ceil(edge / spacing))
        n += n % 2  # AutoGrid keeps npts even
        return cls(center=np.asarray(pocket_center, dtype=np.float64),
                   npts=(n, n, n), spacing=spacing)

    @classmethod
    def around_ligand(
        cls,
        ligand_coords: np.ndarray,
        spacing: float = DEFAULT_SPACING,
        padding: float = 4.0,
    ) -> "GridBox":
        """Box covering a ligand's current position plus padding."""
        coords = np.asarray(ligand_coords, dtype=np.float64)
        lo = coords.min(axis=0) - padding
        hi = coords.max(axis=0) + padding
        center = (lo + hi) / 2
        n = int(np.ceil((hi - lo).max() / spacing))
        n += n % 2
        return cls(center=center, npts=(n, n, n), spacing=spacing)
