"""Unit tests for GridBox."""

import numpy as np
import pytest

from repro.docking.box import GridBox


class TestGridBox:
    def test_shape_is_npts_plus_one(self):
        box = GridBox(center=[0, 0, 0], npts=(10, 12, 14))
        assert box.shape == (11, 13, 15)

    def test_dimensions(self):
        box = GridBox(center=[0, 0, 0], npts=(10, 10, 10), spacing=0.5)
        assert np.allclose(box.dimensions, [5.0, 5.0, 5.0])

    def test_min_max_symmetric_about_center(self):
        box = GridBox(center=[1.0, 2.0, 3.0], npts=(8, 8, 8), spacing=0.5)
        assert np.allclose((box.minimum + box.maximum) / 2, [1, 2, 3])

    def test_invalid_center_raises(self):
        with pytest.raises(ValueError):
            GridBox(center=[0, 0])

    def test_invalid_npts_raises(self):
        with pytest.raises(ValueError):
            GridBox(center=[0, 0, 0], npts=(0, 4, 4))

    def test_invalid_spacing_raises(self):
        with pytest.raises(ValueError):
            GridBox(center=[0, 0, 0], spacing=-1.0)

    def test_points_count_and_ordering(self):
        box = GridBox(center=[0, 0, 0], npts=(2, 2, 2), spacing=1.0)
        pts = box.points()
        assert pts.shape == (27, 3)
        # meshgrid 'ij' + ravel: z varies fastest, so (ix, iy, iz) is
        # row (ix * ny + iy) * nz + iz.
        assert np.allclose(pts[0], box.minimum)
        assert np.allclose(pts[-1], box.maximum)
        assert np.allclose(pts[1] - pts[0], [0.0, 0.0, 1.0])
        ix, iy, iz = 1, 2, 0
        assert np.allclose(pts[(ix * 3 + iy) * 3 + iz], box.minimum + [ix, iy, iz])

    def test_axes_span_box(self):
        box = GridBox(center=[0, 0, 0], npts=(4, 4, 4), spacing=0.5)
        ax, ay, az = box.axes()
        assert ax[0] == pytest.approx(box.minimum[0])
        assert ax[-1] == pytest.approx(box.maximum[0])
        assert len(ay) == box.shape[1]

    def test_contains(self):
        box = GridBox(center=[0, 0, 0], npts=(10, 10, 10), spacing=1.0)
        inside = box.contains([[0, 0, 0], [4.9, 0, 0], [5.1, 0, 0]])
        assert inside.tolist() == [True, True, False]

    def test_fractional_index(self):
        box = GridBox(center=[0, 0, 0], npts=(10, 10, 10), spacing=1.0)
        f = box.fractional_index([[0.0, 0.0, 0.0]])
        assert np.allclose(f, [[5, 5, 5]])

    def test_around_pocket_covers_sphere(self):
        box = GridBox.around_pocket([1, 1, 1], pocket_radius=5.0, padding=2.0)
        assert np.all(box.dimensions >= 13.9)
        assert np.allclose(box.center, [1, 1, 1])

    def test_around_pocket_invalid_radius(self):
        with pytest.raises(ValueError):
            GridBox.around_pocket([0, 0, 0], pocket_radius=0.0)

    def test_around_pocket_even_npts(self):
        box = GridBox.around_pocket([0, 0, 0], pocket_radius=5.0)
        assert all(n % 2 == 0 for n in box.npts)

    def test_around_ligand_contains_ligand(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(scale=3, size=(20, 3))
        box = GridBox.around_ligand(coords, padding=2.0)
        assert box.contains(coords).all()
