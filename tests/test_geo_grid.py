"""Tests for repro.geo.grid."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geo.grid import Grid
from repro.geo.point import Point


@pytest.fixture
def paper_grid():
    """The paper's 100x50 grid over a 20x10 km extent."""
    return Grid(width_km=20.0, height_km=10.0, rows=100, cols=50)


class TestConstruction:
    def test_defaults_match_paper(self):
        g = Grid()
        assert (g.rows, g.cols) == (100, 50)

    @pytest.mark.parametrize("kwargs", [
        {"width_km": 0.0}, {"height_km": -1.0}, {"rows": 0}, {"cols": -2},
    ])
    def test_rejects_degenerate(self, kwargs):
        with pytest.raises(ValueError):
            Grid(**kwargs)

    def test_cell_sizes(self, paper_grid):
        assert paper_grid.cell_width == pytest.approx(0.2)
        assert paper_grid.cell_height == pytest.approx(0.2)
        assert paper_grid.n_cells == 5000


class TestCellMapping:
    def test_origin_is_cell_zero(self, paper_grid):
        assert paper_grid.to_cell(Point(0, 0)) == (0, 0)

    def test_far_corner_is_last_cell(self, paper_grid):
        assert paper_grid.to_cell(Point(20.0, 10.0)) == (99, 49)

    def test_out_of_bounds_clamps(self, paper_grid):
        assert paper_grid.to_cell(Point(-5, 100)) == (0, 49)

    def test_cell_center_roundtrip(self, paper_grid):
        for i, j in [(0, 0), (50, 25), (99, 49)]:
            center = paper_grid.cell_center(i, j)
            assert paper_grid.to_cell(center) == (i, j)

    def test_cell_center_bounds_checked(self, paper_grid):
        with pytest.raises(IndexError):
            paper_grid.cell_center(100, 0)

    @given(st.floats(0, 20), st.floats(0, 10))
    def test_fractional_cell_roundtrip_stays_in_cell(self, x, y):
        g = Grid(width_km=20.0, height_km=10.0, rows=100, cols=50)
        p = Point(x, y)
        ci, cj = g.to_fractional_cell(p)
        back = g.from_fractional_cell(ci, cj)
        assert back.distance_to(p) < 1e-9

    @given(
        st.integers(1, 7), st.integers(1, 7),
        st.lists(st.tuples(st.integers(-2, 16), st.integers(-2, 16)), min_size=1, max_size=20),
        st.lists(st.tuples(st.floats(-3, 12), st.floats(-3, 12)), max_size=20),
    )
    def test_flat_cell_array_matches_to_cell(self, rows, cols, edges, anywhere):
        """The vectorised binning lands every point, cell edges and
        points outside the extent included, in ``to_cell``'s cell."""
        g = Grid(width_km=7.5, height_km=4.2, rows=rows, cols=cols)
        points = [(a * g.cell_width / 2, b * g.cell_height / 2) for a, b in edges] + anywhere
        flat = g.to_flat_cell_array(np.array(points))
        want = [i * cols + j for i, j in (g.to_cell(Point(x, y)) for x, y in points)]
        assert flat.tolist() == want

    def test_contains(self, paper_grid):
        assert paper_grid.contains(Point(10, 5))
        assert not paper_grid.contains(Point(21, 5))


class TestNormalization:
    def test_normalize_unit_square(self, paper_grid):
        pts = np.array([[0.0, 0.0], [20.0, 10.0], [10.0, 5.0]])
        normed = paper_grid.normalize(pts)
        assert np.allclose(normed, [[0, 0], [1, 1], [0.5, 0.5]])

    def test_denormalize_inverse(self, paper_grid):
        rng = np.random.default_rng(0)
        pts = rng.uniform([0, 0], [20, 10], size=(50, 2))
        assert np.allclose(paper_grid.denormalize(paper_grid.normalize(pts)), pts)

    def test_cell_array_roundtrip(self, paper_grid):
        rng = np.random.default_rng(1)
        pts = rng.uniform([0, 0], [20, 10], size=(30, 2))
        cells = paper_grid.to_cell_array(pts)
        assert cells.min() >= 0
        assert np.all(cells[:, 0] <= 100) and np.all(cells[:, 1] <= 50)
        assert np.allclose(paper_grid.from_cell_array(cells), pts)

    def test_cell_array_clips_outside(self, paper_grid):
        pts = np.array([[-3.0, 30.0]])
        cells = paper_grid.to_cell_array(pts)
        assert np.allclose(cells, [[0.0, 50.0]])
