import numpy as np
import pytest

from hjbpi.errors import ConfigurationError
from hjbpi.grid import Grid, RowStencil, gradient_central_values, laplacian_values


def line_grid(h=0.5, n=9, origin=-2.0, periodic=False):
    return Grid(spacing=h, points_per_axis=(n,), origin=(origin,), periodic=(periodic,))


def test_central_exact_on_affine():
    grid = line_grid()
    grads = gradient_central_values(grid, grid.coordinates()[:, 0])
    for point in range(1, grid.npoints - 1):
        assert grads[point, 0] == 1.0


def test_central_exact_on_quadratic():
    # ((1.5)^2 - (0.5)^2) / (2 * 0.5) = 2.0 at x = 1
    grid = line_grid(h=0.5, n=9, origin=-2.0)
    v = grid.coordinates()[:, 0] ** 2
    point = grid.nearest_index([1.0])
    assert gradient_central_values(grid, v)[point, 0] == pytest.approx(2.0, abs=1e-14)


def test_constant_field_annihilated():
    grid = line_grid(periodic=True)
    v = np.full(grid.npoints, 3.7)
    grads = gradient_central_values(grid, v)
    lap = laplacian_values(grid, v)
    for point in range(grid.npoints):
        assert grads[point, 0] == 0.0
        assert lap[point] == 0.0


def test_laplacian_at_abs_kink():
    grid = line_grid(h=0.5, n=9, origin=-2.0)
    v = np.abs(grid.coordinates()[:, 0])
    origin_pt = grid.nearest_index([0.0])
    # (0.5 - 0 + 0.5) / 0.25 = 4.0
    assert laplacian_values(grid, v)[origin_pt] == 4.0


def test_laplacian_exact_on_quadratic():
    grid = line_grid(h=0.3, n=11, origin=0.0)
    lap = laplacian_values(grid, grid.coordinates()[:, 0] ** 2)
    for point in range(1, grid.npoints - 1):
        assert lap[point] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(16,), (7, 9), (4, 5, 6)])
def test_central_is_mean_of_one_sided(shape, periodic):
    rng = np.random.default_rng(7)
    grid = Grid(spacing=0.25, points_per_axis=shape, periodic=(periodic,) * len(shape))
    v = rng.uniform(-1, 1, grid.npoints)
    central = gradient_central_values(grid, v)
    forward = np.stack([(v[grid.neighbor_table(axis, +1)] - v) / grid.spacing
                        for axis in range(grid.dim)], axis=-1)
    backward = np.stack([(v - v[grid.neighbor_table(axis, -1)]) / grid.spacing
                         for axis in range(grid.dim)], axis=-1)
    mean = 0.5 * (forward + backward)
    tol = 8 * np.finfo(float).eps * np.max(np.abs(v)) / grid.spacing
    assert np.max(np.abs(central - mean)) <= tol


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("shape", [(16,), (7, 9), (4, 5, 6)])
def test_row_stencil_has_the_bits_of_the_two_operators(shape, periodic):
    rng = np.random.default_rng(3)
    grid = Grid(spacing=0.3, points_per_axis=shape, periodic=(periodic,) * len(shape))
    stencil = RowStencil(grid)
    # rows of a (levels, points, dim) array, one instance for all of them
    grads = np.empty((3, grid.npoints, grid.dim))
    lap = np.empty(grid.npoints)
    for level, scale in enumerate((1.0, 1e-300, 0.0)):
        v = rng.uniform(-1, 1, grid.npoints) * scale
        v[::5] = -0.0  # a flat patch of signed zeros
        stencil(v, grads[level], lap)
        assert grads[level].tobytes() == gradient_central_values(grid, v).tobytes()
        assert lap.tobytes() == laplacian_values(grid, v).tobytes()


def test_operators_linear():
    rng = np.random.default_rng(11)
    grid = Grid(spacing=0.2, points_per_axis=(6, 8))
    u = rng.uniform(-1, 1, grid.npoints)
    w = rng.uniform(-1, 1, grid.npoints)
    a, b = 1.7, -0.4
    for op in (gradient_central_values, laplacian_values):
        assert np.allclose(op(grid, a * u + b * w),
                           a * op(grid, u) + b * op(grid, w), atol=1e-12)


def test_periodic_laplacian_sums_to_zero():
    rng = np.random.default_rng(3)
    grid = Grid(spacing=0.1, points_per_axis=(12, 10))
    v = rng.uniform(-2, 2, grid.npoints)
    total = np.sum(laplacian_values(grid, v))
    tol = 1e-10 * grid.npoints * np.max(np.abs(v)) / grid.spacing ** 2
    assert abs(total) <= tol


def test_clamped_boundary_uses_nearest_value():
    grid = line_grid(h=1.0, n=3, origin=0.0, periodic=False)
    v = np.array([5.0, 7.0, 11.0])
    # right neighbor of the last point is itself
    assert gradient_central_values(grid, v)[2, 0] == (11.0 - 7.0) / 2.0
    assert laplacian_values(grid, v)[2] == (11.0 - 2 * 11.0 + 7.0)


def test_periodic_wraparound():
    grid = line_grid(h=1.0, n=4, origin=0.0, periodic=True)
    grads = gradient_central_values(grid, np.array([1.0, 2.0, 3.0, 4.0]))
    assert grads[0, 0] == (2.0 - 4.0) / 2.0
    assert grads[3, 0] == (1.0 - 3.0) / 2.0


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(spacing=0.1, points_per_axis=(2,))
    with pytest.raises(ConfigurationError):
        Grid(spacing=-0.1, points_per_axis=(5,))
    with pytest.raises(ConfigurationError):
        Grid(spacing=0.1, points_per_axis=(5,), origin=(0.0, 0.0))


def test_index_roundtrip_row_major():
    grid = Grid(spacing=0.1, points_per_axis=(3, 4, 5))
    assert grid.ravel_index((0, 0, 1)) == 1  # last axis varies fastest
    for idx in [0, 1, 17, grid.npoints - 1]:
        assert grid.ravel_index(np.unravel_index(idx, grid.shape)) == idx


def test_nearest_index_and_extent():
    grid = Grid(spacing=0.5, points_per_axis=(4,), origin=(0.0,), periodic=(True,))
    assert grid.axis_extent(0) == 2.0
    assert grid.nearest_index([2.1]) == 0  # wraps
    clamped = line_grid(h=0.5, n=5, origin=0.0)
    assert clamped.axis_extent(0) == 2.0
    with pytest.raises(IndexError):
        clamped.nearest_index([2.6])
    assert clamped.nearest_index([2.6], on_exit=None) is None


def test_interior_mask_collar():
    grid = line_grid(h=0.5, n=9, origin=-2.0)  # box [-2, 2]
    mask = grid.interior_mask(1.0)
    xs = grid.coordinates()[:, 0]
    assert np.array_equal(mask, (xs >= -1.0 - 1e-12) & (xs <= 1.0 + 1e-12))
    periodic = line_grid(h=0.5, n=9, periodic=True)
    assert periodic.interior_mask(1.0).all()
