"""Uniform lattices and finite-difference operators on flat value arrays.

The lattice is an axis-aligned box with equal spacing ``h`` on every axis.
Each axis is either periodic (neighbor lookups wrap around) or clamped
(out-of-range neighbors are replaced by the nearest boundary point, a
one-sided zero-gradient extension).  Linear indices are row-major so that
iteration order, tie-breaking, and file output are reproducible.

A grid function at one time level is a flat float64 array of
``npoints`` values in that order.  Operators are pure maps over grid
points (read-only input, disjoint writes) and safe to evaluate
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

BLOCK_ELEMENTS = 1 << 15  # float64 values per block of a blocked reduction (256 KiB)


def _axis_tuple(value, dim, cast):
    if np.ndim(value) == 0:
        return tuple(cast(value) for _ in range(dim))
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ConfigurationError(f"expected {dim} per-axis entries, got {len(out)}")
    return out


@dataclass(frozen=True, eq=False)
class Grid:
    """Axis-aligned lattice with spacing ``h`` and per-axis topology.

    On periodic axes the physical extent is ``points * h`` exactly; on
    clamped axes it is ``(points - 1) * h``.
    """

    spacing: float
    points_per_axis: tuple
    origin: tuple = None
    periodic: tuple = None

    def __post_init__(self):
        if np.ndim(self.points_per_axis) == 0:
            pts = (int(self.points_per_axis),)
        else:
            pts = tuple(int(n) for n in self.points_per_axis)
        object.__setattr__(self, "points_per_axis", pts)
        dim = len(pts)
        h = float(self.spacing)
        if not (h > 0.0 and np.isfinite(h)):
            raise ConfigurationError(f"spacing must be a positive real, got {self.spacing}")
        object.__setattr__(self, "spacing", h)
        for n in pts:
            if n < 3:
                raise ConfigurationError("need at least 3 points per axis for central differences")
        origin = (0.0,) * dim if self.origin is None else _axis_tuple(self.origin, dim, float)
        periodic = (True,) * dim if self.periodic is None else _axis_tuple(self.periodic, dim, bool)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "periodic", periodic)

        # Precomputed flat neighbor tables, one per (axis, direction).
        neighbors = {}
        index_grids = np.indices(pts)
        for axis in range(dim):
            n = pts[axis]
            for direction in (+1, -1):
                shifted = list(index_grids)
                j = index_grids[axis] + direction
                if periodic[axis]:
                    j = j % n
                else:
                    j = np.clip(j, 0, n - 1)
                shifted[axis] = j
                neighbors[(axis, direction)] = np.ravel_multi_index(shifted, pts).ravel()
        object.__setattr__(self, "_neighbors", neighbors)

        # Every level and policy check compares its size against this,
        # so it is computed once here.
        object.__setattr__(self, "npoints", math.prod(pts))
        coords = np.empty((self.npoints, dim))
        for axis in range(dim):
            coords[:, axis] = origin[axis] + h * index_grids[axis].ravel()
        coords.setflags(write=False)
        object.__setattr__(self, "_coords", coords)

    @property
    def dim(self):
        return len(self.points_per_axis)

    @property
    def shape(self):
        return self.points_per_axis

    def axis_extent(self, axis):
        n = self.points_per_axis[axis]
        return n * self.spacing if self.periodic[axis] else (n - 1) * self.spacing

    def coordinates(self):
        """All point coordinates as an (npoints, dim) read-only array."""
        return self._coords

    def ravel_index(self, multi):
        return int(np.ravel_multi_index(tuple(int(m) for m in multi), self.points_per_axis))

    def neighbor_table(self, axis, direction):
        return self._neighbors[(axis, direction)]

    def nearest_index(self, x, on_exit="raise"):
        """Linear index of the lattice point nearest to ``x``.

        Periodic axes wrap.  On clamped axes a point more than half a cell
        outside the box either raises (``on_exit='raise'``) or returns None.
        """
        x = np.asarray(x, dtype=float).reshape(self.dim)
        multi = []
        for axis in range(self.dim):
            n = self.points_per_axis[axis]
            j = int(np.floor((x[axis] - self.origin[axis]) / self.spacing + 0.5))
            if self.periodic[axis]:
                j %= n
            elif j < 0 or j > n - 1:
                if on_exit == "raise":
                    raise IndexError(f"point {x} is outside the clamped grid on axis {axis}")
                return None
            multi.append(j)
        return self.ravel_index(multi)

    def interior_mask(self, collar):
        """Boolean mask of points at distance >= ``collar`` from clamped boundaries."""
        mask = np.ones(self.npoints, dtype=bool)
        if collar <= 0.0:
            return mask
        coords = self.coordinates()
        for axis in range(self.dim):
            if self.periodic[axis]:
                continue
            lo = self.origin[axis] + collar - 1e-12
            hi = self.origin[axis] + self.axis_extent(axis) - collar + 1e-12
            mask &= (coords[:, axis] >= lo) & (coords[:, axis] <= hi)
        return mask


def row_blocks(rows, width):
    """Slices that cut ``rows`` rows of ``width`` values into blocks.

    Each block has ``max(1, BLOCK_ELEMENTS // width)`` rows, the last one
    what is left, so a temporary over one block holds about
    ``BLOCK_ELEMENTS`` values however large the whole array is.
    """
    size = max(1, BLOCK_ELEMENTS // width)
    return [slice(lo, min(lo + size, rows)) for lo in range(0, rows, size)]


def gradient_central_values(grid, values):
    """Central-difference gradient of a flat value array at every point, (npoints, dim)."""
    out = np.empty((grid.npoints, grid.dim))
    inv = 1.0 / (2.0 * grid.spacing)
    for axis in range(grid.dim):
        up = values[grid.neighbor_table(axis, +1)]
        dn = values[grid.neighbor_table(axis, -1)]
        out[:, axis] = (up - dn) * inv
    return out


def laplacian_values(grid, values):
    """The (2d+1)-point discrete Laplacian at every point, (npoints,)."""
    out = np.zeros(grid.npoints)
    inv = 1.0 / (grid.spacing * grid.spacing)
    for axis in range(grid.dim):
        up = values[grid.neighbor_table(axis, +1)]
        dn = values[grid.neighbor_table(axis, -1)]
        out += (up - 2.0 * values + dn) * inv
    return out


class RowStencil:
    """The central gradient and the (2d+1)-point Laplacian of one row, fused.

    One neighbor gather per axis and direction serves both.  The arithmetic
    is that of ``gradient_central_values`` and ``laplacian_values`` bit for
    bit, down to the ``0.0 +`` the Laplacian sum starts from: it fixes the
    sign of a zero.  The work buffers are allocated once, so a sweep that
    keeps one instance allocates nothing per level; calls sharing an
    instance must not overlap.
    """

    def __init__(self, grid):
        self.tables = [(grid.neighbor_table(axis, +1), grid.neighbor_table(axis, -1))
                       for axis in range(grid.dim)]
        self.inv = 1.0 / (2.0 * grid.spacing)
        self.inv2 = 1.0 / (grid.spacing * grid.spacing)
        self.up, self.dn, self.twice = (np.empty(grid.npoints) for _ in range(3))

    def __call__(self, v, grads, lap):
        """Write the gradient of row ``v`` into ``grads`` and its Laplacian into ``lap``."""
        up, dn, twice = self.up, self.dn, self.twice
        np.multiply(v, 2.0, out=twice)
        for axis, (up_table, dn_table) in enumerate(self.tables):
            # the tables are in range; "raise" would copy through a buffer
            v.take(up_table, out=up, mode="clip")
            v.take(dn_table, out=dn, mode="clip")
            col = grads[:, axis]
            np.subtract(up, dn, out=col)
            np.multiply(col, self.inv, out=col)
            np.subtract(up, twice, out=up)
            np.add(up, dn, out=up)
            np.multiply(up, self.inv2, out=up)
            if axis == 0:
                np.add(up, 0.0, out=lap)
            else:
                np.add(lap, up, out=lap)


def _row_dot(a, b, out=None, work=None):
    """``np.sum(a * b, axis=-1)`` of two broadcasting arrays, bit for bit.

    numpy 2 sums an axis shorter than 8 left to right starting from 0.0
    (so a lone -0.0 sums to 0.0), and a loop over the axes gives the same
    bits without the full product; a longer axis is summed pairwise and is
    left to ``np.sum``.  ``out`` and ``work`` are optional buffers of the
    result's shape.  ``tests/test_legendre_sweep.py`` checks the bits
    against ``np.sum``.
    """
    if a.shape[-1] >= 8:
        return np.sum(a * b, axis=-1, out=out)
    out = np.multiply(a[..., 0], b[..., 0], out=out)
    np.add(out, 0.0, out=out)
    for axis in range(1, a.shape[-1]):
        work = np.multiply(a[..., axis], b[..., axis], out=work)
        np.add(out, work, out=out)
    return out

