"""Uniform lattices, scalar fields on them, and finite-difference operators.

The lattice is an axis-aligned box with equal spacing ``h`` on every axis.
Each axis is either periodic (neighbor lookups wrap around) or clamped
(out-of-range neighbors are replaced by the nearest boundary point, a
one-sided zero-gradient extension).  Linear indices are row-major so that
iteration order, tie-breaking, and file output are reproducible.

Operators are pure maps over grid points (read-only input, disjoint
writes) and safe to evaluate concurrently; Field values are frozen at
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


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

        # Every Field construction and policy check compares its size
        # against this, so it is computed once here.
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

    def unravel_index(self, index):
        self._check_index(index)
        return tuple(int(m) for m in np.unravel_index(int(index), self.points_per_axis))

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

    def _check_index(self, index):
        if not 0 <= int(index) < self.npoints:
            raise IndexError(f"linear index {index} out of range [0, {self.npoints})")


@dataclass(frozen=True, eq=False)
class Field:
    """Scalar values over a grid at one time level.  Values are immutable."""

    grid: Grid
    values: np.ndarray
    time_label: float = 0.0

    def __post_init__(self):
        values = np.array(self.values, dtype=float).ravel()
        if values.size != self.grid.npoints:
            raise ConfigurationError(
                f"field has {values.size} values for a grid of {self.grid.npoints} points")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ConfigurationError(f"non-finite field value at linear index {bad}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "time_label", float(self.time_label))

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))


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


def gradient_central_field(field):
    return gradient_central_values(field.grid, field.values)
