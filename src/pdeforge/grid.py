"""Uniform interior grid on [0,1]^2 and scalar fields discretized on it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class Grid2D:
    """n_interior x n_interior interior nodes of the unit square.

    Unknowns are interior nodes only; boundary values are zero Dirichlet and
    eliminated from assembled systems. Node (i, j) sits at (i*h, j*h) for
    i, j = 0..n_interior+1, h = 1/(n_interior+1).
    """

    n_interior: int

    def __post_init__(self):
        if self.n_interior < 1:
            raise GridError(f"n_interior must be >= 1, got {self.n_interior}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def n_nodes(self) -> int:
        """Nodes per axis including boundary."""
        return self.n_interior + 2

    @property
    def n_unknowns(self) -> int:
        return self.n_interior * self.n_interior

    def node_coords(self) -> np.ndarray:
        """Coordinates of all nodes along one axis, boundary included."""
        return np.linspace(0.0, 1.0, self.n_nodes)


@dataclass
class FieldSample:
    """A scalar function on the full node set, boundary included.

    values is (n+2, n+2) row-major: values[i, j] = field at (i*h, j*h).
    The program passes such node arrays; numpy takes a FieldSample as one.
    """

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.grid.n_nodes
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (m, m):
            raise GridError(
                f"field values shape {self.values.shape} does not match "
                f"({m}, {m}) node set"
            )

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The node values, as numpy 2 (dtype, copy) or 1 (dtype) asks."""
        values = np.asarray(self.values, dtype=dtype)
        return values.copy() if copy else values

    def interior(self) -> np.ndarray:
        """The n^2 interior values, row-major, as a flat vector (copy)."""
        return self.values[1:-1, 1:-1].reshape(-1).copy()

    def boundary_max_abs(self) -> float:
        v = self.values
        edges = np.concatenate([v[0, :], v[-1, :], v[1:-1, 0], v[1:-1, -1]])
        return float(np.max(np.abs(edges))) if edges.size else 0.0

    @classmethod
    def from_interior(cls, grid: Grid2D, interior: np.ndarray) -> "FieldSample":
        """Embed interior values in a full node array with zero boundary."""
        n = grid.n_interior
        interior = np.asarray(interior, dtype=np.float64)
        if interior.shape == (n * n,):
            interior = interior.reshape(n, n)
        if interior.shape != (n, n):
            raise GridError(f"interior shape {interior.shape} != ({n}, {n})")
        full = np.zeros((grid.n_nodes, grid.n_nodes))
        full[1:-1, 1:-1] = interior
        return cls(grid, full)

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "FieldSample":
        m = grid.n_nodes
        return cls(grid, np.full((m, m), float(value)))
