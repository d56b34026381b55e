"""Finite-difference assembly of PDE operators into CSR, SpMV, dense oracle.

Three operators on zero-Dirichlet interior unknowns:

  Darcy flow            -div(a grad u) = f,  flux-form 5-point, SPD
  Helmholtz             lap(u) + k2*u = f
  Diffusion-reaction    div(k grad u) + q*u = f

plus a unit-spacing Helmholtz assembly (diagonal -4+k, unit
off-diagonals, no 1/h^2 scaling) kept for golden tests.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from .grid import FieldSample, Grid2D

DEFAULT_ORACLE_CAP = 4096


class DimensionError(ValueError):
    pass


class EllipticityError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


class OracleSizeError(ValueError):
    pass


@dataclass
class CsrMatrix:
    """Compressed-sparse-row matrix, double precision."""

    nrows: int
    ncols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_ptr = np.ascontiguousarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.ascontiguousarray(self.col_idx, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.row_ptr.shape != (self.nrows + 1,):
            raise DimensionError("row_ptr length must be nrows+1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise DimensionError("row_ptr endpoints inconsistent with values")
        if len(self.col_idx) != len(self.values):
            raise DimensionError("col_idx and values length mismatch")
        if np.any(np.diff(self.row_ptr) < 0):
            raise DimensionError("row_ptr must be nondecreasing")
        if self.col_idx.size and (
            self.col_idx.min() < 0 or self.col_idx.max() >= self.ncols
        ):
            raise DimensionError("column index out of range")

    @property
    def nnz(self) -> int:
        return len(self.values)

    def entry(self, i: int, j: int) -> float:
        """A_ij, zero if not stored."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        k = lo + np.searchsorted(self.col_idx[lo:hi], j)
        if k < hi and self.col_idx[k] == j:
            return float(self.values[k])
        return 0.0

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.nrows, self.ncols))
        rows = np.repeat(np.arange(self.nrows), np.diff(self.row_ptr))
        dense[rows, self.col_idx] = self.values
        return dense

    def to_scipy(self) -> scipy.sparse.csr_array:
        """A scipy CSR view sharing these arrays (no copy of the values)."""
        return scipy.sparse.csr_array(
            (self.values, self.col_idx, self.row_ptr),
            shape=(self.nrows, self.ncols))

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls(n, n, np.arange(n + 1), np.arange(n), np.ones(n))

    @classmethod
    def from_coo(
        cls, nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
        vals: np.ndarray,
    ) -> "CsrMatrix":
        """Build CSR from coordinate triplets (no duplicates expected)."""
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        row_ptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(row_ptr, rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return cls(nrows, ncols, row_ptr, cols, vals)


def apply_operator(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """b = A x with row-sequential, index-ascending summation order.

    scipy's CSR kernel accumulates each row left to right from 0.0, so the
    result is bit-identical to the plain loop over stored entries.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.ncols,):
        raise DimensionError(f"operand length {x.shape} != ncols {A.ncols}")
    return A.to_scipy() @ x


def _oracle_cap() -> int:
    raw = os.environ.get("PDEFORGE_ORACLE_CAP")
    return int(raw) if raw else DEFAULT_ORACLE_CAP


def dense_solve(A: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """Direct LU solve of A x = b; test oracle, size-capped."""
    if A.nrows != A.ncols:
        raise DimensionError("dense_solve requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.nrows,):
        raise DimensionError("rhs length mismatch")
    cap = _oracle_cap()
    if A.nrows > cap:
        raise OracleSizeError(
            f"n={A.nrows} exceeds dense oracle cap {cap} "
            "(set PDEFORGE_ORACLE_CAP to raise)"
        )
    dense = A.to_dense()
    with warnings.catch_warnings():
        # singularity is detected from the U diagonal below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(dense, check_finite=False)
    diag = np.abs(np.diag(lu))
    if not np.all(diag > np.finfo(np.float64).tiny):
        raise SingularMatrixError("matrix is singular to working precision")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def _check_field(grid: Grid2D, f: FieldSample, name: str) -> np.ndarray:
    if f.grid != grid:
        raise DimensionError(f"{name} is defined on a different grid")
    return f.values


def _stencil_coo(grid: Grid2D):
    """Row/col index arrays for the 5-point pattern, one array per band.

    Returns (rows, cols_center, cols_W, cols_E, cols_N, cols_S, mask_*) with
    masks marking which interior nodes actually have that interior neighbor.
    """
    n = grid.n_interior
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    center = ii * n + jj
    bands = {
        "N": (ii > 0, center - n),
        "S": (ii < n - 1, center + n),
        "W": (jj > 0, center - 1),
        "E": (jj < n - 1, center + 1),
    }
    return ii, jj, center, bands


def _assemble_flux_form(grid: Grid2D, coef: np.ndarray, sign: float) -> CsrMatrix:
    """sign * div(coef grad u) with face coefficients by arithmetic mean.

    sign=-1 gives the SPD Darcy form -div(a grad u); sign=+1 the
    diffusion-reaction flux term div(k grad u).
    """
    n = grid.n_interior
    h2 = grid.h ** 2
    ii, jj, center, bands = _stencil_coo(grid)
    # face coefficients around interior node (ii+1, jj+1) of the node grid
    ci, cj = ii + 1, jj + 1
    a_n = 0.5 * (coef[ci, cj] + coef[ci - 1, cj])
    a_s = 0.5 * (coef[ci, cj] + coef[ci + 1, cj])
    a_w = 0.5 * (coef[ci, cj] + coef[ci, cj - 1])
    a_e = 0.5 * (coef[ci, cj] + coef[ci, cj + 1])
    diag = sign * (-(a_n + a_s + a_w + a_e)) / h2
    rows = [center]
    cols = [center]
    vals = [diag]
    for name, a_f in (("N", a_n), ("S", a_s), ("W", a_w), ("E", a_e)):
        mask, neighbor = bands[name]
        rows.append(center[mask])
        cols.append(neighbor[mask])
        vals.append(sign * a_f[mask] / h2)
    return CsrMatrix.from_coo(
        n * n, n * n,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
    )


def assemble_darcy(grid: Grid2D, a: FieldSample) -> CsrMatrix:
    """-div(a grad u) with zero Dirichlet boundary; SPD for a > 0."""
    coef = _check_field(grid, a, "permeability")
    if coef.min() <= 0.0:
        raise EllipticityError(
            f"permeability must be positive everywhere, min={coef.min():g}"
        )
    return _assemble_flux_form(grid, coef, sign=-1.0)


def assemble_helmholtz(grid: Grid2D, k2: FieldSample) -> CsrMatrix:
    """lap(u) + k2*u, scaled 5-point stencil, zero Dirichlet boundary."""
    kv = _check_field(grid, k2, "squared wavenumber")
    n = grid.n_interior
    h2 = grid.h ** 2
    ii, jj, center, bands = _stencil_coo(grid)
    diag = -4.0 / h2 + kv[ii + 1, jj + 1]
    rows = [center]
    cols = [center]
    vals = [diag]
    for name in ("N", "S", "W", "E"):
        mask, neighbor = bands[name]
        rows.append(center[mask])
        cols.append(neighbor[mask])
        vals.append(np.full(mask.sum(), 1.0 / h2))
    return CsrMatrix.from_coo(
        n * n, n * n,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
    )


def assemble_helmholtz_paper_normalized(grid, k: float) -> CsrMatrix:
    """Unit-spacing Helmholtz stencil: diagonal -4+k, off-diagonals 1.

    Accepts a Grid2D or a bare interior size n.
    """
    if not isinstance(grid, Grid2D):
        grid = Grid2D(int(grid))
    n = grid.n_interior
    ii, jj, center, bands = _stencil_coo(grid)
    rows = [center]
    cols = [center]
    vals = [np.full(n * n, -4.0 + k)]
    for name in ("N", "S", "W", "E"):
        mask, neighbor = bands[name]
        rows.append(center[mask])
        cols.append(neighbor[mask])
        vals.append(np.ones(mask.sum()))
    return CsrMatrix.from_coo(
        n * n, n * n,
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
    )


def assemble_diffusion_reaction(
    grid: Grid2D, k: FieldSample, q: FieldSample
) -> CsrMatrix:
    """div(k grad u) + q*u, zero Dirichlet boundary."""
    kv = _check_field(grid, k, "diffusion coefficient")
    qv = _check_field(grid, q, "reaction coefficient")
    if kv.min() <= 0.0:
        raise EllipticityError(
            f"diffusion coefficient must be positive, min={kv.min():g}"
        )
    A = _assemble_flux_form(grid, kv, sign=+1.0)
    # add diag(q) in place: every row stores exactly one diagonal entry
    q_int = qv[1:-1, 1:-1].reshape(-1)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
    diag_mask = A.col_idx == rows
    A.values[diag_mask] += q_int
    return A


@dataclass
class PdeCoefficients:
    """Coefficient fields of one PDE family, sharing one grid."""

    pde: str  # "darcy" | "helmholtz" | "diffusion"
    a: Optional[FieldSample] = None
    k2: Optional[FieldSample] = None
    k: Optional[FieldSample] = None
    q: Optional[FieldSample] = None

    def __post_init__(self):
        required = {"darcy": ("a",), "helmholtz": ("k2",),
                    "diffusion": ("k", "q")}
        if self.pde not in required:
            raise ValueError(f"unknown pde tag {self.pde!r}")
        fields = [getattr(self, name) for name in required[self.pde]]
        if any(f is None for f in fields):
            raise DimensionError(f"{self.pde} requires {required[self.pde]}")
        grids = {f.grid for f in fields}
        if len(grids) != 1:
            raise DimensionError("coefficient fields must share one grid")
        self.grid = fields[0].grid

    def field_map(self) -> dict:
        names = {"darcy": ("a",), "helmholtz": ("k2",), "diffusion": ("k", "q")}
        return {name: getattr(self, name) for name in names[self.pde]}

    def assemble(self) -> CsrMatrix:
        if self.pde == "darcy":
            return assemble_darcy(self.grid, self.a)
        if self.pde == "helmholtz":
            return assemble_helmholtz(self.grid, self.k2)
        return assemble_diffusion_reaction(self.grid, self.k, self.q)


def to_matrix_market(A: CsrMatrix) -> str:
    """Matrix Market coordinate text dump (debug/test aid)."""
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{A.nrows} {A.ncols} {A.nnz}"]
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_ptr))
    for r, c, v in zip(rows, A.col_idx, A.values):
        lines.append(f"{r + 1} {c + 1} {v:.17g}")
    return "\n".join(lines) + "\n"
