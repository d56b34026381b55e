"""Finite-difference 5-point operators: stencils and their three forms.

Every operator acts on zero-Dirichlet interior unknowns and has the form
sign * div(c grad u) + r * u. A `families.PdeFamily` record states it:
`sign` is +1 or -1, c is the coefficient field it names as `flux` (1 when
it names none), and each of its other coefficient fields is a reaction
term r. `PdeFamily.stencil` builds the operator, with `_flux_form` for the
flux term, as a stencil `(center, north, south, west, east)`, each an
array or a scalar. It takes the coefficient fields as node arrays of shape
(..., m, m), m = n+2, one sample's or a block's (bit rules: the `generator`
and `solvers` module docstrings).

The stencil's arrays are row-padded: (..., n, m), the coefficients of the
n interior rows at all m columns of each row. Read flat, the interior rows
of an (..., m, m) node array are the contiguous range [m, m*m - m), and
the neighbors of its nodes are the same range shifted by -m, -1, +1 and
+m, so each of `apply_stencil`'s passes over a block is one contiguous
run per sample rather than one short run per row. The coefficients at
columns 0 and m-1 belong to boundary nodes (the west face of column 0 and
the east face of column m-1 wrap to the neighboring row), and no form
uses them. The stencil has three forms, each built from it alone and each
summing a row's terms in the order N, W, C, E, S:

- `apply_stencil` applies it to node arrays, one sample or a block, by
  slicing the flat neighbors out of the array, and writes f = A u on the
  whole node set: the interior rows, then zero at every boundary node.
  Generation computes f with it, and `StencilOperator` wraps it as the
  square operator on interior vectors that the GMRES solves use.
- `stencil_residual` applies it to node arrays, one sample or a block,
  through the 2-D neighbor views of u over the interior (`u[..., :-2,
  1:-1]` for the north neighbors, and so on) times the stencil's interior
  columns, reading the boundary nodes as the operator's zero-Dirichlet
  rows do, and subtracts a stored f: A u - f over the interior nodes.
  Verification measures its residuals with it; as its 2-D indexing
  shares nothing with `apply_stencil`'s flat offsets, a slip in either
  shows as a residual.
- `_five_point` has scipy build it as a `CsrMatrix`, a
  `scipy.sparse.csr_array` in canonical form, from its five diagonals over
  the interior columns: each row stores its nonzero entries in ascending
  column order (north, west, center, east, south neighbors of the
  row-major interior numbering), and scipy's CSR kernel sums each row
  left to right from 0.0. It is the tests' reference and the perf
  harness's; no command builds it, and `scipy.sparse` is imported only
  when one is built.

On a `u` that is zero on the boundary the three give the same A u bit
for bit, up to the sign of a zero: a missing CSR entry, a zero
coefficient and a coefficient times a zero boundary value add the same
nothing to a row's sum.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from .grid import Grid2D


class DimensionError(ValueError):
    pass


class EllipticityError(ValueError):
    pass


@lru_cache(maxsize=1)
def _csr_class() -> type:
    import scipy.sparse  # here: importing it costs more than most runs

    class CsrMatrix(scipy.sparse.csr_array):
        """A scipy CSR array, double precision, with its row and column
        counts as `nrows` and `ncols`."""

        @property
        def nrows(self) -> int:
            return self.shape[0]

        @property
        def ncols(self) -> int:
            return self.shape[1]

    CsrMatrix.__module__, CsrMatrix.__qualname__ = __name__, "CsrMatrix"
    return CsrMatrix


def __getattr__(name: str):
    # CsrMatrix subclasses a scipy.sparse class, so it is made on first use
    if name == "CsrMatrix":
        return _csr_class()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def apply_operator(A, x: np.ndarray) -> np.ndarray:
    """b = A x with row-sequential, index-ascending summation order, for a
    `CsrMatrix` or a `StencilOperator`.

    scipy's CSR kernel accumulates each row left to right from 0.0, so the
    result is bit-identical to the plain loop over stored entries.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.shape[1],):
        raise DimensionError(
            f"operand length {x.shape} != ncols {A.shape[1]}")
    return A @ x


def _check_field(grid: Grid2D, f, name: str) -> np.ndarray:
    """The node values of f, an array of shape (..., m, m) holding the
    node values of one or more samples on grid."""
    values = np.asarray(f, dtype=np.float64)
    if values.shape[-2:] != (grid.n_nodes, grid.n_nodes):
        raise DimensionError(
            f"{name} node array of shape {values.shape} is not on the "
            f"{grid.n_nodes} x {grid.n_nodes} node set")
    return values


def _five_point(grid: Grid2D, center, north, south, west, east):
    """The 5-point operator as a `CsrMatrix`, whose row for interior node
    (i, j) holds center on the diagonal and north/south/west/east at the
    neighbors (i-1, j), (i+1, j), (i, j-1), (i, j+1) that are interior.
    Each coefficient is a row-padded (n, n+2) array or a scalar; its
    interior columns are taken. scipy builds it from the diagonals at
    offsets -n, -1, 0, 1, n of the row-major numbering and drops zero
    entries, among them the west entries of the first column and the east
    entries of the last."""
    import scipy.sparse  # here: importing it costs more than most runs
    n = grid.n_interior
    coefs = [np.array(np.broadcast_to(c, (n, n + 2))[:, 1:-1],
                      dtype=np.float64)
             for c in (north, west, center, east, south)]
    coefs[1][:, 0] = coefs[3][:, -1] = 0.0  # no west/east of the grid edge
    north, west, center, east, south = (c.reshape(-1) for c in coefs)
    diagonals = [(-n, north[n:]), (-1, west[1:]), (0, center),
                 (1, east[:-1]), (n, south[:-n])]
    # at n = 1 only the center is not empty, and -n and -1 coincide
    offsets, values = zip(*[(k, d) for k, d in diagonals if d.size])
    A = scipy.sparse.diags(values, offsets, shape=(n * n, n * n), format="csr")
    return _csr_class()(A)


def apply_stencil(stencil: tuple, u_nodes: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Write to out, a C-contiguous array of u_nodes' shape, and return
    f = A u for the (..., m, m) node arrays u_nodes, from u's flat
    neighbors at -m, -1, +1 and +m, then +0.0 at every boundary node
    (module docstring). stencil is (center, north, south, west, east),
    each a row-padded (..., n, m) array or a scalar."""
    if out.shape != u_nodes.shape or not out.flags.c_contiguous:
        raise DimensionError("out must be a C-contiguous array of u's shape")
    center, north, south, west, east = stencil
    *lead, m = u_nodes.shape[:-1]
    rows = (*lead, m - 2, m)
    size = (m - 2) * m
    u = u_nodes.reshape(*lead, m * m)
    f = out.reshape(*lead, m * m)[..., m:m + size].reshape(rows)

    def shifted(offset: int) -> np.ndarray:
        return u[..., m + offset:m + offset + size].reshape(rows)

    term = np.empty(rows)
    np.multiply(north, shifted(-m), out=f)
    for coef, offset in ((west, -1), (center, 0), (east, 1), (south, m)):
        f += np.multiply(coef, shifted(offset), out=term)
    out[..., 0, :] = out[..., -1, :] = 0.0
    out[..., 0] = out[..., -1] = 0.0
    return out


class StencilOperator:
    """A stencil as a square operator on the n*n interior unknowns, for
    GMRES. A one-sample stencil (row-padded (n, m) arrays or scalars) maps
    n*n vectors; a block stencil, (k, n, m) arrays, is k samples'
    operators and maps (k, n*n) row stacks, row i by sample i's stencil
    (at k = 1, an n*n vector too). `A @ x` puts x into zero-boundary node
    arrays and applies the stencil matrix-free (`apply_stencil`), which
    equals the CSR product bit for bit, and returns a fresh array of x's
    shape. `A[rows]` is the operator of a block's rows. The node arrays
    are reused, so one operator serves one solve at a time."""

    def __init__(self, grid: Grid2D, stencil: tuple):
        n, m = grid.n_interior, grid.n_nodes
        self.grid, self.stencil = grid, stencil
        self.shape = (n * n, n * n)
        lead = np.broadcast_shapes(*map(np.shape, stencil))[:-2]
        self._nodes = np.zeros((*lead, m, m))
        self._out = np.empty((*lead, m, m))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        interior = self._nodes[..., 1:-1, 1:-1]
        interior[...] = np.reshape(x, interior.shape)
        apply_stencil(self.stencil, self._nodes, self._out)
        return self._out[..., 1:-1, 1:-1].reshape(np.shape(x))

    def __getitem__(self, rows) -> "StencilOperator":
        return StencilOperator(self.grid, tuple(
            c[rows] if np.ndim(c) else c for c in self.stencil))


def stencil_residual(stencil: tuple, u_nodes: np.ndarray,
                     f_nodes: np.ndarray) -> np.ndarray:
    """A u - f over the interior nodes of the (..., m, m) node arrays
    u_nodes and f_nodes, as a fresh (..., n, n) array, from the 2-D
    neighbor views of u (module docstring); boundary nodes are read, not
    assumed zero. stencil is (center, north, south, west, east), each a
    row-padded (..., n, m) array or a scalar."""
    center, north, south, west, east = stencil
    u = u_nodes
    terms = ((north, u[..., :-2, 1:-1]), (west, u[..., 1:-1, :-2]),
             (center, u[..., 1:-1, 1:-1]), (east, u[..., 1:-1, 2:]),
             (south, u[..., 2:, 1:-1]))

    def interior(coef):
        return coef[..., 1:-1] if np.ndim(coef) else coef

    (coef, view), *rest = terms
    r = np.multiply(interior(coef), view)
    term = np.empty(r.shape)
    for coef, view in rest:
        r += np.multiply(interior(coef), view, out=term)
    r -= f_nodes[..., 1:-1, 1:-1]
    return r


@lru_cache(maxsize=8)
def _sine_table(n: int) -> tuple:
    """(S, inv_eig) for the zero-Dirichlet 5-point Laplacian on an n x n
    interior. S[k, i] = sqrt(2/(n+1)) sin(pi (k+1)(i+1)/(n+1)) is the
    orthonormal DST-I matrix (symmetric, S S = I), which diagonalizes it;
    inv_eig[k, l] = 1/(lam_k + lam_l) with lam_k = (4/h^2) sin^2(pi (k+1)
    h/2) are the inverse eigenvalues of -lap_h. Both are read-only."""
    k = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
    lam = 4.0 * (n + 1) ** 2 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    inv_eig = 1.0 / (lam[:, None] + lam[None, :])
    for arr in (S, inv_eig):
        arr.flags.writeable = False
    return S, inv_eig


class PoissonPreconditioner:
    """M^{-1} as a callable on interior vectors, for
    M = sign * C^{1/2} (-lap_h) C^{1/2}, C = diag(coef) over the interior
    nodes (the identity when coef is None). coef holds one sample's n*n
    interior values, or a block's as (k, n, n): then it maps (k, n*n) row
    stacks, row i with sample i's C (at k = 1, an n*n vector too), and
    `precond[rows]` is the preconditioner of a block's rows. One M^{-1} r
    is a fast Poisson solve: S((S R S) * inv_eig)S with the dense sine
    table (bit rule: `solvers` module docstring)."""

    def __init__(self, grid: Grid2D, sign: float, coef=None):
        n = grid.n_interior
        self._S, inv_eig = _sine_table(n)
        self._inv_eig = sign * inv_eig
        self._d = (1.0 if coef is None
                   else 1.0 / np.sqrt(np.reshape(coef, (-1, n, n))))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        S, n = self._S, len(self._S)
        R = self._d * np.reshape(r, (-1, n, n))
        return (self._d * (S @ ((S @ R @ S) * self._inv_eig) @ S)).reshape(
            np.shape(r))

    def __getitem__(self, rows) -> "PoissonPreconditioner":
        taken = copy.copy(self)
        if np.ndim(self._d):
            taken._d = self._d[rows]
        return taken


def _flux_form(grid: Grid2D, coef: np.ndarray, sign: float) -> tuple:
    """Row-padded stencil (center, north, south, west, east) of
    sign * div(coef grad u) with face coefficients by arithmetic mean, for
    (..., m, m) node arrays.

    sign=-1 gives the SPD Darcy form -div(a grad u); sign=+1 the
    diffusion-reaction flux term div(k grad u). The values are those of
    center = sign * (-(a_n + a_s + a_w + a_e)) / h2 and
    neighbor = sign * a_f / h2, a_f = 0.5 * (c + c_f), at fewer passes
    over the arrays, and bit for bit but for the exception the last point
    names:
    - each face mean is computed once: the south face of node (i, j) is
      the north face of node (i+1, j), and IEEE addition commutes; likewise
      east and west;
    - sign is +-1, and multiplying or dividing by -1 is exact, as is
      negating a correctly rounded quotient: sign * (-s) / h2 equals
      s / (-sign * h2) and sign * a / h2 equals a / (sign * h2);
    - the halving of each face mean is folded into that division: the
      face sums c + c_f are divided by 2 * sign * h2. Scaling by 2 or 0.5
      is exact, so this keeps every bit unless a face sum is subnormal or
      above 2^1023.
    """
    h2 = grid.h ** 2
    *lead, m = coef.shape[:-1]
    rows, size = (*lead, m - 2, m), (m - 2) * m
    c = coef.reshape(*lead, m * m)
    # vertical[..., p]: the face between flat nodes p and p+m, so node q of
    # the interior rows has its north face at q-m and its south face at q;
    # horizontal[..., p]: between flat nodes m-1+p and m+p, so node q's
    # west face is at q-m and its east face at q-m+1
    vertical = c[..., :-m] + c[..., m:]
    horizontal = c[..., m - 1:m * m - m] + c[..., m:m * m - m + 1]
    north = vertical[..., :size].reshape(rows)
    south = vertical[..., m:].reshape(rows)
    west = horizontal[..., :-1].reshape(rows)
    east = horizontal[..., 1:].reshape(rows)
    center = north + south
    center += west
    center += east
    center /= -2.0 * sign * h2
    vertical /= 2.0 * sign * h2
    horizontal /= 2.0 * sign * h2
    return center, north, south, west, east
