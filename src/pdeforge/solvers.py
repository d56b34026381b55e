"""Krylov solver: full (non-restarted) GMRES with iteration tracing, on one
system or on a block of k systems advanced in lockstep.

GMRES runs Arnoldi with blocked classical Gram-Schmidt applied twice (CGS2):
each new vector w is projected against the whole basis at once,
c = V w; w -= V^T c, and the projection is repeated unconditionally. A
single CGS pass loses orthogonality in proportion to the condition number
of the Krylov basis; the second pass restores it to the level of machine
precision as long as the new vector is not numerically dependent on the
basis ("twice is enough", Giraud, Langou & Rozloznik, Comput. Math. Appl.
2005). The dependent case is the happy breakdown, tested separately. Each
pass is two matrix-vector products, c = V w and V^T c, so a step costs
four BLAS-2 calls rather than a Python loop over the basis. GMRES reads
only `A.shape` and `A @ x`: the program passes a
`grid_ops.StencilOperator`, which applies the stencil matrix-free, and a
`CsrMatrix` works too.

A block is a (k, N) right-hand side b: k systems, each with its own
Arnoldi basis, Givens rotations, breakdown scale, stopping test, trace
and report. `A @ X` and `precond(X)` act on (k, N) row stacks, row i by
system i's operator, and each iteration makes one call of each for the
whole block, so k systems cost one Python step. A system leaves the block
when it stops (below), and its rows are compacted away: the block then
goes on with `A[rows]` and `precond[rows]`, the operators of the systems
left, as `StencilOperator` and `grid_ops.PoissonPreconditioner` give
them. A one-dimensional b is one system, solved as the block of its one
row (`_OneRow`); A and precond then see its vectors as they are,
one-dimensional. The program passes only blocks (`generator._solve_blocks`);
the perf harness (a `CsrMatrix` and a (N,) b) and the tests pass a 1-D b.

The bit rule of solve blocks, stated here once: each system of a block
gets the bits it gets alone. Every per-system step is elementwise or a
stacked product whose slices have one system's shapes, as numpy runs one
BLAS call per slice: the norms are stacked dot products (the ddot of
`np.linalg.norm`), CGS2 is stacked GEMVs ((k, j+1, N) @ (k, N, 1) and
back), the triangular solve is one stacked `np.linalg.solve`, and the
Givens rotations are Python floats per system, their norm `math.hypot`
(numpy's `hypot` rounds differently on some pairs). The program's A and
precond keep it too: the stencil is elementwise, and the fast Poisson
solve is one GEMM per (n, n) slice.

The least-squares problem is solved incrementally with Givens rotations. The
trace records, per iteration, the recurrence residual norm, the Arnoldi
subdiagonal h_{j+1,j}, and |y_j| from the square Hessenberg solve; the
residual norm is bounded by h_{j+1,j} * |y_j| (the square-system solve makes
the bound exact up to rounding), which the tests check.

Storage is O(k * iterations * N) for N unknowns, and nothing is sized by
max_iter: the basis rows, in a (k, rows, N) array that starts at
BASIS_ROWS rows and doubles, and the rotated Hessenberg columns as Python
lists. Their upper triangle is formed only where x is computed.

GMRES starts from x0 = 0, so r0 = b, and takes an optional right
preconditioner, a callable applying M^{-1} (M = I without one). Arnoldi
runs on A M^{-1}, and the iterate is x = M^{-1} V^T y. Right
preconditioning leaves the residual alone: b - A x = b - A M^{-1} V^T y,
so the recurrence residual, the trace and the explicit true-residual
check all still measure ||b - A x||. With a preconditioner,
`keep_basis` returns the orthonormal basis of the Krylov space of
A M^{-1}, not of A.

Happy breakdown is h_{j+1,j} <= HAPPY_BREAKDOWN_REL * sqrt(N) *
max_j ||A M^{-1} v_j||, for N unknowns and the Arnoldi vectors v_j built
so far. The factor sqrt(N) is the growth of the rounding error of one
application of A M^{-1}: the fast Poisson solve is four dense n x n
products (n = sqrt(N)), and an n-term dot product's rounding error bound
grows like n * eps. At an exact preconditioner the first subdiagonal is
that rounding alone. Without a preconditioner ||A v_j|| <= ||A||_2, so
for a stencil, whose N rows have similar norms, the scale is at most
about ||A||_F.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid_ops import DimensionError

HAPPY_BREAKDOWN_REL = 1e-14
MAX_ITER_CAP = 10000
BASIS_ROWS = 8  # the basis array's first row count; it doubles from there


class NumericalBreakdownError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 2000
    record_trace: bool = False

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # written so that NaN fails it
            raise ValueError(f"tol must be > 0 and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @classmethod
    def for_grid(cls, grid, tol: float) -> "SolveOptions":
        """tol with at most min(unknowns, MAX_ITER_CAP) iterations: full
        GMRES converges in at most one iteration per unknown."""
        return cls(tol=tol, max_iter=min(grid.n_unknowns, MAX_ITER_CAP))


@dataclass
class IterationRecord:
    j: int
    residual_norm: float
    h_subdiag: float
    y_last_abs: float


@dataclass
class SolveReport:
    x: np.ndarray
    iterations: int
    converged: bool
    final_relative_residual: float
    wall_time: float  # seconds from the gmres call to this system's exit
    trace: Optional[list] = None
    arnoldi_basis: Optional[np.ndarray] = field(default=None, repr=False)


class _OneRow:
    """A one-system operator or preconditioner on (1, N) row stacks, for
    the block of a one-dimensional right-hand side."""

    def __init__(self, op):
        self.op = op

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return (self.op @ X[0])[None]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.op(X[0])[None]


class _System:
    """One system of a block: its index in the block, its stopping scale
    (||b||, or 1.0 when that is 0 or NaN), its happy-breakdown scale
    (module docstring), its trace, and its least-squares state as Python
    floats: the rotated Hessenberg columns (R[i] holds rows 0..i of column
    i), the rotations and the rotated right-hand side ||b|| e_1."""

    def __init__(self, index: int, beta: float, record_trace: bool):
        self.index, self.op_scale = index, 0.0
        self.scale = beta if beta > 0 else 1.0
        self.trace = [] if record_trace else None
        self.R, self.cs, self.sn, self.g = [], [], [], [beta]

    def rotate(self, h: list, h_subdiag: float, j: int) -> float:
        """Add column j, h[0..j] over h_subdiag, and its trace record;
        returns the recurrence residual norm."""
        cs, sn, g = self.cs, self.sn, self.g
        # previous rotations act on rows 0..j only
        for i in range(j):
            hi, hi1 = h[i], h[i + 1]
            h[i] = cs[i] * hi + sn[i] * hi1
            h[i + 1] = -sn[i] * hi + cs[i] * hi1
        # |y_j| of the square Hessenberg solve, whose diagonal is h[j]
        y_last = abs(g[j] / h[j]) if h[j] != 0.0 else math.inf
        nu = math.hypot(h[j], h_subdiag)
        if nu == 0.0:
            raise NumericalBreakdownError(
                f"zero Givens norm at iteration {j + 1}")
        cs.append(h[j] / nu)
        sn.append(h_subdiag / nu)
        h[j] = nu
        self.R.append(h)
        g.append(-sn[j] * g[j])  # from g[j] before its rotation
        g[j] = cs[j] * g[j]
        if self.trace is not None:
            self.trace.append(IterationRecord(j + 1, abs(g[j + 1]),
                                              h_subdiag, y_last))
        return abs(g[j + 1])


def _norms(X: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of X, as the stacked dot product of each row
    with itself: the ddot that `np.linalg.norm` takes of one vector."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None]))[:, 0, 0]


def _rows(op, rows: list, count: int):
    """op (an operator, a preconditioner, an array or None) restricted to
    rows of its count rows; op itself for all."""
    return op if op is None or len(rows) == count else op[rows]


def gmres(
    A,
    b: np.ndarray,
    opts: SolveOptions = SolveOptions(),
    keep_basis: bool = False,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
):
    """Full GMRES from x0 = 0 on a square operator A, anything with `shape`
    and `@` (a `StencilOperator` or a `CsrMatrix`). precond, when given,
    applies M^{-1} on the right: Arnoldi runs on A M^{-1} and
    x = M^{-1} V^T y. After an iteration that is a happy breakdown, meets
    tol by the Givens recurrence or is the last, x and its true residual
    are computed; the solve ends there unless only the recurrence met tol
    (drift). `converged` is true residual <= tol.

    b of shape (N,) is one system and returns one `SolveReport`; b of
    shape (k, N) is a block of k systems advanced in lockstep and returns
    a list of k reports, each with the bits of its system solved alone
    (module docstring)."""
    t0 = time.perf_counter()
    n, ncols = A.shape
    if n != ncols:
        raise DimensionError("solver requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape == (n,):
        (report,) = _gmres_block(
            _OneRow(A), b[None], opts, keep_basis,
            None if precond is None else _OneRow(precond), t0)
        return report
    if b.ndim != 2 or b.shape[1] != n:
        raise DimensionError("rhs length mismatch")
    return _gmres_block(A, b, opts, keep_basis, precond, t0)


def _gmres_block(A, B: np.ndarray, opts: SolveOptions, keep_basis: bool,
                 precond, t0: float) -> list:
    """The reports of the systems of the (k, N) block B (`gmres`)."""
    k, n = B.shape
    tol = opts.tol
    reports = [None] * k

    def stop(system, x, iterations: int, relres: float, basis=None):
        reports[system.index] = SolveReport(
            x, iterations, relres <= tol, relres, time.perf_counter() - t0,
            system.trace, basis)

    systems = []  # systems[row] is row `row` of V, B, A and precond
    for s, beta in enumerate(_norms(B).tolist()):
        system = _System(s, beta, opts.record_trace)
        if beta / system.scale <= tol:  # b = 0
            stop(system, np.zeros(n), 0, beta / system.scale)
        else:
            systems.append(system)
    if not systems:
        return reports
    A, precond, B = (_rows(op, [system.index for system in systems], k)
                     for op in (A, precond, B))

    m_cap = min(opts.max_iter, n)
    cap = min(BASIS_ROWS, m_cap + 1)
    V = np.empty((len(systems), cap, n))
    V[:, 0] = B / np.array([system.scale for system in systems])[:, None]

    for j in range(m_cap):
        ka = len(systems)
        Vj = V[:, j]
        W = A @ (Vj if precond is None else precond(Vj))
        w_norms = _norms(W).tolist()
        for system, w in zip(systems, w_norms):
            system.op_scale = max(system.op_scale, math.sqrt(n) * w)
        # a finite norm has finite terms; an infinite one may overflow
        if not all(map(math.isfinite, w_norms)):
            finite = np.isfinite(W).all(axis=1)
            if not finite.all():
                where = ("" if k == 1 else
                         f" of system {systems[finite.argmin()].index}")
                raise NumericalBreakdownError(
                    f"non-finite SpMV at iteration {j + 1}{where}")
        # classical Gram-Schmidt, applied twice, one GEMV per system
        Vb = V[:, :j + 1]
        c = np.matmul(Vb, W[:, :, None])
        W -= np.matmul(c.transpose(0, 2, 1), Vb)[:, 0]
        c2 = np.matmul(Vb, W[:, :, None])
        W -= np.matmul(c2.transpose(0, 2, 1), Vb)[:, 0]
        h_cols = (c + c2)[:, :, 0].tolist()
        h_subdiag = _norms(W)
        subs = h_subdiag.tolist()
        happy = [sub <= HAPPY_BREAKDOWN_REL * system.op_scale
                 for sub, system in zip(subs, systems)]

        # a happy system's w is numerically in span(V): no V[j + 1]
        if not all(happy):
            if j + 1 >= cap:
                cap = min(2 * cap, m_cap + 1)
                grown = np.empty((ka, cap, n))
                grown[:, :j + 1] = V[:, :j + 1]
                V = grown
            if any(happy):
                grow = ~np.array(happy)
                V[grow, j + 1] = W[grow] / h_subdiag[grow, None]
            else:
                np.divide(W, h_subdiag[:, None], out=V[:, j + 1])

        check = []  # rows whose x and true residual are computed
        last = happy if j + 1 < m_cap else [True] * ka
        for row, system in enumerate(systems):
            res_norm = system.rotate(h_cols[row], subs[row], j)
            if last[row] or res_norm / system.scale <= tol:
                check.append(row)
        if not check:
            continue

        T = np.zeros((len(check), j + 1, j + 1))
        for i, row in enumerate(check):
            for col, column in enumerate(systems[row].R):
                T[i, :col + 1, col] = column
        g = np.array([systems[row].g[:j + 1] for row in check])
        y = np.linalg.solve(T, g[:, :, None]).transpose(0, 2, 1)
        z = np.matmul(y, _rows(V[:, :j + 1], check, ka))[:, 0]
        x = z if precond is None else _rows(precond, check, ka)(z)
        # guard against recurrence drift with an explicit residual
        r_norms = _norms(_rows(B, check, ka)
                         - _rows(A, check, ka) @ x).tolist()
        leaving = []
        for i, row in enumerate(check):
            relres = r_norms[i] / systems[row].scale
            if last[row] or relres <= tol:
                rows = j + 1 if happy[row] else j + 2
                stop(systems[row], x[i], j + 1, relres,
                     V[row, :rows].copy() if keep_basis else None)
                leaving.append(row)
        if len(leaving) == ka:
            break
        if leaving:  # compact the block to the systems left
            keep = [row for row in range(ka) if row not in leaving]
            for to, row in enumerate(keep):
                if to != row:
                    V[to, :j + 2] = V[row, :j + 2]
            V = V[:len(keep)]
            A, precond, B = (_rows(op, keep, ka) for op in (A, precond, B))
            systems = [systems[row] for row in keep]
    return reports
