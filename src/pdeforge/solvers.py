"""Krylov solver: full (non-restarted) GMRES with iteration tracing.

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

The least-squares problem is solved incrementally with Givens rotations. The
trace records, per iteration, the recurrence residual norm, the Arnoldi
subdiagonal h_{j+1,j}, and |y_j| from the square Hessenberg solve; the
residual norm is bounded by h_{j+1,j} * |y_j| (the square-system solve makes
the bound exact up to rounding), which the tests check.

Storage is O(iterations * N) for N unknowns, and nothing is sized by
max_iter: the basis rows, in an array that starts at 64 rows and doubles,
and the rotated Hessenberg columns as Python lists. Their upper triangle
is formed only where x is computed.

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
that rounding alone; with the bare Laplacian it measured
1.1-2.1e-16 * sqrt(N) for n = 4..128. Without the factor the threshold
falls below it from n = 64 on, and GMRES iterated on rounding noise until
max_iter. Without a preconditioner ||A v_j|| <= ||A||_2, so for a stencil,
whose N rows have similar norms, the scale is at most about ||A||_F.
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
    wall_time: float
    trace: Optional[list] = None
    arnoldi_basis: Optional[np.ndarray] = field(default=None, repr=False)


def gmres(
    A,
    b: np.ndarray,
    opts: SolveOptions = SolveOptions(),
    keep_basis: bool = False,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> SolveReport:
    """Full GMRES from x0 = 0 on a square operator A, anything with `shape`
    and `@` (a `StencilOperator` or a `CsrMatrix`). precond, when given,
    applies M^{-1} on the right: Arnoldi runs on A M^{-1} and
    x = M^{-1} V^T y. After an iteration that is a happy breakdown, meets
    tol by the Givens recurrence or is the last, x and its true residual
    are computed; the solve ends there unless only the recurrence met tol
    (drift). `converged` is true residual <= tol."""
    t0 = time.perf_counter()
    n, ncols = A.shape
    if n != ncols:
        raise DimensionError("solver requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise DimensionError("rhs length mismatch")
    beta = float(np.linalg.norm(b))
    scale = beta if beta > 0 else 1.0
    trace: Optional[list] = [] if opts.record_trace else None
    if beta / scale <= opts.tol:
        return SolveReport(np.zeros(n), 0, True, beta / scale,
                           time.perf_counter() - t0, trace)

    # the happy-breakdown scale (module docstring): sqrt(N) times the
    # largest ||A M^{-1} v_j|| seen so far
    op_scale = 0.0

    m_cap = min(opts.max_iter, n)
    cap = min(64, m_cap + 1)
    V = np.empty((cap, n))
    V[0] = b / beta
    R = []  # rotated Hessenberg columns: R[k] holds rows 0..k of column k
    cs, sn = [], []  # Givens rotations, as Python floats
    g = [beta]  # rotated right-hand side ||b|| * e_1

    for j in range(m_cap):
        w = A @ (V[j] if precond is None else precond(V[j]))
        op_scale = max(op_scale, math.sqrt(n) * float(np.linalg.norm(w)))
        if not np.all(np.isfinite(w)):
            raise NumericalBreakdownError(f"non-finite SpMV at iteration {j + 1}")
        # classical Gram-Schmidt, applied twice
        Vj = V[: j + 1]
        c = Vj @ w
        w -= c @ Vj
        c2 = Vj @ w
        w -= c2 @ Vj
        h = (c + c2).tolist()
        h_subdiag = float(np.linalg.norm(w))
        h.append(h_subdiag)
        happy = h_subdiag <= HAPPY_BREAKDOWN_REL * op_scale

        # previous rotations act on rows 0..j only
        for i in range(j):
            hi, hi1 = h[i], h[i + 1]
            h[i] = cs[i] * hi + sn[i] * hi1
            h[i + 1] = -sn[i] * hi + cs[i] * hi1
        r_diag = h[j]  # pre-rotation diagonal of the square Hessenberg solve
        nu = math.hypot(h[j], h_subdiag)
        if nu == 0.0:
            raise NumericalBreakdownError(f"zero Givens norm at iteration {j + 1}")
        cs.append(h[j] / nu)
        sn.append(h_subdiag / nu)
        h[j] = nu
        R.append(h[: j + 1])
        g_pre = g[j]
        g[j] = cs[j] * g_pre
        g.append(-sn[j] * g_pre)
        res_norm = abs(g[j + 1])

        if trace is not None:
            y_last = abs(g_pre / r_diag) if r_diag != 0.0 else math.inf
            trace.append(IterationRecord(j + 1, res_norm, h_subdiag, y_last))

        if not happy:  # else w is numerically in span(V): no V[j + 1]
            if j + 1 >= cap:
                cap = min(2 * cap, m_cap + 1)
                grown = np.empty((cap, n))
                grown[: j + 1] = V[: j + 1]
                V = grown
            V[j + 1] = w / h_subdiag

        last = happy or j + 1 == m_cap
        if last or res_norm / scale <= opts.tol:
            T = np.zeros((j + 1, j + 1))
            for k, col in enumerate(R):
                T[: k + 1, k] = col
            y = np.linalg.solve(T, g[: j + 1])
            z = V[: j + 1].T @ y
            x = z if precond is None else precond(z)
            # guard against recurrence drift with an explicit residual
            relres = float(np.linalg.norm(b - A @ x) / scale)
            if last or relres <= opts.tol:
                rows = j + 1 if happy else j + 2
                return SolveReport(x, j + 1, relres <= opts.tol, relres,
                                   time.perf_counter() - t0, trace,
                                   V[:rows].copy() if keep_basis else None)
