import math
import tracemalloc

import numpy as np
import pytest

from pdeforge.families import PdeCoefficients
from pdeforge.fields import GrfParams, RngStream, sample_grf
from pdeforge.generator import (
    GenerationConfig,
    draw_coefficients,
    draw_forcing,
    solve_sample,
)
from pdeforge.grid import FieldSample, Grid2D
from pdeforge.grid_ops import (
    CsrMatrix,
    DimensionError,
    apply_operator,
    _five_point,
)
from pdeforge.solvers import SolveOptions, gmres


def darcy_system(n, seed, lognormal=True):
    g = Grid2D(n)
    params = GrfParams(tau=7.0, alpha=2.5,
                       transform="exp" if lognormal else "none")
    a = sample_grf(g, params, RngStream(seed, "basis_params", 0).generator())
    A = PdeCoefficients("darcy", a=FieldSample(g, a)).assemble()
    b = sample_grf(g, GrfParams(tau=7.0, alpha=2.5),
                   RngStream(seed, "basis_params", 1).generator())
    b = b[1:-1, 1:-1].flatten()
    return A, b


class TestGmres:
    def test_identity_one_iteration(self):
        A = CsrMatrix(np.eye(6))
        b = np.arange(1.0, 7.0)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-12))
        assert rep.converged and rep.iterations == 1
        np.testing.assert_allclose(rep.x, b, rtol=1e-12)

    def test_paper_system(self):
        A = _five_point(Grid2D(2), -4.0, 1, 1, 1, 1)
        b = np.full(4, -2.0)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-10))
        assert rep.converged
        np.testing.assert_allclose(rep.x, np.ones(4), atol=1e-8)
        np.testing.assert_allclose(rep.x, np.linalg.solve(A.toarray(), b),
                                   atol=1e-8)

    def test_darcy_matches_dense(self):
        A, b = darcy_system(10, 42)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-7))
        assert rep.converged
        r = apply_operator(A, rep.x) - b
        assert np.linalg.norm(r) / np.linalg.norm(b) <= 1e-7
        xd = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(rep.x - xd) / np.linalg.norm(xd) <= 1e-5

    def test_zero_rhs(self):
        A = CsrMatrix(np.eye(4))
        rep = gmres(A, np.zeros(4), opts=SolveOptions(tol=1e-10))
        assert rep.converged and rep.iterations == 0
        np.testing.assert_array_equal(rep.x, np.zeros(4))

    def test_nonconvergence_reported_not_raised(self):
        A, b = darcy_system(8, 3)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-12, max_iter=3))
        assert not rep.converged
        assert rep.iterations <= 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gmres(CsrMatrix(np.eye(3)), np.ones(4))

    def test_tol_must_be_positive_and_finite(self):
        # NaN would run to max_iter and inf would converge at once
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                SolveOptions(tol=tol)

    def test_residual_monotonicity(self):
        A, b = darcy_system(9, 17)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-12, record_trace=True))
        res = [r.residual_norm for r in rep.trace]
        for later, earlier in zip(res[1:], res[:-1]):
            assert later <= earlier + 1e-12

    def test_arnoldi_orthogonality(self):
        A, b = darcy_system(12, 5)  # n = 144 <= 256
        rep = gmres(A, b, opts=SolveOptions(tol=1e-12, record_trace=True),
                    keep_basis=True)
        V = rep.arnoldi_basis
        G = V @ V.T
        assert np.max(np.abs(G - np.eye(len(G)))) <= 1e-8

    @pytest.mark.parametrize("pde,iterations", [
        ("darcy", 166), ("helmholtz", 128), ("diffusion", 212)])
    def test_arnoldi_orthogonality_n32(self, pde, iterations):
        # 1024 unknowns; iteration counts pinned to those of modified
        # Gram-Schmidt with selective reorthogonalization
        gen = RngStream(3, "basis_params", 0).generator()
        A = draw_coefficients(pde, Grid2D(32), gen).assemble()
        b = draw_forcing(pde, Grid2D(32), gen).interior()
        rep = gmres(A, b, opts=SolveOptions(tol=1e-10, record_trace=True),
                    keep_basis=True)
        assert rep.converged and rep.final_relative_residual <= 1e-10
        assert rep.iterations == iterations
        V = rep.arnoldi_basis
        assert np.max(np.abs(V @ V.T - np.eye(len(V)))) <= 1e-12
        assert (max(r.residual_norm - r.h_subdiag * r.y_last_abs
                    for r in rep.trace)
                <= 1e-10 * (1 + np.linalg.norm(b)))

    def test_happy_breakdown_invariant_subspace(self):
        # b in a 2-dimensional invariant subspace of a diagonal matrix
        vals = np.array([2.0, 2.0, 3.0, 5.0])
        A = CsrMatrix((vals, np.arange(4), np.arange(5)), shape=(4, 4))
        b = np.array([1.0, 1.0, 1.0, 0.0])  # spans eigenvalues {2, 3}
        rep = gmres(A, b, opts=SolveOptions(tol=1e-10), keep_basis=True)
        assert rep.converged
        assert rep.iterations <= 2
        np.testing.assert_allclose(rep.x, b / vals, atol=1e-10)
        # the basis holds only the vectors Arnoldi actually built
        V = rep.arnoldi_basis
        assert V.shape == (rep.iterations, 4)
        np.testing.assert_allclose(V @ V.T, np.eye(rep.iterations), atol=1e-14)

    @pytest.mark.parametrize("pde", ["darcy", "helmholtz", "diffusion"])
    @pytest.mark.parametrize("precond", [False, True])
    def test_needs_only_shape_and_matmul(self, pde, precond):
        class Bare:  # exactly what gmres may read of its operator
            def __init__(self, A):
                self.shape, self._A = A.shape, A

            def __matmul__(self, x):
                return self._A @ x

        gen = RngStream(4, "basis_params", 0).generator()
        coeffs = draw_coefficients(pde, Grid2D(12), gen)
        b = draw_forcing(pde, Grid2D(12), gen).interior()
        kwargs = dict(opts=SolveOptions(tol=1e-10), precond=(
            coeffs.preconditioner() if precond else None))
        ref = gmres(coeffs.operator(), b, **kwargs)
        rep = gmres(Bare(coeffs.operator()), b, **kwargs)
        assert rep.converged and rep.iterations == ref.iterations
        np.testing.assert_array_equal(rep.x.view(np.uint64),
                                      ref.x.view(np.uint64))


class TestStorage:
    """GMRES allocates for the iterations it runs, not for max_iter (here
    the 3844 unknowns of n=64). numpy reports its buffers to tracemalloc."""

    @staticmethod
    def peak_mib(pde, role, preconditioned):
        config = GenerationConfig(pde, Grid2D(64), 1, master_seed=0)
        opts = SolveOptions.for_grid(config.grid, config.solver_tol)
        tracemalloc.start()
        try:
            _, rep = solve_sample(config, role, 0, opts, preconditioned)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        return rep.iterations, peak / 2**20

    @pytest.mark.parametrize("pde", ["darcy", "helmholtz", "diffusion"])
    def test_pool_solve(self, pde):
        iterations, peak = self.peak_mib(pde, "basis_params", True)
        assert iterations <= 16
        assert peak < 6.0

    def test_classic_solve(self):
        # past the basis's first growth: 64 rows are 2 MiB
        iterations, peak = self.peak_mib("helmholtz", "sample_params", False)
        assert 128 < iterations < 256
        assert peak < 16.0


class TestResidualBound:
    def test_identity_trace(self):
        A = CsrMatrix(np.eye(5))
        b = np.ones(5)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-12, record_trace=True))
        assert (max(r.residual_norm - r.h_subdiag * r.y_last_abs
                    for r in rep.trace)
                <= 1e-10 * (1 + np.linalg.norm(b)))

    def test_paper_system_trace(self):
        A = _five_point(Grid2D(2), -4.0, 1, 1, 1, 1)
        b = np.full(4, -2.0)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-10, record_trace=True))
        assert (max(r.residual_norm - r.h_subdiag * r.y_last_abs
                    for r in rep.trace)
                <= 1e-10 * (1 + np.linalg.norm(b)))

    def test_darcy_trace(self):
        A, b = darcy_system(10, 23)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-7, record_trace=True))
        assert (max(r.residual_norm - r.h_subdiag * r.y_last_abs
                    for r in rep.trace)
                <= 1e-10 * (1 + np.linalg.norm(b)))
        assert len(rep.trace) == rep.iterations

    def test_missing_trace(self):
        # the trace is recorded only on request
        rep = gmres(CsrMatrix(np.eye(3)), np.ones(3))
        assert rep.trace is None


class TestPoissonPreconditioner:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_laplacian_breaks_down_at_iteration_1(self, n):
        # k2 = 0 leaves the bare Laplacian, which M is exactly: A M^-1 = I.
        # h_21 is rounding of size ~eps sqrt(N); at n = 64 it exceeded an
        # unscaled 1e-14 threshold, and GMRES missed the breakdown
        g = Grid2D(n)
        coeffs = PdeCoefficients("helmholtz", k2=FieldSample.constant(g, 0.0))
        A = coeffs.assemble()
        x = np.random.default_rng(0).standard_normal(A.nrows)
        rep = gmres(A, A @ x, opts=SolveOptions(tol=1e-13), keep_basis=True,
                    precond=coeffs.preconditioner())
        assert rep.converged and rep.iterations == 1
        assert rep.arnoldi_basis.shape == (1, A.nrows)  # happy breakdown
        assert np.linalg.norm(rep.x - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("pde,fields", [
        ("darcy", {"a": 2.5}), ("diffusion", {"k": 0.7, "q": 0.0})])
    def test_constant_flux_inverts_operator(self, pde, fields):
        # a constant flux coefficient and no other term: M is A itself
        g = Grid2D(16)
        coeffs = PdeCoefficients(pde, **{
            name: FieldSample.constant(g, v) for name, v in fields.items()})
        A = coeffs.assemble()
        x = np.random.default_rng(1).standard_normal(A.nrows)
        y = coeffs.preconditioner()(A @ x)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)

    def test_breakdown_is_scaled_to_the_preconditioned_operator(self):
        # A M^-1 = I + O(1e-9): its first Arnoldi residual, ~1e-9, is far
        # below 1e-14 ||A||_F (~1e-8 at n=64) but is no breakdown
        g = Grid2D(64)
        rng = np.random.default_rng(0)
        a = FieldSample(g, 1.0 + 1e-9 * rng.uniform(size=(66, 66)))
        coeffs = PdeCoefficients("darcy", a=a)
        A = coeffs.assemble()
        b = rng.standard_normal(A.nrows)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-12),
                    precond=coeffs.preconditioner())
        assert rep.converged and rep.iterations == 2

    def test_bound_holds_on_random_preconditioned_traces(self):
        rng = np.random.default_rng(61)
        opts = SolveOptions(tol=1e-12, max_iter=500, record_trace=True)
        pdes = ("darcy", "helmholtz", "diffusion")
        for case in range(20):
            grid = Grid2D(int(rng.integers(3, 21)))
            coeffs = draw_coefficients(pdes[case % 3], grid, rng)
            A = coeffs.assemble()
            b = rng.standard_normal(A.nrows)
            rep = gmres(A, b, opts=opts, precond=coeffs.preconditioner())
            assert rep.converged
            violation = max(r.residual_norm - r.h_subdiag * r.y_last_abs
                            for r in rep.trace)
            assert violation <= 1e-10 * (1 + np.linalg.norm(b)), \
                f"case {case}: violation {violation}"
            x_ref = np.linalg.solve(A.toarray(), b)
            assert np.linalg.norm(rep.x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n,seed", [(4, 0), (8, 1), (16, 2), (25, 3)])
    def test_gmres_vs_dense(self, n, seed):
        A, b = darcy_system(n, seed)
        rep = gmres(A, b, opts=SolveOptions(tol=1e-12,
                                            max_iter=A.nrows))
        xd = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(rep.x - xd) / np.linalg.norm(xd) <= 1e-6
