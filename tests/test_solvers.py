import math
import tracemalloc

import numpy as np
import pytest

from pdeforge.families import FAMILIES, PdeCoefficients
from pdeforge.fields import GrfParams, RngStream, sample_grf
from pdeforge.generator import (
    GenerationConfig,
    _solve_blocks,
    draw_coefficients,
    draw_forcing,
)
from pdeforge.grid import FieldSample, Grid2D
from pdeforge.grid_ops import (
    CsrMatrix,
    DimensionError,
    StencilOperator,
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


def operator(coeffs):
    """The matrix-free operator of one sample's coefficients."""
    return StencilOperator(coeffs.grid, FAMILIES[coeffs.pde].stencil(
        coeffs.grid, **coeffs.fields))


def preconditioner(coeffs):
    """The pool solves' M^{-1} for one sample's coefficients."""
    return FAMILIES[coeffs.pde].preconditioner(coeffs.grid, **coeffs.fields)


def draw_systems(config, role, indices, preconditioned):
    """(fields, A, b, precond) of the systems of indices, each drawn alone
    from its (master_seed, role, i) stream by draw_coefficients and
    draw_forcing: coefficient name -> (k, m, m) node arrays, the block's
    operator, its (k, N) right-hand sides and its preconditioner (None
    unless preconditioned)."""
    grid, record = config.grid, FAMILIES[config.pde]
    coeffs, forcing = [], []
    for i in indices:
        gen = RngStream(config.master_seed, role, i).generator()
        coeffs.append(draw_coefficients(config.pde, grid, gen))
        forcing.append(draw_forcing(config.pde, grid, gen).interior())
    fields = {name: np.stack([c.fields[name].values for c in coeffs])
              for name in record.coefficients}
    A = StencilOperator(grid, record.stencil(grid, **fields))
    precond = (record.preconditioner(grid, **fields) if preconditioned
               else None)
    return fields, A, np.stack(forcing), precond


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
            preconditioner(coeffs) if precond else None))
        ref = gmres(operator(coeffs), b, **kwargs)
        rep = gmres(Bare(operator(coeffs)), b, **kwargs)
        assert rep.converged and rep.iterations == ref.iterations
        np.testing.assert_array_equal(rep.x.view(np.uint64),
                                      ref.x.view(np.uint64))


class TestStorage:
    """GMRES allocates for the iterations it runs, not for max_iter (here
    the 3844 unknowns of n=64). numpy reports its buffers to tracemalloc."""

    @staticmethod
    def peak_mib(pde, role, preconditioned):
        config = GenerationConfig(pde, Grid2D(64), 1, master_seed=0)
        tracemalloc.start()
        try:
            ((_, _, (rep,)),) = _solve_blocks(config, role, [range(1)], 1,
                                              preconditioned)
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

    @pytest.mark.parametrize("pde", ["darcy", "helmholtz", "diffusion"])
    def test_pool_block(self, pde):
        # a block of 8 pool solves holds 8 bases of the rows it built
        config = GenerationConfig(pde, Grid2D(64), 1, master_seed=0)
        opts = SolveOptions.for_grid(config.grid, config.solver_tol)
        _, A, b, precond = draw_systems(config, "basis_params", range(8),
                                        preconditioned=True)
        tracemalloc.start()
        try:
            reports = gmres(A, b, opts=opts, precond=precond)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert all(rep.converged and rep.iterations <= 16 for rep in reports)
        assert peak < 16.0

    def test_classic_solve(self):
        # past the basis's growths from 8 rows: 128 rows are 4 MiB
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
                    precond=preconditioner(coeffs))
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
        y = preconditioner(coeffs)(A @ x)
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
                    precond=preconditioner(coeffs))
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
            rep = gmres(A, b, opts=opts, precond=preconditioner(coeffs))
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


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_solve(rep, ref):
    """rep has ref's bits, iterations, residual, trace and basis."""
    assert (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
    assert (rep.final_relative_residual.hex()
            == ref.final_relative_residual.hex())
    np.testing.assert_array_equal(bits(rep.x), bits(ref.x))
    assert rep.trace == ref.trace
    if ref.arnoldi_basis is None:
        assert rep.arnoldi_basis is None
    else:
        np.testing.assert_array_equal(bits(rep.arnoldi_basis),
                                      bits(ref.arnoldi_basis))


class TestBlock:
    """gmres on a (k, N) block: each row's report is that of its system
    solved alone, a one-dimensional call on one sample's operator."""

    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_rows_are_their_systems_alone(self, pde, preconditioned):
        config = GenerationConfig(pde, Grid2D(16), 1, master_seed=2)
        opts = SolveOptions(tol=1e-9, max_iter=256, record_trace=True)
        fields, A, b, precond = draw_systems(
            config, "sample_params", range(5), preconditioned)
        reports = gmres(A, b, opts=opts, keep_basis=True, precond=precond)
        assert len(reports) == 5
        for k, rep in enumerate(reports):
            gen = RngStream(2, "sample_params", k).generator()
            coeffs = draw_coefficients(pde, config.grid, gen)
            forcing = draw_forcing(pde, config.grid, gen)
            ref = gmres(operator(coeffs), forcing.interior(), opts=opts,
                        keep_basis=True, precond=(
                            preconditioner(coeffs) if preconditioned
                            else None))
            assert ref.converged
            assert_same_solve(rep, ref)
        if pde == "diffusion":  # rows leave the block at different steps
            assert len({rep.iterations for rep in reports}) > 1

    def test_rows_that_stop_for_every_reason(self):
        # one helmholtz block: k2 = 0 is the bare Laplacian, which the
        # preconditioner inverts (a happy breakdown at iteration 1); a
        # zero right-hand side (0 iterations); a large k2 that max_iter
        # cuts off unconverged; and one that converges by its tolerance
        g = Grid2D(12)
        rng = np.random.default_rng(5)
        k2 = np.zeros((4, 14, 14))
        k2[2] = rng.uniform(-2000.0, 2000.0, (14, 14))
        k2[3] = rng.uniform(-20.0, 20.0, (14, 14))
        b = rng.standard_normal((4, 144))
        b[1] = 0.0
        helmholtz = FAMILIES["helmholtz"]
        A = StencilOperator(g, helmholtz.stencil(g, k2=k2))
        precond = helmholtz.preconditioner(g, k2=k2)
        opts = SolveOptions(tol=1e-10, max_iter=12, record_trace=True)
        reports = gmres(A, b, opts=opts, keep_basis=True, precond=precond)
        for k, rep in enumerate(reports):
            coeffs = PdeCoefficients("helmholtz", k2=FieldSample(g, k2[k]))
            ref = gmres(operator(coeffs), b[k], opts=opts, keep_basis=True,
                        precond=preconditioner(coeffs))
            assert_same_solve(rep, ref)
        happy, zero, cut, met = reports
        assert happy.converged and happy.iterations == 1
        assert happy.arnoldi_basis.shape == (1, 144)
        assert zero.converged and zero.iterations == 0
        assert not zero.x.any() and zero.trace == []
        assert not cut.converged and cut.iterations == 12
        assert met.converged and 1 < met.iterations < 12

    def test_rows_leave_the_block_as_they_stop(self):
        # each step applies A once to the rows still in the block, and a
        # step where rows stop applies it once more to those rows, for
        # their true residuals
        config = GenerationConfig("diffusion", Grid2D(12), 1, master_seed=4)
        _, A, b, precond = draw_systems(config, "basis_params", range(6),
                                        preconditioned=True)
        calls = []

        class Counting:
            def __init__(self, op):
                self.op, self.shape = op, A.shape

            def __matmul__(self, X):
                calls.append(len(X))
                return self.op @ X

            def __getitem__(self, rows):
                return Counting(self.op[rows])

        reports = gmres(Counting(A), b, opts=SolveOptions(tol=1e-10),
                        precond=precond)
        iterations = [rep.iterations for rep in reports]
        assert len(set(iterations)) > 2
        expected = []
        for step in range(1, max(iterations) + 1):
            expected.append(sum(it >= step for it in iterations))
            if step in iterations:
                expected.append(iterations.count(step))
        assert calls == expected

    def test_block_operator_rows_are_one_sample_calls(self):
        # StencilOperator and PoissonPreconditioner on a (k, N) stack: row
        # i is sample i's one-dimensional call, and [rows] takes rows
        config = GenerationConfig("darcy", Grid2D(10), 1, master_seed=1)
        fields, A, b, precond = draw_systems(config, "basis_params",
                                             range(4), True)
        Ab, Pb = A @ b, precond(b)
        for k in range(4):
            coeffs = PdeCoefficients("darcy", a=FieldSample(
                config.grid, fields["a"][k]))
            np.testing.assert_array_equal(bits(Ab[k]),
                                          bits(operator(coeffs) @ b[k]))
            np.testing.assert_array_equal(
                bits(Pb[k]), bits(preconditioner(coeffs)(b[k])))
        np.testing.assert_array_equal(bits(A[[3, 1]] @ b[[3, 1]]),
                                      bits(Ab[[3, 1]]))
        np.testing.assert_array_equal(bits(precond[[3, 1]](b[[3, 1]])),
                                      bits(Pb[[3, 1]]))

    def test_block_shape_mismatch(self):
        A = CsrMatrix(np.eye(3))
        with pytest.raises(DimensionError):
            gmres(A, np.ones((2, 4)))
        with pytest.raises(DimensionError):
            gmres(A, np.ones((2, 3, 1)))
