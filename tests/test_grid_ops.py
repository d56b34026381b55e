import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdeforge.families import FAMILIES, Uniform
from pdeforge.fields import GrfParams, RngStream, draw_block, sample_grf
from pdeforge.generator import draw_coefficients
from pdeforge.grid import FieldSample, Grid2D, GridError
from pdeforge.grid_ops import (
    CsrMatrix,
    _five_point,
    DimensionError,
    EllipticityError,
    apply_operator,
    apply_stencil,
    stencil_residual,
)

DARCY, HELMHOLTZ, DIFFUSION = (FAMILIES[pde] for pde in
                               ("darcy", "helmholtz", "diffusion"))

PAPER_4X4 = np.array([
    [-4.0, 1.0, 1.0, 0.0],
    [1.0, -4.0, 0.0, 1.0],
    [1.0, 0.0, -4.0, 1.0],
    [0.0, 1.0, 1.0, -4.0],
])


def random_field(grid, seed, lo=0.5, hi=2.0):
    gen = np.random.default_rng(seed)
    m = grid.n_nodes
    return FieldSample(grid, gen.uniform(lo, hi, size=(m, m)))


class TestGrid:
    def test_spacing_and_indexing(self):
        g = Grid2D(4)
        assert g.h == 1.0 / 5.0

    def test_rejects_degenerate(self):
        with pytest.raises(GridError):
            Grid2D(0)

    def test_interior_embedding_roundtrip(self):
        g = Grid2D(3)
        vals = np.arange(9.0)
        fs = FieldSample.from_interior(g, vals)
        assert fs.boundary_max_abs() == 0.0
        np.testing.assert_array_equal(fs.interior(), vals)

    @pytest.mark.parametrize("shape", [(5, 6), (25,), (1, 5, 5)])
    def test_field_sample_needs_the_node_set(self, shape):
        # (5, 5) is Grid2D(3)'s node set; flat values are not taken
        with pytest.raises(GridError, match="node set"):
            FieldSample(Grid2D(3), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3, 4), (10,), (5, 5)])
    def test_from_interior_needs_the_interior(self, shape):
        with pytest.raises(GridError, match="interior shape"):
            FieldSample.from_interior(Grid2D(3), np.zeros(shape))

    def test_apply_stencil_needs_a_contiguous_out(self):
        g = Grid2D(3)
        stencil = DARCY.stencil(g, a=np.ones((5, 5)))
        u = np.ones((5, 5))
        with pytest.raises(DimensionError, match="C-contiguous"):
            apply_stencil(stencil, u, np.empty((5, 10))[:, ::2])
        with pytest.raises(DimensionError, match="C-contiguous"):
            apply_stencil(stencil, u, np.empty((5, 6)))

    @pytest.mark.parametrize("args,kwargs", [
        ((), {}), ((np.float32,), {}),  # as numpy 1 calls it
        ((), {"dtype": None, "copy": None}),  # as numpy 2 calls it
        ((), {"dtype": None, "copy": True}),
        ((), {"dtype": None, "copy": False}),
    ])
    def test_field_sample_is_its_node_array(self, args, kwargs):
        fs = random_field(Grid2D(3), 0)
        arr = fs.__array__(*args, **kwargs)
        np.testing.assert_array_equal(arr, fs.values.astype(arr.dtype))
        assert arr.dtype == (args[0] if args else np.float64)
        if kwargs.get("copy"):
            assert not np.shares_memory(arr, fs.values)
        if kwargs.get("copy") is False:
            assert arr is fs.values
        np.testing.assert_array_equal(np.asarray(fs), fs.values)


class TestDarcy:
    def test_constant_coefficient_golden(self):
        # a == 1, n=2 (h=1/3): 9 * scaled negative Laplacian
        g = Grid2D(2)
        A = _five_point(g, *DARCY.stencil(g, a=FieldSample.constant(g, 1.0)))
        expected = 9.0 * np.array([
            [4.0, -1.0, -1.0, 0.0],
            [-1.0, 4.0, 0.0, -1.0],
            [-1.0, 0.0, 4.0, -1.0],
            [0.0, -1.0, -1.0, 4.0],
        ])
        np.testing.assert_array_equal(A.toarray(), expected)

    def test_laplacian_eigenvalues_n3(self):
        # analytic Dirichlet eigenvalues vs dense eigensolve oracle
        g = Grid2D(3)
        h = g.h
        A = _five_point(g, *DARCY.stencil(g, a=FieldSample.constant(g, 1.0)))
        computed = np.sort(np.linalg.eigvalsh(A.toarray()))
        analytic = np.sort([
            (4.0 / h**2) * (np.sin(np.pi * p * h / 2) ** 2
                            + np.sin(np.pi * q * h / 2) ** 2)
            for p in (1, 2, 3) for q in (1, 2, 3)
        ])
        np.testing.assert_allclose(computed, analytic, rtol=1e-12)

    def test_symmetry_bruteforce(self):
        g = Grid2D(4)
        A = _five_point(g, *DARCY.stencil(g, a=random_field(g, 11)))
        dense = A.toarray()
        for i in range(16):
            for j in range(16):
                assert dense[i, j] == dense[j, i]

    def test_positive_definite_small(self):
        for n in (2, 4, 8):
            g = Grid2D(n)
            A = _five_point(g, *DARCY.stencil(g, a=random_field(g, n)))
            assert np.linalg.eigvalsh(A.toarray()).min() > 0

    def test_constant_scaling(self):
        g = Grid2D(5)
        A1 = _five_point(g, *DARCY.stencil(g, a=FieldSample.constant(g, 1.0)))
        Ac = _five_point(g, *DARCY.stencil(g, a=FieldSample.constant(g, 3.5)))
        np.testing.assert_array_equal(Ac.data, 3.5 * A1.data)

    def test_rejects_nonpositive_permeability(self):
        g = Grid2D(3)
        with pytest.raises(EllipticityError):
            _five_point(g, *DARCY.stencil(g, a=FieldSample.constant(g, -1.0)))

    def test_rejects_mismatched_grid(self):
        with pytest.raises(DimensionError):
            _five_point(Grid2D(3), *DARCY.stencil(
                Grid2D(3), a=FieldSample.constant(Grid2D(4), 1.0)))

    def test_stencil_sparsity(self):
        for n in (2, 3, 7):
            g = Grid2D(n)
            A = _five_point(g, *DARCY.stencil(g, a=random_field(g, n)))
            assert np.max(np.diff(A.indptr)) <= 5
            # brute-force stencil count: 1 diagonal + interior neighbors
            expected = 0
            for i in range(n):
                for j in range(n):
                    expected += 1
                    expected += (i > 0) + (i < n - 1) + (j > 0) + (j < n - 1)
            assert A.nnz == expected == 5 * n * n - 4 * n


    def test_matrices_share_no_index_arrays(self):
        grid = Grid2D(5)
        A = _five_point(grid, *DARCY.stencil(grid, a=random_field(grid, 1)))
        B = _five_point(grid, *DARCY.stencil(grid, a=random_field(grid, 2)))
        indices, indptr = B.indices.copy(), B.indptr.copy()
        A.indices[:3] = A.indices[:3][::-1]
        A.has_sorted_indices = False
        A.sort_indices()
        A.indices[-1] = 0
        A.indptr[1] = 0
        fresh = _five_point(grid,
            *DARCY.stencil(grid, a=random_field(grid, 3)))
        for C in (B, fresh):
            np.testing.assert_array_equal(C.indices, indices)
            np.testing.assert_array_equal(C.indptr, indptr)


class TestHelmholtz:
    def test_zero_k_is_negated_darcy(self):
        g = Grid2D(2)
        H = _five_point(g,
            *HELMHOLTZ.stencil(g, k2=FieldSample.constant(g, 0.0)))
        D = _five_point(g, *DARCY.stencil(g, a=FieldSample.constant(g, 1.0)))
        np.testing.assert_array_equal(H.toarray(), -D.toarray())

    def test_constant_shift(self):
        g = Grid2D(3)
        c = 2.75
        H0 = _five_point(g,
            *HELMHOLTZ.stencil(g, k2=FieldSample.constant(g, 0)))
        Hc = _five_point(g,
            *HELMHOLTZ.stencil(g, k2=FieldSample.constant(g, c)))
        np.testing.assert_array_equal(
            Hc.toarray(), H0.toarray() + c * np.eye(9))

    def test_grf_coefficient_rowsums(self):
        g = Grid2D(4)
        k2 = sample_grf(g, GrfParams(tau=3.0, alpha=2.0, scale=0.1),
                        RngStream(5, "sample_params", 0).generator())
        A = _five_point(g, *HELMHOLTZ.stencil(g, k2=k2))
        np.testing.assert_allclose(
            apply_operator(A, np.ones(16)), A.toarray().sum(axis=1),
            rtol=1e-13, atol=1e-9)


class TestPaperNormalized:
    @pytest.mark.parametrize("k", [0.0, 1.0, -4.0])
    def test_printed_matrix(self, k):
        A = _five_point(Grid2D(2), -4.0 + k, 1, 1, 1, 1)
        np.testing.assert_array_equal(
            A.toarray(), PAPER_4X4 + k * np.eye(4))

    def test_n3_structure(self):
        A = _five_point(Grid2D(3), -4.0, 1, 1, 1, 1)
        dense = A.toarray()
        for i in range(3):
            for j in range(3):
                row = dense[3 * i + j]
                neighbors = (i > 0) + (i < 2) + (j > 0) + (j < 2)
                assert np.count_nonzero(row) == neighbors + 1

    def test_zero_diagonal_is_not_stored(self):
        A = _five_point(Grid2D(3), 0.0, 1, 1, 1, 1)
        assert A.nnz == 5 * 9 - 4 * 3 - 9  # no diagonal
        np.testing.assert_array_equal(
            A.toarray(),
            _five_point(Grid2D(3), -4.0, 1, 1, 1, 1).toarray()
            + 4.0 * np.eye(9))


class TestDiffusionReaction:
    def test_zero_reaction_is_negated_darcy(self):
        g = Grid2D(3)
        k = FieldSample.constant(g, 1.0)
        q = FieldSample.constant(g, 0.0)
        A = _five_point(g, *DIFFUSION.stencil(g, k=k, q=q))
        D = _five_point(g, *DARCY.stencil(g, a=k))
        np.testing.assert_array_equal(A.toarray(), -D.toarray())

    def test_reaction_is_diagonal_shift(self):
        g = Grid2D(4)
        k = random_field(g, 3)
        c = 1.25
        A0 = _five_point(
            g, *DIFFUSION.stencil(g, k=k, q=FieldSample.constant(g, 0.0)))
        Ac = _five_point(
            g, *DIFFUSION.stencil(g, k=k, q=FieldSample.constant(g, c)))
        np.testing.assert_allclose(
            Ac.toarray() - A0.toarray(), c * np.eye(16), atol=1e-12)

    def test_spmv_matches_dense(self):
        g = Grid2D(4)
        k_raw = sample_grf(g, GrfParams(tau=3.0, alpha=2.0, scale=10.0),
                           RngStream(9, "sample_params", 0).generator())
        shift = max(0.0, 0.1 - k_raw.min())
        k = k_raw + shift
        q = draw_block({"q": Uniform(0.0, 1.0)}, g,
                       RngStream(9, "sample_params", 1).generator(), 1)["q"][0]
        A = _five_point(g, *DIFFUSION.stencil(g, k=k, q=q))
        dense = A.toarray()
        gen = np.random.default_rng(0)
        for _ in range(3):
            x = gen.standard_normal(16)
            np.testing.assert_allclose(apply_operator(A, x), dense @ x,
                                       rtol=1e-14, atol=1e-12)

    def test_rejects_nonpositive_k(self):
        g = Grid2D(3)
        with pytest.raises(EllipticityError):
            _five_point(g, *DIFFUSION.stencil(
                g, k=FieldSample.constant(g, 0.0),
                q=FieldSample.constant(g, 1.0)))


class TestApplyOperator:
    def test_identity(self):
        A = CsrMatrix(np.eye(7))
        x = np.arange(7.0)
        np.testing.assert_array_equal(apply_operator(A, x), x)

    def test_paper_row_sums(self):
        A = _five_point(Grid2D(2), -4.0, 1, 1, 1, 1)
        np.testing.assert_array_equal(
            apply_operator(A, np.ones(4)), [-2.0, -2.0, -2.0, -2.0])

    def test_matches_dense_random(self):
        g = Grid2D(5)
        A = _five_point(g, *DARCY.stencil(g, a=random_field(g, 21)))
        dense = A.toarray()
        gen = np.random.default_rng(1)
        x = gen.standard_normal(25)
        b = apply_operator(A, x)
        ref = dense @ x
        assert np.linalg.norm(b - ref) <= 1e-15 * np.linalg.norm(ref) * 25

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_operator(CsrMatrix(np.eye(3)), np.ones(4))

    @pytest.mark.parametrize("pde", ["darcy", "helmholtz", "diffusion"])
    def test_row_sequential_summation(self, pde):
        # the docstring's claim, bit for bit: each row summed left to right
        for seed in range(3):
            gen = RngStream(seed, "sample_params", 0).generator()
            A = draw_coefficients(pde, Grid2D(32), gen).assemble()
            x = gen.standard_normal(A.ncols)
            ref = np.zeros(A.nrows)
            for i in range(A.nrows):
                acc = 0.0
                for k in range(A.indptr[i], A.indptr[i + 1]):
                    acc += float(A.data[k]) * float(x[A.indices[k]])
                ref[i] = acc
            np.testing.assert_array_equal(apply_operator(A, x), ref)

    def test_empty_rows(self):
        A = CsrMatrix((np.array([2.0, -1.0]), np.array([2, 0]),
                       np.array([0, 1, 1, 2])), shape=(3, 3))
        np.testing.assert_array_equal(
            apply_operator(A, np.array([1.0, 2.0, 3.0])), [6.0, 0.0, -1.0])
        empty = CsrMatrix((np.zeros(0), np.zeros(0, dtype=int),
                           np.zeros(3, dtype=int)), shape=(2, 2))
        np.testing.assert_array_equal(apply_operator(empty, np.ones(2)),
                                      np.zeros(2))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 6),
           alpha=st.floats(-2, 2), beta=st.floats(-2, 2))
    def test_linearity(self, seed, n, alpha, beta):
        g = Grid2D(n)
        A = _five_point(g, *DARCY.stencil(g, a=random_field(g, seed)))
        gen = np.random.default_rng(seed + 1)
        x1 = gen.standard_normal(n * n)
        x2 = gen.standard_normal(n * n)
        lhs = apply_operator(A, alpha * x1 + beta * x2)
        rhs = alpha * apply_operator(A, x1) + beta * apply_operator(A, x2)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


def four_face_stencil(h2, coef, sign):
    # the flux form as first written: four face means per node, then
    # sign * (-(sum)) / h2 and sign * a_f / h2
    c = coef[1:-1, 1:-1]
    faces = [0.5 * (c + coef[:-2, 1:-1]), 0.5 * (c + coef[2:, 1:-1]),
             0.5 * (c + coef[1:-1, :-2]), 0.5 * (c + coef[1:-1, 2:])]
    center = sign * (-(faces[0] + faces[1] + faces[2] + faces[3])) / h2
    return [center] + [sign * a_f / h2 for a_f in faces]


class TestStencils:
    @pytest.mark.parametrize("pde", ["darcy", "diffusion"])
    def test_shared_faces_match_four_face_means(self, pde):
        grid = Grid2D(12)
        gen = np.random.default_rng(5)
        for _ in range(3):
            coef = np.exp(gen.standard_normal((14, 14)))
            q = gen.uniform(size=(14, 14))
            if pde == "darcy":
                got, sign = DARCY.stencil(grid, a=coef), -1.0
            else:
                got, sign = DIFFUSION.stencil(grid, k=coef, q=q), 1.0
            ref = four_face_stencil(grid.h ** 2, coef, sign)
            if pde == "diffusion":
                ref[0] = ref[0] + q[1:-1, 1:-1]
            for g, r in zip(got, ref):
                # row-padded: the interior columns are the operator's rows
                assert g.shape == (12, 14)
                assert np.array_equal(g[:, 1:-1].view(np.uint64),
                                      r.view(np.uint64))

    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    def test_block_is_per_sample_bit_for_bit(self, pde):
        grid = Grid2D(7)
        gen = np.random.default_rng(6)
        record = FAMILIES[pde]
        fields = {name: 0.5 + gen.uniform(size=(4, 9, 9))
                  for name in record.coefficients}
        block = record.stencil(grid, **fields)
        for i in range(4):
            one = record.stencil(grid, **{name: FieldSample(grid, v[i])
                                          for name, v in fields.items()})
            for b, s in zip(block, one):
                assert np.array_equal(np.broadcast_to(b, (4, 7, 9))[i],
                                      np.broadcast_to(s, (7, 9)))

    def test_node_array_of_another_grid_rejected(self):
        with pytest.raises(DimensionError):
            DARCY.stencil(Grid2D(4), a=np.ones((3, 5, 5)))


class TestStencilResidual:
    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    def test_matches_the_csr_residual(self, pde):
        grid = Grid2D(9)
        gen = np.random.default_rng(8)
        record = FAMILIES[pde]
        fields = {name: 0.5 + gen.uniform(size=(3, 11, 11))
                  for name in record.coefficients}
        u = np.zeros((3, 11, 11))
        u[:, 1:-1, 1:-1] = gen.standard_normal((3, 9, 9))
        f = gen.standard_normal((3, 11, 11))
        r = stencil_residual(record.stencil(grid, **fields), u, f)
        assert r.shape == (3, 9, 9)
        for i in range(3):
            A = _five_point(grid, *record.stencil(grid, **{
                name: v[i] for name, v in fields.items()}))
            ref = apply_operator(A, u[i, 1:-1, 1:-1].ravel()) \
                - f[i, 1:-1, 1:-1].ravel()
            np.testing.assert_array_equal(r[i].ravel(), ref)

    @pytest.mark.parametrize("direction, node, row", [
        ("north", (0, 3), (0, 2)), ("west", (3, 0), (2, 0)),
        ("east", (3, 7), (2, 5)), ("south", (7, 3), (5, 2))])
    def test_each_boundary_neighbor_reaches_one_row(self, direction, node,
                                                    row):
        # a boundary node is read by one interior row alone, through the
        # neighbor view of one direction
        grid = Grid2D(6)
        stencil = DARCY.stencil(grid, a=random_field(grid, 4))
        gen = np.random.default_rng(2)
        u = np.zeros((1, 8, 8))
        u[0, 1:-1, 1:-1] = gen.standard_normal((6, 6))
        f = gen.standard_normal((1, 8, 8))
        base = stencil_residual(stencil, u, f)
        u[(0, *node)] = 1.0
        changed = stencil_residual(stencil, u, f) != base
        assert np.argwhere(changed[0]).tolist() == [list(row)]
