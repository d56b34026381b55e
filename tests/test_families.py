import numpy as np
import pytest

from pdeforge.dataset_io import DatasetManifest, read_dataset
from pdeforge.families import (
    FAMILIES,
    PdeCoefficients,
    PdeFamily,
    Uniform,
    apply_block,
)
from pdeforge.fields import FieldParameterError, GrfParams, RngStream
from pdeforge.generator import (
    GenerationConfig,
    draw_coefficients,
    generate_diffoas,
    make_ablation_pool,
    verify_dataset,
)
from pdeforge.grid import FieldSample, Grid2D
from pdeforge.grid_ops import (
    DimensionError,
    EllipticityError,
    StencilOperator,
    _five_point,
    apply_operator,
    apply_stencil,
)


def operator(coeffs):
    """The matrix-free operator of one sample's coefficients."""
    return StencilOperator(coeffs.grid, FAMILIES[coeffs.pde].stencil(
        coeffs.grid, **coeffs.fields))


def block_of(coeffs):
    """The coefficient fields of one sample as (1, m, m) node arrays."""
    return {name: fs.values[None] for name, fs in coeffs.fields.items()}


@pytest.mark.parametrize("pde", sorted(FAMILIES))
class TestRegistry:
    def test_drawn_fields_are_the_coefficients(self, pde):
        gen = RngStream(0, "sample_params", 0).generator()
        coeffs = draw_coefficients(pde, Grid2D(5), gen)
        assert tuple(coeffs.field_map()) == FAMILIES[pde].coefficients

    def test_manifest_field_names(self, pde):
        manifest = DatasetManifest(pde=pde, grid_interior=3, num_samples=1,
                                   method="diffoas")
        assert manifest.field_names == FAMILIES[pde].coefficients + ("f", "u")

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64])
    def test_assembled_nnz(self, pde, n):
        gen = RngStream(n, "sample_params", 0).generator()
        A = draw_coefficients(pde, Grid2D(n), gen).assemble()
        assert A.shape == (n * n, n * n)
        assert A.nnz == 5 * n * n - 4 * n
        assert A.has_canonical_format
        # strictly ascending columns within each row: sorted, no duplicate
        assert all(np.all(np.diff(A.indices[lo:hi]) > 0)
                   for lo, hi in zip(A.indptr[:-1], A.indptr[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 31, 64])
    def test_matrix_free_apply_matches_csr_bitwise(self, pde, n):
        grid = Grid2D(n)
        gen = RngStream(n, "sample_params", 1).generator()
        coeffs = draw_coefficients(pde, grid, gen)
        u = FieldSample.from_interior(grid, gen.standard_normal(n * n))
        f = FieldSample(grid, apply_block(pde, grid, block_of(coeffs),
                                          u.values[None])[0])
        csr = apply_operator(coeffs.assemble(), u.interior())
        np.testing.assert_array_equal(f.interior().view(np.uint64),
                                      csr.view(np.uint64))
        assert f.boundary_max_abs() == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_solver_operator_matches_csr_bitwise(self, pde, n):
        gen = RngStream(n, "sample_params", 2).generator()
        coeffs = draw_coefficients(pde, Grid2D(n), gen)
        A, csr = operator(coeffs), coeffs.assemble()
        assert A.shape == csr.shape
        for _ in range(2):  # the operator reuses its node array
            x = gen.standard_normal(n * n)
            np.testing.assert_array_equal((A @ x).view(np.uint64),
                                          (csr @ x).view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_row_padding_leaks_nothing(self, pde, n):
        # the stencil's columns 0 and m-1 hold wrapped faces; none of them
        # may reach f, the solver operator or the CSR reference
        grid, m = Grid2D(n), n + 2
        gen = RngStream(n, "sample_params", 3).generator()
        draws = [draw_coefficients(pde, grid, gen) for _ in range(3)]
        fields = {name: np.stack([d.fields[name].values for d in draws])
                  for name in FAMILIES[pde].coefficients}
        u = np.zeros((3, m, m))
        u[:, 1:-1, 1:-1] = gen.standard_normal((3, n, n))
        stencil = FAMILIES[pde].stencil(grid, **fields)
        for coef in stencil:
            assert np.shape(coef) in ((), (3, n, m))
        boundary = np.ones((m, m), dtype=bool)
        boundary[1:-1, 1:-1] = False
        for out in (np.full((3, m, m), np.nan), np.full((3, m, m), -0.0)):
            f = apply_stencil(stencil, u, out)
            assert not f.view(np.uint64)[:, boundary].any()  # +0.0 bytes
        f = apply_block(pde, grid, fields, u)
        assert not f.view(np.uint64)[:, boundary].any()
        for i, coeffs in enumerate(draws):
            one = FAMILIES[pde].stencil(grid, **coeffs.fields)
            csr = _five_point(grid, *one)
            assert csr.nnz == coeffs.assemble().nnz == 5 * n * n - 4 * n
            op = StencilOperator(grid, one)
            x = u[i, 1:-1, 1:-1].reshape(-1)
            np.testing.assert_array_equal((op @ x).view(np.uint64),
                                          (csr @ x).view(np.uint64))
            np.testing.assert_array_equal(
                f[i, 1:-1, 1:-1].reshape(-1).view(np.uint64),
                (csr @ x).view(np.uint64))

    def test_apply_rejects_foreign_u(self, pde):
        grid = Grid2D(4)
        gen = RngStream(0, "sample_params", 0).generator()
        fields = block_of(draw_coefficients(pde, grid, gen))
        with pytest.raises(DimensionError):
            apply_block(pde, grid, fields, FieldSample.from_interior(
                Grid2D(5), np.ones(25)).values[None])
        # numpy takes a FieldSample as its node array, whose shape tells
        # its grid
        u = FieldSample.constant(Grid2D(5), 0.0)
        with pytest.raises(DimensionError):
            apply_block(pde, grid, fields, u)
        with pytest.raises(DimensionError):
            FAMILIES[pde].stencil(grid, **{
                name: FieldSample.constant(Grid2D(5), 1.0)
                for name in FAMILIES[pde].coefficients})

    def test_manifest_field_params(self, pde, tmp_path):
        config = GenerationConfig(pde, Grid2D(4), 2, master_seed=1)
        ds = generate_diffoas(config, tmp_path,
                              pool=make_ablation_pool(config, "fourier"))
        params = ds.manifest.generation["field_params"]
        assert set(params) == set(FAMILIES[pde].coefficients) | {"f"}
        assert params == FAMILIES[pde].field_params

    def test_coefficients_must_match_the_family(self, pde):
        grid = Grid2D(3)
        fields = {name: FieldSample.constant(grid, 1.0)
                  for name in FAMILIES[pde].coefficients}
        assert PdeCoefficients(pde, **fields).grid == grid
        with pytest.raises(DimensionError):
            PdeCoefficients(pde, **fields, extra=FieldSample.constant(grid, 1.0))
        with pytest.raises(DimensionError):
            PdeCoefficients(pde)


@pytest.mark.parametrize("pde, operator", [
    ("darcy", "-div(a grad u)"), ("helmholtz", "lap(u) + k2 u"),
    ("diffusion", "div(k grad u) + q u")])
def test_manifest_states_the_operator(pde, operator, tmp_path):
    config = GenerationConfig(pde, Grid2D(4), 2, master_seed=1)
    generate_diffoas(config, tmp_path,
                     pool=make_ablation_pool(config, "fourier"))
    generation = read_dataset(tmp_path).manifest.generation
    assert generation["operator"] == operator
    assert "sign_convention" not in generation


class ConstantField:
    def draw(self, grid, gen, out):
        out[...] = 1.0

    def to_dict(self):
        return {"distribution": "constant", "value": 1.0}


@pytest.mark.parametrize("pde, name", [("darcy", "a"), ("diffusion", "k")])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_matrix_free_path_checks_ellipticity(pde, name, bad):
    grid = Grid2D(4)
    fields = {c: FieldSample.constant(grid, 1.0)
              for c in FAMILIES[pde].coefficients}
    fields[name].values[2, 3] = bad
    u = FieldSample.from_interior(grid, np.ones(16))
    with pytest.raises(EllipticityError):
        apply_block(pde, grid, block_of(PdeCoefficients(pde, **fields)),
                    u.values[None])


@pytest.mark.parametrize("pde, name", [("darcy", "a"), ("diffusion", "k")])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("method", ["stencil", "preconditioner"])
def test_stencil_and_preconditioner_check_ellipticity(pde, name, bad,
                                                      method):
    # one rule for both: the preconditioner's C^{1/2} would take the square
    # root of a negative node or divide by a zero one (a numpy warning,
    # an error under pytest) and return an M^{-1} that gives NaN or inf;
    # a NaN node passes a `<= 0` test and gives a NaN stencil and M^{-1}
    grid = Grid2D(4)
    fields = {c: np.ones((6, 6)) for c in FAMILIES[pde].coefficients}
    fields[name][2, 2] = bad
    with pytest.raises(EllipticityError,
                       match=f"flux coefficient {name} must be positive"):
        getattr(FAMILIES[pde], method)(grid, **fields)


def test_new_family_costs_one_record(monkeypatch, tmp_path):
    # -div(c grad u) = f with a constant unit coefficient, registered and
    # nothing else
    monkeypatch.setitem(FAMILIES, "poisson", PdeFamily(
        distributions={"c": ConstantField()},
        forcing=GrfParams(tau=3.0, alpha=2.0),
        sign=-1.0,
        n_basis=3,
        flux="c",
    ))
    config = GenerationConfig("poisson", Grid2D(6), 4, master_seed=2)
    generate_diffoas(config, tmp_path)
    ds = read_dataset(tmp_path)
    assert ds.manifest.field_names == ("c", "f", "u")
    assert ds.manifest.generation["field_params"]["c"]["distribution"] == \
        "constant"
    np.testing.assert_array_equal(ds.field_sample("c", 0).values,
                                  np.ones((8, 8)))
    report = verify_dataset(ds, tol=1e-13)
    assert report.passed and report.num_samples == 4


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0),
                                    (0.0, float("nan"))])
def test_uniform_needs_lo_below_hi(lo, hi):
    with pytest.raises(FieldParameterError, match="need lo < hi"):
        Uniform(lo, hi)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown pde"):
        PdeCoefficients("burgers")
    with pytest.raises(ValueError, match="unknown pde"):
        draw_coefficients("burgers", Grid2D(2), np.random.default_rng(0))


def kron_operator(pde, grid, fields):
    """The family's operator written independently of grid_ops: the flux
    term as D^T diag(c_face) D from 1-D differences, face values by the
    arithmetic mean, plus the diagonal terms."""
    import scipy.sparse as sp
    n = grid.n_interior
    # (n+1) x n: the differences across the n+1 faces of a line of unknowns
    d1 = (sp.eye(n + 1, n) - sp.eye(n + 1, n, k=-1)) / grid.h
    dx, dy = sp.kron(sp.eye(n), d1), sp.kron(d1, sp.eye(n))

    def flux(c):  # -div(c grad u)
        cx = 0.5 * (c[1:-1, :-1] + c[1:-1, 1:])  # faces across columns
        cy = 0.5 * (c[:-1, 1:-1] + c[1:, 1:-1])  # faces across rows
        return (dx.T @ sp.diags(cx.ravel()) @ dx
                + dy.T @ sp.diags(cy.ravel()) @ dy).toarray()

    v = {name: f.values for name, f in fields.items()}
    if pde == "darcy":
        return flux(v["a"])
    diagonal = v["k2"] if pde == "helmholtz" else v["q"]
    c = np.ones_like(diagonal) if pde == "helmholtz" else v["k"]
    return -flux(c) + np.diag(diagonal[1:-1, 1:-1].ravel())


@pytest.mark.parametrize("pde", sorted(FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_operator_matches_independent_kron_form(pde, n):
    grid = Grid2D(n)
    gen = RngStream(n, "sample_params", 4).generator()
    coeffs = draw_coefficients(pde, grid, gen)
    ref = kron_operator(pde, grid, coeffs.fields)
    diff = np.abs(coeffs.assemble().toarray() - ref).max()
    assert diff <= 1e-12 * np.abs(ref).max()


def manufactured(pde, grid):
    """(coefficient node arrays, u, f) for u = sin(pi x) sin(2 pi y), with f
    the family's operator applied to u analytically, all at the nodes."""
    pi, t = np.pi, grid.node_coords()
    y, x = np.meshgrid(t, t, indexing="ij")  # rows run along y
    u = np.sin(pi * x) * np.sin(2 * pi * y)
    ux = pi * np.cos(pi * x) * np.sin(2 * pi * y)
    uy = 2 * pi * np.sin(pi * x) * np.cos(2 * pi * y)
    lap = -5 * pi ** 2 * u
    if pde == "darcy":  # -div(a grad u)
        s = 2 * pi * x + pi * y
        a = 1 + 0.5 * np.sin(s)
        return {"a": a}, u, -(0.5 * pi * np.cos(s) * (2 * ux + uy) + a * lap)
    if pde == "helmholtz":  # lap(u) + k2 u
        return {"k2": np.full_like(u, 10.0)}, u, lap + 10.0 * u
    s = pi * x + 2 * pi * y  # div(k grad u) + q u
    k, q = 1 + 0.5 * np.cos(s), 1 + x * y
    return {"k": k, "q": q}, u, (-0.5 * pi * np.sin(s) * (ux + 2 * uy)
                                 + k * lap + q * u)


def observed_order(pde):
    """The slope of log ||A_h u - f_h|| / ||f_h|| against log h over
    n = 16, 32, 64, with A_h the family's matrix-free operator."""
    hs, errors = [], []
    for n in (16, 32, 64):
        grid = Grid2D(n)
        fields, u, f = manufactured(pde, grid)
        coeffs = PdeCoefficients(pde, **{
            name: FieldSample(grid, v) for name, v in fields.items()})
        f = f[1:-1, 1:-1].ravel()
        r = operator(coeffs) @ u[1:-1, 1:-1].ravel() - f
        hs.append(grid.h)
        errors.append(np.linalg.norm(r) / np.linalg.norm(f))
    return np.polyfit(np.log(hs), np.log(errors), 1)[0]


@pytest.mark.parametrize("pde", sorted(FAMILIES))
def test_manufactured_solution_converges_at_second_order(pde):
    assert 1.8 <= observed_order(pde) <= 2.2


@pytest.mark.parametrize("pde", sorted(FAMILIES))
def test_perturbed_face_fails_the_order_test(pde, monkeypatch):
    stencil = PdeFamily.stencil

    def perturbed(record, grid, **fields):
        # the north face off by a relative O(h), as a coefficient taken at
        # a node instead of the face midpoint would be
        center, north, *rest = stencil(record, grid, **fields)
        return (center, north * (1 + grid.h), *rest)

    monkeypatch.setattr(PdeFamily, "stencil", perturbed)
    assert not 1.8 <= observed_order(pde) <= 2.2
