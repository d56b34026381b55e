import numpy as np
import pytest

from pdeforge.dataset_io import DatasetManifest, read_dataset
from pdeforge.families import (
    FAMILIES,
    PdeCoefficients,
    PdeFamily,
    apply_block,
)
from pdeforge.fields import GrfParams, RngStream
from pdeforge.generator import (
    GenerationConfig,
    draw_coefficients,
    generate_diffoas,
    verify_dataset,
)
from pdeforge.grid import FieldSample, Grid2D
from pdeforge.grid_ops import (
    DimensionError,
    EllipticityError,
    apply_operator,
    darcy_stencil,
)


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

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_assembled_nnz(self, pde, n):
        gen = RngStream(n, "sample_params", 0).generator()
        A = draw_coefficients(pde, Grid2D(n), gen).assemble()
        assert A.shape == (n * n, n * n)
        assert A.nnz == 5 * n * n - 4 * n
        assert A.has_canonical_format

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
        A, csr = coeffs.operator(), coeffs.assemble()
        assert A.shape == csr.shape
        for _ in range(2):  # the operator reuses its node array
            x = gen.standard_normal(n * n)
            np.testing.assert_array_equal((A @ x).view(np.uint64),
                                          (csr @ x).view(np.uint64))
        # the entries whose norm scales GMRES's happy breakdown
        np.testing.assert_array_equal(A.data.view(np.uint64),
                                      csr.data.view(np.uint64))

    def test_apply_rejects_foreign_u(self, pde):
        grid = Grid2D(4)
        gen = RngStream(0, "sample_params", 0).generator()
        fields = block_of(draw_coefficients(pde, grid, gen))
        with pytest.raises(DimensionError):
            apply_block(pde, grid, fields, FieldSample.from_interior(
                Grid2D(5), np.ones(25)).values[None])
        u = FieldSample.from_interior(grid, np.ones(16))
        u.values[0, 2] = 1e-300
        with pytest.raises(ValueError, match="boundary"):
            apply_block(pde, grid, fields, u.values[None])

    def test_manifest_field_params(self, pde, tmp_path):
        config = GenerationConfig(pde, Grid2D(4), 2, master_seed=1)
        ds = generate_diffoas(config, tmp_path, basis_kind="fourier")
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


class ConstantField:
    def sample(self, grid, rng):
        return FieldSample.constant(grid, 1.0)

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


def test_new_family_costs_one_record(monkeypatch, tmp_path):
    # -lap(u) = f with a constant unit coefficient, registered and nothing else
    monkeypatch.setitem(FAMILIES, "poisson", PdeFamily(
        distributions={"c": ConstantField()},
        forcing=GrfParams(tau=3.0, alpha=2.0),
        stencil=lambda grid, c: darcy_stencil(grid, c),
        n_basis=3,
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


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown pde"):
        PdeCoefficients("burgers")
    with pytest.raises(ValueError, match="unknown pde"):
        draw_coefficients("burgers", Grid2D(2), np.random.default_rng(0))
