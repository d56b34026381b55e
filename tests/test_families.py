import numpy as np
import pytest

from pdeforge.dataset_io import DatasetManifest, read_dataset
from pdeforge.families import FAMILIES, PdeCoefficients, PdeFamily
from pdeforge.fields import GrfParams, RngStream
from pdeforge.generator import (
    GenerationConfig,
    draw_coefficients,
    generate_diffoas,
    verify_dataset,
)
from pdeforge.grid import FieldSample, Grid2D
from pdeforge.grid_ops import DimensionError, assemble_darcy


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


def test_new_family_costs_one_record(monkeypatch, tmp_path):
    # -lap(u) = f with a constant unit coefficient, registered and nothing else
    monkeypatch.setitem(FAMILIES, "poisson", PdeFamily(
        distributions={"c": ConstantField()},
        forcing=GrfParams(tau=3.0, alpha=2.0),
        assemble=lambda grid, c: assemble_darcy(grid, c),
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
