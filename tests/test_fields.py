import numpy as np
import pytest

from pdeforge.families import Uniform
from pdeforge.fields import (
    FieldParameterError,
    GrfParams,
    RngStream,
    boundary_decay_mask,
    chebyshev_basis_field,
    draw_block,
    fourier_basis_field,
    sample_grf,
)
from pdeforge.grid import Grid2D


def project_onto_cosine_mode(field, k1, k2):
    """Trapezoid-rule projection of an (m, m) field onto the orthonormal
    cosine mode; independent of the sampler's internal synthesis."""
    g = Grid2D(len(field) - 2)
    x = g.node_coords()
    w = np.full(g.n_nodes, g.h)
    w[0] = w[-1] = g.h / 2.0
    phi1 = np.cos(np.pi * k1 * x) * (np.sqrt(2.0) if k1 else 1.0)
    phi2 = np.cos(np.pi * k2 * x) * (np.sqrt(2.0) if k2 else 1.0)
    return float((w * phi1) @ field @ (w * phi2))


class TestRngStream:
    def test_pure_function_of_identity(self):
        s = RngStream(123, "weights", 7)
        a = s.generator().standard_normal(8)
        b = RngStream(123, "weights", 7).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        base = RngStream(123, "weights", 7).generator().standard_normal(8)
        for other in (RngStream(123, "weights", 8),
                      RngStream(123, "noise", 7),
                      RngStream(124, "weights", 7)):
            assert not np.array_equal(
                base, other.generator().standard_normal(8))

    def test_unknown_role(self):
        with pytest.raises(FieldParameterError):
            RngStream(1, "nonsense", 0)


class TestGrfParams:
    def test_validation(self):
        with pytest.raises(FieldParameterError):
            GrfParams(tau=0.0, alpha=2.0)
        with pytest.raises(FieldParameterError):
            GrfParams(tau=3.0, alpha=1.0)
        with pytest.raises(FieldParameterError):
            GrfParams(tau=3.0, alpha=2.0, transform="log")

    @pytest.mark.parametrize("name,settings", [
        ("tau", {"tau": float("nan")}), ("tau", {"tau": float("inf")}),
        ("alpha", {"alpha": float("nan")}),
        ("alpha", {"alpha": float("inf")}),
        ("scale", {"scale": float("nan")}),
        ("scale", {"scale": float("-inf")})])
    def test_non_finite_settings_are_refused(self, name, settings):
        with pytest.raises(FieldParameterError, match=f"{name} must"):
            GrfParams(**{"tau": 3.0, "alpha": 2.0, **settings})


class TestSampleGrf:
    @pytest.mark.parametrize("n", [9, 64])
    def test_block_draw_is_one_sample_draw_at_a_time(self, n):
        # the stacked normal draw and GEMMs against b one-sample draws
        g = Grid2D(n)
        p = GrfParams(tau=7.0, alpha=2.5, scale=0.5, transform="exp")
        block = draw_block({"g": p}, g, RngStream(2, "noise", 0).generator(),
                           8)["g"]
        gen = RngStream(2, "noise", 0).generator()
        for values in block:
            np.testing.assert_array_equal(
                values, draw_block({"g": p}, g, gen, 1)["g"][0])

    def test_deterministic(self):
        g = Grid2D(8)
        p = GrfParams(tau=7.0, alpha=2.5)
        s = RngStream(42, "basis_params", 3)
        a = sample_grf(g, p, s.generator())
        b = sample_grf(g, p, s.generator())
        np.testing.assert_array_equal(a, b)

    def test_scale_zero_gives_zero_field(self):
        g = Grid2D(5)
        p = GrfParams(tau=3.0, alpha=2.0, scale=0.0)
        f = sample_grf(g, p, RngStream(0, "noise", 0).generator())
        np.testing.assert_array_equal(f, np.zeros((7, 7)))

    def test_exp_transform_positive(self):
        g = Grid2D(6)
        p = GrfParams(tau=7.0, alpha=2.5, transform="exp")
        f = sample_grf(g, p, RngStream(1, "sample_params", 0).generator())
        assert f.min() > 0

    def test_mode_variance_ratio(self):
        # empirical var of mode (1,0) vs (2,0) coefficients matches the
        # spectral decay ((pi^2*4+tau^2)/(pi^2+tau^2))^alpha within 10%
        tau, alpha = 3.0, 2.0
        g = Grid2D(31)
        p = GrfParams(tau=tau, alpha=alpha)
        c1, c2 = [], []
        for i in range(10_000):
            f = sample_grf(g, p, RngStream(7, "sample_params", i).generator())
            c1.append(project_onto_cosine_mode(f, 1, 0))
            c2.append(project_onto_cosine_mode(f, 2, 0))
        ratio = np.var(c1) / np.var(c2)
        expected = ((np.pi**2 * 4 + tau**2) / (np.pi**2 * 1 + tau**2)) ** alpha
        assert abs(ratio - expected) / expected < 0.10

    def test_zero_mean_pooled(self):
        g = Grid2D(10)
        p = GrfParams(tau=3.0, alpha=2.0)
        samples = np.stack([
            sample_grf(g, p, RngStream(11, "sample_params", i).generator())
            for i in range(10_000)
        ])
        pooled_std = samples.std()
        tol = 3.0 * pooled_std / np.sqrt(samples.size)
        # nodes within one field are correlated, so inflate by the node count
        assert abs(samples.mean()) <= tol * g.n_nodes

    def test_spectral_monotonicity(self):
        tau, alpha = 3.0, 2.0
        g = Grid2D(15)
        p = GrfParams(tau=tau, alpha=alpha)
        modes = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0)]
        coeffs = {m: [] for m in modes}
        for i in range(10_000):
            f = sample_grf(g, p, RngStream(13, "sample_params", i).generator())
            for m in modes:
                coeffs[m].append(project_onto_cosine_mode(f, *m))
        variances = [np.var(coeffs[m]) for m in
                     sorted(modes, key=lambda m: m[0]**2 + m[1]**2)]
        for lo, hi in zip(variances[1:], variances[:-1]):
            assert lo <= hi * 1.05  # 5% slack for projection error


def draw_uniform(grid, lo, hi, stream):
    """One U[lo, hi) field drawn through draw_block, as generation draws."""
    return draw_block({"q": Uniform(lo, hi)}, grid, stream.generator(),
                      1)["q"][0]


class TestUniform:
    def test_range(self):
        f = draw_uniform(Grid2D(20), 0.0, 1.0,
                         RngStream(3, "sample_params", 0))
        assert f.min() >= 0.0 and f.max() < 1.0

    def test_tiny_interval(self):
        f = draw_uniform(Grid2D(8), 2.0, 2.0 + 1e-9, RngStream(3, "noise", 1))
        assert f.max() - f.min() < 1e-9

    def test_mean(self):
        g = Grid2D(100)  # > 1e4 values per draw
        vals = np.concatenate([
            draw_uniform(g, -1.0, 3.0,
                         RngStream(5, "sample_params", i)).ravel()
            for i in range(10)
        ])
        assert vals.size >= 10**5
        assert abs(vals.mean() - 1.0) < 0.01


class TestBasisFields:
    def test_fourier_first_mode(self):
        g = Grid2D(7)
        f = fourier_basis_field(g, 1)
        x = g.node_coords()
        expected = np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
        assert not f[[0, -1]].any() and not f[:, [0, -1]].any()
        np.testing.assert_allclose(f[1:-1, 1:-1],
                                   expected[1:-1, 1:-1], rtol=1e-14)

    @pytest.mark.parametrize("index", [1, 2, 5, 17])
    def test_fourier_bounded(self, index):
        f = fourier_basis_field(Grid2D(9), index)
        assert np.max(np.abs(f)) <= 1.0

    def test_fourier_orthogonality(self):
        g = Grid2D(40)
        f1 = fourier_basis_field(g, 1)
        f2 = fourier_basis_field(g, 2)
        inner = float(np.sum(f1 * f2)) * g.h**2
        assert abs(inner) < 1e-10

    def test_fourier_rejects_bad_index(self):
        with pytest.raises(FieldParameterError):
            fourier_basis_field(Grid2D(4), 0)

    def test_chebyshev_constant_mode_is_window(self):
        g = Grid2D(6)
        cheb = chebyshev_basis_field(g, 1)  # (k1, k2) = (0, 0)
        mask = boundary_decay_mask(g)
        np.testing.assert_array_equal(cheb, mask)

    @pytest.mark.parametrize("index", range(1, 12))
    def test_chebyshev_zero_boundary(self, index):
        f = chebyshev_basis_field(Grid2D(8), index)
        assert not f[[0, -1]].any() and not f[:, [0, -1]].any()

    def test_chebyshev_pointwise_oracle(self):
        # (k1, k2) = (1, 0) at node (0.75, 0.5): T1(0.5) * window
        g = Grid2D(3)  # h = 1/4: node (3, 2) is (0.75, 0.5)
        f = chebyshev_basis_field(g, 3)
        expected = 0.5 * np.sin(0.75 * np.pi) * np.sin(0.5 * np.pi)
        assert f[3, 2] == pytest.approx(expected, rel=1e-14)


class TestBoundaryMask:
    def test_center_and_boundary(self):
        g = Grid2D(3)  # h=1/4, node (2,2) is the center
        mask = boundary_decay_mask(g)
        assert mask[2, 2] == pytest.approx(1.0, rel=1e-15)
        assert not mask[[0, -1]].any() and not mask[:, [0, -1]].any()

    def test_quarter_point(self):
        g = Grid2D(3)
        mask = boundary_decay_mask(g)
        assert mask[1, 2] == pytest.approx(np.sin(np.pi / 4), rel=1e-14)
