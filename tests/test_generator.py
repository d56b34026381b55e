import dataclasses
import json
import re

import numpy as np
import pytest

from pdeforge import generator, grid_ops
from pdeforge.dataset_io import (
    DatasetIntegrityError,
    DatasetManifest,
    checksum_field,
    read_dataset,
    write_dataset,
)
from pdeforge.families import FAMILIES, PdeCoefficients
from pdeforge.fields import RngStream
from pdeforge.generator import (
    BasisPool,
    BasisConstructionError,
    DegenerateWeightsError,
    GenerationConfig,
    VerificationReport,
    build_basis_pool,
    combine_solution,
    generate_classic,
    generate_diffoas,
    verify_dataset,
)
from pdeforge.grid import FieldSample, Grid2D
from pdeforge.grid_ops import EllipticityError, apply_operator, dense_solve
from pdeforge.solvers import SolveOptions, gmres


def small_config(**kw):
    defaults = dict(pde="darcy", grid=Grid2D(10), num_samples=4,
                    method="diffoas", n_basis=4, master_seed=21)
    defaults.update(kw)
    return GenerationConfig(**defaults)


def manifest_without_timings(path):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["generation"].pop("timings", None)
    return manifest


class TestConfig:
    def test_basis_defaults_per_pde(self):
        g = Grid2D(4)
        assert GenerationConfig("darcy", g, 1).n_basis == 30
        assert GenerationConfig("helmholtz", g, 1).n_basis == 50
        assert GenerationConfig("diffusion", g, 1).n_basis == 50

    def test_validation(self):
        g = Grid2D(4)
        with pytest.raises(ValueError):
            GenerationConfig("darcy", g, 0)
        with pytest.raises(ValueError):
            GenerationConfig("darcy", g, 1, n_basis=0)
        with pytest.raises(ValueError):
            GenerationConfig("burgers", g, 1)

    def test_resample_threshold_follows_pool_size(self):
        config = GenerationConfig("darcy", Grid2D(4), 1, n_basis=16)
        assert config.weight_resample_threshold == 1e-3 * 4.0
        with pytest.raises(TypeError):
            GenerationConfig("darcy", Grid2D(4), 1,
                             weight_resample_threshold=0.5)


class TestBasisPool:
    def test_single_basis_residual(self):
        config = small_config(grid=Grid2D(8), n_basis=1)
        pool = build_basis_pool(config)
        assert pool.size == 1
        # re-derive the system and recheck the stored solution's residual
        from pdeforge.generator import draw_coefficients, draw_forcing
        gen = RngStream(config.master_seed, "basis_params", 0).generator()
        coeffs = draw_coefficients("darcy", config.grid, gen)
        forcing = draw_forcing("darcy", config.grid, gen)
        A = coeffs.assemble()
        b = forcing.interior()
        r = apply_operator(A, pool.basis[0].interior()) - b
        assert np.linalg.norm(r) / np.linalg.norm(b) <= 1e-5

    def test_deterministic(self):
        config = small_config()
        p1 = build_basis_pool(config)
        p2 = build_basis_pool(config)
        np.testing.assert_array_equal(p1.stacked(), p2.stacked())

    def test_zero_boundary_traces(self):
        pool = build_basis_pool(small_config(n_basis=3))
        for u in pool.basis:
            assert u.boundary_max_abs() == 0.0

    def test_failed_solve_names_index(self):
        config = small_config(solver_tol=1e-13)
        config.solver_tol = 1e-13
        # an absurdly tight iteration cap forces failure
        from pdeforge import generator as gen_mod
        orig = gen_mod.gmres

        def crippled(A, b, x0=None, opts=None, **kw):
            return orig(A, b, x0, SolveOptions(tol=opts.tol, max_iter=1))

        gen_mod.gmres, saved = crippled, gen_mod.gmres
        try:
            with pytest.raises(BasisConstructionError, match="basis solve 0"):
                build_basis_pool(config)
        finally:
            gen_mod.gmres = saved


class TestPreconditionedPool:
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    def test_pool_solves(self, pde, n):
        config = GenerationConfig(pde, Grid2D(n), 1, n_basis=10,
                                  master_seed=0)
        pool = build_basis_pool(config)
        for i, (u, solve) in enumerate(zip(pool.basis, pool.provenance)):
            assert solve["iterations"] <= 20
            gen = RngStream(0, "basis_params", i).generator()
            A = generator.draw_coefficients(pde, config.grid, gen).assemble()
            b = generator.draw_forcing(pde, config.grid, gen).interior()
            x = u.interior()
            assert (np.linalg.norm(A @ x - b)
                    <= config.solver_tol * np.linalg.norm(b))
            if n <= 32:
                x_ref = dense_solve(A, b)
                assert (np.linalg.norm(x - x_ref)
                        <= 1e-4 * np.linalg.norm(x_ref))

    def test_seed_0_iteration_totals(self):
        # unpreconditioned, these pools took 6205, 7494 and 11633 iterations
        totals = {}
        for pde in sorted(FAMILIES):
            pool = build_basis_pool(GenerationConfig(pde, Grid2D(64), 1,
                                                     master_seed=0))
            totals[pde] = sum(s["iterations"] for s in pool.provenance)
        assert totals == {"darcy": 192, "diffusion": 468, "helmholtz": 100}

    def test_only_pool_solves_are_preconditioned(self, tmp_path,
                                                 monkeypatch):
        # classic generation is the paper's unpreconditioned baseline
        preconds = []

        def recording(A, b, **kwargs):
            preconds.append(kwargs.get("precond"))
            return gmres(A, b, **kwargs)

        monkeypatch.setattr(generator, "gmres", recording)
        generate_classic(small_config(method="classic", num_samples=3),
                         tmp_path / "c")
        assert preconds == [None] * 3
        preconds.clear()
        build_basis_pool(small_config(n_basis=3))
        assert len(preconds) == 3 and all(map(callable, preconds))

    def test_pool_solve_builds_the_stencil_once(self, monkeypatch):
        # the preconditioner's sign and the CSR matrix share one stencil
        builds = []
        darcy = FAMILIES["darcy"]

        def counting(grid, **fields):
            builds.append(grid)
            return darcy.stencil(grid, **fields)

        monkeypatch.setitem(FAMILIES, "darcy",
                            dataclasses.replace(darcy, stencil=counting))
        pool = build_basis_pool(small_config(n_basis=3))
        assert len(builds) == 3
        assert sum(s["iterations"] for s in pool.provenance) > 0

class TestCombine:
    def test_single_basis_eta_zero(self):
        g = Grid2D(6)
        u1 = FieldSample.from_interior(
            g, np.random.default_rng(1).standard_normal(36))
        pool = BasisPool(g, [u1])
        out = combine_solution(pool, RngStream(0, "weights", 0),
                               RngStream(0, "noise", 0), eta=0.0, delta=1e-3)
        np.testing.assert_array_equal(out.values, u1.values)

    def test_equal_weights_injected(self):
        g = Grid2D(4)
        gen = np.random.default_rng(2)
        u1 = FieldSample.from_interior(g, gen.standard_normal(16))
        u2 = FieldSample.from_interior(g, gen.standard_normal(16))
        pool = BasisPool(g, [u1, u2])
        # find a stream whose two draws are nearly equal is impractical;
        # instead check the affine identity sum(alpha) = 1 via reconstruction
        out = combine_solution(pool, RngStream(3, "weights", 5),
                               RngStream(3, "noise", 5), eta=0.0, delta=1e-3)
        # solve for the weights used and confirm they sum to 1
        basis = np.stack([u1.interior(), u2.interior()])
        w, *_ = np.linalg.lstsq(basis.T, out.interior(), rcond=None)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_noise_bounded_and_boundary_zero(self):
        config = small_config(n_basis=5)
        pool = build_basis_pool(config)
        eta = 0.01
        out = combine_solution(pool, RngStream(7, "weights", 0),
                               RngStream(7, "noise", 0), eta=eta, delta=1e-3)
        base = combine_solution(pool, RngStream(7, "weights", 0),
                                RngStream(7, "noise", 0), eta=0.0, delta=1e-3)
        assert out.boundary_max_abs() == 0.0
        eps = out.values - base.values
        assert np.max(np.abs(eps)) <= eta * np.max(np.abs(base.values)) + 1e-15

    def test_degenerate_weights_error(self):
        g = Grid2D(3)
        pool = BasisPool(g, [FieldSample.constant(g, 0.0)])
        with pytest.raises(DegenerateWeightsError):
            # threshold so large every draw of one N(0,1) gets rejected
            combine_solution(pool, RngStream(1, "weights", 0),
                             RngStream(1, "noise", 0), eta=0.0, delta=1e9)


class TestDiffoas:
    def test_triples_exact(self, tmp_path):
        config = small_config(num_samples=3, noise_eta=0.0, n_basis=1)
        ds = generate_diffoas(config, tmp_path / "d")
        report = verify_dataset(ds, 1e-14)
        assert report.passed
        assert report.max_relative_residual <= 1e-14

    def test_verify_residuals(self, tmp_path):
        config = small_config(num_samples=6)
        ds = generate_diffoas(config, tmp_path / "d")
        report = verify_dataset(ds, 1e-12)
        assert report.passed

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        generate_diffoas(config, tmp_path / "a")
        generate_diffoas(config, tmp_path / "b")
        for name in ("a", "f", "u"):
            assert (tmp_path / "a" / f"{name}.f64").read_bytes() == \
                (tmp_path / "b" / f"{name}.f64").read_bytes()
        assert manifest_without_timings(tmp_path / "a") == \
            manifest_without_timings(tmp_path / "b")

    def test_thread_count_invariance(self, tmp_path):
        config = small_config(num_samples=8)
        generate_diffoas(config, tmp_path / "t1", threads=1)
        generate_diffoas(config, tmp_path / "t4", threads=4)
        for name in ("a", "f", "u"):
            assert (tmp_path / "t1" / f"{name}.f64").read_bytes() == \
                (tmp_path / "t4" / f"{name}.f64").read_bytes()

    def test_pool_provenance_in_manifest(self, tmp_path):
        config = small_config()
        generate_diffoas(config, tmp_path / "d")
        generation = read_dataset(tmp_path / "d").manifest.generation
        assert generation["pool"]["cache"] == "solved"
        assert generation["pool"]["preconditioner"] == "poisson(a)"
        solves = generation["pool"]["solves"]
        assert [s["index"] for s in solves] == list(range(config.n_basis))
        for solve in solves:
            assert solve["iterations"] > 0
            assert solve["relative_residual"] <= config.solver_tol
        seconds = generation["timings"]["pool_solve_seconds"]
        assert len(seconds) == config.n_basis and min(seconds) > 0

        # a second run into the same directory solves its pool again
        generate_diffoas(config, tmp_path / "d")
        again = read_dataset(tmp_path / "d").manifest.generation
        assert again["pool"]["cache"] == "solved"
        assert [s["iterations"] for s in again["pool"]["solves"]] == \
            [s["iterations"] for s in solves]
        assert len(again["timings"]["pool_solve_seconds"]) == config.n_basis

    def test_pool_provenance_given_pool(self, tmp_path):
        config = small_config()
        pool = build_basis_pool(config)
        ds = generate_diffoas(config, tmp_path / "d", pool=pool)
        recorded = ds.manifest.generation["pool"]
        assert recorded["cache"] == "given"
        assert recorded["preconditioner"] == "poisson(a)"
        assert [s["iterations"] for s in recorded["solves"]] == \
            [p["iterations"] for p in pool.provenance]

    def test_interrupted_regenerate_leaves_no_manifest(self, tmp_path,
                                                       monkeypatch):
        config = small_config(num_samples=generator.SAMPLE_BLOCK + 2)
        generate_diffoas(config, tmp_path / "d")
        real = generator._diffoas_block

        def crash_after_first(config, pool, indices):
            if indices.start >= 1:
                raise KeyboardInterrupt
            return real(config, pool, indices)

        monkeypatch.setattr(generator, "_diffoas_block", crash_after_first)
        with pytest.raises(KeyboardInterrupt):
            generate_diffoas(config, tmp_path / "d")
        assert not (tmp_path / "d" / "manifest.json").exists()

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    def test_blocks_write_the_bytes_of_one_sample_at_a_time(
            self, pde, threads, tmp_path):
        # the last block is partial; 3 threads compute blocks concurrently
        num_samples = 2 * generator.SAMPLE_BLOCK + 3
        config = GenerationConfig(pde, Grid2D(9), num_samples, n_basis=3,
                                  master_seed=4)
        pool = build_basis_pool(config)
        generate_diffoas(config, tmp_path / "blocks", threads=threads,
                         pool=pool)

        def one_at_a_time():
            for k in range(num_samples):
                gen = RngStream(4, "sample_params", k).generator()
                coeffs = generator.draw_coefficients(pde, config.grid, gen)
                u = combine_solution(pool, RngStream(4, "weights", k),
                                     RngStream(4, "noise", k),
                                     config.noise_eta,
                                     config.weight_resample_threshold)
                yield {**coeffs.field_map(), "f": coeffs.apply(u), "u": u}

        write_dataset(tmp_path / "ref", one_at_a_time(),
                      DatasetManifest(pde, 9, num_samples, "diffoas"))
        for name in FAMILIES[pde].field_names:
            assert (tmp_path / "blocks" / f"{name}.f64").read_bytes() == \
                (tmp_path / "ref" / f"{name}.f64").read_bytes(), name

    def test_given_pool_assembles_no_matrix(self, tmp_path, monkeypatch):
        config = small_config(num_samples=3)
        pool = build_basis_pool(config)

        def no_csr(*args, **kwargs):
            raise AssertionError("operator action assembled a matrix")

        monkeypatch.setattr(grid_ops, "_five_point", no_csr)
        ds = generate_diffoas(config, tmp_path / "d", pool=pool)
        assert ds.manifest.num_samples == 3

    # field CRC32s of `pdeforge generate --pde <pde> --grid 24 --samples 12
    # --seed 3`. The coefficient CRCs date from when operator action built
    # a CSR matrix per sample; f and u were re-pinned when the pool solves
    # became preconditioned, which moves the pool at the solver-tolerance
    # level
    GOLDEN_CRC32 = {
        "darcy": {"a": 0xd1df8af7, "f": 0x2a0f5d5a, "u": 0xfd0ab9b5},
        "helmholtz": {"k2": 0x4305ab23, "f": 0x48c149ca, "u": 0x837f490d},
        "diffusion": {"k": 0x20fafc87, "q": 0x062df759, "f": 0x97654045,
                      "u": 0x2c548502},
    }

    @pytest.mark.parametrize("pde", sorted(GOLDEN_CRC32))
    def test_golden_field_crc32(self, pde, tmp_path):
        config = GenerationConfig(pde, Grid2D(24), 12, master_seed=3)
        ds = generate_diffoas(config, tmp_path / "d")
        crcs = {name: entry["crc32"]
                for name, entry in ds.manifest.field_files.items()}
        assert crcs == self.GOLDEN_CRC32[pde]

    def test_boundary_zero_everywhere(self, tmp_path):
        config = small_config(num_samples=5)
        ds = generate_diffoas(config, tmp_path / "d")
        for k in range(5):
            assert ds.field_sample("u", k).boundary_max_abs() == 0.0


class TestClassic:
    def test_residual_tracks_tolerance(self, tmp_path):
        maxima = []
        for tol in (1e-1, 1e-7):
            config = GenerationConfig("darcy", Grid2D(10), 5,
                                      method="classic", solver_tol=tol,
                                      master_seed=2)
            ds = generate_classic(config, tmp_path / f"c{tol:g}")
            rep = verify_dataset(ds, tol)
            assert rep.passed
            maxima.append(rep.max_relative_residual)
        assert maxima[1] < maxima[0] / 1e3

    def test_byte_identical_reruns(self, tmp_path):
        config = GenerationConfig("darcy", Grid2D(8), 3, method="classic",
                                  master_seed=5)
        generate_classic(config, tmp_path / "a")
        generate_classic(config, tmp_path / "b")
        for name in ("a", "f", "u"):
            assert (tmp_path / "a" / f"{name}.f64").read_bytes() == \
                (tmp_path / "b" / f"{name}.f64").read_bytes()

    def test_method_mismatch(self, tmp_path):
        with pytest.raises(Exception):
            generate_classic(small_config(), tmp_path / "x")


@pytest.mark.parametrize("pool", ["solved", "given", "ablation", "classic"])
def test_directory_holds_only_manifest_files(tmp_path, pool):
    # a basis_pool.npz pool cache of an earlier version is not covered by
    # the new manifest, so no generate path leaves it behind
    out = tmp_path / "d"
    out.mkdir()
    (out / "basis_pool.npz").write_bytes(b"PK\x03\x04 stale pool cache")
    config = small_config(n_basis=2)
    if pool == "classic":
        ds = generate_classic(small_config(method="classic"), out)
    elif pool == "given":
        ds = generate_diffoas(config, out, pool=build_basis_pool(config))
    else:
        ds = generate_diffoas(
            config, out, basis_kind="fourier" if pool == "ablation" else None)
    files = {entry["filename"] for entry in ds.manifest.field_files.values()}
    assert {p.name for p in out.iterdir()} == files | {"manifest.json"}
    assert verify_dataset(ds, ds.manifest.generation["solver_tol"]).passed


class TestAblation:
    @pytest.mark.parametrize("kind,size", [
        ("grf", 30), ("fourier", 100), ("chebyshev", 100)])
    def test_pool_sizes_and_validity(self, tmp_path, kind, size):
        config = small_config(num_samples=3)
        ds = generate_diffoas(config, tmp_path / kind, basis_kind=kind)
        assert ds.manifest.generation["pool_size"] == size
        assert ds.manifest.generation["pool"] == {"cache": "none", "solves": []}
        assert ds.manifest.method == f"ablation-{kind}"
        assert verify_dataset(ds, 1e-12).passed
        for k in range(3):
            assert ds.field_sample("u", k).boundary_max_abs() == 0.0


class TestVerify:
    def test_empty_report_does_not_pass(self):
        assert not VerificationReport(0, 0.0, 0.0, [], 1e-12).passed

    def test_classic_fails_tight_tolerance(self, tmp_path):
        config = GenerationConfig("darcy", Grid2D(8), 3, method="classic",
                                  solver_tol=1e-5, master_seed=9)
        ds = generate_classic(config, tmp_path / "c")
        assert not verify_dataset(ds, 1e-12).passed
        assert verify_dataset(ds, 1e-4).passed

    def test_corrupted_file_raises(self, tmp_path):
        config = small_config(num_samples=2)
        generate_diffoas(config, tmp_path / "d")
        path = tmp_path / "d" / "u.f64"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DatasetIntegrityError):
            read_dataset(tmp_path / "d")


def reference_residuals(ds) -> list:
    """||A u - f|| / ||f|| of every sample, one sample at a time: each
    sample's fields read alone, its matrix assembled fresh."""
    pde = ds.manifest.pde
    residuals = []
    for k in range(ds.manifest.num_samples):
        A = PdeCoefficients(pde, **{
            name: ds.field_sample(name, k)
            for name in FAMILIES[pde].coefficients}).assemble()
        f_int = ds.field_sample("f", k).interior()
        r = apply_operator(A, ds.field_sample("u", k).interior()) - f_int
        denom = max(float(np.linalg.norm(f_int)), 1e-300)
        residuals.append(float(np.linalg.norm(r)) / denom)
    return residuals


def rewrite_field(out, name: str, values: np.ndarray) -> None:
    """Replace a field file and its manifest CRC-32, so that the dataset
    still reads as intact."""
    (out / f"{name}.f64").write_bytes(values.astype("<f8").tobytes())
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["field_files"][name]["crc32"] = checksum_field(out, name)
    (out / "manifest.json").write_text(json.dumps(manifest))


def read_field(ds, name: str) -> np.ndarray:
    m = ds.grid.n_nodes
    raw = (ds.dir / f"{name}.f64").read_bytes()
    return np.frombuffer(raw, dtype="<f8").reshape(-1, m, m).copy()


class TestBlockVerify:
    # the last block is short
    COUNT = 2 * generator.SAMPLE_BLOCK + 3

    @pytest.mark.parametrize("pde", ["darcy", "helmholtz", "diffusion"])
    def test_residuals_match_one_sample_loop(self, tmp_path, pde):
        # classic samples, so that the residuals are solver residuals of
        # different sizes rather than zero
        ds = generate_classic(GenerationConfig(
            pde, Grid2D(6), self.COUNT, method="classic", solver_tol=1e-4,
            master_seed=3), tmp_path / "c")
        assert ds.manifest.num_samples == self.COUNT
        ref = reference_residuals(ds)
        assert len(set(ref)) == self.COUNT
        report = verify_dataset(ds, 1.0)
        assert report.num_samples == self.COUNT
        assert report.max_relative_residual == max(ref)
        assert report.mean_relative_residual == float(np.mean(ref))
        # every residual, bit for bit: sample k fails at every tol below
        # its reference residual and passes at that residual
        for k, rel in enumerate(ref):
            assert k not in verify_dataset(ds, rel).failing_indices
            assert k in verify_dataset(
                ds, np.nextafter(rel, 0.0)).failing_indices

    def test_failing_index_is_the_perturbed_sample(self, tmp_path):
        out = tmp_path / "d"
        ds = generate_diffoas(small_config(num_samples=self.COUNT), out)
        assert verify_dataset(ds, 1e-12).passed
        f = read_field(ds, "f")
        bad = generator.SAMPLE_BLOCK + 2
        f[bad, 1:-1, 1:-1] *= 1.0 + 1e-6
        rewrite_field(out, "f", f)
        report = verify_dataset(read_dataset(out), 1e-12)
        assert report.failing_indices == [bad]

    def test_file_cut_inside_second_block_raises(self, tmp_path):
        out = tmp_path / "d"
        generate_diffoas(small_config(num_samples=self.COUNT), out)
        ds = read_dataset(out)
        path = out / "u.f64"
        slab = ds.manifest.nodes_per_sample * 8
        path.write_bytes(path.read_bytes()[:(generator.SAMPLE_BLOCK + 3)
                                           * slab + 8])
        with pytest.raises(DatasetIntegrityError, match="u.f64"):
            verify_dataset(ds, 1e-12)

    def test_non_elliptic_coefficient_names_its_block(self, tmp_path):
        out = tmp_path / "d"
        ds = generate_diffoas(small_config(num_samples=self.COUNT), out)
        a = read_field(ds, "a")
        a[generator.SAMPLE_BLOCK + 1, 4, 4] = -1.0
        rewrite_field(out, "a", a)
        first = generator.SAMPLE_BLOCK
        with pytest.raises(EllipticityError, match=re.escape(
                f"samples {first}..{2 * first - 1}:")):
            verify_dataset(read_dataset(out), 1e-12)
