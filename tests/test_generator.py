import dataclasses
import json
import math
import os
import re
import threading
import time
from pathlib import Path

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
from pdeforge.families import FAMILIES, PdeCoefficients, PdeFamily
from pdeforge.fields import RngStream, draw_block
from pdeforge.generator import (
    BasisPool,
    BasisConstructionError,
    DegenerateWeightsError,
    GenerationConfig,
    GenerationError,
    VerificationReport,
    build_basis_pool,
    combine_solution,
    generate_classic,
    generate_diffoas,
    make_ablation_pool,
    verify_dataset,
)
from pdeforge.grid import FieldSample, Grid2D
from pdeforge.grid_ops import EllipticityError, apply_operator, apply_stencil
from pdeforge.solvers import SolveOptions, SolveReport, gmres


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

    @pytest.mark.parametrize("name,value", [
        ("method", "spectral"), ("master_seed", -1),
        ("solver_tol", 0.0), ("solver_tol", -1.0), ("solver_tol", math.nan),
        ("solver_tol", math.inf), ("noise_eta", -1.0),
        ("noise_eta", math.nan), ("noise_eta", math.inf)])
    def test_library_calls_check_each_setting(self, name, value):
        # the CLI checks these flags itself; a library call reaches these
        with pytest.raises(ValueError, match=name.replace("_", ".")
                           if name != "method" else "unknown method"):
            GenerationConfig("darcy", Grid2D(4), 1, **{name: value})

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
        r = apply_operator(A, pool.basis[0, 1:-1, 1:-1].flatten()) - b
        assert np.linalg.norm(r) / np.linalg.norm(b) <= 1e-5

    def test_deterministic(self):
        config = small_config()
        p1 = build_basis_pool(config)
        p2 = build_basis_pool(config)
        np.testing.assert_array_equal(p1.basis, p2.basis)

    def test_zero_boundary_traces(self):
        pool = build_basis_pool(small_config(n_basis=3))
        for u in pool.basis:
            assert not u[[0, -1]].any() and not u[:, [0, -1]].any()

    def test_basis_is_one_fresh_read_only_array(self):
        g = Grid2D(5)
        arrays = np.random.default_rng(4).standard_normal((3, 7, 7))
        from_list = BasisPool(g, [FieldSample(g, a) for a in arrays])
        from_array = BasisPool(g, arrays)
        assert from_list.size == from_array.size == 3
        np.testing.assert_array_equal(from_list.basis, from_array.basis)
        np.testing.assert_array_equal(from_array.basis, arrays)
        for pool in (from_list, from_array):
            with pytest.raises(ValueError, match="read-only"):
                pool.basis[0, 1, 1] = 0.0
        value = arrays[0, 1, 1]
        arrays[0, 1, 1] = value + 1.0  # the caller's array stays its own
        assert from_array.basis[0, 1, 1] == value
        # a read-only array, as the pool builders make, is not copied again
        assert BasisPool(g, from_array.basis).basis is from_array.basis

    def test_failed_solve_names_index(self):
        config = small_config(solver_tol=1e-13)
        config.solver_tol = 1e-13
        # an absurdly tight iteration cap forces failure
        from pdeforge import generator as gen_mod
        orig = gen_mod.gmres

        def crippled(A, b, opts=None, **kw):
            return orig(A, b, opts=SolveOptions(tol=opts.tol, max_iter=1))

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
            x = u[1:-1, 1:-1].flatten()
            assert (np.linalg.norm(A @ x - b)
                    <= config.solver_tol * np.linalg.norm(b))
            if n <= 32:
                x_ref = np.linalg.solve(A.toarray(), b)
                assert (np.linalg.norm(x - x_ref)
                        <= 1e-4 * np.linalg.norm(x_ref))

    def test_seed_0_iteration_totals(self):
        # unpreconditioned, these pools took 6205, 7494 and 11633 iterations
        totals = {}
        for pde in sorted(FAMILIES):
            pool = build_basis_pool(GenerationConfig(pde, Grid2D(64), 1,
                                                     master_seed=0))
            totals[pde] = sum(s["iterations"] for s in pool.provenance)
        assert totals == {"darcy": 189, "diffusion": 470, "helmholtz": 100}

    def test_only_pool_solves_are_preconditioned(self, tmp_path,
                                                 monkeypatch):
        # classic generation is the paper's unpreconditioned baseline, a
        # block of one system per gmres call; the pool solves its systems
        # in blocks, one preconditioned gmres call per block
        calls = []

        def recording(A, b, **kwargs):
            calls.append((np.shape(b), kwargs.get("precond")))
            return gmres(A, b, **kwargs)

        monkeypatch.setattr(generator, "gmres", recording)
        generate_classic(small_config(method="classic", num_samples=3),
                         tmp_path / "c")
        assert calls == [((1, 100), None)] * 3
        calls.clear()
        build_basis_pool(small_config(n_basis=generator.SAMPLE_BLOCK + 3),
                         threads=1)
        assert [shape for shape, _ in calls] == [
            (generator.SAMPLE_BLOCK, 100), (3, 100)]
        assert all(callable(precond) for _, precond in calls)

    def test_pool_solve_builds_the_stencil_once(self, monkeypatch):
        # one stencil per block of solves; the preconditioner takes its
        # sign from the record, not a stencil
        builds = []
        stencil = PdeFamily.stencil

        def counting(record, grid, **fields):
            builds.append(len(fields[record.flux]))
            return stencil(record, grid, **fields)

        monkeypatch.setattr(PdeFamily, "stencil", counting)
        pool = build_basis_pool(
            small_config(n_basis=generator.SAMPLE_BLOCK + 3), threads=1)
        assert builds == [generator.SAMPLE_BLOCK, 3]
        assert sum(s["iterations"] for s in pool.provenance) > 0


class TestBlockPool:
    """build_basis_pool solves blocks of systems in lockstep on worker
    threads; none of it shows in the pool."""

    @staticmethod
    def solves(pool):
        return [{k: v for k, v in solve.items() if k != "wall_time"}
                for solve in pool.provenance]

    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    def test_pool_does_not_depend_on_threads_or_block_size(
            self, pde, monkeypatch):
        # 2 full blocks and a short one
        config = small_config(pde=pde, n_basis=2 * generator.SAMPLE_BLOCK + 3)
        ref = build_basis_pool(config, threads=1)
        pools = [build_basis_pool(config, threads=t) for t in (2, 3)]
        pools.append(build_basis_pool(config))
        monkeypatch.setattr(generator, "SAMPLE_BLOCK", 1)
        pools.append(build_basis_pool(config, threads=2))
        for pool in pools:
            assert pool.basis.tobytes() == ref.basis.tobytes()
            assert self.solves(pool) == self.solves(ref)
            assert pool.key == ref.key

    def test_block_solves_are_the_one_index_solves(self):
        # each pool solve is the one-index block's of _solve_blocks
        config = small_config(pde="diffusion", n_basis=5)
        pool = build_basis_pool(config)
        for i, solve in enumerate(pool.provenance):
            ((_, _, (report,)),) = generator._solve_blocks(
                config, "basis_params", [range(i, i + 1)], 1,
                preconditioned=True)
            assert solve["iterations"] == report.iterations
            assert solve["relative_residual"] == \
                report.final_relative_residual
            assert pool.basis[i, 1:-1, 1:-1].tobytes() == report.x.tobytes()

    def test_failed_solve_inside_a_block_names_the_lowest_index(
            self, monkeypatch):
        # solves 3 and 11 fail, each inside a block; one thread solves
        # the blocks in order
        real = generator.gmres
        failing = {3, 11}

        def some_fail(A, b, **kwargs):
            reports = real(A, b, **kwargs)
            start = some_fail.next
            some_fail.next += len(reports)
            return [dataclasses.replace(rep, converged=False)
                    if start + row in failing else rep
                    for row, rep in enumerate(reports)]

        some_fail.next = 0
        monkeypatch.setattr(generator, "gmres", some_fail)
        with pytest.raises(BasisConstructionError,
                           match=r"basis solve 3 did not converge"):
            build_basis_pool(small_config(n_basis=16), threads=1)

    def test_failed_solve_on_threads_names_the_lowest_index(
            self, monkeypatch):
        # on 2 threads the second block may finish first; its failure at
        # 9 must not hide the one at 5 in the first block
        real = generator.gmres

        def some_fail(A, b, **kwargs):
            reports = real(A, b, **kwargs)
            first = len(reports) == generator.SAMPLE_BLOCK and \
                np.array_equal(b[0], some_fail.first_b0)
            bad = 5 if first else 1
            return [dataclasses.replace(rep, converged=False)
                    if row == bad else rep for row, rep in enumerate(reports)]

        config = small_config(n_basis=16)
        gen = RngStream(config.master_seed, "basis_params", 0).generator()
        generator.draw_coefficients(config.pde, config.grid, gen)
        some_fail.first_b0 = generator.draw_forcing(
            config.pde, config.grid, gen).interior()
        monkeypatch.setattr(generator, "gmres", some_fail)
        with pytest.raises(BasisConstructionError,
                           match=r"basis solve 5 did not converge"):
            build_basis_pool(config, threads=2)

    @pytest.mark.parametrize("n,sizes", [
        (64, [8, 8, 1]), (100, [3, 3, 3, 3, 3, 2]), (128, [2] * 8 + [1]),
        (129, [1] * 4)])
    def test_large_grids_solve_fewer_systems_per_block(self, monkeypatch,
                                                       n, sizes):
        # a block holds at most POOL_BLOCK_UNKNOWNS unknowns; gmres is
        # recorded, not run, as only the block shapes are checked
        shapes = []

        def shape_only(A, b, **kwargs):
            shapes.append(len(b))
            return [SolveReport(np.zeros(A.shape[0]), 1, True, 0.0, 0.0)
                    for _ in b]

        monkeypatch.setattr(generator, "gmres", shape_only)
        build_basis_pool(GenerationConfig("helmholtz", Grid2D(n), 1,
                                          n_basis=sum(sizes)), threads=1)
        assert shapes == sizes

    def test_threads_below_one_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            build_basis_pool(small_config(), threads=0)

    def test_generate_passes_its_threads_to_the_pool(self, tmp_path,
                                                     monkeypatch):
        seen = []
        real = generator.build_basis_pool

        def recording(config, threads=None):
            seen.append(threads)
            return real(config, threads)

        monkeypatch.setattr(generator, "build_basis_pool", recording)
        generate_diffoas(small_config(), tmp_path / "a", threads=3)
        generate_diffoas(small_config(), tmp_path / "b")
        # None: the pool's blocks get their own default
        assert seen == [3, None]


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

    def test_all_zero_noise_draw_adds_nothing(self, monkeypatch):
        # g / max|g| would be 0/0; the warning is an error under pytest
        config = small_config(n_basis=5)
        pool = build_basis_pool(config)
        base = generator._combine_block(
            pool, RngStream(7, "weights", 0).generator(),
            RngStream(7, "noise", 0).generator(), 3, 0.0, 1e-3)
        monkeypatch.setattr(generator, "draw_block", lambda dists, grid, rng,
                            b: {name: np.zeros((b,) + base.shape[1:])
                                for name in dists})
        out = generator._combine_block(
            pool, RngStream(7, "weights", 0).generator(),
            RngStream(7, "noise", 0).generator(), 3, 0.01, 1e-3)
        assert not np.isnan(out).any()
        np.testing.assert_array_equal(out, base)

    @pytest.mark.parametrize("n", [9, 64])
    def test_pool_product_is_one_gemv_per_sample(self, n):
        # a single (b, l) @ (l, m*m) GEMM rounds differently
        g = Grid2D(n)
        gen = np.random.default_rng(n)
        pool = BasisPool(g, [FieldSample.from_interior(
            g, gen.standard_normal(n * n)) for _ in range(30)])
        delta = 1e-3 * math.sqrt(pool.size)
        with generator.one_blas_thread():
            u = generator._combine_block(
                pool, RngStream(5, "weights", 0).generator(), None,
                generator.SAMPLE_BLOCK, 0.0, delta)
            gen_w = RngStream(5, "weights", 0).generator()
            for row in u:
                mu = gen_w.standard_normal(pool.size)
                while abs(mu.sum()) < delta:
                    mu = gen_w.standard_normal(pool.size)
                np.testing.assert_array_equal(
                    row.ravel(),
                    (mu / mu.sum()) @ pool.basis.reshape(pool.size, -1))

    @pytest.mark.parametrize("eta,delta", [(float("nan"), 1e-3),
                                           (0.01, float("nan"))])
    def test_nan_eta_or_delta_rejected(self, eta, delta):
        g = Grid2D(3)
        pool = BasisPool(g, [FieldSample.constant(g, 1.0)])
        with pytest.raises(GenerationError, match="need eta"):
            combine_solution(pool, RngStream(1, "weights", 0),
                             RngStream(1, "noise", 0), eta=eta, delta=delta)

    def test_empty_pool_rejected(self):
        pool = BasisPool(Grid2D(3), [])
        with pytest.raises(GenerationError, match="basis pool is empty"):
            combine_solution(pool, RngStream(1, "weights", 0),
                             RngStream(1, "noise", 0), eta=0.0, delta=1e-3)

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
            # block j's three streams: each coefficient field drawn one
            # sample at a time, a full block of it before the next field,
            # then each sample's weights and noise in sample order
            block = generator.SAMPLE_BLOCK
            for start in range(0, num_samples, block):
                gen_c, gen_w, gen_n = (
                    RngStream(4, role, start // block).generator()
                    for role in ("sample_params", "weights", "noise"))
                coeffs = {name: [draw_block({name: dist}, config.grid,
                                            gen_c, 1)[name]
                                 for _ in range(block)]
                          for name, dist in
                          FAMILIES[pde].distributions.items()}
                for i in range(min(block, num_samples - start)):
                    fields = {name: draws[i]
                              for name, draws in coeffs.items()}
                    u = generator._combine_block(
                        pool, gen_w, gen_n, 1, config.noise_eta,
                        config.weight_resample_threshold)
                    f = apply_stencil(FAMILIES[pde].stencil(
                        config.grid, **fields), u, np.empty(u.shape))
                    yield {**fields, "f": f, "u": u}

        write_dataset(tmp_path / "ref", one_at_a_time(),
                      DatasetManifest(pde, 9, num_samples, "diffoas"))
        for name in FAMILIES[pde].field_names:
            assert (tmp_path / "blocks" / f"{name}.f64").read_bytes() == \
                (tmp_path / "ref" / f"{name}.f64").read_bytes(), name

    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    def test_samples_do_not_depend_on_the_sample_count(self, pde, tmp_path):
        # the last block of 10 samples is a prefix of the one of 13; for
        # diffusion, q's stream position follows a full block of k
        config = small_config(pde=pde, num_samples=10)
        pool = build_basis_pool(config)
        generate_diffoas(config, tmp_path / "n10", pool=pool)
        generate_diffoas(dataclasses.replace(config, num_samples=13),
                         tmp_path / "n13", pool=pool)
        for name in FAMILIES[pde].field_names:
            short = (tmp_path / "n10" / f"{name}.f64").read_bytes()
            long = (tmp_path / "n13" / f"{name}.f64").read_bytes()
            assert len(long) == len(short) * 13 // 10
            assert long[:len(short)] == short, name

    def test_given_pool_assembles_no_matrix(self, tmp_path, monkeypatch):
        config = small_config(num_samples=3)
        pool = build_basis_pool(config)

        def no_csr(*args, **kwargs):
            raise AssertionError("operator action assembled a matrix")

        monkeypatch.setattr(grid_ops, "_five_point", no_csr)
        ds = generate_diffoas(config, tmp_path / "d", pool=pool)
        assert ds.manifest.num_samples == 3

    # field CRC32s of `pdeforge generate --pde <pde> --grid 24 --samples 12
    # --seed 3`, pinned when the streams became SFC64 with one stream per
    # block and role; diffusion's k, q and f re-pinned when a block's
    # coefficients became drawn field by field, a full block of k first
    GOLDEN_CRC32 = {
        "darcy": {"a": 0x9116d394, "f": 0xab8e965a, "u": 0x0032e82f},
        "helmholtz": {"k2": 0x32c70483, "f": 0x4d0d972e, "u": 0xbe102866},
        "diffusion": {"k": 0x9a95d958, "q": 0x211a5338, "f": 0x7fe4b68d,
                      "u": 0x45edc253},
    }

    @pytest.mark.parametrize("pde", sorted(GOLDEN_CRC32))
    def test_golden_field_crc32(self, pde, tmp_path):
        config = GenerationConfig(pde, Grid2D(24), 12, master_seed=3)
        ds = generate_diffoas(config, tmp_path / "d")
        crcs = {name: entry["crc32"]
                for name, entry in ds.manifest.field_files.items()}
        assert crcs == self.GOLDEN_CRC32[pde]

    @pytest.mark.parametrize("threads", [1, None])
    def test_benchmark_workload_crc32(self, tmp_path, threads):
        # perfbench's action-darcy64: the pool built apart, then given
        config = GenerationConfig("darcy", Grid2D(64), 500, master_seed=0)
        pool = build_basis_pool(config)
        ds = generate_diffoas(config, tmp_path / "d", threads=threads,
                              pool=pool)
        crcs = {name: entry["crc32"]
                for name, entry in ds.manifest.field_files.items()}
        assert crcs == {"a": 3715607628, "f": 3526646039, "u": 2400467316}

    def test_method_mismatch(self, tmp_path):
        with pytest.raises(GenerationError,
                           match="generate_diffoas requires method='diffoas'"):
            generate_diffoas(small_config(method="classic"), tmp_path / "x")
        assert not (tmp_path / "x").exists()

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

    # field CRC32s of `pdeforge generate --method classic --pde <pde>
    # --grid 24 --samples 3 --seed 3`. The darcy and diffusion solves take
    # 72-97 iterations, so they cross the basis's first growth past 64
    # rows; helmholtz takes 57-58
    GOLDEN_CRC32 = {
        "darcy": {"a": 0x18a08b29, "f": 0x43dc7b0b, "u": 0x402033d9},
        "helmholtz": {"k2": 0xcd143520, "f": 0x037047b7, "u": 0x70a317eb},
        "diffusion": {"k": 0x799d4352, "q": 0xb6faec8a, "f": 0xd2f3d4af,
                      "u": 0xdda40e5c},
    }

    @pytest.mark.parametrize("pde", sorted(GOLDEN_CRC32))
    def test_golden_field_crc32(self, pde, tmp_path):
        config = GenerationConfig(pde, Grid2D(24), 3, method="classic",
                                  master_seed=3)
        ds = generate_classic(config, tmp_path / "c")
        crcs = {name: entry["crc32"]
                for name, entry in ds.manifest.field_files.items()}
        assert crcs == self.GOLDEN_CRC32[pde]


class TestClassicThreads:
    """generate_classic solves one-sample blocks on the block runner;
    neither the bytes nor the skipped samples depend on the thread
    count."""

    @pytest.mark.parametrize("pde", sorted(FAMILIES))
    def test_classic_does_not_depend_on_threads(self, pde, tmp_path,
                                                monkeypatch):
        # sample 3 of 7 stays unconverged: found by its right-hand side, so
        # that the skip does not depend on which thread solves it
        config = GenerationConfig(pde, Grid2D(8), 7, method="classic",
                                  master_seed=5)
        gen = RngStream(5, "sample_params", 3).generator()
        generator.draw_coefficients(pde, config.grid, gen)
        stuck = generator.draw_forcing(pde, config.grid, gen).interior()
        real = generator.gmres

        def sample_3_fails(A, b, **kwargs):
            return [dataclasses.replace(rep, converged=False)
                    if np.array_equal(row, stuck) else rep
                    for row, rep in zip(b, real(A, b, **kwargs))]

        monkeypatch.setattr(generator, "gmres", sample_3_fails)
        for threads in (1, 2, 3):
            ds = generate_classic(config, tmp_path / f"t{threads}", threads)
            assert ds.manifest.skipped_samples == [3]
            assert ds.manifest.num_samples == 6
        for threads in (2, 3):
            out = tmp_path / f"t{threads}"
            for name in FAMILIES[pde].field_names:
                assert (out / f"{name}.f64").read_bytes() == \
                    (tmp_path / "t1" / f"{name}.f64").read_bytes(), name
            assert manifest_without_timings(out) == \
                manifest_without_timings(tmp_path / "t1")

    def test_items_are_one_sample_blocks(self, tmp_path, monkeypatch):
        shapes = []
        real = generator.write_dataset

        def recording(out_dir, items, manifest):
            def seen():
                for item in items:
                    shapes.append({name: a.shape for name, a in item.items()})
                    yield item
            return real(out_dir, seen(), manifest)

        monkeypatch.setattr(generator, "write_dataset", recording)
        generate_classic(small_config(method="classic", num_samples=3),
                         tmp_path / "c", threads=2)
        assert shapes == [dict.fromkeys(("a", "f", "u"), (1, 12, 12))] * 3


@pytest.mark.parametrize("pool", ["solved", "given", "ablation", "classic"])
def test_manifest_records_what_the_run_used(tmp_path, pool):
    # solver_tol only where the run solved; the pool's n_basis, noise_eta
    # and delta only for operator action
    config = small_config(n_basis=2)
    if pool == "classic":
        ds = generate_classic(small_config(method="classic"), tmp_path)
    elif pool == "given":
        ds = generate_diffoas(config, tmp_path, pool=build_basis_pool(config))
    else:
        ds = generate_diffoas(config, tmp_path, pool=make_ablation_pool(
            config, "fourier") if pool == "ablation" else None)
    generation = read_dataset(tmp_path).manifest.generation
    assert ("solver_tol" in generation) == (pool in ("solved", "classic"))
    for key in ("n_basis", "noise_eta", "delta"):
        assert (key in generation) == (pool != "classic")
    assert generation == ds.manifest.generation


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
        ds = generate_diffoas(config, out, pool=make_ablation_pool(
            config, "fourier") if pool == "ablation" else None)
    files = {entry["filename"] for entry in ds.manifest.field_files.values()}
    assert {p.name for p in out.iterdir()} == files | {"manifest.json"}
    assert verify_dataset(ds, config.solver_tol).passed


@pytest.mark.parametrize("method", ["diffoas", "classic"])
def test_manifest_is_written_once_with_its_timings(tmp_path, monkeypatch,
                                                   method):
    replaced, solves = [], []
    real_replace, real_gmres = os.replace, generator.gmres

    def recording(src, dst):
        replaced.append(Path(dst).name)
        real_replace(src, dst)

    def second_fails(A, b, **kwargs):  # one thread solves in sample order
        solves.append(b)
        return [dataclasses.replace(rep, converged=len(solves) != 2)
                for rep in real_gmres(A, b, **kwargs)]

    monkeypatch.setattr(os, "replace", recording)
    if method == "diffoas":
        ds = generate_diffoas(small_config(), tmp_path)
    else:
        monkeypatch.setattr(generator, "gmres", second_fails)
        ds = generate_classic(small_config(method="classic"), tmp_path)
    assert replaced == ["manifest.json"]
    written = read_dataset(tmp_path).manifest
    assert written.generation["timings"] == ds.manifest.generation["timings"]
    assert set(written.generation["timings"]) >= (
        {"basis_seconds", "action_seconds"} if method == "diffoas"
        else {"solve_seconds"})
    assert written.skipped_samples == ([] if method == "diffoas" else [1])


class TestThreads:
    def test_default_threads_write_the_bytes_of_one_thread(self, tmp_path):
        # three blocks, the last one partial
        config = GenerationConfig("darcy", Grid2D(24),
                                  2 * generator.SAMPLE_BLOCK + 5,
                                  master_seed=6)
        pool = build_basis_pool(config)
        generate_diffoas(config, tmp_path / "default", pool=pool)
        generate_diffoas(config, tmp_path / "t1", threads=1, pool=pool)
        for name in ("a", "f", "u"):
            assert (tmp_path / "default" / f"{name}.f64").read_bytes() == \
                (tmp_path / "t1" / f"{name}.f64").read_bytes(), name
        assert manifest_without_timings(tmp_path / "default") == \
            manifest_without_timings(tmp_path / "t1")

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("method", ["diffoas", "classic"])
    def test_threads_below_one_rejected(self, tmp_path, method, threads):
        config = small_config(method=method)
        generate = (generate_diffoas if method == "diffoas"
                    else generate_classic)
        with pytest.raises(ValueError, match="threads"):
            generate(config, tmp_path / "d", threads=threads)
        assert not (tmp_path / "d").exists()

    def test_slow_consumer_bounds_the_items_computed_ahead(self):
        # a sequence, and a generator like verify's blocks, of which at
        # most 2 * threads items are pulled ahead of the consumer
        threads = 2
        pulled = []

        def source():
            for item in range(50):
                pulled.append(item)
                yield item

        for items in (range(50), source()):
            computed = []

            def worker(item):
                computed.append(item)
                return item

            results = generator._run_samples(worker, items, threads)
            try:
                for taken in range(1, 6):
                    assert next(results) == taken - 1
                    time.sleep(0.1)  # the workers run whatever was submitted
                    assert len(computed) <= taken + 2 * threads
            finally:
                results.close()
            assert len(computed) <= 5 + 2 * threads
        assert len(pulled) <= 5 + 2 * threads

    def test_a_lone_item_runs_in_the_calling_thread(self):
        workers = []

        def worker(item):
            workers.append(threading.get_ident())
            return item

        assert list(generator._run_samples(worker, iter([7]), 4)) == [7]
        assert workers == [threading.get_ident()]

    def test_pin_restores_the_previous_blas_thread_count(self):
        previous = generator.blas_threads()
        if previous is None:
            pytest.skip("numpy's BLAS exports no known thread-count symbol")
        set_threads = generator._openblas_thread_calls()[1]
        try:
            set_threads(2)
            with generator.one_blas_thread():
                assert generator.blas_threads() == 1
                with generator.one_blas_thread():
                    assert generator.blas_threads() == 1
                assert generator.blas_threads() == 1
            assert generator.blas_threads() == 2
        finally:
            set_threads(previous)

    def test_overlapping_pins_in_two_threads(self, monkeypatch):
        # A pins, B pins, A ends while B runs: the count must stay 1 until
        # B ends, and B's end must restore the count A found
        count = [4]

        def set_count(threads):
            count[0] = threads

        monkeypatch.setattr(generator, "_openblas_thread_calls",
                            lambda: (lambda: count[0], set_count))
        a_in, b_in, a_out, b_seen = (threading.Event() for _ in range(4))
        seen = []

        def a():
            with generator.one_blas_thread():
                a_in.set()
                b_in.wait(5)
            a_out.set()

        def b():
            a_in.wait(5)
            with generator.one_blas_thread():
                b_in.set()
                a_out.wait(5)
                seen.append(count[0])

        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == [1]
        assert count == [4]

    def test_manifest_records_the_blas_threads(self, tmp_path, monkeypatch):
        ds = generate_diffoas(small_config(), tmp_path / "pinned")
        known = generator.blas_threads() is not None
        assert ds.manifest.generation["blas_threads"] == (1 if known
                                                          else None)
        monkeypatch.setattr(generator, "_openblas_thread_calls",
                            lambda: None)
        for method, generate in (("diffoas", generate_diffoas),
                                 ("classic", generate_classic)):
            ds = generate(small_config(method=method), tmp_path / method)
            assert read_dataset(ds.dir).manifest.generation[
                "blas_threads"] is None


class TestAblation:
    @pytest.mark.parametrize("kind,size", [
        ("grf", 30), ("fourier", 100), ("chebyshev", 100)])
    def test_pool_sizes_and_validity(self, tmp_path, kind, size):
        config = small_config(num_samples=3)
        ds = generate_diffoas(config, tmp_path / kind,
                              pool=make_ablation_pool(config, kind))
        assert ds.manifest.generation["pool_size"] == size
        assert ds.manifest.generation["pool"] == {"cache": "none", "solves": []}
        assert ds.manifest.method == f"ablation-{kind}"
        assert verify_dataset(ds, 1e-12).passed
        for k in range(3):
            assert ds.field_sample("u", k).boundary_max_abs() == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(GenerationError,
                           match="unknown ablation basis 'wavelet'"):
            make_ablation_pool(small_config(), "wavelet")

    @pytest.mark.parametrize("kind", ["grf", "fourier", "chebyshev", "given"])
    def test_manifest_describes_the_pool_used(self, tmp_path, kind):
        # n_basis and delta are those of the pool the samples combine, not
        # the config's n_basis (4) when the pool has another size
        config = small_config(num_samples=3)
        if kind == "given":
            pool = build_basis_pool(small_config(n_basis=2))
            ds = generate_diffoas(config, tmp_path / kind, pool=pool)
        else:
            ds = generate_diffoas(config, tmp_path / kind,
                                  pool=make_ablation_pool(config, kind))
        generation = ds.manifest.generation
        size = generation["pool_size"]
        assert generation["n_basis"] == size != config.n_basis
        assert generation["delta"] == 1e-3 * math.sqrt(size)

    def test_pool_on_another_grid_leaves_the_dataset(self, tmp_path):
        out = tmp_path / "d"
        config = small_config()
        generate_diffoas(config, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        pool = build_basis_pool(small_config(grid=Grid2D(6)))
        with pytest.raises(GenerationError, match="Grid2D"):
            generate_diffoas(config, out, pool=pool)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert read_dataset(out).manifest.num_samples == config.num_samples

    @pytest.mark.parametrize("where, error", [
        ("everywhere", "boundary"), ("one edge node", "boundary"),
        ("one NaN interior node", "not finite")])
    def test_pool_off_the_boundary_leaves_the_dataset(self, tmp_path, where,
                                                      error):
        # every u combines the basis, so a basis that is not finite or not
        # zero on the boundary is refused before the dataset in out_dir is
        # touched
        out = tmp_path / "d"
        config = small_config(grid=Grid2D(8))
        generate_diffoas(config, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        if where == "everywhere":
            pool = BasisPool(config.grid,
                             [FieldSample.constant(config.grid, 1.0)])
        else:
            basis = make_ablation_pool(config, "fourier").basis.copy()
            node = (1, 4, -1) if where == "one edge node" else (1, 4, 4)
            basis[node] = 1e-300 if error == "boundary" else np.nan
            pool = BasisPool(config.grid, basis)
        with pytest.raises(GenerationError, match=error):
            generate_diffoas(config, out, pool=pool)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert verify_dataset(read_dataset(out), 1e-12).passed

    @pytest.mark.parametrize("eta", [0.01, 0.0])
    def test_overflowing_combination_is_a_generation_error(self, tmp_path,
                                                           eta):
        # a finite basis passes the door, but its combination overflows in
        # the first block, which is made before the dataset in out_dir is
        # touched
        out = tmp_path / "d"
        config = small_config(grid=Grid2D(8), noise_eta=eta)
        generate_diffoas(config, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        pool = make_ablation_pool(config, "fourier")
        pool = BasisPool(config.grid, pool.basis * 1e308)
        with pytest.raises(GenerationError, match="not finite"):
            generate_diffoas(config, out, pool=pool)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert verify_dataset(read_dataset(out), 1e-12).passed

    def test_overflowing_operator_action_is_a_generation_error(self,
                                                               tmp_path):
        # the combinations of this pool are finite, but A u overflows in
        # samples 16..23; no numpy warning is raised on the way
        config = GenerationConfig("darcy", Grid2D(8), 64, master_seed=0)
        pool = make_ablation_pool(config, "fourier")
        pool = BasisPool(config.grid, pool.basis * 1e304)
        with pytest.raises(GenerationError, match=re.escape(
                "samples 16..23: the operator action A u is not finite")):
            generate_diffoas(config, tmp_path / "d", pool=pool)
        assert not (tmp_path / "d" / "manifest.json").exists()

    def test_empty_given_pool_is_a_generation_error(self, tmp_path):
        pool = BasisPool(Grid2D(10), [])
        with pytest.raises(GenerationError, match="empty"):
            generate_diffoas(small_config(), tmp_path / "d", pool=pool)
        assert not (tmp_path / "d" / "manifest.json").exists()


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

    def test_report_does_not_depend_on_the_cpu_count(self, tmp_path,
                                                       monkeypatch):
        # verify checks blocks on one thread per usable CPU where the
        # thread rule lets a list run on more than one
        thread_every_list(monkeypatch)
        ds = generate_classic(GenerationConfig(
            "darcy", Grid2D(6), self.COUNT, method="classic",
            solver_tol=1e-4, master_seed=3), tmp_path / "c")
        run_samples = generator._run_samples
        threads_used = []

        def recording(worker, items, threads):
            threads_used.append(threads)
            return run_samples(worker, items, threads)

        monkeypatch.setattr(generator, "_run_samples", recording)
        reports = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)),
                                raising=False)
            reports.append(verify_dataset(read_dataset(ds.dir), 1e-6))
        assert threads_used == [1, 4]
        assert reports[0] == reports[1]
        assert reports[0].failing_indices  # a report with residuals to hold
        assert reports[0].num_samples == self.COUNT

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

    @pytest.mark.parametrize("node", [(0, 4), (0, 0)], ids=["edge", "corner"])
    @pytest.mark.parametrize("method", ["diffoas", "classic"])
    def test_u_off_zero_on_the_boundary_fails(self, tmp_path, method, node):
        # the residual reads the edge nodes, but no row reads a corner
        out = tmp_path / "d"
        config = small_config(num_samples=5, method=method)
        generate = generate_diffoas if method == "diffoas" else \
            generate_classic
        ds = generate(config, out)
        tol = 1e-12 if method == "diffoas" else 1e-3
        assert verify_dataset(ds, tol).passed
        u = read_field(ds, "u")
        u[(3, *node)] = 1.0
        rewrite_field(out, "u", u)
        assert verify_dataset(read_dataset(out), tol).failing_indices == [3]

    def test_slip_in_the_generating_stencil_fails(self, tmp_path,
                                                  monkeypatch):
        # generation slices the neighbors out of u and verification
        # gathers them by index, so a slip in the one shows in the other
        apply_stencil = grid_ops.apply_stencil

        def north_south_swapped(stencil, u_nodes, out):
            center, north, south, west, east = stencil
            return apply_stencil((center, south, north, west, east),
                                 u_nodes, out)

        monkeypatch.setattr(grid_ops, "apply_stencil", north_south_swapped)
        monkeypatch.setattr(generator, "apply_stencil", north_south_swapped)
        ds = generate_diffoas(small_config(num_samples=self.COUNT),
                              tmp_path / "d")
        report = verify_dataset(ds, 1e-12)
        assert report.failing_indices == list(range(self.COUNT))

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



def use_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def thread_every_list(monkeypatch) -> None:
    """Lift the thread rule's serial cases: a default list of two items or
    more runs on one thread per usable CPU, however short or small."""
    monkeypatch.setattr(generator, "MIN_ITEMS", 0)
    monkeypatch.setattr(generator, "MIN_ITEM_NODES", 0)


class TestThreadRule:
    def test_explicit_threads_win(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        rule = generator._thread_count
        big = (10 * generator.MIN_ITEMS, 10 * generator.MIN_ITEM_NODES)
        assert rule(1, *big) == 1
        assert rule(7, *big) == 7  # more threads than CPUs
        assert rule(3, 1, 1) == 3
        with pytest.raises(ValueError, match="threads"):
            rule(0, *big)

    def test_each_constant_alone_forces_one_thread(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        rule = generator._thread_count
        items, nodes = generator.MIN_ITEMS, generator.MIN_ITEM_NODES
        assert rule(None, items, nodes) == 4
        assert rule(None, items - 1, 100 * nodes) == 1
        assert rule(None, 100 * items, nodes - 1) == 1

    @pytest.mark.parametrize("n,threads", [(64, 1), (128, 2)])
    @pytest.mark.parametrize("pde", list(FAMILIES))
    def test_default_pool_threads(self, monkeypatch, pde, n, threads):
        # n=64: 4-7 blocks, every one on the calling thread; n=128: 15-25
        # blocks on both CPUs. gmres is recorded, not run
        use_cpus(monkeypatch, 2)
        solved_on = set()

        def thread_only(A, b, **kwargs):
            solved_on.add(threading.get_ident())
            return [SolveReport(np.zeros(A.shape[0]), 1, True, 0.0, 0.0)
                    for _ in b]

        monkeypatch.setattr(generator, "gmres", thread_only)
        pool = build_basis_pool(GenerationConfig(pde, Grid2D(n), 1))
        assert pool.threads == threads
        if threads == 1:
            assert solved_on == {threading.get_ident()}

    def test_500_samples_at_64_use_every_cpu(self, tmp_path, monkeypatch):
        # the sample blocks' count is recorded, and the run stopped there
        use_cpus(monkeypatch, 3)
        config = GenerationConfig("darcy", Grid2D(64), 500)
        threads_used = []

        class Stop(Exception):
            pass

        def recording(worker, items, threads):
            threads_used.append((len(items), threads))
            raise Stop

        monkeypatch.setattr(generator, "_run_samples", recording)
        with pytest.raises(Stop):
            generate_diffoas(config, tmp_path / "d",
                             pool=make_ablation_pool(config, "fourier"))
        assert threads_used == [(63, 3)]

    @pytest.mark.parametrize("samples,pool_threads", [(100, 2), (10, None)])
    def test_cold_pool_takes_threaded_samples_count(
            self, tmp_path, monkeypatch, samples, pool_threads):
        # helmholtz at n=64: 100 samples make 13 blocks on both CPUs, and
        # the pool solved for them gets those threads, though its own 7
        # blocks would run on one; 10 samples make 2 blocks on the calling
        # thread, and the pool its own default. The run stops at the pool
        use_cpus(monkeypatch, 2)
        seen = []

        class Stop(Exception):
            pass

        def recording(config, threads=None):
            seen.append(threads)
            raise Stop

        monkeypatch.setattr(generator, "build_basis_pool", recording)
        with pytest.raises(Stop):
            generate_diffoas(GenerationConfig("helmholtz", Grid2D(64),
                                              samples), tmp_path / "d")
        assert seen == [pool_threads]

    def test_timings_record_the_thread_counts(self, tmp_path, monkeypatch):
        config = small_config(num_samples=2 * generator.SAMPLE_BLOCK + 5)
        generation = generate_diffoas(config, tmp_path / "a").manifest \
            .generation
        assert (generation["timings"]["pool_threads"],
                generation["timings"]["sample_threads"]) == (1, 1)
        generation = generate_diffoas(config, tmp_path / "b", threads=3,
                                      pool=build_basis_pool(config)) \
            .manifest.generation
        assert "pool_threads" not in generation["timings"]
        assert generation["timings"]["sample_threads"] == 3

    def test_lifted_rule_writes_the_bytes_of_one_thread(self, tmp_path,
                                                        monkeypatch):
        # the default path on two threads, pool and samples: three sample
        # blocks, the last one partial
        use_cpus(monkeypatch, 2)
        thread_every_list(monkeypatch)
        config = small_config(num_samples=2 * generator.SAMPLE_BLOCK + 5,
                              n_basis=20)
        default = generate_diffoas(config, tmp_path / "default")
        timings = default.manifest.generation["timings"]
        assert (timings["pool_threads"], timings["sample_threads"]) == (2, 2)
        generate_diffoas(config, tmp_path / "t1", threads=1)
        for name in ("a", "f", "u"):
            assert (tmp_path / "default" / f"{name}.f64").read_bytes() == \
                (tmp_path / "t1" / f"{name}.f64").read_bytes(), name
        assert manifest_without_timings(tmp_path / "default") == \
            manifest_without_timings(tmp_path / "t1")


def copy_dataset(ds, out: Path) -> Path:
    out.mkdir()
    names = [f"{name}.f64" for name in ds.manifest.field_names]
    for filename in names + ["manifest.json"]:
        (out / filename).write_bytes((ds.dir / filename).read_bytes())
    return out


class TestVerifyCanFail:
    # verify recomputes f = A u exactly, so at tol 0 any change fails
    COUNT = 2 * generator.SAMPLE_BLOCK + 3
    BAD = generator.SAMPLE_BLOCK + 2

    @pytest.fixture(scope="class")
    def source(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("verify") / "d"
        ds = generate_diffoas(small_config(num_samples=self.COUNT), out)
        report = verify_dataset(ds, 0.0)
        assert report.passed and report.max_relative_residual == 0.0
        return ds

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_ulp_of_f_fails_that_sample_alone(self, source, tmp_path,
                                                  monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        thread_every_list(monkeypatch)
        out = copy_dataset(source, tmp_path / "d")
        f = read_field(source, "f")
        f[self.BAD, 5, 3] = np.nextafter(f[self.BAD, 5, 3], np.inf)
        rewrite_field(out, "f", f)
        report = verify_dataset(read_dataset(out), 0.0)
        assert report.failing_indices == [self.BAD]
        assert report.max_relative_residual > 0.0

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("node", [(0, 4), (4, 0), (4, 11), (11, 4)],
                             ids=["north", "west", "east", "south"])
    def test_each_neighbor_direction_reaches_the_residual(
            self, source, tmp_path, monkeypatch, cpus, node):
        # a boundary node of u is read by one interior row alone, through
        # the neighbor view of one direction
        use_cpus(monkeypatch, cpus)
        thread_every_list(monkeypatch)
        out = copy_dataset(source, tmp_path / "d")
        u = read_field(source, "u")
        u[(self.BAD, *node)] = 1e-3
        rewrite_field(out, "u", u)
        report = verify_dataset(read_dataset(out), 1.0)
        assert report.failing_indices == [self.BAD]
        # the other samples' residuals stay 0.0
        assert report.max_relative_residual > 0.0
        assert report.mean_relative_residual == pytest.approx(
            report.max_relative_residual / self.COUNT)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_file_cut_after_read_dataset_names_it(self, source, tmp_path,
                                                  monkeypatch, cpus):
        # the worker that reads the cut block raises; no other error, and
        # the run ends
        use_cpus(monkeypatch, cpus)
        thread_every_list(monkeypatch)
        out = copy_dataset(source, tmp_path / "d")
        ds = read_dataset(out)
        path = out / "u.f64"
        slab = ds.manifest.nodes_per_sample * 8
        path.write_bytes(path.read_bytes()[:(generator.SAMPLE_BLOCK + 3)
                                           * slab + 8])
        raised = []

        def run():
            try:
                verify_dataset(ds, 1e-12)
            except Exception as exc:
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(raised) == 1
        assert type(raised[0]) is DatasetIntegrityError
        assert str(raised[0]) == "u.f64 ends inside a sample"
