import csv
import io
import json

import numpy as np
import pytest

from pdeforge import bench, generator
from pdeforge.bench import (
    BenchConfigError,
    BenchRecord,
    emit_report,
    fit_speedup_regression,
    run_timing_suite,
)
from pdeforge.generator import GenerationConfig, generate_classic
from pdeforge.grid import Grid2D
from pdeforge.solvers import gmres


def synthetic_records(speedups):
    records = []
    for dim, s in speedups:
        records.append(BenchRecord(dim, "gmres", 1e-5, 10, s * 10.0, 3))
        records.append(BenchRecord(dim, "diffoas_action", None, 10, 10.0, 3))
    return records


class TestRegression:
    def test_exact_linear(self):
        records = synthetic_records([(n, 0.5 * n) for n in
                                     (100, 400, 900, 1600)])
        fit = fit_speedup_regression(records, 1e-5)
        assert fit.slope == pytest.approx(0.5, rel=1e-12)
        assert fit.pearson_r == pytest.approx(1.0, rel=1e-12)
        assert not fit.degenerate

    def test_constant_speedup_degenerate(self):
        records = synthetic_records([(n, 7.0) for n in (100, 400, 900)])
        fit = fit_speedup_regression(records, 1e-5)
        assert fit.slope == 0.0
        assert fit.pearson_r == 0.0
        assert fit.degenerate

    def test_too_few_points(self):
        records = synthetic_records([(100, 1.0), (400, 2.0)])
        with pytest.raises(BenchConfigError):
            fit_speedup_regression(records, 1e-5)

    def test_zero_action_time(self):
        records = synthetic_records([(n, n) for n in (100, 400, 900)])
        records[3].wall_seconds = 0.0  # the action record of dim 400
        with pytest.raises(BenchConfigError,
                           match="zero action time at dim 400"):
            fit_speedup_regression(records, 1e-5)

    def test_missing_tolerance(self):
        records = synthetic_records([(n, n) for n in (100, 400, 900)])
        with pytest.raises(BenchConfigError):
            fit_speedup_regression(records, 1e-3)


class TestEmitReport:
    def test_empty_csv_is_header_only(self):
        text = emit_report([], None, "csv")
        assert text.strip().splitlines() == [
            "method,pde,dim,tol,samples,repeats,median_seconds"]

    def test_csv_row_count(self):
        records = synthetic_records([(n, n) for n in (100, 400, 900)])
        fit = fit_speedup_regression(records, 1e-5)
        rows = list(csv.reader(io.StringIO(
            emit_report(records, fit, "csv", pde="darcy"))))
        assert len(rows) == len(records) + 2 + 1  # records + regression + header

    def test_json_round_trip(self):
        records = synthetic_records([(n, n) for n in (100, 400, 900)])
        fit = fit_speedup_regression(records, 1e-5)
        payload = json.loads(emit_report(records, fit, "json", pde="darcy"))
        assert len(payload["records"]) == len(records)
        assert payload["regression"]["slope"] == pytest.approx(fit.slope)
        assert payload["records"][0]["median_seconds"] == \
            records[0].wall_seconds

    def test_unknown_format(self):
        with pytest.raises(BenchConfigError):
            emit_report([], None, "xml")


class TestTimingSuite:
    def test_rejects_bad_inputs(self):
        with pytest.raises(BenchConfigError):
            run_timing_suite("darcy", [7], [1e-3], 2, 3)
        with pytest.raises(BenchConfigError):
            run_timing_suite("darcy", [100], [1e-3], 0, 3)
        with pytest.raises(BenchConfigError):
            run_timing_suite("darcy", [100], [1e-3], 2, 2)
        for dims, tols in (([], [1e-3]), ([16], [])):
            with pytest.raises(BenchConfigError, match="at least one dim"):
                run_timing_suite("darcy", dims, tols, 2, 3)

    def test_short_action_phase_takes_ten_times_the_samples(self,
                                                            monkeypatch):
        # a clock that reads 2e-5 s per sample and runs nothing: one
        # sample is under MIN_PHASE_SECONDS (1e-4 s), ten are not
        def clock(run, items):
            return 2e-5 * sum(len(item) for item in items)

        monkeypatch.setattr(bench, "_time_items", clock)
        records = run_timing_suite("darcy", [16], [1e-3], 1, 3, n_basis=2)
        assert {r.method: r.samples for r in records} == {
            "diffoas_action": 10, "diffoas_total": 10, "gmres": 1,
            "gmres_pc": 1}

    def test_small_suite_structure(self):
        records = run_timing_suite("darcy", [64, 144], [1e-3, 1e-5],
                                   samples_per_point=2, repeats=3,
                                   master_seed=1, n_basis=3)
        methods = {(r.matrix_dim, r.method, r.tol) for r in records}
        for dim in (64, 144):
            assert (dim, "diffoas_action", None) in methods
            assert (dim, "diffoas_total", None) in methods
            for tol in (1e-3, 1e-5):
                assert (dim, "gmres", tol) in methods
                assert (dim, "gmres_pc", tol) in methods
        for r in records:
            assert r.wall_seconds >= 0.0
            assert len(r.per_repeat) == r.repeats

    def test_deterministic_workload(self):
        a = run_timing_suite("darcy", [64], [1e-3], 2, 3, master_seed=3,
                             n_basis=2)
        b = run_timing_suite("darcy", [64], [1e-3], 2, 3, master_seed=3,
                             n_basis=2)
        assert [(r.method, r.matrix_dim, r.samples) for r in a] == \
            [(r.method, r.matrix_dim, r.samples) for r in b]


class TestPhasesRunGeneratePaths:
    def test_action_phase_applies_the_stencil(self, monkeypatch):
        # the phase runs generate_diffoas's block function, which applies
        # the stencil to a block of samples at once
        real = generator.apply_stencil
        applied = []

        def counting(stencil, u, out):
            applied.append(len(u))
            return real(stencil, u, out)

        monkeypatch.setattr(generator, "apply_stencil", counting)
        records = run_timing_suite("darcy", [64], [1e-3], 2, 3,
                                   master_seed=4, n_basis=2)
        action = next(r for r in records if r.method == "diffoas_action")
        assert sum(applied) >= action.repeats * action.samples

    def test_phases_run_with_one_blas_thread(self, monkeypatch):
        # generate pins OpenBLAS to one thread, so the phases that time
        # its work items must too; the pool is built on one thread, so
        # that basis_seconds compares with the one-thread GMRES phases
        count, seen, pool_threads = 2, [], []

        def set_count(threads):
            nonlocal count
            count = threads

        def recording(real):
            def run(*args, **kwargs):
                seen.append(count)
                return real(*args, **kwargs)
            return run

        monkeypatch.setattr(generator, "_openblas_thread_calls",
                            lambda: (lambda: count, set_count))
        def pool_on(config, threads=None):
            pool_threads.append(threads)
            return generator.build_basis_pool(config, threads)

        monkeypatch.setattr(bench, "build_basis_pool", pool_on)
        for name in ("_diffoas_block", "_solve_blocks", "build_basis_pool"):
            monkeypatch.setattr(bench, name, recording(getattr(bench, name)))
        run_timing_suite("darcy", [64, 144], [1e-3], 1, 3, master_seed=6,
                         n_basis=2)
        assert len(seen) >= 16 and set(seen) == {1}
        assert pool_threads == [1, 1]
        assert count == 2

    def test_first_gmres_solve_is_classic_sample_0(self, monkeypatch,
                                                   tmp_path):
        solutions = []

        def recording(A, b, **kwargs):
            reports = gmres(A, b, **kwargs)
            if kwargs.get("precond") is None:  # not a pool or gmres_pc solve
                solutions.append(reports[0].x)
            return reports

        monkeypatch.setattr(generator, "gmres", recording)
        run_timing_suite("darcy", [64], [1e-5], 1, 3, master_seed=5,
                         n_basis=2)
        config = GenerationConfig("darcy", Grid2D(8), 1, method="classic",
                                  solver_tol=1e-5, master_seed=5)
        u = next(generate_classic(config, tmp_path / "c").blocks(1))["u"][0]
        assert np.array_equal(solutions[0].view(np.uint64),
                              u[1:-1, 1:-1].reshape(-1).view(np.uint64))
