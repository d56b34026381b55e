"""Traced replica of the program's loops, timed from outside.

The replica makes the same public calls as `pdeforge.generator`, in the
same order: `RngStream`, `draw_coefficients`, `draw_forcing`,
`PdeCoefficients.assemble`, `gmres`, `combine_solution`, `apply_operator`,
`write_dataset` fed by a traced iterator, and `Dataset.field_sample`. Spans
wrap each call. If `generate_diffoas` or `generate_classic` change shape,
the replica goes stale; `trace.matches_program` reports that by comparing
the replica's field CRC32s with those of the untraced program run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pdeforge import FieldSample, PdeCoefficients, RngStream, SolveOptions
from pdeforge import apply_operator, combine_solution, gmres
from pdeforge.dataset_io import DatasetManifest, read_dataset, write_dataset
from pdeforge.generator import (
    BasisPool,
    draw_coefficients,
    draw_forcing,
    pool_cache_key,
)
from workloads import median

SPMV_PROBES = 3  # apply_operator calls timed after each solve


class Tracer:
    """Spans (name, start, end, parent, run) kept in memory."""

    def __init__(self):
        self.spans = []
        self.run = ""
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list:
        """Duration minus the time covered by direct children."""
        covered = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                covered[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - covered[i]
                for i, s in enumerate(self.spans) if s[0] == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _solve(tr: Tracer, phase: str, cfg, k: int, role: str, opts):
    """One draw + assemble + gmres, as build_basis_pool and
    generate_classic make it; returns (coeffs, forcing, report)."""
    gen = RngStream(cfg.master_seed, role, k).generator()
    with tr.span(f"{phase}.fields.draw"):
        coeffs = draw_coefficients(cfg.pde, cfg.grid, gen)
        forcing = draw_forcing(cfg.pde, cfg.grid, gen)
    with tr.span(f"{phase}.grid_ops.assemble"):
        A = coeffs.assemble()
    b = forcing.interior()
    with tr.span(f"{phase}.solvers.gmres"):
        report = gmres(A, b, opts=opts)
    for _ in range(SPMV_PROBES):
        with tr.span(f"{phase}.grid_ops.spmv"):
            apply_operator(A, report.x)
    return coeffs, forcing, report


def _solve_options(cfg) -> SolveOptions:
    return SolveOptions(tol=cfg.solver_tol,
                        max_iter=min(cfg.grid.n_unknowns, 10000))


def replay_pool(tr: Tracer, cfg) -> tuple:
    """build_basis_pool; returns (pool, per-solve iteration counts)."""
    tr.run = "pool"
    opts = _solve_options(cfg)
    basis, iterations = [], []
    for i in range(cfg.n_basis):
        _, _, report = _solve(tr, "pool", cfg, i, "basis_params", opts)
        iterations.append(report.iterations)
        basis.append(FieldSample.from_interior(cfg.grid, report.x))
    return BasisPool(cfg.grid, basis, key=pool_cache_key(cfg)), iterations


def _write(tr: Tracer, phase: str, cfg, out: Path, method: str, samples):
    manifest = DatasetManifest(pde=cfg.pde, grid_interior=cfg.grid.n_interior,
                               num_samples=cfg.num_samples, method=method)
    with tr.span(f"{phase}.dataset_io.write"):
        return write_dataset(out, samples, manifest)


def replay_generate(tr: Tracer, cfg, pool, out: Path) -> DatasetManifest:
    """generate_diffoas with a given pool: per-sample draw, assemble,
    combine and SpMV, streamed into write_dataset."""
    tr.run = "gen"
    grid = cfg.grid

    def samples():
        for k in range(cfg.num_samples):
            with tr.span("gen.generator.sample"):
                gen = RngStream(cfg.master_seed, "sample_params", k).generator()
                with tr.span("gen.fields.draw"):
                    coeffs = draw_coefficients(cfg.pde, grid, gen)
                with tr.span("gen.grid_ops.assemble"):
                    A = coeffs.assemble()
                with tr.span("gen.generator.combine"):
                    u = combine_solution(
                        pool,
                        RngStream(cfg.master_seed, "weights", k),
                        RngStream(cfg.master_seed, "noise", k),
                        cfg.noise_eta,
                        cfg.weight_resample_threshold,
                    )
                x = u.interior()
                with tr.span("gen.grid_ops.spmv"):
                    Au = apply_operator(A, x)
                sample = dict(coeffs.field_map())
                sample["f"] = FieldSample.from_interior(grid, Au)
                sample["u"] = u
            yield sample

    return _write(tr, "gen", cfg, out, "diffoas", samples())


def replay_classic(tr: Tracer, ccfg, out: Path) -> tuple:
    """generate_classic; returns (manifest, per-solve iteration counts)."""
    tr.run = "classic"
    opts = _solve_options(ccfg)
    iterations = []

    def samples():
        for k in range(ccfg.num_samples):
            with tr.span("classic.generator.sample"):
                coeffs, forcing, report = _solve(
                    tr, "classic", ccfg, k, "sample_params", opts)
                iterations.append(report.iterations)
                if not report.converged:
                    continue
                sample = dict(coeffs.field_map())
                sample["f"] = forcing
                sample["u"] = FieldSample.from_interior(ccfg.grid, report.x)
            yield sample

    return _write(tr, "classic", ccfg, out, "classic", samples()), iterations


def replay_verify(tr: Tracer, out: Path, tol: float, run: str) -> list:
    """read_dataset + verify_dataset; returns indices over tol."""
    tr.run = run
    with tr.span("verify.dataset_io.read"):
        ds = read_dataset(out)
    names = ds.manifest.field_names
    failing = []
    for k in range(ds.manifest.num_samples):
        with tr.span("verify.generator.sample"):
            sample = {}
            for name in names:
                with tr.span("verify.dataset_io.field_read"):
                    sample[name] = ds.field_sample(name, k)
            coeffs = PdeCoefficients(ds.manifest.pde, **{
                name: sample[name] for name in names if name not in ("f", "u")
            })
            with tr.span("verify.grid_ops.assemble"):
                A = coeffs.assemble()
            f_int = sample["f"].interior()
            x = sample["u"].interior()
            with tr.span("verify.grid_ops.spmv"):
                Au = apply_operator(A, x)
            rel = np.linalg.norm(Au - f_int) / max(np.linalg.norm(f_int), 1e-300)
            if rel > tol:
                failing.append(k)
    return failing


def solver_metrics(tr: Tracer, phase: str, iterations: list) -> dict:
    """Per-solve gmres time and iterations. spmv_s is derived: the measured
    apply_operator time x SpMV calls per solve (iterations + 2: the initial
    residual, one per Arnoldi step, the final true residual); ortho_s is
    the rest of the solve (Gram-Schmidt, Givens, triangular solve)."""
    solve = tr.durations(f"{phase}.solvers.gmres")
    spmv_call = median(tr.durations(f"{phase}.grid_ops.spmv"))
    spmv = [spmv_call * (it + 2) for it in iterations]
    p = f"{phase}.solvers"
    return {
        f"{p}.solve_s": (median(solve), "s"),
        f"{p}.solve_max_s": (max(solve, default=0.0), "s"),
        f"{p}.iterations": (median(iterations), "count"),
        f"{p}.iterations_total": (sum(iterations), "count"),
        f"{p}.spmv_s": (median(spmv), "s"),
        f"{p}.ortho_s": (median([s - m for s, m in zip(solve, spmv)]), "s"),
    }


def layer_metrics(tr: Tracer, pool_iterations: list,
                  classic_iterations: list) -> dict:
    """Name -> (value, unit) for every measured per-layer metric."""
    ms = 1e3
    metrics = {
        "gen.fields.draw_ms": (median(tr.durations("gen.fields.draw")) * ms, "ms"),
        "gen.grid_ops.assemble_ms": (
            median(tr.durations("gen.grid_ops.assemble")) * ms, "ms"),
        "gen.grid_ops.spmv_ms": (median(tr.durations("gen.grid_ops.spmv")) * ms, "ms"),
        "gen.generator.combine_ms": (
            median(tr.durations("gen.generator.combine")) * ms, "ms"),
        "gen.generator.sample_self_ms": (
            median(tr.self_times("gen.generator.sample")) * ms, "ms"),
        "gen.dataset_io.write_self_s": (
            sum(tr.self_times("gen.dataset_io.write")), "s"),
        "verify.grid_ops.assemble_ms": (
            median(tr.durations("verify.grid_ops.assemble")) * ms, "ms"),
        "verify.grid_ops.spmv_ms": (
            median(tr.durations("verify.grid_ops.spmv")) * ms, "ms"),
        "verify.dataset_io.read_s": (
            sum(tr.durations("verify.dataset_io.read")), "s"),
        "verify.dataset_io.field_read_ms": (
            median(tr.durations("verify.dataset_io.field_read")) * ms, "ms"),
    }
    metrics.update(solver_metrics(tr, "pool", pool_iterations))
    metrics.update(solver_metrics(tr, "classic", classic_iterations))
    return metrics
