"""Timing harness: generation cost vs matrix size vs solver tolerance.

Each phase times the function that a generate path runs per work item,
drawing included, with numpy's OpenBLAS on one thread as the generate
paths run it (`one_blas_thread`). The operator-action phase runs
`_diffoas_block` (draw the coefficients, combine the pool, apply the
stencil) over blocks of SAMPLE_BLOCK samples as `generate_diffoas` does,
and its per-sample seconds are the blocks' seconds over the sample count;
the solver phases run `solve_sample` (draw, solve matrix-free) per sample
as `generate_classic` does. The GMRES-vs-action speedup is thus the ratio
of the two paths' per-sample costs; writing the dataset is in neither.
The `gmres_pc` phase solves the same classic samples with the
fast-Poisson preconditioner the pool solves use: the speedup over a
preconditioned solve, reported but not in the regression. The pool build
is timed once per dim and added in `diffoas_total`. Medians over
>= 3 repeats with one discarded warm-up; phases too short for the clock
trigger automatic sample-count escalation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .generator import (
    GenerationConfig,
    _diffoas_block,
    _sample_blocks,
    build_basis_pool,
    one_blas_thread,
    solve_sample,
)
from .grid import Grid2D
from .solvers import SolveOptions

MIN_PHASE_SECONDS = 1e-4  # ~100 ticks of a ~1us-resolution wall clock
MAX_ESCALATIONS = 6


class BenchConfigError(ValueError):
    pass


@dataclass
class BenchRecord:
    matrix_dim: int
    method: str  # diffoas_total | diffoas_action | gmres | gmres_pc
    tol: Optional[float]
    samples: int
    wall_seconds: float  # median over repeats
    repeats: int
    per_repeat: list = dc_field(default_factory=list)
    flags: list = dc_field(default_factory=list)

    def per_sample_seconds(self) -> float:
        return self.wall_seconds / max(self.samples, 1)


@dataclass
class RegressionResult:
    slope: float
    intercept: float
    pearson_r: float
    points: list  # (matrix_dim, speedup_ratio)
    degenerate: bool = False


def _interior_from_dim(dim: int) -> int:
    n = math.isqrt(dim)
    if n * n != dim:
        raise BenchConfigError(
            f"matrix dim {dim} is not the square of an interior grid size"
        )
    return n


def _median(xs):
    return float(np.median(xs))


def _time_items(run, items):
    """Seconds for run(item) over items."""
    t0 = time.perf_counter()
    for item in items:
        run(item)
    return time.perf_counter() - t0


@one_blas_thread()
def run_timing_suite(
    pde: str,
    dims: list,
    tols: list,
    samples_per_point: int,
    repeats: int,
    master_seed: int = 0,
    n_basis: Optional[int] = None,
) -> list:
    """BenchRecords for DiffOAS (total and action-only), GMRES and
    preconditioned GMRES at each (dim, tol). Every setting is checked
    before anything is timed."""
    if samples_per_point < 1:
        raise BenchConfigError("samples_per_point must be >= 1")
    if repeats < 3:
        raise BenchConfigError("repeats must be >= 3")
    if not dims or not tols:
        raise BenchConfigError("need at least one dim and one tol")
    try:
        for tol in tols:
            SolveOptions(tol=tol)  # rejects a tol that is not > 0 and finite
        configs = [GenerationConfig(
            pde=pde, grid=Grid2D(_interior_from_dim(dim)),
            num_samples=samples_per_point, method="diffoas",
            master_seed=master_seed, n_basis=n_basis) for dim in dims]
    except ValueError as exc:
        raise BenchConfigError(str(exc)) from exc
    records = []
    for dim, config in zip(dims, configs):
        t_pool = time.perf_counter()
        pool = build_basis_pool(config)
        basis_seconds = time.perf_counter() - t_pool

        def action(indices):
            _diffoas_block(config, pool, indices)

        # warm-up, then timed repeats, escalating if below clock resolution
        n_action = samples_per_point
        for _ in range(MAX_ESCALATIONS):
            if (_time_items(action, _sample_blocks(n_action))
                    >= MIN_PHASE_SECONDS):
                break
            n_action *= 10
        action_times = [_time_items(action, _sample_blocks(n_action))
                        for _ in range(repeats)]
        records.append(BenchRecord(dim, "diffoas_action", None, n_action,
                                   _median(action_times), repeats,
                                   action_times))
        records.append(BenchRecord(
            dim, "diffoas_total", None, n_action,
            basis_seconds + _median(action_times), repeats,
            [basis_seconds + t for t in action_times],
            flags=[f"basis_seconds={basis_seconds:.6g}"]))

        for tol in tols:
            opts = SolveOptions.for_grid(config.grid, tol)
            for method, preconditioned in (("gmres", False),
                                           ("gmres_pc", True)):
                flags = set()

                def solve(k):
                    _, report = solve_sample(config, "sample_params", k,
                                             opts, preconditioned)
                    if not report.converged:
                        flags.add(f"non-convergence at relres "
                                  f"{report.final_relative_residual:.2e}")

                solve(0)  # warm-up
                runs = [_time_items(solve, range(samples_per_point))
                        for _ in range(repeats)]
                records.append(BenchRecord(dim, method, tol, samples_per_point,
                                           _median(runs), repeats, runs,
                                           sorted(flags)))
    return records


def fit_speedup_regression(records: list, solver_tol: float) -> RegressionResult:
    """Least-squares line of per-sample GMRES/action speedup against dim."""
    by_dim = {}
    for rec in records:
        if rec.method == "gmres" and rec.tol == solver_tol:
            by_dim.setdefault(rec.matrix_dim, {})["gmres"] = rec
        elif rec.method == "diffoas_action":
            by_dim.setdefault(rec.matrix_dim, {})["action"] = rec
    points = []
    for dim in sorted(by_dim):
        pair = by_dim[dim]
        if "gmres" not in pair or "action" not in pair:
            continue
        action = pair["action"].per_sample_seconds()
        if action <= 0.0:
            raise BenchConfigError(
                f"zero action time at dim {dim}; increase samples_per_point"
            )
        points.append((dim, pair["gmres"].per_sample_seconds() / action))
    if len(points) < 3:
        raise BenchConfigError(
            f"need >= 3 dims with both methods at tol {solver_tol}, "
            f"got {len(points)}"
        )
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if np.ptp(y) == 0.0:
        return RegressionResult(0.0, float(y[0]), 0.0, points, degenerate=True)
    slope, intercept = np.polyfit(x, y, 1)
    return RegressionResult(float(slope), float(intercept),
                            float(np.corrcoef(x, y)[0, 1]), points)


CSV_COLUMNS = ["method", "pde", "dim", "tol", "samples", "repeats",
               "median_seconds"]


def emit_report(
    records: list,
    regression: Optional[RegressionResult],
    fmt: str,
    pde: str = "",
) -> str:
    """Render records (+ optional regression footer) as csv or json text."""
    if fmt == "json":
        payload = {
            "records": [
                {"method": r.method, "pde": pde, "dim": r.matrix_dim,
                 "tol": r.tol, "samples": r.samples, "repeats": r.repeats,
                 "median_seconds": r.wall_seconds, "per_repeat": r.per_repeat,
                 "flags": r.flags}
                for r in records
            ],
        }
        if regression is not None:
            payload["regression"] = {
                "slope": regression.slope,
                "intercept": regression.intercept,
                "pearson_r": regression.pearson_r,
                "points": regression.points,
                "degenerate": regression.degenerate,
            }
        return json.dumps(payload, indent=2)
    if fmt != "csv":
        raise BenchConfigError(f"unknown report format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r.method, pde, r.matrix_dim,
                         "" if r.tol is None else r.tol,
                         r.samples, r.repeats, f"{r.wall_seconds:.9g}"])
    if regression is not None:
        writer.writerow(["regression_slope", pde, "", "", "", "",
                         f"{regression.slope:.9g}"])
        writer.writerow(["regression_pearson_r", pde, "", "", "", "",
                         f"{regression.pearson_r:.9g}"])
    return buf.getvalue()
