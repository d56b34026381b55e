"""Dataset generation pipelines.

Classic path: draw coefficients and forcing, assemble, solve per sample
with unpreconditioned GMRES (the paper's baseline).
Operator-action path (DiffOAS): solve once per run for a small pool of
basis solutions, with GMRES right-preconditioned by the family's fast
Poisson solve (a default pool builds in well under a second at n=128, so
no pool is kept between runs), then per sample combine them with
normalized Gaussian weights, add edge-decaying noise, and compute the
forcing by one application of the family's 5-point stencil to the node
array: the sparse matrix-vector product without building the matrix.
Verification writes each sample's stencil as a CSR matrix, so it checks
the stencil against an independent representation; the two agree bit for
bit. It reads SAMPLE_BLOCK samples at a time, builds their stencils
together and refills one CSR matrix per dataset with each sample's values
(`verify_dataset`).

Operator-action samples are made in blocks of SAMPLE_BLOCK consecutive
indices (`_diffoas_block`), one work item per block. Within a block, what
defines a sample's random content runs per sample with the operand shapes
of a single sample: its three `RngStream` generators and their draws, the
two GEMMs of each GRF (coefficient and noise), the weight redraw loop and
the weights @ pool product. BLAS results can depend on operand shapes, so
stacking these would change the bytes. The rest is elementwise and runs
once per block on (b, m, m) arrays: noise normalization and amplitude, the
mask, the stencil, its application and the embedding of f. A block item
is a dict of field name -> (b, m, m) node arrays, which `write_dataset`
writes with one write and one CRC-32 update per field. Sample k's bytes
depend on k alone, not on its block or the thread count.
`draw_coefficients`, `combine_solution` and `PdeCoefficients.apply` are
the one-sample forms of the same code.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset_io import Dataset, DatasetManifest, write_dataset, write_manifest
from .families import FAMILIES, PdeCoefficients, apply_block, family
from .fields import (
    GrfParams,
    RngStream,
    boundary_decay_mask,
    chebyshev_basis_field,
    fourier_basis_field,
    sample_grf,
)
from .grid import FieldSample, Grid2D
from .grid_ops import EllipticityError, _five_point, apply_operator
from .solvers import SolveOptions, gmres

ABLATION_POOL_SIZES = {"grf": 30, "fourier": 100, "chebyshev": 100}
ABLATION_GRF = GrfParams(tau=7.0, alpha=2.5)
NOISE_GRF = GrfParams(tau=3.0, alpha=2.0)
# consecutive samples per operator-action work item (see _diffoas_block)
SAMPLE_BLOCK = 8


class GenerationError(RuntimeError):
    pass


class BasisConstructionError(GenerationError):
    pass


class DegenerateWeightsError(GenerationError):
    pass


@dataclass
class GenerationConfig:
    pde: str
    grid: Grid2D
    num_samples: int
    method: str = "diffoas"  # "diffoas" | "classic"
    solver_tol: float = 1e-5
    n_basis: Optional[int] = None
    noise_eta: float = 0.01
    master_seed: int = 0

    def __post_init__(self):
        pde_family = family(self.pde)
        if self.method not in ("diffoas", "classic"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.n_basis is None:
            self.n_basis = pde_family.n_basis
        if self.n_basis < 1:
            raise ValueError(f"n_basis must be >= 1, got {self.n_basis}")
        # written so that NaN fails them
        if not 0 < self.solver_tol < math.inf:
            raise ValueError(
                f"solver_tol must be > 0 and finite, got {self.solver_tol}")
        if not 0 <= self.noise_eta < math.inf:
            raise ValueError(
                f"noise_eta must be >= 0 and finite, got {self.noise_eta}")

    @property
    def weight_resample_threshold(self) -> float:
        """delta: weight draws whose sum is below it in magnitude are
        redrawn (manifest "delta")."""
        return 1e-3 * math.sqrt(self.n_basis)


def draw_coefficients(pde: str, grid: Grid2D, gen: np.random.Generator) -> PdeCoefficients:
    """One draw of the coefficient fields for a PDE family."""
    return PdeCoefficients(pde, **{
        name: dist.sample(grid, gen)
        for name, dist in family(pde).distributions.items()
    })


def draw_forcing(pde: str, grid: Grid2D, gen: np.random.Generator) -> FieldSample:
    return family(pde).forcing.sample(grid, gen)


def solve_sample(config: GenerationConfig, role: str, k: int,
                 opts: SolveOptions, solver,
                 preconditioned: bool = False) -> tuple:
    """Draw coefficients and forcing from the (master_seed, role, k) stream,
    assemble and solve with solver (gmres or cg): (coeffs, forcing,
    report). preconditioned passes the family's fast-Poisson
    preconditioner to the solver as precond."""
    gen = RngStream(config.master_seed, role, k).generator()
    coeffs = draw_coefficients(config.pde, config.grid, gen)
    forcing = draw_forcing(config.pde, config.grid, gen)
    kwargs = {"precond": coeffs.preconditioner()} if preconditioned else {}
    return coeffs, forcing, solver(coeffs.assemble(), forcing.interior(),
                                   opts=opts, **kwargs)


@dataclass
class BasisPool:
    grid: Grid2D
    basis: list  # FieldSample solution functions, zero boundary trace
    provenance: list = dc_field(default_factory=list)
    key: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self._stack: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        """(l, nodes^2) matrix of basis values, cached."""
        if self._stack is None:
            self._stack = np.stack([u.values.reshape(-1) for u in self.basis])
        return self._stack


def pool_cache_key(config: GenerationConfig) -> dict:
    """Everything a solved pool depends on, kept as its `BasisPool.key`;
    the manifest records the key's "preconditioner"."""
    return {
        "pde": config.pde,
        "field_params": FAMILIES[config.pde].field_params,
        "preconditioner": FAMILIES[config.pde].preconditioner_name,
        "grid_interior": config.grid.n_interior,
        "n_basis": config.n_basis,
        "solver_tol": config.solver_tol,
        "master_seed": config.master_seed,
    }


def build_basis_pool(config: GenerationConfig) -> BasisPool:
    """Solve n_basis systems at solver_tol with GMRES, right-preconditioned
    by the family's fast-Poisson preconditioner; the solutions seed the
    pool."""
    grid = config.grid
    opts = SolveOptions.for_grid(grid, config.solver_tol)
    basis, provenance = [], []
    for i in range(config.n_basis):
        _, _, report = solve_sample(config, "basis_params", i, opts, gmres,
                                    preconditioned=True)
        if not report.converged:
            raise BasisConstructionError(
                f"basis solve {i} did not converge: relative residual "
                f"{report.final_relative_residual:.3e} after "
                f"{report.iterations} iterations"
            )
        basis.append(FieldSample.from_interior(grid, report.x))
        provenance.append({
            "index": i,
            "iterations": report.iterations,
            "relative_residual": report.final_relative_residual,
            "wall_time": report.wall_time,
        })
    return BasisPool(grid, basis, provenance, pool_cache_key(config))


def combine_solution(
    pool: BasisPool,
    rng_weights: RngStream,
    rng_noise: RngStream,
    eta: float,
    delta: float,
) -> FieldSample:
    """Normalized Gaussian-weighted combination of the pool plus masked
    noise: the one-sample case of `_combine_block`."""
    return FieldSample(pool.grid, _combine_block(
        pool, [rng_weights], [rng_noise], eta, delta)[0])


def _combine_block(pool: BasisPool, weight_streams: list, noise_streams: list,
                   eta: float, delta: float) -> np.ndarray:
    """(b, m, m) node arrays: sample i combines the pool with weights from
    weight_streams[i] and adds masked noise from noise_streams[i].

    The draws, each noise GRF's two GEMMs and each weights @ pool product
    run per sample with the operand shapes of a single sample: BLAS results
    can depend on operand shapes, so batching them would change the bytes.
    The noise normalization, its amplitude and the mask act on the whole
    block; they are elementwise, so each sample gets the same bits as when
    combined alone."""
    if pool.size < 1:
        raise GenerationError("basis pool is empty")
    if eta < 0 or delta <= 0:
        raise GenerationError("need eta >= 0 and delta > 0")
    grid = pool.grid
    m = grid.n_nodes
    stack = pool.stacked()
    u = np.empty((len(weight_streams), m * m))
    for i, stream in enumerate(weight_streams):
        gen_w = stream.generator()
        for _ in range(100):
            mu = gen_w.standard_normal(pool.size)
            total = mu.sum()
            if abs(total) >= delta:
                break
        else:
            raise DegenerateWeightsError(
                "100 consecutive weight draws below the resample threshold"
            )
        u[i] = (mu / total) @ stack
    u = u.reshape(-1, m, m)
    if eta > 0:
        g = np.stack([sample_grf(grid, NOISE_GRF, stream).values
                      for stream in noise_streams])
        g_max = np.abs(g).max(axis=(1, 2), keepdims=True)
        # noise = g / g_max, or 0 for an all-zero draw
        noise = np.divide(g, g_max, out=g, where=g_max != 0)
        noise[g_max[:, 0, 0] == 0] = 0.0
        amplitude = eta * np.abs(u).max(axis=(1, 2), keepdims=True)
        noise *= amplitude * boundary_decay_mask(grid).values
        u += noise
    return u


def _base_manifest(config: GenerationConfig, method: str) -> DatasetManifest:
    return DatasetManifest(
        pde=config.pde,
        grid_interior=config.grid.n_interior,
        num_samples=config.num_samples,
        method=method,
        generation={
            "master_seed": config.master_seed,
            "solver_tol": config.solver_tol,
            "n_basis": config.n_basis,
            "noise_eta": config.noise_eta,
            "delta": config.weight_resample_threshold,
            "field_params": FAMILIES[config.pde].field_params,
            "sign_convention": "darcy assembled as -div(a grad u) (SPD)",
            "timings": {},
        },
    )


def _sample_blocks(num_samples: int) -> list:
    """Sample indices 0..num_samples-1 in consecutive ranges of
    SAMPLE_BLOCK (the last one may be shorter)."""
    return [range(start, min(start + SAMPLE_BLOCK, num_samples))
            for start in range(0, num_samples, SAMPLE_BLOCK)]


def _diffoas_block(config: GenerationConfig, pool: BasisPool,
                   indices: range) -> dict:
    """The operator-action samples of indices as one block item: field name
    -> (b, m, m) node arrays. Sample k's bytes depend only on k, not on the
    block it is in: the draws run per sample (`draw_coefficients`,
    `_combine_block`), the stencil and its application run on the block
    and are elementwise."""
    pde, grid, seed = config.pde, config.grid, config.master_seed
    draws = [draw_coefficients(
        pde, grid, RngStream(seed, "sample_params", k).generator())
        for k in indices]
    fields = {name: np.stack([d.fields[name].values for d in draws])
              for name in family(pde).coefficients}
    u = _combine_block(
        pool,
        [RngStream(seed, "weights", k) for k in indices],
        [RngStream(seed, "noise", k) for k in indices],
        config.noise_eta,
        config.weight_resample_threshold,
    )
    return {**fields, "f": apply_block(pde, grid, fields, u), "u": u}


def _run_samples(worker, items, threads: int):
    if threads <= 1:
        for item in items:
            yield worker(item)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(worker, items)


def generate_diffoas(
    config: GenerationConfig,
    out_dir: Path,
    threads: int = 1,
    pool: Optional[BasisPool] = None,
    basis_kind: Optional[str] = None,
) -> Dataset:
    """Operator-action generation; writes the dataset under out_dir.

    The pool is the pool argument when given; otherwise basis_kind switches
    it to an ablation basis ("grf", "fourier", "chebyshev"), and None
    solves basis functions with `build_basis_pool`, on every call.

    The manifest records where the pool came from in generation["pool"]:
    "cache" is "given" (the pool argument), "solved" (built by this call)
    or "none" (ablation bases), and "solves" lists each basis solve's
    index, iterations and final relative residual. A solved pool also
    records the "preconditioner" of its solves (from the pool's key).
    Solve wall times go to generation["timings"]["pool_solve_seconds"], so
    the rest of the manifest stays byte-identical across runs.
    """
    if config.method != "diffoas":
        raise GenerationError("generate_diffoas requires method='diffoas'")
    t0 = time.perf_counter()
    if pool is not None:
        cache = "given"
    elif basis_kind is None:
        pool, cache = build_basis_pool(config), "solved"
    else:
        pool, cache = make_ablation_pool(config, basis_kind), "none"
    basis_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    manifest = _base_manifest(
        config, "diffoas" if basis_kind is None else f"ablation-{basis_kind}")
    manifest.generation["pool_size"] = pool.size
    manifest.generation["pool"] = {
        "cache": cache,
        "solves": [{k: v for k, v in solve.items() if k != "wall_time"}
                   for solve in pool.provenance],
    }
    if "preconditioner" in pool.key:
        manifest.generation["pool"]["preconditioner"] = \
            pool.key["preconditioner"]

    def worker(indices: range) -> dict:
        return _diffoas_block(config, pool, indices)

    blocks = _run_samples(worker, _sample_blocks(config.num_samples), threads)
    manifest = write_dataset(out_dir, blocks, manifest)
    manifest.generation["timings"] = {
        "basis_seconds": basis_seconds,
        "pool_solve_seconds": [solve["wall_time"] for solve in pool.provenance],
        "action_seconds": time.perf_counter() - t1,
    }
    return Dataset(out_dir, write_manifest(out_dir, manifest))


def generate_classic(
    config: GenerationConfig,
    out_dir: Path,
    threads: int = 1,
) -> Dataset:
    """Solve-per-sample generation at solver_tol; samples whose solve does
    not converge are skipped. When none converges, no manifest is written
    and GenerationError is raised."""
    if config.method != "classic":
        raise GenerationError("generate_classic requires method='classic'")
    grid = config.grid
    opts = SolveOptions.for_grid(grid, config.solver_tol)
    skipped = []
    t0 = time.perf_counter()

    def worker(k: int):
        return solve_sample(config, "sample_params", k, opts, gmres)

    def emit():
        for k, (coeffs, forcing, report) in enumerate(_run_samples(
                worker, range(config.num_samples), threads)):
            if not report.converged:
                skipped.append(k)
                continue
            yield {**coeffs.field_map(), "f": forcing,
                   "u": FieldSample.from_interior(grid, report.x)}
        if len(skipped) == config.num_samples:
            # raised inside write_dataset, before it writes a manifest
            raise GenerationError("all samples failed to converge")

    manifest = write_dataset(out_dir, emit(), _base_manifest(config, "classic"))
    manifest.skipped_samples = skipped
    manifest.generation["timings"] = {
        "solve_seconds": time.perf_counter() - t0,
    }
    return Dataset(out_dir, write_manifest(out_dir, manifest))


def make_ablation_pool(config: GenerationConfig, basis_kind: str) -> BasisPool:
    """Ablation bases: masked raw GRF draws, sine modes, or windowed
    Chebyshev modes, with the pool sizes of the ablation study."""
    if basis_kind not in ABLATION_POOL_SIZES:
        raise GenerationError(f"unknown ablation basis {basis_kind!r}")
    grid = config.grid
    count = ABLATION_POOL_SIZES[basis_kind]
    if basis_kind == "grf":
        mask = boundary_decay_mask(grid).values
        basis = []
        for i in range(count):
            g = sample_grf(grid, ABLATION_GRF,
                           RngStream(config.master_seed, "basis_params", i))
            basis.append(FieldSample(grid, g.values * mask))
    elif basis_kind == "fourier":
        basis = [fourier_basis_field(grid, i + 1) for i in range(count)]
    else:
        basis = [chebyshev_basis_field(grid, i + 1) for i in range(count)]
    return BasisPool(grid, basis, key={"ablation": basis_kind})


@dataclass
class VerificationReport:
    num_samples: int
    max_relative_residual: float
    mean_relative_residual: float
    failing_indices: list
    tol: float

    @property
    def passed(self) -> bool:
        """Every sample is within tol, and there is at least one."""
        return self.num_samples > 0 and not self.failing_indices


def verify_dataset(dataset: Dataset, tol: float) -> VerificationReport:
    """Measure ||A u - f|| / ||f|| of every sample, with A written as a CSR
    matrix from the family's stencil: an independent check of the
    matrix-free application that computed f.

    The dataset is read SAMPLE_BLOCK samples at a time (`Dataset.blocks`),
    and each block's stencil is built once from its (b, m, m) coefficient
    arrays. One CSR matrix serves the whole dataset: each sample refills
    its values (`_five_point(..., out=A)`) before its SpMV. The stencil is
    elementwise and every matrix on the grid stores the same entries in
    the same order, so each residual is bit-identical to assembling the
    sample's matrix alone. EllipticityError names the block whose
    coefficients are not elliptic."""
    residuals = []
    failing = []
    pde_family = family(dataset.manifest.pde)
    grid = dataset.grid
    A = None
    start = 0
    for block in dataset.blocks(SAMPLE_BLOCK):
        b = len(block["u"])
        try:
            stencil = pde_family.stencil(grid, **{
                name: block[name] for name in pde_family.coefficients})
        except EllipticityError as exc:
            raise EllipticityError(
                f"samples {start}..{start + b - 1}: {exc}") from exc
        for i in range(b):
            A = _five_point(grid, *(c[i] if np.ndim(c) == 3 else c
                                    for c in stencil), out=A)
            f_int = block["f"][i, 1:-1, 1:-1].reshape(-1)
            u_int = block["u"][i, 1:-1, 1:-1].reshape(-1)
            r = apply_operator(A, u_int) - f_int
            denom = max(float(np.linalg.norm(f_int)), 1e-300)
            rel = float(np.linalg.norm(r)) / denom
            residuals.append(rel)
            if not rel <= tol:  # a NaN residual or tol fails
                failing.append(start + i)
        start += b
    residuals = np.asarray(residuals)
    return VerificationReport(
        num_samples=len(residuals),
        max_relative_residual=float(residuals.max()) if residuals.size else 0.0,
        mean_relative_residual=float(residuals.mean()) if residuals.size else 0.0,
        failing_indices=failing,
        tol=tol,
    )
