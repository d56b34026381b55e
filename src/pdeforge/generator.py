"""Dataset generation pipelines.

Classic path: draw coefficients and forcing, solve per sample with
unpreconditioned GMRES (the paper's baseline).
Operator-action path (DiffOAS): solve once per run for a small pool of
basis solutions, with GMRES right-preconditioned by the family's fast
Poisson solve (a default pool builds in well under a second at n=128, so
no pool is kept between runs), then per sample combine them with
normalized Gaussian weights, add edge-decaying noise, and compute the
forcing by one application of the family's 5-point stencil to the node
array: the sparse matrix-vector product without building the matrix.
Every GMRES solve applies the stencil matrix-free as well, and
verification recomputes A u - f from the stencil's 2-D neighbor views of
u (`verify_dataset`); `grid_ops` tells how the forms check each other. No
path builds a CSR matrix or imports scipy.

Operator-action samples are made in blocks of SAMPLE_BLOCK consecutive
indices starting at a multiple of SAMPLE_BLOCK (`_diffoas_block`), one
work item per block. Block j draws from three `RngStream` generators,
(seed, role, j) for the roles sample_params, weights and noise. It draws
its coefficients field by field, each for a full SAMPLE_BLOCK samples
(a short last block keeps the first ones), and its weights, with their
redraws, and noise GRFs in sample order. So sample k's bytes are a pure
function of (seed, k) at any thread and sample count; SAMPLE_BLOCK is
part of that contract.

Why a block has the bits of its samples alone, stated here once: each
field is drawn in one call (`fields.draw_block`) that fills the block's
(b, m, m) buffer in sample order, and its two GEMMs, like the weights @
pool product that writes u, are stacked: numpy runs one product per
sample, with one sample's operand shapes, as BLAS results can depend on
shapes (one (b, l) @ (l, m*m) GEMM rounds otherwise). Everything else
runs once on the contiguous block and is elementwise or a per-sample
reduction: the GRFs' scale and exp, a shift to a minimum, the
noise normalization (max |g| as max(max g, -min g)) and amplitude, the
mask, the stencil and its application in the row-padded layout of
`grid_ops`. Verification takes each norm per sample, as one stacked
product of per-sample dot products. So sample i of a block gets the bits
it would get alone. A block item is a dict of field
name -> (b, m, m) node arrays, which `write_dataset` writes with one
write and one CRC-32 update per field, as the bytes of its samples one
after another.

Blocks run on `threads` worker threads and are written in block order.
Every linear system is drawn and solved by `_solve_blocks`, one `gmres`
call per block of systems: the pool's blocks on threads too
(`build_basis_pool`), the classic samples one per block. `verify_dataset`
reads, CRCs and checks blocks on threads. One rule, `_thread_count`, sets
the default count of each of these work lists: the calling thread alone
for fewer than MIN_ITEMS items or items of fewer than MIN_ITEM_NODES
nodes, where a second worker costs more than it gains, and otherwise one
thread per usable CPU; a pool that `generate_diffoas` solves ahead of
sample blocks on more threads than one takes their count. The generate
paths, the pool build and verification run with numpy's OpenBLAS pinned
to one thread (`one_blas_thread`): OpenBLAS splits a matrix product, and
a dot product of a long vector, among its threads in a way that changes
its rounding, and N worker threads x N BLAS threads would oversubscribe
the CPUs. With the pin, neither a dataset's bytes nor a verify report
depends on either thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from itertools import chain, islice
from pathlib import Path
from typing import Optional

import numpy as np

from .dataset_io import Dataset, DatasetManifest, write_dataset
from .families import FAMILIES, PdeCoefficients, apply_block, family
from .fields import (
    GrfParams,
    RngStream,
    boundary_decay_mask,
    chebyshev_basis_field,
    draw_block,
    fourier_basis_field,
    sample_grf,
)
from .grid import FieldSample, Grid2D
from .grid_ops import EllipticityError, StencilOperator, stencil_residual
from .solvers import SolveOptions, gmres

ABLATION_POOL_SIZES = {"grf": 30, "fourier": 100, "chebyshev": 100}
ABLATION_GRF = GrfParams(tau=7.0, alpha=2.5)
NOISE_GRF = GrfParams(tau=3.0, alpha=2.0)
# consecutive samples per operator-action work item and random stream; part
# of the byte contract: changing it changes every dataset's bytes
SAMPLE_BLOCK = 8
# a pool block solves at most SAMPLE_BLOCK systems and at most this many
# unknowns in all (SAMPLE_BLOCK systems at n = 64): a larger block's
# vectors spill the cache, and it holds k x iterations x N of Krylov basis
POOL_BLOCK_UNKNOWNS = SAMPLE_BLOCK * 64 * 64
# by default a work list runs on the calling thread alone when it has fewer
# items than MIN_ITEMS or items of fewer nodes than MIN_ITEM_NODES, where a
# second worker does not pay for its time and its malloc arena. On a 2-vCPU
# box (BENCH_32.json), two threads took 0.80-1.19x the time of one on the
# default pools at n=64 (4-7 blocks of 8 x 66^2 nodes) and peaked 6-13 MiB
# higher, and 0.57-0.62x at n=128 (15-25 blocks of 2 x 130^2); they lost on
# darcy sample blocks at n=32 (8 x 34^2 nodes) and won at n=48 (8 x 50^2)
MIN_ITEMS = 8
MIN_ITEM_NODES = 16 * 1024
# (get, set) thread-count symbols of the OpenBLAS builds numpy links: its
# wheels' scipy-openblas (64-bit integers) and a system OpenBLAS
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class GenerationError(RuntimeError):
    pass


class BasisConstructionError(GenerationError):
    pass


class DegenerateWeightsError(GenerationError):
    pass


@functools.cache
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS numpy calls, or None
    when numpy's linear algebra module exports none of
    OPENBLAS_THREAD_SYMBOLS."""
    from numpy.linalg import _umath_linalg
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = lib[get_name], lib[set_name]
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def blas_threads() -> Optional[int]:
    """The thread count of numpy's OpenBLAS, or None when it is not known
    (manifest generation["blas_threads"])."""
    calls = _openblas_thread_calls()
    return None if calls is None else calls[0]()


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the
    count it had; a no-op when the count is not known (`blas_threads`).
    The count is process-wide: pins nest, but two that overlap in
    different Python threads do not, as the first to end restores the
    count while the other runs."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _thread_count(threads: Optional[int], items: int,
                  item_nodes: int) -> int:
    """The worker threads of a list of items work items of item_nodes
    nodes each: threads when given; for None the calling thread alone
    (1) when items < MIN_ITEMS or item_nodes < MIN_ITEM_NODES, else the
    CPUs this process may run on. threads < 1 raises ValueError."""
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        return threads
    if items < MIN_ITEMS or item_nodes < MIN_ITEM_NODES:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


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
        if self.master_seed < 0:
            raise ValueError(
                f"master_seed must be >= 0, got {self.master_seed}")
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
    """One draw of the coefficient fields for a PDE family: the one-sample
    case of the `draw_block` that `_diffoas_block` draws its blocks with."""
    fields = draw_block(family(pde).distributions, grid, gen, 1)
    return PdeCoefficients(pde, **{name: FieldSample(grid, values[0])
                                   for name, values in fields.items()})


def draw_forcing(pde: str, grid: Grid2D, gen: np.random.Generator) -> FieldSample:
    return FieldSample(grid, sample_grf(grid, family(pde).forcing, gen))


def _solve_blocks(config: GenerationConfig, role: str, blocks: list,
                  threads: int, preconditioned: bool):
    """Draw and solve the systems of blocks, ranges of indices, at
    solver_tol: one `gmres` call per block, the blocks on threads worker
    threads (`_run_samples`). Yields (indices, fields, reports) in block
    order: field name -> (k, m, m) node arrays, the coefficients then "f",
    and each system's `SolveReport`, its wall_time from the block's start.
    System i is drawn from its (master_seed, role, i) stream as
    `draw_coefficients` then `draw_forcing` draw it, and, as every step is
    elementwise or per system, solved with the bits it gets alone
    (`solvers`). preconditioned: with the family's fast-Poisson M^{-1}."""
    grid, pde_family = config.grid, family(config.pde)
    draws = {**pde_family.distributions, "f": pde_family.forcing}
    opts = SolveOptions.for_grid(grid, config.solver_tol)

    def solve(indices: range) -> tuple:
        t0 = time.perf_counter()
        fields = {name: np.empty((len(indices), grid.n_nodes, grid.n_nodes))
                  for name in draws}
        for row, i in enumerate(indices):
            gen = RngStream(config.master_seed, role, i).generator()
            for name, dist in draws.items():
                dist.draw(grid, gen, fields[name][row:row + 1])
        A = StencilOperator(grid, pde_family.stencil(grid, **fields))
        b = fields["f"][:, 1:-1, 1:-1].reshape(len(indices), -1)
        precond = (pde_family.preconditioner(grid, **fields) if preconditioned
                   else None)
        drawn = time.perf_counter() - t0
        reports = gmres(A, b, opts=opts, precond=precond)
        for report in reports:
            report.wall_time += drawn
        return indices, fields, reports

    return _run_samples(solve, blocks, threads)


@dataclass
class BasisPool:
    grid: Grid2D
    basis: np.ndarray  # (l, m, m) solutions, zero boundary trace
    provenance: list = dc_field(default_factory=list)
    key: dict = dc_field(default_factory=dict)
    threads: Optional[int] = None  # worker threads of its build, if built

    def __post_init__(self):
        """Stack basis, any sequence of (m, m) fields, FieldSamples too,
        into one fresh, read-only float64 array; take a read-only float64
        array, as this module's pool builders make, as it is."""
        basis = self.basis
        if not (isinstance(basis, np.ndarray) and basis.dtype == np.float64
                and not basis.flags.writeable):
            basis = np.array(basis, dtype=np.float64)
            basis.flags.writeable = False
        self.basis = basis

    @property
    def size(self) -> int:
        return len(self.basis)


def pool_cache_key(config: GenerationConfig) -> dict:
    """A solved pool's `BasisPool.key`: the "preconditioner" of its
    solves, which the manifest records."""
    return {"preconditioner": FAMILIES[config.pde].preconditioner_name}


@one_blas_thread()
def build_basis_pool(config: GenerationConfig,
                     threads: Optional[int] = None) -> BasisPool:
    """Solve n_basis systems at solver_tol with GMRES, right-preconditioned
    by the family's fast-Poisson preconditioner; the solutions seed the
    pool.

    The solves run in blocks of consecutive indices (`_solve_blocks`, role
    "basis_params"): SAMPLE_BLOCK systems, fewer where they would hold more
    than POOL_BLOCK_UNKNOWNS unknowns (two at n = 128, one above), on
    threads worker threads, by default as `_thread_count` rules for the
    blocks (the calling thread alone for a default pool at n <= 64), with
    one BLAS thread; the pool records the count in `BasisPool.threads`.
    The pool is the same at any thread count and block size.
    threads < 1 raises ValueError. A solve that does not converge
    raises BasisConstructionError naming the lowest such index. Each
    provenance entry's wall_time is the seconds from its block's start to
    that solve's exit, so on more than one thread the entries overlap."""
    grid = config.grid
    basis = np.zeros((config.n_basis, grid.n_nodes, grid.n_nodes))
    provenance = []
    blocks = _sample_blocks(config.n_basis, max(1, min(
        SAMPLE_BLOCK, POOL_BLOCK_UNKNOWNS // grid.n_unknowns)))
    threads = _thread_count(threads, len(blocks),
                            len(blocks[0]) * grid.n_nodes ** 2)
    for indices, _, reports in _solve_blocks(config, "basis_params", blocks,
                                             threads, preconditioned=True):
        for i, report in zip(indices, reports):
            if not report.converged:
                raise BasisConstructionError(
                    f"basis solve {i} did not converge: relative residual "
                    f"{report.final_relative_residual:.3e} after "
                    f"{report.iterations} iterations"
                )
            basis[i, 1:-1, 1:-1] = report.x.reshape(grid.n_interior, -1)
            provenance.append({
                "index": i,
                "iterations": report.iterations,
                "relative_residual": report.final_relative_residual,
                "wall_time": report.wall_time,
            })
    basis.flags.writeable = False
    return BasisPool(grid, basis, provenance, pool_cache_key(config),
                     threads)


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
        pool, rng_weights.generator(), rng_noise.generator(), 1, eta,
        delta)[0])


def _combine_block(pool: BasisPool, gen_w: np.random.Generator,
                   gen_n: np.random.Generator, b: int, eta: float,
                   delta: float) -> np.ndarray:
    """(b, m, m) node arrays: b samples, each the pool combined with
    weights drawn from gen_w plus masked noise drawn from gen_n, in sample
    order. The weights @ pool product is one stacked product of one GEMV
    per sample, and the noise GRFs are drawn in one block (`draw_block`);
    the noise normalization, its amplitude and the mask act on the whole
    block (module docstring). A combination that is not finite raises
    GenerationError."""
    if pool.size < 1:
        raise GenerationError("basis pool is empty")
    if not (eta >= 0 and delta > 0):  # NaN fails it
        raise GenerationError("need eta >= 0 and delta > 0")
    grid = pool.grid
    m = grid.n_nodes
    w = np.empty((b, 1, pool.size))
    for i in range(b):
        for _ in range(100):
            mu = gen_w.standard_normal(pool.size)
            total = mu.sum()
            if abs(total) >= delta:
                break
        else:
            raise DegenerateWeightsError(
                "100 consecutive weight draws below the resample threshold"
            )
        np.divide(mu, total, out=w[i, 0])
    # a stacked product: each slice is one sample's (1, l) @ (l, m*m) GEMV;
    # an overflow raises GenerationError below, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.matmul(w, pool.basis.reshape(pool.size, -1)).reshape(b, m, m)
    # max |u| per sample, with no |u| array; NaN stays NaN
    u_max = np.maximum(u.max(axis=(1, 2), keepdims=True),
                       -u.min(axis=(1, 2), keepdims=True))
    if not np.isfinite(u_max).all():
        raise GenerationError("the pool combination is not finite")
    if eta > 0:
        g = draw_block({"noise": NOISE_GRF}, grid, gen_n, b)["noise"]
        # max |g| per sample, with no |g| array
        g_max = np.maximum(g.max(axis=(1, 2), keepdims=True),
                           -g.min(axis=(1, 2), keepdims=True))
        g_max[g_max == 0] = np.inf  # an all-zero draw stays 0, with no 0/0
        g /= g_max
        g *= eta * u_max * boundary_decay_mask(grid)
        u += g
    return u


def _base_manifest(config: GenerationConfig, method: str,
                   solved: bool) -> DatasetManifest:
    """The manifest of a run of method. It records solver_tol only when the
    run solved (solved: classic, or a pool it built), and n_basis,
    noise_eta and delta only for an operator-action method."""
    generation = {"master_seed": config.master_seed}
    if solved:
        generation["solver_tol"] = config.solver_tol
    if method != "classic":
        generation.update(n_basis=config.n_basis, noise_eta=config.noise_eta,
                          delta=config.weight_resample_threshold)
    generation.update(field_params=FAMILIES[config.pde].field_params,
                      operator=FAMILIES[config.pde].operator_name,
                      blas_threads=blas_threads())
    return DatasetManifest(pde=config.pde,
                           grid_interior=config.grid.n_interior,
                           num_samples=config.num_samples, method=method,
                           generation=generation)


def _sample_blocks(num_samples: int, size: Optional[int] = None) -> list:
    """Sample indices 0..num_samples-1 in consecutive ranges of size,
    by default SAMPLE_BLOCK (the last one may be shorter)."""
    size = size or SAMPLE_BLOCK
    return [range(start, min(start + size, num_samples))
            for start in range(0, num_samples, size)]


def _diffoas_block(config: GenerationConfig, pool: BasisPool,
                   indices: range) -> dict:
    """The operator-action samples of indices, a range starting at a
    multiple of SAMPLE_BLOCK, as one block item: field name -> (b, m, m)
    node arrays, drawn from the block's three streams; the stencil and its
    application run on the block (module docstring). An operator action
    that overflows raises GenerationError naming the block's samples."""
    pde, grid, seed = config.pde, config.grid, config.master_seed
    gen_c, gen_w, gen_n = (
        RngStream(seed, role, indices.start // SAMPLE_BLOCK).generator()
        for role in ("sample_params", "weights", "noise"))
    # a full block of coefficients, so that no field's stream position
    # depends on the length of a short last block
    fields = {name: values[:len(indices)] for name, values in draw_block(
        family(pde).distributions, grid, gen_c, SAMPLE_BLOCK).items()}
    u = _combine_block(pool, gen_w, gen_n, len(indices), config.noise_eta,
                       config.weight_resample_threshold)
    with np.errstate(over="ignore", invalid="ignore"):
        f = apply_block(pde, grid, fields, u)
    if not np.isfinite(f).all():
        raise GenerationError(f"samples {indices.start}..{indices[-1]}: the "
                              f"operator action A u is not finite")
    return {**fields, "f": f, "u": u}


def _run_samples(worker, items, threads: int):
    """worker(item) for each of items (any iterable, pulled in the calling
    thread), yielded in order; threads is the count its caller's
    `_thread_count` chose. With threads > 1 and more than one item
    they run on that many threads, at most 2 * threads of them pulled and
    submitted ahead of the consumer: a slow consumer holds a bounded number
    of items and results, not all of them. A lone item runs in the calling
    thread: a thread gains it nothing. Items not started when the consumer
    stops are cancelled."""
    todo = iter(items)
    first = [] if threads == 1 else list(islice(todo, 2))
    todo = chain(first, todo)
    if len(first) <= 1:
        yield from map(worker, todo)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window = deque(pool.submit(worker, item)
                       for item in islice(todo, 2 * threads))
        try:
            while window:
                result = window.popleft().result()
                window.extend(pool.submit(worker, item)
                              for item in islice(todo, 1))
                yield result
        finally:
            for future in window:
                future.cancel()


@one_blas_thread()
def generate_diffoas(
    config: GenerationConfig,
    out_dir: Path,
    threads: Optional[int] = None,
    pool: Optional[BasisPool] = None,
) -> Dataset:
    """Operator-action generation; writes the dataset under out_dir.

    Sample blocks run on threads worker threads, by default as
    `_thread_count` rules for them (the calling thread alone for fewer
    than MIN_ITEMS blocks or at n <= 43, else one per usable CPU), with
    one BLAS thread (module docstring); the bytes are the same at any
    count. threads < 1 raises ValueError.

    pool None solves one with `build_basis_pool`, on every call, on the
    sample blocks' threads when they run on more than one, else given
    threads: an explicit 1, or None, with which the pool's blocks get
    their own default. A serial pool ahead of threaded samples left the
    second CPU idle for half of a cold n=64 generate. A given
    pool is used as it is; an ablation pool (`make_ablation_pool`) names
    its kind in its key, and the manifest method is then "ablation-<kind>".
    The samples and the manifest take n_basis, and so delta, from the
    pool's size. An empty pool, one on another grid, or one whose basis
    is not zero on the boundary raises GenerationError before out_dir is
    touched. Every u is a combination of the basis plus noise masked to
    zero on the boundary, so u is zero there, as the operator action
    needs (`apply_block`), as long as the combination is finite; a block
    whose combination is not (a NaN or infinite basis value, or an
    overflow) raises GenerationError (`_combine_block`), and so does one
    whose operator action overflows (`_diffoas_block`). `write_dataset`
    makes the first block before it touches out_dir; an error in a later
    block leaves out_dir with no manifest.

    The manifest records where the pool came from in generation["pool"]:
    "cache" is "solved" (built by this call), "none" (an ablation pool) or
    "given", and "solves" lists each basis solve's index, iterations and
    final relative residual. A solved pool also records the
    "preconditioner" of its solves (from the pool's key). solver_tol is
    recorded only when this call solved the pool (`_base_manifest`). Solve
    wall times go to generation["timings"]["pool_solve_seconds"], so the
    rest of the manifest stays byte-identical across runs; each runs from
    its block's start, so on more than one thread they overlap
    (`build_basis_pool`). The timings also hold "sample_threads", the
    threads of the sample blocks, and for a pool this call solved
    "pool_threads", those of its solves.
    """
    if config.method != "diffoas":
        raise GenerationError("generate_diffoas requires method='diffoas'")
    blocks = _sample_blocks(config.num_samples)
    sample_threads = _thread_count(threads, len(blocks),
                                   SAMPLE_BLOCK * config.grid.n_nodes ** 2)
    t0 = time.perf_counter()
    solved = pool is None
    if solved:
        pool = build_basis_pool(
            config, sample_threads if sample_threads > 1 else threads)
    basis_seconds = time.perf_counter() - t0
    if pool.size < 1:
        raise GenerationError("basis pool is empty")
    m = config.grid.n_nodes
    if pool.grid != config.grid or pool.basis.shape[1:] != (m, m):
        raise GenerationError(
            f"pool is on {pool.grid} with {pool.basis.shape[1:]} node "
            f"arrays, the config on {config.grid}")
    if pool.basis[:, [0, -1]].any() or pool.basis[:, :, [0, -1]].any():
        raise GenerationError("pool basis does not vanish on the boundary")
    kind = pool.key.get("ablation")
    cache = "solved" if solved else "given" if kind is None else "none"
    config = replace(config, n_basis=pool.size)

    t1 = time.perf_counter()
    manifest = _base_manifest(
        config, "diffoas" if kind is None else f"ablation-{kind}", solved)
    manifest.generation["pool_size"] = pool.size
    manifest.generation["pool"] = {
        "cache": cache,
        "solves": [{k: v for k, v in solve.items() if k != "wall_time"}
                   for solve in pool.provenance],
    }
    if "preconditioner" in pool.key:
        manifest.generation["pool"]["preconditioner"] = \
            pool.key["preconditioner"]

    def items():
        yield from _run_samples(
            lambda indices: _diffoas_block(config, pool, indices), blocks,
            sample_threads)
        # write_dataset writes the manifest after the last block
        manifest.generation["timings"] = {
            "basis_seconds": basis_seconds,
            "pool_solve_seconds": [solve["wall_time"]
                                   for solve in pool.provenance],
            "action_seconds": time.perf_counter() - t1,
            **({"pool_threads": pool.threads} if solved else {}),
            "sample_threads": sample_threads,
        }

    return Dataset(out_dir, write_dataset(out_dir, items(), manifest))


@one_blas_thread()
def generate_classic(
    config: GenerationConfig,
    out_dir: Path,
    threads: int = 1,
) -> Dataset:
    """Solve-per-sample generation at solver_tol, unpreconditioned, one
    sample per block of `_solve_blocks`; samples whose solve does not
    converge are skipped. When none converges, GenerationError is raised
    before out_dir is touched (`write_dataset` takes the first sample
    first), so the dataset in out_dir stays as it was.

    threads defaults to 1, not to `_thread_count`'s rule as for
    `generate_diffoas`: each solve in flight holds its own Krylov basis,
    so every thread adds that much to peak memory. threads < 1 raises
    ValueError."""
    if config.method != "classic":
        raise GenerationError("generate_classic requires method='classic'")
    threads = _thread_count(threads, config.num_samples,
                            config.grid.n_nodes ** 2)
    n = config.grid.n_interior
    skipped = []
    t0 = time.perf_counter()

    def emit():
        for indices, fields, (report,) in _solve_blocks(
                config, "sample_params", _sample_blocks(config.num_samples, 1),
                threads, preconditioned=False):
            if not report.converged:
                skipped.append(indices.start)
                continue
            yield {**fields, "u": np.pad(report.x.reshape(n, n), 1)[None]}
        if len(skipped) == config.num_samples:
            # raised inside write_dataset, as it takes the first item
            raise GenerationError("all samples failed to converge")
        manifest.skipped_samples = skipped
        manifest.generation["timings"] = {
            "solve_seconds": time.perf_counter() - t0,
        }

    manifest = _base_manifest(config, "classic", solved=True)
    return Dataset(out_dir, write_dataset(out_dir, emit(), manifest))


def make_ablation_pool(config: GenerationConfig, kind: str) -> BasisPool:
    """Ablation bases: masked raw GRF draws, sine modes, or windowed
    Chebyshev modes, with the pool sizes of the ablation study. The key
    {"ablation": kind} names the pool's kind to `generate_diffoas`."""
    if kind not in ABLATION_POOL_SIZES:
        raise GenerationError(f"unknown ablation basis {kind!r}")
    grid = config.grid
    basis = np.empty((ABLATION_POOL_SIZES[kind], grid.n_nodes, grid.n_nodes))
    for i, out in enumerate(basis):
        if kind == "grf":
            np.multiply(sample_grf(grid, ABLATION_GRF, RngStream(
                config.master_seed, "basis_params", i).generator()),
                boundary_decay_mask(grid), out=out)
        elif kind == "fourier":
            out[...] = fourier_basis_field(grid, i + 1)
        else:
            out[...] = chebyshev_basis_field(grid, i + 1)
    basis.flags.writeable = False
    return BasisPool(grid, basis, key={"ablation": kind})


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


@one_blas_thread()
def verify_dataset(dataset: Dataset, tol: float) -> VerificationReport:
    """Measure ||A u - f|| / ||f|| over the interior nodes of every sample,
    with A u - f recomputed from the stored fields by `stencil_residual`,
    from 2-D neighbor views of u: an independent check of the flat-offset
    `apply_stencil` that computed f (`grid_ops`).

    The dataset is checked SAMPLE_BLOCK samples at a time on worker
    threads as `_thread_count` rules for the blocks (the calling thread
    alone for fewer than MIN_ITEMS blocks or at n <= 43, else one per
    usable CPU), with one BLAS thread, at most two blocks per thread
    ahead (`_run_samples`). Each worker reads its block, CRCs its bytes,
    builds its stencil and applies it once, on the (b, m, m)
    arrays, and takes the norms of f and of the residual per sample as
    one stacked product, each slice the dot product `np.linalg.norm`
    takes; the calling thread folds the CRC-32s in block order
    (`Dataset.blocks`). Each residual is bit-identical to that of the
    sample's CSR matrix alone (module docstring), at any thread count. A
    sample fails when its residual is not within tol, or when its stored u
    is not zero on the boundary: the residual reads the boundary nodes
    next to the interior, and no row reads the corners. A block's
    arithmetic runs with numpy's overflow and invalid warnings off: a NaN
    or infinite residual fails its sample, and a corrupt byte that causes
    one raises DatasetIntegrityError.

    Integrity comes first: a field file whose CRC-32 is not the manifest's
    raises DatasetIntegrityError after the last block. When a block
    raises, every field file is CRCed, and a mismatch raises
    DatasetIntegrityError in place of the block's error, since a corrupt
    byte may be its cause. Otherwise EllipticityError names the block
    whose coefficients are not elliptic."""
    pde_family = family(dataset.manifest.pde)
    grid = dataset.grid
    threads = _thread_count(
        None, math.ceil(dataset.manifest.num_samples / SAMPLE_BLOCK),
        SAMPLE_BLOCK * grid.n_nodes ** 2)

    def check(start: int, block: dict) -> tuple:
        """(residuals, failing sample indices) of the block of samples
        from start."""
        u = block["u"]
        b = len(u)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                stencil = pde_family.stencil(grid, **{
                    name: block[name] for name in pde_family.coefficients})
            except EllipticityError as exc:
                raise EllipticityError(
                    f"samples {start}..{start + b - 1}: {exc}") from exc
            r = stencil_residual(stencil, u, block["f"]).reshape(b, 1, -1)
            f_int = block["f"][:, 1:-1, 1:-1].reshape(b, 1, -1)
            # per sample, sqrt(v . v): the ddot of np.linalg.norm, stacked
            f_norm, r_norm = (np.sqrt(np.matmul(v, v.transpose(0, 2, 1)))
                              .reshape(b) for v in (f_int, r))
            rel = r_norm / np.maximum(f_norm, 1e-300)
        # NaN counts as nonzero
        off_boundary = (u[:, [0, -1], :].any(axis=(1, 2))
                        | u[:, :, [0, -1]].any(axis=(1, 2)))
        failing = ~(rel <= tol) | off_boundary  # a NaN residual fails
        return rel.tolist(), (start + np.flatnonzero(failing)).tolist()

    residuals = []
    failing = []
    for rel, bad in dataset.blocks(
            SAMPLE_BLOCK, check,
            lambda task, items: _run_samples(task, items, threads)):
        residuals += rel
        failing += bad
    residuals = np.asarray(residuals)
    return VerificationReport(
        num_samples=len(residuals),
        max_relative_residual=float(residuals.max()) if residuals.size else 0.0,
        mean_relative_residual=float(residuals.mean()) if residuals.size else 0.0,
        failing_indices=failing,
        tol=tol,
    )
