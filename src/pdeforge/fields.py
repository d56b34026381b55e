"""Random scalar fields: spectral GRFs, uniform fields, ablation bases, masks.

The GRF is synthesized in a cosine basis with Matern-like amplitude decay
controlled by (tau, alpha):

    g(x, y) = sum_{k1,k2=0..K} lam_k xi_k phi_k(x, y),   xi_k ~ N(0,1)
    lam_k   = tau^(alpha-1) * (pi^2 |k|^2 + tau^2)^(-alpha/2)

with K = n_interior + 1, so the mode count matches the node count.

Every draw reads a `np.random.Generator`, such as `RngStream.generator()`
gives: `draw_block` fills (b, m, m) blocks from it, one `draw(grid, gen,
out)` call of each field's distribution, and `sample_grf`, its
one-sample case, returns one (m, m) node array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .grid import Grid2D


class FieldParameterError(ValueError):
    pass


ROLE_CODES = {
    "basis_params": 1,
    "sample_params": 2,
    "weights": 3,
    "noise": 4,
}


@dataclass(frozen=True)
class RngStream:
    """A named, indexed random stream derived from one master seed: an SFC64
    generator seeded by `SeedSequence(master_seed, spawn_key=(role, index))`.

    Distinct (role, index) pairs yield statistically independent generators,
    and the output is a pure function of (master_seed, role, index). Pool,
    classic and ablation draws index a stream per solve or sample;
    operator-action draws index one per block (see `generator`).
    """

    master_seed: int
    role: str
    index: int

    def __post_init__(self):
        if self.role not in ROLE_CODES:
            raise FieldParameterError(f"unknown stream role {self.role!r}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(ROLE_CODES[self.role], self.index),
        )
        return np.random.Generator(np.random.SFC64(ss))


@dataclass(frozen=True)
class GrfParams:
    tau: float
    alpha: float
    scale: float = 1.0
    transform: str = "none"  # "none" | "exp"

    def __post_init__(self):
        if self.tau <= 0:
            raise FieldParameterError(f"tau must be positive, got {self.tau}")
        if self.alpha <= 1:
            raise FieldParameterError(
                f"alpha must exceed 1 for a trace-class 2D covariance, "
                f"got {self.alpha}"
            )
        if self.transform not in ("none", "exp"):
            raise FieldParameterError(f"unknown transform {self.transform!r}")

    def to_dict(self) -> dict:
        return {"tau": self.tau, "alpha": self.alpha, "scale": self.scale,
                "transform": self.transform}

    def draw(self, grid: Grid2D, gen: np.random.Generator,
             out: np.ndarray) -> None:
        """Fill out, a (b, m, m) block, with b draws: one call for all the
        normal draws, in sample order, then two stacked GEMMs, each slice
        one sample's, then scale and transform, each value alone."""
        gen.standard_normal(out=out)
        out *= _spectral_amplitudes(grid.n_interior, self.tau, self.alpha)
        B = _cosine_table(grid.n_interior)
        np.matmul(np.matmul(B.T, out), B, out=out)
        out *= self.scale
        if self.transform == "exp":
            np.exp(out, out=out)


@lru_cache(maxsize=32)
def _cosine_table(n_interior: int) -> np.ndarray:
    """B[k, i] = c_k cos(pi k x_i) on the full node set, k = 0..K."""
    grid = Grid2D(n_interior)
    x = grid.node_coords()
    K = n_interior + 1
    k = np.arange(K + 1)
    B = np.cos(np.pi * np.outer(k, x))
    B[1:] *= np.sqrt(2.0)  # L2([0,1])-orthonormal scaling, c_0 = 1
    return B


@lru_cache(maxsize=64)
def _spectral_amplitudes(n_interior: int, tau: float, alpha: float) -> np.ndarray:
    K = n_interior + 1
    k = np.arange(K + 1)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    return tau ** (alpha - 1.0) * (np.pi ** 2 * k2 + tau ** 2) ** (-alpha / 2.0)


def draw_block(distributions: dict, grid: Grid2D, gen: np.random.Generator,
               b: int) -> dict:
    """Field name -> (b, m, m) node arrays of b samples drawn from gen.

    The fields are drawn in dict order, each field's b samples in one
    `draw(grid, gen, out)` call of its distribution, which fills the
    field's whole block from the stream in sample order (field-major: all
    b samples of the first field, then all b of the next). Every step of a
    draw is elementwise, a per-sample reduction or a stacked product whose
    slices are one sample's products, so sample i gets the bits of a
    one-sample draw from the same stream position. `GrfParams` is such a
    distribution."""
    m = grid.n_nodes
    block = {}
    for name, dist in distributions.items():
        block[name] = np.empty((b, m, m))
        dist.draw(grid, gen, block[name])
    return block


def sample_grf(grid: Grid2D, params: GrfParams,
               gen: np.random.Generator) -> np.ndarray:
    """One spectral GRF draw on the full node set, an (m, m) array: the
    one-sample case of `draw_block`."""
    return draw_block({"g": params}, grid, gen, 1)["g"][0]


def _diagonal_pair(index: int, start: int) -> tuple[int, int]:
    """The index-th pair (k1, k2) with k1, k2 >= start, enumerated by
    ascending k1+k2 then ascending k1; index is 1-based."""
    if index < 1:
        raise FieldParameterError(f"basis index must be >= 1, got {index}")
    remaining = index - 1
    diag = 0  # k1 + k2 = 2*start + diag
    while remaining > diag:
        remaining -= diag + 1
        diag += 1
    k1 = start + remaining
    k2 = start + diag - remaining
    return k1, k2


def fourier_basis_field(grid: Grid2D, index: int) -> np.ndarray:
    """sin(pi k1 x) sin(pi k2 y), an (m, m) array zero on the boundary."""
    k1, k2 = _diagonal_pair(index, start=1)
    x = grid.node_coords()
    v = np.outer(np.sin(np.pi * k1 * x), np.sin(np.pi * k2 * x))
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return v


def chebyshev_basis_field(grid: Grid2D, index: int) -> np.ndarray:
    """T_k1(2x-1) T_k2(2y-1) times `boundary_decay_mask`, an (m, m) array."""
    k1, k2 = _diagonal_pair(index, start=0)
    x = grid.node_coords()
    t = 2.0 * x - 1.0
    tx = npcheb.chebval(t, np.eye(k1 + 1)[k1])
    ty = npcheb.chebval(t, np.eye(k2 + 1)[k2])
    return np.outer(tx, ty) * boundary_decay_mask(grid)


@lru_cache(maxsize=32)
def boundary_decay_mask(grid: Grid2D) -> np.ndarray:
    """Smooth bump sin(pi x) sin(pi y): 1 at the center, exactly 0 on the
    boundary. A cached, read-only (m, m) array."""
    x = grid.node_coords()
    w = np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
    w[0, :] = w[-1, :] = 0.0
    w[:, 0] = w[:, -1] = 0.0
    w.flags.writeable = False
    return w
