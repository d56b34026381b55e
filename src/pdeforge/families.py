"""PDE families: one `PdeFamily` record per family, keyed by tag in `FAMILIES`.

A record is all the program knows about a family: its coefficient fields
and the distribution each is drawn from, the forcing distribution, the
operator's 5-point stencil, the default basis-pool size and the flux
coefficient that scales the pool solves' preconditioner. Generation,
the dataset manifest (field names, `field_params` and the pool's
preconditioner), verification and the CLI's `--pde` choices all read the
record at call time.

The stencil is the one description of the operator, and `grid_ops`
tells how its forms check each other. `PdeCoefficients.operator()` wraps
one sample's stencil as the matrix-free operator the basis and classic
solves take, `apply_block` applies it to (b, m, m) stacks of samples, as
generation does, and `PdeCoefficients.assemble()` writes it as a CSR
matrix, the tests' reference form.
`preconditioner()` gives the pool solves' M^{-1}: a fast Poisson solve
scaled by the flux coefficient, M = s C^{1/2} (-lap_h) C^{1/2}
(Concus & Golub, SIAM J. Numer. Anal. 10, 1973).

Adding a family costs one record. Write a stencil function
`stencil(grid, **coefficient_fields) -> (center, north, south, west,
east)`, each an (n, n) array over the interior nodes or a scalar. It must
also accept (b, m, m) node arrays for the fields and then return (b, n, n)
arrays: index the fields with `...` and keep every step elementwise, as
the stencils in grid_ops do. Give
each coefficient a distribution (anything with
`sample(grid, rng) -> FieldSample` and `to_dict()`, such as `GrfParams`),
and add the record:

    FAMILIES["poisson"] = PdeFamily(
        distributions={"c": Uniform(1.0, 2.0)},
        forcing=GrfParams(tau=3.0, alpha=2.0),
        stencil=lambda grid, c: darcy_stencil(grid, c),
        n_basis=30,
        flux="c",  # optional: None preconditions with the bare Laplacian
    )

A family needs at least one coefficient field: the fields carry the grid.
Coefficients are drawn in dict order, then the forcing, from one stream;
that order is part of the byte contract of every dataset of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import GrfParams, sample_grf, sample_uniform
from .grid import FieldSample, Grid2D
from .grid_ops import (
    DimensionError,
    StencilOperator,
    _check_field,
    _five_point,
    apply_stencil,
    darcy_stencil,
    diffusion_stencil,
    helmholtz_stencil,
    poisson_preconditioner,
)


@dataclass(frozen=True)
class ShiftedGrf:
    """A GRF draw, shifted up when its minimum falls below min_value so
    that the minimum becomes min_value."""

    grf: GrfParams
    min_value: float

    def sample(self, grid: Grid2D, rng) -> FieldSample:
        g = sample_grf(grid, self.grf, rng)
        low = g.values.min()
        if low < self.min_value:
            g = FieldSample(grid, g.values + (self.min_value - low))
        return g

    def to_dict(self) -> dict:
        return {**self.grf.to_dict(), "shift_to_min": self.min_value}


@dataclass(frozen=True)
class Uniform:
    """i.i.d. U[lo, hi) at every node."""

    lo: float
    hi: float

    def sample(self, grid: Grid2D, rng) -> FieldSample:
        return sample_uniform(grid, self.lo, self.hi, rng)

    def to_dict(self) -> dict:
        return {"distribution": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class PdeFamily:
    """What the program knows about one PDE family."""

    # coefficient field name -> distribution, in draw order
    distributions: dict
    forcing: GrfParams
    # (grid, **coefficient fields) -> (center, north, south, west, east)
    stencil: Callable[..., tuple]
    n_basis: int
    # the coefficient field the operator's flux term carries, which scales
    # the pool solves' fast-Poisson preconditioner; None: a bare Laplacian
    flux: Optional[str] = None

    @property
    def preconditioner_name(self) -> str:
        """The pool solves' preconditioner, as the manifest records it."""
        return "poisson" if self.flux is None else f"poisson({self.flux})"

    @property
    def coefficients(self) -> tuple:
        return tuple(self.distributions)

    @property
    def field_names(self) -> tuple:
        """The fields a dataset of this family stores."""
        return self.coefficients + ("f", "u")

    @property
    def field_params(self) -> dict:
        """The manifest's record of every field distribution."""
        params = {name: d.to_dict() for name, d in self.distributions.items()}
        params["f"] = self.forcing.to_dict()
        return params


FAMILIES = {
    "darcy": PdeFamily(
        distributions={"a": GrfParams(tau=7.0, alpha=2.5, transform="exp")},
        forcing=GrfParams(tau=7.0, alpha=2.5),
        stencil=darcy_stencil,
        n_basis=30,
        flux="a",
    ),
    "helmholtz": PdeFamily(
        distributions={"k2": GrfParams(tau=3.0, alpha=2.0, scale=0.1)},
        forcing=GrfParams(tau=3.0, alpha=2.0, scale=0.1),
        stencil=helmholtz_stencil,
        n_basis=50,
    ),
    "diffusion": PdeFamily(
        distributions={
            "k": ShiftedGrf(GrfParams(tau=3.0, alpha=2.0, scale=10.0), 0.1),
            "q": Uniform(0.0, 1.0),
        },
        forcing=GrfParams(tau=3.0, alpha=2.0),
        stencil=diffusion_stencil,
        n_basis=50,
        flux="k",
    ),
}


def family(pde: str) -> PdeFamily:
    """The registered family of a pde tag; ValueError for an unknown tag."""
    if pde not in FAMILIES:
        raise ValueError(f"unknown pde tag {pde!r}")
    return FAMILIES[pde]


class PdeCoefficients:
    """Coefficient fields of one PDE family, sharing one grid."""

    def __init__(self, pde: str, **fields: FieldSample):
        names = family(pde).coefficients
        if set(fields) != set(names):
            raise DimensionError(
                f"{pde} requires {names}, got {tuple(fields)}")
        grids = {f.grid for f in fields.values()}
        if len(grids) != 1:
            raise DimensionError("coefficient fields must share one grid")
        self.pde = pde
        self.grid = grids.pop()
        self.fields = {name: fields[name] for name in names}
        self._stencil: Optional[tuple] = None

    def field_map(self) -> dict:
        return dict(self.fields)

    def stencil(self) -> tuple:
        """(center, north, south, west, east) of the family's operator,
        built on the first call and shared by `operator`, `assemble` and
        `preconditioner`, so a pool solve builds it once."""
        if self._stencil is None:
            self._stencil = family(self.pde).stencil(self.grid, **self.fields)
        return self._stencil

    def operator(self) -> StencilOperator:
        """The operator over the interior unknowns, matrix-free, as the
        GMRES solves take it."""
        return StencilOperator(self.grid, self.stencil())

    def assemble(self):
        """The operator as a `CsrMatrix` over the interior unknowns: the
        reference form that the tests and the perf harness compare with
        (imports scipy.sparse); no command builds it."""
        return _five_point(self.grid, *self.stencil())

    def preconditioner(self) -> Callable[[np.ndarray], np.ndarray]:
        """M^{-1} for M = s C^{1/2} (-lap_h) C^{1/2}: C is the family's
        flux coefficient at the interior nodes (none for a bare
        Laplacian), s the sign of the stencil's center. For a constant
        flux coefficient and no other term, M is the operator itself."""
        flux = family(self.pde).flux
        sign = 1.0 if np.sum(self.stencil()[0]) > 0 else -1.0
        coef = None if flux is None else self.fields[flux].interior()
        return poisson_preconditioner(self.grid, sign, coef)


def apply_block(pde: str, grid: Grid2D, fields: dict,
                u: np.ndarray) -> np.ndarray:
    """f = A u matrix-free for a block of samples, with zero boundary:
    fields maps each coefficient name of the family to (b, m, m) node
    arrays, and u holds b samples' (m, m) node arrays on grid, which must
    vanish on the boundary. Every step is elementwise, so sample i of f
    is bit-identical to the same call on sample i alone."""
    u = _check_field(grid, u, "u")
    if (u[..., 0, :].any() or u[..., -1, :].any() or u[..., 0].any()
            or u[..., -1].any()):
        raise ValueError("u must vanish on the boundary")
    f = np.zeros(u.shape)
    apply_stencil(family(pde).stencil(grid, **fields), u,
                  out=f[..., 1:-1, 1:-1])
    return f
