"""PDE families: one `PdeFamily` record per family, keyed by tag in `FAMILIES`.

A record is all the program knows about a family: its coefficient fields
and the distribution each is drawn from, the forcing distribution, the
assembler and the default basis-pool size. Generation, the dataset
manifest (field names and `field_params`), the pool cache key,
verification and the CLI's `--pde` choices all read the record at call
time.

Adding a family costs one record. Write an assembler
`assemble(grid, **coefficient_fields) -> CsrMatrix` (`grid_ops._five_point`
writes the CSR from five stencil arrays), give each coefficient a
distribution (anything with `sample(grid, rng) -> FieldSample` and
`to_dict()`, such as `GrfParams`), and add the record:

    FAMILIES["poisson"] = PdeFamily(
        distributions={"c": Uniform(1.0, 2.0)},
        forcing=GrfParams(tau=3.0, alpha=2.0),
        assemble=lambda grid, c: assemble_darcy(grid, c),
        n_basis=30,
    )

A family needs at least one coefficient field: the fields carry the grid.
Coefficients are drawn in dict order, then the forcing, from one stream;
that order is part of the byte contract of every dataset of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .fields import GrfParams, sample_grf, sample_uniform
from .grid import FieldSample, Grid2D
from .grid_ops import (
    CsrMatrix,
    DimensionError,
    assemble_darcy,
    assemble_diffusion_reaction,
    assemble_helmholtz,
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
    assemble: Callable[..., CsrMatrix]
    n_basis: int

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
        assemble=assemble_darcy,
        n_basis=30,
    ),
    "helmholtz": PdeFamily(
        distributions={"k2": GrfParams(tau=3.0, alpha=2.0, scale=0.1)},
        forcing=GrfParams(tau=3.0, alpha=2.0, scale=0.1),
        assemble=assemble_helmholtz,
        n_basis=50,
    ),
    "diffusion": PdeFamily(
        distributions={
            "k": ShiftedGrf(GrfParams(tau=3.0, alpha=2.0, scale=10.0), 0.1),
            "q": Uniform(0.0, 1.0),
        },
        forcing=GrfParams(tau=3.0, alpha=2.0),
        assemble=assemble_diffusion_reaction,
        n_basis=50,
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

    def field_map(self) -> dict:
        return dict(self.fields)

    def assemble(self) -> CsrMatrix:
        return family(self.pde).assemble(self.grid, **self.fields)
