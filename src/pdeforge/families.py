"""PDE families: one `PdeFamily` record per family, keyed by tag in `FAMILIES`.

A record is all the program knows about a family: its coefficient fields
and the distribution each is drawn from, the forcing distribution, the
operator and the default basis-pool size. Every family's operator has the
form sign * div(c grad u) + r * u, and the record states it: `sign` is
+1 or -1, `flux` names the coefficient field that is c (None: c = 1), and
every other coefficient field is a reaction term r, added at the interior
nodes in dict order. Generation, the dataset manifest (field names,
`field_params`, the operator and the pool's preconditioner),
verification and the CLI's `--pde` choices all read the record at call
time.

`PdeFamily.stencil` builds the operator's 5-point stencil from the
record, one sample's or a (b, m, m) block's, and `grid_ops` tells how its
forms check each other. `grid_ops.StencilOperator` wraps it as the
matrix-free operator the basis and classic solves take, generation
applies it to (b, m, m) stacks of samples with `grid_ops.apply_stencil`,
and `PdeCoefficients.assemble()` writes one sample's as a CSR matrix, the
tests' reference form. `PdeFamily.preconditioner` gives the pool solves'
M^{-1}, likewise for one sample or a block: a fast Poisson solve scaled
by the flux coefficient, M = -sign C^{1/2} (-lap_h) C^{1/2} (Concus &
Golub, SIAM J. Numer. Anal. 10, 1973).

Adding a family costs one record. Give each coefficient a distribution
(anything with `draw(grid, gen, out)`, which fills a (b, m, m) block of
b samples from gen, a `np.random.Generator`, in sample order, and
`to_dict()`, such as `GrfParams`: `fields.draw_block` tells how they are
called), and add the record:

    FAMILIES["poisson"] = PdeFamily(
        distributions={"c": Uniform(1.0, 2.0)},
        forcing=GrfParams(tau=3.0, alpha=2.0),
        sign=-1.0,  # -div(c grad u) = f
        n_basis=30,
        flux="c",  # None: sign * lap(u)
    )

A family needs at least one coefficient field: the fields carry the grid.
Coefficients are drawn from one stream field by field in dict order,
all samples of a block of one field before the next, then the forcing;
that order is part of the byte contract of every dataset of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import FieldParameterError, GrfParams
from .grid import FieldSample, Grid2D
from .grid_ops import (
    DimensionError,
    EllipticityError,
    PoissonPreconditioner,
    _check_field,
    _five_point,
    _flux_form,
)


@dataclass(frozen=True)
class ShiftedGrf:
    """A GRF draw, shifted up when its minimum falls below min_value so
    that the minimum becomes min_value."""

    grf: GrfParams
    min_value: float

    def __post_init__(self):
        if not np.isfinite(self.min_value):  # a NaN would shift nothing
            raise FieldParameterError(
                f"min_value must be finite, got {self.min_value}")

    def draw(self, grid: Grid2D, gen, out: np.ndarray) -> None:
        """The GRF's draw into the (b, m, m) out, then each (m, m) draw
        shifted alone."""
        self.grf.draw(grid, gen, out)
        low = out.min(axis=(-2, -1))
        for i in np.flatnonzero(low < self.min_value):
            out[i] += self.min_value - low[i]

    def to_dict(self) -> dict:
        return {**self.grf.to_dict(), "shift_to_min": self.min_value}


@dataclass(frozen=True)
class Uniform:
    """i.i.d. U[lo, hi) at every node."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise FieldParameterError(
                f"need lo < hi, got [{self.lo}, {self.hi})")

    def draw(self, grid: Grid2D, gen, out: np.ndarray) -> None:
        out[...] = gen.uniform(self.lo, self.hi, size=out.shape)

    def to_dict(self) -> dict:
        return {"distribution": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class PdeFamily:
    """What the program knows about one PDE family, whose operator is
    sign * div(c grad u) + r * u (module docstring)."""

    # coefficient field name -> distribution, in draw order
    distributions: dict
    forcing: GrfParams
    sign: float  # +1.0 or -1.0
    n_basis: int
    # the coefficient field c of the flux term, which also scales the pool
    # solves' fast-Poisson preconditioner; None: c = 1
    flux: Optional[str] = None

    def stencil(self, grid: Grid2D, **fields) -> tuple:
        """(center, north, south, west, east) of the operator, each a
        row-padded (..., n, m) array over the interior rows (`grid_ops`)
        or a scalar. fields maps each coefficient name to (..., m, m) node
        arrays on grid, one sample's or a block's (bit rules: `grid_ops`);
        other names are ignored. EllipticityError unless the flux
        coefficient is positive everywhere (`_flux_values`)."""
        c = self._flux_values(grid, fields)
        if c is None:
            h2 = grid.h ** 2
            stencil = [4.0 / (-self.sign * h2)] + [1.0 / (self.sign * h2)] * 4
        else:
            stencil = list(_flux_form(grid, c, self.sign))
        for name in self.coefficients:  # the reaction terms
            if name != self.flux:
                r = _check_field(grid, fields[name], name)
                stencil[0] = stencil[0] + r[..., 1:-1, :]
        return tuple(stencil)

    def preconditioner(self, grid: Grid2D, **fields) -> PoissonPreconditioner:
        """M^{-1} for M = -sign C^{1/2} (-lap_h) C^{1/2}: C is the flux
        coefficient at the interior nodes (none for c = 1), from fields as
        `stencil` takes them, so a (b, m, m) block gives the block's
        preconditioner (bit rule: `solvers` module docstring), with the
        same EllipticityError. For a constant flux coefficient and no
        reaction term, M is the operator itself."""
        c = self._flux_values(grid, fields)
        return PoissonPreconditioner(
            grid, -self.sign, None if c is None else c[..., 1:-1, 1:-1])

    def _flux_values(self, grid: Grid2D, fields: dict):
        """The flux coefficient's node arrays from fields (None: c = 1);
        EllipticityError unless it is positive everywhere (NaN is not)."""
        if self.flux is None:
            return None
        c = _check_field(grid, fields[self.flux], self.flux)
        if not c.min() > 0.0:  # NaN fails it
            raise EllipticityError(f"flux coefficient {self.flux} must be "
                                   f"positive everywhere, min={c.min():g}")
        return c

    @property
    def operator_name(self) -> str:
        """The operator as the manifest records it, such as
        "-div(a grad u)" or "lap(u) + k2 u"."""
        term = "lap(u)" if self.flux is None else f"div({self.flux} grad u)"
        reactions = [f" + {name} u" for name in self.coefficients
                     if name != self.flux]
        return ("-" if self.sign < 0 else "") + term + "".join(reactions)

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
        sign=-1.0,
        n_basis=30,
        flux="a",
    ),
    "helmholtz": PdeFamily(
        distributions={"k2": GrfParams(tau=3.0, alpha=2.0, scale=0.1)},
        forcing=GrfParams(tau=3.0, alpha=2.0, scale=0.1),
        sign=1.0,
        n_basis=50,
    ),
    "diffusion": PdeFamily(
        distributions={
            "k": ShiftedGrf(GrfParams(tau=3.0, alpha=2.0, scale=10.0), 0.1),
            "q": Uniform(0.0, 1.0),
        },
        forcing=GrfParams(tau=3.0, alpha=2.0),
        sign=1.0,
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

    def field_map(self) -> dict:
        return dict(self.fields)

    def assemble(self):
        """The operator as a `CsrMatrix` over the interior unknowns: the
        reference form that the tests and the perf harness compare with
        (imports scipy.sparse); no command builds it."""
        return _five_point(self.grid, *family(self.pde).stencil(
            self.grid, **self.fields))
