"""PDE training-data generation toolkit.

Two pipelines over 2D zero-Dirichlet finite-difference problems (Darcy,
Helmholtz, diffusion-reaction): the classic draw-and-solve path, and an
operator-action path that combines pre-solved basis solutions and computes
forcings by one matrix-free application of the 5-point stencil, giving
machine-precision data at a fraction of the solve cost. Includes dataset
IO with integrity checks and a benchmark harness for the speedup analysis.
"""

from .families import FAMILIES, PdeCoefficients, PdeFamily
from .fields import (
    GrfParams,
    RngStream,
    boundary_decay_mask,
    chebyshev_basis_field,
    fourier_basis_field,
    sample_grf,
)
from .generator import (
    BasisPool,
    GenerationConfig,
    build_basis_pool,
    combine_solution,
    generate_classic,
    generate_diffoas,
    verify_dataset,
)
from .grid import FieldSample, Grid2D
from .grid_ops import apply_operator
from .solvers import SolveOptions, SolveReport, gmres

__version__ = "0.1.0"
