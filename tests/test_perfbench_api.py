"""Imports the benchmark harness under perfbench/ against this source tree,
so a renamed or reshaped name it uses fails here rather than in a
benchmark run."""

import inspect
import sys
from pathlib import Path

from pdeforge import (BasisPool, FieldSample, Grid2D, PdeCoefficients,
                      RngStream, gmres)
from pdeforge.dataset_io import Dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

USED_NAMES = {
    "pdeforge.generator": ("BasisPool", "draw_coefficients", "draw_forcing",
                           "pool_cache_key", "make_ablation_pool"),
    "pdeforge.dataset_io": ("FIELDS_BY_PDE", "DatasetManifest",
                            "read_dataset", "write_dataset"),
    "pdeforge": ("PdeCoefficients", "apply_operator", "gmres",
                 "combine_solution", "SolveOptions", "RngStream",
                 "FieldSample", "GenerationConfig", "Grid2D",
                 "build_basis_pool", "generate_classic", "generate_diffoas",
                 "verify_dataset"),
}
# members the harness calls on the program's objects
USED_MEMBERS = {
    PdeCoefficients: ("assemble", "field_map"),
    Dataset: ("field_sample",),
    FieldSample: ("from_interior", "interior"),
    RngStream: ("generator",),
}
# GenerationConfig attributes the harness reads besides the constructor's
CONFIG_ATTRIBUTES = ("weight_resample_threshold", "noise_eta", "n_basis",
                     "solver_tol")


def test_benchmark_harness_imports_and_counts(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # keep perfbench/ clean
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import record
        import tracing  # noqa: F401
        import workloads

        for module, names in USED_NAMES.items():
            for name in names:
                assert hasattr(sys.modules[module], name), f"{module}.{name}"
        for cls, names in USED_MEMBERS.items():
            for name in names:
                assert callable(getattr(cls, name, None)), \
                    f"{cls.__name__}.{name}"
        grid = Grid2D(2)
        pool = BasisPool(grid, [FieldSample.constant(grid, 0.0)], key={})
        assert pool.size == 1
        for wl in workloads.WORKLOADS.values():
            counts = record.computed_counts(wl, 1 << 20)
            assert counts["grid_ops.nnz"][0] == 5 * wl.n ** 2 - 4 * wl.n
            configs = [wl.config(0)]
            if wl.classic_samples:
                configs.append(wl.classic_config(0))
            for config in configs:
                for name in CONFIG_ATTRIBUTES:
                    assert isinstance(getattr(config, name), (int, float)), \
                        f"GenerationConfig.{name}"
    finally:
        for name in ("record", "tracing", "workloads"):
            sys.modules.pop(name, None)


def test_gmres_is_unpreconditioned_by_default():
    # the harness replays pool and classic solves as gmres(A, b, opts=...)
    assert inspect.signature(gmres).parameters["precond"].default is None
