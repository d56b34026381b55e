"""Independent correctness oracle: the 5-point residual in extended precision.

It reads `manifest.json` with `json` and the raw `.f64` field files with
numpy, so it shares no code with `pdeforge.dataset_io` or
`pdeforge.grid_ops`. The operator of each family is written out again here
from its definition (zero Dirichlet boundary, face coefficients by
arithmetic mean). Its stencil coefficients are rounded to binary64, as any
binary64 assembly must round them; the products and sums are then taken in
`np.longdouble`. The residual therefore measures what the program promises:
the stored `f` equals the binary64 operator applied to the stored `u` up to
the rounding of that one mat-vec.

`pdeforge.verify_dataset` re-runs the code that generated `f`, so on an
operator-action dataset its residual is exactly 0.0; this check can fail.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CHUNK = 64  # samples per block, keeps the oracle's memory small


def _stencil(pde: str, fields: dict, h2: float) -> tuple:
    """Binary64 coefficients (centre, (north, south, west, east)) of the
    family's operator at the interior nodes of (count, m, m) node arrays."""
    if pde == "helmholtz":
        return -4.0 / h2 + fields["k2"][:, 1:-1, 1:-1], (1.0 / h2,) * 4
    a = fields["a" if pde == "darcy" else "k"]
    ac = a[:, 1:-1, 1:-1]
    faces = [0.5 * (ac + af) for af in
             (a[:, :-2, 1:-1], a[:, 2:, 1:-1], a[:, 1:-1, :-2], a[:, 1:-1, 2:])]
    total = faces[0] + faces[1] + faces[2] + faces[3]
    if pde == "darcy":  # -div(a grad u)
        return total / h2, tuple(-w / h2 for w in faces)
    if pde == "diffusion":  # div(k grad u) + q u
        return (-total / h2 + fields["q"][:, 1:-1, 1:-1],
                tuple(w / h2 for w in faces))
    raise ValueError(f"oracle has no operator for pde {pde!r}")


def relative_residuals(dataset_dir: Path) -> np.ndarray:
    """||A u - f|| / ||f|| on the interior, one value per stored sample."""
    manifest = json.loads((Path(dataset_dir) / "manifest.json").read_text())
    n = manifest["grid_interior"]
    count = manifest["num_samples"]
    m = n + 2
    h2 = (1.0 / (n + 1)) ** 2
    maps = {
        name: np.memmap(Path(dataset_dir) / entry["filename"], dtype="<f8",
                        mode="r", shape=(count, m, m))
        for name, entry in manifest["field_files"].items()
    }
    ext = np.longdouble
    out = np.empty(count)
    for lo in range(0, count, CHUNK):
        block = {name: np.array(mm[lo:lo + CHUNK]) for name, mm in maps.items()}
        centre, sides = _stencil(manifest["pde"], block, h2)
        u = block["u"].astype(ext)
        nbrs = (u[:, :-2, 1:-1], u[:, 2:, 1:-1], u[:, 1:-1, :-2], u[:, 1:-1, 2:])
        Au = np.asarray(centre, dtype=ext) * u[:, 1:-1, 1:-1]
        for coef, nbr in zip(sides, nbrs):
            Au += np.asarray(coef, dtype=ext) * nbr
        f = block["f"][:, 1:-1, 1:-1].astype(ext)
        rn = np.sqrt(np.sum((Au - f) ** 2, axis=(1, 2)))
        fn = np.sqrt(np.sum(f * f, axis=(1, 2)))
        out[lo:lo + CHUNK] = (rn / np.maximum(fn, 1e-300)).astype(np.float64)
    del maps
    return out


def check(dataset_dir: Path, bound: float) -> dict:
    """Every sample's residual against `bound`; failing sample indices."""
    res = relative_residuals(dataset_dir)
    return {
        "samples": int(res.size),
        "bound": bound,
        "max_residual": float(res.max()) if res.size else 0.0,
        "failing": [int(k) for k in np.flatnonzero(~(res <= bound))],
    }
