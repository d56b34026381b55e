"""Run record, computed kernel counts and the determinism fingerprint store.

Nothing here reads outside the checkout: cache size and filesystem type
come from libc (`sysconf`, `statfs`), the commit from `git` when the
checkout is a repository.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

from pdeforge import Grid2D, RngStream
from pdeforge.dataset_io import FIELDS_BY_PDE
from pdeforge.generator import draw_coefficients

_SC_LEVEL2_CACHE_SIZE = 191  # glibc
FS_MAGIC = {0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
            0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}


def _libc():
    libc = ctypes.CDLL(None, use_errno=True)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    libc.statfs.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
    libc.statfs.restype = ctypes.c_int
    return libc


def l2_bytes() -> int:
    return int(_libc().sysconf(_SC_LEVEL2_CACHE_SIZE))


def fs_type(path: Path) -> str:
    """Filesystem type of path from statfs's f_type, the struct's first
    word on Linux."""
    buf = ctypes.create_string_buffer(512)
    if _libc().statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    magic = ctypes.c_ulong.from_buffer(buf).value & 0xFFFFFFFF
    return FS_MAGIC.get(magic, hex(magic))


def git_commit(root: Path):
    """HEAD of root when root is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files: one value per commit."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def openblas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return str(deps["blas"].get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


def run_record(root: Path, out: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "generation_threads": 1,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_version(),
        "l2_bytes": l2_bytes(),
        # datasets go to the checkout's own filesystem: the benchmark may
        # write nowhere else, so tmpfs is not an option
        "output_dir": out.relative_to(root).as_posix(),
        "output_fs": fs_type(out),
    }


def computed_counts(wl, l2: int) -> dict:
    """Counts from array sizes alone; they repeat exactly between runs.

    SpMV bytes: CSR values, column indices and row pointers (int64), the
    gathered x and the output y, all float64 or int64."""
    grid = Grid2D(wl.n)
    gen = RngStream(0, "sample_params", 0).generator()
    A = draw_coefficients(wl.pde, grid, gen).assemble()
    m = grid.n_nodes
    pool_bytes = wl.config(0).n_basis * m * m * 8
    return {
        "grid_ops.nnz": (A.nnz, "count"),
        "grid_ops.spmv_flops": (2 * A.nnz, "count"),
        "grid_ops.spmv_bytes": (8 * (3 * A.nnz + 2 * A.nrows + 1), "B"),
        "generator.pool_bytes": (pool_bytes, "B"),
        "generator.pool_l2_ratio": (pool_bytes / l2, "1"),
        "dataset_io.bytes_per_sample": (len(FIELDS_BY_PDE[wl.pde]) * m * m * 8,
                                        "B"),
    }


def check_fingerprint(store: Path, key: dict, prints: dict) -> list:
    """Compare with every earlier run of the same workload, seed and
    source; then append this run. Returns the mismatches found."""
    problems = []
    if store.is_file():
        for line in store.read_text().splitlines():
            earlier = json.loads(line)
            if earlier["key"] == key and earlier["crc32"] != prints:
                problems.append(f"field CRC32s differ from an earlier run "
                                f"of the same source and seed: {earlier}")
    with open(store, "a") as fh:
        fh.write(json.dumps({"key": key, "crc32": prints}) + "\n")
    return problems
