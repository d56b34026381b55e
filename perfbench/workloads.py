"""Workload definitions and the untraced program phases they time.

Every workload runs in one process as a closed loop with one generation
thread (the CLI default) and one BLAS thread, so threads x BLAS threads
stays within the two CPUs of a small box. The program only ever sees the
generated inputs: a `GenerationConfig` whose `master_seed` is the
benchmark's `--seed`.
"""

from __future__ import annotations

import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pdeforge import (
    GenerationConfig,
    Grid2D,
    build_basis_pool,
    generate_classic,
    generate_diffoas,
    verify_dataset,
)
from pdeforge.dataset_io import read_dataset
from pdeforge.generator import make_ablation_pool

DIFFOAS_BOUND = 1e-13  # criterion 02's bound on operator-action residuals
SETUP_REPEATS = 3
WARMUP_SAMPLES = 4
VERIFY_SECONDS = 1.0  # a verify burst repeats read + verify this long


@dataclass(frozen=True)
class Workload:
    name: str
    pde: str
    n: int
    samples: int  # generate_diffoas samples per round
    classic_samples: int  # generate_classic samples; 0: no classic phase
    # "solved": build_basis_pool in setup; "cold": generate_diffoas builds
    # it inside the timed call
    pool: str

    def config(self, seed: int) -> GenerationConfig:
        return GenerationConfig(self.pde, Grid2D(self.n), self.samples,
                                master_seed=seed)

    def classic_config(self, seed: int) -> GenerationConfig:
        return GenerationConfig(self.pde, Grid2D(self.n),
                                self.classic_samples, method="classic",
                                master_seed=seed)


# Why each workload: see BENCHMARK.json. Samples per round are sized so a
# run of 30 s holds about fifteen rounds of action-darcy64.
WORKLOADS = {w.name: w for w in (
    Workload("action-darcy64", "darcy", 64, 500, 0, "solved"),
    Workload("krylov-helmholtz64", "helmholtz", 64, 100, 20, "cold"),
)}


def setup_pool(wl: Workload, cfg: GenerationConfig):
    """The pool the timed generate uses; None when the generate builds it."""
    return build_basis_pool(cfg) if wl.pool == "solved" else None


def warm_up(wl: Workload, cfg: GenerationConfig, pool, out: Path) -> None:
    """First calls of the generate and verify paths on a few samples."""
    if pool is None:
        pool = make_ablation_pool(cfg, "fourier")
    small = GenerationConfig(cfg.pde, cfg.grid, WARMUP_SAMPLES,
                             master_seed=cfg.master_seed)
    generate_diffoas(small, out, pool=pool)
    verify_dataset(read_dataset(out), DIFFOAS_BOUND)


def median(values) -> float:
    """Median of a phase's timings; 0.0 when a raising call, or a workload
    without the phase, left none."""
    return statistics.median(values) if values else 0.0


def fastest(values) -> float:
    """Fastest of a phase's timings, 0.0 as for median. Other tenants of a
    shared host slow the CPU by 1.3-1.8x for seconds to minutes at a time;
    the fastest repeat is the one they disturbed least."""
    return min(values) if values else 0.0


def read_and_verify(out: Path, tol: float):
    return verify_dataset(read_dataset(out), tol)


def fingerprint(dataset) -> dict:
    """Manifest CRC32 of every field of a dataset."""
    return {name: entry["crc32"]
            for name, entry in sorted(dataset.manifest.field_files.items())}


class Calls:
    """Times program calls. A call that raises is a counted failure: its
    traceback goes to stderr and the run carries on without its result."""

    def __init__(self):
        self.errors = []

    def timed(self, label: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.errors.append(label)
            result = None
        return result, time.perf_counter() - t0

    def verified(self, label: str, out: Path, tol: float):
        """read + verify of one dataset, repeated until VERIFY_SECONDS have
        passed; returns the last report and the seconds of every repeat
        that did not raise."""
        times = []
        while sum(times) < VERIFY_SECONDS:
            report, seconds = self.timed(label, read_and_verify, out, tol)
            if report is None:
                break
            times.append(seconds)
        return report, times


def generate_round(wl: Workload, cfg: GenerationConfig, pool, out: Path,
                   calls: Calls) -> dict:
    """One timed generate_diffoas call, then read + verify of its output
    (verify_s: the seconds of each verify repeat)."""
    if wl.pool == "cold":
        shutil.rmtree(out, ignore_errors=True)  # no pool cache: a cold call
    ds, generate_s = calls.timed("generate_diffoas", generate_diffoas, cfg,
                                 out, pool=pool)
    report, verify_s = (None, []) if ds is None else calls.verified(
        "verify diffoas", out, DIFFOAS_BOUND)
    return {"dataset": ds, "reports": [report],
            "generate_s": generate_s, "verify_s": verify_s}


def classic_round(ccfg: GenerationConfig, out: Path, calls: Calls) -> dict:
    """One timed generate_classic call, then read + verify at solver tol
    (verify_s: the seconds of each verify repeat)."""
    ds, classic_s = calls.timed("generate_classic", generate_classic, ccfg,
                                out)
    report, verify_s = (None, []) if ds is None else calls.verified(
        "verify classic", out, ccfg.solver_tol)
    return {"dataset": ds, "reports": [report],
            "classic_s": classic_s, "verify_s": verify_s}


def verify_again(rnd: dict, out: Path, tol: float, calls: Calls) -> None:
    """Another read + verify burst of a round's dataset, later in the run:
    its repeats join the round's, and its report is checked like the
    first."""
    if rnd["dataset"] is None:
        return
    report, verify_s = calls.verified(f"verify {out.name}", out, tol)
    rnd["reports"].append(report)
    rnd["verify_s"] += verify_s
