"""Command-line front end: generate, verify, bench, inspect.

Exit codes, with the prefix of the one stderr line that names the error:

    0   success
    1   verification or lookup failure   "failed: "
    2   generation error                 "generation error: "
    3   I/O, integrity or format error   "I/O or integrity error: "
    64  usage error                      "pdeforge: error: ", or
                                         "pdeforge <command>: error: "

A flag's value is checked where argparse reads it, so its usage error
names the flag as typed; the checks that read more than one flag call
their subcommand parser's `error` (`args.error`), the same path. `main`
maps the library's errors to 1-3; a verify report that does not pass
exits 1 with no stderr line.
`generate`, and `bench` when it flags records, also write one JSON
telemetry line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .bench import (
    BenchConfigError,
    emit_report,
    fit_speedup_regression,
    run_timing_suite,
)
from .dataset_io import DatasetFormatError, DatasetIntegrityError, read_dataset
from .families import FAMILIES
from .generator import (
    GenerationConfig,
    GenerationError,
    generate_classic,
    generate_diffoas,
    make_ablation_pool,
    verify_dataset,
)
from .grid import Grid2D
from .grid_ops import EllipticityError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_GENERATION = 2
EXIT_IO = 3
EXIT_USAGE = 64
# the stderr prefix of each exit code but usage
PREFIXES = {EXIT_FAIL: "failed", EXIT_GENERATION: "generation error",
            EXIT_IO: "I/O or integrity error"}

METHODS = ("diffoas", "classic", "ablation-grf", "ablation-fourier",
           "ablation-chebyshev")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _telemetry(**kwargs):
    print(json.dumps(kwargs), file=sys.stderr)


def _print_report(report: dict) -> None:
    """Print a command's report to stdout as strict JSON. A reader that
    closes the pipe first (`| head -1`) ends the output, not the command:
    stdout then points at os.devnull, so that the flush at exit cannot
    raise again, and the command keeps its exit code."""
    try:
        print(json.dumps(report, indent=2, allow_nan=False), flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _checked(convert, rule: str, check):
    """An argparse type: convert(text), rejected unless check(value), so
    that the usage error names the flag that was typed and its rule."""
    def parse(text: str):
        value = convert(text)
        if not check(value):  # written so that NaN fails every check
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


def _list_of(parse_one):
    """An argparse type: comma-separated values, each parse_one, at least
    one."""
    def parse(text: str) -> list:
        values = [parse_one(item) for item in text.split(",") if item]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    parse.__name__ = "comma-separated"
    return parse


COUNT = _checked(int, ">= 1", lambda v: v >= 1)
SEED = _checked(int, ">= 0", lambda v: v >= 0)
POSITIVE = _checked(float, "> 0 and finite", lambda v: 0 < v < math.inf)
NON_NEGATIVE = _checked(float, ">= 0 and finite",
                        lambda v: 0 <= v < math.inf)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pdeforge",
                     description="PDE training-data generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a dataset")
    g.add_argument("--method", choices=METHODS, default="diffoas",
                   help="generation pipeline (default: diffoas)")
    g.add_argument("--pde", choices=tuple(FAMILIES), default="darcy",
                   help="PDE family (default: darcy)")
    g.add_argument("--grid", type=COUNT, default=50, metavar="N_INTERIOR",
                   help="interior grid size per axis (default: 50)")
    g.add_argument("--samples", type=COUNT, default=100,
                   help="number of samples (default: 100)")
    g.add_argument("--basis", type=COUNT, default=None,
                   help="diffoas basis pool size (default: per-PDE)")
    g.add_argument("--tol", type=POSITIVE, default=None,
                   help="solver tolerance, not for ablation (default: 1e-5)")
    g.add_argument("--eta", type=NON_NEGATIVE, default=None,
                   help="noise amplitude, not for classic (default: 0.01)")
    g.add_argument("--seed", type=SEED, default=0,
                   help="master seed (default: 0)")
    g.add_argument("--out", required=True, help="output dataset directory")
    g.add_argument("--threads", type=COUNT, default=None,
                   help="threads for the pool solves and the sample blocks "
                        "(default: by the thread rule that "
                        "pdeforge.generator._thread_count states)")
    g.set_defaults(error=g.error)

    v = sub.add_parser("verify", help="re-check dataset residuals")
    v.add_argument("--data", required=True, help="dataset directory")
    v.add_argument("--tol", type=POSITIVE, default=1e-12,
                   help="pass/fail relative-residual tolerance "
                        "(default: 1e-12)")

    b = sub.add_parser("bench", help="timing suite and speedup regression")
    b.add_argument("--pde", choices=tuple(FAMILIES), default="darcy",
                   help="PDE family (default: darcy)")
    b.add_argument("--dims", default="2500,10000", type=_list_of(_checked(
                       int, "a perfect square >= 1",
                       lambda v: v >= 1 and math.isqrt(v) ** 2 == v)),
                   help="comma-separated matrix dims, each a perfect square "
                        "(default: 2500,10000)")
    b.add_argument("--tols", default="1e-1,1e-3,1e-5",
                   type=_list_of(POSITIVE),
                   help="comma-separated GMRES tolerances; the speedup "
                        "regression uses the last (default: 1e-1,1e-3,1e-5)")
    b.add_argument("--samples", type=COUNT, default=10,
                   help="samples per timing point (default: 10)")
    b.add_argument("--repeats", type=_checked(int, ">= 3", lambda v: v >= 3),
                   default=3,
                   help="timing repeats, median reported (default: 3)")
    b.add_argument("--basis", type=COUNT, default=None,
                   help="basis pool size (default: per-PDE)")
    b.add_argument("--seed", type=SEED, default=0,
                   help="master seed (default: 0)")
    b.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format (default: csv)")
    b.add_argument("--out", required=True, help="report output file")
    b.set_defaults(error=b.error)

    i = sub.add_parser("inspect", help="print the manifest and sample fields")
    i.add_argument("--data", required=True, help="dataset directory")
    i.add_argument("--sample", type=int, default=None,
                   help="sample index (default: none; 0 for --stats)")
    i.add_argument("--field", default=None,
                   help="field name to inspect (default: none)")
    i.add_argument("--stats", action="store_true",
                   help="print min, max, mean and boundary max |value| of "
                        "each field of one sample (--sample)")
    return parser


def _json_number(value: float):
    """value, or None for NaN and infinities: the commands print strict
    JSON, in which those are written as null."""
    return value if math.isfinite(value) else None


def _field_stats(fs) -> dict:
    return {key: _json_number(value) for key, value in (
        ("min", float(fs.values.min())),
        ("max", float(fs.values.max())),
        ("mean", float(fs.values.mean())),
        ("boundary_max_abs", fs.boundary_max_abs()))}


def cmd_generate(args) -> int:
    # each flag that the method does not use is a usage error
    for flag, value, unused in (
            ("--basis", args.basis, args.method != "diffoas"),
            ("--tol", args.tol, args.method.startswith("ablation-")),
            ("--eta", args.eta, args.method == "classic")):
        if value is not None and unused:
            args.error(f"{flag} does not apply to --method {args.method}")
    config = GenerationConfig(
        pde=args.pde, grid=Grid2D(args.grid), num_samples=args.samples,
        method="classic" if args.method == "classic" else "diffoas",
        n_basis=args.basis, master_seed=args.seed, **{
            key: value for key, value in (("solver_tol", args.tol),
                                          ("noise_eta", args.eta))
            if value is not None})
    if args.method == "classic":
        dataset = generate_classic(config, Path(args.out), args.threads or 1)
    else:
        pool = None if args.method == "diffoas" else make_ablation_pool(
            config, args.method.removeprefix("ablation-"))
        dataset = generate_diffoas(config, Path(args.out), args.threads, pool)
    generation = dataset.manifest.generation
    pool = generation.get("pool", {})  # classic runs have no pool
    _telemetry(event="generate-done", out=str(args.out),
               samples=dataset.manifest.num_samples,
               skipped=len(dataset.manifest.skipped_samples),
               pool_cache=pool.get("cache"),
               pool_iterations=sum(solve["iterations"]
                                   for solve in pool.get("solves", [])),
               **generation.get("timings", {}))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_dataset(read_dataset(args.data), args.tol)
    _print_report({
        "samples": report.num_samples,
        "max_relative_residual": _json_number(report.max_relative_residual),
        "mean_relative_residual": _json_number(
            report.mean_relative_residual),
        "tol": report.tol,
        "failing_indices": report.failing_indices[:32],
        "passed": report.passed,
    })
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_bench(args) -> int:
    try:
        records = run_timing_suite(
            args.pde, args.dims, args.tols, args.samples, args.repeats,
            master_seed=args.seed, n_basis=args.basis,
        )
        # with fewer than 3 dims there is no regression: records only
        regression = fit_speedup_regression(
            records, args.tols[-1]) if len(set(args.dims)) >= 3 else None
        text = emit_report(records, regression, args.format, pde=args.pde)
    except BenchConfigError as exc:
        args.error(str(exc))
    Path(args.out).write_text(text)
    flagged = [r for r in records if r.method != "diffoas_total" and r.flags]
    if flagged:
        _telemetry(event="bench-warnings",
                   flagged=[(r.method, r.matrix_dim, r.flags)
                            for r in flagged])
    return EXIT_OK


def cmd_inspect(args) -> int:
    dataset = read_dataset(args.data)
    manifest = dataset.manifest
    out = {
        "pde": manifest.pde,
        "method": manifest.method,
        "grid_interior": manifest.grid_interior,
        "num_samples": manifest.num_samples,
        "fields": list(manifest.field_names),
        "skipped_samples": manifest.skipped_samples,
    }
    k = args.sample if args.sample is not None else 0
    try:  # a sample or field the dataset does not hold
        if args.stats:
            names = [args.field] if args.field else list(manifest.field_names)
            out["stats"] = {name: _field_stats(dataset.field_sample(name, k))
                            for name in names}
        elif args.sample is not None or args.field:
            name = args.field or "u"
            fs = dataset.field_sample(name, k)
            out["sample"] = {"index": k, "field": name,
                             "num_values": int(fs.values.size),
                             **_field_stats(fs)}
    except DatasetFormatError as exc:
        return _fail(EXIT_FAIL, exc)
    _print_report(out)
    return EXIT_OK


def _fail(code: int, exc: Exception) -> int:
    print(f"{PREFIXES[code]}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"generate": cmd_generate, "verify": cmd_verify,
               "bench": cmd_bench, "inspect": cmd_inspect}[args.command]
    try:
        return handler(args)
    except GenerationError as exc:
        return _fail(EXIT_GENERATION, exc)
    except EllipticityError as exc:
        return _fail(EXIT_FAIL, exc)
    except (DatasetIntegrityError, DatasetFormatError, OSError) as exc:
        return _fail(EXIT_IO, exc)


if __name__ == "__main__":
    sys.exit(main())
