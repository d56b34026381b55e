"""pdeforge benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload action-darcy64 --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
`--trace 0` runs the program untraced and prints the end-to-end metrics;
`--trace 1` also runs a traced replica of the same calls and prints the
per-layer metrics instead (see tracing.py). Both check every output with
the independent oracle (oracle.py) and compare field CRC32s with every
earlier run of the same source and seed. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it holds the run record, computed counts and per-round values, which are
also appended to `.perfbench_out/runs.jsonl`.

Seeds: 0 is the default seed; 7 is held out, for rechecking a claim on a
seed that was not used while writing it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED}; seed "
                        f"{HELD_OUT_SEED} is held out for rechecking claims)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import the program from the checkout's src/; returns the seconds it
    took, or raises ImportError when src/ does not hold it."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy, scipy and pdeforge)
    import_s = time.perf_counter() - t0
    import pdeforge
    origin = Path(pdeforge.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"pdeforge imported from {origin}, not {ROOT / 'src'}")
    return import_s


def check_outputs(wl, seed, gen_rounds, classic_rounds, data: Path) -> dict:
    """Oracle + verify_dataset + skipped samples + calls that raised, and
    the determinism fingerprint. Runs outside every timed phase."""
    import oracle
    from workloads import DIFFOAS_BOUND, fingerprint

    failed, problems, prints, verdicts = 0, [], {}, {}
    for label, rounds, out, tol, samples in (
            ("diffoas", gen_rounds, data / "diffoas", DIFFOAS_BOUND,
             wl.samples),
            ("classic", classic_rounds, data / "classic",
             wl.classic_config(seed).solver_tol if wl.classic_samples
             else None, wl.classic_samples)):
        round_prints = [fingerprint(r["dataset"]) for r in rounds
                        if r["dataset"] is not None]
        if any(p != round_prints[0] for p in round_prints):
            problems.append(f"{label} field CRC32s differ between rounds "
                            "of one run")
        if round_prints:
            prints[label] = round_prints[0]
            # every round wrote these same bytes (same CRCs), so one oracle
            # pass over the last round's files checks them all
            verdicts[label] = oracle.check(out, tol)
        for r in rounds:
            if None in r["reports"]:
                failed += samples
                continue
            if label == "classic":
                failed += len(r["dataset"].manifest.skipped_samples)
            failing = set(verdicts[label]["failing"])
            for report in r["reports"]:
                failing |= set(report.failing_indices)
            failed += len(failing)
    return {
        "attempted": (len(gen_rounds) * wl.samples
                      + len(classic_rounds) * wl.classic_samples),
        "failed": failed,
        "problems": problems,
        "fingerprint": prints,
        "oracle": verdicts,
    }


def untraced_run(wl, seed: int, seconds: float, data: Path,
                 import_s: float) -> tuple:
    from workloads import (DIFFOAS_BOUND, SETUP_REPEATS, Calls,
                           classic_round, fastest, generate_round, median,
                           setup_pool, verify_again, warm_up)

    cfg = wl.config(seed)
    calls = Calls()
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = setup_pool(wl, cfg)
        warm_up(wl, cfg, pool, data / "warmup")
        setup.append(time.perf_counter() - t0)

    # closed loop of cycles: generate + verify, and on a workload with a
    # classic phase then classic + verify + verify of the generate's output
    # again, so the short verifies are spread over the long solves. A cycle
    # starts while it is due to end no later than half a cycle past
    # --seconds; what is left of --seconds goes to more verifies. Timings
    # are the fastest repeat (see workloads.fastest), so repeats spread
    # over the whole run are the likelier to catch an undisturbed spell.
    rounds, classics, cycle = [], [], 0.0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 + cycle / 2 < seconds:
        c0 = time.perf_counter()
        rounds.append(generate_round(wl, cfg, pool, data / "diffoas", calls))
        if wl.classic_samples:
            classics.append(classic_round(wl.classic_config(seed),
                                          data / "classic", calls))
            verify_again(rounds[-1], data / "diffoas", DIFFOAS_BOUND, calls)
        cycle = time.perf_counter() - c0
    while (None not in rounds[-1]["reports"]
           and time.perf_counter() - t0 < seconds):
        verify_again(rounds[-1], data / "diffoas", DIFFOAS_BOUND, calls)
        if classics:
            verify_again(classics[-1], data / "classic",
                         wl.classic_config(seed).solver_tol, calls)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = check_outputs(wl, seed, rounds, classics, data)
    verify_s = [t for r in rounds for t in r["verify_s"]]
    classic_verify_s = [t for r in classics for t in r["verify_s"]]
    metrics = {
        "setup_s": (import_s + median(setup), "s"),
        "generate_s": (fastest([r["generate_s"] for r in rounds
                                if r["dataset"] is not None]), "s"),
        "verify_s": (fastest(verify_s) + fastest(classic_verify_s), "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    detail = {
        "import_s": import_s,
        "setup_repeats_s": setup,
        "rounds": len(rounds),
        "generate_rounds_s": [r["generate_s"] for r in rounds],
        "verify_repeats_s": verify_s,
        "classic_rounds_s": [r["classic_s"] for r in classics],
        "classic_verify_repeats_s": classic_verify_s,
        "errors": calls.errors,
    }
    return metrics, checks, detail


def traced_run(wl, seed: int, data: Path, spans_path: Path) -> tuple:
    import tracing
    from workloads import (DIFFOAS_BOUND, Calls, classic_round, generate_round,
                           median, setup_pool, warm_up)

    cfg = wl.config(seed)
    ccfg = wl.classic_config(seed) if wl.classic_samples else None
    calls = Calls()

    # the program, untraced: the reference for CRCs and for the overhead
    t0 = time.perf_counter()
    pool = setup_pool(wl, cfg)
    program = {"pool_s": time.perf_counter() - t0 if wl.pool == "solved"
               else 0.0}
    warm_up(wl, cfg, pool, data / "warmup")
    # the second round is the reference, so first-round costs (the
    # allocator's page faults) fall on neither side of the overhead ratio
    rounds = [generate_round(wl, cfg, pool, data / "diffoas", calls)
              for _ in range(2)]
    gen = rounds[-1]
    program.update(generate_s=gen["generate_s"],
                   verify_s=median(gen["verify_s"]))
    classic = None
    if wl.classic_samples:
        classic = classic_round(ccfg, data / "classic", calls)
        program.update(classic_s=classic["classic_s"],
                       classic_verify_s=median(classic["verify_s"]))

    # the replica, traced: the same calls in the same order
    tr = tracing.Tracer()
    replica = {}
    t0 = time.perf_counter()
    # "solved" in setup, "cold" inside generate: a pool of GMRES solves
    pool, pool_iterations = tracing.replay_pool(tr, cfg)
    replica["pool_s"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    manifests = {"diffoas": tracing.replay_generate(
        tr, cfg, pool, data / "replica-diffoas")}
    replica["generate_s"] = time.perf_counter() - t1
    t1 = time.perf_counter()
    replica_failing = {"diffoas": tracing.replay_verify(
        tr, data / "replica-diffoas", DIFFOAS_BOUND, "verify-diffoas")}
    replica["verify_s"] = time.perf_counter() - t1
    classic_iterations = []
    if wl.classic_samples:
        t1 = time.perf_counter()
        manifests["classic"], classic_iterations = tracing.replay_classic(
            tr, ccfg, data / "replica-classic")
        replica["classic_s"] = time.perf_counter() - t1
        t1 = time.perf_counter()
        replica_failing["classic"] = tracing.replay_verify(
            tr, data / "replica-classic", ccfg.solver_tol, "verify-classic")
        replica["classic_verify_s"] = time.perf_counter() - t1
    tr.write(spans_path)

    checks = check_outputs(wl, seed, rounds, [classic] if classic else [],
                           data)
    replica_prints = {
        label: {name: e["crc32"] for name, e in sorted(m.field_files.items())}
        for label, m in manifests.items()}
    metrics = tracing.layer_metrics(tr, pool_iterations, classic_iterations)
    metrics["classic.generator.generate_s"] = (program.get("classic_s", 0.0), "s")
    metrics["dataset_io.bytes_written"] = (
        sum(e["byte_length"] for m in manifests.values()
            for e in m.field_files.values()), "B")
    metrics["trace.overhead_ratio"] = (
        sum(replica.values()) / sum(program.values()), "1")
    metrics["trace.matches_program"] = (
        int(replica_prints == checks["fingerprint"]), "1")
    detail = {"program_s": program, "replica_s": replica,
              "replica_verify_failing": replica_failing,
              "spans": len(tr.spans), "errors": calls.errors}
    return metrics, checks, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import record
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 64
    wl = WORKLOADS[args.workload]
    data = OUT_ROOT / "data" / wl.name
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    (OUT_ROOT / "spans").mkdir(exist_ok=True)
    try:
        run_info = record.run_record(ROOT, data)
        counts = record.computed_counts(wl, run_info["l2_bytes"])
        if args.trace:
            metrics, checks, detail = traced_run(
                wl, args.seed, data,
                OUT_ROOT / "spans" / f"{wl.name}-seed{args.seed}.jsonl")
            metrics.update(counts)
        else:
            metrics, checks, detail = untraced_run(
                wl, args.seed, args.seconds, data, import_s)
    finally:
        shutil.rmtree(data, ignore_errors=True)

    key = {"workload": wl.name, "seed": args.seed,
           "source_sha256": run_info["source_sha256"]}
    checks["problems"] += record.check_fingerprint(
        OUT_ROOT / "fingerprints.jsonl", key, checks["fingerprint"])
    correct = (checks["failed"] == 0 and not checks["problems"]
               and not detail["errors"])
    full = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "failed_ratio": checks["failed"] / checks["attempted"],
        "record": run_info,
        "computed": counts,
        "checks": checks, "detail": detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_ROOT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(full) + "\n")
    for problem in checks["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(full))
    print(json.dumps({
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": full["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
