import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from pdeforge import cli, generator
from pdeforge.cli import main
from pdeforge.dataset_io import FORMAT, checksum_field, read_dataset

DOCUMENTED_GENERATE_FLAGS = [
    "--method", "--pde", "--grid", "--samples", "--basis", "--tol",
    "--eta", "--seed", "--out", "--threads",
]


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHelp:
    def test_generate_help_lists_flags(self, capsys):
        code, out, _ = run(["generate", "--help"], capsys)
        assert code == 0
        for flag in DOCUMENTED_GENERATE_FLAGS:
            assert flag in out
        assert "default" in out

    def test_top_level_help(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        for sub in ("generate", "verify", "bench", "inspect"):
            assert sub in out


def nan_in_u_of_sample_1(tmp_path, capsys):
    """A dataset of 3 darcy samples whose stored u holds a NaN at an
    interior node of sample 1, with its CRC-32 rewritten to match."""
    out = tmp_path / "d"
    run(["generate", "--grid", "8", "--samples", "3", "--basis", "2",
         "--out", str(out)], capsys)
    path = out / "u.f64"
    u = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    u[100 + 45] = np.nan
    path.write_bytes(u.tobytes())
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["field_files"]["u"]["crc32"] = checksum_field(out, "u")
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out


def strict_json(text):
    """text parsed as JSON, rejecting the NaN and Infinity extensions."""
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(["generate", "--out", "x", "--frobnicate"], capsys)
        assert code == 64

    def test_zero_samples(self, capsys, tmp_path):
        code, _, err = run(["generate", "--samples", "0",
                            "--out", str(tmp_path)], capsys)
        assert code == 64
        assert "--samples" in err

    def test_bad_bench_dims(self, capsys, tmp_path):
        code, _, err = run(["bench", "--dims", "7",
                            "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 64

    def test_unknown_method(self, capsys, tmp_path):
        code, _, _ = run(["generate", "--method", "magic",
                          "--out", str(tmp_path)], capsys)
        assert code == 64

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
        ("--eta", "inf"), ("--eta", "nan"), ("--eta", "-1"), ("--seed", "-1"),
        ("--threads", "0"), ("--threads", "-3"), ("--grid", "0"),
        ("--basis", "0"), ("--samples", "-2")])
    def test_non_finite_or_non_positive_setting(self, capsys, tmp_path,
                                                flag, value):
        out = tmp_path / "d"
        code, _, err = run(["generate", "--grid", "8", "--samples", "3",
                            "--basis", "2", flag, value, "--out", str(out)],
                           capsys)
        assert code == 64
        # the flag as typed, not the library's name for the setting
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("method,threads", [
        ("diffoas", None), ("ablation-grf", None), ("classic", 1)])
    def test_threads_default(self, capsys, tmp_path, monkeypatch, method,
                             threads):
        # None: generate_diffoas takes the usable CPU count
        seen = []

        def recording(config, out, threads, *pool):
            seen.append(threads)
            raise cli.GenerationError("recorded")

        monkeypatch.setattr(cli, "generate_diffoas", recording)
        monkeypatch.setattr(cli, "generate_classic", recording)
        code, _, _ = run(["generate", "--method", method, "--grid", "4",
                          "--samples", "2", "--out", str(tmp_path / "d")],
                         capsys)
        assert code == 2 and seen == [threads]

    @pytest.mark.parametrize("flag,value,method", [
        *[("--basis", "7", method) for method in (
            "classic", "ablation-grf", "ablation-fourier",
            "ablation-chebyshev")],
        ("--eta", "5", "classic"), ("--eta", "0", "classic"),
        ("--tol", "1e-3", "ablation-grf"),
        ("--tol", "1e-3", "ablation-fourier"),
        ("--tol", "1e-5", "ablation-chebyshev")])
    def test_flag_the_method_does_not_use(self, capsys, tmp_path, flag,
                                          value, method):
        # only diffoas solves a pool of --basis systems; a classic dataset
        # has no noise, and an ablation run solves nothing
        out = tmp_path / "d"
        code, _, err = run(["generate", "--method", method, "--grid", "4",
                            "--samples", "2", flag, value, "--out", str(out)],
                           capsys)
        assert code == 64
        assert f"{flag} does not apply to --method {method}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--tols", "-1"), ("--tols", ","), ("--tols", "nan"),
        ("--tols", "inf"), ("--dims", "0"), ("--dims", ","),
        ("--dims", "7"), ("--basis", "0"), ("--seed", "-1"),
        ("--samples", "0"), ("--repeats", "2")])
    def test_bad_bench_setting(self, capsys, tmp_path, flag, value):
        out = tmp_path / "r.csv"
        code, _, err = run(["bench", "--dims", "16", "--tols", "1e-3",
                            "--samples", "1", "--basis", "2", flag, value,
                            "--out", str(out)], capsys)
        assert code == 64
        assert "Traceback" not in err
        assert not out.exists()
        assert f"argument {flag}: " in err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "d"
    code = main(["generate", "--method", "diffoas", "--pde", "darcy",
                 "--grid", "10", "--samples", "4", "--basis", "4",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    return out


class TestGenerateVerifyInspect:
    def test_generate_telemetry_on_stderr(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, stdout, stderr = run(
            ["generate", "--grid", "8", "--samples", "2", "--basis", "2",
             "--out", str(out)], capsys)
        assert code == 0
        event = json.loads(stderr.strip().splitlines()[-1])
        assert event["event"] == "generate-done"
        assert "basis_seconds" in event and "action_seconds" in event

    @pytest.mark.parametrize("flags,threads",
                             [([], 1), (["--threads", "2"], 2)])
    def test_generate_telemetry_reports_threads(self, capsys, tmp_path,
                                                flags, threads):
        # by default a 16 x 16 pool and its 8 samples are too small for a
        # second thread; --threads sets both
        out = tmp_path / "d"
        _, _, stderr = run(["generate", "--grid", "16", "--samples", "8",
                            "--out", str(out), *flags], capsys)
        event = json.loads(stderr.strip().splitlines()[-1])
        timings = json.loads((out / "manifest.json").read_text())[
            "generation"]["timings"]
        for key in ("pool_threads", "sample_threads"):
            assert event[key] == timings[key] == threads

    def test_generate_telemetry_reports_pool(self, capsys, tmp_path):
        args = ["generate", "--grid", "8", "--samples", "2", "--basis", "2",
                "--out", str(tmp_path / "d")]
        _, _, stderr = run(args, capsys)
        event = json.loads(stderr.strip().splitlines()[-1])
        solves = json.loads((tmp_path / "d" / "manifest.json").read_text())[
            "generation"]["pool"]["solves"]
        assert event["pool_cache"] == "solved"
        assert event["pool_iterations"] == \
            sum(s["iterations"] for s in solves) > 0
        # a second run into the same directory solves its pool again
        _, _, stderr = run(args, capsys)
        again = json.loads(stderr.strip().splitlines()[-1])
        assert (again["pool_cache"], again["pool_iterations"]) == \
            ("solved", event["pool_iterations"])
        assert json.loads((tmp_path / "d" / "manifest.json").read_text())[
            "generation"]["pool"]["solves"] == solves

    @pytest.mark.parametrize("method,flags,recorded", [
        ("classic", ["--tol", "1e-3"], {"solver_tol": 1e-3}),
        ("ablation-grf", ["--eta", "0.5"], {"noise_eta": 0.5}),
        ("diffoas", ["--tol", "1e-6", "--eta", "0.5", "--basis", "2"],
         {"solver_tol": 1e-6, "noise_eta": 0.5, "n_basis": 2})])
    def test_manifest_records_the_settings_the_run_used(
            self, capsys, tmp_path, method, flags, recorded):
        code, _, _ = run(["generate", "--method", method, "--grid", "4",
                          "--samples", "2", *flags,
                          "--out", str(tmp_path / "d")], capsys)
        assert code == 0
        generation = json.loads((tmp_path / "d" / "manifest.json")
                                .read_text())["generation"]
        used = {"classic": {"solver_tol"},
                "ablation-grf": {"n_basis", "noise_eta", "delta"},
                "diffoas": {"solver_tol", "n_basis", "noise_eta", "delta"}}
        assert {key for key in ("solver_tol", "n_basis", "noise_eta", "delta")
                if key in generation} == used[method]
        assert {key: generation[key] for key in recorded} == recorded

    def test_repeat_invocation_byte_identical(self, capsys, tmp_path):
        args = ["generate", "--grid", "8", "--samples", "3", "--basis", "2",
                "--seed", "7"]
        run(args + ["--out", str(tmp_path / "a")], capsys)
        run(args + ["--out", str(tmp_path / "b")], capsys)
        for name in ("a", "f", "u"):
            assert (tmp_path / "a" / f"{name}.f64").read_bytes() == \
                (tmp_path / "b" / f"{name}.f64").read_bytes()

    def test_verify_pass(self, capsys, dataset_dir):
        code, out, _ = run(["verify", "--data", str(dataset_dir),
                            "--tol", "1e-12"], capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("offset", [5, -1])
    def test_verify_corrupted_exit_3(self, capsys, tmp_path, offset):
        out = tmp_path / "d"
        main(["generate", "--grid", "8", "--samples", "2", "--basis", "2",
              "--out", str(out)])
        path = out / "u.f64"
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        code, _, err = run(["verify", "--data", str(out)], capsys)
        assert code == 3

    @pytest.mark.parametrize("name", ["a", "f"])
    def test_verify_corrupt_last_sample_exit_3(self, capsys, tmp_path,
                                               monkeypatch, name):
        # the corrupt byte makes its block raise (a) or its residual NaN
        # (f); the CRC-32 mismatch is reported first, as corruption. On one
        # CPU the last block raises before the end of the file is read; the
        # thread rule is lifted, so that two CPUs check the blocks on two
        monkeypatch.setattr(generator, "MIN_ITEMS", 0)
        monkeypatch.setattr(generator, "MIN_ITEM_NODES", 0)
        out = tmp_path / "d"
        run(["generate", "--grid", "8", "--samples", "10", "--basis", "2",
             "--out", str(out)], capsys)
        path = out / f"{name}.f64"
        raw = bytearray(path.read_bytes())
        node = 8 * (9 * 100 + 45)  # an interior node of sample 9, the last
        if name == "a":
            raw[node + 7] ^= 0x80  # the sign bit
        else:  # every exponent bit and the quiet bit
            raw[node + 6] |= 0xF8
            raw[node + 7] |= 0x7F
        path.write_bytes(bytes(raw))
        value = np.frombuffer(bytes(raw[node:node + 8]), dtype="<f8")[0]
        assert value < 0 if name == "a" else np.isnan(value)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)),
                                raising=False)
            code, stdout, err = run(["verify", "--data", str(out)], capsys)
            assert code == 3
            assert stdout == ""
            assert err.startswith(
                f"I/O or integrity error: {name}.f64: crc32")

    @pytest.mark.parametrize("flags", [
        ["--field", "u", "--sample", "0"], ["--sample", "1"], ["--stats"]])
    def test_inspect_corrupt_field_exit_3(self, capsys, tmp_path, flags):
        out = tmp_path / "d"
        run(["generate", "--grid", "8", "--samples", "2", "--basis", "2",
             "--out", str(out)], capsys)
        path = out / "u.f64"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        code, stdout, err = run(["inspect", "--data", str(out), *flags],
                                capsys)
        assert code == 3
        assert stdout == "" and "u.f64" in err

    def test_verify_non_elliptic_exit_1(self, capsys, tmp_path):
        out = tmp_path / "d"
        run(["generate", "--grid", "8", "--samples", "10", "--basis", "2",
             "--out", str(out)], capsys)
        path = out / "a.f64"
        a = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
        a[9 * 100 + 45] = -1.0  # an interior node of sample 9
        path.write_bytes(a.tobytes())
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["field_files"]["a"]["crc32"] = checksum_field(out, "a")
        (out / "manifest.json").write_text(json.dumps(manifest))
        code, stdout, err = run(["verify", "--data", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.count("\n") == 1
        assert "samples 8..9" in err and "Traceback" not in err

    def test_verify_nan_residual_fails(self, capsys, tmp_path):
        # and its report stays strict JSON
        out = nan_in_u_of_sample_1(tmp_path, capsys)
        code, stdout, _ = run(["verify", "--data", str(out)], capsys)
        report = strict_json(stdout)
        assert code == 1
        assert report["passed"] is False
        assert report["max_relative_residual"] is None
        assert report["mean_relative_residual"] is None
        assert report["failing_indices"] == [1]

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_verify_bad_tol_is_usage_error(self, capsys, tmp_path, tol,
                                           monkeypatch):
        def no_read(path):
            raise AssertionError("read the dataset")

        monkeypatch.setattr(cli, "read_dataset", no_read)
        code, stdout, err = run(["verify", "--data", str(tmp_path),
                                 "--tol", tol], capsys)
        assert code == 64
        assert stdout == "" and "--tol" in err and "Traceback" not in err

    def test_verify_missing_dir_exit_3(self, capsys, tmp_path):
        code, _, _ = run(["verify", "--data", str(tmp_path / "nope")], capsys)
        assert code == 3

    def test_inspect_stats_boundary_zero(self, capsys, dataset_dir):
        code, out, _ = run(["inspect", "--data", str(dataset_dir),
                            "--stats"], capsys)
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["u"]["boundary_max_abs"] == 0.0

    @pytest.mark.parametrize("flags", [
        ["--stats"], ["--stats", "--field", "u"], ["--field", "u"]])
    def test_inspect_nan_field_is_strict_json(self, capsys, tmp_path, flags):
        out = nan_in_u_of_sample_1(tmp_path, capsys)
        code, stdout, _ = run(["inspect", "--data", str(out), "--sample", "1",
                               *flags], capsys)
        assert code == 0
        doc = strict_json(stdout)
        stats = doc["stats"]["u"] if "--stats" in flags else doc["sample"]
        assert stats["min"] is stats["max"] is stats["mean"] is None
        assert stats["boundary_max_abs"] == 0.0

    def test_inspect_stats_are_those_of_one_sample(self, capsys, dataset_dir):
        ds = read_dataset(dataset_dir)
        for flags, k in (([], 0), (["--sample", "1"], 1)):
            code, out, _ = run(["inspect", "--data", str(dataset_dir),
                                "--stats", *flags], capsys)
            assert code == 0
            u = ds.field_sample("u", k).values
            assert json.loads(out)["stats"]["u"] == {
                "min": float(u.min()), "max": float(u.max()),
                "mean": float(u.mean()), "boundary_max_abs": 0.0}

    def test_inspect_sample_field(self, capsys, dataset_dir):
        code, out, _ = run(["inspect", "--data", str(dataset_dir),
                            "--sample", "0", "--field", "f"], capsys)
        assert code == 0
        sample = json.loads(out)["sample"]
        assert sample["num_values"] == 12 * 12

    def test_inspect_missing_sample_exit_1(self, capsys, dataset_dir):
        code, _, _ = run(["inspect", "--data", str(dataset_dir),
                          "--sample", "99", "--field", "f"], capsys)
        assert code == 1

    def test_inspect_missing_dir_exit_3(self, capsys, tmp_path):
        code, _, _ = run(["inspect", "--data", str(tmp_path / "nope")],
                         capsys)
        assert code == 3


class TestBenchCommand:
    def test_small_bench_report(self, capsys, tmp_path):
        report = tmp_path / "r.csv"
        code, _, _ = run(
            ["bench", "--dims", "64,100,144", "--tols", "1e-3",
             "--samples", "2", "--repeats", "3", "--basis", "2",
             "--out", str(report)], capsys)
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0].startswith("method,")
        # 3 dims x (action + total + gmres + gmres_pc at 1 tol)
        # + regression rows
        assert len(lines) == 1 + 3 * 4 + 2

    def test_json_format(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, _, _ = run(
            ["bench", "--dims", "64,100", "--tols", "1e-3", "--samples", "2",
             "--repeats", "3", "--basis", "2", "--format", "json",
             "--out", str(report)], capsys)
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload["records"]) == 2 * 4

    def test_unconverged_records_are_flagged_on_stderr(self, capsys,
                                                       tmp_path):
        # no solve meets tol 1e-300, so every GMRES record is flagged
        code, _, err = run(
            ["bench", "--dims", "1,4,9", "--tols", "1e-300", "--samples",
             "1", "--basis", "2", "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 0
        event = json.loads(err.strip().splitlines()[-1])
        assert event["event"] == "bench-warnings"
        assert [(method, dim) for method, dim, _ in event["flagged"]] == [
            (method, dim) for dim in (1, 4, 9)
            for method in ("gmres", "gmres_pc")]
        assert all(flags and flags[0].startswith("non-convergence")
                   for _, _, flags in event["flagged"])

    def test_regression_at_the_last_tol(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code, _, _ = run(
            ["bench", "--dims", "16,36,64", "--tols", "1e-1,1e-3",
             "--samples", "1", "--basis", "2", "--format", "json",
             "--out", str(report)], capsys)
        assert code == 0
        payload = json.loads(report.read_text())
        per_sample = {(r["method"], r["dim"], r["tol"]):
                      r["median_seconds"] / r["samples"]
                      for r in payload["records"]}
        # each point is the dim's gmres time at 1e-3 over its action time
        assert payload["regression"]["points"] == [
            [dim, per_sample["gmres", dim, 1e-3]
             / per_sample["diffoas_action", dim, None]]
            for dim in (16, 36, 64)]


# one darcy sample on a 2 x 2 interior: fields of 16 nodes, zero bytes
ZERO_FILES = {name: {"filename": f"{name}.f64", "byte_length": 128,
                     "crc32": zlib.crc32(bytes(128))} for name in "afu"}


def write_zero_fields(dir):
    for name in "afu":
        (dir / f"{name}.f64").write_bytes(bytes(128))


def darcy_manifest(**changes):
    """manifest.json text that describes the files of write_zero_fields,
    with changes to its keys."""
    return json.dumps({**FORMAT, "pde": "darcy",
                       "grid_interior": 2, "num_samples": 1,
                       "method": "classic", "field_files": ZERO_FILES,
                       **changes})


class TestManifestFuzzing:
    def test_unchanged_manifest_is_read(self, capsys, tmp_path):
        write_zero_fields(tmp_path)
        (tmp_path / "manifest.json").write_text(darcy_manifest())
        code, out, _ = run(["inspect", "--data", str(tmp_path)], capsys)
        assert code == 0 and json.loads(out)["num_samples"] == 1

    @pytest.mark.parametrize("mutation", [
        "not json at all {{{",
        json.dumps({"format_version": 1}),
        json.dumps({"format_version": 99, "pde": "darcy",
                    "grid_interior": 2, "num_samples": 1,
                    "method": "classic"}),
        json.dumps({**FORMAT, "pde": "bogus", "grid_interior": 2,
                    "num_samples": 1, "method": "classic",
                    "field_files": {}}),
        json.dumps([1, 2, 3]),
        # 4 samples of 2 x 2 nodes fill the files as 1 of 4 x 4 does
        darcy_manifest(grid_interior=0, num_samples=4),
        *[darcy_manifest(grid_interior=n) for n in ("x", 2.0, None)],
        *[darcy_manifest(num_samples=count) for count in (1.0, None)],
        darcy_manifest(field_files={**ZERO_FILES, "u": "u.f64"}),
        darcy_manifest(field_files={**ZERO_FILES, "u": ZERO_FILES["a"]}),
        darcy_manifest(field_files={**ZERO_FILES, "a": {"crc32": 0}}),
        darcy_manifest(field_files={**ZERO_FILES, "u": {"filename": "u.f64"}}),
        darcy_manifest(pde=["darcy"]),
        darcy_manifest(dtype="float32-be"),
        darcy_manifest(layout="column-major"),
        darcy_manifest(dtype=None),
        darcy_manifest(layout=None),
        *[darcy_manifest(format_version=v) for v in (True, 1.0)],
        darcy_manifest(method=float("nan")),
        *[darcy_manifest(skipped_samples=v)
          for v in (float("nan"), "x", [-1], [1.0])],
        darcy_manifest(generation=[]),
        darcy_manifest(field_files={"a": ZERO_FILES["a"],
                                    "f": ZERO_FILES["f"]}),
        darcy_manifest(field_files={**ZERO_FILES, "u": {
            **ZERO_FILES["u"], "byte_length": 64}}),
        pytest.param(b"\xff\xfe" + darcy_manifest().encode(),
                     id="not-utf-8"),
        pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-100000-deep"),
    ])
    def test_malformed_manifest_never_crashes(self, capsys, tmp_path,
                                              mutation):
        write_zero_fields(tmp_path)
        path = tmp_path / "manifest.json"
        if isinstance(mutation, bytes):
            path.write_bytes(mutation)
        else:
            path.write_text(mutation)
        code, _, _ = run(["verify", "--data", str(tmp_path)], capsys)
        assert code == 3
        code, _, _ = run(["inspect", "--data", str(tmp_path)], capsys)
        assert code == 3


# the first library call of each command, and its arguments
FIRST_CALLS = {
    "generate": ("generate_diffoas", ["--grid", "4", "--samples", "2"]),
    "verify": ("read_dataset", []),
    "inspect": ("read_dataset", []),
    "bench": ("run_timing_suite", ["--dims", "16", "--tols", "1e-3"]),
}


class TestExitCodeTable:
    @pytest.mark.parametrize("error,code,prefix", [
        pytest.param(error, code, prefix, id=error.__name__)
        for error, code, prefix in (
            (cli.GenerationError, 2, "generation error: "),
            (cli.EllipticityError, 1, "failed: "),
            (cli.DatasetIntegrityError, 3, "I/O or integrity error: "),
            (cli.DatasetFormatError, 3, "I/O or integrity error: "),
            (OSError, 3, "I/O or integrity error: "))])
    @pytest.mark.parametrize("command", list(FIRST_CALLS))
    def test_library_error_maps_to_its_code(self, capsys, tmp_path,
                                            monkeypatch, command, error,
                                            code, prefix):
        def raising(*args, **kwargs):
            raise error("x")

        name, flags = FIRST_CALLS[command]
        monkeypatch.setattr(cli, name, raising)
        target = ["--out", str(tmp_path / "o")] if command in (
            "generate", "bench") else ["--data", str(tmp_path)]
        got, stdout, err = run([command, *flags, *target], capsys)
        assert got == code
        assert err.count("\n") == 1 and err == f"{prefix}x\n"
        assert "Traceback" not in err and stdout == ""


class TestFailedGenerate:
    def test_unconverged_classic_leaves_no_dataset(self, capsys, tmp_path):
        out = tmp_path / "d"
        code, _, err = run(["generate", "--method", "classic", "--pde",
                            "darcy", "--grid", "4", "--samples", "3",
                            "--tol", "1e-300", "--out", str(out)], capsys)
        assert code == 2
        assert "all samples failed to converge" in err
        assert not (out / "manifest.json").exists()
        code, out_text, _ = run(["verify", "--data", str(out)], capsys)
        assert code != 0
        assert '"passed": true' not in out_text

    def test_unconverged_classic_rewrite_keeps_the_dataset(self, capsys,
                                                           tmp_path):
        # no sample converges, so the rewrite fails before out is touched
        out = tmp_path / "d"
        assert main(["generate", "--pde", "darcy", "--grid", "6",
                     "--samples", "2", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code, _, err = run(["generate", "--method", "classic", "--grid", "6",
                            "--samples", "2", "--tol", "1e-300",
                            "--out", str(out)], capsys)
        assert code == 2 and "all samples failed to converge" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        code, out_text, _ = run(["verify", "--data", str(out)], capsys)
        assert code == 0 and json.loads(out_text)["passed"] is True

    def test_verify_empty_dataset_fails(self, capsys, tmp_path):
        from pdeforge.dataset_io import DatasetManifest, write_dataset
        write_dataset(tmp_path, [], DatasetManifest(
            pde="darcy", grid_interior=4, num_samples=0, method="classic"))
        code, out, _ = run(["verify", "--data", str(tmp_path)], capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False


def test_verify_overflow_prints_only_the_integrity_error(tmp_path):
    # 0x7f as the top byte of an interior node of sample 1 in u.f64 makes
    # it about 1e307, so the block's residual overflows before the CRC-32
    # check at the end. In a fresh process, since pytest makes a numpy
    # warning an error here
    data = tmp_path / "D"
    assert main(["generate", "--grid", "16", "--samples", "8",
                 "--out", str(data)]) == 0
    with open(data / "u.f64", "r+b") as fh:
        fh.seek(3359)
        fh.write(b"\x7f")
    result = subprocess.run(
        [sys.executable, "-m", "pdeforge.cli", "verify", "--data", str(data),
         "--tol", "1e-12"], capture_output=True, text=True)
    assert result.returncode == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("I/O or integrity error: u.f64")


@pytest.mark.parametrize("argv,status", [
    (["verify", "--tol", "1e-3"], 0), (["verify"], 1),
    (["inspect", "--stats"], 0)])
def test_closed_stdout_keeps_the_exit_code(tmp_path, argv, status):
    # `pdeforge verify --data D | head -1`: a reader gone before the
    # report is printed is no I/O error of the dataset, and adds no stderr
    # line; a verify that fails (a classic dataset at 1e-12) still exits 1
    data = tmp_path / "D"
    assert main(["generate", "--method", "classic", "--grid", "8",
                 "--samples", "3", "--out", str(data)]) == 0
    with subprocess.Popen(
            [sys.executable, "-m", "pdeforge.cli", argv[0], "--data",
             str(data), *argv[1:]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # before the command can write its report
        err = proc.stderr.read()
    assert (proc.returncode, err) == (status, b"")


HEAVY_SCIPY_MODULES = ("scipy.stats", "scipy.linalg", "scipy.sparse")


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats, scipy.linalg and scipy.sparse (the tests' CSR reference
    # form) each take longer to import than a small run takes; no command
    # uses them
    code = ("import sys, pdeforge.cli; "
            f"print([m for m in {HEAVY_SCIPY_MODULES} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[]"


def test_commands_run_without_scipy_sparse(tmp_path):
    # generate, verify, inspect and bench with its regression fit, one
    # after another in a fresh process
    code = f"""
import sys
from pdeforge.cli import main
out = {str(tmp_path)!r}
for method in ("diffoas", "classic", "ablation-fourier"):
    data = f"{{out}}/{{method}}"
    basis = ["--basis", "3"] if method == "diffoas" else []
    assert main(["generate", "--method", method, "--grid", "8",
                 "--samples", "3", *basis, "--out", data]) == 0
    assert main(["verify", "--data", data, "--tol",
                 "1e-4" if method == "classic" else "1e-12"]) == 0
    assert main(["inspect", "--data", data, "--stats"]) == 0
assert main(["bench", "--dims", "16,25,36", "--tols", "1e-3", "--samples",
             "1", "--repeats", "3", "--basis", "2", "--out",
             f"{{out}}/bench.csv"]) == 0
print([m for m in {HEAVY_SCIPY_MODULES} if m in sys.modules])
"""
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip().splitlines()[-1] == "[]"
