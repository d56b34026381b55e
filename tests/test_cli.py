import json
import subprocess
import sys

import numpy as np
import pytest

from pdeforge.cli import main
from pdeforge.dataset_io import checksum_field

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
        ("--eta", "inf"), ("--eta", "nan")])
    def test_non_finite_or_non_positive_setting(self, capsys, tmp_path,
                                                flag, value):
        out = tmp_path / "d"
        code, _, err = run(["generate", "--grid", "8", "--samples", "3",
                            "--basis", "2", flag, value, "--out", str(out)],
                           capsys)
        assert code == 64
        assert "Traceback" not in err
        assert not out.exists()


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

    def test_verify_corrupted_exit_3(self, capsys, tmp_path):
        out = tmp_path / "d"
        main(["generate", "--grid", "8", "--samples", "2", "--basis", "2",
              "--out", str(out)])
        path = out / "u.f64"
        raw = bytearray(path.read_bytes())
        raw[5] ^= 0xFF
        path.write_bytes(bytes(raw))
        code, _, err = run(["verify", "--data", str(out)], capsys)
        assert code == 3

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
        out = tmp_path / "d"
        run(["generate", "--grid", "8", "--samples", "3", "--basis", "2",
             "--out", str(out)], capsys)
        path = out / "u.f64"
        u = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
        u[100 + 45] = np.nan  # an interior node of sample 1
        path.write_bytes(u.tobytes())
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["field_files"]["u"]["crc32"] = checksum_field(out, "u")
        (out / "manifest.json").write_text(json.dumps(manifest))
        code, stdout, _ = run(["verify", "--data", str(out)], capsys)
        report = json.loads(stdout)
        assert code == 1
        assert report["passed"] is False
        assert report["failing_indices"] == [1]

    def test_verify_nan_tol_fails(self, capsys, dataset_dir):
        code, stdout, _ = run(["verify", "--data", str(dataset_dir),
                               "--tol", "nan"], capsys)
        assert code == 1
        assert json.loads(stdout)["passed"] is False

    def test_verify_missing_dir_exit_3(self, capsys, tmp_path):
        code, _, _ = run(["verify", "--data", str(tmp_path / "nope")], capsys)
        assert code == 3

    def test_inspect_stats_boundary_zero(self, capsys, dataset_dir):
        code, out, _ = run(["inspect", "--data", str(dataset_dir),
                            "--stats"], capsys)
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["u"]["boundary_max_abs"] == 0.0

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


class TestManifestFuzzing:
    @pytest.mark.parametrize("mutation", [
        "not json at all {{{",
        json.dumps({"format_version": 1}),
        json.dumps({"format_version": 99, "pde": "darcy",
                    "grid_interior": 2, "num_samples": 1,
                    "method": "classic"}),
        json.dumps({"format_version": 1, "pde": "bogus", "grid_interior": 2,
                    "num_samples": 1, "method": "classic",
                    "field_files": {}}),
    ])
    def test_malformed_manifest_never_crashes(self, capsys, tmp_path,
                                              mutation):
        (tmp_path / "manifest.json").write_text(mutation)
        code, _, _ = run(["verify", "--data", str(tmp_path)], capsys)
        assert code == 3
        code, _, _ = run(["inspect", "--data", str(tmp_path)], capsys)
        assert code == 3


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

    def test_verify_empty_dataset_fails(self, capsys, tmp_path):
        from pdeforge.dataset_io import DatasetManifest, write_dataset
        write_dataset(tmp_path, [], DatasetManifest(
            pde="darcy", grid_interior=4, num_samples=0, method="classic"))
        code, out, _ = run(["verify", "--data", str(tmp_path)], capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats (the bench regression) and scipy.linalg (the dense test
    # oracle) take most of a second to import; generate and verify use
    # neither
    code = ("import sys, pdeforge.cli; "
            "print([m for m in ('scipy.stats', 'scipy.linalg') "
            "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True)
    assert result.stdout.strip() == "[]"
