import json
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pdeforge import dataset_io
from pdeforge.dataset_io import (
    Dataset,
    DatasetFormatError,
    DatasetIntegrityError,
    DatasetManifest,
    checksum_field,
    read_dataset,
    write_dataset,
)
from pdeforge.generator import verify_dataset
from pdeforge.grid import FieldSample, Grid2D


def make_samples(grid, count, seed=0):
    gen = np.random.default_rng(seed)
    m = grid.n_nodes
    out = []
    for _ in range(count):
        out.append({
            "a": FieldSample(grid, gen.uniform(0.5, 2.0, (m, m))),
            "f": FieldSample(grid, gen.standard_normal((m, m))),
            "u": FieldSample(grid, gen.standard_normal((m, m))),
        })
    return out


def write_small(tmp_path, n=2, count=1, seed=0):
    grid = Grid2D(n)
    manifest = DatasetManifest(pde="darcy", grid_interior=n,
                               num_samples=count, method="classic")
    samples = make_samples(grid, count, seed)
    write_dataset(tmp_path, samples, manifest)
    return grid, samples


class TestWrite:
    def test_block_items_write_the_bytes_of_single_samples(self, tmp_path):
        grid = Grid2D(3)
        samples = make_samples(grid, 5, seed=2)
        manifest = DatasetManifest(pde="darcy", grid_interior=3,
                                   num_samples=5, method="diffoas")
        write_dataset(tmp_path / "one", samples, manifest)
        blocks = [{name: np.stack([s[name].values for s in samples[i:j]])
                   for name in ("a", "f", "u")}
                  for i, j in ((0, 2), (2, 5))]
        blocked = write_dataset(tmp_path / "blocks", blocks, DatasetManifest(
            pde="darcy", grid_interior=3, num_samples=5, method="diffoas"))
        assert blocked.num_samples == 5
        for name in ("a", "f", "u"):
            assert (tmp_path / "one" / f"{name}.f64").read_bytes() == \
                (tmp_path / "blocks" / f"{name}.f64").read_bytes()
        assert read_dataset(tmp_path / "blocks").manifest.field_files == \
            read_dataset(tmp_path / "one").manifest.field_files

    @pytest.mark.parametrize("shapes", [
        {"a": (2, 5, 5), "f": (3, 5, 5), "u": (2, 5, 5)},  # leading axes
        {"a": (2, 5, 5), "f": (2, 5, 5), "u": (2, 4, 6)},  # nodes/sample
        {"a": (2, 5, 5), "f": (5, 5), "u": (2, 5, 5)},  # block and sample
    ])
    def test_malformed_block_item_rejected(self, tmp_path, shapes):
        manifest = DatasetManifest(pde="darcy", grid_interior=3,
                                   num_samples=2, method="diffoas")
        item = {name: np.zeros(shape) for name, shape in shapes.items()}
        with pytest.raises(DatasetFormatError):
            write_dataset(tmp_path, [item], manifest)
        assert not (tmp_path / "manifest.json").exists()

    def test_file_sizes(self, tmp_path):
        write_small(tmp_path, n=2, count=1)
        for name in ("a", "f", "u"):
            assert (tmp_path / f"{name}.f64").stat().st_size == 128

    def test_round_trip_bit_exact(self, tmp_path):
        grid, samples = write_small(tmp_path, n=4, count=3, seed=5)
        ds = read_dataset(tmp_path)
        for k, sample in enumerate(samples):
            for name in ("a", "f", "u"):
                np.testing.assert_array_equal(
                    ds.field_sample(name, k).values, sample[name].values)

    def test_manifest_fields(self, tmp_path):
        write_small(tmp_path, n=3, count=2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["dtype"] == "float64-le"
        for entry in manifest["field_files"].values():
            assert entry["byte_length"] == 2 * 25 * 8

    def test_no_manifest_on_failed_write(self, tmp_path):
        grid = Grid2D(2)
        manifest = DatasetManifest(pde="darcy", grid_interior=2,
                                   num_samples=1, method="classic")

        def broken():
            yield make_samples(grid, 1)[0]
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            write_dataset(tmp_path, broken(), manifest)
        assert not (tmp_path / "manifest.json").exists()
        with pytest.raises(DatasetIntegrityError):
            read_dataset(tmp_path)

    def test_failed_rewrite_removes_old_manifest(self, tmp_path):
        # the old manifest must not vouch for half-rewritten field files
        grid, _ = write_small(tmp_path, n=2, count=2)
        manifest = DatasetManifest(pde="darcy", grid_interior=2,
                                   num_samples=2, method="classic")

        def broken():
            yield make_samples(grid, 1, seed=1)[0]
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            write_dataset(tmp_path, broken(), manifest)
        assert not (tmp_path / "manifest.json").exists()
        with pytest.raises(DatasetIntegrityError):
            read_dataset(tmp_path)

    def test_shorter_rewrite_overwrites_in_place(self, tmp_path):
        write_small(tmp_path / "d", n=3, count=5, seed=1)
        write_small(tmp_path / "d", n=3, count=2, seed=2)
        write_small(tmp_path / "fresh", n=3, count=2, seed=2)
        ds = read_dataset(tmp_path / "d")
        for entry in ds.manifest.field_files.values():
            path = tmp_path / "d" / entry["filename"]
            assert path.stat().st_size == entry["byte_length"] == 2 * 25 * 8
            assert path.read_bytes() == \
                (tmp_path / "fresh" / entry["filename"]).read_bytes()

    def test_failed_rewrite_cuts_files_to_the_written_length(self, tmp_path):
        grid, _ = write_small(tmp_path, n=2, count=3)
        manifest = DatasetManifest(pde="darcy", grid_interior=2,
                                   num_samples=3, method="classic")

        def broken():
            yield make_samples(grid, 1, seed=1)[0]
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            write_dataset(tmp_path, broken(), manifest)
        for name in ("a", "f", "u"):
            assert (tmp_path / f"{name}.f64").stat().st_size == 16 * 8

    def test_rewrite_removes_fields_of_another_family(self, tmp_path):
        write_small(tmp_path, n=2, count=2)
        (tmp_path / "q.f64").write_bytes(b"stale")
        (tmp_path / "notes.f64").write_bytes(b"not a field")
        grid = Grid2D(2)
        samples = [{"k2": s["a"], "f": s["f"], "u": s["u"]}
                   for s in make_samples(grid, 2)]
        write_dataset(tmp_path, samples, DatasetManifest(
            pde="helmholtz", grid_interior=2, num_samples=2,
            method="classic"))
        assert not (tmp_path / "a.f64").exists()
        assert not (tmp_path / "q.f64").exists()
        assert (tmp_path / "notes.f64").exists()
        assert read_dataset(tmp_path).manifest.field_names == \
            ("k2", "f", "u")


class TestRead:
    @pytest.mark.parametrize("offset", [0, 17, -1])
    @pytest.mark.parametrize("name", ["a", "f", "u"])
    def test_corruption_detected_and_named(self, tmp_path, name, offset):
        # read_dataset reads no field byte; the CRC-32 is checked where the
        # bytes are read: by a full verify pass, and by a one-sample read
        # at either end of the file
        count = 2
        write_small(tmp_path, n=3, count=count)
        path = tmp_path / f"{name}.f64"
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetIntegrityError, match=f"{name}.f64"):
            verify_dataset(read_dataset(tmp_path), 1.0)
        for k in (0, count - 1):
            ds = read_dataset(tmp_path)
            with pytest.raises(DatasetIntegrityError, match=f"{name}.f64"):
                ds.field_sample(name, k)

    def test_truncation_detected(self, tmp_path):
        write_small(tmp_path, n=3, count=2)
        path = tmp_path / "f.f64"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DatasetIntegrityError, match="f.f64"):
            read_dataset(tmp_path)

    def test_version_mismatch(self, tmp_path):
        write_small(tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["format_version"] += 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="format_version"):
            read_dataset(tmp_path)

    def test_unknown_pde(self, tmp_path):
        write_small(tmp_path)
        mpath = tmp_path / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["pde"] = "navier-stokes"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError):
            read_dataset(tmp_path)

    def test_missing_field_file(self, tmp_path):
        write_small(tmp_path)
        (tmp_path / "f.f64").unlink()
        with pytest.raises(DatasetIntegrityError, match="missing field file"):
            read_dataset(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetIntegrityError):
            read_dataset(tmp_path)

    def test_lazy_access_bounds(self, tmp_path):
        write_small(tmp_path, n=2, count=2)
        ds = read_dataset(tmp_path)
        with pytest.raises(DatasetFormatError):
            ds.field_sample("a", 2)
        with pytest.raises(DatasetFormatError):
            ds.field_sample("k2", 0)


    def test_samples_open_each_file_once(self, tmp_path, monkeypatch):
        _, written = write_small(tmp_path, n=3, count=5)
        ds = read_dataset(tmp_path)
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(dataset_io, "open", counting_open, raising=False)
        read = list(ds.blocks(1))
        assert len(opened) == 3
        assert len(read) == 5
        for k, (got, want) in enumerate(zip(read, written)):
            for name in ("a", "f", "u"):
                np.testing.assert_array_equal(got[name][0],
                                              want[name].values)
                np.testing.assert_array_equal(
                    ds.field_sample(name, k).values, want[name].values)

    def test_each_field_crc_is_checked_once(self, tmp_path, monkeypatch):
        write_small(tmp_path, n=3, count=3)
        checked = []

        def counting_checksum(dir, field_name):
            checked.append(field_name)
            return checksum_field(dir, field_name)

        monkeypatch.setattr(dataset_io, "checksum_field", counting_checksum)
        ds = read_dataset(tmp_path)
        assert checked == []
        for name, k in (("u", 0), ("u", 2), ("a", 1), ("u", 1)):
            ds.field_sample(name, k)
        assert checked == ["u", "a"]
        # a full pass of blocks checks every field on the way
        ds = read_dataset(tmp_path)
        list(ds.blocks(2))
        for name in ("a", "f", "u"):
            ds.field_sample(name, 0)
        assert checked == ["u", "a"]

    def test_samples_detect_file_cut_after_read(self, tmp_path):
        write_small(tmp_path, n=3, count=2)
        ds = read_dataset(tmp_path)
        path = tmp_path / "u.f64"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DatasetIntegrityError, match="u.f64"):
            list(ds.blocks(1))


class TestBlocks:
    def test_blocks_hold_consecutive_samples(self, tmp_path):
        _, written = write_small(tmp_path, n=3, count=7)
        ds = read_dataset(tmp_path)
        blocks = list(ds.blocks(3))
        assert [len(block["u"]) for block in blocks] == [3, 3, 1]
        for name in ("a", "f", "u"):
            got = np.concatenate([block[name] for block in blocks])
            assert got.shape == (7, 5, 5)
            assert np.array_equal(got, [s[name].values for s in written])

    def test_one_read_per_field_and_block(self, tmp_path, monkeypatch):
        write_small(tmp_path, n=3, count=7)
        ds = read_dataset(tmp_path)
        reads = []

        class CountingFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def readinto(self, buf):
                reads.append(memoryview(buf).nbytes // (25 * 8))
                return self.fh.readinto(buf)

        monkeypatch.setattr(dataset_io, "open",
                            lambda *args: CountingFile(open(*args)),
                            raising=False)
        list(ds.blocks(4))
        assert reads == [4, 4, 4, 3, 3, 3]

    def test_blocks_read_on_more_threads_than_cpus(self, tmp_path):
        # each task seeks and reads the shared file objects of its block
        _, written = write_small(tmp_path, n=3, count=64)
        ds = read_dataset(tmp_path)

        def threaded(task, items):
            with ThreadPoolExecutor(8) as pool:
                yield from pool.map(task, items)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = list(ds.blocks(1, lambda start, block: (start, block),
                                 threaded))
        finally:
            sys.setswitchinterval(interval)
        assert [start for start, _ in got] == list(range(64))
        for start, block in got:
            for name in ("a", "f", "u"):
                assert np.array_equal(block[name][0],
                                      written[start][name].values)

    def test_block_size_must_be_positive(self, tmp_path):
        write_small(tmp_path, n=3, count=2)
        with pytest.raises(ValueError):
            next(read_dataset(tmp_path).blocks(0))

    @pytest.mark.parametrize("name", ["a", "f", "u"])
    def test_crc_mismatch_raises_after_the_last_block(self, tmp_path, name):
        write_small(tmp_path, n=3, count=7)
        ds = read_dataset(tmp_path)
        path = tmp_path / f"{name}.f64"
        raw = bytearray(path.read_bytes())
        raw[3 * 25 * 8 + 5] ^= 0x01  # in the second block
        path.write_bytes(bytes(raw))
        blocks = ds.blocks(4)
        assert len(next(blocks)[name]) == 4
        assert len(next(blocks)[name]) == 3
        with pytest.raises(DatasetIntegrityError, match=f"{name}.f64"):
            next(blocks)

    def test_file_cut_inside_second_block(self, tmp_path):
        write_small(tmp_path, n=3, count=7)
        ds = read_dataset(tmp_path)
        path = tmp_path / "f.f64"
        path.write_bytes(path.read_bytes()[:5 * 25 * 8 + 8])
        blocks = ds.blocks(4)
        assert len(next(blocks)["f"]) == 4
        with pytest.raises(DatasetIntegrityError, match="f.f64"):
            next(blocks)


class TestChecksum:
    def test_empty_file(self, tmp_path):
        (tmp_path / "a.f64").write_bytes(b"")
        assert checksum_field(tmp_path, "a") == 0

    def test_known_value(self, tmp_path):
        # reference oracle: zlib.crc32 over the same bytes, one shot
        payload = bytes(8)
        (tmp_path / "a.f64").write_bytes(payload)
        assert checksum_field(tmp_path, "a") == zlib.crc32(payload)

    def test_partial_last_chunk(self, tmp_path):
        # more than two chunks and a short tail: a stale end of the reused
        # read buffer must not be hashed
        size = 2 * dataset_io.CHECKSUM_CHUNK + 12345
        payload = np.random.default_rng(3).bytes(size)
        (tmp_path / "a.f64").write_bytes(payload)
        assert checksum_field(tmp_path, "a") == zlib.crc32(payload)

    def test_stable_across_reads(self, tmp_path):
        write_small(tmp_path, n=3, count=2, seed=9)
        assert checksum_field(tmp_path, "u") == checksum_field(tmp_path, "u")


class TestCrc32Combine:
    # one full 8-sample block of n = 6 (m = 8) and a short last block of 3
    @pytest.mark.parametrize("len2", [0, 1, 12345, 8 * 64 * 8, 3 * 64 * 8])
    @pytest.mark.parametrize("len1", [0, 7, 8 * 64 * 8])
    def test_matches_crc_of_the_concatenation(self, len1, len2):
        gen = np.random.default_rng(len1 + len2)
        a, b = gen.bytes(len1), gen.bytes(len2)
        assert dataset_io.crc32_combine(
            zlib.crc32(a), zlib.crc32(b), len2) == zlib.crc32(a + b)

    def test_folds_blocks_in_order(self):
        gen = np.random.default_rng(1)
        pieces = [gen.bytes(size) for size in (512, 512, 512, 192)]
        crc = 0
        for piece in pieces:
            crc = dataset_io.crc32_combine(crc, zlib.crc32(piece),
                                           len(piece))
        assert crc == zlib.crc32(b"".join(pieces))
