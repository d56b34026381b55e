"""Bit-exact dataset serialization: raw binary64 field files + JSON manifest.

Layout contract: one `<name>.f64` file per field, IEEE-754 binary64
little-endian, sample-major then row-major over the (n+2) x (n+2) node set
including boundary. `manifest.json` is written last via atomic rename, so a
crashed write never leaves a readable dataset.

`write_dataset` takes items of one sample or of a block of samples as
(b, m, m) arrays, with the same bytes on disk either way (the `generator`
docstring tells why a block holds the bits of its samples alone);
`Dataset.blocks` is the one reader of blocks.

`read_dataset` judges the manifest and each field file's presence and
length up front. The bytes are checked against the manifest's CRC-32s as
they are read, so that a full pass reads each byte once (`Dataset.blocks`,
`Dataset.field_sample`); DatasetIntegrityError names the field file that
does not match.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .families import FAMILIES
from .grid import FieldSample, Grid2D

# the layout contract above, as every manifest.json states it
FORMAT = {"format_version": 1, "dtype": "float64-le",
          "layout": "sample-major,row-major-nodes-including-boundary"}
CHECKSUM_CHUNK = 1 << 20  # bytes per read in checksum_field
CRC32_POLY = 0xEDB88320  # the IEEE polynomial, bit-reflected as zlib uses it

# the stored fields of each family at import; DatasetManifest.field_names
# reads the registry at call time
FIELDS_BY_PDE = {pde: fam.field_names for pde, fam in FAMILIES.items()}


class DatasetIntegrityError(RuntimeError):
    pass


class DatasetFormatError(ValueError):
    pass


@dataclass
class DatasetManifest:
    pde: str
    grid_interior: int
    num_samples: int
    method: str
    field_files: dict = field(default_factory=dict)
    generation: dict = field(default_factory=dict)
    skipped_samples: list = field(default_factory=list)

    @property
    def field_names(self) -> tuple:
        if not isinstance(self.pde, str) or self.pde not in FAMILIES:
            raise DatasetFormatError(f"unknown pde tag {self.pde!r}")
        return FAMILIES[self.pde].field_names

    @property
    def nodes_per_sample(self) -> int:
        return (self.grid_interior + 2) ** 2

    def to_dict(self) -> dict:
        return {
            **FORMAT,
            "pde": self.pde,
            "grid_interior": self.grid_interior,
            "num_samples": self.num_samples,
            "method": self.method,
            "field_files": self.field_files,
            "generation": self.generation,
            "skipped_samples": self.skipped_samples,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        """The manifest of a parsed manifest.json; DatasetFormatError
        unless it is an object that states this FORMAT and a registered pde,
        with grid_interior >= 1, num_samples >= 0, a string method, an
        object generation, skipped_samples a list of integers >= 0, each
        field file entry an object naming `<field>.f64` with integer
        byte_length and crc32, and an entry of num_samples samples' length
        for each field of the pde. read_dataset judges the files."""
        if not isinstance(d, dict):
            raise DatasetFormatError("manifest is not a JSON object")
        for key, expected in FORMAT.items():
            value = d.get(key)  # of the same type: true and 1.0 == 1
            if type(value) is not type(expected) or value != expected:
                raise DatasetFormatError(
                    f"unsupported manifest {key} {value!r}, "
                    f"expected {expected!r}")
        for key, least in (("grid_interior", 1), ("num_samples", 0)):
            value = d.get(key)
            if type(value) is not int or value < least:
                raise DatasetFormatError(
                    f"manifest {key} must be an integer >= {least}, "
                    f"got {value!r}")
        m = cls(pde=d.get("pde"), grid_interior=d["grid_interior"],
                num_samples=d["num_samples"], method=d.get("method"),
                field_files=d.get("field_files", {}),
                generation=d.get("generation", {}),
                skipped_samples=d.get("skipped_samples", []))
        names = m.field_names  # DatasetFormatError for an unknown pde
        for key, kind, what in (
                ("method", str, "a string"), ("field_files", dict, "an object"),
                ("generation", dict, "an object"),
                ("skipped_samples", list, "a list of integers >= 0")):
            value = getattr(m, key)
            if not isinstance(value, kind) or kind is list and not all(
                    type(k) is int and k >= 0 for k in value):
                raise DatasetFormatError(f"manifest {key} is not {what}: "
                                         f"{value!r}")
        for name, entry in m.field_files.items():
            if not (isinstance(entry, dict)
                    and entry.get("filename") == f"{name}.f64"
                    and all(type(entry.get(key)) is int
                            for key in ("byte_length", "crc32"))):
                raise DatasetFormatError(
                    f"manifest entry for {name!r} is not an object naming "
                    f"{name}.f64 with its byte_length and crc32: {entry!r}")
        length = m.num_samples * m.nodes_per_sample * 8
        for name in names:
            if m.field_files.get(name, {}).get("byte_length") != length:
                raise DatasetFormatError(
                    f"manifest entry for {name!r} is missing or does not "
                    f"state {length} bytes, those of {m.num_samples} samples")
        return m


def checksum_field(dir: os.PathLike, field_name: str) -> int:
    """CRC-32 (IEEE polynomial) of a field file's raw bytes, read in
    CHECKSUM_CHUNK pieces into one reused buffer."""
    path = Path(dir) / f"{field_name}.f64"
    crc = 0
    buf = bytearray(CHECKSUM_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            crc = zlib.crc32(view[:size], crc)
    return crc & 0xFFFFFFFF


def _multmodp(a: int, b: int) -> int:
    """a * b modulo CRC32_POLY over GF(2), both in the reflected order in
    which bit 31 is x^0; a is not 0."""
    top = 1 << 31
    product = 0
    while True:
        if a & top:
            product ^= b
            if not a & (top - 1):
                return product
        top >>= 1
        b = (b >> 1) ^ CRC32_POLY if b & 1 else b >> 1


@lru_cache(maxsize=16)
def _zeros_operator(nbytes: int) -> int:
    """x^(8 nbytes) modulo CRC32_POLY: appending nbytes to a message
    multiplies its CRC register by it. By squaring x^8 (bit 23)."""
    result, power = 1 << 31, 1 << 23
    while nbytes:
        if nbytes & 1:
            result = _multmodp(power, result)
        power = _multmodp(power, power)
        nbytes >>= 1
    return result


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """The CRC-32 of bytes A + B from crc1 = zlib.crc32(A), crc2 =
    zlib.crc32(B) and len2 = len(B), as zlib's crc32_combine: the
    conditioning of the two CRCs cancels, so crc1 is moved past len2 zero
    bytes and XORed with crc2."""
    return _multmodp(_zeros_operator(len2), crc1) ^ crc2


def write_dataset(
    dir: os.PathLike,
    samples: Iterable[dict],
    manifest_seed: DatasetManifest,
) -> DatasetManifest:
    """Stream items to disk; returns the completed manifest, which is
    manifest_seed, written once after the last item: the item iterator may
    fill in more of it (say, timings) before it ends.

    An item is a dict of field name -> node array, or anything numpy takes
    as one, such as a `FieldSample`. It holds one sample, or a block of b
    consecutive samples when every field is a (b, m, m) array (bit rule:
    `generator` module docstring); a block costs one write and one CRC-32
    update per field. DatasetFormatError is
    raised before any field of an item is written when its fields
    disagree on b or hold other than m^2 nodes per sample.

    The first item is taken before dir is touched, so an iterator that
    raises there leaves the dataset in dir as it was. Then an existing
    manifest.json is removed before any field file is touched: dir holds no
    manifest until the new one is complete, nor after a later item raises.
    A field file is overwritten in place, which spares the file system
    freeing and allocating it again, and cut to the written length on
    close, also when writing fails. Files an earlier dataset may have left
    that the new manifest does not cover are removed too: field files that
    another registered family stores and this one does not, and the
    basis_pool.npz pool cache of earlier versions. This is the one place,
    shared by every generate path, that decides which files a dataset
    directory holds.
    """
    samples = iter(samples)
    first = list(islice(samples, 1))
    out = Path(dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = manifest_seed
    names = manifest.field_names
    slab = manifest.nodes_per_sample

    (out / "manifest.json").unlink(missing_ok=True)
    registered = {name for fam in FAMILIES.values() for name in fam.field_names}
    stale = [f"{name}.f64" for name in sorted(registered - set(names))]
    for filename in stale + ["basis_pool.npz"]:
        (out / filename).unlink(missing_ok=True)
    crcs = {name: 0 for name in names}
    count = 0
    with ExitStack() as stack:
        handles = {}
        for name in names:
            fd = os.open(out / f"{name}.f64", os.O_WRONLY | os.O_CREAT, 0o666)
            handles[name] = stack.enter_context(open(fd, "wb"))
            stack.callback(handles[name].truncate)  # runs before the close
        for item in chain(first, samples):
            b, arrays = _item_arrays(item, names, slab)
            for name, arr in arrays.items():
                handles[name].write(arr)
                crcs[name] = zlib.crc32(arr, crcs[name])
            count += b

    manifest.num_samples = count
    manifest.field_files = {
        name: {
            "filename": f"{name}.f64",
            "byte_length": count * slab * 8,
            "crc32": crcs[name] & 0xFFFFFFFF,
        }
        for name in names
    }
    # atomically: a temporary file, then a rename
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    os.replace(tmp, out / "manifest.json")
    return manifest


def _item_arrays(item: dict, names: tuple, slab: int) -> tuple:
    """(b, field name -> (b, slab) little-endian float64 C-contiguous
    array) of one write_dataset item; b is 1 unless the fields are
    (b, m, m) arrays."""
    arrays = {}
    for name in names:
        arr = np.ascontiguousarray(item[name], dtype="<f8")
        b = arr.shape[0] if arr.ndim == 3 else 1
        if arr.size != b * slab:
            raise DatasetFormatError(
                f"field {name!r} of shape {arr.shape} does not hold {slab} "
                f"nodes per sample")
        arrays[name] = arr.reshape(b, slab)
    counts = {len(arr) for arr in arrays.values()}
    if len(counts) > 1:
        raise DatasetFormatError(
            "fields of one item hold different sample counts: " + ", ".join(
                f"{name} {len(arr)}" for name, arr in arrays.items()))
    return counts.pop(), arrays


class Dataset:
    """A dataset directory with a judged manifest, read lazily; its field
    bytes are checked against the manifest's CRC-32s as they are read
    (module docstring)."""

    def __init__(self, dir: os.PathLike, manifest: DatasetManifest):
        self.dir = Path(dir)
        self.manifest = manifest
        self.grid = Grid2D(manifest.grid_interior)
        self._checked = set()  # fields whose whole file matched its CRC-32

    def _path(self, field_name: str) -> Path:
        return self.dir / self.manifest.field_files[field_name]["filename"]

    def _check_crc(self, field_name: str, crc: int) -> None:
        """DatasetIntegrityError naming the field file unless crc, the
        CRC-32 of all of its bytes, is the manifest's."""
        entry = self.manifest.field_files[field_name]
        if crc != entry["crc32"]:
            raise DatasetIntegrityError(
                f"{entry['filename']}: crc32 {crc:#010x} != manifest "
                f"{entry['crc32']:#010x}")
        self._checked.add(field_name)

    def _read(self, fh, start: int, b: int) -> np.ndarray:
        """The b samples from sample start, as (b, m, m) node arrays, of an
        open field file: one seek and one readinto."""
        m = self.grid.n_nodes
        values = np.empty((b, m, m), dtype="<f8")
        fh.seek(start * values[0].nbytes)
        if fh.readinto(values) != values.nbytes:
            raise DatasetIntegrityError(
                f"{Path(fh.name).name} ends inside a sample")
        return values

    def field_sample(self, field_name: str, k: int) -> FieldSample:
        """Sample k of a field. The first read of a field CRCs its whole
        file (`checksum_field`) unless `blocks` has checked it, so a
        corrupt byte anywhere in it raises DatasetIntegrityError at any k."""
        if field_name not in self.manifest.field_names:
            raise DatasetFormatError(
                f"field {field_name!r} not in pde {self.manifest.pde!r}"
            )
        if not (0 <= k < self.manifest.num_samples):
            raise DatasetFormatError(f"sample index {k} out of range")
        if field_name not in self._checked:
            self._check_crc(field_name, checksum_field(self.dir, field_name))
        with open(self._path(field_name), "rb") as fh:
            return FieldSample(self.grid, self._read(fh, k, 1)[0])

    def blocks(self, size: int,
               worker: Callable = lambda start, block: block,
               run: Callable = map) -> Iterator:
        """worker(start, block) for every block of size consecutive samples
        from sample start (the last block may be shorter), yielded in
        order; a block is a dict of field name -> (b, m, m) node arrays,
        and the default worker yields the blocks themselves.

        run(task, items) calls task on each item and yields the results in
        order: `map` by default, or a runner that calls it on worker
        threads. Each task reads its block, one seek and one readinto per
        field under that file's lock, and CRCs its bytes on the thread
        that runs it, while they are in cache. Each field file is opened
        once. The calling thread folds the blocks' CRC-32s in order
        (`crc32_combine`); after the last block, DatasetIntegrityError
        names the first field file whose CRC-32 is not the manifest's. So a
        consumer that stops early has checked nothing: the bytes it was
        given may be corrupt. A file that ends inside a block raises
        DatasetIntegrityError at that block.

        Integrity comes first: when a task raises any other error, every
        field file is CRCed whole (`checksum_field`) and a mismatch raises
        DatasetIntegrityError in place of that error, since a corrupt byte
        may be its cause."""
        if size < 1:
            raise ValueError(f"block size must be >= 1, got {size}")
        total = self.manifest.num_samples
        names = self.manifest.field_names
        crcs = dict.fromkeys(names, 0)
        with ExitStack() as stack:
            files = {name: (stack.enter_context(open(self._path(name), "rb")),
                            threading.Lock()) for name in names}

            def task(start: int) -> tuple:
                b = min(size, total - start)
                block, block_crcs = {}, {}
                for name, (fh, lock) in files.items():
                    with lock:  # the seek and the read as one step
                        block[name] = values = self._read(fh, start, b)
                    block_crcs[name] = zlib.crc32(values)
                return worker(start, block), block_crcs, values.nbytes

            try:
                for result, block_crcs, nbytes in run(
                        task, range(0, total, size)):
                    for name in names:
                        crcs[name] = crc32_combine(crcs[name],
                                                   block_crcs[name], nbytes)
                    yield result
            except DatasetIntegrityError:
                raise
            except Exception:
                for name in names:
                    self._check_crc(name, checksum_field(self.dir, name))
                raise
        for name in names:
            self._check_crc(name, crcs[name])


def read_dataset(dir: os.PathLike) -> Dataset:
    """Open a dataset, judging its manifest and each field file's
    presence and length (module docstring); no field byte is read here."""
    out = Path(dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetIntegrityError(f"no manifest.json in {out}")
    try:  # ValueError covers both the UTF-8 and the JSON decode errors
        parsed = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"malformed manifest: {exc}") from exc
    manifest = DatasetManifest.from_dict(parsed)

    for name in manifest.field_names:
        entry = manifest.field_files[name]
        path = out / entry["filename"]
        if not path.is_file():
            raise DatasetIntegrityError(f"missing field file {path}")
        size = path.stat().st_size
        if size != entry["byte_length"]:
            raise DatasetIntegrityError(
                f"{path.name}: byte length {size}, manifest "
                f"{entry['byte_length']}")
    return Dataset(out, manifest)
