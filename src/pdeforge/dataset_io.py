"""Bit-exact dataset serialization: raw binary64 field files + JSON manifest.

Layout contract: one `<name>.f64` file per field, IEEE-754 binary64
little-endian, sample-major then row-major over the (n+2) x (n+2) node set
including boundary. `manifest.json` is written last via atomic rename, so a
crashed write never leaves a readable dataset.

`write_dataset` takes a stream of items. An item holds one sample, or a
block of b consecutive samples as (b, m, m) arrays, which operator-action
generation emits; the bytes on disk are the same either way, and a block
costs one write and one CRC-32 update per field.

Reading mirrors it: `Dataset.blocks(size)` yields size consecutive
samples at a time as (b, m, m) arrays, one `readinto` per field and
block, which verification reads; `Dataset.samples()` is its one-sample
view, and `Dataset.field_sample` reads one sample of one field.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .families import FAMILIES
from .grid import FieldSample, Grid2D

FORMAT_VERSION = 1
CHECKSUM_CHUNK = 1 << 20  # bytes per read in checksum_field

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
    format_version: int = FORMAT_VERSION
    dtype: str = "float64-le"
    layout: str = "sample-major,row-major-nodes-including-boundary"

    @property
    def field_names(self) -> tuple:
        if self.pde not in FAMILIES:
            raise DatasetFormatError(f"unknown pde tag {self.pde!r}")
        return FAMILIES[self.pde].field_names

    @property
    def nodes_per_sample(self) -> int:
        return (self.grid_interior + 2) ** 2

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "pde": self.pde,
            "grid_interior": self.grid_interior,
            "num_samples": self.num_samples,
            "method": self.method,
            "dtype": self.dtype,
            "layout": self.layout,
            "field_files": self.field_files,
            "generation": self.generation,
            "skipped_samples": self.skipped_samples,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        version = d.get("format_version")
        if version != FORMAT_VERSION:
            raise DatasetFormatError(
                f"unsupported manifest format_version {version!r}, "
                f"expected {FORMAT_VERSION}"
            )
        return cls(
            pde=d["pde"],
            grid_interior=d["grid_interior"],
            num_samples=d["num_samples"],
            method=d["method"],
            field_files=d.get("field_files", {}),
            generation=d.get("generation", {}),
            skipped_samples=d.get("skipped_samples", []),
        )


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


def write_dataset(
    dir: os.PathLike,
    samples: Iterable[dict],
    manifest_seed: DatasetManifest,
) -> DatasetManifest:
    """Stream items to disk; returns the completed manifest.

    An item is a dict of field name -> FieldSample or node array. It holds
    one sample, or a block of b consecutive samples when every field is a
    (b, m, m) array; a block costs one write and one CRC-32 update per
    field. DatasetFormatError is raised before any field of an item is
    written when its fields disagree on b or hold other than m^2 nodes per
    sample.

    An existing manifest.json is removed before any field file is touched,
    so the directory holds no manifest until the new one is complete. Files
    an earlier dataset may have left that the new manifest does not cover
    are removed too: field files that another registered family stores and
    this one does not, and the basis_pool.npz pool cache of earlier
    versions. This is the one place, shared by every generate path, that
    decides which files a dataset directory holds.
    """
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
    handles = {name: open(out / f"{name}.f64", "wb") for name in names}
    crcs = {name: 0 for name in names}
    count = 0
    try:
        for item in samples:
            b, arrays = _item_arrays(item, names, slab)
            for name, arr in arrays.items():
                handles[name].write(arr)
                crcs[name] = zlib.crc32(arr, crcs[name])
            count += b
    finally:
        for fh in handles.values():
            fh.close()

    manifest.num_samples = count
    manifest.field_files = {
        name: {
            "filename": f"{name}.f64",
            "byte_length": count * slab * 8,
            "crc32": crcs[name] & 0xFFFFFFFF,
        }
        for name in names
    }
    return write_manifest(out, manifest)


def _item_arrays(item: dict, names: tuple, slab: int) -> tuple:
    """(b, field name -> (b, slab) little-endian float64 C-contiguous
    array) of one write_dataset item; b is 1 unless the fields are
    (b, m, m) arrays."""
    arrays = {}
    for name in names:
        value = item[name]
        arr = value.values if isinstance(value, FieldSample) else value
        arr = np.ascontiguousarray(arr, dtype="<f8")
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


def write_manifest(dir: os.PathLike, manifest: DatasetManifest) -> DatasetManifest:
    """Write manifest.json atomically: a temporary file, then a rename."""
    tmp = Path(dir) / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True))
    os.replace(tmp, Path(dir) / "manifest.json")
    return manifest


class Dataset:
    """Validated, lazily-read dataset directory."""

    def __init__(self, dir: os.PathLike, manifest: DatasetManifest):
        self.dir = Path(dir)
        self.manifest = manifest
        self.grid = Grid2D(manifest.grid_interior)

    def _path(self, field_name: str) -> Path:
        return self.dir / self.manifest.field_files[field_name]["filename"]

    def _read_block(self, fh, b: int) -> np.ndarray:
        """The next b samples, as (b, m, m) node arrays, of a field file
        open at a sample boundary."""
        m = self.grid.n_nodes
        values = np.empty((b, m, m), dtype="<f8")
        if fh.readinto(values) != values.nbytes:
            raise DatasetIntegrityError(
                f"{Path(fh.name).name} ends inside a sample")
        return values

    def field_sample(self, field_name: str, k: int) -> FieldSample:
        if field_name not in self.manifest.field_names:
            raise DatasetFormatError(
                f"field {field_name!r} not in pde {self.manifest.pde!r}"
            )
        if not (0 <= k < self.manifest.num_samples):
            raise DatasetFormatError(f"sample index {k} out of range")
        with open(self._path(field_name), "rb") as fh:
            fh.seek(k * self.manifest.nodes_per_sample * 8)
            return FieldSample(self.grid, self._read_block(fh, 1)[0])

    def blocks(self, size: int) -> Iterator[dict]:
        """Every sample in order, size consecutive samples at a time (the
        last block may be shorter): dicts of field name -> (b, m, m) node
        arrays. Each field file is opened once, and each block of a field
        is one read."""
        if size < 1:
            raise ValueError(f"block size must be >= 1, got {size}")
        total = self.manifest.num_samples
        with ExitStack() as stack:
            handles = {name: stack.enter_context(open(self._path(name), "rb"))
                       for name in self.manifest.field_names}
            for start in range(0, total, size):
                b = min(size, total - start)
                yield {name: self._read_block(fh, b)
                       for name, fh in handles.items()}

    def samples(self) -> Iterator[dict]:
        """Every sample in order, as dicts of field name -> FieldSample:
        `blocks` one sample at a time."""
        for block in self.blocks(1):
            yield {name: FieldSample(self.grid, values[0])
                   for name, values in block.items()}


def read_dataset(dir: os.PathLike) -> Dataset:
    """Load a dataset, validating lengths and CRCs eagerly."""
    out = Path(dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetIntegrityError(f"no manifest.json in {out}")
    try:
        manifest = DatasetManifest.from_dict(json.loads(manifest_path.read_text()))
    except (json.JSONDecodeError, KeyError) as exc:
        raise DatasetFormatError(f"malformed manifest: {exc}") from exc

    slab = manifest.nodes_per_sample
    for name in manifest.field_names:
        if name not in manifest.field_files:
            raise DatasetFormatError(f"manifest missing field file entry {name!r}")
        entry = manifest.field_files[name]
        path = out / entry["filename"]
        if not path.is_file():
            raise DatasetIntegrityError(f"missing field file {path}")
        size = path.stat().st_size
        expected = manifest.num_samples * slab * 8
        if size != expected or entry["byte_length"] != expected:
            raise DatasetIntegrityError(
                f"{path.name}: byte length {size}, manifest "
                f"{entry['byte_length']}, expected {expected}"
            )
        crc = checksum_field(out, name)
        if crc != entry["crc32"]:
            raise DatasetIntegrityError(
                f"{path.name}: crc32 {crc:#010x} != manifest "
                f"{entry['crc32']:#010x} (corruption within first "
                f"{size} bytes)"
            )
    return Dataset(out, manifest)
