"""The versioned, mmap-able binary container every store file uses.

A store file is a **header followed by 64-byte-aligned little-endian
sections**.  The fixed prefix is::

    bytes 0..7    magic  b"REPROIDX"
    bytes 8..9    format version, uint16 little-endian
    bytes 10..11  reserved (zero)
    bytes 12..15  header-table length in bytes, uint32 little-endian
    bytes 16..    header table: UTF-8 JSON (kind, metadata, section table)

Section payloads start at ``align64(16 + header_len)`` and each section is
padded to a 64-byte boundary, so every section can be handed to
``np.memmap`` directly — opening a store touches the header pages only,
and array pages fault in lazily on first access.  The section table
records, per section: dtype (numpy string, always little-endian), shape,
and offset/length relative to the payload start.  Every section is the
array's raw bytes, so its length is always ``prod(shape) * itemsize``.

Sections are zero-copy: :meth:`Store.array` returns an ``np.memmap`` view,
so N processes opening the same file share one physical copy through the
page cache.

:class:`FormatError` is the single failure type for anything wrong with a
persisted payload — bad magic, unknown version, truncated data.  It
subclasses ``ValueError`` so pre-existing callers that caught
``ValueError`` keep working.
"""

from __future__ import annotations

import json
import math
import os
import struct
import uuid
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "FormatError",
    "MAGIC",
    "FORMAT_VERSION",
    "ALIGNMENT",
    "STORE_SUFFIX",
    "Section",
    "Store",
    "write_store",
]

#: File magic: the first bytes of every store file.
MAGIC = b"REPROIDX"
#: Current (and only) store format version.
FORMAT_VERSION = 1
#: Section payload alignment in bytes.
ALIGNMENT = 64
#: Conventional file suffix for store files (``write_store`` accepts any).
STORE_SUFFIX = ".repro"

_PREFIX = struct.Struct("<8sHHI")


class FormatError(ValueError):
    """A persisted index/graph payload is malformed or unsupported."""


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _little_endian_dtype(dtype: np.dtype) -> str:
    """Numpy dtype string pinned to little-endian (or endian-free)."""
    if dtype.byteorder == ">":
        raise FormatError("store sections must be little-endian")
    return dtype.newbyteorder("<").str if dtype.byteorder == "=" else dtype.str


@dataclass(frozen=True)
class Section:
    """One entry of the header's section table."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    #: byte offset relative to the payload start (64-byte aligned).
    offset: int
    #: byte count, always ``prod(shape) * itemsize``.
    nbytes: int

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "Section":
        try:
            section = cls(
                name=str(payload["name"]),
                dtype=str(payload["dtype"]),
                shape=tuple(int(d) for d in payload["shape"]),
                offset=int(payload["offset"]),
                nbytes=int(payload["nbytes"]),
            )
        except KeyError as exc:  # pragma: no cover - header built by us
            raise FormatError(f"section table entry missing {exc}") from exc
        # A section is mapped as its raw bytes: an encoded payload (a
        # ``codec`` entry) or a length that disagrees with the shape would
        # otherwise be read as an array running into the next section.
        try:
            itemsize = np.dtype(section.dtype).itemsize
        except TypeError:
            itemsize = -1
        if (
            payload.get("codec") is not None
            or section.nbytes != math.prod(section.shape) * itemsize
        ):
            raise FormatError(
                f"section {section.name!r} is not a raw {section.dtype} array"
            )
        return section


def write_store(
    path: str | os.PathLike[str],
    kind: str,
    meta: dict[str, Any],
    sections: list[tuple[str, np.ndarray]],
) -> None:
    """Write a store file: ``sections`` is ``(name, array)`` pairs.

    Each array is written as contiguous little-endian bytes at a 64-byte
    aligned offset.  ``meta`` must be JSON-serializable and is returned
    verbatim by :attr:`Store.meta`.  The file is written under a temporary
    name in the same directory and renamed onto ``path`` only once
    complete, so an interrupted write never leaves a partial file under
    ``path`` (and never truncates a file another reader has mapped).
    """
    table: list[Section] = []
    payloads: list[np.ndarray] = []
    offset = 0
    for name, array in sections:
        array = np.ascontiguousarray(array)
        dtype = _little_endian_dtype(array.dtype)
        table.append(
            Section(
                name=name, dtype=dtype, shape=tuple(array.shape),
                offset=offset, nbytes=array.nbytes,
            )
        )
        payloads.append(array.astype(dtype, copy=False))
        offset = _align(offset + array.nbytes)

    header = json.dumps(
        {"kind": kind, "meta": meta, "sections": [s.to_json() for s in table]},
        separators=(",", ":"),
    ).encode("utf-8")
    data_start = _align(_PREFIX.size + len(header))
    path = os.fspath(path)
    partial = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(partial, "xb") as handle:
            handle.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, 0, len(header)))
            handle.write(header)
            handle.write(b"\0" * (data_start - _PREFIX.size - len(header)))
            position = 0
            for section, payload in zip(table, payloads):
                handle.write(b"\0" * (section.offset - position))
                handle.write(memoryview(payload).cast("B"))
                position = section.offset + section.nbytes
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.unlink(partial)
        raise


class Store:
    """Reader over one store file: header eagerly, sections lazily.

    Opening parses the fixed prefix and the JSON header table; no section
    bytes are read.  :meth:`array` maps sections with ``np.memmap``
    (page-fault-lazy, shared across processes through the page cache).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as handle:
            prefix = handle.read(_PREFIX.size)
            if len(prefix) < _PREFIX.size:
                raise FormatError(f"{self.path}: truncated store header")
            magic, version, _reserved, header_len = _PREFIX.unpack(prefix)
            if magic != MAGIC:
                raise FormatError(f"{self.path}: not a repro store file")
            if version != FORMAT_VERSION:
                raise FormatError(
                    f"{self.path}: unsupported store format version {version} "
                    f"(this build reads version {FORMAT_VERSION})"
                )
            header = handle.read(header_len)
            if len(header) < header_len:
                raise FormatError(f"{self.path}: truncated store header table")
        try:
            parsed = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{self.path}: corrupt store header table") from exc
        self.kind: str = str(parsed.get("kind", ""))
        self.meta: dict[str, Any] = dict(parsed.get("meta", {}))
        try:
            sections = [Section.from_json(s) for s in parsed["sections"]]
        except FormatError as exc:
            raise FormatError(f"{self.path}: {exc}") from None
        self._sections: dict[str, Section] = {s.name: s for s in sections}
        self._data_start = _align(_PREFIX.size + header_len)
        self._file_size = os.path.getsize(self.path)

    # ------------------------------------------------------------------
    # Section access
    # ------------------------------------------------------------------
    def section_names(self) -> list[str]:
        return list(self._sections)

    def __contains__(self, name: str) -> bool:
        return name in self._sections

    def section(self, name: str) -> Section:
        try:
            return self._sections[name]
        except KeyError:
            raise FormatError(f"{self.path}: no section {name!r}") from None

    def file_offset(self, name: str) -> int:
        """Absolute byte offset of a section's payload within the file."""
        return self._data_start + self.section(name).offset

    def array(self, name: str) -> np.ndarray:
        """The section as a read-only ``np.memmap`` view over the file."""
        section = self.section(name)
        start = self.file_offset(name)
        if start + section.nbytes > self._file_size:
            raise FormatError(
                f"{self.path}: section {name!r} extends past end of file"
            )
        dtype = np.dtype(section.dtype)
        if section.nbytes == 0:
            return np.empty(section.shape, dtype=dtype)
        return np.memmap(
            self.path, mode="r", dtype=dtype, shape=section.shape, offset=start
        )

    def __repr__(self) -> str:
        return (
            f"Store({self.path!r}, kind={self.kind!r}, "
            f"sections={len(self._sections)})"
        )
