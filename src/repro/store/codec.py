"""Compact binary record codec for the artifact store.

One ``.bin`` file is a sequence of named sections behind a magic/version
header.  Two section kinds cover everything the store needs outside the
numpy buffers: int64 arrays (timetable numbers, station-graph CSR) and
utf-8 string lists (station/train names).  The format is deliberately
dumb — no compression, no alignment games, little-endian throughout —
so a record can be read with nothing but ``struct`` and ``numpy`` and
survives byte-for-byte comparison across platforms.

Layout::

    magic   8 bytes  b"RPROBIN\\x01"
    u32     section count
    per section:
        u16 + utf-8   section name
        u8            kind (0 = int64 array, 1 = string list)
        kind 0:       u64 element count, then count * 8 bytes (<i8)
        kind 1:       u64 item count, count * u32 byte lengths, then
                      the concatenated utf-8 payloads (one blob, so a
                      100k-name list reads as two bulk slices instead
                      of 100k tiny ones)

:func:`write_record` / :func:`read_record` map a ``dict[str, value]``
(values: 1-D int64 ``np.ndarray`` or ``list[str]``) to and from disk.
:class:`HeldRecord` is the lazy reader: it holds the file open, walks
every section header at once and decodes a section only when asked.
Corrupt or truncated input raises :class:`CodecError`.
"""

from __future__ import annotations

import os
import struct
import weakref
from pathlib import Path

import numpy as np

MAGIC = b"RPROBIN\x01"

_KIND_INT64 = 0
_KIND_STRINGS = 1


class CodecError(ValueError):
    """Raised for malformed binary records (bad magic, truncation,
    unknown section kinds)."""


def write_record(path: str | Path, sections: dict) -> None:
    """Write named sections to ``path`` (see module doc for the layout).

    ``sections`` values must be 1-D integer arrays (anything
    ``np.asarray`` can coerce to int64) or lists of strings.
    """
    chunks: list[bytes] = [MAGIC, struct.pack("<I", len(sections))]
    for name, value in sections.items():
        encoded_name = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded_name)))
        chunks.append(encoded_name)
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            encoded = [item.encode("utf-8") for item in value]
            chunks.append(struct.pack("<BQ", _KIND_STRINGS, len(encoded)))
            chunks.append(
                np.asarray([len(e) for e in encoded], dtype="<u4").tobytes()
            )
            chunks.append(b"".join(encoded))
        else:
            array = np.ascontiguousarray(value, dtype="<i8")
            if array.ndim != 1:
                raise CodecError(
                    f"section {name!r} must be 1-D, got shape {array.shape}"
                )
            chunks.append(struct.pack("<BQ", _KIND_INT64, array.size))
            chunks.append(array.tobytes())
    Path(path).write_bytes(b"".join(chunks))


class HeldRecord:
    """A record file held open, decoded section by section.

    Opening it walks every section header — so a bad magic, a
    truncation, an unknown kind or trailing bytes are refused here, at
    once — and decodes nothing; :meth:`get` decodes one section.  Every
    read goes through the descriptor opened here (``os.pread``), never
    the path again, so a file replaced on disk afterwards
    (``os.replace``) is still read as it was when opened; and a read
    maps no page of the file into the process, as a memory map would
    (64 KiB or more around every byte touched).  The descriptor closes
    with :meth:`close` or when the object is collected.
    """

    def __init__(self, path: str | Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        self._fd = fd
        self._closer = weakref.finalize(self, os.close, fd)
        size = os.fstat(fd).st_size
        offset = 0

        def skip(count: int) -> int:
            nonlocal offset
            if offset + count > size:
                raise CodecError(f"{path}: truncated record")
            offset += count
            return offset - count

        def take(count: int) -> bytes:
            return os.pread(fd, count, skip(count))

        try:
            if os.pread(fd, len(MAGIC), 0) != MAGIC:
                raise CodecError(f"{path}: bad magic (not a repro store record)")
            offset = len(MAGIC)
            #: Per section name: ``(kind, count, offset of its payload)``.
            self._sections: dict[str, tuple[int, int, int]] = {}
            (num_sections,) = struct.unpack("<I", take(4))
            for _ in range(num_sections):
                (name_len,) = struct.unpack("<H", take(2))
                name = take(name_len).decode("utf-8")
                (kind,) = struct.unpack("<B", take(1))
                if kind not in (_KIND_INT64, _KIND_STRINGS):
                    raise CodecError(f"{path}: unknown section kind {kind}")
                (count,) = struct.unpack("<Q", take(8))
                self._sections[name] = (kind, count, offset)
                if kind == _KIND_INT64:
                    skip(count * 8)
                else:
                    lengths = np.frombuffer(take(count * 4), dtype="<u4")
                    skip(int(lengths.sum(dtype=np.int64)))
            if offset != size:
                raise CodecError(f"{path}: {size - offset} trailing bytes")
        except BaseException:
            self.close()
            raise

    def __iter__(self):
        return iter(self._sections)

    def close(self) -> None:
        self._closer()

    def get(self, name: str):
        """Section ``name`` decoded: a read-only int64 array or a list
        of strings."""
        kind, count, offset = self._sections[name]
        if kind == _KIND_STRINGS:
            lengths = os.pread(self._fd, count * 4, offset)
            total = int(np.frombuffer(lengths, dtype="<u4").sum(dtype=np.int64))
            blob = os.pread(self._fd, total, offset + count * 4)
            return decode_strings(lengths, blob)
        raw = os.pread(self._fd, count * 8, offset)
        return np.frombuffer(raw, dtype="<i8").astype(np.int64, copy=False)


def decode_strings(lengths: bytes, blob: bytes) -> list[str]:
    """A string section's items: ``lengths`` (u32 byte lengths) cut
    ``blob`` into utf-8 strings."""
    items: list[str] = []
    pos = 0
    for item_len in np.frombuffer(lengths, dtype="<u4").tolist():
        items.append(blob[pos : pos + item_len].decode("utf-8"))
        pos += item_len
    return items


def read_record(path: str | Path) -> dict:
    """Read back every section of a record written by
    :func:`write_record`."""
    record = HeldRecord(path)
    try:
        return {name: record.get(name) for name in record}
    finally:
        record.close()
