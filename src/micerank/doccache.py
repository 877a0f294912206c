"""Persistent store for precomputed frozen document states.

File layout (integers little-endian):

* magic ``MICEDOC1`` (8 bytes)
* version u32, hidden size u32, stream-split depth u32
* checkpoint hash (32 bytes): fingerprint of the producing weights
* document count u32
* index table, one entry per document: id length u32, id (utf-8),
  token count ``m`` u32, absolute payload offset u64
* payload region: per document ``(m + 1) * hidden`` floats, 32-bit
  little-endian, row-major

Payloads are always 32-bit regardless of compute precision (the cache is an
inference artifact; tests that need 64 bits bypass it). Opening reads the
header and index table through the checkpoint loader's bounded reader, so a
short file is refused before anything is allocated for it, and checks the
table: ids are unique, every document holds at least one token, and every
payload lies after the index, inside the file, and apart from every other
payload. Only then is the file mapped read-only for the payloads, so
concurrent reads are safe; lookups are lazy and O(1) via the offset table.
Writing is single-writer and atomic (temp file + rename).
"""

from __future__ import annotations

import logging
import mmap
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .checkpoint import _Reader, atomic_output
from .mice import DocState

__all__ = [
    "MAGIC",
    "VERSION",
    "CacheFormatError",
    "CacheMismatchError",
    "CacheHeader",
    "DocStateCache",
    "write_cache",
    "read_cache",
]

MAGIC = b"MICEDOC1"
VERSION = 1

_HEADER = struct.Struct("<8sIII32sI")

log = logging.getLogger(__name__)


class CacheFormatError(ValueError):
    """The file is not a valid document-state cache."""


class CacheMismatchError(RuntimeError):
    """The cache was produced by a different checkpoint than the consumer's."""


@dataclass(frozen=True)
class CacheHeader:
    version: int
    hidden: int
    split_depth: int
    checkpoint_hash: bytes
    doc_count: int


def write_cache(
    path,
    states: Sequence[DocState] | Iterable[DocState],
    hidden: int,
    split_depth: int,
    checkpoint_hash: bytes,
) -> None:
    """Persist document states; replaces ``path`` atomically on success."""
    states = list(states)
    if len(checkpoint_hash) != 32:
        raise ValueError("checkpoint_hash must be a 32-byte digest")
    seen: set[str] = set()
    for doc in states:
        if doc.states.shape[1] != hidden:
            raise ValueError(
                f"document {doc.doc_id!r} has width {doc.states.shape[1]}, cache expects {hidden}"
            )
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc id {doc.doc_id!r}")
        seen.add(doc.doc_id)
    ids = [doc.doc_id.encode("utf-8") for doc in states]
    index_size = sum(4 + len(raw) + 4 + 8 for raw in ids)
    offset = _HEADER.size + index_size
    entries = []
    for doc, raw in zip(states, ids):
        entries.append((raw, doc.m, offset))
        offset += (doc.m + 1) * hidden * 4

    with atomic_output(path) as out:
        out.write(_HEADER.pack(MAGIC, VERSION, hidden, split_depth, checkpoint_hash, len(states)))
        for raw, m, off in entries:
            out.write(struct.pack("<I", len(raw)))
            out.write(raw)
            out.write(struct.pack("<IQ", m, off))
        for doc in states:
            out.write(np.ascontiguousarray(doc.states, dtype="<f4").tobytes())


class DocStateCache:
    """Read view over a cache file; lazy per-document lookups by id."""

    def __init__(self, path, header: CacheHeader, index: dict, mm: mmap.mmap):
        self.path = Path(path)
        self.header = header
        self._index = index
        self._mm = mm

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._index

    def doc_ids(self) -> list[str]:
        return list(self._index)

    def get(self, doc_id: str) -> DocState:
        try:
            m, offset = self._index[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc id {doc_id!r} in cache {self.path}") from None
        count = (m + 1) * self.header.hidden
        states = np.frombuffer(self._mm, dtype="<f4", count=count, offset=offset)
        states = states.reshape(m + 1, self.header.hidden).copy()
        states.setflags(write=False)
        return DocState(
            doc_id=doc_id,
            states=states,
            m=m,
            checkpoint_hash=self.header.checkpoint_hash,
        )

    def close(self) -> None:
        self._mm.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _check_payloads(path, index: dict, payload_start: int, hidden: int) -> None:
    """Every payload lies after the index table and no two overlap."""
    previous, previous_end = None, payload_start
    for offset, end, doc_id in sorted(
        (offset, offset + (m + 1) * hidden * 4, doc_id) for doc_id, (m, offset) in index.items()
    ):
        if offset < previous_end and previous is None:
            raise CacheFormatError(
                f"{path}: payload of {doc_id!r} starts inside the header or index table "
                f"(offset {offset}, index ends at {payload_start})"
            )
        if offset < previous_end:
            raise CacheFormatError(f"{path}: payloads of {previous!r} and {doc_id!r} overlap")
        previous, previous_end = doc_id, end


def read_cache(path, expected_hash: bytes | None = None, strict: bool = True) -> DocStateCache:
    """Open a cache for lazy lookups.

    When ``expected_hash`` is given it is compared against the stored
    checkpoint hash: a mismatch raises :class:`CacheMismatchError` in strict
    mode and logs a warning otherwise.
    """
    path = Path(path)
    with open(path, "rb") as f:
        r = _Reader(f, path, CacheFormatError)
        magic, *fields = _HEADER.unpack(r.take(_HEADER.size))
        header = CacheHeader(*fields)
        if magic != MAGIC:
            raise CacheFormatError(f"{path} is not a document cache (bad magic)")
        if header.version != VERSION:
            raise CacheFormatError(
                f"{path} has unsupported cache version {header.version} (expected {VERSION})"
            )
        hidden, ckpt_hash = header.hidden, header.checkpoint_hash
        index: dict[str, tuple[int, int]] = {}
        for _ in range(header.doc_count):
            doc_id = r.take(r.u32()).decode("utf-8")
            m, offset = struct.unpack("<IQ", r.take(12))
            if m == 0:
                raise CacheFormatError(f"{path}: document {doc_id!r} holds no tokens")
            if offset + (m + 1) * hidden * 4 > r.size:
                raise CacheFormatError(f"{path}: payload of {doc_id!r} runs past end of file")
            if doc_id in index:
                raise CacheFormatError(f"{path}: duplicate doc id {doc_id!r} in index table")
            index[doc_id] = (m, offset)
        _check_payloads(path, index, r.off, hidden)
        if expected_hash is not None and expected_hash != ckpt_hash:
            message = (
                f"cache {path} was produced by a different checkpoint "
                f"(stored {ckpt_hash.hex()[:12]}..., expected {expected_hash.hex()[:12]}...)"
            )
            if strict:
                raise CacheMismatchError(message)
            log.warning("%s", message)
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return DocStateCache(path, header, index, mm)
