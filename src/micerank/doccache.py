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
inference artifact; tests that need 64 bits bypass it). They lie end to end
in index order: the first starts where the index table ends, each next one
where the one before it ends, and the last ends at the end of the file. The
writer and the reader derive these offsets with one helper.

Opening reads the header and index table through the checkpoint loader's
bounded reader, so a short file is refused before anything is allocated for
it, and checks the table in linear time: ids are unique, every document holds
at least one token, and every stored offset is where the layout puts it, so a
misplaced, overlapping or truncated payload and trailing bytes are refused
with :class:`CacheFormatError`. A cache of another checkpoint than the one
expected raises :class:`.mice.ConsistencyError`, the one error for states
and weights that do not belong together. Only then is the file mapped
read-only for the payloads, so concurrent reads are safe; lookups are lazy
and O(1) via the offset table. Writing is single-writer and atomic (temp file
+ rename).
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .checkpoint import _Reader, atomic_output
from .mice import ConsistencyError, DocState

__all__ = [
    "MAGIC",
    "VERSION",
    "CacheFormatError",
    "CacheHeader",
    "DocStateCache",
    "write_cache",
    "read_cache",
]

MAGIC = b"MICEDOC1"
VERSION = 1

_HEADER = struct.Struct("<8sIII32sI")


class CacheFormatError(ValueError):
    """The file is not a valid document-state cache."""


@dataclass(frozen=True)
class CacheHeader:
    version: int
    hidden: int
    split_depth: int
    checkpoint_hash: bytes
    doc_count: int


def _payload_offsets(index_end: int, counts: Sequence[int], hidden: int) -> list[int]:
    """Where each payload of ``counts`` token counts starts when the payloads
    lie end to end in index order from ``index_end``, then where the last
    one ends."""
    return list(accumulate(((m + 1) * hidden * 4 for m in counts), initial=index_end))


def write_cache(
    path,
    states: Sequence[DocState] | Iterable[DocState],
    hidden: int,
    split_depth: int,
    checkpoint_hash: bytes,
) -> None:
    """Persist document states; replaces ``path`` atomically on success.

    Every state must fit ``checkpoint_hash`` and ``hidden``
    (:meth:`.mice.DocState.check_fits`), since the cache hands each one out
    stamped with ``checkpoint_hash``; an unstamped state takes that stamp."""
    states = list(states)
    if len(checkpoint_hash) != 32:
        raise ValueError("checkpoint_hash must be a 32-byte digest")
    seen: set[str] = set()
    for doc in states:
        doc.check_fits(checkpoint_hash, hidden)
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc id {doc.doc_id!r}")
        seen.add(doc.doc_id)
    ids = [doc.doc_id.encode("utf-8") for doc in states]
    index_end = _HEADER.size + sum(4 + len(raw) + 4 + 8 for raw in ids)
    offsets = _payload_offsets(index_end, [doc.m for doc in states], hidden)

    with atomic_output(path) as out:
        out.write(_HEADER.pack(MAGIC, VERSION, hidden, split_depth, checkpoint_hash, len(states)))
        for raw, doc, offset in zip(ids, states, offsets):
            out.write(struct.pack("<I", len(raw)))
            out.write(raw)
            out.write(struct.pack("<IQ", doc.m, offset))
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
        return DocState(doc_id=doc_id, states=states, checkpoint_hash=self.header.checkpoint_hash)

    def close(self) -> None:
        self._mm.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_cache(path, expected_hash: bytes | None = None) -> DocStateCache:
    """Open a cache for lazy lookups.

    The header and index table are checked as the module docstring says; a
    malformed file raises :class:`CacheFormatError`. When
    ``expected_hash`` is given, a cache stamped with another checkpoint hash
    raises :class:`.mice.ConsistencyError`, naming the path and both digests.
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
        stored = header.checkpoint_hash
        if expected_hash is not None and expected_hash != stored:
            raise ConsistencyError(
                f"cache {path} was produced by a different checkpoint "
                f"(stored {stored.hex()[:12]}..., expected {expected_hash.hex()[:12]}...)"
            )
        index: dict[str, tuple[int, int]] = {}
        for _ in range(header.doc_count):
            doc_id = r.name("doc id")
            m, offset = struct.unpack("<IQ", r.take(12))
            if m == 0:
                raise CacheFormatError(f"{path}: document {doc_id!r} holds no tokens")
            if doc_id in index:
                raise CacheFormatError(f"{path}: duplicate doc id {doc_id!r} in index table")
            index[doc_id] = (m, offset)
        *starts, end = _payload_offsets(r.off, [m for m, _ in index.values()], header.hidden)
        before = "the index table"
        for (doc_id, (_, offset)), start in zip(index.items(), starts):
            if offset != start:
                raise CacheFormatError(
                    f"{path}: payload of {doc_id!r} is stored at offset {offset}, "
                    f"not at {start}, where {before} ends"
                )
            before = f"the payload of {doc_id!r}"
        if end > r.size:
            raise CacheFormatError(f"{path}: payload of {next(reversed(index))!r} runs past "
                                   "end of file")
        if end < r.size:
            raise CacheFormatError(f"{path} has {r.size - end} trailing bytes")
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return DocStateCache(path, header, index, mm)
