"""Document-state cache: round-trip fidelity, the exact byte layout, and the
integrity guards."""

import struct

import numpy as np
import pytest

from micerank.doccache import (
    MAGIC,
    VERSION,
    CacheFormatError,
    CacheMismatchError,
    read_cache,
    write_cache,
)
from micerank.mice import DocState

HASH = bytes(range(32))


def hand_built_cache(path, entries, hidden=8, payload_bytes=None):
    """Write a cache file byte by byte from index rows (doc id, m, offset),
    where each offset is taken relative to the end of the index table and
    stored as given; the payload region holds ``payload_bytes`` zero bytes
    (default: up to the end of the last payload)."""
    start = struct.calcsize("<8sIII32sI") + sum(4 + len(d.encode()) + 12 for d, _, _ in entries)
    header = struct.pack("<8sIII32sI", MAGIC, VERSION, hidden, 1, HASH, len(entries))
    index = b"".join(
        struct.pack("<I", len(d.encode())) + d.encode() + struct.pack("<IQ", m, start + rel)
        for d, m, rel in entries
    )
    if payload_bytes is None:
        payload_bytes = max(rel + (m + 1) * hidden * 4 for _, m, rel in entries)
    path.write_bytes(header + index + bytes(payload_bytes))


def make_state(doc_id: str, m: int, seed: int = 0, d: int = 8) -> DocState:
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((m + 1, d)).astype(np.float32)
    return DocState(doc_id=doc_id, states=states, m=m, checkpoint_hash=HASH)


class TestRoundTrip:
    def test_single_doc_bit_identical(self, tmp_path):
        doc = make_state("doc-1", 5)
        path = tmp_path / "cache.bin"
        write_cache(path, [doc], hidden=8, split_depth=3, checkpoint_hash=HASH)
        with read_cache(path) as cache:
            assert len(cache) == 1
            back = cache.get("doc-1")
            assert back.states.tobytes() == doc.states.tobytes()
            assert back.m == 5
            assert back.checkpoint_hash == HASH

    def test_many_docs_lazy_lookup(self, tmp_path):
        docs = [make_state(f"d{i}", m=i + 1, seed=i) for i in range(10)]
        path = tmp_path / "cache.bin"
        write_cache(path, docs, hidden=8, split_depth=2, checkpoint_hash=HASH)
        with read_cache(path) as cache:
            assert cache.doc_ids() == [f"d{i}" for i in range(10)]
            for doc in reversed(docs):  # access order independent of storage order
                got = cache.get(doc.doc_id)
                assert got.states.tobytes() == doc.states.tobytes()

    def test_header_fields(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 2)], hidden=8, split_depth=4, checkpoint_hash=HASH)
        with read_cache(path) as cache:
            assert cache.header.version == VERSION
            assert cache.header.hidden == 8
            assert cache.header.split_depth == 4
            assert cache.header.doc_count == 1

    def test_float64_states_stored_as_f32(self, tmp_path):
        rng = np.random.default_rng(3)
        states = rng.standard_normal((4, 8))  # float64 on purpose
        doc = DocState(doc_id="x", states=states, m=3, checkpoint_hash=HASH)
        path = tmp_path / "cache.bin"
        write_cache(path, [doc], hidden=8, split_depth=1, checkpoint_hash=HASH)
        with read_cache(path) as cache:
            back = cache.get("x")
            assert back.states.dtype == np.float32
            np.testing.assert_array_equal(back.states, states.astype(np.float32))


class TestByteLayout:
    def test_layout_parsed_by_independent_reader(self, tmp_path):
        """Parse the file with raw struct calls; three docs of lengths 1, 4, 7."""
        docs = [make_state("a", 1, seed=1), make_state("bb", 4, seed=2), make_state("ccc", 7, seed=3)]
        path = tmp_path / "cache.bin"
        write_cache(path, docs, hidden=8, split_depth=2, checkpoint_hash=HASH)
        blob = path.read_bytes()

        magic, version, hidden, split, chash, count = struct.unpack_from("<8sIII32sI", blob, 0)
        assert magic == MAGIC
        assert (version, hidden, split, count) == (VERSION, 8, 2, 3)
        assert chash == HASH

        pos = struct.calcsize("<8sIII32sI")
        index = []
        for _ in range(count):
            (id_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            doc_id = blob[pos : pos + id_len].decode()
            pos += id_len
            m, offset = struct.unpack_from("<IQ", blob, pos)
            pos += 12
            index.append((doc_id, m, offset))

        assert [(d, m) for d, m, _ in index] == [("a", 1), ("bb", 4), ("ccc", 7)]
        # payload region starts right after the index and is densely packed
        expect_offset = pos
        for doc, (_, m, offset) in zip(docs, index):
            assert offset == expect_offset
            nbytes = (m + 1) * 8 * 4
            assert blob[offset : offset + nbytes] == doc.states.tobytes()
            expect_offset += nbytes
        assert expect_offset == len(blob)


class TestGuards:
    def test_wrong_hash_strict_raises(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 2)], hidden=8, split_depth=1, checkpoint_hash=HASH)
        with pytest.raises(CacheMismatchError):
            read_cache(path, expected_hash=bytes(32), strict=True)

    def test_wrong_hash_lenient_warns(self, tmp_path, caplog):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 2)], hidden=8, split_depth=1, checkpoint_hash=HASH)
        with caplog.at_level("WARNING"):
            with read_cache(path, expected_hash=bytes(32), strict=False) as cache:
                assert "different checkpoint" in caplog.text
                assert cache.get("a").m == 2

    def test_matching_hash_accepted(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 2)], hidden=8, split_depth=1, checkpoint_hash=HASH)
        with read_cache(path, expected_hash=HASH, strict=True) as cache:
            assert "a" in cache

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + bytes(56))
        with pytest.raises(CacheFormatError):
            read_cache(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 1)], hidden=8, split_depth=1, checkpoint_hash=HASH)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheFormatError):
            read_cache(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 4)], hidden=8, split_depth=1, checkpoint_hash=HASH)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CacheFormatError):
            read_cache(path)

    # the 56-byte header, then two 17-byte index rows, ending at 90
    @pytest.mark.parametrize("size", [0, 7, 55, 56, 59, 60, 72, 89])
    def test_cut_in_header_or_index_table(self, tmp_path, size):
        path = tmp_path / "cache.bin"
        hand_built_cache(path, [("a", 1, 0), ("b", 1, 64)])
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(CacheFormatError):
            read_cache(path)

    def test_unknown_doc_id(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 1)], hidden=8, split_depth=1, checkpoint_hash=HASH)
        with read_cache(path) as cache:
            with pytest.raises(KeyError):
                cache.get("nope")

    def test_duplicate_doc_ids_rejected_at_write(self, tmp_path):
        docs = [make_state("a", 1), make_state("a", 2)]
        with pytest.raises(ValueError):
            write_cache(tmp_path / "c.bin", docs, hidden=8, split_depth=1, checkpoint_hash=HASH)

    def test_width_mismatch_rejected_at_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_cache(
                tmp_path / "c.bin", [make_state("a", 1)], hidden=16, split_depth=1,
                checkpoint_hash=HASH,
            )

    def test_short_hash_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_cache(
                tmp_path / "c.bin", [make_state("a", 1)], hidden=8, split_depth=1,
                checkpoint_hash=b"short",
            )

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_cache(path, [make_state("a", 1)], hidden=8, split_depth=1, checkpoint_hash=HASH)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert path.exists()


class TestIndexTableGuards:
    """A corrupt index table is refused on open, naming the document. One
    8-wide row is 32 bytes, so a payload of m tokens spans (m + 1) * 32."""

    def test_hand_built_valid_file_opens(self, tmp_path):
        path = tmp_path / "c.bin"
        hand_built_cache(path, [("a", 1, 0), ("b", 2, 64)])
        with read_cache(path) as cache:
            assert cache.doc_ids() == ["a", "b"]
            assert cache.get("b").m == 2

    def test_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "c.bin"
        hand_built_cache(path, [("a", 1, 0), ("a", 1, 64)])
        with pytest.raises(CacheFormatError, match="duplicate doc id 'a'"):
            read_cache(path)

    # two 17-byte index rows follow the 56-byte header, so the index ends at 90
    @pytest.mark.parametrize("rel", [-90, -50, -30, -1])
    def test_payload_inside_header_or_index(self, tmp_path, rel):
        path = tmp_path / "c.bin"
        hand_built_cache(path, [("a", 1, 0), ("b", 1, rel)], payload_bytes=128)
        with pytest.raises(CacheFormatError, match="payload of 'b' starts inside"):
            read_cache(path)

    def test_overlapping_payloads(self, tmp_path):
        path = tmp_path / "c.bin"
        hand_built_cache(path, [("a", 2, 0), ("b", 1, 64)])
        with pytest.raises(CacheFormatError, match="payloads of 'a' and 'b' overlap"):
            read_cache(path)

    def test_overlap_found_whatever_the_index_order(self, tmp_path):
        path = tmp_path / "c.bin"
        hand_built_cache(path, [("a", 1, 96), ("b", 1, 160), ("c", 3, 0)])
        with pytest.raises(CacheFormatError, match="payloads of 'c' and 'a' overlap"):
            read_cache(path)

    def test_adjacent_payloads_in_any_order_accepted(self, tmp_path):
        path = tmp_path / "c.bin"
        hand_built_cache(path, [("a", 1, 64), ("b", 1, 0)])
        with read_cache(path) as cache:
            assert cache.get("a").m == cache.get("b").m == 1

    def test_empty_entry_rejected_on_open(self, tmp_path):
        path = tmp_path / "c.bin"
        hand_built_cache(path, [("a", 1, 0), ("b", 0, 64)])
        with pytest.raises(CacheFormatError, match="'b' holds no tokens"):
            read_cache(path)
