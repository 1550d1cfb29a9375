"""Zero-copy write path: ownership, read-only storage and CRC once.

A write copies the caller's bytes once; datanodes keep read-only views of
that copy; a replica block's checksum is combined from its stripe's data
chunk CRCs instead of re-reading the block.
"""

import hashlib
import zlib

import numpy as np
import pytest

from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.datanode import BufferCacheFullError
from repro.dfs.integrity import Scrubber, chunk_checksum, corrupt_chunk, crc32_concat
from repro.dfs.recovery import RecoveryManager

KB = 1024
CHUNK = 4 * KB
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
RS69 = ECScheme(CodeKind.RS, 6, 9)
HYBRID = HybridScheme(1, CC69)


def payload(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


def sha(data):
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def morph():
    return MorphFS(chunk_size=CHUNK, future_widths=[6, 12])


def kill(fs, node_id):
    fs.cluster.fail_node(node_id)
    fs.datanodes[node_id].fail()


def stored_arrays(fs):
    for dn in fs.datanodes.values():
        yield from dn._disk.values()
        yield from dn._memory.values()


def assert_replica_checksums_match(fs, name):
    meta = fs.namenode.lookup(name)
    assert meta.replica_blocks
    for block in meta.replica_blocks:
        for copy in block.copies:
            stored = fs.datanodes[copy.node_id].read(copy.chunk_id)
            assert fs.checksums.expected(copy.chunk_id) == chunk_checksum(stored)


#: (filesystem factory, scheme) for every write path
WRITE_PATHS = [
    pytest.param(morph, HYBRID, id="morph-hybrid"),
    pytest.param(morph, CC69, id="morph-ec"),
    pytest.param(morph, Replication(3), id="morph-replicated"),
    pytest.param(lambda: BaselineDFS(chunk_size=CHUNK), RS69, id="baseline-ec"),
    pytest.param(
        lambda: BaselineDFS(chunk_size=CHUNK), Replication(3), id="baseline-replicated"
    ),
]
#: stripe-aligned (rows are views of the write's copy) and not (padded)
SIZES = [pytest.param(12 * CHUNK, id="aligned"), pytest.param(12 * CHUNK + 100, id="ragged")]


class TestCallerMayReuseItsBuffer:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("make_fs,scheme", WRITE_PATHS)
    def test_write_file(self, make_fs, scheme, size):
        fs = make_fs()
        data = payload(size)
        expected = sha(data)
        fs.write_file("f", data, scheme)
        data[:] = 0xAA
        assert sha(fs.read_file("f")) == expected
        assert Scrubber(fs).scan().corrupt == []

    @pytest.mark.parametrize("append_size", [6 * CHUNK, 3 * CHUNK + 5])
    @pytest.mark.parametrize("head_size", [3 * CHUNK, 6 * CHUNK], ids=["open-tail", "no-tail"])
    def test_append_file(self, head_size, append_size):
        fs = morph()
        head, tail = payload(head_size, seed=1), payload(append_size, seed=2)
        expected = sha(np.concatenate([head, tail]))
        fs.write_file("f", head, HYBRID)
        fs.append_file("f", tail)
        head[:] = 0x55
        tail[:] = 0xAA
        assert sha(fs.read_file("f")) == expected
        fs.close_file("f")
        assert sha(fs.read_file("f")) == expected
        assert Scrubber(fs).scan().corrupt == []


class TestStoredChunksAreReadOnly:
    def test_whole_lifetime_leaves_only_read_only_arrays(self):
        fs = morph()
        data = {"a": payload(24 * CHUNK, seed=3), "b": payload(20 * CHUNK + 7, seed=4)}
        for name, blob in data.items():
            fs.write_file(name, blob, HYBRID)
        extra = payload(5 * CHUNK, seed=5)
        fs.append_file("a", extra)
        fs.close_file("a")
        data["a"] = np.concatenate([data["a"], extra])
        for name in data:
            fs.transcode(name, CC69)  # free transition
            fs.transcode(name, CC1215)  # CC merge
        meta = fs.namenode.lookup("b")
        kill(fs, meta.stripes[0].data[0].node_id)
        assert sha(fs.read_file("b")) == sha(data["b"])  # degraded read
        assert RecoveryManager(fs).recover_all() > 0
        victim = fs.namenode.lookup("a").stripes[0].data[1]
        corrupt_chunk(fs, victim)
        assert Scrubber(fs).scan_and_repair().repaired == 1
        for name, blob in data.items():
            assert sha(fs.read_file(name)) == sha(blob)
        arrays = list(stored_arrays(fs))
        assert arrays
        assert not any(a.flags.writeable for a in arrays)

    def test_writes_through_read_results_raise(self):
        fs = morph()
        fs.write_file("f", payload(12 * CHUNK), HYBRID)
        chunk = fs.namenode.lookup("f").stripes[0].data[0]
        datanode = fs.datanodes[chunk.node_id]
        with pytest.raises(ValueError):
            datanode.read(chunk.chunk_id)[0] = 1
        with pytest.raises(ValueError):
            datanode.read_range(chunk.chunk_id, 8, 16)[0] = 1


class TestCrc32Concat:
    @pytest.mark.parametrize("piece_len", [1, 7, 4096, 65536, 1 << 20])
    def test_equals_crc_of_the_concatenation(self, piece_len):
        blob = payload(7 * piece_len, seed=piece_len).tobytes()
        pieces = [blob[i * piece_len : (i + 1) * piece_len] for i in range(7)]
        crcs = [zlib.crc32(p) for p in pieces]
        for n in range(1, 8):
            assert crc32_concat(crcs[:n], piece_len) == zlib.crc32(blob[: n * piece_len])

    def test_no_pieces_is_the_empty_crc(self):
        assert crc32_concat([], 4096) == zlib.crc32(b"")


class TestReplicaChecksums:
    @pytest.mark.parametrize("size", SIZES)
    def test_hybrid_copies_match_stored_blocks(self, size):
        fs = morph()
        fs.write_file("f", payload(size), HYBRID)
        assert_replica_checksums_match(fs, "f")

    def test_appended_and_open_stripes(self):
        fs = morph()
        fs.write_file("f", payload(3 * CHUNK), HYBRID)
        fs.append_file("f", payload(10 * CHUNK + 9, seed=1))  # one sealed, one open
        assert_replica_checksums_match(fs, "f")
        fs.close_file("f")
        assert_replica_checksums_match(fs, "f")

    @pytest.mark.parametrize("make_fs", [morph, lambda: BaselineDFS(chunk_size=CHUNK)])
    def test_replicated_copies(self, make_fs):
        fs = make_fs()
        fs.write_file("f", payload(20 * CHUNK + 3), Replication(3))
        assert_replica_checksums_match(fs, "f")


class TestCorruptionStillCaught:
    @pytest.mark.parametrize("which", ["replica", "data"])
    def test_detected_and_repaired(self, which):
        fs = morph()
        data = payload(12 * CHUNK)
        fs.write_file("f", data, HYBRID)
        meta = fs.namenode.lookup("f")
        victim = meta.replica_blocks[1].copies[0] if which == "replica" else meta.stripes[1].data[3]
        victim_id = victim.chunk_id  # repair re-points the meta to the rebuilt chunk
        corrupt_chunk(fs, victim, flip_byte=11)
        report = Scrubber(fs).scan_and_repair()
        assert [cid for _f, cid in report.corrupt] == [victim_id]
        assert report.repaired == 1
        assert sha(fs.read_file("f")) == sha(data)
        assert Scrubber(fs).scan().corrupt == []
        assert_replica_checksums_match(fs, "f")


class TestAppendsDropTempReplicas:
    def test_append_then_close_leaves_no_memory(self):
        fs = morph()
        fs.write_file("f", payload(3 * CHUNK), HYBRID)
        fs.append_file("f", payload(9 * CHUNK, seed=1))
        fs.close_file("f")
        assert fs.memory_used() == 0

    def test_repeated_appends_fit_a_small_buffer_cache(self):
        # Room for two 24 KiB replica blocks per node: a temp replica
        # leaked per append would fill some node's cache within a few.
        spec = ClusterSpec(buffer_cache_bytes=2 * 6 * CHUNK)
        fs = MorphFS(Cluster(spec), chunk_size=CHUNK, future_widths=[6, 12])
        fs.write_file("f", payload(6 * CHUNK), HYBRID)
        for i in range(40):
            try:
                fs.append_file("f", payload(6 * CHUNK, seed=i + 1))
            except BufferCacheFullError as exc:  # pragma: no cover - the regression
                pytest.fail(f"append {i}: {exc}")
            assert fs.memory_used() == 0
        fs.close_file("f")
        assert fs.memory_used() == 0
