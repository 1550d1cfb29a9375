"""Chunk integrity: checksums, corruption detection, scrubbing (§6.1).

HDFS-style block integrity: every stored chunk carries a CRC32 computed
at write time. Reads verify lazily; a background *scrubber* sweeps
datanodes on its own schedule. A checksum mismatch is treated exactly
like a missing chunk — the Namenode bundles the block's metadata and
hands reconstruction to :class:`repro.dfs.recovery.RecoveryManager`.

A byte range is CRC'd once: a replica block holds the same bytes as its
stripe's data chunks, so its checksum is combined from theirs
(:func:`crc32_concat`) instead of being computed over the block again.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dfs.blocks import ChunkMeta


def chunk_checksum(data: np.ndarray) -> int:
    """CRC32 of a chunk's bytes (what HDFS stores per block).

    ``zlib.crc32`` reads a contiguous array through the buffer protocol,
    so a contiguous ``uint8`` chunk is checksummed without a copy.
    """
    return zlib.crc32(np.ascontiguousarray(data, dtype=np.uint8))


_CRC32_POLY = 0xEDB88320  # reflected CRC-32 polynomial, as in zlib


def _gf2_mul(a: int, b: int) -> int:
    """Product of two polynomials mod the CRC-32 polynomial (zlib's
    ``multmodp``; bit 31 is x^0, bit 0 is x^31)."""
    product = 0
    m = 1 << 31
    while a:
        if a & m:
            product ^= b
            a ^= m
        m >>= 1
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1
    return product


@functools.lru_cache(maxsize=16)  # one entry per chunk size in use
def _shift_tables(length: int) -> Tuple[Tuple[int, ...], ...]:
    """Four 256-entry tables of the linear map crc -> crc * x^(8*length).

    That map carries ``crc32(A)`` past ``length`` further bytes, so
    ``crc32(A + B) == shift(crc32(A)) ^ crc32(B)`` (zlib's
    ``crc32_combine``). The tables split it by input byte: table ``j``
    holds the image of every value of byte ``j``.
    """
    # x^(8*length) by square-and-multiply over the bits of the exponent.
    power, square, n = 1 << 31, 1 << 30, 8 * length  # x^0, x^1
    while n:
        if n & 1:
            power = _gf2_mul(power, square)
        n >>= 1
        if n:
            square = _gf2_mul(square, square)
    # Images of the 32 basis bits, x^0 (bit 31) first: each is the one
    # before times x, a single reflected shift step.
    images = [0] * 32
    value = power
    for bit in range(31, -1, -1):
        images[bit] = value
        value = (value >> 1) ^ _CRC32_POLY if value & 1 else value >> 1
    tables = []
    for j in range(4):
        table = [0] * 256
        for t in range(8):
            step, image = 1 << t, images[8 * j + t]
            for low in range(step):
                table[step | low] = table[low] ^ image
        tables.append(tuple(table))
    return tuple(tables)


def crc32_concat(crcs: Sequence[int], piece_len: int) -> int:
    """CRC32 of the concatenation of equal-length pieces, from their CRCs.

    Equals ``zlib.crc32`` over the joined bytes without reading them; each
    further piece costs four table lookups.
    """
    if not crcs:
        return 0
    t0, t1, t2, t3 = _shift_tables(piece_len)
    crc = crcs[0]
    for piece in crcs[1:]:
        crc = (
            t0[crc & 0xFF] ^ t1[(crc >> 8) & 0xFF]
            ^ t2[(crc >> 16) & 0xFF] ^ t3[crc >> 24] ^ piece
        )
    return crc


class ChecksumRegistry:
    """Write-time checksums, keyed by chunk id.

    Lives beside the Namenode metadata (in HDFS, checksums live in .meta
    files next to the blocks; a central registry is equivalent for the
    simulator and keeps verification independent of the possibly-corrupt
    datanode).
    """

    def __init__(self):
        self._sums: Dict[str, int] = {}

    def record(self, chunk_id: str, data: np.ndarray) -> int:
        """Checksum ``data`` and store it for ``chunk_id``; returns the CRC."""
        crc = self._sums[chunk_id] = chunk_checksum(data)
        return crc

    def record_crc(self, chunk_id: str, crc: int) -> None:
        """Store an already-known CRC (a further copy of recorded bytes,
        or one combined with :func:`crc32_concat`)."""
        self._sums[chunk_id] = crc

    def forget(self, chunk_id: str) -> None:
        self._sums.pop(chunk_id, None)

    def expected(self, chunk_id: str) -> Optional[int]:
        return self._sums.get(chunk_id)

    def verify(self, chunk_id: str, data: np.ndarray) -> bool:
        expected = self._sums.get(chunk_id)
        if expected is None:
            return True  # nothing recorded: cannot dispute
        return chunk_checksum(data) == expected

    def __len__(self) -> int:
        return len(self._sums)


@dataclass
class ScrubReport:
    """Outcome of one scrub sweep."""

    chunks_scanned: int = 0
    corrupt: List[Tuple[str, str]] = field(default_factory=list)  # (file, chunk_id)
    repaired: int = 0


class Scrubber:
    """Background integrity sweeper + corruption repair driver.

    ``scan()`` verifies every on-disk chunk against the registry and
    quarantines mismatches (deletes the bad copy so it reads as missing);
    ``scan_and_repair()`` additionally reconstructs them through the
    normal recovery path — corrupt and missing chunks share one pipeline,
    as in the paper.
    """

    def __init__(self, fs):
        self.fs = fs

    def _iter_chunks(self):
        for meta in self.fs.namenode.files.values():
            for chunk in meta.all_chunks():
                yield meta, chunk

    def scan(self) -> ScrubReport:
        with self.fs.obs.span("scrub"):
            return self._scan_impl()

    def _scan_impl(self) -> ScrubReport:
        report = ScrubReport()
        registry = self.fs.checksums
        for meta, chunk in self._iter_chunks():
            datanode = self.fs.datanodes[chunk.node_id]
            if not datanode.is_alive or not datanode.chunk_on_disk(chunk.chunk_id):
                continue
            report.chunks_scanned += 1
            data = datanode.read(chunk.chunk_id, at=self.fs.clock)
            if not registry.verify(chunk.chunk_id, data):
                report.corrupt.append((meta.name, chunk.chunk_id))
                datanode.delete(chunk.chunk_id, at=self.fs.clock)  # quarantine
        return report

    def scan_and_repair(self) -> ScrubReport:
        from repro.dfs.recovery import RecoveryManager

        report = self.scan()
        if not report.corrupt:
            return report
        recovery = RecoveryManager(self.fs)
        corrupt_ids = {chunk_id for _f, chunk_id in report.corrupt}
        pairs = [
            (meta, chunk)
            for meta in list(self.fs.namenode.files.values())
            for chunk in meta.all_chunks()
            if chunk.chunk_id in corrupt_ids
        ]
        # One batched pass: corrupt chunks of a stripe decode together.
        report.repaired = recovery.recover_chunks(pairs)
        return report


def corrupt_chunk(fs, chunk: ChunkMeta, flip_byte: int = 0) -> None:
    """Test helper: silently flip one byte of a stored chunk on disk."""
    datanode = fs.datanodes[chunk.node_id]
    data = datanode._disk.get(chunk.chunk_id)
    if data is None:
        raise KeyError(f"{chunk.chunk_id} not on disk at {chunk.node_id}")
    data = data.copy()
    data[flip_byte % len(data)] ^= 0xFF
    data.flags.writeable = False  # stored chunks are read-only
    datanode._disk[chunk.chunk_id] = data
