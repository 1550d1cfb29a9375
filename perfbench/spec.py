"""What the benchmark runs: workload sizes, loop kinds and the
layer-to-metric predictions.

``BENCHMARK.json`` at the repository root is the one definition of the
workloads' reasons and of the metrics (names, units, directions, bounds);
``run.py`` reads its metric lists from there. This module holds what that
file has no keys for, and is the single source for the sizes the
workloads run at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

KIB = 1024
MIB = 1024 * 1024
#: throughput and size metrics are reported in SI megabytes
MB = 1_000_000


@dataclass(frozen=True)
class LifetimeConfig:
    """Large files through the paper's microbenchmark lifetime."""

    files: int = 16
    file_bytes: int = 12 * MIB
    chunk_size: int = 1 * MIB
    nodes: int = 23
    racks: int = 4
    #: nodes failed after the merge; each holds a data chunk of a
    #: merged CC(12,15) stripe
    victims: int = 2


@dataclass(frozen=True)
class SmallFilesConfig:
    """Thousands of two-stripe files on a sharded, journaled namenode."""

    files: int = 1500
    #: two CC(6,9) stripes of 4 KiB chunks, so a CC(12,15) merge applies
    file_bytes: int = 12 * 4 * KIB
    chunk_size: int = 4 * KIB
    nodes: int = 23
    racks: int = 4
    shards: int = 8
    directories: int = 16
    #: files whose lifetimes interleave at any moment of the mix
    window: int = 32
    merge_frac: float = 0.5
    rename_frac: float = 1 / 3
    delete_frac: float = 0.25
    #: one failed node: every degraded stripe loses one chunk, so the
    #: decode work does not depend on which nodes the seed picks
    victims: int = 1
    #: set-ups timed per round (each takes milliseconds; the last is used)
    setup_builds: int = 5


@dataclass(frozen=True)
class RackBurstConfig:
    """A populated cluster loses a rack; budgeted repair runs under an
    open-loop foreground reader."""

    files: int = 200
    #: one CC(6,9) stripe of 64 KiB chunks per file
    file_bytes: int = 6 * 64 * KIB
    #: every this-many-th file stays hybrid, the others go to CC(6,9):
    #: replica reads and striped reads are two modes of read latency, and
    #: with half of each the median would fall in the gap between them
    hybrid_every: int = 3
    chunk_size: int = 64 * KIB
    nodes: int = 24
    racks: int = 4
    #: per-node maintenance budgets refilled every heartbeat tick
    disk_budget_bytes_per_tick: int = 2 * MIB
    net_budget_bytes_per_tick: int = 2 * MIB
    #: virtual time between heartbeat ticks (the schedule is not slept)
    tick_interval_s: float = 0.1
    #: foreground reads due in each tick interval (320 reads/s at 100 ms)
    reads_per_tick: int = 32
    read_bytes: int = 64 * KIB


CONFIGS = {
    "lifetime": LifetimeConfig(),
    "small_files": SmallFilesConfig(),
    "rack_burst": RackBurstConfig(),
}

#: loop kind and input sizes of each workload
WORKLOADS: Dict[str, Dict[str, str]] = {
    "lifetime": {
        "loop": "closed, 1 client",
        "sizes": "16 files x 12 MiB, 1 MiB chunks, 23 nodes in 4 racks, 2 victims, "
        "no maintenance budgets",
    },
    "small_files": {
        "loop": "closed, 1 client",
        "sizes": "1500 files x 48 KiB, 4 KiB chunks, 23 nodes in 4 racks, 8 shards, "
        "16 directories, window of 32 files, 1 victim, no maintenance budgets",
    },
    "rack_burst": {
        "loop": "open, 320 reads/s (32 per 100 ms heartbeat tick), in virtual time",
        "sizes": "200 files x 384 KiB (a third hybrid, the rest CC(6,9)), 64 KiB chunks, "
        "24 nodes in 4 racks, 1 rack victim, 2 MiB disk + 2 MiB network per node per tick",
    },
}

#: per-layer metric -> (end-to-end metrics it should move, workload)
#: pairs, written down before measuring (a change that speeds a layer up
#: should show on these, and on nothing else)
PREDICTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "codes": (
        ("ingest_mb_s", "lifetime"),
        ("degraded_read_mb_s", "lifetime"),
        ("transcode_mb_s", "lifetime"),
        ("repair_mb_s", "rack_burst"),
    ),
    "gf": (("setup_s", "rack_burst"),),
    "integrity": (("ingest_mb_s", "lifetime"),),
    "datanode": (("ingest_mb_s", "lifetime"), ("read_mb_s", "lifetime")),
    "namenode": (("meta_ops_s", "small_files"), ("latency.create_ms_p99", "small_files")),
    "journal": (
        ("create_ms_p50", "small_files"),
        ("latency.create_ms_p99", "small_files"),
        ("meta_ops_s", "small_files"),
    ),
    "placement": (("create_ms_p50", "small_files"),),
    "client": (
        ("read_mb_s", "lifetime"),
        ("degraded_read_mb_s", "lifetime"),
        ("latency.read_ms_p99", "rack_burst"),
    ),
    "transcoder": (("transcode_mb_s", "lifetime"), ("transcode_mb_s", "small_files")),
    "recovery": (
        ("repair_mb_s", "lifetime"),
        ("repair_mb_s", "rack_burst"),
        ("time_to_redundancy_s", "rack_burst"),
    ),
    "sched": (("time_to_redundancy_s", "rack_burst"), ("latency.read_ms_p99", "rack_burst")),
    "heartbeat": (("latency.read_ms_p99", "rack_burst"),),
    "filesystem": (("ingest_mb_s", "lifetime"), ("meta_ops_s", "small_files")),
    "io": (
        ("io_bytes_per_user_byte", "lifetime"),
        ("io_bytes_per_user_byte", "small_files"),
        ("io_bytes_per_user_byte", "rack_burst"),
    ),
    "loadgen": (),
    "trace": (),
}

#: the workload on which each layer's busy time must be non-zero
HEAVY_WORKLOAD: Dict[str, str] = {
    "codes": "lifetime",
    "integrity": "lifetime",
    "datanode": "lifetime",
    "namenode": "small_files",
    "journal": "small_files",
    "placement": "small_files",
    "client": "lifetime",
    "transcoder": "small_files",
    "recovery": "rack_burst",
    "sched": "rack_burst",
    "heartbeat": "rack_burst",
    "filesystem": "lifetime",
}
