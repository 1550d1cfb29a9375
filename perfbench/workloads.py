"""The three benchmark workloads, one round at a time.

A round builds a fresh cluster, filesystem and namenode, warms the codecs
and runs the workload's phases through the public API. Inputs (payloads,
file names, failure victims, read order) come only from the seed, so a
round of one seed repeats the same operations in the same order and its
exact counts (bytes metered, journal records, chunks repaired, heartbeat
ticks) repeat bit for bit. Every mutating phase is followed by a sha256
readback of every live file; repair must leave no lost chunk, the
capacity ledger must match the datanodes and the namespace, and the
journaled namenode must replay to the live state. A failed operation or
check is counted and the round goes on.
"""

from __future__ import annotations

import hashlib
import statistics
import traceback
from itertools import combinations
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from refclock import ReferenceClock
from spec import LifetimeConfig, RackBurstConfig, SmallFilesConfig

from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs.blocks import ChunkKind
from repro.dfs.filesystem import MorphFS
from repro.dfs.heartbeat import HeartbeatMonitor
from repro.dfs.journal import Journal, state_digest
from repro.dfs.recovery import RecoveryManager
from repro.dfs.shards import ShardedNamenode
from repro.gf import kernels
from repro.sched.policies import SchedulerPolicy
from repro.sched.scheduler import MaintenanceScheduler

CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
HYBRID = HybridScheme(1, CC69)
#: stream ids for the seeded generators, one per kind of input
_PAYLOAD, _VICTIMS, _MIX, _READS = 0, 1, 2, 3


class Round:
    """Measurements, exact counts and failures of one round.

    Timings are kept raw, each with the instant it was taken, so that the
    run can correct them with its :class:`ReferenceClock`.
    """

    def __init__(self, tracer=None, clock: Optional[ReferenceClock] = None):
        self.tracer = tracer
        self.clock = clock if clock is not None else ReferenceClock()
        #: phase -> (user bytes, seconds, start) of each call, in call order
        self.work: Dict[str, List[Tuple[int, float, float]]] = {}
        #: latency samples: (ms, instant the clock started)
        self.latency: Dict[str, List[Tuple[float, float]]] = {"create": [], "read": []}
        #: (seconds, start) of each client operation, in call order
        self.op_log: List[Tuple[float, float]] = []
        #: (seconds, start, end) of each set-up
        self.setups: List[Tuple[float, float, float]] = []
        #: chunk bytes rebuilt by the calls of the ``repair`` phase
        self.rebuilt_bytes = 0
        #: bytes metered (disk read + disk write + network) per phase
        self.io: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: counts that must repeat exactly for one seed
        self.exact: Dict[str, float] = {}
        #: generated inputs, to show that a seed changes them
        self.inputs: Dict[str, object] = {}
        #: per-layer values measured without the tracer (io, gf, loadgen)
        self.layer: Dict[str, float] = {}
        #: seconds taken by the last call of :meth:`op`
        self.last_s = 0.0

    # -- operations and checks ------------------------------------------------
    def op(self, fn, *args, work: Optional[str] = None, nbytes: int = 0,
           latency: Optional[str] = None, wait: float = 0.0,
           io: Optional[str] = None, fs=None, client: bool = True):
        """Run one operation; a raised error is a counted failure.

        A latency sample is the call's own time plus ``wait``, the time
        the operation spent due before it could start. The call's own
        time is kept in ``last_s``.
        """
        self.attempted += 1
        self.clock.maybe_probe()
        before = io_bytes(fs) if io else 0.0
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # noqa: BLE001 — a failed op is counted, the run goes on
            self.last_s = perf_counter() - start
            self.failures.append(traceback.format_exc(limit=4))
            return None
        end = perf_counter()
        self.last_s = end - start
        if io:
            self.io[io] = self.io.get(io, 0.0) + io_bytes(fs) - before
        if client:
            self.op_log.append((end - start, start))
        if work is not None:
            self.work.setdefault(work, []).append((nbytes, end - start, start))
        if latency is not None:
            self.latency[latency].append(((end - start + wait) * 1e3, start))
        return result

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def untraced(self):
        return self.tracer.pause() if self.tracer is not None else nullcontext()

    def mark(self) -> Tuple[float, float]:
        return perf_counter(), self.clock.spent

    def since(self, mark: Tuple[float, float]) -> Tuple[float, float, float]:
        """(seconds, start, end) since ``mark``, without reference samples."""
        start, spent = mark
        end = perf_counter()
        return end - start - (self.clock.spent - spent), start, end

    @property
    def ops(self) -> int:
        return len(self.op_log)

    @property
    def op_seconds(self) -> float:
        return sum(seconds for seconds, _ in self.op_log)

    def total(self, phase: str) -> Tuple[int, float]:
        calls = self.work.get(phase, [])
        return sum(c[0] for c in calls), sum(c[1] for c in calls)


# -- shared helpers --------------------------------------------------------------

def io_bytes(fs) -> float:
    s = fs.metrics.summary()
    return s["disk_read"] + s["disk_write"] + s["network"]


def payload(seed: int, index: int, nbytes: int) -> np.ndarray:
    rng = np.random.default_rng([seed, _PAYLOAD, index])
    return np.frombuffer(rng.bytes(nbytes), dtype=np.uint8)


def digest(data) -> bytes:
    return hashlib.sha256(data).digest()


def chunk_digests(data: np.ndarray, chunk: int) -> List[bytes]:
    return [digest(data[i : i + chunk]) for i in range(0, len(data), chunk)]


def build_fs(cfg, namenode=None, policy=None) -> MorphFS:
    """A fresh cluster and filesystem with warm codecs.

    The filesystem's own placement seed is fixed: the workload seed only
    reaches the program through the inputs it generates.
    """
    kernels.clear_plan_caches()
    fs = MorphFS(
        cluster=Cluster(ClusterSpec(n_datanodes=cfg.nodes, n_racks=cfg.racks)),
        chunk_size=cfg.chunk_size,
        seed=0,
        future_widths=[6, 12],
        namenode=namenode,
    )
    if policy is not None:
        fs.scheduler = MaintenanceScheduler(fs, policy)
    zeros = np.zeros(cfg.chunk_size, dtype=np.uint8)
    for ec in (CC69, CC1215):
        fs.codec_for(ec).encode_batch([[zeros] * ec.k])
    return fs


def fail_nodes(fs, victims) -> None:
    for node_id in victims:
        fs.cluster.fail_node(node_id)
        fs.datanodes[node_id].fail()


def readback(rnd: Round, fs, digests: Dict[str, bytes], size: int,
             work: Optional[str] = None, latency: Optional[str] = None) -> None:
    """Full read of every live file, checked against its sha256."""
    for name, want in digests.items():
        data = rnd.op(fs.read_file, name, work=work, nbytes=size, latency=latency)
        rnd.check(data is not None and digest(data) == want, f"{name}: readback digest")


def repair(rnd: Round, fs) -> None:
    """``recover_all()`` every chunk homed on a failed node; then none
    may be lost. It is one call: its batched decodes group stripes that
    share a failure pattern across the whole burst."""
    manager = RecoveryManager(fs)
    with rnd.untraced():
        lost = manager.lost_chunks()
    rnd.rebuilt_bytes = sum(chunk.size for _meta, chunk in lost)
    before = io_bytes(fs)
    rebuilt = rnd.op(manager.recover_all, work="repair", nbytes=rnd.rebuilt_bytes)
    with rnd.untraced():
        left = manager.lost_chunks()
    rnd.io["repair"] = io_bytes(fs) - before
    rnd.check(rebuilt == len(lost) and len(lost) > 0, f"repaired {rebuilt} of {len(lost)} lost")
    rnd.check(not left, f"{len(left)} chunks still lost after repair")
    rnd.exact["lost_chunks"] = len(lost)
    rnd.exact["rebuilt_bytes"] = rnd.rebuilt_bytes


def finish(rnd: Round, fs, user_bytes: int, live_bytes: int) -> None:
    """Ledger cross-check, dead letters, exact counts and gf counters."""
    with rnd.untraced():
        try:
            stored = fs.capacity_used()  # asserts disks == metered ledger
        except AssertionError as exc:
            rnd.check(False, f"capacity ledger: {exc}")
            stored = fs.metrics.capacity_used()
        rnd.check(stored == fs.metrics.capacity_used(), "capacity ledger != disks")
        alive = sum(dn.bytes_at_rest() for dn in fs.datanodes.values() if dn.is_alive)
        named = sum(
            chunk.size for meta in fs.namenode.files.values() for chunk in meta.all_chunks()
        )
        rnd.check(alive == named, f"live disks hold {alive} bytes, namespace names {named}")
        rnd.check(not fs.scheduler.dead_letter, "maintenance tasks dead-lettered")
    io = io_bytes(fs)
    rnd.exact.update(io_bytes=io, user_bytes=user_bytes, stored_bytes=stored,
                     live_bytes=live_bytes)
    stats = kernels.cache_stats()
    lookups = stats["pattern_hits"] + stats["pattern_misses"]
    rnd.layer.update({
        "gf.pattern_lookups": float(lookups),
        "gf.pattern_hit_ratio": stats["pattern_hits"] / lookups if lookups else 0.0,
        "gf.plan_misses": float(stats["plan_misses"]),
        "gf.table_misses": float(stats["table_misses"]),
    })


# -- lifetime ----------------------------------------------------------------------

def lifetime(cfg: LifetimeConfig, seed: int, rnd: Round) -> None:
    """Hybrid ingest, free transition, CC(12,15) merge, two-node failure,
    degraded read, recover_all, readback."""
    rnd.clock.maybe_probe()
    mark = rnd.mark()
    fs = build_fs(cfg)
    rnd.setups.append(rnd.since(mark))

    digests: Dict[str, bytes] = {}
    for i in range(cfg.files):
        name = f"/lifetime/f{i:03d}"
        data = payload(seed, i, cfg.file_bytes)
        digests[name] = digest(data)
        rnd.op(fs.write_file, name, data, HYBRID, work="ingest", nbytes=cfg.file_bytes,
               latency="create", io="ingest", fs=fs)
    readback(rnd, fs, digests, cfg.file_bytes)

    for name in digests:
        rnd.op(fs.transcode, name, CC69, work="transcode", nbytes=cfg.file_bytes,
               io="transcode", fs=fs)
        rnd.op(fs.transcode, name, CC1215, work="transcode", io="transcode", fs=fs)
    readback(rnd, fs, digests, cfg.file_bytes, work="read", latency="read")

    with rnd.untraced():
        merged_data_nodes = sorted({
            chunk.node_id
            for meta in fs.namenode.files.values()
            for stripe in meta.stripes
            if stripe.k == CC1215.k
            for chunk in stripe.data
        })
        victims = pick_victims(
            fs, [list(c) for c in combinations(merged_data_nodes, cfg.victims)], seed
        )
    rnd.inputs["victims"] = victims
    rnd.check(set(victims) <= set(merged_data_nodes), "victims hold no merged data chunk")
    fail_nodes(fs, victims)
    readback(rnd, fs, digests, cfg.file_bytes, work="degraded_read")
    repair(rnd, fs)
    # every chunk is on a live node again: a second healthy striped pass
    readback(rnd, fs, digests, cfg.file_bytes, work="read", latency="read")
    total = cfg.files * cfg.file_bytes
    finish(rnd, fs, total, total)
    rnd.inputs["payloads"] = hashlib.sha256(b"".join(digests.values())).hexdigest()


def loss(fs, victims) -> Tuple[int, int, int]:
    """(stripes hit, chunks lost, data chunks lost) if ``victims`` fail:
    the repair work and the decode work of degraded reads."""
    down = set(victims)
    stripes = chunks = data = 0
    for meta in fs.namenode.files.values():
        for stripe in meta.stripes:
            hit = [c for c in stripe.all_chunks() if c.node_id in down]
            stripes += bool(hit)
            chunks += len(hit)
            data += sum(c.kind is ChunkKind.DATA for c in hit)
        chunks += sum(c.node_id in down for block in meta.replica_blocks for c in block.copies)
    return stripes, chunks, data


def pick_victims(fs, candidates: List[List[str]], seed: int, pool: int = 4) -> List[str]:
    """One of ``candidates`` (sets of nodes), chosen by the seed among
    ``pool`` whose failures would cost the closest amounts of repair and
    decode work, taken from the half of the candidates nearest the median
    cost: the seed changes the victims, not the workload's shape (where
    the placement depends on the seed, the median keeps the pool at the
    same place in the distribution)."""
    cost = [loss(fs, nodes) for nodes in candidates]
    median = [statistics.median(col) for col in zip(*cost)]

    def distance(i: int) -> float:
        return max(abs(c - m) / max(m, 1) for c, m in zip(cost[i], median))

    def spread(window: List[int]) -> float:
        return max((max(col) - min(col)) / max(max(col), 1)
                   for col in zip(*(cost[i] for i in window)))

    near = sorted(range(len(cost)), key=lambda i: (distance(i), i))[: max(pool, len(cost) // 2)]
    windows = []
    for column in range(len(median)):
        ordered = sorted(near, key=lambda i: (cost[i][column], cost[i], i))
        windows += [ordered[first : first + pool] for first in range(len(ordered) - pool + 1)]
    window = min(windows, key=spread)
    rng = np.random.default_rng([seed, _VICTIMS])
    return sorted(candidates[window[int(rng.integers(pool))]])


# -- small_files ---------------------------------------------------------------------

def small_files(cfg: SmallFilesConfig, seed: int, rnd: Round) -> None:
    """Interleaved small-file lifetimes on an 8-shard journaled namenode,
    then a one-node failure, degraded reads, repair and journal replay."""
    # Set-up takes milliseconds here, so it is timed several times and
    # the last filesystem is kept.
    for _ in range(cfg.setup_builds):
        rnd.clock.maybe_probe()
        mark = rnd.mark()
        journals = [Journal() for _ in range(cfg.shards)]
        fs = build_fs(cfg, namenode=ShardedNamenode.journaled(journals=journals))
        rnd.setups.append(rnd.since(mark))

    rng = np.random.default_rng([seed, _MIX])
    picks = {
        kind: set(rng.choice(cfg.files, size=int(cfg.files * frac), replace=False).tolist())
        for kind, frac in (("merge", cfg.merge_frac), ("rename", cfg.rename_frac),
                           ("delete", cfg.delete_frac))
    }
    programs = []
    for i in range(cfg.files):
        steps = ["create", "read", "free"]
        steps += ["merge"] if i in picks["merge"] else []
        steps += ["read"]
        steps += ["rename"] if i in picks["rename"] else []
        steps += ["delete"] if i in picks["delete"] else []
        programs.append(steps)
    n_steps = sum(len(p) for p in programs)
    slot_u = rng.random(n_steps)
    chunk_u = rng.random(n_steps)
    dir_u = rng.integers(1, cfg.directories, size=n_steps)
    chunks_per_file = cfg.file_bytes // cfg.chunk_size

    names: Dict[int, str] = {}
    whole: Dict[int, bytes] = {}
    per_chunk: Dict[int, List[bytes]] = {}
    active: List[List[int]] = []  # [file index, next step]
    next_file = 0
    for step in range(n_steps):
        while len(active) < cfg.window and next_file < cfg.files:
            active.append([next_file, 0])
            next_file += 1
        slot = int(slot_u[step] * len(active))
        i, pos = active[slot]
        kind = programs[i][pos]
        if pos + 1 == len(programs[i]):
            active[slot] = active[-1]
            active.pop()
        else:
            active[slot][1] += 1
        if kind == "create":
            names[i] = f"/d{i % cfg.directories:02d}/f{i:05d}"
            data = payload(seed, i, cfg.file_bytes)
            whole[i] = digest(data)
            per_chunk[i] = chunk_digests(data, cfg.chunk_size)
            rnd.op(fs.write_file, names[i], data, HYBRID, work="ingest",
                   nbytes=cfg.file_bytes, latency="create", io="ingest", fs=fs)
        elif kind == "read":
            c = int(chunk_u[step] * chunks_per_file)
            got = rnd.op(fs.read_file, names[i], c * cfg.chunk_size, cfg.chunk_size,
                         work="read", nbytes=cfg.chunk_size, latency="read")
            rnd.check(got is not None and digest(got) == per_chunk[i][c],
                      f"{names[i]}: range read {c}")
        elif kind == "free":
            rnd.op(fs.transcode, names[i], CC69, work="transcode", nbytes=cfg.file_bytes,
                   io="transcode", fs=fs)
        elif kind == "merge":
            rnd.op(fs.transcode, names[i], CC1215, work="transcode", io="transcode", fs=fs)
        elif kind == "rename":
            new = f"/d{(i + int(dir_u[step])) % cfg.directories:02d}/f{i:05d}"
            rnd.op(fs.namenode.rename, names[i], new)
            names[i] = new
        else:
            rnd.op(fs.delete_file, names[i])
            del names[i], whole[i], per_chunk[i]

    digests = {names[i]: whole[i] for i in sorted(names)}
    readback(rnd, fs, digests, cfg.file_bytes)
    with rnd.untraced():
        victims = pick_victims(
            fs, [list(c) for c in combinations(sorted(fs.datanodes), cfg.victims)], seed
        )
    rnd.inputs["victims"] = victims
    fail_nodes(fs, victims)
    readback(rnd, fs, digests, cfg.file_bytes, work="degraded_read")
    repair(rnd, fs)
    readback(rnd, fs, digests, cfg.file_bytes)

    with rnd.untraced():
        replayed = ShardedNamenode.recover(journals)
        same = all(
            state_digest(live) == state_digest(again)
            for live, again in zip(fs.namenode.shards, replayed.shards)
        )
    rnd.check(same, "journal replay differs from the live namenode")
    rnd.exact["journal_records"] = sum(j.appended_total for j in journals)
    rnd.exact["journal_bytes"] = sum(j.byte_size for j in journals)
    finish(rnd, fs, cfg.files * cfg.file_bytes, len(digests) * cfg.file_bytes)
    rnd.inputs["payloads"] = hashlib.sha256(b"".join(digests.values())).hexdigest()


# -- rack_burst ------------------------------------------------------------------------

def rack_burst(cfg: RackBurstConfig, seed: int, rnd: Round) -> None:
    """A whole rack fails; heartbeat ticks drain budgeted repairs while an
    open-loop reader issues range reads on the same schedule.

    The schedule runs in virtual time, the way one server would serve it:
    ticks and reads are due at fixed instants, each starts when it is due
    or when the operation before it ends, whichever is later, and takes
    the time its call took. A read's latency is counted from when it was
    due, so a long tick makes the reads behind it late. The calls run
    back to back, without sleeping, so that the operating system's
    wake-up delays are not counted. Each tick's own time is recorded as
    repair work: the time to redundancy is the sum of the tick times from
    the failure until no chunk is lost."""
    rnd.clock.maybe_probe()
    mark = rnd.mark()
    policy = SchedulerPolicy(
        disk_bytes_per_tick=cfg.disk_budget_bytes_per_tick,
        net_bytes_per_tick=cfg.net_budget_bytes_per_tick,
    )
    fs = build_fs(cfg, policy=policy)
    names: List[str] = []
    digests: Dict[str, bytes] = {}
    per_chunk: List[List[bytes]] = []
    for i in range(cfg.files):
        name = f"/rack/f{i:04d}"
        data = payload(seed, i, cfg.file_bytes)
        names.append(name)
        digests[name] = digest(data)
        per_chunk.append(chunk_digests(data, cfg.read_bytes))
        rnd.op(fs.write_file, name, data, HYBRID, work="ingest", nbytes=cfg.file_bytes,
               latency="create", io="ingest", fs=fs)
    for i, name in enumerate(names):
        if i % cfg.hybrid_every:
            rnd.op(fs.transcode, name, CC69, work="transcode", nbytes=cfg.file_bytes,
                   io="transcode", fs=fs)
    rnd.setups.append(rnd.since(mark))
    readback(rnd, fs, digests, cfg.file_bytes, work="read")

    # The four racks differ in repair work (budgeted ticks to drain) and no
    # two match, so every seed fails the same rack, the one losing the
    # least; the seed varies payloads and read order.
    with rnd.untraced():
        racks = [
            [node.node_id for node in fs.cluster.nodes_in_rack(rack)]
            for rack in fs.cluster.racks()
        ]
        chosen = min(racks, key=lambda nodes: loss(fs, nodes))
    rack = fs.cluster.node(chosen[0]).rack
    victims = fs.cluster.fail_rack(rack)
    for node_id in victims:
        fs.datanodes[node_id].fail()
    rnd.inputs["victims"] = sorted(victims)
    readback(rnd, fs, digests, cfg.file_bytes, work="degraded_read")

    manager = RecoveryManager(fs)
    with rnd.untraced():
        lost = manager.lost_chunks()
    lost_bytes = sum(chunk.size for _meta, chunk in lost)
    monitor = HeartbeatMonitor(fs)
    reads_per_file = cfg.file_bytes // cfg.read_bytes
    read_rng = np.random.default_rng([seed, _READS])
    interval = cfg.tick_interval_s
    spacing = interval / (cfg.reads_per_tick + 1)
    max_ticks = 5000
    late: List[float] = []
    read_order = hashlib.sha256()
    busy_until = 0.0  # virtual seconds since the failure
    drained = False
    rnd.rebuilt_bytes = lost_bytes
    ticks = 0
    while ticks < max_ticks:
        due = ticks * interval
        start = max(due, busy_until)
        late.append(start - due)
        ticks += 1
        rnd.op(monitor.tick, work="repair", client=False)
        busy_until = start + rnd.last_s
        if ticks >= monitor.config.dead_after_missed and not fs.scheduler.queue.backlog():
            with rnd.untraced():
                drained = not manager.lost_chunks(monitor.declared_dead())
            if drained:
                break
        targets = read_rng.integers(0, cfg.files * reads_per_file, size=cfg.reads_per_tick)
        read_order.update(targets.tobytes())
        for j, target in enumerate(targets.tolist()):
            file_index, part = divmod(target, reads_per_file)
            read_due = due + (j + 1) * spacing
            start = max(read_due, busy_until)
            late.append(start - read_due)
            got = rnd.op(fs.read_file, names[file_index], part * cfg.read_bytes,
                         cfg.read_bytes, latency="read", wait=start - read_due)
            busy_until = start + rnd.last_s
            rnd.check(got is not None and digest(got) == per_chunk[file_index][part],
                      f"{names[file_index]}: range read {part}")
    rnd.check(drained, f"repair not drained after {ticks} ticks")
    maintenance = fs.metrics.maintenance_summary()
    rnd.io["repair"] = sum(
        maintenance[k]["disk_bytes"] + maintenance[k]["net_bytes"]
        for k in ("repair", "critical_repair") if k in maintenance
    )
    rnd.exact.update(lost_chunks=len(lost), rebuilt_bytes=lost_bytes, heartbeat_ticks=ticks)
    rnd.inputs["read_order"] = read_order.hexdigest()
    late_ms = np.asarray(late) * 1e3
    rnd.layer["loadgen.late_ms_p99"] = float(np.percentile(late_ms, 99))
    rnd.layer["loadgen.late_ms_max"] = float(late_ms.max())

    # every chunk is on a live node again: a second healthy pass
    readback(rnd, fs, digests, cfg.file_bytes, work="read")
    total = cfg.files * cfg.file_bytes
    finish(rnd, fs, total, total)
    rnd.inputs["payloads"] = hashlib.sha256(b"".join(digests.values())).hexdigest()


WORKLOADS = {
    "lifetime": lifetime,
    "small_files": small_files,
    "rack_burst": rack_burst,
}
