"""Layer tracing from outside the program.

The traced run wraps each layer's public entry points where their callers
resolve them (a method on its class, or a name a module imported by
value), so the program under ``src/`` is not edited. Every wrapped call
records a span: layer, entry point, start, end, parent span, request id
and a byte count taken at the same boundary. A span with no parent starts
a new request. Spans live in flat arrays while the run goes on and are
written out as Chrome trace-event JSON when it ends.

Definitions used by :func:`layer_metrics`:

* a span is *layer-top* when no ancestor belongs to the same layer;
  a layer's ``calls`` counts its layer-top spans and its busy time
  (``<layer>.s``, ``*_s`` of an entry point) sums their durations;
* a layer's ``self_s`` is the time in its spans not covered by any child
  span, so every traced instant is attributed to exactly one layer.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from spec import MB


def _arrays_nbytes(chunks) -> int:
    return sum(c.nbytes for c in chunks if c is not None)


def _encode_bytes(args, kwargs, result, pre) -> int:
    return _arrays_nbytes(args[1])


def _encode_batch_bytes(args, kwargs, result, pre) -> int:
    return sum(_arrays_nbytes(stripe) for stripe in args[1])


def _decode_bytes(args, kwargs, result, pre) -> int:
    return _arrays_nbytes(result.values())


def _decode_batch_bytes(args, kwargs, result, pre) -> int:
    return sum(_arrays_nbytes(found.values()) for found in result)


def _convert_bytes(args, kwargs, result, pre) -> int:
    initial, _final, stripes = args[:3]
    return sum(initial.k * s.chunk_size() for s in stripes)


def _data_arg_bytes(args, kwargs, result, pre) -> int:
    return args[2].nbytes


def _result_bytes(args, kwargs, result, pre) -> int:
    return result.nbytes


def _journal_size(args, kwargs):
    return args[0].byte_size


def _journal_bytes(args, kwargs, result, pre) -> int:
    return args[0].byte_size - pre


def _recovered_count(args, kwargs, result, pre) -> int:
    return result


def _one(args, kwargs, result, pre) -> int:
    return 1


_NAMENODE_METHODS = (
    "register_file", "lookup", "unregister_file", "rename", "next_chunk_id",
    "next_chunk_ids", "note_chunk", "note_file", "chunks_on_node",
    "enqueue_transcode", "poll_work_for", "complete_parity",
    "record_new_stripe", "try_finalize",
)

#: (layer, module, class or None for a module-level name, entry point,
#: byte/count measure or None, pre-call probe or None)
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("codes", "repro.codes.base", "ErasureCode", "encode", _encode_bytes, None),
    ("codes", "repro.codes.base", "ErasureCode", "encode_batch", _encode_batch_bytes, None),
    ("codes", "repro.codes.base", "ErasureCode", "decode", _decode_bytes, None),
    ("codes", "repro.codes.base", "ErasureCode", "decode_batch", _decode_batch_bytes, None),
    # ``convert`` is imported by value into the transcoder: patch it there.
    ("codes", "repro.dfs.transcoder", None, "convert", _convert_bytes, None),
    ("integrity", "repro.dfs.integrity", "ChecksumRegistry", "record", _data_arg_bytes, None),
    ("integrity", "repro.dfs.integrity", "ChecksumRegistry", "verify", _data_arg_bytes, None),
    ("datanode", "repro.dfs.datanode", "Datanode", "receive_to_disk", _data_arg_bytes, None),
    ("datanode", "repro.dfs.datanode", "Datanode", "receive_to_memory", _data_arg_bytes, None),
    ("datanode", "repro.dfs.datanode", "Datanode", "persist", None, None),
    ("datanode", "repro.dfs.datanode", "Datanode", "read", _result_bytes, None),
    ("datanode", "repro.dfs.datanode", "Datanode", "read_range", _result_bytes, None),
    ("datanode", "repro.dfs.datanode", "Datanode", "store_local", _data_arg_bytes, None),
    ("datanode", "repro.dfs.datanode", "Datanode", "delete", None, None),
) + tuple(
    ("namenode", module, cls, name, None, None)
    for module, cls in (("repro.dfs.namenode", "Namenode"), ("repro.dfs.shards", "ShardedNamenode"))
    for name in _NAMENODE_METHODS
) + (
    ("journal", "repro.dfs.journal", "Journal", "append", _journal_bytes, _journal_size),
    ("placement", "repro.cluster.placement", "TranscodeAwarePlacement", "place_stripe", None, None),
    ("placement", "repro.cluster.placement", "TranscodeAwarePlacement", "place_replicas", None, None),
    ("placement", "repro.cluster.placement", "TranscodeAwarePlacement", "parity_node", None, None),
    ("client", "repro.dfs.client", "ClientReader", "read", _result_bytes, None),
    ("transcoder", "repro.dfs.transcoder", "NativeTranscoder", "run_pending", None, None),
    ("transcoder", "repro.dfs.transcoder", "NativeTranscoder", "execute_group", _one, None),
    ("recovery", "repro.dfs.recovery", "RecoveryManager", "lost_chunks", None, None),
    ("recovery", "repro.dfs.recovery", "RecoveryManager", "recover_chunks", _recovered_count, None),
    ("recovery", "repro.dfs.recovery", "RecoveryManager", "recover_chunk", _one, None),
    ("sched", "repro.sched.scheduler", "MaintenanceScheduler", "run_tick", None, None),
    ("sched", "repro.sched.scheduler", "MaintenanceScheduler", "submit", None, None),
    ("heartbeat", "repro.dfs.heartbeat", "HeartbeatMonitor", "tick", None, None),
    ("filesystem", "repro.dfs.filesystem", "MorphFS", "write_file", None, None),
    ("filesystem", "repro.dfs.filesystem", "MorphFS", "read_file", None, None),
    ("filesystem", "repro.dfs.filesystem", "MorphFS", "transcode", None, None),
    ("filesystem", "repro.dfs.filesystem", "MorphFS", "delete_file", None, None),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))


def entry_label(entry: tuple) -> str:
    _layer, module, cls, name = entry[:4]
    return f"{cls}.{name}" if cls else f"{module}.{name}"


LABELS: Tuple[str, ...] = tuple(entry_label(e) for e in ENTRY_POINTS)
#: index into LAYERS of each entry point's layer
LAYER_OF: Tuple[int, ...] = tuple(LAYERS.index(e[0]) for e in ENTRY_POINTS)


class Tracer:
    """Span recorder; install() patches the entry points, uninstall()
    puts the originals back."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object, bool]] = []
        self.paused = False
        self.reset()

    def reset(self) -> None:
        self.entry = array("h")
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.nbytes = array("q")
        #: scheduler tick reports, with the queue depth left after each
        self.tick_reports: List[Tuple[object, int]] = []
        self._stack: List[int] = []
        self._requests = 0

    def __len__(self) -> int:
        return len(self.entry)

    # -- patching ---------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for index, (layer, module_name, cls_name, name, measure, pre) in enumerate(
            ENTRY_POINTS
        ):
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            own = name in vars(owner)
            original = getattr(owner, name)
            self._saved.append((owner, name, original, own))
            if layer == "sched" and name == "run_tick":
                measure = self._keep_tick_report
            setattr(owner, name, self._wrap(index, original, measure, pre))

    def uninstall(self) -> None:
        for owner, name, original, own in reversed(self._saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def pause(self):
        """Run benchmark-side checks without recording them."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _keep_tick_report(self, args, kwargs, result, pre) -> int:
        self.tick_reports.append((result, len(args[0].queue)))
        return 0

    def _wrap(self, index: int, fn: Callable, measure, pre) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = len(tracer.entry)
            if stack:
                parent = stack[-1]
                request = tracer.request[parent]
            else:
                parent = -1
                tracer._requests += 1
                request = tracer._requests
            state = pre(args, kwargs) if pre is not None else None
            tracer.entry.append(index)
            tracer.parent.append(parent)
            tracer.request.append(request)
            tracer.t1.append(0)
            tracer.nbytes.append(0)
            stack.append(span)
            tracer.t0.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[span] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                tracer.nbytes[span] = measure(args, kwargs, result, state)
            return result

        return traced

    # -- export -----------------------------------------------------------------
    def write_chrome_trace(self, path, metadata: Optional[dict] = None) -> None:
        """Chrome trace-event JSON (loads in Perfetto or chrome://tracing)."""
        base = self.t0[0] if len(self) else 0
        with open(path, "w") as out:
            out.write('{"displayTimeUnit":"ms","otherData":')
            out.write(json.dumps(metadata or {}))
            out.write(',"traceEvents":[\n')
            for i in range(len(self)):
                entry = self.entry[i]
                event = {
                    "name": LABELS[entry],
                    "cat": ENTRY_POINTS[entry][0],
                    "ph": "X",
                    "ts": (self.t0[i] - base) / 1000.0,
                    "dur": (self.t1[i] - self.t0[i]) / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span": i,
                        "parent": self.parent[i],
                        "request": self.request[i],
                        "bytes": self.nbytes[i],
                    },
                }
                if i:
                    out.write(",\n")
                out.write(json.dumps(event, separators=(",", ":")))
            out.write("\n]}\n")


# -- derivation ----------------------------------------------------------------

def fired_entries(tracer: Tracer) -> Dict[str, int]:
    """Calls recorded per entry point label."""
    counts = np.bincount(
        np.frombuffer(tracer.entry, dtype=np.int16).astype(np.int64),
        minlength=len(ENTRY_POINTS),
    )
    return {label: int(counts[i]) for i, label in enumerate(LABELS)}


def layer_metrics(tracer: Tracer, client_ops: int) -> Dict[str, float]:
    """Per-layer busy/self time and counts from one traced round."""
    n = len(tracer)
    entry = np.frombuffer(tracer.entry, dtype=np.int16).astype(np.int64)
    t0 = np.frombuffer(tracer.t0, dtype=np.int64)
    t1 = np.frombuffer(tracer.t1, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
    nbytes = np.frombuffer(tracer.nbytes, dtype=np.int64)
    layer = np.asarray(LAYER_OF, dtype=np.int64)[entry]
    dur = (t1 - t0).astype(np.float64) / 1e9

    has_parent = parent >= 0
    covered = np.zeros(n, dtype=np.float64)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered

    # Layer-top: no ancestor of the same layer. Parents precede children,
    # so one forward pass carries each span's set of ancestor layers.
    masks = [0] * n
    top = np.zeros(n, dtype=bool)
    layer_list = layer.tolist()
    parent_list = parent.tolist()
    for i in range(n):
        bit = 1 << layer_list[i]
        above = masks[parent_list[i]] if parent_list[i] >= 0 else 0
        top[i] = not (above & bit)
        masks[i] = above | bit

    by_label = {label: i for i, label in enumerate(LABELS)}

    def entries(*names) -> np.ndarray:
        ids = [by_label[name] for name in names]
        return np.isin(entry, ids)

    def of_layer(name: str) -> np.ndarray:
        return layer == LAYERS.index(name)

    def busy(mask) -> float:
        return float(dur[mask & top].sum())

    def self_s(name: str) -> float:
        return float(self_time[of_layer(name)].sum())

    encode = entries("ErasureCode.encode", "ErasureCode.encode_batch")
    decode = entries("ErasureCode.decode", "ErasureCode.decode_batch")
    convert = entries("repro.dfs.transcoder.convert")
    crc = of_layer("integrity")
    datanode = of_layer("datanode")
    dn_write = entries(
        "Datanode.receive_to_disk", "Datanode.receive_to_memory", "Datanode.store_local"
    )
    dn_read = entries("Datanode.read", "Datanode.read_range")
    namenode = of_layer("namenode")
    journal = of_layer("journal")
    client = of_layer("client")
    recovery_count = entries("RecoveryManager.recover_chunks", "RecoveryManager.recover_chunk")
    ticks = entries("HeartbeatMonitor.tick")

    # A client read is degraded when a decode ran under it.
    client_id = LAYERS.index("client")
    degraded = set()
    for i in np.flatnonzero(decode).tolist():
        p = parent_list[i]
        while p >= 0 and layer_list[p] != client_id:
            p = parent_list[p]
        if p >= 0:
            degraded.add(p)

    executed = deferred = dead = depth_max = 0
    waits: List[int] = []
    for report, depth in tracer.tick_reports:
        executed += len(report.executed)
        deferred += report.deferred_budget
        dead += len(report.dead_lettered)
        depth_max = max(depth_max, depth)
        waits.extend(
            report.tick - task.submitted_tick
            for task in report.executed
            if type(task).__name__ == "ChunkRepairTask"
        )

    ops = max(client_ops, 1)
    journal_bytes = float(nbytes[journal].sum())
    return {
        "codes.encode_s": busy(encode),
        "codes.encode_mb": float(nbytes[encode & top].sum()) / MB,
        "codes.decode_s": busy(decode),
        "codes.decode_mb": float(nbytes[decode & top].sum()) / MB,
        "codes.decode_calls": float((decode & top).sum()),
        "codes.convert_s": busy(convert),
        "codes.convert_mb": float(nbytes[convert & top].sum()) / MB,
        "integrity.crc_s": busy(crc),
        "integrity.crc_mb": float(nbytes[crc].sum()) / MB,
        "datanode.s": busy(datanode),
        "datanode.calls": float((datanode & top).sum()),
        "datanode.write_mb": float(nbytes[dn_write].sum()) / MB,
        "datanode.read_mb": float(nbytes[dn_read].sum()) / MB,
        "namenode.s": busy(namenode),
        "namenode.calls": float((namenode & top).sum()),
        "namenode.calls_per_op": float((namenode & top).sum()) / ops,
        "journal.append_s": busy(journal),
        "journal.records": float(journal.sum()),
        "journal.mb": journal_bytes / MB,
        "journal.bytes_per_op": journal_bytes / ops,
        "placement.s": busy(of_layer("placement")),
        "placement.calls": float((of_layer("placement") & top).sum()),
        "client.self_s": self_s("client"),
        "client.reads": float((client & top).sum()),
        "client.degraded_reads": float(len(degraded)),
        "transcoder.self_s": self_s("transcoder"),
        "transcoder.groups": float(entries("NativeTranscoder.execute_group").sum()),
        "recovery.self_s": self_s("recovery"),
        "recovery.chunks": float(nbytes[recovery_count & top].sum()),
        "recovery.lost_scan_s": busy(entries("RecoveryManager.lost_chunks")),
        "sched.self_s": self_s("sched"),
        "sched.tasks_executed": float(executed),
        "sched.deferred_budget": float(deferred),
        "sched.dead_lettered": float(dead),
        "sched.queue_depth_max": float(depth_max),
        "sched.repair_wait_ticks_p99": float(np.percentile(waits, 99)) if waits else 0.0,
        "heartbeat.self_s": self_s("heartbeat"),
        "heartbeat.ticks": float(ticks.sum()),
        "heartbeat.tick_ms_max": float(dur[ticks].max() * 1e3) if ticks.any() else 0.0,
        "filesystem.self_s": self_s("filesystem"),
        "_layer_busy": {name: busy(of_layer(name)) for name in LAYERS},
    }
