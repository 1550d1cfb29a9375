"""Repository benchmark: MorphFS file lifetimes end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs the chosen workload (``perfbench/workloads.py``) in
rounds, each on a fresh cluster, for about ``--seconds`` and at least
three rounds, with the cyclic garbage collector paused inside a round;
``all`` runs each workload in a process of its own, so that each reports
its own peak memory.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed operation or
correctness check makes the exit code 1. ``attempted`` and ``failed``
carry the operations-failed fraction, which is also printed.

End-to-end metrics (``--trace 0``; the program runs as it ships). Every
timing of work is corrected for the host's drifting speed by the run's
reference clock (``perfbench/refclock.py``). A byte rate of one phase
is the median over runs of consecutive calls (``BATCHES`` per phase and
round) of bytes over seconds; other timings, ``meta_ops_s`` and latency
percentiles included, are medians over rounds of each round's value.

* ``setup_s``: build the cluster, filesystem and namenode and warm the
  codecs; on rack_burst also write the files; a median over every
  set-up of the run (small_files sets up several times a round);
* ``ingest_mb_s``, ``create_ms_p50``: ``write_file`` calls;
* ``read_mb_s``: healthy full-file reads (after the merge and after the
  repair on lifetime, after the writes and after the repair on
  rack_burst) and, on small_files, the 4 KiB range reads of the mix;
* ``degraded_read_mb_s``: full reads of every file with the victims down;
* ``transcode_mb_s``: user bytes taken out of hybrid over the time of
  every transcode call (the free transition and, where run, the merge);
* ``repair_mb_s``, ``time_to_redundancy_s``: rebuilt bytes over, and the
  time of, the repair after which ``lost_chunks`` is empty:
  ``recover_all()`` on lifetime and small_files; on rack_burst the sum of
  the heartbeat ticks' own times, from the failure until the drain ends;
* ``meta_ops_s``: client operations over their total time, the whole
  mix of a round at once (runs of consecutive calls would each hold a
  different share of slow writes and fast reads);
* ``read_ms_p50``: the reads behind ``read_mb_s``, except on rack_burst,
  where they are the open-loop range reads timed from when each was due
  on a virtual-time schedule (see ``workloads.rack_burst``);
  the p99 of creates and reads are reported with the per-layer metrics
  (``latency.*_ms_p99``, from the untraced rounds of a traced run),
  because one slow heartbeat tick per round sets them on rack_burst and
  their spread over seeds is larger than any bound allows;
* ``io_bytes_per_user_byte``: metered disk read + disk write + network
  bytes over user bytes written (exact);
* ``stored_bytes_per_user_byte``: ``capacity_used()`` at the end over
  live user bytes (exact);
* ``peak_rss_mb``: peak resident memory of the process.

The metrics printed, with their units, are those ``BENCHMARK.json``
lists.

With ``--trace 1`` untraced and traced rounds alternate: the traced
rounds wrap each layer's entry points from outside ``src/``
(``perfbench/tracer.py``) and give the per-layer metrics (raw wall
time), the pair gives ``trace.overhead_frac``, and the spans of the last
traced round are written as Chrome trace-event JSON under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from refclock import NOMINAL_S, ReferenceClock
from spec import CONFIGS, MB

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = tuple(CONFIGS)
MIN_ROUNDS = 3
#: each round's calls of a phase are cut into this many runs of
#: consecutive calls; a rate is the median of the runs' rates, so that a
#: burst of interference from outside the process moves one run, not the
#: result
BATCHES = 8


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def percentile(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def batch_rate(per_round, scale: float) -> float:
    """Median over runs of consecutive calls of sum(amount) / sum(seconds)."""
    rates = []
    for calls in per_round:
        for run in np.array_split(np.asarray(calls, dtype=float).reshape(-1, 2), BATCHES):
            if len(run):
                rates.append(run[:, 0].sum() / run[:, 1].sum() / scale)
    return statistics.median(rates)


def end_to_end(rounds, clock) -> dict:
    """The end-to-end metrics of one run, from its untraced rounds, with
    every timing of work corrected by the run's reference clock."""
    med = statistics.median
    first = rounds[0]

    def fixed(seconds: float, start: float) -> float:
        return clock.scale(seconds, start, start + seconds)

    def rate(phase: str) -> float:
        return batch_rate(
            [[(b, fixed(s, t)) for b, s, t in r.work.get(phase, [])] for r in rounds], MB
        )

    def latency(kind: str, q: float) -> float:
        # median over rounds of each round's percentile: a burst of
        # interference during one round's slowest calls moves that round only
        return med(
            percentile([fixed(ms / 1e3, at) * 1e3 for ms, at in r.latency[kind]], q)
            for r in rounds
        )

    def ttr(r) -> float:
        return sum(fixed(s, t) for _b, s, t in r.work["repair"])

    return {
        "setup_s": med(clock.scale(*setup) for r in rounds for setup in r.setups),
        "ingest_mb_s": rate("ingest"),
        "read_mb_s": rate("read"),
        "degraded_read_mb_s": rate("degraded_read"),
        "transcode_mb_s": rate("transcode"),
        "repair_mb_s": med(r.rebuilt_bytes / MB / ttr(r) for r in rounds),
        "time_to_redundancy_s": med(ttr(r) for r in rounds),
        "meta_ops_s": med(r.ops / sum(fixed(s, t) for s, t in r.op_log) for r in rounds),
        "create_ms_p50": latency("create", 50),
        "create_ms_p99": latency("create", 99),
        "read_ms_p50": latency("read", 50),
        "read_ms_p99": latency("read", 99),
        "io_bytes_per_user_byte": first.exact["io_bytes"] / first.exact["user_bytes"],
        "stored_bytes_per_user_byte": first.exact["stored_bytes"] / first.exact["live_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }, {kind: [len(r.latency[kind]) for r in rounds] for kind in ("create", "read")}


def io_layer(rnd) -> dict:
    """Exact metered-IO ratios per phase (the ``io`` layer)."""
    def ratio(phase: str, base: float) -> float:
        return rnd.io.get(phase, 0.0) / base if base else 0.0

    return {
        "io.ingest_mb_per_user_mb": ratio("ingest", rnd.total("ingest")[0]),
        "io.transcode_mb_per_user_mb": ratio("transcode", rnd.total("transcode")[0]),
        "io.repair_mb_per_rebuilt_mb": ratio("repair", rnd.rebuilt_bytes),
    }


def per_layer(traced, untraced, clock) -> dict:
    """Per-layer metrics: medians over traced rounds, the overhead, and
    the p99 latencies of the untraced rounds."""
    keys = [k for k in traced[0].layer_metrics if not k.startswith("_")]
    out = {k: statistics.median(r.layer_metrics[k] for r in traced) for k in keys}
    user_mb = traced[0].total("ingest")[0] / MB
    out["integrity.crc_mb_per_user_mb"] = out["integrity.crc_mb"] / user_mb
    for key in ("gf.pattern_hit_ratio", "gf.pattern_lookups", "gf.plan_misses",
                "gf.table_misses", "loadgen.late_ms_p99", "loadgen.late_ms_max"):
        out[key] = statistics.median(r.layer.get(key, 0.0) for r in traced)
    out.update(io_layer(traced[0]))
    out["trace.overhead_frac"] = (
        statistics.median(r.op_seconds for r in traced)
        / statistics.median(r.op_seconds for r in untraced)
        - 1.0
    )
    e2e, _samples = end_to_end(untraced, clock)
    for kind in ("create", "read"):
        out[f"latency.{kind}_ms_p99"] = e2e[f"{kind}_ms_p99"]
    return out


def measured_round(body, cfg, seed: int, rnd) -> None:
    """One round with the cyclic garbage collector paused.

    The previous round's cluster is collected first (its objects form
    reference cycles); during the round, collections would start at
    points set by allocation counts and last as long as the heap is big,
    which adds pauses that differ from seed to seed.
    """
    gc.collect()
    gc.disable()
    try:
        body(cfg, seed, rnd)
    finally:
        gc.enable()


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Rounds until ``seconds`` pass; returns (metrics, rounds, failures)."""
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, Round

    cfg = CONFIGS[name]
    body = WORKLOADS[name]
    tracer = Tracer() if trace else None
    clock = ReferenceClock()
    untraced, traced = [], []
    start = perf_counter()
    while True:
        rnd = Round(clock=clock)
        measured_round(body, cfg, seed, rnd)
        untraced.append(rnd)
        if tracer is not None:
            tracer.reset()
            rnd = Round(tracer, clock)
            with tracer.installed():
                measured_round(body, cfg, seed, rnd)
            rnd.layer_metrics = layer_metrics(tracer, rnd.ops)
            traced.append(rnd)
        # Stop before a round that would end past ``seconds``.
        elapsed = perf_counter() - start
        enough = len(untraced) >= (2 if trace else MIN_ROUNDS)
        if enough and elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    rounds = untraced + traced
    failures = [f for r in rounds for f in r.failures]
    # One seed, one sequence of operations: exact counts must not drift.
    for r in rounds[1:]:
        if r.exact != rounds[0].exact:
            failures.append(f"exact counts drifted between rounds: {r.exact} != {rounds[0].exact}")
    attempted = sum(r.attempted for r in rounds) + len(rounds) - 1
    notes = [f"reference kernel {clock.median_s() * 1e3:.3f} ms median over "
             f"{len(clock.took)} samples (nominal {NOMINAL_S * 1e3:.3f} ms)"]
    if trace:
        metrics = per_layer(traced, untraced, clock)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.json"
        tracer.write_chrome_trace(
            path, {"workload": name, "seed": seed, "round": len(traced)}
        )
        notes.append(f"spans of the last traced round: {path} ({len(tracer)} spans)")
    else:
        metrics, samples = end_to_end(untraced, clock)
        notes.append(f"latency samples per round: {samples['create'][0]} creates, "
                     f"{samples['read'][0]} reads, over {len(untraced)} rounds")
    return metrics, rounds, attempted, failures, notes


def units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` defines them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_all(args) -> int:
    """Each workload in a child process; one result with prefixed names."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# FAILED {name}: no result (exit code {done.returncode})", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": m for key, m in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    values, rounds, attempted, failures, notes = run_workload(
        name, args.seed, args.seconds, bool(args.trace), HERE / "out"
    )
    for failure in failures[:5]:
        print(f"# FAILED {name}: {failure}", file=sys.stderr)
    print(f"# {name}: seed {args.seed}, {len(rounds)} rounds, "
          f"{attempted} operations and checks, {len(failures)} failed "
          f"(ops_failed_frac {len(failures) / attempted:.6f})")
    for note in notes:
        print(f"#   {note}")
    metrics = {}
    for key, unit in units(bool(args.trace)).items():
        print(f"#   {key:32s} {values[key]:14.6g} {unit}")
        metrics[key] = {"value": values[key], "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
