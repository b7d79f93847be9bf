#!/usr/bin/env python3
"""clanbft benchmark: simulated protocol kTPS/latency and simulator cost.

    python3 perfbench/run.py --workload dense-n50 --seed 1 --seconds 30 --trace 0

Builds the worker (perfbench/worker.ml) from the source tree with dune,
then runs it once per fresh process until --seconds have passed (at least
three measured runs), and prints every metric by name and unit. The last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the plain runs).
--trace 1 reports the per-layer metrics: host times from runs with the
section profiler on, simulated segments from one traced run, counts from
the metric registry. Every run of a workload at one seed must agree and
commit the same sequence (same fingerprint), plain, profiled and traced
alike; a run that does not counts as failed.

--holdout moves the seed into a series that tuning never uses, to check
a claim on a seed it was not developed against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(ROOT, "_build", "default", "perfbench", "worker.exe")

WORKLOADS = {
    "dense-n50": "Sailfish Full n=50 load 200: O(n^2) echoes, O(n^3) deliveries; "
    "the control plane",
    "crash-recover": "Sailfish Full n=16 load 30, WAL on, one replica down all run, "
    "one restarting: WAL writes and the pull/sync read path",
}

# Held-out seeds have bit 40 set; tuning uses seeds below it.
HOLDOUT_BIT = 1 << 40
MIN_RUNS = 3
RUN_TIMEOUT_S = 170
# p99 is reported only with at least ten samples beyond it.
MIN_LAT_SAMPLES = 1000

# Host times are stated at a reference speed: the median measured seconds
# times REF_S over the median time of the worker's fixed reference loop,
# timed in the same processes. The loop uses nothing from the library, so
# a library change moves only the measured seconds, while a shared host
# that runs everything 30% slower for a few minutes moves both.
REF_S = 0.25
HOST_TIMES = ("wall_s", "setup_s")

# ---- end-to-end metrics (--trace 0), medians over plain runs ----------

END_TO_END = [
    # name, unit, worker field
    ("tput_ktps", "kTPS", "tput_ktps"),
    ("lat_p50_ms", "ms", "lat_p50_ms"),
    ("lat_p99_ms", "ms", "lat_p99_ms"),
    ("lat_samples", "count", "lat_samples"),
    ("wall_s", "s", "wall_s"),
    ("peak_heap_mb", "MB", "peak_heap_mb"),
    ("setup_s", "s", "setup_s"),
]

# ---- per-layer metrics (--trace 1) ------------------------------------
#
# name, unit, class, what it should move. Classes:
#   det  - a count or allocated words: repeats exactly per seed;
#   sim  - simulated time or a ratio of counts: repeats exactly per seed;
#   host - host time: median over the profiled (or plain) runs.

PER_LAYER = [
    ("host.ref_s", "s", "host", "nothing: the reference loop's time, the host's speed"),
    ("host.wall_raw_s", "s", "host", "wall_s before scaling to the reference speed"),
    ("engine.events", "count", "det", "wall_s on dense-n50"),
    ("engine.events_per_s", "1/s", "host", "wall_s on dense-n50"),
    ("engine.dispatch_self_ms", "ms", "host", "wall_s on dense-n50"),
    ("engine.ring_self_ms", "ms", "host", "wall_s on dense-n50"),
    ("net.fanout_self_ms", "ms", "host", "wall_s, peak_heap_mb on dense-n50"),
    ("net.fanout_minor_mw", "Mwords", "det", "wall_s, peak_heap_mb on dense-n50"),
    ("net.msgs_per_txn", "msg/txn", "sim", "wall_s on dense-n50"),
    ("net.bytes_per_txn", "B/txn", "sim", "tput_ktps, lat_p50_ms on dense-n50"),
    ("net.goodput_frac", "frac", "sim", "tput_ktps, lat_p50_ms on dense-n50"),
    ("net.uplink_busy_frac", "frac", "sim", "tput_ktps, lat_p50_ms on dense-n50"),
    ("net.uplink_backlog_p99_us", "us", "sim", "lat_p99_ms on dense-n50"),
    ("net.bytes.val", "B", "det", "dense-n50"),
    ("net.bytes.echo", "B", "det", "dense-n50"),
    ("net.bytes.echo_cert", "B", "det", "dense-n50"),
    ("net.bytes.vertex_request", "B", "det", "crash-recover"),
    ("net.bytes.vertex_reply", "B", "det", "crash-recover"),
    ("net.bytes.sync_request", "B", "det", "crash-recover"),
    ("net.bytes.sync_reply", "B", "det", "crash-recover"),
    ("net.bytes.timeout_share", "B", "det", "crash-recover"),
    ("net.bytes.timeout_cert", "B", "det", "crash-recover"),
    ("net.bytes.no_vote_share", "B", "det", "crash-recover"),
    ("net.bytes.block_request", "B", "det", "crash-recover"),
    ("net.bytes.block_reply", "B", "det", "crash-recover"),
    ("keychain.verify_calls", "count", "det", "wall_s on dense-n50"),
    ("keychain.verify_self_ms", "ms", "host", "wall_s on dense-n50"),
    ("sha256_self_ms", "ms", "host", "wall_s on dense-n50"),
    ("codec.encode_self_ms", "ms", "host", "wall_s, peak_heap_mb on crash-recover"),
    ("codec.encode_major_mw", "Mwords", "det", "wall_s, peak_heap_mb on crash-recover"),
    ("dag.insert_self_ms", "ms", "host", "wall_s on dense-n50"),
    ("dag.parents_self_ms", "ms", "host", "wall_s on dense-n50"),
    ("sailfish.echo_calls", "count", "det", "wall_s on dense-n50"),
    ("sailfish.echo_self_ms", "ms", "host", "wall_s on dense-n50"),
    ("sailfish.echo_minor_mw", "Mwords", "det", "wall_s on dense-n50"),
    ("sailfish.propose_self_ms", "ms", "host", "wall_s, peak_heap_mb on dense-n50"),
    ("sailfish.propose_minor_mw", "Mwords", "det", "wall_s, peak_heap_mb on dense-n50"),
    ("sailfish.commit_self_ms", "ms", "host", "wall_s, peak_heap_mb on dense-n50"),
    ("consensus.leader_commit_frac", "frac", "sim", "lat_p99_ms on crash-recover"),
    ("sailfish.pull_retries", "count", "det", "catchup_ms on crash-recover"),
    ("recovery.rounds_fetched", "count", "det", "catchup_ms on crash-recover"),
    ("catchup_ms", "ms", "sim", "time without service on crash-recover"),
    ("seg.dissemination_p50_ms", "ms", "sim", "lat_p50_ms on dense-n50"),
    ("seg.dissemination_p99_ms", "ms", "sim", "lat_p50_ms on dense-n50"),
    ("seg.echo_wait_p50_ms", "ms", "sim", "lat_p99_ms on crash-recover"),
    ("seg.echo_wait_p99_ms", "ms", "sim", "lat_p99_ms on crash-recover"),
    ("seg.quorum_wait_p50_ms", "ms", "sim", "lat_p50_ms on dense-n50"),
    ("seg.quorum_wait_p99_ms", "ms", "sim", "lat_p50_ms on dense-n50"),
    ("seg.dag_wait_p50_ms", "ms", "sim", "lat_p99_ms on crash-recover"),
    ("seg.dag_wait_p99_ms", "ms", "sim", "lat_p99_ms on crash-recover"),
    ("seg.order_wait_p50_ms", "ms", "sim", "lat_p99_ms on crash-recover"),
    ("seg.order_wait_p99_ms", "ms", "sim", "lat_p99_ms on crash-recover"),
    ("analyze.round_advance_p50_ms", "ms", "sim", "tput_ktps on all workloads"),
    ("analyze.stalls", "count", "det", "lat_p99_ms on crash-recover"),
    ("wal.append_self_ms", "ms", "host", "wall_s on crash-recover"),
    ("wal.replay_self_ms", "ms", "host", "wall_s on crash-recover"),
    ("gc.minor_mw", "Mwords", "det", "peak_heap_mb, wall_s on dense-n50, crash-recover"),
    ("gc.promoted_mw", "Mwords", "det", "peak_heap_mb, wall_s on dense-n50, crash-recover"),
    ("gc.major_mw", "Mwords", "det", "peak_heap_mb, wall_s on dense-n50, crash-recover"),
    ("trace_overhead", "x", "host", "profiled wall_s / plain wall_s"),
]

BENIGN = ("dense-n50",)
NO_COMPUTE = "no compute charge: a replica echoes the instant the VAL arrives"
PARENTS_FIRST = "parents are always in the DAG before the certificate"

# Metrics that are zero by construction on some workloads: reported as 0
# and flagged, never dropped.
ZERO_BY_CONSTRUCTION = {
    "seg.echo_wait_p50_ms": (BENIGN, NO_COMPUTE),
    "seg.echo_wait_p99_ms": (BENIGN, NO_COMPUTE),
    "seg.dag_wait_p50_ms": (BENIGN, PARENTS_FIRST),
    "seg.dag_wait_p99_ms": (BENIGN, PARENTS_FIRST),
    "wal.append_self_ms": (BENIGN, "persistence off: no WAL"),
    "wal.replay_self_ms": (BENIGN, "persistence off: no WAL"),
    "codec.encode_self_ms": (BENIGN, "only the WAL encodes"),
    "codec.encode_major_mw": (BENIGN, "only the WAL encodes"),
    "catchup_ms": (BENIGN, "no replica restarts"),
    "recovery.rounds_fetched": (BENIGN, "no replica restarts"),
    "net.bytes.sync_request": (BENIGN, "no replica restarts"),
    "net.bytes.sync_reply": (BENIGN, "no replica restarts"),
}

# Worker fields that are a function of the seed alone: every run of a
# workload at one seed must repeat them exactly, whatever the mode.
SIMULATED = [
    "agreement", "fingerprint", "tput_ktps", "lat_p50_ms", "lat_p99_ms",
    "lat_samples", "events", "rounds", "leaders_committed", "catchup_ms",
    "committed_txns_run", "net_messages", "net_bytes", "uplink_busy_us",
    "uplink_backlog_p99_us", "pull_retries", "rounds_fetched",
]


def simulated_fields(run):
    return {k: v for k, v in run.items() if k in SIMULATED or k.startswith("net_bytes.")}


def allocation_fields(run):
    """Call counts and allocated words: they repeat exactly within a mode
    (the profiler's own allocations differ between modes)."""
    return {
        k: v for k, v in run.items()
        if k.startswith("gc_")
        or (k.startswith("prof.") and (k.endswith(".calls") or k.endswith("_mw")))
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/worker.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=880,
    )
    if proc.returncode != 0 or not os.path.exists(WORKER):
        log(proc.stdout + proc.stderr)
        log("benchmark build failed")
        sys.exit(1)


class Runs:
    """Worker runs of one workload and seed, checked against each other."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.by_mode = {"plain": [], "prof": [], "trace": []}
        # "sim" -> simulated fields of the first good run; mode -> its
        # allocation fields.
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def run(self, mode):
        self.attempted += 1
        try:
            proc = subprocess.run(
                [WORKER, self.workload, str(self.seed), mode],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{mode}: timed out")
            return
        if proc.returncode != 0:
            self.failures.append(f"{mode}: exit {proc.returncode}: {proc.stderr.strip()}")
            return
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        problem = self.check(mode, run)
        if problem:
            self.failures.append(f"{mode}: {problem}")
        # A run that fails a check is still measured; the failure shows in
        # "correct" and "failed".
        self.by_mode[mode].append(run)

    def check(self, mode, run):
        if not run["agreement"]:
            return "agreement violated"
        if run["lat_samples"] < MIN_LAT_SAMPLES:
            return f"only {run['lat_samples']} latency samples; p99 needs {MIN_LAT_SAMPLES}"
        for key, fields in (("sim", simulated_fields(run)), (mode, allocation_fields(run))):
            ref = self.reference.setdefault(key, fields)
            if fields != ref:
                diff = [k for k in fields if fields[k] != ref.get(k)]
                return f"{diff[:6]} differ from the first run ({key})"
        return None

    def median(self, mode, key):
        return statistics.median(r[key] for r in self.by_mode[mode])

    def plain_median(self, key):
        """Median over plain runs; host times at the reference speed."""
        value = self.median("plain", key)
        if key in HOST_TIMES:
            value *= REF_S / self.median("plain", "ref_s")
        return value


def end_to_end(runs, seconds):
    start = time.monotonic()
    while runs.attempted < MIN_RUNS or time.monotonic() - start < seconds:
        runs.run("plain")
    if not runs.by_mode["plain"]:
        return {}
    return {name: (runs.plain_median(field), unit) for name, unit, field in END_TO_END}


def prof_value(run, section, field):
    return run.get(f"prof.{section}.{field}", 0)


def per_layer(runs, seconds):
    start = time.monotonic()
    while (
        not runs.by_mode["plain"] or not runs.by_mode["prof"]
        or time.monotonic() - start < seconds
    ):
        runs.run("plain")
        runs.run("prof")
        if runs.attempted >= 4 * MIN_RUNS and not runs.by_mode["prof"]:
            break
    runs.run("trace")
    if not (runs.by_mode["plain"] and runs.by_mode["prof"] and runs.by_mode["trace"]):
        return {}
    plain, prof, tr = (runs.by_mode[m][0] for m in ("plain", "prof", "trace"))

    def self_ms(*sections):
        return statistics.median(
            sum(prof_value(r, s, "self_ms") for s in sections)
            for r in runs.by_mode["prof"]
        )

    txns = plain["committed_txns_run"]
    plain_wall = runs.median("plain", "wall_s")
    values = {
        "host.ref_s": runs.median("plain", "ref_s"),
        "host.wall_raw_s": plain_wall,
        "engine.events": plain["events"],
        "engine.events_per_s": plain["events"] / runs.plain_median("wall_s"),
        "engine.dispatch_self_ms": self_ms("engine.dispatch"),
        "engine.ring_self_ms": self_ms("engine.ring_scan", "engine.migrate"),
        "net.fanout_self_ms": self_ms("net.fanout"),
        "net.fanout_minor_mw": prof_value(prof, "net.fanout", "self_minor_mw"),
        "net.msgs_per_txn": plain["net_messages"] / txns,
        "net.bytes_per_txn": plain["net_bytes"] / txns,
        "net.goodput_frac": txns * plain["txn_size"] / plain["net_bytes"],
        "net.uplink_busy_frac":
            plain["uplink_busy_us"] / (plain["n_nodes"] * plain["duration_us"]),
        "net.uplink_backlog_p99_us": plain["uplink_backlog_p99_us"],
        "keychain.verify_calls": prof_value(prof, "keychain.verify", "calls"),
        "keychain.verify_self_ms": self_ms("keychain.verify"),
        "sha256_self_ms": self_ms("sha256"),
        "codec.encode_self_ms": self_ms("codec.encode"),
        "codec.encode_major_mw": prof_value(prof, "codec.encode", "self_major_mw"),
        "dag.insert_self_ms": self_ms("dag.insert"),
        "dag.parents_self_ms": self_ms("dag.parents"),
        "sailfish.echo_calls": prof_value(prof, "sailfish.echo", "calls"),
        "sailfish.echo_self_ms": self_ms("sailfish.echo"),
        "sailfish.echo_minor_mw": prof_value(prof, "sailfish.echo", "self_minor_mw"),
        "sailfish.propose_self_ms": self_ms("sailfish.propose"),
        "sailfish.propose_minor_mw": prof_value(prof, "sailfish.propose", "self_minor_mw"),
        "sailfish.commit_self_ms": self_ms("sailfish.commit"),
        "consensus.leader_commit_frac": plain["leaders_committed"] / plain["rounds"],
        "sailfish.pull_retries": plain["pull_retries"],
        "recovery.rounds_fetched": plain["rounds_fetched"],
        "catchup_ms": plain["catchup_ms"],
        "analyze.round_advance_p50_ms": tr["analyze.round_advance_p50_ms"],
        "analyze.stalls": tr["analyze.stalls"],
        "wal.append_self_ms": self_ms("wal.append"),
        "wal.replay_self_ms": self_ms("wal.replay"),
        "gc.minor_mw": plain["gc_minor_mw"],
        "gc.promoted_mw": plain["gc_promoted_mw"],
        "gc.major_mw": plain["gc_major_mw"],
        "trace_overhead": runs.median("prof", "wall_s") / plain_wall,
    }
    for k in ("val", "echo", "echo_cert", "vertex_request", "vertex_reply",
              "sync_request", "sync_reply", "timeout_share", "timeout_cert",
              "no_vote_share", "block_request", "block_reply"):
        values[f"net.bytes.{k}"] = plain[f"net_bytes.{k}"]
    for seg in ("dissemination", "echo_wait", "quorum_wait", "dag_wait", "order_wait"):
        for q in ("p50", "p99"):
            values[f"seg.{seg}_{q}_ms"] = tr[f"seg.{seg}_{q}_ms"]
    return {name: (values[name], unit) for name, unit, _, _ in PER_LAYER}


def print_table(workload, metrics, trace):
    classes = {name: (cls, moves) for name, _, cls, moves in PER_LAYER}
    print(f"{'metric':<32} {'value':>16} {'unit':<8} notes")
    for name, (value, unit) in metrics.items():
        notes = []
        if trace:
            cls, moves = classes[name]
            notes.append({"det": "deterministic", "sim": "deterministic (simulated)",
                          "host": "host-timed"}[cls])
            notes.append(f"-> {moves}")
            zero = ZERO_BY_CONSTRUCTION.get(name)
            if zero and workload in zero[0]:
                notes.append(f"ZERO BY CONSTRUCTION ({zero[1]})"
                             + ("" if value == 0 else f" but reads {value}"))
        print(f"{name:<32} {value:>16.6g} {unit:<8} {'; '.join(notes)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true",
                    help="use the held-out seed SEED with bit 40 set")
    args = ap.parse_args()
    seed = args.seed | HOLDOUT_BIT if args.holdout else args.seed

    build()
    runs = Runs(args.workload, seed)
    log(f"{args.workload} (seed {seed}): {WORKLOADS[args.workload]}")
    if args.trace:
        metrics = per_layer(runs, args.seconds)
    else:
        metrics = end_to_end(runs, args.seconds)
    for f in runs.failures:
        log(f"FAILED {f}")
    if not metrics:
        log("no run succeeded")
        sys.exit(1)
    ref = runs.reference["sim"]
    print(f"workload {args.workload}  seed {seed}  fingerprint {ref['fingerprint']}  "
          f"agreement {ref['agreement']}  runs "
          + ", ".join(f"{m}={len(r)}" for m, r in runs.by_mode.items() if r))
    print_table(args.workload, metrics, args.trace)
    print(json.dumps({
        "correct": not runs.failures,
        "attempted": runs.attempted,
        "failed": len(runs.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
