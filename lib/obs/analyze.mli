(** Trace analysis: commit critical-path attribution, round timelines,
    queueing statistics and a liveness stall detector.

    {!analyze} consumes a recorded {!Trace.record} stream — in memory from
    a traced run ({!Trace.records}), or re-parsed from a JSONL file via
    {!load_jsonl} — and produces a {!report}. The analysis is {e pure and
    deterministic}: no clocks, no randomness, no dependence on hash-table
    iteration order, so the same trace always renders the byte-identical
    report ([test/test_analyze.ml] asserts this on two same-seed traced
    runs).

    {2 Critical-path attribution}

    Every [Vertex_commit] event becomes one {!path}: the end-to-end
    latency from the sender's [Propose] anchor (the instant the proposal —
    and, in the SMR harness, its freshly minted transactions — left the
    proposer) to this replica's commit, decomposed into five named
    segments by walking the instance's RBC milestones on the committing
    replica:

    - [Dissemination] — PROPOSE → VAL arrival: clan payload dissemination
      (clan members) or digest propagation (non-clan observers);
    - [Echo_wait] — VAL → this replica's ECHO (block/value availability);
    - [Quorum_wait] — ECHO → certificate (2f+1 echo quorum, including the
      clan sub-quorum in the tribe protocols);
    - [Dag_wait] — certificate → DAG insertion (parent availability);
    - [Order_wait] — DAG insertion → commit (leader / ordering wait).

    Missing milestones (a pulled vertex has no VAL phase here) and
    out-of-order ones (a certificate can outrun the value) are clamped
    monotonically, so the five segments always sum {e exactly} to the
    end-to-end latency — asserted per commit by [test/test_analyze.ml].
    Segment definitions and worked examples: [docs/ANALYSIS.md].

    {2 Stall detection}

    Progress timelines (distinct-vertex first commits; round starts) are
    scanned for gaps exceeding [stall_factor] × the median gap; each
    flagged window is attributed to a blocking cause by correlating
    fault-injection and recovery events inside it: a muted replica that
    leads a blocked round ([muted_leader(i)]), partition traffic
    ([partition]), an unfinished state sync ([state_sync]), pull-retry
    storms ([pull_storm]), else [unknown]. Leader inference uses observed
    [(leader_round, source)] commit pairs, falling back to the
    round-robin [r mod n] schedule of [Config.leader_of_round]. *)

(** {1 Report types} *)

(** One per-commit latency segment, in critical-path order. *)
type segment = Dissemination | Echo_wait | Quorum_wait | Dag_wait | Order_wait

val segment_count : int

val all_segments : segment array
(** In path order: dissemination first, ordering wait last. *)

val segment_name : segment -> string
(** Lower-case report/JSON name, e.g. ["quorum_wait"]. *)

(** Nearest-rank summary of an integer-microsecond sample set. All-zero
    (with [count = 0]) when no samples exist. *)
type dist = {
  count : int;
  p50_us : int;
  p99_us : int;
  mean_us : float;
  max_us : int;
}

(** One committed vertex as seen by one committing replica. *)
type path = {
  p_node : int;  (** the committing replica *)
  p_round : int;
  p_source : int;
  p_origin : int;
      (** µs: the sender's PROPOSE anchor (first sighting of the instance
          when the trace predates the [Propose] phase) *)
  p_commit : int;  (** µs *)
  p_segments : int array;
      (** [segment_count] durations in {!all_segments} order, summing
          exactly to [p_commit - p_origin] *)
}

type round_info = {
  r_round : int;
  r_start : int;  (** µs: first PROPOSE (fallback: first VAL) of the round *)
  r_first_commit : int option;
  r_pull_retries : int;
}

(** Per-node uplink-queue totals: busy/queue integrals over the trace. *)
type uplink_info = {
  u_node : int;
  u_busy_us : int;
  u_queue_us : int;
  u_messages : int;
  u_bytes : int;
}

type stall = {
  st_kind : [ `Commit | `Round ];
      (** which progress timeline went silent *)
  st_from : int;  (** µs: last progress before the gap *)
  st_until : int;  (** µs: next progress (or end of trace) *)
  st_gap_us : int;
  st_cause : string;
      (** ["muted_leader(i)"], ["partition"], ["state_sync"],
          ["pull_storm"] or ["unknown"] *)
}

type report = {
  n : int;  (** replica count (1 + highest node id seen) *)
  events : int;
  first_ts : int;
  last_ts : int;
  paths : path list;  (** in commit-emission order *)
  distinct_vertices : int;
  segments : (segment * dist) list;  (** in {!all_segments} order *)
  e2e : dist;  (** end-to-end latency over all {!paths} *)
  rounds : round_info list;  (** ascending round *)
  round_advance : dist;  (** deltas between consecutive round starts *)
  pull_retries : int;
  uplinks : uplink_info list;  (** ascending node *)
  median_commit_gap_us : int;
  median_round_gap_us : int;
  stalls : stall list;  (** ascending window start *)
}

(** {1 Entry points} *)

val load_jsonl : string -> Trace.record list
(** Parse a {!Trace.write_jsonl} / {!Trace.stream} file back into records.
    Unparseable lines are skipped (the JSONL writer never produces any). *)

val analyze : ?stall_factor:float -> Trace.record list -> report
(** Analyze a record stream (must be in emission order, as every sink
    produces it). [stall_factor] (default [5.0]) is the multiple of the
    median inter-progress gap beyond which a silent window is flagged;
    gap-based detection needs at least 4 observed gaps, but a trace with
    rounds and {e no} commit at all is always flagged as one full-span
    stall. *)

val human : report -> string
(** Deterministic human-readable report (section per concern; latencies in
    milliseconds). *)

val dist_json : dist -> Clanbft_util.Json.t
(** One distribution as the
    [{"count","p50_us","p99_us","mean_us","max_us"}] object {!to_json}
    and the benchmark baseline share. *)

val to_json : report -> string
(** Deterministic machine output, schema ["clanbft/analysis/v1"]
    (documented in [docs/ANALYSIS.md]). Per-commit paths are summarized,
    not dumped. *)
