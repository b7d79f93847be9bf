(** Structured protocol tracing.

    A {!t} is a sink of typed, timestamped {!event}s emitted from inside the
    protocol stack: message sends and receipts with wire sizes, uplink-queue
    occupancy spans, RBC phase transitions (VAL/ECHO/READY/certificate/
    deliver/pull-retry), DAG vertex delivery and commit, and fault-injection
    rule firings. Timestamps are the simulation engine's integer
    microseconds ({!Clanbft_sim.Time.t} is [int]; this library sits below
    [clanbft.sim], so plain [int] is used here).

    {2 Zero cost when disabled}

    The {!null} sink reports [enabled = false] and every instrumented call
    site guards event {e construction} behind {!enabled}:

    {[
      if Trace.enabled tr then
        Trace.emit tr ~ts:(Engine.now engine) (Trace.Msg_recv { ... })
    ]}

    so a disabled run allocates nothing and executes one branch per
    potential event. Recording never draws randomness and never schedules
    engine events, which preserves the simulator's bit-exact determinism:
    a benign run commits the identical sequence with tracing on or off
    (asserted by [test/test_obs.ml]).

    {2 Export formats}

    - {!write_jsonl}: one self-describing JSON object per line (the schema
      is documented in [docs/OBSERVABILITY.md], and {!of_jsonl_line} parses
      it back);
    - {!write_chrome}: the Chrome [trace_event] JSON-array format — load
      the file in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}
      for a per-node flame view (uplink busy spans and RBC phase
      transitions are rendered as complete ["X"] events; everything else
      as instants). *)

(** RBC / dissemination phase of an {!event}. [Propose] fires exactly once
    per instance, on the sender, when the proposal leaves for the wire — it
    is the origin anchor for latency attribution ([lib/obs/analyze.ml]).
    [Ready] only occurs in the Bracha-family standalone protocols; the
    merged Sailfish instance goes PROPOSE → VAL → ECHO → CERT. [Pull_retry]
    marks every (re-)issued pull request for a missing value, block or
    vertex — the off-critical-path recovery traffic. *)
type phase = Propose | Val | Echo | Ready | Cert | Deliver | Pull_retry

val phase_name : phase -> string
(** Lower-case wire name, e.g. ["pull_retry"]. *)

val phase_of_name : string -> phase option

(** One traced occurrence. All node/peer ids are tribe indices; [kind] is
    the wire-message tag ({!Clanbft_types.Msg.tag} / [Rbc.msg_tag]);
    [bytes] includes the per-message transport overhead. *)
type event =
  | Msg_bcast of { src : int; kind : string; bytes : int; count : int }
      (** One send burst ([Net.send] / [Net.broadcast], or one run of a
          [Net.broadcast_split]): [count] copies of a [bytes]-sized message
          left [src] at [ts], onto its uplink or the loopback path;
          per-recipient [Msg_recv] records are emitted at each arrival. *)
  | Msg_recv of { src : int; dst : int; kind : string; bytes : int }
      (** Delivered to [dst]'s handler; the record's [ts] is arrival time. *)
  | Uplink of {
      node : int;
      kind : string;
      bytes : int;
      enqueued : int;  (** when the message entered the uplink queue *)
      start : int;  (** when its serialization began (queue exit) *)
      depart : int;  (** when the last byte left the NIC *)
    }
      (** One uplink-queue occupancy span. [start - enqueued] is queueing
          delay, [depart - start] the serialization time; the record's [ts]
          equals [enqueued]. *)
  | Rbc_phase of { node : int; sender : int; round : int; phase : phase }
      (** [node]'s local instance for ([sender], [round]) crossed [phase]. *)
  | Vertex_deliver of { node : int; round : int; source : int }
      (** The vertex entered [node]'s DAG store (all parents present). *)
  | Vertex_commit of {
      node : int;
      round : int;
      source : int;
      leader_round : int;  (** the committed leader that ordered it *)
    }
  | Fault_fire of {
      rule : int;  (** index into the fault plan's rule list *)
      action : string;  (** ["drop"], ["delay"] or ["dup"] *)
      kind : string;
      src : int;
      dst : int;
    }
  | Recovery of {
      node : int;
      stage : string;
          (** lifecycle stage: ["crash"], ["replay"], ["sync_start"],
              ["snapshot_join"] or ["caught_up"] *)
      round : int;  (** the stage's reference round (frontier / target) *)
    }  (** Crash-recovery lifecycle transitions (see [docs/RECOVERY.md]). *)

type record = { ts : int; ev : event }

type t
(** An event sink: {!null}, an in-memory buffer, or a JSONL {!stream}. *)

val null : t
(** The disabled sink: {!enabled} is [false], {!emit} is a no-op. *)

val create : unit -> t
(** A recording sink: retains every emitted record, growing as needed. *)

val stream : out_channel -> t
(** A streaming sink: every {!emit} writes one JSONL line to the channel
    immediately (the channel's own buffering applies) and retains nothing,
    so a long traced run holds at most one record in memory. The caller
    owns the channel and must close (or flush) it after the run. {!length}
    counts lines written; {!iter} and {!records} see nothing, and
    {!write_jsonl} / {!write_chrome} raise [Invalid_argument] — re-parse
    the file with {!of_jsonl_line} instead. *)

val enabled : t -> bool
(** Call sites must check this {e before} allocating an event. *)

val emit : t -> ts:int -> event -> unit
val length : t -> int

val iter : t -> (record -> unit) -> unit
(** In emission order. Records emitted from the same engine callback share
    a timestamp; [Uplink] records carry a future [depart]. Visits nothing
    on {!null} and {!stream} sinks. *)

val records : t -> record list

(** {1 JSONL} *)

val jsonl_of_record : record -> string
(** One JSON object, no trailing newline. *)

val of_jsonl_line : string -> record option
(** Inverse of {!jsonl_of_record} (round-trip is exact for every variant).
    Total: the line goes through [Clanbft_util.Json.of_string], so unknown,
    malformed or truncated lines give [None] and never raise. *)

val write_jsonl : t -> string -> unit
(** Write every record to [path], one per line. Raises [Invalid_argument]
    on a {!stream} sink (it already wrote them). *)

(** {1 Chrome trace_event} *)

val write_chrome : t -> string -> unit
(** Write a [{"traceEvents": [...]}] JSON document: process ids are node
    ids (with name metadata). Uplink spans and RBC phase transitions are
    ["X"] duration events — each chain phase of an instance
    (PROPOSE → VAL → ECHO → READY → CERT → deliver) spans until the
    instance's next phase on that node, so Perfetto shows per-phase latency
    directly; an instance's last phase, and every pull retry, stays an
    instant event. Raises [Invalid_argument] on a {!stream} sink. *)
