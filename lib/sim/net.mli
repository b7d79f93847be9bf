(** Point-to-point message transport over a {!Topology}, with bandwidth.

    The model that drives every throughput/latency figure in the paper:

    - each node has a finite {e uplink}; sending a message occupies the
      uplink for [bytes / rate] (serialization delay), FIFO — this is what
      makes full-payload dissemination to all [n] parties saturate and what
      the clan technique relieves;
    - after leaving the uplink, a message takes the topology's one-way
      propagation delay (± jitter) to arrive;
    - links are reliable and FIFO per (src, dst) pair — the TCP assumption
      of §3;
    - partial synchrony: before [gst] every message suffers an additional
      adversarial delay drawn uniformly from [0, pre_gst_max_extra].

    Per-node byte and message counters feed the evaluation harness. *)

type config = {
  uplink_gbps : float;  (** per-node uplink bandwidth, gigabits/s *)
  per_message_overhead : int;  (** framing + transport header bytes *)
  jitter : float;  (** latency noise, fraction of one-way delay *)
  gst : Time.t;  (** global stabilization time *)
  pre_gst_max_extra : Time.span;  (** max adversarial delay before GST *)
  local_delivery : Time.span;  (** self-send loopback delay *)
}

val default_config : config
(** 16 Gbps VM uplink derated to an effective wide-area rate (see
    DESIGN.md), 60-byte overhead, 1% jitter, GST = 0 (benign runs). *)

type 'msg t

val create :
  engine:Engine.t ->
  topology:Topology.t ->
  config:config ->
  size:('msg -> int) ->
  ?kind:('msg -> string) ->
  ?obs:Clanbft_obs.Obs.t ->
  rng:Clanbft_util.Rng.t ->
  unit ->
  'msg t
(** [kind] names a message for the per-kind byte breakdown and trace
    events (default: the constant ["msg"]). [obs] supplies the trace sink
    and metric registry; when omitted, the net creates a private registry
    with tracing disabled, so the byte/message accessors below always
    work and two nets never share counters. *)

val n : _ t -> int

val set_handler :
  'msg t ->
  int ->
  ?settled:(src:int -> arrival:Time.t -> 'msg -> bool) ->
  (src:int -> 'msg -> unit) ->
  unit
(** Must be installed for every node before traffic reaches it.

    [settled ~src ~arrival msg] (default: never) says that this handler is
    certain to ignore the copy of [msg] from [src] that arrives at
    [arrival], given the copies already let through. The net asks it once
    per copy, when the copy is sent, with the copy's true delivery time
    (uplink queueing, jitter and pre-GST delay included), and schedules
    every copy it answers [false] for at exactly that arrival. So a
    receiver may remember what it let through: a copy arriving at or
    after one it let through runs after it, since same-microsecond events
    run in scheduling order. A [true] answer must stay right until the
    handler is replaced. A copy it holds for is still filtered, priced,
    queued on the uplink and drawn for (RNG included); but when
    {!Engine.elide} accepts its arrival time it is never scheduled, and
    counts in {!bytes_received} and {!Engine.events_processed} at once
    rather than on arrival — the same totals once the current
    [Engine.run] returns, though a reader inside the run sees them early.
    Copies are never elided while tracing (the predicate is then not
    asked), in choice mode, past the current [Engine.run ~until], or when
    {!will_replace} announced a replacement at or before their arrival. *)

val will_replace : 'msg t -> int -> at:Time.t -> unit
(** The handler at this id will be replaced at [at] (a replica restart):
    a copy arriving at or after [at] is delivered whatever the current
    handler's [settled] says. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** One copy to [dst]: it waits its turn on [src]'s uplink, pays its own
    serialization delay, then the propagation delay. A copy to [src] itself
    is a local loopback. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** One copy to every node including the sender (the self copy is local).

    Every send goes through one batched core: the message is priced once
    and its copies leave the uplink back to back in destination-id order,
    timing-equivalent to one {!send} per destination — identical filter
    calls, RNG draws, departure and arrival times, and within-microsecond
    ordering (asserted by [test/test_sim.ml]). Recipients share one
    delivery closure, the counters are bumped once with the copy-count
    multiple, the backlog histogram records the burst's initial queue depth
    once, and the trace carries one [Msg_bcast] record plus a single uplink
    span covering the whole burst. *)

val broadcast_split :
  'msg t -> src:int -> member:(int -> bool) -> 'msg -> 'msg -> unit
(** [broadcast_split t ~src ~member inside outside] sends [inside] to every
    node [i] with [member i] and [outside] to the rest, in id order — the
    paper's split dissemination (full payload to the clan, digest to the
    rest of the tribe). Each maximal run of consecutive ids on one side is
    one burst, so the copies leave the uplink exactly as a per-destination
    {!send} loop would send them; an interleaved membership costs one burst
    per copy. *)

val jitter_draw :
  config -> rng:Clanbft_util.Rng.t -> base:Time.span -> Time.span
(** The per-copy latency-jitter draw (µs offset applied to [base], the
    one-way propagation delay). Exposed so tests can pin the
    distribution's symmetry; consumes nothing when [config.jitter = 0]. *)

val set_filter : 'msg t -> (src:int -> dst:int -> 'msg -> bool) -> unit
(** Fault-injection hook: messages for which the filter returns [false] are
    silently dropped. Use only for crash/partition tests — reliable-link
    protocols assume eventual delivery. The slot holds a single closure;
    layered consumers ({!Clanbft_faults.Faults} rules below an adversary
    {!Clanbft_faults.Strategy}) compose by reading the current {!filter}
    and delegating to it. *)

val filter : 'msg t -> (src:int -> dst:int -> 'msg -> bool)
(** The currently installed filter (constant [true] when none was set).
    For wrapping: capture it, then {!set_filter} a closure that delegates. *)

val send_unfiltered : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Like {!send} — full serialization, latency and metric pricing — but the
    copy is never offered to the installed filter. Fault rules re-injecting
    delayed/duplicated traffic and adversary strategies releasing held
    messages use this to avoid re-entering their own (or each other's)
    filter logic. *)

(** {1 Metrics}

    All counters are registry-backed ({!registry}); the accessors below
    are retained shorthands over the canonical metrics. The registry
    additionally carries [net_bytes_by_kind{kind}] /
    [net_messages_by_kind{kind}] breakdowns, an [uplink_backlog_us]
    histogram (queued serialization work observed at each non-local
    enqueue) and [uplink_busy_us_total]. *)

val obs : _ t -> Clanbft_obs.Obs.t
val registry : _ t -> Clanbft_obs.Metrics.registry

val bytes_sent : _ t -> int -> int
val bytes_received : _ t -> int -> int
val messages_sent : _ t -> int -> int
val total_bytes : _ t -> int
val total_messages : _ t -> int

val reset_metrics : _ t -> unit
