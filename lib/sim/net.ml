module Rng = Clanbft_util.Rng
module Obs = Clanbft_obs.Obs
module Metrics = Clanbft_obs.Metrics
module Trace = Clanbft_obs.Trace
module Stats = Clanbft_util.Stats
module Prof = Clanbft_obs.Prof

let sec_fanout = Prof.section "net.fanout"

type config = {
  uplink_gbps : float;
  per_message_overhead : int;
  jitter : float;
  gst : Time.t;
  pre_gst_max_extra : Time.span;
  local_delivery : Time.span;
}

let default_config =
  {
    (* e2-standard-32 advertises "up to 16 Gbps"; sustained wide-area TCP
       goodput on such instances is far lower. We model an effective
       per-node uplink of 2 Gbps, which reproduces the saturation knees of
       Fig. 5 (see EXPERIMENTS.md for the calibration note). *)
    uplink_gbps = 2.0;
    per_message_overhead = 60;
    jitter = 0.01;
    gst = 0;
    pre_gst_max_extra = 0;
    local_delivery = 20;
  }

(* Per-kind instruments, resolved once per kind string and cached so the
   per-send cost is one hashtable probe (the registry lookup allocates a
   label list; this cache avoids that on the hot path). *)
type kind_handles = { k_bytes : Metrics.counter; k_msgs : Metrics.counter }

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  config : config;
  size : 'msg -> int;
  kind : 'msg -> string;
  rng : Rng.t;
  obs : Obs.t;
  handlers : (src:int -> 'msg -> unit) array;
  (* Per receiver: copies its current handler is certain to ignore at
     their arrival, and when that handler is replaced (copies arriving then
     or later are always delivered). *)
  settled : (src:int -> arrival:Time.t -> 'msg -> bool) array;
  replaced : Time.t list array;
  uplink_free : Time.t array; (* when each node's uplink next idles *)
  mutable filter : src:int -> dst:int -> 'msg -> bool;
  (* Registry-backed counters (the former bespoke int arrays): handles are
     resolved at construction, so updates cost the same integer add. *)
  bytes_sent : Metrics.counter array;
  bytes_received : Metrics.counter array;
  messages_sent : Metrics.counter array;
  total_bytes : Metrics.counter;
  total_messages : Metrics.counter;
  by_kind : (string, kind_handles) Hashtbl.t;
  uplink_backlog : Metrics.histogram; (* µs of queued serialization work *)
  uplink_busy : Metrics.counter; (* total µs the uplinks spent serializing *)
}

let no_handler ~src:_ _ =
  failwith "Net: message delivered to a node with no handler installed"

let never ~src:_ ~arrival:_ _ = false

(* The filter of a net without one installed: [fanout] skips the call. *)
let pass_all ~src:_ ~dst:_ _ = true

let create ~engine ~topology ~config ~size ?(kind = fun _ -> "msg") ?obs ~rng () =
  let n = Topology.n topology in
  (* Each net gets its own registry unless the caller shares one: the
     byte/message accessors below read these counters, so two nets must
     never alias. *)
  let obs = match obs with Some o -> o | None -> Obs.metrics_only () in
  let reg = obs.Obs.metrics in
  let per_node name =
    Array.init n (fun i ->
        Metrics.counter reg ~labels:[ ("node", string_of_int i) ] name)
  in
  {
    engine;
    topology;
    config;
    size;
    kind;
    rng;
    obs;
    handlers = Array.make n no_handler;
    settled = Array.make n never;
    replaced = Array.make n [];
    uplink_free = Array.make n 0;
    filter = pass_all;
    bytes_sent = per_node "net_bytes_sent";
    bytes_received = per_node "net_bytes_received";
    messages_sent = per_node "net_messages_sent";
    total_bytes = Metrics.counter reg "net_bytes_total";
    total_messages = Metrics.counter reg "net_messages_total";
    by_kind = Hashtbl.create 16;
    uplink_backlog =
      Metrics.histogram reg ~buckets:Stats.Histogram.size_buckets "uplink_backlog_us";
    uplink_busy = Metrics.counter reg "uplink_busy_us_total";
  }

let n t = Topology.n t.topology
let set_handler t i ?(settled = never) fn =
  t.handlers.(i) <- fn;
  t.settled.(i) <- settled

let will_replace t i ~at = t.replaced.(i) <- at :: t.replaced.(i)
let set_filter t f = t.filter <- f
let filter t = t.filter
let obs t = t.obs
let registry t = t.obs.Obs.metrics

let kind_handles t kind =
  match Hashtbl.find_opt t.by_kind kind with
  | Some h -> h
  | None ->
      let reg = t.obs.Obs.metrics in
      let h =
        {
          k_bytes = Metrics.counter reg ~labels:[ ("kind", kind) ] "net_bytes_by_kind";
          k_msgs = Metrics.counter reg ~labels:[ ("kind", kind) ] "net_messages_by_kind";
        }
      in
      Hashtbl.replace t.by_kind kind h;
      h

(* Serialization delay in µs for [bytes] at [gbps]:
   bytes * 8 bits / (gbps * 1e9 bit/s) seconds = bytes * 8 / (gbps * 1e3) µs *)
let serialization_us config bytes =
  int_of_float (ceil (float_of_int bytes *. 8.0 /. (config.uplink_gbps *. 1_000.0)))

(* Latency jitter for one copy, in µs. Draws nothing when jitter is off, so
   a jitter-free run consumes an identical RNG stream.

   The draw must be symmetric around zero: u is uniform on [-1, 1) and the
   scaled value is rounded to nearest, so every integer offset k and its
   mirror -k are equally likely. (An earlier version truncated toward zero,
   which folded the whole (-1, 1) µs band into a double-width zero bin and
   shifted every bin boundary by a full µs, and together with the included
   -1.0 endpoint biased the mean downward — visible in tail percentiles at
   scale.) *)
let jitter_draw config ~rng ~base =
  if config.jitter = 0.0 then 0
  else
    (* [Rng.float rng 1.0], computed here so no boxed float is returned. *)
    let u = (2.0 *. (float_of_int (Rng.bits53 rng) *. 0x1p-53)) -. 1.0 in
    int_of_float (Float.round (float_of_int base *. config.jitter *. u))

(* Is a replacement announced in [now, arrival]? (One at [now] may not have
   run yet.) *)
let rec replaced_within ats ~now ~arrival =
  match ats with
  | [] -> false
  | at :: rest -> (at >= now && at <= arrival) || replaced_within rest ~now ~arrival

(* The one send core: [msg] to every destination in [lo..hi], in id order.
   Each accepted copy is scheduled through an engine choice point (an
   exact alias of [schedule_ix_at] in ordinary runs; under lib/check's
   choice mode the delivery order becomes an external scheduling
   decision). Per-copy work is what differs between copies — the filter
   consultation, the uplink FIFO departure, the jitter and pre-GST draws —
   while the per-message costs are paid once per call:

   - the message is priced once and every recipient shares one delivery
     closure, each copy costing one engine pool entry;
   - counters are bumped once with the accepted-copy multiple, and the
     backlog histogram records the burst's initial queue depth;
   - the trace carries one [Msg_bcast] record plus one uplink span covering
     the whole burst (contiguous by FIFO construction: the span's
     [depart - start] equals the summed per-copy serialization).

   [filtered = false] skips the filter, for re-injected copies. The filter
   may legitimately re-enter [send] (fault delay/duplicate re-injection),
   so the uplink cursor [t.uplink_free.(src)] is re-read on every copy
   rather than cached.

   A copy its receiver declares settled at its arrival is priced, timed and
   counted like any other, but when {!Engine.elide} accepts that arrival
   it is charged to the receiver at once and never scheduled: no calendar
   entry, no dispatch, no handler call (DESIGN.md §6). A copy the predicate
   answers [false] for is scheduled at exactly the arrival it was asked
   about, which is what lets a receiver reason about the copies it let
   through. Tracing keeps every copy, since each one is a receive
   record, and then the predicate is not asked. *)
let fanout t ~filtered ~src ~lo ~hi msg =
  Prof.enter sec_fanout;
  let bytes = t.size msg + t.config.per_message_overhead and kind = t.kind msg in
  let now = Engine.now t.engine in
  let ser = serialization_us t.config bytes in
  let recv dst =
    Metrics.add t.bytes_received.(dst) bytes;
    if Trace.enabled t.obs.Obs.trace then
      Trace.emit t.obs.Obs.trace ~ts:(Engine.now t.engine)
        (Trace.Msg_recv { src; dst; kind; bytes });
    t.handlers.(dst) ~src msg
  in
  let elides = not (Trace.enabled t.obs.Obs.trace) in
  let filtered = filtered && t.filter != pass_all in
  let accepted = ref 0 and remote = ref 0 in
  let first_backlog = ref 0 and first_start = ref 0 and last_depart = ref 0 in
  for dst = lo to hi do
    if (not filtered) || t.filter ~src ~dst msg then begin
      incr accepted;
      let arrival =
        if dst = src then now + t.config.local_delivery
        else begin
          let free = t.uplink_free.(src) in
          let start = Int.max now free in
          let depart = start + ser in
          t.uplink_free.(src) <- depart;
          if !remote = 0 then begin
            first_backlog := Int.max 0 (free - now);
            first_start := start
          end;
          incr remote;
          last_depart := depart;
          let base_latency = Topology.one_way t.topology ~src ~dst in
          let jitter = jitter_draw t.config ~rng:t.rng ~base:base_latency in
          let adversarial =
            if now < t.config.gst && t.config.pre_gst_max_extra > 0 then
              Rng.int t.rng (t.config.pre_gst_max_extra + 1)
            else 0
          in
          depart + Int.max 0 (base_latency + jitter) + adversarial
        end
      in
      if
        elides
        && t.settled.(dst) ~src ~arrival msg
        && (not (replaced_within t.replaced.(dst) ~now ~arrival))
        && Engine.elide t.engine arrival
      then Metrics.add t.bytes_received.(dst) bytes
      else Engine.schedule_choice_ix_at t.engine arrival ~src ~dst ~tag:kind recv dst
    end
  done;
  if !accepted > 0 then begin
    Metrics.add t.bytes_sent.(src) (bytes * !accepted);
    Metrics.add t.messages_sent.(src) !accepted;
    Metrics.add t.total_bytes (bytes * !accepted);
    Metrics.add t.total_messages !accepted;
    let kh = kind_handles t kind in
    Metrics.add kh.k_bytes (bytes * !accepted);
    Metrics.add kh.k_msgs !accepted;
    if !remote > 0 then begin
      Metrics.observe t.uplink_backlog (float_of_int !first_backlog);
      Metrics.add t.uplink_busy (ser * !remote)
    end;
    let tr = t.obs.Obs.trace in
    if Trace.enabled tr then begin
      Trace.emit tr ~ts:now (Trace.Msg_bcast { src; kind; bytes; count = !accepted });
      if !remote > 0 then
        Trace.emit tr ~ts:now
          (Trace.Uplink
             {
               node = src;
               kind;
               bytes = bytes * !remote;
               enqueued = now;
               start = !first_start;
               depart = !last_depart;
             })
    end
  end;
  Prof.leave sec_fanout

let send t ~src ~dst msg = fanout t ~filtered:true ~src ~lo:dst ~hi:dst msg
let send_unfiltered t ~src ~dst msg = fanout t ~filtered:false ~src ~lo:dst ~hi:dst msg
let broadcast t ~src msg = fanout t ~filtered:true ~src ~lo:0 ~hi:(n t - 1) msg

(* One fan-out per maximal run of consecutive ids on the same side of
   [member], so the copies leave the uplink in id order, exactly as a
   per-destination [send] loop would send them. *)
let broadcast_split t ~src ~member inside outside =
  let count = n t in
  let lo = ref 0 in
  while !lo < count do
    let m = member !lo in
    let hi = ref !lo in
    while !hi + 1 < count && member (!hi + 1) = m do
      incr hi
    done;
    fanout t ~filtered:true ~src ~lo:!lo ~hi:!hi (if m then inside else outside);
    lo := !hi + 1
  done

let bytes_sent t i = Metrics.counter_value t.bytes_sent.(i)
let bytes_received t i = Metrics.counter_value t.bytes_received.(i)
let messages_sent t i = Metrics.counter_value t.messages_sent.(i)
let total_bytes t = Metrics.counter_value t.total_bytes
let total_messages t = Metrics.counter_value t.total_messages

let reset_metrics t =
  Array.iter Metrics.reset_counter t.bytes_sent;
  Array.iter Metrics.reset_counter t.bytes_received;
  Array.iter Metrics.reset_counter t.messages_sent;
  Metrics.reset_counter t.total_bytes;
  Metrics.reset_counter t.total_messages;
  Hashtbl.iter
    (fun _ kh ->
      Metrics.reset_counter kh.k_bytes;
      Metrics.reset_counter kh.k_msgs)
    t.by_kind;
  (* Uplink occupancy state must not leak into the next measured section:
     the busy counter and backlog histogram are observations, and the FIFO
     cursors only matter relative to the engine clock of the traffic that
     built them up. *)
  Metrics.reset_counter t.uplink_busy;
  Stats.Histogram.reset (Metrics.hist t.uplink_backlog);
  Array.fill t.uplink_free 0 (Array.length t.uplink_free) 0