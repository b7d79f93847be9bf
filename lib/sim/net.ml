module Rng = Clanbft_util.Rng
module Obs = Clanbft_obs.Obs
module Metrics = Clanbft_obs.Metrics
module Trace = Clanbft_obs.Trace
module Stats = Clanbft_util.Stats
module Prof = Clanbft_obs.Prof

let sec_send = Prof.section "net.send"
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

(* One in-flight unicast delivery, recycled through a free stack so the
   steady-state unicast path allocates nothing per message (loopback
   copies in particular fire one per proposal per replica). The [c_msg]
   slot is cleared when the cell is freed so the pool never pins a dead
   message against the GC. *)
type 'msg cell = {
  mutable c_src : int;
  mutable c_dst : int;
  mutable c_bytes : int;
  mutable c_kind : string;
  mutable c_arrival : Time.t;
  mutable c_msg : 'msg option;
}

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  config : config;
  size : 'msg -> int;
  kind : 'msg -> string;
  rng : Rng.t;
  obs : Obs.t;
  handlers : (src:int -> 'msg -> unit) array;
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
  (* Pooled unicast deliveries: every copy costs one engine pool slot
     (shared trampoline + cell index) instead of a fresh closure.
     [deliver_ix] is the single trampoline, tied back to [t] right after
     construction. Under lib/check's choice mode a dropped choice leaks
     its cell until the world is discarded — bounded by the choice pool. *)
  mutable cells : 'msg cell array;
  mutable free_stack : int array;
  mutable free_top : int;
  mutable deliver_ix : int -> unit;
}

let no_handler ~src:_ _ =
  failwith "Net: message delivered to a node with no handler installed"

let fresh_cell () =
  { c_src = 0; c_dst = 0; c_bytes = 0; c_kind = ""; c_arrival = 0; c_msg = None }

let alloc_cell t =
  if t.free_top = 0 then begin
    let old = Array.length t.cells in
    t.cells <-
      Array.init (2 * old) (fun i -> if i < old then t.cells.(i) else fresh_cell ());
    let free = Array.make (2 * old) 0 in
    for i = 0 to old - 1 do
      free.(i) <- old + i
    done;
    t.free_stack <- free;
    t.free_top <- old
  end;
  t.free_top <- t.free_top - 1;
  t.free_stack.(t.free_top)

(* The shared trampoline behind every pooled delivery. The cell is freed
   {e before} the handler runs: handlers send, and the reply may reuse the
   slot immediately. *)
let deliver_cell t ix =
  let c = t.cells.(ix) in
  let src = c.c_src and dst = c.c_dst in
  let bytes = c.c_bytes and kind = c.c_kind and arrival = c.c_arrival in
  let msg = match c.c_msg with Some m -> m | None -> assert false in
  c.c_msg <- None;
  t.free_stack.(t.free_top) <- ix;
  t.free_top <- t.free_top + 1;
  Metrics.add t.bytes_received.(dst) bytes;
  if Trace.enabled t.obs.Obs.trace then
    Trace.emit t.obs.Obs.trace ~ts:arrival (Trace.Msg_recv { src; dst; kind; bytes });
  t.handlers.(dst) ~src msg

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
  let t =
    {
    engine;
    topology;
    config;
    size;
    kind;
    rng;
    obs;
    handlers = Array.make n no_handler;
    uplink_free = Array.make n 0;
    filter = (fun ~src:_ ~dst:_ _ -> true);
    bytes_sent = per_node "net_bytes_sent";
    bytes_received = per_node "net_bytes_received";
    messages_sent = per_node "net_messages_sent";
    total_bytes = Metrics.counter reg "net_bytes_total";
    total_messages = Metrics.counter reg "net_messages_total";
    by_kind = Hashtbl.create 16;
      uplink_backlog =
        Metrics.histogram reg ~buckets:Stats.Histogram.size_buckets
          "uplink_backlog_us";
      uplink_busy = Metrics.counter reg "uplink_busy_us_total";
      cells = Array.init 64 (fun _ -> fresh_cell ());
      free_stack = Array.init 64 Fun.id;
      free_top = 64;
      deliver_ix = ignore;
    }
  in
  t.deliver_ix <- deliver_cell t;
  t

let n t = Topology.n t.topology
let set_handler t i fn = t.handlers.(i) <- fn
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
    let u = (2.0 *. Rng.float rng 1.0) -. 1.0 in
    int_of_float (Float.round (float_of_int base *. config.jitter *. u))

(* [bytes]/[kind] are computed once in [send] and threaded through so the
   receive path never re-serializes the message. Every delivery is
   scheduled through an engine choice point: in ordinary runs that is an
   exact alias of [schedule_ix_at], while under lib/check's choice mode
   the delivery order becomes an external scheduling decision. The state
   rides in a pooled cell, so the scheduling itself allocates nothing. *)
let deliver t ~src ~dst ~bytes ~kind msg arrival =
  let ix = alloc_cell t in
  let c = t.cells.(ix) in
  c.c_src <- src;
  c.c_dst <- dst;
  c.c_bytes <- bytes;
  c.c_kind <- kind;
  c.c_arrival <- arrival;
  c.c_msg <- Some msg;
  Engine.schedule_choice_ix_at t.engine arrival ~src ~dst ~tag:kind t.deliver_ix
    ix

(* The core path with the filter already consulted (or deliberately
   bypassed) and [bytes]/[kind] already priced: fan-out entry points
   compute them once per message, not once per recipient. *)
let send_priced_unchecked t ~src ~dst ~bytes ~kind msg =
  begin
    Prof.enter sec_send;
    let now = Engine.now t.engine in
    Metrics.add t.bytes_sent.(src) bytes;
    Metrics.incr t.messages_sent.(src);
    Metrics.add t.total_bytes bytes;
    Metrics.incr t.total_messages;
    let kh = kind_handles t kind in
    Metrics.add kh.k_bytes bytes;
    Metrics.incr kh.k_msgs;
    let tr = t.obs.Obs.trace in
    if Trace.enabled tr then
      Trace.emit tr ~ts:now (Trace.Msg_send { src; dst; kind; bytes });
    if src = dst then
      deliver t ~src ~dst ~bytes ~kind msg (now + t.config.local_delivery)
    else begin
      let backlog = max 0 (t.uplink_free.(src) - now) in
      Metrics.observe t.uplink_backlog (float_of_int backlog);
      let ser = serialization_us t.config bytes in
      Metrics.add t.uplink_busy ser;
      let start = max now t.uplink_free.(src) in
      let depart = start + ser in
      t.uplink_free.(src) <- depart;
      if Trace.enabled tr then
        Trace.emit tr ~ts:now
          (Trace.Uplink { node = src; kind; bytes; enqueued = now; start; depart });
      let base_latency = Topology.one_way t.topology ~src ~dst in
      let jitter = jitter_draw t.config ~rng:t.rng ~base:base_latency in
      let adversarial =
        if now < t.config.gst && t.config.pre_gst_max_extra > 0 then
          Rng.int t.rng (t.config.pre_gst_max_extra + 1)
        else 0
      in
      let arrival = depart + max 0 (base_latency + jitter) + adversarial in
      deliver t ~src ~dst ~bytes ~kind msg arrival
    end;
    Prof.leave sec_send
  end

let send_priced t ~src ~dst ~bytes ~kind msg =
  if t.filter ~src ~dst msg then send_priced_unchecked t ~src ~dst ~bytes ~kind msg

let price t msg = (t.size msg + t.config.per_message_overhead, t.kind msg)

let send t ~src ~dst msg =
  let bytes, kind = price t msg in
  send_priced t ~src ~dst ~bytes ~kind msg

(* Re-injection path for fault rules and adversary strategies: the copy
   pays full serialization/latency pricing but is never offered to the
   installed filter, so a filter closure may call this without recursing
   into itself (or into filters layered above it). *)
let send_unfiltered t ~src ~dst msg =
  let bytes, kind = price t msg in
  send_priced_unchecked t ~src ~dst ~bytes ~kind msg

(* Batched fan-out: the same priced message to every destination produced by
   [iter], in iteration order. Event for event this is equivalent to calling
   [send_priced] per destination — same filter consultations, same RNG
   draws in the same order, same departure and arrival microseconds, same
   within-bucket scheduling order — but the per-message costs are paid once
   per fan-out instead of once per copy:

   - recipients share a single delivery closure, each copy costing one
     engine pool slot instead of its own environment;
   - serialization is priced once ([ser]) and the per-copy departures are
     derived from it as the uplink FIFO advances;
   - counters are bumped once with the accepted-copy multiple, and the
     backlog histogram records the burst's initial queue depth rather than
     [n] self-inflicted samples;
   - the trace carries one [Msg_bcast] record plus one uplink span covering
     the whole burst (contiguous by FIFO construction: the span's
     [depart - start] equals the summed per-copy serialization).

   The filter runs inside the loop and may legitimately re-enter [send]
   (fault delay/duplicate re-injection), so the uplink cursor
   [t.uplink_free.(src)] is re-read on every iteration rather than cached. *)
let fanout t ~src ~iter msg =
  Prof.enter sec_fanout;
  let bytes, kind = price t msg in
  let now = Engine.now t.engine in
  let ser = serialization_us t.config bytes in
  let recv dst =
    Metrics.add t.bytes_received.(dst) bytes;
    if Trace.enabled t.obs.Obs.trace then
      Trace.emit t.obs.Obs.trace ~ts:(Engine.now t.engine)
        (Trace.Msg_recv { src; dst; kind; bytes });
    t.handlers.(dst) ~src msg
  in
  let accepted = ref 0 and remote = ref 0 in
  let first_backlog = ref 0 and first_start = ref 0 and last_depart = ref 0 in
  iter (fun dst ->
      if t.filter ~src ~dst msg then begin
        incr accepted;
        if dst = src then
          Engine.schedule_choice_ix_at t.engine (now + t.config.local_delivery)
            ~src ~dst ~tag:kind recv dst
        else begin
          let free = t.uplink_free.(src) in
          let start = max now free in
          let depart = start + ser in
          t.uplink_free.(src) <- depart;
          if !remote = 0 then begin
            first_backlog := max 0 (free - now);
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
          let arrival = depart + max 0 (base_latency + jitter) + adversarial in
          Engine.schedule_choice_ix_at t.engine arrival ~src ~dst ~tag:kind recv
            dst
        end
      end);
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
      Trace.emit tr ~ts:now
        (Trace.Msg_bcast { src; kind; bytes; count = !accepted });
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

let multicast t ~src ~dsts msg =
  match dsts with
  | [] -> ()
  | [ dst ] -> send t ~src ~dst msg
  | dsts -> fanout t ~src ~iter:(fun f -> List.iter f dsts) msg

let broadcast t ~src msg =
  let count = n t in
  fanout t ~src
    ~iter:(fun f ->
      for dst = 0 to count - 1 do
        f dst
      done)
    msg

let bytes_sent t i = Metrics.counter_value t.bytes_sent.(i)
let bytes_received t i = Metrics.counter_value t.bytes_received.(i)
let messages_sent t i = Metrics.counter_value t.messages_sent.(i)
let total_bytes t = Metrics.counter_value t.total_bytes
let total_messages t = Metrics.counter_value t.total_messages

(* Heap-census hook: the pooled delivery cells dominate (8 fields + header
   each); the parallel free stack, uplink cursors and handler slots ride
   along. Message payloads referenced by in-flight cells are counted by
   their owning subsystems, not here. *)
let approx_live_words t =
  (9 * Array.length t.cells)
  + Array.length t.free_stack
  + Array.length t.uplink_free
  + Array.length t.handlers

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